"""Problem configuration: a JSON document decoded into a :class:`ProblemConfig`.

:func:`parse_config` checks the JSON type of each field and leaves the
rules on values to the objects it builds from them, once, reporting their
errors as :class:`ConfigError` under the field at fault: ``LayerStack``
owns the grid (under ``layers``), ``as_boxes`` each box's shape and corner
order (under its box field), ``ProblemSpec`` the spec kind and the
reach-avoid target (under ``spec``), ``check_algorithm`` the algorithm,
and ``build_system`` the benchmark and its ``dynamics_params``.  This
module owns only that boxes have the grid's dimension and that ``m`` and
``substeps``, which only synthesis reads, are positive integers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .benchmarks import build_system
from .dynamics import ControlSystem
from .grid import LayerStack
from .problem import ProblemSpec, as_boxes
from .synthesis import check_algorithm

_REQUIRED = object()
_BOX_FIELDS = ("safe_boxes", "obstacle_boxes", "target_boxes")


class ConfigError(ValueError):
    """Configuration rejected; the message names the offending field."""


@dataclass
class ProblemConfig:
    benchmark: str
    spec: str
    layers: int
    eta1: list[float]
    tau1: float
    y_lower: list[float]
    y_upper: list[float]
    algorithm: str
    safe_boxes: list = field(default_factory=list)
    obstacle_boxes: list = field(default_factory=list)
    target_boxes: list = field(default_factory=list)
    m: int = 2
    substeps: int = 5
    dynamics_params: dict | None = None
    out_dir: str = "out"

    def build_system(self) -> ControlSystem:
        return build_system(self.benchmark, self.dynamics_params)

    def build_stack(self) -> LayerStack:
        return LayerStack(self.layers, self.eta1, self.tau1, self.y_lower, self.y_upper)

    def build_spec(self) -> ProblemSpec:
        return ProblemSpec(self.spec, self.safe_boxes, self.obstacle_boxes, self.target_boxes)

    def to_dict(self) -> dict:
        return {
            "benchmark": self.benchmark,
            "spec": self.spec,
            "layers": self.layers,
            "eta1": list(map(float, self.eta1)),
            "tau1": float(self.tau1),
            "y_lower": list(map(float, self.y_lower)),
            "y_upper": list(map(float, self.y_upper)),
            "algorithm": self.algorithm,
            **{key: [[list(map(float, a)), list(map(float, b))] for a, b in getattr(self, key)]
               for key in _BOX_FIELDS},
            "m": self.m,
            "substeps": self.substeps,
            "dynamics_params": self.dynamics_params,
            "out_dir": self.out_dir,
        }


def _read(raw: dict, key: str, convert, default=_REQUIRED):
    """``convert(raw[key])``, or ``default`` when the field is absent;
    any error is a :class:`ConfigError` naming ``key``."""
    if key not in raw and default is not _REQUIRED:
        return default
    try:
        return convert(raw[key])
    except KeyError as exc:
        raise ConfigError(f"{key}: required field {exc} missing") from None
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def _typed(kinds, what: str, cast=None):
    """Converter taking values of ``kinds``, never a bool, through ``cast``."""

    def convert(value):
        if isinstance(value, bool) or not isinstance(value, kinds):
            raise TypeError(f"expected {what}, got {type(value).__name__}")
        return cast(value) if cast else value

    return convert


_text = _typed(str, "a string")
_integer = _typed(int, "an integer")
_number = _typed((int, float), "a number", float)
_list = _typed((list, tuple), "a list")
_vector = _typed((list, tuple), "a list of numbers", lambda v: [_number(x) for x in v])
_params = _typed((dict, type(None)), "an object")


def _count(value) -> int:
    if _integer(value) < 1:
        raise ValueError(f"must be a positive integer, got {value}")
    return value


def _boxes(dim: int):
    """Converter for a list of ``[lower, upper]`` pairs or
    ``{"lower": ..., "upper": ...}`` objects with ``dim`` coordinates."""

    def convert(value):
        pairs = []
        for i, box in enumerate(_list(value)):
            lower, upper = (box["lower"], box["upper"]) if isinstance(box, dict) else _list(box)
            pairs.append((_vector(lower), _vector(upper)))
            if not len(pairs[-1][0]) == len(pairs[-1][1]) == dim:
                raise ValueError(f"box {i} must have dimension {dim}, like the grid")
        as_boxes(pairs)  # the corner order is ProblemSpec's rule
        return pairs

    return convert


def parse_config(raw: dict) -> ProblemConfig:
    """Decode a configuration document; see the module docstring."""
    benchmark = _read(raw, "benchmark", _text)
    params = _read(raw, "dynamics_params", _params, None)
    try:
        build_system(benchmark, params)
    except KeyError as exc:
        raise ConfigError(f"benchmark: {exc.args[0]}") from None
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise ConfigError(f"dynamics_params: {exc}") from exc
    eta1 = _read(raw, "eta1", _vector)
    tau1 = _read(raw, "tau1", _number)
    y_lower = _read(raw, "y_lower", _vector)
    y_upper = _read(raw, "y_upper", _vector)
    stack = _read(raw, "layers", lambda n: LayerStack(_integer(n), eta1, tau1, y_lower, y_upper))
    boxes = {key: _read(raw, key, _boxes(stack.dim), []) for key in _BOX_FIELDS}
    spec = _read(raw, "spec", lambda kind: ProblemSpec(_text(kind), **boxes))
    algorithm = _read(raw, "algorithm", lambda a: check_algorithm(_text(a), spec.kind), "single-layer")
    return ProblemConfig(
        benchmark=benchmark,
        spec=spec.kind,
        layers=stack.levels,
        eta1=eta1,
        tau1=tau1,
        y_lower=y_lower,
        y_upper=y_upper,
        algorithm=algorithm,
        **boxes,
        m=_read(raw, "m", _count, 2),
        substeps=_read(raw, "substeps", _count, 5),
        dynamics_params=params,
        out_dir=_read(raw, "out_dir", _text, "out"),
    )


def read_config(path) -> dict:
    """The raw configuration document, before :func:`parse_config`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except (OSError, ValueError, RecursionError) as exc:  # unreadable, not UTF-8 or not JSON
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config document must be a JSON object")
    return raw


def load_config(path) -> ProblemConfig:
    return parse_config(read_config(path))

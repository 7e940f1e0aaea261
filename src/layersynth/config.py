"""Problem configuration: JSON schema, validation, and materialization."""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .benchmarks import build_system
from .dynamics import ControlSystem
from .grid import LayerStack
from .problem import ProblemSpec, REACH_AVOID, SAFETY
from .synthesis import ALGORITHMS


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
        try:
            return LayerStack(self.layers, self.eta1, self.tau1, self.y_lower, self.y_upper)
        except ValueError as exc:
            raise ConfigError(f"layers/eta1/tau1/y bounds: {exc}") from exc

    def build_spec(self) -> ProblemSpec:
        lo = np.asarray(self.y_lower, dtype=float)
        hi = np.asarray(self.y_upper, dtype=float)

        def clip(boxes, label):
            out = []
            for i, box in enumerate(boxes):
                blo = np.asarray(box[0], dtype=float)
                bhi = np.asarray(box[1], dtype=float)
                clo = np.clip(blo, lo, hi)
                chi = np.clip(bhi, lo, hi)
                if np.any(clo > chi):
                    warnings.warn(f"{label}[{i}] lies outside the region of interest; dropped")
                    continue
                if not (np.array_equal(clo, blo) and np.array_equal(chi, bhi)):
                    warnings.warn(f"{label}[{i}] clipped to the region of interest")
                out.append((clo, chi))
            return out

        return ProblemSpec(
            kind=self.spec,
            safe_boxes=clip(self.safe_boxes, "safe_boxes"),
            obstacle_boxes=clip(self.obstacle_boxes, "obstacle_boxes"),
            target_boxes=clip(self.target_boxes, "target_boxes"),
        )

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
            "safe_boxes": [[list(map(float, a)), list(map(float, b))] for a, b in _pairs(self.safe_boxes)],
            "obstacle_boxes": [[list(map(float, a)), list(map(float, b))] for a, b in _pairs(self.obstacle_boxes)],
            "target_boxes": [[list(map(float, a)), list(map(float, b))] for a, b in _pairs(self.target_boxes)],
            "m": self.m,
            "substeps": self.substeps,
            "dynamics_params": self.dynamics_params,
            "out_dir": self.out_dir,
        }


def _pairs(boxes):
    for box in boxes:
        if isinstance(box, dict):
            yield box["lower"], box["upper"]
        else:
            yield box[0], box[1]


def _require(raw: dict, key: str, kinds, what: str):
    if key not in raw:
        raise ConfigError(f"{key}: required field missing ({what})")
    val = raw[key]
    if not isinstance(val, kinds):
        raise ConfigError(f"{key}: expected {what}, got {type(val).__name__}")
    return val


def _boxes(raw, key: str, dim: int):
    out = []
    for i, box in enumerate(raw.get(key, [])):
        if isinstance(box, dict):
            try:
                lo, hi = box["lower"], box["upper"]
            except KeyError as exc:
                raise ConfigError(f"{key}[{i}]: box needs 'lower' and 'upper'") from exc
        elif isinstance(box, (list, tuple)) and len(box) == 2:
            lo, hi = box
        else:
            raise ConfigError(f"{key}[{i}]: box must be a lower/upper pair")
        if len(lo) != dim or len(hi) != dim:
            raise ConfigError(f"{key}[{i}]: box dimension must be {dim}")
        if any(a > b for a, b in zip(lo, hi)):
            raise ConfigError(f"{key}[{i}]: lower corner exceeds upper corner")
        out.append(([float(v) for v in lo], [float(v) for v in hi]))
    return out


def parse_config(raw: dict) -> ProblemConfig:
    """Validate a configuration document field by field."""
    benchmark = _require(raw, "benchmark", str, "a registered benchmark id")
    try:
        build_system(benchmark, raw.get("dynamics_params"))
    except KeyError as exc:
        raise ConfigError(f"benchmark: {exc.args[0]}") from exc
    spec = _require(raw, "spec", str, f"'{SAFETY}' or '{REACH_AVOID}'")
    if spec not in (SAFETY, REACH_AVOID):
        raise ConfigError(f"spec: must be '{SAFETY}' or '{REACH_AVOID}', got {spec!r}")
    layers = _require(raw, "layers", int, "a positive integer")
    if layers < 1:
        raise ConfigError("layers: must be >= 1")
    eta1 = _require(raw, "eta1", (list, tuple), "a positive vector")
    tau1 = _require(raw, "tau1", (int, float), "a positive number")
    y_lower = _require(raw, "y_lower", (list, tuple), "a vector")
    y_upper = _require(raw, "y_upper", (list, tuple), "a vector")
    dim = len(eta1)
    if len(y_lower) != dim or len(y_upper) != dim:
        raise ConfigError("y_lower/y_upper: dimension must match eta1")
    algorithm = raw.get("algorithm", "single-layer")
    if algorithm not in ALGORITHMS:
        raise ConfigError(f"algorithm: must be one of {ALGORITHMS}, got {algorithm!r}")
    if algorithm.endswith("-safe") and spec != SAFETY:
        raise ConfigError(f"algorithm: {algorithm} requires spec '{SAFETY}'")
    if algorithm.endswith("-reach") and spec != REACH_AVOID:
        raise ConfigError(f"algorithm: {algorithm} requires spec '{REACH_AVOID}'")
    m = raw.get("m", 2)
    if not isinstance(m, int) or m < 1:
        raise ConfigError("m: must be a positive integer")
    substeps = raw.get("substeps", 5)
    if not isinstance(substeps, int) or substeps < 1:
        raise ConfigError("substeps: must be a positive integer")
    if spec == REACH_AVOID and not raw.get("target_boxes"):
        raise ConfigError("target_boxes: reach-avoid configurations need at least one")
    cfg = ProblemConfig(
        benchmark=benchmark,
        spec=spec,
        layers=layers,
        eta1=[float(v) for v in eta1],
        tau1=float(tau1),
        y_lower=[float(v) for v in y_lower],
        y_upper=[float(v) for v in y_upper],
        algorithm=algorithm,
        safe_boxes=_boxes(raw, "safe_boxes", dim),
        obstacle_boxes=_boxes(raw, "obstacle_boxes", dim),
        target_boxes=_boxes(raw, "target_boxes", dim),
        m=m,
        substeps=substeps,
        dynamics_params=raw.get("dynamics_params"),
        out_dir=str(raw.get("out_dir", "out")),
    )
    cfg.build_stack()  # surfaces grid divisibility errors early
    return cfg


def read_config(path) -> dict:
    """The raw configuration document, before :func:`parse_config`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config document must be a JSON object")
    return raw


def load_config(path) -> ProblemConfig:
    return parse_config(read_config(path))

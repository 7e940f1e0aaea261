"""In-memory span tracer wrapped around the public functions of layersynth.

The tracer replaces every public module-level function of each
layersynth module, plus a few named methods and private helpers, with a
wrapper that records a span ``[name, start, end, parent, attrs]``.  The
program itself is not edited: wrappers are installed from here, and
every module namespace that imported a wrapped function by name is
rebound to the wrapper.  A named target that no longer exists is listed
in ``absent`` and the run goes on without it.

:func:`layer_metrics` turns the spans into per-module self times (span
duration minus the time covered by its child spans) and call counts.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import resource
import sys
import time

MODULES = (
    "cli",
    "config",
    "benchmarks",
    "problem",
    "grid",
    "dynamics",
    "abstraction",
    "synthesis",
    "controller",
)

# Methods and private helpers measured in addition to the public
# module-level functions, as "module:qualified.name".
EXTRA_TARGETS = (
    "abstraction:TransitionTable.compute_region",
    "abstraction:TransitionTable.csr",
    "synthesis:_moves_into",
    "controller:MultiLayeredController.quantize",
)


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _region_before(args, kwargs):
    return getattr(args[0], "explored_count", None), _maxrss_kb()


def _region_after(args, kwargs, before):
    table = args[0]
    count, rss = before
    after = getattr(table, "explored_count", None)
    return {
        "pairs": None if count is None or after is None else after - count,
        "layer": getattr(table, "layer", None),
        "kind": getattr(table, "kind", None),
        "rss_kb": _maxrss_kb() - rss,
    }


def _reach_after(args, kwargs, before):
    centers = args[1] if len(args) > 1 else kwargs.get("centers")
    return {"cells": len(centers)} if centers is not None else {}


# name -> (before(args, kwargs), after(args, kwargs, before) -> attrs)
HOOKS = {
    "abstraction.TransitionTable.compute_region": (_region_before, _region_after),
    "dynamics.reach_boxes": (None, _reach_after),
}


class Tracer:
    """Records nested spans of one single-threaded process in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.absent: list[str] = []
        self.wrapped: set[str] = set()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        before_hook, after_hook = HOOKS.get(name, (None, None))
        self.wrapped.add(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = before_hook(args, kwargs) if before_hook else None
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                if after_hook:
                    span[4] = after_hook(args, kwargs, before)

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target; rebind names that imported a target."""
        wrapped: dict[int, object] = {}
        for short in MODULES:
            try:
                mod = importlib.import_module(f"layersynth.{short}")
            except ImportError:
                self.absent.append(f"module {short}")
                continue
            for attr, obj in list(vars(mod).items()):
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    wrapped[id(obj)] = self._wrap(f"{short}.{attr}", obj)
        for target in EXTRA_TARGETS:
            short, qualname = target.split(":")
            owner = sys.modules.get(f"layersynth.{short}")
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, "__dict__", {}).get(attr)
            if not inspect.isfunction(fn):
                self.absent.append(target)
                continue
            if path:
                self._patch(owner, attr, self._wrap(f"{short}.{qualname}", fn))
            else:
                wrapped[id(fn)] = self._wrap(f"{short}.{qualname}", fn)
        for name, mod in list(sys.modules.items()):
            if name != "layersynth" and not name.startswith("layersynth."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrapped:
                    self._patch(mod, attr, wrapped[id(obj)])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


# Per-layer metric -> span names whose self time is summed.
TIMED = {
    "abstraction.csr_s": ("abstraction.TransitionTable.csr",),
    "grid.gamma_s": ("grid.gamma_down", "grid.gamma_up"),
    "synthesis.upre_s": ("synthesis.upre",),
    "synthesis.cpre_s": ("synthesis.cpre",),
    "synthesis.extract_s": ("synthesis._moves_into",),
    "dynamics.reach_boxes_s": ("dynamics.reach_boxes",),
    "dynamics.disturbed_step_s": ("dynamics.sample_disturbed_step",),
    "controller.quantize_s": ("controller.MultiLayeredController.quantize",),
    "cli.export_s": ("grid.export_cellset_csv",),
}

# Per-layer metric -> span names whose calls are counted.
COUNTED = {
    "abstraction.csr_calls": ("abstraction.TransitionTable.csr",),
    "grid.gamma_calls": ("grid.gamma_down", "grid.gamma_up"),
    "synthesis.upre_calls": ("synthesis.upre",),
    "synthesis.cpre_calls": ("synthesis.cpre",),
    "dynamics.disturbed_steps": ("dynamics.sample_disturbed_step",),
    "controller.quantize_calls": ("controller.MultiLayeredController.quantize",),
}

REGION = "abstraction.TransitionTable.compute_region"
LAYERS = (1, 2, 3)

# Synthesis-module spans that are operators, not protocol logic.
_SYNTH_OPERATORS = ("synthesis.cpre", "synthesis.upre", "synthesis.upre_m", "synthesis._moves_into")


def _explore_metrics(spans: list[list], own: list[float]) -> dict[str, float]:
    """Explore time, pairs and memory growth of ``compute_region`` calls."""
    regions = [(s[4] or {}, t) for s, t in zip(spans, own) if s[0] == REGION]
    main = [(a, t) for a, t in regions if a.get("kind") == "main"]
    aux = [(a, t) for a, t in regions if a.get("kind") == "aux"]
    out = {
        "abstraction.explore_s": sum(t for _, t in regions),
        "abstraction.aux_explore_s": sum(t for _, t in aux),
        "abstraction.pairs": sum(a.get("pairs") or 0 for a, _ in main),
        "abstraction.aux_pairs": sum(a.get("pairs") or 0 for a, _ in aux),
    }
    for layer in LAYERS:
        on_layer = [(a, t) for a, t in main if a.get("layer") == layer]
        out[f"abstraction.explore_s.l{layer}"] = sum(t for _, t in on_layer)
        out[f"abstraction.pairs.l{layer}"] = sum(a.get("pairs") or 0 for a, _ in on_layer)
    pairs = out["abstraction.pairs"] + out["abstraction.aux_pairs"]
    grown = 1024 * sum(a.get("rss_kb", 0) for a, _ in regions)
    out["abstraction.us_per_pair"] = 1e6 * out["abstraction.explore_s"] / pairs if pairs else 0.0
    out["abstraction.bytes_per_pair"] = grown / pairs if pairs else 0.0
    return out


def layer_metrics(spans: list[list], wrapped: set[str]) -> dict[str, float]:
    """Per-module self times and call counts of one traced iteration.

    ``wrapped`` names the spans the tracer installed.  A metric whose
    spans were all absent from the program is left out; one whose
    target exists but was never called reads 0.
    """
    own = self_times(spans)
    time_by: dict[str, float] = {}
    calls_by: dict[str, int] = {}
    for span, t in zip(spans, own):
        time_by[span[0]] = time_by.get(span[0], 0.0) + t
        calls_by[span[0]] = calls_by.get(span[0], 0) + 1
    out: dict[str, float] = {}
    for short in MODULES:
        prefix = short + "."
        out[f"{short}.self_s"] = sum(t for n, t in time_by.items() if n.startswith(prefix))
        out[f"{short}.calls"] = sum(c for n, c in calls_by.items() if n.startswith(prefix))
    out["synthesis.protocol_self_s"] = sum(
        t for n, t in time_by.items() if n.startswith("synthesis.") and n not in _SYNTH_OPERATORS
    )
    needs: dict[str, tuple[str, ...]] = {}
    for metric, targets in TIMED.items():
        out[metric] = sum(time_by.get(n, 0.0) for n in targets)
        needs[metric] = targets
    for metric, targets in COUNTED.items():
        out[metric] = sum(calls_by.get(n, 0) for n in targets)
        needs[metric] = targets
    out["dynamics.reach_box_cells"] = sum(
        (s[4] or {}).get("cells", 0) for s in spans if s[0] == "dynamics.reach_boxes"
    )
    needs["dynamics.reach_box_cells"] = TIMED["dynamics.reach_boxes_s"]
    calls = out["controller.quantize_calls"]
    out["controller.us_per_quantize"] = 1e6 * out["controller.quantize_s"] / calls if calls else 0.0
    needs["controller.us_per_quantize"] = COUNTED["controller.quantize_calls"]
    for metric, value in _explore_metrics(spans, own).items():
        out[metric] = value
        needs[metric] = (REGION,)
    return {
        m: v for m, v in out.items() if m not in needs or any(n in wrapped for n in needs[m])
    }

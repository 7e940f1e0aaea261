"""Safety and reach-avoid problem descriptions.

A problem is given by closed boxes: optional safe boxes (default: the
whole region of interest), obstacle boxes carved out of them, and, for
reach-avoid, target boxes.  Synthesis consumes per-layer cell-level
approximations: the safe and target sets are under-approximated (cells
fully inside), obstacles are over-approximated (cells touching them are
removed).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import CellSet, LayerStack, cells_inside_box, cells_intersecting_box, gamma_down

SAFETY = "safe"
REACH_AVOID = "reach-avoid"


def _as_boxes(boxes) -> list[tuple[np.ndarray, np.ndarray]]:
    out = []
    for lo, hi in boxes:
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        hi = np.atleast_1d(np.asarray(hi, dtype=float))
        if lo.shape != hi.shape or np.any(lo > hi):
            raise ValueError(f"malformed box ({lo}, {hi})")
        out.append((lo, hi))
    return out


@dataclass
class ProblemSpec:
    """Box-level control problem over a layer stack's region of interest."""

    kind: str
    safe_boxes: list = field(default_factory=list)
    obstacle_boxes: list = field(default_factory=list)
    target_boxes: list = field(default_factory=list)

    def __post_init__(self):
        if self.kind not in (SAFETY, REACH_AVOID):
            raise ValueError(f"kind must be '{SAFETY}' or '{REACH_AVOID}'")
        self.safe_boxes = _as_boxes(self.safe_boxes)
        self.obstacle_boxes = _as_boxes(self.obstacle_boxes)
        self.target_boxes = _as_boxes(self.target_boxes)
        if self.kind == REACH_AVOID and not self.target_boxes:
            raise ValueError("reach-avoid problems need at least one target box")

    def in_safe_region(self, x, stack: LayerStack):
        """Test a point ``(n,)`` or each row of ``(N, n)`` against the
        concrete safe region (closed boxes); a bool or a bool array.
        A non-finite row is outside every box, so it is never safe."""
        x = np.asarray(x, dtype=float)
        ok = _in_any(x, [(stack.y_lower, stack.y_upper)])
        if self.safe_boxes:
            ok &= _in_any(x, self.safe_boxes)
        ok &= ~_in_any(x, self.obstacle_boxes)
        return bool(ok) if x.ndim == 1 else ok

    def in_target_region(self, x):
        """Like :meth:`in_safe_region`, for the union of the target boxes."""
        x = np.asarray(x, dtype=float)
        ok = _in_any(x, self.target_boxes)
        return bool(ok) if x.ndim == 1 else ok


def _in_any(x: np.ndarray, boxes) -> np.ndarray:
    """Whether each point of ``x`` lies in one of the closed ``boxes``."""
    out = np.zeros(x.shape[:-1], dtype=bool)
    for lo, hi in boxes:
        out |= np.all((x >= lo) & (x <= hi), axis=-1)
    return out


@dataclass
class SpecSets:
    """Per-layer cell approximations of a :class:`ProblemSpec`."""

    safe: list[CellSet]
    target: list[CellSet] | None

    def safe_at(self, layer: int) -> CellSet:
        return self.safe[layer - 1]

    def target_at(self, layer: int) -> CellSet:
        if self.target is None:
            raise ValueError("safety problems have no target sets")
        return self.target[layer - 1]


def _union(stack: LayerStack, layer: int, boxes, cells_of) -> CellSet:
    """Union over ``boxes`` of ``cells_of(stack, layer, lo, hi)``."""
    acc = CellSet.empty(stack, layer)
    for lo, hi in boxes:
        acc.union_update(cells_of(stack, layer, lo, hi))
    return acc


def build_spec_sets(stack: LayerStack, spec: ProblemSpec) -> SpecSets:
    """Compute the per-layer safe/target cell sets of a problem.

    The layer-1 sets are computed directly from the boxes; coarser
    layers additionally intersect with the projection of the layer-1
    sets, so a coarser set never exceeds what the finer sets justify.
    """
    L = stack.levels

    def inside_safe(layer: int) -> CellSet:
        if spec.safe_boxes:
            safe = _union(stack, layer, spec.safe_boxes, cells_inside_box)
        else:
            safe = CellSet.full(stack, layer)
        return safe.difference(_union(stack, layer, spec.obstacle_boxes, cells_intersecting_box))

    safe_sets = [inside_safe(1)]
    for layer in range(2, L + 1):
        direct = inside_safe(layer)
        safe_sets.append(gamma_down(stack, safe_sets[0], layer).intersect(direct))

    target_sets = None
    if spec.kind == REACH_AVOID:
        t1 = _union(stack, 1, spec.target_boxes, cells_inside_box).intersect(safe_sets[0])
        target_sets = [t1]
        for layer in range(2, L + 1):
            direct = _union(stack, layer, spec.target_boxes, cells_inside_box)
            target_sets.append(
                gamma_down(stack, t1, layer).intersect(direct).intersect(safe_sets[layer - 1])
            )

    return SpecSets(safe=safe_sets, target=target_sets)

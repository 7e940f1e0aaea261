"""Lazily populated abstract transition systems.

A transition table maps ``(cell, input)`` pairs to the set of grid cells
intersected by the over-approximated one-period reach box of the cell.
That set is always one box of cells, so a computed entry is stored as
the box: its lower and upper corner cell indices.  Entries are
tri-state: unexplored, computed, or blocked (the reach box leaves the
region of interest, so the pair can never satisfy a
controllable-predecessor containment).  Main tables live on their own
layer's grid; auxiliary tables combine a layer's sampling period with
the coarsest grid and are used only to over-approximate exploration
frontiers.  A blocked auxiliary pair therefore keeps, for cooperative
use only, its box clipped to the region: a finer cell inside the coarse
cell may still reach those cells without leaving the region.  Entries
are computed one input at a time in vectorized batches and live in
memory only, one box store per input.  A hand-built entry whose
successors are not a box is preloaded as one unit box per successor.
"""

from __future__ import annotations

import numpy as np

from .dynamics import ControlSystem, radius_dynamics, reach_boxes
from .grid import CellSet, LayerMismatchError, LayerStack

# Integer type of stored cell indices; LayerStack caps a grid's cell count at its maximum.
_INDEX = np.int32


def _corner_dtype(dims: np.ndarray) -> np.dtype:
    """Smallest signed integer type that holds every per-axis cell count.

    Tables index at most ``_INDEX``'s largest value of cells, so
    ``_INDEX`` always suffices.
    """
    for t in (np.int8, np.int16):
        if int(dims.max()) <= np.iinfo(t).max:
            return np.dtype(t)
    return np.dtype(_INDEX)


class _BlockedType:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "BLOCKED"


#: Sentinel that ``preload`` takes for a pair whose reach box leaves the region.
BLOCKED = _BlockedType()


class UnexploredTransitionError(RuntimeError):
    """A solver read a transition that the frontier never computed."""


class TransitionTable:
    """Tri-state transition map for one abstraction layer.

    ``kind`` is ``"main"`` (grid and period of ``layer``) or ``"aux"``
    (period of ``layer`` on the coarsest grid).  A computed entry is one
    box of cells, stored as its inclusive corner indices in the
    smallest signed integer type that holds the grid's largest axis; a
    preloaded entry is one unit box per successor.  Stored entries are
    immutable; re-computation requests are no-ops.
    """

    def __init__(
        self,
        sys: ControlSystem,
        stack: LayerStack,
        layer: int,
        kind: str = "main",
        substeps_base: int = 5,
    ):
        if kind not in ("main", "aux"):
            raise ValueError("kind must be 'main' or 'aux'")
        stack._check_layer(layer)
        self.sys = sys
        self.stack = stack
        self.layer = layer
        self.kind = kind
        self.grid_layer = stack.levels if kind == "aux" else layer
        self.tau = stack.tau(layer)
        # Substep count scales with the period so the integrator step is
        # identical across layers.
        self.substeps = substeps_base * (2 ** (layer - 1))
        n_cells = stack.cell_count(self.grid_layer)
        n_inputs = sys.n_inputs
        self.n_cells = n_cells
        self._explored = np.zeros((n_inputs, n_cells), dtype=bool)
        # Boxes per input, in the order they were stored; ``_batches``
        # holds the (cells, lo, hi, blocked) batches not yet merged into
        # ``_boxes``.
        self._corner = _corner_dtype(stack.dims(self.grid_layer))
        self._batches: list[list[tuple]] = [[] for _ in range(n_inputs)]
        empty = (
            np.empty(0, dtype=_INDEX),
            np.empty((0, stack.dim), dtype=self._corner),
            np.empty((0, stack.dim), dtype=self._corner),
            np.empty(0, dtype=bool),
        )
        self._boxes: list[tuple] = [empty] * n_inputs
        # Growth-bound radius of a grid cell, per input.
        half_width = 0.5 * stack.eta(self.grid_layer)
        self._radius = [
            radius_dynamics(sys, u, half_width, self.tau, self.substeps) for u in sys.inputs
        ]
        self.explored_count = 0

    # -- population ----------------------------------------------------

    def preload(self, cell: int, u_idx: int, succ) -> None:
        """Insert an entry directly (hand-built games); no-op if explored.

        ``succ`` is BLOCKED or the successor cells, stored as one unit
        box each.
        """
        cell = int(cell)
        if self._explored[u_idx, cell]:
            return
        if succ is not BLOCKED:
            arr = np.unique(np.asarray(succ, dtype=_INDEX))
            if arr.size == 0:
                raise ValueError("computed entries must have at least one successor")
            idx = self.stack.unlinearize(self.grid_layer, arr).astype(self._corner)
            self._batches[u_idx].append(
                (np.full(arr.size, cell, dtype=_INDEX), idx, idx, np.zeros(arr.size, dtype=bool))
            )
        self._explored[u_idx, cell] = True
        self.explored_count += 1

    def _compute_batch(self, u_idx: int, cells: np.ndarray) -> None:
        stack = self.stack
        gl = self.grid_layer
        dims = stack.dims(gl)
        centers = stack.centers(gl, cells)
        lo, hi = reach_boxes(
            self.sys, centers, self._radius[u_idx], self.sys.inputs[u_idx], self.tau, self.substeps
        )
        q_lo = stack.grid_coords(gl, lo)
        q_hi = stack.grid_coords(gl, hi)
        inside = np.all(q_lo >= 0.0, axis=1) & np.all(q_hi <= dims, axis=1)
        floor_lo = np.floor(q_lo).astype(np.int64)
        floor_hi = np.floor(q_hi).astype(np.int64)
        keep = inside
        if self.kind == "aux":
            # Clipped boxes of blocked pairs, for cooperative use.
            keep = inside | (np.all(floor_lo < dims, axis=1) & np.all(floor_hi >= 0, axis=1))
        self._batches[u_idx].append((
            cells[keep].astype(_INDEX),
            np.clip(floor_lo[keep], 0, dims - 1).astype(self._corner),
            np.clip(floor_hi[keep], 0, dims - 1).astype(self._corner),
            ~inside[keep],
        ))
        self._explored[u_idx, cells] = True
        self.explored_count += cells.size

    def compute_region(self, region: CellSet) -> None:
        """Ensure every (cell, input) pair of ``region`` is explored."""
        if region.layer != self.grid_layer:
            raise LayerMismatchError(
                f"region lives on layer {region.layer} but the table's grid "
                f"is layer {self.grid_layer}"
            )
        for u_idx in range(self.sys.n_inputs):
            cells = np.flatnonzero(region.bits & ~self._explored[u_idx])
            if cells.size:
                self._compute_batch(u_idx, cells)

    # -- access ---------------------------------------------------------

    def explored_cells(self) -> CellSet:
        """Cells whose entries are explored for every input."""
        return CellSet(self.grid_layer, self._explored.all(axis=0))

    def csr(self, u_idx: int):
        """Stored boxes of one input as (cells, lo, hi, blocked).

        Box ``k`` of ``cells[k]`` spans the cells from ``lo[k]`` to
        ``hi[k]`` (inclusive, per axis).  Boxes are in storage order, not
        sorted by cell; an explored pair with no unblocked box is
        blocked.  Boxes flagged ``blocked`` are the clipped boxes of
        auxiliary pairs: they serve the cooperative predecessor only and
        never close a move.  The name is that of the compressed-row
        successor store the boxes replaced, under which the benchmark
        tracer times this accessor.
        """
        batches = self._batches[u_idx]
        if batches:
            self._boxes[u_idx] = tuple(
                np.concatenate(parts) for parts in zip(self._boxes[u_idx], *batches)
            )
            batches.clear()
        return self._boxes[u_idx]

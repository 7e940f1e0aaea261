"""Lazily populated abstract transition systems.

A transition table maps ``(cell, input)`` pairs to the set of grid cells
intersected by the over-approximated one-period reach box of the cell.
That set is always one box of cells, so a computed entry is stored as
the box: its lower and upper corner cell indices.  A cell is explored
for every input at once.  On a main table an explored pair with no box
is one whose reach box leaves the region of interest, so it can never
satisfy a controllable-predecessor containment.  Main tables live on
their own layer's grid; auxiliary tables combine a layer's sampling
period with the coarsest grid and are used only to over-approximate
exploration frontiers.  An auxiliary pair whose box leaves the region
therefore keeps, for the cooperative predecessor only, its box clipped
to the region: a finer cell inside the coarse cell may still reach
those cells without leaving the region.  Entries are computed in
vectorized batches on centers shared by all inputs and live in memory
only, one box store per input.  A hand-built entry whose successors are
not a box is preloaded as one unit box per successor.
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


class UnexploredTransitionError(RuntimeError):
    """A solver read a transition that the frontier never computed."""


class TransitionTable:
    """Transition map for one abstraction layer, explored cell by cell.

    ``kind`` is ``"main"`` (grid and period of ``layer``) or ``"aux"``
    (period of ``layer`` on the coarsest grid).  A computed entry is one
    box of cells, stored as its inclusive corner indices in the
    smallest signed integer type that holds the grid's largest axis; a
    preloaded entry is one unit box per successor.  ``_explored`` has
    one bit per cell, set once the cell's entries for every input are
    stored; ``explored_count`` counts the explored pairs.  Stored
    entries are immutable; re-computation requests are no-ops.
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
        self._explored = np.zeros(n_cells, dtype=bool)
        # Boxes per input, in the order they were stored; ``_batches``
        # holds the (cells, lo, hi) batches not yet merged into ``_boxes``.
        self._corner = _corner_dtype(stack.dims(self.grid_layer))
        self._batches: list[list[tuple]] = [[] for _ in range(n_inputs)]
        empty = (
            np.empty(0, dtype=_INDEX),
            np.empty((0, stack.dim), dtype=self._corner),
            np.empty((0, stack.dim), dtype=self._corner),
        )
        self._boxes: list[tuple] = [empty] * n_inputs
        # Growth-bound radius of a grid cell, per input.
        half_width = 0.5 * stack.eta(self.grid_layer)
        self._radius = [
            radius_dynamics(sys, u, half_width, self.tau, self.substeps) for u in sys.inputs
        ]
        self.explored_count = 0

    # -- population ----------------------------------------------------

    def preload(self, cell: int, succs) -> None:
        """Insert one cell's entries directly (hand-built games); no-op
        if the cell is explored.

        ``succs`` holds one entry per input: ``None`` for a pair that
        leaves the region, or its successor cells, stored as one unit
        box each.
        """
        if len(succs) != self.sys.n_inputs:
            raise ValueError(f"{len(succs)} entries for {self.sys.n_inputs} inputs")
        cell = int(cell)
        if self._explored[cell]:
            return
        succs = [None if s is None else np.unique(np.asarray(s, dtype=_INDEX)) for s in succs]
        if any(s is not None and s.size == 0 for s in succs):
            raise ValueError("computed entries must have at least one successor")
        for u_idx, arr in enumerate(succs):
            if arr is not None:
                idx = self.stack.unlinearize(self.grid_layer, arr).astype(self._corner)
                self._batches[u_idx].append((np.full(arr.size, cell, dtype=_INDEX), idx, idx))
        self._explored[cell] = True
        self.explored_count += self.sys.n_inputs

    def compute_region(self, region: CellSet) -> None:
        """Ensure every cell of ``region`` is explored for every input."""
        if region.layer != self.grid_layer:
            raise LayerMismatchError(
                f"region lives on layer {region.layer} but the table's grid "
                f"is layer {self.grid_layer}"
            )
        cells = np.flatnonzero(region.bits & ~self._explored)
        if not cells.size:
            return
        centers = self.stack.centers(self.grid_layer, cells)
        for u_idx, u in enumerate(self.sys.inputs):
            self._store_boxes(u_idx, cells, *reach_boxes(
                self.sys, centers, self._radius[u_idx], u, self.tau, self.substeps
            ))
        self._explored[cells] = True
        self.explored_count += cells.size * self.sys.n_inputs

    def _store_boxes(self, u_idx: int, cells: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> None:
        """Store the grid boxes of ``cells`` under input ``u_idx``.  A call
        per input frees its temporaries before the next input runs."""
        stack = self.stack
        gl = self.grid_layer
        dims = stack.dims(gl)
        q_lo = stack.grid_coords(gl, lo)
        q_hi = stack.grid_coords(gl, hi)
        floor_lo = np.floor(q_lo).astype(np.int64)
        floor_hi = np.floor(q_hi).astype(np.int64)
        keep = np.all(q_lo >= 0.0, axis=1) & np.all(q_hi <= dims, axis=1)
        if self.kind == "aux":
            # Boxes that leave the region but meet it, clipped, for the
            # cooperative predecessor.
            keep |= np.all(floor_lo < dims, axis=1) & np.all(floor_hi >= 0, axis=1)
        self._batches[u_idx].append((
            cells[keep].astype(_INDEX),
            np.clip(floor_lo[keep], 0, dims - 1).astype(self._corner),
            np.clip(floor_hi[keep], 0, dims - 1).astype(self._corner),
        ))

    # -- access ---------------------------------------------------------

    def explored_cells(self) -> CellSet:
        """Cells whose entries are explored for every input."""
        return CellSet(self.grid_layer, self._explored.copy())

    def csr(self, u_idx: int):
        """Stored boxes of one input as (cells, lo, hi).

        Box ``k`` of ``cells[k]`` spans the cells from ``lo[k]`` to
        ``hi[k]`` (inclusive, per axis).  Boxes are in storage order, not
        sorted by cell.  On a main table an explored pair with no box
        leaves the region; an auxiliary table also keeps, clipped to the
        region, the boxes of pairs that leave it.  The name is that of the
        compressed-row successor store the boxes replaced, under which
        the benchmark tracer times this accessor.
        """
        batches = self._batches[u_idx]
        if batches:
            self._boxes[u_idx] = tuple(
                np.concatenate(parts) for parts in zip(self._boxes[u_idx], *batches)
            )
            batches.clear()
        return self._boxes[u_idx]

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
those cells without leaving the region.

Entries are computed in vectorized batches of cells, for all inputs at
once, and live in memory only, in one box store per table.  Each stored
box is keyed by ``input * n_cells + cell``, so one batch appends the
boxes of every input at once, and the solvers read every input's boxes
in one pass over the store (:meth:`TransitionTable.store`), block by
block.  :meth:`TransitionTable.csr` selects one input's boxes from it.
A batch factors per axis: cell centres are integrated once per distinct
value of the read coordinates (``ControlSystem.field_reads``), and each
axis the field does not read is integrated, snapped to the grid and
tested against the region once per occurring (cell index on that axis,
representative), in a small table; a cell gathers its corners and flags
from those tables.  A hand-built entry whose successors are not a box is
preloaded as one unit box per successor.
"""

from __future__ import annotations

import numpy as np

from .dynamics import ControlSystem, integrate_shared, radius_dynamics
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
    preloaded entry is one unit box per successor.  Every input's boxes
    share one store, keyed by ``input * n_cells + cell`` (``int32``
    when every key fits, else ``int64``).  ``_explored`` has
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
        # Every input's boxes, keyed by ``input * n_cells + cell``, in the
        # order they were stored; ``_batches`` holds the (keys, lo, hi)
        # batches not yet merged into ``_store``.
        fits = n_inputs * n_cells <= np.iinfo(np.int32).max
        self._key = np.dtype(np.int32 if fits else np.int64)
        self._corner = _corner_dtype(stack.dims(self.grid_layer))
        self._batches: list[tuple] = []
        self._store = (
            np.empty(0, dtype=self._key),
            np.empty((0, stack.dim), dtype=self._corner),
            np.empty((0, stack.dim), dtype=self._corner),
        )
        # Growth-bound radius of a grid cell, one row per input.
        half_width = 0.5 * stack.eta(self.grid_layer)
        self._radius = np.stack([
            radius_dynamics(sys, u, half_width, self.tau, self.substeps) for u in sys.inputs
        ])
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
        boxed = [(u_idx, arr) for u_idx, arr in enumerate(succs) if arr is not None]
        if boxed:
            keys = [np.full(arr.size, u_idx * self.n_cells + cell) for u_idx, arr in boxed]
            succ = np.concatenate([arr for _, arr in boxed])
            idx = self.stack.unlinearize(self.grid_layer, succ).astype(self._corner)
            self._batches.append((np.concatenate(keys).astype(self._key), idx, idx))
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
        stack, gl, sys = self.stack, self.grid_layer, self.sys
        dims = stack.dims(gl)
        idx = stack.unlinearize(gl, cells)
        reads = list(range(stack.dim) if sys.field_reads is None else sys.field_reads)
        # A row's representative is the first row with its indices on the
        # read axes: with no declaration, the row itself (the key is
        # linearized like the grid, so it is the cell).  On axis ``a`` the
        # row reads entry ``entry[i, a]`` of that axis's end values: its
        # representative's on a read axis, its (index, representative)
        # pair's on a free one.
        key = np.ravel_multi_index(tuple(idx[:, reads].T), dims[reads], order="F")
        _, first, of = np.unique(key, return_index=True, return_inverse=True)
        entry = np.repeat(of[:, None], stack.dim, axis=1)
        free = []
        for a in range(stack.dim):
            if a not in reads:
                _, at, entry[:, a] = np.unique(
                    of * dims[a] + idx[:, a], return_index=True, return_inverse=True
                )
                free.append((a, stack.centers(gl, cells[at])[:, a], of[at]))
        ends, tables = integrate_shared(
            sys, stack.centers(gl, cells[first]), sys.inputs, self.tau, self.substeps, free
        )
        # Every axis's end values as one column per input, padded.
        width = max([first.size] + [t.shape[1] for t in tables])
        values = np.zeros((sys.n_inputs, width, stack.dim))
        values[:, : first.size, reads] = ends[:, :, reads]
        for (a, _, _), t in zip(free, tables):
            values[:, : t.shape[1], a] = t
        self._store_boxes(cells, entry * stack.dim + np.arange(stack.dim), values)
        self._explored[cells] = True
        self.explored_count += cells.size * sys.n_inputs

    def _store_boxes(self, cells: np.ndarray, flat: np.ndarray, c: np.ndarray) -> None:
        """Store the grid boxes of ``cells`` under every input.

        ``c`` ``(n_inputs, width, dim)`` holds per-axis end centres, one
        column per axis and one block per input; under input ``u``, row
        ``i`` of the batch reads the flat positions ``flat[i]`` of
        ``c[u]``.  Each value is snapped, floored and tested against the
        region on its axis alone, and a row keeps the AND of its axes'
        flags.  The boxes of every input are appended in one batch,
        input by input.
        """
        stack = self.stack
        gl = self.grid_layer
        dims = stack.dims(gl)
        n_inputs, _, dim = c.shape
        radius = self._radius[:, None, :]
        q_lo = stack.grid_coords(gl, c - radius)
        q_hi = stack.grid_coords(gl, c + radius)
        floor_lo = np.floor(q_lo).astype(np.int64)
        floor_hi = np.floor(q_hi).astype(np.int64)
        # Bit 0: inside the region on this axis; bit 1 (aux): meets it.
        # A row keeps its box if every axis sets bit 0, or every axis bit 1.
        flags = ((q_lo >= 0.0) & (q_hi <= dims)).astype(np.uint8)
        if self.kind == "aux":
            # Boxes that leave the region but meet it, clipped, for the
            # cooperative predecessor.
            flags[(floor_lo < dims) & (floor_hi >= 0)] |= 2
        # Rows are gathered in the narrowest types: row ``u * len(cells)
        # + i`` is cell ``cells[i]`` under input ``u``.
        def per_row(a):
            return a.reshape(n_inputs, -1)[:, flat].reshape(-1, dim)

        keep = np.flatnonzero(np.bitwise_and.reduce(per_row(flags), axis=1))
        keys = np.arange(n_inputs, dtype=self._key)[:, None] * self.n_cells
        keys = (keys + cells.astype(self._key)).take(keep)
        lo, hi = (
            per_row(np.clip(f, 0, dims - 1).astype(self._corner)).take(keep, axis=0)
            for f in (floor_lo, floor_hi)
        )
        self._batches.append((keys, lo, hi))

    # -- access ---------------------------------------------------------

    def explored_cells(self) -> CellSet:
        """Cells whose entries are explored for every input."""
        return CellSet(self.grid_layer, self._explored.copy())

    def store(self):
        """Every stored box as (keys, lo, hi), in storage order.

        Box ``k`` belongs to input ``keys[k] // n_cells`` and cell
        ``keys[k] % n_cells``, and spans the cells from ``lo[k]`` to
        ``hi[k]`` (inclusive, per axis).  On a main table an explored
        pair with no box leaves the region; an auxiliary table also
        keeps, clipped to the region, the boxes of pairs that leave it.
        """
        if self._batches:
            self._store = tuple(
                np.concatenate(parts) for parts in zip(self._store, *self._batches)
            )
            self._batches.clear()
        return self._store

    def csr(self, u_idx: int):
        """Stored boxes of one input as (cells, lo, hi), selected from
        :meth:`store`.

        Box ``k`` of ``cells[k]`` spans the cells from ``lo[k]`` to
        ``hi[k]``.  Boxes are in storage order, not sorted by cell.  The
        name is that of the compressed-row successor store the boxes
        replaced, under which the benchmark tracer times this accessor.
        """
        keys, lo, hi = self.store()
        base = u_idx * self.n_cells
        rows = np.flatnonzero((keys >= base) & (keys < base + self.n_cells))
        return (keys.take(rows) - base).astype(_INDEX), lo.take(rows, axis=0), hi.take(rows, axis=0)

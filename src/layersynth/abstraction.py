"""Lazily populated abstract transition systems.

A transition table maps ``(cell, input)`` pairs to the set of grid cells
intersected by the over-approximated one-period reach box of the cell.
Entries are tri-state: unexplored, computed, or blocked (the reach box
leaves the region of interest, so the pair can never satisfy a
controllable-predecessor containment).  Main tables live on their own
layer's grid; auxiliary tables combine a layer's sampling period with
the coarsest grid and are used only to over-approximate exploration
frontiers.  A blocked auxiliary pair therefore keeps, for cooperative
use only, the cells of its reach box that lie inside the region: a finer
cell inside the coarse cell may still reach those cells without leaving
the region.  Entries are computed one input at a time in vectorized
batches and live in memory only, one compressed-row store per input.
"""

from __future__ import annotations

import numpy as np

from .dynamics import ControlSystem, reach_boxes
from .grid import CellSet, LayerMismatchError, LayerStack

# Integer type of stored successor indices.
_INDEX = np.int32


class _BlockedType:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "BLOCKED"


#: Sentinel stored for (cell, input) pairs whose reach box leaves the region.
BLOCKED = _BlockedType()


class UnexploredTransitionError(RuntimeError):
    """A solver read a transition that the frontier never computed."""


def _block_cells(j_min: np.ndarray, j_max: np.ndarray, dims: np.ndarray, strides: np.ndarray):
    """Enumerate the cell blocks ``[j_min[r], j_max[r]]`` of every row ``r``.

    Rows with the same block shape are enumerated together.  Returns
    ``(order, lengths, flat)``: the k-th segment of ``flat``, of length
    ``lengths[k]``, holds the ascending linear indices of row
    ``order[k]``.
    """
    extent = j_max - j_min + 1
    base = (j_min @ strides).astype(_INDEX)
    shape_key = np.ravel_multi_index(tuple((extent - 1).T), tuple(int(d) for d in dims))
    keys, group = np.unique(shape_key, return_inverse=True)
    order = np.argsort(group, kind="stable")
    bounds = np.searchsorted(group[order], np.arange(keys.size + 1))
    lengths = np.empty(order.size, dtype=np.int64)
    parts = []
    for k in range(keys.size):
        rows = order[bounds[k] : bounds[k + 1]]
        # Offsets inside the block, dimension 0 varying fastest.
        offs = np.zeros(1, dtype=_INDEX)
        for d in range(len(dims) - 1, -1, -1):
            step = np.arange(extent[rows[0], d], dtype=_INDEX) * _INDEX(strides[d])
            offs = (offs[:, None] + step[None, :]).ravel()
        lengths[bounds[k] : bounds[k + 1]] = offs.size
        parts.append((base[rows, None] + offs[None, :]).ravel())
    flat = np.concatenate(parts) if parts else np.empty(0, dtype=_INDEX)
    return order, lengths, flat


class TransitionTable:
    """Tri-state transition map for one abstraction layer.

    ``kind`` is ``"main"`` (grid and period of ``layer``) or ``"aux"``
    (period of ``layer`` on the coarsest grid).  Computed successor sets
    are immutable once stored; re-computation requests are no-ops.
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
        if n_cells > np.iinfo(_INDEX).max:
            raise ValueError(f"{n_cells} cells do not fit {np.dtype(_INDEX).name} indices")
        n_inputs = sys.n_inputs
        self.n_cells = n_cells
        self._blocked = np.zeros((n_inputs, n_cells), dtype=bool)
        self._explored = np.zeros((n_inputs, n_cells), dtype=bool)
        # Rows with successors, per input, in the order they were stored;
        # ``_pending`` holds the (cells, lengths, flat) batches not yet
        # merged into ``_csr``.
        self._pending: list[list[tuple]] = [[] for _ in range(n_inputs)]
        empty = (
            np.empty(0, dtype=np.int64),
            np.zeros(1, dtype=np.int64),
            np.empty(0, dtype=_INDEX),
            np.empty(0, dtype=bool),
        )
        self._csr: list[tuple] = [empty] * n_inputs
        self.explored_count = 0

    # -- population ----------------------------------------------------

    def preload(self, cell: int, u_idx: int, succ) -> None:
        """Insert an entry directly (hand-built games); no-op if explored."""
        cell = int(cell)
        if self._explored[u_idx, cell]:
            return
        if succ is BLOCKED:
            self._blocked[u_idx, cell] = True
        else:
            arr = np.sort(np.asarray(succ, dtype=_INDEX))
            if arr.size == 0:
                raise ValueError("computed entries must have at least one successor")
            self._pending[u_idx].append((np.asarray([cell]), np.asarray([arr.size]), arr))
        self._explored[u_idx, cell] = True
        self.explored_count += 1

    def _compute_batch(self, u_idx: int, cells: np.ndarray) -> None:
        stack = self.stack
        gl = self.grid_layer
        eta = stack.eta(gl)
        dims = stack.dims(gl)
        centers = stack.centers(gl, cells)
        lo, hi = reach_boxes(
            self.sys, centers, 0.5 * eta, self.sys.inputs[u_idx], self.tau, self.substeps
        )
        q_lo = stack.grid_coords(gl, lo)
        q_hi = stack.grid_coords(gl, hi)
        inside = np.all(q_lo >= 0.0, axis=1) & np.all(q_hi <= dims, axis=1)
        floor_lo = np.floor(q_lo).astype(np.int64)
        floor_hi = np.floor(q_hi).astype(np.int64)
        keep = inside
        if self.kind == "aux":
            # Clipped successors of blocked pairs, for cooperative use.
            keep = inside | (np.all(floor_lo < dims, axis=1) & np.all(floor_hi >= 0, axis=1))
        j_min = np.clip(floor_lo[keep], 0, dims - 1)
        j_max = np.clip(floor_hi[keep], 0, dims - 1)
        order, lengths, flat = _block_cells(j_min, j_max, dims, stack._strides[gl - 1])
        self._pending[u_idx].append((cells[keep][order], lengths, flat))
        self._blocked[u_idx, cells[~inside]] = True
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

    def successors(self, cell: int, u_idx: int):
        """Stored successor set (as a :class:`CellSet`), BLOCKED, or None."""
        if not self._explored[u_idx, cell]:
            return None
        if self._blocked[u_idx, cell]:
            return BLOCKED
        cells, indptr, flat, _ = self.csr(u_idx)
        (row,) = np.flatnonzero(cells == cell)
        succ = flat[indptr[row] : indptr[row + 1]]
        return CellSet.from_indices(self.stack, self.grid_layer, succ)

    def explored_cells(self) -> CellSet:
        """Cells whose entries are explored for every input."""
        return CellSet(self.grid_layer, self._explored.all(axis=0))

    def csr(self, u_idx: int):
        """Stored rows of one input as (cells, indptr, flat, blocked).

        Rows are in storage order, not sorted by cell.  Row ``k`` lists the successors of ``cells[k]`` in
        ``flat[indptr[k]:indptr[k + 1]]``.  Rows flagged ``blocked`` are
        the clipped successors of auxiliary pairs: they serve the
        cooperative predecessor only and never close a move.
        """
        pending = self._pending[u_idx]
        if pending:
            cells, indptr, flat, blocked = self._csr[u_idx]
            new_cells = np.concatenate([p[0] for p in pending])
            new_ends = indptr[-1] + np.cumsum(np.concatenate([p[1] for p in pending]))
            self._csr[u_idx] = (
                np.concatenate([cells, new_cells]),
                np.concatenate([indptr, new_ends]),
                np.concatenate([flat] + [p[2] for p in pending]),
                np.concatenate([blocked, self._blocked[u_idx, new_cells]]),
            )
            pending.clear()
        return self._csr[u_idx]

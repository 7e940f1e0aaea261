"""Lazily populated abstract transition systems.

A transition table maps ``(cell, input)`` pairs to the set of grid cells
intersected by the over-approximated one-period reach box of the cell.
Entries are tri-state: unexplored, computed, or blocked (the reach box
leaves the region of interest, so the pair can never satisfy a
controllable-predecessor containment).  Main tables live on their own
layer's grid; auxiliary tables combine a layer's sampling period with
the coarsest grid and are used only to over-approximate exploration
frontiers.  Entries are computed one input at a time in vectorized
batches and live in memory only.
"""

from __future__ import annotations

import numpy as np

from .dynamics import ControlSystem, reach_boxes
from .grid import CellSet, LayerMismatchError, LayerStack


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
        n_inputs = sys.n_inputs
        self.n_cells = n_cells
        self._succ: list[dict[int, np.ndarray]] = [dict() for _ in range(n_inputs)]
        self._blocked = np.zeros((n_inputs, n_cells), dtype=bool)
        self._explored = np.zeros((n_inputs, n_cells), dtype=bool)
        self._csr: list[tuple | None] = [None] * n_inputs
        self.explored_count = 0

    # -- population ----------------------------------------------------

    def _store(self, u_idx: int, cell: int, succ) -> None:
        if self._explored[u_idx, cell]:
            return
        if succ is BLOCKED:
            self._blocked[u_idx, cell] = True
        else:
            arr = np.asarray(succ, dtype=np.int64)
            if arr.size == 0:
                raise ValueError("computed entries must have at least one successor")
            self._succ[u_idx][cell] = np.sort(arr)
        self._explored[u_idx, cell] = True
        self._csr[u_idx] = None
        self.explored_count += 1

    def preload(self, cell: int, u_idx: int, succ) -> None:
        """Insert an entry directly (hand-built games)."""
        self._store(u_idx, int(cell), succ)

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
        j_min = np.clip(np.floor(q_lo).astype(np.int64), 0, dims - 1)
        j_max = np.clip(np.floor(q_hi).astype(np.int64), 0, dims - 1)
        strides = stack._strides[gl - 1]
        for row, cell in enumerate(cells):
            cell = int(cell)
            if not inside[row]:
                self._store(u_idx, cell, BLOCKED)
                continue
            linear = np.zeros(1, dtype=np.int64)
            for d in range(stack.dim):
                offs = np.arange(j_min[row, d], j_max[row, d] + 1, dtype=np.int64)
                linear = (linear[:, None] + (offs * strides[d])[None, :]).ravel()
            self._store(u_idx, cell, linear)

    def compute(self, cell: int, u_idx: int):
        """Compute one entry (idempotent); returns the stored value."""
        if not self._explored[u_idx, cell]:
            self._compute_batch(u_idx, np.asarray([cell], dtype=np.int64))
        return self.successors(cell, u_idx)

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
        return CellSet.from_indices(self.stack, self.grid_layer, self._succ[u_idx][cell])

    def successor_indices(self, cell: int, u_idx: int) -> np.ndarray:
        """Raw sorted successor indices; raises on unexplored reads."""
        if not self._explored[u_idx, cell]:
            raise UnexploredTransitionError(
                f"transition ({cell}, input {u_idx}) at layer {self.layer} "
                f"({self.kind}) read before exploration"
            )
        if self._blocked[u_idx, cell]:
            return np.empty(0, dtype=np.int64)
        return self._succ[u_idx][cell]

    def explored_cells(self) -> CellSet:
        """Cells whose entries are explored for every input."""
        return CellSet(self.grid_layer, self._explored.all(axis=0))

    def csr(self, u_idx: int):
        """Computed entries of one input as (cells, indptr, flat)."""
        cached = self._csr[u_idx]
        if cached is not None:
            return cached
        succ = self._succ[u_idx]
        cells = np.fromiter(sorted(succ), dtype=np.int64, count=len(succ))
        indptr = np.zeros(cells.size + 1, dtype=np.int64)
        if cells.size:
            lengths = np.fromiter((succ[int(c)].size for c in cells), dtype=np.int64)
            np.cumsum(lengths, out=indptr[1:])
            flat = np.concatenate([succ[int(c)] for c in cells])
        else:
            flat = np.empty(0, dtype=np.int64)
        self._csr[u_idx] = (cells, indptr, flat)
        return self._csr[u_idx]

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
once, at most ``_BLOCK_CELLS`` cells at a time, and live in memory only,
in one box store per table.  Each stored box is keyed by
``input * n_cells + cell``, so one batch appends the boxes of every input
at once.  A box is stored as one ``code``: ``class * n_cells + corner``,
where ``corner`` is the cell of its low corner and ``class`` indexes the
table's distinct box widths (:attr:`TransitionTable.widths`).  The
solvers read the store through one method,
:meth:`TransitionTable.mark_touching`: it marks every pair with a box
that holds a cell of a given set, one bit per box from a whole-grid
bitmap per width class (:func:`_windows`), over every input's boxes in
one pass, block by block.  :meth:`TransitionTable.csr` selects one
input's boxes and decodes their corners.  A batch gets its reach boxes
from :func:`~layersynth.dynamics.reach_boxes` and factors per axis: cell
centres are integrated once per distinct value of the read coordinates
(``ControlSystem.field_reads``), and each axis the field does not read
is integrated, snapped to the grid and tested against the region once
per occurring (cell index on that axis, representative), in a small
table; a row gathers its flags and its parts of the code from those
tables.  A hand-built entry whose successors are not a box is preloaded
as one unit box per successor.
"""

from __future__ import annotations

import numpy as np

from .dynamics import ControlSystem, radius_dynamics, reach_boxes
from .grid import CellSet, LayerMismatchError, LayerStack

# Integer type of stored cell indices; LayerStack caps a grid's cell count at its maximum.
_INDEX = np.int32

# Cells that one exploration step integrates, snaps and stores at once:
# a step holds several arrays of all its rows, so a larger region is
# explored block by block.  A row's box does not depend on its batch, so
# the blocks store the boxes one batch would.
_BLOCK_CELLS = 65_536

# Stored boxes whose window bits one lookup reads: a block's index
# temporaries stay small, where one lookup over a whole layer-1 table
# would hold them for every row.
_BLOCK_ROWS = 16_384

_UNSIGNED = [(np.iinfo(t).max, np.dtype(t)) for t in (np.uint8, np.uint16, np.uint32, np.uint64)]


def unsigned_for(n: int) -> np.dtype:
    """Narrowest unsigned integer type whose maximum is at least ``n``."""
    return next(t for top, t in _UNSIGNED if n <= top)


def check_count(name: str, value) -> None:
    """Raise ``ValueError`` unless ``value`` is an integer >= 1 (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


def _windows(table: TransitionTable, bits: np.ndarray) -> np.ndarray:
    """``windows[class, c]``: the box of width ``table.widths[class]``
    with low corner ``c`` holds a set cell of ``bits``.

    A separable sliding OR (a binary dilation), one axis at a time: a
    row of ``win`` is the window of some classes' widths on the axes
    done, and on the next axis its width ``k`` is its width ``k - 1``
    OR'd with the row shifted by ``k - 1`` cells, one pass each.  A
    window reaching past the grid reads no cell there; no stored box does.
    """
    widths, n_axes = table.widths, table.stack.dim
    # Dimension 0 varies fastest: axis ``a`` is axis ``n_axes - 1 - a`` of a row.
    win = bits.reshape((1,) + tuple(table.stack.dims(table.grid_layer)[::-1]))
    rows = [0] * len(widths)
    for axis in range(n_axes):
        head = (slice(None),) * (n_axes - 1 - axis)
        pairs = list(zip(rows, widths[:, axis].tolist()))
        index = {p: i for i, p in enumerate(dict.fromkeys(pairs))}
        out = np.empty((len(index),) + win.shape[1:], dtype=bool)
        last = None
        for r, w in sorted(index):
            row = out[index[r, w]]
            src, done = (out[index[last]], last[1]) if last and last[0] == r else (win[r], 1)
            if w == done:
                row[...] = src
            for k in range(done, w):
                cut, tail = head + (slice(None, -k),), head + (slice(-k, None),)
                np.bitwise_or(src[cut], win[r][head + (slice(k, None),)], out=row[cut])
                if src is not row:
                    row[tail] = src[tail]
                src = row
            last = (r, w)
        win, rows = out, [index[p] for p in pairs]
    # The last axis's pairs are the distinct widths, so row ``c`` is class ``c``.
    return win.reshape(len(widths), table.n_cells)


class TransitionTable:
    """Transition map for one abstraction layer, explored cell by cell.

    ``kind`` is ``"main"`` (grid and period of ``layer``) or ``"aux"``
    (period of ``layer`` on the coarsest grid).  A computed entry is one
    box of cells; a preloaded entry is one unit box per successor.
    Every input's boxes share one store, keyed by
    ``input * n_cells + cell`` (``int32`` when every key fits, else
    ``int64``).  A box is stored as one code, ``class * n_cells +
    corner``: ``corner`` is the cell of its low corner, linearized like
    the grid, and row ``class`` of ``widths`` holds its width in cells
    per axis.  ``widths`` has one row per distinct width, in the order
    the widths first occur, and only grows.  Codes are of the narrowest
    unsigned type that holds every code of the classes so far; a batch
    that adds a class past that type widens it.

    Width classes are few.  Every cell of a table has its input's
    growth-bound radius ``r``, so on axis ``a`` a computed box is an
    interval of length ``2 r[a]`` in grid units, and an interval of
    length ``L`` meets either ``floor(L) + 1`` or ``floor(L) + 2``
    cells (up to rounding when ``L`` is close to an integer).  A main
    table therefore has at most ``2**dim`` classes per distinct radius,
    plus the unit class of preloaded entries; an auxiliary table adds
    the widths of boxes clipped to the region.

    ``has_box`` has one bool byte per pair ``input * n_cells + cell``, set
    once a box of the pair is stored.  ``_explored`` has one bool per
    cell, set once the cell's entries for every input are stored;
    ``explored_count`` counts the explored pairs.  Stored entries are
    immutable; re-computation requests are no-ops.  ``substeps_base``
    must be an integer >= 1 (not a bool).
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
        check_count("substeps_base", substeps_base)
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
        # order they were stored; ``_batches`` holds the (keys, code)
        # batches not yet merged into ``_store``.
        fits = n_inputs * n_cells <= np.iinfo(np.int32).max
        self._key = np.dtype(np.int32 if fits else np.int64)
        # Width classes: ``_class_of`` maps a width, as a tuple, to its row
        # of ``widths``.  A batch numbers a width ``w`` below ``_bound`` on
        # every axis as ``w @ _radix``; ``_offset`` maps a number to its
        # class's ``class * n_cells``, and ``_known`` marks the numbers of
        # stored widths.
        self._class_of: dict[tuple, int] = {}
        self.widths = np.empty((0, stack.dim), dtype=_INDEX)
        self._code = unsigned_for(n_cells - 1)
        self._bound = np.ones(stack.dim, dtype=np.int64)
        self._renumber(self._bound)
        self._batches: list[tuple] = []
        self._store = (np.empty(0, dtype=self._key), np.empty(0, dtype=self._code))
        self.has_box = np.zeros(n_inputs * n_cells, dtype=bool)
        # Growth-bound radius of a grid cell, one row per input.  It
        # depends on the input only through its growth matrix, so each
        # distinct matrix is integrated once.
        half_width = 0.5 * stack.eta(self.grid_layer)
        by_matrix: dict[bytes, np.ndarray] = {}
        rows = []
        for u in sys.inputs:
            key = np.asarray(sys.growth_matrix(u), dtype=float).tobytes()
            if key not in by_matrix:
                by_matrix[key] = radius_dynamics(sys, u, half_width, self.tau, self.substeps)
            rows.append(by_matrix[key])
        self._radius = np.stack(rows)
        self.explored_count = 0

    # -- population ----------------------------------------------------

    def preload(self, cell: int, succs) -> None:
        """Insert one cell's entries directly (hand-built games); no-op
        if the cell is explored.

        ``succs`` holds one entry per input: ``None`` for a pair that
        leaves the region, or its successor cells, stored as one unit
        box each.  The cell and every successor must be cells of the
        table's grid, given as integers.
        """
        if len(succs) != self.sys.n_inputs:
            raise ValueError(f"{len(succs)} entries for {self.sys.n_inputs} inputs")
        if np.asarray(cell).dtype.kind not in "iu":
            raise ValueError(f"cell {cell!r} is not an integer")
        cell = int(cell)
        if not 0 <= cell < self.n_cells:
            raise ValueError(f"cell {cell} is not on a grid of {self.n_cells} cells")
        if self._explored[cell]:
            return
        succs = [None if s is None else np.unique(np.asarray(s)) for s in succs]
        if any(s is not None and s.size == 0 for s in succs):
            raise ValueError("computed entries must have at least one successor")
        if any(s is not None and s.dtype.kind not in "iu" for s in succs):
            raise ValueError("successors must be integer cells")
        if any(s is not None and (s[0] < 0 or s[-1] >= self.n_cells) for s in succs):
            raise ValueError(f"successors must be cells of a grid of {self.n_cells} cells")
        boxed = [(u_idx, arr) for u_idx, arr in enumerate(succs) if arr is not None]
        if boxed:
            keys = [np.full(arr.size, u_idx * self.n_cells + cell) for u_idx, arr in boxed]
            succ = np.concatenate([arr for _, arr in boxed]).astype(np.int64)
            unit = self._classes([(1,) * self.stack.dim])[0]
            self._append(np.concatenate(keys), (unit * self.n_cells + succ).astype(self._code))
        self._explored[cell] = True
        self.explored_count += self.sys.n_inputs

    def compute_region(self, region: CellSet) -> None:
        """Ensure every cell of ``region`` is explored for every input,
        at most ``_BLOCK_CELLS`` cells at a time."""
        self.check_grid(region)
        cells = np.flatnonzero(region.bits & ~self._explored)
        for start in range(0, cells.size, _BLOCK_CELLS):
            self._compute_cells(cells[start : start + _BLOCK_CELLS])

    def _compute_cells(self, cells: np.ndarray) -> None:
        """Explore ``cells`` (unexplored, sorted) for every input in one batch."""
        stack, gl, sys = self.stack, self.grid_layer, self.sys
        dims = stack.dims(gl)
        reads = list(range(stack.dim) if sys.field_reads is None else sys.field_reads)
        # A row's representative is the first row with its indices on the
        # read axes: when the field reads every axis, the row itself.  On
        # axis ``a`` the row reads entry ``entry[i, a]`` of that axis's
        # end values: its representative's on a read axis, its (index,
        # representative) pair's on a free one.
        if len(reads) == stack.dim:
            first = of = np.arange(cells.size)
        else:
            idx = stack.unlinearize(gl, cells)
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
        (lo, hi), tables = reach_boxes(sys, stack.centers(gl, cells[first]), self._radius,
                                       sys.inputs, self.tau, self.substeps, free)
        # Every axis's corners as one column per input, padded.
        width = max([first.size] + [t[0].shape[1] for t in tables])
        corners = np.zeros((2, sys.n_inputs, width, stack.dim))
        corners[:, :, : first.size, reads] = np.stack([lo, hi])[..., reads]
        for (a, _, _), t in zip(free, tables):
            corners[:, :, : t[0].shape[1], a] = t
        # Only the padded corners stay alive while the boxes are stored.
        del lo, hi, tables
        self._store_boxes(cells, entry, *corners)
        self._explored[cells] = True
        self.explored_count += cells.size * sys.n_inputs

    def _store_boxes(self, cells: np.ndarray, entry: np.ndarray, lo, hi) -> None:
        """Store the grid boxes of ``cells`` under every input.

        ``lo`` and ``hi`` ``(n_inputs, width, dim)`` hold per-axis box
        corners, one block per input; under input ``u``, row ``i`` of the
        batch reads entry ``[u, entry[i, a], a]`` on axis ``a``.  Each
        value is snapped, floored, clipped and tested against the region
        on its axis alone, in that small table.  A row keeps the AND of
        its axes' flags, and sums its axes' parts of its corner cell and
        of its width's number.  The boxes of every input are stored in
        one batch, input by input.
        """
        stack, gl = self.stack, self.grid_layer
        dims = stack.dims(gl)
        n_inputs, _, dim = lo.shape
        q_lo, q_hi = stack.grid_coords(gl, lo), stack.grid_coords(gl, hi)
        floor_lo = np.floor(q_lo).astype(np.int64)
        floor_hi = np.floor(q_hi).astype(np.int64)
        # Bit 0: inside the region on this axis; bit 1 (aux): meets it.
        # A row keeps its box if every axis sets bit 0, or every axis bit 1.
        flags = ((q_lo >= 0.0) & (q_hi <= dims)).astype(np.uint8)
        if self.kind == "aux":
            # Boxes that leave the region but meet it, clipped, for the
            # cooperative predecessor.
            flags[(floor_lo < dims) & (floor_hi >= 0)] |= 2
        lo = np.clip(floor_lo, 0, dims - 1)
        width = np.clip(floor_hi, 0, dims - 1) - lo + 1
        # Each axis's part of the corner cell, linearized like the grid.
        lo *= np.cumprod(dims) // dims
        # No kept row reads an entry without a flag: it takes width 1, so
        # that only the widths of stored boxes are numbered.
        width[flags == 0] = 1
        top = width.max(axis=(0, 1))
        if np.any(top >= self._bound):
            self._renumber(top)

        def per_row(parts, dtype, op=np.add):
            # Row ``u * len(cells) + i`` is cell ``cells[i]`` under input
            # ``u``: ``op`` over the axes of ``parts[a][u, entry[i, a]]``.
            out = parts[0].astype(dtype, copy=False)[:, entry[:, 0]]
            for a in range(1, dim):
                op(out, parts[a].astype(dtype, copy=False)[:, entry[:, a]], out=out)
            return out

        keep = per_row(flags.transpose(2, 0, 1), np.uint8, np.bitwise_and).astype(bool)
        number = per_row((width * self._radix).transpose(2, 0, 1), self._number)[keep]
        known = self._known[number]
        if not known.all():
            # New widths get classes in the order of their first row.
            fresh, new = number[~known], []
            while fresh.size:
                new.append(int(fresh[0]))
                fresh = fresh[fresh != fresh[0]]
            radix, bound = self._radix.tolist(), self._bound.tolist()
            self._classes(tuple(n // r % b for r, b in zip(radix, bound)) for n in new)
        code = self._offset[number]
        code += per_row(lo.transpose(2, 0, 1), self._code)[keep]
        keys = np.arange(n_inputs, dtype=self._key)[:, None] * self.n_cells
        self._append((keys + cells.astype(self._key))[keep], code)

    def _classes(self, widths) -> np.ndarray:
        """Class of each width tuple; a width not yet stored gets the next
        class, and the code type widens to hold its codes."""
        classes = [self._class_of.setdefault(w, len(self._class_of)) for w in widths]
        if len(self._class_of) > len(self.widths):
            self.widths = np.array(list(self._class_of), dtype=_INDEX)
            self._code = unsigned_for(len(self.widths) * self.n_cells - 1)
            self._renumber(self.widths.max(axis=0))
        return np.array(classes, dtype=np.int64)

    def _renumber(self, top: np.ndarray) -> None:
        """Number every width up to ``top`` per axis, and every class."""
        self._bound = np.maximum(self._bound, top + 1)
        self._radix = np.cumprod(self._bound) // self._bound
        size = int(np.prod(self._bound))
        self._number = unsigned_for(size - 1)
        at = self.widths.astype(np.int64) @ self._radix
        self._offset = np.zeros(size, dtype=self._code)
        self._offset[at] = np.arange(at.size) * self.n_cells
        self._known = np.zeros(size, dtype=bool)
        self._known[at] = True

    def _append(self, keys: np.ndarray, code: np.ndarray) -> None:
        self._batches.append((keys.astype(self._key, copy=False), code))
        self.has_box[keys] = True

    # -- access ---------------------------------------------------------

    def check_grid(self, cells: CellSet) -> None:
        """Raise ``LayerMismatchError`` unless ``cells`` lives on the table's grid."""
        if cells.layer != self.grid_layer:
            raise LayerMismatchError(
                f"cell set lives on layer {cells.layer} but the table's grid is "
                f"layer {self.grid_layer}"
            )

    def explored_cells(self) -> CellSet:
        """Cells whose entries are explored for every input."""
        return CellSet(self.grid_layer, self._explored.copy())

    def store(self):
        """Every stored box as (keys, code), in storage order.

        Box ``k`` belongs to input ``keys[k] // n_cells`` and cell
        ``keys[k] % n_cells``.  Its low corner is the cell ``code[k] %
        n_cells``, and it spans ``widths[code[k] // n_cells]`` cells on
        each axis.  On a main table an explored pair with no box leaves
        the region; an auxiliary table also keeps, clipped to the
        region, the boxes of pairs that leave it.
        """
        if self._batches:
            self._store = tuple(
                np.concatenate(parts) for parts in zip(self._store, *self._batches)
            )
            self._batches.clear()
        return self._store

    def mark_touching(self, cells: CellSet, out: np.ndarray) -> None:
        """Set ``out[u, c]`` for every pair with a stored box that holds a
        cell of ``cells``; every other entry keeps its value.

        ``out`` is a C-contiguous bool array of shape ``(n_inputs,
        n_cells)``.  Each box reads one bit of ``cells``'s window of its
        width class at its corner, ``_BLOCK_ROWS`` boxes at a time.  On
        an auxiliary table the clipped boxes of pairs that leave the
        region take part.
        """
        self.check_grid(cells)
        keys, code = self.store()
        windows = _windows(self, cells.bits).ravel()
        flat = out.reshape(-1)
        for start in range(0, keys.size, _BLOCK_ROWS):
            block = slice(start, start + _BLOCK_ROWS)
            flat[keys[block][windows.take(code[block])]] = True

    def csr(self, u_idx: int):
        """Stored boxes of one input as (cells, lo, hi), selected from
        :meth:`store` and decoded to inclusive corners.

        Box ``k`` of ``cells[k]`` spans the cells from ``lo[k]`` to
        ``hi[k]``.  Boxes are in storage order, not sorted by cell.  The
        name is that of the compressed-row successor store the boxes
        replaced, under which the benchmark tracer times this accessor.
        """
        keys, code = self.store()
        first = u_idx * self.n_cells
        rows = np.flatnonzero((keys >= first) & (keys < first + self.n_cells))
        classes, corner = np.divmod(code.take(rows), self.n_cells)
        lo = self.stack.unlinearize(self.grid_layer, corner).astype(_INDEX)
        hi = lo + self.widths[classes]
        hi -= 1
        return (keys.take(rows) - first).astype(_INDEX), lo, hi

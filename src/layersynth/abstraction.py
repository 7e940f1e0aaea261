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
``input * n_cells + cell``, so one batch stores the boxes of every input.
A box is stored as one ``code``: ``class * n_cells + corner``, where
``corner`` is the cell of its low corner and ``class`` indexes the
table's distinct box widths (:attr:`TransitionTable.widths`).  The store
is a list of fixed-size blocks of ``_BLOCK_ROWS`` boxes, written in
place in storage order; only the last block is open, and only the open
block's codes widen when a new class needs a wider type.  The solvers
read the store through one method, :meth:`TransitionTable.mark_touching`:
it marks every pair with a box that holds a cell of a given set, one bit
per box from a whole-grid bitmap per width class (:func:`_windows`),
over every input's boxes in one pass, block by block.
:meth:`TransitionTable.csr` selects one input's boxes and decodes their
corners.  A batch gets its reach boxes from
:func:`~layersynth.dynamics.reach_boxes` and factors per axis: cell
centres are integrated once per distinct value of the read coordinates
(``ControlSystem.field_reads``), and each axis the field does not read
is integrated, snapped to the grid and tested against the region once
per occurring (cell index on that axis, representative), in a small
table of integer parts.  A batch then expands its (cell, input) rows at
most ``_BLOCK_ROWS`` at a time, in groups of whole inputs: a row gathers
its flags and its parts of the code from those tables, and each group's
kept boxes go straight into the store.  A hand-built entry whose
successors are not a box is preloaded as one unit box per successor.
"""

from __future__ import annotations

import numpy as np

from .dynamics import ControlSystem, radius_dynamics, reach_boxes
from .grid import CellSet, LayerMismatchError, LayerStack

# Integer type of stored cell indices; LayerStack caps a grid's cell count at its maximum.
_INDEX = np.int32

# Cells that one exploration step integrates, snaps and stores at once:
# a step holds a few arrays of all its cells, so a larger region is
# explored block by block.  A row's box does not depend on its batch, so
# the blocks store the boxes one batch would.
_BLOCK_CELLS = 65_536

# Boxes per block of the store, and (cell, input) rows that a batch
# expands at once unless one input has more: the block and row
# temporaries of a lookup or a batch stay small, where one over a whole
# layer-1 table would hold them for every row.
_BLOCK_ROWS = 16_384

_UNSIGNED = [(np.iinfo(t).max, np.dtype(t)) for t in (np.uint8, np.uint16, np.uint32, np.uint64)]


def unsigned_for(n: int) -> np.dtype:
    """Narrowest unsigned integer type whose maximum is at least ``n``."""
    return next(t for top, t in _UNSIGNED if n <= top)


def check_count(name: str, value) -> None:
    """Raise ``ValueError`` unless ``value`` is an integer >= 1 (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


def _distinct(key: np.ndarray, size: int):
    """``np.unique(key, return_index=True, return_inverse=True)``'s
    inverse and index for keys in ``[0, size)``, by a table over the keys
    in place of a sort: the rank of each key among the distinct keys, of
    the narrowest unsigned type that holds ``size``, and the first row
    of each distinct key."""
    seen = np.zeros(size, dtype=bool)
    seen[key] = True
    rank = np.cumsum(seen, dtype=unsigned_for(size))
    # Wraps below the least key, where no key reads it.
    rank -= 1
    of = rank[key]
    first = np.full(int(rank[-1]) + 1, key.size)
    np.minimum.at(first, of, np.arange(key.size))
    return of, first


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
        # Each (row, width) grows from the last: in-place ORs on overlapping views make temporaries.
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
    the widths first occur, and only grows.

    The store is a list of blocks of ``_BLOCK_ROWS`` (keys, code) rows,
    filled in place in storage order: a batch's boxes input by input,
    each input's in cell order, and a preloaded cell's input by input.
    The last block is open, with ``_fill`` rows written; a new block is
    opened when it is full.  The open block's codes are of the narrowest
    unsigned type that holds every code of the classes so far, and a
    class past that type widens the open block only; a full block keeps
    the type it was filled with.  :meth:`store` concatenates the blocks.

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
        # A box's key is ``input * n_cells + cell``.
        fits = n_inputs * n_cells <= np.iinfo(np.int32).max
        self._key = np.dtype(np.int32 if fits else np.int64)
        # Width classes: ``_class_of`` maps a width, as a tuple, to its row
        # of ``widths``.  A batch numbers a width ``w`` below ``_bound`` on
        # every axis as ``w @ _radix``; ``_offset`` maps a number to its
        # class's ``class * n_cells``, and ``_known`` marks the numbers of
        # stored widths.
        self._class_of: dict[tuple, int] = {}
        self.widths = np.empty((0, stack.dim), dtype=_INDEX)
        # A batch's cells are of the narrowest type that holds a cell,
        # as are the codes of the first class.
        self._cell = unsigned_for(n_cells - 1)
        self._code = self._cell
        self._bound = np.ones(stack.dim, dtype=np.int64)
        self._renumber(self._bound)
        # The box store: (keys, code) blocks, the last one open.
        self._blocks: list[tuple] = []
        self._fill = 0
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
        cells = np.flatnonzero(region.bits & ~self._explored).astype(self._cell)
        for start in range(0, cells.size, _BLOCK_CELLS):
            self._compute_cells(cells[start : start + _BLOCK_CELLS])

    def _compute_cells(self, cells: np.ndarray) -> None:
        """Explore ``cells`` (unexplored, sorted) for every input in one batch."""
        stack, gl, sys = self.stack, self.grid_layer, self.sys
        dims = stack.dims(gl)
        reads = list(range(stack.dim) if sys.field_reads is None else sys.field_reads)
        # A row's representative is the first row with its indices on the
        # read axes (``of``): when the field reads every axis, the row
        # itself.  On a free axis a row reads the end value of its (index,
        # representative) pair (``entry``).
        if len(reads) == stack.dim:
            first = np.arange(cells.size)
            of = first.astype(unsigned_for(cells.size - 1))
        else:
            index = [cells // s % d for s, d in zip(np.cumprod(dims) // dims, dims)]
            key, size = 0, 1
            for a in reads:
                key, size = key + index[a] * size, size * dims[a]
            of, first = _distinct(key, size)
            del key
        entry, free = [], []
        for a in range(stack.dim):
            if a not in reads:
                pair = index[a] + of * dims[a]
                e, at = _distinct(pair, first.size * dims[a])
                entry.append(e)
                free.append((a, stack.centers(gl, cells[at])[:, a], of[at]))
                del pair, e, at
        index = None
        (lo, hi), ends = reach_boxes(sys, stack.centers(gl, cells[first]), self._radius,
                                     sys.inputs, self.tau, self.substeps, free)
        # One table per free axis, one row per input; the read axes' end
        # values join the first, at each entry's representative.  With no
        # free axis, one table of the representatives.
        rep = free[0][2] if free else slice(None)
        axes = [[(a, ends.pop(0))] for a, _, _ in free] or [[]]
        axes[0] += [(a, (lo[:, rep, a], hi[:, rep, a])) for a in reads]
        entry = entry or [of]
        del of, free, lo, hi
        self._store_boxes(cells, entry, axes)
        self._explored[cells] = True
        self.explored_count += cells.size * sys.n_inputs

    def _store_boxes(self, cells: np.ndarray, entry: list, axes: list) -> None:
        """Store the grid boxes of ``cells`` under every input.

        Each item of ``axes`` is a table of box corners: under input
        ``u``, row ``i`` of the batch reads entry ``[u, entry[j][i]]`` of
        table ``j``, which lists ``(a, (lo, hi))``, the ``(n_inputs,
        width)`` box corners on each of its axes ``a``.  Each value is
        snapped, floored, clipped and tested against the region on its
        axis alone, in its small table, and only the integer parts are
        kept: ``axes`` is emptied on the way.  A row keeps the AND of its
        axes' flags, and sums its axes' parts of its corner cell and of
        its width's number.  Rows are expanded and stored in groups of
        whole inputs, at most ``_BLOCK_ROWS`` rows a group unless one
        input has more, so the boxes are stored input by input, each
        input's in cell order.
        """
        top = np.ones(self.stack.dim, dtype=np.int64)
        flags, corner, width = [], [], []
        for table in axes:
            flags.append(np.uint8(3))
            corner.append(self._cell.type(0))
            width.append([])
            while table:
                a, flag, part, w = self._axis_parts(*table.pop())
                top[a] = w.max()
                flags[-1] = flags[-1] & flag
                corner[-1] = corner[-1] + part
                width[-1].append((a, w))
        del flag, part, w
        if np.any(top >= self._bound):
            self._renumber(top)
        radix = self._radix.tolist()
        number = [sum(w * radix[a] for a, w in parts).astype(self._number) for parts in width]
        del width

        def per_row(parts, inputs, dtype, op=np.add):
            # Row ``(u, i)`` is cell ``cells[i]`` under input ``u``: ``op``
            # over the tables of ``parts[j][u, entry[j][i]]``.
            out = parts[0][inputs].astype(dtype, copy=False)[:, entry[0]]
            for j in range(1, len(parts)):
                op(out, parts[j][inputs].astype(dtype, copy=False)[:, entry[j]], out=out)
            return out

        n_inputs = self.sys.n_inputs
        step = max(1, _BLOCK_ROWS // cells.size)
        for first in range(0, n_inputs, step):
            inputs = slice(first, first + step)
            keep = per_row(flags, inputs, np.uint8, np.bitwise_and).astype(bool)
            numbers = per_row(number, inputs, self._number)[keep]
            known = self._known[numbers]
            if not known.all():
                # New widths get classes in the order of their first row.
                fresh, new = numbers[~known], []
                while fresh.size:
                    new.append(int(fresh[0]))
                    fresh = fresh[fresh != fresh[0]]
                bound = self._bound.tolist()
                self._classes(tuple(n // r % b for r, b in zip(radix, bound)) for n in new)
            code = self._offset[numbers]
            del numbers, known
            code += per_row(corner, inputs, self._code)[keep]
            keys = np.arange(n_inputs, dtype=self._key)[inputs, None] * self.n_cells
            keys = np.add(keys, cells, dtype=self._key)[keep]
            del keep
            self._append(keys, code)

    def _axis_parts(self, a: int, ends: tuple):
        """Box corners ``ends = (lo, hi)`` on axis ``a`` snapped, floored
        and clipped to the grid: ``(a, flag, part, width)``, with the
        axis's part of the corner cell, linearized like the grid, and its
        width in cells."""
        stack, gl = self.stack, self.grid_layer
        dims = stack.dims(gl)
        q_lo, q_hi = (stack.grid_coords(gl, e, a) for e in ends)
        floor_lo, floor_hi = (np.floor(q).astype(np.int64) for q in (q_lo, q_hi))
        # Bit 0: inside the region on this axis; bit 1 (aux): meets it.
        # A row keeps its box if every axis sets bit 0, or every axis bit 1.
        flag = ((q_lo >= 0.0) & (q_hi <= dims[a])).astype(np.uint8)
        del q_lo, q_hi
        if self.kind == "aux":
            # Boxes that leave the region but meet it, clipped, for the
            # cooperative predecessor.
            flag[(floor_lo < dims[a]) & (floor_hi >= 0)] |= 2
        lo = np.clip(floor_lo, 0, dims[a] - 1)
        width = np.clip(floor_hi, 0, dims[a] - 1) - lo + 1
        # No kept row reads an entry without a flag: it takes width 1, so
        # that only the widths of stored boxes are numbered.
        width[flag == 0] = 1
        lo *= (np.cumprod(dims) // dims)[a]
        return a, flag, lo.astype(self._cell), width

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
        """Write boxes into the open block, and open a new block whenever
        it is full.  The open block takes the code type of the classes so
        far; full blocks keep theirs."""
        self.has_box[keys] = True
        done = 0
        while done < keys.size:
            if not self._blocks or self._fill == self._blocks[-1][0].size:
                self._blocks.append((np.empty(_BLOCK_ROWS, self._key),
                                     np.empty(_BLOCK_ROWS, self._code)))
                self._fill = 0
            block_keys, block_code = self._blocks[-1]
            if block_code.dtype != self._code:
                block_code = block_code.astype(self._code)
                self._blocks[-1] = (block_keys, block_code)
            rows = slice(self._fill, min(block_keys.size, self._fill + keys.size - done))
            n = rows.stop - rows.start
            block_keys[rows] = keys[done : done + n]
            block_code[rows] = code[done : done + n]
            self._fill, done = rows.stop, done + n

    def _filled(self):
        """The stored (keys, code) blocks, the open one cut to its rows."""
        blocks = self._blocks[:-1]
        if self._blocks:
            keys, code = self._blocks[-1]
            blocks.append((keys[: self._fill], code[: self._fill]))
        return blocks

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
        """Every stored box as (keys, code), in storage order: the blocks
        concatenated, codes of the widest type.

        Box ``k`` belongs to input ``keys[k] // n_cells`` and cell
        ``keys[k] % n_cells``.  Its low corner is the cell ``code[k] %
        n_cells``, and it spans ``widths[code[k] // n_cells]`` cells on
        each axis.  On a main table an explored pair with no box leaves
        the region; an auxiliary table also keeps, clipped to the
        region, the boxes of pairs that leave it.
        """
        blocks = self._filled()
        keys = np.concatenate([np.empty(0, self._key)] + [k for k, _ in blocks])
        code = np.concatenate([np.empty(0, self._code)] + [c for _, c in blocks])
        return keys, code

    def mark_touching(self, cells: CellSet, out: np.ndarray) -> None:
        """Set ``out[u, c]`` for every pair with a stored box that holds a
        cell of ``cells``; every other entry keeps its value.

        ``out`` is a C-contiguous bool array of shape ``(n_inputs,
        n_cells)``.  Each box reads one bit of ``cells``'s window of its
        width class at its corner, one block of the store at a time.  On
        an auxiliary table the clipped boxes of pairs that leave the
        region take part.
        """
        self.check_grid(cells)
        windows = _windows(self, cells.bits).ravel()
        flat = out.reshape(-1)
        for keys, code in self._filled():
            flat[keys[windows.take(code)]] = True

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

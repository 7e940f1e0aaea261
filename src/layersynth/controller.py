"""Multi-layered controllers and closed-loop execution.

A synthesized controller is an ordered list of per-layer stages, each
with a domain, an input map, and (for reach-avoid) a per-cell rank.  The
induced quantizer maps concrete states to the stage that should act:
for safety the coarsest applicable stage, for reach-avoid the earliest
inserted one, which makes the lexicographic (stage, rank) measure
decrease along every closed-loop run until the target is entered.
Execution is sample-and-hold with the period of the acting stage's
layer, so trajectories have non-uniform sampling times.

Monte Carlo validation keys every random draw by (seed, stream,
counter) with the SplitMix64 mixer (Steele, Lea & Flood, OOPSLA 2014),
counter-based as in Salmon et al. (SC 2011): no generator state is
kept, and run ``i`` reads its own counters of every stream, so its
trajectory depends on the seed and its index alone, not on how many
runs there are or how they are batched.
"""

from __future__ import annotations

import math
import struct
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .dynamics import DISTURBANCE_SEGMENTS, ControlSystem, sample_disturbed_step
from .grid import CellSet, LayerStack, gamma_down
from .problem import ProblemSpec, REACH_AVOID, SAFETY


class ControllerFormatError(ValueError):
    """Raised when a serialized controller fails validation."""


@dataclass
class LayerController:
    """One stage: sorted domain cells of a single layer with their moves.

    ``moves[k, u]`` says input ``u`` closes in cell ``cells[k]``; every
    row allows at least one input.  ``ranks[k]`` is the reach-avoid rank
    of ``cells[k]``; safety stages have none.
    """

    layer: int
    cells: np.ndarray
    moves: np.ndarray
    ranks: np.ndarray | None = None

    def __post_init__(self):
        self.cells = np.asarray(self.cells, dtype=np.int64)
        self.moves = np.asarray(self.moves, dtype=bool)
        if self.ranks is not None:
            self.ranks = np.asarray(self.ranks, dtype=np.int32)
        if self.cells.ndim != 1 or np.any(self.cells[1:] <= self.cells[:-1]):
            raise ValueError("stage cells must be sorted and distinct")
        if self.moves.ndim != 2 or len(self.moves) != self.cells.size:
            raise ValueError("moves must have one row per stage cell")
        if self.ranks is not None and self.ranks.shape != self.cells.shape:
            raise ValueError("ranks must have one entry per stage cell")
        if not self.moves.any(axis=1).all():
            raise ValueError("every domain cell needs at least one move")


@dataclass
class MultiLayeredController:
    kind: str
    stack: LayerStack
    stages: list[LayerController] = field(default_factory=list)

    def __post_init__(self):
        if self.kind not in (SAFETY, REACH_AVOID):
            raise ValueError(f"unknown controller kind {self.kind!r}")
        for p, st in enumerate(self.stages):
            self.stack._check_layer(st.layer)
            n_layer = self.stack.cell_count(st.layer)
            if st.cells.size and (st.cells[0] < 0 or st.cells[-1] >= n_layer):
                raise ValueError(f"stage {p} has cells outside layer {st.layer}")
            if (st.ranks is not None) != (self.kind == REACH_AVOID):
                raise ValueError("ranks are present exactly for reach-avoid stages")

    @cached_property
    def _acting(self) -> np.ndarray:
        """Acting row of every layer-1 cell (-1: none); see :attr:`_rows`.

        Built at first use, so decoding a controller file writes no
        memory per grid cell of its header.  Stages are written in
        ascending priority, so the winner is written last: safety prefers
        the coarsest layer, then the earliest stage; reach-avoid the
        earliest stage.  A layer-1 cell's grid index shifted right by
        ``layer - 1`` is that of its cell on ``layer``: cell widths are
        ``eta1`` times powers of two, so this is exact.
        """
        stack = self.stack
        layers = [st.layer if self.kind == SAFETY else 0 for st in self.stages]
        first_row = np.cumsum([0] + [st.cells.size for st in self.stages])
        dtype = np.int32 if first_row[-1] <= np.iinfo(np.int32).max else np.int64
        acting = np.full(stack.cell_count(1), -1, dtype=dtype)
        for p in sorted(range(len(layers)), key=lambda p: (layers[p], -p)):
            st = self.stages[p]
            fine = gamma_down(stack, CellSet.from_indices(stack, st.layer, st.cells), 1).indices()
            own = stack.linearize(st.layer, stack.unlinearize(1, fine) >> (st.layer - 1))
            acting[fine] = first_row[p] + np.searchsorted(st.cells, own)
        return acting

    @cached_property
    def _rows(self) -> tuple[np.ndarray, ...]:
        """Stage, cell, layer, lowest move and rank (0 for safety) of
        every stage cell, numbered in stage order; the last row, read
        for row -1, has stage and cell -1."""
        columns = [
            (np.full(st.cells.size, p), st.cells, np.full(st.cells.size, st.layer),
             st.moves.argmax(axis=1) if st.moves.size else np.zeros(0, dtype=np.int64),
             np.zeros(st.cells.size, dtype=np.int64) if st.ranks is None else st.ranks)
            for p, st in enumerate(self.stages)
        ]
        columns.append(([-1], [-1], [0], [0], [0]))
        return tuple(np.concatenate(c) for c in zip(*columns))

    def _acting_rows(self, x: np.ndarray) -> np.ndarray:
        """Acting row of every state of ``x`` ``(N, n)``, -1 outside
        every stage domain or not finite."""
        cell = self.stack.quantize(x, 1)
        return np.where(cell >= 0, self._acting[cell], -1)

    def domain_projection(self) -> CellSet:
        """Layer-1 cell set covering the union of all stage domains."""
        return CellSet(1, self._acting >= 0)

    def quantize(self, x) -> tuple[int, int] | None:
        """Stage selection for a concrete state.

        Returns ``(stage_index, linear_cell)`` of the acting stage, or
        ``None`` when no stage domain contains ``x``.
        """
        p, cell = self.quantize_batch(np.asarray(x, dtype=float)[None, :])
        return None if p[0] < 0 else (int(p[0]), int(cell[0]))

    def quantize_batch(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Stage selection for every row of the states ``x`` ``(N, n)``.

        Returns the acting stage index and its linear cell per row, both
        -1 where no stage domain contains the row or the row is not
        finite.
        """
        row = self._acting_rows(x)
        return self._rows[0][row], self._rows[1][row]


def rank_budget(mlc: MultiLayeredController) -> int:
    """Worst-case step bound for reach-avoid runs, with slack factor 2."""
    total = sum(int(st.ranks.max()) for st in mlc.stages if st.ranks is not None and st.ranks.size)
    return max(2 * total, 10)


# SplitMix64: the golden-ratio increment and the 64-bit mask.
_GAMMA = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


def _mix(z):
    """SplitMix64's finalizer of a Python int below ``2**64``, or of a
    ``uint64`` array in place (array products wrap, so the masks are
    no-ops there)."""
    z ^= z >> 30
    z *= 0xBF58476D1CE4E5B9
    z &= _MASK
    z ^= z >> 27
    z *= 0x94D049BB133111EB
    z &= _MASK
    z ^= z >> 31
    return z


def _unit_draws(seed: int, stream: int, runs: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` with the unit doubles in ``[0, 1)`` of validation runs
    ``runs`` on stream ``stream``, row ``r`` for run ``runs[r]``.

    A run takes ``w`` doubles of a stream, ``w`` the size of a row of
    ``out``: run ``i`` takes those with counters ``j = i * w`` to ``i * w
    + w - 1``, in row-major order.
    Double ``j`` of stream ``k`` is ``(mix(key + (j + 1) * GAMMA) >> 11) *
    2**-53`` with ``key = mix(mix(seed) + (k + 1) * GAMMA)``: element
    ``j`` of a SplitMix64 sequence started at ``key``.  ``out`` is C
    contiguous ``float64``; the counters are mixed in its own memory.
    """
    key = _mix((_mix(seed) + (stream + 1) * _GAMMA) & _MASK)
    w = math.prod(out.shape[1:])
    rows = out.reshape(len(out), w)
    z = rows.view(np.uint64)
    np.add.outer(runs.astype(np.uint64) * np.uint64(w), np.arange(1, w + 1, dtype=np.uint64), out=z)
    z *= _GAMMA
    z += np.uint64(key)
    _mix(z)
    z >>= 11
    np.multiply(z, 2.0**-53, out=rows)
    return out


def _closed_loop(
    mlc: MultiLayeredController,
    sys: ControlSystem,
    spec: ProblemSpec,
    x0: np.ndarray,
    horizon: int,
    seed: int,
    runs: np.ndarray,
    substeps_base: int,
) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray]:
    """Run the closed loops of the validation runs ``runs`` together,
    run ``runs[j]`` from row ``j`` of ``x0`` ``(N, n)``.

    Each round applies one sample-and-hold step to every run still
    going, in one :func:`sample_disturbed_step` call: each run holds the
    input of its acting stage for that stage's layer's period.  Round
    ``k`` draws its unit disturbances from stream ``k + 2`` (see
    :func:`_unit_draws`): run ``i`` takes element ``(s, a)`` of its
    ``(DISTURBANCE_SEGMENTS, n)`` block from counter ``j = (i *
    DISTURBANCE_SEGMENTS + s) * n + a``.  So any subset of runs steps as
    it would in the full batch.  Every round draws only the runs still
    going, in place, into the leading rows of one buffer allocated once.
    A run stops on a violation, on target entry (reach-avoid) or on
    leaving the controller domain; the specification is checked at
    sampling instants.  The input tie-break within a stage is the lowest
    input index, so runs are reproducible; each step reads the stage,
    move and rank of all its runs at once.

    Returns the status, final state and step count of every row, and
    whether its (stage, rank) measure strictly decreased at every step.
    """
    reach = mlc.kind == REACH_AVOID
    if reach:
        horizon = min(horizon, rank_budget(mlc)) if horizon else rank_budget(mlc)
    x = np.array(x0, dtype=float)
    status = [""] * len(x)
    steps = np.zeros(len(x), dtype=np.int64)
    monotone = np.ones(len(x), dtype=bool)
    measure = np.full((len(x), 2), np.iinfo(np.int64).max)  # last (stage, rank)
    active = np.arange(len(x))
    inputs = np.stack(sys.inputs)
    drawn = np.empty((len(runs), DISTURBANCE_SEGMENTS, sys.dim))
    # Period and substep count of each layer, indexed by layer.
    periods = np.array([0.0] + [mlc.stack.tau(layer) for layer in range(1, mlc.stack.levels + 1)])
    substeps = substeps_base * np.array([0] + [2**i for i in range(mlc.stack.levels)])

    def stop(rows, what: str) -> None:
        for i in rows.tolist():
            status[i] = what

    for k in range(horizon):
        xa = x[active]
        going = spec.in_safe_region(xa, mlc.stack)
        stop(active[~going], "violation")
        if reach:
            arrived = going & spec.in_target_region(xa)
            stop(active[arrived], "target-reached")
            going &= ~arrived
        row = mlc._acting_rows(xa)
        stop(active[going & (row < 0)], "left-domain")
        going &= row >= 0
        active = active[going]
        if active.size == 0:
            break
        stage, _, layers, moves, ranks = (column[row[going]] for column in mlc._rows)
        now = np.stack([stage, ranks], axis=1)
        prev = measure[active]
        monotone[active] &= (now[:, 0] < prev[:, 0]) | (
            (now[:, 0] == prev[:, 0]) & (now[:, 1] < prev[:, 1])
        )
        measure[active] = now
        draws = _unit_draws(seed, k + 2, runs[active], drawn[: active.size])
        x[active] = sample_disturbed_step(
            sys, x[active], inputs[moves], periods[layers], draws, substeps[layers]
        )
        steps[active] += 1

    xa = x[active]
    ok = spec.in_safe_region(xa, mlc.stack)
    if reach:
        ok &= spec.in_target_region(xa)
    stop(active[ok], "target-reached" if reach else "safe-horizon-complete")
    stop(active[~ok], "violation")
    return status, x, steps, monotone


@dataclass
class ValidationReport:
    runs: int
    executed: int
    violations: int
    status_counts: dict[str, int]
    horizon: int
    seed: int
    mean_steps: float
    rank_monotone: bool | None = None

    def to_dict(self) -> dict:
        return {
            "runs": self.runs,
            "executed": self.executed,
            "violations": self.violations,
            "status_counts": dict(sorted(self.status_counts.items())),
            "horizon": self.horizon,
            "seed": self.seed,
            "mean_steps": self.mean_steps,
            "rank_monotone": self.rank_monotone,
        }


def check_run_arguments(runs: int, horizon: int, seed: int) -> None:
    """Raise ``ValueError`` naming the first of ``runs``, ``horizon`` and
    ``seed`` that :func:`validate` cannot take.  The seed is mixed as a
    64-bit word, so it must lie in ``[0, 2**64)``."""
    if runs < 1:
        raise ValueError("runs must be >= 1")
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    if seed > _MASK:
        raise ValueError("seed must be < 2**64")


def validate(
    mlc: MultiLayeredController,
    sys: ControlSystem,
    spec: ProblemSpec,
    runs: int,
    horizon: int,
    seed: int,
    substeps_base: int = 5,
) -> ValidationReport:
    """Monte Carlo closed-loop check over the controller domain.

    Initial states are sampled uniformly from the layer-1 projection of
    the domain.  Every draw is keyed by run index (see
    :func:`_unit_draws`): run ``i`` starts in cell ``floor(u * size)`` of
    the ``size`` domain cells, ``u`` double ``i`` of stream 0, at the
    offset in the cell that doubles ``i * n`` to ``i * n + n - 1`` of
    stream 1 give, and stream ``k + 2`` draws round ``k``'s disturbances
    (see :func:`_closed_loop`).  So run ``i`` depends on ``seed`` and
    ``i`` alone: the first runs of a longer validation are those of a
    shorter one.  All runs are simulated together.  An empty domain
    yields a vacuous pass with zero runs.
    """
    check_run_arguments(runs, horizon, seed)
    if any(st.moves[:, sys.n_inputs :].any() for st in mlc.stages):
        raise ValueError(f"a move names an input outside the system's {sys.n_inputs} inputs")
    cells = mlc.domain_projection().indices()
    if cells.size == 0:
        return ValidationReport(runs, 0, 0, {}, horizon, seed, 0.0,
                                None if mlc.kind == SAFETY else True)
    eta1 = mlc.stack.eta(1)
    ids = np.arange(runs)
    # u <= 1 - 2**-53, and (1 - 2**-53) * size rounds to a double below
    # size for every size up to 2**53: each index names a domain cell.
    start = cells[(_unit_draws(seed, 0, ids, np.empty(runs)) * cells.size).astype(np.int64)]
    offset = _unit_draws(seed, 1, ids, np.empty((runs, mlc.stack.dim)))
    x0 = mlc.stack.centers(1, start) - 0.5 * eta1 + offset * eta1
    status, _, steps, monotone = _closed_loop(mlc, sys, spec, x0, horizon, seed, ids, substeps_base)

    ok = {"safe-horizon-complete"} if mlc.kind == SAFETY else {"target-reached"}
    counts: dict[str, int] = {}
    for s in status:
        counts[s] = counts.get(s, 0) + 1
    violations = sum(n for s, n in counts.items() if s not in ok)
    rank_ok = bool(monotone.all()) if mlc.kind == REACH_AVOID else None
    return ValidationReport(runs, runs, violations, counts, horizon, seed,
                            float(np.mean(steps)), rank_ok)


_MAGIC = b"LSMC"
_VERSION = 1
# One cell record: cell, rank (-1 for safety), move count; the moves
# follow it as little-endian uint16 input indices, ascending.
_RECORD = np.dtype([("cell", "<i8"), ("rank", "<i4"), ("n", "<u2")])
_MAX_INPUTS = 0xFFFF
# Cell records encoded per piece of the file.
_BLOCK_CELLS = 1 << 16


def _grid_format(dim: int) -> str:
    """eta1, tau1, y_lower, y_upper and the stage count."""
    return f"<{dim}dd{dim}d{dim}dI"


def _record_bytes(starts: np.ndarray, size: int) -> np.ndarray:
    """Which of ``size`` stage-body bytes belong to a record header.

    Headers start at ``starts``; every other byte is move data.
    """
    edge = np.zeros(size + 1, dtype=np.int8)
    edge[starts + _RECORD.itemsize] = -1
    edge[starts] += 1
    return np.cumsum(edge[:-1], dtype=np.int8).astype(bool)


def _words(data: bytes, parity: int) -> memoryview:
    """The little-endian ``uint16`` words of ``data`` from byte ``parity``."""
    words = memoryview(data)[parity : len(data) - (len(data) - parity) % 2].cast("H")
    if sys.byteorder == "big":
        words = memoryview(np.frombuffer(words, "<u2").astype(np.uint16))
    return words


def _walk(words: memoryview, start: int, count: int):
    """Word index of each of ``count`` cell records from word ``start``,
    then of the word after the last.  A record is its header, which ends
    in the move count, and one word per move."""
    size, at = _RECORD.itemsize // 2, _RECORD.fields["n"][1] // 2
    for _ in range(count):
        yield start
        start += size + words[start + at]
    yield start


def _encode_stage(stage: LayerController, position: int):
    """The stage's header, then its cell records, ``_BLOCK_CELLS`` cells
    per piece, so no piece grows with the stage."""
    yield struct.pack("<BIq", stage.layer, position, stage.cells.size)
    for first in range(0, stage.cells.size, _BLOCK_CELLS):
        block = slice(first, first + _BLOCK_CELLS)
        cells = stage.cells[block]
        rows, inputs = np.nonzero(stage.moves[block])
        head = np.empty(cells.size, dtype=_RECORD)
        head["cell"] = cells
        head["rank"] = -1 if stage.ranks is None else stage.ranks[block]
        head["n"] = np.bincount(rows, minlength=cells.size)
        before = np.cumsum(head["n"], dtype=np.int64) - head["n"]
        starts = _RECORD.itemsize * np.arange(cells.size) + 2 * before
        body = np.empty(head.nbytes + 2 * inputs.size, dtype=np.uint8)
        is_head = _record_bytes(starts, body.size)
        body[is_head] = head.view(np.uint8)
        body[~is_head] = inputs.astype("<u2").view(np.uint8)
        yield body


def _pieces(mlc: MultiLayeredController):
    """The bytes of :func:`serialize`, piece by piece."""
    if any(stage.moves.shape[1] > _MAX_INPUTS for stage in mlc.stages):
        raise ValueError(f"a stage names more than {_MAX_INPUTS} inputs")
    st = mlc.stack
    yield _MAGIC + struct.pack("<IBBB", _VERSION, 1 if mlc.kind == REACH_AVOID else 0,
                               st.levels, st.dim)
    yield struct.pack(
        _grid_format(st.dim), *st.eta1, st.tau1, *st.y_lower, *st.y_upper, len(mlc.stages)
    )
    for position, stage in enumerate(mlc.stages):
        yield from _encode_stage(stage, position)


def serialize(mlc: MultiLayeredController) -> bytes:
    """Versioned binary encoding; byte-identical for equal controllers."""
    return b"".join(_pieces(mlc))


def deserialize(data: bytes) -> MultiLayeredController:
    """Decode :func:`serialize` output; raise only :class:`ControllerFormatError`."""
    try:
        with np.errstate(all="raise"):
            return _decode(data)
    except ControllerFormatError:
        raise
    except (struct.error, ValueError, ArithmeticError) as exc:
        raise ControllerFormatError(f"malformed controller file: {exc}") from exc


def _widened(moves: np.ndarray, width: int) -> np.ndarray:
    """``moves`` with columns of no move appended up to ``width``."""
    if moves.shape[1] >= width:
        return moves
    out = np.zeros((len(moves), width), dtype=bool)
    out[:, : moves.shape[1]] = moves
    return out


def _decode(data: bytes) -> MultiLayeredController:
    if data[:4] != _MAGIC:
        raise ControllerFormatError("bad magic; not a controller file")
    version, kind_flag, levels, dim = struct.unpack_from("<IBBB", data, 4)
    if version != _VERSION or kind_flag not in (0, 1) or levels < 1 or dim < 1:
        raise ControllerFormatError(
            f"bad header: version {version}, kind flag {kind_flag}, {levels} levels, {dim} dims"
        )
    grid = struct.unpack_from(_grid_format(dim), data, 11)
    off = 11 + struct.calcsize(_grid_format(dim))
    stack = LayerStack(
        levels, grid[:dim], grid[dim], grid[dim + 1 : 2 * dim + 1], grid[2 * dim + 1 : -1]
    )
    words = {}  # byte parity -> the file's words from that byte
    decoded = []
    for _ in range(grid[-1]):
        layer, stage_idx, n_cells = struct.unpack_from("<BIq", data, off)
        off += 13
        if not 1 <= layer <= levels or not 0 <= n_cells <= (len(data) - off) // _RECORD.itemsize:
            raise ControllerFormatError(f"stage layer {layer} not in [1;{levels}], {n_cells} cells")
        if stage_idx != len(decoded):
            raise ControllerFormatError(f"stage record {len(decoded)} has index {stage_idx}")
        # Each record's length is in its header, so only the walk to the
        # next record is sequential; the fields are read all at once, in
        # blocks of ``_BLOCK_CELLS`` records, as they were written.
        # Records start at even distances from the stage: walk the words
        # of the stage's byte parity.
        parity = off % 2
        if parity not in words:
            words[parity] = _words(data, parity)
        n_layer = stack.cell_count(layer)
        cells = np.empty(n_cells, dtype=np.int64)
        ranks = np.empty(n_cells, dtype=np.int32) if kind_flag else None
        moves = np.zeros((n_cells, 0), dtype=bool)
        for first in range(0, n_cells, _BLOCK_CELLS):
            block = slice(first, min(first + _BLOCK_CELLS, n_cells))
            count = block.stop - first
            try:
                starts = np.fromiter(_walk(words[parity], off // 2, count), np.int64, count + 1)
            except IndexError:
                raise ControllerFormatError("truncated cell record") from None
            end = parity + 2 * int(starts[-1])
            if end > len(data):
                raise ControllerFormatError("truncated cell record")
            body = np.frombuffer(data, dtype=np.uint8, count=end - off, offset=off)
            is_head = _record_bytes(2 * (starts[:-1] - off // 2), body.size)
            off = end
            head = body[is_head].view(_RECORD)
            cells[block] = head["cell"]
            bad = cells[block][(cells[block] < 0) | (cells[block] >= n_layer)]
            if bad.size:
                raise ControllerFormatError(f"cell {bad[0]} outside layer {layer}'s {n_layer} cells")
            if ranks is not None:
                ranks[block] = head["rank"]
            inputs = body[~is_head].view("<u2")
            if inputs.size:
                moves = _widened(moves, int(inputs.max()) + 1)
            moves[np.repeat(np.arange(first, block.stop), head["n"]), inputs] = True
        decoded.append((layer, cells, moves, ranks))
    if off != len(data):
        raise ControllerFormatError(f"{len(data) - off} trailing bytes after the last stage")
    # Moves are as wide as the largest input index in the file.
    width = max((d[2].shape[1] for d in decoded), default=0)
    stages = [LayerController(layer, cells, _widened(moves, width), ranks)
              for layer, cells, moves, ranks in decoded]
    return MultiLayeredController(REACH_AVOID if kind_flag else SAFETY, stack, stages)


def save(mlc: MultiLayeredController, path) -> None:
    """Write :func:`serialize`'s bytes one piece at a time, so the file
    costs no memory beyond a block of cell records."""
    with open(path, "wb") as fh:
        for piece in _pieces(mlc):
            fh.write(piece)


def load(path) -> MultiLayeredController:
    with open(path, "rb") as fh:
        return deserialize(fh.read())

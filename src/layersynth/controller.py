"""Multi-layered controllers and closed-loop execution.

A synthesized controller is an ordered list of per-layer stages, each
with a domain, an input map, and (for reach-avoid) a per-cell rank.  The
induced quantizer maps concrete states to the stage that should act:
for safety the coarsest applicable stage, for reach-avoid the earliest
inserted one, which makes the lexicographic (stage, rank) measure
decrease along every closed-loop run until the target is entered.
Execution is sample-and-hold with the period of the acting stage's
layer, so trajectories have non-uniform sampling times.

Monte Carlo validation keys every random draw by run index: each random
stream is a child of ``SeedSequence(seed)`` that draws one block for all
runs, row ``i`` for run ``i``, so a run's trajectory depends on the seed
and its index alone, not on how many runs there are or how they are
batched.
"""

from __future__ import annotations

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


def _stream(seed: int, k: int) -> np.random.Generator:
    """Generator of child ``k`` of ``SeedSequence(seed)`` (see :func:`validate`)."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k,)))


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
    ``k`` draws its unit disturbances from child ``k + 2`` of
    ``SeedSequence(seed)`` as one block ``(last + 1,
    DISTURBANCE_SEGMENTS, n)``, ``last`` the highest run index still
    going; run ``i`` takes row ``i``.  So any subset of runs steps as it
    would in the full batch.  A run stops on a violation, on target
    entry (reach-avoid) or on leaving the controller domain; the
    specification is checked at sampling instants.  The input tie-break
    within a stage is the lowest input index, so runs are reproducible;
    each step reads the stage, move and rank of all its runs at once.

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
    # Indexed by layer.
    periods = np.array([0.0] + [mlc.stack.tau(layer) for layer in range(1, mlc.stack.levels + 1)])

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
        ids = runs[active]
        draws = _stream(seed, k + 2).random((ids.max() + 1, DISTURBANCE_SEGMENTS, sys.dim))
        x[active] = sample_disturbed_step(
            sys, x[active], inputs[moves], periods[layers], draws[ids],
            substeps=substeps_base * 2 ** (layers - 1),
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
    ``seed`` that :func:`validate` cannot take."""
    if runs < 1:
        raise ValueError("runs must be >= 1")
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    if seed < 0:
        raise ValueError("seed must be >= 0")


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
    the domain.  Every draw is keyed by run index: child 0 of
    ``SeedSequence(seed)`` draws the start cells of all runs in one call,
    child 1 their offsets in the cell, and child ``k + 2`` round ``k``'s
    disturbances (see :func:`_closed_loop`), each row-major, row ``i``
    for run ``i``.  So run ``i`` depends on ``seed`` and ``i`` alone: the
    first runs of a longer validation are those of a shorter one.  All
    runs are simulated together.  An empty domain yields a vacuous pass
    with zero runs.
    """
    check_run_arguments(runs, horizon, seed)
    if any(st.moves[:, sys.n_inputs :].any() for st in mlc.stages):
        raise ValueError(f"a move names an input outside the system's {sys.n_inputs} inputs")
    cells = mlc.domain_projection().indices()
    if cells.size == 0:
        return ValidationReport(runs, 0, 0, {}, horizon, seed, 0.0,
                                None if mlc.kind == SAFETY else True)
    eta1 = mlc.stack.eta(1)
    start = cells[_stream(seed, 0).integers(cells.size, size=runs)]
    offset = _stream(seed, 1).random((runs, mlc.stack.dim))
    x0 = mlc.stack.centers(1, start) - 0.5 * eta1 + offset * eta1
    status, _, steps, monotone = _closed_loop(
        mlc, sys, spec, x0, horizon, seed, np.arange(runs), substeps_base
    )

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


def _encode_stage(stage: LayerController, position: int) -> bytes:
    if stage.moves.shape[1] > _MAX_INPUTS:
        raise ValueError(f"a stage names more than {_MAX_INPUTS} inputs")
    rows, inputs = np.nonzero(stage.moves)
    head = np.empty(stage.cells.size, dtype=_RECORD)
    head["cell"] = stage.cells
    head["rank"] = -1 if stage.ranks is None else stage.ranks
    head["n"] = np.bincount(rows, minlength=stage.cells.size)
    before = np.cumsum(head["n"], dtype=np.int64) - head["n"]
    starts = _RECORD.itemsize * np.arange(stage.cells.size) + 2 * before
    body = np.empty(head.nbytes + 2 * inputs.size, dtype=np.uint8)
    is_head = _record_bytes(starts, body.size)
    body[is_head] = head.view(np.uint8)
    body[~is_head] = inputs.astype("<u2").view(np.uint8)
    return struct.pack("<BIq", stage.layer, position, stage.cells.size) + body.tobytes()


def serialize(mlc: MultiLayeredController) -> bytes:
    """Versioned binary encoding; byte-identical for equal controllers."""
    st = mlc.stack
    out = bytearray(_MAGIC)
    out += struct.pack("<IBBB", _VERSION, 1 if mlc.kind == REACH_AVOID else 0, st.levels, st.dim)
    out += struct.pack(
        _grid_format(st.dim), *st.eta1, st.tau1, *st.y_lower, *st.y_upper, len(mlc.stages)
    )
    for position, stage in enumerate(mlc.stages):
        out += _encode_stage(stage, position)
    return bytes(out)


def deserialize(data: bytes) -> MultiLayeredController:
    """Decode :func:`serialize` output; raise only :class:`ControllerFormatError`."""
    try:
        with np.errstate(all="raise"):
            return _decode(data)
    except ControllerFormatError:
        raise
    except (struct.error, ValueError, ArithmeticError) as exc:
        raise ControllerFormatError(f"malformed controller file: {exc}") from exc


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
        # next record is sequential; the fields are read all at once.
        # Records start at even distances from the stage: walk the words
        # of the stage's byte parity.
        parity = off % 2
        if parity not in words:
            words[parity] = _words(data, parity)
        first = off // 2
        try:
            starts = np.fromiter(_walk(words[parity], first, n_cells), np.int64, n_cells + 1)
        except IndexError:
            raise ControllerFormatError("truncated cell record") from None
        end = parity + 2 * int(starts[-1])
        if end > len(data):
            raise ControllerFormatError("truncated cell record")
        body = np.frombuffer(data, dtype=np.uint8, count=end - off, offset=off)
        is_head = _record_bytes(2 * (starts[:-1] - first), body.size)
        off = end
        head = body[is_head].view(_RECORD)
        inputs = body[~is_head].view("<u2").astype(np.int64)
        cells = head["cell"]
        n_layer = stack.cell_count(layer)
        bad = cells[(cells < 0) | (cells >= n_layer)]
        if bad.size:
            raise ControllerFormatError(f"cell {bad[0]} outside layer {layer}'s {n_layer} cells")
        rows = np.repeat(np.arange(cells.size), head["n"])
        ranks = head["rank"] if kind_flag else None
        decoded.append((layer, cells, rows, inputs, ranks))
    if off != len(data):
        raise ControllerFormatError(f"{len(data) - off} trailing bytes after the last stage")
    # Moves are as wide as the largest input index in the file.
    width = max((int(d[3].max()) + 1 for d in decoded if d[3].size), default=0)
    stages = []
    for layer, cells, rows, inputs, ranks in decoded:
        moves = np.zeros((cells.size, width), dtype=bool)
        moves[rows, inputs] = True
        stages.append(LayerController(layer, cells, moves, ranks))
    return MultiLayeredController(REACH_AVOID if kind_flag else SAFETY, stack, stages)


def save(mlc: MultiLayeredController, path) -> None:
    with open(path, "wb") as fh:
        fh.write(serialize(mlc))


def load(path) -> MultiLayeredController:
    with open(path, "rb") as fh:
        return deserialize(fh.read())

"""Multi-layered controllers and closed-loop execution.

A synthesized controller is an ordered list of per-layer stages, each
with a domain, an input map, and (for reach-avoid) a per-cell rank.  The
induced quantizer maps concrete states to the stage that should act:
for safety the coarsest applicable stage, for reach-avoid the earliest
inserted one, which makes the lexicographic (stage, rank) measure
decrease along every closed-loop run until the target is entered.
Execution is sample-and-hold with the period of the acting stage's
layer, so trajectories have non-uniform sampling times.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .dynamics import ControlSystem, sample_disturbed_step
from .grid import CellSet, LayerStack, gamma_down
from .problem import ProblemSpec, REACH_AVOID, SAFETY


class ControllerFormatError(ValueError):
    """Raised when a serialized controller fails validation."""


@dataclass
class LayerController:
    """One stage: domain cells of a single layer with their moves."""

    layer: int
    stage: int
    domain: CellSet
    moves: dict[int, tuple[int, ...]]
    ranks: dict[int, int] | None = None

    def __post_init__(self):
        dom = set(int(c) for c in self.domain.indices())
        if set(self.moves) != dom:
            raise ValueError("moves must be defined exactly on the stage domain")
        if any(len(m) == 0 for m in self.moves.values()):
            raise ValueError("every domain cell needs at least one move")
        if self.ranks is not None and set(self.ranks) != dom:
            raise ValueError("ranks must be defined exactly on the stage domain")


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
            if (st.ranks is not None) != (self.kind == REACH_AVOID):
                raise ValueError("ranks are present exactly for reach-avoid stages")
            if st.stage != p:
                raise ValueError("stages must be ordered by insertion index")

    @cached_property
    def _acting(self) -> np.ndarray:
        """Acting stage of every layer-1 cell (-1: none).

        Built at first use, so decoding a controller file writes no
        memory per grid cell of its header.  Stages are written in
        ascending priority, so the winner is written last: safety prefers
        the coarsest layer, then the earliest stage; reach-avoid the
        earliest stage.
        """
        layers = [st.layer if self.kind == SAFETY else 0 for st in self.stages]
        acting = np.full(self.stack.cell_count(1), -1, dtype=np.int32)
        for p in sorted(range(len(layers)), key=lambda p: (layers[p], -p)):
            acting[gamma_down(self.stack, self.stages[p].domain, 1).bits] = p
        return acting

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
        finite.  The cell on the stage's layer is the layer-1 index
        shifted right by ``layer - 1``: cell widths are ``eta1`` times
        powers of two, so this is exact.  Cells are semi-open, as in
        :meth:`LayerStack.quantize`.
        """
        stack = self.stack
        q = np.floor((x - stack.y_lower) / stack.eta(1))
        inside = np.all((q >= 0) & (q < stack.dims(1)), axis=1)
        # Only rows inside are cast, so a non-finite row raises no warning.
        index = np.where(inside[:, None], q, 0).astype(np.int64)
        stage = np.full(len(x), -1, dtype=np.int64)
        stage[inside] = self._acting[stack.linearize(1, index[inside])]
        cell = np.full(len(x), -1, dtype=np.int64)
        layer = self._stage_layers[stage]
        for lay in np.unique(layer[stage >= 0]):
            rows = (stage >= 0) & (layer == lay)
            cell[rows] = stack.linearize(int(lay), index[rows] >> (lay - 1))
        return stage, cell

    @cached_property
    def _stage_layers(self) -> np.ndarray:
        """Layer of every stage; the last entry (read for stage -1) is 0."""
        return np.array([st.layer for st in self.stages] + [0], dtype=np.int64)


@dataclass
class LogEntry:
    time: float
    state: np.ndarray
    layer: int
    stage: int
    input_index: int
    rank: int | None


@dataclass
class TrajectoryLog:
    entries: list[LogEntry]
    status: str  # target-reached | safe-horizon-complete | left-domain | violation
    final_state: np.ndarray

    @property
    def steps(self) -> int:
        return len(self.entries)


def rank_budget(mlc: MultiLayeredController) -> int:
    """Worst-case step bound for reach-avoid runs, with slack factor 2."""
    total = 0
    for st in mlc.stages:
        if st.ranks:
            total += max(st.ranks.values())
    return max(2 * total, 10)


def _closed_loop(
    mlc: MultiLayeredController,
    sys: ControlSystem,
    spec: ProblemSpec,
    x0: np.ndarray,
    horizon: int,
    rngs: list,
    substeps_base: int,
    entries: list[list[LogEntry]] | None = None,
) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray]:
    """Run the closed loops from the rows of ``x0`` ``(N, n)`` together.

    Each round applies one sample-and-hold step to every run still
    going, with the period of its acting stage's layer; the runs that
    share a layer and an input are integrated in one call, each with its
    own generator from ``rngs``.  A run stops on a violation, on target
    entry (reach-avoid) or on leaving the controller domain; the
    specification is checked at sampling instants.  The input tie-break
    within a stage is the lowest input index, so runs are reproducible.

    Returns the status, final state and step count of every run, and
    whether its (stage, rank) measure strictly decreased at every step.
    Given ``entries`` (one list per run), every step is logged there.
    """
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    reach = mlc.kind == REACH_AVOID
    if reach:
        horizon = min(horizon, rank_budget(mlc)) if horizon else rank_budget(mlc)
    x = np.array(x0, dtype=float)
    status = [""] * len(x)
    steps = np.zeros(len(x), dtype=np.int64)
    t = np.zeros(len(x))
    monotone = np.ones(len(x), dtype=bool)
    measure = np.full((len(x), 2), np.iinfo(np.int64).max)  # last (stage, rank)
    active = np.arange(len(x))

    def stop(rows, what: str) -> None:
        for i in rows.tolist():
            status[i] = what

    for _ in range(horizon):
        if active.size == 0:
            break
        xa = x[active]
        going = spec.in_safe_region(xa, mlc.stack)
        stop(active[~going], "violation")
        if reach:
            arrived = going & spec.in_target_region(xa)
            stop(active[arrived], "target-reached")
            going &= ~arrived
        stage, cell = mlc.quantize_batch(xa)
        stop(active[going & (stage < 0)], "left-domain")
        going &= stage >= 0
        active, stage, cell = active[going], stage[going], cell[going]

        chosen = [mlc.stages[p] for p in stage.tolist()]
        moves = np.array([min(st.moves[c]) for st, c in zip(chosen, cell.tolist())], dtype=np.int64)
        ranks = [None if st.ranks is None else st.ranks[c] for st, c in zip(chosen, cell.tolist())]
        layers = mlc._stage_layers[stage]
        now = np.stack([stage, [r or 0 for r in ranks]], axis=1)
        prev = measure[active]
        monotone[active] &= (now[:, 0] < prev[:, 0]) | (
            (now[:, 0] == prev[:, 0]) & (now[:, 1] < prev[:, 1])
        )
        measure[active] = now
        if entries is not None:
            for j, i in enumerate(active.tolist()):
                entries[i].append(
                    LogEntry(float(t[i]), x[i].copy(), int(layers[j]), int(stage[j]),
                             int(moves[j]), ranks[j])
                )
        for layer, u in sorted(set(zip(layers.tolist(), moves.tolist()))):
            rows = active[(layers == layer) & (moves == u)]
            tau = mlc.stack.tau(layer)
            x[rows] = sample_disturbed_step(
                sys, x[rows], sys.inputs[u], tau,
                [rngs[i] for i in rows.tolist()], substeps=substeps_base * 2 ** (layer - 1),
            )
            t[rows] += tau
        steps[active] += 1

    xa = x[active]
    ok = spec.in_safe_region(xa, mlc.stack)
    if reach:
        ok &= spec.in_target_region(xa)
    stop(active[ok], "target-reached" if reach else "safe-horizon-complete")
    stop(active[~ok], "violation")
    return status, x, steps, monotone


def simulate(
    mlc: MultiLayeredController,
    sys: ControlSystem,
    spec: ProblemSpec,
    x0,
    horizon: int,
    rng,
    substeps_base: int = 5,
) -> TrajectoryLog:
    """Run the closed loop from ``x0`` and classify the outcome.

    Safety runs complete after ``horizon`` steps; reach-avoid runs stop
    on target entry and count failing to arrive within the step budget
    as a violation.  This is the step code of :func:`validate` with a
    single run, every step logged.
    """
    entries: list[list[LogEntry]] = [[]]
    status, x, _, _ = _closed_loop(
        mlc, sys, spec, np.asarray(x0, dtype=float)[None, :], horizon,
        [np.random.default_rng(rng)], substeps_base, entries,
    )
    return TrajectoryLog(entries[0], status[0], x[0])


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
    the domain; run ``i`` draws its initial cell, then its offset in the
    cell, then its disturbances from the ``i``-th generator spawned from
    ``seed``.  All runs are simulated together.  An empty domain yields
    a vacuous pass with zero runs.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    if any(not 0 <= u < sys.n_inputs for st in mlc.stages for mv in st.moves.values() for u in mv):
        raise ValueError(f"a move names an input outside the system's {sys.n_inputs} inputs")
    cells = mlc.domain_projection().indices()
    if cells.size == 0:
        return ValidationReport(runs, 0, 0, {}, horizon, seed, 0.0,
                                None if mlc.kind == SAFETY else True)
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(runs)]
    eta1 = mlc.stack.eta(1)
    start = np.array([cells[rng.integers(cells.size)] for rng in rngs])
    offset = np.array([rng.uniform(0.0, 1.0, size=mlc.stack.dim) for rng in rngs])
    x0 = mlc.stack.centers(1, start) - 0.5 * eta1 + offset * eta1
    status, _, steps, monotone = _closed_loop(mlc, sys, spec, x0, horizon, rngs, substeps_base)

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


def _grid_format(dim: int) -> str:
    """eta1, tau1, y_lower, y_upper and the stage count."""
    return f"<{dim}dd{dim}d{dim}dI"


def serialize(mlc: MultiLayeredController) -> bytes:
    """Versioned binary encoding; byte-identical for equal controllers."""
    st = mlc.stack
    out = bytearray(_MAGIC)
    out += struct.pack("<IBBB", _VERSION, 1 if mlc.kind == REACH_AVOID else 0, st.levels, st.dim)
    out += struct.pack(
        _grid_format(st.dim), *st.eta1, st.tau1, *st.y_lower, *st.y_upper, len(mlc.stages)
    )
    for stage in mlc.stages:
        cells = sorted(stage.moves)
        out += struct.pack("<BIq", stage.layer, stage.stage, len(cells))
        for cell in cells:
            rank = -1 if stage.ranks is None else stage.ranks[cell]
            moves = stage.moves[cell]
            out += struct.pack("<qiH", cell, rank, len(moves))
            out += struct.pack(f"<{len(moves)}H", *moves)
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
    kind = REACH_AVOID if kind_flag else SAFETY
    stages = []
    for _ in range(grid[-1]):
        layer, stage_idx, n_cells = struct.unpack_from("<BIq", data, off)
        off += 13
        if not 1 <= layer <= levels or n_cells < 0:
            raise ControllerFormatError(f"stage layer {layer} not in [1;{levels}], {n_cells} cells")
        n_layer = stack.cell_count(layer)
        moves: dict[int, tuple[int, ...]] = {}
        ranks: dict[int, int] = {}
        for _ in range(n_cells):
            cell, rank, n_moves = struct.unpack_from("<qiH", data, off)
            off += 14
            if not 0 <= cell < n_layer:
                raise ControllerFormatError(f"cell {cell} outside layer {layer}'s {n_layer} cells")
            moves[cell] = struct.unpack_from(f"<{n_moves}H", data, off)
            off += 2 * n_moves
            ranks[cell] = rank
        domain = CellSet.from_indices(stack, layer, list(moves))
        ranks = ranks if kind == REACH_AVOID else None
        stages.append(LayerController(layer, stage_idx, domain, moves, ranks))
    if off != len(data):
        raise ControllerFormatError(f"{len(data) - off} trailing bytes after the last stage")
    return MultiLayeredController(kind, stack, stages)


def save(mlc: MultiLayeredController, path) -> None:
    with open(path, "wb") as fh:
        fh.write(serialize(mlc))


def load(path) -> MultiLayeredController:
    with open(path, "rb") as fh:
        return deserialize(fh.read())

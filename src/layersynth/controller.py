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
        ``None`` when no stage domain contains ``x``.  The cell on the
        stage's layer is the layer-1 index shifted right by ``layer - 1``:
        cell widths are ``eta1`` times powers of two, so this is exact.
        """
        cid = self.stack.quantize(x, 1)
        if cid is None:
            return None
        p = int(self._acting[self.stack.linearize(1, cid.index)])
        if p < 0:
            return None
        layer = self.stages[p].layer
        index = np.asarray(cid.index, dtype=np.int64) >> (layer - 1)
        return p, int(self.stack.linearize(layer, index))


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


def step_closed_loop(
    mlc: MultiLayeredController,
    sys: ControlSystem,
    x,
    rng,
    t: float = 0.0,
    substeps_base: int = 5,
) -> tuple[np.ndarray, LogEntry] | None:
    """Apply one sample-and-hold step; ``None`` when outside the domain.

    Input tie-break within a stage is the lowest input index, so runs
    are reproducible.
    """
    sel = mlc.quantize(x)
    if sel is None:
        return None
    p, cell = sel
    st = mlc.stages[p]
    u_idx = min(st.moves[cell])
    layer = st.layer
    tau = mlc.stack.tau(layer)
    x_next = sample_disturbed_step(
        sys, x, sys.inputs[u_idx], tau, rng, substeps=substeps_base * 2 ** (layer - 1)
    )
    rank = None if st.ranks is None else st.ranks[cell]
    entry = LogEntry(t, np.asarray(x, dtype=float).copy(), layer, p, u_idx, rank)
    return x_next, entry


def rank_budget(mlc: MultiLayeredController) -> int:
    """Worst-case step bound for reach-avoid runs, with slack factor 2."""
    total = 0
    for st in mlc.stages:
        if st.ranks:
            total += max(st.ranks.values())
    return max(2 * total, 10)


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
    as a violation.  The specification is checked at sampling instants.
    """
    rng = np.random.default_rng(rng)
    x = np.asarray(x0, dtype=float)
    entries: list[LogEntry] = []
    t = 0.0
    if mlc.kind == REACH_AVOID:
        horizon = min(horizon, rank_budget(mlc)) if horizon else rank_budget(mlc)
    for _ in range(horizon):
        if not spec.in_safe_region(x, mlc.stack):
            return TrajectoryLog(entries, "violation", x)
        if mlc.kind == REACH_AVOID and spec.in_target_region(x):
            return TrajectoryLog(entries, "target-reached", x)
        stepped = step_closed_loop(mlc, sys, x, rng, t, substeps_base)
        if stepped is None:
            return TrajectoryLog(entries, "left-domain", x)
        x, entry = stepped
        entries.append(entry)
        t += mlc.stack.tau(entry.layer)
    if mlc.kind == SAFETY:
        if not spec.in_safe_region(x, mlc.stack):
            return TrajectoryLog(entries, "violation", x)
        return TrajectoryLog(entries, "safe-horizon-complete", x)
    if spec.in_target_region(x) and spec.in_safe_region(x, mlc.stack):
        return TrajectoryLog(entries, "target-reached", x)
    return TrajectoryLog(entries, "violation", x)


def check_rank_progress(log: TrajectoryLog) -> bool:
    """True iff (stage, rank) strictly decreases along the whole run."""
    measure = [(e.stage, e.rank if e.rank is not None else 0) for e in log.entries]
    return all(b < a for a, b in zip(measure, measure[1:]))


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
    the domain.  An empty domain yields a vacuous pass with zero runs.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    if any(not 0 <= u < sys.n_inputs for st in mlc.stages for mv in st.moves.values() for u in mv):
        raise ValueError(f"a move names an input outside the system's {sys.n_inputs} inputs")
    domain = mlc.domain_projection()
    cells = domain.indices()
    if cells.size == 0:
        return ValidationReport(runs, 0, 0, {}, horizon, seed, 0.0,
                                None if mlc.kind == SAFETY else True)
    seeds = np.random.SeedSequence(seed).spawn(runs)
    eta1 = mlc.stack.eta(1)

    def one(i: int) -> TrajectoryLog:
        rng = np.random.default_rng(seeds[i])
        cell = int(cells[rng.integers(cells.size)])
        lo = mlc.stack.centers(1, np.asarray([cell]))[0] - 0.5 * eta1
        x0 = lo + rng.uniform(0.0, 1.0, size=mlc.stack.dim) * eta1
        return simulate(mlc, sys, spec, x0, horizon, rng, substeps_base)

    logs = [one(i) for i in range(runs)]

    ok = {"safe-horizon-complete"} if mlc.kind == SAFETY else {"target-reached"}
    counts: dict[str, int] = {}
    for log in logs:
        counts[log.status] = counts.get(log.status, 0) + 1
    violations = sum(n for s, n in counts.items() if s not in ok)
    rank_ok = None
    if mlc.kind == REACH_AVOID:
        rank_ok = all(check_rank_progress(log) for log in logs)
    mean_steps = float(np.mean([log.steps for log in logs]))
    return ValidationReport(runs, runs, violations, counts, horizon, seed, mean_steps, rank_ok)


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
    # No synthesized controller outgrows the tables' int32 cell indices.
    if np.prod(stack.dims(1), dtype=float) > np.iinfo(np.int32).max:
        raise ControllerFormatError("grid has more layer-1 cells than int32 indices address")
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

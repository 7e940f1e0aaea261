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

    def domain_projection(self) -> CellSet:
        """Layer-1 cell set covering the union of all stage domains."""
        out = CellSet.empty(self.stack, 1)
        for st in self.stages:
            out.union_update(gamma_down(self.stack, st.domain, 1))
        return out

    def quantize(self, x) -> tuple[int, int] | None:
        """Stage selection for a concrete state.

        Returns ``(stage_index, linear_cell)`` of the acting stage, or
        ``None`` when no stage domain contains ``x``.  Safety picks the
        coarsest applicable stage, reach-avoid the earliest inserted one
        (ties broken toward the coarser layer).
        """
        cell_cache: dict[int, int | None] = {}

        def cell_at(layer: int) -> int | None:
            if layer not in cell_cache:
                cid = self.stack.quantize(x, layer)
                cell_cache[layer] = (
                    None if cid is None else int(self.stack.linearize(layer, cid.index))
                )
            return cell_cache[layer]

        hits = []
        for p, st in enumerate(self.stages):
            cell = cell_at(st.layer)
            if cell is not None and bool(st.domain.bits[cell]):
                hits.append((p, st.layer, cell))
        if not hits:
            return None
        if self.kind == SAFETY:
            p, _, cell = max(hits, key=lambda h: (h[1], -h[0]))
        else:
            p, _, cell = min(hits, key=lambda h: (h[0], -h[1]))
        return p, cell


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


def serialize(mlc: MultiLayeredController) -> bytes:
    """Versioned binary encoding; byte-identical for equal controllers."""
    st = mlc.stack
    out = bytearray()
    out += _MAGIC
    out += struct.pack(
        "<IBBB", _VERSION, 1 if mlc.kind == REACH_AVOID else 0, st.levels, st.dim
    )
    out += st.eta1.astype("<f8").tobytes()
    out += struct.pack("<d", st.tau1)
    out += st.y_lower.astype("<f8").tobytes()
    out += st.y_upper.astype("<f8").tobytes()
    out += struct.pack("<I", len(mlc.stages))
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
    if data[:4] != _MAGIC:
        raise ControllerFormatError("bad magic; not a controller file")
    try:
        version, kind_flag, levels, dim = struct.unpack_from("<IBBB", data, 4)
        if version != _VERSION:
            raise ControllerFormatError(f"unsupported controller version {version}")
        off = 11
        eta1 = np.frombuffer(data, "<f8", dim, off); off += 8 * dim
        (tau1,) = struct.unpack_from("<d", data, off); off += 8
        y_lower = np.frombuffer(data, "<f8", dim, off); off += 8 * dim
        y_upper = np.frombuffer(data, "<f8", dim, off); off += 8 * dim
        (n_stages,) = struct.unpack_from("<I", data, off); off += 4
        stack = LayerStack(levels, eta1, tau1, y_lower, y_upper)
        kind = REACH_AVOID if kind_flag else SAFETY
        stages = []
        for _ in range(n_stages):
            layer, stage_idx, n_cells = struct.unpack_from("<BIq", data, off)
            off += 13
            moves: dict[int, tuple[int, ...]] = {}
            ranks: dict[int, int] = {}
            lin = []
            for _ in range(n_cells):
                cell, rank, n_moves = struct.unpack_from("<qiH", data, off)
                off += 14
                mv = struct.unpack_from(f"<{n_moves}H", data, off)
                off += 2 * n_moves
                moves[cell] = tuple(int(v) for v in mv)
                ranks[cell] = rank
                lin.append(cell)
            domain = CellSet.from_indices(stack, layer, np.asarray(lin, dtype=np.int64))
            stages.append(
                LayerController(
                    layer,
                    stage_idx,
                    domain,
                    moves,
                    ranks if kind == REACH_AVOID else None,
                )
            )
        return MultiLayeredController(kind, stack, stages)
    except struct.error as exc:
        raise ControllerFormatError(f"truncated controller file: {exc}") from exc


def save(mlc: MultiLayeredController, path) -> None:
    with open(path, "wb") as fh:
        fh.write(serialize(mlc))


def load(path) -> MultiLayeredController:
    with open(path, "rb") as fh:
        return deserialize(fh.read())

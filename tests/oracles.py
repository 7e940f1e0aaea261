"""Brute-force reference implementations used to cross-check the solvers.

The game oracles work on plain dicts and Python sets, independent of the
bitset machinery in the package; the closed-loop oracles step one state
at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count

import numpy as np

from layersynth import CellSet, ValidationReport
from layersynth.controller import rank_budget
from layersynth.dynamics import DISTURBANCE_SEGMENTS, sample_disturbed_step
from layersynth.problem import REACH_AVOID, SAFETY


class _Blocked:
    def __repr__(self) -> str:
        return "BLOCKED"


#: An explored main-table pair with no stored box: its reach box leaves the region.
BLOCKED = _Blocked()


def successor_rows(table, u_idx):
    """Every stored box of one input, enumerated as (cells, indptr, flat).

    Row ``k`` lists the cells of box ``k`` of ``cells[k]`` in
    ``flat[indptr[k]:indptr[k + 1]]``, dimension 0 varying fastest.
    """
    cells, lo, hi = table.csr(u_idx)
    lo = lo.astype(np.int64)
    extent = hi.astype(np.int64) - lo + 1
    lengths = extent.prod(axis=1)
    indptr = np.concatenate([[0], np.cumsum(lengths)])
    row = np.repeat(np.arange(cells.size), lengths)
    offset = np.arange(indptr[-1]) - indptr[row]
    coords = np.empty((row.size, lo.shape[1]), dtype=np.int64)
    for d in range(lo.shape[1]):
        coords[:, d] = lo[row, d] + offset % extent[row, d]
        offset = offset // extent[row, d]
    flat = table.stack.linearize(table.grid_layer, coords)
    return cells, indptr, flat


def successors(table, cell: int, u_idx: int):
    """Stored successor set (as a :class:`CellSet`), BLOCKED, or None.

    On an auxiliary table a pair that leaves the region reports its
    clipped successors.
    """
    if not table._explored[cell]:
        return None
    cells, indptr, flat = successor_rows(table, u_idx)
    rows = np.flatnonzero(cells == cell)
    if rows.size == 0:
        return BLOCKED
    succ = np.concatenate([flat[indptr[k] : indptr[k + 1]] for k in rows])
    return CellSet.from_indices(table.stack, table.grid_layer, succ)


def table_as_dict(table):
    """Enumerate a transition table into {(cell, u): frozenset | BLOCKED}."""
    out = {}
    for u in range(table.sys.n_inputs):
        cells, indptr, flat = successor_rows(table, u)
        open_rows: dict[int, set] = {}
        for k, cell in enumerate(cells.tolist()):
            open_rows.setdefault(cell, set()).update(flat[indptr[k] : indptr[k + 1]].tolist())
        for cell in np.flatnonzero(table._explored).tolist():
            out[(cell, u)] = frozenset(open_rows[cell]) if cell in open_rows else BLOCKED
    return out


def closing_inputs_reference(table, region) -> np.ndarray:
    """Closing mask from the region bit of every enumerated successor.

    The reference for ``synthesis._closing_inputs`` on a main table: a
    pair closes if it has rows and none of them leaves ``region``.
    """
    mask = np.zeros((table.sys.n_inputs, table.n_cells), dtype=bool)
    for u in range(table.sys.n_inputs):
        cells, indptr, flat = successor_rows(table, u)
        if cells.size:
            ok = np.minimum.reduceat(region.bits[flat], indptr[:-1])
            mask[u, cells] = True
            mask[u, cells[~ok]] = False
    return mask


def upre_reference(table, target):
    """Cooperative predecessor from the target bit of every enumerated successor.

    The reference for ``synthesis.upre``; clipped auxiliary boxes take part.
    """
    out = CellSet.empty(table.stack, target.layer)
    for u in range(table.sys.n_inputs):
        cells, indptr, flat = successor_rows(table, u)
        if cells.size:
            out.bits[cells[np.maximum.reduceat(target.bits[flat], indptr[:-1])]] = True
    return out


def n_inputs_of(table_dict) -> int:
    return 1 + max(u for _, u in table_dict)


def cpre_oracle(table_dict, target: set[int]) -> set[int]:
    result = set()
    for (cell, _u), succ in table_dict.items():
        if succ is BLOCKED:
            continue
        if succ <= target:
            result.add(cell)
    return result


def upre_oracle(table_dict, target: set[int]) -> set[int]:
    result = set()
    for (cell, _u), succ in table_dict.items():
        if succ is BLOCKED:
            continue
        if succ & target:
            result.add(cell)
    return result


def upre_m_oracle(table_dict, target: set[int], m: int) -> set[int]:
    acc = upre_oracle(table_dict, target)
    for _ in range(m - 1):
        acc = acc | upre_oracle(table_dict, acc)
    return acc


def safe_gfp_oracle(table_dict, safe: set[int]) -> set[int]:
    """Backward induction for the safety game restricted to ``safe``."""
    w = set(safe)
    while True:
        keep = {c for c in w if c in cpre_oracle(table_dict, w)}
        keep &= safe
        if keep == w:
            return w
        w = keep


def attractor_oracle(table_dict, target: set[int], safe: set[int], m: int | None = None):
    """Reach-avoid attractor; returns (winning set, rank per added cell)."""
    w = set(target)
    ranks: dict[int, int] = {}
    i = 0
    while m is None or i < m:
        step = (cpre_oracle(table_dict, w) & safe) | set(target)
        i += 1
        if step == w:
            break
        for c in step - w:
            ranks[c] = i
        w = step
    return w, ranks


def stage_moves(cells, moves) -> dict[int, tuple[int, ...]]:
    """A stage's move rows as ``{cell: allowed inputs}``."""
    return {int(c): tuple(np.flatnonzero(row).tolist()) for c, row in zip(cells, moves)}


def stage_ranks(cells, ranks) -> dict[int, int]:
    """A stage's ranks as ``{cell: rank}``."""
    return dict(zip(cells.tolist(), ranks.tolist()))


def quantize_oracle(mlc, x):
    """Stage selection by quantizing ``x`` on every stage's own layer.

    Returns ``(stage_index, linear_cell)`` or ``None``.  Safety picks the
    coarsest applicable stage, reach-avoid the earliest inserted one
    (ties broken toward the coarser layer).
    """
    hits = []
    for p, st in enumerate(mlc.stages):
        cell = int(mlc.stack.quantize(x, st.layer))
        if cell >= 0 and np.any(st.cells == cell):
            hits.append((p, st.layer, cell))
    if not hits:
        return None
    if mlc.kind == SAFETY:
        p, _, cell = max(hits, key=lambda h: (h[1], -h[0]))
    else:
        p, _, cell = min(hits, key=lambda h: (h[0], -h[1]))
    return p, cell


def in_safe_oracle(spec, x, stack) -> bool:
    """Point test of the concrete safe region, one closed box at a time."""
    def inside(lo, hi):
        return all(a <= v <= b for a, v, b in zip(lo, x, hi))

    if not inside(stack.y_lower, stack.y_upper):
        return False
    if spec.safe_boxes and not any(inside(lo, hi) for lo, hi in spec.safe_boxes):
        return False
    return not any(inside(lo, hi) for lo, hi in spec.obstacle_boxes)


def in_target_oracle(spec, x) -> bool:
    return any(all(a <= v <= b for a, v, b in zip(lo, x, hi)) for lo, hi in spec.target_boxes)


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


def child_rng(seed, k):
    """Generator of the ``k``-th child spawned from ``SeedSequence(seed)``."""
    return np.random.default_rng(np.random.SeedSequence(seed).spawn(k + 1)[k])


def seeded_draws(seed, dim):
    """A disturbance stream of its own: one ``(DISTURBANCE_SEGMENTS, dim)``
    block of unit doubles per step from ``default_rng(seed)``, which is
    bit for bit per-segment ``uniform(-w, w)`` draws."""
    rng = np.random.default_rng(seed)
    while True:
        yield rng.random((DISTURBANCE_SEGMENTS, dim))


def run_draws(seed, run, dim):
    """The disturbance stream of validation run ``run``: step ``k`` is
    row ``run`` of the row-major block that child ``k + 2`` of
    ``SeedSequence(seed)`` draws for runs ``0`` to ``run``."""
    for k in count():
        yield child_rng(seed, k + 2).random((run + 1, DISTURBANCE_SEGMENTS, dim))[run]


def simulate_oracle(mlc, sys, spec, x0, horizon, draws, substeps_base=5):
    """One closed-loop run, one state and one stage lookup at a time.

    The reference for one run of :func:`layersynth.controller.validate`:
    it picks the acting stage with :func:`quantize_oracle`, steps with
    the lowest-index move of that stage and checks the specification
    with the oracle point tests.  Step ``k`` takes the ``k``-th unit
    draws of the iterator ``draws`` (see :func:`seeded_draws` and
    :func:`run_draws`).  Every step is logged.
    """
    x = np.asarray(x0, dtype=float)
    entries = []
    t = 0.0
    if mlc.kind == REACH_AVOID:
        horizon = min(horizon, rank_budget(mlc)) if horizon else rank_budget(mlc)
    for _ in range(horizon):
        if not in_safe_oracle(spec, x, mlc.stack):
            return TrajectoryLog(entries, "violation", x)
        if mlc.kind == REACH_AVOID and in_target_oracle(spec, x):
            return TrajectoryLog(entries, "target-reached", x)
        sel = quantize_oracle(mlc, x)
        if sel is None:
            return TrajectoryLog(entries, "left-domain", x)
        p, cell = sel
        st = mlc.stages[p]
        row = int(np.flatnonzero(st.cells == cell)[0])
        u = int(np.flatnonzero(st.moves[row])[0])
        rank = None if st.ranks is None else int(st.ranks[row])
        entries.append(LogEntry(t, x.copy(), st.layer, p, u, rank))
        x = sample_disturbed_step(
            sys, x, sys.inputs[u], mlc.stack.tau(st.layer), next(draws),
            substeps=substeps_base * 2 ** (st.layer - 1),
        )
        t += mlc.stack.tau(st.layer)
    if mlc.kind == SAFETY:
        ok = in_safe_oracle(spec, x, mlc.stack)
        return TrajectoryLog(entries, "safe-horizon-complete" if ok else "violation", x)
    ok = in_target_oracle(spec, x) and in_safe_oracle(spec, x, mlc.stack)
    return TrajectoryLog(entries, "target-reached" if ok else "violation", x)


def check_rank_progress(log: TrajectoryLog) -> bool:
    """True iff (stage, rank) strictly decreases along the whole run.

    The reference for the ``rank_monotone`` flag that the batched
    closed loop tracks as it steps.
    """
    measure = [(e.stage, e.rank if e.rank is not None else 0) for e in log.entries]
    return all(b < a for a, b in zip(measure, measure[1:]))


def start_states_oracle(mlc, runs, seed):
    """Initial states of :func:`validate_oracle`, one run at a time.

    Run ``i`` takes entry ``i`` of the layer-1 cell indices that child 0
    of ``SeedSequence(seed)`` draws for runs ``0`` to ``i``, and row ``i``
    of the unit offsets in the cell that child 1 draws for them.
    """
    cells = mlc.domain_projection().indices()
    eta1 = mlc.stack.eta(1)
    states = []
    for i in range(runs):
        cell = int(cells[child_rng(seed, 0).integers(cells.size, size=i + 1)[i]])
        lo = mlc.stack.centers(1, np.asarray([cell]))[0] - 0.5 * eta1
        states.append(lo + child_rng(seed, 1).random((i + 1, mlc.stack.dim))[i] * eta1)
    return states


def sample_disturbed_step_reference(sys, x0, u, tau, rngs, substeps=5):
    """Disturbed steps of the rows of ``x0``, drawn one segment at a time.

    The reference for how
    :func:`layersynth.dynamics.sample_disturbed_step` maps unit draws
    onto the disturbance box: row ``i`` draws each segment's disturbance
    with ``rngs[i].uniform(-w, w)``, which matches the unit draws
    ``rngs[i].random((DISTURBANCE_SEGMENTS, n))``.  ``u`` is
    one input or one per row; the field is bound once.  The rows are
    integrated together with the same RK4 steps, because a
    matrix-product vector field may round a lone state differently from
    a batch row, so the results must agree bit for bit.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    x = np.asarray(x0, dtype=float)
    field = sys.vector_field(u)
    draws = [[rng.uniform(-sys.disturbance, sys.disturbance) for _ in range(DISTURBANCE_SEGMENTS)]
             for rng in rngs]
    seg_steps = max(1, -(-substeps // DISTURBANCE_SEGMENTS))
    h = tau / DISTURBANCE_SEGMENTS / seg_steps
    for k in range(DISTURBANCE_SEGMENTS):
        w = np.array([row[k] for row in draws])

        def f(y):
            return field(y) + w

        for _ in range(seg_steps):
            k1 = f(x)
            k2 = f(x + 0.5 * h * k1)
            k3 = f(x + 0.5 * h * k2)
            k4 = f(x + h * k3)
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x


def validate_oracle(mlc, sys, spec, runs, horizon, seed, substeps_base=5):
    """Monte Carlo validation, one trajectory after another.

    The reference for :func:`layersynth.controller.validate`: run ``i``
    starts from :func:`start_states_oracle` and takes :func:`run_draws`,
    so it depends on ``seed`` and ``i`` alone.
    """
    if mlc.domain_projection().is_empty():
        return ValidationReport(runs, 0, 0, {}, horizon, seed, 0.0,
                                None if mlc.kind == SAFETY else True)
    dim = mlc.stack.dim
    logs = [
        simulate_oracle(mlc, sys, spec, x0, horizon, run_draws(seed, i, dim), substeps_base)
        for i, x0 in enumerate(start_states_oracle(mlc, runs, seed))
    ]
    ok = {"safe-horizon-complete"} if mlc.kind == SAFETY else {"target-reached"}
    counts = {}
    for log in logs:
        counts[log.status] = counts.get(log.status, 0) + 1
    violations = sum(n for s, n in counts.items() if s not in ok)
    rank_ok = None
    if mlc.kind == REACH_AVOID:
        rank_ok = all(check_rank_progress(log) for log in logs)
    mean_steps = float(np.mean([log.steps for log in logs]))
    return ValidationReport(runs, runs, violations, counts, horizon, seed, mean_steps, rank_ok)

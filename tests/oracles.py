"""Brute-force reference implementations used to cross-check the solvers.

The game oracles work on plain dicts and Python sets, independent of the
bitset machinery in the package; the closed-loop oracles step one state
at a time.
"""

from __future__ import annotations

import numpy as np

from layersynth import BLOCKED, CellSet, TrajectoryLog, ValidationReport
from layersynth.controller import LogEntry, rank_budget
from layersynth.dynamics import sample_disturbed_step
from layersynth.problem import REACH_AVOID, SAFETY


def successor_rows(table, u_idx):
    """Every stored box of one input, enumerated as (cells, indptr, flat, blocked).

    Row ``k`` lists the cells of box ``k`` of ``cells[k]`` in
    ``flat[indptr[k]:indptr[k + 1]]``, dimension 0 varying fastest.
    """
    cells, lo, hi, blocked = table.csr(u_idx)
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
    return cells, indptr, flat, blocked


def successors(table, cell: int, u_idx: int):
    """Stored successor set (as a :class:`CellSet`), BLOCKED, or None."""
    if not table._explored[u_idx, cell]:
        return None
    cells, indptr, flat, blocked = successor_rows(table, u_idx)
    rows = np.flatnonzero(cells == cell)
    if rows.size == 0 or blocked[rows].any():
        return BLOCKED
    succ = np.concatenate([flat[indptr[k] : indptr[k + 1]] for k in rows])
    return CellSet.from_indices(table.stack, table.grid_layer, succ)


def table_as_dict(table):
    """Enumerate a transition table into {(cell, u): frozenset | BLOCKED}."""
    out = {}
    for u in range(table.sys.n_inputs):
        cells, indptr, flat, blocked = successor_rows(table, u)
        open_rows: dict[int, set] = {}
        for k, cell in enumerate(cells.tolist()):
            if not blocked[k]:
                open_rows.setdefault(cell, set()).update(flat[indptr[k] : indptr[k + 1]].tolist())
        for cell in np.flatnonzero(table._explored[u]).tolist():
            out[(cell, u)] = frozenset(open_rows[cell]) if cell in open_rows else BLOCKED
    return out


def closing_inputs_reference(table, region) -> np.ndarray:
    """Closing mask from the region bit of every enumerated successor.

    The reference for ``synthesis._closing_inputs``: a pair closes
    unless one of its rows is blocked or leaves ``region``.
    """
    mask = np.zeros((table.sys.n_inputs, table.n_cells), dtype=bool)
    for u in range(table.sys.n_inputs):
        cells, indptr, flat, blocked = successor_rows(table, u)
        if cells.size:
            ok = np.minimum.reduceat(region.bits[flat], indptr[:-1]) & ~blocked
            mask[u, cells] = True
            mask[u, cells[~ok]] = False
    return mask


def upre_reference(table, target):
    """Cooperative predecessor from the target bit of every enumerated successor.

    The reference for ``synthesis.upre``; blocked clipped boxes take part.
    """
    out = CellSet.empty(table.stack, target.layer)
    for u in range(table.sys.n_inputs):
        cells, indptr, flat, _ = successor_rows(table, u)
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


def quantize_oracle(mlc, x):
    """Stage selection by quantizing ``x`` on every stage's own layer.

    Returns ``(stage_index, linear_cell)`` or ``None``.  Safety picks the
    coarsest applicable stage, reach-avoid the earliest inserted one
    (ties broken toward the coarser layer).
    """
    hits = []
    for p, st in enumerate(mlc.stages):
        cid = mlc.stack.quantize(x, st.layer)
        if cid is None:
            continue
        cell = int(mlc.stack.linearize(st.layer, cid.index))
        if cell in st.moves:
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


def simulate_oracle(mlc, sys, spec, x0, horizon, rng, substeps_base=5):
    """One closed-loop run, one state and one stage lookup at a time.

    The reference for :func:`layersynth.controller.simulate`: it picks
    the acting stage with :func:`quantize_oracle`, steps with the
    lowest-index move of that stage and checks the specification with
    the oracle point tests.
    """
    rng = np.random.default_rng(rng)
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
        u = min(st.moves[cell])
        rank = None if st.ranks is None else st.ranks[cell]
        entries.append(LogEntry(t, x.copy(), st.layer, p, u, rank))
        x = sample_disturbed_step(
            sys, x, sys.inputs[u], mlc.stack.tau(st.layer), rng,
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


def validate_oracle(mlc, sys, spec, runs, horizon, seed, substeps_base=5):
    """Monte Carlo validation, one trajectory after another.

    The reference for :func:`layersynth.controller.validate`, with the
    same per-run generators and draw order.
    """
    cells = mlc.domain_projection().indices()
    if cells.size == 0:
        return ValidationReport(runs, 0, 0, {}, horizon, seed, 0.0,
                                None if mlc.kind == SAFETY else True)
    seeds = np.random.SeedSequence(seed).spawn(runs)
    eta1 = mlc.stack.eta(1)
    logs = []
    for i in range(runs):
        rng = np.random.default_rng(seeds[i])
        cell = int(cells[rng.integers(cells.size)])
        lo = mlc.stack.centers(1, np.asarray([cell]))[0] - 0.5 * eta1
        x0 = lo + rng.uniform(0.0, 1.0, size=mlc.stack.dim) * eta1
        logs.append(simulate_oracle(mlc, sys, spec, x0, horizon, rng, substeps_base))
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

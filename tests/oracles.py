"""Brute-force reference implementations used to cross-check the solvers.

The game oracles work on plain dicts and Python sets, independent of the
bitset machinery in the package; the closed-loop oracles step one state
at a time.
"""

from __future__ import annotations

import numpy as np

from layersynth import BLOCKED, TrajectoryLog, ValidationReport, check_rank_progress
from layersynth.controller import LogEntry, rank_budget
from layersynth.dynamics import sample_disturbed_step
from layersynth.problem import REACH_AVOID, SAFETY


def table_as_dict(table):
    """Enumerate a transition table into {(cell, u): frozenset | BLOCKED}."""
    out = {}
    for cell in range(table.n_cells):
        for u in range(table.sys.n_inputs):
            succ = table.successors(cell, u)
            if succ is None:
                continue
            if succ is BLOCKED:
                out[(cell, u)] = BLOCKED
            else:
                out[(cell, u)] = frozenset(int(c) for c in succ.indices())
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

import functools
import warnings

import numpy as np
import pytest

from conftest import (
    DCDC_SAFE,
    SWEEP,
    UNICYCLE_LAZY,
    chain_table,
    drift_system,
    random_problem,
    stationary_system,
)
from oracles import (
    attractor_oracle,
    cpre_oracle,
    safe_gfp_oracle,
    stage_moves,
    stage_ranks,
    BLOCKED,
    successors,
    table_as_dict,
    upre_m_oracle,
    upre_oracle,
)
from layersynth import (
    ALGORITHMS,
    CellSet,
    LayerStack,
    ProblemSpec,
    SynthesisEngine,
    TransitionTable,
    cpre,
    gamma_down,
    gamma_up,
    synthesize,
    upre,
    upre_m,
    validate,
)
from layersynth.config import parse_config
from layersynth.controller import serialize
from layersynth.problem import REACH_AVOID, SAFETY


def two_state_table():
    """F(a, u) = {a}; F(b, u) = {a, b} on a 2-cell line."""
    stack = LayerStack(1, [1.0], 1.0, [0.0], [2.0])
    sys = stationary_system(dim=1)
    table = TransitionTable(sys, stack, 1)
    table.preload(0, [[0]])
    table.preload(1, [[0, 1]])
    return stack, table


def cells(stack, layer, idx):
    return CellSet.from_indices(stack, layer, np.asarray(list(idx), dtype=np.int64))


def cpre_cells(table, target):
    """Cells of the table's grid with an input that keeps ``target``: the
    columns of ``cpre``'s closing mask over every cell."""
    mask = cpre(table, target, CellSet.full(table.stack, table.grid_layer))
    return CellSet(target.layer, mask.any(axis=0))


def self_loop_engine(spec_kind=SAFETY, n=4, obstacles=(), targets=()):
    """Engine over a preloaded pure self-loop table (1-D, single layer)."""
    stack = LayerStack(1, [1.0], 1.0, [0.0], [float(n)])
    sys = stationary_system(dim=1)
    spec = ProblemSpec(
        kind=spec_kind,
        obstacle_boxes=list(obstacles),
        target_boxes=list(targets),
    )
    engine = SynthesisEngine(sys, stack, spec)
    for c in range(n):
        engine.table(1).preload(c, [[c]])
    return stack, engine


class TestCpre:
    def test_two_state_example(self):
        stack, table = two_state_table()
        got = cpre_cells(table, cells(stack, 1, [0]))
        assert got.indices().tolist() == [0]

    def test_empty_target(self):
        stack, table = two_state_table()
        assert cpre_cells(table, CellSet.empty(stack, 1)).is_empty()

    def test_full_grid_keeps_cells_with_a_usable_input(self):
        stack = LayerStack(1, [1.0], 1.0, [0.0], [3.0])
        table = TransitionTable(stationary_system(dim=1), stack, 1)
        table.preload(0, [[0, 1]])
        table.preload(1, [None])
        table.preload(2, [[2]])
        got = cpre_cells(table, CellSet.full(stack, 1))
        assert got.indices().tolist() == [0, 2]

    def test_matches_oracle_on_random_tables(self):
        rng = np.random.default_rng(0)
        stack = LayerStack(1, [1.0], 1.0, [0.0], [12.0])
        sys = stationary_system(dim=1, n_inputs=3)
        table = TransitionTable(sys, stack, 1)
        for c in range(12):
            succs = []
            for u in range(3):
                if rng.random() < 0.15:
                    succs.append(None)
                else:
                    k = int(rng.integers(1, 4))
                    succs.append(np.unique(rng.integers(0, 12, size=k)))
            table.preload(c, succs)
        tdict = table_as_dict(table)
        for _ in range(100):
            target = set(int(c) for c in np.flatnonzero(rng.random(12) < 0.4))
            got = set(cpre_cells(table, cells(stack, 1, target)).indices().tolist())
            assert got == cpre_oracle(tdict, target)
            got_u = set(upre(table, cells(stack, 1, target)).indices().tolist())
            assert got_u == upre_oracle(tdict, target)
            assert got <= got_u

    def test_unexplored_candidate_never_closes(self):
        # cells 1 and 2 are candidates with no stored entry: the mask is
        # False on their columns, whatever the region
        stack = LayerStack(1, [1.0], 1.0, [0.0], [3.0])
        table = TransitionTable(stationary_system(dim=1), stack, 1)
        table.preload(0, [[0]])
        for region in (cells(stack, 1, [0]), CellSet.full(stack, 1)):
            mask = cpre(table, region, CellSet.full(stack, 1))
            assert mask.tolist() == [[True, False, False]]


class TestUpre:
    def test_empty_target(self):
        stack, table = two_state_table()
        assert upre(table, CellSet.empty(stack, 1)).is_empty()

    def test_two_state_example(self):
        stack, table = two_state_table()
        got = upre(table, cells(stack, 1, [0]))
        assert got.indices().tolist() == [0, 1]

    def test_upre_m_base_case(self):
        stack = LayerStack(1, [1.0], 1.0, [0.0], [5.0])
        table = chain_table(stack)
        target = cells(stack, 1, [4])
        assert upre_m(table, target, 1) == (upre(table, target), 1)

    def test_upre_m_monotone_in_m(self):
        stack = LayerStack(1, [1.0], 1.0, [0.0], [5.0])
        table = chain_table(stack)
        target = cells(stack, 1, [4])
        prev, _ = upre_m(table, target, 1)
        for m in range(2, 5):
            cur, _ = upre_m(table, target, m)
            assert prev.is_subset(cur)
            prev = cur

    def test_upre_m_chain_against_oracle(self):
        stack = LayerStack(1, [1.0], 1.0, [0.0], [5.0])
        table = chain_table(stack)
        tdict = table_as_dict(table)
        target = {4}
        for m in (1, 2, 3):
            got = set(upre_m(table, cells(stack, 1, target), m)[0].indices().tolist())
            assert got == upre_m_oracle(tdict, target, m)
        # frozen values from the enumeration oracle on the i -> {i+1, i+2} chain
        assert upre_m_oracle(tdict, target, 1) == {2, 3}
        assert upre_m_oracle(tdict, target, 3) == {0, 1, 2, 3}


class TestSafeStep:
    def test_empty_current(self):
        _, engine = self_loop_engine()
        out, _ = engine.safe_step(1, CellSet.empty(engine.stack, 1))
        assert out.is_empty()

    def test_self_loop_immediate_fixed_point(self):
        _, engine = self_loop_engine()
        safe = engine.spec_sets.safe_at(1)
        assert engine.safe_step(1, safe)[0] == safe

    def test_two_state_examples(self):
        stack = LayerStack(1, [1.0], 1.0, [0.0], [2.0])
        sys = stationary_system(dim=1)
        engine = SynthesisEngine(sys, stack, ProblemSpec(kind=SAFETY))
        engine.table(1).preload(0, [[0]])
        engine.table(1).preload(1, [[0, 1]])
        assert engine.safe_step(1, cells(stack, 1, [0, 1]))[0] == cells(stack, 1, [0, 1])
        assert engine.safe_step(1, cells(stack, 1, [0]))[0] == cells(stack, 1, [0])


def one_level_safety(engine):
    """The safety game of a 1-level engine: (winning set, moves)."""
    w, stages = engine.safe_iteration()
    return w, stage_moves(stages[0].cells, stages[0].moves) if stages else {}


class TestSafeFixpoint:
    def test_blocked_rows_lose_everything(self):
        stack = LayerStack(1, [1.0], 1.0, [0.0], [3.0])
        sys = stationary_system(dim=1)
        engine = SynthesisEngine(sys, stack, ProblemSpec(kind=SAFETY))
        for c in range(3):
            engine.table(1).preload(c, [None])
        w, moves = one_level_safety(engine)
        assert w.is_empty() and moves == {}

    def test_self_loops_keep_everything(self):
        _, engine = self_loop_engine()
        w, moves = one_level_safety(engine)
        assert w == engine.spec_sets.safe_at(1)
        assert all(m == (0,) for m in moves.values())

    def test_outward_drift_chain_matches_backward_induction(self):
        stack = LayerStack(1, [1.0], 1.0, [0.0], [5.0])
        engine = SynthesisEngine(drift_system(), stack, ProblemSpec(kind=SAFETY))
        engine.explore(1, CellSet.full(stack, 1))
        w, _ = one_level_safety(engine)
        expect = safe_gfp_oracle(table_as_dict(engine.table(1)), set(range(5)))
        assert set(w.indices().tolist()) == expect == set()

    def test_random_instances_match_backward_induction(self):
        for seed in range(15):
            sys, stack, spec = random_problem(seed, kind=SAFETY, levels=1)
            engine = SynthesisEngine(sys, stack, spec)
            safe = engine.spec_sets.safe_at(1)
            engine.explore(1, safe)
            w, moves = one_level_safety(engine)
            oracle = safe_gfp_oracle(
                table_as_dict(engine.table(1)), set(int(c) for c in safe.indices())
            )
            assert set(w.indices().tolist()) == oracle
            for cell, mv in moves.items():
                for u in mv:
                    assert successors(engine.table(1), cell, u).is_subset(w)


class TestReachM:
    def test_empty_target(self):
        _, engine = self_loop_engine(REACH_AVOID, targets=[([0.2], [0.4])])
        out = engine.reach_m(1, CellSet.empty(engine.stack, 1), 3)
        assert out.won.is_empty() and out.fixed_point

    def test_target_already_fixed(self):
        stack, engine = self_loop_engine(REACH_AVOID, n=4, targets=[([0.0], [2.0])])
        target = engine.spec_sets.target_at(1)
        out = engine.reach_m(1, target, None)
        assert out.won == target and out.fixed_point and out.cells.size == 0

    def test_chain_two_steps_adds_two_predecessors_with_decreasing_ranks(self):
        stack = LayerStack(1, [1.0], 1.0, [0.0], [5.0])
        spec = ProblemSpec(kind=REACH_AVOID, target_boxes=[([4.0], [5.0])])
        engine = SynthesisEngine(drift_system(), stack, spec)
        for (cell, _), succ in table_as_dict(chain_table(stack)).items():
            engine.table(1).preload(cell, [None if succ is BLOCKED else sorted(succ)])
        target = engine.spec_sets.target_at(1)
        out = engine.reach_m(1, target, 2)
        assert stage_ranks(out.cells, out.ranks) == {3: 1, 2: 2}
        assert not out.fixed_point

    def test_random_instances_match_attractor_oracle(self):
        for seed in range(15):
            sys, stack, spec = random_problem(seed + 100, kind=REACH_AVOID, levels=1)
            engine = SynthesisEngine(sys, stack, spec)
            safe = engine.spec_sets.safe_at(1)
            target = engine.spec_sets.target_at(1)
            engine.explore(1, safe)
            tdict = table_as_dict(engine.table(1))
            safe_set = set(int(c) for c in safe.indices())
            target_set = set(int(c) for c in target.indices())
            for m in (1, 2, None):
                out = engine.reach_m(1, target, m)
                expect, expect_ranks = attractor_oracle(tdict, target_set, safe_set, m)
                assert set(out.won.indices().tolist()) == expect
                assert stage_ranks(out.cells, out.ranks) == expect_ranks


class TestSafeIteration:
    def test_single_layer_degenerates_to_fixpoint(self):
        for seed in range(5):
            sys, stack, spec = random_problem(seed + 40, kind=SAFETY, levels=1)
            engine = SynthesisEngine(sys, stack, spec)
            engine.populate_eager()
            psi, stages = engine.safe_iteration()
            safe = set(int(c) for c in engine.spec_sets.safe_at(1).indices())
            expect = safe_gfp_oracle(table_as_dict(engine.table(1)), safe)
            assert set(psi.indices().tolist()) == expect
            assert [(st.layer, st.cells.tolist()) for st in stages] == (
                [(1, psi.indices().tolist())] if expect else []
            )

    def test_all_safe_self_loops_terminate_first_round(self):
        sys = stationary_system(dim=2)
        stack = LayerStack(2, [1.0, 1.0], 0.5, [0, 0], [4.0, 4.0])
        engine = SynthesisEngine(sys, stack, ProblemSpec(kind=SAFETY))
        psi, stages = engine.safe_iteration()
        assert psi == engine.spec_sets.safe_at(1)
        assert {e["round"] for e in engine.stats.trace} == {1}

    def test_rounds_are_bounded_by_the_cells_they_remove(self):
        # each round's layer-1 set is a subset of the last one's (the
        # protocol asserts it), so every round but the last removes at
        # least one cell; the last round's stages cover the result
        for seed in range(8):
            sys, stack, spec = random_problem(seed + 60, kind=SAFETY, levels=2)
            engine = SynthesisEngine(sys, stack, spec)
            psi, stages = engine.safe_iteration()
            trace = engine.stats.trace
            rounds = trace[-1]["round"]
            assert [(e["round"], e["layer"]) for e in trace] == [
                (r, l) for r in range(1, rounds + 1) for l in (2, 1)
            ]
            assert rounds - 1 <= engine.spec_sets.safe_at(1).count() - psi.count()
            assert [st.cells.size for st in stages] == [
                e["size"] for e in trace[-2:] if e["size"]
            ]
            covered = CellSet.empty(stack, 1)
            for st in stages:
                covered.union_update(gamma_down(stack, cells(stack, st.layer, st.cells), 1))
            assert covered == psi


class TestExpandAbstraction:
    def _engine(self, seed=7):
        sys, stack, spec = random_problem(seed, kind=REACH_AVOID, levels=2)
        return SynthesisEngine(sys, stack, spec)

    def test_empty_winning_region_explores_nothing(self):
        engine = self._engine()
        before = engine.table(1).explored_count
        w2 = engine.expand_abstraction(1, CellSet.empty(engine.stack, 1))
        assert w2.is_empty()
        assert engine.table(1).explored_count == before

    def test_full_winning_region_confines_exploration_to_rim(self):
        engine = self._engine(seed=9)
        safe1 = engine.spec_sets.safe_at(1)
        w2 = engine.expand_abstraction(1, safe1)
        rim = w2.intersect(safe1)
        assert engine.table(1).explored_count == rim.count() * engine.sys.n_inputs
        # the refined frontier avoids coarse cells already fully won
        interior = gamma_down(engine.stack, safe1, engine.stack.levels)
        assert gamma_down(engine.stack, w2, engine.stack.levels).intersect(interior).is_empty()

    def test_exploration_monotone_in_m(self):
        sizes = []
        for m in (1, 2, 3):
            engine = self._engine(seed=11)
            engine.m = m
            upsilon = engine.spec_sets.target_at(1)
            w2 = engine.expand_abstraction(1, upsilon)
            sizes.append(w2.count())
        assert sizes == sorted(sizes)

    def test_upre_evals_count_the_applications_made(self):
        # upre_m stops once an application adds nothing; a large m must
        # not be counted in full
        engine = self._engine(seed=11)
        engine.m = 50
        upsilon = engine.spec_sets.target_at(1)
        engine.expand_abstraction(1, upsilon)
        aux, target = engine.aux[1], gamma_up(engine.stack, upsilon, engine.stack.levels)
        stable = next(
            i for i in range(2, 51) if upre_m(aux, target, i)[0] == upre_m(aux, target, i - 1)[0]
        )
        assert stable < 50
        assert upre_m(aux, target, 50)[1] == stable
        assert engine.stats.upre_evals == {1: stable}


class TestProtocolEquivalence:
    def test_safety_three_way_equality(self):
        for seed in range(10):
            sys, stack, spec = random_problem(seed + 200, kind=SAFETY, levels=2)
            ref = synthesize(sys, stack, spec, "single-layer")
            for algo in ("eager-safe", "lazy-safe"):
                got = synthesize(sys, stack, spec, algo)
                assert got.winning == ref.winning, f"{algo} differs on seed {seed}"

    def test_reach_three_way_equality(self):
        for seed in range(10):
            sys, stack, spec = random_problem(seed + 300, kind=REACH_AVOID, levels=2)
            ref = synthesize(sys, stack, spec, "single-layer")
            for algo in ("eager-reach", "lazy-reach"):
                got = synthesize(sys, stack, spec, algo, m=2)
                assert got.winning == ref.winning, f"{algo} differs on seed {seed}"

    def test_lazy_explores_no_more_than_eager(self):
        for seed in (17, 23):
            sys, stack, spec = random_problem(seed, kind=REACH_AVOID, levels=2)
            lz = synthesize(sys, stack, spec, "lazy-reach")
            eg = synthesize(sys, stack, spec, "eager-reach")
            for l in range(stack.levels):
                assert lz.stats.transitions_per_layer[l] <= eg.stats.transitions_per_layer[l]
        for seed in (31, 37):
            sys, stack, spec = random_problem(seed, kind=SAFETY, levels=2)
            lz = synthesize(sys, stack, spec, "lazy-safe")
            eg = synthesize(sys, stack, spec, "eager-safe")
            for l in range(stack.levels):
                assert lz.stats.transitions_per_layer[l] <= eg.stats.transitions_per_layer[l]


class TestContainmentLemma:
    def test_aux_upre_dominates_main_upre(self):
        rng = np.random.default_rng(5)
        for seed in (71, 72, 73):
            sys, stack, spec = random_problem(seed, kind=REACH_AVOID, levels=2)
            engine = SynthesisEngine(sys, stack, spec)
            L = stack.levels
            for l in range(1, L):
                engine.explore(l, CellSet.full(stack, l))
                aux = engine.ensure_aux(l)
                for _ in range(20):
                    bits = rng.random(stack.cell_count(l)) < rng.uniform(0.0, 0.6)
                    ups_l = CellSet(l, bits)
                    extra = CellSet(L, rng.random(stack.cell_count(L)) < 0.2)
                    ups_L = gamma_up(stack, ups_l, L).union(extra)
                    for m in (1, 2, 3):
                        coarse = gamma_down(stack, upre_m(aux, ups_L, m)[0], l)
                        fine, _ = upre_m(engine.table(l), ups_l, m)
                        assert fine.is_subset(coarse), (
                            f"containment failed: seed {seed}, layer {l}, m={m}"
                        )


@functools.lru_cache(maxsize=None)
def swept(kind, levels, seed):
    """Problem and eager, lazy and single-layer results of one sweep instance."""
    sys, stack, spec = random_problem(seed, kind=kind, levels=levels)
    suffix = "-reach" if kind == REACH_AVOID else "-safe"
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "target under-approximation is empty")
        results = [synthesize(sys, stack, spec, algorithm)
                   for algorithm in ("eager" + suffix, "lazy" + suffix, "single-layer")]
    return sys, spec, results


def dead_rows(mlc):
    """How many stage cells of ``mlc`` act on no layer-1 cell."""
    rows = sum(st.cells.size for st in mlc.stages)
    return rows - np.unique(mlc._acting[mlc._acting >= 0]).size


class TestLazyFrontierSweep:
    @pytest.mark.parametrize("kind", [REACH_AVOID, SAFETY], ids=["reach", "safe"])
    def test_lazy_wins_what_eager_wins(self, kind):
        # the lazy frontier may skip only transitions that cannot make
        # progress, so it wins exactly the eager set and writes the same
        # controller; single-layer wins a subset of it (relative
        # completeness); no controller keeps a stage cell that never acts
        for levels, seed in SWEEP:
            eager, lazy, single = swept(kind, levels, seed)[2]
            where = f"seed {seed}, L={levels}"
            assert lazy.winning == eager.winning, (
                f"lazy {lazy.winning.count()} != eager {eager.winning.count()}: {where}"
            )
            assert single.winning.is_subset(eager.winning), where
            assert serialize(lazy.controller) == serialize(eager.controller), where
            for result in (eager, lazy, single):
                assert dead_rows(result.controller) == 0, where

    def test_dcdc_safe_eager_and_lazy_write_the_same_controller(self):
        config = parse_config(DCDC_SAFE)
        problem = (config.build_system(), config.build_stack(), config.build_spec())
        eager, lazy = (synthesize(*problem, a) for a in ("eager-safe", "lazy-safe"))
        assert serialize(eager.controller) == serialize(lazy.controller)
        assert dead_rows(eager.controller) == 0

    @pytest.mark.parametrize("kind", [REACH_AVOID, SAFETY], ids=["reach", "safe"])
    def test_every_controller_validates_without_violation(self, kind):
        validated = 0
        for levels, seed in SWEEP:
            sys, spec, results = swept(kind, levels, seed)
            for result in results:
                mlc = result.controller
                if mlc.domain_projection().is_empty():
                    continue
                report = validate(mlc, sys, spec, runs=50, horizon=50, seed=seed)
                where = f"seed {seed}, L={levels}: {report.to_dict()}"
                assert report.violations == 0 and report.executed == report.runs, where
                assert report.rank_monotone is (True if kind == REACH_AVOID else None), where
                validated += 1
        assert validated > 0


    @pytest.mark.parametrize("kind", [REACH_AVOID, SAFETY], ids=["reach", "safe"])
    def test_exploration_bookkeeping_after_every_compute_region(self, kind, monkeypatch):
        compute_region = TransitionTable.compute_region
        checked = {"main": 0, "aux": 0}

        def checked_compute_region(table, region):
            compute_region(table, region)
            checked[table.kind] += 1
            explored = table.explored_cells()
            assert table.explored_count == table.sys.n_inputs * explored.count()
            for u in range(table.sys.n_inputs):
                assert explored.bits[table.csr(u)[0]].all()

        monkeypatch.setattr(TransitionTable, "compute_region", checked_compute_region)
        suffix = "-reach" if kind == REACH_AVOID else "-safe"
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "target under-approximation is empty")
            for levels, seed in SWEEP:
                sys, stack, spec = random_problem(seed, kind=kind, levels=levels)
                for algorithm in ("eager" + suffix, "lazy" + suffix):
                    synthesize(sys, stack, spec, algorithm)
        assert checked["main"] > 0
        assert (checked["aux"] > 0) == (kind == REACH_AVOID)


class TestStructuralInvariants:
    def test_safety_controller_closure(self):
        sys, stack, spec = random_problem(404, kind=SAFETY, levels=2)
        engine = SynthesisEngine(sys, stack, spec)
        engine.populate_eager()
        psi, stages = engine.safe_iteration()
        for st in stages:
            region = gamma_down(stack, psi, st.layer)
            for cell, moves in stage_moves(st.cells, st.moves).items():
                for u in moves:
                    assert successors(engine.table(st.layer), cell, u).is_subset(region)

    def test_reach_rank_progress_structure(self):
        sys, stack, spec = random_problem(505, kind=REACH_AVOID, levels=2)
        engine = SynthesisEngine(sys, stack, spec)
        engine.populate_eager()
        upsilon, stages = engine.reach_iteration(lazy=False)
        prior = engine.spec_sets.target_at(1).copy()
        for st in stages:
            entry = gamma_down(stack, prior, st.layer).intersect(
                engine.spec_sets.safe_at(st.layer)
            )
            ranks = stage_ranks(st.cells, st.ranks)
            for cell, moves in stage_moves(st.cells, st.moves).items():
                rank = ranks[cell]
                allowed = entry.bits.copy()
                for other, r in ranks.items():
                    if r < rank:
                        allowed[other] = True
                for u in moves:
                    succ = successors(engine.table(st.layer), cell, u)
                    assert bool(allowed[succ.bits].all())
            prior.union_update(gamma_down(stack, cells(stack, st.layer, st.cells), 1))


def translated(doc, shift):
    """A unicycle config document with its region, obstacles and target
    moved by ``shift`` in x and y; the heading axis stays."""
    step = np.array([*shift, 0.0])

    def move(corner):
        return (np.asarray(corner, dtype=float) + step).tolist()

    def boxes(key):
        return [{"lower": move(b["lower"]), "upper": move(b["upper"])} for b in doc[key]]

    return {**doc, "y_lower": move(doc["y_lower"]), "y_upper": move(doc["y_upper"]),
            "obstacle_boxes": boxes("obstacle_boxes"), "target_boxes": boxes("target_boxes")}


def test_translating_a_unicycle_layout_keeps_its_stages():
    # The unicycle field reads only the heading, so moving the whole
    # layout in x and y, by whole cells or not, leaves lazy-reach's stages
    # and winning bits bit for bit as they were.
    def solved(doc):
        config = parse_config(doc)
        result = synthesize(config.build_system(), config.build_stack(), config.build_spec(),
                            "lazy-reach")
        stages = [(st.layer, st.cells.tobytes(), st.moves.tobytes(), st.ranks.tobytes())
                  for st in result.controller.stages]
        return stages, np.packbits(result.winning.bits).tobytes()

    want = solved(UNICYCLE_LAZY)
    assert len(want[0]) > 1
    for shift in ((1.6, 0.0), (0.0, 3.2), (0.2, 0.6), (100.0, -40.0), (0.3, 0.1)):
        assert solved(translated(UNICYCLE_LAZY, shift)) == want, shift


class TestDegenerateInputs:
    def test_empty_target_returns_empty_with_warning(self):
        sys, stack, _ = random_problem(606, kind=REACH_AVOID, levels=2)
        spec = ProblemSpec(
            kind=REACH_AVOID,
            target_boxes=[(stack.y_lower + 0.01, stack.y_lower + 0.02)],
        )
        with pytest.warns(UserWarning, match="empty"):
            out = synthesize(sys, stack, spec, "lazy-reach")
        assert out.winning.is_empty()
        assert out.controller.stages == []
        assert sum(out.stats.transitions_per_layer) == 0

    def test_algorithm_must_name_a_protocol_for_the_spec_kind(self):
        sys, stack, spec = random_problem(606, kind=REACH_AVOID, levels=2)
        for algorithm in ("eager-safe", "lazy-safe", "bogus"):
            with pytest.raises(ValueError, match="algorithm"):
                synthesize(sys, stack, spec, algorithm)

    @pytest.mark.parametrize(
        "m, substeps", [(0, 5), (1.5, 5), (True, 5), (2, 0)],
        ids=["m-0", "m-1.5", "m-bool", "substeps-0"],
    )
    def test_m_and_substeps_must_be_positive_integers(self, m, substeps):
        # m=0 once spun eager-reach through every layer switch it allows
        runs = {REACH_AVOID: ("eager-reach", "lazy-reach", "single-layer"),
                SAFETY: ("eager-safe", "lazy-safe", "single-layer")}
        assert {a for algorithms in runs.values() for a in algorithms} == set(ALGORITHMS)
        for kind, algorithms in runs.items():
            sys, stack, spec = random_problem(2, kind=kind, levels=2)
            for algorithm in algorithms:
                with pytest.raises(ValueError, match="must be an integer >= 1"):
                    synthesize(sys, stack, spec, algorithm, m, substeps)

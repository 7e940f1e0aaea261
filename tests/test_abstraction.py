import tracemalloc

import numpy as np
import pytest

from conftest import UNICYCLE_LAZY, drift_system, stationary_system
from layersynth import (
    CellSet,
    LayerMismatchError,
    LayerStack,
    TransitionTable,
    build_spec_sets,
    cpre,
    parse_config,
    upre,
)
from layersynth.benchmarks import dcdc
from oracles import BLOCKED, successors, table_as_dict


def line_stack(levels=1):
    return LayerStack(levels, [1.0], 1.0, [0.0], [4.0])


def explore(table, cell, u_idx=0):
    """Explore one cell through ``compute_region``; its stored entry for ``u_idx``."""
    table.compute_region(CellSet.from_indices(table.stack, table.grid_layer, [cell]))
    return successors(table, cell, u_idx)


class TestComputeTransition:
    def test_stationary_cell_covers_touching_neighborhood(self):
        # the reach box of a stationary cell is its closed box, which
        # touches every neighbor; closed-box enumeration keeps them all
        stack = LayerStack(1, [1.0, 1.0], 0.5, [0, 0], [4.0, 4.0])
        table = TransitionTable(stationary_system(), stack, 1)
        interior = int(stack.linearize(1, (1, 1)))
        got = {tuple(i) for i in stack.unlinearize(1, explore(table, interior).indices())}
        assert got == {(x, y) for x in (1, 2) for y in (1, 2)}
        corner = int(stack.linearize(1, (0, 0)))
        got = {tuple(i) for i in stack.unlinearize(1, explore(table, corner).indices())}
        assert got == {(0, 0), (1, 0), (0, 1), (1, 1)}

    def test_stationary_boundary_cell_is_not_blocked(self):
        stack = LayerStack(1, [1.0, 1.0], 0.5, [0, 0], [4.0, 4.0])
        table = TransitionTable(stationary_system(), stack, 1)
        top = int(stack.linearize(1, (3, 3)))
        assert explore(table, top) is not BLOCKED

    def test_unit_drift_translates_with_boundary_touch(self):
        table = TransitionTable(drift_system(), line_stack(), 1)
        succ = explore(table, 1)
        # reach box is [2, 3]; the endpoint touches the lower edge of [3, 4)
        assert succ.indices().tolist() == [2, 3]

    def test_outward_drift_is_blocked(self):
        table = TransitionTable(drift_system(), line_stack(), 1)
        assert explore(table, 3) is BLOCKED

    def test_chain_fixture_matches_computed_table(self):
        stack = LayerStack(1, [1.0], 1.0, [0.0], [5.0])
        from conftest import chain_table

        computed = TransitionTable(drift_system(), stack, 1)
        computed.compute_region(CellSet.full(stack, 1))
        assert table_as_dict(computed) == table_as_dict(chain_table(stack))

    def test_idempotent_and_monotone_counter(self):
        table = TransitionTable(drift_system(), line_stack(), 1)
        explore(table, 1)
        count = table.explored_count
        before = successors(table, 1, 0).indices().tolist()
        explore(table, 1)
        assert table.explored_count == count
        assert successors(table, 1, 0).indices().tolist() == before


class TestComputeRegion:
    def test_empty_region_is_noop(self):
        stack = line_stack()
        table = TransitionTable(drift_system(), stack, 1)
        table.compute_region(CellSet.empty(stack, 1))
        assert table.explored_count == 0

    def test_full_region_explores_every_pair(self):
        stack = line_stack()
        table = TransitionTable(drift_system(), stack, 1)
        table.compute_region(CellSet.full(stack, 1))
        assert table.explored_count == 4 * 1
        assert table.explored_cells() == CellSet.full(stack, 1)

    def test_second_call_adds_nothing(self):
        stack = line_stack()
        table = TransitionTable(drift_system(), stack, 1)
        region = CellSet.full(stack, 1)
        table.compute_region(region)
        count = table.explored_count
        table.compute_region(region)
        assert table.explored_count == count

    def test_layer_mismatch(self):
        stack = LayerStack(2, [1.0], 1.0, [0.0], [4.0])
        table = TransitionTable(drift_system(), stack, 1)
        with pytest.raises(LayerMismatchError):
            table.compute_region(CellSet.empty(stack, 2))


class TestPreload:
    def test_takes_one_entry_per_input(self):
        stack = line_stack()
        table = TransitionTable(stationary_system(dim=1, n_inputs=2), stack, 1)
        for succs in ([[0]], [[0], None, [1]], []):
            with pytest.raises(ValueError, match="entries for 2 inputs"):
                table.preload(0, succs)
        assert table.explored_count == 0 and table.explored_cells().is_empty()
        table.preload(0, [[0, 1], None])
        assert table.explored_count == 2
        assert successors(table, 0, 0).indices().tolist() == [0, 1]
        assert successors(table, 0, 1) is BLOCKED
        assert successors(table, 1, 0) is None

    def test_empty_successor_set_is_rejected_before_storing(self):
        table = TransitionTable(stationary_system(dim=1, n_inputs=2), line_stack(), 1)
        with pytest.raises(ValueError, match="at least one successor"):
            table.preload(0, [[1], []])
        assert table.explored_count == 0 and table.csr(0)[0].size == 0


class TestSuccessorsAccessor:
    def test_three_states(self):
        table = TransitionTable(drift_system(), line_stack(), 1)
        assert successors(table, 0, 0) is None
        explore(table, 0)
        assert successors(table, 0, 0).indices().tolist() == [1, 2]
        explore(table, 3)
        assert successors(table, 3, 0) is BLOCKED


class TestAuxiliaryTables:
    def test_aux_at_coarsest_layer_equals_main(self):
        sys = dcdc()
        stack = LayerStack(2, [0.02, 0.02], 0.0625, [1.15, 5.45], [1.55, 5.85])
        main = TransitionTable(sys, stack, 2, "main")
        aux = TransitionTable(sys, stack, 2, "aux")
        full = CellSet.full(stack, 2)
        main.compute_region(full)
        aux.compute_region(full)
        on_main, on_aux = table_as_dict(main), table_as_dict(aux)
        assert on_main.keys() == on_aux.keys()
        # the pairs that leave the region keep their clipped boxes on the
        # auxiliary table only; every other entry is the same
        leaving = {pair for pair, succ in on_main.items() if succ is BLOCKED}
        assert leaving and any(on_aux[pair] is not BLOCKED for pair in leaving)
        assert all(on_aux[pair] == succ for pair, succ in on_main.items() if pair not in leaving)

    def test_aux_lives_on_coarse_grid_with_fine_period(self):
        stack = LayerStack(2, [1.0], 1.0, [0.0], [4.0])
        aux = TransitionTable(drift_system(), stack, 1, "aux")
        assert aux.grid_layer == 2
        assert aux.tau == 1.0
        assert aux.n_cells == 2

    def test_blocked_aux_pair_keeps_clipped_successors_for_upre(self):
        # the coarse cell [2, 4) drifts to [3, 5]: blocked, yet the finer
        # cell [2, 3) inside it reaches [3, 4] without leaving the region
        stack = LayerStack(2, [1.0], 1.0, [0.0], [4.0])
        aux = TransitionTable(drift_system(), stack, 1, "aux")
        aux.compute_region(CellSet.full(stack, 2))
        assert successors(aux, 1, 0).indices().tolist() == [1]
        right = CellSet.from_indices(stack, 2, [1])
        assert upre(aux, right).indices().tolist() == [0, 1]
        # a clipped box would close the pair, so an auxiliary table has no
        # controllable predecessor
        with pytest.raises(ValueError, match="main tables"):
            cpre(aux, CellSet.full(stack, 2))


class TestStorage:
    def test_main_table_stores_at_most_24_bytes_per_pair(self):
        # The unicycle-lazy workload: a 0.45 s period on a 32x32x32 grid;
        # its layer-1 safe set has about 300k pairs.
        config = parse_config(UNICYCLE_LAZY)
        sys, stack = config.build_system(), config.build_stack()
        safe = build_spec_sets(stack, config.build_spec()).safe_at(1)
        table = TransitionTable(sys, stack, 1)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            table.compute_region(safe)
            for u in range(sys.n_inputs):
                table.csr(u)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert table.explored_count == sys.n_inputs * safe.count() > 100_000
        assert grown <= 24 * table.explored_count, grown / table.explored_count

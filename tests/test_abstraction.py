import numpy as np
import pytest

from conftest import drift_system, stationary_system
from layersynth import (
    BLOCKED,
    CellSet,
    LayerMismatchError,
    LayerStack,
    TransitionTable,
)
from layersynth.benchmarks import dcdc
from oracles import table_as_dict


def line_stack(levels=1):
    return LayerStack(levels, [1.0], 1.0, [0.0], [4.0])


class TestComputeTransition:
    def test_stationary_cell_covers_touching_neighborhood(self):
        # the reach box of a stationary cell is its closed box, which
        # touches every neighbor; closed-box enumeration keeps them all
        stack = LayerStack(1, [1.0, 1.0], 0.5, [0, 0], [4.0, 4.0])
        table = TransitionTable(stationary_system(), stack, 1)
        interior = int(stack.linearize(1, (1, 1)))
        got = {tuple(i) for i in stack.unlinearize(1, table.compute(interior, 0).indices())}
        assert got == {(x, y) for x in (1, 2) for y in (1, 2)}
        corner = int(stack.linearize(1, (0, 0)))
        got = {tuple(i) for i in stack.unlinearize(1, table.compute(corner, 0).indices())}
        assert got == {(0, 0), (1, 0), (0, 1), (1, 1)}

    def test_stationary_boundary_cell_is_not_blocked(self):
        stack = LayerStack(1, [1.0, 1.0], 0.5, [0, 0], [4.0, 4.0])
        table = TransitionTable(stationary_system(), stack, 1)
        top = int(stack.linearize(1, (3, 3)))
        assert table.compute(top, 0) is not None

    def test_unit_drift_translates_with_boundary_touch(self):
        table = TransitionTable(drift_system(), line_stack(), 1)
        succ = table.compute(1, 0)
        # reach box is [2, 3]; the endpoint touches the lower edge of [3, 4)
        assert succ.indices().tolist() == [2, 3]

    def test_outward_drift_is_blocked(self):
        table = TransitionTable(drift_system(), line_stack(), 1)
        assert table.compute(3, 0) is BLOCKED

    def test_chain_fixture_matches_computed_table(self):
        stack = LayerStack(1, [1.0], 1.0, [0.0], [5.0])
        from conftest import chain_table

        computed = TransitionTable(drift_system(), stack, 1)
        computed.compute_region(CellSet.full(stack, 1))
        assert table_as_dict(computed) == table_as_dict(chain_table(stack))

    def test_idempotent_and_monotone_counter(self):
        table = TransitionTable(drift_system(), line_stack(), 1)
        table.compute(1, 0)
        count = table.explored_count
        before = table.successors(1, 0).indices().tolist()
        table.compute(1, 0)
        assert table.explored_count == count
        assert table.successors(1, 0).indices().tolist() == before


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


class TestSuccessorsAccessor:
    def test_three_states(self):
        table = TransitionTable(drift_system(), line_stack(), 1)
        assert table.successors(0, 0) is None
        table.compute(0, 0)
        assert table.successors(0, 0).indices().tolist() == [1, 2]
        table.compute(3, 0)
        assert table.successors(3, 0) is BLOCKED


class TestAuxiliaryTables:
    def test_aux_at_coarsest_layer_equals_main(self):
        sys = dcdc()
        stack = LayerStack(2, [0.02, 0.02], 0.0625, [1.15, 5.45], [1.55, 5.85])
        main = TransitionTable(sys, stack, 2, "main")
        aux = TransitionTable(sys, stack, 2, "aux")
        full = CellSet.full(stack, 2)
        main.compute_region(full)
        aux.compute_region(full)
        assert table_as_dict(main) == table_as_dict(aux)

    def test_aux_lives_on_coarse_grid_with_fine_period(self):
        stack = LayerStack(2, [1.0], 1.0, [0.0], [4.0])
        aux = TransitionTable(drift_system(), stack, 1, "aux")
        assert aux.grid_layer == 2
        assert aux.tau == 1.0
        assert aux.n_cells == 2

import warnings

import numpy as np
import pytest

from layersynth import (
    CellSet,
    LayerMismatchError,
    LayerStack,
    cells_inside_box,
    cells_intersecting_box,
    export_cellset_csv,
)


def make_stack():
    return LayerStack(2, [1.0, 1.0], 0.5, [0.0, 0.0], [4.0, 4.0])


class TestLayerStack:
    def test_dims_halve_per_layer(self):
        stack = LayerStack(3, [0.5, 0.25], 0.1, [0.0, 0.0], [4.0, 4.0])
        assert stack.dims(1).tolist() == [8, 16]
        assert stack.dims(2).tolist() == [4, 8]
        assert stack.dims(3).tolist() == [2, 4]
        assert np.allclose(stack.eta(3), [2.0, 1.0])
        assert stack.tau(3) == pytest.approx(0.4)

    def test_rejects_non_divisible_extent(self):
        with pytest.raises(ValueError, match="integer multiple"):
            LayerStack(1, [0.3, 0.3], 0.1, [0.0, 0.0], [1.0, 1.0])

    def test_rejects_extent_not_divisible_across_layers(self):
        # 6 layer-1 cells per axis cannot be halved twice
        with pytest.raises(ValueError, match="divisible"):
            LayerStack(3, [1.0, 1.0], 0.1, [0.0, 0.0], [6.0, 6.0])

    @pytest.mark.parametrize(
        "eta1, tau1, y_upper, message",
        [
            ([0.5, 0.5], float("nan"), [4.0, 4.0], "finite"),
            ([0.5, 0.5], float("inf"), [4.0, 4.0], "finite"),
            ([float("nan"), 0.5], 0.1, [4.0, 4.0], "finite"),
            ([0.5, 0.5], 0.1, [4.0, float("inf")], "finite"),
            ([1e-300, 0.5], 0.1, [4.0, 4.0], "layer-1 cells"),
            ([1e-5, 1e-5], 0.1, [4.0, 4.0], "layer-1 cells"),
        ],
        ids=["nan-tau1", "inf-tau1", "nan-eta1", "inf-upper", "tiny-eta1", "too-many-cells"],
    )
    def test_rejects_non_finite_values_and_huge_grids(self, eta1, tau1, y_upper, message):
        # a ValueError, not a RuntimeWarning from casting the cell counts
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                LayerStack(1, eta1, tau1, [0.0, 0.0], y_upper)

    def test_linearize_is_fortran_order(self):
        stack = LayerStack(1, [1.0, 1.0, 1.0], 0.1, [0, 0, 0], [2.0, 3.0, 4.0])
        rng = np.random.default_rng(7)
        for _ in range(50):
            idx = tuple(int(rng.integers(0, k)) for k in (2, 3, 4))
            expect = np.ravel_multi_index(idx, (2, 3, 4), order="F")
            assert stack.linearize(1, idx) == expect
            assert tuple(stack.unlinearize(1, expect)) == idx


# Interior, upper boundary, below the region, NaN, +-inf and huge points.
MIXED = [[0.5, 0.5], [4.0, 0.0], [-0.1, 1.0], [np.nan, 1.0], [1.0, np.inf],
         [-np.inf, 1.0], [1e300, 1.0]]


def quantize_alone_and_in_batch(x, layer: int) -> int:
    """Cell of ``x`` on ``layer``, after checking that ``x`` as the last
    row of a batch with the ``MIXED`` points gets the same cell, and
    that neither call warns (as on casting a non-finite value to int)."""
    stack = make_stack()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        alone = stack.quantize(x, layer)
        batch = stack.quantize(np.vstack([MIXED, x]), layer)
    assert batch.shape == (len(MIXED) + 1,)
    assert batch[-1] == alone
    return int(alone)


class TestQuantize:
    def test_interior_point(self):
        assert quantize_alone_and_in_batch([0.5, 0.5], 1) == 0

    def test_coarse_layer_point(self):
        cell = make_stack().linearize(2, (1, 1))
        assert quantize_alone_and_in_batch([2.0, 3.999], 2) == cell

    def test_upper_boundary_is_out_of_domain(self):
        assert quantize_alone_and_in_batch([4.0, 0.0], 1) == -1

    def test_below_domain(self):
        assert quantize_alone_and_in_batch([-0.1, 1.0], 1) == -1

    @pytest.mark.parametrize(
        "x", [[np.nan, 1.0], [1.0, np.inf], [-np.inf, 1.0], [1e300, 1.0]],
        ids=["nan", "inf", "minus-inf", "huge"],
    )
    def test_non_finite_or_huge_point_is_out_of_domain(self, x):
        assert quantize_alone_and_in_batch(x, 1) == -1
        assert quantize_alone_and_in_batch(x, 2) == -1


class TestCellBox:
    # a cell's box is its center plus or minus half the layer's eta
    def test_fine_cell(self):
        stack = make_stack()
        center = stack.centers(1, stack.linearize(1, (0, 0)))
        assert np.allclose(center - 0.5 * stack.eta(1), [0, 0])
        assert np.allclose(center + 0.5 * stack.eta(1), [1, 1])

    def test_coarse_cell(self):
        stack = make_stack()
        center = stack.centers(2, stack.linearize(2, (1, 0)))
        assert np.allclose(center - 0.5 * stack.eta(2), [2, 0])
        assert np.allclose(center + 0.5 * stack.eta(2), [4, 2])

    def test_quantize_round_trip_on_random_cells(self):
        stack = LayerStack(2, [0.5, 0.25, 1.0], 0.1, [-1, 0, 2], [3.0, 2.0, 10.0])
        rng = np.random.default_rng(3)
        for _ in range(1000):
            layer = int(rng.integers(1, 3))
            dims = stack.dims(layer)
            idx = tuple(int(rng.integers(0, k)) for k in dims)
            cell = stack.linearize(layer, idx)
            assert stack.quantize(stack.centers(layer, cell), layer) == cell


class TestCellSetAlgebra:
    def test_union_with_empty(self):
        stack = make_stack()
        rng = np.random.default_rng(0)
        a = CellSet(1, rng.random(16) < 0.5)
        assert a.union(CellSet.empty(stack, 1)) == a

    def test_intersection_idempotent(self):
        a = CellSet(1, np.random.default_rng(1).random(16) < 0.5)
        assert a.intersect(a) == a

    def test_difference_partitions_count(self):
        rng = np.random.default_rng(2)
        a = CellSet(1, rng.random(16) < 0.5)
        b = CellSet(1, rng.random(16) < 0.5)
        assert a.difference(b).count() + a.intersect(b).count() == a.count()

    def test_complement(self):
        stack = make_stack()
        a = CellSet.from_indices(stack, 1, [0, 3, 7])
        assert a.complement().count() == 13
        assert a.union(a.complement()) == CellSet.full(stack, 1)

    def test_layer_mismatch_raises(self):
        stack = make_stack()
        with pytest.raises(LayerMismatchError):
            CellSet.empty(stack, 1).union(CellSet.empty(stack, 2))

    def test_subset_and_emptiness(self):
        stack = make_stack()
        a = CellSet.from_indices(stack, 1, [1, 2])
        b = CellSet.from_indices(stack, 1, [1, 2, 9])
        assert a.is_subset(b) and not b.is_subset(a)
        assert CellSet.empty(stack, 1).is_empty() and not a.is_empty()


class TestBoxToCells:
    def test_inside_requires_full_cells(self):
        stack = make_stack()
        got = cells_inside_box(stack, 1, [0.5, 0.0], [3.0, 1.0])
        # only the x-range [1,3) is fully covered
        idx = {tuple(i) for i in stack.unlinearize(1, got.indices())}
        assert idx == {(1, 0), (2, 0)}

    def test_intersecting_includes_boundary_touch(self):
        stack = make_stack()
        got = cells_intersecting_box(stack, 1, [1.0, 0.5], [2.0, 0.5])
        idx = {tuple(i) for i in stack.unlinearize(1, got.indices())}
        # the closed box touches x=2.0, the lower edge of cell (2, 0)
        assert idx == {(1, 0), (2, 0)}

    def test_intersecting_clips_to_region(self):
        stack = make_stack()
        got = cells_intersecting_box(stack, 1, [3.5, 3.5], [9.0, 9.0])
        idx = {tuple(i) for i in stack.unlinearize(1, got.indices())}
        assert idx == {(3, 3)}

    def test_inside_tolerates_float_noise(self):
        stack = LayerStack(1, [0.1], 0.1, [0.0], [1.0])
        noisy_lo = 0.30000000000000004  # 3 * 0.1 in floating point
        got = cells_inside_box(stack, 1, [noisy_lo], [0.5])
        assert sorted(got.indices().tolist()) == [3, 4]


def test_csv_export(tmp_path):
    stack = make_stack()
    cells = CellSet.from_indices(stack, 2, [0, 3])
    path = tmp_path / "cells.csv"
    export_cellset_csv(stack, cells, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "layer,idx0,idx1,center0,center1"
    assert lines[1] == "2,0,0,1.0,1.0"
    assert lines[2] == "2,1,1,3.0,3.0"


def test_csv_export_matches_row_by_row_formatting(tmp_path):
    # more rows than one formatting chunk, with centers whose repr is
    # long, on a 3-D grid and on layer 2 of a 2-D one
    grids = [
        (LayerStack(1, [0.005, 0.005, 0.1], 0.5, [1.15, 5.45, -3.2], [1.55, 5.85, 3.2]), 1, 0.1),
        (LayerStack(3, [0.0005, 0.0005], 0.5, [1.15, 5.45], [1.55, 5.85]), 2, 0.3),
    ]
    for seed, (stack, layer, density) in enumerate(grids):
        rng = np.random.default_rng(seed)
        cells = CellSet(layer, rng.random(stack.cell_count(layer)) < density)
        assert cells.count() > 40_000
        path = tmp_path / "cells.csv"
        export_cellset_csv(stack, cells, path)
        linear = cells.indices()
        rows = [",".join(["layer"] + [f"idx{a}" for a in range(stack.dim)]
                         + [f"center{a}" for a in range(stack.dim)])]
        for i, c in zip(stack.unlinearize(layer, linear), stack.centers(layer, linear)):
            text = [str(layer)] + [str(int(v)) for v in i] + [repr(float(v)) for v in c]
            rows.append(",".join(text))
        assert path.read_text(encoding="utf-8") == "\n".join(rows) + "\n"

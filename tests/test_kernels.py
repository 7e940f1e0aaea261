"""The summed-area box kernels against the gather-based reference.

``synthesis._closing_inputs`` and ``synthesis.upre`` count the cells of
each stored box from an n-D prefix sum; the references in
``oracles.py`` enumerate every successor of every box and gather its
bit.  They must agree on computed tables, on preloaded entries that are
not boxes, on clipped auxiliary boxes at every face of the grid, and on
grids whose corner indices need 32-bit integers, both at the kernels'
block size and in blocks of a few rows, so that one pair's boxes fall
in different blocks.  Neither the order in which a table stores its
boxes nor the batches it explored them in may change what they return,
and a cell explored alone stores the boxes it stores in a batch.
"""

from __future__ import annotations

import copy
import itertools
import warnings

import numpy as np
import pytest

from conftest import (
    DCDC_SAFE,
    SWEEP,
    UNICYCLE_LAZY,
    drift_system,
    linear_system,
    random_problem,
    stationary_system,
)
from oracles import closing_inputs_reference, upre_reference
from layersynth import (
    CellSet,
    LayerStack,
    TransitionTable,
    build_spec_sets,
    parse_config,
    synthesis,
    synthesize,
    upre,
)
from layersynth.dynamics import reach_boxes
from layersynth.problem import REACH_AVOID, SAFETY


# Rows per block in the small-block runs: odd, so blocks split tables
# of every size unevenly.
SMALL_BLOCK = 13


def small_blocks(kernel, table, region):
    """``kernel(table, region)`` reading the box store ``SMALL_BLOCK`` rows at a time."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(synthesis, "_BLOCK_ROWS", SMALL_BLOCK)
        return kernel(table, region)


def assert_kernels_match(table, region):
    if table.kind == "main":
        want = closing_inputs_reference(table, region)
        np.testing.assert_array_equal(synthesis._closing_inputs(table, region), want)
        np.testing.assert_array_equal(small_blocks(synthesis._closing_inputs, table, region), want)
    else:
        with pytest.raises(ValueError, match="main tables"):
            synthesis._closing_inputs(table, region)
    want = upre_reference(table, region)
    assert upre(table, region) == want
    assert small_blocks(upre, table, region) == want


def regions(rng, table, n=12):
    """Empty, full and random regions of every density on the table's grid."""
    yield CellSet(table.grid_layer, np.zeros(table.n_cells, dtype=bool))
    yield CellSet(table.grid_layer, np.ones(table.n_cells, dtype=bool))
    for density in np.linspace(0.05, 0.95, n):
        yield CellSet(table.grid_layer, rng.random(table.n_cells) < density)


def test_summed_area_counts_match_brute_force():
    rng = np.random.default_rng(0)
    for dims in ([7], [5, 3], [4, 6, 3]):
        stack = LayerStack(1, [1.0] * len(dims), 1.0, [0.0] * len(dims), [float(d) for d in dims])
        bits = rng.random(stack.cell_count(1)) < 0.5
        view = bits.reshape(dims, order="F")
        a = rng.integers(0, dims, size=(200, len(dims)))
        b = rng.integers(0, dims, size=(200, len(dims)))
        lo, hi = np.minimum(a, b).astype(np.int8), np.maximum(a, b).astype(np.int8)
        got = synthesis._SummedArea(stack, 1, bits).counts(lo, hi)
        want = [int(view[tuple(slice(x, y + 1) for x, y in zip(l, h))].sum())
                for l, h in zip(lo.tolist(), hi.tolist())]
        assert got.tolist() == want


@pytest.mark.parametrize("kind", [REACH_AVOID, SAFETY], ids=["reach", "safe"])
def test_sweep_kernels_match_reference_after_every_call(kind, monkeypatch):
    closing, cooperative = synthesis._closing_inputs, synthesis.upre
    calls = {"closing": 0, "upre": 0}

    def checked_closing(table, region):
        calls["closing"] += 1
        got = closing(table, region)
        want = closing_inputs_reference(table, region)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(small_blocks(closing, table, region), want)
        return got

    def checked_upre(table, target):
        calls["upre"] += 1
        got = cooperative(table, target)
        assert got == upre_reference(table, target)
        assert small_blocks(cooperative, table, target) == got
        return got

    monkeypatch.setattr(synthesis, "_closing_inputs", checked_closing)
    monkeypatch.setattr(synthesis, "upre", checked_upre)
    suffix = "-reach" if kind == REACH_AVOID else "-safe"
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "target under-approximation is empty")
        for levels, seed in SWEEP:
            sys, stack, spec = random_problem(seed, kind=kind, levels=levels)
            for algorithm in ("eager" + suffix, "lazy" + suffix):
                synthesize(sys, stack, spec, algorithm)
    assert calls["closing"] > 0
    assert (calls["upre"] > 0) == (kind == REACH_AVOID)


@pytest.mark.parametrize("dim", [1, 2])
def test_preloaded_entries_that_are_not_boxes(dim):
    rng = np.random.default_rng(dim)
    stack = LayerStack(1, [1.0] * dim, 1.0, [0.0] * dim, [6.0] * dim)
    table = TransitionTable(stationary_system(dim=dim, n_inputs=3), stack, 1)
    n = stack.cell_count(1)
    for cell in range(n):
        if rng.random() < 0.1:
            continue  # unexplored
        # scattered cells, almost never a box, or None (leaves the region)
        table.preload(cell, [
            None if rng.random() < 0.15
            else rng.choice(n, size=int(rng.integers(1, 6)), replace=False)
            for _ in range(3)
        ])
    for region in regions(rng, table):
        assert_kernels_match(table, region)


@pytest.mark.parametrize("outside", [0, 2], ids=["earlier-block", "later-block"])
def test_preloaded_entry_straddling_a_block_boundary(outside, monkeypatch):
    # One pair's three unit boxes fill rows 0-2 of the store, and blocks
    # of two rows split them; the box outside the region lies in the
    # first block or in the second.  The pair does not close either way.
    monkeypatch.setattr(synthesis, "_BLOCK_ROWS", 2)
    stack = LayerStack(1, [1.0], 1.0, [0.0], [6.0])
    table = TransitionTable(stationary_system(dim=1), stack, 1)
    succs = np.array([1, 2, 3])
    table.preload(0, [succs])
    table.preload(4, [[4]])
    region = CellSet.from_indices(stack, 1, np.append(np.delete(succs, outside), 4))
    mask = synthesis._closing_inputs(table, region)
    assert mask[0].tolist() == [False, False, False, False, True, False]
    assert_kernels_match(table, region)


def spreading_system(dim: int):
    """Drift along each axis in both directions, or stay; every box grows."""
    offsets = [np.zeros(dim)]
    for d in range(dim):
        for sign in (-1.0, 1.0):
            offsets.append(sign * 0.8 * np.eye(dim)[d])
    return linear_system(np.zeros((dim, dim)), offsets, np.full(dim, 0.6))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_clipped_aux_boxes_touching_every_face(dim):
    rng = np.random.default_rng(10 + dim)
    stack = LayerStack(2, [0.5] * dim, 0.5, [0.0] * dim, [4.0] * dim)
    sys = spreading_system(dim)
    main = TransitionTable(sys, stack, 1)
    main.compute_region(CellSet.full(stack, 1))
    aux = TransitionTable(sys, stack, 1, "aux")
    aux.compute_region(CellSet.full(stack, 2))
    dims = stack.dims(2)
    clipped_lo, clipped_hi = [], []
    for u_idx, u in enumerate(sys.inputs):
        # a stored box is clipped where its unclipped reach box leaves the region
        cells, lo, hi = aux.csr(u_idx)
        reach_lo, reach_hi = reach_boxes(
            sys, stack.centers(2, cells), aux._radius[u_idx], u, aux.tau, aux.substeps
        )
        q_lo, q_hi = stack.grid_coords(2, reach_lo), stack.grid_coords(2, reach_hi)
        leaves = np.any(q_lo < 0.0, axis=1) | np.any(q_hi > dims, axis=1)
        clipped_lo.append(lo[leaves])
        clipped_hi.append(hi[leaves])
    lo, hi = np.concatenate(clipped_lo), np.concatenate(clipped_hi)
    for d, face in itertools.product(range(dim), (0, 1)):
        touches = lo[:, d] == 0 if face == 0 else hi[:, d] == dims[d] - 1
        assert touches.any(), f"no clipped box on face {face} of axis {d}"
    for table in (main, aux):
        for region in regions(rng, table):
            assert_kernels_match(table, region)


def test_axis_past_int16_uses_wider_corners():
    n = 40_000
    stack = LayerStack(1, [1.0, 1.0], 1.0, [0.0, 0.0], [float(n), 2.0])
    table = TransitionTable(drift_system(velocity=0.5, dim=2), stack, 1)
    table.compute_region(CellSet.full(stack, 1))
    _, lo, hi = table.csr(0)
    assert lo.dtype == hi.dtype == np.int32
    assert int(hi[:, 0].max()) > np.iinfo(np.int16).max
    rng = np.random.default_rng(3)
    for region in regions(rng, table, n=4):
        assert_kernels_match(table, region)


def permuted(table, rng):
    """A copy of ``table`` that stores its boxes in a random order,
    the inputs' boxes mixed."""
    out = copy.copy(table)
    keys, lo, hi = table.store()
    order = rng.permutation(keys.size)
    out._batches = []
    out._store = (keys[order], lo[order], hi[order])
    return out


def assert_storage_has_no_meaning(sys, stack, spec, layer, rng, n_regions):
    """One call, two disjoint halves and permuted storage agree on random regions."""
    region = build_spec_sets(stack, spec).safe_at(layer)
    cells = rng.permutation(region.indices())
    assert cells.size >= 4
    whole = TransitionTable(sys, stack, layer)
    whole.compute_region(region)
    # halves of two or more cells: a one-row dcdc batch rounds differently
    halves = TransitionTable(sys, stack, layer)
    for part in np.array_split(cells, 2):
        halves.compute_region(CellSet.from_indices(stack, layer, part))
    assert halves.explored_count == whole.explored_count
    shuffled = permuted(whole, rng)
    for target in regions(rng, whole, n=n_regions):
        mask = synthesis._closing_inputs(whole, target)
        pre = upre(whole, target)
        for table in (halves, shuffled):
            np.testing.assert_array_equal(synthesis._closing_inputs(table, target), mask)
            assert upre(table, target) == pre


@pytest.mark.parametrize("doc", [DCDC_SAFE, UNICYCLE_LAZY], ids=["dcdc-safe", "unicycle-lazy"])
@pytest.mark.parametrize("layer", [1, 2])
def test_storage_order_and_batch_split_have_no_meaning_on_workloads(doc, layer):
    config = parse_config(doc)
    rng = np.random.default_rng(layer)
    assert_storage_has_no_meaning(
        config.build_system(), config.build_stack(), config.build_spec(), layer, rng, 4
    )


def sorted_boxes(table, u):
    """The stored ``(cell, lo, hi)`` rows of input ``u``, sorted."""
    cells, lo, hi = table.csr(u)
    rows = np.column_stack([cells, lo, hi]).astype(np.int64)
    return rows[np.lexsort(rows.T[::-1])]


@pytest.mark.parametrize("doc", [DCDC_SAFE, UNICYCLE_LAZY], ids=["dcdc-safe", "unicycle-lazy"])
@pytest.mark.parametrize("layer", [1, 2])
def test_stored_boxes_do_not_depend_on_the_batch(doc, layer):
    # an eager run explores a layer in one batch and a lazy run in
    # frontier batches, down to single cells; both store the same boxes
    config = parse_config(doc)
    sys, stack = config.build_system(), config.build_stack()
    safe = build_spec_sets(stack, config.build_spec()).safe_at(layer).indices()
    cells = np.random.default_rng(layer).choice(safe, size=min(128, safe.size), replace=False)
    batch = TransitionTable(sys, stack, layer)
    batch.compute_region(CellSet.from_indices(stack, layer, cells))
    alone = TransitionTable(sys, stack, layer)
    for cell in cells:
        alone.compute_region(CellSet.from_indices(stack, layer, cells[cells == cell]))
    for u in range(sys.n_inputs):
        np.testing.assert_array_equal(sorted_boxes(alone, u), sorted_boxes(batch, u))


@pytest.mark.parametrize("kind", [REACH_AVOID, SAFETY], ids=["reach", "safe"])
def test_storage_order_and_batch_split_have_no_meaning_on_the_sweep(kind):
    rng = np.random.default_rng(7)
    for levels, seed in SWEEP:
        sys, stack, spec = random_problem(seed, kind=kind, levels=levels)
        for layer in (1, 2):
            if build_spec_sets(stack, spec).safe_at(layer).count() >= 4:
                assert_storage_has_no_meaning(sys, stack, spec, layer, rng, 2)

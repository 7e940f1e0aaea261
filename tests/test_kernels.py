"""The summed-area box kernels against the gather-based reference.

A transition table stores each box as the flat index of its low corner
in the zero-padded prefix-sum grid and its width per axis;
``synthesis._SummedArea.counts`` reads a box's count from its 2^dim
corners in wrapping unsigned sums of the narrowest type, and must count
exactly at the boundaries of those types.  ``synthesis._closing_inputs``
and ``synthesis.upre`` build on it; the references in ``oracles.py``
decode every box back to its corners (``TransitionTable.csr``),
enumerate every successor and gather its bit.  They must agree on
computed tables, on preloaded entries that are not boxes, on clipped
auxiliary boxes at every face of the grid, and on grids whose corner
indices need 32-bit integers, both at the kernels' block size and in
blocks of a few rows, so that one pair's boxes fall in different
blocks.  A closing mask restricted to some cells must equal the
reference on their columns and be False elsewhere.  Neither the order
in which a table stores its boxes nor the batches or blocks it explored
them in may change what they return, and a cell explored alone stores
the boxes it stores in a batch.
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
    abstraction,
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


def small_blocks(kernel, table, region, *args):
    """``kernel(table, region, *args)`` reading the box store ``SMALL_BLOCK`` rows at a time."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(synthesis, "_BLOCK_ROWS", SMALL_BLOCK)
        return kernel(table, region, *args)


def assert_kernels_match(table, region):
    if table.kind == "main":
        want = closing_inputs_reference(table, region)
        np.testing.assert_array_equal(synthesis._closing_inputs(table, region), want)
        np.testing.assert_array_equal(small_blocks(synthesis._closing_inputs, table, region), want)
        # restricted to a few cells (their rows selected) and to most
        # cells (every row counted): other columns are False
        for share in (0.05, 0.9):
            cells = CellSet(table.grid_layer, np.random.default_rng(7).random(table.n_cells) < share)
            got = small_blocks(synthesis._closing_inputs, table, region, cells)
            np.testing.assert_array_equal(got, want & cells.bits)
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


def narrowest_unsigned(n):
    """The narrowest of uint8, uint16 and uint32 whose maximum is at least ``n``."""
    return next(np.dtype(t) for t in (np.uint8, np.uint16, np.uint32) if n <= np.iinfo(t).max)


def encoded(dims, lo, hi):
    """Boxes ``[lo, hi]`` as ``(base, width)``: the flat index of the low
    corner in the grid padded by one cell in front of every axis, in the
    narrowest unsigned type holding every padded index, and the widths."""
    padded = [d + 1 for d in dims]
    strides = np.cumprod([1] + padded[:-1])
    base = (lo.astype(np.int64) @ strides).astype(narrowest_unsigned(np.prod(padded) - 1))
    return base, (hi - lo + 1).astype(np.int8 if max(dims) <= 127 else np.int32)


def brute_counts(bits, dims, lo, hi):
    view = bits.reshape(dims, order="F")
    return [int(view[tuple(slice(x, y + 1) for x, y in zip(l, h))].sum())
            for l, h in zip(lo.tolist(), hi.tolist())]


def random_boxes(rng, dims, n):
    a = rng.integers(0, dims, size=(n, len(dims)))
    b = rng.integers(0, dims, size=(n, len(dims)))
    return np.minimum(a, b), np.maximum(a, b)


def test_summed_area_counts_match_brute_force():
    rng = np.random.default_rng(0)
    for dims in ([7], [5, 3], [4, 6, 3], [3, 2, 4, 2]):
        stack = LayerStack(1, [1.0] * len(dims), 1.0, [0.0] * len(dims), [float(d) for d in dims])
        bits = rng.random(stack.cell_count(1)) < 0.5
        lo, hi = random_boxes(rng, dims, 200)
        got = synthesis._SummedArea(stack, 1, bits).counts(*encoded(dims, lo, hi))
        assert got.tolist() == brute_counts(bits, dims, lo, hi)


@pytest.mark.parametrize(
    "dims",
    [[255], [15, 17], [256], [16, 16], [65_535], [255, 257], [65_536], [256, 256]],
    ids=lambda dims: "x".join(map(str, dims)),
)
def test_summed_area_counts_are_exact_at_the_type_boundaries(dims):
    # The sums live in the narrowest unsigned type that holds the cell
    # count, and the corner sums wrap in it: a grid of 255 cells sums in
    # uint8, one of 256 in uint16.
    n = int(np.prod(dims))
    stack = LayerStack(1, [1.0] * len(dims), 1.0, [0.0] * len(dims), [float(d) for d in dims])
    rng = np.random.default_rng(n)
    lo, hi = random_boxes(rng, dims, 100)
    # the whole grid, and a unit box at its first and last cell
    last = np.array(dims) - 1
    lo = np.vstack([lo, np.zeros_like(last), np.zeros_like(last), last])
    hi = np.vstack([hi, last, np.zeros_like(last), last])
    boxes = encoded(dims, lo, hi)
    for bits in (np.ones(n, dtype=bool), np.zeros(n, dtype=bool), rng.random(n) < 0.5):
        sums = synthesis._SummedArea(stack, 1, bits)
        assert sums.flat.dtype == narrowest_unsigned(n)
        got = sums.counts(*boxes)
        assert got.tolist() == brute_counts(bits, dims, lo, hi)
    assert got.tolist()[-3] == bits.sum()


@pytest.mark.parametrize(
    "cells, want", [(255, np.uint8), (256, np.uint16), (65_535, np.uint16), (65_536, np.uint32)]
)
def test_store_base_is_the_narrowest_type_holding_the_padded_grid(cells, want):
    # A 1-D grid of ``cells`` cells pads to ``cells + 1`` indices.
    stack = LayerStack(1, [1.0], 1.0, [0.0], [float(cells)])
    table = TransitionTable(stationary_system(dim=1), stack, 1)
    table.preload(cells - 1, [[0, cells - 1]])
    _, base, width = table.store()
    assert base.dtype == want
    assert base.tolist() == [0, cells - 1] and width.tolist() == [[1], [1]]
    assert table.csr(0)[1].tolist() == [[0], [cells - 1]]


def test_unicycle_store_base_is_uint16():
    # 32^3, 16^3 and 8^3 cells pad to 35,937, 4,913 and 729 indices
    config = parse_config(UNICYCLE_LAZY)
    sys, stack = config.build_system(), config.build_stack()
    for layer, side in ((1, 33), (2, 17), (3, 9)):
        assert stack.dims(layer).tolist() == [side - 1] * 3
        assert TransitionTable(sys, stack, layer).store()[1].dtype == np.uint16


@pytest.mark.parametrize("kind", [REACH_AVOID, SAFETY], ids=["reach", "safe"])
def test_sweep_kernels_match_reference_after_every_call(kind, monkeypatch):
    closing, cooperative = synthesis._closing_inputs, synthesis.upre
    calls = {"closing": 0, "restricted": 0, "upre": 0}

    def checked_closing(table, region, cells=None):
        calls["closing"] += 1
        calls["restricted"] += cells is not None
        got = closing(table, region, cells)
        want = closing_inputs_reference(table, region)
        if cells is not None:
            # only the given cells' columns are counted; the rest are False
            assert not got[:, ~cells.bits].any()
            want[:, ~cells.bits] = False
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(small_blocks(closing, table, region, cells), want)
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
    assert (calls["restricted"] > 0) == (kind == SAFETY)
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
    keys, base, width = table.store()
    order = rng.permutation(keys.size)
    out._batches = []
    out._store = (keys[order], base[order], width[order])
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


@pytest.mark.parametrize("doc", [DCDC_SAFE, UNICYCLE_LAZY], ids=["dcdc-safe", "unicycle-lazy"])
@pytest.mark.parametrize("layer", [1, 2])
def test_exploring_in_blocks_stores_the_boxes_of_one_batch(doc, layer, monkeypatch):
    config = parse_config(doc)
    sys, stack = config.build_system(), config.build_stack()
    region = build_spec_sets(stack, config.build_spec()).safe_at(layer)
    batch = TransitionTable(sys, stack, layer)
    batch.compute_region(region)
    monkeypatch.setattr(abstraction, "_BLOCK_CELLS", 97)
    assert region.count() > 2 * abstraction._BLOCK_CELLS
    blocks = TransitionTable(sys, stack, layer)
    blocks.compute_region(region)
    assert blocks.explored_count == batch.explored_count
    assert blocks.explored_cells() == batch.explored_cells()
    for u in range(sys.n_inputs):
        np.testing.assert_array_equal(sorted_boxes(blocks, u), sorted_boxes(batch, u))
    rng = np.random.default_rng(layer)
    for target in regions(rng, blocks, n=3):
        np.testing.assert_array_equal(
            synthesis._closing_inputs(blocks, target), synthesis._closing_inputs(batch, target)
        )
        assert upre(blocks, target) == upre(batch, target)
    assert_kernels_match(blocks, target)


@pytest.mark.parametrize("kind", [REACH_AVOID, SAFETY], ids=["reach", "safe"])
def test_storage_order_and_batch_split_have_no_meaning_on_the_sweep(kind):
    rng = np.random.default_rng(7)
    for levels, seed in SWEEP:
        sys, stack, spec = random_problem(seed, kind=kind, levels=levels)
        for layer in (1, 2):
            if build_spec_sets(stack, spec).safe_at(layer).count() >= 4:
                assert_storage_has_no_meaning(sys, stack, spec, layer, rng, 2)

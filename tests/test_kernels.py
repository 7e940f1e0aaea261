"""The window kernels against the gather-based reference.

A transition table stores each box as one code, ``class * n_cells +
corner``: the cell of its low corner and its row among the table's
distinct widths.  ``abstraction._windows`` builds, for a set of cells and
every width class, the whole-grid bitmap of the boxes of that width
that hold one of the cells, by sliding ORs along each axis; it must
match a brute-force scan on grids of one to four axes.
``synthesis.cpre`` and ``synthesis.upre`` read one window bit per
stored box through ``TransitionTable.mark_touching``; the references in
``oracles.py`` decode every box back to its corners
(``TransitionTable.csr``), enumerate every successor and gather its
bit.  They must agree on computed tables, on preloaded entries that are
not boxes, on clipped auxiliary boxes at every face of the grid, on
grids whose corner indices need 32-bit integers, and on a table that
gains a width class after a kernel has read it, both at the kernels'
block size and in blocks of a few rows, so that one pair's boxes fall
in different blocks.  A closing mask over the whole grid must equal the
reference, and one restricted to some candidate cells must equal it on
their columns and be False elsewhere.  Codes are of the narrowest
unsigned type that holds every code of the classes so far; a full block
of the store keeps the type it was filled with.  Neither the order in
which a table stores its boxes nor the batches it explored them in nor
the blocks it stores them in may change what the kernels return, and a
cell explored alone stores the boxes it stores in a batch.
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


def restored(table, rows, order=None):
    """A copy of ``table`` that stores the same boxes, in ``order`` of its
    storage order (default: unchanged), in blocks of ``rows`` boxes."""
    out = copy.copy(table)
    keys, code = table.store()
    if order is not None:
        keys, code = keys[order], code[order]
    out._blocks, out._fill = [], 0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(abstraction, "_BLOCK_ROWS", rows)
        out._append(keys, code)
    return out


def small_blocks(kernel, table, region, *args):
    """``kernel(table, region, *args)`` reading the boxes of ``table`` stored
    in blocks of ``SMALL_BLOCK`` rows."""
    return kernel(restored(table, SMALL_BLOCK), region, *args)


def grid_of(table):
    """Every cell of the table's grid, as ``cpre`` candidates."""
    return CellSet.full(table.stack, table.grid_layer)


def assert_kernels_match(table, region):
    if table.kind == "main":
        want = closing_inputs_reference(table, region)
        np.testing.assert_array_equal(synthesis.cpre(table, region, grid_of(table)), want)
        np.testing.assert_array_equal(
            small_blocks(synthesis.cpre, table, region, grid_of(table)), want
        )
        # restricted to a few cells and to most cells: other columns are False
        for share in (0.05, 0.9):
            cells = CellSet(table.grid_layer, np.random.default_rng(7).random(table.n_cells) < share)
            got = small_blocks(synthesis.cpre, table, region, cells)
            np.testing.assert_array_equal(got, want & cells.bits)
    else:
        with pytest.raises(ValueError, match="main tables"):
            synthesis.cpre(table, region, grid_of(table))
    want = upre_reference(table, region)
    assert upre(table, region) == want
    assert small_blocks(upre, table, region) == want


def regions(rng, table, n=12):
    """Empty, full and random regions of every density on the table's grid."""
    yield CellSet(table.grid_layer, np.zeros(table.n_cells, dtype=bool))
    yield CellSet(table.grid_layer, np.ones(table.n_cells, dtype=bool))
    for density in np.linspace(0.05, 0.95, n):
        yield CellSet(table.grid_layer, rng.random(table.n_cells) < density)


def brute_windows(bits, dims, widths):
    """``out[k, c]``: some cell of ``bits`` lies in the box of width
    ``widths[k]`` from cell ``c``, the box cut off at the grid's end."""
    view = bits.reshape(dims, order="F")
    corners = np.stack(np.unravel_index(np.arange(bits.size), dims, order="F"), axis=1)
    return np.array([
        [view[tuple(slice(l, l + x) for l, x in zip(lo, w))].any() for lo in corners.tolist()]
        for w in widths
    ], dtype=bool).reshape(len(widths), bits.size)


@pytest.mark.parametrize("dims", [[7], [5, 3], [4, 6, 3], [3, 2, 4, 2]], ids=len)
def test_windows_match_brute_force(dims):
    rng = np.random.default_rng(len(dims))
    stack = LayerStack(1, [1.0] * len(dims), 1.0, [0.0] * len(dims), [float(d) for d in dims])
    table = TransitionTable(stationary_system(dim=len(dims)), stack, 1)
    # unit widths, the whole grid, each axis whole alone, and random
    # widths, several sharing their first axes' widths
    widths = [[1] * len(dims), dims] + [
        [d if a == b else 1 for b, d in enumerate(dims)] for a in range(len(dims))
    ]
    widths += [[int(rng.integers(1, d + 1)) for d in dims] for _ in range(6)]
    widths += [[w[0]] + [int(rng.integers(1, d + 1)) for d in dims[1:]] for w in widths[-3:]]
    table._classes(map(tuple, widths))
    n = stack.cell_count(1)
    for bits in [np.zeros(n, bool), np.ones(n, bool)] + [rng.random(n) < p for p in (0.1, 0.5)]:
        want = brute_windows(bits, dims, table.widths.tolist())
        np.testing.assert_array_equal(abstraction._windows(table, bits), want)


@pytest.mark.parametrize(
    "cells, want", [(128, np.uint8), (129, np.uint16), (32_768, np.uint16), (32_769, np.uint32)]
)
def test_codes_widen_to_hold_every_class(cells, want):
    # One class of codes below ``cells``, then a second one below
    # ``2 * cells``: a 1-D grid of 128 cells still codes two classes in
    # uint8, one of 129 cells in uint16.
    stack = LayerStack(1, [1.0], 1.0, [0.0], [float(cells)])
    table = TransitionTable(drift_system(velocity=0.5), stack, 1)
    table.preload(cells - 1, [[0, cells - 1]])
    assert table.store()[1].dtype == abstraction.unsigned_for(cells - 1)
    # cell ``cells - 2`` drifts to [cells - 1.5, cells - 0.5]: two cells wide
    table.compute_region(CellSet.from_indices(stack, 1, [cells - 2]))
    _, code = table.store()
    assert code.dtype == want and table.widths.tolist() == [[1], [2]]
    assert code.tolist() == [0, cells - 1, 2 * cells - 2]
    cells_, lo, hi = table.csr(0)
    assert cells_.tolist() == [cells - 1, cells - 1, cells - 2]
    assert lo.tolist() == [[0], [cells - 1], [cells - 2]]
    assert hi.tolist() == [[0], [cells - 1], [cells - 1]]


def test_full_blocks_keep_their_code_type(monkeypatch):
    # Blocks of two rows.  Cell 128's three unit boxes fill the first
    # block and open the second with uint8 codes; the two-cell box of
    # cell 127 adds a class whose code needs uint16, which only the open
    # block takes.
    monkeypatch.setattr(abstraction, "_BLOCK_ROWS", 2)
    cells = 129
    stack = LayerStack(1, [1.0], 1.0, [0.0], [float(cells)])
    table = TransitionTable(drift_system(velocity=0.5), stack, 1)
    table.preload(cells - 1, [[0, 1, cells - 1]])
    assert [code.dtype for _, code in table._blocks] == [np.uint8, np.uint8]
    table.compute_region(CellSet.from_indices(stack, 1, [cells - 2]))
    assert [code.dtype for _, code in table._blocks] == [np.uint8, np.uint16]
    keys, code = table.store()
    assert keys.tolist() == [cells - 1] * 3 + [cells - 2]
    assert code.dtype == np.uint16 and code.tolist() == [0, 1, cells - 1, 2 * cells - 2]
    for region in regions(np.random.default_rng(0), table, n=4):
        assert_kernels_match(table, region)


def assert_classes_in_order_of_first_box(table):
    _, code = table.store()
    _, first = np.unique(code // table.n_cells, return_index=True)
    assert first.size == len(table.widths) and (np.diff(first) > 0).all()


def test_width_classes_stay_few_on_workloads():
    # A box spans one of two cell counts per axis for each radius, so a
    # main table has at most 2**dim classes per distinct radius.
    for doc in (UNICYCLE_LAZY, DCDC_SAFE):
        config = parse_config(doc)
        sys, stack = config.build_system(), config.build_stack()
        sets = build_spec_sets(stack, config.build_spec())
        for layer in range(1, stack.levels + 1):
            table = TransitionTable(sys, stack, layer)
            table.compute_region(sets.safe_at(layer))
            radii = len(np.unique(table._radius, axis=0))
            assert 0 < len(table.widths) <= 2**stack.dim * radii
            assert_classes_in_order_of_first_box(table)


@pytest.mark.parametrize("kind", [REACH_AVOID, SAFETY], ids=["reach", "safe"])
def test_sweep_kernels_match_reference_after_every_call(kind, monkeypatch):
    closing, cooperative = synthesis.cpre, synthesis.upre
    calls = {"cpre": 0, "restricted": 0, "upre": 0}

    def checked_cpre(table, region, candidates=None):
        calls["cpre"] += 1
        calls["restricted"] += candidates is not None
        got = closing(table, region, candidates)
        want = closing_inputs_reference(table, region)
        # only the candidates' columns are read; the rest are False
        assert not got[:, ~candidates.bits].any()
        want[:, ~candidates.bits] = False
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(small_blocks(closing, table, region, candidates), want)
        return got

    def checked_upre(table, target):
        calls["upre"] += 1
        got = cooperative(table, target)
        assert got == upre_reference(table, target)
        assert small_blocks(cooperative, table, target) == got
        return got

    monkeypatch.setattr(synthesis, "cpre", checked_cpre)
    monkeypatch.setattr(synthesis, "upre", checked_upre)
    suffix = "-reach" if kind == REACH_AVOID else "-safe"
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "target under-approximation is empty")
        for levels, seed in SWEEP:
            sys, stack, spec = random_problem(seed, kind=kind, levels=levels)
            for algorithm in ("eager" + suffix, "lazy" + suffix):
                synthesize(sys, stack, spec, algorithm)
    # every call, safety's and reach-avoid's, passes its candidates
    assert calls["cpre"] > 0 and calls["restricted"] == calls["cpre"]
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
    monkeypatch.setattr(abstraction, "_BLOCK_ROWS", 2)
    stack = LayerStack(1, [1.0], 1.0, [0.0], [6.0])
    table = TransitionTable(stationary_system(dim=1), stack, 1)
    succs = np.array([1, 2, 3])
    table.preload(0, [succs])
    table.preload(4, [[4]])
    region = CellSet.from_indices(stack, 1, np.append(np.delete(succs, outside), 4))
    mask = synthesis.cpre(table, region, grid_of(table))
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
        (reach_lo, reach_hi), _ = reach_boxes(
            sys, stack.centers(2, cells), aux._radius[u_idx], [u], aux.tau, aux.substeps
        )
        q_lo, q_hi = stack.grid_coords(2, reach_lo[0]), stack.grid_coords(2, reach_hi[0])
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


def test_table_gaining_a_class_after_a_kernel_call():
    # Windows are built per call from the classes stored so far.
    rng = np.random.default_rng(5)
    stack = LayerStack(1, [1.0, 1.0], 1.0, [0.0, 0.0], [6.0, 6.0])
    sys = spreading_system(2)
    table = TransitionTable(sys, stack, 1)
    table.compute_region(CellSet.from_indices(stack, 1, np.arange(24)))
    computed = table.widths.tolist()
    assert computed and [1, 1] not in computed
    targets = list(regions(rng, table, n=3))
    for region in targets:
        assert_kernels_match(table, region)
    # scattered successors are stored as unit boxes: a new class
    table.preload(30, [rng.choice(36, size=3, replace=False) for _ in sys.inputs])
    assert table.widths.tolist() == computed + [[1, 1]]
    assert_classes_in_order_of_first_box(table)
    for region in targets:
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
    return restored(table, abstraction._BLOCK_ROWS, rng.permutation(table.store()[0].size))


def assert_storage_has_no_meaning(sys, stack, spec, layer, rng, n_regions):
    """One call, two disjoint halves and permuted storage agree on random
    regions, with one cell's entries preloaded in each.  The call stores
    its boxes in several blocks, and the preloaded pair's unit boxes
    straddle a block boundary."""
    region = build_spec_sets(stack, spec).safe_at(layer)
    cells = rng.permutation(region.indices())
    assert cells.size >= 5
    n_cells = stack.cell_count(layer)
    # Blocks of about a 64th of the pairs, at least SMALL_BLOCK rows and
    # fewer than the grid's cells, so that a pair can hold one more unit
    # box than a block.
    rows = min(max(SMALL_BLOCK, cells.size * sys.n_inputs // 64), n_cells - 1)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(abstraction, "_BLOCK_ROWS", rows)
        whole = TransitionTable(sys, stack, layer)
        whole.compute_region(CellSet.from_indices(stack, layer, cells[1:]))
        # Input 0's boxes of cells[0] run from the next free row to the
        # first row of the next block.
        stored = whole.store()[0].size
        succs = [rng.choice(n_cells, size=rows - stored % rows + 1, replace=False)]
        succs += [None] * (sys.n_inputs - 1)
        whole.preload(cells[0], succs)
    pair = np.flatnonzero(whole.store()[0] == cells[0])
    assert pair.size == succs[0].size and pair[-1] // rows > pair[0] // rows
    # halves of two or more cells: a one-row dcdc batch rounds differently
    halves = TransitionTable(sys, stack, layer)
    halves.preload(cells[0], succs)
    for part in np.array_split(cells[1:], 2):
        halves.compute_region(CellSet.from_indices(stack, layer, part))
    assert halves.explored_count == whole.explored_count
    shuffled = permuted(whole, rng)
    for target in regions(rng, whole, n=n_regions):
        mask = synthesis.cpre(whole, target, grid_of(whole))
        pre = upre(whole, target)
        for table in (halves, shuffled):
            np.testing.assert_array_equal(synthesis.cpre(table, target, grid_of(table)), mask)
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
            synthesis.cpre(blocks, target, grid_of(blocks)),
            synthesis.cpre(batch, target, grid_of(batch)),
        )
        assert upre(blocks, target) == upre(batch, target)
    assert_kernels_match(blocks, target)


@pytest.mark.parametrize("kind", [REACH_AVOID, SAFETY], ids=["reach", "safe"])
def test_storage_order_and_batch_split_have_no_meaning_on_the_sweep(kind):
    rng = np.random.default_rng(7)
    for levels, seed in SWEEP:
        sys, stack, spec = random_problem(seed, kind=kind, levels=levels)
        for layer in (1, 2):
            if build_spec_sets(stack, spec).safe_at(layer).count() >= 5:
                assert_storage_has_no_meaning(sys, stack, spec, layer, rng, 2)

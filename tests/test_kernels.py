"""The summed-area box kernels against the gather-based reference.

``synthesis._closing_inputs`` and ``synthesis.upre`` count the cells of
each stored box from an n-D prefix sum; the references in
``oracles.py`` enumerate every successor of every box and gather its
bit.  They must agree on computed tables, on preloaded entries that are
not boxes, on clipped auxiliary boxes at every face of the grid, and on
grids whose corner indices need 32-bit integers.
"""

from __future__ import annotations

import itertools
import warnings

import numpy as np
import pytest

from conftest import SWEEP, drift_system, linear_system, random_problem, stationary_system
from oracles import closing_inputs_reference, upre_reference
from layersynth import BLOCKED, CellSet, LayerStack, TransitionTable, synthesis, synthesize, upre
from layersynth.problem import REACH_AVOID, SAFETY


def assert_kernels_match(table, region):
    np.testing.assert_array_equal(
        synthesis._closing_inputs(table, region), closing_inputs_reference(table, region)
    )
    assert upre(table, region) == upre_reference(table, region)


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
        np.testing.assert_array_equal(got, closing_inputs_reference(table, region))
        return got

    def checked_upre(table, target):
        calls["upre"] += 1
        got = cooperative(table, target)
        assert got == upre_reference(table, target)
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
        for u in range(3):
            if rng.random() < 0.15:
                table.preload(cell, u, BLOCKED)
            elif rng.random() < 0.9:
                # scattered cells, almost never a box
                table.preload(cell, u, rng.choice(n, size=int(rng.integers(1, 6)), replace=False))
    for region in regions(rng, table):
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
    boxes = [aux.csr(u) for u in range(sys.n_inputs)]
    lo = np.concatenate([b[1][b[3]] for b in boxes])
    hi = np.concatenate([b[2][b[3]] for b in boxes])
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
    _, lo, hi, _ = table.csr(0)
    assert lo.dtype == hi.dtype == np.int32
    assert int(hi[:, 0].max()) > np.iinfo(np.int16).max
    rng = np.random.default_rng(3)
    for region in regions(rng, table, n=4):
        assert_kernels_match(table, region)

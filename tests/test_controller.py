"""Controller stage selection and the controller file decoder."""

from __future__ import annotations

import functools
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_problem
from oracles import quantize_oracle
from layersynth import (
    CellSet,
    ControllerFormatError,
    LayerController,
    MultiLayeredController,
    synthesize,
    validate,
)
from layersynth.controller import deserialize, serialize
from layersynth.problem import REACH_AVOID, SAFETY

# (kind, levels, seed) of random_problem; all win cells on several layers.
PROBLEMS = [
    (kind, levels, seed)
    for kind, seeds in ((SAFETY, (12, 43, 49)), (REACH_AVOID, (2, 4, 8)))
    for levels in (2, 3)
    for seed in seeds
]


@functools.lru_cache(maxsize=None)
def solved(kind, levels, seed):
    sys_, stack, spec = random_problem(seed, kind=kind, levels=levels)
    algorithm = "eager-safe" if kind == SAFETY else "eager-reach"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return sys_, spec, synthesize(sys_, stack, spec, algorithm).controller


def probe_states(mlc: MultiLayeredController, rng: np.random.Generator) -> np.ndarray:
    """Random states, states on layer-1 grid lines and region bounds, states outside."""
    stack = mlc.stack
    lo, hi, eta = stack.y_lower, stack.y_upper, stack.eta(1)
    span = hi - lo
    inside = lo + rng.uniform(0.0, 1.0, size=(200, stack.dim)) * span
    k = rng.integers(-1, stack.dims(1) + 2, size=(200, stack.dim))
    on_lines = lo + k * eta
    # One coordinate on a grid line of a random layer, the others random.
    mixed = lo + rng.uniform(0.0, 1.0, size=(200, stack.dim)) * span
    axis = rng.integers(0, stack.dim, size=200)
    layer = rng.integers(1, stack.levels + 1, size=200)
    line = rng.integers(0, stack.dims(1)[axis] // 2 ** (layer - 1) + 1)
    mixed[np.arange(200), axis] = lo[axis] + line * eta[axis] * 2.0 ** (layer - 1)
    outside = lo + rng.uniform(-0.5, 1.5, size=(200, stack.dim)) * span
    corners = np.array([lo, hi, np.where(np.arange(stack.dim) % 2, lo, hi)])
    return np.concatenate([inside, on_lines, mixed, outside, corners])


@pytest.mark.parametrize("kind, levels, seed", PROBLEMS)
def test_quantize_matches_per_stage_oracle(kind, levels, seed):
    _, _, mlc = solved(kind, levels, seed)
    rng = np.random.default_rng(seed)
    hits = 0
    for x in probe_states(mlc, rng):
        expect = quantize_oracle(mlc, x)
        assert mlc.quantize(x) == expect, x
        hits += expect is not None
    assert hits > 0


def test_domain_projection_is_the_union_of_stage_domains():
    for source in PROBLEMS:
        _, _, mlc = solved(*source)
        stack = mlc.stack
        cells = np.flatnonzero(mlc.domain_projection().bits)
        assert cells.size > 0
        centers = stack.centers(1, cells)
        assert all(quantize_oracle(mlc, x) is not None for x in centers)
        outside = np.setdiff1d(np.arange(stack.cell_count(1)), cells)
        assert all(quantize_oracle(mlc, x) is None for x in stack.centers(1, outside))


def test_overlapping_stages_follow_the_priority_rule(square_stack):
    # Stage 0 on layer 1 and stages 1 and 2 on layer 2 all cover layer-1 cell 0.
    def stages(ranked):
        ranks = {0: 1} if ranked else None
        return [
            LayerController(layer, p, CellSet.from_indices(square_stack, layer, [0]),
                            {0: (0,)}, ranks)
            for p, layer in enumerate((1, 2, 2))
        ]

    safe = MultiLayeredController(SAFETY, square_stack, stages(False))
    reach = MultiLayeredController(REACH_AVOID, square_stack, stages(True))
    assert safe.quantize([0.5, 0.5]) == (1, 0)
    assert reach.quantize([0.5, 0.5]) == (0, 0)
    assert reach.quantize([1.5, 1.5]) == (1, 0)
    assert reach.quantize([3.5, 3.5]) is None


# -- the decoder ----------------------------------------------------------------

FUZZED = [(REACH_AVOID, 3, 2), (SAFETY, 3, 12)]


def encoded(source) -> bytes:
    return serialize(solved(*source)[2])


@pytest.mark.parametrize("source", FUZZED)
def test_round_trip_is_byte_identical(source):
    data = encoded(source)
    assert serialize(deserialize(data)) == data


@given(source=st.sampled_from(FUZZED), cut=st.floats(0.0, 1.0, exclude_max=True))
def test_truncated_controller_is_rejected(source, cut):
    data = encoded(source)
    with pytest.raises(ControllerFormatError):
        deserialize(data[: int(cut * len(data))])


@given(
    source=st.sampled_from(FUZZED),
    edits=st.lists(
        st.tuples(st.floats(0.0, 1.0, exclude_max=True), st.integers(0, 255)),
        min_size=1,
        max_size=3,
    ),
)
def test_mutated_controller_decodes_or_raises_format_error(source, edits):
    data = bytearray(encoded(source))
    for where, value in edits:
        data[int(where * len(data))] = value
    try:
        mlc = deserialize(bytes(data))
    except ControllerFormatError:
        return
    assert isinstance(mlc, MultiLayeredController)


def _with(data: bytes, offset: int, fmt: str, value) -> bytes:
    out = bytearray(data)
    struct.pack_into(fmt, out, offset, value)
    return bytes(out)


# Offsets in a 2-D controller file: kind flag, level count, first stage.
_KIND, _LEVELS, _STAGE = 8, 9, 11 + 7 * 8 + 4


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d + b"\0", "trailing bytes"),
        (lambda d: _with(d, _KIND, "<B", 2), "kind flag"),
        (lambda d: _with(d, _LEVELS, "<B", 0), "levels"),
        (lambda d: _with(d, _LEVELS, "<B", 200), "malformed controller file"),
        (lambda d: _with(d, _STAGE, "<B", 4), "layer 4 not in"),
        (lambda d: _with(d, _STAGE + 13, "<q", 10**6), "outside layer"),
        (lambda d: _with(d, _STAGE + 13, "<q", -1), "outside layer"),
    ],
    ids=["trailing", "kind", "no-levels", "too-many-levels", "layer", "cell", "negative-cell"],
)
def test_malformed_controller_names_the_fault(edit, message):
    data = encoded((REACH_AVOID, 3, 2))
    with pytest.raises(ControllerFormatError, match=message):
        deserialize(edit(data))


def test_validate_rejects_moves_outside_the_input_alphabet():
    sys_, spec, mlc = solved(REACH_AVOID, 3, 2)
    first = mlc.stages[0]
    cell = next(iter(first.moves))
    moves = {**first.moves, cell: (sys_.n_inputs,)}
    bad = LayerController(first.layer, 0, first.domain, moves, first.ranks)
    bad_mlc = MultiLayeredController(mlc.kind, mlc.stack, [bad, *mlc.stages[1:]])
    with pytest.raises(ValueError, match="outside the system"):
        validate(bad_mlc, sys_, spec, runs=2, horizon=5, seed=0)

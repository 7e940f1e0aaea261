"""Controller stage selection, closed-loop validation and the controller file decoder."""

from __future__ import annotations

import dataclasses
import functools
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import drift_system, random_problem, stationary_system
from oracles import quantize_oracle, simulate_oracle, validate_oracle
from layersynth import (
    CellSet,
    ControllerFormatError,
    IntegrationDivergenceError,
    LayerController,
    MultiLayeredController,
    ProblemSpec,
    simulate,
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
    states = probe_states(mlc, rng)
    stage, cell = mlc.quantize_batch(states)
    hits = 0
    for x, p, c in zip(states, stage.tolist(), cell.tolist()):
        expect = quantize_oracle(mlc, x)
        assert mlc.quantize(x) == expect, x
        assert (None if p < 0 else (p, c)) == expect, x
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


def test_non_finite_states_have_no_acting_stage():
    _, _, mlc = solved(SAFETY, 2, 12)
    x = mlc.stack.centers(1, mlc.domain_projection().indices()[:1])[0]
    bad = np.array([[np.nan, x[1]], [x[0], np.inf], [-np.inf, np.nan], [x[0], 1e300]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stage, cell = mlc.quantize_batch(np.vstack([bad, x]))
        assert stage.tolist()[:4] == cell.tolist()[:4] == [-1] * 4
        assert stage[4] >= 0
        assert all(mlc.quantize(row) is None for row in bad)


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


# Offsets in a 2-D controller file: kind flag, level count, eta1, first stage.
_KIND, _LEVELS, _ETA1, _STAGE = 8, 9, 11, 11 + 7 * 8 + 4


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
        (lambda d: _with(d, _ETA1, "<d", 1e-300), "layer-1 cells"),
        (lambda d: _with(d, _ETA1 + 16, "<d", float("nan")), "finite"),
    ],
    ids=["trailing", "kind", "no-levels", "too-many-levels", "layer", "cell", "negative-cell",
         "huge-grid", "nan-tau1"],
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


# -- closed-loop validation ------------------------------------------------------


@pytest.mark.parametrize("runs", [1, 7, 64])
@pytest.mark.parametrize("kind, levels, seed", PROBLEMS)
def test_validate_matches_per_trajectory_oracle(kind, levels, seed, runs):
    sys_, spec, mlc = solved(kind, levels, seed)
    args = (mlc, sys_, spec, runs, 20, seed)
    assert validate(*args).to_dict() == validate_oracle(*args).to_dict()


@pytest.mark.parametrize("kind, levels, seed", [(SAFETY, 2, 12), (REACH_AVOID, 3, 2)])
def test_negative_horizon_is_rejected(kind, levels, seed):
    sys_, spec, mlc = solved(kind, levels, seed)
    x0 = mlc.stack.centers(1, mlc.domain_projection().indices()[:1])[0]
    with pytest.raises(ValueError, match="horizon"):
        validate(mlc, sys_, spec, runs=5, horizon=-1, seed=0)
    # an empty domain must not pass vacuously before the horizon is checked
    empty = MultiLayeredController(mlc.kind, mlc.stack, [])
    with pytest.raises(ValueError, match="horizon"):
        validate(empty, sys_, spec, runs=5, horizon=-1, seed=0)
    with pytest.raises(ValueError, match="horizon"):
        simulate(mlc, sys_, spec, x0, -1, 0)
    assert validate(mlc, sys_, spec, runs=2, horizon=0, seed=0).executed == 2


def logged(log) -> tuple:
    steps = [(e.time, e.state.tolist(), e.layer, e.stage, e.input_index, e.rank)
             for e in log.entries]
    return log.status, log.final_state.tolist(), steps


@pytest.mark.parametrize("kind, levels, seed", PROBLEMS[::3])
def test_simulate_matches_per_trajectory_oracle(kind, levels, seed):
    sys_, spec, mlc = solved(kind, levels, seed)
    cells = mlc.domain_projection().indices()
    for i, x0 in enumerate(mlc.stack.centers(1, cells[:: max(1, cells.size // 5)])):
        assert logged(simulate(mlc, sys_, spec, x0, 30, i)) == logged(
            simulate_oracle(mlc, sys_, spec, x0, 30, i)
        )


@pytest.mark.parametrize("kind, levels, seed", [(SAFETY, 2, 12), (REACH_AVOID, 3, 2)])
def test_undisturbed_validation_matches_oracle(kind, levels, seed):
    # a zero disturbance bound takes the nominal integrator and draws nothing
    sys_, spec, mlc = solved(kind, levels, seed)
    calm = dataclasses.replace(sys_, disturbance=np.zeros(sys_.dim))
    args = (mlc, calm, spec, 16, 30, seed)
    assert validate(*args).to_dict() == validate_oracle(*args).to_dict()


def test_diverging_closed_loop_raises_on_both_paths():
    sys_, spec, mlc = solved(SAFETY, 2, 12)
    blowup = dataclasses.replace(
        sys_, vector_field=lambda x, u: np.full_like(np.asarray(x, dtype=float), np.inf)
    )
    for check in (validate, validate_oracle):
        with pytest.raises(IntegrationDivergenceError):
            check(mlc, blowup, spec, 7, 10, 0)


@pytest.mark.parametrize(
    "system, kind, status",
    [(stationary_system(), REACH_AVOID, "violation"), (drift_system(1.0, dim=2), SAFETY, "left-domain")],
    ids=["stalled", "drifted-out"],
)
def test_hand_built_failures_match_oracle(square_stack, system, kind, status):
    # One layer-1 stage on cell 0: the stationary system stays there,
    # repeating its (stage, rank) until the step budget runs out; the
    # drifting one leaves the stage domain.
    spec = ProblemSpec(kind=kind, target_boxes=[([3.0, 3.0], [4.0, 4.0])] if kind == REACH_AVOID else [])
    ranks = {0: 1} if kind == REACH_AVOID else None
    stage = LayerController(1, 0, CellSet.from_indices(square_stack, 1, [0]), {0: (0,)}, ranks)
    mlc = MultiLayeredController(kind, square_stack, [stage])
    report = validate(mlc, system, spec, 3, 5, 0)
    assert report.to_dict() == validate_oracle(mlc, system, spec, 3, 5, 0).to_dict()
    assert report.status_counts == {status: 3}
    assert report.rank_monotone is (False if kind == REACH_AVOID else None)

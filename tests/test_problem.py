"""Concrete safe and target regions, and their per-layer cell approximations."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from conftest import random_problem
from oracles import in_safe_oracle, in_target_oracle
from layersynth import LayerStack, ProblemSpec, build_spec_sets, gamma_down
from layersynth.problem import REACH_AVOID, SAFETY


@pytest.fixture
def stack() -> LayerStack:
    return LayerStack(2, [0.5, 0.5], 0.25, [0.0, 0.0], [4.0, 4.0])


@pytest.fixture
def spec() -> ProblemSpec:
    # Two safe boxes meeting at x0 = 2, an obstacle carved out of the
    # first one, a target in the second.
    return ProblemSpec(
        kind=REACH_AVOID,
        safe_boxes=[([0.0, 0.0], [2.0, 4.0]), ([2.0, 1.0], [4.0, 3.0])],
        obstacle_boxes=[([0.5, 1.0], [1.5, 2.0])],
        target_boxes=[([3.0, 1.5], [4.0, 2.5])],
    )


@pytest.mark.parametrize(
    "x, safe",
    [
        ([0.0, 0.0], True),  # lower corner of the region
        ([4.0, 3.0], True),  # upper region bound, on a safe box corner
        ([4.0, 3.0 + 1e-12], False),  # just above the second safe box
        ([4.0 + 1e-12, 2.0], False),  # just beyond the region
        ([-1e-12, 2.0], False),
        ([2.0, 0.5], True),  # on the edge of the first safe box only
        ([2.0 + 1e-12, 0.5], False),  # in neither safe box
        ([0.5, 1.0], False),  # obstacle corner: obstacles are closed
        ([1.0, 1.5], False),  # obstacle interior
        ([1.5 + 1e-12, 1.5], True),  # just right of the obstacle
        ([3.0, 3.5], False),
    ],
)
def test_safe_region_is_closed_boxes_minus_closed_obstacles(stack, spec, x, safe):
    assert spec.in_safe_region(x, stack) is safe
    assert in_safe_oracle(spec, x, stack) is safe


@pytest.mark.parametrize(
    "x, hit",
    [([3.0, 1.5], True), ([4.0, 2.5], True), ([3.5, 2.0], True), ([3.0 - 1e-12, 2.0], False),
     ([3.5, 2.5 + 1e-12], False)],
)
def test_target_region_is_closed(spec, x, hit):
    assert spec.in_target_region(x) is hit


def test_without_safe_boxes_the_region_is_safe_outside_obstacles(stack):
    spec = ProblemSpec(kind=SAFETY, obstacle_boxes=[([1.0, 1.0], [2.0, 2.0])])
    assert spec.in_safe_region([4.0, 4.0], stack)
    assert not spec.in_safe_region([2.0, 1.0], stack)
    assert not spec.in_safe_region([4.0, 4.5], stack)


def probe(stack: LayerStack, rng: np.random.Generator) -> np.ndarray:
    """Random points around the region and points on layer-1 grid lines."""
    span = stack.y_upper - stack.y_lower
    loose = stack.y_lower + rng.uniform(-0.2, 1.2, size=(300, stack.dim)) * span
    k = rng.integers(-1, stack.dims(1) + 2, size=(300, stack.dim))
    return np.concatenate([loose, stack.y_lower + k * stack.eta(1)])


@pytest.mark.parametrize("seed", range(6))
def test_batched_tests_agree_with_point_tests_row_by_row(seed, stack, spec):
    if seed:
        _, stack, spec = random_problem(seed, kind=(REACH_AVOID, SAFETY)[seed % 2])
    x = probe(stack, np.random.default_rng(seed))
    safe = spec.in_safe_region(x, stack)
    target = spec.in_target_region(x)
    assert safe.shape == target.shape == (len(x),)
    assert safe.any() and not safe.all()
    for row, s, t in zip(x, safe.tolist(), target.tolist()):
        assert spec.in_safe_region(row, stack) is s is in_safe_oracle(spec, row, stack), row
        assert spec.in_target_region(row) is t is in_target_oracle(spec, row), row


def test_empty_batch(stack, spec):
    none = np.empty((0, 2))
    assert spec.in_safe_region(none, stack).shape == (0,)
    assert spec.in_target_region(none).shape == (0,)


@pytest.mark.parametrize("levels", [2, 3])
@pytest.mark.parametrize("seed", range(8))
def test_coarse_sets_refine_the_layer_1_sets(seed, levels):
    kind = (REACH_AVOID, SAFETY)[seed % 2]
    _, stack, spec = random_problem(seed, kind=kind, levels=levels)
    sets = build_spec_sets(stack, spec)
    safe1 = sets.safe_at(1)
    rng = np.random.default_rng(seed)
    for layer in range(1, levels + 1):
        safe = sets.safe_at(layer)
        assert safe.is_subset(gamma_down(stack, safe1, layer)), layer
        # every point of a safe cell is safe; the upper faces belong to
        # the next cell, so the points are drawn from the open cell
        cells = safe.indices()
        lower = stack.centers(layer, cells) - 0.5 * stack.eta(layer)
        inner = lower + rng.uniform(1e-9, 1.0, size=lower.shape) * stack.eta(layer)
        assert spec.in_safe_region(inner, stack).all(), layer
        if kind == REACH_AVOID:
            target = sets.target_at(layer)
            assert target.is_subset(safe), layer
            assert target.is_subset(gamma_down(stack, sets.target_at(1), layer)), layer
            cells = target.indices()
            lower = stack.centers(layer, cells) - 0.5 * stack.eta(layer)
            inner = lower + rng.uniform(1e-9, 1.0, size=lower.shape) * stack.eta(layer)
            assert spec.in_target_region(inner).all(), layer


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("safe_boxes", [[], [([0.0, 0.0], [4.0, 4.0])]], ids=["no-safe-box", "safe-box"])
def test_non_finite_states_are_outside_every_region(stack, safe_boxes, bad):
    spec = ProblemSpec(
        kind=REACH_AVOID,
        safe_boxes=safe_boxes,
        obstacle_boxes=[([1.0, 1.0], [2.0, 2.0])],
        target_boxes=[([0.0, 0.0], [4.0, 4.0])],
    )
    rows = np.array([[bad, 1.5], [1.5, bad], [bad, bad], [0.5, 0.5]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in rows[:3]:
            assert spec.in_safe_region(x, stack) is False
            assert spec.in_target_region(x) is False
            assert in_safe_oracle(spec, x, stack) is False
        assert spec.in_safe_region(rows, stack).tolist() == [False, False, False, True]
        assert spec.in_target_region(rows).tolist() == [False, False, False, True]


def test_infinite_box_corners_act_as_the_region_bounds(stack):
    inf = float("inf")

    def spec(low, high):  # boxes reaching the region bounds, or past them
        return ProblemSpec(
            kind=REACH_AVOID,
            safe_boxes=[([low, 0.0], [2.0, high]), ([1.0, low], [high, 3.0])],
            obstacle_boxes=[([1.0, low], [1.5, 1.0]), ([3.5, 3.5], [high, high])],
            target_boxes=[([3.0, low], [high, 2.5])],
        )

    bounded = build_spec_sets(stack, spec(0.0, 4.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no invalid-value or cast warning on inf
        unbounded = build_spec_sets(stack, spec(-inf, inf))
    for layer in (1, 2):
        assert unbounded.safe_at(layer) == bounded.safe_at(layer)
        assert unbounded.target_at(layer) == bounded.target_at(layer)
    assert not bounded.target_at(1).is_empty()


@pytest.mark.parametrize("lo, hi", [([0.0, float("nan")], [1.0, 1.0]), ([1.0, 0.0], [0.0, 1.0]),
                                    ([0.0], [1.0, 1.0])])
def test_box_needs_ordered_corners_of_one_shape(lo, hi):
    with pytest.raises(ValueError, match="box 0 "):
        ProblemSpec(kind=SAFETY, obstacle_boxes=[(lo, hi)])

import math

import numpy as np
import pytest

from conftest import drift_system, linear_system, stationary_system
from layersynth import (
    ControlSystem,
    IntegrationDivergenceError,
    ReachBox,
    integrate_nominal,
    over_approx_reach,
    sample_disturbed_step,
)
from layersynth.benchmarks import dcdc, unicycle


def decay_system(dim=2, disturbance=0.0):
    a = -np.eye(dim)
    return linear_system(a, [np.zeros(dim)], np.full(dim, disturbance), name="decay")


class TestControlSystemValidation:
    def test_rejects_negative_disturbance(self):
        with pytest.raises(ValueError, match="non-negative"):
            stationary = stationary_system()
            ControlSystem(2, stationary.vector_field, [-0.1, 0.0],
                          stationary.inputs, stationary.growth_matrix)

    def test_rejects_duplicate_inputs(self):
        s = stationary_system()
        with pytest.raises(ValueError, match="duplicate"):
            ControlSystem(2, s.vector_field, [0.0, 0.0],
                          [np.array([1.0]), np.array([1.0])], s.growth_matrix)

    def test_rejects_empty_inputs(self):
        s = stationary_system()
        with pytest.raises(ValueError, match="non-empty"):
            ControlSystem(2, s.vector_field, [0.0, 0.0], [], s.growth_matrix)

    def test_rejects_negative_off_diagonal_growth(self):
        s = stationary_system()
        bad = np.array([[0.0, -1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="off-diagonal"):
            ControlSystem(2, s.vector_field, [0.0, 0.0], s.inputs, lambda u: bad)


class TestIntegrateNominal:
    def test_zero_field_is_stationary(self):
        sys = stationary_system()
        out = integrate_nominal(sys, [1.0, 2.0], sys.inputs[0], 0.5, 4)
        assert np.allclose(out, [1.0, 2.0], atol=0.0)

    def test_linear_decay_matches_closed_form(self):
        sys = decay_system()
        out = integrate_nominal(sys, [1.0, 1.0], sys.inputs[0], 1.0, 100)
        assert np.allclose(out, [math.exp(-1.0)] * 2, atol=1e-6)

    def test_unicycle_straight_line(self):
        sys = unicycle()
        u = np.array([1.0, 0.0])
        out = integrate_nominal(sys, [0.0, 0.0, 0.0], u, 0.225, 5)
        assert np.allclose(out, [0.225, 0.0, 0.0], atol=1e-9)

    def test_divergence_raises(self):
        blow = ControlSystem(
            1,
            lambda x, u: np.asarray(x, dtype=float) ** 3,
            [0.0],
            [np.array([0.0])],
            lambda u: np.zeros((1, 1)),
        )
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(IntegrationDivergenceError):
                integrate_nominal(blow, [50.0], blow.inputs[0], 50.0, 3)

    def test_rk4_is_fourth_order(self):
        # halving the step scales the error by ~1/16 over a decade of substeps
        sys = decay_system(dim=1)
        exact = math.exp(-1.0)
        errors = []
        for steps in (2, 4, 8, 16, 32, 64):
            out = integrate_nominal(sys, [1.0], sys.inputs[0], 1.0, steps)
            errors.append(abs(out[0] - exact))
        ratios = [errors[i] / errors[i + 1] for i in range(len(errors) - 1)]
        for r in ratios:
            assert 12.0 < r < 20.0


class TestOverApproxReach:
    def test_stationary_cell_is_fixed(self):
        sys = stationary_system()
        cell = ReachBox([0.0, 0.0], [1.0, 1.0])
        box = over_approx_reach(sys, cell, sys.inputs[0], 0.7, 5)
        assert np.allclose(box.lower, [0.0, 0.0]) and np.allclose(box.upper, [1.0, 1.0])

    def test_contracting_dynamics_matches_closed_form(self):
        sys = decay_system(dim=1)
        box = over_approx_reach(sys, ReachBox([-0.5], [0.5]), sys.inputs[0], 1.0, 100)
        expect = 0.5 * math.exp(-1.0)
        assert np.allclose(box.lower, [-expect], atol=1e-6)
        assert np.allclose(box.upper, [expect], atol=1e-6)

    def test_disturbance_grows_radius_linearly(self):
        sys = ControlSystem(
            1,
            lambda x, u: np.zeros_like(np.asarray(x, dtype=float)),
            [0.1],
            [np.array([0.0])],
            lambda u: np.zeros((1, 1)),
        )
        box = over_approx_reach(sys, ReachBox([0.0], [1.0]), sys.inputs[0], 2.0, 10)
        assert np.allclose(box.lower, [-0.2], atol=1e-9)
        assert np.allclose(box.upper, [1.2], atol=1e-9)


class TestSampleDisturbedStep:
    def test_zero_disturbance_equals_nominal(self):
        sys = decay_system(dim=2)
        for seed in range(5):
            a = sample_disturbed_step(sys, [1.0, -1.0], sys.inputs[0], 0.5, seed, substeps=7)
            b = integrate_nominal(sys, [1.0, -1.0], sys.inputs[0], 0.5, 7)
            assert np.array_equal(a, b)

    def test_displacement_bounded_by_disturbance(self):
        sys = ControlSystem(
            1,
            lambda x, u: np.zeros_like(np.asarray(x, dtype=float)),
            [0.1],
            [np.array([0.0])],
            lambda u: np.zeros((1, 1)),
        )
        for seed in range(50):
            out = sample_disturbed_step(sys, [2.0], sys.inputs[0], 1.0, seed)
            assert 1.9 - 1e-12 <= out[0] <= 2.1 + 1e-12

    def test_same_seed_same_result(self):
        sys = dcdc()
        a = sample_disturbed_step(sys, [1.2, 5.6], sys.inputs[1], 0.0625, 42)
        b = sample_disturbed_step(sys, [1.2, 5.6], sys.inputs[1], 0.0625, 42)
        assert np.array_equal(a, b)

    def test_batch_rows_step_as_they_would_alone(self):
        sys = unicycle()
        x0 = np.random.default_rng(3).uniform(0.0, 3.0, size=(9, 3))
        batch = sample_disturbed_step(sys, x0, sys.inputs[4], 0.225, list(range(9)))
        for i in range(9):
            alone = sample_disturbed_step(sys, x0[i], sys.inputs[4], 0.225, i)
            assert np.array_equal(batch[i], alone)
        with pytest.raises(ValueError, match="one generator per row"):
            sample_disturbed_step(sys, x0, sys.inputs[4], 0.225, list(range(8)))

    def test_undisturbed_batch_draws_nothing(self):
        sys = decay_system(dim=2)
        rngs = [np.random.default_rng(s) for s in range(3)]
        x0 = np.array([[1.0, -1.0], [0.5, 0.0], [2.0, 3.0]])
        out = sample_disturbed_step(sys, x0, sys.inputs[0], 0.5, rngs, substeps=7)
        assert np.array_equal(out, integrate_nominal(sys, x0, sys.inputs[0], 0.5, 7))
        assert [r.random() for r in rngs] == [np.random.default_rng(s).random() for s in range(3)]


def _containment_trial(sys, lower, upper, tau, seeds, points, rng):
    cell = ReachBox(lower, upper)
    for u in sys.inputs:
        box = over_approx_reach(sys, cell, u, tau, 10)
        for s in range(seeds):
            for _ in range(points):
                x0 = rng.uniform(cell.lower, cell.upper)
                x1 = sample_disturbed_step(sys, x0, u, tau, int(rng.integers(2**31)), substeps=10)
                assert box.contains_point(x1, atol=1e-9), (
                    f"sampled endpoint {x1} escapes reach box for input {u}"
                )


class TestGrowthBoundSoundness:
    def test_dcdc_sampling_stays_inside_reach_box(self):
        sys = dcdc()
        rng = np.random.default_rng(0)
        for _ in range(10):
            lo = np.array([1.15, 5.45]) + rng.uniform(0.0, 0.35, 2)
            _containment_trial(sys, lo, lo + 0.005, 0.0625, seeds=10, points=5, rng=rng)

    def test_unicycle_sampling_stays_inside_reach_box(self):
        sys = unicycle()
        rng = np.random.default_rng(1)
        for _ in range(5):
            lo = np.array([0.0, 0.0, -3.2]) + rng.uniform(0.0, 3.0, 3)
            _containment_trial(sys, lo, lo + 0.2, 0.225, seeds=5, points=5, rng=rng)


class TestNestedCellMonotonicity:
    """Same-period reach boxes of nested cells nest as well.

    This is the containment the coarse auxiliary systems rely on: a
    finer cell inside a coarser one, both propagated for the finer
    layer's period, yields nested over-approximations.
    """

    def _check(self, sys, rng, width, tau, scale=2.0):
        inner_lo = rng.uniform(0.0, 1.0, sys.dim)
        inner = ReachBox(inner_lo, inner_lo + width)
        pad = rng.uniform(0.0, width * (scale - 1.0), sys.dim)
        outer = ReachBox(inner.lower - pad, inner.upper + (width * (scale - 1.0) - pad))
        for u in sys.inputs:
            small = over_approx_reach(sys, inner, u, tau, 10)
            big = over_approx_reach(sys, outer, u, tau, 10)
            assert big.contains_box(small, atol=1e-9)

    def test_dcdc_nested_cells(self):
        sys = dcdc()
        rng = np.random.default_rng(7)
        for _ in range(200):
            self._check(sys, rng, width=0.005, tau=0.0625)

    def test_unicycle_nested_cells(self):
        sys = unicycle()
        rng = np.random.default_rng(8)
        for _ in range(200):
            self._check(sys, rng, width=0.2, tau=0.225)

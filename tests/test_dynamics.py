import dataclasses
import math

import numpy as np
import pytest

from conftest import drift_system, linear_system, stationary_system
from oracles import sample_disturbed_step_reference
from layersynth import (
    ControlSystem,
    IntegrationDivergenceError,
    integrate_nominal,
    sample_disturbed_step,
)
from layersynth.dynamics import radius_dynamics, reach_boxes
from layersynth.benchmarks import dcdc, unicycle


def reach_box(sys, lower, upper, u, tau, substeps):
    """Reach box of the cell ``[lower, upper]``: a one-row ``reach_boxes`` batch."""
    lower, upper = np.asarray(lower, dtype=float), np.asarray(upper, dtype=float)
    center, half_width = 0.5 * (lower + upper), 0.5 * (upper - lower)
    radius = radius_dynamics(sys, u, half_width, tau, substeps)
    lo, hi = reach_boxes(sys, center[None, :], radius, u, tau, substeps)
    return lo[0], hi[0]


def decay_system(dim=2, disturbance=0.0):
    a = -np.eye(dim)
    return linear_system(a, [np.zeros(dim)], np.full(dim, disturbance), name="decay")


class TestControlSystemValidation:
    def test_rejects_negative_disturbance(self):
        with pytest.raises(ValueError, match="non-negative"):
            stationary = stationary_system()
            ControlSystem(2, stationary.vector_field, [-0.1, 0.0],
                          stationary.inputs, stationary.growth_matrix)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_disturbance(self, bad):
        s = stationary_system()
        with pytest.raises(ValueError, match="finite"):
            ControlSystem(2, s.vector_field, [bad, 0.0], s.inputs, s.growth_matrix)

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
            lambda u: lambda x: np.asarray(x, dtype=float) ** 3,
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
        lo, hi = reach_box(sys, [0.0, 0.0], [1.0, 1.0], sys.inputs[0], 0.7, 5)
        assert np.allclose(lo, [0.0, 0.0]) and np.allclose(hi, [1.0, 1.0])

    def test_contracting_dynamics_matches_closed_form(self):
        sys = decay_system(dim=1)
        lo, hi = reach_box(sys, [-0.5], [0.5], sys.inputs[0], 1.0, 100)
        expect = 0.5 * math.exp(-1.0)
        assert np.allclose(lo, [-expect], atol=1e-6)
        assert np.allclose(hi, [expect], atol=1e-6)

    def test_disturbance_grows_radius_linearly(self):
        sys = ControlSystem(
            1,
            lambda u: lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            [0.1],
            [np.array([0.0])],
            lambda u: np.zeros((1, 1)),
        )
        lo, hi = reach_box(sys, [0.0], [1.0], sys.inputs[0], 2.0, 10)
        assert np.allclose(lo, [-0.2], atol=1e-9)
        assert np.allclose(hi, [1.2], atol=1e-9)


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
            lambda u: lambda x: np.zeros_like(np.asarray(x, dtype=float)),
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
        rngs = [np.random.default_rng(i) for i in range(9)]
        batch = sample_disturbed_step(sys, x0, sys.inputs[4], 0.225, rngs)
        for i in range(9):
            alone = sample_disturbed_step(sys, x0[i], sys.inputs[4], 0.225, i)
            assert np.array_equal(batch[i], alone)
        with pytest.raises(ValueError, match="one generator per row"):
            sample_disturbed_step(sys, x0, sys.inputs[4], 0.225, list(range(8)))

    @pytest.mark.parametrize("system", [dcdc, unicycle])
    def test_draw_stream_matches_per_segment_uniform_reference(self, system):
        # Rows on every layer's period and substep count, each with its
        # own generator: bit-equal states and generators left in step.
        sys = system()
        x0 = np.random.default_rng(5).uniform(0.5, 1.5, size=(7, sys.dim))
        for layer in (1, 2, 3):
            tau, substeps = 0.25 * 2 ** (layer - 1), 5 * 2 ** (layer - 1)
            for u in sys.inputs[::3]:
                seeds = np.random.SeedSequence(layer).spawn(len(x0))
                got_rngs = [np.random.default_rng(s) for s in seeds]
                want_rngs = [np.random.default_rng(s) for s in seeds]
                got = sample_disturbed_step(sys, x0, u, tau, got_rngs, substeps)
                want = sample_disturbed_step_reference(sys, x0, u, tau, want_rngs, substeps)
                assert np.array_equal(got, want)
                assert [r.random() for r in got_rngs] == [r.random() for r in want_rngs]

    @pytest.mark.parametrize("system", [dcdc, unicycle])
    def test_mixed_rows_match_per_period_reference(self, system):
        # One call with an input, a period and a substep count per row, as
        # a closed-loop round makes it, against the reference stepping the
        # rows of each period together: bit-equal states, generators in step.
        sys = system()
        rng = np.random.default_rng(11)
        x0 = rng.uniform(0.5, 1.5, size=(24, sys.dim))
        layer = rng.integers(1, 4, size=24)
        u = np.stack(sys.inputs)[rng.integers(sys.n_inputs, size=24)]
        assert set(layer.tolist()) == {1, 2, 3} and len(np.unique(u, axis=0)) > 1
        seeds = np.random.SeedSequence(11).spawn(24)
        got_rngs = [np.random.default_rng(s) for s in seeds]
        want_rngs = [np.random.default_rng(s) for s in seeds]
        got = sample_disturbed_step(
            sys, x0, u, 0.25 * 2.0 ** (layer - 1), got_rngs, 5 * 2 ** (layer - 1)
        )
        for lv in (1, 2, 3):
            rows = np.flatnonzero(layer == lv)
            want = sample_disturbed_step_reference(
                sys, x0[rows], u[rows], 0.25 * 2 ** (lv - 1),
                [want_rngs[i] for i in rows.tolist()], 5 * 2 ** (lv - 1),
            )
            assert np.array_equal(got[rows], want)
        assert [r.random() for r in got_rngs] == [r.random() for r in want_rngs]

    def test_undisturbed_mixed_rows_draw_nothing(self):
        sys = dataclasses.replace(unicycle(), disturbance=np.zeros(3))
        rng = np.random.default_rng(12)
        x0 = rng.uniform(0.0, 3.0, size=(9, 3))
        layer = np.array([3, 1, 2, 1, 3, 2, 2, 1, 3])
        u = np.stack(sys.inputs)[rng.integers(sys.n_inputs, size=9)]
        tau, substeps = 0.225 * 2.0 ** (layer - 1), 5 * 2 ** (layer - 1)
        rngs = [np.random.default_rng(s) for s in range(9)]
        out = sample_disturbed_step(sys, x0, u, tau, rngs, substeps)
        for i in range(9):
            alone = integrate_nominal(sys, x0[i], u[i], tau[i], int(substeps[i]))
            assert np.array_equal(out[i], alone)
        assert [r.random() for r in rngs] == [np.random.default_rng(s).random() for s in range(9)]

    def test_undisturbed_batch_draws_nothing(self):
        sys = decay_system(dim=2)
        rngs = [np.random.default_rng(s) for s in range(3)]
        x0 = np.array([[1.0, -1.0], [0.5, 0.0], [2.0, 3.0]])
        out = sample_disturbed_step(sys, x0, sys.inputs[0], 0.5, rngs, substeps=7)
        assert np.array_equal(out, integrate_nominal(sys, x0, sys.inputs[0], 0.5, 7))
        assert [r.random() for r in rngs] == [np.random.default_rng(s).random() for s in range(3)]


class TestBoundFields:
    """``vector_field(u)`` binds one held input, or one input per row."""

    def test_dcdc_per_row_field_is_row_wise(self):
        # A row's derivative does not depend on its batch, and it is the
        # held-input field's up to rounding.
        sys = dcdc()
        rng = np.random.default_rng(2)
        x = rng.uniform([1.15, 5.45], [1.55, 5.85], size=(64, 2))
        u = np.stack(sys.inputs)[rng.integers(2, size=64)]
        batch = sys.vector_field(u)(x)
        for i in range(64):
            assert np.array_equal(sys.vector_field(u[i : i + 1])(x[i : i + 1])[0], batch[i])
            held = sys.vector_field(u[i])(x[i])
            # a few ulps: every product term and sum is below 1 here
            assert np.allclose(batch[i], held, rtol=0.0, atol=8 * np.finfo(float).eps)
        for i in range(0, 63, 3):
            assert np.array_equal(sys.vector_field(u[i : i + 3])(x[i : i + 3]), batch[i : i + 3])

    @pytest.mark.parametrize("bad", [0.0, 1.5, 3.0, float("nan")])
    def test_dcdc_rejects_unknown_inputs(self, bad):
        sys = dcdc()
        with pytest.raises(KeyError, match="unknown dcdc input"):
            sys.vector_field(np.array([[1.0], [bad], [2.0]]))
        with pytest.raises(KeyError):
            sys.vector_field(np.array([bad]))

    def test_unicycle_per_row_field_matches_held_inputs(self):
        sys = unicycle()
        rng = np.random.default_rng(4)
        x = rng.uniform(-3.0, 3.0, size=(20, 3))
        u = np.stack(sys.inputs)[rng.integers(sys.n_inputs, size=20)]
        batch = sys.vector_field(u)(x)
        for i in range(20):
            assert np.array_equal(batch[i], sys.vector_field(u[i])(x[i]))


def _containment_trial(sys, lower, upper, tau, seeds, points, rng):
    for u in sys.inputs:
        lo, hi = reach_box(sys, lower, upper, u, tau, 10)
        for s in range(seeds):
            for _ in range(points):
                x0 = rng.uniform(lower, upper)
                x1 = sample_disturbed_step(sys, x0, u, tau, int(rng.integers(2**31)), substeps=10)
                assert np.all((x1 >= lo - 1e-9) & (x1 <= hi + 1e-9)), (
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
        inner_hi = inner_lo + width
        pad = rng.uniform(0.0, width * (scale - 1.0), sys.dim)
        outer_lo, outer_hi = inner_lo - pad, inner_hi + (width * (scale - 1.0) - pad)
        for u in sys.inputs:
            small_lo, small_hi = reach_box(sys, inner_lo, inner_hi, u, tau, 10)
            big_lo, big_hi = reach_box(sys, outer_lo, outer_hi, u, tau, 10)
            assert np.all((small_lo >= big_lo - 1e-9) & (small_hi <= big_hi + 1e-9))

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

import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest

from conftest import (
    UNICYCLE_LAZY,
    UNICYCLE_PARAMS,
    counted_field,
    drift_system,
    linear_system,
    stationary_system,
)
from oracles import integrate_nominal, sample_disturbed_step_reference
from layersynth import (
    ControlSystem,
    IntegrationDivergenceError,
    CellSet,
    LayerStack,
    SynthesisEngine,
    TransitionTable,
    parse_config,
    sample_disturbed_step,
)
from layersynth.dynamics import DISTURBANCE_SEGMENTS, radius_dynamics, reach_boxes
from layersynth.benchmarks import dcdc, default_config, unicycle
from layersynth.controller import serialize, validate
from layersynth.synthesis import synthesize


def reach_box(sys, lower, upper, u, tau, substeps):
    """Reach box of the cell ``[lower, upper]``: a one-row ``reach_boxes`` batch."""
    lower, upper = np.asarray(lower, dtype=float), np.asarray(upper, dtype=float)
    center, half_width = 0.5 * (lower + upper), 0.5 * (upper - lower)
    radius = radius_dynamics(sys, u, half_width, tau, substeps)
    (lo, hi), _ = reach_boxes(sys, center[None, :], radius, [u], tau, substeps)
    return lo[0, 0], hi[0, 0]


def nominal_end(sys, x0, u, tau, substeps):
    """End of the state ``x0`` under ``u``: a zero-radius ``reach_boxes`` box."""
    (lo, _), _ = reach_boxes(sys, [x0], 0.0, [u], tau, substeps)
    return lo[0, 0]


def decay_system(dim=2, disturbance=0.0):
    a = -np.eye(dim)
    return linear_system(a, [np.zeros(dim)], np.full(dim, disturbance))


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

    def test_rejects_a_field_whose_rows_depend_on_their_batch(self):
        # ``u[0]`` applies the first row's input to every row; dcdc's old
        # held field, a batch matrix product, rounds some rows of its second
        # mode unlike the row alone.  Declared or not, both are rejected.
        def first_input(u):
            return lambda x: np.stack(
                [u[0] * np.cos(x[:, 2]), u[0] * np.sin(x[:, 2]), np.zeros(len(x))], axis=-1
            )

        r0, rl, xl, xc = 1.0, 0.05, 3.0, 70.0
        rc = 0.5 * rl
        modes = {
            1.0: np.array([[-rl / xl, 0.0], [0.0, -(1.0 / xc) * (r0 / (r0 + rc))]]),
            2.0: np.array([
                [-(1.0 / xl) * (rl + r0 * rc / (r0 + rc)), (1.0 / 5.0) * (-(1.0 / xl) * (r0 / (r0 + rc)))],
                [5.0 * (r0 / (r0 + rc)) * (1.0 / xc), -(1.0 / xc) * (1.0 / (r0 + rc))],
            ]),
        }

        def matrix_product(u):
            # each input's rows as one held-input batch
            def f(x):
                out = np.empty_like(x)
                for key, a in modes.items():
                    rows = u[:, 0] == key
                    out[rows] = x[rows] @ a.T + np.array([1.0 / xl, 0.0])
                return out

            return f

        d = dcdc()
        cases = [
            ((3, first_input, np.zeros(3), [np.array([0.5]), np.array([-1.0])],
              lambda u: np.zeros((3, 3))), (2,)),
            ((2, matrix_product, d.disturbance, d.inputs, d.growth_matrix), (1,)),
        ]
        for args, reads in cases:
            for declared in (reads, None):
                with pytest.raises(ValueError, match="as it computes that row alone"):
                    ControlSystem(*args, field_reads=declared)

    @pytest.mark.parametrize("reads", [(), (3,), (-1,), (2, 2), (0, 2, 0)])
    def test_rejects_bad_field_reads(self, reads):
        with pytest.raises(ValueError, match="field_reads"):
            dataclasses.replace(unicycle(), field_reads=reads)

    @pytest.mark.parametrize("reads", [(0,), (0, 1)])
    def test_rejects_field_reads_that_leave_out_a_read_coordinate(self, reads):
        # the unicycle field reads the heading, coordinate 2
        with pytest.raises(ValueError, match=r"field_reads .* leaves out a read coordinate"):
            dataclasses.replace(unicycle(), field_reads=reads)

    @pytest.mark.parametrize("reads", [(0, 1, 2), (2, 0, 1)])
    def test_declaring_every_coordinate_is_no_declaration(self, reads):
        assert dataclasses.replace(unicycle(), field_reads=reads).field_reads is None


class TestIntegrateNominal:
    """The program's nominal integration: zero-radius reach boxes."""

    def test_zero_field_is_stationary(self):
        sys = stationary_system()
        out = nominal_end(sys, [1.0, 2.0], sys.inputs[0], 0.5, 4)
        assert np.allclose(out, [1.0, 2.0], atol=0.0)

    def test_linear_decay_matches_closed_form(self):
        sys = decay_system()
        out = nominal_end(sys, [1.0, 1.0], sys.inputs[0], 1.0, 100)
        assert np.allclose(out, [math.exp(-1.0)] * 2, atol=1e-6)

    def test_unicycle_straight_line(self):
        sys = unicycle()
        u = np.array([1.0, 0.0])
        out = nominal_end(sys, [0.0, 0.0, 0.0], u, 0.225, 5)
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
                nominal_end(blow, [50.0], blow.inputs[0], 50.0, 3)

    def test_rk4_is_fourth_order(self):
        # halving the step scales the error by ~1/16 over a decade of substeps
        sys = decay_system(dim=1)
        exact = math.exp(-1.0)
        errors = []
        for steps in (2, 4, 8, 16, 32, 64):
            out = nominal_end(sys, [1.0], sys.inputs[0], 1.0, steps)
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

    def test_integrators_leave_their_arguments_unchanged(self):
        # The RK4 kernel advances arrays of the integrator's own: a
        # cell's half widths, the centres and each free axis's start
        # values keep their bits.
        sys = unicycle()
        half_width = np.array([0.1, 0.1, 0.05])
        centers = np.array([[1.0, 2.0, 0.3], [1.5, 2.5, -0.4]])
        start = [np.array([1.0, 1.2, 1.5]), np.array([2.0, 2.5, 2.7])]
        kept = [a.copy() for a in (half_width, centers, *start)]
        radius = radius_dynamics(sys, sys.inputs[3], half_width, 0.45, 5)
        free = [(axis, s, np.array([0, 0, 1])) for axis, s in enumerate(start)]
        reach_boxes(sys, centers, radius, sys.inputs, 0.45, 5, free)
        assert not np.shares_memory(radius, half_width)
        assert all(same_bits(a, b) for a, b in zip((half_width, centers, *start), kept))

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


def unit_draws(seed, *shape):
    """Unit draws for :func:`sample_disturbed_step`: ``shape`` blocks of
    ``(DISTURBANCE_SEGMENTS, dim)`` from ``default_rng(seed)``."""
    return np.random.default_rng(seed).random(shape[:-1] + (DISTURBANCE_SEGMENTS, shape[-1]))


class TestSampleDisturbedStep:
    def test_zero_disturbance_equals_nominal(self):
        # a zero bound reads no draws
        sys = decay_system(dim=2)
        for substeps in (1, 7, 23):
            a = sample_disturbed_step(sys, [1.0, -1.0], sys.inputs[0], 0.5, None, substeps)
            b = integrate_nominal(sys, [1.0, -1.0], sys.inputs[0], 0.5, substeps)
            assert np.array_equal(a, b)

    def test_displacement_bounded_by_disturbance(self):
        sys = ControlSystem(
            1,
            lambda u: lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            [0.1],
            [np.array([0.0])],
            lambda u: np.zeros((1, 1)),
        )
        extremes = [np.full((DISTURBANCE_SEGMENTS, 1), v) for v in (0.0, 1.0 - 2.0**-53)]
        for draws in [unit_draws(seed, 1) for seed in range(50)] + extremes:
            out = sample_disturbed_step(sys, [2.0], sys.inputs[0], 1.0, draws)
            assert 1.9 - 1e-12 <= out[0] <= 2.1 + 1e-12

    def test_same_seed_same_result(self):
        sys = dcdc()
        a = sample_disturbed_step(sys, [1.2, 5.6], sys.inputs[1], 0.0625, unit_draws(42, 2))
        b = sample_disturbed_step(sys, [1.2, 5.6], sys.inputs[1], 0.0625, unit_draws(42, 2))
        assert np.array_equal(a, b)

    def test_batch_rows_step_as_they_would_alone(self):
        sys = unicycle()
        x0 = np.random.default_rng(3).uniform(0.0, 3.0, size=(9, 3))
        draws = unit_draws(4, 9, 3)
        batch = sample_disturbed_step(sys, x0, sys.inputs[4], 0.225, draws)
        for i in range(9):
            alone = sample_disturbed_step(sys, x0[i], sys.inputs[4], 0.225, draws[i])
            assert np.array_equal(batch[i], alone)
        for bad in (draws[:8], draws[:, :, :2], draws[0]):
            with pytest.raises(ValueError, match="one block per state"):
                sample_disturbed_step(sys, x0, sys.inputs[4], 0.225, bad)
        # A single state and a mixed-period batch keep the bits of their
        # arguments and return fresh memory; a one-row batch of any row
        # ends on the single state's bits, and on the batch's.
        layer = np.array([3, 1, 2, 1, 3, 2, 2, 1, 3])
        u = np.stack(sys.inputs)[np.arange(9) % sys.n_inputs]
        tau, substeps = 0.225 * 2.0 ** (layer - 1), 5 * 2 ** (layer - 1)
        for args in ((x0[4], u[4], tau[4], draws[4], substeps[4]), (x0, u, tau, draws, substeps)):
            x_was, draws_was = args[0].copy(), args[3].copy()
            out = sample_disturbed_step(sys, *args)
            assert same_bits(args[0], x_was) and same_bits(args[3], draws_was)
            assert not np.shares_memory(out, args[0])
        for i in range(9):
            alone = sample_disturbed_step(sys, x0[i], u[i], tau[i], draws[i], substeps[i])
            rows = slice(i, i + 1)
            one = sample_disturbed_step(sys, x0[rows], u[rows], tau[rows], draws[rows], substeps[rows])
            assert one.shape == (1, 3) and same_bits(one[0], alone) and same_bits(out[i], alone)

    @pytest.mark.parametrize("system", [dcdc, unicycle])
    def test_draw_stream_matches_per_segment_uniform_reference(self, system):
        # Rows on every layer's period and substep count, each with unit
        # draws from its own generator: bit-equal to per-segment uniform
        # draws, and the reference's generators left in step.
        sys = system()
        x0 = np.random.default_rng(5).uniform(0.5, 1.5, size=(7, sys.dim))
        for layer in (1, 2, 3):
            tau, substeps = 0.25 * 2 ** (layer - 1), 5 * 2 ** (layer - 1)
            for u in sys.inputs[::3]:
                seeds = np.random.SeedSequence(layer).spawn(len(x0))
                got_rngs = [np.random.default_rng(s) for s in seeds]
                want_rngs = [np.random.default_rng(s) for s in seeds]
                draws = np.stack([r.random((DISTURBANCE_SEGMENTS, sys.dim)) for r in got_rngs])
                got = sample_disturbed_step(sys, x0, u, tau, draws, substeps)
                want = sample_disturbed_step_reference(sys, x0, u, tau, want_rngs, substeps)
                assert np.array_equal(got, want)
                assert [r.random() for r in got_rngs] == [r.random() for r in want_rngs]

    @pytest.mark.parametrize("system", [dcdc, unicycle])
    def test_mixed_rows_match_per_period_reference(self, system):
        # One call with an input, a period and a substep count per row, as
        # a closed-loop round makes it, against the reference stepping the
        # rows of each period together: bit-equal states.
        sys = system()
        rng = np.random.default_rng(11)
        x0 = rng.uniform(0.5, 1.5, size=(24, sys.dim))
        layer = rng.integers(1, 4, size=24)
        u = np.stack(sys.inputs)[rng.integers(sys.n_inputs, size=24)]
        assert set(layer.tolist()) == {1, 2, 3} and len(np.unique(u, axis=0)) > 1
        seeds = np.random.SeedSequence(11).spawn(24)
        draws = np.stack(
            [np.random.default_rng(s).random((DISTURBANCE_SEGMENTS, sys.dim)) for s in seeds]
        )
        got = sample_disturbed_step(
            sys, x0, u, 0.25 * 2.0 ** (layer - 1), draws, 5 * 2 ** (layer - 1)
        )
        for lv in (1, 2, 3):
            rows = np.flatnonzero(layer == lv)
            want = sample_disturbed_step_reference(
                sys, x0[rows], u[rows], 0.25 * 2 ** (lv - 1),
                [np.random.default_rng(seeds[i]) for i in rows.tolist()], 5 * 2 ** (lv - 1),
            )
            assert np.array_equal(got[rows], want)

    def test_undisturbed_mixed_rows_draw_nothing(self):
        sys = dataclasses.replace(unicycle(), disturbance=np.zeros(3))
        rng = np.random.default_rng(12)
        x0 = rng.uniform(0.0, 3.0, size=(9, 3))
        layer = np.array([3, 1, 2, 1, 3, 2, 2, 1, 3])
        u = np.stack(sys.inputs)[rng.integers(sys.n_inputs, size=9)]
        tau, substeps = 0.225 * 2.0 ** (layer - 1), 5 * 2 ** (layer - 1)
        out = sample_disturbed_step(sys, x0, u, tau, None, substeps)
        for i in range(9):
            alone = integrate_nominal(sys, x0[i], u[i], tau[i], int(substeps[i]))
            assert np.array_equal(out[i], alone)

    def test_undisturbed_batch_draws_nothing(self):
        # draws of any shape and value are not read
        sys = decay_system(dim=2)
        x0 = np.array([[1.0, -1.0], [0.5, 0.0], [2.0, 3.0]])
        want = integrate_nominal(sys, x0, sys.inputs[0], 0.5, 7)
        for draws in (None, np.full((1, 1), np.nan)):
            out = sample_disturbed_step(sys, x0, sys.inputs[0], 0.5, draws, substeps=7)
            assert np.array_equal(out, want)

    @pytest.mark.parametrize("substeps", [2.5, [5, 7.5], True, [5, 0], None])
    def test_rejects_substeps_that_are_not_counts(self, substeps):
        # Before any bind or step, for a count given once or per row.
        sys, calls = counted_field(dcdc())
        x0 = np.array([[1.2, 5.6], [1.3, 5.7]])
        with pytest.raises(ValueError, match="substeps must be integers >= 1"):
            sample_disturbed_step(sys, x0, sys.inputs[0], 0.5, unit_draws(1, 2, 2), substeps)
        assert calls == [0, 0]

    @pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf, 0.0, [0.5, math.nan]])
    def test_rejects_periods_that_are_not_finite_and_positive(self, tau):
        sys, calls = counted_field(dcdc())
        x0 = np.array([[1.2, 5.6], [1.3, 5.7]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="tau must be finite and positive"):
                sample_disturbed_step(sys, x0, sys.inputs[0], tau, unit_draws(1, 2, 2), 5)
        assert calls == [0, 0]

    def test_a_field_that_returns_its_argument_is_never_written(self):
        # f(x) = x: every derivative is the very state it is given, so an
        # integrator that wrote into a derivative would corrupt its state.
        # A mixed-period batch ends where the per-row references, which
        # write nothing in place, end, bit for bit; so do reach boxes and
        # undisturbed steps.
        sys = ControlSystem(
            2, lambda u: lambda x: x, [0.01, 0.02], [np.array([0.0]), np.array([1.0])],
            lambda u: np.eye(2),
        )
        rng = np.random.default_rng(13)
        x0 = rng.uniform(-1.0, 1.0, size=(9, 2))
        layer = np.array([3, 1, 2, 1, 3, 2, 2, 1, 3])
        u = np.stack(sys.inputs)[np.arange(9) % 2]
        tau, substeps = 0.25 * 2.0 ** (layer - 1), 5 * 2 ** (layer - 1)
        seeds = np.random.SeedSequence(13).spawn(9)
        draws = np.stack(
            [np.random.default_rng(s).random((DISTURBANCE_SEGMENTS, 2)) for s in seeds]
        )
        got = sample_disturbed_step(sys, x0, u, tau, draws, substeps)
        still = dataclasses.replace(sys, disturbance=np.zeros(2))
        nominal = sample_disturbed_step(still, x0, u, tau, None, substeps)
        (ends, _), _ = reach_boxes(sys, x0, 0.0, sys.inputs, 0.5, 7)
        for i in range(9):
            rngs = [np.random.default_rng(seeds[i])]
            want = sample_disturbed_step_reference(
                sys, x0[i : i + 1], u[i], tau[i], rngs, int(substeps[i])
            )
            assert same_bits(got[i], want[0])
            want = integrate_nominal(still, x0[i], u[i], tau[i], int(substeps[i]))
            assert same_bits(nominal[i], want)
            for j, uj in enumerate(sys.inputs):
                assert same_bits(ends[j, i], integrate_nominal(sys, x0[i], uj, 0.5, 7))


class TestBoundFields:
    """``vector_field(u)`` binds one input per row."""

    def test_dcdc_per_row_field_is_row_wise(self):
        # A row's derivative does not depend on its batch.
        sys = dcdc()
        rng = np.random.default_rng(2)
        x = rng.uniform([1.15, 5.45], [1.55, 5.85], size=(64, 2))
        u = np.stack(sys.inputs)[rng.integers(2, size=64)]
        batch = sys.vector_field(u)(x)
        for i in range(64):
            assert np.array_equal(sys.vector_field(u[i : i + 1])(x[i : i + 1])[0], batch[i])
        for i in range(0, 63, 3):
            assert np.array_equal(sys.vector_field(u[i : i + 3])(x[i : i + 3]), batch[i : i + 3])

    def test_dcdc_field_rounds_as_the_column_form(self):
        # The shipped field takes same-shape products; the column form
        # ``x0 * A[:, 0] + x1 * A[:, 1] + b`` of each mode's matrix, built
        # here from the converter's parameters, ends on the same bits, in a
        # batch and row by row, over states of many magnitudes and signs.
        r0, vs, rl, xl, xc = 1.0, 1.0, 0.05, 3.0, 70.0
        rc = 0.5 * rl
        g = r0 / (r0 + rc)
        modes = {
            1.0: np.array([[-rl / xl, 0.0], [0.0, -(1.0 / xc) * g]]),
            2.0: np.array([
                [-(1.0 / xl) * (rl + r0 * rc / (r0 + rc)), (1.0 / 5.0) * (-(1.0 / xl) * g)],
                [5.0 * g * (1.0 / xc), -(1.0 / xc) * (1.0 / (r0 + rc))],
            ]),
        }
        b = np.array([vs / xl, 0.0])
        field = dcdc().vector_field
        rng = np.random.default_rng(30)
        for mode, a in modes.items():
            x = rng.standard_normal((4096, 2)) * 10.0 ** rng.integers(-6, 7, size=(4096, 2))
            u = np.full((4096, 1), mode)
            want = x[:, :1] * a[:, 0] + x[:, 1:] * a[:, 1] + b
            assert same_bits(field(u)(x), want)
            alone = [field(u[i : i + 1])(x[i : i + 1])[0] for i in range(4096)]
            assert same_bits(np.stack(alone), want)

    @pytest.mark.parametrize("bad", [0.0, 1.5, 3.0, float("nan")])
    def test_dcdc_rejects_unknown_inputs(self, bad):
        sys = dcdc()
        with pytest.raises(KeyError, match="unknown dcdc input"):
            sys.vector_field(np.array([[1.0], [bad], [2.0]]))
        with pytest.raises(KeyError):
            sys.vector_field(np.array([[bad]]))

    def test_synthesis_and_validation_bind_rows_only(self):
        # A unicycle whose field raises unless ``u`` and ``x`` are 2-D:
        # every integrator binds one input per row, states as rows.
        config = parse_config(UNICYCLE_LAZY)
        plain = config.build_system()

        def field(u):
            assert np.ndim(u) == 2, f"input of shape {np.shape(u)}"
            f = plain.vector_field(u)

            def rows(x):
                assert np.ndim(x) == 2, f"state of shape {np.shape(x)}"
                return f(x)

            return rows

        sys = dataclasses.replace(plain, vector_field=field)
        stack, spec = config.build_stack(), config.build_spec()
        controllers = []
        for algorithm in ("lazy-reach", "eager-reach"):
            result = synthesize(sys, stack, spec, algorithm, config.m, config.substeps)
            controllers.append(serialize(result.controller))
            report = validate(result.controller, sys, spec, 50, 200, 0)
            assert report.executed == 50 and report.violations == 0
        assert controllers[0] == controllers[1]

    def test_dcdc_reach_ends_do_not_depend_on_the_batch(self):
        # Layer-1 centers of dcdc-desk: every sampled row integrated alone
        # ends bit for bit where it ends in the batch of all centers.
        config = parse_config(default_config("dcdc-desk"))
        sys, stack = config.build_system(), config.build_stack()
        centers = stack.centers(1, np.arange(stack.cell_count(1)))
        (ends, _), _ = reach_boxes(sys, centers, 0.0, sys.inputs, stack.tau(1), config.substeps)
        rows = np.random.default_rng(25).choice(len(centers), size=512, replace=False)
        for i in rows.tolist():
            (alone, _), _ = reach_boxes(
                sys, centers[i : i + 1], 0.0, sys.inputs, stack.tau(1), config.substeps
            )
            assert same_bits(alone[:, 0], ends[:, i]), f"center {i}"


def _containment_trial(sys, lower, upper, tau, seeds, points, rng):
    for u in sys.inputs:
        lo, hi = reach_box(sys, lower, upper, u, tau, 10)
        for s in range(seeds):
            for _ in range(points):
                x0 = rng.uniform(lower, upper)
                draws = unit_draws(int(rng.integers(2**31)), sys.dim)
                x1 = sample_disturbed_step(sys, x0, u, tau, draws, substeps=10)
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


def same_bits(a, b):
    """Equal float arrays, bit for bit: ``-0.0`` is not ``0.0``."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestFieldReads:
    """A declared system integrates each distinct value of the coordinates
    its field reads once, and each free axis once per (start value,
    representative); every state ends bit for bit where its own
    integration ends it."""

    @pytest.mark.parametrize("params", [None, UNICYCLE_PARAMS])
    def test_unicycle_field_reads_only_the_heading(self, params):
        sys = unicycle(params)
        assert sys.field_reads == (2,)
        rng = np.random.default_rng(21)
        x = rng.uniform(-3.2, 6.4, size=(40, 3))
        moved = x.copy()
        other = [i for i in range(sys.dim) if i not in sys.field_reads]
        moved[:, other] = rng.uniform(-1e3, 1e3, size=(40, len(other)))
        for u in sys.inputs:
            f = sys.vector_field(np.tile(u, (40, 1)))
            assert same_bits(f(x), f(moved))
        per_row = sys.vector_field(np.stack(sys.inputs)[rng.integers(sys.n_inputs, size=40)])
        assert same_bits(per_row(x), per_row(moved))

    def _assert_shared_ends_alone(self, sys, states, tau, substeps):
        # Representatives keyed by the bit patterns of the read
        # coordinates, so -0.0 and 0.0 stay apart; every state is its own
        # entry on each free axis.
        reads = list(sys.field_reads)
        keys = np.ascontiguousarray(states[:, reads]).view(np.int64)
        _, first, of = np.unique(keys, axis=0, return_index=True, return_inverse=True)
        of = of.reshape(-1)
        free = [(a, states[:, a], of) for a in range(sys.dim) if a not in reads]
        (ends, _), tables = reach_boxes(sys, states[first], 0.0, sys.inputs, tau, substeps, free)
        assert first.size < len(states) or len(states) == 1
        for i, u in enumerate(sys.inputs):
            alone = integrate_nominal(sys, states, u, tau, substeps)
            assert same_bits(ends[i][of][:, reads], alone[:, reads])
            for (a, _, _), (t, _) in zip(free, tables):
                assert same_bits(t[i], alone[:, a])

    def test_every_cell_center_of_the_unicycle_lazy_stack(self):
        config = parse_config(UNICYCLE_LAZY)
        sys, stack = config.build_system(), config.build_stack()
        for layer in range(1, stack.levels + 1):
            centers = stack.centers(layer, np.arange(stack.cell_count(layer)))
            self._assert_shared_ends_alone(sys, centers, stack.tau(layer), 5 * 2 ** (layer - 1))

    def test_off_grid_centers_with_repeated_headings(self):
        # both signed zeros among the headings
        sys = unicycle()
        rng = np.random.default_rng(22)
        headings = np.concatenate([[0.0, -0.0], rng.uniform(-3.2, 3.2, size=5)])
        centers = rng.uniform(0.0, 6.4, size=(300, 3))
        centers[:, 2] = headings[rng.integers(headings.size, size=300)]
        for tau, substeps in ((0.45, 5), (1.8, 20), (0.1, 1)):
            self._assert_shared_ends_alone(sys, centers, tau, substeps)

    def test_one_row_batch(self):
        sys = unicycle()
        self._assert_shared_ends_alone(sys, np.array([[1.3, 4.1, -0.7]]), 0.45, 5)

    def test_several_read_coordinates(self):
        # keys are rows of two coordinates; the third is never read
        def field(u):
            return lambda x: np.stack(
                [u[..., 0] * np.sin(x[..., 1]) * x[..., 2], np.cos(x[..., 2]), 0.5 * x[..., 1]],
                axis=-1,
            )

        sys = ControlSystem(
            3, field, np.zeros(3), [np.array([0.5]), np.array([-1.0])],
            lambda u: np.zeros((3, 3)), field_reads=(2, 1),
        )
        generic = dataclasses.replace(sys, field_reads=None)
        rng = np.random.default_rng(23)
        pairs = rng.uniform(-1.0, 1.0, size=(6, 2))
        centers = rng.uniform(-1.0, 1.0, size=(200, 3))
        centers[:, 1:] = pairs[rng.integers(6, size=200)]
        self._assert_shared_ends_alone(sys, centers, 0.3, 7)
        # transition tables key cells by their indices on both read axes
        stack = LayerStack(2, [0.25, 0.5, 0.5], 0.3, [-1.0] * 3, [1.0] * 3)
        for layer, kind in itertools.product((1, 2), ("main", "aux")):
            a, b = (TransitionTable(s, stack, layer, kind, 7) for s in (sys, generic))
            for table in (a, b):
                table.compute_region(CellSet.full(stack, table.grid_layer))
            assert_same_tables(a, b)

    def test_lazy_reach_tables_store_the_generic_boxes(self):
        # Lazy and eager reach, under the default and other dynamics
        # params: every table equals the undeclared system's, in storage
        # order, explored bits included.
        for params in (None, UNICYCLE_PARAMS):
            config = parse_config({**UNICYCLE_LAZY, "dynamics_params": params})
            sys, stack, spec = config.build_system(), config.build_stack(), config.build_spec()
            for lazy in (True, False):
                engines = [
                    SynthesisEngine(s, stack, spec, m=config.m, substeps=config.substeps)
                    for s in (sys, dataclasses.replace(sys, field_reads=None))
                ]
                (won, _), (won_generic, _) = (e.reach_iteration(lazy=lazy) for e in engines)
                assert np.array_equal(won.bits, won_generic.bits)
                shared, generic = engines
                # only lazy runs build aux tables
                assert shared.aux.keys() == generic.aux.keys()
                assert bool(shared.aux) == lazy
                tables = list(zip(shared.main, generic.main))
                tables += [(shared.aux[l], generic.aux[l]) for l in shared.aux]
                for a, b in tables:
                    assert_same_tables(a, b)
        # One-cell calls, and batches smaller than one free axis's table
        # (a layer-1 axis has 32 cells), on every main and aux table.
        config = parse_config(UNICYCLE_LAZY)
        sys, stack = config.build_system(), config.build_stack()
        generic = dataclasses.replace(sys, field_reads=None)
        rng = np.random.default_rng(24)
        for layer in range(1, stack.levels + 1):
            for kind in ("main", "aux"):
                a, b = (TransitionTable(s, stack, layer, kind, config.substeps) for s in (sys, generic))
                cells = rng.permutation(a.n_cells)[:40]
                batches = [cells[i : i + 1] for i in range(5)] + [cells[5:8], cells[8:40]]
                for batch in batches:
                    region = CellSet.from_indices(stack, a.grid_layer, batch)
                    a.compute_region(region)
                    b.compute_region(region)
                    assert_same_tables(a, b)


def assert_same_tables(a, b):
    """Equal explored bits, and every input's boxes equal in storage order."""
    assert np.array_equal(a._explored, b._explored)
    assert a.explored_count == b.explored_count
    for u in range(a.sys.n_inputs):
        for x, y in zip(a.csr(u), b.csr(u)):
            assert x.dtype == y.dtype and np.array_equal(x, y)

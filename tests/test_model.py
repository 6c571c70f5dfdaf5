"""Model types, evaluation, constraint residuals, and the synthetic generators."""

from __future__ import annotations

import dataclasses
import math
import re

import numpy as np
import pytest

from ifreq import (
    FreqPair,
    HarmonicSeriesSpec,
    InvalidParameterError,
    InvalidSpecError,
    ModelParams,
    SampledCycle,
    constraint_residuals,
    evaluate_model,
    fast_if,
    grid_counts,
    reduce_constraints,
    solve_inner,
    synthesize_appendix_cycle,
    synthesize_cycle,
)

from conftest import DT, T, T0, constrained_params, make_cycle, rotate_to_absolute


def quarter_period_freqs() -> FreqPair:
    # omega1*T0 = omega2*(T-T0) = pi/2: cosines vanish, sines are 1
    return FreqPair.from_dimensionless(0.5, 0.5, T0, T)


class TestSampledCycle:
    def test_derived_geometry(self):
        cycle = SampledCycle(np.zeros(501), dt=0.002, n=181, m=320)
        assert cycle.T0 == pytest.approx(0.36, abs=1e-15)
        assert cycle.T == pytest.approx(1.0, abs=1e-15)
        assert cycle.t1[0] == 0.0
        assert cycle.t1[-1] == pytest.approx(cycle.T0)
        assert cycle.t2[0] == pytest.approx(0.002)
        assert cycle.t2[-1] == pytest.approx(cycle.T - cycle.T0)

    def test_segment_minimums(self):
        with pytest.raises(InvalidParameterError):
            SampledCycle(np.zeros(5), dt=0.01, n=2, m=3)
        with pytest.raises(InvalidParameterError):
            SampledCycle(np.zeros(5), dt=0.01, n=3, m=2)

    def test_length_mismatch(self):
        with pytest.raises(InvalidParameterError):
            SampledCycle(np.zeros(10), dt=0.01, n=3, m=3)

    def test_non_finite_samples(self):
        samples = np.zeros(8)
        samples[4] = np.nan
        with pytest.raises(InvalidParameterError):
            SampledCycle(samples, dt=0.01, n=4, m=4)

    def test_immutable(self):
        cycle = SampledCycle(np.zeros(8), dt=0.01, n=4, m=4)
        with pytest.raises(ValueError):
            cycle.samples[0] = 1.0

    @pytest.mark.parametrize(
        "samples, dt, message",
        [
            (np.zeros((2, 4)), 0.01, "samples must be one-dimensional"),
            (np.zeros(8), 0.0, "dt must be > 0, got 0.0"),
            (np.zeros(8), -0.01, "dt must be > 0, got -0.01"),
        ],
    )
    def test_bad_shape_or_step_rejected(self, samples, dt, message):
        with pytest.raises(InvalidParameterError, match=re.escape(message)):
            SampledCycle(samples, dt=dt, n=4, m=4)

    def test_time_grids_are_computed_once_and_read_only(self):
        cycle = SampledCycle(np.zeros(8), dt=0.01, n=4, m=4)
        assert cycle.t1.tobytes() == (0.01 * np.arange(4)).tobytes()
        assert cycle.t2.tobytes() == (0.01 * np.arange(1, 5)).tobytes()
        assert cycle.t1 is cycle.t1 and cycle.t2 is cycle.t2
        for grid in (cycle.t1, cycle.t2):
            with pytest.raises(ValueError):
                grid[0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            cycle.t1 = np.zeros(4)

    def test_other_types_are_not_equal_and_repr_names_the_geometry(self):
        cycle = SampledCycle(np.zeros(501), dt=0.002, n=181, m=320)
        assert cycle.__eq__(3) is NotImplemented
        assert (cycle == 3) is False
        assert repr(cycle) == "SampledCycle(n=181, m=320, dt=0.002, T0=0.36, T=1)"


class TestFreqPair:
    @pytest.mark.parametrize("omega1, omega2", [(0.0, 1.0), (1.0, -2.0)])
    def test_rejects_nonpositive_frequencies(self, omega1, omega2):
        with pytest.raises(InvalidParameterError, match="frequencies must be > 0"):
            FreqPair(omega1, omega2)


class TestModelParams:
    def test_rejects_nonpositive_frequencies(self):
        with pytest.raises(InvalidParameterError):
            ModelParams(1, 0, 1, 0, 0, omega1=0.0, omega2=1.0)
        with pytest.raises(InvalidParameterError):
            ModelParams(1, 0, 1, 0, 0, omega1=1.0, omega2=-2.0)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidParameterError):
            ModelParams(math.inf, 0, 1, 0, 0, 1.0, 1.0)


class TestEvaluateModel:
    def test_first_sample_is_a1_plus_pbar(self):
        # t = 0 forces cos = 1 and sin = 0, regardless of b's and frequencies
        params = ModelParams(a1=2.0, b1=-3.7, a2=1.1, b2=0.4, pbar=5.0, omega1=9.0, omega2=4.0)
        out = evaluate_model(params, dt=0.002, n=181, m=320)
        assert out[0] == 7.0

    def test_zero_envelopes_give_constant(self):
        params = ModelParams(0, 0, 0, 0, pbar=3.0, omega1=5.0, omega2=7.0)
        out = evaluate_model(params, dt=0.01, n=10, m=15)
        assert np.all(out == 3.0)

    def test_linearity_in_envelopes_and_offset(self, rng):
        for _ in range(20):
            w1, w2 = rng.uniform(3, 15, size=2)
            th1 = rng.normal(size=5)
            th2 = rng.normal(size=5)
            lam, mu = rng.normal(size=2)
            combo = lam * th1 + mu * th2
            mk = lambda th: ModelParams(th[0], th[1], th[2], th[3], th[4], w1, w2)
            s1 = evaluate_model(mk(th1), DT, 40, 60)
            s2 = evaluate_model(mk(th2), DT, 40, 60)
            s_combo = evaluate_model(mk(combo), DT, 40, 60)
            np.testing.assert_allclose(s_combo, lam * s1 + mu * s2, atol=1e-12 * 100)

    def test_segment_locality(self):
        base = ModelParams(2.0, 1.0, -1.0, 0.5, 10.0, 8.0, 5.0)
        other = ModelParams(2.0, 1.0, 3.0, -2.0, 10.0, 8.0, 11.0)
        n, m = 50, 70
        np.testing.assert_array_equal(
            evaluate_model(base, DT, n, m)[:n], evaluate_model(other, DT, n, m)[:n]
        )
        base2 = ModelParams(-4.0, 0.3, -1.0, 0.5, 10.0, 2.0, 5.0)
        np.testing.assert_array_equal(
            evaluate_model(base, DT, n, m)[n:], evaluate_model(base2, DT, n, m)[n:]
        )

    def test_fit_roundtrip_reproduces_objective(self, rng):
        # coefficients returned by the inner solve re-evaluate to a curve whose
        # residual sum of squares equals the reported objective
        cycle, _ = make_cycle(1.1, 2.3, noise_sigma=1.5, seed=3)
        freqs = FreqPair.from_dimensionless(0.85, 1.6, T0, T)
        sol = solve_inner(freqs, cycle)
        params = ModelParams(sol.a1, sol.b1, sol.a2, sol.b2, sol.pbar, freqs.omega1, freqs.omega2)
        fitted = evaluate_model(params, cycle.dt, cycle.n, cycle.m)
        rss = float(np.sum((fitted - cycle.samples) ** 2))
        assert rss == pytest.approx(sol.objective_value, rel=1e-10)

    def test_geometry_validation(self):
        params = ModelParams(1, 0, 1, 0, 0, 1.0, 1.0)
        with pytest.raises(InvalidParameterError):
            evaluate_model(params, dt=0.01, n=0, m=5)
        with pytest.raises(InvalidParameterError):
            evaluate_model(params, dt=-0.01, n=5, m=5)


class TestConstraintResiduals:
    def test_quarter_period_swap(self):
        freqs = quarter_period_freqs()
        params = ModelParams(5.0, 3.0, 3.0, 5.0, 0.0, freqs.omega1, freqs.omega2)
        continuity, periodicity = constraint_residuals(params, T0, T)
        assert continuity == pytest.approx(0.0, abs=1e-12)
        assert periodicity == pytest.approx(0.0, abs=1e-12)

    def test_zero_envelopes(self):
        params = ModelParams(0, 0, 0, 0, 7.0, 9.0, 4.0)
        assert constraint_residuals(params, T0, T) == (0.0, 0.0)

    def test_elimination_is_exact(self, rng):
        for _ in range(50):
            u1 = rng.uniform(0.5, 1.5)
            u2 = rng.uniform(0.5, 3.0)
            freqs = FreqPair.from_dimensionless(u1, u2, T0, T)
            cc = math.cos(freqs.omega1 * T0) * math.cos(freqs.omega2 * (T - T0))
            if abs(1.0 - cc) <= 1e-3:
                continue
            b1, b2 = rng.normal(size=2) * 10
            a1, a2 = reduce_constraints(freqs, b1, b2, T0, T)
            params = ModelParams(a1, b1, a2, b2, 50.0, freqs.omega1, freqs.omega2)
            continuity, periodicity = constraint_residuals(params, T0, T)
            scale = params.envelope_scale
            assert abs(continuity) <= 1e-12 * scale
            assert abs(periodicity) <= 1e-12 * scale


class TestSynthesizeCycle:
    def test_noiseless_equals_evaluate(self):
        params = constrained_params(1.2, 2.4)
        cycle = synthesize_cycle(params, T0, T, DT)
        np.testing.assert_array_equal(
            cycle.samples, evaluate_model(params, DT, cycle.n, cycle.m)
        )

    def test_seeded_determinism(self):
        params = constrained_params(0.9, 1.8)
        one = synthesize_cycle(params, T0, T, DT, noise_sigma=0.5, rng=42)
        two = synthesize_cycle(params, T0, T, DT, noise_sigma=0.5, rng=42)
        assert one == two

    def test_rejects_constraint_violation(self):
        with pytest.raises(InvalidParameterError):
            synthesize_cycle(
                ModelParams(5.0, 1.0, -3.0, 2.0, 0.0, 9.0, 6.0), T0, T, DT
            )

    def test_rejects_negative_noise(self):
        params = constrained_params(1.2, 2.4)
        with pytest.raises(InvalidParameterError):
            synthesize_cycle(params, T0, T, DT, noise_sigma=-1.0)

    def test_noiseless_recovery_end_to_end(self):
        cycle, params = make_cycle(1.17, 2.06, b1=0.4, b2=1.0)
        outcome = fast_if(cycle)
        u1, u2 = outcome.dimensionless(cycle)
        truth = params.freqs.dimensionless(T0, T)
        assert abs(u1 - truth[0]) <= 0.002
        assert abs(u2 - truth[1]) <= 0.002

    def test_grid_counts_snapping(self):
        assert grid_counts(0.36, 1.0, 0.002) == (181, 320)
        n, m = grid_counts(0.3612, 1.0, 0.002)
        assert (n - 1) * 0.002 == pytest.approx(0.362)
        assert n + m == 501

    @pytest.mark.parametrize(
        "t0, t_period, dt, message",
        [
            (0.36, 1.0, 0.0, "dt must be finite and > 0, got 0.0"),
            (0.36, 1.0, math.inf, "dt must be finite and > 0, got inf"),
            (1.0, 1.0, 0.002, "need 0 < T0 < T, got T0=1.0, T=1.0"),
        ],
    )
    def test_grid_counts_rejects_bad_geometry(self, t0, t_period, dt, message):
        with pytest.raises(InvalidParameterError, match=re.escape(message)):
            grid_counts(t0, t_period, dt)


class TestSynthesizeAppendixCycle:
    def test_single_terms_match_piecewise_model(self):
        params = constrained_params(1.1, 2.2, b1=0.8, b2=0.5)
        amp_sin, amp_cos = rotate_to_absolute(params.a2, params.b2, params.omega2, T0)
        spec = HarmonicSeriesSpec(
            pbar=params.pbar,
            damping_ratio=0.0,
            systolic_terms=((params.b1, params.a1, params.omega1),),
            diastolic_terms=((amp_sin, amp_cos, params.omega2),),
        )
        from_series = synthesize_appendix_cycle(spec, T0, T, DT)
        from_model = synthesize_cycle(params, T0, T, DT)
        assert from_series.n == from_model.n
        np.testing.assert_allclose(from_series.samples, from_model.samples, atol=1e-12 * 100)

    def test_damping_deviation_bounded(self):
        terms_sys = ((4.0, 3.0, 8.0), (1.0, -0.5, 16.0))
        terms_dia = ((-2.0, 5.0, 6.0),)
        damped = synthesize_appendix_cycle(
            HarmonicSeriesSpec(100.0, 0.1, terms_sys, terms_dia), T0, T, DT
        )
        undamped = synthesize_appendix_cycle(
            HarmonicSeriesSpec(100.0, 0.0, terms_sys, terms_dia), T0, T, DT
        )
        deviation = np.max(np.abs(damped.samples - undamped.samples))
        oscillation = np.max(np.abs(undamped.samples - 100.0))
        assert deviation <= (1.0 - math.exp(-0.1)) * oscillation + 1e-12

    def test_empty_terms_rejected(self):
        with pytest.raises(InvalidSpecError):
            HarmonicSeriesSpec(0.0, 0.0, (), ((1.0, 1.0, 5.0),))

    @pytest.mark.parametrize(
        "damping, terms, message",
        [
            (-0.1, ((1.0, 1.0, 5.0),), "damping_ratio must be >= 0, got -0.1"),
            (0.0, ((1.0, math.nan, 5.0),), "non-finite entry in systolic_terms"),
            (0.0, ((1.0, 1.0, 0.0),), "term frequencies must be > 0, got 0.0"),
        ],
    )
    def test_bad_spec_rejected(self, damping, terms, message):
        with pytest.raises(InvalidSpecError, match=re.escape(message)):
            HarmonicSeriesSpec(100.0, damping, terms, ((1.0, 1.0, 5.0),))

    def test_harmonic_stack_recovers_dominant_frequency(self):
        # decaying overtones (1, 0.2, 0.05) on a constraint-satisfying fundamental:
        # the extractor should land near the dominant systolic frequency, and the
        # grid scan is the reference for where the true minimizer sits
        u1_dom, u2_dom = 1.15, 2.1
        params = constrained_params(u1_dom, u2_dom, b1=0.6, b2=1.0)
        amp = 20.0
        amp_sin, amp_cos = rotate_to_absolute(params.a2, params.b2, params.omega2, T0)
        sys_terms = [(params.b1, params.a1, params.omega1)]
        dia_terms = [(amp_sin, amp_cos, params.omega2)]
        for k, (weight, ph_s, ph_d) in enumerate(
            [(0.2, 1.9, 0.7), (0.05, 3.3, 4.5)], start=2
        ):
            sys_terms.append(
                (amp * weight * math.sin(ph_s), amp * weight * math.cos(ph_s), k * params.omega1)
            )
            dia_terms.append(
                (amp * weight * math.sin(ph_d), amp * weight * math.cos(ph_d), k * params.omega2)
            )
        spec = HarmonicSeriesSpec(100.0, 0.0, tuple(sys_terms), tuple(dia_terms))
        cycle = synthesize_appendix_cycle(spec, T0, T, DT)

        outcome = fast_if(cycle)
        u1, u2 = outcome.dimensionless(cycle)
        assert abs(u1 - u1_dom) <= 0.1  # within 0.1*pi/T0 in rad/s terms

        from ifreq import GridConfig, brute_force_if

        brute, _ = brute_force_if(cycle, GridConfig(mesh=0.05, mesh_unit="dimensionless"))
        bu1, bu2 = brute.dimensionless(cycle)
        assert abs(u1 - bu1) <= 0.05
        assert abs(u2 - bu2) <= 0.05

"""Decay harness: series collection, log-log fits, windowed fits,
verdicts, and space-time norms taken as time_norm of the per-slice norms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dispersia.decay import (
    DecayFit,
    SeriesSample,
    compare_prediction,
    fit_decay_exponent,
    norm_series,
    time_norm,
)
from dispersia.fields import Field, gaussian_field, lp_norm, make_grid, values_lp_norm
from dispersia.propagators import PropagatorSpec, product_propagate


def free_flow(spec, u, t):
    return product_propagate([spec], u, t)


def slice_norms(states, grids, r):
    """The L^r norm of each state of a stack, a state per leading index."""
    return np.array([values_lp_norm(v, grids, r) for v in states])


def free_norms(spec, u0, times, r):
    """The L^r norm of the free flow of u0 at each of times."""
    return slice_norms([free_flow(spec, u0, t).values for t in times], u0.grids, r)


def power_series(prefactor, exponent, times):
    return [SeriesSample(t=t, value=prefactor * t**exponent) for t in times]


class TestFitDecayExponent:
    def test_exact_power_law_recovered(self):
        times = np.geomspace(1, 100, 20)
        fit = fit_decay_exponent(power_series(7.0, -1.5, times), (1, 100))
        assert fit.slope == pytest.approx(-1.5, abs=1e-9)
        assert fit.intercept == pytest.approx(math.log(7.0), abs=1e-9)
        assert fit.stderr == pytest.approx(0.0, abs=1e-9)

    def test_flagged_samples_excluded(self):
        times = np.geomspace(1, 100, 10)
        series = power_series(1.0, -1.0, times)
        series[3] = SeriesSample(t=series[3].t, value=99.0, flagged=True)
        fit = fit_decay_exponent(series, (1, 100))
        assert fit.n_samples == 9
        assert fit.slope == pytest.approx(-1.0, abs=1e-9)

    def test_too_few_samples_rejected(self):
        series = power_series(1.0, -1.0, [1, 2, 3, 4])
        with pytest.raises(ValueError, match="at least 5"):
            fit_decay_exponent(series, (1, 10))

    def test_nonpositive_values_rejected(self):
        series = power_series(1.0, -1.0, np.geomspace(1, 10, 6))
        series[2] = SeriesSample(t=series[2].t, value=0.0)
        with pytest.raises(ValueError, match="positive"):
            fit_decay_exponent(series, (1, 10))

    def test_bad_window_rejected(self):
        series = power_series(1.0, -1.0, np.geomspace(1, 10, 6))
        with pytest.raises(ValueError):
            fit_decay_exponent(series, (5, 5))

    def test_multiplicative_noise_tolerance(self):
        rng = np.random.default_rng(42)
        times = np.geomspace(1, 100, 20)
        series = [
            SeriesSample(t=t, value=3.0 * t**-1.0 * (1 + 0.01 * rng.standard_normal()))
            for t in times
        ]
        fit = fit_decay_exponent(series, (1, 100))
        assert fit.slope == pytest.approx(-1.0, abs=0.03)

    @given(
        exponent=st.floats(-3, -0.1),
        prefactor=st.floats(0.1, 100),
    )
    @settings(max_examples=50, deadline=None)
    def test_recovery_property(self, exponent, prefactor):
        times = np.geomspace(1, 50, 12)
        fit = fit_decay_exponent(power_series(prefactor, exponent, times), (1, 50))
        assert fit.slope == pytest.approx(exponent, abs=1e-7)


class TestRegimeDecayFit:
    def test_two_regime_synthetic(self):
        times = list(np.geomspace(0.01, 1, 8)) + list(np.geomspace(1.2, 50, 8))
        series = [
            SeriesSample(t=t, value=t**-0.5 if t < 1 else t**-1.5) for t in times
        ]
        # the rate of these flows changes at unit time: one fit per regime
        small = fit_decay_exponent(series, (1e-12, 1.0))
        large = fit_decay_exponent(series, (1.0, 50 + 1e-12))
        assert small.slope == pytest.approx(-0.5, abs=1e-6)
        assert large.slope == pytest.approx(-1.5, abs=1e-6)


class TestComparePrediction:
    def test_pass_within_tolerance(self):
        fit = DecayFit(slope=-1.02, intercept=0.0, stderr=0.0, window=(1, 10), n_samples=8)
        report = compare_prediction(fit, 1, 0.08)
        assert report["verdict"] == "pass"
        assert report["predicted"] == 1.0

    def test_fail_outside_tolerance(self):
        fit = DecayFit(slope=-0.80, intercept=0.0, stderr=0.0, window=(1, 10), n_samples=8)
        assert compare_prediction(fit, 1, 0.08)["verdict"] == "fail"

    def test_report_fields_complete(self):
        fit = DecayFit(slope=-0.5, intercept=0.1, stderr=0.01, window=(2, 50), n_samples=10)
        report = compare_prediction(fit, "1/2", 0.05)
        assert set(report) == {"slope", "stderr", "predicted", "tol", "verdict", "window", "n_samples"}
        assert report["window"] == [2.0, 50.0]


class TestNormSeries:
    def make_flow(self):
        grid = make_grid(1024, 400.0)
        spec = PropagatorSpec("free", grid)
        u0 = gaussian_field(grid, 1.0)
        return grid, u0, lambda u, t: free_flow(spec, u, t)

    def test_unitary_flow_constant_l2(self):
        _, u0, evolve = self.make_flow()
        series = norm_series(evolve, u0, [1.0, 3.0, 9.0], 2)
        base = lp_norm(u0, 2)
        for s in series:
            assert s.value == pytest.approx(base, rel=1e-10)

    def test_free_gaussian_sup_matches_closed_form(self):
        _, u0, evolve = self.make_flow()
        times = [1.0, 2.0, 5.0, 10.0]
        series = norm_series(evolve, u0, times, math.inf)
        for s in series:
            exact = (1 + 4 * s.t**2) ** -0.25
            assert s.value == pytest.approx(exact, rel=1e-6)

    def test_empty_times_gives_empty_series(self):
        _, u0, evolve = self.make_flow()
        assert norm_series(evolve, u0, [], 2) == []

    def test_sequential_matches_direct_for_exact_flow(self):
        _, u0, evolve = self.make_flow()
        direct = norm_series(evolve, u0, [1.0, 2.0, 4.0], math.inf)
        sequential = norm_series(evolve, u0, [1.0, 2.0, 4.0], math.inf, sequential=True)
        for a, b in zip(direct, sequential):
            assert a.value == pytest.approx(b.value, rel=1e-10)

    def test_nonpositive_times_rejected(self):
        _, u0, evolve = self.make_flow()
        with pytest.raises(ValueError):
            norm_series(evolve, u0, [0.0, 1.0], 2)

    @pytest.mark.parametrize("times", [[1.0, math.nan], [math.nan], [1.0, math.inf]], ids=str)
    def test_nonfinite_times_rejected_before_any_evolve(self, times):
        _, u0, _ = self.make_flow()
        calls = []
        with pytest.raises(ValueError, match="finite"):
            norm_series(lambda u, t: calls.append(t) or u, u0, times, 2)
        assert calls == []

    def test_wrap_flag_is_sticky(self):
        # the mass sits at the antipode only at t = 2; the sample at t = 3
        # follows a flagged one and is flagged too
        grid, u0, _ = self.make_flow()
        wrapped = gaussian_field(grid, 1.0, center=0.0)
        series = norm_series(lambda u, t: wrapped if t == 2.0 else u, u0, [1.0, 2.0, 3.0], 2)
        assert [s.flagged for s in series] == [False, True, True]


class TestStrichartzNorm:
    def constant_states(self, value=2.0, t_end=2.0, n=21):
        """A state held constant at n times from 0 to t_end: the times, the
        stack of its values and the state."""
        grid = make_grid(64, 10.0)
        u = Field((grid,), np.full(64, value, dtype=complex))
        times = np.linspace(0, t_end, n)
        return times, np.broadcast_to(u.values, (n, 64)), u

    def test_constant_in_time_p2(self):
        times, states, u = self.constant_states(t_end=2.0)
        expected = math.sqrt(2.0) * lp_norm(u, 4)
        assert time_norm(times, slice_norms(states, u.grids, 4), 2) == pytest.approx(expected, rel=1e-12)

    def test_p_inf_q2_on_unitary_flow(self):
        grid = make_grid(256, 100.0)
        spec = PropagatorSpec("free", grid)
        u0 = gaussian_field(grid, 1.0)
        times = np.linspace(0, 5, 11)
        assert time_norm(times, free_norms(spec, u0, times, 2), math.inf) == pytest.approx(lp_norm(u0, 2), rel=1e-10)

    def test_quadrature_self_convergence(self):
        grid = make_grid(512, 200.0)
        spec = PropagatorSpec("free", grid)
        u0 = gaussian_field(grid, 1.0)

        def value(n_samples):
            times = np.linspace(0, 10, n_samples)
            return time_norm(times, free_norms(spec, u0, times, 4), 8)

        coarse, fine = value(41), value(81)
        assert fine == pytest.approx(coarse, rel=0.01)

    def test_monotone_in_window(self):
        grid = make_grid(128, 50.0)
        spec = PropagatorSpec("free", grid)
        u0 = gaussian_field(grid, 1.0)
        times = np.linspace(0, 8, 33)
        norms = free_norms(spec, u0, times, 4)
        shorter = time_norm(times[:17], norms[:17], 4)
        longer = time_norm(times, norms, 4)
        assert longer >= shorter

    @given(c=st.floats(0, 50))
    @settings(max_examples=30, deadline=None)
    def test_homogeneity(self, c):
        times, states, u = self.constant_states()
        assert time_norm(times, slice_norms(c * states, u.grids, 4), 2) == pytest.approx(
            c * time_norm(times, slice_norms(states, u.grids, 4), 2), rel=1e-10, abs=1e-12
        )

    def test_empty_trajectory_rejected(self):
        grid = make_grid(64, 10.0)
        empty = slice_norms(np.zeros((0, 64)), (grid,), 2)
        for p in (2, math.inf):
            with pytest.raises(ValueError, match="at least one time"):
                time_norm(np.array([]), empty, p)

    @pytest.mark.parametrize("p", [2, math.inf])
    def test_one_norm_per_time(self, p):
        times, states, u = self.constant_states(n=5)
        norms = slice_norms(states, u.grids, 4)
        with pytest.raises(ValueError, match="one norm per time"):
            time_norm(times[:4], norms, p)

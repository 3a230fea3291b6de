"""Small-data NLS: split-step integrator, Duhamel fixed point, and the
scattering diagnostics."""

import functools
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dispersia import experiments, nls
from dispersia.exponents import HypothesisViolation, select_nls_exponents
from dispersia.fields import (
    HYPERBOLIC,
    Field,
    gaussian_field,
    lp_norm,
    make_grid,
    slice_lp_norms,
    values_lp_norms,
)
from dispersia.nls import (
    CauchyTails,
    Nonlinearity,
    _nonlinear_substep,
    apply_nonlinearity,
    picard_iterate,
    splitstep_nls,
    splitstep_states,
)
from dispersia.propagators import PotentialSpec, PropagatorSpec, product_propagate, spectral_product
from oracles import product_field


def small_data_setup(n=128, length=48.0, amplitude=0.05, width=2.0):
    grid = make_grid(n, length)
    specs = [PropagatorSpec("free", grid)] * 2
    u0 = product_field(gaussian_field(grid, width), gaussian_field(grid, width))
    u0 = u0.with_values(amplitude * u0.values)
    return u0, specs


def free_h3_setup(amplitude=0.05):
    """A small free x H^3 product: a torus Gaussian times a radial shell."""
    torus = make_grid(64, 32.0)
    radial = make_grid(48, 12.0, HYPERBOLIC)
    u0 = product_field(gaussian_field(torus, 2.0), gaussian_field(radial, 1.0, center=3.0))
    specs = [PropagatorSpec("free", torus), PropagatorSpec("hyperbolic-radial", radial)]
    return u0.with_values(amplitude * u0.values), specs


def free_potential_setup(amplitude=0.05):
    """A small free x free-plus-potential product: a Gaussian on each torus,
    a sech-squared bump on the second."""
    grid = make_grid(64, 32.0)
    pot = PotentialSpec("sech-squared", amplitude=0.5, width=1.0, center=12.0)
    u0 = product_field(gaussian_field(grid, 2.0), gaussian_field(grid, 2.0))
    specs = [PropagatorSpec("free", grid), PropagatorSpec("free-plus-potential", grid, pot)]
    return u0.with_values(amplitude * u0.values), specs


def cauchy_tails(traj, specs) -> CauchyTails:
    """The CauchyTails of a stored trajectory, fed in time order."""
    acc = CauchyTails(specs, traj.grids)
    for t, values in zip(traj.times, traj.values):
        acc.add(t, values)
    return acc


def l2_difference(u0, a, b):
    return lp_norm(u0.with_values(a - b), 2)


class TestApplyNonlinearity:
    def test_zero_maps_to_zero(self):
        grid = make_grid(8, 2.0)
        u = Field((grid,), np.zeros(8))
        nl = Nonlinearity(gamma=3.0)
        assert np.array_equal(apply_nonlinearity(u.values, nl), np.zeros(8))

    def test_gauge_invariant_cubic_at_2i(self):
        # |2i|^2 * 2i = 4 * 2i = 8i with mu = +1
        grid = make_grid(8, 2.0)
        vals = np.zeros(8, dtype=complex)
        vals[0] = 2j
        u = Field((grid,), vals)
        out = apply_nonlinearity(u.values, Nonlinearity(gamma=3.0, mu=1.0))
        assert out[0] == pytest.approx(8j, abs=1e-14)

    @given(seed=st.integers(0, 500), gamma=st.floats(1.5, 4.0))
    @settings(max_examples=40, deadline=None)
    def test_difference_bound(self, seed, gamma):
        grid = make_grid(16, 4.0)
        rng = np.random.default_rng(seed)
        u = Field((grid,), rng.standard_normal(16) + 1j * rng.standard_normal(16))
        v = Field((grid,), rng.standard_normal(16) + 1j * rng.standard_normal(16))
        nl = Nonlinearity(gamma=gamma, mu=1.0)
        fu = apply_nonlinearity(u.values, nl)
        fv = apply_nonlinearity(v.values, nl)
        lhs = np.max(np.abs(fu - fv))
        # |F(u) - F(v)| <= C (|u| + |v|)^(gamma-1) |u - v| with C = |mu| max(1, gamma)
        c = abs(nl.mu) * max(1.0, gamma)
        rhs = (
            c
            * (lp_norm(u, math.inf) + lp_norm(v, math.inf)) ** (gamma - 1)
            * np.max(np.abs(u.values - v.values))
        )
        assert lhs <= rhs * (1 + 1e-9)

    @pytest.mark.parametrize("gamma", [3.0, 5 / 3, 2.5, 2.0])
    @pytest.mark.parametrize("mu", [1.0, -0.7, 2, 1 + 0j, np.float64(0.3)], ids=repr)
    def test_matches_formula_bit_for_bit(self, gamma, mu):
        # the in-place powers of |u| give the one-expression formulas exactly
        rng = np.random.default_rng(5)
        values = rng.standard_normal((24, 20)) + 1j * rng.standard_normal((24, 20))
        values[0, :3] = 0
        gauge = apply_nonlinearity(values, Nonlinearity(gamma=gamma, mu=mu))
        expected = mu * np.abs(values) ** (gamma - 1) * values
        assert np.array_equal(gauge.view(np.uint64), expected.view(np.uint64))

    def test_gamma_at_most_one_rejected(self):
        with pytest.raises(ValueError):
            Nonlinearity(gamma=1.0)

    def test_complex_mu_rejected_for_gauge_invariant(self):
        # the gauge substep is a pure phase only for real mu
        with pytest.raises(ValueError, match="real"):
            Nonlinearity(gamma=3.0, mu=1 + 0.5j)
        assert Nonlinearity(gamma=3.0, mu=1 + 0j).mu == 1


class TestSplitstepNLS:
    def assert_mu_zero_matches_linear(self, u0, specs):
        nl = Nonlinearity(gamma=3.0, mu=0.0)
        traj = splitstep_nls(u0, nl, specs, T=2.0, dt=0.1)
        expected = product_propagate(specs, u0, traj.times[-1])
        assert np.max(np.abs(traj.values[-1] - expected.values)) < 1e-12

    def test_mu_zero_matches_linear(self):
        self.assert_mu_zero_matches_linear(*small_data_setup())

    def test_mu_zero_matches_linear_on_free_h3(self):
        self.assert_mu_zero_matches_linear(*free_h3_setup())

    def test_mu_zero_matches_linear_on_free_potential(self):
        # the potential factor's eigenbasis is a spectral form like any other
        self.assert_mu_zero_matches_linear(*free_potential_setup())

    def test_gauge_invariant_mass_conservation(self):
        u0, specs = small_data_setup()
        nl = Nonlinearity(gamma=3.0, mu=1.0)
        traj = splitstep_nls(u0, nl, specs, T=10.0, dt=0.25)
        base = lp_norm(u0, 2)
        for values in traj.values:
            assert lp_norm(u0.with_values(values), 2) == pytest.approx(base, rel=1e-10)

    def error_ratio(self):
        """Self-convergence error ratio at dt = 1/8 and 1/16 against dt = 1/256."""
        u0, specs = small_data_setup(amplitude=0.3)
        nl = Nonlinearity(gamma=3.0, mu=1.0)
        ref = splitstep_nls(u0, nl, specs, T=1.0, dt=1.0 / 256).values[-1]

        def error(dt):
            return l2_difference(u0, splitstep_nls(u0, nl, specs, T=1.0, dt=dt).values[-1], ref)

        return error(1.0 / 8) / error(1.0 / 16)

    def test_second_order_self_convergence(self):
        assert self.error_ratio() == pytest.approx(4.0, rel=0.25)

    def test_t_not_multiple_of_dt_rejected(self):
        u0, specs = small_data_setup()
        with pytest.raises(ValueError):
            splitstep_nls(u0, Nonlinearity(gamma=3.0), specs, T=1.05, dt=0.1)

    def test_nonpositive_save_stride_rejected(self):
        u0, specs = small_data_setup()
        with pytest.raises(ValueError, match="save_stride"):
            splitstep_nls(u0, Nonlinearity(gamma=3.0), specs, T=1.0, dt=0.1, save_stride=0)

    def test_save_stride_keeps_endpoints(self):
        u0, specs = small_data_setup()
        traj = splitstep_nls(u0, Nonlinearity(gamma=3.0), specs, T=1.0, dt=0.1, save_stride=3)
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(1.0)


class TestSplitstepBuffers:
    """The split-step keeps its temporaries in buffers it reuses; these pin
    the results to the formulas and the saved states to their own arrays."""

    @staticmethod
    def gauge_oracle(values, nl, dt):
        # the gauge-invariant substep as one expression, before its buffers
        angle = dt * complex(nl.mu).real * np.abs(values) ** (nl.gamma - 1)
        phase = np.empty(values.shape, dtype=complex)
        np.cos(angle, out=phase.real)
        np.negative(np.sin(angle), out=phase.imag)
        return values * phase

    @pytest.mark.parametrize("gamma", [3.0, 5 / 3, 2.5, 7.0])
    @pytest.mark.parametrize("mu", [1.0, -0.7])
    def test_gauge_substep_matches_formula_bit_for_bit(self, gamma, mu):
        rng = np.random.default_rng(11)
        values = rng.standard_normal((48, 40)) + 1j * rng.standard_normal((48, 40))
        nl = Nonlinearity(gamma=gamma, mu=mu)
        work = (np.empty(values.shape), np.empty(values.shape, dtype=complex))
        for dt in (0.05, 0.1, 1.0):
            expected = self.gauge_oracle(values, nl, dt)
            buffered = values.copy()
            got = _nonlinear_substep(buffered, nl, dt, work)
            assert got is buffered
            assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))

    def test_saved_slices_match_stride_one(self):
        u0, specs = small_data_setup(n=64, length=32.0, amplitude=0.3)
        nl = Nonlinearity(gamma=3.0)
        every = splitstep_nls(u0, nl, specs, T=2.0, dt=0.1)
        strided = splitstep_nls(u0, nl, specs, T=2.0, dt=0.1, save_stride=3)
        rows = [0, 3, 6, 9, 12, 15, 18, 20]
        assert np.array_equal(strided.times, every.times[rows])
        expected = every.values[rows]
        # between saved steps the strided run fuses the two half-step
        # rotations into one full step, which agrees to round-off only; a
        # saved state overwritten by a later step would differ by O(dt)
        assert np.max(np.abs(strided.values - expected)) <= 1e-14 * np.max(np.abs(expected)) * len(every.times)

    def test_yielded_states_are_their_own_arrays(self):
        u0, specs = small_data_setup(n=64, length=32.0, amplitude=0.3)
        nl = Nonlinearity(gamma=3.0)
        states = list(splitstep_states(u0, nl, specs, T=2.0, dt=0.1, save_stride=3))
        traj = splitstep_nls(u0, nl, specs, T=2.0, dt=0.1, save_stride=3)
        assert [t for t, _ in states] == list(traj.times)
        assert np.array_equal(np.array([v for _, v in states]), traj.values)
        for j, (_, a) in enumerate(states):
            for _, b in states[j + 1:]:
                assert not np.shares_memory(a, b)

    @pytest.mark.parametrize("setup", [small_data_setup, free_h3_setup], ids=["free-free", "free-h3"])
    def test_caller_datum_unchanged(self, setup):
        u0, specs = setup()
        caller = np.array(u0.values)
        before = caller.copy()
        splitstep_nls(Field(u0.grids, caller), Nonlinearity(gamma=3.0), specs, T=1.0, dt=0.1)
        assert np.array_equal(caller, before)


class TestPicardIterate:
    def exponents(self):
        return select_nls_exponents(1, 1, 3)

    def test_zero_data_converges_immediately(self):
        u0, specs = small_data_setup()
        zero = u0.with_values(np.zeros_like(u0.values))
        result = picard_iterate(zero, Nonlinearity(gamma=3.0), specs, self.exponents(), 2.0, 0.2)
        assert result.converged
        assert result.history[-1].k == 1
        assert np.allclose(result.values, 0)

    def test_last_iterate_is_read_only(self):
        u0, specs = small_data_setup(n=64, length=32.0)
        result = picard_iterate(u0, Nonlinearity(gamma=3.0), specs, self.exponents(), 1.0, 0.1, max_iter=2)
        assert result.values.shape == (len(result.times),) + u0.values.shape
        with pytest.raises(ValueError):
            result.values[0] = 0.0

    def test_contraction_ratios_below_one(self):
        u0, specs = small_data_setup()
        result = picard_iterate(
            u0, Nonlinearity(gamma=3.0), specs, self.exponents(), 5.0, 0.25, max_iter=8, tol=1e-10
        )
        ratios = [s.ratio for s in result.history if s.ratio is not None]
        assert result.converged
        assert ratios and all(r < 1 for r in ratios)

    def test_halving_data_scales_first_ratio(self):
        u0, specs = small_data_setup()
        nl = Nonlinearity(gamma=3.0)
        full = picard_iterate(u0, nl, specs, self.exponents(), 5.0, 0.25, max_iter=6, tol=1e-12)
        half_data = u0.with_values(0.5 * u0.values)
        half = picard_iterate(half_data, nl, specs, self.exponents(), 5.0, 0.25, max_iter=6, tol=1e-12)
        expected = 2.0 ** -(3.0 - 1.0)
        measured = half.history[2].ratio / full.history[2].ratio
        assert measured == pytest.approx(expected, rel=0.2)

    def test_cross_method_agreement(self):
        u0, specs = small_data_setup()
        nl = Nonlinearity(gamma=3.0)
        result = picard_iterate(u0, nl, specs, self.exponents(), 5.0, 0.1, max_iter=8, tol=1e-10)
        traj = splitstep_nls(u0, nl, specs, T=5.0, dt=0.05, save_stride=2)
        diff = max(l2_difference(u0, up, us) for up, us in zip(result.values, traj.values))
        assert diff <= 1e-4

    def test_linear_response_in_mu(self):
        # the k=1 Duhamel correction scales linearly with the coupling
        u0, specs = small_data_setup()
        sel = self.exponents()
        d = {}
        for mu in (1e-3, 2e-3):
            result = picard_iterate(
                u0, Nonlinearity(gamma=3.0, mu=mu), specs, sel, 2.0, 0.2, max_iter=2, tol=0
            )
            d[mu] = result.history[1].distance
        assert d[2e-3] / d[1e-3] == pytest.approx(2.0, rel=1e-3)

    def test_fixed_point_residual_after_convergence(self):
        u0, specs = small_data_setup()
        nl = Nonlinearity(gamma=3.0)
        tol = 1e-8
        result = picard_iterate(u0, nl, specs, self.exponents(), 2.0, 0.2, max_iter=12, tol=tol)
        assert result.converged
        # one more sweep moves the converged iterate by at most 2 tol
        # relative to the reference scale
        again = picard_iterate(u0, nl, specs, self.exponents(), 2.0, 0.2, max_iter=result.history[-1].k + 1, tol=0)
        d_next = again.history[result.history[-1].k + 1].distance
        ref = result.history[1].y_norm
        assert d_next <= 2 * tol * ref

    @pytest.mark.parametrize("scale", [1.0, 0.5], ids=["committed-data", "half-data"])
    def test_capped_history_is_a_prefix(self, scale):
        # nls-smalldata caps its half-data run at max_iter=2 and reads
        # history[2]: the cap must leave the first three entries unchanged
        cfg = experiments.parse_config(
            os.path.join(os.path.dirname(__file__), "..", "scripts", "configs", "nls-smalldata.cfg")
        )
        u0, specs, nl, sel = experiments._nls_setup(cfg)
        u0 = u0.with_values(scale * u0.values)
        T, dt = float(cfg.settings["time"]["t_final"]), float(cfg.settings["time"]["dt"])
        full = picard_iterate(u0, nl, specs, sel, T, dt, max_iter=8, tol=1e-10)
        capped = picard_iterate(u0, nl, specs, sel, T, dt, max_iter=2, tol=1e-10)
        assert len(full.history) > 3
        assert capped.history == full.history[:3]

    def test_gamma_above_bound_refused(self):
        u0, specs = small_data_setup()
        sel = select_nls_exponents(1, 1, 3)
        with pytest.raises(HypothesisViolation):
            picard_iterate(u0, Nonlinearity(gamma=3.5), specs, sel, 1.0, 0.1)

    @pytest.mark.parametrize("dt", [0.0, -0.1])
    def test_nonpositive_dt_refused(self, dt):
        u0, specs = small_data_setup(n=64, length=32.0)
        with pytest.raises(ValueError, match="dt must be positive"):
            picard_iterate(u0, Nonlinearity(gamma=3.0), specs, self.exponents(), 1.0, dt)

    @pytest.mark.parametrize(
        "setup", [small_data_setup, free_h3_setup, free_potential_setup], ids=["free-free", "free-h3", "free-potential"]
    )
    def test_caller_datum_unchanged(self, setup):
        u0, specs = setup()
        caller = np.array(u0.values)
        before = caller.copy()
        picard_iterate(Field(u0.grids, caller), Nonlinearity(gamma=3.0), specs, self.exponents(), 1.0, 0.1, max_iter=2)
        assert np.array_equal(caller, before)

    def test_nonfinite_iterate_refused(self, monkeypatch):
        # the sweep's L2 norms stand in for a finiteness pass over the stack
        u0, specs = small_data_setup(n=64, length=32.0)
        monkeypatch.setattr(nls, "apply_nonlinearity", lambda values, nl: np.full_like(values, np.nan))
        with pytest.raises(ValueError, match="field values must be finite"):
            picard_iterate(u0, Nonlinearity(gamma=3.0), specs, self.exponents(), 1.0, 0.1)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_large_data_reported_not_raised(self):
        u0, specs = small_data_setup(amplitude=20.0)
        result = picard_iterate(
            u0, Nonlinearity(gamma=3.0), specs, self.exponents(), 2.0, 0.2, max_iter=8, tol=1e-12
        )
        # divergence must surface as a reported outcome, never an exception
        assert isinstance(result.contractive, bool)
        assert len(result.history) >= 2


class TestScatteringDiagnostic:
    def test_linear_flow_has_zero_tails(self):
        u0, specs = small_data_setup()
        traj = splitstep_nls(u0, Nonlinearity(gamma=3.0, mu=0.0), specs, T=4.0, dt=0.2)
        tails = cauchy_tails(traj, specs).tails
        for _, tail in tails:
            assert tail <= 1e-10

    def test_tails_match_the_pairwise_table(self):
        # the running maxima give the table of all pairwise distances
        # tail(t_i) = max_{j >= i} ||z(t_j) - z(t_i)||, bit for bit
        u0, specs = small_data_setup(n=64, length=32.0, amplitude=0.3)
        traj = splitstep_nls(u0, Nonlinearity(gamma=3.0), specs, T=4.0, dt=0.1, save_stride=5)
        acc = cauchy_tails(traj, specs)
        tails, z = acc.tails, np.array(acc.profiles)
        expected = [
            (float(t), float(slice_lp_norms(z[i:], acc.grids, 2, minus=z[i]).max()))
            for i, t in enumerate(acc.times)
        ]
        assert tails == expected
        assert tails[0][1] > 0

    def test_tails_monotone_nonincreasing(self):
        u0, specs = small_data_setup()
        traj = splitstep_nls(u0, Nonlinearity(gamma=3.0), specs, T=20.0, dt=0.1, save_stride=10)
        tails = cauchy_tails(traj, specs).tails
        values = [tail for _, tail in tails]
        for a, b in zip(values, values[1:]):
            assert b <= a + 1e-12

    def test_small_data_tail_decrease(self):
        u0, specs = small_data_setup(n=256, length=128.0)
        traj = splitstep_nls(u0, Nonlinearity(gamma=3.0), specs, T=40.0, dt=0.1, save_stride=10)
        tails = cauchy_tails(traj, specs).tails

        def tail_at(t_query):
            return min(tails, key=lambda s: abs(s[0] - t_query))[1]

        assert tail_at(20.0) <= 0.1 * tail_at(1.0)

    def test_tail_bounded_by_strichartz_power(self):
        from dispersia.decay import time_norm

        u0, specs = small_data_setup(n=256, length=128.0)
        gamma = 3.0
        traj = splitstep_nls(u0, Nonlinearity(gamma=gamma), specs, T=20.0, dt=0.1, save_stride=10)
        tails = cauchy_tails(traj, specs).tails
        p = q = 1 + gamma
        # calibrate the aggregated constant on the first window, then check
        # the power law on later windows
        t1s = [t for t, _ in tails[:-2]]
        q_norms = slice_lp_norms(traj.values, traj.grids, q)
        bounds = []
        for t1 in t1s:
            keep = traj.times >= t1
            bounds.append(time_norm(traj.times[keep], q_norms[keep], p) ** gamma)
        c = tails[0][1] / bounds[0]
        for (_, tail), bound in zip(tails[:-2], bounds):
            assert tail <= 2.0 * c * bound


class TestSpectralRoutes:
    """The routes apply the product flow in the spectral domain; these pin
    them to product_propagate."""

    @pytest.mark.parametrize(
        "setup", [small_data_setup, free_h3_setup, free_potential_setup], ids=["free-free", "free-h3", "free-potential"]
    )
    def test_one_duhamel_sweep_matches_direct_reference(self, setup):
        u0, specs = setup(amplitude=0.3)
        nl = Nonlinearity(gamma=3.0)
        dt = 0.1
        result = picard_iterate(u0, nl, specs, select_nls_exponents(1, 1, 3), 1.0, dt, max_iter=1, tol=0)
        times = result.times

        def flow(values, t):
            return product_propagate(specs, u0.with_values(values), t).values

        source = [apply_nonlinearity(flow(u0.values, t), nl) for t in times]
        for i, t in enumerate(times):
            # trapezoid rule for int_0^t e^{i(t-s)L} F(v_0(s)) ds, entering as -i times it
            integral = sum(
                dt / 2 * (flow(source[j - 1], t - times[j - 1]) + flow(source[j], t - times[j]))
                for j in range(1, i + 1)
            )
            expected = flow(u0.values, t) - 1j * integral
            assert np.max(np.abs(result.values[i] - expected)) <= 1e-12 * np.max(np.abs(expected))


def per_slice_phase_picard(f, nl, specs, exponents, T, dt, sweeps):
    """The Picard iteration as it was before the lattice recursion: every
    slice pulls its source back to time 0 with a phase of its own time,
    scaled by the trapezoid weight, and pushes the sum forward with
    another. Returns the Y-norms, the distances (None at k = 0) and the
    last iterate."""
    p, q = float(exponents.p), float(exponents.q)
    times = [i * dt for i in range(round(T / dt) + 1)]
    grids = f.grids
    flow = spectral_product(specs, grids)

    def phase(t, scale=1.0):
        phases = [factor.phase(t) for factor in flow.factors]
        phases[0] = scale * phases[0]
        return functools.reduce(np.multiply.outer, phases)

    f_hat = flow.forward(f.values)
    v = np.array([flow.inverse(phase(t) * f_hat) for t in times])
    y_norms = [nls._y_norm(times, slice_lp_norms(v, grids, 2), slice_lp_norms(v, grids, q), p)]
    distances = [None]
    for _ in range(sweeps):
        norms = np.empty((4, len(times)))
        acc = np.zeros_like(f_hat)
        for i, t in enumerate(times):
            pulled = flow.forward(apply_nonlinearity(v[i], nl))
            pulled *= phase(-t, scale=-0.5j * dt)
            if i:
                acc += prev
                acc += pulled
                new = flow.inverse(phase(t) * (f_hat + acc))
            else:
                new = f.values
            norms[:, i] = [*values_lp_norms(new, grids, (2, q)), *values_lp_norms(new - v[i], grids, (2, q))]
            v[i] = new
            prev = pulled
        y_norms.append(nls._y_norm(times, norms[0], norms[1], p))
        distances.append(nls._y_norm(times, norms[2], norms[3], p))
    return y_norms, distances, v


class TestPicardLatticeRecursion:
    """The sweep steps the linear part and the Duhamel sum by the one phase
    of dt; it must agree with the per-slice phases of each time to
    round-off."""

    @pytest.mark.parametrize(
        "setup", [small_data_setup, free_h3_setup, free_potential_setup], ids=["free-free", "free-h3", "free-potential"]
    )
    def test_matches_per_slice_phase_sweep(self, setup):
        # the default amplitudes contract on every setup: a diverging run
        # would amplify the round-off it compares
        u0, specs = setup()
        nl = Nonlinearity(gamma=3.0)
        sel = select_nls_exponents(1, 1, 3)
        sweeps = 4
        result = picard_iterate(u0, nl, specs, sel, 3.0, 0.1, max_iter=sweeps, tol=0)
        y_ref, d_ref, v_ref = per_slice_phase_picard(u0, nl, specs, sel, 3.0, 0.1, sweeps)
        assert [s.k for s in result.history] == list(range(sweeps + 1))
        for state, y, d in zip(result.history, y_ref, d_ref):
            assert abs(state.y_norm - y) <= 1e-13 * y
            if d is None:
                assert state.distance is None
            else:
                # a distance is a difference of iterates, each rounded at the
                # scale of the Y-norm: near the noise floor its relative
                # drift is larger, its drift against the Y-norm is not
                assert abs(state.distance - d) <= 1e-13 * y
        scale = np.max(np.abs(v_ref))
        assert np.max(np.abs(result.values - v_ref)) <= 1e-13 * scale

"""Radial flow on 3-dimensional hyperbolic space: transform round trip,
Plancherel, the Euclidean small-bump limit, and, through product_propagate,
unitarity and decay."""

import math

import numpy as np
import pytest
import scipy.fft as sfft
from hypothesis import given, settings
from hypothesis import strategies as st

from dispersia.decay import SeriesSample, fit_decay_exponent, norm_series
from dispersia.fields import HYPERBOLIC, Field, lp_norm, make_grid
from dispersia.hyperbolic import dual_lattice, h3_factor
from dispersia.propagators import PropagatorSpec, product_propagate
from oracles import h3_plancherel_weights, product_field


def weighted_l2(grid, values):
    return math.sqrt(float(np.sum(grid.weights * np.abs(values) ** 2)))


def random_profile(grid, seed=0):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(grid.n_points) + 1j * rng.standard_normal(grid.n_points)
    # taper to zero toward the truncation radius like physical radial data
    vals = vals * np.exp(-grid.nodes / 4)
    return Field((grid,), vals)


def spherical(f):
    """The spherical transform of a radial profile: the H^3 factor's sine
    transform of sinh(r) f(r)."""
    return h3_factor(f.grids[0]).forward(f.values, 0)


def inverse_spherical(grid, coeffs):
    return Field((grid,), h3_factor(grid).inverse(coeffs, 0))


def radial_flow(f, t):
    """The radial H^3 flow of one profile, through the product entry point."""
    return product_propagate([PropagatorSpec("hyperbolic-radial", f.grids[0])], f, t)


def biradial_flow(u, t):
    """The flow on H^3 x H^3 (or any product of the field's axes)."""
    specs = [PropagatorSpec("hyperbolic-radial", grid) for grid in u.grids]
    return product_propagate(specs, u, t)


class TestSphericalTransform:
    def test_round_trip_relative_l2(self):
        grid = make_grid(128, 20.0, HYPERBOLIC)
        f = random_profile(grid, seed=1)
        back = inverse_spherical(grid, spherical(f))
        num = weighted_l2(grid, back.values - f.values)
        den = weighted_l2(grid, f.values)
        assert num / den <= 1e-10

    def test_euclidean_grid_rejected(self):
        grid = make_grid(64, 10.0)
        with pytest.raises(ValueError):
            dual_lattice(grid)

    def test_plancherel_identity(self):
        grid = make_grid(256, 30.0, HYPERBOLIC)
        f = random_profile(grid, seed=2)
        lhs = weighted_l2(grid, f.values)
        coeffs = spherical(f)
        rhs = math.sqrt(float(np.sum(h3_plancherel_weights(grid) * np.abs(coeffs) ** 2)))
        assert rhs == pytest.approx(lhs, rel=1e-8)

    def test_plancherel_weights_golden_values(self):
        # operational normalization frozen: 4 pi dx / (2n), half weight on the top mode
        grid = make_grid(16, 4.0, HYPERBOLIC)
        w = h3_plancherel_weights(grid)
        assert w[0] == pytest.approx(4 * np.pi * 0.25 / 32, rel=1e-15)
        assert w[-1] == pytest.approx(4 * np.pi * 0.25 / 64, rel=1e-15)
        assert np.allclose(w[:-1], w[0])

    def test_small_bump_euclidean_limit(self):
        # for data supported near r = 0, sinh r ~ r and the transform must
        # approach the 3-D Euclidean radial sine transform of the same bump
        grid = make_grid(512, 40.0, HYPERBOLIC)
        r = grid.nodes
        bump = np.exp(-(((r - 0.3) / 0.05) ** 2))
        hyperbolic = spherical(Field((grid,), bump))
        euclidean = sfft.dst(r * bump, type=2)
        rel = np.linalg.norm(hyperbolic - euclidean) / np.linalg.norm(euclidean)
        assert rel <= 0.02

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_linearity(self, seed):
        grid = make_grid(64, 10.0, HYPERBOLIC)
        f = random_profile(grid, seed)
        g = random_profile(grid, seed + 1)
        combined = Field((grid,), 2.0 * f.values - 1j * g.values)
        direct = spherical(combined)
        assembled = 2.0 * spherical(f) - 1j * spherical(g)
        assert np.allclose(direct, assembled, atol=1e-10)


class TestH3Propagate:
    def test_t0_identity(self):
        grid = make_grid(128, 20.0, HYPERBOLIC)
        f = random_profile(grid)
        out = radial_flow(f, 0.0)
        num = weighted_l2(grid, out.values - f.values)
        assert num / weighted_l2(grid, f.values) <= 1e-12

    def test_semigroup(self):
        grid = make_grid(128, 20.0, HYPERBOLIC)
        f = random_profile(grid, seed=3)
        two = radial_flow(radial_flow(f, 1.0), 2.0)
        one = radial_flow(f, 3.0)
        num = weighted_l2(grid, two.values - one.values)
        assert num / weighted_l2(grid, one.values) <= 1e-10

    @given(t=st.floats(-10, 10), seed=st.integers(0, 100))
    @settings(max_examples=20, deadline=None)
    def test_unitarity_weighted_l2(self, t, seed):
        grid = make_grid(64, 12.0, HYPERBOLIC)
        f = random_profile(grid, seed)
        out = radial_flow(f, t)
        assert weighted_l2(grid, out.values) == pytest.approx(weighted_l2(grid, f.values), rel=1e-10)

    def test_spectral_shift_is_global_phase_on_l2(self):
        # the +1 in the multiplier is exp(-i t) uniformly across modes:
        # removing it changes the field by exactly that phase
        grid = make_grid(64, 12.0, HYPERBOLIC)
        f = random_profile(grid, seed=4)
        out = radial_flow(f, 2.0)
        lam = dual_lattice(grid)
        coeffs = spherical(f) * np.exp(-1j * 2.0 * lam**2)
        unshifted = inverse_spherical(grid, coeffs)
        num = weighted_l2(grid, out.values - np.exp(-2j) * unshifted.values)
        assert num / weighted_l2(grid, f.values) <= 1e-10

    def test_large_time_sup_norm_decay(self):
        grid = make_grid(1120, 280.0, HYPERBOLIC)
        r = grid.nodes
        bump = np.exp(-(((r - 1.5) / 0.8) ** 2))
        u0 = Field((grid,), bump / lp_norm(Field((grid,), bump), 1))
        times = list(np.geomspace(2, 40, 12))
        series = norm_series(radial_flow, u0, times, math.inf)
        fit = fit_decay_exponent(series, (2, 40))
        assert fit.slope == pytest.approx(-1.5, abs=0.10)


class TestH3ProductPropagate:
    def test_separable_data_factorizes(self):
        grid = make_grid(96, 14.0, HYPERBOLIC)
        f = random_profile(grid, seed=5)
        g = random_profile(grid, seed=6)
        u = product_field(f, g)
        joint = biradial_flow(u, 1.3)
        split = product_field(radial_flow(f, 1.3), radial_flow(g, 1.3))
        num = lp_norm(joint.with_values(joint.values - split.values), 2)
        assert num / lp_norm(u, 2) <= 1e-10

    def test_l2_conservation(self):
        grid = make_grid(96, 14.0, HYPERBOLIC)
        u = product_field(random_profile(grid, 7), random_profile(grid, 8))
        out = biradial_flow(u, 2.7)
        assert lp_norm(out, 2) == pytest.approx(lp_norm(u, 2), rel=1e-10)

    def test_euclidean_axis_rejected(self):
        hyper = make_grid(64, 10.0, HYPERBOLIC)
        torus = make_grid(64, 10.0)
        bad = Field((hyper, torus), np.ones((64, 64)))
        with pytest.raises(ValueError):
            biradial_flow(bad, 1.0)

    def test_product_sum_of_single_factor_rates(self):
        # the measured product slope is close to twice the single-factor
        # slope (rate additivity across factors)
        grid = make_grid(1120, 280.0, HYPERBOLIC)
        r = grid.nodes
        bump = np.exp(-(((r - 1.5) / 0.8) ** 2))
        prof = Field((grid,), bump / lp_norm(Field((grid,), bump), 1))
        u0 = product_field(prof, prof)
        base = lp_norm(u0, 1)
        times = list(np.geomspace(2, 40, 10))
        series = norm_series(biradial_flow, u0, times, math.inf)
        series = [SeriesSample(s.t, s.value / base, s.flagged) for s in series]
        fit = fit_decay_exponent(series, (2, 40))
        assert fit.slope == pytest.approx(-3.0, abs=0.15)

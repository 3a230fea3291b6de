"""Euclidean propagators through the product_propagate entry point: free
flow against the closed-form Gaussian, the potential eigenbasis against
Strang splitting, product factorization, flow properties of every factor kind, the two-particle
rotation, the wrap monitor, and bit-identity of the threaded and real-view
transforms."""

import functools
import math
import os
import warnings

import numpy as np
import pytest
import scipy.fft as sfft
from hypothesis import given, settings
from hypothesis import strategies as st

from dispersia import hyperbolic, propagators
from dispersia.decay import norm_series
from dispersia.fields import (
    HYPERBOLIC,
    Field,
    SeparableField,
    gaussian_field,
    lp_norm,
    make_grid,
    transform_workers,
)
from dispersia.hyperbolic import _complex_dst, h3_factor
from dispersia.propagators import (
    PotentialSpec,
    PropagatorSpec,
    boundary_mass_fraction,
    peak_centers,
    product_propagate,
    torus_frequencies,
    two_particle_propagate,
    two_particle_rotate,
)
from oracles import per_axis_flow, product_field


def free_gaussian_closed_form(x, t, center):
    """Exact solution of i u_t + u_xx = 0 with u(0) = exp(-(x-c)^2/2):
    u(t,x) = (1+2it)^(-1/2) exp(-(x-c)^2 / (2(1+2it))).

    Derived by completing the square in the Fourier integral; the branch of
    the square root is the principal one continued from t=0.
    """
    z = 1.0 + 2.0j * t
    return z ** (-0.5) * np.exp(-((x - center) ** 2) / (2.0 * z))


def random_field(grid, seed=0):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(grid.n_points) + 1j * rng.standard_normal(grid.n_points)
    if grid.kind == HYPERBOLIC:
        # taper toward the truncation radius like physical radial data
        vals = vals * np.exp(-grid.nodes / 4)
    return Field((grid,), vals)


def flow(spec, u, t):
    """One factor flow, through the product entry point."""
    return product_propagate([spec], u, t)


class TestFreePropagate:
    def test_t0_identity(self):
        grid = make_grid(128, 50.0)
        spec = PropagatorSpec("free", grid)
        u = random_field(grid)
        out = flow(spec, u, 0.0)
        assert np.allclose(out.values, u.values, atol=1e-14)

    def test_gaussian_closed_form_max_norm(self):
        grid = make_grid(1024, 200.0)
        spec = PropagatorSpec("free", grid)
        u0 = gaussian_field(grid, 1.0)
        out = flow(spec, u0, 5.0)
        exact = free_gaussian_closed_form(grid.nodes, 5.0, 100.0)
        measured = lp_norm(out, math.inf)
        assert measured == pytest.approx(np.abs(exact).max(), rel=1e-6)

    def test_gaussian_closed_form_pointwise(self):
        grid = make_grid(2048, 400.0)
        spec = PropagatorSpec("free", grid)
        u0 = gaussian_field(grid, 1.0)
        out = flow(spec, u0, 3.0)
        exact = free_gaussian_closed_form(grid.nodes, 3.0, 200.0)
        assert np.max(np.abs(out.values - exact)) < 1e-10

    @given(t=st.floats(-20, 20, allow_nan=False), seed=st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_unitarity(self, t, seed):
        grid = make_grid(64, 30.0)
        spec = PropagatorSpec("free", grid)
        u = random_field(grid, seed)
        out = flow(spec, u, t)
        assert lp_norm(out, 2) == pytest.approx(lp_norm(u, 2), abs=1e-12 * lp_norm(u, 2))

    @given(t1=st.floats(-5, 5), t2=st.floats(-5, 5))
    @settings(max_examples=30, deadline=None)
    def test_semigroup(self, t1, t2):
        grid = make_grid(64, 30.0)
        spec = PropagatorSpec("free", grid)
        u = random_field(grid, 3)
        two_steps = flow(spec, flow(spec, u, t1), t2)
        one_step = flow(spec, u, t1 + t2)
        assert np.allclose(two_steps.values, one_step.values, atol=1e-11)

    def test_grid_mismatch_rejected(self):
        spec = PropagatorSpec("free", make_grid(64, 30.0))
        u = random_field(make_grid(64, 31.0))
        with pytest.raises(ValueError):
            flow(spec, u, 1.0)


def sech_squared(grid, amplitude=1.0):
    return PotentialSpec("sech-squared", amplitude=amplitude, width=1.0, center=grid.length / 2)


def potential_spec(grid, amplitude=1.0):
    return PropagatorSpec("free-plus-potential", grid, sech_squared(grid, amplitude))


def strang_flow(grid, potential, values, t, steps):
    """The old split-step scheme, kept as the oracle: Strang splitting of
    the free factor flow and the potential phase over `steps` steps."""
    dt = t / steps
    half = np.exp(-0.5j * dt * potential.sample(grid))
    free = propagators.spectral_factor(PropagatorSpec("free", grid))
    return propagators._strang(values, lambda w: per_axis_flow([free], w, dt), half, steps)


class TestSplitstepPropagate:
    """The free-plus-potential factor, whose exact eigenbasis flow replaced
    the split-step scheme."""

    def test_zero_potential_matches_free(self):
        grid = make_grid(256, 60.0)
        spec = PropagatorSpec("free-plus-potential", grid, sech_squared(grid, amplitude=0.0))
        free_spec = PropagatorSpec("free", grid)
        u = gaussian_field(grid, 1.0)
        a = flow(spec, u, 1.7)
        b = flow(free_spec, u, 1.7)
        assert np.max(np.abs(a.values - b.values)) < 1e-12

    def test_second_order_self_convergence(self):
        # Strang splitting converges to the eigenbasis flow at second order
        grid = make_grid(256, 60.0)
        u = gaussian_field(grid, 1.0)
        exact = flow(potential_spec(grid), u, 1.0)

        def error(steps):
            out = strang_flow(grid, sech_squared(grid), u.values, 1.0, steps)
            return lp_norm(u.with_values(out - exact.values), 2)

        ratio = error(32) / error(64)
        assert ratio == pytest.approx(4.0, rel=0.25)

    @given(t=st.floats(-5, 5), seed=st.integers(0, 100))
    @settings(max_examples=20, deadline=None)
    def test_unitarity(self, t, seed):
        grid = make_grid(64, 30.0)
        spec = potential_spec(grid)
        u = random_field(grid, seed)
        out = flow(spec, u, t)
        assert lp_norm(out, 2) == pytest.approx(lp_norm(u, 2), rel=1e-12)

    @given(a=st.integers(-16, 16), b=st.integers(-16, 16))
    @settings(max_examples=20, deadline=None)
    def test_semigroup(self, a, b):
        grid = make_grid(64, 30.0)
        spec = potential_spec(grid)
        s, t = a / 8, b / 8
        u = random_field(grid, 3)
        two_steps = flow(spec, flow(spec, u, s), t)
        one_step = flow(spec, u, s + t)
        assert np.allclose(two_steps.values, one_step.values, atol=1e-11)

    def test_potential_spec_consistency_enforced(self):
        grid = make_grid(64, 30.0)
        with pytest.raises(ValueError):
            PropagatorSpec("free", grid, sech_squared(grid))
        with pytest.raises(ValueError):
            PropagatorSpec("free-plus-potential", grid)
        # a factor kind runs only on its own grid kind
        radial = make_grid(64, 12.0, HYPERBOLIC)
        with pytest.raises(ValueError):
            PropagatorSpec("free", radial)
        with pytest.raises(ValueError):
            PropagatorSpec("free-plus-potential", radial, sech_squared(grid))
        with pytest.raises(ValueError):
            PropagatorSpec("hyperbolic-radial", grid)


class TestProductPropagate:
    def direct_2d_oracle(self, u, t):
        """Independent 2-D evolution: a single 2-D Fourier multiplier
        exp(-i t (xi^2 + eta^2))."""
        xi = torus_frequencies(u.grids[0])
        eta = torus_frequencies(u.grids[1])
        mult = np.exp(-1j * t * (xi[:, None] ** 2 + eta[None, :] ** 2))
        return u.with_values(sfft.ifft2(sfft.fft2(u.values) * mult))

    def test_factorization_identity_512(self):
        import time

        grid = make_grid(512, 200.0)
        specs = [PropagatorSpec("free", grid), PropagatorSpec("free", grid)]
        u = product_field(gaussian_field(grid, 1.0), gaussian_field(grid, 2.0))
        start = time.monotonic()
        swept = product_propagate(specs, u, 3.0)
        direct = self.direct_2d_oracle(u, 3.0)
        elapsed = time.monotonic() - start
        diff = lp_norm(swept.with_values(swept.values - direct.values), 2)
        assert diff <= 1e-10
        assert elapsed < 5.0

    def test_sweep_order_immaterial(self):
        grid_a = make_grid(64, 30.0)
        grid_b = make_grid(96, 40.0)
        grid_c = make_grid(48, 12.0, HYPERBOLIC)
        pot = PotentialSpec("gaussian-bump", amplitude=0.5, width=1.0, center=20.0)
        specs = [
            PropagatorSpec("free", grid_a),
            PropagatorSpec("free-plus-potential", grid_b, pot),
            PropagatorSpec("hyperbolic-radial", grid_c),
        ]
        profiles = [gaussian_field(g, 1.0).values for g in (grid_a, grid_b, grid_c)]
        u = Field((grid_a, grid_b, grid_c), np.multiply.outer(np.multiply.outer(*profiles[:2]), profiles[2]))
        forward = product_propagate(specs, u, 2.0)
        # the one-sweep flow against the factor flows composed axis by axis
        factors = [s.factor for s in specs]
        per_axis = u.with_values(per_axis_flow(factors, u.values, 2.0))
        assert lp_norm(forward.with_values(forward.values - per_axis.values), 2) <= 1e-13 * lp_norm(per_axis, 2)
        # same factor flows applied in the opposite order
        backward = u.with_values(per_axis_flow(factors, u.values, 2.0, axes=(2, 1, 0)))
        diff = lp_norm(forward.with_values(forward.values - backward.values), 2)
        assert diff <= 1e-10

    def test_t0_identity(self):
        grid = make_grid(64, 30.0)
        specs = [PropagatorSpec("free", grid)] * 2
        u = product_field(random_field(grid, 1), random_field(grid, 2))
        out = product_propagate(specs, u, 0.0)
        assert np.allclose(out.values, u.values, atol=1e-14)

    def test_spec_count_mismatch_rejected(self):
        grid = make_grid(64, 30.0)
        u = product_field(random_field(grid), random_field(grid))
        with pytest.raises(ValueError):
            product_propagate([PropagatorSpec("free", grid)], u, 1.0)

    def test_three_factor_unitarity(self):
        grid = make_grid(32, 16.0)
        specs = [PropagatorSpec("free", grid)] * 3
        rng = np.random.default_rng(5)
        u = Field(
            (grid,) * 3, rng.standard_normal((32, 32, 32)) + 1j * rng.standard_normal((32, 32, 32))
        )
        out = product_propagate(specs, u, 1.3)
        assert lp_norm(out, 2) == pytest.approx(lp_norm(u, 2), rel=1e-12)


class TestFactorKindProperties:
    """Flow identities shared by every factor kind."""

    @pytest.mark.parametrize("spec", [
        PropagatorSpec("free", make_grid(64, 30.0)),
        potential_spec(make_grid(64, 30.0)),
        PropagatorSpec("hyperbolic-radial", make_grid(64, 12.0, HYPERBOLIC)),
    ], ids=lambda spec: spec.kind)
    @given(t=st.floats(0, 10), seed=st.integers(0, 100))
    @settings(max_examples=15, deadline=None)
    def test_time_reversal(self, spec, t, seed):
        u = random_field(spec.grid, seed)
        back = flow(spec, flow(spec, u, t), -t)
        assert lp_norm(back.with_values(back.values - u.values), 2) <= 1e-10 * lp_norm(u, 2)


def dense(u):
    """The dense outer product of a SeparableField's factors."""
    return Field(u.grids, functools.reduce(np.multiply.outer, [f.values for f in u.factors]))


class TestSeparableField:
    """The factored state against the dense outer product, on a free x
    free-plus-potential x hyperbolic-radial product."""

    grids = (make_grid(48, 24.0), make_grid(40, 20.0), make_grid(36, 9.0, HYPERBOLIC))
    pot = PotentialSpec("gaussian-bump", amplitude=0.5, width=1.0, center=10.0)
    specs = [
        PropagatorSpec("free", grids[0]),
        PropagatorSpec("free-plus-potential", grids[1], pot),
        PropagatorSpec("hyperbolic-radial", grids[2]),
    ]
    u0 = SeparableField(tuple(gaussian_field(g, 1.0) for g in grids))

    def evolved(self, t=4.0):
        """A complex state that has spread toward every boundary."""
        return product_propagate(self.specs, self.u0, t)

    @pytest.mark.parametrize("r", [1, 2, 4, math.inf])
    def test_lp_norm_matches_dense(self, r):
        u = self.evolved()
        assert lp_norm(u, r) == pytest.approx(lp_norm(dense(u), r), rel=1e-12)

    def test_peak_centers_match_dense(self):
        # The factored path takes each factor's first maximiser. The dense
        # argmax breaks a tie by how the other factors round: at t = 4 the
        # free factor's |u| is bit-equal at x = 11 and x = 13. So each path
        # must return a maximiser of the dense |u|, and the two agree where
        # the maximiser is unique (t = 0).
        evolved = self.evolved()
        free = np.abs(evolved.factors[0].values)
        assert np.count_nonzero(free == free.max()) == 2
        for u in (self.u0, evolved):
            modulus = np.abs(dense(u).values)
            for centers in (peak_centers(u), peak_centers(dense(u))):
                idx = tuple(int(np.flatnonzero(g.nodes == c)[0]) for g, c in zip(u.grids, centers))
                assert modulus[idx] == pytest.approx(modulus.max(), rel=1e-15)
        assert peak_centers(self.u0) == peak_centers(dense(self.u0))

    @pytest.mark.parametrize("t, flagged", [(0.25, False), (4.0, True)])
    def test_boundary_mass_fraction_matches_dense(self, t, flagged):
        u = self.evolved(t)
        centers = peak_centers(self.u0)
        expected = boundary_mass_fraction(dense(u), centers)
        assert (expected > 0.01) == flagged
        assert boundary_mass_fraction(u, centers) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("t", [1.7, -2.3])
    def test_product_propagate_matches_dense(self, t):
        factored = product_propagate(self.specs, self.u0, t)
        assert isinstance(factored, SeparableField)
        direct = product_propagate(self.specs, dense(self.u0), t).values
        assert np.max(np.abs(dense(factored).values - direct)) <= 1e-12 * np.max(np.abs(direct))

    @pytest.mark.parametrize("sequential", [False, True])
    def test_norm_series_matches_dense(self, sequential):
        def evolve(u, t):
            return product_propagate(self.specs, u, t)

        times = np.geomspace(0.25, 8.0, 8)
        factored = norm_series(evolve, self.u0, times, math.inf, sequential=sequential)
        direct = norm_series(evolve, dense(self.u0), times, math.inf, sequential=sequential)
        flags = [s.flagged for s in direct]
        assert any(flags) and not all(flags)
        assert [s.flagged for s in factored] == flags
        for a, b in zip(factored, direct):
            assert a.value == pytest.approx(b.value, rel=1e-12)

    def test_has_no_dense_values(self):
        assert not hasattr(self.u0, "values")
        with pytest.raises(AttributeError):
            self.u0.values

    def test_factors_must_be_rank_one(self):
        with pytest.raises(ValueError):
            SeparableField((dense(SeparableField(self.u0.factors[:2])),))
        with pytest.raises(ValueError):
            SeparableField(())

    def test_rank_not_capped_at_three(self):
        u = SeparableField(self.u0.factors + self.u0.factors[:1])
        assert u.rank == 4
        assert lp_norm(u, 2) == pytest.approx(lp_norm(self.u0, 2) * lp_norm(self.u0.factors[0], 2), rel=1e-15)

    def test_rank_mismatch_rejected(self):
        with pytest.raises(ValueError):
            product_propagate(self.specs[:2], self.u0, 1.0)

    def test_grid_mismatch_rejected(self):
        specs = [self.specs[0], PropagatorSpec("free", make_grid(40, 21.0)), self.specs[2]]
        with pytest.raises(ValueError):
            product_propagate(specs, self.u0, 1.0)


class TestTwoParticleRotate:
    def field_on(self, n, seed=0, length=10.0):
        grid = make_grid(n, length)
        rng = np.random.default_rng(seed)
        vals = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return Field((grid, grid), vals)

    def test_delta_maps_per_index_arithmetic(self):
        grid = make_grid(11, 10.0)
        vals = np.zeros((11, 11))
        vals[1, 2] = 1.0
        u = Field((grid, grid), vals)
        out = two_particle_rotate(u, "forward")
        # x' = x + y, y' = x - y: the delta at (1,2) appears at (3,-1) = (3,10)
        loc = np.argwhere(np.abs(out.values) > 0.5)
        assert loc.tolist() == [[3, 10]]

    def test_round_trip_exact(self):
        u = self.field_on(9, seed=1)
        back = two_particle_rotate(two_particle_rotate(u, "forward"), "inverse")
        assert np.array_equal(back.values, u.values)

    def test_sup_norm_preserved(self):
        u = self.field_on(15, seed=2)
        out = two_particle_rotate(u, "forward")
        assert lp_norm(out, math.inf) == lp_norm(u, math.inf)

    def test_even_n_rejected(self):
        grid = make_grid(16, 10.0)
        u = Field((grid, grid), np.zeros((16, 16)))
        with pytest.raises(ValueError, match="odd"):
            two_particle_rotate(u, "forward")

    def test_non_square_rejected(self):
        u = Field((make_grid(9, 10.0), make_grid(11, 10.0)), np.zeros((9, 11)))
        with pytest.raises(ValueError):
            two_particle_rotate(u, "forward")

    @given(seed=st.integers(0, 1000), n=st.sampled_from([9, 13, 17]))
    @settings(max_examples=20, deadline=None)
    def test_bijection_property(self, seed, n):
        u = self.field_on(n, seed=seed)
        fwd = two_particle_rotate(u, "forward")
        assert np.array_equal(np.sort(np.abs(fwd.values), axis=None), np.sort(np.abs(u.values), axis=None))
        assert np.array_equal(two_particle_rotate(fwd, "inverse").values, u.values)


class TestTwoParticlePropagate:
    def test_zero_potential_matches_2d_free_oracle(self):
        grid = make_grid(81, 40.0)
        u = product_field(gaussian_field(grid, 1.0), gaussian_field(grid, 1.5))
        out = two_particle_propagate(grid, np.zeros(81), u, 1.0, 32)
        xi = torus_frequencies(grid)
        mult = np.exp(-1j * 1.0 * (xi[:, None] ** 2 + xi[None, :] ** 2))
        direct = u.with_values(sfft.ifft2(sfft.fft2(u.values) * mult))
        diff = lp_norm(out.with_values(out.values - direct.values), 2)
        assert diff <= 1e-8

    def test_matches_original_coordinates_oracle(self):
        from dispersia.experiments import original_coordinates_reference

        grid = make_grid(81, 40.0)
        pot = PotentialSpec("sech-squared", amplitude=0.5, width=1.0, center=0.0)
        v = pot.sample(grid)
        u = product_field(gaussian_field(grid, 1.0), gaussian_field(grid, 1.0))
        rotated = two_particle_propagate(grid, v, u, 1.0, 64)
        reference = original_coordinates_reference(grid, v, u, 1.0, 64)
        diff = lp_norm(rotated.with_values(rotated.values - reference.values), 2)
        assert diff <= 1e-6

    @staticmethod
    def strang_2d(grid, v, u, t, steps):
        """The rotated Strang scheme with a full 2-D FFT pair in every
        kinetic step, the form without the sum-axis shortcut."""
        n = grid.n_points
        dt = t / steps
        half = np.exp(-0.5j * dt * v)[np.newaxis, :]
        xi = torus_frequencies(grid)
        idx = np.arange(n)
        mult2d = np.exp(-1j * dt * (xi[(idx[:, None] + idx) % n] ** 2 + xi[(idx[:, None] - idx) % n] ** 2))
        w = two_particle_rotate(u, "forward").values
        w = propagators._strang(w, lambda x: sfft.ifft2(sfft.fft2(x) * mult2d), half, steps)
        return two_particle_rotate(u.with_values(w), "inverse")

    def sech_case(self, n=81, length=40.0):
        grid = make_grid(n, length)
        v = PotentialSpec("sech-squared", amplitude=0.5, width=1.0, center=0.0).sample(grid)
        u = product_field(gaussian_field(grid, 1.0, center=-3.0), gaussian_field(grid, 1.5, center=4.0))
        return grid, v, u

    def test_matches_2d_strang_oracle(self):
        grid, v, u = self.sech_case()
        out = two_particle_propagate(grid, v, u, 1.0, 64).values
        oracle = self.strang_2d(grid, v, u, 1.0, 64).values
        assert np.max(np.abs(out - oracle)) <= 1e-12 * np.max(np.abs(oracle))

    @pytest.mark.parametrize("a", [1, 5, -7])
    def test_commutes_with_sum_direction_shift(self, a):
        # V(x - y) is invariant under (x, y) -> (x + a h, y + a h), so the
        # flow is too: the conserved centre-of-mass momentum the sum-axis
        # shortcut rests on
        grid, v, u = self.sech_case()

        def shift(f):
            return f.with_values(np.roll(f.values, (a, a), axis=(0, 1)))

        flowed_then_shifted = shift(two_particle_propagate(grid, v, u, 1.0, 16)).values
        shifted_then_flowed = two_particle_propagate(grid, v, shift(u), 1.0, 16).values
        scale = np.max(np.abs(flowed_then_shifted))
        assert np.max(np.abs(shifted_then_flowed - flowed_then_shifted)) <= 1e-12 * scale

    def test_leaves_datum_unchanged(self):
        grid, v, u = self.sech_case(n=27, length=15.0)
        values = np.array(u.values)
        kept = values.copy()
        datum = Field(u.grids, values)
        two_particle_propagate(grid, v, datum, 1.0, 8)
        assert np.array_equal(values, kept)
        assert np.array_equal(datum.values, kept)

    def test_independent_of_workers(self, monkeypatch):
        grid, v, u = self.sech_case(n=513, length=200.0)
        assert u.values.size >= 2**18
        threaded = two_particle_propagate(grid, v, u, 0.5, 3).values
        for workers in (1, 2):
            monkeypatch.setattr(propagators, "transform_workers", lambda values, n=workers: n)
            assert np.array_equal(two_particle_propagate(grid, v, u, 0.5, 3).values, threaded)

    def test_t0_identity(self):
        grid = make_grid(9, 5.0)
        u = product_field(gaussian_field(grid, 1.0), gaussian_field(grid, 1.0))
        out = two_particle_propagate(grid, np.zeros(9), u, 0.0, 1)
        assert np.allclose(out.values, u.values, atol=1e-14)

    def test_l2_preserved(self):
        grid = make_grid(27, 15.0)
        pot = PotentialSpec("gaussian-bump", amplitude=1.0, width=1.0, center=0.0)
        u = product_field(gaussian_field(grid, 1.0), gaussian_field(grid, 1.0))
        out = two_particle_propagate(grid, pot.sample(grid), u, 2.0, 32)
        assert lp_norm(out, 2) == pytest.approx(lp_norm(u, 2), rel=1e-10)


class TestWrapMonitor:
    def test_peak_centers_on_shifted_gaussian(self):
        grid = make_grid(128, 40.0)
        u = product_field(gaussian_field(grid, 1.0, center=12.0), gaussian_field(grid, 1.0, center=30.0))
        cx, cy = peak_centers(u)
        assert cx == pytest.approx(12.0, abs=grid.spacing)
        assert cy == pytest.approx(30.0, abs=grid.spacing)

    def test_centered_bump_not_flagged(self):
        grid = make_grid(128, 40.0)
        u = gaussian_field(grid, 1.0)
        assert boundary_mass_fraction(u, peak_centers(u)) < 1e-10

    def test_bump_at_antipode_flagged(self):
        grid = make_grid(128, 40.0)
        u = gaussian_field(grid, 1.0, center=0.0)
        # measured against a fictitious center at the torus midpoint,
        # the bump sits exactly at the boundary region
        assert boundary_mass_fraction(u, (20.0,)) > 0.9

    def test_product_hyperbolic_weights_do_not_overflow(self):
        from dispersia.fields import HYPERBOLIC

        grid = make_grid(256, 280.0, HYPERBOLIC)
        u = product_field(gaussian_field(grid, 1.0, center=2.0), gaussian_field(grid, 1.0, center=2.0))
        frac = boundary_mass_fraction(u, peak_centers(u))
        assert math.isfinite(frac)
        assert frac < 1e-10

    @staticmethod
    def direct_fraction(u, centers):
        """Sum of w |u|^2 over the union of the per-axis boundary masks,
        over the sum of w |u|^2, on the full product grid."""
        w = functools.reduce(np.multiply.outer, [g.weights for g in u.grids])
        masks = [propagators._boundary_mask(g, c) for g, c in zip(u.grids, centers)]
        mask = functools.reduce(np.logical_or.outer, masks)
        density = w * np.abs(u.values) ** 2
        return float(np.sum(density[mask])) / float(np.sum(density))

    def test_dense_rank3_matches_direct_sum(self):
        grids = (make_grid(24, 12.0), make_grid(20, 6.0, HYPERBOLIC), make_grid(16, 10.0))
        rng = np.random.default_rng(7)
        shape = tuple(g.n_points for g in grids)
        values = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * np.exp(-grids[1].nodes)[:, None]
        u = Field(grids, values)
        for centers in ((6.0, 0.0, 5.0), (1.0, 0.0, 9.5)):
            frac = boundary_mass_fraction(u, centers)
            assert 0.01 < frac < 1
            assert frac == pytest.approx(self.direct_fraction(u, centers), rel=1e-14)

    def test_dense_tiny_fraction_keeps_relative_accuracy(self):
        # |u|^2 = exp(-d^2 / 4.05) is about 1e-35 at the boundary (d = 0.45 L
        # = 18): a total - interior form would return 0 here
        grid = make_grid(128, 40.0)
        g = gaussian_field(grid, math.sqrt(4.05 / 2))
        u = product_field(g, g)
        frac = boundary_mass_fraction(u, peak_centers(u))
        assert 0 < frac < 1e-30
        assert frac == pytest.approx(self.direct_fraction(u, peak_centers(u)), rel=1e-14)

    def test_dense_h3_near_radius_bound_no_overflow(self):
        torus, radial = make_grid(64, 30.0), make_grid(512, 354.0, HYPERBOLIC)
        u = product_field(gaussian_field(torus, 1.0), gaussian_field(radial, 1.0, center=2.0))
        centers = peak_centers(u)
        with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise"):
            warnings.simplefilter("error")
            frac = boundary_mass_fraction(u, centers)
        assert math.isfinite(frac)
        assert frac == pytest.approx(self.direct_fraction(u, centers), rel=1e-14)


class TestTransformThreads:
    """The worker count of a transform comes from its size and the CPU
    affinity alone, and changes no bit of any result."""

    def test_size_gate(self):
        assert transform_workers(np.empty(2**18 - 1, dtype=complex)) == 1
        assert transform_workers(np.empty((512, 512), dtype=complex)) == len(os.sched_getaffinity(0))

    @pytest.mark.parametrize("kind", ["free", "hyperbolic-radial"])
    def test_product_propagate_independent_of_workers(self, kind, monkeypatch):
        first = make_grid(512, 200.0)
        second = make_grid(512, 40.0, HYPERBOLIC) if kind == "hyperbolic-radial" else make_grid(512, 150.0)
        specs = [PropagatorSpec("free", first), PropagatorSpec(kind, second)]
        rng = np.random.default_rng(11)
        values = rng.standard_normal((512, 512)) + 1j * rng.standard_normal((512, 512))
        u = Field((first, second), values * np.exp(-second.nodes / 4))
        assert u.values.size >= 2**18
        threaded = product_propagate(specs, u, 1.7).values
        for workers in (1, 2):
            for module in (propagators, hyperbolic):
                monkeypatch.setattr(module, "transform_workers", lambda values, n=workers: n)
            assert np.array_equal(product_propagate(specs, u, 1.7).values, threaded)

    @pytest.mark.parametrize("transform", [sfft.dst, sfft.idst], ids=["dst", "idst"])
    def test_complex_dst_matches_scipy(self, transform):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((48, 40)) + 1j * rng.standard_normal((48, 40))
        cases = [(x, 0), (x, 1), (x, -1), (x[0], 0), (x[0], -1), (x.T, 0), (x.T, -1)]
        for values, axis in cases:
            expected = transform(values, type=2, axis=axis)
            assert np.array_equal(_complex_dst(transform, values, axis), expected)

    def test_inverse_transforms_leave_coefficients_unchanged(self):
        grid = make_grid(64, 16.0, HYPERBOLIC)
        rng = np.random.default_rng(4)
        coeffs = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        kept = coeffs.copy()
        h3_factor(grid).inverse(coeffs, 0)
        assert np.array_equal(coeffs, kept)
        stack = np.multiply.outer(coeffs, coeffs)
        kept = stack.copy()
        for axis in (0, 1):
            h3_factor(grid).inverse(stack, axis)
        assert np.array_equal(stack, kept)
        # a product's forward and inverse without overwrite write neither
        # input, whichever factor kind comes first
        torus = make_grid(64, 30.0)
        free, h3 = PropagatorSpec("free", torus), PropagatorSpec("hyperbolic-radial", grid)
        for specs in ([free, h3], [h3, free], [potential_spec(torus, 0.5), free]):
            flow = propagators.spectral_product(specs, [s.grid for s in specs])
            for transform in (flow.forward, flow.inverse):
                kept = stack.copy()
                transform(stack)
                assert np.array_equal(stack, kept)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_torus_product_matches_fftn(self, workers, monkeypatch):
        # one transform per axis, axis 0 first both ways, is bit-identical
        # to scipy's transform over both axes
        monkeypatch.setattr(propagators, "transform_workers", lambda values: workers)
        grid = make_grid(256, 64.0)
        flow = propagators.spectral_product([PropagatorSpec("free", grid)] * 2, [grid] * 2)
        rng = np.random.default_rng(5)
        values = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
        assert np.array_equal(flow.forward(values), sfft.fftn(values, workers=workers))
        assert np.array_equal(flow.inverse(values), sfft.ifftn(values, workers=workers))


class TestDispersiveRatioSeries:
    """Ratio series ||u(t)||_r / ||u0||_r~ built from norm_series."""

    def ratios(self, specs, u, times, r, r_tilde):
        base = lp_norm(u, r_tilde)
        series = norm_series(lambda f, t: product_propagate(specs, f, t), u, times, r)
        return [s.value / base for s in series]

    def test_l2_ratios_all_one(self):
        grid = make_grid(128, 60.0)
        u = gaussian_field(grid, 1.0)
        for value in self.ratios([PropagatorSpec("free", grid)], u, [1.0, 2.0, 4.0], 2, 2):
            assert value == pytest.approx(1.0, abs=1e-10)

    def test_free_gaussian_ratios_decrease(self):
        grid = make_grid(1024, 400.0)
        u = gaussian_field(grid, 1.0)
        times = list(np.geomspace(1, 50, 10))
        values = self.ratios([PropagatorSpec("free", grid)], u, times, math.inf, 1)
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_product_ratio_quarter_rule(self):
        grid = make_grid(512, 300.0)
        specs = [PropagatorSpec("free", grid)] * 2
        u = product_field(gaussian_field(grid, 1.0), gaussian_field(grid, 1.0))
        early, late = self.ratios(specs, u, [4.0, 16.0], math.inf, 1)
        assert early / late == pytest.approx(4.0, rel=0.10)

    def test_nonincreasing_times_rejected(self):
        grid = make_grid(64, 30.0)
        u = gaussian_field(grid, 1.0)
        with pytest.raises(ValueError):
            self.ratios([PropagatorSpec("free", grid)], u, [2.0, 1.0], 2, 2)

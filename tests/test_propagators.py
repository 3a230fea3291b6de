"""Euclidean propagators through the product_propagate entry point: free
flow against the closed-form Gaussian, the potential eigenbasis against
Strang splitting, product factorization, flow properties of every factor kind, the two-particle
rotation, the wrap monitor, bit-identity of the threaded and line-grouped
transforms, and the sine transform against scipy's."""

import functools
import math
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
import scipy.fft as sfft
from hypothesis import given, settings
from hypothesis import strategies as st

from dispersia import fields, propagators
from dispersia.decay import norm_series
from dispersia.exponents import INF
from dispersia.fields import (
    HYPERBOLIC,
    Field,
    SeparableField,
    _frozen,
    gaussian_field,
    lp_norm,
    make_grid,
    values_lp_norms,
)
from dispersia.propagators import (
    PotentialSpec,
    PropagatorSpec,
    _sine_transforms,
    boundary_mass_fraction,
    h3_factor,
    original_coordinates_reference,
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


def phase_step(half):
    """The pointwise step of a Strang loop whose potential substep is the
    phase `half` per half step: x times half, or times half^2 per full step."""
    return lambda x, s: x * (half if s < 1 else half * half)


def strang_flow(grid, potential, values, t, steps):
    """The old split-step scheme, kept as the oracle: Strang splitting of
    the free factor flow and the potential phase over `steps` steps."""
    dt = t / steps
    half = np.exp(-0.5j * dt * potential.sample(grid))
    free = PropagatorSpec("free", grid).factor
    return propagators._strang(values, lambda w: per_axis_flow([free], w, dt), phase_step(half), steps)


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

    @pytest.mark.parametrize("family, width", [("gaussian-bump", 1e-300), ("sech-squared", 1e-320)])
    def test_narrow_potential_takes_its_float_limit(self, family, width):
        # so narrow that d, d^2 or cosh(d)^2 overflows at every node but the
        # centre: V is its exact float limit 0 there, with no overflow
        # warning, and the amplitude on the node at the centre
        grid = make_grid(512, 260.0)
        v = PotentialSpec(family, amplitude=0.3, width=width, center=grid.length / 2).sample(grid)
        expected = np.zeros(512)
        expected[256] = 0.3
        assert np.array_equal(v, expected)


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


FACTOR_SPECS = [
    PropagatorSpec("free", make_grid(64, 30.0)),
    potential_spec(make_grid(64, 30.0)),
    PropagatorSpec("hyperbolic-radial", make_grid(64, 12.0, HYPERBOLIC)),
]


class TestFactorKindProperties:
    """Flow identities shared by every factor kind."""

    @pytest.mark.parametrize("spec", FACTOR_SPECS, ids=lambda spec: spec.kind)
    @given(t=st.floats(0, 10), seed=st.integers(0, 100))
    @settings(max_examples=15, deadline=None)
    def test_time_reversal(self, spec, t, seed):
        u = random_field(spec.grid, seed)
        back = flow(spec, flow(spec, u, t), -t)
        assert lp_norm(back.with_values(back.values - u.values), 2) <= 1e-10 * lp_norm(u, 2)


class TestDecayRate:
    """PropagatorSpec.decay_rate, the large-time rate of a factor's
    L^q' -> L^q estimate, in exact arithmetic."""

    @pytest.mark.parametrize("spec, rates", [
        (FACTOR_SPECS[0], (0, Fraction(1, 4), Fraction(1, 2))),
        (FACTOR_SPECS[1], (0, Fraction(1, 4), Fraction(1, 2))),
        (FACTOR_SPECS[2], (0, Fraction(3, 2), Fraction(3, 2))),
    ], ids=[spec.kind for spec in FACTOR_SPECS])
    def test_rate_at_q_2_4_inf(self, spec, rates):
        assert tuple(spec.decay_rate(q) for q in (2, 4, INF)) == rates
        assert all(isinstance(spec.decay_rate(q), Fraction) for q in (2, 4, INF))

    def test_h3_rate_is_not_interpolated(self):
        # interpolating the L^1 -> L^inf rate 3/2 against L^2 conservation
        # would give (3/2)(1 - 2/4) = 3/4 at q = 4; the H^3 rate is 3/2
        rate = FACTOR_SPECS[2].decay_rate(Fraction(4))
        assert rate == Fraction(3, 2) != Fraction(3, 2) * (1 - Fraction(2, 4))

    @pytest.mark.parametrize("spec", FACTOR_SPECS, ids=lambda spec: spec.kind)
    def test_q_below_2_refused(self, spec):
        with pytest.raises(ValueError, match="q >= 2"):
            spec.decay_rate(Fraction(3, 2))


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

    def test_boundary_mass_fraction_of_a_zero_factor(self):
        # the state is zero, and its fraction reads 0 as the dense one does,
        # whatever the other factors' own fractions are
        u = self.evolved()
        zero = SeparableField((u.factors[0], Field(u.grids[1:2], np.zeros(40)), u.factors[2]))
        centers = peak_centers(self.u0)
        assert boundary_mass_fraction(u, centers) > 0.01
        assert boundary_mass_fraction(zero, centers) == boundary_mass_fraction(dense(zero), centers) == 0.0

    @pytest.mark.parametrize("t", [1.7, -2.3])
    def test_product_propagate_matches_dense(self, t):
        factored = product_propagate(self.specs, self.u0, t)
        assert isinstance(factored, SeparableField)
        direct = product_propagate(self.specs, dense(self.u0), t).values
        assert np.max(np.abs(dense(factored).values - direct)) <= 1e-12 * np.max(np.abs(direct))

    def test_norm_series_matches_dense(self):
        def evolve(u, t):
            return product_propagate(self.specs, u, t)

        times = np.geomspace(0.25, 8.0, 8)
        factored = norm_series(evolve, self.u0, times, math.inf)
        direct = norm_series(evolve, dense(self.u0), times, math.inf)
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
        out = two_particle_propagate(np.zeros(81), u, 1.0, 32)
        xi = torus_frequencies(grid)
        mult = np.exp(-1j * 1.0 * (xi[:, None] ** 2 + xi[None, :] ** 2))
        direct = u.with_values(sfft.ifft2(sfft.fft2(u.values) * mult))
        diff = lp_norm(out.with_values(out.values - direct.values), 2)
        assert diff <= 1e-8

    def test_matches_original_coordinates_oracle(self):
        grid = make_grid(81, 40.0)
        pot = PotentialSpec("sech-squared", amplitude=0.5, width=1.0, center=0.0)
        v = pot.sample(grid)
        u = product_field(gaussian_field(grid, 1.0), gaussian_field(grid, 1.0))
        rotated = two_particle_propagate(v, u, 1.0, 64)
        reference = original_coordinates_reference(v, u, 1.0, 64)
        diff = lp_norm(rotated.with_values(rotated.values - reference.values), 2)
        assert diff <= 1e-6

    @staticmethod
    def strang_2d(v, u, t, steps):
        """The rotated Strang scheme with a full 2-D FFT pair in every
        kinetic step, the form without the sum-axis shortcut."""
        grid = u.grids[0]
        n = grid.n_points
        dt = t / steps
        half = np.exp(-0.5j * dt * v)[np.newaxis, :]
        xi = torus_frequencies(grid)
        idx = np.arange(n)
        mult2d = np.exp(-1j * dt * (xi[(idx[:, None] + idx) % n] ** 2 + xi[(idx[:, None] - idx) % n] ** 2))
        w = two_particle_rotate(u, "forward").values
        w = propagators._strang(w, lambda x: sfft.ifft2(sfft.fft2(x) * mult2d), phase_step(half), steps)
        return two_particle_rotate(u.with_values(w), "inverse")

    def sech_case(self, n=81, length=40.0):
        grid = make_grid(n, length)
        v = PotentialSpec("sech-squared", amplitude=0.5, width=1.0, center=0.0).sample(grid)
        u = product_field(gaussian_field(grid, 1.0, center=-3.0), gaussian_field(grid, 1.5, center=4.0))
        return v, u

    def test_matches_2d_strang_oracle(self):
        v, u = self.sech_case()
        out = two_particle_propagate(v, u, 1.0, 64).values
        oracle = self.strang_2d(v, u, 1.0, 64).values
        assert np.max(np.abs(out - oracle)) <= 1e-12 * np.max(np.abs(oracle))

    @pytest.mark.parametrize("a", [1, 5, -7])
    def test_commutes_with_sum_direction_shift(self, a):
        # V(x - y) is invariant under (x, y) -> (x + a h, y + a h), so the
        # flow is too: the conserved centre-of-mass momentum the sum-axis
        # shortcut rests on
        v, u = self.sech_case()

        def shift(f):
            return f.with_values(np.roll(f.values, (a, a), axis=(0, 1)))

        flowed_then_shifted = shift(two_particle_propagate(v, u, 1.0, 16)).values
        shifted_then_flowed = two_particle_propagate(v, shift(u), 1.0, 16).values
        scale = np.max(np.abs(flowed_then_shifted))
        assert np.max(np.abs(shifted_then_flowed - flowed_then_shifted)) <= 1e-12 * scale

    def test_leaves_datum_unchanged(self):
        v, u = self.sech_case(n=27, length=15.0)
        values = np.array(u.values)
        kept = values.copy()
        datum = Field(u.grids, values)
        two_particle_propagate(v, datum, 1.0, 8)
        assert np.array_equal(values, kept)
        assert np.array_equal(datum.values, kept)

    def test_independent_of_workers(self, monkeypatch):
        v, u = self.sech_case(n=513, length=200.0)
        assert u.values.size >= 2**18
        threaded = two_particle_propagate(v, u, 0.5, 3).values
        for cores in (1, 2, 3):
            monkeypatch.setattr(fields, "_cores", lambda c=cores: c)
            assert np.array_equal(two_particle_propagate(v, u, 0.5, 3).values, threaded)

    @pytest.mark.parametrize("n, length", [(81, 40.0), (243, 160.0)])
    def test_independent_of_block_count(self, monkeypatch, n, length):
        # the Strang loop runs on one block of rows per core: 81 rows split
        # 40/41 into 2 blocks and 243 rows 121/122
        v, u = self.sech_case(n, length)
        results = {}
        for cores in (1, 2, 3):
            monkeypatch.setattr(fields, "_cores", lambda c=cores: c)
            results[cores] = two_particle_propagate(v, u, 0.37, 13).values
        for cores in (2, 3):
            assert bits_equal(results[cores], results[1]), cores

    @staticmethod
    def strang_threads(monkeypatch, fail_off_caller=False):
        """Patch propagators._strang to record the thread of each call and,
        with fail_off_caller, to raise on any thread but this one."""
        caller, threads = threading.get_ident(), []
        strang = propagators._strang

        def recording(values, *args):
            threads.append(threading.get_ident())
            if fail_off_caller and threads[-1] != caller:
                raise ArithmeticError("a later block")
            return strang(values, *args)

        monkeypatch.setattr(propagators, "_strang", recording)
        return caller, threads

    def test_strang_blocks_share_the_cores(self, monkeypatch):
        monkeypatch.setattr(fields, "_cores", lambda: 2)
        caller, threads = self.strang_threads(monkeypatch)
        v, u = self.sech_case()
        two_particle_propagate(v, u, 1.0, 8)
        assert len(threads) == 2
        assert caller in threads and any(t != caller for t in threads)

    def test_concurrent_callers_match_sequential(self, monkeypatch):
        # as the route worker and the series do: two callers split their
        # loops into more blocks than the pool has threads, so their blocks
        # queue behind each other's; a short switch interval interleaves
        # them between every few bytecodes
        monkeypatch.setattr(fields, "_cores", lambda: 5)
        v, u = self.sech_case()
        cases = [(1.0, 16), (0.37, 13)]
        expected = [two_particle_propagate(v, u, t, steps).values for t, steps in cases]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                futures = [pool.submit(two_particle_propagate, v, u, t, steps) for t, steps in cases]
                results = [f.result(timeout=120).values for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for got, want in zip(results, expected):
            assert bits_equal(got, want)

    def test_later_block_exception_reraises(self, monkeypatch):
        monkeypatch.setattr(fields, "_cores", lambda: 3)
        self.strang_threads(monkeypatch, fail_off_caller=True)
        v, u = self.sech_case()
        with pytest.raises(ArithmeticError, match="a later block"):
            two_particle_propagate(v, u, 1.0, 8)

    @pytest.mark.parametrize("route", [two_particle_propagate, original_coordinates_reference])
    def test_refuses_unequal_axes(self, route):
        # 243 points on tori of lengths 160 and 80 make no square grid: no
        # one set of torus frequencies serves both axes
        u = Field((make_grid(243, 160.0), make_grid(243, 80.0)), np.ones((243, 243)))
        with pytest.raises(ValueError, match="square"):
            route(np.zeros(243), u, 1.0, 4)

    @pytest.mark.parametrize("route", [two_particle_propagate, original_coordinates_reference])
    def test_refuses_steps_below_one(self, route):
        v, u = self.sech_case(n=27, length=15.0)
        with pytest.raises(ValueError, match="steps must be >= 1"):
            route(v, u, 1.0, 0)

    @pytest.mark.parametrize("route", [two_particle_propagate, original_coordinates_reference])
    def test_refuses_potential_off_the_grid(self, route):
        v, u = self.sech_case(n=27, length=15.0)
        with pytest.raises(ValueError, match="potential samples must match the grid"):
            route(np.concatenate((v, v)), u, 1.0, 4)

    def test_t0_identity(self):
        grid = make_grid(9, 5.0)
        u = product_field(gaussian_field(grid, 1.0), gaussian_field(grid, 1.0))
        out = two_particle_propagate(np.zeros(9), u, 0.0, 1)
        assert np.allclose(out.values, u.values, atol=1e-14)

    def test_l2_preserved(self):
        grid = make_grid(27, 15.0)
        pot = PotentialSpec("gaussian-bump", amplitude=1.0, width=1.0, center=0.0)
        u = product_field(gaussian_field(grid, 1.0), gaussian_field(grid, 1.0))
        out = two_particle_propagate(pot.sample(grid), u, 2.0, 32)
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


def bits_equal(a, b) -> bool:
    """Bit-for-bit equality of two complex arrays."""
    return np.array_equal(np.ascontiguousarray(a).view(np.uint64), np.ascontiguousarray(b).view(np.uint64))


def reference_propagate(specs, u, t):
    """SpectralProduct.propagate on u's values (per factor for a
    SeparableField), with no kept coefficients."""
    if isinstance(u, SeparableField):
        return [reference_propagate([s], f, t)[0] for s, f in zip(specs, u.factors)]
    return [propagators.spectral_product(specs, u.grids).propagate(u.values, t)]


def propagated_values(specs, u, t):
    out = product_propagate(specs, u, t)
    return [f.values for f in out.factors] if isinstance(out, SeparableField) else [out.values]


def slot_products():
    """(name, spec-list builder, data A, data B) on free x free, free x H^3,
    potential x free, and a SeparableField whose two factors are one Field
    object; each builder returns a fresh spec list, so a fresh flow."""
    torus_a, torus_b, h3 = make_grid(32, 16.0), make_grid(24, 12.0), make_grid(20, 8.0, HYPERBOLIC)
    pot = PotentialSpec("gaussian-bump", amplitude=0.5, width=1.0, center=8.0)

    def dense_pair(grids, seed):
        rng = np.random.default_rng(seed)
        shape = tuple(g.n_points for g in grids)
        return [Field(grids, rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) for _ in range(2)]

    # free x free and potential x free share their data, so a sequence of
    # calls can take one Field under two flows
    torus_data = dense_pair((torus_a, torus_b), 1)
    factor = random_field(torus_a, 3)
    return [
        ("free-free", lambda: [PropagatorSpec("free", torus_a), PropagatorSpec("free", torus_b)], *torus_data),
        ("free-h3", lambda: [PropagatorSpec("free", torus_a), PropagatorSpec("hyperbolic-radial", h3)],
         *dense_pair((torus_a, h3), 2)),
        ("potential-free", lambda: [PropagatorSpec("free-plus-potential", torus_a, pot),
                                    PropagatorSpec("free", torus_b)], *torus_data),
        ("separable", lambda: [PropagatorSpec("free", torus_a)] * 2,
         SeparableField((factor, factor)), SeparableField((random_field(torus_a, 5),) * 2)),
    ]


SLOT_PRODUCTS = slot_products()


class TestForwardSlot:
    """product_propagate keeps the forward transform of the last Field it
    propagated; every result stays bit-identical to SpectralProduct.propagate."""

    @pytest.mark.parametrize("name, make_specs, a, b", SLOT_PRODUCTS, ids=[p[0] for p in SLOT_PRODUCTS])
    def test_interleaved_calls_match_spectral_product(self, name, make_specs, a, b):
        specs = make_specs()
        for specs_now, u, t in [(specs, a, 1.3), (specs, b, 0.7), (specs, a, -2.9), (make_specs(), a, 4.1)]:
            got, expected = propagated_values(specs_now, u, t), reference_propagate(specs_now, u, t)
            assert all(bits_equal(x, y) for x, y in zip(got, expected))

    @pytest.mark.parametrize("name, make_specs, a, b", SLOT_PRODUCTS[:3], ids=[p[0] for p in SLOT_PRODUCTS[:3]])
    def test_coefficients_are_the_first_operand(self, name, make_specs, a, b):
        # numpy's complex multiply is not bitwise commutative: the phase is
        # applied as coefficients *= phase, as the artifacts were computed
        flow = propagators.spectral_product(make_specs(), a.grids)
        coeffs = flow.forward(a.values)
        coeffs *= flow.phase(1.9)
        assert bits_equal(flow.propagate(a.values, 1.9), flow.inverse(coeffs, overwrite=True))

    def test_one_field_under_two_flows(self):
        (_, free_specs, a, _), (_, potential_specs, same_a, _) = SLOT_PRODUCTS[0], SLOT_PRODUCTS[2]
        assert same_a is a
        for specs in (free_specs(), potential_specs(), free_specs()):
            assert bits_equal(product_propagate(specs, a, 1.1).values, reference_propagate(specs, a, 1.1)[0])

    @given(calls=st.lists(st.tuples(st.integers(0, len(SLOT_PRODUCTS) - 1), st.booleans(), st.booleans(),
                                    st.floats(-5, 5)), min_size=1, max_size=8))
    @settings(max_examples=25, deadline=None)
    def test_random_call_sequences_match_spectral_product(self, calls):
        specs = [make_specs() for _, make_specs, _, _ in SLOT_PRODUCTS]
        for which, second, fresh, t in calls:
            _, make_specs, a, b = SLOT_PRODUCTS[which]
            s, u = make_specs() if fresh else specs[which], b if second else a
            got, expected = propagated_values(s, u, t), reference_propagate(s, u, t)
            assert all(bits_equal(x, y) for x, y in zip(got, expected))

    def test_coefficients_kept_read_only_and_reused(self):
        _, make_specs, a, _ = SLOT_PRODUCTS[1]
        specs = make_specs()
        product_propagate(specs, a, 1.0)
        slot = propagators._last_forward
        assert slot[0]() is a
        assert not slot[2].flags.writeable
        product_propagate(specs, a, 2.0)
        assert propagators._last_forward is slot

    def test_concurrent_fields_match_sequential(self):
        # two threads propagate two Fields to many times, so each keeps
        # replacing the other's coefficients; a short switch interval
        # interleaves them between every few bytecodes
        grid = make_grid(64, 30.0)
        specs = [PropagatorSpec("free", grid), PropagatorSpec("free", grid)]
        rng = np.random.default_rng(12)
        data = [Field((grid, grid), rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64)))
                for _ in range(2)]
        times = list(np.linspace(-3.0, 3.0, 40))
        expected = [[reference_propagate(specs, u, t)[0] for t in times] for u in data]

        def run(u):
            return [product_propagate(specs, u, t).values for t in times]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                futures = [pool.submit(run, u) for u in data]
                results = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for got, want in zip(results, expected):
            assert all(bits_equal(x, y) for x, y in zip(got, want))


class TestTransformThreads:
    """The worker count of a transform comes from its size and the CPU
    affinity alone, and changes no bit of any result."""

    def test_size_gate(self, monkeypatch):
        # _by_rows runs every group on this thread below 2^18 points, and
        # from there up on every core
        monkeypatch.setattr(fields, "_cores", lambda: 2)
        for shape, threads in (((255, 1028), 1), ((512, 512), 2)):
            calls = fields._by_rows(lambda rows: threading.get_ident(), np.empty(shape, dtype=complex))
            assert len(set(calls)) == threads, shape

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
            monkeypatch.setattr(fields, "_cores", lambda n=workers: n)
            assert np.array_equal(product_propagate(specs, u, 1.7).values, threaded)

    @staticmethod
    def dst_cases(n):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((n, n + 3)) + 1j * rng.standard_normal((n, n + 3))
        stack = rng.standard_normal((4, n, 5)) + 1j * rng.standard_normal((4, n, 5))
        return [(x, 0), (x.T, 1), (x.T, -1), (x[:, 0], 0), (x[:, 0], -1), (stack, 1)]

    @pytest.mark.parametrize("n", [7, 8, 40, 48])
    def test_sine_transforms_match_scipy(self, n):
        # the unscaled DST-II by one complex FFT per line, and its inverse,
        # against scipy's type-2 dst and idst on 1-D, 2-D, transposed and
        # 3-D inputs, along every axis
        dst, idst = _sine_transforms(np.ones(n), np.ones(n))
        for values, axis in self.dst_cases(n):
            for transform, oracle in ((dst, sfft.dst), (idst, sfft.idst)):
                expected = oracle(values, type=2, axis=axis)
                got = transform(np.array(values, dtype=complex, order="C"), axis)
                assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected)), (n, axis)

    @pytest.mark.parametrize("n", [7, 8, 40, 48])
    def test_sine_transforms_round_trip(self, n):
        # the inverse undoes the forward: idst(dst(x)) is x
        dst, idst = _sine_transforms(np.ones(n), np.ones(n))
        for values, axis in self.dst_cases(n):
            back = idst(dst(np.array(values, order="C"), axis), axis)
            assert np.max(np.abs(back - values)) <= 1e-14 * np.max(np.abs(values)), (n, axis)

    def test_inverse_transforms_leave_coefficients_unchanged(self):
        # the H^3 factor's forward and inverse without overwrite write
        # neither a 1-D nor a 2-D input
        grid = make_grid(64, 16.0, HYPERBOLIC)
        factor = h3_factor(grid)
        rng = np.random.default_rng(4)
        coeffs = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        stack = np.multiply.outer(coeffs, coeffs)
        for transform in (factor.forward, factor.inverse):
            kept = coeffs.copy()
            transform(coeffs, 0)
            assert np.array_equal(coeffs, kept)
            kept = stack.copy()
            for axis in (0, 1):
                transform(stack, axis)
            assert np.array_equal(stack, kept)
        # a product's forward and inverse without overwrite write neither
        # input, whichever factor kind comes first
        torus = make_grid(64, 30.0)
        free, h3 = PropagatorSpec("free", torus), PropagatorSpec("hyperbolic-radial", grid)
        for specs in ([free, h3], [h3, free], [h3, h3], [potential_spec(torus, 0.5), free]):
            flow = propagators.spectral_product(specs, [s.grid for s in specs])
            for transform in (flow.forward, flow.inverse):
                kept = stack.copy()
                transform(stack)
                assert np.array_equal(stack, kept)

    @pytest.mark.parametrize("shape", [(256, 256), (243, 243), (243, 280)], ids=str)
    @pytest.mark.parametrize("blocks", [1, 2])
    def test_torus_product_matches_fftn(self, shape, blocks, monkeypatch):
        # one transform per axis, axis 0 first both ways, in groups of 28 to
        # 32 lines split over `blocks` threads, is bit-identical to scipy's
        # forward transform over both axes and to its inverse transform one
        # axis at a time (ifftn scales once by 1/(n0 n1), which at 243
        # points is not the bits of 1/n0 and then 1/n1)
        monkeypatch.setattr(fields, "_cores", lambda: blocks)
        monkeypatch.setattr(fields, "_THREAD_MIN_POINTS", 0)
        monkeypatch.setattr(fields, "_GROUP_POINTS", 31 * 256)
        grids = [make_grid(n, 64.0) for n in shape]
        flow = propagators.spectral_product([PropagatorSpec("free", g) for g in grids], grids)
        rng = np.random.default_rng(5)
        values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        assert np.array_equal(flow.forward(values), sfft.fftn(values))
        assert np.array_equal(flow.inverse(values), sfft.ifft(sfft.ifft(values, axis=0), axis=1))

    def test_original_coordinates_reference_matches_scipy_oracle(self):
        # the reference's kinetic step is the free x free product flow's:
        # scipy's per-axis fft and ifft, axis 0 first both ways, times the
        # outer product of the 1-D phases, at a grid size whose 1/n is not
        # exact
        grid = make_grid(243, 60.0)
        rng = np.random.default_rng(9)
        u = Field((grid, grid), rng.standard_normal((243, 243)) + 1j * rng.standard_normal((243, 243)))
        v = PotentialSpec("sech-squared", amplitude=0.5).sample(grid)
        t, steps = 0.7, 5
        idx = np.arange(243)
        phase = np.exp(-1j * (t / steps) * torus_frequencies(grid) ** 2)
        mult = np.multiply.outer(phase, phase)
        half = np.exp(-0.5j * (t / steps) * v[(idx[:, None] - idx[None, :]) % 243])

        def kinetic(x):
            x = sfft.fft(sfft.fft(x, axis=0), axis=1) * mult
            return sfft.ifft(sfft.ifft(x, axis=0), axis=1)

        oracle = propagators._strang(u.values, kinetic, propagators._phase_step(half), steps)
        assert np.array_equal(original_coordinates_reference(v, u, t, steps).values, oracle)


class TestH3InPlace:
    """The H^3 factor honours overwrite as the free factor does: a writable
    C-contiguous complex array is transformed in place, and any other input
    is copied once and never written."""

    grid = make_grid(40, 10.0, HYPERBOLIC)

    def values(self, seed=6):
        rng = np.random.default_rng(seed)
        return rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("axis", [0, 1, -1])
    @pytest.mark.parametrize("direction", ["forward", "inverse"])
    def test_overwrite_transforms_in_place(self, direction, axis, workers, monkeypatch):
        # against the transform on one block; groups of 2 lines (a
        # sixteenth of the array) split over `workers` threads give its bits
        transform = getattr(h3_factor(self.grid), direction)
        values = self.values()
        monkeypatch.setattr(fields, "_cores", lambda: 1)
        expected = transform(values, axis)
        monkeypatch.setattr(fields, "_cores", lambda: workers)
        monkeypatch.setattr(fields, "_THREAD_MIN_POINTS", 0)
        got = transform(values, axis, overwrite=True)
        assert np.shares_memory(got, values)
        assert bits_equal(got, expected)

    @pytest.mark.parametrize("direction", ["forward", "inverse"])
    def test_other_inputs_never_written(self, direction):
        transform = getattr(h3_factor(self.grid), direction)
        values = self.values()
        read_only = values.copy()
        read_only.flags.writeable = False
        for x in (read_only, values.T, values.real):
            kept = x.copy()
            for axis in (0, 1):
                out = transform(x, axis, overwrite=True)
                assert np.array_equal(x, kept)
                assert not np.shares_memory(out, x)
                assert bits_equal(out, transform(kept, axis))


ALLOC_KINDS = [("free", "free"), ("free", "h3"), ("h3", "free"), ("h3", "h3")]


@pytest.mark.parametrize("kinds", ALLOC_KINDS, ids=["-".join(k) for k in ALLOC_KINDS])
def test_dense_product_allocation_budget(kinds):
    # traced allocations of one dense product_propagate call, in states
    # above the start: a warm call (forward coefficients kept) allocates
    # the product buffer that becomes its result, and the first call also
    # the coefficients; every transform of both runs in place
    grids = tuple(
        make_grid(n, 40.0, HYPERBOLIC) if kind == "h3" else make_grid(n, 64.0)
        for kind, n in zip(kinds, (256, 280))
    )
    specs = [PropagatorSpec("hyperbolic-radial" if g.kind == HYPERBOLIC else "free", g) for g in grids]
    rng = np.random.default_rng(13)
    u = Field(grids, rng.standard_normal((256, 280)) + 1j * rng.standard_normal((256, 280)))

    def states_allocated(t):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            product_propagate(specs, u, t)
            return (tracemalloc.get_traced_memory()[1] - start) / u.values.nbytes
        finally:
            tracemalloc.stop()

    assert states_allocated(1.3) <= 2.5
    assert states_allocated(2.1) <= 1.5


def test_threaded_product_allocation_budget(monkeypatch):
    # the budget of test_dense_product_allocation_budget above 2^18 points,
    # where the phase runs on two runs of row groups, one per thread:
    # tracemalloc counts the pool thread's allocations too, and each group
    # builds its phase rows straight into the product's buffer
    monkeypatch.setattr(fields, "_cores", lambda: 2)
    grids = (make_grid(512, 64.0), make_grid(560, 40.0, HYPERBOLIC))
    specs = [PropagatorSpec("free", grids[0]), PropagatorSpec("hyperbolic-radial", grids[1])]
    rng = np.random.default_rng(14)
    u = Field(grids, rng.standard_normal((512, 560)) + 1j * rng.standard_normal((512, 560)))
    assert u.values.size >= 2**18

    def states_allocated(t):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            product_propagate(specs, u, t)
            return (tracemalloc.get_traced_memory()[1] - start) / u.values.nbytes
        finally:
            tracemalloc.stop()

    assert states_allocated(1.3) <= 2.5
    assert states_allocated(2.1) <= 1.5


class TestRowBlocks:
    """The state-sized pointwise steps run once on each group of rows, a
    run of whole groups per core, and give the same bits for any block
    count; 3 blocks split the groups unevenly."""

    torus, wide, h3 = make_grid(512, 200.0), make_grid(560, 150.0), make_grid(560, 40.0, HYPERBOLIC)
    h3_rows = make_grid(512, 40.0, HYPERBOLIC)

    @staticmethod
    def values(seed):
        rng = np.random.default_rng(seed)
        return rng.standard_normal((512, 560)) + 1j * rng.standard_normal((512, 560))

    def results(self):
        u = Field((self.torus, self.h3), self.values(22) * np.exp(-self.h3.nodes / 4))
        coeffs = self.values(23)
        out = {}
        for label, grids in (("free-free", (self.torus, self.wide)), ("free-h3", (self.torus, self.h3)),
                             ("h3-free", (self.h3_rows, self.wide))):
            specs = [PropagatorSpec("hyperbolic-radial" if g.kind == HYPERBOLIC else "free", g) for g in grids]
            flow = propagators.spectral_product(specs, grids)
            out[label] = flow.propagate_coefficients(coeffs, 1.7)
        out["boundary"] = np.float64(boundary_mass_fraction(u, (100.0, 0.0)))
        out["sup"] = np.float64(lp_norm(u, INF))
        out["norms"] = np.array(values_lp_norms(u.values, u.grids, (1, 2, 4)))
        return out

    def test_independent_of_block_count(self, monkeypatch):
        results = {}
        for blocks in (1, 2, 3):
            monkeypatch.setattr(fields, "_cores", lambda n=blocks: n)
            results[blocks] = self.results()
        assert results[1]["boundary"] > 0
        for blocks in (2, 3):
            for key, expected in results[1].items():
                assert bits_equal(results[blocks][key], expected), (blocks, key)

    def test_matches_unblocked_steps(self):
        # the blocked steps against their whole-array forms
        u = Field((self.torus, self.h3), self.values(24))
        squared = np.square(u.values.real) + np.square(u.values.imag)
        powers = {1: np.abs(u.values), 2: squared, 4: np.square(squared)}
        weights = [g.weights for g in u.grids]
        expected = [float(np.einsum("i,i", np.einsum("ij,j->i", p, weights[1]), weights[0])) ** (1 / r)
                    for r, p in powers.items()]
        assert values_lp_norms(u.values, u.grids, (1, 2, 4)) == expected
        assert lp_norm(u, INF) == float(np.abs(u.values).max())
        specs = [PropagatorSpec("free", self.torus), PropagatorSpec("hyperbolic-radial", self.h3)]
        flow = propagators.spectral_product(specs, u.grids)
        coeffs = self.values(25)
        assert bits_equal(flow.propagate_coefficients(coeffs, 0.9), flow.inverse(coeffs * flow.phase(0.9)))

    @pytest.mark.parametrize("axis", [0, 1])
    def test_h3_scalings_independent_of_block_count(self, monkeypatch, axis):
        # the sinh r and 1/sinh r scalings ride on each line group's gather
        # and scatter, in place under overwrite=True, with the bits of one
        # whole-array multiply and the unscaled transform on one block
        grid = self.h3_rows if axis == 0 else self.h3
        factor = h3_factor(grid)
        shape = [1, 1]
        shape[axis] = -1
        sinh_r = np.sinh(grid.nodes).reshape(shape)
        dst, idst = _sine_transforms(np.ones(grid.n_points), np.ones(grid.n_points))
        monkeypatch.setattr(fields, "_cores", lambda: 1)
        expected = (dst(self.values(29) * sinh_r, axis), idst(self.values(30), axis) * (1.0 / sinh_r))
        for blocks in (1, 2, 3):
            monkeypatch.setattr(fields, "_cores", lambda n=blocks: n)
            x, y = self.values(29), self.values(30)
            got = factor.forward(x, axis, overwrite=True), factor.inverse(y, axis, overwrite=True)
            assert np.shares_memory(got[0], x) and np.shares_memory(got[1], y)
            for g, want in zip(got, expected):
                assert bits_equal(g, want), (blocks, axis)

    @pytest.mark.parametrize("group_points", [100, 560 * 7, 2**16])
    def test_uneven_groups(self, monkeypatch, group_points):
        # the norms and the wrap monitor walk the rows in groups (one row
        # when a row is wider than a group), and a block is a run of whole
        # groups; here groups of 7 or 117 rows leave a shorter last group,
        # 1, 2 or 3 blocks hold them, and the results keep the bits of one
        # whole-array pass
        u = Field((self.torus, self.h3), self.values(26) * np.exp(-self.h3.nodes / 4))
        monkeypatch.setattr(fields, "_cores", lambda: 1)
        monkeypatch.setattr(fields, "_GROUP_POINTS", u.values.size)
        expected = boundary_mass_fraction(u, (100.0, 0.0)), values_lp_norms(u.values, u.grids, (1, 3, INF))
        monkeypatch.setattr(fields, "_GROUP_POINTS", group_points)
        step = max(1, group_points // 560)
        assert (512 % step > 0) == (step > 1)
        groups = [(a, min(a + step, 512)) for a in range(0, 512, step)]
        for blocks in (1, 2, 3):
            monkeypatch.setattr(fields, "_cores", lambda n=blocks: n)
            assert fields._by_rows(lambda rows: (rows.start, rows.stop), u.values) == groups
            got = boundary_mass_fraction(u, (100.0, 0.0)), values_lp_norms(u.values, u.grids, (1, 3, INF))
            assert got == expected, (blocks, group_points)
            nan_last = u.values.copy()
            nan_last[-1, -1] = np.nan
            assert math.isnan(fields._sup(nan_last))

    def test_pointwise_temporaries_stay_group_sized(self, monkeypatch):
        # on one thread each step's temporaries are one group's (about 2^16
        # points), not a block's or a state's: below 2 MiB on a 17.5 MiB
        # state
        monkeypatch.setattr(fields, "_cores", lambda: 1)
        grids = (make_grid(1024, 200.0), make_grid(1120, 40.0, HYPERBOLIC))
        rng = np.random.default_rng(31)
        values = _frozen(rng.standard_normal((1024, 1120)) + 1j * rng.standard_normal((1024, 1120)))
        u = Field(grids, values)
        assert u.values is values
        steps = {
            "all_finite": lambda: fields._all_finite(values),
            "field": lambda: Field(grids, values),
            "sup": lambda: fields._sup(values),
            "boundary": lambda: boundary_mass_fraction(u, (100.0, 0.0)),
            "norms": lambda: values_lp_norms(values, grids, (1, 2, 4)),
        }
        for name, step in steps.items():
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                step()
                peak = tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()
            assert peak < 2 * 2**20, (name, peak / 2**20)

    def test_concurrent_callers_match_sequential(self, monkeypatch):
        # two callers split their states into more blocks than the pool has
        # threads, so their blocks queue behind each other's; a short switch
        # interval interleaves them between every few bytecodes
        monkeypatch.setattr(fields, "_cores", lambda: 5)
        specs = [PropagatorSpec("free", self.torus), PropagatorSpec("hyperbolic-radial", self.h3)]
        data = [Field((self.torus, self.h3), self.values(seed)) for seed in (27, 28)]

        def run(u):
            out = propagators.product_propagate(specs, u, 0.6)
            return out.values, boundary_mass_fraction(out, (100.0, 0.0)), lp_norm(out, INF)

        expected = [run(u) for u in data]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                futures = [pool.submit(run, u) for u in data]
                results = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for got, want in zip(results, expected):
            assert bits_equal(got[0], want[0])
            assert got[1:] == want[1:]

    @pytest.mark.parametrize("blocks", [1, 2, 3])
    def test_nonfinite_in_the_last_block_refused(self, monkeypatch, blocks):
        # the last row is in the last worker's block: a dropped block result
        # would pass the NaN
        monkeypatch.setattr(fields, "_cores", lambda: blocks)
        values = self.values(26)
        values[-1, -1] = np.nan
        with pytest.raises(ValueError, match="field values must be finite"):
            Field((self.torus, self.h3), values)


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

"""Grids, fields, and quadrature norms."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dispersia.fields import (
    EUCLIDEAN,
    HYPERBOLIC,
    Field,
    Trajectory,
    _abs_squared,
    gaussian_field,
    lp_norm,
    make_grid,
    slice_lp_norms,
    values_lp_norm,
    values_lp_norms,
)
from oracles import product_field

RNG = np.random.default_rng(20240817)


def random_field(grid, seed=0):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(grid.n_points) + 1j * rng.standard_normal(grid.n_points)
    return Field((grid,), vals)


class TestMakeGrid:
    def test_euclidean_spacing(self):
        grid = make_grid(256, 100.0)
        assert grid.spacing == pytest.approx(0.390625, abs=0)

    def test_hyperbolic_first_node_cell_centered(self):
        grid = make_grid(128, 20.0, HYPERBOLIC)
        assert grid.nodes[0] == pytest.approx(0.078125, abs=0)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            make_grid(7, 10.0)

    def test_nonpositive_length_rejected(self):
        with pytest.raises(ValueError):
            make_grid(64, 0.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            make_grid(64, 10.0, "strange")

    def test_euclidean_weights_are_spacing(self):
        grid = make_grid(16, 8.0)
        assert np.allclose(grid.weights, 0.5)

    def test_hyperbolic_weights_are_sphere_areas(self):
        grid = make_grid(32, 4.0, HYPERBOLIC)
        expected = 4.0 * np.pi * np.sinh(grid.nodes) ** 2 * grid.spacing
        assert np.allclose(grid.weights, expected)


class TestField:
    def test_shape_mismatch_rejected(self):
        grid = make_grid(16, 4.0)
        with pytest.raises(ValueError):
            Field((grid,), np.zeros(15))

    def test_nonfinite_rejected(self):
        grid = make_grid(16, 4.0)
        vals = np.zeros(16)
        vals[3] = np.nan
        with pytest.raises(ValueError):
            Field((grid,), vals)

    def test_values_are_a_read_only_view(self):
        # no copy of the caller's array, and no write through the field
        grid = make_grid(16, 4.0)
        caller = np.zeros((16, 16), dtype=complex)
        f = Field((grid, grid), caller)
        assert np.shares_memory(f.values, caller)
        with pytest.raises(ValueError):
            f.values[0, 0] = 1.0
        with pytest.raises(ValueError):
            f.values *= 2
        assert caller.flags.writeable


class TestTensorProduct:
    def test_l2_norm_factorizes(self):
        grid = make_grid(32, 7.0)
        f, g = random_field(grid, 1), random_field(grid, 2)
        prod = product_field(f, g)
        assert lp_norm(prod, 2) == pytest.approx(lp_norm(f, 2) * lp_norm(g, 2), rel=1e-12)

    def test_sup_norm_against_constant_one(self):
        grid = make_grid(32, 7.0)
        f = random_field(grid, 3)
        ones = Field((grid,), np.ones(32))
        prod = product_field(f, ones)
        assert lp_norm(prod, math.inf) == pytest.approx(lp_norm(f, math.inf), rel=1e-14)

    @pytest.mark.parametrize("r", [1, 2, math.inf])
    def test_norm_factorization_every_r(self, r):
        grid = make_grid(16, 3.0)
        f, g = random_field(grid, 4), random_field(grid, 5)
        prod = product_field(f, g)
        assert lp_norm(prod, r) == pytest.approx(lp_norm(f, r) * lp_norm(g, r), rel=1e-11)


class TestLpNorm:
    def test_constant_one_l1_is_total_measure(self):
        grid = make_grid(64, 10.0)
        f = Field((grid,), np.ones(64))
        assert lp_norm(f, 1) == pytest.approx(10.0, abs=1e-12)

    def test_l2_matches_brute_force_sum(self):
        grid = make_grid(128, 30.0)
        f = gaussian_field(grid, 1.3)
        brute = math.sqrt(sum(abs(v) ** 2 * grid.spacing for v in f.values))
        assert lp_norm(f, 2) == pytest.approx(brute, rel=1e-13)

    def test_sup_norm_picks_max_modulus(self):
        grid = make_grid(8, 1.0)
        vals = np.zeros(8, dtype=complex)
        vals[1] = -3j
        vals[2] = 2
        f = Field((grid,), vals)
        assert lp_norm(f, math.inf) == pytest.approx(3.0, abs=0)

    def test_r_below_one_rejected(self):
        grid = make_grid(8, 1.0)
        f = random_field(grid)
        with pytest.raises(ValueError):
            lp_norm(f, 0.5)

    def test_hyperbolic_l2_matches_brute_force(self):
        grid = make_grid(64, 8.0, HYPERBOLIC)
        f = gaussian_field(grid, 0.5, center=1.0)
        brute = math.sqrt(float(np.sum(grid.weights * np.abs(f.values) ** 2)))
        assert lp_norm(f, 2) == pytest.approx(brute, rel=1e-13)

    @given(c=st.complex_numbers(max_magnitude=1e6, min_magnitude=0), r=st.sampled_from([1, 1.5, 2, 3, math.inf]))
    @settings(max_examples=40, deadline=None)
    def test_absolute_homogeneity(self, c, r):
        grid = make_grid(16, 4.0)
        f = random_field(grid, 7)
        scaled = f.with_values(c * f.values)
        assert lp_norm(scaled, r) == pytest.approx(abs(c) * lp_norm(f, r), rel=1e-10, abs=1e-12)


class TestSliceNorms:
    """Per-slice norms of a stacked trajectory against lp_norm of each slice."""

    grids = (make_grid(24, 6.0), make_grid(20, 5.0, HYPERBOLIC))

    def stack(self, seed, n_times=5):
        rng = np.random.default_rng(seed)
        shape = (n_times, 24, 20)
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    @pytest.mark.parametrize("r", [1, 2, 4, Fraction(7, 3), math.inf])
    def test_match_lp_norm_of_each_slice(self, r):
        values = self.stack(1)
        norms = slice_lp_norms(values, self.grids, r)
        expected = [lp_norm(Field(self.grids, v), r) for v in values]
        np.testing.assert_allclose(norms, expected, rtol=1e-14, atol=0)

    def test_difference_from_a_stack_or_a_state(self):
        a, b = self.stack(2), self.stack(3)
        np.testing.assert_allclose(
            slice_lp_norms(a, self.grids, 4, minus=b),
            [lp_norm(Field(self.grids, x - y), 4) for x, y in zip(a, b)],
            rtol=1e-14,
            atol=0,
        )
        np.testing.assert_allclose(
            slice_lp_norms(a, self.grids, 2, minus=b[1]),
            [lp_norm(Field(self.grids, x - b[1]), 2) for x in a],
            rtol=1e-14,
            atol=0,
        )

    def test_trajectory_values_are_a_read_only_view(self):
        values = self.stack(7)
        traj = Trajectory(np.linspace(0, 1, 5), self.grids, values)
        assert np.shares_memory(traj.values, values)
        with pytest.raises(ValueError):
            traj.values[1] = 0.0
        assert values.flags.writeable

    def test_trajectory_nonfinite_rejected(self):
        values = self.stack(5)
        values[2, 3, 4] = np.inf
        with pytest.raises(ValueError, match="field values must be finite"):
            Trajectory(np.linspace(0, 1, 5), self.grids, values)

    def test_trajectory_shape_checked(self):
        with pytest.raises(ValueError):
            Trajectory(np.linspace(0, 1, 4), self.grids, self.stack(6))
        with pytest.raises(ValueError):
            Trajectory(np.array([]), self.grids, np.zeros((0, 24, 20)))


class TestNormReduction:
    """values_lp_norm (|u|^r from |u|^2 for finite r >= 2, from |u| below 2)
    against the plain sum over the product measure."""

    GRIDS = {
        "free": (make_grid(24, 6.0), make_grid(20, 5.0)),
        "hyperbolic-radial": (make_grid(24, 6.0, HYPERBOLIC), make_grid(20, 5.0, HYPERBOLIC)),
        "mixed": (make_grid(24, 6.0), make_grid(20, 5.0, HYPERBOLIC)),
    }
    EXPONENTS = [1, Fraction(3, 2), 2, Fraction(7, 3), 4, 6, math.inf]

    @staticmethod
    def reference(values, grids, r):
        if math.isinf(r):
            return float(np.abs(values).max())
        w = np.multiply.outer(grids[0].weights, grids[1].weights)
        return float(np.sum(w * np.abs(values) ** float(r)) ** (1 / float(r)))

    @given(seed=st.integers(0, 10**6), kind=st.sampled_from(sorted(GRIDS)), r=st.sampled_from(EXPONENTS))
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_sum(self, seed, kind, r):
        grids = self.GRIDS[kind]
        rng = np.random.default_rng(seed)
        shape = (24, 20)
        values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        assert values_lp_norm(values, grids, r) == pytest.approx(self.reference(values, grids, r), rel=1e-14, abs=0)

    def test_several_exponents_at_once(self):
        grids = self.GRIDS["mixed"]
        values = RNG.standard_normal((24, 20)) + 1j * RNG.standard_normal((24, 20))
        assert values_lp_norms(values, grids, self.EXPONENTS) == [
            values_lp_norm(values, grids, r) for r in self.EXPONENTS
        ]

    @pytest.mark.parametrize(
        "scale",
        [1.0, 1e-160, 1e-310, 1e150, 1e154],
        ids=["random", "subnormal-squares", "subnormal-values", "large", "near-overflow"],
    )
    @pytest.mark.parametrize(
        "layout",
        ["contiguous", "transposed", "sliced", "sliced-last-axis", "transposed-stack", "scalar"],
    )
    def test_abs_squared_is_the_sum_of_two_squares(self, scale, layout):
        # the one-pass square of the (re, im) view must give re^2 + im^2 bit
        # for bit, on any layout, including the ones the view cannot take
        rng = np.random.default_rng(7)
        stack = scale * (rng.standard_normal((4, 24, 20)) + 1j * rng.standard_normal((4, 24, 20)))
        values = {
            "contiguous": stack[0],
            "transposed": stack[0].T,
            "sliced": stack[::2, 3:17],
            "sliced-last-axis": stack[1, :, ::3],
            "transposed-stack": stack.transpose(2, 0, 1),
            "scalar": stack[0, 0, 0],
        }[layout]
        with np.errstate(over="ignore", under="ignore"):
            expected = np.square(values.real) + np.square(values.imag)
            got = _abs_squared(values)
        assert got.shape == np.shape(values)
        assert np.array_equal(got, expected)

    def test_huge_modulus_l1_stays_finite(self):
        # |u|^2 overflows at |u| = 1e160; the norms below r = 2 never form it
        grids = self.GRIDS["free"]
        values = np.full((24, 20), 6e159 + 8e159j)
        with np.errstate(over="raise"):
            l1 = values_lp_norm(values, grids, 1)
            l32 = values_lp_norm(values, grids, Fraction(3, 2))
        assert l1 == pytest.approx(1e160 * 6.0 * 5.0, rel=1e-14)
        assert math.isfinite(l32)


class TestGaussianField:
    def test_peaks_at_torus_center_by_default(self):
        grid = make_grid(64, 20.0)
        f = gaussian_field(grid, 1.0)
        peak = grid.nodes[int(np.argmax(np.abs(f.values)))]
        assert peak == pytest.approx(10.0, abs=grid.spacing)

    def test_periodic_wrap_of_distance(self):
        grid = make_grid(64, 20.0)
        f = gaussian_field(grid, 1.0, center=0.0)
        # the bump must be symmetric across the periodic boundary
        assert f.values[1] == pytest.approx(f.values[-1], rel=1e-12)

"""Grids, fields, and quadrature norms."""

import functools
import math
import threading
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dispersia import fields
from dispersia.fields import (
    EUCLIDEAN,
    HYPERBOLIC,
    Field,
    _by_rows,
    _frozen,
    _squares_into,
    gaussian_field,
    lp_norm,
    make_grid,
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

    @pytest.mark.parametrize("length", [math.inf, -math.inf, math.nan, -3.0])
    @pytest.mark.parametrize("kind", [EUCLIDEAN, HYPERBOLIC])
    def test_nonfinite_length_rejected(self, length, kind):
        # an infinite length passed `length > 0` and gave non-finite nodes
        name = "r_max" if kind == HYPERBOLIC else "length"
        with pytest.raises(ValueError, match=f"{name} must be finite and > 0"):
            make_grid(64, length, kind)

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


class TestEvenGrid:
    """An even grid holds the nodes 0..N//2 of the N-point torus, each
    weighted by the torus nodes it stands for."""

    @pytest.mark.parametrize("n", [16, 17])
    def test_stores_nodes_0_to_half(self, n):
        full, even = make_grid(n, 8.0), make_grid(n, 8.0, even=True)
        assert even.size == n // 2 + 1 and full.size == n
        assert (even.n_points, even.spacing) == (full.n_points, full.spacing)
        assert np.array_equal(even.nodes, full.nodes[: even.size])

    @pytest.mark.parametrize("n, counts", [(16, [1] + [2] * 7 + [1]), (17, [1] + [2] * 8)])
    def test_weights_count_each_mirror_image(self, n, counts):
        # node j and node N - j both stand on node j; for even N the nodes 0
        # and N/2 are their own mirror images
        grid = make_grid(n, 8.0, even=True)
        assert np.array_equal(grid.weights, grid.spacing * np.array(counts))
        assert grid.weights.sum() == pytest.approx(grid.length, rel=1e-15)

    def test_refused_on_h3(self):
        with pytest.raises(ValueError, match="a hyperbolic-radial grid has no mirror"):
            make_grid(64, 12.0, HYPERBOLIC, even=True)

    def test_field_shape_is_the_stored_size(self):
        grid = make_grid(64, 32.0, even=True)
        assert Field((grid,), np.ones(33)).values.shape == (33,)
        with pytest.raises(ValueError, match="does not match grids"):
            Field((grid,), np.ones(64))

    def test_full_and_even_grids_differ(self):
        assert make_grid(64, 32.0) != make_grid(64, 32.0, even=True)


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

    def test_caller_writes_leave_values_unchanged(self):
        grid = make_grid(16, 4.0)
        caller = np.zeros((16, 16), dtype=complex)
        f = Field((grid, grid), caller)
        caller[0, 0] = 1.0
        caller *= 2
        assert np.array_equal(f.values, np.zeros((16, 16)))
        assert caller.flags.writeable

    def test_array_frozen_to_its_memory_is_shared(self):
        grid = make_grid(16, 4.0)
        frozen = _frozen(np.ones((16, 16), dtype=complex))
        assert Field((grid, grid), frozen).values is frozen
        view = _frozen(np.ones((16, 32), dtype=complex)[:, ::2])
        assert Field((grid, grid), view).values is view
        from_bytes = np.frombuffer(np.ones(16, dtype=complex).tobytes(), dtype=complex)
        assert Field((grid,), from_bytes).values is from_bytes

    def test_read_only_view_of_writable_base_is_copied(self):
        grid = make_grid(16, 4.0)
        base = np.ones(16, dtype=complex)
        view = base.view()
        view.flags.writeable = False
        f = Field((grid,), view)
        assert not np.shares_memory(f.values, base)
        base[:] = 2.0
        assert np.all(f.values == 1.0)

    def test_converted_input_is_kept_without_a_second_copy(self):
        grid = make_grid(16, 4.0)
        real = np.ones(16)
        f = Field((grid,), real)
        assert f.values.base is None and not f.values.flags.writeable
        real[:] = 2.0
        assert np.all(f.values == 1.0)

    @pytest.mark.parametrize("frozen", [False, True])
    def test_no_write_through_values(self, frozen):
        grid = make_grid(16, 4.0)
        vals = np.zeros((16, 16), dtype=complex)
        f = Field((grid, grid), _frozen(vals) if frozen else vals)
        with pytest.raises(ValueError):
            f.values[0, 0] = 1.0
        with pytest.raises(ValueError):
            f.values *= 2


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
        w = functools.reduce(np.multiply.outer, [g.weights for g in grids])
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
        ["contiguous", "transposed", "sliced", "sliced-last-axis", "transposed-stack"],
    )
    def test_norms_on_every_layout_and_scale(self, scale, layout):
        # the one-pass square of the (re, im) view gives re^2 + im^2 bit for
        # bit, and the norms walk the rows of any layout, including the ones
        # the view cannot take, down to subnormal and up to overflowing |u|^2.
        # Where |u|^r is subnormal (r = 2 at 1e-160) its terms are good only
        # to the subnormal spacing ulp(0), for the reference as well
        rng = np.random.default_rng(7)
        stack = scale * (rng.standard_normal((16, 24, 24)) + 1j * rng.standard_normal((16, 24, 24)))
        values = {
            "contiguous": stack[0],
            "transposed": stack[0].T,
            "sliced": stack[::2, 3:17],
            "sliced-last-axis": stack[1, :, ::3],
            "transposed-stack": stack.transpose(2, 0, 1),
        }[layout]
        kinds = (EUCLIDEAN, HYPERBOLIC, EUCLIDEAN)
        grids = tuple(make_grid(n, n / 4, kind) for n, kind in zip(values.shape, kinds))
        with np.errstate(over="ignore", under="ignore"):
            expected = np.square(values.real) + np.square(values.imag)
            got = np.empty(values.shape)
            _squares_into(values, got)
            assert np.array_equal(got, expected)
            norms = values_lp_norms(values, grids, (1, 2, 4))
            for r, norm in zip((1, 2, 4), norms):
                power = np.float64(scale) ** r
                rel = max(1e-14, math.ulp(0.0) / power) if power > 0 else 0
                assert norm == pytest.approx(self.reference(values, grids, r), rel=rel, abs=0), r

    @pytest.mark.parametrize("r", [1, Fraction(3, 2), 2, 3, 4])
    def test_norm_temporaries_stay_group_sized(self, monkeypatch, r):
        # on one thread a finite norm's temporaries are one row group's
        # (about 2^16 points): its |u|^2 or |u|, and its power. The traced
        # peak stays below 2 MiB on a 17.5 MiB state
        monkeypatch.setattr(fields, "_cores", lambda: 1)
        grids = (make_grid(1024, 200.0), make_grid(1120, 40.0, HYPERBOLIC))
        rng = np.random.default_rng(32)
        u = Field(grids, _frozen(rng.standard_normal((1024, 1120)) + 1j * rng.standard_normal((1024, 1120))))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            lp_norm(u, r)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, peak / 2**20

    def test_huge_modulus_l1_stays_finite(self):
        # |u|^2 overflows at |u| = 1e160; the norms below r = 2 never form it
        grids = self.GRIDS["free"]
        values = np.full((24, 20), 6e159 + 8e159j)
        with np.errstate(over="raise"):
            l1 = values_lp_norm(values, grids, 1)
            l32 = values_lp_norm(values, grids, Fraction(3, 2))
        assert l1 == pytest.approx(1e160 * 6.0 * 5.0, rel=1e-14)
        assert math.isfinite(l32)


class TestRowBlocks:
    """_by_rows calls its step once on each group of whole rows of about
    _GROUP_POINTS points, in row order; from 2^18 points up each core
    (_cores) runs one contiguous run of whole groups, the first on the
    calling thread and the others on the pool, and below that every group
    runs on the calling thread."""

    @staticmethod
    def calls(values):
        return _by_rows(lambda rows: (rows.start, rows.stop, threading.get_ident()), values)

    def test_groups_in_row_order(self, monkeypatch):
        # 600 rows of 1000 points: groups of 65 rows, the last of 15
        values = np.empty((600, 1000))
        groups = [(a, min(a + 65, 600)) for a in range(0, 600, 65)]
        for workers in (1, 2, 3, 5):
            monkeypatch.setattr(fields, "_cores", lambda n=workers: n)
            got = self.calls(values)
            assert [(a, b) for a, b, _ in got] == groups
            edges = [len(groups) * k // workers for k in range(workers + 1)]
            threads = [{thread for _, _, thread in got[a:b]} for a, b in zip(edges, edges[1:])]
            # a block's groups run on one thread, block 0 on this one
            assert all(len(t) == 1 for t in threads)
            assert [t == {threading.get_ident()} for t in threads] == [True] + [False] * (workers - 1)

    @pytest.mark.parametrize("shape", [(600, 1000), (512, 512), (3, 2**17), (5, 3, 2**15), (2**19,), (7, 0), (0, 9)])
    def test_groups_tile_the_rows(self, monkeypatch, shape):
        # each group is at least one row, even when one row is wider than a
        # group, and at most _GROUP_POINTS points otherwise
        monkeypatch.setattr(fields, "_cores", lambda: 2)
        values = np.empty(shape)
        row = math.prod(shape[1:])
        got = [(a, b) for a, b, _ in self.calls(values)]
        assert [a for a, _ in got] + [shape[0]] == [0] + [b for _, b in got]
        assert all(b > a and (b - a) * row <= max(row, fields._GROUP_POINTS) for a, b in got)

    def test_blocks_tile_the_range(self):
        # _in_blocks, the runner under _by_rows and the two-particle Strang
        # loop: contiguous blocks in row order, the first on this thread
        for n, blocks in ((7, 3), (81, 2), (5, 5), (4, 1)):
            got = fields._in_blocks(lambda rows: (rows.start, rows.stop, threading.get_ident()), n, blocks)
            assert [(a, b) for a, b, _ in got] == [(n * k // blocks, n * (k + 1) // blocks) for k in range(blocks)]
            assert [thread == threading.get_ident() for _, _, thread in got] == [True] + [False] * (blocks - 1)

    def test_below_the_threshold_every_group_on_this_thread(self, monkeypatch):
        # 256 x 1023 is below 2^18 points: four groups of 64 rows, all here
        monkeypatch.setattr(fields, "_cores", lambda: 2)
        got = self.calls(np.empty((256, 1023)))
        assert got == [(a, a + 64, threading.get_ident()) for a in range(0, 256, 64)]

    @pytest.mark.parametrize("failing", range(5))
    def test_group_exception_reraises(self, monkeypatch, failing):
        # 300 rows of 1024 points: five groups of 64 rows on three blocks
        monkeypatch.setattr(fields, "_cores", lambda: 3)
        values = np.empty((300, 1024))

        def fn(rows):
            if rows.start == 64 * failing:
                raise ArithmeticError(f"group {failing}")
            return rows.start

        with pytest.raises(ArithmeticError, match=f"group {failing}"):
            _by_rows(fn, values)

    def test_blocks_end_before_an_exception_surfaces(self, monkeypatch):
        # a caller that sees block 0 fail may free what the other blocks
        # write into, so they have ended by then; of the five groups of 64
        # rows block 0 holds the one that fails, blocks 1 and 2 the others
        monkeypatch.setattr(fields, "_cores", lambda: 3)
        ended = []

        def fn(rows):
            if rows.start == 0:
                raise ArithmeticError("group 0")
            time.sleep(0.05)
            ended.append(rows.start)

        with pytest.raises(ArithmeticError, match="group 0"):
            _by_rows(fn, np.empty((300, 1024)))
        assert sorted(ended) == [64, 128, 192, 256]


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

    @pytest.mark.parametrize("n", [64, 63])
    def test_even_grid_holds_the_torus_bump_on_its_nodes(self, n):
        full, even = make_grid(n, 20.0), make_grid(n, 20.0, even=True)
        for center in (None, 0.0, 10.0, -10.0, 20.0, 30.0):
            f = gaussian_field(full, 1.0, center).values
            assert np.array_equal(gaussian_field(even, 1.0, center).values, f[: even.size])

    @pytest.mark.parametrize("center", [3.0, 9.99, -0.5, 25.0])
    def test_even_grid_refuses_a_bump_that_is_not_even(self, center):
        # a bump centred off 0 and L/2 is not even about x = 0 on the torus:
        # the even grid would hold the even extension of another function
        with pytest.raises(ValueError, match="not 0 or L/2 mod L"):
            gaussian_field(make_grid(64, 20.0, even=True), 1.0, center)

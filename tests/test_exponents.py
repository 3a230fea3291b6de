"""Exact rational exponent algebra: admissibility, the triangle region,
interpolation and NLS exponent selection."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dispersia.exponents import (
    INF,
    Admissibility,
    DispersionIndex,
    ExponentPair,
    HypothesisViolation,
    dual_exponent,
    in_triangle_T,
    interpolation_exponent,
    inverse_exponent,
    is_admissible,
    select_nls_exponents,
)
from oracles import HALF, admissible_oracle, triangle_oracle


class TestDualExponent:
    @pytest.mark.parametrize(
        "q,expected", [(2, Fraction(2)), (4, Fraction(4, 3)), (INF, Fraction(1))]
    )
    def test_known_duals(self, q, expected):
        assert dual_exponent(q) == expected

    def test_dual_of_one_is_inf(self):
        assert dual_exponent(1) is INF

    @given(q=st.fractions(min_value=1, max_value=1000))
    @settings(max_examples=100, deadline=None)
    def test_involution(self, q):
        assert dual_exponent(dual_exponent(q)) == q

    @given(q=st.fractions(min_value="1.01", max_value=1000))
    @settings(max_examples=100, deadline=None)
    def test_holder_identity(self, q):
        assert inverse_exponent(q) + inverse_exponent(dual_exponent(q)) == 1


class TestIsAdmissible:
    def test_inf_2_always_admissible(self):
        pair = ExponentPair(Fraction(0), HALF)
        for ab in (HALF, Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3)):
            idx = DispersionIndex(ab / 2, ab / 2)
            assert is_admissible(pair, idx) == Admissibility.ADMISSIBLE

    def test_endpoint_ab2_is_2_4(self):
        pair = ExponentPair(Fraction(1, 2), Fraction(1, 4))
        idx = DispersionIndex(Fraction(1), Fraction(1))  # ab = 2
        assert is_admissible(pair, idx) == Admissibility.ENDPOINT

    def test_low_index_p_equal_2_never_admissible(self):
        idx = DispersionIndex(HALF, HALF)  # ab = 1
        for inv_q in (Fraction(0), Fraction(1, 4), HALF):
            pair = ExponentPair(HALF, inv_q)
            assert is_admissible(pair, idx) == Admissibility.NOT_ADMISSIBLE

    @pytest.mark.parametrize("ab", [HALF, Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3)])
    def test_exhaustive_lattice_agreement_with_oracle(self, ab):
        idx = DispersionIndex(ab / 2, ab / 2)
        for i in range(7):
            for j in range(7):
                pair = ExponentPair(Fraction(i, 12), Fraction(j, 12))
                expected = admissible_oracle(pair.inv_p, pair.inv_q, ab)
                assert is_admissible(pair, idx).value == expected, (
                    f"disagreement at 1/p={pair.inv_p} 1/q={pair.inv_q} ab={ab}"
                )

    @pytest.mark.parametrize("ab", [Fraction(3, 2), Fraction(2), Fraction(3)])
    def test_endpoint_unique_on_refinable_lattice(self, ab):
        idx = DispersionIndex(ab / 2, ab / 2)
        denominator = 2 * ab.denominator * (2 * ab.numerator)  # refines 1/q at the endpoint
        endpoints = []
        for i in range(denominator // 2 + 1):
            for j in range(denominator // 2 + 1):
                pair = ExponentPair(Fraction(i, denominator), Fraction(j, denominator))
                if is_admissible(pair, idx) == Admissibility.ENDPOINT:
                    endpoints.append(pair)
        assert len(endpoints) == 1
        (pair,) = endpoints
        assert pair.inv_p + ab * pair.inv_q == ab / 2

    @given(
        i=st.integers(0, 6),
        j=st.integers(0, 6),
        ab=st.sampled_from([HALF, Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3)]),
    )
    @settings(max_examples=200, deadline=None)
    def test_oracle_agreement_property(self, i, j, ab):
        pair = ExponentPair(Fraction(i, 12), Fraction(j, 12))
        idx = DispersionIndex(ab / 2, ab / 2)
        assert is_admissible(pair, idx).value == admissible_oracle(pair.inv_p, pair.inv_q, ab)


class TestTriangleT:
    def test_isolated_point(self):
        assert in_triangle_T(ExponentPair(Fraction(0), HALF), 2, 2)

    def test_boundary_equality_case(self):
        # m=n=2: 2*(1/2) + 4*(1/4) = 2 = (m+n)/2
        assert in_triangle_T(ExponentPair(HALF, Fraction(1, 4)), 2, 2)

    def test_inf_4_excluded(self):
        assert not in_triangle_T(ExponentPair(Fraction(0), Fraction(1, 4)), 2, 2)

    def test_small_dimensions_rejected(self):
        with pytest.raises(ValueError):
            in_triangle_T(ExponentPair(HALF, HALF), 1, 2)

    @pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 3)])
    def test_exhaustive_lattice_agreement(self, m, n):
        for i in range(7):
            for j in range(7):
                pair = ExponentPair(Fraction(i, 12), Fraction(j, 12))
                assert in_triangle_T(pair, m, n) == triangle_oracle(pair.inv_p, pair.inv_q, m, n)

    @given(
        i=st.integers(1, 6),
        i2=st.integers(1, 6),
        j=st.integers(1, 6),
        mn=st.sampled_from([(2, 2), (2, 3), (3, 3)]),
    )
    @settings(max_examples=200, deadline=None)
    def test_membership_monotone_in_inv_p(self, i, i2, j, mn):
        m, n = mn
        lo, hi = sorted((i, i2))
        if in_triangle_T(ExponentPair(Fraction(lo, 12), Fraction(j, 12)), m, n):
            assert in_triangle_T(ExponentPair(Fraction(hi, 12), Fraction(j, 12)), m, n)


class TestInterpolationExponent:
    def test_q2_gives_zero(self):
        assert interpolation_exponent(2, DispersionIndex(HALF, HALF)) == 0

    def test_q_inf_gives_full_index(self):
        assert interpolation_exponent(INF, DispersionIndex(HALF, HALF)) == 1

    def test_q4_halves_the_index(self):
        assert interpolation_exponent(4, DispersionIndex(HALF, HALF)) == HALF

    def test_q_below_2_rejected(self):
        with pytest.raises(ValueError):
            interpolation_exponent(Fraction(3, 2), DispersionIndex(HALF, HALF))


class TestSelectNLSExponents:
    def test_reference_selection_m2_n2_gamma2(self):
        sel = select_nls_exponents(2, 2, 2)
        assert sel.beta == 2
        assert sel.p == sel.q == sel.p_tilde == sel.q_tilde == 3

    def test_m3_n3_gamma_5_3(self):
        sel = select_nls_exponents(3, 3, Fraction(5, 3))
        assert sel.beta == 2
        assert sel.p == Fraction(8, 3)

    def test_gamma_above_bound_rejected_naming_bound(self):
        with pytest.raises(HypothesisViolation) as exc_info:
            select_nls_exponents(2, 2, 3)
        assert "4/(m+n)" in str(exc_info.value)

    def test_gamma_just_above_bound_rejected(self):
        with pytest.raises(HypothesisViolation):
            select_nls_exponents(2, 2, Fraction(201, 100))

    def test_gamma_at_bound_accepted(self):
        sel = select_nls_exponents(1, 1, 3)  # bound 1 + 4/2 = 3
        assert sel.p == 4

    @given(
        mn=st.sampled_from([(1, 1), (2, 2), (2, 3), (3, 3)]),
        num=st.integers(1, 40),
    )
    @settings(max_examples=150, deadline=None)
    def test_beta_round_trip(self, mn, num):
        m, n = mn
        gamma = 1 + Fraction(num, 10 * (m + n))
        if gamma > 1 + Fraction(4, m + n):
            return
        sel = select_nls_exponents(m, n, gamma)
        assert sel.gamma == 1 + 2 * sel.beta / (m + n)
        assert 0 < sel.beta <= 2
        # self-mapping identity p = p~' * gamma
        assert dual_exponent(sel.p_tilde) * sel.gamma == sel.p


class TestInfSentinel:
    def test_float_coercion(self):
        assert float(INF) == math.inf

    def test_inverse_is_zero(self):
        assert inverse_exponent(INF) == 0

"""Exact rational exponent algebra: the factors' rates, the one Strichartz
rule, its cases (admissibility, the triangle region) and NLS exponent
selection."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dispersia.exponents import (
    INF,
    Admissibility,
    ExponentPair,
    HypothesisViolation,
    dual_exponent,
    factor_rates,
    inverse_exponent,
    select_nls_exponents,
    strichartz_class,
)
from dispersia.fields import EUCLIDEAN, HYPERBOLIC
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


def lattice():
    return [ExponentPair(Fraction(i, 12), Fraction(j, 12)) for i in range(7) for j in range(7)]


def index_class(pair, ab):
    """The rule for a decay index a+b: the Euclidean factor of dimension 2(a+b)."""
    return strichartz_class(pair, [(EUCLIDEAN, 2 * Fraction(ab))])


def in_triangle(pair, m, n):
    """Whether the rule admits the pair for H^m x H^n."""
    return strichartz_class(pair, [(HYPERBOLIC, m), (HYPERBOLIC, n)]) != Admissibility.NOT_ADMISSIBLE


class TestStrichartzRule:
    """The rule a0(q) <= 2/p <= a_inf(q) on the sums of the factors' rates,
    and its two decisions."""

    @pytest.mark.parametrize("inv_q, rates", [
        (HALF, (0, 0, 0, 0)),
        (Fraction(1, 4), (Fraction(1, 4), Fraction(1, 4), Fraction(3, 4), Fraction(3, 2))),
        (Fraction(0), (HALF, HALF, Fraction(3, 2), Fraction(3, 2))),
    ])
    def test_factor_rates(self, inv_q, rates):
        # a torus factor is Euclidean of dimension 1; H^3 has the local rate
        # of R^3 and the large-time rate 3/2 off q = 2
        assert factor_rates(EUCLIDEAN, 1, inv_q) + factor_rates(HYPERBOLIC, 3, inv_q) == rates

    def test_unknown_kind_and_q_below_2_refused(self):
        with pytest.raises(ValueError, match="unknown factor kind"):
            factor_rates("spherical", 2, HALF)
        with pytest.raises(ValueError, match="q >= 2"):
            factor_rates(EUCLIDEAN, 1, Fraction(2, 3))

    @pytest.mark.parametrize("factors", [
        [(EUCLIDEAN, 1)], [(EUCLIDEAN, 3)], [(HYPERBOLIC, 2), (HYPERBOLIC, 3)], [(EUCLIDEAN, 1), (HYPERBOLIC, 3)],
    ], ids=["R", "R3", "H2xH3", "RxH3"])
    def test_edge_q_2_only_at_p_inf(self, factors):
        # L^2 conservation: no global L^p_t L^2_x estimate for p < inf, and
        # (inf, 2) an ordinary point of the rule
        for i in range(7):
            expected = Admissibility.ADMISSIBLE if i == 0 else Admissibility.NOT_ADMISSIBLE
            assert strichartz_class(ExponentPair(Fraction(i, 12), HALF), factors) == expected

    def test_keel_tao_q_inf_pairs(self):
        # (2/s, inf) for an L^1 -> L^inf rate s < 1, and not (2, inf) at s = 1
        assert index_class(ExponentPair(Fraction(1, 4), Fraction(0)), HALF) == Admissibility.ADMISSIBLE
        assert index_class(ExponentPair(HALF, Fraction(0)), 1) == Admissibility.NOT_ADMISSIBLE
        assert strichartz_class(ExponentPair(HALF, Fraction(0)), [(EUCLIDEAN, 2)]) == Admissibility.NOT_ADMISSIBLE

    def test_mixed_product_is_the_triangle_of_dimension_4(self):
        # free x H^3: the local rates of R^4, and the H^3 large-time rate
        # covers every 2/p <= 1 off the edge
        region = {(p.inv_p, p.inv_q) for p in lattice()
                  if strichartz_class(p, [(EUCLIDEAN, 1), (HYPERBOLIC, 3)]) != Admissibility.NOT_ADMISSIBLE}
        assert region == {(p.inv_p, p.inv_q) for p in lattice() if triangle_oracle(p.inv_p, p.inv_q, 2, 2)}
        assert len(region) == 10


class TestIsAdmissible:
    def test_inf_2_always_admissible(self):
        pair = ExponentPair(Fraction(0), HALF)
        for ab in (HALF, Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3)):
            assert index_class(pair, ab) == Admissibility.ADMISSIBLE

    def test_endpoint_ab2_is_2_4(self):
        pair = ExponentPair(Fraction(1, 2), Fraction(1, 4))
        assert index_class(pair, 2) == Admissibility.ENDPOINT

    def test_low_index_p_equal_2_never_admissible(self):
        for inv_q in (Fraction(0), Fraction(1, 4), HALF):
            pair = ExponentPair(HALF, inv_q)
            assert index_class(pair, 1) == Admissibility.NOT_ADMISSIBLE

    @pytest.mark.parametrize("ab", [Fraction(0), HALF, Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3)])
    def test_exhaustive_lattice_agreement_with_oracle(self, ab):
        for i in range(7):
            for j in range(7):
                pair = ExponentPair(Fraction(i, 12), Fraction(j, 12))
                expected = admissible_oracle(pair.inv_p, pair.inv_q, ab)
                assert index_class(pair, ab).value == expected, (
                    f"disagreement at 1/p={pair.inv_p} 1/q={pair.inv_q} ab={ab}"
                )

    @pytest.mark.parametrize("ab", [Fraction(3, 2), Fraction(2), Fraction(3)])
    def test_endpoint_unique_on_refinable_lattice(self, ab):
        denominator = 2 * ab.denominator * (2 * ab.numerator)  # refines 1/q at the endpoint
        endpoints = []
        for i in range(denominator // 2 + 1):
            for j in range(denominator // 2 + 1):
                pair = ExponentPair(Fraction(i, denominator), Fraction(j, denominator))
                if index_class(pair, ab) == Admissibility.ENDPOINT:
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
        assert index_class(pair, ab).value == admissible_oracle(pair.inv_p, pair.inv_q, ab)


class TestTriangleT:
    def test_isolated_point(self):
        assert in_triangle(ExponentPair(Fraction(0), HALF), 2, 2)

    def test_boundary_equality_case(self):
        # m=n=2: 2*(1/2) + 4*(1/4) = 2 = (m+n)/2
        assert in_triangle(ExponentPair(HALF, Fraction(1, 4)), 2, 2)

    def test_inf_4_excluded(self):
        assert not in_triangle(ExponentPair(Fraction(0), Fraction(1, 4)), 2, 2)

    @pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 3)])
    def test_exhaustive_lattice_agreement(self, m, n):
        for i in range(7):
            for j in range(7):
                pair = ExponentPair(Fraction(i, 12), Fraction(j, 12))
                assert in_triangle(pair, m, n) == triangle_oracle(pair.inv_p, pair.inv_q, m, n)

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
        if in_triangle(ExponentPair(Fraction(lo, 12), Fraction(j, 12)), m, n):
            assert in_triangle(ExponentPair(Fraction(hi, 12), Fraction(j, 12)), m, n)


class TestSelectNLSExponents:
    def test_reference_selection_m2_n2_gamma2(self):
        sel = select_nls_exponents(2, 2, 2)
        assert sel.beta == 2
        assert sel.p == sel.q == 3

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

    @pytest.mark.parametrize("gamma", [Fraction(1), HALF, Fraction(-1)])
    def test_gamma_at_most_one_rejected(self, gamma):
        with pytest.raises(HypothesisViolation, match="4/\\(m\\+n\\)"):
            select_nls_exponents(1, 1, gamma)

    @given(mn=st.sampled_from([(1, 1), (1, 2), (2, 2), (2, 3), (3, 3)]), gamma=st.fractions(0, 6))
    @settings(max_examples=200, deadline=None)
    def test_refused_exactly_outside_the_bound(self, mn, gamma):
        m, n = mn
        inside = 1 < gamma <= 1 + Fraction(4, m + n)
        try:
            select_nls_exponents(m, n, gamma)
            assert inside
        except HypothesisViolation:
            assert not inside

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
        # self-mapping identity p = p~' * gamma, with p~ = p
        assert dual_exponent(sel.p) * sel.gamma == sel.p
        # the selected pair lies in the triangle T
        if m >= 2 and n >= 2:
            assert triangle_oracle(1 / sel.p, 1 / sel.q, m, n)


class TestInfSentinel:
    def test_float_coercion(self):
        assert float(INF) == math.inf

    def test_inverse_is_zero(self):
        assert inverse_exponent(INF) == 0

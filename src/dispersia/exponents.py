"""Exact rational arithmetic for Strichartz exponent relations.

Everything here is computed with Fractions; floats never enter the
admissibility logic, so boundary cases (the endpoint pair, the strict
inequalities of the low-index regime) classify exactly. Infinity is
math.inf (exported as INF), which enters the exact arithmetic only as the
inverse exponent 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

INF = math.inf


class HypothesisViolation(ValueError):
    """A requested parameter combination violates a stated hypothesis."""


def inverse_exponent(q) -> Fraction:
    """Map an exponent in [1, INF] to its exact inverse, with INF -> 0."""
    if q == INF:
        return Fraction(0)
    q = Fraction(q)
    if q < 1:
        raise ValueError(f"exponent must be >= 1 or INF, got {q}")
    return 1 / q


def dual_exponent(q):
    """The conjugate exponent: 1/q + 1/q' = 1, with dual(INF) = 1."""
    if q == INF:
        return Fraction(1)
    q = Fraction(q)
    if not 1 <= q:
        raise ValueError(f"exponent must lie in [1, INF], got {q}")
    if q == 1:
        return INF
    return q / (q - 1)


@dataclass(frozen=True)
class ExponentPair:
    """A couple (p, q) stored as exact inverses (1/p, 1/q) in [0, 1/2]."""

    inv_p: Fraction
    inv_q: Fraction

    def __post_init__(self):
        inv_p = Fraction(self.inv_p)
        inv_q = Fraction(self.inv_q)
        if not (0 <= inv_p <= Fraction(1, 2) and 0 <= inv_q <= Fraction(1, 2)):
            raise ValueError("inverse exponents must lie in [0, 1/2]")
        object.__setattr__(self, "inv_p", inv_p)
        object.__setattr__(self, "inv_q", inv_q)


@dataclass(frozen=True)
class DispersionIndex:
    """Per-factor decay exponents a, b >= 0 and their sum."""

    a: Fraction
    b: Fraction

    def __post_init__(self):
        a = Fraction(self.a)
        b = Fraction(self.b)
        if a < 0 or b < 0:
            raise ValueError("decay exponents must be nonnegative")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def ab(self) -> Fraction:
        return self.a + self.b


class Admissibility(Enum):
    ADMISSIBLE = "admissible"
    ENDPOINT = "endpoint"
    NOT_ADMISSIBLE = "not-admissible"


def is_admissible(pair: ExponentPair, idx: DispersionIndex) -> Admissibility:
    """Classify (p, q) against the scaling line of the index a+b.

    For ab > 1: 1/p + ab/q = ab/2 with 2 <= p <= INF and
    2 <= q <= 2ab/(ab-1); the extreme pair (2, 2ab/(ab-1)) is the endpoint.
    For 0 < ab <= 1 the line is the same but p > 2/ab and q < INF are strict.
    """
    ab = idx.ab
    if ab <= 0:
        return Admissibility.NOT_ADMISSIBLE
    u, v = pair.inv_p, pair.inv_q
    on_line = u + ab * v == ab / 2
    if not on_line:
        return Admissibility.NOT_ADMISSIBLE
    if ab > 1:
        v_end = (ab - 1) / (2 * ab)  # 1/q at the endpoint
        if not v_end <= v <= Fraction(1, 2):
            return Admissibility.NOT_ADMISSIBLE
        if u == Fraction(1, 2) and v == v_end:
            return Admissibility.ENDPOINT
        return Admissibility.ADMISSIBLE
    # 0 < ab <= 1: p > 2/ab and q < INF, both strict
    if u < ab / 2 and 0 < v <= Fraction(1, 2):
        return Admissibility.ADMISSIBLE
    return Admissibility.NOT_ADMISSIBLE


def in_triangle_T(pair: ExponentPair, m: int, n: int) -> bool:
    """Membership in the widened Strichartz region for a product of two
    hyperbolic factors of dimensions m and n (plus the isolated point
    (1/p, 1/q) = (0, 1/2))."""
    if m < 2 or n < 2:
        raise ValueError("factor dimensions must be >= 2")
    u, v = pair.inv_p, pair.inv_q
    if (u, v) == (Fraction(0), Fraction(1, 2)):
        return True
    if not (0 < u <= Fraction(1, 2) and 0 < v <= Fraction(1, 2)):
        return False
    d = m + n
    return 2 * u + d * v >= Fraction(d, 2)


def interpolation_exponent(q, idx: DispersionIndex) -> Fraction:
    """Decay rate (a+b)(1 - 2/q) of the interpolated L^q' -> L^q estimate."""
    inv_q = inverse_exponent(q)
    if inv_q > Fraction(1, 2):
        raise ValueError(f"interpolation requires q >= 2, got {q}")
    return idx.ab * (1 - 2 * inv_q)


@dataclass(frozen=True)
class NLSExponentSelection:
    """The self-mapping Strichartz pair used by the fixed-point scheme."""

    m: int
    n: int
    gamma: Fraction
    beta: Fraction
    p: Fraction
    q: Fraction
    p_tilde: Fraction
    q_tilde: Fraction


def select_nls_exponents(m: int, n: int, gamma) -> NLSExponentSelection:
    """Choose p = q = p~ = q~ = 1 + gamma with beta = (gamma-1)(m+n)/2.

    Valid for 1 < gamma <= 1 + 4/(m+n); otherwise raises
    HypothesisViolation naming the bound.
    """
    if m < 1 or n < 1:
        raise ValueError("factor dimensions must be >= 1")
    gamma = Fraction(gamma)
    bound = 1 + Fraction(4, m + n)
    if not 1 < gamma <= bound:
        raise HypothesisViolation(
            f"gamma={gamma} outside (1, 1 + 4/(m+n)] = (1, {bound}] for m+n={m + n}"
        )
    beta = (gamma - 1) * (m + n) / 2
    assert 0 < beta <= 2
    p = 1 + gamma
    # self-mapping identity p = p~' * gamma, exact by construction
    p_tilde_dual = p / (p - 1)
    assert p_tilde_dual * gamma == p
    sel = NLSExponentSelection(
        m=m, n=n, gamma=gamma, beta=beta, p=p, q=p, p_tilde=p, q_tilde=p
    )
    if m >= 2 and n >= 2:
        pair = ExponentPair(1 / p, 1 / p)
        if not in_triangle_T(pair, m, n):
            raise HypothesisViolation(f"selected pair (1/{p}, 1/{p}) leaves the triangle T")
    return sel

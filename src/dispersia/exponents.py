"""Exact rational arithmetic for Strichartz exponent relations.

The per-factor rates of the dispersive estimate live here, in
factor_rates: PropagatorSpec.decay_rate reads them, and one rule,
strichartz_class, classifies a pair (p, q) from their sums over a
product's factors. The admissible-region lattice calls it on H^m x H^n
and on each decay index a+b as the Euclidean factor of dimension 2(a+b),
and the NLS exponent selection on H^m x H^n. Everything is computed with
Fractions, so the boundary cases (the endpoint pair, the edges of a
region) classify exactly. Infinity is math.inf (exported as INF), which
enters the exact arithmetic only as the inverse exponent 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .fields import EUCLIDEAN, HYPERBOLIC

INF = math.inf
HALF = Fraction(1, 2)


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
    """The conjugate exponent: 1/q + 1/q' = 1, with dual(INF) = 1 and
    dual(1) = INF."""
    inv = 1 - inverse_exponent(q)
    return INF if inv == 0 else 1 / inv


@dataclass(frozen=True)
class ExponentPair:
    """A couple (p, q) stored as exact inverses (1/p, 1/q) in [0, 1/2]."""

    inv_p: Fraction
    inv_q: Fraction

    def __post_init__(self):
        object.__setattr__(self, "inv_p", Fraction(self.inv_p))
        object.__setattr__(self, "inv_q", Fraction(self.inv_q))
        if not (0 <= self.inv_p <= HALF and 0 <= self.inv_q <= HALF):
            raise ValueError("inverse exponents must lie in [0, 1/2]")


class Admissibility(Enum):
    ADMISSIBLE = "admissible"
    ENDPOINT = "endpoint"
    NOT_ADMISSIBLE = "not-admissible"


def factor_rates(kind: str, dim, inv_q: Fraction) -> tuple[Fraction, Fraction]:
    """The local and large-time rates (a0, a_inf) of one factor's
    L^q' -> L^q estimate, |t|^-a0 for |t| < 1 and |t|^-a_inf for |t| > 1.
    A Euclidean or torus factor of dimension d has a0 = a_inf =
    d(1/2 - 1/q), its L^1 -> L^inf rate d/2 interpolated against L^2
    conservation; H^m has a0 = m(1/2 - 1/q), and a_inf = 3/2 for every
    q > 2 and 0 at q = 2 (Anker-Pierfelice, Ann. IHP 2009)."""
    if not 0 <= inv_q <= HALF:
        raise ValueError(f"a decay rate needs q >= 2, got q = {1 / inv_q}")
    local = dim * (HALF - inv_q)
    if kind == EUCLIDEAN:
        return local, local
    if kind == HYPERBOLIC:
        return local, Fraction(3, 2) if inv_q < HALF else Fraction(0)
    raise ValueError(f"unknown factor kind {kind!r}")


def strichartz_class(pair: ExponentPair, factors) -> Admissibility:
    """Classify (p, q) for the product of `factors`, (kind, dimension)
    pairs of factor_rates, by Keel-Tao's TT* argument (Amer. J. Math.
    1998): with a0, a_inf the sums of the factors' rates, the pair is
    admissible iff a0(q) <= 2/p <= a_inf(q), an ENDPOINT if also p = 2.
    - The edge 1/q = 1/2 is excluded for every p < INF, since L^2
      conservation makes ||e^{itL} f||_{L^p_t L^2_x} infinite over all
      time: a_inf(2) = 0. (INF, 2) is an ordinary point of the rule.
    - (2/s, INF) is admitted for an L^1 -> L^inf rate s = a_inf(INF) < 1,
      as by Keel-Tao's Theorem 1.2: (4, INF) at a+b = 1/2. The source
      paper's abstract states no stricter rule.
    Keel-Tao's hypotheses bound it: with s = 0 no pair is admitted, and
    (2, INF), their excluded endpoint at s = 1, never is."""
    # each factor's (a0(q), a_inf(q), a0(INF), a_inf(INF)), summed
    rates = [factor_rates(kind, dim, pair.inv_q) + factor_rates(kind, dim, Fraction(0)) for kind, dim in factors]
    a0, a_inf, _, s = (sum(column) for column in zip(*rates))
    u = pair.inv_p
    if s == 0 or (u, pair.inv_q) == (HALF, 0) or not a0 <= 2 * u <= a_inf:
        return Admissibility.NOT_ADMISSIBLE
    return Admissibility.ENDPOINT if u == HALF else Admissibility.ADMISSIBLE


@dataclass(frozen=True)
class NLSExponentSelection:
    """The self-mapping Strichartz pair used by the fixed-point scheme."""

    m: int
    n: int
    gamma: Fraction
    beta: Fraction
    p: Fraction
    q: Fraction


def select_nls_exponents(m: int, n: int, gamma) -> NLSExponentSelection:
    """Choose p = q = 1 + gamma, also the dual pair p~ = q~, with beta =
    (gamma-1)(m+n)/2 for a gamma whose pair (1/p, 1/p) is in the triangle
    of H^m x H^n, which reads only d = m + n (m = n = 1 is taken too):
    gamma in (1, 1 + 4/d]. Otherwise raises HypothesisViolation naming the bound."""
    if m < 1 or n < 1:
        raise ValueError("factor dimensions must be >= 1")
    gamma = Fraction(gamma)
    p = 1 + gamma
    if p < 2 or (strichartz_class(ExponentPair(1 / p, 1 / p), [(HYPERBOLIC, m), (HYPERBOLIC, n)])
                 == Admissibility.NOT_ADMISSIBLE):
        raise HypothesisViolation(f"gamma={gamma} outside (1, 1 + 4/(m+n)] = (1, {1 + Fraction(4, m + n)}] for m+n={m + n}")
    return NLSExponentSelection(m=m, n=n, gamma=gamma, beta=(gamma - 1) * (m + n) / 2, p=p, q=p)

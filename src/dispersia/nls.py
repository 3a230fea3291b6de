"""Small-data nonlinear Schrodinger on product domains.

Two independent routes to the solution: a Strang split-step integrator
(linear product flow alternating with exact pointwise nonlinear phases)
and the Duhamel fixed-point iteration, whose contraction ratios in the
Y-norm ||u||_{Linf_t L2} + ||u||_{Lp_t Lq} are the quantitative
diagnostics of the small-data well-posedness scheme.

The equation solved is i u_t + Lap u = F(u), matching the package's
linear multiplier convention exp(-i t xi^2); the nonlinear substep phase
is exp(-i F'(|u|) dt).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .decay import strichartz_norm
from .exponents import HypothesisViolation, NLSExponentSelection
from .fields import Field, lp_norm

GAUGE_INVARIANT = "gauge-invariant"
MODULUS_POWER = "modulus-power"


@dataclass(frozen=True)
class Nonlinearity:
    """Power nonlinearity: gauge-invariant F(u) = mu |u|^(gamma-1) u, or the
    non-gauge-invariant modulus power F(u) = mu |u|^gamma."""

    gamma: float
    variant: str = GAUGE_INVARIANT
    mu: complex = 1.0

    def __post_init__(self):
        if not self.gamma > 1:
            raise ValueError("gamma must exceed 1")
        if self.variant not in (GAUGE_INVARIANT, MODULUS_POWER):
            raise ValueError(f"unknown nonlinearity variant {self.variant!r}")
        if self.variant == GAUGE_INVARIANT and complex(self.mu).imag != 0:
            # the exact phase-rotation substep keeps |u| only for real mu
            raise ValueError(f"gauge-invariant mu must be real, got {self.mu!r}")

    @property
    def exact_gamma(self) -> Fraction:
        """gamma as the exact rational every hypothesis check compares: the
        closest fraction with denominator at most 10^6."""
        return Fraction(self.gamma).limit_denominator(10**6)

    @property
    def growth_constant(self) -> float:
        return abs(self.mu) * max(1.0, self.gamma)


def apply_nonlinearity(u: Field, nl: Nonlinearity) -> Field:
    mag = np.abs(u.values)
    if nl.variant == GAUGE_INVARIANT:
        out = nl.mu * mag ** (nl.gamma - 1) * u.values
    else:
        out = nl.mu * mag**nl.gamma * np.ones_like(u.values)
    return u.with_values(out)


def _nonlinear_substep(values: np.ndarray, nl: Nonlinearity, dt: float) -> np.ndarray:
    """Pointwise flow of i u_t = F(u) over dt.

    Gauge-invariant: exact phase rotation (the modulus is invariant for
    real mu). Modulus-power: explicit midpoint step, second order, which
    keeps the overall Strang scheme at its design order."""
    if nl.variant == GAUGE_INVARIANT:
        return values * np.exp(-1j * dt * nl.mu * np.abs(values) ** (nl.gamma - 1))
    k1 = -1j * nl.mu * np.abs(values) ** nl.gamma
    mid = values + 0.5 * dt * k1
    k2 = -1j * nl.mu * np.abs(mid) ** nl.gamma
    return values + dt * k2


def splitstep_nls(u0: Field, nl: Nonlinearity, linear, T: float, dt: float, save_stride: int = 1):
    """Strang-split NLS trajectory: [(t, Field), ...] sampled every
    save_stride steps (t = 0 always included).

    `linear` is the product-flow closure (Field, t) -> Field.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    n_steps = round(T / dt)
    if not math.isclose(n_steps * dt, T, rel_tol=1e-9):
        raise ValueError("T must be an integer multiple of dt")
    trajectory = [(0.0, u0)]
    u = u0
    values = u0.values
    for step in range(n_steps):
        values = _nonlinear_substep(values, nl, dt / 2)
        values = linear(u.with_values(values), dt).values
        values = _nonlinear_substep(values, nl, dt / 2)
        if (step + 1) % save_stride == 0 or step == n_steps - 1:
            u = u.with_values(values)
            trajectory.append(((step + 1) * dt, u))
    return trajectory


@dataclass(frozen=True)
class PicardState:
    k: int
    y_norm: float
    distance: float | None
    ratio: float | None


@dataclass(frozen=True)
class PicardResult:
    history: tuple[PicardState, ...]
    converged: bool
    contractive: bool
    trajectory: tuple  # ((t, Field), ...) of the last iterate
    times: tuple[float, ...]


def _y_norm(trajectory, p: float, q: float) -> float:
    sup_l2 = max(lp_norm(u, 2) for _, u in trajectory)
    return sup_l2 + strichartz_norm(trajectory, p, q)


def _trajectory_distance(a, b, p: float, q: float) -> float:
    diff = [(t, ua.with_values(ua.values - ub.values)) for (t, ua), (_, ub) in zip(a, b)]
    return _y_norm(diff, p, q)


def picard_iterate(
    f: Field,
    nl: Nonlinearity,
    linear,
    exponents: NLSExponentSelection,
    T: float,
    dt: float,
    max_iter: int = 10,
    tol: float = 1e-8,
) -> PicardResult:
    """Duhamel fixed-point iteration v_{k+1}(t) = e^{itL} f +
    int_0^t e^{i(t-s)L} F(v_k(s)) ds on the coarse time lattice, trapezoid
    quadrature in s, starting from the linear evolution.

    Returns the full diagnostic history (Y-norms, successive distances,
    contraction ratios). Divergence (3 consecutive growing distances) is
    reported via contractive=False, not raised.
    """
    gamma = nl.exact_gamma
    bound = 1 + Fraction(4, exponents.m + exponents.n)
    if gamma > bound:
        raise HypothesisViolation(
            f"gamma={nl.gamma} exceeds 1 + 4/(m+n) = {bound} for the configured product dimension"
        )
    p = float(exponents.p)
    q = float(exponents.q)
    n_steps = round(T / dt)
    if not math.isclose(n_steps * dt, T, rel_tol=1e-9):
        raise ValueError("T must be an integer multiple of dt")
    times = [i * dt for i in range(n_steps + 1)]

    def duhamel_sweep(traj):
        # e^{i(t_i - t_j)L} = e^{i t_i L} e^{-i t_j L}: pull each source
        # slice back to time 0, accumulate the trapezoid sum, push forward.
        pulled = [linear(apply_nonlinearity(u, nl), -t).values for t, u in traj]
        out = [traj[0][1].with_values(f.values.copy())]
        acc = np.zeros_like(f.values)
        for i in range(1, len(times)):
            acc = acc + (dt / 2) * (pulled[i - 1] + pulled[i])
            # F(v) enters as i u_t + Lap u = F(u) => Duhamel source -i F
            src = f.values + (-1j) * acc
            out.append(linear(f.with_values(src), times[i]))
        out[0] = f
        return [(t, u) for t, u in zip(times, out)]

    v = [(t, linear(f, t)) for t in times]
    history = [PicardState(k=0, y_norm=_y_norm(v, p, q), distance=None, ratio=None)]
    converged = False
    contractive = True
    ref_scale = None
    prev_distance = None
    growing = 0
    for k in range(1, max_iter + 1):
        v_next = duhamel_sweep(v)
        d = _trajectory_distance(v_next, v, p, q)
        y = _y_norm(v_next, p, q)
        ratio = None if prev_distance in (None, 0.0) else d / prev_distance
        history.append(PicardState(k=k, y_norm=y, distance=d, ratio=ratio))
        if ref_scale is None:
            ref_scale = y  # ||v_1||_Y
        v = v_next
        if d <= tol * ref_scale:
            converged = True
            break
        if prev_distance is not None and d > prev_distance:
            growing += 1
            if growing >= 3:
                contractive = False
                break
        else:
            growing = 0
        prev_distance = d
    return PicardResult(
        history=tuple(history),
        converged=converged,
        contractive=contractive,
        trajectory=tuple(v),
        times=tuple(times),
    )


def scattering_diagnostic(trajectory, linear):
    """Profiles z(t) = e^{-itL} u(t) and the Cauchy tail table
    tail(t1) = max_{t2 >= t1} ||z(t2) - z(t1)||_{L^2}.

    The last profile is the numerical scattering state candidate."""
    z = [(t, linear(u, -t)) for t, u in trajectory]
    tails = []
    for i, (t1, zi) in enumerate(z):
        tail = 0.0
        for t2, zj in z[i:]:
            tail = max(tail, lp_norm(zi.with_values(zj.values - zi.values), 2))
        tails.append((t1, tail))
    return z, tails

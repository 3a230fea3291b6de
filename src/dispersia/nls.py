"""Small-data nonlinear Schrodinger on product domains.

Two independent routes to the solution: a Strang split-step integrator
(linear product flow alternating with exact pointwise nonlinear phases)
and the Duhamel fixed-point iteration, whose contraction ratios in the
Y-norm ||u||_{Linf_t L2} + ||u||_{Lp_t Lq} are the quantitative
diagnostics of the small-data well-posedness scheme.

Every route works on one stacked Trajectory and applies the linear product
flow in the spectral domain (propagators.spectral_product), so its factors
must have an exact spectral form: free or hyperbolic-radial.

The equation solved is i u_t + Lap u = F(u), matching the package's
linear multiplier convention exp(-i t xi^2); the nonlinear substep phase
is exp(-i F'(|u|) dt).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .decay import time_norm
from .exponents import HypothesisViolation, NLSExponentSelection
from .fields import Field, Trajectory, slice_lp_norms, values_lp_norms
from .propagators import spectral_product

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


def apply_nonlinearity(values: np.ndarray, nl: Nonlinearity) -> np.ndarray:
    """F(u) at every point of a values array."""
    mag = np.abs(values)
    if nl.variant == GAUGE_INVARIANT:
        return nl.mu * mag ** (nl.gamma - 1) * values
    return nl.mu * mag**nl.gamma * np.ones_like(values)


def _nonlinear_substep(values: np.ndarray, nl: Nonlinearity, dt: float) -> np.ndarray:
    """Pointwise flow of i u_t = F(u) over dt.

    Gauge-invariant: exact phase rotation (the modulus is invariant for
    real mu), built from the cosine and sine of the real angle. Modulus-
    power: explicit midpoint step, second order, which keeps the overall
    Strang scheme at its design order."""
    if nl.variant == GAUGE_INVARIANT:
        angle = dt * complex(nl.mu).real * np.abs(values) ** (nl.gamma - 1)
        phase = np.empty(values.shape, dtype=complex)
        np.cos(angle, out=phase.real)
        np.negative(np.sin(angle), out=phase.imag)
        return values * phase
    k1 = -1j * nl.mu * np.abs(values) ** nl.gamma
    mid = values + 0.5 * dt * k1
    k2 = -1j * nl.mu * np.abs(mid) ** nl.gamma
    return values + dt * k2


def _time_steps(T: float, dt: float) -> int:
    n_steps = round(T / dt)
    if not math.isclose(n_steps * dt, T, rel_tol=1e-9):
        raise ValueError("T must be an integer multiple of dt")
    return n_steps


def saved_steps(T: float, dt: float, save_stride: int) -> list[int]:
    """The steps a split-step run of length T saves: step 0, every
    save_stride-th step and the last one. Step s is at time s * dt."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if save_stride < 1:
        raise ValueError(f"save_stride must be >= 1, got {save_stride}")
    n_steps = _time_steps(T, dt)
    return [0] + [s for s in range(1, n_steps + 1) if s % save_stride == 0 or s == n_steps]


def splitstep_nls(u0: Field, nl: Nonlinearity, specs, T: float, dt: float, save_stride: int = 1) -> Trajectory:
    """Strang-split NLS trajectory sampled at the saved_steps of T, dt and
    save_stride, under the product flow of `specs` (one spec per axis of
    u0). The linear step is one forward transform, the phase of dt (built
    once) and one inverse transform."""
    saved = saved_steps(T, dt, save_stride)
    n_steps = saved[-1]
    flow = spectral_product(specs, u0.grids)
    kinetic = flow.phase(dt)
    out = np.empty((len(saved),) + u0.values.shape, dtype=complex)
    out[0] = u0.values
    j = 1
    values = _nonlinear_substep(u0.values, nl, dt / 2)
    for step in range(1, n_steps + 1):
        coeffs = flow.forward(values)
        coeffs *= kinetic
        values = flow.inverse(coeffs)
        if step == saved[j]:
            values = _nonlinear_substep(values, nl, dt / 2)
            out[j] = values
            j += 1
            if step < n_steps:
                values = _nonlinear_substep(values, nl, dt / 2)
        elif nl.variant == GAUGE_INVARIANT:
            # the exact phase rotations form a group: the closing half step
            # of this step and the opening one of the next are one full step
            values = _nonlinear_substep(values, nl, dt)
        else:
            values = _nonlinear_substep(_nonlinear_substep(values, nl, dt / 2), nl, dt / 2)
    return Trajectory([s * dt for s in saved], u0.grids, out)


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
    trajectory: Trajectory  # the last iterate
    times: tuple[float, ...]


def _y_norm(times, l2_norms: np.ndarray, q_norms: np.ndarray, p: float) -> float:
    """||u||_{Linf_t L2} + ||u||_{Lp_t Lq} from the per-slice norms of u."""
    return float(l2_norms.max()) + time_norm(times, q_norms, p)


def picard_iterate(
    f: Field,
    nl: Nonlinearity,
    specs,
    exponents: NLSExponentSelection,
    T: float,
    dt: float,
    max_iter: int = 10,
    tol: float = 1e-8,
) -> PicardResult:
    """Duhamel fixed-point iteration v_{k+1}(t) = e^{itL} f +
    int_0^t e^{i(t-s)L} F(v_k(s)) ds on the coarse time lattice, trapezoid
    quadrature in s, starting from the linear evolution under the product
    flow of `specs` (one spec per axis of f).

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
    times = [i * dt for i in range(_time_steps(T, dt) + 1)]
    grids = f.grids
    flow = spectral_product(specs, grids)
    f_hat = flow.forward(f.values)
    # the iterate, one slice per time; each sweep overwrites it in place
    v = np.empty((len(times),) + f.values.shape, dtype=complex)
    for i, t in enumerate(times):
        v[i] = flow.inverse(flow.phase(t) * f_hat)

    def duhamel_sweep() -> np.ndarray:
        """Replace v by the next iterate; return the L2 and Lq norms of each
        new slice (rows 0, 1) and of its change (rows 2, 3)."""
        # e^{i(t_i - t_j)L} = e^{i t_i L} e^{-i t_j L}: pull each source
        # slice back to time 0 in the spectral domain and accumulate the
        # trapezoid sum there; each output is one phase and one inverse.
        # F(v) enters as i u_t + Lap u = F(u) => Duhamel source -i F, so the
        # pull-back phase carries the trapezoid weight -i dt/2.
        # The sum is kept apart from f_hat, so that its terms are rounded
        # at their own scale rather than at the scale of f_hat.
        norms = np.empty((4, len(times)))
        acc = np.zeros_like(f_hat)
        for i, t in enumerate(times):
            pulled = flow.forward(apply_nonlinearity(v[i], nl))
            pulled *= flow.phase(-t, scale=-0.5j * dt)
            if i:
                acc += prev
                acc += pulled
                new = flow.inverse(flow.phase(t) * (f_hat + acc))
            else:
                new = f.values
            norms[:, i] = [*values_lp_norms(new, grids, (2, q)), *values_lp_norms(new - v[i], grids, (2, q))]
            v[i] = new
            prev = pulled
        return norms

    traj = Trajectory(times, grids, v)
    history = [PicardState(k=0, y_norm=_y_norm(times, traj.lp_norms(2), traj.lp_norms(q), p), distance=None, ratio=None)]
    converged = False
    contractive = True
    ref_scale = None
    prev_distance = None
    growing = 0
    for k in range(1, max_iter + 1):
        l2, lq, change_l2, change_lq = duhamel_sweep()
        traj = Trajectory(times, grids, v)
        d = _y_norm(times, change_l2, change_lq, p)
        y = _y_norm(times, l2, lq, p)
        ratio = None if prev_distance in (None, 0.0) else d / prev_distance
        history.append(PicardState(k=k, y_norm=y, distance=d, ratio=ratio))
        if ref_scale is None:
            ref_scale = y  # ||v_1||_Y
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
        trajectory=traj,
        times=tuple(times),
    )


def scattering_diagnostic(trajectory: Trajectory, specs):
    """Profiles z(t) = e^{-itL} u(t) under the product flow of `specs`, and
    the Cauchy tail table tail(t1) = max_{t2 >= t1} ||z(t2) - z(t1)||_{L^2}.

    The last profile is the numerical scattering state candidate."""
    flow = spectral_product(specs, trajectory.grids)
    z = np.empty_like(trajectory.values)
    for i, t in enumerate(trajectory.times):
        z[i] = flow.inverse(flow.phase(-t) * flow.forward(trajectory.values[i]))
    z = Trajectory(trajectory.times, trajectory.grids, z)
    tails = [
        (float(t1), float(slice_lp_norms(z.values[i:], z.grids, 2, minus=z.values[i]).max()))
        for i, t1 in enumerate(z.times)
    ]
    return z, tails

"""Small-data nonlinear Schrodinger on product domains.

Two independent routes to the solution: a Strang split-step integrator
(linear product flow alternating with exact pointwise nonlinear phases)
and the Duhamel fixed-point iteration, whose contraction ratios in the
Y-norm ||u||_{Linf_t L2} + ||u||_{Lp_t Lq} are the quantitative
diagnostics of the small-data well-posedness scheme.

Every route applies the linear product flow in the spectral domain
(propagators.spectral_product), for any mix of factor kinds, on the grids
of its datum. The free flow and the gauge-invariant power keep the
parity of a state, so a datum on even torus grids (fields.Grid1D with
even=True) stays even: every route then runs on the stored nodes 0..N//2
of each axis and gives the full torus's results there. The Picard
iteration overwrites one stack of its time slices in place; the
split-step yields its saved states one at a time as Fields, which
CauchyTails, the scattering diagnostic, consumes as they come.

The equation solved is i u_t + Lap u = F(u) with the gauge-invariant
power F(u) = mu |u|^(gamma-1) u, matching the package's linear multiplier
convention exp(-i t xi^2); the nonlinear substep is the exact phase
rotation exp(-i mu |u|^(gamma-1) dt).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .decay import time_norm
from .exponents import select_nls_exponents
from .fields import DIMENSION, Field, _frozen, values_lp_norm, values_lp_norms
from .propagators import _strang, spectral_product


@dataclass(frozen=True)
class Nonlinearity:
    """Gauge-invariant power nonlinearity F(u) = mu |u|^(gamma-1) u. gamma
    is kept as the exact rational it was given as (a float is its exact
    binary value), which every hypothesis check compares; the power
    computes with `power`, gamma - 1 as a float."""

    gamma: Fraction
    mu: float = 1.0

    def __post_init__(self):
        if not 1 < self.gamma < math.inf:
            raise ValueError(f"gamma must exceed 1 and be finite, got {self.gamma}")
        object.__setattr__(self, "gamma", Fraction(self.gamma))
        if complex(self.mu).imag != 0:
            # the exact phase-rotation substep keeps |u| only for real mu
            raise ValueError(f"mu must be real, got {self.mu!r}")

    @property
    def power(self) -> float:
        return float(self.gamma) - 1


def apply_nonlinearity(values: np.ndarray, nl: Nonlinearity) -> np.ndarray:
    """F(u) at every point of a values array. The power acts in place on
    the |u| temporary, which gives mu * |u| ** (gamma - 1) * u bit for
    bit."""
    mag = np.abs(values)
    mag **= nl.power
    mag = nl.mu * mag
    return mag * values


def _nonlinear_substep(values: np.ndarray, nl: Nonlinearity, dt: float, work) -> np.ndarray:
    """Pointwise flow of i u_t = F(u) over dt: the exact phase rotation
    (the modulus is invariant for real mu), built from the cosine and sine
    of the real angle. It runs in place: `values` is overwritten and
    returned, and `work`, a float and a complex array of its shape, holds
    the angle and the phase."""
    angle, phase = work
    # the operations and their order of dt * mu * |u| ** (gamma - 1),
    # cos and -sin, then values * phase: results stay bit for bit
    np.abs(values, out=angle)
    angle **= nl.power
    angle *= dt * complex(nl.mu).real
    np.cos(angle, out=phase.real)
    np.sin(angle, out=phase.imag)
    np.negative(phase.imag, out=phase.imag)
    values *= phase
    return values


def _time_steps(T: float, dt: float) -> int:
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    n_steps = round(T / dt)
    if not math.isclose(n_steps * dt, T, rel_tol=1e-9):
        raise ValueError("T must be an integer multiple of dt")
    return n_steps


def saved_steps(T: float, dt: float, save_stride: int) -> list[int]:
    """The steps a split-step run of length T saves: step 0, every
    save_stride-th step and the last one. Step s is at time s * dt."""
    if save_stride < 1:
        raise ValueError(f"save_stride must be >= 1, got {save_stride}")
    n_steps = _time_steps(T, dt)
    return [0] + [s for s in range(1, n_steps + 1) if s % save_stride == 0 or s == n_steps]


def splitstep_states(u0: Field, nl: Nonlinearity, specs, T: float, dt: float, save_stride: int = 1):
    """Strang-split NLS states at the saved_steps of T, dt and save_stride,
    under the product flow of `specs` (one spec per axis of u0), yielded as
    (time, Field) pairs in time order: u0 itself at time 0, then a Field of
    each saved state. Each interval between saved states is one _strang
    loop on its own copy of the last one. The linear step is the product
    flow's kinetic step (SpectralProduct.step) with the phase of dt, built
    once; the nonlinear substeps run in place, in two buffers kept for the
    whole run."""
    saved = saved_steps(T, dt, save_stride)
    flow = spectral_product(specs, u0.grids)
    kinetic = functools.partial(flow.step, phase=flow.phase(dt))
    work = (np.empty(u0.values.shape), np.empty(u0.values.shape, dtype=complex))

    def nonlinear_step(values, s):
        return _nonlinear_substep(values, nl, s * dt, work)

    state = u0
    yield 0.0, u0
    for start, stop in zip(saved, saved[1:]):
        state = Field(u0.grids, _frozen(_strang(state.values, kinetic, nonlinear_step, stop - start)))
        yield stop * dt, state


def splitstep_nls(u0: Field, nl: Nonlinearity, specs, T: float, dt: float, save_stride: int = 1) -> list:
    """The (time, Field) pairs of splitstep_states, as one list."""
    return list(splitstep_states(u0, nl, specs, T, dt, save_stride))


@dataclass(frozen=True)
class PicardState:
    k: int
    y_norm: float
    distance: float | None
    ratio: float | None


@dataclass(frozen=True, eq=False)
class PicardResult:
    history: tuple[PicardState, ...]
    converged: bool
    contractive: bool
    times: tuple[float, ...]
    values: np.ndarray  # the last iterate, values[i] at times[i]; read-only


def _y_norm(times, l2_norms: np.ndarray, q_norms: np.ndarray, p: float) -> float:
    """||u||_{Linf_t L2} + ||u||_{Lp_t Lq} from the per-slice norms of u."""
    return float(l2_norms.max()) + time_norm(times, q_norms, p)


def picard_iterate(
    f: Field,
    nl: Nonlinearity,
    specs,
    T: float,
    dt: float,
    max_iter: int = 10,
    tol: float = 1e-8,
) -> PicardResult:
    """Duhamel fixed-point iteration v_{k+1}(t) = e^{itL} f +
    int_0^t e^{i(t-s)L} F(v_k(s)) ds on the coarse time lattice, trapezoid
    quadrature in s, starting from the linear evolution under the product
    flow of `specs` (one spec per axis of f). The Y-norm's pair (p, q) is
    select_nls_exponents(m, n, nl.gamma), with m and n the dimensions of
    f's two grid kinds (fields.DIMENSION); a field of another rank is a
    ValueError, and a gamma above the bound for m + n a HypothesisViolation.

    Returns the full diagnostic history (Y-norms, successive distances,
    contraction ratios) and the last iterate, a read-only stack of its
    time slices. Divergence (3 consecutive growing distances) is
    reported via contractive=False, not raised.
    """
    if f.rank != 2:
        raise ValueError(f"the Picard pair is selected on a product of two factors, got a rank-{f.rank} field")
    exponents = select_nls_exponents(*(DIMENSION[g.kind] for g in f.grids), nl.gamma)
    p, q = float(exponents.p), float(exponents.q)
    times = [i * dt for i in range(_time_steps(T, dt) + 1)]
    flow = spectral_product(specs, f.grids)
    f_hat = flow.forward(f.values)
    # On the time lattice e^{i t_i L} = (e^{i dt L})^i: every slice steps
    # the spectral linear part by the one phase of dt. The initial iterate
    # is that linear evolution; each sweep overwrites the stack in place.
    step = flow.phase(dt)
    v = np.empty((len(times),) + f.values.shape, dtype=complex)
    norms0 = np.empty((2, len(times)))
    lin = f_hat.copy()
    for i in range(len(times)):
        if i:
            lin *= step
        v[i] = flow.inverse(lin)
        norms0[:, i] = values_lp_norms(v[i], f.grids, (2, q))

    def duhamel_sweep() -> np.ndarray:
        """Replace v by the next iterate; return the L2 and Lq norms of each
        new slice (rows 0, 1) and of its change (rows 2, 3)."""
        # F(v) enters as i u_t + Lap u = F(u) => Duhamel source -i F, and
        # h_i = -i dt/2 forward(F(v_i)) is its trapezoid term at t_i. In the
        # spectral domain the sum at t_i is acc_i = step (acc_{i-1} +
        # h_{i-1}) + h_i, and the slice is inverse(lin_i + acc_i). The sum
        # is kept apart from the linear part, so that its terms are rounded
        # at their own scale rather than at the scale of f_hat.
        norms = np.empty((4, len(times)))
        # the buffers of the sweep, reused slice by slice
        lin, acc, total = f_hat.copy(), np.zeros_like(f_hat), np.empty_like(f_hat)
        for i in range(len(times)):
            h = flow.forward(apply_nonlinearity(v[i], nl), overwrite=True)
            h *= -0.5j * dt
            if i:
                acc += prev
                acc *= step
                acc += h
                lin *= step
                np.add(lin, acc, out=total)
                new = flow.inverse(total, overwrite=True)
            else:
                new = f.values
            # the slice holds its change until the new values are copied in
            np.subtract(new, v[i], out=v[i])
            norms[:, i] = [*values_lp_norms(new, f.grids, (2, q)), *values_lp_norms(v[i], f.grids, (2, q))]
            v[i] = new
            prev = h
        return norms

    history = [PicardState(k=0, y_norm=_y_norm(times, *norms0, p), distance=None, ratio=None)]
    converged = False
    contractive = True
    ref_scale = None
    prev_distance = None
    growing = 0
    for k in range(1, max_iter + 1):
        l2, lq, change_l2, change_lq = duhamel_sweep()
        # a slice with a non-finite value has a non-finite L2 norm, so the
        # stack is read again only when a norm is not finite (|u|^2 can
        # overflow where u does not)
        if not np.all(np.isfinite(l2)) and not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite")
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
        times=tuple(times),
        values=_frozen(v),
    )


class CauchyTails:
    """The Cauchy tail table tail(t_i) = max_{j >= i} ||z(t_j) - z(t_i)||_{L^2}
    of the profiles z(t) = e^{-itL} u(t) under the product flow of `specs`,
    built as the states arrive in time order: `add` takes the next state, a
    Field on the specs' grids (one spec per axis), forms its profile and
    raises each earlier tail to its distance from the new profile. After
    the last state, `tails` is the table, and the last profile is the
    numerical scattering state candidate."""

    def __init__(self, specs):
        specs = list(specs)
        self.grids = tuple(s.grid for s in specs)
        self._flow = spectral_product(specs, self.grids)
        self.times: list[float] = []
        self.profiles: list[np.ndarray] = []
        self._tails: list[float] = []

    def add(self, t: float, state: Field) -> None:
        if state.grids != self.grids:
            raise ValueError("field grid does not match spec grid")
        z = self._flow.propagate(state.values, -t)
        for i, earlier in enumerate(self.profiles):
            self._tails[i] = max(self._tails[i], values_lp_norm(z - earlier, self.grids, 2))
        self.times.append(float(t))
        self.profiles.append(z)
        self._tails.append(0.0)

    @property
    def tails(self) -> list[tuple[float, float]]:
        return list(zip(self.times, self._tails))


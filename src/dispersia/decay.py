"""Norm time series, log-log power-law fits, and time norms.

The decay claims under test are pure power laws, so the fit is ordinary
least squares of log(value) against log(t); the slope is the measured
decay exponent and the OLS standard error quantifies the fit quality.
Wrap-flagged samples are systematically contaminated and are excluded
outright rather than down-weighted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .fields import Field, SeparableField, lp_norm
from .propagators import boundary_mass_fraction, peak_centers

# the fewest unflagged samples that a power-law fit reads
MIN_FIT_SAMPLES = 5


@dataclass(frozen=True)
class SeriesSample:
    t: float
    value: float
    flagged: bool = False


@dataclass(frozen=True)
class DecayFit:
    slope: float
    intercept: float
    stderr: float
    window: tuple[float, float]
    n_samples: int


def norm_series(evolve, u0: Field | SeparableField, times, r):
    """||u(t)||_r at each time, with wrap-around flags. A flag is sticky:
    mass that has reached the boundary and left its band again still
    contaminates the state, so every sample after a flagged one is flagged.

    `evolve` is a closure (u, t) -> state taking and returning the kind of
    state u0 is: a dense Field, or a SeparableField that the product flow
    keeps factored (its norms and wrap flags are then computed per factor).
    It is called as evolve(u0, t) once per time, in time order, so it may
    also continue from its own last state (the two-particle Strang series).
    """
    times = [float(t) for t in times]
    if not all(0 < t < math.inf for t in times) or any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError("times must be finite, strictly positive and increasing")
    centers = peak_centers(u0)
    out = []
    flagged = False
    for t in times:
        current = evolve(u0, t)
        flagged = flagged or boundary_mass_fraction(current, centers) > 0.01
        out.append(SeriesSample(t=t, value=lp_norm(current, r), flagged=flagged))
    return out


def fit_decay_exponent(series, window: tuple[float, float]) -> DecayFit:
    """OLS power-law fit log(value) ~ intercept + slope * log(t) over the
    unflagged samples inside the window."""
    t_min, t_max = window
    if not t_min < t_max:
        raise ValueError("window must satisfy t_min < t_max")
    pts = [s for s in series if not s.flagged and t_min <= s.t <= t_max]
    if len(pts) < MIN_FIT_SAMPLES:
        raise ValueError(f"need at least {MIN_FIT_SAMPLES} unflagged samples in window, got {len(pts)}")
    if any(s.value <= 0 for s in pts):
        raise ValueError("all values must be positive for a log-log fit")
    x = np.log([s.t for s in pts])
    y = np.log([s.value for s in pts])
    n = len(x)
    xbar = x.mean()
    sxx = float(np.sum((x - xbar) ** 2))
    slope = float(np.sum((x - xbar) * (y - y.mean())) / sxx)
    intercept = float(y.mean() - slope * xbar)
    resid = y - (intercept + slope * x)
    sigma2 = float(np.sum(resid**2)) / max(n - 2, 1)
    stderr = math.sqrt(sigma2 / sxx)
    return DecayFit(
        slope=slope,
        intercept=intercept,
        stderr=stderr,
        window=(float(t_min), float(t_max)),
        n_samples=n,
    )


def compare_prediction(fit: DecayFit, predicted, tol: float) -> dict:
    """Verdict report: pass iff the measured slope is within tol of the
    predicted decay -predicted."""
    predicted = Fraction(predicted)
    ok = abs(fit.slope - (-float(predicted))) <= tol
    return {
        "slope": fit.slope,
        "stderr": fit.stderr,
        "predicted": float(predicted),
        "tol": float(tol),
        "verdict": "pass" if ok else "fail",
        "window": list(fit.window),
        "n_samples": fit.n_samples,
    }


def time_norm(times, norms, p) -> float:
    """L^p in time of norms sampled at times: trapezoid of norms^p, then
    the p-th root; p = infinity takes the max over samples. The series must
    hold one norm per time and at least one time."""
    norms = np.asarray(norms, dtype=float)
    if len(times) == 0 or norms.shape != (len(times),):
        raise ValueError("time_norm needs one norm per time and at least one time")
    if math.isinf(p):
        return float(norms.max())
    if len(times) == 1:
        return 0.0
    return float(np.trapezoid(norms**p, np.asarray(times, dtype=float)) ** (1.0 / p))

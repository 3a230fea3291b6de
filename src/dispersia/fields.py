"""Grids, complex fields on products of grids, and Lebesgue norms.

A Grid1D is one factor of the product domain: either a periodic torus
segment of the real line, or the truncated radial half-line of the
3-dimensional hyperbolic space carried with its sinh^2 surface measure.
A SpectralFactor is the exact spectral form of a factor operator on one
grid axis. Fields are immutable (grids, values) pairs whose values are a
read-only view of the caller's array, not a copy; a SeparableField keeps
a rank-1 product state as its 1-D factors, and a Trajectory stacks the
states of one run along a leading time axis. Norms are quadrature
weighted so that a sampled function's norm approximates the continuum
one.
"""

from __future__ import annotations

import math
import os
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

EUCLIDEAN = "euclidean-torus"
HYPERBOLIC = "hyperbolic-radial"

_MIN_POINTS = 8

# arrays below this many points transform on one thread: there two workers
# gained little or lost (0.95-1.24x at 243^2 and 256^2 on 2 cores), and the
# NLS routes on such grids already run a second thread
_THREAD_MIN_POINTS = 2**18

# |u|^2 squares this many (re, im) pairs at a time: the 256 KB temporary
# stays in cache, where one temporary the size of a 1024 x 1120 array made
# the dense wrap monitor slower than two strided passes
_SQUARE_CHUNK = 2**14


@dataclass(frozen=True)
class Grid1D:
    n_points: int
    length: float
    kind: str = EUCLIDEAN

    def __post_init__(self):
        if self.kind not in (EUCLIDEAN, HYPERBOLIC):
            raise ValueError(f"unknown grid kind {self.kind!r}")
        if self.n_points < _MIN_POINTS:
            raise ValueError(f"n_points must be >= {_MIN_POINTS}, got {self.n_points}")
        if not self.length > 0:
            raise ValueError(f"length must be positive, got {self.length}")
        if self.kind == HYPERBOLIC:
            # the weights grow like e^{2r}/4 and the last one is the largest
            with np.errstate(over="ignore"):
                top = self.weights[-1]
            if not math.isfinite(top):
                raise ValueError(
                    f"r_max = {self.length} is too large: the H^3 weight 4 pi sinh(r)^2 dr "
                    f"overflows float64 at r = {self.nodes[-1]:.6g}; r_max must stay below about 355"
                )

    @property
    def spacing(self) -> float:
        return self.length / self.n_points

    @property
    def nodes(self) -> np.ndarray:
        dx = self.spacing
        if self.kind == EUCLIDEAN:
            return dx * np.arange(self.n_points)
        # cell-centered to keep sinh(r) > 0 at every node
        return dx * (np.arange(self.n_points) + 0.5)

    @property
    def weights(self) -> np.ndarray:
        """Quadrature weight at each node (measure of its cell)."""
        dx = self.spacing
        if self.kind == EUCLIDEAN:
            return np.full(self.n_points, dx)
        # geodesic-sphere area 4*pi*sinh(r)^2 in H^3
        return 4.0 * np.pi * np.sinh(self.nodes) ** 2 * dx


def make_grid(n_points: int, length: float, kind: str = EUCLIDEAN) -> Grid1D:
    return Grid1D(n_points=int(n_points), length=float(length), kind=kind)


def transform_workers(values: np.ndarray) -> int:
    """The `workers` count of a scipy.fft call on `values`: every core the
    process may run on from 2**18 points up, one below that. The threads
    split the batch of 1-D transforms, each computed as on one thread, so
    the result does not depend on the count."""
    if values.size < _THREAD_MIN_POINTS:
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _axis_shape(values: np.ndarray, axis: int, arr: np.ndarray) -> np.ndarray:
    """A 1-D array reshaped to broadcast along one axis of values."""
    shape = [1] * values.ndim
    shape[axis] = arr.shape[0]
    return arr.reshape(shape)


@dataclass(frozen=True, eq=False)
class SpectralFactor:
    """A factor operator S on one grid axis in its exact spectral form: a
    transform along the axis that diagonalises S, the spectrum lam of S on
    the transform's dual lattice, and the inverse transform. The factor
    flow exp(-itS) is forward, the phase exp(-i t lam), inverse. With
    overwrite=True a transform may write into the array it is given (one
    that returns a fresh array ignores the flag)."""

    forward: Callable[..., np.ndarray]  # (values, axis, overwrite=False) -> coefficients
    inverse: Callable[..., np.ndarray]  # (coefficients, axis, overwrite=False) -> values
    lam: np.ndarray

    def phase(self, t: float) -> np.ndarray:
        # the linear artifacts stay byte-identical only in this evaluation order
        return np.exp(-1j * t * self.lam)


def _read_only(vals: np.ndarray) -> np.ndarray:
    """A read-only view of vals: no copy, and no write through the view."""
    view = vals.view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True)
class Field:
    grids: tuple[Grid1D, ...]
    values: np.ndarray

    def __post_init__(self):
        grids = tuple(self.grids)
        object.__setattr__(self, "grids", grids)
        if not 1 <= len(grids) <= 3:
            raise ValueError("Field supports rank 1 to 3")
        vals = np.asarray(self.values, dtype=complex)
        expected = tuple(g.n_points for g in grids)
        if vals.shape != expected:
            raise ValueError(f"values shape {vals.shape} does not match grids {expected}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("field values must be finite")
        object.__setattr__(self, "values", _read_only(vals))

    @property
    def rank(self) -> int:
        return len(self.grids)

    def with_values(self, values: np.ndarray) -> "Field":
        return Field(self.grids, values)


@dataclass(frozen=True)
class SeparableField:
    """A rank-1 product state f_1 (x) ... (x) f_k kept as its rank-1 factors.

    Product flows act factor by factor and its L^r norms are the products
    of the factor norms, so it is evolved and measured without the dense
    tensor, and unlike a Field its rank is not capped at 3. It has no
    `values`: a code path that needs the dense array fails instead of
    building it."""

    factors: tuple[Field, ...]

    def __post_init__(self):
        factors = tuple(self.factors)
        if not factors:
            raise ValueError("SeparableField needs at least one factor")
        if not all(isinstance(f, Field) and f.rank == 1 for f in factors):
            raise ValueError("SeparableField factors must be rank-1 Fields")
        object.__setattr__(self, "factors", factors)

    @property
    def grids(self) -> tuple[Grid1D, ...]:
        return tuple(f.grids[0] for f in self.factors)

    @property
    def rank(self) -> int:
        return len(self.factors)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """The states of one run stacked along a leading time axis: values[i]
    is the state on the product of `grids` at times[i]. The whole stack is
    validated once, as a Field validates its values."""

    times: np.ndarray
    grids: tuple[Grid1D, ...]
    values: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        grids = tuple(self.grids)
        vals = np.asarray(self.values, dtype=complex)
        if times.ndim != 1 or len(times) == 0:
            raise ValueError("a trajectory needs a 1-D array of at least one time")
        expected = (len(times),) + tuple(g.n_points for g in grids)
        if vals.shape != expected:
            raise ValueError(f"values shape {vals.shape} does not match times and grids {expected}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("field values must be finite")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "grids", grids)
        object.__setattr__(self, "values", _read_only(vals))


def _abs_squared(values: np.ndarray) -> np.ndarray:
    """|u|^2 as re^2 + im^2: the square root of np.abs is never taken. A
    complex array is squared in one pass over its (re, im) float view, and
    then each pair is added, _SQUARE_CHUNK pairs at a time; input that is
    not C-contiguous is copied first, since the view needs it."""
    if not np.iscomplexobj(values):
        return np.square(values)
    pairs = np.ascontiguousarray(values).view(values.real.dtype).reshape(-1, 2)
    out = np.empty(values.shape, dtype=values.real.dtype)
    flat = out.reshape(-1)
    for start in range(0, len(flat), _SQUARE_CHUNK):
        sq = np.square(pairs[start : start + _SQUARE_CHUNK])
        np.add(sq[:, 0], sq[:, 1], out=flat[start : start + _SQUARE_CHUNK])
    return out


def _weighted_axis_norm(
    values: np.ndarray, weights: np.ndarray, r: float, axis: int, squared: np.ndarray | None = None
) -> np.ndarray:
    """L^r norm along one axis. For finite r >= 2 the summand |u|^r is
    (|u|^2)^(r/2), from `squared` (|values|^2) when the caller has it: no
    square root, no pow at r = 2 and one square at r = 4. For r < 2 and
    r = inf it is taken from |u|, whose square could overflow where |u|^r
    does not."""
    if math.isinf(r):
        return np.abs(values).max(axis=axis)
    if r < 2:
        power = np.abs(values) ** r
    else:
        sq = _abs_squared(values) if squared is None else squared
        power = sq if r == 2 else np.square(sq) if r == 4 else sq ** (r / 2)
    return np.sum(_axis_shape(values, axis, weights) * power, axis=axis) ** (1.0 / r)


def _lp_exponent(r) -> float:
    """Coerce a norm exponent (number or Fraction, math.inf included) to a
    float >= 1; NaN is refused too."""
    rv = float(r)
    if not rv >= 1:
        raise ValueError(f"L^r norm needs r >= 1, got {r}")
    return rv


def values_lp_norms(values: np.ndarray, grids, exponents) -> list[float]:
    """lp_norm of a bare values array on the product of `grids`, one per
    exponent; |u|^2 is formed once for all the finite exponents >= 2."""
    rs = [_lp_exponent(r) for r in exponents]
    squared = _abs_squared(values) if any(2 <= rv < math.inf for rv in rs) else None
    last = len(grids) - 1
    out = []
    for rv in rs:
        if math.isinf(rv):
            out.append(float(np.abs(values).max()))
            continue
        acc = _weighted_axis_norm(values, grids[last].weights, rv, last, squared)
        for axis in reversed(range(last)):
            acc = _weighted_axis_norm(acc, grids[axis].weights, rv, axis)
        out.append(float(acc))
    return out


def values_lp_norm(values: np.ndarray, grids, r) -> float:
    """lp_norm of a bare values array on the product of `grids`."""
    return values_lp_norms(values, grids, (r,))[0]


def lp_norm(u: Field | SeparableField, r) -> float:
    """Quadrature-weighted L^r norm over the whole product domain; for a
    SeparableField, the product of its factor norms."""
    if isinstance(u, SeparableField):
        return math.prod(lp_norm(f, r) for f in u.factors)
    return values_lp_norm(u.values, u.grids, r)


def slice_lp_norms(values: np.ndarray, grids, r, minus: np.ndarray | None = None) -> np.ndarray:
    """lp_norm of each slice values[i], a state on the product of `grids`;
    with `minus`, of each slice of values - minus (a single state, or a
    stack like values). Slice by slice, so that the temporaries stay the
    size of one state and in cache."""
    out = np.empty(len(values))
    for i, state in enumerate(values):
        if minus is not None:
            state = state - (minus if minus.ndim < values.ndim else minus[i])
        out[i] = values_lp_norm(state, grids, r)
    return out


def gaussian_field(grid: Grid1D, width: float = 1.0, center: float | None = None) -> Field:
    """Gaussian bump exp(-(x-center)^2 / (2 width^2)), torus-centered by default."""
    if center is None:
        center = grid.length / 2 if grid.kind == EUCLIDEAN else grid.length / 8
    x = grid.nodes
    if grid.kind == EUCLIDEAN:
        d = np.mod(x - center + grid.length / 2, grid.length) - grid.length / 2
    else:
        d = x - center
    return Field((grid,), np.exp(-(d**2) / (2.0 * width**2)))

"""Radial Schrodinger flow on 3-dimensional hyperbolic space.

For radial data on H^3 the spherical analysis collapses to a sine
transform of the auxiliary function F(r) = sinh(r) f(r): on the
cell-centered truncated grid this is exactly the type-II discrete sine
transform, with the dual lattice lambda_k = k pi / r_max. The flow is the
spectral multiplier exp(-i t (lambda^2 + rho^2)) with rho = 1 (the bottom
of the spectrum of minus the Laplace-Beltrami operator on H^3).

Normalization of the transform pair is operational: the inverse is the
exact inverse of the forward map, and the Plancherel dual weights are
fixed here and frozen by a golden test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft as sfft

from .fields import HYPERBOLIC, Field, Grid1D, SpectralFactor, _axis_shape, _read_only, transform_workers

RHO_H3 = 1.0


def _require_hyperbolic(grid: Grid1D):
    if grid.kind != HYPERBOLIC:
        raise ValueError("a hyperbolic-radial grid is required")


@dataclass(frozen=True)
class SphericalProfile:
    """Complex radial samples f(r_j) on a truncated H^3 radial grid."""

    grid: Grid1D
    values: np.ndarray

    def __post_init__(self):
        _require_hyperbolic(self.grid)
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != (self.grid.n_points,):
            raise ValueError("values must match the grid")
        if not np.all(np.isfinite(vals)):
            raise ValueError("profile values must be finite")
        object.__setattr__(self, "values", _read_only(vals))

    def as_field(self) -> Field:
        return Field((self.grid,), self.values)


def dual_lattice(grid: Grid1D) -> np.ndarray:
    """Dual lattice lambda_k = k pi / r_max, k = 1..n."""
    _require_hyperbolic(grid)
    return np.pi * np.arange(1, grid.n_points + 1) / grid.r_max


def _complex_dst(transform, values: np.ndarray, axis: int) -> np.ndarray:
    """The type-II `transform` (sfft.dst or sfft.idst) of complex values
    along one axis as one real transform: the (re, im) pairs become a
    trailing axis of a float view, where scipy would make two strided real
    calls. Each 1-D transform is computed as before, so the result is
    bit-identical. Always a fresh array."""
    axis = axis % values.ndim  # never the appended (re, im) axis
    x = np.ascontiguousarray(values, dtype=complex)
    out = transform(x.view(float).reshape(x.shape + (2,)), type=2, axis=axis, workers=transform_workers(x))
    return out.view(complex)[..., 0]


def h3_factor(grid: Grid1D) -> SpectralFactor:
    """The H^3 radial factor in spectral form: the type-II sine transform of
    sinh(r) f(r) along the axis, spectrum lambda^2 + rho^2 on the dual
    lattice."""
    _require_hyperbolic(grid)
    sinh_r = np.sinh(grid.nodes)

    def forward(values, axis):
        return _complex_dst(sfft.dst, values * _axis_shape(values, axis, sinh_r), axis)

    def inverse(coeffs, axis):
        out = _complex_dst(sfft.idst, coeffs, axis)
        out /= _axis_shape(out, axis, sinh_r)
        return out

    return SpectralFactor(forward, inverse, dual_lattice(grid) ** 2 + RHO_H3**2)


def spherical_transform(f: SphericalProfile) -> np.ndarray:
    """f(r) -> f_hat(lambda) via the sine transform of sinh(r) f(r)."""
    return h3_factor(f.grid).forward(f.values, 0)


def inverse_spherical_transform(grid: Grid1D, coeffs: np.ndarray) -> SphericalProfile:
    _require_hyperbolic(grid)
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.shape != (grid.n_points,):
        raise ValueError("coefficients must match the grid")
    return SphericalProfile(grid, h3_factor(grid).inverse(coeffs, 0))


def dual_weights(grid: Grid1D) -> np.ndarray:
    """Plancherel weights on the dual lattice: with these, the weighted
    L^2(4 pi sinh^2 r dr) norm of f equals the weighted l^2 norm of the
    transform. The top mode carries half the weight of the others
    (orthogonality of the type-II sine vectors)."""
    _require_hyperbolic(grid)
    n = grid.n_points
    w = np.full(n, 4.0 * np.pi * grid.spacing / (2 * n))
    w[-1] = 4.0 * np.pi * grid.spacing / (4 * n)
    return w

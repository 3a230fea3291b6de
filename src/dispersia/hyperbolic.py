"""Radial Schrodinger flow on 3-dimensional hyperbolic space.

For radial data on H^3 the spherical analysis collapses to a sine
transform of the auxiliary function F(r) = sinh(r) f(r): on the
cell-centered truncated grid this is exactly the type-II discrete sine
transform, with the dual lattice lambda_k = k pi / r_max. The flow is the
spectral multiplier exp(-i t (lambda^2 + rho^2)) with rho = 1 (the bottom
of the spectrum of minus the Laplace-Beltrami operator on H^3).

Normalization of the transform pair is operational: the inverse is the
exact inverse of the forward map. With the unnormalized type-II sine
transform the weighted L^2 norm of f equals a weighted l^2 norm of its
coefficients, with weight 4 pi dr / (2n) on every mode but the top one,
which carries half of it.
"""

from __future__ import annotations

import numpy as np
import scipy.fft as sfft

from .fields import HYPERBOLIC, Grid1D, SpectralFactor, _axis_shape, transform_workers

RHO_H3 = 1.0


def _require_hyperbolic(grid: Grid1D):
    if grid.kind != HYPERBOLIC:
        raise ValueError("a hyperbolic-radial grid is required")


def dual_lattice(grid: Grid1D) -> np.ndarray:
    """Dual lattice lambda_k = k pi / r_max, k = 1..n."""
    _require_hyperbolic(grid)
    return np.pi * np.arange(1, grid.n_points + 1) / grid.length


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
    lattice. Both transforms return a fresh array and ignore `overwrite`."""
    _require_hyperbolic(grid)
    sinh_r = np.sinh(grid.nodes)

    def forward(values, axis, overwrite=False):
        return _complex_dst(sfft.dst, values * _axis_shape(values, axis, sinh_r), axis)

    def inverse(coeffs, axis, overwrite=False):
        out = _complex_dst(sfft.idst, coeffs, axis)
        out /= _axis_shape(out, axis, sinh_r)
        return out

    return SpectralFactor(forward, inverse, dual_lattice(grid) ** 2 + RHO_H3**2)

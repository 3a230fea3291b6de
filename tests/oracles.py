"""Independent oracles shared by the unit and acceptance tests, written
directly from their definitions with no shared code with the library:
the exponent classifiers, the dense product state of two fields, the
product flow composed axis by axis, and the Plancherel weights of the H^3
sine transform."""

from fractions import Fraction

import numpy as np

from dispersia.fields import Field

HALF = Fraction(1, 2)


def admissible_oracle(inv_p: Fraction, inv_q: Fraction, ab: Fraction) -> str:
    on_line = inv_p + ab * inv_q == ab / 2
    if not on_line:
        return "not-admissible"
    if ab > 1:
        # 2 <= p <= inf and 2 <= q <= 2ab/(ab-1)
        q_min_inv = (ab - 1) / (2 * ab)  # 1/q at the endpoint q = 2ab/(ab-1)
        if inv_p > HALF or inv_q > HALF or inv_q < q_min_inv:
            return "not-admissible"
        if inv_p == HALF and inv_q == q_min_inv:
            return "endpoint"
        return "admissible"
    # 0 < ab <= 1: p > 2/ab strict, 2 <= q < inf strict
    if inv_p < ab / 2 and 0 < inv_q <= HALF:
        return "admissible"
    return "not-admissible"


def triangle_oracle(inv_p: Fraction, inv_q: Fraction, m: int, n: int) -> bool:
    if (inv_p, inv_q) == (Fraction(0), HALF):
        return True
    inside_square = 0 < inv_p <= HALF and 0 < inv_q <= HALF
    return inside_square and 2 * inv_p + (m + n) * inv_q >= Fraction(m + n, 2)


def product_field(f: Field, g: Field) -> Field:
    """The dense product state f (x) g of two fields on the product of their grids."""
    return Field(f.grids + g.grids, np.multiply.outer(f.values, g.values))


def per_axis_flow(factors, values: np.ndarray, t: float, axes=None) -> np.ndarray:
    """The product flow of `factors` (SpectralFactors, one per axis of
    values) composed axis by axis, in the order `axes` (default 0, 1, ...):
    each factor flow is its forward transform along its axis, the phase
    exp(-i t lam) broadcast along that axis, and its inverse."""
    for axis in range(len(factors)) if axes is None else axes:
        factor = factors[axis]
        shape = [1] * values.ndim
        shape[axis] = len(factor.lam)
        coeffs = factor.forward(values, axis)
        coeffs *= np.exp(-1j * t * factor.lam).reshape(shape)
        values = factor.inverse(coeffs, axis)
    return values


def h3_plancherel_weights(grid) -> np.ndarray:
    """Weights on the dual lattice of an H^3 radial grid under which the
    weighted l^2 norm of the unnormalized type-II sine transform equals the
    L^2(4 pi sinh^2 r dr) norm of f: 4 pi dr / (2n) on every mode and half
    of that on the top one (orthogonality of the type-II sine vectors)."""
    n = grid.n_points
    w = np.full(n, 4.0 * np.pi * grid.spacing / (2 * n))
    w[-1] = 4.0 * np.pi * grid.spacing / (4 * n)
    return w

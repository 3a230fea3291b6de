"""Independent oracles shared by the unit and acceptance tests, written
directly from their definitions with no shared code with the library:
the exponent classifiers, the dense product state of two fields, the
product flow composed axis by axis, the NLS split-step loop with its half
steps merged by hand, and the Plancherel weights of the H^3 sine
transform."""

from fractions import Fraction

import numpy as np

from dispersia.fields import Field

HALF = Fraction(1, 2)


def admissible_oracle(inv_p: Fraction, inv_q: Fraction, ab: Fraction) -> str:
    """Keel-Tao's sharp sigma-admissible pairs (Amer. J. Math. 1998) for
    the decay rate sigma = ab > 0: 1/p + sigma/q = sigma/2 with p, q >= 2
    and (p, q, sigma) != (2, inf, 1); the endpoint is the one with p = 2.
    Their theorem needs sigma > 0, so ab = 0 admits no pair."""
    on_line = inv_p + ab * inv_q == ab / 2
    if ab <= 0 or not on_line or inv_p > HALF or inv_q > HALF or (inv_p, inv_q, ab) == (HALF, 0, 1):
        return "not-admissible"
    return "endpoint" if inv_p == HALF else "admissible"


def triangle_oracle(inv_p: Fraction, inv_q: Fraction, m: int, n: int) -> bool:
    """The widened triangle of H^m x H^n as Anker-Pierfelice write it (Ann.
    IHP 2009), with d = m + n: (1/p, 1/q) in (0, 1/2] x (0, 1/2), half-open,
    with 2/p + d/q >= d/2, and the isolated point (0, 1/2)."""
    if (inv_p, inv_q) == (0, HALF):
        return True
    inside = 0 < inv_p <= HALF and 0 < inv_q < HALF
    return inside and 2 * inv_p + (m + n) * inv_q >= Fraction(m + n, 2)


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


def merged_splitstep(values: np.ndarray, linear_step, rotate, dt: float, saved) -> list:
    """The Strang split-step with its half steps merged by hand, step by
    step: a half rotation, then for each step the linear step and a full
    rotation, except that a saved step closes with a half rotation, keeps a
    copy and, unless it is the last, opens the next step with another half.
    `rotate(values, tau)` is the pointwise flow over tau and `saved` the
    saved steps, 0 first. Returns the copies kept at the saved steps after
    step 0, in step order."""
    n_steps = saved[-1]
    kept = []
    values = rotate(values.copy(), dt / 2)
    for step in range(1, n_steps + 1):
        values = linear_step(values)
        if step in saved:
            values = rotate(values, dt / 2)
            kept.append(values.copy())
            if step < n_steps:
                values = rotate(values, dt / 2)
        else:
            values = rotate(values, dt)
    return kept


def h3_plancherel_weights(grid) -> np.ndarray:
    """Weights on the dual lattice of an H^3 radial grid under which the
    weighted l^2 norm of the unnormalized type-II sine transform equals the
    L^2(4 pi sinh^2 r dr) norm of f: 4 pi dr / (2n) on every mode and half
    of that on the top one (orthogonality of the type-II sine vectors)."""
    n = grid.n_points
    w = np.full(n, 4.0 * np.pi * grid.spacing / (2 * n))
    w[-1] = 4.0 * np.pi * grid.spacing / (4 * n)
    return w

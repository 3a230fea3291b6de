"""Schrodinger propagators on Euclidean tori and their tensor composition.

Sign convention, fixed once for the whole package: the free factor flow is
the Fourier multiplier exp(-i t xi^2) on the discrete torus frequencies
xi = 2 pi k / L, i.e. exp(i t Laplacian). A potential factor is the flow
of -Laplacian + V, and a Strang potential substep carries phase
exp(-i V dt), so every substep is a modulus-1 multiplier and the schemes
are exactly unitary.

Every factor kind has an exact spectral form (`spectral_factor`); on a
product of factors `spectral_product` gives the flow as one forward
transform per axis, one phase and one inverse transform per axis.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.fft as sfft

from .fields import (
    EUCLIDEAN,
    HYPERBOLIC,
    Field,
    Grid1D,
    SeparableField,
    SpectralFactor,
    _abs_squared,
    transform_workers,
)
from .hyperbolic import h3_factor


@dataclass(frozen=True)
class PotentialSpec:
    """Built-in real potential families; amplitude >= 0 keeps the sign
    condition of the 1-D weighted class."""

    family: str  # gaussian-bump | sech-squared
    amplitude: float = 1.0
    width: float = 1.0
    center: float = 0.0

    def __post_init__(self):
        if self.family not in ("gaussian-bump", "sech-squared"):
            raise ValueError(f"unknown potential family {self.family!r}")
        if self.amplitude < 0:
            raise ValueError("amplitude must be >= 0 (sign condition V >= 0)")
        if not self.width > 0:
            raise ValueError("width must be positive")

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """Analytic profile at signed distances x from the center."""
        d = (np.asarray(x, dtype=float) - self.center) / self.width
        if self.family == "gaussian-bump":
            return self.amplitude * np.exp(-(d**2))
        # sech-squared: far from the center cosh(d)^2 overflows to inf, and
        # the quotient is then the exact float limit 0
        with np.errstate(over="ignore"):
            return self.amplitude / np.cosh(d) ** 2

    def sample(self, grid: Grid1D) -> np.ndarray:
        """Sample on torus nodes, using the minimum-image distance to the
        center so the bump sits periodically on the torus."""
        x = grid.nodes
        d = np.mod(x - self.center + grid.length / 2, grid.length) - grid.length / 2
        return self.evaluate(d + self.center)


@dataclass(frozen=True)
class PropagatorSpec:
    kind: str  # free | free-plus-potential | hyperbolic-radial
    grid: Grid1D
    potential: PotentialSpec | None = None

    def __post_init__(self):
        if self.kind not in ("free", "free-plus-potential", "hyperbolic-radial"):
            raise ValueError(f"unknown propagator kind {self.kind!r}")
        if (self.potential is not None) != (self.kind == "free-plus-potential"):
            raise ValueError("potential present iff kind is free-plus-potential")
        if (self.grid.kind == HYPERBOLIC) != (self.kind == "hyperbolic-radial"):
            raise ValueError(f"kind {self.kind!r} does not run on a {self.grid.kind} grid")

    @functools.cached_property
    def factor(self) -> SpectralFactor:
        """spectral_factor(self), built on first use and freed with the spec."""
        return spectral_factor(self)


def torus_frequencies(grid: Grid1D) -> np.ndarray:
    return 2.0 * np.pi * np.fft.fftfreq(grid.n_points, d=grid.spacing)


def _free_factor(grid: Grid1D) -> SpectralFactor:
    """The free torus factor: FFT along the axis, spectrum xi^2."""
    return SpectralFactor(
        lambda x, axis, overwrite=False: sfft.fft(x, axis=axis, workers=transform_workers(x), overwrite_x=overwrite),
        lambda x, axis, overwrite=False: sfft.ifft(x, axis=axis, workers=transform_workers(x), overwrite_x=overwrite),
        torus_frequencies(grid) ** 2,
    )


def _matrix_along(matrix: np.ndarray, values: np.ndarray, axis: int) -> np.ndarray:
    """matrix @ values along one axis of a complex array, as one real
    matrix product on the (re, im) float view. Always a fresh array."""
    x = np.ascontiguousarray(np.moveaxis(values, axis, 0), dtype=complex)
    out = matrix @ x.view(float).reshape(len(x), -1)
    return np.moveaxis(out.view(complex).reshape(x.shape), 0, axis)


def _potential_factor(grid: Grid1D, potential: PotentialSpec) -> SpectralFactor:
    """The free-plus-potential torus factor -D^2 + V in its exact spectral
    form: the eigenbasis E of the real symmetric matrix of the spectral
    -D^2 (the circulant whose column is the inverse FFT of xi^2) plus
    diag(V). Forward is E^T along the axis, inverse E, and the spectrum
    is the eigenvalues (Trefethen, Spectral Methods in MATLAB, 2000)."""
    n = grid.n_points
    column = sfft.ifft(torus_frequencies(grid) ** 2).real
    # the circulant is symmetric, so it is the Toeplitz matrix column[|i - j|]:
    # row i is the window of (c[n-1], ..., c[1], c[0], c[1], ..., c[n-1])
    # that puts c[0] in column i
    mirrored = np.concatenate((column[:0:-1], column))
    matrix = np.lib.stride_tricks.sliding_window_view(mirrored, n)[::-1].copy()
    matrix[np.diag_indices(n)] += potential.sample(grid)
    lam, vecs = np.linalg.eigh(matrix)
    return SpectralFactor(
        lambda values, axis, overwrite=False: _matrix_along(vecs.T, values, axis),
        lambda coeffs, axis, overwrite=False: _matrix_along(vecs, coeffs, axis),
        lam,
    )


def spectral_factor(spec: PropagatorSpec) -> SpectralFactor:
    """The exact spectral form of a factor kind: the Fourier basis (free),
    the potential eigenbasis (free-plus-potential) or the sine transform
    (hyperbolic-radial)."""
    if spec.kind == "free":
        return _free_factor(spec.grid)
    if spec.kind == "free-plus-potential":
        return _potential_factor(spec.grid, spec.potential)
    return h3_factor(spec.grid)


def _strang(values: np.ndarray, kinetic_step, half_phase: np.ndarray, steps: int) -> np.ndarray:
    """Strang splitting h K (h h K)^(steps-1) h: `kinetic_step` is one
    kinetic step of the split flow, the potential half-phases outermost."""
    full = half_phase * half_phase
    out = values * half_phase
    for k in range(steps):
        out = kinetic_step(out)
        out *= full if k < steps - 1 else half_phase
    return out


def _check_specs(specs, grids) -> list:
    specs = list(specs)
    if len(specs) != len(grids):
        raise ValueError(f"need {len(grids)} propagator specs, got {len(specs)}")
    for axis, spec in enumerate(specs):
        if grids[axis] != spec.grid:
            raise ValueError(f"axis {axis}: field grid does not match spec grid")
    return specs


@dataclass(frozen=True, eq=False)
class SpectralProduct:
    """The product flow e^{itL} in spectral form, on single states of one
    product grid: `forward` applies every factor's transform on its own
    axis, axis 0 first, `phase(t)` is exp(-itS) as the outer product of the
    1-D factor phases, and `inverse` undoes `forward`, again axis 0 first;
    `propagate` is e^{itL} u = inverse(forward(u) * phase(t)). With
    overwrite=True the first transform may write its result into the array
    it is given, which the caller must then not read again; the result is
    the same. Every later transform may overwrite, since its input is the
    product's own array."""

    factors: tuple[SpectralFactor, ...]

    def forward(self, values: np.ndarray, overwrite: bool = False) -> np.ndarray:
        for axis, factor in enumerate(self.factors):
            values = factor.forward(values, axis, overwrite or axis > 0)
        return values

    def inverse(self, coeffs: np.ndarray, overwrite: bool = False) -> np.ndarray:
        for axis, factor in enumerate(self.factors):
            coeffs = factor.inverse(coeffs, axis, overwrite or axis > 0)
        return coeffs

    def phase(self, t: float) -> np.ndarray:
        return functools.reduce(np.multiply.outer, [f.phase(t) for f in self.factors])

    def propagate(self, values: np.ndarray, t: float) -> np.ndarray:
        """e^{itL} values: forward, the phase of t, and the inverse written
        into the forward's buffer; `values` is not written."""
        coeffs = self.forward(values)
        coeffs *= self.phase(t)
        return self.inverse(coeffs, overwrite=True)


def spectral_product(specs, grids) -> SpectralProduct:
    """The spectral form of the product flow of `specs` on `grids` (one
    spec per axis)."""
    return SpectralProduct(tuple(s.factor for s in _check_specs(specs, grids)))


def product_propagate(specs, u: Field | SeparableField, t: float) -> Field | SeparableField:
    """The product flow e^{itL} for any mix of factor kinds (one spec per
    axis; t may be negative), as SpectralProduct.propagate. A
    SeparableField stays factored: e^{itL}(f (x) g) is e^{itH} f (x)
    e^{itK} g, each factor flow a 1-factor product."""
    specs = _check_specs(specs, u.grids)
    if isinstance(u, SeparableField):
        return SeparableField(
            tuple(f.with_values(spectral_product([s], f.grids).propagate(f.values, t))
                  for s, f in zip(specs, u.factors))
        )
    return u.with_values(spectral_product(specs, u.grids).propagate(u.values, t))


def _require_two_particle_grid(u: Field) -> int:
    if u.rank != 2:
        raise ValueError("two-particle fields are rank 2")
    g0, g1 = u.grids
    if g0 != g1:
        raise ValueError("two-particle grids must be square (same grid on both axes)")
    if g0.kind != EUCLIDEAN:
        raise ValueError("two-particle grids must be euclidean tori")
    n = g0.n_points
    if n % 2 == 0:
        raise ValueError("two-particle grids must have odd point count")
    return n


def two_particle_rotate(u: Field, direction: str = "forward") -> Field:
    """Exact lattice change of variables (j,k) -> (j+k, j-k) mod N.

    A bijection on the (Z_N)^2 lattice exactly when N is odd (the map has
    determinant 2)."""
    n = _require_two_particle_grid(u)
    if direction == "forward":
        c = (n + 1) // 2  # inverse of 2 mod odd N
    elif direction == "inverse":
        c = 1
    else:
        raise ValueError("direction must be 'forward' or 'inverse'")
    # out[j, k] = values[c (j + k) mod N, c (j - k) mod N]
    j = np.arange(n)[:, np.newaxis]
    k = np.arange(n)
    flat = (c * (j + k)) % n * n + (c * (j - k)) % n
    return u.with_values(u.values.reshape(-1)[flat])


def two_particle_propagate(
    grid: Grid1D, potential: np.ndarray, u0: Field, t: float, steps: int
) -> Field:
    """Two-particle flow with interaction potential of the difference
    variable: rotate to sum/difference coordinates, split-step there with
    Laplacian coefficient 2 (the unnormalized rotation doubles the
    Laplacian) and the one-variable potential acting along the difference
    axis, rotate back.

    The potential phase is constant along the sum axis (axis 0), so it
    commutes with the FFT along that axis: the sum axis is transformed once
    per call, and each Strang step transforms the difference axis only,
    row by row in sum momentum. This is the 2-D Strang scheme with half of
    its transform work."""
    n = _require_two_particle_grid(u0)
    if u0.grids[0] != grid:
        raise ValueError("field grid does not match the given grid")
    v = np.asarray(potential, dtype=float)
    if v.shape != (n,):
        raise ValueError("potential samples must match the grid")
    if t < 0:
        raise ValueError("time must be nonnegative")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    w = two_particle_rotate(u0, "forward").values
    if t > 0:
        dt = t / steps
        half = np.exp(-0.5j * dt * v)[np.newaxis, :]
        xi2 = torus_frequencies(grid) ** 2
        # Kinetic symbol transported through the lattice map: the sum and
        # difference indices of a rotated mode carry the original
        # frequencies, and xi_s^2 + xi_d^2 = 2(xi_m^2 + xi_n^2) on
        # unwrapped modes -- the doubled Laplacian of the rotation,
        # realized without the index-halving aliasing of the raw symbol.
        # The n x n index arrays are temporaries, freed as they are read.
        idx = np.arange(n)
        mult2d = np.exp(
            -1j * dt * (xi2[(idx[:, None] + idx[None, :]) % n] + xi2[(idx[:, None] - idx[None, :]) % n])
        )
        workers = transform_workers(w)

        def kinetic(x):
            x = sfft.fft(x, axis=1, workers=workers, overwrite_x=True)
            x *= mult2d
            return sfft.ifft(x, axis=1, workers=workers, overwrite_x=True)

        # w is the read-only view of a Field: the first transform copies
        w = sfft.fft(w, axis=0, workers=workers)
        w = _strang(w, kinetic, half, steps)
        w = sfft.ifft(w, axis=0, workers=workers, overwrite_x=True)
    return two_particle_rotate(u0.with_values(w), "inverse")


def original_coordinates_reference(grid, potential: np.ndarray, u0: Field, t: float, steps: int) -> Field:
    """Reference two-particle solve in the original coordinates: 2-D Strang
    split-step with the sampled two-variable potential V(x - y). Each
    kinetic step runs in place on the Strang iterate, which `_strang`
    allocates, so the caller's values are never written."""
    n = grid.n_points
    idx = np.arange(n)
    xi = torus_frequencies(grid)
    dt = t / steps
    mult = np.exp(-1j * dt * (xi[:, None] ** 2 + xi[None, :] ** 2))
    # the half-phase of the samples V(x_j - y_k); the 2-D samples are freed
    # once it is built
    half = np.exp(-0.5j * dt * np.asarray(potential, dtype=float)[(idx[:, None] - idx[None, :]) % n])
    workers = transform_workers(u0.values)

    def kinetic(w):
        w = sfft.fft2(w, workers=workers, overwrite_x=True)
        w *= mult
        return sfft.ifft2(w, workers=workers, overwrite_x=True)

    return u0.with_values(_strang(u0.values, kinetic, half, steps))


def peak_centers(u: Field | SeparableField) -> tuple[float, ...]:
    """Physical coordinates of the modulus peak, one per axis (for a
    SeparableField, the peak of each factor)."""
    if isinstance(u, SeparableField):
        return tuple(peak_centers(f)[0] for f in u.factors)
    idx = np.unravel_index(np.argmax(np.abs(u.values)), u.values.shape)
    return tuple(float(g.nodes[i]) for g, i in zip(u.grids, idx))


def _boundary_mask(grid: Grid1D, center: float) -> np.ndarray:
    """Nodes within 5% of the boundary of one axis."""
    x = grid.nodes
    if grid.kind == EUCLIDEAN:
        d = np.abs(np.mod(x - center + grid.length / 2, grid.length) - grid.length / 2)
        return d > 0.45 * grid.length
    return x > 0.95 * grid.length


def _sum_last_axis(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_j values[..., j] weights[j], by einsum and not by a matrix
    product: a BLAS call wakes the OpenBLAS thread pool, whose threads then
    spin on the cores that the next transform's workers need."""
    return np.einsum("...j,j->...", values, weights)


def boundary_mass_fraction(u: Field | SeparableField, centers) -> float:
    """Fraction of L^2 mass within 5% of the domain boundary, boundary
    meaning the antipode of the given center on a torus axis and the
    truncation radius on a hyperbolic axis."""
    masks = [_boundary_mask(grid, centers[axis]) for axis, grid in enumerate(u.grids)]
    if isinstance(u, SeparableField):
        # the mask is a union of per-axis masks and the weighted density a
        # product, so the fraction is 1 - prod(1 - b_i) over the factors'
        # own fractions b_i; accumulating b_i + (1 - b_i) frac avoids the
        # cancellation of that form when the fractions are small
        frac = 0.0
        for f, m in zip(u.factors, masks):
            density = np.abs(f.values) ** 2 * f.grids[0].weights
            total = float(np.sum(density))
            if total == 0:
                return 0.0
            b = float(np.sum(density * m)) / total
            frac = b + (1.0 - b) * frac
        return frac
    # contract the weighted density one trailing axis at a time, carrying
    # the total and the boundary part of the mass over the axes done so
    # far: a point of the next axis inside its mask counts all of its mass
    # as boundary. Every sum has non-negative terms, so a tiny fraction
    # keeps its relative accuracy, and folding the weights in one axis at a
    # time keeps a product of sinh^2 weights from overflowing on large
    # radial grids.
    squared, w = _abs_squared(u.values), u.grids[-1].weights
    total, boundary = _sum_last_axis(squared, w), _sum_last_axis(squared, w * masks[-1])
    for grid, m in zip(reversed(u.grids[:-1]), reversed(masks[:-1])):
        boundary = _sum_last_axis(np.where(m, total, boundary), grid.weights)
        total = _sum_last_axis(total, grid.weights)
    if total == 0:
        return 0.0
    return float(boundary) / float(total)


"""Schrodinger factor flows in spectral form and their tensor composition.

Every factor kind is an operator diagonalised by a transform along its
grid axis (a SpectralFactor): the free torus factor by the FFT, the
free-plus-potential torus factor by its exact eigenbasis, and the radial
H^3 factor by a sine transform computed with one complex FFT per line
(see h3_factor). Every FFT is numpy.fft's, so the package needs no scipy.
On a product of factors `spectral_product` gives the flow as one forward
transform per axis, one phase and one inverse transform per axis;
`SpectralProduct.step` is that sweep with a given phase, the kinetic
step of the NLS split-step and of the two-particle oracle
(original_coordinates_reference). `fields._by_rows` sets the thread
count of every transform, run on groups of whole lines
(fields._by_lines), and of the phase and the wrap monitor's |u|^2, run
on its groups of whole rows. Every torus distance is the minimum image
of Grid1D.displacement. Each block of rows of the two-particle Strang
loop, one per core, runs with one-thread transforms and its own rows of
the kinetic phase (see two_particle_propagate).

Sign convention, fixed once for the whole package: the free factor flow is
the Fourier multiplier exp(-i t xi^2) on the discrete torus frequencies
xi = 2 pi k / L, i.e. exp(i t Laplacian). A potential factor is the flow
of -Laplacian + V, and a Strang potential substep carries phase
exp(-i V dt), so every substep is a modulus-1 multiplier and the schemes
are exactly unitary.
"""

from __future__ import annotations

import functools
import math
import weakref
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import fields
from .fields import (
    EUCLIDEAN,
    HYPERBOLIC,
    Field,
    Grid1D,
    SeparableField,
    _by_lines,
    _by_rows,
    _frozen,
    _squares_into,
    _sum_last_axis,
)
from .exponents import factor_rates, inverse_exponent

# the bottom of the spectrum of minus the Laplace-Beltrami operator on H^3
RHO_H3 = 1.0


@dataclass(frozen=True, eq=False)
class SpectralFactor:
    """A factor operator S on one grid axis in its exact spectral form: a
    transform along the axis that diagonalises S, the spectrum lam of S on
    the transform's dual lattice, and the inverse transform. The factor
    flow exp(-itS) is forward, the phase exp(-i t lam), inverse. With
    overwrite=True a transform may write into the array it is given: the
    free and H^3 factors transform a writable C-contiguous complex array
    in place, and only the potential factor, a matrix product, ignores the
    flag and returns a fresh array."""

    forward: Callable[..., np.ndarray]  # (values, axis, overwrite=False) -> coefficients
    inverse: Callable[..., np.ndarray]  # (coefficients, axis, overwrite=False) -> values
    lam: np.ndarray

    def phase(self, t: float) -> np.ndarray:
        # the linear artifacts stay byte-identical only in this evaluation order
        return np.exp(-1j * t * self.lam)


@dataclass(frozen=True)
class PotentialSpec:
    """Built-in real potential families; a finite amplitude >= 0 keeps the
    sign condition of the 1-D weighted class, and a finite width keeps V
    decaying. A refusal's message starts with the field it names."""

    family: str  # gaussian-bump | sech-squared
    amplitude: float = 1.0
    width: float = 1.0
    center: float = 0.0

    def __post_init__(self):
        if self.family not in ("gaussian-bump", "sech-squared"):
            raise ValueError(f"family {self.family!r} is not gaussian-bump or sech-squared")
        if not 0 <= self.amplitude < math.inf:
            raise ValueError(f"amplitude must be finite and >= 0 (sign condition V >= 0), got {self.amplitude}")
        if not 0 < self.width < math.inf:
            raise ValueError(f"width must be finite and > 0 (a decaying V), got {self.width}")

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """Analytic profile at signed distances x from the center. Far from
        the center d, d^2 or cosh(d)^2 overflows to inf, and the profile is
        then its exact float limit 0."""
        with np.errstate(over="ignore"):
            d = (np.asarray(x, dtype=float) - self.center) / self.width
            if self.family == "gaussian-bump":
                return self.amplitude * np.exp(-(d**2))
            return self.amplitude / np.cosh(d) ** 2

    def sample(self, grid: Grid1D) -> np.ndarray:
        """Sample on torus nodes, using the minimum-image distance to the
        center so the bump sits periodically on the torus."""
        return self.evaluate(grid.displacement(self.center) + self.center)


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
        """The exact spectral form of the factor kind, built on first use and
        freed with the spec: the Fourier basis (free), the potential
        eigenbasis (free-plus-potential) or the sine transform
        (hyperbolic-radial)."""
        if self.kind == "free":
            return _free_factor(self.grid)
        if self.kind == "free-plus-potential":
            return _potential_factor(self.grid, self.potential)
        return h3_factor(self.grid)

    def decay_rate(self, q) -> Fraction:
        """The large-time rate of the factor's L^q' -> L^q estimate, for
        2 <= q <= INF (see exponents.factor_rates): a torus factor, with
        or without its potential, is Euclidean of dimension 1, and the
        radial factor is H^3. A product's rate is the sum of its factors'
        rates."""
        return factor_rates(self.grid.kind, 3 if self.grid.kind == HYPERBOLIC else 1, inverse_exponent(q))[1]


def torus_frequencies(grid: Grid1D) -> np.ndarray:
    return 2.0 * np.pi * np.fft.fftfreq(grid.n_points, d=grid.spacing)


def _fft_along(transform):
    """`transform` (np.fft.fft or np.fft.ifft) along one axis, in place on
    _own(values, overwrite), one call per group of lines (see _by_lines)."""
    return lambda values, axis, overwrite=False: _by_lines(
        lambda lines: transform(lines, out=lines), _own(values, overwrite), axis
    )


def _free_factor(grid: Grid1D) -> SpectralFactor:
    """The free torus factor: FFT along the axis, spectrum xi^2."""
    return SpectralFactor(_fft_along(np.fft.fft), _fft_along(np.fft.ifft), torus_frequencies(grid) ** 2)


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
    # the real part of the inverse FFT of the real, even xi^2 is the real
    # half-spectrum of its forward FFT over n, mirrored: these are the bits
    # of a real-input inverse FFT
    half = np.fft.rfft(torus_frequencies(grid) ** 2, norm="forward").real
    column = np.concatenate((half, half[1 : (n + 1) // 2][::-1]))
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


def _own(values, overwrite: bool) -> np.ndarray:
    """The array a transform writes into: `values` itself when the caller
    lets it be overwritten and it is a writable C-contiguous complex array,
    and otherwise one C-ordered complex copy of it."""
    if overwrite and values.dtype == complex and values.flags.c_contiguous and values.flags.writeable:
        return values
    return np.array(values, dtype=complex, order="C")


# a sine transform works on a group of lines in two buffers of the group's
# size, and a numpy product on them adds a buffer of up to 8192 elements.
# A group of about this many points, and at most a sixteenth of the array,
# keeps the three near cache size and, on a 256 x 280 state, below a
# quarter of it (test_dense_product_allocation_budget); at 1024 x 1120,
# groups of 2**13 points read a third slower
_SINE_GROUP_POINTS = 2**15


def _sine_transforms(by_forward: np.ndarray, by_inverse: np.ndarray):
    """(dst, idst) along one axis of n points, each (x, axis) -> x in place
    on a writable complex x: dst is the unnormalised DST-II of
    by_forward * x, y_k = 2 sum_j by_j x_j sin(pi (k + 1)(2j + 1) / (2n)),
    and idst is by_inverse times its exact inverse (scipy's dst and idst of
    type 2). Each line takes one complex FFT of length n (Makhoul, IEEE
    Trans. ASSP 28, 1980): the even samples in order and the odd ones
    reversed and negated, the FFT V, and y_{n-1-k} = w_k V_k + conj(w_k)
    V_{n-k} with w_k = exp(-i pi k / (2n)) and V_n = V_0; the inverse
    undoes each step. The scalings ride on the gather and the scatter.

    A group of lines (see fields._by_lines) is read into two C-ordered
    buffers of its size and written back by copies: every product and sum
    runs on the buffers, where numpy's ufuncs need at most one buffer of
    their own, and a copy needs none."""
    n = len(by_forward)
    h = (n + 1) // 2
    w = np.exp(-0.5j * np.pi / n * np.arange(n))
    w_conj = w.conj()
    u = 0.5 * w_conj
    u_shift = -1j * u
    # the reordered scalings: the even samples, then the odd ones reversed
    # and negated
    gather = np.concatenate((by_forward[0::2], -by_forward[1::2][::-1]))
    scatter = np.concatenate((by_inverse[0::2], -by_inverse[1::2][::-1]))

    def dst_lines(lines):
        v, t = np.empty((2, *lines.shape), dtype=complex)
        np.copyto(v[..., :h], lines[..., 0::2])
        np.copyto(v[..., h:], lines[..., 1::2][..., ::-1])
        v *= gather
        np.fft.fft(v, out=v)
        # t_k = V_{n-k}
        np.copyto(t[..., 1:], v[..., :0:-1])
        np.copyto(t[..., 0], v[..., 0])
        t *= w_conj
        v *= w
        v += t
        np.copyto(lines, v[..., ::-1])

    def idst_lines(lines):
        # z_k = y_{n-1-k}; V_k = u_k (z_k - i z_{n-k}) with z_n = 0
        v, t = np.empty((2, *lines.shape), dtype=complex)
        np.copyto(v, lines[..., ::-1])
        np.copyto(t[..., 1:], lines[..., :-1])
        t[..., 0] = 0
        v *= u
        t *= u_shift
        v += t
        np.fft.ifft(v, out=v)
        v *= scatter
        np.copyto(lines[..., 0::2], v[..., :h])
        np.copyto(lines[..., 1::2][..., ::-1], v[..., h:])

    def group_points(x):
        return min(_SINE_GROUP_POINTS, x.size // 16)

    return (
        lambda x, axis: _by_lines(dst_lines, x, axis, group_points(x)),
        lambda x, axis: _by_lines(idst_lines, x, axis, group_points(x)),
    )


def h3_factor(grid: Grid1D) -> SpectralFactor:
    """The radial factor of 3-dimensional hyperbolic space in spectral form.

    For radial data on H^3 the spherical analysis collapses to a sine
    transform of the auxiliary function F(r) = sinh(r) f(r): on the
    cell-centered truncated grid this is exactly the type-II discrete sine
    transform, with the dual lattice lambda_k = k pi / r_max, k = 1..n. The
    spectrum is lambda^2 + rho^2 with rho = 1 (RHO_H3).

    The sine transform is scipy's unnormalised DST-II and its inverse,
    each line by one complex FFT of length n (Makhoul's algorithm; see
    _sine_transforms). The normalization of the pair is operational: the
    inverse is the exact inverse of the forward map. With the unnormalized
    type-II sine transform the weighted L^2 norm of f equals a weighted
    l^2 norm of its coefficients, with weight 4 pi dr / (2n) on every mode
    but the top one, which carries half of it.

    Both transforms run in place on _own(values, overwrite), so with
    overwrite=True they allocate no state-sized array: the sinh(r) scaling
    rides on the forward's gather and the 1 / sinh(r) scaling on the
    inverse's scatter, one group of lines at a time. The inverse multiplies
    by a precomputed 1 / sinh(r): the bits of a division by sinh(r), up to
    the sign of an exact zero, at about a third of its cost."""
    sinh_r = np.sinh(grid.nodes)
    dst, idst = _sine_transforms(sinh_r, 1.0 / sinh_r)
    dual_lattice = np.pi * np.arange(1, grid.n_points + 1) / grid.length
    return SpectralFactor(
        lambda values, axis, overwrite=False: dst(_own(values, overwrite), axis),
        lambda coeffs, axis, overwrite=False: idst(_own(coeffs, overwrite), axis),
        dual_lattice**2 + RHO_H3**2,
    )


def _strang(values: np.ndarray, kinetic_step, pointwise_step, steps: int) -> np.ndarray:
    """Strang splitting P(1/2) K (P(1) K)^(steps-1) P(1/2) on one C-ordered
    complex copy of `values`: K is `kinetic_step(x)` and P(s) the pointwise
    flow `pointwise_step(x, s)` over s steps, a group, so the two half steps
    between kinetic steps are one full step. Each may overwrite x."""
    out = pointwise_step(np.array(values, dtype=complex, order="C"), 0.5)
    for k in range(steps):
        out = kinetic_step(out)
        out = pointwise_step(out, 1.0 if k < steps - 1 else 0.5)
    return out


def _phase_step(half: np.ndarray):
    """The pointwise step of the potential phase `half` per half step, in place."""
    full = half * half
    return lambda x, s: np.multiply(x, half if s < 1 else full, out=x)


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
    `propagate` is e^{itL} u = inverse(forward(u) * phase(t)), and
    `propagate_coefficients` its last two steps. With
    overwrite=True the first transform may write its result into the array
    it is given, which the caller must then not read again; the result is
    the same. Every later transform may overwrite, since its input is the
    product's own array. The free and H^3 factors then run in place, so
    propagate_coefficients on such factors allocates one state, the buffer
    of coeffs times the phase that becomes its result."""

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

    def step(self, values: np.ndarray, phase: np.ndarray) -> np.ndarray:
        """inverse(forward(values) * phase), free to overwrite values: a Strang loop's kinetic step."""
        coeffs = self.forward(values, overwrite=True)
        coeffs *= phase
        return self.inverse(coeffs, overwrite=True)

    def propagate(self, values: np.ndarray, t: float) -> np.ndarray:
        """e^{itL} values; `values` is not written."""
        return self.propagate_coefficients(self.forward(values), t)

    def propagate_coefficients(self, coeffs: np.ndarray, t: float) -> np.ndarray:
        """e^{itL} of the state whose forward transform is `coeffs`: coeffs
        times the phase of t, and the inverse; `coeffs` is not written. Each
        row group (see fields._by_rows) builds its rows of the
        outer-product phase into the one output buffer, with the bits of
        phase(t), and multiplies coeffs into them. coeffs stays the first
        operand: numpy's complex multiply is not bitwise commutative."""
        first, *rest = [f.phase(t) for f in self.factors]
        out = np.empty(coeffs.shape, dtype=complex)

        def group(rows):
            o = out[rows]
            *lead, last = [first[rows], *rest]
            if lead:
                np.multiply.outer(functools.reduce(np.multiply.outer, lead), last, out=o)
            else:
                o[...] = last
            np.multiply(coeffs[rows], o, out=o)

        _by_rows(group, out)
        return self.inverse(out, overwrite=True)


def spectral_product(specs, grids) -> SpectralProduct:
    """The spectral form of the product flow of `specs` on `grids` (one
    spec per axis)."""
    return SpectralProduct(tuple(s.factor for s in _check_specs(specs, grids)))


# The forward coefficients of the Field that product_propagate transformed
# last: (weak reference to the Field, the flow's factors, the read-only
# coefficients). A Field's values never change, so the same Field under the
# same factors has the same coefficients. The slot is replaced by one
# assignment and never written, so concurrent callers at worst compute the
# same transform twice.
_last_forward = None


def _forward_coefficients(flow: SpectralProduct, u: Field) -> np.ndarray:
    global _last_forward
    slot = _last_forward
    if slot is not None and slot[0]() is u and slot[1] == flow.factors:
        return slot[2]
    # free the old coefficients before the new ones exist
    slot = _last_forward = None
    coeffs = _frozen(flow.forward(u.values))
    _last_forward = (weakref.ref(u), flow.factors, coeffs)
    return coeffs


def product_propagate(specs, u: Field | SeparableField, t: float) -> Field | SeparableField:
    """The product flow e^{itL} for any mix of factor kinds (one spec per
    axis; t may be negative), bit for bit SpectralProduct.propagate. It
    keeps the forward coefficients of the last Field it propagated, so a
    run that takes one datum to many times transforms it once; each time is
    then SpectralProduct.propagate_coefficients. A SeparableField stays
    factored: e^{itL}(f (x) g) is e^{itH} f (x)
    e^{itK} g, each factor flow a 1-factor product."""
    specs = _check_specs(specs, u.grids)
    if isinstance(u, SeparableField):
        return SeparableField(tuple(product_propagate([s], f, t) for s, f in zip(specs, u.factors)))
    flow = SpectralProduct(tuple(s.factor for s in specs))
    return u.with_values(_frozen(flow.propagate_coefficients(_forward_coefficients(flow, u), t)))


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


def _two_particle_inputs(potential: np.ndarray, u0: Field, t: float, steps: int) -> tuple[int, np.ndarray]:
    """(n, the potential's samples), once the inputs pass both two-particle routes' refusals."""
    n = _require_two_particle_grid(u0)
    v = np.asarray(potential, dtype=float)
    if v.shape != (n,):
        raise ValueError("potential samples must match the grid")
    if t < 0:
        raise ValueError("time must be nonnegative")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    return n, v


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
    return u.with_values(_frozen(u.values.reshape(-1)[flat]))


def two_particle_propagate(potential: np.ndarray, u0: Field, t: float, steps: int) -> Field:
    """Two-particle flow with interaction potential of the difference
    variable: rotate to sum/difference coordinates, split-step there with
    Laplacian coefficient 2 (the unnormalized rotation doubles the
    Laplacian) and the one-variable potential acting along the difference
    axis, rotate back.

    The potential phase is constant along the sum axis (axis 0), so it
    commutes with the FFT along that axis: the sum axis is transformed once
    per call, and each Strang step transforms the difference axis only,
    row by row in sum momentum. This is the 2-D Strang scheme with half of
    its transform work.

    Every Strang step then acts on each row by itself, so the whole loop
    runs on one contiguous block of rows per core (fields._in_blocks), each
    block with one-thread transforms and its own rows of the kinetic phase;
    a row is computed as on one thread, so the result does not depend on
    the block count."""
    n, v = _two_particle_inputs(potential, u0, t, steps)
    w = two_particle_rotate(u0, "forward").values
    if t > 0:
        dt = t / steps
        half = np.exp(-0.5j * dt * v)[np.newaxis, :]
        free = _free_factor(u0.grids[0])
        xi2 = free.lam
        idx = np.arange(n)
        # w is the read-only view of a Field: the first transform copies,
        # and each block writes its rows back into the copy
        w = free.forward(w, 0)

        def strang_rows(rows):
            # the whole loop on one block of sum momenta, on one thread, with
            # the block's rows of the kinetic symbol transported through the
            # lattice map: the sum and difference indices of a rotated mode
            # carry the original frequencies, and xi_s^2 + xi_d^2 =
            # 2(xi_m^2 + xi_n^2) on unwrapped modes -- the doubled Laplacian
            # of the rotation, without the index-halving aliasing of the raw
            # symbol. The index arrays are freed as they are read.
            j = idx[rows, np.newaxis]
            block_mult = np.exp(-1j * dt * (xi2[(j + idx) % n] + xi2[(j - idx) % n]))

            def kinetic(x):
                # one call each on this block's thread: a block may not
                # split its transforms again (see fields._in_blocks)
                np.fft.fft(x, out=x)
                x *= block_mult
                return np.fft.ifft(x, out=x)

            w[rows] = _strang(w[rows], kinetic, _phase_step(half), steps)

        fields._in_blocks(strang_rows, n, min(fields._cores(), n))
        w = free.inverse(w, 0, overwrite=True)
    return two_particle_rotate(u0.with_values(_frozen(w)), "inverse")


def original_coordinates_reference(potential: np.ndarray, u0: Field, t: float, steps: int) -> Field:
    """Reference two-particle solve in the original coordinates: 2-D
    Strang split-step with the sampled two-variable potential V(x - y),
    on the inputs two_particle_propagate takes. Its kinetic step is
    SpectralProduct.step of the free x free flow, on the iterate that
    `_strang` allocates: the caller's values are never written."""
    n, v = _two_particle_inputs(potential, u0, t, steps)
    idx = np.arange(n)
    flow = SpectralProduct((_free_factor(u0.grids[0]),) * 2)
    dt = t / steps
    kinetic = functools.partial(flow.step, phase=flow.phase(dt))
    # the half-phase of the samples V(x_j - y_k); the 2-D samples are freed
    # once it is built
    half = np.exp(-0.5j * dt * v[(idx[:, None] - idx[None, :]) % n])
    return u0.with_values(_frozen(_strang(u0.values, kinetic, _phase_step(half), steps)))


def peak_centers(u: Field | SeparableField) -> tuple[float, ...]:
    """Physical coordinates of the modulus peak, one per axis (for a
    SeparableField, the peak of each factor)."""
    if isinstance(u, SeparableField):
        return tuple(peak_centers(f)[0] for f in u.factors)
    idx = np.unravel_index(np.argmax(np.abs(u.values)), u.values.shape)
    return tuple(float(g.nodes[i]) for g, i in zip(u.grids, idx))


def _boundary_mask(grid: Grid1D, center: float) -> np.ndarray:
    """Nodes within 5% of the boundary of one axis."""
    if grid.kind == EUCLIDEAN:
        return np.abs(grid.displacement(center)) > 0.45 * grid.length
    return grid.nodes > 0.95 * grid.length


def boundary_mass_fraction(u: Field | SeparableField, centers) -> float:
    """Fraction of L^2 mass within 5% of the domain boundary, boundary
    meaning the antipode of the given center on a torus axis and the
    truncation radius on a hyperbolic axis."""
    if isinstance(u, SeparableField):
        # the mask is a union of per-axis masks and the weighted density a
        # product, so the fraction is 1 - prod(1 - b_i) over the factors'
        # own fractions b_i; accumulating b_i + (1 - b_i) frac avoids the
        # cancellation of that form when the fractions are small. A zero
        # factor makes the state zero, whose fraction is 0 as a dense one's
        frac = 0.0
        for f, center in zip(u.factors, centers, strict=True):
            b = boundary_mass_fraction(f, (center,))
            frac = b + (1.0 - b) * frac
        return frac if all(f.values.any() for f in u.factors) else 0.0
    masks = [_boundary_mask(grid, centers[axis]) for axis, grid in enumerate(u.grids)]
    # contract the weighted density one trailing axis at a time, carrying
    # the total and the boundary part of the mass over the axes done so
    # far: a point of the next axis inside its mask counts all of its mass
    # as boundary. Every sum has non-negative terms, so a tiny fraction
    # keeps its relative accuracy, and folding the weights in one axis at a
    # time keeps a product of sinh^2 weights from overflowing on large
    # radial grids. The first contraction runs in row groups of the values
    # as rows of their last axis (see fields._by_rows): |u|^2 of a group
    # feeds both row sums.
    values = u.values.reshape(-1, u.values.shape[-1])
    w = u.grids[-1].weights
    w_boundary = w * masks[-1]
    total, boundary = np.empty(len(values)), np.empty(len(values))

    def group(rows):
        squared = np.empty(values[rows].shape)
        _squares_into(values[rows], squared)
        total[rows] = _sum_last_axis(squared, w)
        boundary[rows] = _sum_last_axis(squared, w_boundary)

    _by_rows(group, values)
    total, boundary = total.reshape(u.values.shape[:-1]), boundary.reshape(u.values.shape[:-1])
    for grid, m in zip(reversed(u.grids[:-1]), reversed(masks[:-1])):
        boundary = _sum_last_axis(np.where(m, total, boundary), grid.weights)
        total = _sum_last_axis(total, grid.weights)
    if total == 0:
        return 0.0
    return float(boundary) / float(total)


"""Grids, complex fields on products of grids, and Lebesgue norms.

A Grid1D is one factor of the product domain: either a periodic torus
segment of the real line, or the truncated radial half-line of the
3-dimensional hyperbolic space carried with its sinh^2 surface measure.
Fields are immutable (grids, values) pairs, and a SeparableField keeps a
rank-1 product state as its 1-D factors. The values of a Field are
read-only down to their memory, so they never change, and an array that
anyone may still write is copied once. Norms are quadrature weighted so
that a sampled function's norm approximates the continuum one.

The thread rule of the package lives here, in its lowest module, in
`_by_rows`, the one group walk. It runs a step once per group of whole
rows (the finiteness check of a Field and the L^r norms here; the
spectral phase and the wrap monitor in propagators), so each temporary
is group-sized, and from 2^18 points up it splits the groups over every
core (`_cores`); `_by_lines` runs every transform on its groups of whole
lines. A finite norm and the wrap monitor sum over the product measure
one axis at a time with _sum_last_axis, the package's one weighted-sum
rule. `_in_blocks` runs contiguous blocks, one on the calling thread and
the others on one pool: the runs of whole groups of `_by_rows`, one per
thread, and the row blocks of the two-particle Strang loop, one per core
at any size, since each of its blocks carries a whole loop.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

EUCLIDEAN = "euclidean-torus"
HYPERBOLIC = "hyperbolic-radial"

_MIN_POINTS = 8

# _by_rows calls its step on groups of whole rows of about this many
# points, so a step's temporary stays near cache size and not state-sized
# (a 4.6 MB block at 1024 x 1120); 2**14 read slower
_GROUP_POINTS = 2**16

# arrays below this many points are transformed on one thread, and every
# row group of their pointwise steps runs on the calling thread: there two
# transform workers gained little or lost (0.95-1.24x at 243^2 and 256^2
# on 2 cores), and the NLS routes on such grids already run a second thread.
# From here up each core runs a pointwise step on its run of row groups.
# The gate prices one pass over an array; the two-particle Strang loop,
# whose blocks each carry a whole loop, is split at every size
_THREAD_MIN_POINTS = 2**18


def _cores() -> int:
    """The number of cores the process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# the threads that run every row block but the first, which runs on the
# calling thread; the pool starts them on first use
_ROW_POOL = ThreadPoolExecutor(max_workers=max(_cores() - 1, 1), thread_name_prefix="dispersia-rows")


def _in_blocks(fn, n: int, blocks: int) -> list:
    """[fn(rows) for each of `blocks` contiguous slices of range(n)], in row
    order: block 0 runs on the calling thread and blocks 1... on _ROW_POOL.
    An exception raised in a block re-raises here once every block has
    ended. fn never calls _in_blocks (nor _by_rows): with no nesting the
    bounded pool cannot deadlock."""
    edges = [n * k // blocks for k in range(blocks + 1)]
    rest = [_ROW_POOL.submit(fn, slice(a, b)) for a, b in zip(edges[1:], edges[2:])]
    try:
        first = fn(slice(edges[0], edges[1]))
    finally:
        wait(rest)
    return [first] + [f.result() for f in rest]


def _by_rows(fn, values: np.ndarray, points: int | None = None) -> list:
    """[fn(rows) for each group of rows], in row order: `rows` slices a
    group of whole rows (axis 0) of values, at least one row and at most
    about `points` points (default _GROUP_POINTS). Below _THREAD_MIN_POINTS
    every group runs on this thread; from there up _in_blocks runs one
    contiguous run of whole groups per core (_cores), at most one per
    group. A step that is elementwise, a reduction per row, a max or an
    all gives the same bits for any grouping and thread count: the finite
    L^r norms and the wrap monitor walk the values as rows of their last
    axis, each group summing its rows with _sum_last_axis."""
    n = len(values)
    step = max(1, (_GROUP_POINTS if points is None else points) * n // max(values.size, 1))
    groups = [slice(i, min(i + step, n)) for i in range(0, n, step)]

    def run(span):
        return [fn(rows) for rows in groups[span]]

    if values.size < _THREAD_MIN_POINTS:
        return run(slice(None))
    blocks = _in_blocks(run, len(groups), min(_cores(), len(groups)))
    return [result for block in blocks for result in block]


def _by_lines(fn, values: np.ndarray, axis: int, points: int | None = None) -> np.ndarray:
    """fn(lines) on groups of whole lines of values along `axis`, and then
    values: each `lines` is a view of values with the lines on its last
    axis, and the groups are _by_rows's groups of the axes before it, of
    about `points` points, threaded as _by_rows's are; a 1-D array is one
    group of one line. Every transform runs here, one 1-D transform per
    line, each computed as on one thread, so its bits do not depend on the
    grouping or the thread count."""
    lines = np.atleast_2d(np.moveaxis(values, axis, -1))
    _by_rows(lambda rows: fn(lines[rows]), lines, points)
    return values


@dataclass(frozen=True)
class Grid1D:
    """One factor of the product domain: n_points nodes on a finite
    length > 0, which H^3 calls r_max."""

    n_points: int
    length: float
    kind: str = EUCLIDEAN

    def __post_init__(self):
        if self.kind not in (EUCLIDEAN, HYPERBOLIC):
            raise ValueError(f"unknown grid kind {self.kind!r}")
        if self.n_points < _MIN_POINTS:
            raise ValueError(f"n_points must be >= {_MIN_POINTS}, got {self.n_points}")
        if not 0 < self.length < math.inf:
            name = "r_max" if self.kind == HYPERBOLIC else "length"
            raise ValueError(f"{name} must be finite and > 0, got {self.length}")
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

    def displacement(self, center: float) -> np.ndarray:
        """Signed distance of each node from `center`, the minimum image on a torus."""
        if self.kind == EUCLIDEAN:
            return np.mod(self.nodes - center + self.length / 2, self.length) - self.length / 2
        return self.nodes - center


def make_grid(n_points: int, length: float, kind: str = EUCLIDEAN) -> Grid1D:
    return Grid1D(n_points=int(n_points), length=float(length), kind=kind)


def _frozen(a: np.ndarray) -> np.ndarray:
    """Mark a freshly built array, and every array it views, read-only, and
    return it: a Field then keeps it without a copy. Only for
    arrays that no one else holds a writable reference to."""
    b = a
    while isinstance(b, np.ndarray):
        b.flags.writeable = False
        b = b.base
    return a


def _frozen_to_memory(a: np.ndarray) -> bool:
    """Whether no one can write a's values: a and every array in its .base
    chain are read-only, and the chain ends in no base or in bytes."""
    while isinstance(a, np.ndarray):
        if a.flags.writeable:
            return False
        a = a.base
    return a is None or isinstance(a, bytes)


def _all_finite(values: np.ndarray) -> bool:
    """Whether every value of a complex array is finite, in row groups
    (see _by_rows); where the last axis is contiguous, on the (re, im)
    float view, whose isfinite is vectorised (twice as fast at 256^2)."""

    def group(rows):
        part = values[rows]
        if part.strides[-1] == part.itemsize:
            part = part.view(part.real.dtype)
        return np.isfinite(part).all()

    return all(_by_rows(group, values))


def _immutable(values, shape: tuple) -> np.ndarray:
    """`values` as a complex array that never changes, once it is checked
    finite and of `shape` (that of the grids): an array that is read-only
    down to its memory (see _frozen) is kept as it is, and any other array
    is copied once and the copy made read-only."""
    vals = np.asarray(values, dtype=complex)
    if vals.shape != shape:
        raise ValueError(f"values shape {vals.shape} does not match grids {shape}")
    if not _all_finite(vals):
        raise ValueError("field values must be finite")
    if vals is not values and vals.base is None:
        # asarray converted the input: the result is already a private copy
        vals.flags.writeable = False
    elif not _frozen_to_memory(vals):
        vals = _frozen(vals.copy())
    return vals


@dataclass(frozen=True)
class Field:
    """A state on the product of `grids`. Its values never change (see
    _immutable)."""

    grids: tuple[Grid1D, ...]
    values: np.ndarray

    def __post_init__(self):
        grids = tuple(self.grids)
        object.__setattr__(self, "grids", grids)
        if not 1 <= len(grids) <= 3:
            raise ValueError("Field supports rank 1 to 3")
        vals = _immutable(self.values, tuple(g.n_points for g in grids))
        object.__setattr__(self, "values", vals)

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


def _sum_last_axis(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_j values[..., j] weights[j], the package's one weighted sum: by
    einsum and not by a matrix product, since a BLAS call wakes the
    OpenBLAS thread pool, whose threads then spin on the cores that the
    next transform's workers need. It builds no temporary."""
    return np.einsum("...j,j->...", values, weights)


def _squares_into(values: np.ndarray, out: np.ndarray):
    """out = re^2 + im^2 of complex values, in one square of their (re, im)
    pairs and one add: the square root of np.abs is never taken. For a
    caller that holds a row group; values that are not C-contiguous are
    copied first, since the view needs it."""
    sq = np.square(np.ascontiguousarray(values).reshape(-1).view(out.dtype).reshape(-1, 2))
    np.add(sq[:, 0], sq[:, 1], out=out.reshape(-1))


def _lp_exponent(r) -> float:
    """Coerce a norm exponent (number or Fraction, math.inf included) to a
    float >= 1; NaN is refused too."""
    rv = float(r)
    if not rv >= 1:
        raise ValueError(f"L^r norm needs r >= 1, got {r}")
    return rv


def _sup(values: np.ndarray) -> float:
    """max |u|, in row groups (see _by_rows); np.max of the group maxima
    propagates a NaN, where Python's max drops one that comes first."""
    return float(np.max(_by_rows(lambda rows: np.abs(values[rows]).max(), values)))


def values_lp_norms(values: np.ndarray, grids, exponents) -> list[float]:
    """lp_norm of a bare values array on the product of `grids`, one per
    exponent. A finite norm is an iterated sum (Fubini): the values, as
    rows of their last axis, are walked once in row groups (see _by_rows),
    and each group sums |u|^r against the last grid's weights for every
    finite r; the row sums are then summed against each earlier grid's
    weights, the last of them first, and one r-th root is taken at the end.
    For r >= 2, |u|^r is (|u|^2)^(r/2) from one |u|^2 per group: no square
    root, no pow at r = 2 and one square at r = 4. Below 2 it is taken from
    |u|, whose square could overflow where |u|^r does not."""
    rs = [_lp_exponent(r) for r in exponents]
    finite = [(k, rv) for k, rv in enumerate(rs) if rv < math.inf]
    values = np.asarray(values, dtype=complex)
    rows = values.reshape(-1, values.shape[-1])
    weights = grids[-1].weights
    sums = np.zeros((len(rs), len(rows)))

    def group(part):
        if any(rv >= 2 for _, rv in finite):
            squared = np.empty(rows[part].shape)
            _squares_into(rows[part], squared)
        if any(rv < 2 for _, rv in finite):
            modulus = np.abs(rows[part])
        for k, rv in finite:
            if rv < 2:
                power = modulus**rv
            else:
                power = squared if rv == 2 else np.square(squared) if rv == 4 else squared ** (rv / 2)
            sums[k, part] = _sum_last_axis(power, weights)

    if finite:
        _by_rows(group, rows)
    acc = sums.reshape(len(rs), *values.shape[:-1])
    for grid in reversed(grids[:-1]):
        acc = _sum_last_axis(acc, grid.weights)
    return [_sup(values) if math.isinf(rv) else float(total) ** (1.0 / rv) for rv, total in zip(rs, acc)]


def values_lp_norm(values: np.ndarray, grids, r) -> float:
    """lp_norm of a bare values array on the product of `grids`."""
    return values_lp_norms(values, grids, (r,))[0]


def lp_norm(u: Field | SeparableField, r) -> float:
    """Quadrature-weighted L^r norm over the whole product domain; for a
    SeparableField, the product of its factor norms."""
    if isinstance(u, SeparableField):
        return math.prod(lp_norm(f, r) for f in u.factors)
    return values_lp_norm(u.values, u.grids, r)


def gaussian_field(grid: Grid1D, width: float = 1.0, center: float | None = None) -> Field:
    """Gaussian bump exp(-(x-center)^2 / (2 width^2)), torus-centered by
    default. Where a square or the quotient overflows, the bump takes its
    exact float limit 0. A width whose 2 width^2 is not a positive finite
    float, and a bump that is 0 at every node, too narrow to reach one or
    centred too far from the grid, are ValueErrors."""
    if center is None:
        center = grid.length / 2 if grid.kind == EUCLIDEAN else grid.length / 8
    d = grid.displacement(center)
    with np.errstate(over="ignore"):
        scale = 2.0 * np.float64(width) ** 2
        if not 0 < scale < math.inf:
            raise ValueError(f"width = {width} gives 2 width^2 = {scale}, not a positive finite float")
        values = np.exp(-(d**2) / scale)
    if not values.max() > 0:
        raise ValueError(f"width = {width} and center = {center} give a Gaussian that is 0 at every node")
    return Field((grid,), _frozen(values))

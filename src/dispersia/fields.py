"""Grids, complex fields on products of grids, and Lebesgue norms.

A Grid1D is one factor of the product domain: either a periodic torus
segment of the real line, or the truncated radial half-line of the
3-dimensional hyperbolic space carried with its sinh^2 surface measure.
Fields are immutable (grids, values) pairs, and a SeparableField keeps a
rank-1 product state as its 1-D factors. The values of a Field are
read-only down to their memory, so they never change, and an array that
anyone may still write is copied once. Norms are quadrature weighted so
that a sampled function's norm approximates the continuum one.

The thread rule of the package lives here, in its lowest module:
`transform_workers` is the thread count of every transform and of the
state-sized pointwise steps that `_by_rows` runs once per block of rows
(the finiteness check of a Field, |u|^2 and the sup norm here; the
spectral phase, the H^3 sinh scalings and the wrap monitor in
propagators). `_in_blocks` runs contiguous row blocks, one on the calling
thread and the others on one pool: the blocks of `_by_rows`, and those of
the two-particle Strang loop, one per core at any size, since each of its
blocks carries a whole loop.
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

# |u|^2 squares this many (re, im) pairs at a time: the 256 KB temporary
# stays in cache, where one temporary the size of a 1024 x 1120 array made
# the dense wrap monitor slower than two strided passes
_SQUARE_CHUNK = 2**14

# the sup norm and the wrap monitor walk a row block in groups of this many
# points, not in one 4.6 MB temporary at 1024 x 1120; 2**14 read slower
_GROUP_POINTS = 2**16

# arrays below this many points are transformed on one thread, and each of
# their pointwise steps is one whole-array call (see _by_rows): there two
# transform workers gained little or lost (0.95-1.24x at 243^2 and 256^2
# on 2 cores), and the NLS routes on such grids already run a second thread.
# From here up a pointwise step is one call per core, on its block of rows.
# The gate prices one pass over an array; the two-particle Strang loop,
# whose blocks each carry a whole loop, is split at every size
_THREAD_MIN_POINTS = 2**18


def _cores() -> int:
    """The number of cores the process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def transform_workers(values: np.ndarray) -> int:
    """The thread count of a state-sized step on `values`: the `workers` of
    a scipy.fft call, and the block count of _by_rows. Every core the
    process may run on from 2**18 points up, one below that. The threads
    split the batch of 1-D transforms, or the rows of a pointwise step,
    each computed as on one thread, so the result does not depend on the
    count."""
    if values.size < _THREAD_MIN_POINTS:
        return 1
    return _cores()


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


def _by_rows(fn, values: np.ndarray) -> list:
    """[fn(rows) for each block of rows]. Below _THREAD_MIN_POINTS it is
    [fn(...)], one call on the whole array on this thread. From there up
    `rows` slices one contiguous block of values' rows (axis 0) per
    transform_workers(values) thread, and _in_blocks calls fn once on each.
    A step that is elementwise, a reduction per row, a max or an all gives
    the same bits for any block count."""
    if values.size < _THREAD_MIN_POINTS:
        return [fn(...)]
    n = len(values)
    return _in_blocks(fn, n, min(transform_workers(values), n))


def _row_groups(values: np.ndarray) -> list:
    """Consecutive slices of values' rows (axis 0), each of at least one
    row and at most about _GROUP_POINTS points."""
    step = max(1, _GROUP_POINTS * len(values) // values.size)
    return [slice(i, i + step) for i in range(0, len(values), step)]


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


def make_grid(n_points: int, length: float, kind: str = EUCLIDEAN) -> Grid1D:
    return Grid1D(n_points=int(n_points), length=float(length), kind=kind)


def _axis_shape(values: np.ndarray, axis: int, arr: np.ndarray) -> np.ndarray:
    """A 1-D array reshaped to broadcast along one axis of values."""
    shape = [1] * values.ndim
    shape[axis] = arr.shape[0]
    return arr.reshape(shape)


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
    """Whether every value of a complex array is finite, in row blocks
    (see _by_rows); where the last axis is contiguous, on the (re, im)
    float view, whose isfinite is vectorised (twice as fast at 256^2)."""

    def block(rows):
        part = values[rows]
        if part.strides[-1] == part.itemsize:
            part = part.view(part.real.dtype)
        return np.isfinite(part).all()

    return all(_by_rows(block, values))


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


def _abs_squared(values: np.ndarray) -> np.ndarray:
    """|u|^2 as re^2 + im^2: the square root of np.abs is never taken. A
    complex array is squared over its (re, im) float view, in row blocks
    (see _by_rows), and each pair is added, _SQUARE_CHUNK pairs at a time;
    input that is not C-contiguous is copied first, since the view needs
    it."""
    if not np.iscomplexobj(values):
        return np.square(values)
    src = np.ascontiguousarray(values)
    out = np.empty(values.shape, dtype=values.real.dtype)
    _by_rows(lambda rows: _squares_into(src[rows], out[rows]), src)
    return out


def _squares_into(values: np.ndarray, out: np.ndarray):
    """out = re^2 + im^2 of C-contiguous complex values, _SQUARE_CHUNK
    pairs at a time; for a caller that already holds a block of rows."""
    pairs = values.reshape(-1).view(out.dtype).reshape(-1, 2)
    flat = out.reshape(-1)
    for start in range(0, len(flat), _SQUARE_CHUNK):
        sq = np.square(pairs[start : start + _SQUARE_CHUNK])
        np.add(sq[:, 0], sq[:, 1], out=flat[start : start + _SQUARE_CHUNK])


def _weighted_axis_norm(
    values: np.ndarray, weights: np.ndarray, r: float, axis: int, squared: np.ndarray | None = None
) -> np.ndarray:
    """L^r norm along one axis, for finite r. For r >= 2 the summand |u|^r
    is (|u|^2)^(r/2), from `squared` (|values|^2) when the caller has it:
    no square root, no pow at r = 2 and one square at r = 4. For r < 2 it
    is taken from |u|, whose square could overflow where |u|^r does not."""
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


def _sup(values: np.ndarray) -> float:
    """max |u|, in row blocks (see _by_rows) walked in _row_groups; a NaN
    propagates."""
    maxima = _by_rows(lambda rows: [np.abs(values[rows][g]).max() for g in _row_groups(values[rows])], values)
    return float(np.max(np.concatenate(maxima)))


def values_lp_norms(values: np.ndarray, grids, exponents) -> list[float]:
    """lp_norm of a bare values array on the product of `grids`, one per
    exponent; |u|^2 is formed once for all the finite exponents >= 2."""
    rs = [_lp_exponent(r) for r in exponents]
    squared = _abs_squared(values) if any(2 <= rv < math.inf for rv in rs) else None
    last = len(grids) - 1
    out = []
    for rv in rs:
        if math.isinf(rv):
            out.append(_sup(values))
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


def gaussian_field(grid: Grid1D, width: float = 1.0, center: float | None = None) -> Field:
    """Gaussian bump exp(-(x-center)^2 / (2 width^2)), torus-centered by default."""
    if center is None:
        center = grid.length / 2 if grid.kind == EUCLIDEAN else grid.length / 8
    x = grid.nodes
    if grid.kind == EUCLIDEAN:
        d = np.mod(x - center + grid.length / 2, grid.length) - grid.length / 2
    else:
        d = x - center
    return Field((grid,), _frozen(np.exp(-(d**2) / (2.0 * width**2))))

"""Finite metric spaces: validation, deterministic builders, subspaces, gluing.

A space is an immutable labeled point set with a symmetric distance matrix:
finite, zero on the diagonal, positive between distinct points, and obeying
the triangle inequality. A matrix is checked once, where it comes in from
outside the package: `validate_metric`, the space JSON readers and a direct
`FiniteMetricSpace(labels, dist)` run the O(n^2) checks (finite, zero
diagonal, nonnegative, symmetric, positive between distinct points) and then
the O(n^3) triangle scan (`qhm._kernels.triangle_scan`). From SCREEN_MIN
points on the scan screens the pairs in exact 16-bit integers on up to four
threads, one per CPU of the process's affinity: L = floor(d 2^e) with the
largest entry in [2^14, 2^15), a uint16 copy of 2 n^2 bytes. A pair is
certified when every L(i,k) + L(k,j) exceeds L(i,j); since
L <= d 2^e < L + 1, its float64 deficit is then exactly 0. The open pairs
are recomputed in float64, and the result is that of the exact slab loop
bit for bit.

The builders check their parameters, which are their outside input, and
not their output: each one makes a matrix that passes every check by
construction, and wraps it through `_trusted`, which runs no check. Every
count and seed of the package goes through `_count`: a Python or numpy
integer in [least, 2^63), and a typed error for anything else. Every real
scalar goes through `_real`: a Python or numpy real number, not a boolean,
that converts to a finite float. Every sequence (labels, indices, sizes,
chains) goes through `_items`, so that a scalar in its place raises a typed
error too, and every list of point indices through `_selection`. Every
file goes through `_open`, which takes a str or os.PathLike path and
nothing else, and every JSON file through `_read_json`. A space, measure,
classification or GlueSpec argument is checked with one isinstance
(`_instance`) where it is first read, so that a number or an array in its
place raises InvalidInputError, not AttributeError.

- `interval_grid` and `regular_polygon_arc` take |i - j| (or the shorter
  way round the circle) times a step h, finite and positive, whose low
  mantissa bits are cleared: every entry is an exact multiple of h, so the
  matrix is exactly symmetric with a zero diagonal, positive off it, and
  the triangle inequality holds exactly. The grid's largest entry,
  (n - 1) h, is at most (b - a)(1 + 2^-53), a finite double when h is;
- `random_metric` draws the upper triangle from [1, 2] and mirrors it, with
  zeros on the diagonal: any two entries sum to at least the largest;
- `glue` copies two spaces' blocks and sets every cross distance to c,
  finite and positive with 2c >= both diameters (checked exactly by
  `GlueSpec`);
- `euclidean_cloud` (and the ball builders on top of it) rejects
  non-finite coordinates, a distance that overflows and points within
  1e-12 of the diameter of each other, and sets the diagonal to 0. Entry
  (j, i) sums the squares of the negated differences of entry (i, j) in the
  same order, so the two are equal bit for bit. Distances of points in R^k
  satisfy the triangle inequality up to a few ulps of the diameter, far
  inside the default tolerance;
- `subspace` restricts an already checked matrix.

Tests check these outputs for exact symmetry and scan them for a deficit
within each builder's own bound (zero for the exact ones, 1e-12 of the
diameter for the clouds), besides validating them at the default tolerance.

Construction and the O(n^2) checks run at memory speed, a few contiguous
passes over the n x n matrix whose temporaries, allocated by numpy, hold at
most TRIANGLE_TILE entries each (on a matrix that passes without repair;
see below):

- `euclidean_cloud` fills row blocks of the result one coordinate at a time,
  in the summation order of numpy's own reduction, so its distances are bit
  for bit those of the one-array formula; it reads the largest and the
  smallest off-diagonal distance from each block while it is in cache;
- the checks read finiteness, negativity and scale from one min and one max,
  and asymmetry and zero distances from one pass over square tiles of the
  upper triangle against the transposed tiles below it. Repairing a small
  asymmetry builds the averaged n x n matrix and rereads its zeros, and an
  error recomputes its (i, j) from the whole matrix; both allocate n x n;
- the checks run in place on a fresh float64 array of their own:
  `validate_metric` and a direct construction copy the caller's matrix, so
  a caller's array is never aliased nor made read-only; the JSON readers
  convert the parsed rows into their own array and drop the rows and the
  text (when they read the file) before the checks and the scan, which run
  on that array without a second copy;
- `subspace` of every point in order shares the parent's read-only matrix.
"""

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from ._kernels import TRIANGLE_TILE, triangle_scan
from .errors import (
    CrossDistanceTooSmallError,
    DegenerateIntervalError,
    DuplicateIndexError,
    DuplicatePointError,
    EmptySelectionError,
    IndexOutOfRangeError,
    InvalidInputError,
    MalformedMatrixError,
    NegativeEntryError,
    NonSquareError,
    NonzeroDiagonalError,
    ParseError,
    TooFewPointsError,
    TriangleViolationError,
    AsymmetryExceedsToleranceError,
    ValidationError,
)
from .tolerances import DUPLICATE_POINT_REL, TRIANGLE_TOL_REL


@dataclass(frozen=True, eq=False)
class FiniteMetricSpace:
    """n labeled points with a symmetric distance matrix (shared length unit).

    Constructing a space checks its matrix and labels as
    `validate_metric(dist, labels, name=name)` does, with the same errors,
    and keeps a checked read-only copy: the caller's array is neither
    aliased nor made read-only. The builders, `validate_metric`, the JSON
    readers and `subspace` make their spaces through `_trusted`, which runs
    no check."""

    labels: tuple[str, ...]
    dist: np.ndarray
    name: str = ""

    def __post_init__(self):
        checked = validate_metric(self.dist, self.labels, name=self.name)
        self.__dict__.update(labels=checked.labels, dist=checked.dist)

    @property
    def n(self) -> int:
        return self.dist.shape[0]

    def __repr__(self):
        return f"FiniteMetricSpace(n={self.n}, name={self.name!r})"


@dataclass(frozen=True)
class GlueSpec:
    """Two component spaces joined by a single cross-distance c.

    The glued matrix is a metric iff 2c covers both component diameters.
    """

    x: FiniteMetricSpace
    y: FiniteMetricSpace
    c: float

    def __post_init__(self):
        what = "cross-distance must be positive and finite"
        c = _real(self.c, what, CrossDistanceTooSmallError)
        if c <= 0.0:
            raise CrossDistanceTooSmallError(f"{what}, got {self.c!r}")
        bound = max(diameter(self.x), diameter(self.y))
        if 2.0 * c < bound:
            raise CrossDistanceTooSmallError(
                f"2c = {2.0 * c} is below the larger component diameter "
                f"{bound}; the glued matrix would not be a metric")


def _checked_matrix(d):
    """The O(n^2) checks of an untrusted matrix, shared by `validate_metric`
    and the JSON readers: a finite square matrix with zero diagonal,
    nonnegative and symmetric entries, positive between distinct points.
    Returns the symmetrized matrix and the absolute triangle and symmetry
    tolerance, TRIANGLE_TOL_REL times the largest entry.

    `d` is a fresh float64 array that the caller hands over (`_float_array`
    of the input): it is checked in place. The checks read one min, one max
    and one tiled pass over the upper triangle (`_asymmetry`). Only the
    asymmetry repair and the error paths allocate n x n: the averaged
    matrix, or the detail of an error."""
    if d.ndim != 2 or d.shape[0] != d.shape[1] or d.shape[0] == 0:
        raise NonSquareError(f"expected a nonempty square matrix, got shape {d.shape}")
    n = d.shape[0]
    lo, hi = float(d.min()), float(d.max())  # a NaN entry makes both NaN
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValidationError("matrix contains non-finite entries")
    if np.diagonal(d).any():
        i = int(np.flatnonzero(np.diagonal(d))[0])
        raise NonzeroDiagonalError(f"diagonal entry ({i},{i}) = {d[i, i]} must be 0")
    if lo < 0.0:
        i, j = np.unravel_index(int(np.argmin(d)), d.shape)
        raise NegativeEntryError(f"entry ({i},{j}) = {d[i, j]} is negative")

    tol = TRIANGLE_TOL_REL * hi  # 0 on one point, whose entry is 0

    worst_asym, zero_off_diagonal = _asymmetry(d)
    if worst_asym > tol:
        asym = np.abs(d - d.T)
        i, j = np.unravel_index(int(np.argmax(asym)), asym.shape)
        raise AsymmetryExceedsToleranceError(
            f"entries ({i},{j}) and ({j},{i}) differ by {worst_asym} > {tol}")
    if worst_asym > 0.0:
        d = (d + d.T) / 2.0
        zero_off_diagonal = np.count_nonzero(d <= 0.0) > n

    if zero_off_diagonal:
        i, j = _closest_pair(d)
        raise ValidationError(
            f"distance ({i},{j}) between distinct points must be positive")
    return d, tol


# Side of the square tiles of the asymmetry pass: TRIANGLE_TILE entries each.
ASYMMETRY_SIDE = math.isqrt(TRIANGLE_TILE)


def _asymmetry(d):
    """max |d(i,j) - d(j,i)| of a finite nonnegative square matrix with zero
    diagonal, and whether the tiles on and above the diagonal hold a zero off
    the diagonal (when the maximum is 0, d is symmetric and that covers every
    off-diagonal entry).

    One pass over square tiles on and above the diagonal, each against the
    transposed tile below it: no n x n temporary. |a - b| = |b - a| bit for
    bit, so the maximum equals that of the full |d - d'|."""
    n = d.shape[0]
    side = ASYMMETRY_SIDE
    worst = 0.0
    zeros = 0
    for i0 in range(0, n, side):
        for j0 in range(i0, n, side):
            upper = d[i0:i0 + side, j0:j0 + side]
            diff = upper - d[j0:j0 + side, i0:i0 + side].T
            worst = max(worst, float(np.abs(diff, out=diff).max()))
            zeros += np.count_nonzero(upper == 0.0)
    # the diagonal tiles hold the n diagonal zeros
    return worst, zeros > n


def _is_real_type(t) -> bool:
    return (issubclass(t, (int, float, np.integer, np.floating))
            and not issubclass(t, (bool, np.bool_)))


def _all_indices(seq) -> bool:
    """Whether every entry is an int or a numpy integer: booleans, floats
    and anything else are not point indices. Each type is checked once."""
    return all(issubclass(t, (int, np.integer)) and not issubclass(t, bool)
               for t in set(map(type, seq)))


def _count(value, least, what, error):
    """`value` as an int when it is a Python or numpy integer in
    [least, 2^63); a float, a boolean or anything else raises `error`."""
    if (not isinstance(value, (int, np.integer)) or isinstance(value, bool)
            or not least <= value < 2 ** 63):
        raise error(
            f"need at least {least} {what}, as an integer, got {value!r}")
    return int(value)


def _real(value, what, error) -> float:
    """`value` as a float when it is a Python or numpy real number, not a
    boolean, that converts to a finite float; NaN, an infinity, an integer
    beyond float64's range and anything else raise `error` with the
    message `what`."""
    try:
        x = float(value) if _is_real_type(type(value)) else math.nan
    except OverflowError:  # an integer beyond float64's range
        x = math.nan
    if math.isfinite(x):
        return x
    raise error(f"{what}, got {value!r}")


def _items(value, what, error) -> list:
    """`value` as a list when it can be iterated; a scalar (a number, None)
    raises `error` with the message `what`."""
    try:
        return list(value)
    except TypeError:
        raise error(f"{what}, got {value!r}") from None


def _instance(value, cls, what):
    """`value` when it is a `cls`; anything else, such as a number in place
    of a space or a measure, raises InvalidInputError naming `what`."""
    if not isinstance(value, cls):
        raise InvalidInputError(
            f"{what} must be a {cls.__name__}, got {type(value).__name__}")
    return value


def _selection(indices, n) -> list:
    """`indices` as a list of distinct integers in [0, n). Anything else
    raises: EmptySelectionError when it is empty, DuplicateIndexError on a
    repeated index, and IndexOutOfRangeError on an index that is not an
    integer (a float or a boolean), one outside [0, n), or a scalar in
    place of the list."""
    idx = _items(indices, "indices must be a sequence", IndexOutOfRangeError)
    if not idx:
        raise EmptySelectionError("no indices selected")
    if not _all_indices(idx):
        raise IndexOutOfRangeError(
            "selection holds an index that is not an integer")
    seen = set()
    for i in idx:
        if not (0 <= i < n):
            raise IndexOutOfRangeError(f"index {i} out of range for n={n}")
        if i in seen:
            raise DuplicateIndexError(f"index {i} selected twice")
        seen.add(i)
    return idx


def _open(path, mode, newline=None):
    """The UTF-8 text file at `path`, a str or os.PathLike. Anything else
    raises InvalidInputError: an integer would be taken as a file
    descriptor, and closing it would close, say, the caller's stdout. So
    does a path that no file can have, one with a NUL byte."""
    if not isinstance(path, (str, os.PathLike)) or "\0" in os.fsdecode(path):
        raise InvalidInputError(
            f"path must be a str or os.PathLike with no NUL byte, got {path!r}")
    return open(path, mode, encoding="utf-8", newline=newline)


def _check_rows(rows, what):
    """Reject a nested sequence whose rows differ in length, are not
    sequences, or hold anything but real numbers (booleans, strings, complex
    numbers and other objects are not), naming the first such row. A flat
    sequence, with no row a sequence, must hold real numbers; its shape is
    left to the caller."""
    sequence = (list, tuple, np.ndarray)
    if not any(isinstance(row, sequence) for row in rows):
        if not all(map(_is_real_type, set(map(type, rows)))):
            raise MalformedMatrixError(f"{what} entries must be real numbers")
        return
    width = None
    for i, row in enumerate(rows):
        if isinstance(row, np.ndarray) and row.ndim == 1:
            real = row.dtype.kind in "iuf"
        elif isinstance(row, (list, tuple)):
            real = all(map(_is_real_type, set(map(type, row))))
        else:
            raise MalformedMatrixError(
                f"{what} row {i} is not a sequence of real numbers")
        if width is None:
            first, width = i, len(row)
        elif len(row) != width:
            raise MalformedMatrixError(
                f"{what} row {i} has {len(row)} entries but row {first} has {width}")
        if not real:
            raise MalformedMatrixError(
                f"{what} row {i} holds entries that are not real numbers")


def _float_array(x, what="matrix"):
    """A fresh float64 copy of a numeric array or of a (nested) sequence of
    real numbers; anything else, or an integer beyond float64's range,
    raises MalformedMatrixError, which names the input as `what`."""
    if isinstance(x, np.ndarray):
        if x.dtype.kind not in "iuf":
            raise MalformedMatrixError(
                f"{what} entries must be real numbers, got dtype {x.dtype}")
    elif isinstance(x, (list, tuple)):
        _check_rows(x, what)
    try:
        return np.array(x, dtype=np.float64)
    except OverflowError as exc:  # a Python int above about 1.8e308
        raise MalformedMatrixError(
            f"{what} entries must be within float64 range: {exc}") from exc
    except (TypeError, ValueError) as exc:  # a string or another object
        raise MalformedMatrixError(
            f"{what} entries must be real numbers: {exc}") from exc


def _closest_pair(d):
    """(i, j), i != j, of the smallest off-diagonal entry of a zero-diagonal
    matrix with at least two rows."""
    off = d + np.diag(np.full(d.shape[0], np.inf))
    i, j = np.unravel_index(int(np.argmin(off)), off.shape)
    return int(i), int(j)


def _trusted(labels, d, name) -> FiniteMetricSpace:
    """A space around a matrix that is a metric already and labels that fit
    it, with no check: the matrix is made read-only, not copied."""
    d.setflags(write=False)
    space = object.__new__(FiniteMetricSpace)
    space.__dict__.update(labels=labels, dist=d, name=name)
    return space


def _space(d, labels, name) -> FiniteMetricSpace:
    n = d.shape[0]
    if labels is None:
        labels = tuple(f"p{i}" for i in range(n))
    else:
        labels = tuple(map(str, _items(labels, "labels must be a sequence",
                                       ValidationError)))
        if len(labels) != n:
            raise ValidationError(f"got {len(labels)} labels for {n} points")
    return _trusted(labels, np.ascontiguousarray(d), name)


def validate_metric(matrix, labels=None, name: str = "") -> FiniteMetricSpace:
    """Validate a square distance matrix and wrap it as a space.

    This is the entry point for matrices from outside the package; with the
    space JSON readers, which share its checks, it is the only place the
    O(n^3) triangle scan runs. Triangle and symmetry defects are forgiven
    up to TRIANGLE_TOL_REL (1e-9) times the largest entry, to absorb
    floating construction error; asymmetries within it are repaired by
    averaging the (i, j) and (j, i) entries before the scan. Entries must be
    real numbers: ragged rows, strings, booleans and other objects raise
    MalformedMatrixError. The matrix is copied, never aliased.
    """
    d, tol = _checked_matrix(_float_array(matrix))
    return _scanned(d, tol, labels, name)


def _scanned(d, tol, labels, name) -> FiniteMetricSpace:
    """Wrap a checked matrix as a space once the triangle scan finds no
    deficit above the absolute tolerance `tol`."""
    if d.shape[0] > 1:
        deficit, i, j, k = triangle_scan(d)
        if deficit > tol:
            raise TriangleViolationError(
                f"d({i},{j}) exceeds d({i},{k}) + d({k},{j}) by {deficit} > {tol}",
                triple=(i, j, k), deficit=deficit)
    return _space(d, labels, name)


def diameter(space: FiniteMetricSpace) -> float:
    """Largest pairwise distance (0 for a single point)."""
    return float(_instance(space, FiniteMetricSpace, "space").dist.max())


def subspace(space: FiniteMetricSpace, indices) -> FiniteMetricSpace:
    """Restriction to the selected points; labels carried over. Selecting
    every point in order shares the parent's read-only matrix; any other
    selection copies. The indices are checked by `_selection`: an index
    that is not an integer (a float or a boolean) raises
    IndexOutOfRangeError, as one outside the space does."""
    idx = _selection(indices, _instance(space, FiniteMetricSpace, "space").n)
    if idx == list(range(space.n)):  # the whole space: share its matrix
        return _trusted(space.labels, space.dist, space.name)
    ia = np.asarray(idx, dtype=np.intp)
    d = np.ascontiguousarray(space.dist[np.ix_(ia, ia)])
    return _trusted(tuple(space.labels[i] for i in idx), d, space.name)


def glue(spec: GlueSpec) -> FiniteMetricSpace:
    """Join two spaces, setting every cross-pair distance to spec.c.

    Component blocks are copied verbatim; labels become "x0..", "y0.." so a
    measure on the glued space identifies component membership. The result
    is a metric because GlueSpec enforces 2c >= both component diameters.
    """
    _instance(spec, GlueSpec, "spec")
    nx, ny = spec.x.n, spec.y.n
    d = np.full((nx + ny, nx + ny), float(spec.c))
    d[:nx, :nx] = spec.x.dist
    d[nx:, nx:] = spec.y.dist
    labels = tuple(f"x{i}" for i in range(nx)) + tuple(f"y{j}" for j in range(ny))
    name = f"glue({spec.x.name or 'x'},{spec.y.name or 'y'},c={spec.c})"
    return _space(d, labels, name)


def _clear_low_bits(x: float, t: int) -> float:
    """Zero the low t mantissa bits of a positive float."""
    if t <= 0:
        return x
    bits = np.float64(x).view(np.int64)
    mask = ~np.int64((1 << t) - 1)
    return float(np.int64(bits & mask).view(np.float64))


def interval_grid(a: float, b: float, n: int) -> FiniteMetricSpace:
    """n equally spaced points on [a, b] with the absolute-difference metric.

    The grid step has its low mantissa bits cleared so every entry is an exact
    integer multiple of the step; the triangle inequality then holds with zero
    tolerance.
    """
    a, b = (_real(v, "need finite a < b", DegenerateIntervalError) for v in (a, b))
    if not a < b:
        raise DegenerateIntervalError(f"need finite a < b, got a={a}, b={b}")
    n = _count(n, 2, "grid points", TooFewPointsError)
    h = _clear_low_bits((b - a) / (n - 1), (n - 1).bit_length())
    if not math.isfinite(h):
        raise DegenerateIntervalError(
            f"interval length b - a overflows, a={a}, b={b}")
    if h <= 0.0:
        raise DegenerateIntervalError("interval too short to resolve n points")
    k = np.arange(n, dtype=np.float64)
    d = np.abs(k[:, None] - k[None, :]) * h
    return _space(d, [f"t{i}" for i in range(n)], f"interval({a},{b},{n})")


def regular_polygon_arc(n: int) -> FiniteMetricSpace:
    """n equally spaced points on the unit circle with the arc-length metric.

    Distances are geodesic: min(|Δθ|, 2π − |Δθ|) for angles θ_k = 2πk/n,
    realized as exact multiples of a bit-truncated arc step (zero-tolerance
    triangle check, as for interval_grid).
    """
    n = _count(n, 2, "polygon points", TooFewPointsError)
    h = _clear_low_bits(2.0 * math.pi / n, (n // 2).bit_length())
    k = np.arange(n, dtype=np.float64)
    steps = np.abs(k[:, None] - k[None, :])
    steps = np.minimum(steps, n - steps)
    d = steps * h
    return _space(d, [f"a{i}" for i in range(n)], f"circle({n})")


# Clouds with n^2 k at most this many coordinate differences take the
# one-array formula, where the per-coordinate loop's extra numpy calls cost
# more than its memory traffic saves. Measured on a 2-vCPU machine, the two
# paths interleaved: on 3-10 points in 2-3 dimensions the loop took
# 1.15-1.21x as long (39-59 us one-array) in five of six shapes; the two
# meet at 12-16 points (n^2 k between about 300 and 770), and at 36 points
# in 3 dimensions the loop wins, 76 against 111 us. With no
# one-array branch the small-batch benchmark (clouds of 3-8 points) read
# wall_s +11% over 10 runs.
ONE_ARRAY_MAX = 512


def euclidean_cloud(coords, labels=None, name: str = "") -> FiniteMetricSpace:
    """Pairwise euclidean distances of a finite point cloud.

    Raises ValidationError when a distance overflows and DuplicatePointError
    when two points coincide to 1e-12 of the diameter. Coordinates must be
    real numbers: ragged rows, strings, booleans, complex numbers and other
    objects raise MalformedMatrixError, naming the row.

    Rows are computed in blocks of at most TRIANGLE_TILE entries straight
    into the result. Each entry is the square root of its squared coordinate
    differences summed in the order numpy's reduction over the coordinate
    axis of one (n, n, k) array uses, which is sequential below 8
    coordinates: there the block accumulates one coordinate at a time
    (`_add_squared_differences`). From 8 coordinates on, and for clouds of
    at most ONE_ARRAY_MAX differences, each block is that reduction itself.
    Either way the distances are bit for bit those of the one-array
    formula. The largest entry and the smallest off-diagonal entry are read
    per block while it is in cache.

    Below 2^-400 the squared differences would lose bits to underflow (and
    from about 1e-170 vanish), so a cloud whose largest |coordinate| is that
    small is scaled by a power of two to just below 1 first, and each
    block of distances scaled back: both are exact, so the distances are
    those of the scaled cloud times the same power of two, bit for bit.
    """
    pts = _float_array(coords, "coordinate")
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or 0 in pts.shape:
        raise InvalidInputError(f"expected a (n, k) coordinate array, got shape {pts.shape}")
    top = float(np.abs(pts).max())  # NaN or inf if any coordinate is
    if not math.isfinite(top):
        raise InvalidInputError("coordinates must be finite")
    n, k = pts.shape
    shift = -math.frexp(top)[1] if 0.0 < top < 2.0 ** -400 else 0
    if shift:
        np.ldexp(pts, shift, out=pts)
    one_array = k >= 8 or n * n * k <= ONE_ARRAY_MAX
    rows = max(1, TRIANGLE_TILE // (n * k if one_array else n))
    d = np.empty((n, n))
    if not one_array:
        cols = np.ascontiguousarray(pts.T)
    largest, closest = 0.0, np.inf
    with np.errstate(over="ignore"):
        for i0 in range(0, n, rows):
            block = d[i0:i0 + rows]
            if one_array:
                diff = pts[i0:i0 + rows, None, :] - pts[None, :, :]
                np.sqrt((diff * diff).sum(axis=-1), out=block)
            else:
                _add_squared_differences(block, cols, i0)
                np.sqrt(block, out=block)
            if shift:
                np.ldexp(block, -shift, out=block)
            # distances are never NaN: an overflow shows as +inf here
            largest = max(largest, float(block.max()))
            diagonal = block.reshape(-1)[i0::n + 1]
            diagonal[:] = np.inf
            closest = min(closest, float(block.min()))
            diagonal[:] = 0.0
    if not math.isfinite(largest):
        raise ValidationError("pairwise distances overflow to non-finite values")
    dup_tol = DUPLICATE_POINT_REL * largest
    if closest <= dup_tol:
        i, j = _closest_pair(d)
        raise DuplicatePointError(
            f"points {i} and {j} coincide within tolerance {dup_tol}")
    return _space(d, labels, name or f"cloud({n})")


def _add_squared_differences(block, cols, i0):
    """Fill `block`, rows i0.. of the distance matrix, with the sums over
    coordinates c = 0, 1, ... of (x_c(i) - x_c(j))^2, added left to right;
    `cols` holds one coordinate per row. Each coordinate's differences are
    squared in place and freed before the next coordinate's are made. On a
    2-vCPU machine a second live temporary of the block's size took a
    401-point cloud in a fresh process from 2.7 to 3.4 ms (medians of 16
    process rounds)."""
    rows = block.shape[0]
    np.subtract.outer(cols[0, i0:i0 + rows], cols[0], out=block)
    np.square(block, out=block)
    for x in cols[1:]:
        diff = np.subtract.outer(x[i0:i0 + rows], x)
        block += np.square(diff, out=diff)
        del diff


def _sphere_lattice(count: int, radius: float) -> np.ndarray:
    """Deterministic golden-angle lattice of `count` points on a sphere."""
    i = np.arange(count, dtype=np.float64)
    y = 1.0 - 2.0 * (i + 0.5) / count
    r = np.sqrt(np.maximum(0.0, 1.0 - y * y))
    theta = math.pi * (3.0 - math.sqrt(5.0)) * i
    pts = np.stack([r * np.cos(theta), y, r * np.sin(theta)], axis=1)
    return pts * radius


def ball_discretization(shells: int, points_per_shell: int) -> FiniteMetricSpace:
    """Finite subset of the closed unit ball: origin + lattice spheres.

    Spheres of radius k/shells for k = 1..shells each carry the same fixed
    golden-angle lattice, so the construction is fully deterministic; growing
    points_per_shell refines coverage of the same nested sphere family.
    """
    shells = _count(shells, 1, "shell", InvalidInputError)
    points_per_shell = _count(points_per_shell, 4, "points per shell",
                              TooFewPointsError)
    pts = [np.zeros((1, 3))]
    labels = ["o"]
    for k in range(1, shells + 1):
        pts.append(_sphere_lattice(points_per_shell, k / shells))
        labels.extend(f"s{k}p{i}" for i in range(points_per_shell))
    return euclidean_cloud(np.vstack(pts), labels=labels,
                           name=f"ball3({shells},{points_per_shell})")


def random_metric(n: int, seed: int) -> FiniteMetricSpace:
    """Reproducible random metric: off-diagonal entries uniform in [1, 2].

    The range forces the triangle inequality exactly (any two entries sum to
    at least the maximum), so the output is a metric by construction.
    """
    n = _count(n, 1, "point", TooFewPointsError)
    rng = np.random.default_rng(
        _count(seed, 0, "for the seed", InvalidInputError))
    d = np.zeros((n, n))
    k = np.arange(n)
    upper = k[:, None] < k  # filled row by row, as np.triu_indices orders it
    vals = rng.uniform(1.0, 2.0, size=n * (n - 1) // 2)
    d[upper] = vals
    d.T[upper] = vals
    return _space(d, None, f"random({n},{seed})")


# -- space JSON format --------------------------------------------------------
#
# {"name": str, "labels": [str, ...] (optional), "matrix": [[...], ...]}
# Matrices are stored in full; numbers carry 17 significant digits so a
# save/load round trip is bit-exact.


def _json_chunks(space: FiniteMetricSpace):
    """The space's JSON text, one matrix row per chunk: `save_space` writes
    the chunks as they come, so no copy of the whole text is held. Each row
    is one "%.17g" per entry, filled a row at a time: the same text as
    format(v, ".17g") entry by entry, without a Python call per entry."""
    row = "[" + ", ".join(["%.17g"] * space.n) + "]"
    yield (
        "{\n"
        f'  "name": {json.dumps(space.name)},\n'
        f'  "labels": {json.dumps(list(space.labels))},\n'
        '  "matrix": [\n      '
    )
    for i, r in enumerate(space.dist):
        yield (",\n      " if i else "") + row % tuple(r.tolist())
    yield "\n  ]\n}\n"


def space_to_json(space: FiniteMetricSpace) -> str:
    return "".join(_json_chunks(space))


def save_space(space: FiniteMetricSpace, path) -> None:
    _instance(space, FiniteMetricSpace, "space")
    with _open(path, "w") as fh:
        fh.writelines(_json_chunks(space))


def space_from_json(text: str) -> FiniteMetricSpace:
    return _scanned(*_parsed_space(*_json_object(text, "matrix", "matrix")))


def load_space(path) -> FiniteMetricSpace:
    """Read a space from its JSON file, checked as `validate_metric` checks
    a matrix (at the same tolerance); validation errors carry field context.
    A file that is not UTF-8 text raises ParseError, and a path that is not
    a str or os.PathLike InvalidInputError."""
    return _scanned(*_parsed_space(*_read_json(path, "matrix", "matrix")))


def _json_object(text, key, what):
    """(object, entries) of the JSON `text`: an object that holds an array
    under `key`, and that array, taken out of the object and converted by
    `_float_array`, which names it `what`. Anything else, entries that are
    not real numbers within float64 range included, raises ParseError. The
    text is dropped once parsed, and the parsed array once converted."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from exc
    del text
    if not isinstance(obj, dict) or key not in obj:
        raise ParseError(f"expected a JSON object with a {key!r} key")
    entries = obj.pop(key)
    if not isinstance(entries, list):
        raise ParseError(f"{key!r} must be an array of numbers")
    try:
        return obj, _float_array(entries, what)
    except MalformedMatrixError as exc:  # a ragged, non-numeric or huge entry
        raise ParseError(str(exc)) from exc


def _read_json(path, key, what):
    """`_json_object` of the text of the file at `path`, read through
    `_open`; a file that is not UTF-8 text raises ParseError."""
    with _open(path, "r") as fh:
        try:
            return _json_object(fh.read(), key, what)
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8 text: {exc}") from exc


def _parsed_space(obj, d):
    """(matrix, absolute triangle tolerance, labels, name) of a space file
    parsed by `_json_object`, with the O(n^2) checks done on its matrix `d`,
    before the caller's O(n^3) scan."""
    if d.ndim != 2:
        raise ParseError("'matrix' must be a nonempty array of arrays of numbers")
    labels = obj.get("labels")
    if labels is not None and (not isinstance(labels, list)
                               or not all(isinstance(s, str) for s in labels)):
        raise ParseError("'labels' must be an array of strings")
    name = obj.get("name", "")
    if not isinstance(name, str):
        raise ParseError("'name' must be a string")
    d, tol = _checked_matrix(d)
    return d, tol, labels, name

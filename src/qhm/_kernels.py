"""Numeric kernels: the triangle scan, the projected-ascent oracle, the
triangular solves of a Cholesky factor and the Perron root bound.

All are plain numpy. The triangle scan works in slabs of a fixed element
budget; from SCREEN_MIN points on, `triangle_scan` first screens the pairs
in float32 on up to four threads and recomputes in float64 only the pairs
the screen cannot certify, with the same result bit for bit. The ascent
advances its linear recurrence a block of iterates at a time; the
triangular solves go a block of rows at a time.
"""

import math
import os
import threading

import numpy as np

# ascent loop exit status codes
ASCENT_MAXITER = 0
ASCENT_CONVERGED = 1
ASCENT_BLOWUP = 2


# Element budget of one triangle-scan slab (rows x pivots x columns). Apart
# from this one buffer the scan allocates only row-block vectors of
# TRIANGLE_TILE_ROWS x n elements, never an n x n temporary.
TRIANGLE_TILE = 1 << 16
TRIANGLE_TILE_ROWS = 8


def worst_triangle_deficit(dist: np.ndarray):
    """Largest d(i,j) - (d(i,k) + d(k,j)) over all triples, with a triple
    that attains it: returns (deficit, i, j, k).

    `dist` must be symmetric. The scan then covers only columns j >= i0 of
    each block of rows i0:i1, since the deficit of (j, i, k) equals that of
    (i, j, k) bit for bit. Each slab of at most TRIANGLE_TILE elements holds
    the sums d(i,k) + d(k,j) for a block of rows, a block of pivots and the
    columns j >= i0; their minimum over the pivots is folded into a running
    row-block minimum s(i,j). Rounded subtraction is monotone, so
    d(i,j) - s(i,j) is exactly the largest d(i,j) - (d(i,k) + d(k,j)) over k.
    The pivot of the winning (i, j) is recovered by one pass over its row.
    """
    n = dist.shape[0]
    rows = min(n, TRIANGLE_TILE_ROWS)
    buf = np.empty(min(max(TRIANGLE_TILE, rows * n), rows * n * n))
    worst = -np.inf
    at = (0, 0, 0)
    for i0 in range(0, n, rows):
        i1 = min(n, i0 + rows)
        width = n - i0
        pivots = max(1, buf.size // ((i1 - i0) * width))
        least = None
        for k0 in range(0, n, pivots):
            k1 = min(n, k0 + pivots)
            slab = buf[:(i1 - i0) * (k1 - k0) * width].reshape(
                i1 - i0, k1 - k0, width)
            np.add(dist[i0:i1, k0:k1, None], dist[None, k0:k1, i0:], out=slab)
            if least is None:
                least = slab.min(axis=1)
            else:
                np.minimum(least, slab.min(axis=1), out=least)
        deficit = dist[i0:i1, i0:] - least
        m = float(deficit.max())
        if m > worst:
            worst = m
            r, c = np.unravel_index(int(np.argmax(deficit)), deficit.shape)
            i, j = i0 + int(r), i0 + int(c)
            at = (i, j, int(np.argmin(dist[i, :] + dist[:, j])))
    return worst, at[0], at[1], at[2]


def _block_minima(x, i0, i1, buf, least, tmp):
    """Fill `least` (rows i0:i1 by columns i0:) with min over k of
    x[i, k] + x[k, j], in slabs of at most buf.size sums (rows x pivots x
    columns); `tmp` is scratch of least's shape. This is the slab loop of
    `worst_triangle_deficit`, which keeps its own copy: there the per-block
    function call cost 8-15% on 8-40 points. Apart from the buffer that
    numpy's ufuncs allocate per call, it writes only into what it is given,
    so that the screen's worker threads need no memory of their own."""
    n = x.shape[0]
    rows, width = least.shape
    pivots = max(1, buf.size // (rows * width))
    for k0 in range(0, n, pivots):
        k1 = min(n, k0 + pivots)
        slab = buf[:rows * (k1 - k0) * width].reshape(rows, k1 - k0, width)
        np.add(x[i0:i1, k0:k1, None], x[None, k0:k1, i0:], out=slab)
        if k0 == 0:
            np.minimum.reduce(slab, axis=1, out=least)
        else:
            np.minimum.reduce(slab, axis=1, out=tmp)
            np.minimum(least, tmp, out=least)


# The float32 screen of `triangle_scan`. A pair is certified when its
# screened minimum is at least e(i,j) (1 + 4 SCREEN_U) + 8 SCREEN_ETA, where
# SCREEN_U is float32's unit roundoff and SCREEN_ETA its smallest normal
# number (which also covers subnormals flushed to zero).
SCREEN_U = 2.0 ** -24
SCREEN_ETA = 2.0 ** -126
# Rows per block and float32 elements per slab of the screen (512 KB, which
# is also TRIANGLE_TILE doubles for the exact passes that reuse it).
# Measured on a 2-vCPU machine (medians of 5), the scan of the 802-point
# glued file took 0.21, 0.18 and 0.16 s with slabs of 2^16, 2^17 and 2^18
# elements, a 1601-point ball 1.55, 1.31 and 1.39 s; 4, 8 and 16 rows per
# block were within noise of each other.
SCREEN_ROWS = 8
SCREEN_TILE = 1 << 17
# A block whose open cells exceed this share of its cells reruns the exact
# slab loop instead of rechecking its open pairs one at a time, which
# gathers two rows per pair: on an 801-point grid, where all 319,600 pairs
# stay open, rechecking every pair took 0.89-0.96 s against 0.46-0.48 s
# with every block rerun. Screened balls and glued clouds leave at most 11%
# of a block open (median under 0.5%); grids and arcs about 97%. Every
# block is screened first, so a tight metric pays for the screen and the
# slab loop: on a 2-vCPU machine (medians of 7 interleaved rounds) the scan
# of `interval_grid(0, 1, 801)` took 0.52 s and of `regular_polygon_arc(801)`
# 0.51 s, against 0.54 and 0.55 s for `worst_triangle_deficit` alone.
SCREEN_OPEN_MAX = 0.25
# Below this many points `triangle_scan` is `worst_triangle_deficit`: no
# screen and no threads. Measured on a 2-vCPU machine, the two interleaved
# (medians of 15 rounds): on euclidean clouds the screen took 1.18x as long
# at 144 points, 1.01x at 160, 0.89x at 176 and 0.70x at 208. Interval
# grids, which it cannot certify, took (medians of 9) 1.25x as long at 208
# points, 1.38x at 256, 1.06x at 320, 1.10x at 401 and 0.95x at 801; the
# crossover is set by the clouds, the common untrusted input (balls and
# their glue). Below 64 points the screen's fixed cost (threads, scratch)
# made it 2-8x slower.
SCREEN_MIN = 208
# At most this many workers screen at once. The CPU affinity overstates the
# CPUs a process gets under a cgroup quota, and surplus threads cost time:
# on a 2-vCPU machine (medians of 7 rounds at 802 points, 3 at 1601) the scan
# of a euclidean cloud took 0.34/2.40 s on 1 worker, 0.21/1.24 on 2, 0.21/1.29
# on 3, 0.23/1.34 on 4, 0.26/1.49 on 6 and 0.36/1.75 on 12; pinned to one
# CPU, 0.32 s on 1 worker and 0.33 on 4 or 8. Four keeps that loss under 10%
# and the scratch of all workers under 3.4 MB up to 1601 points.
SCREEN_WORKERS = 4


def triangle_scan(dist: np.ndarray):
    """`worst_triangle_deficit(dist)`, bit for bit, for the matrices
    `validate_metric` scans: finite, symmetric, nonnegative, zero diagonal.

    Below SCREEN_MIN points it is that function. From there on a float32
    screen decides most pairs first. The screen e is dist times the power of
    two that puts its largest entry just below 2^125, rounded to float32,
    with its diagonal set to +inf; for each pair i < j it takes s(i,j), the
    least float32 sum e(i,k) + e(k,j), which ignores k = i and k = j. Scaling
    by a power of two is exact and no sum overflows, so with u = SCREEN_U
    and eta = SCREEN_ETA every e is within u D + eta of its scaled entry D
    (eta covers entries below float32's normal range, rounded or flushed to
    zero) and every float32 sum within u of the exact sum of its terms.
    Then s(i,j) >= e(i,j) (1 + 4u) + 8 eta, with the bound evaluated in
    float64, gives
        (D(i,k) + D(k,j)) (1 + u)^2 + 2 eta (1 + u)
            >= (D(i,j) (1 - u) - eta) (1 + 4u) + 8 eta,
    so D(i,k) + D(k,j) > D(i,j) for every k outside {i, j}. Rounding to
    float64 is monotone and d(i,j) is a float64, so no float64 sum
    d(i,k) + d(k,j) falls below d(i,j), while k = i gives it exactly: the
    certified pair's float64 deficit is exactly 0.

    Pairs left open are recomputed in float64 from their two rows; a block
    with more than SCREEN_OPEN_MAX of its cells open (a tight metric, such
    as a grid on a line) reruns the exact slab loop instead. The result is
    the lexicographically first pair i < j at the largest deficit, with k
    the first argmin, or (0.0, 0, 0, 0) when no deficit is positive: what
    the slab loop returns.

    Blocks of SCREEN_ROWS rows are claimed in order by the workers, the
    caller being one of them (numpy releases the GIL inside its loops);
    `_workers` says how many. Each block's answer depends on the block
    alone and the answers are combined in block order, so the result does
    not depend on the number of workers, nor on how many of their threads
    could be started. Every buffer is allocated here, on the calling
    thread, before the workers start: the float32 copy (4 n^2 bytes) and
    about 0.5 MB + 25 SCREEN_ROWS n bytes per worker.
    """
    n = dist.shape[0]
    if n < SCREEN_MIN:
        return worst_triangle_deficit(dist)
    screen = np.empty((n, n), dtype=np.float32)
    np.ldexp(dist, 125 - math.frexp(float(dist.max()))[1], out=screen)
    screen.reshape(-1)[::n + 1] = np.inf
    starts = range(0, n, SCREEN_ROWS)
    found = [None] * len(starts)
    claims = iter(range(len(starts)))
    lock = threading.Lock()
    errors = []

    def work(scratch):
        try:
            while True:
                with lock:
                    b = None if errors else next(claims, None)
                if b is None:
                    return
                i0 = starts[b]
                found[b] = _scan_block(dist, screen, i0,
                                       min(n, i0 + SCREEN_ROWS), *scratch)
        except BaseException as exc:  # re-raised on the calling thread
            errors.append(exc)

    scratch = [_screen_scratch(n) for _ in range(_workers(n, len(starts)))]
    started = []
    try:
        for s in scratch[1:]:
            t = threading.Thread(target=work, args=(s,))
            t.start()
            started.append(t)
    except RuntimeError:  # no thread to spare: those started share the blocks
        pass
    except BaseException as exc:  # stop the started workers, then re-raise
        errors.append(exc)
    work(scratch[0])
    for t in started:
        t.join()
    if errors:
        raise errors[0]
    worst, i, j = max(found, key=lambda f: f[0])  # the first block at the max
    if worst <= 0.0:
        return 0.0, 0, 0, 0
    return worst, i, j, int(np.argmin(dist[i, :] + dist[:, j]))


def _cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _workers(n, blocks):
    """Workers for the screen of n points in `blocks` row blocks: one per
    CPU, at most one per block and SCREEN_WORKERS in all, and no more than
    keep their scratch within the float32 copy, though always two (the
    measured SCREEN_MIN assumes two)."""
    copy = 4 * n * n
    per = 8 * max(SCREEN_TILE // 2, SCREEN_ROWS * n) + 25 * SCREEN_ROWS * n
    return min(_cpus(), blocks, SCREEN_WORKERS, max(2, copy // per))


def _screen_scratch(n):
    """One worker's buffers for `_scan_block` on n points: one slab, read as
    float32 by the screen and as float64 by the exact passes after it, and
    row-block vectors."""
    m = SCREEN_ROWS * n
    return (np.empty(max(SCREEN_TILE // 2, m, 2 * n)),
            np.empty(m, dtype=np.float32), np.empty(m, dtype=np.float32),
            np.empty(m), np.empty(m, dtype=bool), np.empty(m))


def _scan_block(dist, screen, i0, i1, slab64, least32, tmp32, bound,
                is_open, tmp64):
    """(deficit, i, j) for rows i0:i1 against the columns j > i: the
    largest deficit of the block's pairs and the first pair that attains
    it, or (0.0, i0, i0) when none is positive."""
    n = dist.shape[0]
    shape = (i1 - i0, n - i0)
    size = shape[0] * shape[1]
    least = least32[:size].reshape(shape)
    _block_minima(screen, i0, i1, slab64.view(np.float32), least,
                  tmp32[:size].reshape(shape))
    # the bound and the comparison in float64, with no cast buffers
    limit = bound[:size].reshape(shape)
    np.copyto(limit, screen[i0:i1, i0:])
    limit *= 1.0 + 4.0 * SCREEN_U
    limit += 8.0 * SCREEN_ETA
    screened = tmp64[:size].reshape(shape)
    np.copyto(screened, least)
    opened = np.less(screened, limit, out=is_open[:size].reshape(shape))
    for r in range(shape[0]):
        opened[r, :r + 1] = False  # only pairs i < j
    count = np.count_nonzero(opened)
    if count == 0:
        return 0.0, i0, i0
    if count > SCREEN_OPEN_MAX * size:
        exact = bound[:size].reshape(shape)
        _block_minima(dist, i0, i1, slab64, exact,
                      tmp64[:size].reshape(shape))
        deficit = np.subtract(dist[i0:i1, i0:], exact, out=exact)
        r, c = np.unravel_index(int(np.argmax(deficit)), shape)
        return float(deficit[r, c]), i0 + int(r), i0 + int(c)
    i, j = np.nonzero(opened)
    i += i0
    j += i0
    deficit = tmp64[:count]
    per = slab64.size // (2 * n)
    for a in range(0, count, per):
        m = min(per, count - a)
        left = slab64[:m * n].reshape(m, n)
        right = slab64[m * n:2 * m * n].reshape(m, n)
        np.take(dist, i[a:a + m], axis=0, out=left, mode="clip")
        np.take(dist, j[a:a + m], axis=0, out=right, mode="clip")
        np.minimum.reduce(np.add(left, right, out=left), axis=1,
                          out=deficit[a:a + m])
    np.subtract(dist[i, j], deficit, out=deficit)
    best = int(np.argmax(deficit))
    if deficit[best] <= 0.0:
        return 0.0, i0, i0
    return float(deficit[best]), int(i[best]), int(j[best])


# Element budget of the ascent's stack of matrices dist @ A^k (4 MB); a block
# holds as many iterates as the stack has matrices, at most 1024.
ASCENT_TILE = 1 << 19


def ascent_block(n: int, iterations: int) -> int:
    """Iterates per block of the ascent on n points."""
    return max(1, min(1024, ASCENT_TILE // (n * n), iterations + 1))


def _ascent_stack(dist, step, b):
    """The (b*n, n) stack of Q_k = dist @ A^k, k < b, for the ascent step
    A = I + 2 step (I - 11'/n) dist, by doubling: Q_{m..2m-1} = Q_{0..m-1}
    @ A^m is one matmul per doubling, plus the n x n square of A^m. With
    b = 1 the stack is `dist` itself."""
    n = dist.shape[0]
    if b == 1:
        return dist
    stack = np.empty((b, n, n))
    stack[0] = dist
    power = 2.0 * step * (dist - dist.mean(axis=0))
    power[np.diag_indices(n)] += 1.0
    m = 1
    while m < b:
        k = min(m, b - m)
        np.matmul(stack[:k].reshape(k * n, n), power,
                  out=stack[m:m + k].reshape(k * n, n))
        m += k
        if m < b:
            power = power @ power
    return stack.reshape(b * n, n)


def ascent(dist, w0, iterations, step, blowup, grad_tol, stride):
    """Projected gradient ascent on the energy over the mass-1 affine slice.

    Iterate `it` has potential d = dist @ w, energy w @ d and projected
    gradient g = 2 (d - mean d); the next iterate is w + step g. The run
    exits at the first iteration whose best energy so far exceeds `blowup`
    (ASCENT_BLOWUP), else whose max |g| is below `grad_tol`
    (ASCENT_CONVERGED), else at `iterations` (ASCENT_MAXITER). It records
    (iteration, best value, best measure) every `stride` iterations and at
    the exit. Returns (rec_it, rec_val, rec_w, best, best_w, status,
    last_it).

    The step is linear, w <- A w, so the potentials of a block of b
    iterates from w are Q_k @ w with Q_k = dist @ A^k: one matvec against
    a stack built once per call. The iterates are w plus the running sum of
    step g, added in the order of a one-step-at-a-time loop, and the next
    block starts from one plain step off the block's last iterate, so
    rounding does not compound across blocks. The best value moves only on
    a strict improvement, so a NaN energy never becomes the best.
    """
    n = w0.shape[0]
    b = ascent_block(n, iterations)
    index = np.arange(b)
    w = w0.copy()
    best, best_w = -np.inf, w.copy()
    max_rec = iterations // stride + 2
    rec_it = np.empty(max_rec, dtype=np.int64)
    rec_val = np.empty(max_rec)
    rec_w = np.empty((max_rec, n))
    n_rec = 0
    it0 = 0
    # in a divergent run the rows of a block past its exit may overflow;
    # they are computed with the block but never used
    with np.errstate(over="ignore", invalid="ignore"):
        stack = _ascent_stack(dist, step, b)
        while True:
            m = min(b, iterations + 1 - it0)
            d = (stack[:m * n] @ w).reshape(m, n)
            g = d - d.sum(axis=1, keepdims=True) / n
            g *= 2.0
            ws = np.empty((m, n))
            ws[0] = w
            np.multiply(g[:-1], step, out=ws[1:])
            np.add.accumulate(ws, axis=0, out=ws)
            vals = np.einsum("ij,ij->i", ws, d)
            bests = np.fmax.accumulate(np.concatenate(([best], vals)))
            improved = vals > bests[:-1]
            bests = bests[1:]
            blown = bests > blowup
            flat = np.abs(g).max(axis=1) < grad_tol
            exits = np.flatnonzero(blown | flat)
            last = int(exits[0]) if exits.size else m - 1
            done = exits.size > 0 or it0 + last == iterations
            # row of the best measure so far; -1 is the one carried in
            source = np.maximum.accumulate(np.where(improved, index[:m], -1))
            rows = np.arange((-it0) % stride, last + 1, stride)
            if done and (it0 + last) % stride:
                rows = np.append(rows, last)
            if rows.size:
                at = source[rows]
                end = n_rec + rows.size
                rec_it[n_rec:end] = it0 + rows
                rec_val[n_rec:end] = bests[rows]
                rec_w[n_rec:end] = np.where(at[:, None] >= 0, ws[at], best_w)
                n_rec = end
            best = float(bests[last])
            if source[last] >= 0:
                best_w = ws[source[last]].copy()
            if done:
                status = (ASCENT_BLOWUP if blown[last] else
                          ASCENT_CONVERGED if flat[last] else ASCENT_MAXITER)
                return (rec_it[:n_rec], rec_val[:n_rec], rec_w[:n_rec], best,
                        best_w, status, it0 + last)
            w = ws[-1] + step * g[-1]
            it0 += m


# Rows of one diagonal block of the blocked triangular substitution.
TRI_BLOCK = 128


def cholesky_solver(lower: np.ndarray):
    """The map x -> (L L')^-1 x for a lower-triangular L with nonzero
    diagonal, O(m^2) per call.

    Forward and back substitution go a block of TRI_BLOCK rows at a time,
    with the inverses of the diagonal blocks computed once here: each block
    step is then two matrix-vector products, which keeps the Python loop to
    m / TRI_BLOCK steps without a triangular solver from outside numpy.
    """
    m = lower.shape[0]
    starts = range(0, m, TRI_BLOCK)
    blocks = [(a, min(m, a + TRI_BLOCK),
               np.linalg.inv(lower[a:a + TRI_BLOCK, a:a + TRI_BLOCK]))
              for a in starts]

    def solve(x):
        z = np.empty_like(x)
        for a, e, inv in blocks:
            z[a:e] = inv @ (x[a:e] - lower[a:e, :a] @ z[:a])
        y = np.empty_like(x)
        for a, e, inv in reversed(blocks):
            y[a:e] = inv.T @ (z[a:e] - lower[e:, a:e].T @ y[e:])
        return y

    return solve


# Relative width of the Collatz-Wielandt bracket at which the Perron root
# iteration stops, and the most iterations it runs.
PERRON_RTOL = 1e-13
PERRON_MAX_ITER = 500


def perron_upper_bound(dist: np.ndarray) -> float:
    """An upper bound on the spectral radius of a nonnegative irreducible
    symmetric matrix, within about PERRON_RTOL of it.

    For every positive x, min_i (Dx)_i / x_i <= rho <= max_i (Dx)_i / x_i
    (Collatz-Wielandt). Power iteration on D + sigma I, with sigma the
    current upper bound, drives x to the Perron vector and closes the
    bracket; shifting damps the negative eigenvalues of a distance matrix,
    which can be as large as rho in magnitude. The returned upper end is
    raised by n eps, the rounding of (Dx)_i, so that it stays above rho.
    """
    n = dist.shape[0]
    x = np.ones(n)
    for _ in range(PERRON_MAX_ITER):
        y = dist @ x
        ratio = y / x
        low, high = float(ratio.min()), float(ratio.max())
        if high - low <= PERRON_RTOL * high:
            break
        x = y + high * x
        x /= x.max()
    return high * (1.0 + n * np.finfo(np.float64).eps)

"""Numeric kernels: the triangle scan, the projected-ascent oracle, the
blocked Cholesky factorization of a Strict certificate with its solves, and
the Perron root bound.

All are plain numpy, and each step is the numpy expression it stands for:
no kernel takes a scratch buffer, and numpy allocates every temporary (the
ascent alone keeps its block of iterates and their potentials from one
block to the next). The triangle scan has one exact loop, `_exact_block`, which scans a block
of rows in slabs of a fixed byte budget, and one combiner of the blocks'
answers, `_worst`. `worst_triangle_deficit` runs the loop on every block.
From SCREEN_MIN points on, `triangle_scan` first screens the pairs in
exact 16-bit integers on up to four threads, recomputes in float64 the
pairs the screen cannot certify and runs the exact loop on the blocks it
leaves mostly open, with the same result bit for bit. The ascent advances
its linear recurrence a block of iterates at a time, each block a few
matrix products with powers of its step matrix stored once per call, and
keeps the best value at each record and the best measure only at its exit.
The Cholesky factorization goes a block of rows at a time, inverting each
diagonal block once, and its solves reuse those inverses.
"""

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .tolerances import PERRON_RTOL

# Budget of one triangle-scan slab (rows x pivots x columns), and rows per
# block: a slab takes at most 8 TRIANGLE_TILE bytes (512 KB), TRIANGLE_TILE
# float64 sums or, in the screen, 4 TRIANGLE_TILE uint16 sums. Apart from
# the slab the scan allocates only row-block vectors of TRIANGLE_TILE_ROWS x
# n elements, never an n x n temporary (the screen adds its uint16 copy).
# Measured on a 2-vCPU machine (medians of 7 rounds, 3 at 1601 points), the
# screened scan of the 802-point glued file took 0.14, 0.10 and 0.08 s with
# slabs of 2^16, 2^17 and 2^18 uint16 elements, a 1601-point ball 1.25, 0.81
# and 0.69 s; 4, 8 and 16 rows per block were within noise of each other.
TRIANGLE_TILE = 1 << 16
TRIANGLE_TILE_ROWS = 8


def worst_triangle_deficit(dist: np.ndarray):
    """Largest d(i,j) - (d(i,k) + d(k,j)) over all triples, with a triple
    that attains it: returns (deficit, i, j, k).

    `dist` must be symmetric. The exact loop `_exact_block` runs on each
    block of TRIANGLE_TILE_ROWS rows against the columns j >= i0 only, since
    the deficit of (j, i, k) equals that of (i, j, k) bit for bit, and
    `_worst` combines the blocks' answers.
    """
    n = dist.shape[0]
    rows = TRIANGLE_TILE_ROWS
    return _worst(dist, [_exact_block(dist, i0, min(n, i0 + rows))
                         for i0 in range(0, n, rows)])


def _worst(dist, found):
    """(deficit, i, j, k) from the blocks' (deficit, i, j) in block order:
    the first block at the largest deficit, with k the first argmin of
    d(i,k) + d(k,j). A block with no positive deficit reports (0.0, i0, i0),
    so a metric gives (0.0, 0, 0, 0)."""
    worst, i, j = max(found, key=lambda f: f[0])
    with np.errstate(over="ignore"):  # a sum past the float range is inf
        return worst, i, j, int(np.argmin(dist[i, :] + dist[:, j]))


def _block_minima(x, i0, i1):
    """min over k of x[i, k] + x[k, j] for rows i0:i1 and columns j >= i0,
    in slabs (rows x pivots x columns) of at most 8 TRIANGLE_TILE bytes,
    whatever the dtype of `x`."""
    n = x.shape[0]
    rows, width = i1 - i0, n - i0
    pivots = max(1, 8 * TRIANGLE_TILE // (x.itemsize * rows * width))
    with np.errstate(over="ignore"):  # a sum past the float range is inf
        for k0 in range(0, n, pivots):
            k1 = k0 + pivots
            part = (x[i0:i1, k0:k1, None] + x[None, k0:k1, i0:]).min(axis=1)
            least = part if k0 == 0 else np.minimum(least, part, out=least)
    return least


def _exact_block(dist, i0, i1):
    """(deficit, i, j) for rows i0:i1 in float64: the largest
    d(i,j) - (d(i,k) + d(k,j)) over k and the columns j >= i0, and the first
    (i, j) in row order that attains it. Rounded subtraction is monotone,
    so d(i,j) minus the least sum is exactly the largest deficit over k. A
    pair j < i repeats the deficit of (j, i) in an earlier row, and k = i
    gives every diagonal entry 0, so the first pair has i <= j and is
    (i0, i0) when no deficit is positive."""
    deficit = _block_minima(dist, i0, i1)
    np.subtract(dist[i0:i1, i0:], deficit, out=deficit)
    r, c = divmod(int(np.argmax(deficit)), deficit.shape[1])
    return float(deficit[r, c]), i0 + r, i0 + c


# The integer screen of `triangle_scan` scales the matrix so that its largest
# entry lies in [2^(SCREEN_BITS - 1), 2^SCREEN_BITS) and puts 2^SCREEN_BITS
# on the diagonal: no uint16 sum that decides a pair can pass 65535.
SCREEN_BITS = 15
# A block whose open cells exceed this share of its cells reruns the exact
# slab loop instead of rechecking its open pairs one at a time, which
# gathers two rows per pair: on an 801-point grid, where all 319,600 pairs
# stay open, rechecking every pair took 0.89-0.96 s against 0.46-0.48 s
# with every block rerun. The integer screen leaves at most 14% of a block
# of a ball, a glued file or a gaussian cloud open (medians 1.3-5.2%);
# grids and arcs about 99%, planar clouds of 800 points about 80%. Every
# block is screened first, so a tight metric pays for the screen and the
# slab loop, both on every worker: on a 2-vCPU machine (medians of 7
# interleaved rounds) the scan of `interval_grid(0, 1, 801)` took 0.36 s
# and of `regular_polygon_arc(801)` 0.33 s, against 0.48 and 0.45 s for
# `worst_triangle_deficit` alone on one thread.
SCREEN_OPEN_MAX = 0.25
# Below this many points `triangle_scan` is `worst_triangle_deficit`: no
# screen and no threads. Measured on a 2-vCPU machine, the two interleaved
# (four runs of 9-21 rounds, medians): on euclidean clouds the screen took
# 0.82-1.18x as long at 128 points, 0.71-0.99x at 144, 0.58-0.84x at 160
# and 0.54-0.56x at 176. Interval grids, which it cannot certify, took
# 1.3-2.0x as long at 128 points, 1.2-1.7x at 144, 1.0-1.1x at 176 and
# 0.7-1.4x from 192 to 320. The crossover is set by the clouds, the common
# untrusted input (balls and their glue): 144 is the first size they won in
# every run. From 64 to 104 points the screen's fixed cost (threads, their
# working memory) made clouds 1.0-1.45x and grids 1.9-2.8x slower.
SCREEN_MIN = 144
# At most this many workers screen at once. The CPU affinity overstates the
# CPUs a process gets under a cgroup quota, and surplus threads cost time:
# on a 2-vCPU machine (medians of 7 rounds at 802 points, 3 at 1601) the scan
# of a euclidean cloud took 0.14/1.04 s on 1 worker, 0.09/0.61 on 2,
# 0.09/0.65 on 3, 0.10/0.68 on 4, 0.11/0.89 on 6 and 0.14/1.06 on 12;
# pinned to one CPU, 0.16 s on 1 worker and 0.17 on 4 or 8. Four keeps that
# loss near 10% and the working memory of all workers under 3.2 MB up to
# 1601 points.
SCREEN_WORKERS = 4


def triangle_scan(dist: np.ndarray):
    """`worst_triangle_deficit(dist)`, bit for bit, for the matrices
    `validate_metric` scans: finite, symmetric, nonnegative, zero diagonal.

    Below SCREEN_MIN points it is that function. From there on an exact
    integer screen decides most pairs first. With 2^e the power of two that
    puts the largest entry in [2^14, 2^15), the screen is L = floor(s) as
    uint16 for s = d 2^e, with 2^15 on the diagonal. Scaling by 2^e is exact
    unless s falls below 2^-1022, and there s < 1, so L = 0 either way: thus
    L <= s < L + 1. A pair i < j is certified when min over k of
    L(i,k) + L(k,j) > L(i,j). The sums are integers, so for every k outside
    {i, j}
        s(i,k) + s(k,j) >= L(i,k) + L(k,j) >= L(i,j) + 1 > s(i,j),
    while k in {i, j} sums to 2^15 + L(i,j) and never decides. Off the
    diagonal L < 2^15, so no sum of a pair i != j wraps past 65535; only
    the masked diagonal cells can. Rounding to float64 is monotone and
    d(i,j) is a float64, so no float64 sum d(i,k) + d(k,j) falls below
    d(i,j), while k = i gives it exactly: the certified pair's float64
    deficit is exactly 0.

    Pairs left open are recomputed in float64 from their two rows; a block
    with more than SCREEN_OPEN_MAX of its cells open (a tight metric, such
    as a grid on a line) reruns the exact loop `_exact_block` instead. Each
    block reports the first pair i < j at its largest deficit, or
    (0.0, i0, i0) when none is positive, as `_exact_block` does, and
    `_worst` combines them as it does for `worst_triangle_deficit`.

    Blocks of TRIANGLE_TILE_ROWS rows are claimed in order by the workers,
    the caller being one of them (numpy releases the GIL inside its loops);
    `_workers` says how many. Each block's answer depends on the block
    alone and the answers are combined in block order, so the result does
    not depend on the number of workers, nor on how many of their threads
    could be started. The uint16 copy (2 n^2 bytes, filled through numpy's
    cast buffer, with no float64 temporary) is shared; each worker's
    temporaries are the slab of the block it scans and row-block vectors.
    """
    n = dist.shape[0]
    if n < SCREEN_MIN:
        return worst_triangle_deficit(dist)
    screen = np.empty((n, n), dtype=np.uint16)
    np.ldexp(dist, SCREEN_BITS - math.frexp(float(dist.max()))[1],
             out=screen, casting="unsafe")  # the cast truncates: the floor
    screen.reshape(-1)[::n + 1] = 1 << SCREEN_BITS
    rows = TRIANGLE_TILE_ROWS
    starts = range(0, n, rows)
    found = [None] * len(starts)
    claims = iter(range(len(starts)))
    lock = threading.Lock()
    errors = []

    def work():
        try:
            while True:
                with lock:
                    b = None if errors else next(claims, None)
                if b is None:
                    return
                i0 = starts[b]
                found[b] = _scan_block(dist, screen, i0, min(n, i0 + rows))
        except BaseException as exc:  # re-raised on the calling thread
            errors.append(exc)

    started = []
    try:
        for _ in range(_workers(n, len(starts)) - 1):
            t = threading.Thread(target=work)
            t.start()
            started.append(t)
    except RuntimeError:  # no thread to spare: those started share the blocks
        pass
    except BaseException as exc:  # stop the started workers, then re-raise
        errors.append(exc)
    work()
    for t in started:
        t.join()
    if errors:
        raise errors[0]
    return _worst(dist, found)


def _cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _workers(n, blocks):
    """Workers for the screen of n points in `blocks` row blocks: one per
    CPU, at most one per block and SCREEN_WORKERS in all, and no more than
    keep their working memory within the uint16 copy, though always two
    (the measured SCREEN_MIN assumes two). Each worker's working memory is
    taken as one slab of 8 TRIANGLE_TILE bytes, or a float64 row block if
    that is larger, and 21 bytes per cell of a row block: the screen's two
    uint16 minima, its bool mask and the exact loop's two float64 minima."""
    copy = 2 * n * n
    m = TRIANGLE_TILE_ROWS * n
    per = 8 * max(TRIANGLE_TILE, m) + 21 * m
    return min(_cpus(), blocks, SCREEN_WORKERS, max(2, copy // per))


def _scan_block(dist, screen, i0, i1):
    """(deficit, i, j) for rows i0:i1 against the columns j > i: the
    largest deficit of the block's pairs and the first pair that attains
    it, or (0.0, i0, i0) when none is positive. The open pairs are
    rechecked in chunks whose two gathered rows hold TRIANGLE_TILE
    elements."""
    n = dist.shape[0]
    opened = _block_minima(screen, i0, i1) <= screen[i0:i1, i0:]
    for r in range(opened.shape[0]):
        opened[r, :r + 1] = False  # only pairs i < j
    count = np.count_nonzero(opened)
    if count == 0:
        return 0.0, i0, i0
    if count > SCREEN_OPEN_MAX * opened.size:
        return _exact_block(dist, i0, i1)
    i, j = np.nonzero(opened)
    i += i0
    j += i0
    deficit = np.empty(count)
    per = max(1, TRIANGLE_TILE // (2 * n))
    with np.errstate(over="ignore"):  # a sum past the float range is inf
        for a in range(0, count, per):
            sums = dist[i[a:a + per]]
            sums += dist[j[a:a + per]]
            sums.min(axis=1, out=deficit[a:a + per])
    np.subtract(dist[i, j], deficit, out=deficit)
    best = int(np.argmax(deficit))
    if deficit[best] <= 0.0:
        return 0.0, i0, i0
    return float(deficit[best]), int(i[best]), int(j[best])


# Element budget of the ascent (4 MB): the p stored powers of its step
# matrix, p n^2 elements, and 4 b n for a block of b iterates (at most
# 1024), twice what the iterates and their potentials take. The plans of
# `_ascent_plan` were measured at this budget.
ASCENT_TILE = 1 << 19


def _ascent_plan(n, iterations):
    """(p, b): the powers A^(2^j), j < p, that the ascent on n points
    stores, and its iterates per block.

    p is the most powers a block of b iterates uses, 2^(p-1) < b, that
    leave room for max(64, 2^p) iterates; b then fills the budget. Where not
    even A and two iterates fit, p = 0 and b = 1. Measured on a 2-vCPU
    machine (euclidean clouds, 5000 iterations, medians of 5 in two runs),
    this gave (7, 300) at 201 points in 25-31 ms against 32-33 ms for
    (8, 128), 41 for (9, 64) and 46-55 for (10, 40); (2, 126) at 401 points
    in 136-156 ms against 173-177 ms for (3, 26), whose blocks are too
    short for their fixed cost; and (1, 67) at 601 points, 3000 iterations,
    in 423-475 ms against 540-618 ms for (0, 1)."""
    b = min(1024, iterations + 1)
    if b == 1 or n * n + 8 * n > ASCENT_TILE:
        return 0, 1
    p = (b - 1).bit_length()
    while p > 1 and p * n * n + 4 * max(64, 1 << p) * n > ASCENT_TILE:
        p -= 1
    return p, min(b, (ASCENT_TILE - p * n * n) // (4 * n))


def _ascent_powers(dist, step, p):
    """[A^(2^j) for j < p] for the ascent step
    A = I + 2 step (I - 11'/n) dist, by repeated squaring."""
    if p == 0:
        return []
    n = dist.shape[0]
    power = dist - dist.mean(axis=0)
    power *= 2.0 * step
    power[np.diag_indices(n)] += 1.0
    powers = [power]
    for _ in range(p - 1):
        powers.append(powers[-1] @ powers[-1])
    return powers


def _ascent_iterates(ws, powers):
    """Fill columns 1.. of `ws` from column 0: columns [m, 2m) are
    A^(2^j) times columns [0, m) while the stored powers reach, then columns
    come in chunks of c = 2^(p-1), each from the columns c earlier."""
    m = 1
    while m < ws.shape[1]:
        j = min(m.bit_length(), len(powers)) - 1
        c = 1 << j
        k = min(c, ws.shape[1] - m)
        np.matmul(powers[j], ws[:, m - c:m - c + k], out=ws[:, m:m + k])
        m += k


def ascent(dist, w0, iterations, step, blowup, grad_tol, stride):
    """Projected gradient ascent on the energy over the mass-1 affine slice.

    Iterate `it` has potential d = dist @ w, energy w @ d and projected
    gradient g = 2 (d - mean d); the next iterate is w + step g. The run
    exits at the first iteration whose best energy so far exceeds `blowup`
    ("blowup"), else whose max |g| is below `grad_tol` ("converged"), else
    at `iterations` ("maxiter"). It records (iteration, best value) every
    `stride` iterations and at the exit. Returns (rec_it, rec_val, best,
    best_w, status, last_it).

    The step is linear, w <- A w, so a block of b iterates comes from its
    first by matrix powers: once per call the kernel stores A^(2^j) for
    j < p (`_ascent_plan` picks p and b), and the block, one iterate per
    column of an n x b array, doubles from its first column through the
    stored powers, then goes on in chunks from the columns 2^(p-1) earlier
    (`_ascent_iterates`): a few matrix products per block over matrices that
    stay in cache. The potentials of the whole block are one product with
    dist, and the energies are those of the iterates as computed. Columns
    make the block's reductions (means, energies, max |g|) run along rows
    of b elements: on a block of 1024 iterates of five points they took
    15 us, against 165 us along rows of n. The next block starts from one
    plain step off the block's last iterate, so rounding does not compound
    across blocks. The best value moves only on a strict improvement, so a
    NaN energy never becomes the best, and the best measure is the iterate
    of the last strict improvement up to the exit. Where not even A and two
    iterates fit in ASCENT_TILE (from 721 points), p = 0 and b = 1: one
    product with dist per iteration and no copy of it.
    """
    n = w0.shape[0]
    p, b = _ascent_plan(n, iterations)
    block = np.empty((n, b))
    pots = np.empty((n, b))
    w = w0.copy()
    best, best_w = -np.inf, w.copy()
    max_rec = iterations // stride + 2
    rec_it = np.empty(max_rec, dtype=np.int64)
    rec_val = np.empty(max_rec)
    n_rec = 0
    it0 = 0
    # in a divergent run the iterates of a block past its exit may
    # overflow; they are computed with the block but never used
    with np.errstate(over="ignore", invalid="ignore"):
        powers = _ascent_powers(dist, step, p)
        while True:
            m = min(b, iterations + 1 - it0)
            ws = block[:, :m]
            ws[:, 0] = w
            _ascent_iterates(ws, powers)
            d = np.matmul(dist, ws, out=pots[:, :m])
            mean = d.sum(axis=0) / n
            vals = np.einsum("ij,ij->j", ws, d)
            bests = np.fmax.accumulate(np.concatenate(([best], vals)))
            improved = vals > bests[:-1]
            bests = bests[1:]
            blown = bests > blowup
            # max |g| without g: d - mean rounds monotonically in d
            flat = 2.0 * np.maximum(d.max(axis=0) - mean,
                                    mean - d.min(axis=0)) < grad_tol
            exits = np.flatnonzero(blown | flat)
            last = int(exits[0]) if exits.size else m - 1
            done = exits.size > 0 or it0 + last == iterations
            recs = np.arange((-it0) % stride, last + 1, stride)
            if done and (it0 + last) % stride:
                recs = np.append(recs, last)
            rec_it[n_rec:n_rec + recs.size] = it0 + recs
            rec_val[n_rec:n_rec + recs.size] = bests[recs]
            n_rec += recs.size
            best = float(bests[last])
            up = np.flatnonzero(improved[:last + 1])
            if up.size:
                best_w = ws[:, up[-1]].copy()
            if done:
                status = ("blowup" if blown[last] else
                          "converged" if flat[last] else "maxiter")
                return (rec_it[:n_rec], rec_val[:n_rec], best, best_w, status,
                        it0 + last)
            w = ws[:, -1] + step * (2.0 * (d[:, -1] - mean[-1]))
            it0 += m


# Rows per block of `blocked_cholesky`, and the largest order of a Strict
# certificate that is one `np.linalg.cholesky` and is solved by one LU solve
# (`qhm.classify`). Measured on a 2-vCPU machine (OpenBLAS, `m_constant` on
# balls, medians of 31 interleaved rounds): blocks of 32, 48, 64, 96 and 128
# rows took 1.65, 1.68, 1.64, 2.00 and 2.39 ms at 201 points, 4.43, 4.63,
# 4.84, 5.00 and 6.40 ms at 401, 14.6, 14.9, 15.2, 16.3 and 19.0 ms at 801,
# and 69, 68, 67, 69 and 73 ms at 1601. Of the three within noise, 64 keeps
# the most orders on the one-block path, where the LU solve costs less than
# inverting the block and refining: on clouds of 3-16 points refinement at
# every order read small-batch decision_p50_s 104 -> 157 us and wall_s
# 0.27 -> 0.41 s.
CHOLESKY_BLOCK = 64
EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True, eq=False)
class BlockedCholesky:
    """R'R = C + E for the matrix C that `blocked_cholesky` factored.

    upper: R, upper triangular. inverses: W_K, the computed inverse of each
    diagonal block L_KK = R_KK', in block order. panel_error: a bound on the
    2-norm of the part of E that the explicit inverses add (see
    `blocked_cholesky`).
    """

    upper: np.ndarray
    inverses: list
    panel_error: float

    def solve(self, x: np.ndarray) -> np.ndarray:
        """(R'R)^-1 x with each diagonal block inverted by its W_K, O(m^2):
        forward and back substitution a block of rows at a time, each block
        step two matrix-vector products."""
        r = self.upper
        starts = range(0, x.shape[0], CHOLESKY_BLOCK)
        z = np.empty_like(x)
        for a, inv in zip(starts, self.inverses):
            e = a + CHOLESKY_BLOCK
            z[a:e] = inv @ (x[a:e] - r[:a, a:e].T @ z[:a])
        y = np.empty_like(x)
        for a, inv in zip(reversed(starts), reversed(self.inverses)):
            e = a + CHOLESKY_BLOCK
            y[a:e] = inv.T @ (z[a:e] - r[a:e, e:] @ y[e:])
        return y


def blocked_cholesky(a: np.ndarray, shift: float) -> BlockedCholesky:
    """Factor C = a - shift I, for a symmetric `a`, into R'R with R upper
    triangular, or raise `np.linalg.LinAlgError` when a diagonal block is
    not positive definite. `a` is left as it is.

    Left-looking, over blocks K of CHOLESKY_BLOCK rows: the block's rows are
    updated from the rows of R above, C^_K = C_K - R_aK' R_a (one matmul);
    the diagonal block is factored, C^_KK = L_KK L_KK' (`np.linalg.cholesky`),
    and inverted, W_K = L_KK^-1 (`np.linalg.inv`); the panel right of it is
    R_K = W_K C^_K (one matmul), and R_KK = L_KK'. R is written a block of
    rows at a time into zeros, whose pages below the diagonal are never
    touched; C is never formed, since the shift only enters the diagonal
    blocks.

    An explicit inverse has no componentwise backward error bound, so the
    residual it leaves is measured: G_K = L_KK R_K - C^_K, one more matmul.
    With E_panel the symmetric matrix whose blocks right of the diagonal are
    the G_K, ||E_panel||_2 <= ||E_panel||_F = sqrt(2) ||G||_F. The computed
    G~_K = fl(fl(L_KK R_K) - C^_K) is within |G~_K| u / (1 - u) +
    gamma_nb |L_KK| |R_K| of G_K entrywise (u = eps / 2, nb the block
    rows, gamma_nb = nb u / (1 - nb u)), so

        panel_error = sqrt(2) (1 + m^2 eps) (||G~||_F / (1 - u)
                      + gamma_nb sum_K ||L_KK||_F ||R_K||_F)

    bounds ||E_panel||_2; the factor 1 + m^2 eps covers the rounding of the
    computed norms. With one block there is no panel, and panel_error is 0.
    """
    m = a.shape[0]
    nb = CHOLESKY_BLOCK
    r = np.zeros((m, m))
    inverses = []
    g_squares = 0.0
    products = 0.0
    for k0 in range(0, m, nb):
        k1 = min(m, k0 + nb)
        w = k1 - k0
        if k0:
            hat = a[k0:k1, k0:] - r[:k0, k0:k1].T @ r[:k0, k0:]
        else:
            hat = a[:k1]
        lower = np.linalg.cholesky(hat[:, :w] - shift * np.eye(w))
        inv = np.linalg.inv(lower)
        inverses.append(inv)
        r[k0:k1, k0:k1] = lower.T
        if k1 == m:
            break
        panel = np.matmul(inv, hat[:, w:], out=r[k0:k1, k1:])
        g = lower @ panel
        g -= hat[:, w:]
        g_squares += _squares(g)
        products += math.sqrt(_squares(lower) * _squares(panel))
    u = 0.5 * EPS
    gamma = nb * u / (1.0 - nb * u)
    panel_error = (math.sqrt(2.0) * (1.0 + m * m * EPS)
                   * (math.sqrt(g_squares) / (1.0 - u) + gamma * products))
    return BlockedCholesky(upper=r, inverses=inverses, panel_error=panel_error)


def _squares(a: np.ndarray) -> float:
    """The sum of squares of a 2-D array, a view included (`np.linalg.norm`
    copies a strided view first)."""
    return float(np.einsum("ij,ij->", a, a))


# The most iterations the Perron root iteration runs; it stops earlier once
# its Collatz-Wielandt bracket is narrower than PERRON_RTOL relative.
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

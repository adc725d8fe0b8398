"""Numeric kernels: the triangle scan, the projected-ascent oracle, the
triangular solves of a Cholesky factor and the Perron root bound.

All are plain numpy. The triangle scan works in slabs of a fixed element
budget; the ascent advances its linear recurrence a block of iterates at a
time; the triangular solves go a block of rows at a time.
"""

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

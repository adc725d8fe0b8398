"""Hot numeric kernels: pairwise energy sums, the triangle scan and the
projected-ascent loop.

The jitted versions (numba, nopython) of the energy sums and the ascent loop
are used by default; set ``QHM_PURE_NUMPY=1`` to force the vectorized numpy
fallbacks, e.g. when numba is unavailable. ``HAS_NUMBA`` reports which path is
active. The triangle scan has a single numpy implementation on both paths.

Energy sums run in fixed row-major pair order with Kahan-compensated
accumulation on the jitted path, so results are reproducible bit-for-bit on a
given platform. The numpy fallbacks use BLAS dot products; the two paths agree
to ~1e-14 relative, well inside every tolerance used by callers.
"""

import os

import numpy as np

# ascent loop exit status codes
ASCENT_MAXITER = 0
ASCENT_CONVERGED = 1
ASCENT_BLOWUP = 2


def _numba_wanted() -> bool:
    flag = os.environ.get("QHM_PURE_NUMPY", "").strip()
    return flag in ("", "0", "false", "no")


# -- pure numpy implementations (always defined) -----------------------------

def energy_bilinear_np(dist: np.ndarray, w1: np.ndarray, w2: np.ndarray) -> float:
    return float(w1 @ (dist @ w2))


def potential_np(dist: np.ndarray, w: np.ndarray) -> np.ndarray:
    return dist @ w


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


def ascent_np(dist, w0, iterations, step, blowup, grad_tol, stride):
    """Projected gradient ascent on the energy over the mass-1 affine slice.

    Records (iteration, best value, best measure) every `stride` iterations
    and at exit. Returns (rec_it, rec_val, rec_w, best, best_w, status,
    last_it) with status one of the ASCENT_* codes.
    """
    n = w0.shape[0]
    w = w0.copy()
    max_rec = iterations // stride + 3
    rec_it = np.empty(max_rec, dtype=np.int64)
    rec_val = np.empty(max_rec, dtype=np.float64)
    rec_w = np.empty((max_rec, n), dtype=np.float64)
    best = -np.inf
    best_w = w.copy()
    n_rec = 0
    status = ASCENT_MAXITER
    last_it = 0
    for it in range(iterations + 1):
        last_it = it
        d = dist @ w
        val = float(w @ d)
        if val > best:
            best = val
            best_w[:] = w
        g = 2.0 * (d - d.mean())
        done = False
        if best > blowup:
            status = ASCENT_BLOWUP
            done = True
        elif np.abs(g).max() < grad_tol:
            status = ASCENT_CONVERGED
            done = True
        elif it == iterations:
            status = ASCENT_MAXITER
            done = True
        if it % stride == 0 or done:
            rec_it[n_rec] = it
            rec_val[n_rec] = best
            rec_w[n_rec] = best_w
            n_rec += 1
        if done:
            break
        w = w + step * g
    return (rec_it[:n_rec], rec_val[:n_rec], rec_w[:n_rec], best, best_w,
            status, last_it)


# -- jitted implementations ---------------------------------------------------

HAS_NUMBA = False
if _numba_wanted():
    try:
        from numba import njit

        HAS_NUMBA = True
    except ImportError:
        HAS_NUMBA = False

if HAS_NUMBA:

    @njit(cache=True)
    def energy_bilinear_nb(dist, w1, w2):
        n = dist.shape[0]
        acc = 0.0
        comp = 0.0
        for i in range(n):
            wi = w1[i]
            for j in range(n):
                term = dist[i, j] * wi * w2[j]
                y = term - comp
                t = acc + y
                comp = (t - acc) - y
                acc = t
        return acc

    @njit(cache=True)
    def potential_nb(dist, w):
        n = dist.shape[0]
        out = np.empty(n, dtype=np.float64)
        for i in range(n):
            acc = 0.0
            comp = 0.0
            for j in range(n):
                term = dist[i, j] * w[j]
                y = term - comp
                t = acc + y
                comp = (t - acc) - y
                acc = t
            out[i] = acc
        return out

    @njit(cache=True)
    def ascent_nb(dist, w0, iterations, step, blowup, grad_tol, stride):
        n = w0.shape[0]
        w = w0.copy()
        max_rec = iterations // stride + 3
        rec_it = np.empty(max_rec, dtype=np.int64)
        rec_val = np.empty(max_rec, dtype=np.float64)
        rec_w = np.empty((max_rec, n), dtype=np.float64)
        best = -np.inf
        best_w = w.copy()
        n_rec = 0
        status = 0
        last_it = 0
        d = np.empty(n, dtype=np.float64)
        for it in range(iterations + 1):
            last_it = it
            for i in range(n):
                acc = 0.0
                for j in range(n):
                    acc += dist[i, j] * w[j]
                d[i] = acc
            val = 0.0
            for i in range(n):
                val += w[i] * d[i]
            if val > best:
                best = val
                for i in range(n):
                    best_w[i] = w[i]
            mean = 0.0
            for i in range(n):
                mean += d[i]
            mean /= n
            gmax = 0.0
            for i in range(n):
                g = 2.0 * (d[i] - mean)
                ag = abs(g)
                if ag > gmax:
                    gmax = ag
            done = False
            if best > blowup:
                status = 2
                done = True
            elif gmax < grad_tol:
                status = 1
                done = True
            elif it == iterations:
                status = 0
                done = True
            if it % stride == 0 or done:
                rec_it[n_rec] = it
                rec_val[n_rec] = best
                rec_w[n_rec] = best_w
                n_rec += 1
            if done:
                break
            for i in range(n):
                w[i] = w[i] + step * 2.0 * (d[i] - mean)
        return (rec_it[:n_rec], rec_val[:n_rec], rec_w[:n_rec], best, best_w,
                status, last_it)

    energy_bilinear_kernel = energy_bilinear_nb
    potential_kernel = potential_nb
    ascent_kernel = ascent_nb
else:
    energy_bilinear_kernel = energy_bilinear_np
    potential_kernel = potential_np
    ascent_kernel = ascent_np

"""Independent brute-force oracles used to freeze expected values.

Everything here is deliberately naive (plain Python double loops, no shared
code with the package kernels) so tests compare two unrelated evaluation
routes.
"""

import json

import numpy as np

from qhm import InvariantSolve, diameter, measure, potential


def brute_energy_bilinear(dist, w1, w2):
    n = len(w1)
    total = 0.0
    for i in range(n):
        for j in range(n):
            total += dist[i][j] * w1[i] * w2[j]
    return total


def brute_energy(dist, w):
    return brute_energy_bilinear(dist, w, w)


def brute_potential(dist, w):
    n = len(w)
    return np.array([sum(dist[i][j] * w[j] for j in range(n)) for i in range(n)])


def brute_max_mass_zero_energy(dist, samples, seed):
    """Max of I(alpha) over seeded random unit mass-zero coefficient vectors."""
    rng = np.random.default_rng(seed)
    n = dist.shape[0]
    alphas = rng.standard_normal((samples, n))
    alphas -= alphas.mean(axis=1, keepdims=True)
    norms = np.linalg.norm(alphas, axis=1)
    alphas = alphas[norms > 1e-12] / norms[norms > 1e-12, None]
    vals = np.einsum("si,ij,sj->s", alphas, dist, alphas)
    return float(vals.max())


def householder_basis(n):
    """The mass-zero basis Q formed explicitly: columns 1.. of
    H = I - 2 v v' / v'v with v = e1 - ones/sqrt(n)."""
    v = np.full(n, -1.0 / np.sqrt(n))
    v[0] += 1.0
    return (np.eye(n) - 2.0 * np.outer(v, v) / (v @ v))[:, 1:]


def brute_worst_triangle_deficit(dist):
    """Largest d(i,j) - (d(i,k) + d(k,j)) over all triples and the first
    triple (in i, j, k order) that attains it."""
    d = np.asarray(dist, dtype=np.float64).tolist()
    n = len(d)
    worst, at = -np.inf, (0, 0, 0)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                deficit = d[i][j] - (d[i][k] + d[k][j])
                if deficit > worst:
                    worst, at = deficit, (i, j, k)
    return worst, at[0], at[1], at[2]


def brute_ascent(dist, w0, iterations, step, blowup, grad_tol, stride):
    """Projected gradient ascent on the energy over the mass-1 affine slice,
    one matvec per iteration: the reference for the blocked kernel.

    Records (iteration, best value) every `stride` iterations and at exit.
    Returns (rec_it, rec_val, best, best_w, status, last_it) with status
    "blowup", "converged" or "maxiter".
    """
    w = w0.copy()
    max_rec = iterations // stride + 3
    rec_it = np.empty(max_rec, dtype=np.int64)
    rec_val = np.empty(max_rec, dtype=np.float64)
    best = -np.inf
    best_w = w.copy()
    n_rec = 0
    status = "maxiter"
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
            status = "blowup"
            done = True
        elif np.abs(g).max() < grad_tol:
            status = "converged"
            done = True
        elif it == iterations:
            status = "maxiter"
            done = True
        if it % stride == 0 or done:
            rec_it[n_rec] = it
            rec_val[n_rec] = best
            n_rec += 1
        if done:
            break
        w = w + step * g
    return rec_it[:n_rec], rec_val[:n_rec], best, best_w, status, last_it


def bordered_invariant_measure(space, tol=1e-9):
    """Solve the bordered system

        [ dist  -1 ] [w]   [0]
        [ 1'     0 ] [c] = [1]

    with an SVD least-squares solve: the reference for the solve from the
    eigenpairs of the classification. Returns None when the system is
    inconsistent beyond tol; singular-but-consistent systems yield the
    minimum-norm solution with unique=False.
    """
    n = space.n
    k = np.zeros((n + 1, n + 1))
    k[:n, :n] = space.dist
    k[:n, n] = -1.0
    k[n, :n] = 1.0
    b = np.zeros(n + 1)
    b[n] = 1.0
    z, _, rank, _ = np.linalg.lstsq(k, b, rcond=tol)
    w, c = z[:n], float(z[n])
    scale = max(1.0, diameter(space))
    sys_residual = float(np.abs(k @ z - b).max())
    if sys_residual > tol * scale:
        return None
    mu = measure(space, w)
    residual = float(np.abs(potential(space, mu) - c).max())
    return InvariantSolve(measure=mu, value=c, residual=residual,
                          unique=bool(rank == n + 1))


def _fmt17(x: float) -> str:
    return format(float(x), ".17g")


def reference_space_to_json(space):
    """The space JSON writer formatting one entry per Python call: the
    reference for the row-template writer."""
    rows = ",\n      ".join(
        "[" + ", ".join(_fmt17(v) for v in row) + "]" for row in space.dist)
    return (
        "{\n"
        f'  "name": {json.dumps(space.name)},\n'
        f'  "labels": {json.dumps(list(space.labels))},\n'
        f'  "matrix": [\n      {rows}\n  ]\n'
        "}\n"
    )

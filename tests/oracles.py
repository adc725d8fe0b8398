"""Independent brute-force oracles used to freeze expected values.

Everything here is deliberately naive (plain Python double loops, no shared
code with the package kernels) so tests compare two unrelated evaluation
routes.
"""

import numpy as np


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

"""Kernel checks: the jitted and numpy paths agree to tight tolerance, and the
tiled triangle scan matches a brute-force triple loop exactly."""

import numpy as np
import pytest

from qhm import _kernels, random_metric
from qhm._kernels import (
    TRIANGLE_TILE,
    TRIANGLE_TILE_ROWS,
    ascent_np,
    energy_bilinear_np,
    potential_np,
    worst_triangle_deficit,
)


requires_numba = pytest.mark.skipif(not _kernels.HAS_NUMBA,
                                    reason="numba path disabled")


def _instances(seed=0, count=25):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 30))
        dist = random_metric(n, int(rng.integers(10_000))).dist
        yield dist, rng.standard_normal(n), rng.standard_normal(n)


@requires_numba
def test_energy_bilinear_paths_agree():
    for dist, w1, w2 in _instances(1):
        a = _kernels.energy_bilinear_nb(dist, w1, w2)
        b = energy_bilinear_np(dist, w1, w2)
        assert a == pytest.approx(b, rel=1e-12, abs=1e-12)


@requires_numba
def test_potential_paths_agree():
    for dist, w, _ in _instances(2):
        a = _kernels.potential_nb(dist, w)
        b = potential_np(dist, w)
        assert np.allclose(a, b, rtol=1e-12, atol=1e-12)


@requires_numba
def test_ascent_paths_agree():
    rng = np.random.default_rng(4)
    for _ in range(5):
        n = int(rng.integers(2, 9))
        dist = random_metric(n, int(rng.integers(10_000))).dist
        w0 = np.full(n, 1.0 / n) + 1e-3 * rng.standard_normal(n)
        w0 -= (w0.sum() - 1.0) / n
        args = (dist, w0, 20_000, 0.05, 1e6, 1e-10, 1000)
        it_a, val_a, _, best_a, bw_a, st_a, last_a = _kernels.ascent_nb(*args)
        it_b, val_b, _, best_b, bw_b, st_b, last_b = ascent_np(*args)
        assert st_a == st_b
        assert best_a == pytest.approx(best_b, rel=1e-9, abs=1e-12)
        assert np.allclose(bw_a, bw_b, atol=1e-9)
        assert np.array_equal(it_a, it_b)


def test_kahan_compensation_beats_noise():
    # adversarial cancellation: tiny weights against one huge weight
    n = 64
    dist = random_metric(n, 0).dist
    w = np.full(n, 1e-9)
    w[0] = 1e9
    w2 = np.full(n, 1.0)
    from oracles import brute_energy_bilinear

    expected = brute_energy_bilinear(dist, w, w2)
    got = _kernels.energy_bilinear_kernel(dist, w, w2)
    assert got == pytest.approx(expected, rel=1e-9)


def test_numpy_fallback_env_flag(tmp_path):
    import subprocess
    import sys

    code = (
        "import qhm._kernels as k; "
        "assert not k.HAS_NUMBA; "
        "assert k.energy_bilinear_kernel is k.energy_bilinear_np; "
        "import qhm; "
        "d = qhm.m_constant(qhm.interval_grid(0, 1, 5)); "
        "assert abs(d.value - 0.5) < 1e-9; "
        "print('fallback-ok')"
    )
    env = {"QHM_PURE_NUMPY": "1", "PATH": "/usr/bin:/bin"}
    import os

    env.update({k: v for k, v in os.environ.items()
                if k not in ("QHM_PURE_NUMPY",)})
    env["QHM_PURE_NUMPY"] = "1"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert "fallback-ok" in out.stdout


# sizes at the edges of the row tiling: one point, one pair, one triple, one
# tile's rows minus one / exactly / plus one, two tiles plus three
TRIANGLE_SIZES = [1, 2, 3, TRIANGLE_TILE_ROWS - 1, TRIANGLE_TILE_ROWS,
                  TRIANGLE_TILE_ROWS + 1, 2 * TRIANGLE_TILE_ROWS + 3]


def _symmetric(n, kind, seed):
    """Symmetric zero-diagonal matrix. "violating" draws integers in [1, 4]
    (4 > 1 + 1, many ties), "tied" integers in [2, 3] (a metric whose every
    triple ties at deficit <= 0), "uniform" reals in [0.5, 3]."""
    rng = np.random.default_rng(seed)
    if kind == "violating":
        a = rng.integers(1, 5, (n, n)).astype(np.float64)
    elif kind == "tied":
        a = rng.integers(2, 4, (n, n)).astype(np.float64)
    else:
        a = rng.uniform(0.5, 3.0, (n, n))
    d = np.triu(a, 1)
    return d + d.T


def _assert_matches_oracle(dist):
    from oracles import brute_worst_triangle_deficit

    deficit, i, j, k = worst_triangle_deficit(dist)
    expected = brute_worst_triangle_deficit(dist)[0]
    assert deficit == expected
    assert dist[i, j] - (dist[i, k] + dist[k, j]) == deficit
    return deficit


@pytest.mark.parametrize("kind", ["violating", "tied", "uniform"])
@pytest.mark.parametrize("n", TRIANGLE_SIZES)
def test_triangle_deficit_matches_brute_force(n, kind):
    for seed in range(4):
        deficit = _assert_matches_oracle(_symmetric(n, kind, seed))
        if kind == "tied" or n < 3:
            assert deficit == 0.0


def test_triangle_deficit_finds_planted_violation():
    dist = _symmetric(2 * TRIANGLE_TILE_ROWS + 3, "tied", 0)
    dist[3, 17] = dist[17, 3] = 7.0
    assert _assert_matches_oracle(dist) == 3.0


@pytest.mark.parametrize("kind", ["violating", "uniform"])
def test_triangle_deficit_with_pivot_tiles(kind, monkeypatch):
    # a budget below one row block's width splits the pivots into many slabs
    monkeypatch.setattr(_kernels, "TRIANGLE_TILE", 64)
    for n in TRIANGLE_SIZES + [40]:
        _assert_matches_oracle(_symmetric(n, kind, n))


def test_triangle_deficit_pivot_split_at_default_tile():
    n = 97
    assert TRIANGLE_TILE // (TRIANGLE_TILE_ROWS * n) < n  # pivots do split
    for kind in ("violating", "uniform"):
        _assert_matches_oracle(_symmetric(n, kind, 5))


def test_triangle_deficit_stays_within_tile():
    import tracemalloc

    n = 600
    dist = _symmetric(n, "uniform", 0)
    tracemalloc.start()
    try:
        worst_triangle_deficit(dist)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one slab, numpy's ufunc buffer and a few row-block vectors; a single
    # n x n temporary would be 2.9 MB
    assert peak < 8 * (TRIANGLE_TILE + np.getbufsize() + 6 * TRIANGLE_TILE_ROWS * n)

"""Kernel checks: the tiled triangle scan matches a brute-force triple loop
exactly, the blocked ascent matches a one-step-at-a-time loop, the blocked
triangular solves match a dense solve, and the Perron bound brackets the
spectral radius from above."""

import numpy as np
import pytest

from qhm import (_kernels, energy_bilinear, euclidean_cloud, fixture, measure,
                 random_metric)
from qhm._kernels import (
    ASCENT_BLOWUP,
    ASCENT_CONVERGED,
    ASCENT_MAXITER,
    ASCENT_TILE,
    TRI_BLOCK,
    TRIANGLE_TILE,
    TRIANGLE_TILE_ROWS,
    ascent,
    ascent_block,
    cholesky_solver,
    perron_upper_bound,
    worst_triangle_deficit,
)
from qhm.msolver import ascent_step_default


def test_kahan_compensation_beats_noise():
    # adversarial cancellation: tiny weights against one huge weight
    n = 64
    space = random_metric(n, 0)
    w = np.full(n, 1e-9)
    w[0] = 1e9
    w2 = np.full(n, 1.0)
    from oracles import brute_energy_bilinear

    expected = brute_energy_bilinear(space.dist, w, w2)
    got = energy_bilinear(space, measure(space, w), measure(space, w2))
    assert got == pytest.approx(expected, rel=1e-9)


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


# -- blocked ascent against the one-step loop ---------------------------------

def _start(space, seed=0):
    """Kernel arguments as ascent_oracle builds them, with no blowup or
    convergence exit unless a test sets one."""
    n = space.n
    z = np.random.default_rng(seed).standard_normal(n)
    z -= z.mean()
    return {"dist": np.ascontiguousarray(space.dist),
            "w0": np.full(n, 1.0 / n) + 1e-3 * z,
            "step": ascent_step_default(space), "blowup": 1e300,
            "grad_tol": 0.0}


def _divergent():
    return _start(fixture("nw-thm2.9").space)  # 5 points, slow blowup


def _convergent():
    # 9 points; max |g| falls monotonically through iteration 1025
    return _start(fixture("interval-9").space)


def _matches_brute(iterations, stride, args):
    """Run both loops; status, exit iteration and record iterations are
    equal, values agree to rel 1e-9. Returns (status, exit iteration).

    The best measures agree more loosely: once the energy is flat to
    rounding, which iterate was the last strict improvement is a matter of
    the last bits of the energy."""
    from oracles import brute_ascent

    call = (args["dist"], args["w0"], iterations, args["step"],
            args["blowup"], args["grad_tol"], stride)
    it_a, val_a, w_a, best_a, bw_a, st_a, last_a = ascent(*call)
    it_b, val_b, w_b, best_b, bw_b, st_b, last_b = brute_ascent(*call)
    assert (st_a, last_a) == (st_b, last_b)
    assert np.array_equal(it_a, it_b)
    assert val_a == pytest.approx(val_b, rel=1e-9)
    assert best_a == pytest.approx(best_b, rel=1e-9)
    assert np.allclose(w_a, w_b, rtol=1e-7, atol=1e-7)
    assert np.allclose(bw_a, bw_b, rtol=1e-7, atol=1e-7)
    return st_a, last_a


def _blowup_at(t, args):
    """A threshold that the best value first exceeds at iteration t."""
    from oracles import brute_ascent

    vals = brute_ascent(args["dist"], args["w0"], max(t, 1), args["step"],
                        1e300, 0.0, 1)[1]
    if t == 0:
        return dict(args, blowup=vals[0] / 2)
    assert vals[t] > vals[t - 1]
    return dict(args, blowup=(vals[t - 1] + vals[t]) / 2)


def _grad_tol_at(t, args):
    """A gradient tolerance first met at iteration t."""
    dist, w, step = args["dist"], args["w0"], args["step"]
    gmax = []
    for _ in range(t + 1):
        d = dist @ w
        g = 2.0 * (d - d.mean())
        gmax.append(np.abs(g).max())
        w = w + step * g
    if t == 0:
        return dict(args, grad_tol=2.0 * gmax[0])
    above = min(gmax[:t])
    assert gmax[t] < above
    return dict(args, grad_tol=float(np.sqrt(gmax[t] * above)))


def test_ascent_single_point():
    args = {"dist": np.zeros((1, 1)), "w0": np.ones(1), "step": 1.0,
            "blowup": 1e6, "grad_tol": 1e-10}
    assert _matches_brute(10, 3, args) == (ASCENT_CONVERGED, 0)
    assert _matches_brute(10, 3, dict(args, grad_tol=0.0)) == (ASCENT_MAXITER, 10)
    # both exits at once: blowup takes precedence
    assert _matches_brute(10, 3, dict(args, blowup=-1.0)) == (ASCENT_BLOWUP, 0)


def test_ascent_fewer_iterations_than_a_block():
    assert ascent_block(5, 100) == 101 < ascent_block(5, 10**6)
    assert _matches_brute(100, 7, _divergent()) == (ASCENT_MAXITER, 100)


B = ascent_block(5, 10**6)  # the full block on five and on nine points
EXITS = [0, B - 1, B, B + 1]


@pytest.mark.parametrize("t", EXITS)
def test_ascent_maxiter_at_block_edges(t):
    # iterations = B - 1 and above all run blocks of B iterates
    assert _matches_brute(t, 100, _divergent()) == (ASCENT_MAXITER, t)


@pytest.mark.parametrize("t", EXITS + [B + B // 2])
def test_ascent_blowup_at_block_edges(t):
    args = _blowup_at(t, _divergent())
    assert _matches_brute(3 * B, 100, args) == (ASCENT_BLOWUP, t)


@pytest.mark.parametrize("t", EXITS + [B // 2 + 1])
def test_ascent_converges_at_block_edges(t):
    assert ascent_block(9, 10**6) == B
    args = _grad_tol_at(t, _convergent())
    assert _matches_brute(3 * B, 100, args) == (ASCENT_CONVERGED, t)


def test_ascent_default_tolerance_converges_inside_a_block():
    args = dict(_start(euclidean_cloud(
        np.random.default_rng(3).uniform(0.0, 1.0, (5, 3)))), grad_tol=1e-10)
    status, last = _matches_brute(100_000, 390, args)
    assert status == ASCENT_CONVERGED and 0 < last < B


def test_ascent_best_carried_across_blocks():
    # an overshooting step makes the iterates oscillate and grow, below the
    # best value reached early, so later blocks record the best measure
    # carried in from the first
    args = _convergent()
    args["step"] *= 3.5
    assert _matches_brute(B + 300, 100, args) == (ASCENT_MAXITER, B + 300)


@pytest.mark.parametrize("stride", [1, 7, 1000, B, B + 1, 3000])
def test_ascent_record_strides(stride):
    # strides that divide the block, that do not, and longer than it
    _matches_brute(4 * B + 5, stride, _divergent())
    _matches_brute(4 * B + 5, stride, _blowup_at(2 * B + 3, _divergent()))


@pytest.mark.parametrize("blocks", [1, 2])
def test_ascent_with_tiny_blocks(blocks, monkeypatch):
    monkeypatch.setattr(_kernels, "ASCENT_TILE", blocks * 25)
    assert ascent_block(5, 100) == blocks
    for stride in (1, 3):
        assert _matches_brute(60, stride, _divergent()) == (ASCENT_MAXITER, 60)
        for t in (0, 1, 2, 7):
            args = _blowup_at(t, _divergent())
            assert _matches_brute(60, stride, args) == (ASCENT_BLOWUP, t)
    monkeypatch.setattr(_kernels, "ASCENT_TILE", blocks * 81)
    for t in (0, 1, 2, 7):
        args = _grad_tol_at(t, _convergent())
        assert _matches_brute(60, 2, args) == (ASCENT_CONVERGED, t)


def test_ascent_nan_energy_never_becomes_best():
    args = _divergent()
    w0 = args["w0"].copy()
    w0[0] = np.nan
    it, vals, _, best, _, status, last = ascent(
        args["dist"], w0, 2 * B, args["step"], 1e6, 1e-10, 500)
    assert (status, last) == (ASCENT_MAXITER, 2 * B)
    assert best == -np.inf and (vals == -np.inf).all()


@pytest.mark.parametrize("n", [201, 801])
def test_ascent_stack_is_the_only_large_allocation(n):
    import tracemalloc

    space = euclidean_cloud(np.random.default_rng(n).uniform(0.0, 1.0, (n, 3)))
    args = _start(space)
    b = ascent_block(n, 10**6)
    if b > 1:
        assert b * n * n <= ASCENT_TILE  # at most 4 MB
    stack = b * n * n if b > 1 else 0  # with b = 1 the stack is dist itself
    tracemalloc.start()
    try:
        ascent(args["dist"], args["w0"], 3 * b, args["step"], 1e6, 0.0, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # besides the stack: A and its square while it is built, and a few
    # vectors of the block (potentials, gradients, iterates, records)
    assert peak < 8 * (stack + 3 * n * n * (b > 1) + 16 * b * n + 8 * n)


# one row, one block minus one / exactly / plus one, two blocks plus three
@pytest.mark.parametrize("m", [1, TRI_BLOCK - 1, TRI_BLOCK, TRI_BLOCK + 1,
                               2 * TRI_BLOCK + 3])
def test_cholesky_solver_matches_dense_solve(m):
    rng = np.random.default_rng(m)
    a = rng.standard_normal((m, m))
    spd = a @ a.T + m * np.eye(m)
    lower = np.linalg.cholesky(spd)
    x = rng.standard_normal(m)
    expected = np.linalg.solve(spd, x)
    got = cholesky_solver(lower)(x)
    assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()


PERRON_SPACES = ["nw-thm2.9", "nw-thm2.9a", "fourpoint-antipodal",
                 "interval-2", "interval-5", "circle-4", "circle-8",
                 "circle-16", "ball3-2"]


@pytest.mark.parametrize("key", PERRON_SPACES)
def test_perron_upper_bound_on_fixtures(key):
    d = fixture(key).space.dist
    rho = float(np.abs(np.linalg.eigvalsh(d)).max())
    bound = perron_upper_bound(d)
    assert rho <= bound <= rho * (1.0 + 1e-12)


def test_perron_upper_bound_on_random_spaces():
    rng = np.random.default_rng(12)
    for k in range(30):
        d = (random_metric(int(rng.integers(2, 40)), k).dist if k % 2 else
             euclidean_cloud(rng.uniform(size=(int(rng.integers(2, 60)), 3))).dist)
        rho = float(np.abs(np.linalg.eigvalsh(d)).max())
        assert rho <= perron_upper_bound(d) <= rho * (1.0 + 1e-12)


def test_perron_upper_bound_at_iteration_cap(monkeypatch):
    # stopped early, the upper end of the bracket is still above rho
    monkeypatch.setattr(_kernels, "PERRON_MAX_ITER", 2)
    d = fixture("nw-thm2.9a").space.dist
    rho = float(np.abs(np.linalg.eigvalsh(d)).max())
    assert perron_upper_bound(d) >= rho

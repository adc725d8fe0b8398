"""Kernel checks: the tiled triangle scan matches a brute-force triple loop
exactly, and the screened scan matches both bit for bit; the blocked ascent
matches a one-step-at-a-time loop, the blocked Cholesky factorization and
its solves match a dense solve, and the Perron bound brackets the spectral
radius from above."""

import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhm import (GlueSpec, _kernels, diameter, energy_bilinear,
                 euclidean_cloud, fixture, glue, interval_grid, measure,
                 random_metric, regular_polygon_arc, validate_metric)
import qhm.spaces
from qhm._kernels import (
    ASCENT_TILE,
    CHOLESKY_BLOCK,
    SCREEN_MIN,
    SCREEN_WORKERS,
    TRIANGLE_TILE,
    TRIANGLE_TILE_ROWS,
    ascent,
    blocked_cholesky,
    perron_upper_bound,
    triangle_scan,
    worst_triangle_deficit,
)
from qhm.errors import TriangleViolationError
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


# -- the screened scan against the slab loop and brute force ------------------

# A size the screen takes, of 26 row blocks.
SCREENED = 208


@pytest.fixture
def small_screen(monkeypatch):
    """The screen on every size, in blocks of 3 rows and slabs of a few
    pivots, so that small matrices cross many block and slab edges."""
    monkeypatch.setattr(_kernels, "SCREEN_MIN", 1)
    monkeypatch.setattr(_kernels, "TRIANGLE_TILE_ROWS", 3)
    monkeypatch.setattr(_kernels, "TRIANGLE_TILE", 64)


def _assert_scan_matches(dist, brute=True):
    """triangle_scan returns worst_triangle_deficit's tuple, and the brute
    force's (the first triple in i, j, k order at the largest deficit)."""
    from oracles import brute_worst_triangle_deficit

    got = triangle_scan(dist)
    assert got == worst_triangle_deficit(dist)
    if brute:
        assert got == brute_worst_triangle_deficit(dist)
    return got


def _tied_with(n, plants, seed=0):
    """The "tied" metric (entries 2 and 3, every deficit <= 0) with the
    given pairs set to 7: each then has deficit 3, the largest."""
    dist = _symmetric(n, "tied", seed)
    for i, j in plants:
        dist[i, j] = dist[j, i] = 7.0
    return dist


@pytest.mark.parametrize("open_max", [0.0, 0.25, 1.0])
@pytest.mark.parametrize("kind", ["violating", "tied", "uniform"])
@pytest.mark.parametrize("n", TRIANGLE_SIZES)
def test_scan_matches_on_symmetric_kinds(n, kind, open_max, small_screen,
                                         monkeypatch):
    # open_max 0 reruns every block with an open pair exactly, 1 rechecks
    # every open pair on its own
    monkeypatch.setattr(_kernels, "SCREEN_OPEN_MAX", open_max)
    for seed in range(4):
        deficit = _assert_scan_matches(_symmetric(n, kind, seed))[0]
        if kind == "tied" or n < 3:
            assert deficit == 0.0


@pytest.mark.parametrize("n", [SCREEN_MIN - 1, SCREEN_MIN])
def test_scan_on_both_sides_of_the_crossover(n, monkeypatch):
    blocks = []
    scan_block = _kernels._scan_block

    def counted(*args):
        blocks.append(args[2])
        return scan_block(*args)

    monkeypatch.setattr(_kernels, "_scan_block", counted)
    for kind in ("violating", "tied", "uniform"):
        _assert_scan_matches(_symmetric(n, kind, n), brute=False)
    # below the crossover the slab loop runs alone, with no screen
    assert len(blocks) == (0 if n < SCREEN_MIN
                           else 3 * len(range(0, n, TRIANGLE_TILE_ROWS)))


def _scan_passes(dist, monkeypatch):
    """triangle_scan(dist), checked against worst_triangle_deficit, and the
    dtypes of the `_block_minima` passes the scan alone made (the reference
    runs the same routine)."""
    passes = []
    block_minima = _kernels._block_minima

    def counted(x, *args):
        passes.append(x.dtype)
        return block_minima(x, *args)

    with monkeypatch.context() as patch:
        patch.setattr(_kernels, "_block_minima", counted)
        got = triangle_scan(dist)
    assert got == worst_triangle_deficit(dist)
    return got, passes


def test_screen_leaves_loose_metrics_to_the_pair_recheck(monkeypatch):
    # random entries in [1, 2], and a cloud in the unit cube whose nearly
    # collinear triples leave a few pairs open: no block reruns the exact
    # loop. (A planar cloud of this size leaves most pairs open at 2^-15 of
    # its diameter, and its blocks rerun.)
    n = SCREEN_MIN + 50
    cloud = euclidean_cloud(np.random.default_rng(6).uniform(size=(n, 3)))
    passes = []
    for dist in (random_metric(n, 4).dist, cloud.dist):
        passes += _scan_passes(dist, monkeypatch)[1]
    assert passes == [np.uint16] * (2 * len(range(0, n, TRIANGLE_TILE_ROWS)))


@pytest.mark.parametrize("plants", [
    [(0, 1)], [(0, 18)], [(17, 18)], [(5, 18)], [(0, 9)],
    [(17, 18), (0, 18)],  # the same deficit twice: the first pair wins
    [(9, 12), (1, 18), (0, 2)],
])
def test_scan_finds_planted_violations_at_the_edges(plants, small_screen):
    dist = _tied_with(19, plants)
    assert _assert_scan_matches(dist)[:3] == (3.0,) + min(plants)


def test_scan_finds_planted_violations_at_full_size():
    n = SCREEN_MIN + 5
    for plants in ([(0, 1)], [(0, n - 1)], [(n - 2, n - 1)],
                   [(n - 2, n - 1), (1, n - 1)]):
        dist = _tied_with(n, plants)
        assert _assert_scan_matches(dist, brute=False)[:3] == (3.0,) + min(plants)


@pytest.mark.parametrize("n", [SCREENED, 2 * SCREENED + 1])
def test_scan_on_tight_families(n, monkeypatch):
    # every pair is tight (grids, arcs), so the screen leaves them open and
    # the blocks rerun the exact loop; the "tied" kind has no positive
    # deficit either
    blocks = len(range(0, n, TRIANGLE_TILE_ROWS))
    for dist in (interval_grid(0.0, 1.0, n).dist, regular_polygon_arc(n).dist):
        got, passes = _scan_passes(dist, monkeypatch)
        assert got[0] == 0.0
        # every block screened, and all but perhaps the last (a corner of
        # few pairs) rerun
        assert passes.count(np.uint16) == blocks
        assert passes.count(np.float64) >= blocks - 1
    assert _assert_scan_matches(_symmetric(n, "tied", 1), brute=False)[0] == 0.0


def test_one_exact_block_routine(monkeypatch):
    # the reference runs the exact block routine once per row block, the
    # screen once per block it reruns: every block of a grid but perhaps
    # the last, no block of a loose metric
    n = SCREEN_MIN + 3
    starts = list(range(0, n, TRIANGLE_TILE_ROWS))
    grid = interval_grid(0.0, 1.0, n).dist
    loose = random_metric(n, 4).dist
    expected = [worst_triangle_deficit(d) for d in (grid, loose)]
    calls = []
    exact_block = _kernels._exact_block

    def counted(dist, i0, *args):
        calls.append(i0)
        return exact_block(dist, i0, *args)

    monkeypatch.setattr(_kernels, "_exact_block", counted)
    assert worst_triangle_deficit(grid) == expected[0]
    assert calls == starts
    calls.clear()
    assert triangle_scan(grid) == expected[0]
    assert len(calls) >= len(starts) - 1
    assert len(set(calls)) == len(calls) and set(calls) <= set(starts)
    calls.clear()
    assert triangle_scan(loose) == expected[1]
    assert calls == []


def test_scan_on_tight_and_loose_blocks_mixed():
    # a grid glued to a cloud: blocks switch between the exact loop and the
    # screen, and a planted violation sits in the cloud's rows
    grid = interval_grid(0.0, 1.0, 150)
    cloud = euclidean_cloud(np.random.default_rng(2).uniform(0.0, 1.0, (150, 3)))
    dist = glue(GlueSpec(grid, cloud, 1.0)).dist.copy()
    _assert_scan_matches(dist, brute=False)
    dist[200, 290] = dist[290, 200] = 1.9
    assert _assert_scan_matches(dist, brute=False)[0] > 0.0
    dist = glue(GlueSpec(cloud, grid, 1.0)).dist.copy()
    dist[3, 290] = dist[290, 3] = 1.9
    assert _assert_scan_matches(dist, brute=False)[0] > 0.0


def _scaled(dist, top):
    """dist with its largest entry mapped to `top`; integer matrices scaled
    to the smallest subnormal are exact multiples of it."""
    if top == 5e-324:
        return dist * top
    return dist * (top / dist.max())


SCALES = [5e-324, 1e-300, 1e300, 1.7e308]


@pytest.mark.parametrize("top", SCALES)
@pytest.mark.parametrize("kind", ["violating", "tied", "uniform"])
def test_scan_at_extreme_scales(kind, top, small_screen):
    for n in (3, 19):
        for seed in range(3):
            dist = _symmetric(n, kind, seed)
            if kind == "uniform" and top == 5e-324:
                dist = np.round(dist * 4.0)  # integers, exact in subnormals
            _assert_scan_matches(_scaled(dist, top))


@pytest.mark.parametrize("top", SCALES)
def test_scan_at_extreme_scales_full_size(top):
    n = SCREEN_MIN + 3
    for kind in ("violating", "uniform"):
        dist = _symmetric(n, kind, 7)
        if top == 5e-324:
            dist = np.round(dist * 4.0)
        _assert_scan_matches(_scaled(dist, top), brute=False)
    grid = interval_grid(0.0, 1.0, n).dist
    _assert_scan_matches(_scaled(grid, top), brute=False)


@pytest.mark.parametrize("n", [9, 200])
def test_validate_metric_near_the_float_limit(n):
    # sums of two entries past the float range are inf, which shows no
    # violation: no overflow warning escapes, in the slab loop, in the
    # screen's pair recheck or in the choice of k, and a violation among
    # such entries is found with the triple of the unwarned scan
    grid = interval_grid(-8e307, 8e307, n).dist
    validate_metric(grid)
    cloud = euclidean_cloud(np.random.default_rng(0).uniform(0.0, 1.0, (n, 3)))
    validate_metric(cloud.dist * 1e308)
    dist = grid.copy()
    dist[0, n - 1] = dist[n - 1, 0] = 1.79e308
    with pytest.raises(TriangleViolationError) as exc:
        validate_metric(dist)
    assert exc.value.triple == (0, n - 1, 1)
    assert exc.value.deficit == 1.79e308 - (dist[0, 1] + dist[1, n - 1])


@pytest.mark.parametrize("n", [19, SCREENED + 2])
def test_scan_with_subnormal_entries_beside_normal_ones(n, monkeypatch):
    # a cluster of points subnormally close together, far from the others:
    # in the integer screen their distances are 0 and stay open
    if n < SCREEN_MIN:
        monkeypatch.setattr(_kernels, "SCREEN_MIN", 1)
        monkeypatch.setattr(_kernels, "TRIANGLE_TILE_ROWS", 3)
    dist = _symmetric(n, "tied", 3)
    tiny = [1, 4, n - 1]
    for a in tiny[1:]:  # the same distances to every other point
        dist[a, :] = dist[:, a] = dist[1, :]
    for a, b in [(1, 4), (1, n - 1), (4, n - 1)]:
        dist[a, b] = dist[b, a] = 2e-320
    np.fill_diagonal(dist, 0.0)
    assert _assert_scan_matches(dist, brute=n < 50)[0] == 0.0
    dist[1, n - 1] = dist[n - 1, 1] = 5e-320  # > 2e-320 + 2e-320
    got = _assert_scan_matches(dist, brute=n < 50)
    assert got[:3] == (5e-320 - 4e-320, 1, n - 1) and got[3] in tiny


@pytest.mark.parametrize("n", [1, 2, 3])
def test_scan_on_one_two_and_three_points(n, small_screen):
    for kind in ("violating", "uniform"):
        for seed in range(3):
            _assert_scan_matches(_symmetric(n, kind, seed))
    assert triangle_scan(np.zeros((1, 1))) == (0.0, 0, 0, 0)


def _rounds_up_below(v):
    """A float64 at most v that rounds up when converted to float32."""
    low = np.float32(v)
    if float(low) > v:
        low = np.nextafter(low, np.float32(-np.inf))
    while True:
        up = np.nextafter(low, np.float32(np.inf))
        x = float(low) + (float(up) - float(low)) * 0.5000001
        if x <= v:
            return x
        low = np.nextafter(low, np.float32(-np.inf))


@pytest.mark.parametrize("bits", [21, 22, 23, 24, 25, 26, 30, 40])
def test_scan_sees_violations_hidden_by_float32_rounding(bits, small_screen):
    # d(i,k) and d(k,j) round up to float32 while d(i,j) is a float32 or
    # rounds down: a float32 sum could reach d(i,j) although the exact one
    # is short of it by at least 2^-bits relative, below one unit of the
    # integer screen too. The screen must leave every such pair open.
    rng = np.random.default_rng(bits)
    for trial in range(40):
        if trial % 4 < 2:
            target = float(np.float32(rng.uniform(9.0, 16.0)))
            x = rng.uniform(0.3, 0.7) * target
        else:  # the worst case: every mantissa just above a power of two
            target = float(np.float32(16.0 + rng.uniform(0.0, 2.0 ** -6)))
            x = target / 2.0 * (1.0 + rng.uniform(-2.0 ** -12, 2.0 ** -12))
        if trial % 2:  # d(i,j) rounds down to float32 by almost half an ulp
            up = float(np.nextafter(np.float32(target), np.float32(np.inf)))
            target += (up - target) * 0.4999999
        x = _rounds_up_below(x)
        y = _rounds_up_below(target * (1.0 - 2.0 ** -bits) - x)
        # other entries within 5% above the target: a metric apart from
        # the planted triple, with every other sum at least twice it
        dist = target * (1.0 + 0.05 * _symmetric(19, "uniform", trial) / 3.0)
        np.fill_diagonal(dist, 0.0)
        i, k, j = rng.choice(19, 3, replace=False)
        dist[i, j] = dist[j, i] = target
        dist[i, k] = dist[k, i] = x
        dist[k, j] = dist[j, k] = y
        deficit = _assert_scan_matches(dist)[0]
        assert deficit == target - (x + y) > 0.0


# Powers of two that become the screen's unit: the adversary's largest entry
# is below 2^15 units and at least 2^14.
UNITS = [2.0 ** -1074, 2.0 ** -1022, 1.0, 2.0 ** 1000]


def _quantization_adversary(rng, unit, trial):
    """19 points, every entry an integer number of units in [T, 1.05 T],
    T = 24576, apart from one planted triple (i, k, j) whose exact deficit
    is positive and below one unit, or exactly one unit where every entry
    is an integer number of units; the sub-unit triples put L(i,k) + L(k,j)
    at L(i,j) or would pass it if entries were rounded to nearest. A
    cluster of three points 2e-320, 2e-320 and 3e-320 apart shares the rows
    of the first: subnormal entries beside normal ones from the unit
    2^-1022 on. Returns the matrix and (i, k, j)."""
    n, t = 19, 24576
    a = rng.integers(t, 1.05 * t, (n, n)).astype(np.float64)
    units = np.triu(a, 1) + np.triu(a, 1).T
    i, k, j, c0, c1, c2 = (int(v) for v in rng.choice(n, 6, replace=False))
    top = int(rng.integers(2 ** 14, 2 ** 15 - 1))  # L(i,j)
    left = int(rng.integers(top // 3, 2 * top // 3))
    if unit == UNITS[0] or trial % 4 == 0:  # all integers, deficit 1 unit
        target, x, y = top, left, top - left - 1
    elif trial % 4 == 1:  # d(i,j) an integer, d(k,j) just below one
        target, x, y = top, left, top - left - rng.uniform(0.0, 1.0)
    elif trial % 4 == 2:  # L(i,k) + L(k,j) = L(i,j), deficit below a unit
        frac = rng.uniform(0.5, 1.0)
        fx = rng.uniform(0.0, frac)
        target = top + frac
        x = left + fx
        y = top - left + rng.uniform(0.0, frac - fx)
    else:  # rounded to nearest, L(i,k) + L(k,j) would pass L(i,j)
        frac = rng.uniform(0.1, 0.5)
        target = top + frac
        x = left + 0.5 + rng.uniform(0.01, 0.5) * frac
        y = top - left - 0.5 + rng.uniform(0.01, 0.5) * frac
    units[i, j] = units[j, i] = target
    units[i, k] = units[k, i] = x
    units[k, j] = units[j, k] = y
    dist = units * unit
    for c in (c1, c2):  # the cluster shares the first point's distances
        dist[c, :] = dist[:, c] = dist[c0, :]
    for p, q, v in ((c0, c1, 2e-320), (c0, c2, 2e-320), (c1, c2, 3e-320)):
        dist[p, q] = dist[q, p] = v
    np.fill_diagonal(dist, 0.0)
    return dist, (i, k, j)


@pytest.mark.parametrize("unit", UNITS)
def test_scan_sees_violations_below_one_screen_unit(unit, small_screen):
    # L(i,k) + L(k,j) reaches L(i,j) although the exact sum is short of
    # d(i,j): the screen must leave the pair open, and the recheck or the
    # rerun must find its deficit
    rng = np.random.default_rng(int(np.log2(unit)) + 1074)
    for trial in range(30):
        dist, (i, k, j) = _quantization_adversary(rng, unit, trial)
        deficit = dist[i, j] - (dist[i, k] + dist[k, j])
        assert deficit > 0.0
        if unit == UNITS[0] or trial % 4 == 0:
            assert deficit == unit
        else:
            assert deficit < unit
        got = _assert_scan_matches(dist)
        assert got[:3] == (deficit, min(i, j), max(i, j))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 30), st.integers(-1074, 1000), st.integers(0, 3),
       st.integers(0, 2 ** 32 - 1))
def test_scan_matches_the_slab_loop_on_random_matrices(n, exponent, kind,
                                                      seed):
    # small integers (ties and violations), reals, reals of two scales and
    # entries scaled toward the subnormals or far above 1, in the screen
    # on every size
    rng = np.random.default_rng(seed)
    if kind == 0:
        a = rng.integers(0, 5, (n, n)).astype(np.float64)
    elif kind == 1:
        a = rng.uniform(0.0, 3.0, (n, n))
    elif kind == 2:
        a = rng.uniform(1.0, 2.0, (n, n)) * 2.0 ** rng.integers(-60, 1, (n, n))
    else:
        a = rng.integers(2 ** 14, 2 ** 15, (n, n)).astype(np.float64)
    dist = np.ldexp(np.triu(a, 1) + np.triu(a, 1).T, exponent)
    with mock.patch.object(_kernels, "SCREEN_MIN", 1):
        assert triangle_scan(dist) == worst_triangle_deficit(dist)


def test_worker_count_does_not_change_the_result(monkeypatch):
    n = SCREEN_MIN + 21
    cases = [_symmetric(n, kind, 2) for kind in ("violating", "tied", "uniform")]
    cases.append(_tied_with(n, [(n - 3, n - 1), (40, 100)]))
    cases.append(interval_grid(0.0, 1.0, n).dist)
    for dist in cases:
        results = set()
        for workers in (1, 2, 3):
            monkeypatch.setattr(_kernels, "_workers", lambda n, b: workers)
            results.add(triangle_scan(dist))
        assert results == {worst_triangle_deficit(dist)}


def test_every_block_claimed_once_under_thread_churn(monkeypatch):
    # more workers than CPUs and a switch every microsecond: each block is
    # scanned exactly once and the result is unchanged
    import sys
    import threading

    claimed = []
    scan_block = _kernels._scan_block

    def counted(dist, screen, i0, *rest):
        claimed.append(i0)
        return scan_block(dist, screen, i0, *rest)

    monkeypatch.setattr(_kernels, "_scan_block", counted)
    monkeypatch.setattr(_kernels, "_workers", lambda n, blocks: 8)
    monkeypatch.setattr(_kernels, "TRIANGLE_TILE_ROWS", 2)
    dist = _tied_with(SCREEN_MIN + 9, [(SCREEN_MIN, SCREEN_MIN + 8)])
    got = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(target=lambda: got.append(triangle_scan(dist)))
        runner.start()
        runner.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    assert got == [worst_triangle_deficit(dist)]
    assert sorted(claimed) == list(range(0, dist.shape[0], 2))


def test_worker_error_reaches_the_caller(monkeypatch):
    scan_block = _kernels._scan_block

    def failing(dist, screen, i0, *rest):
        if i0 == 5 * TRIANGLE_TILE_ROWS:
            raise FloatingPointError("block 5")
        return scan_block(dist, screen, i0, *rest)

    monkeypatch.setattr(_kernels, "_scan_block", failing)
    monkeypatch.setattr(_kernels, "_cpus", lambda: 2)
    with pytest.raises(FloatingPointError, match="block 5"):
        triangle_scan(_symmetric(SCREEN_MIN + 1, "uniform", 0))


@pytest.mark.parametrize("n", [SCREENED + 1, 301])
def test_validate_metric_at_the_tolerance_edges(n, monkeypatch):
    # a single violation of deficit delta: raised exactly when delta > tol,
    # with the triple and the message of the slab loop. The largest entry
    # is 4, a power of two, so tol = TRIANGLE_TOL_REL * 4 is exact and
    # TRIANGLE_TOL_REL = tol / 4 sets every edge
    dist = random_metric(n, 8).dist.copy()  # entries in [1, 2]
    a, b = n // 3, n - 2
    dist[a, b] = dist[b, a] = 4.0
    delta, i, j, k = worst_triangle_deficit(dist)
    assert delta > 0.0 and (i, j) == (a, b)
    assert triangle_scan(dist) == (delta, i, j, k)
    for tol in (delta, float(np.nextafter(delta, np.inf))):
        monkeypatch.setattr(qhm.spaces, "TRIANGLE_TOL_REL", tol / 4.0)
        validate_metric(dist)
    tol = float(np.nextafter(delta, 0.0))
    monkeypatch.setattr(qhm.spaces, "TRIANGLE_TOL_REL", tol / 4.0)
    with pytest.raises(TriangleViolationError) as exc:
        validate_metric(dist)
    assert str(exc.value) == (f"d({i},{j}) exceeds d({i},{k}) + d({k},{j}) "
                              f"by {delta} > {tol}")
    assert exc.value.triple == (i, j, k) and exc.value.deficit == delta


class _FlakyThread(threading.Thread):
    """A thread whose start fails, with `error`, once `allowed` threads
    have started; `started` lists those that did."""
    allowed, error, started = 0, RuntimeError, []

    def start(self):
        if len(self.started) >= self.allowed:
            raise self.error("can't start new thread")
        super().start()
        self.started.append(self)


@pytest.mark.parametrize("allowed", [0, 1, 2])
def test_scan_runs_on_the_threads_it_could_start(allowed, monkeypatch):
    # a process out of threads: the workers that started and the caller
    # share the blocks, and every started worker is joined
    monkeypatch.setattr(_kernels, "_workers", lambda n, blocks: 4)
    for dist in (_tied_with(SCREEN_MIN + 9, [(40, SCREEN_MIN + 8)]),
                 interval_grid(0.0, 1.0, SCREEN_MIN + 9).dist):
        flaky = type("Flaky", (_FlakyThread,),
                     {"allowed": allowed, "started": []})
        monkeypatch.setattr(_kernels.threading, "Thread", flaky)
        assert triangle_scan(dist) == worst_triangle_deficit(dist)
        assert len(flaky.started) == allowed
        assert not any(t.is_alive() for t in flaky.started)


def test_scan_stops_its_workers_when_a_start_is_interrupted(monkeypatch):
    class Interrupt(BaseException):
        pass

    # the started worker scans only once the second start has failed
    gate = threading.Event()
    claimed = []
    scan_block = _kernels._scan_block

    def counted(dist, screen, i0, *rest):
        claimed.append(i0)
        gate.wait(timeout=60)
        return scan_block(dist, screen, i0, *rest)

    class Flaky(_FlakyThread):
        allowed, error, started = 1, Interrupt, []

        def start(self):
            if self.started:
                gate.set()
            super().start()

    monkeypatch.setattr(_kernels.threading, "Thread", Flaky)
    monkeypatch.setattr(_kernels, "_workers", lambda n, blocks: 3)
    monkeypatch.setattr(_kernels, "_scan_block", counted)
    with pytest.raises(Interrupt):
        triangle_scan(_symmetric(SCREEN_MIN + 1, "uniform", 0))
    assert len(Flaky.started) == 1 and not Flaky.started[0].is_alive()
    assert len(claimed) < len(range(0, SCREEN_MIN + 1, TRIANGLE_TILE_ROWS))


@pytest.mark.parametrize("n, cpus", [(600, 2), (600, 64), (1200, 64)])
def test_scan_memory_is_the_copy_and_the_scratch(n, cpus, monkeypatch):
    import tracemalloc

    monkeypatch.setattr(_kernels, "_cpus", lambda: cpus)
    dist = _symmetric(n, "uniform", 0)
    tracemalloc.start()
    try:
        triangle_scan(dist)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    rows = TRIANGLE_TILE_ROWS * n
    scratch = 8 * max(TRIANGLE_TILE, rows, 2 * n) + (2 + 2 + 1 + 8 + 8) * rows
    # the uint16 copy; each worker's scratch, the buffers numpy's ufuncs
    # allocate per call (one or two of np.getbufsize() doubles) and its
    # arrays of open pairs (at most a quarter of a block); a float64 copy of
    # the matrix would add 2.9 MB at 600 points. However many CPUs there
    # are, at most SCREEN_WORKERS workers run, and their scratch stays
    # within the uint16 copy or two workers' worth.
    per = np.getbufsize() * 3 * 8 + 8 * rows
    workers = min(cpus, SCREEN_WORKERS)
    assert peak < 2 * n * n + workers * (scratch + per)
    assert peak < 2 * n * n + max(2 * n * n, 2 * scratch) + workers * per


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
    it_a, val_a, best_a, bw_a, st_a, last_a = ascent(*call)
    it_b, val_b, best_b, bw_b, st_b, last_b = brute_ascent(*call)
    assert (st_a, last_a) == (st_b, last_b)
    assert np.array_equal(it_a, it_b)
    assert val_a == pytest.approx(val_b, rel=1e-9)
    assert best_a == pytest.approx(best_b, rel=1e-9)
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
    assert _matches_brute(10, 3, args) == ("converged", 0)
    assert _matches_brute(10, 3, dict(args, grad_tol=0.0)) == ("maxiter", 10)
    # both exits at once: blowup takes precedence
    assert _matches_brute(10, 3, dict(args, blowup=-1.0)) == ("blowup", 0)


def test_ascent_fewer_iterations_than_a_block():
    plan = _kernels._ascent_plan
    assert plan(5, 100)[1] == 101 < plan(5, 10**6)[1]
    assert _matches_brute(100, 7, _divergent()) == ("maxiter", 100)


# the full block on five and on nine points
B = _kernels._ascent_plan(5, 10**6)[1]
EXITS = [0, B - 1, B, B + 1]


@pytest.mark.parametrize("t", EXITS)
def test_ascent_maxiter_at_block_edges(t):
    # iterations = B - 1 and above all run blocks of B iterates
    assert _matches_brute(t, 100, _divergent()) == ("maxiter", t)


@pytest.mark.parametrize("t", EXITS + [B + B // 2])
def test_ascent_blowup_at_block_edges(t):
    args = _blowup_at(t, _divergent())
    assert _matches_brute(3 * B, 100, args) == ("blowup", t)


@pytest.mark.parametrize("t", EXITS + [B // 2 + 1])
def test_ascent_converges_at_block_edges(t):
    assert _kernels._ascent_plan(9, 10**6)[1] == B
    args = _grad_tol_at(t, _convergent())
    assert _matches_brute(3 * B, 100, args) == ("converged", t)


def test_ascent_default_tolerance_converges_inside_a_block():
    args = dict(_start(euclidean_cloud(
        np.random.default_rng(3).uniform(0.0, 1.0, (5, 3)))), grad_tol=1e-10)
    status, last = _matches_brute(100_000, 390, args)
    assert status == "converged" and 0 < last < B


def test_ascent_best_carried_across_blocks():
    # an overshooting step makes the iterates oscillate and grow, below the
    # best value reached early, so later blocks carry the best measure of
    # the first to the exit
    args = _convergent()
    args["step"] *= 3.5
    assert _matches_brute(B + 300, 100, args) == ("maxiter", B + 300)


@pytest.mark.parametrize("stride", [1, 7, 1000, B, B + 1, 3000])
def test_ascent_record_strides(stride):
    # strides that divide the block, that do not, and longer than it
    _matches_brute(4 * B + 5, stride, _divergent())
    _matches_brute(4 * B + 5, stride, _blowup_at(2 * B + 3, _divergent()))


# ASCENT_TILE on five and on nine points, with the plan (powers, iterates
# per block) it gives for 200 iterations: one iterate per block, two, and
# more iterates than doubling through the stored powers reaches, so that the
# block goes on in chunks of 4 and ends on a shorter one
TINY_PLANS = [(64, 152, (0, 1), (0, 1)), (65, 153, (1, 2), (1, 2)),
              (1379, 2627, (3, 65), (3, 66))]


@pytest.mark.parametrize("tile5, tile9, plan5, plan9", TINY_PLANS)
def test_ascent_with_tiny_blocks(tile5, tile9, plan5, plan9, monkeypatch):
    monkeypatch.setattr(_kernels, "ASCENT_TILE", tile5)
    assert _kernels._ascent_plan(5, 200) == plan5
    for stride in (1, 3):
        assert _matches_brute(200, stride, _divergent()) == ("maxiter",
                                                             200)
        for t in (0, 1, 2, 7, 40, 70):
            args = _blowup_at(t, _divergent())
            assert _matches_brute(200, stride, args) == ("blowup", t)
    monkeypatch.setattr(_kernels, "ASCENT_TILE", tile9)
    assert _kernels._ascent_plan(9, 200) == plan9
    for t in (0, 1, 2, 7, 40, 70):
        args = _grad_tol_at(t, _convergent())
        assert _matches_brute(200, 2, args) == ("converged", t)


@pytest.mark.parametrize("space", [fixture("nw-thm2.9a").space,
                                   random_metric(40, 0),
                                   random_metric(150, 0)],
                         ids=["nw-thm2.9a", "random-40", "random-150"])
@pytest.mark.parametrize("blowup", ["1e6 diam", "1e300"])
def test_ascent_diverges_inside_a_block(space, blowup):
    # not quasihypermetric: the run blows up part way through a block. At
    # 1e300 the energies of the block's later iterates can pass the float
    # range (they do on random-40); no warning escapes
    args = _start(space)
    if blowup == "1e6 diam":
        args["blowup"] = 1e6 * diameter(space)
    status, last = _matches_brute(20_000, 100, args)
    assert status == "blowup"
    assert last % _kernels._ascent_plan(space.n, 20_000)[1] != 0


def test_ascent_nan_energy_never_becomes_best():
    args = _divergent()
    w0 = args["w0"].copy()
    w0[0] = np.nan
    it, vals, best, _, status, last = ascent(
        args["dist"], w0, 2 * B, args["step"], 1e6, 1e-10, 500)
    assert (status, last) == ("maxiter", 2 * B)
    assert best == -np.inf and (vals == -np.inf).all()


@pytest.mark.parametrize("n", [201, 801])
def test_ascent_powers_and_block_are_the_only_large_allocations(n):
    import tracemalloc

    space = euclidean_cloud(np.random.default_rng(n).uniform(0.0, 1.0, (n, 3)))
    args = _start(space)
    p, b = _kernels._ascent_plan(n, 10**6)
    tracemalloc.start()
    try:
        # three blocks, recorded once a block: the records are the output
        ascent(args["dist"], args["w0"], 3 * b, args["step"], 1e6, 0.0, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the powers and the block's iterates and potentials, within
    # ASCENT_TILE; besides them a few vectors of the block and of n points
    # (energies, bests, records, iterates). With p = 0, from 721 points,
    # there is no copy of dist
    assert (p, b) == ((7, 300) if n == 201 else (0, 1))
    assert peak < 8 * (p * n * n + 2 * b * n + 16 * b + 16 * n)


def test_ascent_plan_stays_within_the_budget():
    for n in range(1, 1001):
        for iterations in (1, 100, 10**6):
            p, b = _kernels._ascent_plan(n, iterations)
            assert 1 <= b <= min(1024, iterations + 1)
            assert (p == 0) == (b == 1)
            assert (p * n * n + 4 * b * n <= ASCENT_TILE) or (p, b) == (0, 1)
            assert p == 0 or 1 << (p - 1) < b  # every stored power is used
            assert (p == 0) == (n * n + 8 * n > ASCENT_TILE)


# one row, one block minus one / exactly / plus one, two blocks plus three
@pytest.mark.parametrize("m", [1, CHOLESKY_BLOCK - 1, CHOLESKY_BLOCK,
                               CHOLESKY_BLOCK + 1, 2 * CHOLESKY_BLOCK + 3])
def test_blocked_cholesky_solve_matches_dense_solve(m):
    rng = np.random.default_rng(m)
    a = rng.standard_normal((m, m))
    spd = a @ a.T + m * np.eye(m)
    x = rng.standard_normal(m)
    expected = np.linalg.solve(spd, x)
    given = spd + np.eye(m)
    factor = blocked_cholesky(given, 1.0)
    got = factor.solve(x)
    assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()
    # R is written over the upper triangle of the input, in place; its
    # strict lower triangle still holds the input
    assert factor.upper is given
    r = np.triu(given)
    assert np.abs(r.T @ r - spd).max() <= 1e-12 * np.abs(spd).max()
    below = np.tri(m, k=-1, dtype=bool)
    assert np.array_equal(given[below], (spd + np.eye(m))[below])
    assert len(factor.inverses) == -(-m // CHOLESKY_BLOCK)


def test_blocked_cholesky_memory_is_a_few_row_blocks():
    import tracemalloc

    m = 800
    a = np.random.default_rng(m).standard_normal((m, m))
    spd = a @ a.T + m * np.eye(m)
    tracemalloc.start()
    try:
        blocked_cholesky(spd, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the factor is written over its input: only the diagonal blocks'
    # inverses and a few temporaries of CHOLESKY_BLOCK x m (the updated
    # rows, the panel residual); one m x m array would add 5.1 MB
    nb = CHOLESKY_BLOCK
    assert peak < 8 * (-(-m // nb) * nb * nb + 4 * nb * m)


def test_blocked_cholesky_raises_when_not_positive_definite():
    m = 2 * CHOLESKY_BLOCK + 3
    rng = np.random.default_rng(5)
    v, _ = np.linalg.qr(rng.standard_normal((m, m)))
    lam = rng.uniform(1.0, 2.0, m)
    lam[0] = -1e-3
    with pytest.raises(np.linalg.LinAlgError):
        blocked_cholesky((v * lam) @ v.T, 0.0)


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

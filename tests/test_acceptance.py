"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. Criteria carry wall-clock
budgets; a module fixture makes the first calls into the numeric layers (lazy
imports, BLAS and LAPACK set-up) outside them, so the budgets measure the
numeric work itself.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from qhm import (
    GlueSpec,
    Verdict,
    ascent_oracle,
    classify,
    diameter,
    energy,
    energy_bilinear,
    euclidean_cloud,
    fixture,
    glue,
    glued_m_predict,
    inner_extended,
    inner_zero,
    interval_grid,
    invariant_measure,
    m_constant,
    measure,
    potential,
    random_metric,
    regular_polygon_arc,
    run_converge,
    run_glue_diverge,
    seminorm_zero,
    uniform,
    validate_metric,
)

BALL_CHAIN_SIZES = [51, 101, 201, 401, 801]


@pytest.fixture(scope="module", autouse=True)
def _warm_kernels():
    # pay one-time set-up costs of the first calls outside the timed budgets
    x = interval_grid(0.0, 1.0, 3)
    m_constant(x)
    ascent_oracle(x, iterations=5)
    energy(x, uniform(x))


@contextmanager
def criterion(number: int, budget_s: float, label: str):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d}: FAIL — {label}")
        raise
    elapsed = time.perf_counter() - t0
    assert elapsed < budget_s, f"criterion {number} took {elapsed:.1f}s, budget {budget_s}s"
    print(f"criterion {number:2d}: PASS — {label} ({elapsed:.2f}s)")


def _random_cloud(rng, n_min=3, n_max=8):
    n = int(rng.integers(n_min, n_max + 1))
    dim = int(rng.integers(2, 4))
    return euclidean_cloud(rng.uniform(0.0, 1.0, (n, dim)))


def test_criterion_01_nonqhm_fixture():
    with criterion(1, 1.0, "nw-thm2.9a: NotQuasihypermetric with witness; "
                           "invariant probability measure of value 1"):
        z = fixture("nw-thm2.9a").space
        cls = classify(z)
        assert cls.verdict is Verdict.NOT_QUASIHYPERMETRIC
        assert energy(z, cls.witness) > 0.0
        mu = measure(z, [0.5, 0.5, 0.0, 0.0, 0.0])
        pot = potential(z, mu)
        assert np.abs(pot - 1.0).max() <= 1e-12
        assert energy(z, mu) == pytest.approx(1.0, abs=1e-12)


def test_criterion_02_boundary_fixture():
    with criterion(2, 1.0, "nw-thm2.9: NonStrict, infinite via nonzero flat "
                           "kernel, constant potential -1/60"):
        z = fixture("nw-thm2.9").space
        assert classify(z).verdict is Verdict.NON_STRICT
        dec = m_constant(z)
        assert dec.status == "infinite"
        assert dec.reason == "NonzeroFlatKernel"
        mu = measure(z, [0.5, 0.5, -1 / 3, -1 / 3, -1 / 3])
        pot = potential(z, mu)
        assert np.abs(pot - (-1.0 / 60.0)).max() <= 1e-10


def test_criterion_03_interval_grids():
    with criterion(3, 1.0, "interval grids n in {2,3,5,9,17,33}: value 1/2, "
                           "endpoint measure"):
        for n in (2, 3, 5, 9, 17, 33):
            dec = m_constant(interval_grid(0.0, 1.0, n))
            assert dec.finite
            assert dec.value == pytest.approx(0.5, abs=1e-9)
            w = dec.maximal_measure.weights
            assert abs(w[0] - 0.5) <= 1e-9 and abs(w[-1] - 0.5) <= 1e-9
            if n > 2:
                assert np.abs(w[1:-1]).max() <= 1e-9


def test_criterion_04_even_polygons():
    with criterion(4, 1.0, "even polygons 2m, m in {1,2,3,4,8}: value pi/2, "
                           "NonStrict and non-unique for m >= 2"):
        for m in (1, 2, 3, 4, 8):
            n = 2 * m
            x = regular_polygon_arc(n)
            dec = m_constant(x)
            assert dec.finite
            assert dec.value == pytest.approx(math.pi / 2.0, abs=1e-9)
            if m >= 2:
                assert classify(x).verdict is Verdict.NON_STRICT
                assert invariant_measure(x).unique is False


def test_criterion_05_glue_formula_equivalence():
    with criterion(5, 30.0, "50 random cloud pairs: glued solve matches the "
                            "closed form; forced boundary is infinite"):
        rng = np.random.default_rng(20240550)
        boundary_checked = 0
        for _ in range(50):
            x = _random_cloud(rng)
            y = _random_cloud(rng)
            m_x = m_constant(x).value
            m_y = m_constant(y).value
            dmax = max(diameter(x), diameter(y))
            c = max((m_x + m_y) / 2.0, dmax / 2.0) + float(rng.uniform(0.05, 1.0))
            pred = glued_m_predict(m_x, m_y, c)
            assert pred.kind == "finite"
            direct = m_constant(glue(GlueSpec(x, y, c)))
            assert direct.finite
            assert direct.value == pytest.approx(pred.value, rel=1e-7)

            c_b = (m_x + m_y) / 2.0
            if m_x != m_y and 2.0 * c_b >= dmax:
                assert glued_m_predict(m_x, m_y, c_b).kind == "infinite"
                dec_b = m_constant(glue(GlueSpec(x, y, c_b)))
                assert dec_b.status == "infinite"
                boundary_checked += 1
        assert boundary_checked >= 25  # the boundary branch is truly exercised


def test_criterion_06_four_point_safety():
    with criterion(6, 5.0, "200 random 4-point metrics: never "
                           "NotQuasihypermetric, always finite"):
        for seed in range(200):
            x = random_metric(4, seed)
            cls = classify(x)
            assert cls.verdict in (Verdict.STRICT, Verdict.NON_STRICT)
            assert m_constant(x).finite


def test_criterion_07_oracle_agreement():
    with criterion(7, 60.0, "ascent oracle matches 50 cloud solves within "
                            "[-1e-4, +1e-9]; diverges past 1e3 on nw-thm2.9"):
        rng = np.random.default_rng(20240770)
        for trial in range(50):
            x = _random_cloud(rng)
            dec = m_constant(x)
            trace = ascent_oracle(x, iterations=100_000, seed=trial)
            assert dec.value - 1e-4 <= trace.best_value <= dec.value + 1e-9
        z = fixture("nw-thm2.9").space
        trace = ascent_oracle(z, iterations=10_000_000, blowup=1e3, seed=0)
        assert trace.blown_up
        assert trace.best_value > 1e3


def test_criterion_08_ball_convergence():
    with criterion(8, 300.0, "nested ball chain to ~800 points: M "
                             "nondecreasing, in (4/3, 2) at the top, "
                             "flatness nonincreasing at the tail"):
        res = run_converge("ball3", BALL_CHAIN_SIZES, seed=0)
        values = [r["m_value"] for r in res.rows]
        assert all(r["status"] == "finite" for r in res.rows)
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert all(v < 2.0 for v in values)
        assert values[-1] > 4.0 / 3.0
        # the solver must dominate the uniform reference on every row
        assert all(r["m_value"] >= r["i_uniform"] - 1e-12 for r in res.rows)
        flats = [r["chain_flatness"] for r in res.rows[-3:]]
        assert flats[0] >= flats[1] >= flats[2]


def test_criterion_09_glue_diverge():
    with criterion(9, 300.0, "ball chain glued to a distance-2 pair at "
                             "c = 3/2: all Strict, matches closed form, "
                             "strictly increasing"):
        res = run_glue_diverge(BALL_CHAIN_SIZES, seed=0)
        assert all(r["error"] is None for r in res.rows)
        assert all(r["verdict"] == "Strict" for r in res.rows)
        for r in res.rows:
            m = r["m_component"]
            assert r["m_glued"] == pytest.approx((2.25 - m) / (2.0 - m),
                                                 rel=1e-6)
        glued = [r["m_glued"] for r in res.rows]
        assert all(b > a for a, b in zip(glued, glued[1:]))


def test_criterion_10_invariant_suite():
    with criterion(10, 30.0, "bilinearity, pairing, Cauchy-Schwarz, midpoint "
                             "bound, norm identity, scaling covariance over "
                             "100+ seeded instances each"):
        rng = np.random.default_rng(20241010)

        for _ in range(100):  # bilinearity, any space
            x = random_metric(int(rng.integers(2, 9)), int(rng.integers(10_000)))
            a, b = rng.standard_normal(2)
            w1, w2, w3 = rng.standard_normal((3, x.n))
            lhs = energy_bilinear(x, measure(x, a * w1 + b * w2), measure(x, w3))
            rhs = (a * energy_bilinear(x, measure(x, w1), measure(x, w3))
                   + b * energy_bilinear(x, measure(x, w2), measure(x, w3)))
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

        for _ in range(100):  # potential/bilinear pairing
            x = random_metric(int(rng.integers(2, 9)), int(rng.integers(10_000)))
            w1, w2 = rng.standard_normal((2, x.n))
            lhs = energy_bilinear(x, measure(x, w1), measure(x, w2))
            rhs = float(potential(x, measure(x, w1)) @ w2)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

        for _ in range(100):  # Cauchy-Schwarz on mass-zero, qhm spaces
            x = _random_cloud(rng)
            w1, w2 = rng.standard_normal((2, x.n))
            mu = measure(x, w1 - w1.mean())
            nu = measure(x, w2 - w2.mean())
            lhs = abs(inner_zero(x, mu, nu))
            rhs = seminorm_zero(x, mu) * seminorm_zero(x, nu)
            assert lhs <= rhs + 1e-9

        for _ in range(100):  # 2 I(mu, nu) >= I(mu) + I(nu) on mass-1
            x = _random_cloud(rng)
            z1, z2 = rng.standard_normal((2, x.n))
            mu = measure(x, np.full(x.n, 1.0 / x.n) + (z1 - z1.mean()))
            nu = measure(x, np.full(x.n, 1.0 / x.n) + (z2 - z2.mean()))
            two_cross = 2.0 * energy_bilinear(x, mu, nu)
            assert two_cross >= energy(x, mu) + energy(x, nu) - 1e-9

        for _ in range(100):  # norm identity on mass-1 measures
            x = _random_cloud(rng)
            m = m_constant(x).value
            z = rng.standard_normal(x.n)
            mu = measure(x, np.full(x.n, 1.0 / x.n) + (z - z.mean()))
            norm_sq = inner_extended(x, m, mu, mu)
            assert norm_sq == pytest.approx(m + 1.0 - energy(x, mu),
                                            rel=1e-12, abs=1e-12)
            assert norm_sq >= 1.0 - 1e-9  # attains 1 exactly at a maximizer

        for _ in range(100):  # scaling covariance
            x = _random_cloud(rng)
            lam = float(rng.uniform(0.1, 10.0))
            dec = m_constant(x)
            dec_scaled = m_constant(validate_metric(x.dist * lam))
            assert dec_scaled.value == pytest.approx(lam * dec.value, rel=1e-9)
            assert np.abs(dec_scaled.maximal_measure.weights
                          - dec.maximal_measure.weights).max() <= 1e-9

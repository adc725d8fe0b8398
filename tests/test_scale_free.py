"""Answers that the theory leaves unchanged: rescaling every distance by
lambda (M scales by lambda, with the same verdict and the same weights),
permuting the points and relabelling them."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhm import (
    GlueSpec,
    QhmError,
    Verdict,
    ascent_oracle,
    ball_chain,
    classify,
    diameter,
    euclidean_cloud,
    fixture,
    glue,
    glued_m_predict,
    inner_zero,
    invariant_measure,
    m_constant,
    measure,
    seminorm_zero,
    validate_metric,
    verify_maximal,
)
from qhm.errors import NotApplicableError

from conftest import random_cloud

SCALES = [1e-12, 1e-9, 1e-6, 1.0, 1e6, 1e9, 1e12]
FIXTURES = ["circle-8", "interval-5", "nw-thm2.9", "nw-thm2.9a"]
# lambda = 10^e for e in [-12, 12]
exponents = st.floats(-12.0, 12.0, allow_nan=False)
# component constants: 0 (a single point) or at least 1e-3 of the unit
constants = st.one_of(st.just(0.0), st.floats(1e-3, 2.0))


def _cloud8():
    return euclidean_cloud(np.random.default_rng(0).uniform(0.0, 1.0, (8, 3)))


def _scaled(space, lam):
    return validate_metric(space.dist * lam, labels=space.labels)


def _assert_covariant(dec, ref, lam, perm=None):
    """dec decides the space of ref scaled by lam (and permuted by perm)."""
    assert dec.status == ref.status
    assert dec.reason == ref.reason
    assert dec.diagnostics["verdict"] == ref.diagnostics["verdict"]
    if ref.finite:
        assert dec.value == pytest.approx(lam * ref.value, rel=1e-9)
        weights = ref.maximal_measure.weights
        if perm is not None:
            weights = weights[perm]
        assert np.abs(dec.maximal_measure.weights - weights).max() <= 1e-9


class TestScaleTable:
    """The verdict of every fixture at every scale from 1e-12 to 1e12."""

    @pytest.mark.parametrize("lam", SCALES)
    def test_fixtures(self, lam):
        dec = m_constant(_scaled(fixture("nw-thm2.9").space, lam))
        assert (dec.status, dec.reason) == ("infinite", "NonzeroFlatKernel")
        dec = m_constant(_scaled(fixture("nw-thm2.9a").space, lam))
        assert (dec.status, dec.reason) == ("infinite", "NotQuasihypermetric")
        dec = m_constant(_scaled(fixture("interval-5").space, lam))
        assert dec.diagnostics["verdict"] == Verdict.STRICT.value
        assert dec.value == pytest.approx(0.5 * lam, rel=1e-9)
        dec = m_constant(_scaled(fixture("circle-8").space, lam))
        assert dec.diagnostics["verdict"] == Verdict.NON_STRICT.value
        assert dec.value == pytest.approx(0.5 * math.pi * lam, rel=1e-9)

    @pytest.mark.parametrize("lam", SCALES)
    def test_cloud(self, lam):
        cloud = _cloud8()
        dec = m_constant(_scaled(cloud, lam))
        assert dec.diagnostics["verdict"] == Verdict.STRICT.value
        _assert_covariant(dec, m_constant(cloud), lam)

    @pytest.mark.parametrize("lam", SCALES)
    def test_classify(self, lam):
        # the spectrum scales with the space, and so does its threshold
        for key in FIXTURES:
            space = fixture(key).space
            ref, cls = classify(space), classify(_scaled(space, lam))
            assert cls.verdict is ref.verdict
            assert cls.tol_used == pytest.approx(lam * ref.tol_used, rel=1e-9)
            assert len(cls.kernel_basis) == len(ref.kernel_basis)


class TestMetamorphic:
    @given(exponents, st.sampled_from(FIXTURES))
    @settings(max_examples=60, deadline=None)
    def test_fixture_scaling(self, e, key):
        space = fixture(key).space
        lam = 10.0 ** e
        _assert_covariant(m_constant(_scaled(space, lam)), m_constant(space), lam)

    @given(exponents, st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_cloud_scaling(self, e, seed):
        space = random_cloud(np.random.default_rng(seed))
        lam = 10.0 ** e
        _assert_covariant(m_constant(_scaled(space, lam)), m_constant(space), lam)

    @given(exponents, st.sampled_from(FIXTURES + ["cloud"]),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_permutation(self, e, key, seed):
        rng = np.random.default_rng(seed)
        space = random_cloud(rng) if key == "cloud" else fixture(key).space
        perm = rng.permutation(space.n)
        lam = 10.0 ** e
        permuted = validate_metric(space.dist[np.ix_(perm, perm)] * lam,
                                   labels=[space.labels[i] for i in perm])
        _assert_covariant(m_constant(permuted), m_constant(space), lam, perm)

    @given(st.sampled_from(FIXTURES + ["cloud"]), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_relabelling(self, key, seed):
        rng = np.random.default_rng(seed)
        space = random_cloud(rng) if key == "cloud" else fixture(key).space
        labels = [f"p{int(i)}" for i in rng.permutation(10 * space.n)[:space.n]]
        ref = m_constant(space)
        dec = m_constant(validate_metric(space.dist, labels=labels))
        assert dec.status == ref.status and dec.reason == ref.reason
        assert dec.value == ref.value
        if ref.finite:
            assert np.array_equal(dec.maximal_measure.weights,
                                  ref.maximal_measure.weights)


class TestGluePredictionScales:
    """glued_m_predict(lam m_x, lam m_y, lam c) is the prediction at lam = 1
    with its value times lam, from c = 1e-12 to c = 1e12."""

    @staticmethod
    def _check(m_x, m_y, c, e):
        lam = 10.0 ** e
        ref = glued_m_predict(m_x, m_y, c)
        got = glued_m_predict(lam * m_x, lam * m_y, lam * c)
        assert got.kind == ref.kind
        if ref.value is None:
            assert got.value is None
        else:
            assert got.value == pytest.approx(lam * ref.value, rel=1e-9)
        return ref

    @given(exponents, constants, constants, st.floats(1e-5, 1e6))
    @settings(max_examples=100, deadline=None)
    def test_above_boundary(self, e, m_x, m_y, gap):
        # 2c = (m_x + m_y) (1 + gap): finite, whatever the unit
        c = 0.5 * (m_x + m_y) * (1.0 + gap) if m_x + m_y > 0.0 else gap
        assert self._check(m_x, m_y, c, e).kind == "finite"

    @given(exponents, st.floats(0.1, 2.0), st.floats(0.1, 2.0),
           st.floats(1e-5, 0.99))
    @settings(max_examples=100, deadline=None)
    def test_below_boundary(self, e, m_x, m_y, gap):
        c = 0.5 * (m_x + m_y) * (1.0 - gap)
        assert self._check(m_x, m_y, c, e).kind == "infinite"

    @given(exponents, st.floats(0.1, 2.0), st.floats(1e-5, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_on_boundary(self, e, m, spread):
        # equal components: the boundary keeps the shared value; unequal
        # ones: infinite
        assert self._check(m, m, m, e).kind == "boundary"
        m_y = m * (1.0 + spread)
        assert self._check(m, m_y, 0.5 * (m + m_y), e).kind == "infinite"

    @pytest.mark.parametrize("lam", SCALES)
    def test_small_unit(self, lam):
        pred = glued_m_predict(lam, 1.2 * lam, 1.15 * lam)
        assert pred.kind == "finite"
        assert pred.value == pytest.approx(1.225 * lam, rel=1e-12)


# relative gaps 2c / (m_x + m_y) - 1 of the glued spaces below, down to
# DEFAULT_TOL, where near-boundary Strict spaces carry maximizers of total
# variation up to about 3e7
DELTAS = [1e-5, 1e-6, 1e-7, 1e-8, 3e-9, 2e-9, 1e-9]


def _uniform_block(k, d):
    return validate_metric(d * (1.0 - np.eye(k)))


@pytest.fixture(scope="module")
def glue_components():
    """(x, m_x, y, m_y) for the two-block glue (2 points at distance 1 with
    M = 1/2, 3 points at distance 0.8 with M = 8/15) and for every pair of
    19 seeded 3-D gaussian clouds of 2-11 points whose constants reach both
    diameters, so that c = (m_x + m_y)(1 + delta)/2 glues them: 103 of the
    171 pairs."""
    rng = np.random.default_rng(5)
    clouds = [euclidean_cloud(rng.standard_normal((int(rng.integers(2, 12)), 3)))
              for _ in range(19)]
    ms = [m_constant(x).value for x in clouds]
    pairs = [(clouds[i], ms[i], clouds[j], ms[j])
             for i, j in itertools.combinations(range(len(clouds)), 2)
             if ms[i] + ms[j] >= max(diameter(clouds[i]), diameter(clouds[j]))]
    assert len(pairs) == 103
    return [(_uniform_block(2, 1.0), 0.5, _uniform_block(3, 0.8), 8.0 / 15.0)
            ] + pairs


def _step_from_uniform(space, w):
    """The mass-zero step w - uniform from the uniform measure to w."""
    return measure(space, w.weights - 1.0 / space.n)


class TestNearBoundaryGlue:
    """Glued spaces just above the Strict/NonStrict boundary, at every scale:
    no InconsistencyError, one answer per space across the scales, every
    finite value at the closed form up to the rounding of the gap, and a
    seminorm and a semi-inner product for the step from the uniform measure
    to every maximizer, whose total variation is about 1/gap."""

    @pytest.mark.parametrize("delta", DELTAS)
    def test_scale_sweep(self, glue_components, delta):
        eps = np.finfo(np.float64).eps
        problems = []
        for k, (x, m_x, y, m_y) in enumerate(glue_components):
            s = m_x + m_y
            c = 0.5 * s * (1.0 + delta)
            gap = 2.0 * c - s
            value = (c * c - m_x * m_y) / gap
            pred = glued_m_predict(m_x, m_y, c)
            if pred.kind == "finite":
                assert pred.value == value
            z = glue(GlueSpec(x, y, c))
            answers = set()
            for lam in SCALES:
                space = _scaled(z, lam)
                dec = m_constant(space)
                answers.add((dec.status, dec.diagnostics["verdict"]))
                if dec.finite:
                    rel = abs(dec.value - lam * value) / (lam * value)
                    if rel > 64.0 * eps * s / gap:
                        problems.append((k, lam, rel * gap / (eps * s)))
                    nu = _step_from_uniform(space, dec.maximal_measure)
                    try:
                        seminorm_zero(space, nu)
                        inner_zero(space, nu, nu)
                    except QhmError as exc:
                        problems.append((k, lam, repr(exc)))
            if len(answers) != 1:
                problems.append((k, sorted(answers)))
        assert problems == []

    def test_step_from_uniform_at_every_gap(self, glue_components):
        # 2 points at distance 1 glued to 3 at 0.8, with absolute gaps
        # 2c - (m_x + m_y) from 1e-12 to 1e-6: an absolute mass tolerance of
        # 1e-9 refused the step at 4 of these gaps (at 1e-9 its mass was
        # -9.3e-9 and the maximizer's total variation 3.3e7)
        x, m_x, y, m_y = glue_components[0]
        problems = []
        for gap in np.geomspace(1e-12, 1e-6, 61):
            z = glue(GlueSpec(x, y, 0.5 * (m_x + m_y + gap)))
            dec = m_constant(z)
            if not dec.finite:
                continue
            nu = _step_from_uniform(z, dec.maximal_measure)
            try:
                assert seminorm_zero(z, nu) ** 2 == pytest.approx(
                    inner_zero(z, nu, nu), rel=1e-9)
            except QhmError as exc:
                problems.append((gap, repr(exc)))
        assert problems == []

    @pytest.mark.parametrize("delta", [3e-8, 2e-8, 1e-8])
    def test_ball_glue_sweep(self, delta):
        # a 401-point ball glued to each block. Near 2e-8 the smallest
        # eigenvalue of B enters the verdict's band, and the potential of its
        # eigenvector varies by that eigenvalue, about 2e-8 of the diameter;
        # only the invariant solve's check decides finite versus infinite
        _, _, (x,) = ball_chain([401])
        m_x = m_constant(x).value
        eps = np.finfo(np.float64).eps
        problems = []
        for y, m_y in ((_uniform_block(2, 1.0), 0.5),
                       (_uniform_block(3, 0.8), 8.0 / 15.0)):
            s = m_x + m_y
            c = 0.5 * s * (1.0 + delta)
            gap = 2.0 * c - s
            pred = glued_m_predict(m_x, m_y, c)
            z = glue(GlueSpec(x, y, c))
            answers = set()
            for lam in SCALES:
                try:
                    dec = m_constant(_scaled(z, lam))
                except QhmError as exc:
                    problems.append((y.n, lam, repr(exc)))
                    continue
                answers.add((dec.status, dec.reason,
                             dec.diagnostics["verdict"]))
                if dec.finite:
                    rel = abs(dec.value - lam * pred.value) / (lam * pred.value)
                    if rel > 64.0 * eps * s / gap:
                        problems.append((y.n, lam, rel * gap / (eps * s)))
            if len(answers) != 1:
                problems.append((y.n, sorted(answers, key=str)))
        assert problems == []


class TestMassRule:
    """A measure has mass zero within SOLVE_REL times its own total
    variation, so the seminorm is homogeneous in the weights."""

    @pytest.mark.parametrize("seed", range(40))
    def test_seminorm_homogeneous(self, seed):
        # an absolute mass tolerance refused t * nu at t = 1e9 on 35 of
        # these 40 clouds and at t = 1e12 on 39
        x = euclidean_cloud(np.random.default_rng(seed).standard_normal((9, 3)))
        nu = _step_from_uniform(x, m_constant(x).maximal_measure)
        ref = seminorm_zero(x, nu)
        assert ref > 0.0
        for t in SCALES:
            tnu = measure(x, t * nu.weights)
            assert seminorm_zero(x, tnu) == pytest.approx(t * ref, rel=1e-12)
            assert inner_zero(x, tnu, nu) == pytest.approx(t * ref * ref,
                                                           rel=1e-12)


class TestScaleFreeDefaults:
    """The oracle, the dominance check and the seminorm flag answer alike at
    every scale."""

    @pytest.mark.parametrize("lam", [1e-12, 1e-9, 1e-6, 1e6, 1e12])
    @pytest.mark.parametrize("key", ["nw-thm2.9", "nw-thm2.9a", "interval-5"])
    def test_ascent_oracle(self, key, lam):
        # nw-thm2.9 scaled by 1e-9 used to stop 'converged' at iteration 0
        space = fixture(key).space
        ref = ascent_oracle(space, iterations=20_000, seed=3)
        got = ascent_oracle(_scaled(space, lam), iterations=20_000, seed=3)
        assert got.status == ref.status
        assert got.iterations_run == ref.iterations_run
        assert got.best_value == pytest.approx(lam * ref.best_value, rel=1e-9)

    @pytest.mark.parametrize("lam", [1e-12, 1e-9, 1e-6, 1e6, 1e12])
    def test_verify_maximal(self, lam):
        # a wrong candidate value 0.4 (M = 0.82) is dominated at every scale
        cloud = _cloud8()
        ref = verify_maximal(cloud, m_constant(cloud).maximal_measure, 0.4,
                             trials=200)
        assert ref.dominance_violations > 0
        space = _scaled(cloud, lam)
        got = verify_maximal(space, m_constant(space).maximal_measure,
                             0.4 * lam, trials=200)
        assert got.dominance_violations == ref.dominance_violations

    @pytest.mark.parametrize("lam", [1e-12, 1e-9, 1e-6, 1.0, 1e6, 1e9, 1e12])
    def test_seminorm_flag(self, lam):
        # the degenerate direction of circle-8 is roundoff and has a
        # seminorm, the witness of nw-thm2.9a has positive energy and none
        space = _scaled(fixture("circle-8").space, lam)
        assert seminorm_zero(space, classify(space).kernel_basis[0]) >= 0.0
        space = _scaled(fixture("nw-thm2.9a").space, lam)
        with pytest.raises(NotApplicableError):
            seminorm_zero(space, classify(space).witness)


class TestExtremeScales:
    """Scales whose restricted form has no finite Frobenius norm (past about
    2^511) or whose default divergence threshold would overflow."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("k", [520, -520, 1000, -1000])
    @pytest.mark.parametrize("key", ["circle-8", "nw-thm2.9a", "interval-5",
                                     "200-gon"])
    def test_decisions_past_the_norm(self, key, k):
        # the certificate used to run with an infinite shift, warning
        # "overflow encountered in dot", before `eigh` answered
        from qhm.experiments import _polygon_cloud

        space = (_polygon_cloud(200) if key == "200-gon"
                 else fixture(key).space)
        scaled = validate_metric(np.ldexp(space.dist, k))
        ref, dec = m_constant(space), m_constant(scaled)
        assert (dec.status, dec.reason) == (ref.status, ref.reason)
        assert dec.diagnostics["verdict"] == ref.diagnostics["verdict"]
        if ref.finite:
            assert dec.value == np.ldexp(ref.value, k)
        assert classify(scaled).verdict == classify(space).verdict
        ref, got = invariant_measure(space), invariant_measure(scaled)
        assert (got is None) == (ref is None)
        if ref is not None:
            assert got.value == pytest.approx(np.ldexp(ref.value, k),
                                              rel=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("key, expected", [("interval-5", 0.5),
                                               ("circle-8", math.pi / 2),
                                               ("nw-thm2.9a", None)])
    def test_ascent_oracle_near_the_top_of_float64(self, key, expected):
        # the default threshold, 1e6 times a diameter of 3.1e305, used to
        # overflow and fail the check meant for a caller's value
        trace = ascent_oracle(_scaled(fixture(key).space, 1e305))
        if expected is None:
            assert trace.status == "blowup"
        else:
            assert trace.status == "converged"
            assert trace.best_value == pytest.approx(expected * 1e305,
                                                     rel=1e-6)

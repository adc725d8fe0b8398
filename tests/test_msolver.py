import dataclasses
import importlib
import math

import numpy as np
import pytest

from qhm import (
    DEFAULT_TOL,
    GlueSpec,
    Verdict,
    ascent_oracle,
    ball_chain,
    classify,
    diameter,
    energy,
    euclidean_cloud,
    fixture,
    fixture_keys,
    glue,
    glued_invariant,
    glued_m_predict,
    interval_grid,
    invariant_measure,
    m_constant,
    measure,
    potential,
    random_metric,
    regular_polygon_arc,
    run_glue_diverge,
    sequence_diagnostics,
    subspace,
    uniform,
    validate_metric,
    verify_maximal,
)
from qhm._kernels import CHOLESKY_BLOCK
from qhm.classify import (
    _certified_inverse,
    _from_mass_zero,
    _restricted_form,
    certify_strict,
)
from qhm.errors import (
    ChainMismatchError,
    InconsistencyError,
    InvalidInputError,
    MalformedMatrixError,
    NotInvariantInputError,
)
from qhm.tolerances import SOLVE_REL

from conftest import random_cloud
from oracles import bordered_invariant_measure, householder_basis


class TestInvariantMeasure:
    def test_uniform_three_block(self):
        y = validate_metric([[0, 2, 2], [2, 0, 2], [2, 2, 0]])
        solve = invariant_measure(y)
        assert solve.unique
        assert np.allclose(solve.measure.weights, 1.0 / 3.0, atol=1e-12)
        assert solve.value == pytest.approx(4.0 / 3.0)
        assert solve.residual <= 1e-12

    @pytest.mark.parametrize("d", [1.0, 2.0, 0.8])
    def test_two_point_half_diameter(self, d):
        x = validate_metric([[0, d], [d, 0]])
        solve = invariant_measure(x)
        assert np.allclose(solve.measure.weights, 0.5)
        assert solve.value == pytest.approx(d / 2.0)

    def test_circle_four_not_unique(self):
        solve = invariant_measure(regular_polygon_arc(4))
        assert solve.value == pytest.approx(math.pi / 2.0, abs=1e-12)
        assert not solve.unique
        assert solve.measure.mass == pytest.approx(1.0, abs=1e-12)

    def test_boundary_space_has_no_solution(self, five_point_boundary):
        assert invariant_measure(five_point_boundary) is None

    def test_nonqhm_space_still_solvable(self, five_point_nonqhm):
        # an invariant probability measure can exist without quasihypermetricity
        solve = invariant_measure(five_point_nonqhm)
        assert solve.value == pytest.approx(1.0)
        assert np.allclose(solve.measure.weights, [0.5, 0.5, 0, 0, 0], atol=1e-12)

    def test_single_point(self):
        solve = invariant_measure(validate_metric([[0.0]]))
        assert solve.value == 0.0
        assert solve.measure.weights[0] == pytest.approx(1.0)


def _assert_same_solve(space, weight_atol=1e-11):
    new = invariant_measure(space)
    ref = bordered_invariant_measure(space)
    if ref is None:
        assert new is None
        return
    assert new.unique == ref.unique
    assert new.value == pytest.approx(ref.value, rel=1e-13, abs=1e-15)
    assert np.abs(new.measure.weights - ref.measure.weights).max() <= weight_atol
    assert new.residual <= 1e-12 * max(1.0, diameter(space))


class TestEigenpairSolve:
    """The solve from classify's eigenpairs against the bordered SVD
    least-squares solve it replaced."""

    def test_random_clouds(self):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            _assert_same_solve(random_cloud(rng))

    @pytest.mark.parametrize("key", ["circle-8", "circle-16",
                                     "fourpoint-antipodal"])
    def test_nonstrict_minimum_norm_representative(self, key):
        space = fixture(key).space
        assert not invariant_measure(space).unique
        _assert_same_solve(space)

    @pytest.mark.parametrize("scale", [1.0, 100.0])
    def test_scaled_hexagon(self, scale):
        space = validate_metric(regular_polygon_arc(6).dist * scale)
        _assert_same_solve(space, weight_atol=1e-8)

    @pytest.mark.parametrize("key", ["nw-thm2.9a", "nw-thm2.9", "interval-5"])
    def test_fixtures(self, key):
        _assert_same_solve(fixture(key).space)

    def test_boundary_fixture_none_from_both(self, five_point_boundary):
        assert invariant_measure(five_point_boundary) is None
        assert bordered_invariant_measure(five_point_boundary) is None

    @pytest.mark.parametrize("matrix", [[[0.0]], [[0.0, 2.0], [2.0, 0.0]]])
    def test_one_and_two_points(self, matrix):
        _assert_same_solve(validate_metric(matrix))

    def test_pseudo_inverse_drops_exactly_the_degenerate_eigenvalues(self):
        from qhm.msolver import _invariant_solve

        x = random_cloud(np.random.default_rng(8), n_min=8, n_max=8)
        vals = classify(x).restricted_values
        # a tolerance that puts tau between the two smallest eigenvalues
        tau = math.sqrt(vals[0] * vals[1])
        cls = classify(x, tau / float(np.abs(vals).max()))
        assert cls.verdict is Verdict.NON_STRICT
        # the same pseudo-inverse from the eigenpairs of -Q'DQ, with the
        # mass-zero basis Q formed explicitly
        q = householder_basis(x.n)
        lam, vec = np.linalg.eigh(-(q.T @ x.dist @ q))
        keep = np.abs(lam) > cls.tol_used
        assert keep.sum() == x.n - 2
        u = np.full(x.n, 1.0 / x.n)
        rhs = x.dist @ u
        diagnostics = {}
        assert _invariant_solve(x, cls, diagnostics) is None
        # it drops the one coefficient <Du, f> along the degenerate
        # direction f, the eigenvector of the smallest eigenvalue
        f = q @ vec[:, 0]
        (dropped,) = diagnostics["kernel_flat_values"]
        assert abs(abs(dropped) - abs(f @ rhs)) <= 1e-9 * np.abs(rhs).max()
        # and inverts every other one: D w - c = f <Du, f> exactly, so the
        # potential of w = u + Q B+ Q' D u deviates by |<Du, f>| max|f|
        assert diagnostics["flatness"] == pytest.approx(
            abs(dropped) * np.abs(f).max(), rel=1e-6)
        # on a NonStrict space with zero flat values the solve is accepted,
        # and its measure is the explicit pseudo-inverse's
        space = fixture("circle-8").space
        cls = classify(space)
        q = householder_basis(space.n)
        lam, vec = np.linalg.eigh(-(q.T @ space.dist @ q))
        keep = np.abs(lam) > cls.tol_used
        u = np.full(space.n, 1.0 / space.n)
        vec = q @ vec[:, keep]
        expected = u + vec @ ((vec.T @ (space.dist @ u)) / lam[keep])
        diagnostics = {}
        w, _ = _invariant_solve(space, cls, diagnostics)
        assert len(diagnostics["kernel_flat_values"]) == space.n - 1 - keep.sum()
        assert np.abs(w - expected).max() <= 1e-9 * np.abs(expected).max()


class _Counter:
    def __init__(self, fn):
        self.fn, self.calls, self.failures = fn, 0, 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        try:
            return self.fn(*args, **kwargs)
        except np.linalg.LinAlgError:
            self.failures += 1
            raise


class TestOneFactorization:
    """One factorization per decision: a Strict decision takes one Cholesky
    (above CHOLESKY_BLOCK rows, one blocked factorization, which calls
    np.linalg.cholesky once per diagonal block) and no eigh; any other
    verdict takes one failed Cholesky and one eigh."""

    @pytest.fixture
    def linalg_calls(self, monkeypatch):
        # the module, not the function qhm.classify
        classify_module = importlib.import_module("qhm.classify")
        counters = {}
        for name in ("cholesky", "eigh", "lstsq", "svd"):
            counters[name] = _Counter(getattr(np.linalg, name))
            monkeypatch.setattr(np.linalg, name, counters[name])
        counters["blocked"] = _Counter(classify_module.blocked_cholesky)
        monkeypatch.setattr(classify_module, "blocked_cholesky",
                            counters["blocked"])
        return counters

    @staticmethod
    def _counts(linalg_calls):
        return {k: (c.calls, c.failures) for k, c in linalg_calls.items()}

    # ball3-2 has 129 points: one blocked factorization of its two blocks,
    # each factored by np.linalg.cholesky, and the refinement on the factor
    @pytest.mark.parametrize("key,choleskys,blocked", [
        ("interval-5", 1, 0), ("circle-2", 1, 0), ("ball3-2", 2, 1)])
    def test_m_constant_one_cholesky(self, linalg_calls, key, choleskys,
                                     blocked):
        dec = m_constant(fixture(key).space)
        assert dec.diagnostics["certificate"] == "cholesky"
        assert self._counts(linalg_calls) == {
            "cholesky": (choleskys, 0), "blocked": (blocked, 0),
            "eigh": (0, 0), "lstsq": (0, 0), "svd": (0, 0)}

    @pytest.mark.parametrize("key", ["circle-8", "nw-thm2.9", "nw-thm2.9a",
                                     "fourpoint-antipodal"])
    def test_m_constant_one_eigh(self, linalg_calls, key):
        dec = m_constant(fixture(key).space)
        assert dec.diagnostics["certificate"] == "eigh"
        assert dec.diagnostics["verdict"] != "Strict"
        assert self._counts(linalg_calls) == {
            "cholesky": (1, 1), "blocked": (0, 0), "eigh": (1, 0),
            "lstsq": (0, 0), "svd": (0, 0)}

    @pytest.mark.parametrize("key,expected", [
        ("interval-5", {"cholesky": (1, 0), "eigh": (0, 0)}),
        ("circle-8", {"cholesky": (1, 1), "eigh": (1, 0)}),
    ])
    def test_invariant_measure(self, linalg_calls, key, expected):
        invariant_measure(fixture(key).space)
        counts = self._counts(linalg_calls)
        assert {k: counts[k] for k in expected} == expected

    def test_zero_tol_skips_the_certificate(self, linalg_calls):
        # tau_hi = 0 is inside Cholesky's backward error: nothing to certify
        dec = m_constant(interval_grid(0, 1, 5), tol=0.0)
        assert dec.diagnostics["certificate"] == "eigh"
        assert self._counts(linalg_calls)["cholesky"] == (0, 0)
        assert self._counts(linalg_calls)["eigh"] == (1, 0)

    def test_glue_diverge_one_cholesky_per_decision(self, linalg_calls,
                                                    monkeypatch):
        import qhm.experiments as experiments

        decisions = _Counter(experiments.m_constant)
        monkeypatch.setattr(experiments, "m_constant", decisions)
        run_glue_diverge([11, 21])
        assert decisions.calls == 4
        assert self._counts(linalg_calls) == {
            "cholesky": (4, 0), "blocked": (0, 0), "eigh": (0, 0),
            "lstsq": (0, 0), "svd": (0, 0)}

    def test_small_strict_decisions_take_no_eigh(self, linalg_calls):
        # every Strict space with B of at most CHOLESKY_BLOCK rows among the
        # kinds a batch of small decisions draws is decided by one Cholesky
        rng = np.random.default_rng(23)
        spaces = [random_cloud(rng, 3, 16) for _ in range(60)]
        spaces += [random_metric(4, seed) for seed in range(30)]
        spaces += [interval_grid(0, 1, n) for n in (2, 3, 9, 33)]
        spaces += [interval_grid(0, 1, CHOLESKY_BLOCK + 1),
                   glue(GlueSpec(spaces[0], spaces[1], 2.0))]
        strict = [x for x in spaces if classify(x).verdict is Verdict.STRICT]
        assert len(strict) >= 80
        linalg_calls["eigh"].calls = 0
        for x in strict:
            dec = m_constant(x)
            assert dec.diagnostics["certificate"] == "cholesky"
            assert dec.finite
        assert linalg_calls["eigh"].calls == 0
        assert linalg_calls["blocked"].calls == 0


class TestEvidenceOnFirstRead:
    """A decision holds eigenpairs and weights; its measures are built when
    read, bit for bit those of the mass-zero basis map of the eigenvector."""

    @pytest.fixture
    def built(self, monkeypatch):
        # the modules, not the functions qhm.classify and qhm.energy
        classify_module = importlib.import_module("qhm.classify")
        energy_module = importlib.import_module("qhm.energy")
        msolver_module = importlib.import_module("qhm.msolver")
        built = []
        trusted = energy_module._trusted_measure
        checked = energy_module.SignedMeasure.__post_init__

        def count_trusted(space, w):
            built.append("trusted")
            return trusted(space, w)

        def count_checked(mu):
            built.append("checked")
            checked(mu)

        for module in (classify_module, msolver_module):
            monkeypatch.setattr(module, "_trusted_measure", count_trusted)
        monkeypatch.setattr(energy_module.SignedMeasure, "__post_init__",
                            count_checked)
        return built

    @pytest.mark.parametrize("key", ["nw-thm2.9", "nw-thm2.9a", "circle-8",
                                     "fourpoint-antipodal"])
    def test_classification(self, built, key):
        space = fixture(key).space
        cls = classify(space)
        assert built == []
        vals, vecs = cls.restricted_values, cls.restricted_vectors
        if cls.verdict is Verdict.NOT_QUASIHYPERMETRIC:
            expected = [vecs[:, 0]]
            got = [cls.witness]
            assert cls.kernel_basis == ()
        else:
            expected = [vecs[:, i]
                        for i in np.flatnonzero(np.abs(vals) <= cls.tol_used)]
            got = list(cls.kernel_basis)
            assert cls.witness is None
        assert len(built) == len(got) >= 1
        for mu, y in zip(got, expected):
            assert mu.weights.tobytes() == _from_mass_zero(y).tobytes()
            assert mu.space is space and not mu.weights.flags.writeable
        cls.witness, cls.kernel_basis  # read again: kept, not rebuilt
        assert len(built) == len(got)
        assert np.array_equal(cls.eigenvalues, np.sort(np.append(vals, 0.0)))

    @pytest.mark.parametrize("key", ["nw-thm2.9", "nw-thm2.9a"])
    def test_infinite_decision(self, built, key):
        space = fixture(key).space
        dec = m_constant(space)
        assert built == []
        assert dec.maximal_measure is None
        cls = classify(space)
        vals, vecs = cls.restricted_values, cls.restricted_vectors
        if dec.reason == "NotQuasihypermetric":
            y = vecs[:, 0]
        else:
            flats = dec.diagnostics["kernel_flat_values"]
            kernel = np.flatnonzero(np.abs(vals) <= cls.tol_used)
            y = vecs[:, kernel[int(np.argmax(np.abs(flats)))]]
        witness = dec.witness
        assert built == ["trusted"]
        assert witness.weights.tobytes() == _from_mass_zero(y).tobytes()
        assert dec.witness is witness

    def test_finite_decision(self, built):
        space = fixture("circle-8").space
        dec = m_constant(space)
        assert built == []
        assert dec.witness is None
        mu = dec.maximal_measure
        assert built == ["trusted"]
        assert mu.weights is dec.evidence and not mu.weights.flags.writeable
        assert dec.maximal_measure is mu


class TestNonFiniteSolve:
    # entries near the top of float64 overflow the restricted form and the
    # solve; a solve that is not finite is never accepted, so no measure is
    # made of it and the failure is numerical, not a rejected input
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("key, scale", [("circle-8", 1e307),
                                            ("fourpoint-antipodal", 4.77e307)])
    def test_is_a_solver_error(self, key, scale):
        from qhm.errors import SolverError, ValidationError

        space = validate_metric(fixture(key).space.dist * scale)
        for decide in (m_constant, invariant_measure):
            with pytest.raises(SolverError) as exc:
                decide(space)
            assert not isinstance(exc.value, ValidationError)


def _decide_both(space, tol=DEFAULT_TOL):
    """m_constant on the certified path and with the certificate disabled."""
    import qhm.msolver as msolver

    certified = m_constant(space, tol)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(msolver, "certify_strict", lambda b, tol: None)
        reference = m_constant(space, tol)
    assert reference.diagnostics["certificate"] == "eigh"
    return certified, reference


def _assert_agree(certified, reference):
    assert certified.status == reference.status
    assert certified.reason == reference.reason
    assert (certified.diagnostics["verdict"]
            == reference.diagnostics["verdict"])
    if certified.finite:
        assert certified.value == pytest.approx(reference.value, rel=1e-12)
        assert np.abs(certified.maximal_measure.weights
                      - reference.maximal_measure.weights).max() <= 1e-10
        assert certified.diagnostics["unique"] == reference.diagnostics["unique"]


class TestCertifiedPath:
    """The Cholesky-certified Strict path against the eigh path."""

    def test_random_clouds(self):
        rng = np.random.default_rng(2026)
        for _ in range(200):
            certified, reference = _decide_both(random_cloud(rng))
            assert certified.diagnostics["certificate"] == "cholesky"
            _assert_agree(certified, reference)

    @pytest.mark.parametrize("key", [k for k in fixture_keys() if "<" not in k]
                             + ["interval-2", "interval-9", "circle-2",
                                "circle-8", "circle-16", "ball3-1", "ball3-2"])
    def test_catalogue_fixtures(self, key):
        fx = fixture(key)
        certified, reference = _decide_both(fx.space)
        _assert_agree(certified, reference)
        strict = fx.expected.verdict is Verdict.STRICT
        assert (certified.diagnostics["certificate"] == "cholesky") == strict

    def test_ball_chain(self):
        _, _, spaces = ball_chain([51, 101, 201, 401, 801])
        for space in spaces:
            certified, reference = _decide_both(space)
            assert certified.diagnostics["certificate"] == "cholesky"
            _assert_agree(certified, reference)

    @pytest.mark.parametrize("key", ["interval-5", "circle-8", "nw-thm2.9a",
                                     "ball3-2"])
    def test_invariant_measure_matches_eigenpair_solve(self, key):
        from qhm.msolver import _invariant_solve

        space = fixture(key).space
        got = invariant_measure(space)
        diagnostics = {}
        w, c = _invariant_solve(space, classify(space), diagnostics)
        assert got.unique == diagnostics["unique"]
        assert got.value == pytest.approx(c, rel=1e-12)
        assert np.abs(got.measure.weights - w).max() <= 1e-10

    def test_diagnostics(self):
        x = fixture("ball3-1").space
        b = _restricted_form(x.dist)
        lam_min = float(np.linalg.eigvalsh(b)[0])
        dec = m_constant(x)
        assert dec.diagnostics["certificate"] == "cholesky"
        tau_hi = DEFAULT_TOL * float(np.linalg.norm(b))
        assert dec.diagnostics["margin"] == tau_hi
        assert classify(x).tol_used <= tau_hi < lam_min
        dec = m_constant(fixture("circle-8").space)
        assert dec.diagnostics["certificate"] == "eigh"
        assert dec.diagnostics["margin"] == classify(fixture("circle-8").space).margin

    def test_refinement_that_does_not_contract_falls_back(self):
        # shift = lambda_min / 1.5: the factor exists, but refinement
        # multiplies the error by shift / (lambda_min - shift) = 2
        _, _, (x,) = ball_chain([101])
        b = _restricted_form(x.dist)
        assert b.shape[0] > CHOLESKY_BLOCK
        lam_min = float(np.linalg.eigvalsh(b)[0])
        tol = lam_min / 1.5 / float(np.linalg.norm(b))
        cert = certify_strict(b, tol)
        assert cert is not None
        rhs = householder_basis(x.n).T @ (x.dist @ np.full(x.n, 1.0 / x.n))
        assert _certified_inverse(cert, rhs) is None
        dec = m_constant(x, tol)
        assert dec.diagnostics["certificate"] == "eigh"
        assert dec.diagnostics["verdict"] == "Strict"
        assert dec.value == pytest.approx(m_constant(x).value, rel=1e-12)

    @pytest.mark.parametrize("ratio", [1.2, 1.5, 2.5, 2.9])
    def test_refinement_near_the_boundary(self, ratio):
        # a 103-point glue at delta = 1e-8 with shift = lambda_min / ratio:
        # refinement stops after one correction with y wrong by f^2 =
        # (shift / (lambda_min - shift))^2 along the smallest eigenvector,
        # yet with a backward error within SOLVE_REL; the decision must
        # still be at the closed form up to the rounding of the gap
        _, _, (x,) = ball_chain([101])
        m_x, m_y = m_constant(x).value, 0.5
        s = m_x + m_y
        c = 0.5 * s * (1.0 + 1e-8)
        z = glue(GlueSpec(x, _two_points(), c))
        b = _restricted_form(z.dist)
        assert b.shape[0] > CHOLESKY_BLOCK
        eps = np.finfo(np.float64).eps
        rounding = (b.shape[0] + 1) * eps * float(b.trace())
        shift = float(np.linalg.eigvalsh(b)[0]) / ratio
        tol = (shift - 2.0 * rounding) / float(np.linalg.norm(b))
        assert certify_strict(b, tol) is not None
        dec = m_constant(z, tol)
        assert dec.finite and dec.diagnostics["verdict"] == "Strict"
        gap = 2.0 * c - s
        want = (c * c - m_x * m_y) / gap
        assert abs(dec.value - want) <= 64.0 * eps * s / gap * want

    @pytest.mark.parametrize("spaces", ["clouds", "ball-201"])
    @pytest.mark.parametrize("target", ["tau_hi", "tau"])
    @pytest.mark.parametrize("factor", [1 - 1e-3, 1 - 1e-7, 1 + 1e-7, 1 + 1e-3])
    def test_straddle(self, target, factor, spaces):
        # tol puts tau_hi (or classify's tau) just below or just above
        # lambda_min: the certificate never says Strict where eigh does not.
        # The ball's form has four blocks, so its certificate is the blocked
        # factorization. With tau above lambda_min its eigenvector is a
        # degenerate direction whose constant potential value is nonzero,
        # and it explains why the invariant solve is rejected.
        if spaces == "ball-201":
            _, _, xs = ball_chain([201])
        else:
            rng = np.random.default_rng(31)
            xs = [validate_metric(random_cloud(rng).dist * 10.0)
                  for _ in range(20)]
        for x in xs:
            b = _restricted_form(x.dist)
            vals, vecs = np.linalg.eigh(b)
            scale = (float(np.linalg.norm(b)) if target == "tau_hi"
                     else float(np.abs(vals).max()))
            assert scale > 1.0
            tol = factor * float(vals[0]) / scale
            cert = certify_strict(b, tol)
            cls = classify(x, tol)
            if cert is not None:
                assert cls.verdict is Verdict.STRICT
                assert cert.margin < vals[0]
            if target == "tau_hi":
                assert (cert is not None) == (factor < 1.0)
            else:
                assert cert is None
                assert (cls.verdict is Verdict.STRICT) == (factor < 1.0)
            dec = m_constant(x, tol)
            if cls.verdict is Verdict.STRICT:
                assert dec.diagnostics["verdict"] == "Strict"
            else:
                assert dec.diagnostics["verdict"] == "NonStrict"
                assert (dec.status, dec.reason) == ("infinite",
                                                    "NonzeroFlatKernel")
                f = _from_mass_zero(vecs[:, 0])
                assert abs(dec.witness.weights @ f) >= 1.0 - 1e-12
                diag = dec.diagnostics
                assert abs(diag["flat_value"]) > diag["residual_bound"]


def _planted_form(m, lam_min, seed):
    """b = V diag(lam) V' for a seeded orthogonal V, with lam_min planted
    under the other eigenvalues, which are uniform in [1, 2]."""
    rng = np.random.default_rng(seed)
    v, _ = np.linalg.qr(rng.standard_normal((m, m)))
    lam = rng.uniform(1.0, 2.0, m)
    lam[0] = lam_min
    b = (v * lam) @ v.T
    return 0.5 * (b + b.T)


class TestBlockedCertificate:
    """The blocked factorization's certificate on synthetic forms of one
    block plus one row, two blocks plus one, three and a part, and more."""

    @pytest.mark.parametrize("m", [65, 129, 200, 401])
    @pytest.mark.parametrize("factor", [1 - 1e-3, 1 - 1e-7, 1 + 1e-7, 1 + 1e-3])
    def test_never_certifies_below_the_margin(self, m, factor):
        # lambda_min = factor * tau_hi
        b = _planted_form(m, 1e-6, m)
        lam_min = float(np.linalg.eigvalsh(b)[0])
        cert = certify_strict(b, lam_min / factor / float(np.linalg.norm(b)))
        assert cert is None or lam_min > cert.margin
        if factor < 1.0:
            assert cert is None

    @pytest.mark.parametrize("m", [65, 129, 200, 401])
    def test_certifies_above_the_shift(self, m):
        # lambda_min = 1.01 (tau_hi + 2 r)
        b = _planted_form(m, 1e-6, m)
        lam_min = float(np.linalg.eigvalsh(b)[0])
        rounding = (m + 1) * np.finfo(np.float64).eps * float(b.trace())
        tau_hi = lam_min / 1.01 - 2.0 * rounding
        cert = certify_strict(b, tau_hi / float(np.linalg.norm(b)))
        assert cert is not None
        assert cert.rounding == rounding
        assert cert.factor.panel_error <= rounding
        assert lam_min > cert.margin

    def test_perturbed_block_inverse_is_refused(self, monkeypatch):
        # one inverse 1e-6 off leaves a panel residual far above r: the
        # residual check is what refuses it (the last block has no panel)
        b = _planted_form(200, 0.5, 3)
        assert certify_strict(b, DEFAULT_TOL) is not None
        inverses = []
        inv = np.linalg.inv

        def perturbed(a):
            inverses.append(a)
            w = inv(a)
            return w * (1.0 + 1e-6) if len(inverses) == 2 else w

        monkeypatch.setattr(np.linalg, "inv", perturbed)
        assert certify_strict(b, DEFAULT_TOL) is None
        assert len(inverses) == 4


BAD_TOLS = [math.nan, math.inf, -math.inf, -1.0, -1e-12, "x", None]


class TestToleranceChecked:
    @pytest.mark.parametrize("tol", BAD_TOLS)
    @pytest.mark.parametrize("call", [
        lambda tol: classify(fixture("nw-thm2.9a").space, tol),
        lambda tol: m_constant(interval_grid(0, 1, 5), tol),
        lambda tol: invariant_measure(interval_grid(0, 1, 5), tol),
        lambda tol: classify(validate_metric([[0.0]]), tol),
        lambda tol: verify_maximal(interval_grid(0, 1, 3),
                                   measure(interval_grid(0, 1, 3),
                                           [0.5, 0.0, 0.5]), 0.5, tol=tol),
    ], ids=["classify", "m_constant", "invariant_measure", "classify-1pt",
            "verify_maximal"])
    def test_rejects_bad_tol(self, call, tol):
        # a NaN tol used to call nw-thm2.9a Strict and a negative one made
        # the constant of [0, 1] infinite
        with pytest.raises(InvalidInputError):
            call(tol)

    def test_zero_tol_accepted(self):
        assert classify(interval_grid(0, 1, 5), 0.0).verdict is Verdict.STRICT

    def test_zero_tol_solves(self):
        # the residual check has its own floor, so tol = 0 still finds M
        x = interval_grid(0, 1, 5)
        dec = m_constant(x, 0.0)
        assert dec.finite
        assert dec.value == pytest.approx(0.5, abs=1e-12)
        assert invariant_measure(x, 0.0).value == pytest.approx(0.5, abs=1e-12)


class TestMConstant:
    def test_boundary_fixture_infinite_flat_kernel(self, five_point_boundary):
        dec = m_constant(five_point_boundary)
        assert dec.status == "infinite"
        assert dec.reason == "NonzeroFlatKernel"
        pot = potential(five_point_boundary, dec.witness)
        const = pot.mean()
        assert abs(const) > 1e-8
        assert np.abs(pot - const).max() <= 1e-10

    def test_nonqhm_fixture_infinite(self, five_point_nonqhm):
        dec = m_constant(five_point_nonqhm)
        assert dec.status == "infinite"
        assert dec.reason == "NotQuasihypermetric"
        assert energy(five_point_nonqhm, dec.witness) > 0

    @pytest.mark.parametrize("n", [2, 3, 5, 9])
    def test_interval_grids(self, n):
        dec = m_constant(interval_grid(0, 1, n))
        assert dec.finite
        assert dec.value == pytest.approx(0.5, abs=1e-12)
        w = dec.maximal_measure.weights
        assert w[0] == pytest.approx(0.5, abs=1e-9)
        assert w[-1] == pytest.approx(0.5, abs=1e-9)
        assert np.abs(w[1:-1]).max() <= 1e-9 if n > 2 else True

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 16])
    def test_even_polygons(self, n):
        dec = m_constant(regular_polygon_arc(n))
        assert dec.finite
        assert dec.value == pytest.approx(math.pi / 2.0, abs=1e-9)

    def test_single_point(self):
        dec = m_constant(validate_metric([[0.0]]))
        assert dec.finite and dec.value == 0.0

    # one-array and per-coordinate clouds; the one-block LU solve up to 65
    # points, certificates of 2 and 8 blocks at 129 and 501
    @pytest.mark.parametrize("n", [3, 4, 7, 64, 65, 129, 501])
    def test_regular_polygon_chord_metric(self, n):
        # M = (2/n) cot(pi/2n) (Bjorck, Ark. Mat. 3, 1956)
        from qhm.experiments import _polygon_cloud

        dec = m_constant(_polygon_cloud(n))
        assert dec.finite and dec.diagnostics["certificate"] == "cholesky"
        assert dec.value == pytest.approx(
            2.0 / n / math.tan(math.pi / (2 * n)), rel=1e-14)

    def test_golden_angle_sphere_stays_below_four_thirds(self):
        # points on the unit sphere have M_N < 4/3 (Alexander-Stolarsky,
        # Trans. AMS 193, 1974); the golden-angle sets approach it
        from qhm.spaces import _sphere_lattice

        values = [m_constant(euclidean_cloud(_sphere_lattice(n, 1.0))).value
                  for n in (16, 64, 256, 1024)]
        assert values == pytest.approx([1.32008, 1.33172, 1.33313, 1.333309],
                                       abs=1e-5)
        assert all(a < b for a, b in zip(values, values[1:]))
        assert values[-1] < 4.0 / 3.0

    def test_diagnostics_present(self):
        # on the cholesky path (the grid) and on the eigh path (circle-8),
        # with how close the solve's acceptance came
        for space in (interval_grid(0, 1, 4), fixture("circle-8").space):
            dec = m_constant(space)
            diag = dec.diagnostics
            assert "margin" in diag
            assert diag["flatness"] <= 1e-10
            l1 = float(np.abs(dec.maximal_measure.weights).sum())
            assert diag["measure_l1"] == pytest.approx(l1, rel=1e-15)
            assert diag["residual_bound"] == pytest.approx(
                SOLVE_REL * diameter(space) * l1, rel=1e-15)
            assert diag["mass_bound"] == pytest.approx(SOLVE_REL * l1,
                                                       rel=1e-15)
            assert diag["flatness"] <= diag["residual_bound"]
            assert diag["mass_error"] <= diag["mass_bound"]


class TestGluedMPredict:
    def test_boundary_unequal_components_infinite(self):
        pred = glued_m_predict(0.5, 8.0 / 15.0, 31.0 / 60.0)
        assert pred.kind == "infinite"

    def test_finite_case_matches_direct_solve(self):
        pred = glued_m_predict(1.0, 1.0, 2.0)
        assert pred.kind == "finite"
        assert pred.value == pytest.approx(1.5)
        two = validate_metric([[0, 2], [2, 0]])
        z = glue(GlueSpec(two, two, 2.0))
        assert m_constant(z).value == pytest.approx(1.5, abs=1e-12)

    def test_two_singletons(self):
        pred = glued_m_predict(0.0, 0.0, 1.0)
        assert pred.kind == "finite"
        assert pred.value == pytest.approx(0.5)

    def test_boundary_equal_components(self):
        pred = glued_m_predict(0.75, 0.75, 0.75)
        assert pred.kind == "boundary"
        assert pred.value == 0.75

    def test_below_boundary_infinite(self):
        assert glued_m_predict(1.0, 1.0, 0.9).kind == "infinite"

    def test_divergence_experiment_operating_point(self):
        # component constant 1 against the distance-2 pair at c = 3/2
        pred = glued_m_predict(1.0, 1.0, 1.5)
        assert pred.kind == "finite"
        assert pred.value == pytest.approx(1.25)

    def test_invalid_inputs(self):
        with pytest.raises(InvalidInputError):
            glued_m_predict(-1.0, 0.5, 1.0)
        with pytest.raises(InvalidInputError):
            glued_m_predict(0.5, math.inf, 1.0)
        with pytest.raises(InvalidInputError):
            glued_m_predict(0.5, 0.5, 0.0)
        # these used to raise a bare TypeError
        for args in [(0.5, 0.5, "x"), (None, 0.5, 1.0), (0.5, 0.5, True)]:
            with pytest.raises(InvalidInputError, match="finite real number"):
                glued_m_predict(*args)


class TestGluedInvariant:
    def test_boundary_fixture_combination(self):
        x = validate_metric([[0, 1], [1, 0]])
        y = validate_metric([[0, 0.8, 0.8], [0.8, 0, 0.8], [0.8, 0.8, 0]])
        mu1 = measure(x, [0.5, 0.5])
        mu2 = measure(y, [1/3, 1/3, 1/3])
        c = 31.0 / 60.0
        combined = glued_invariant(mu1, mu2, 0.5, 8.0 / 15.0, c)
        expected = np.array([0.5, 0.5, -1/3, -1/3, -1/3]) / 60.0
        assert np.allclose(combined.weights, expected, atol=1e-15)
        pot = potential(combined.space, combined)
        # value m_x m_y - c^2 = 4/15 - (31/60)^2 = -1/3600
        assert np.allclose(pot, -1.0 / 3600.0, atol=1e-12)
        assert combined.mass == pytest.approx(0.5 + 8.0 / 15.0 - 2 * c, abs=1e-12)

    def test_two_singletons(self):
        one_a = validate_metric([[0.0]], name="a")
        one_b = validate_metric([[0.0]], name="b")
        combined = glued_invariant(measure(one_a, [1.0]), measure(one_b, [1.0]),
                                   0.0, 0.0, 1.0)
        assert np.array_equal(combined.weights, [-1.0, -1.0])
        assert np.allclose(potential(combined.space, combined), -1.0)

    def test_equal_pair_blocks(self):
        two = validate_metric([[0, 2], [2, 0]])
        mu = measure(two, [0.5, 0.5])
        combined = glued_invariant(mu, mu, 1.0, 1.0, 2.0)
        assert combined.mass == pytest.approx(-2.0)
        pot = potential(combined.space, combined)
        assert np.allclose(pot, -3.0, atol=1e-12)
        normalized = measure(combined.space, combined.weights / combined.mass)
        assert np.allclose(potential(combined.space, normalized), 1.5)

    def test_rejects_non_invariant_input(self):
        x = interval_grid(0, 1, 3)
        with pytest.raises(NotInvariantInputError):
            glued_invariant(uniform(x), uniform(x), 0.5, 0.5, 1.0)

    def test_consistent_with_prediction_on_random_pairs(self):
        # three routes must agree: the combined measure's constant potential,
        # its normalization, and the closed-form glued constant
        rng = np.random.default_rng(77)
        done = 0
        while done < 10:
            x = random_cloud(rng)
            y = random_cloud(rng)
            dx = m_constant(x)
            dy = m_constant(y)
            c = (dx.value + dy.value) / 2.0 + float(rng.uniform(0.05, 0.8))
            if 2 * c < max(diameter(x), diameter(y)):
                continue
            combined = glued_invariant(dx.maximal_measure, dy.maximal_measure,
                                       dx.value, dy.value, c)
            pot = potential(combined.space, combined)
            const = dx.value * dy.value - c * c
            assert np.abs(pot - const).max() <= 1e-9
            assert combined.mass == pytest.approx(dx.value + dy.value - 2 * c,
                                                  abs=1e-12)
            normalized = measure(combined.space,
                                 combined.weights / combined.mass)
            pred = glued_m_predict(dx.value, dy.value, c)
            assert pred.kind == "finite"
            assert np.allclose(potential(combined.space, normalized),
                               pred.value, atol=1e-8)
            done += 1


class TestAscentOracle:
    @pytest.mark.parametrize("perron_min_points", [2, None])
    def test_default_step_never_above_spectral_step(self, perron_min_points,
                                                    monkeypatch):
        # the step 1/(2 rho) from eigvalsh is the largest that keeps the
        # ascent monotone; the Perron bound may only shrink it, by < 1e-12
        import qhm.msolver as msolver

        if perron_min_points is not None:
            monkeypatch.setattr(msolver, "PERRON_MIN_POINTS", perron_min_points)
        spaces = [fixture(k).space for k in
                  ["nw-thm2.9", "nw-thm2.9a", "fourpoint-antipodal",
                   "interval-2", "interval-5", "circle-8", "ball3-1"]]
        spaces += ball_chain([201, 801])[2]
        for space in spaces:
            rho = float(np.abs(np.linalg.eigvalsh(space.dist)).max())
            spectral = 1.0 / (2.0 * rho)
            step = msolver.ascent_step_default(space)
            assert step <= spectral
            assert step >= spectral * (1.0 - 1e-12)

    def test_interval_converges_to_half(self):
        trace = ascent_oracle(interval_grid(0, 1, 5), iterations=100_000, seed=3)
        assert abs(trace.best_value - 0.5) <= 1e-6

    def test_boundary_fixture_blows_up(self, five_point_boundary):
        trace = ascent_oracle(five_point_boundary, iterations=500_000,
                              blowup=5.0, seed=0)
        assert trace.blown_up
        assert trace.best_value > 5.0

    def test_single_point(self):
        trace = ascent_oracle(validate_metric([[0.0]]), iterations=10)
        assert trace.best_value == 0.0
        assert trace.iterations_run == 0
        assert trace.status == "converged"

    def test_trace_is_monotone(self):
        trace = ascent_oracle(regular_polygon_arc(6), iterations=20_000, seed=1)
        assert (np.diff(trace.best_values) >= 0).all()
        assert trace.iterations[0] == 0

    def test_deterministic_given_seed(self):
        a = ascent_oracle(random_metric(5, 2), iterations=5_000, seed=9)
        b = ascent_oracle(random_metric(5, 2), iterations=5_000, seed=9)
        assert a.best_value == b.best_value
        assert np.array_equal(a.best_measure.weights, b.best_measure.weights)

    def test_flat_kernel_grows_without_converging(self, five_point_boundary):
        # NonzeroFlatKernel: the best value grows only linearly, so at the
        # default threshold the run ends at "maxiter", not at "blowup"
        trace = ascent_oracle(five_point_boundary, iterations=20_000)
        assert trace.status != "converged"
        assert (np.diff(trace.best_values) >= 0).all()

    @pytest.mark.parametrize("space", [fixture("nw-thm2.9a").space,
                                       random_metric(40, 0)],
                             ids=["nw-thm2.9a", "random-40"])
    def test_not_quasihypermetric_blows_up(self, space):
        # the fixed step 1/(2 rho) keeps the iteration an ascent, which a
        # longer one is not: twenty times it leaves nw-thm2.9a at "maxiter"
        # near 1027
        assert ascent_oracle(space, iterations=20_000).status == "blowup"

    @pytest.mark.parametrize("bad", [
        {"blowup": -1.0}, {"blowup": 0.0}, {"blowup": math.nan},
        {"blowup": math.inf}, {"iterations": 0}, {"iterations": -1},
        {"iterations": 2.5}, {"iterations": True}, {"iterations": 2 ** 64},
        {"seed": -1}, {"seed": 1.5}, {"blowup": "x"},
    ])
    def test_rejects_bad_parameters(self, bad):
        # blowup=-1 used to report a divergence on a space whose M is 0.5;
        # iterations 2.5 raised AttributeError, 2^64 IndexError, True ran
        # one iteration, and a seed of -1 or 1.5 a bare numpy error
        with pytest.raises(InvalidInputError):
            ascent_oracle(interval_grid(0, 1, 5), **{"iterations": 100, **bad})


class TestVerifyMaximal:
    def test_interval_endpoint_measure(self):
        x = interval_grid(0, 1, 3)
        report = verify_maximal(x, measure(x, [0.5, 0.0, 0.5]), 0.5,
                                trials=500, seed=4)
        assert report.flatness <= 1e-15
        assert report.dominance_violations == 0
        assert report.norm_squared == pytest.approx(1.0, abs=1e-12)

    def test_uniform_is_not_maximal_on_interval(self):
        x = interval_grid(0, 1, 3)
        report = verify_maximal(x, uniform(x), 0.5, trials=10, seed=0)
        assert report.flatness == pytest.approx(1.0 / 6.0)

    def test_single_point_atom(self):
        x = validate_metric([[0.0]])
        report = verify_maximal(x, measure(x, [1.0]), 0.0, trials=50)
        assert report.flatness == 0.0
        assert report.dominance_violations == 0
        assert report.norm_squared == pytest.approx(1.0)

    def test_mass_precondition(self):
        x = interval_grid(0, 1, 3)
        with pytest.raises(InvalidInputError):
            verify_maximal(x, measure(x, [1.0, 1.0, 1.0]), 0.5)

    @pytest.mark.parametrize("trials, seed, message", [
        (0, 0, "at least 1 trial"), (-1, 0, "at least 1 trial"),
        (2.5, 0, "at least 1 trial"), (2.0, 0, "at least 1 trial"),
        (True, 0, "at least 1 trial"), (10, -1, "at least 0 for the seed")],
        ids=["0", "-1", "2.5", "2.0", "True", "seed-1"])
    def test_needs_a_trial(self, trials, seed, message):
        # trials=0 used to pass with worst_excess -inf, having tested nothing,
        # and seed=-1 raised a bare numpy ValueError
        x = interval_grid(0, 1, 3)
        with pytest.raises(InvalidInputError, match=message):
            verify_maximal(x, measure(x, [0.5, 0.0, 0.5]), 0.5, trials=trials,
                           seed=seed)


class TestSequenceDiagnostics:
    def test_interval_chain_is_stationary(self):
        sizes = [2, 3, 5, 9]
        full = interval_grid(0, 1, 9)
        chains = [[k * (8 // (n - 1)) for k in range(n)] for n in sizes]
        measures = []
        for n in sizes:
            w = np.zeros(n)
            w[0] = w[-1] = 0.5
            measures.append(w)
        rows = sequence_diagnostics(full, chains, measures)
        assert [r.n_k for r in rows] == sizes
        for r in rows:
            assert r.i_mu == pytest.approx(0.5, abs=1e-12)
            assert r.flatness <= 1e-12
            if r.k > 0:
                assert r.seminorm_step <= 1e-6
        assert rows[0].seminorm_step is None

    def test_single_element_chain(self):
        x = interval_grid(0, 1, 3)
        rows = sequence_diagnostics(x, [[0, 1, 2]], [[0.5, 0.0, 0.5]])
        assert len(rows) == 1
        assert rows[0].seminorm_step is None

    def test_chain_mismatch_not_nested(self):
        x = interval_grid(0, 1, 5)
        with pytest.raises(ChainMismatchError):
            sequence_diagnostics(x, [[0, 1], [2, 3, 4]],
                                 [[0.5, 0.5], [0.5, 0.0, 0.5]])

    def test_chain_mismatch_bad_mass(self):
        x = interval_grid(0, 1, 3)
        with pytest.raises(ChainMismatchError):
            sequence_diagnostics(x, [[0, 2]], [[0.5, 0.6]])

    def test_chain_mismatch_wrong_length(self):
        x = interval_grid(0, 1, 3)
        with pytest.raises(ChainMismatchError):
            sequence_diagnostics(x, [[0, 2]], [[1.0]])

    @pytest.mark.parametrize("chain", [[[0, 4.9]], [[0, 4.0]], [[True, 4]],
                                       [[0, np.bool_(True)]],
                                       [[0, 4], [0, 2.5, 4]]])
    def test_chain_mismatch_non_integer_index(self, chain):
        # 4.9 used to be truncated to 4 and True read as 1
        x = interval_grid(0, 1, 5)
        measures = [np.full(len(ix), 1.0 / len(ix)) for ix in chain]
        with pytest.raises(ChainMismatchError, match="not an integer"):
            sequence_diagnostics(x, chain, measures)

    def test_numpy_integer_indices(self):
        x = interval_grid(0, 1, 5)
        got = sequence_diagnostics(x, [np.array([0, 4])], [[0.5, 0.5]])
        want = sequence_diagnostics(x, [[0, 4]], [[0.5, 0.5]])
        assert got == want

    def test_raw_weights_must_be_real_numbers(self):
        # a string weight used to raise a bare ValueError
        x = interval_grid(0, 1, 5)
        with pytest.raises(MalformedMatrixError, match="weight entries"):
            sequence_diagnostics(x, [[0, 4]], [["a", 0.5]])


def _equal_glue():
    """interval-5 (M = 1/2, weight on the endpoints) glued at c = 1/2 to two
    points at distance 1 (M = 1/2): NonStrict and finite, so its invariant
    solve runs on the eigh path, and the uniform measure is not invariant."""
    return glue(GlueSpec(interval_grid(0, 1, 5),
                         validate_metric([[0, 1], [1, 0]]), 0.5))


def _two_points():
    return validate_metric([[0, 1], [1, 0]])


def _near_boundary_glue(delta):
    """(z, x, y, dec_x): 2 points at distance 1 (M = 1/2) glued to 3 points
    at distance 0.8 (M = 8/15) at c = c0 (1 + delta), c0 = 31/60 the
    boundary, and the decision on the first component."""
    x = _two_points()
    y = validate_metric(0.8 * (1.0 - np.eye(3)))
    c = 0.5 * (0.5 + 8.0 / 15.0) * (1.0 + delta)
    return glue(GlueSpec(x, y, c)), x, y, m_constant(x)


class TestNearBoundaryMeasure:
    """The maximizer m_constant gives a near-boundary Strict space, with
    ||w||_1 about 1e7, passes every check the library makes of a measure
    given as invariant or maximal."""

    @pytest.mark.parametrize("delta", [3e-9, 1e-9])
    def test_downstream_checks_accept_it(self, delta):
        z, x, y, dx = _near_boundary_glue(delta)
        dec = m_constant(z)
        assert dec.finite and dec.diagnostics["measure_l1"] > 1e7
        w = dec.maximal_measure
        report = verify_maximal(z, w, dec.value, trials=20)
        assert report.flatness <= dec.diagnostics["residual_bound"]
        assert report.dominance_violations == 0
        rows = sequence_diagnostics(z, [range(x.n), range(z.n)],
                                    [dx.maximal_measure, w])
        assert rows[1].n_k == z.n and rows[1].seminorm_step > 0.0
        combined = glued_invariant(w, dx.maximal_measure, dec.value,
                                   dx.value, 2.0 * dec.value)
        assert combined.space.n == z.n + x.n


class TestInconsistencyGuard:
    def test_missing_solution_on_finite_path_raises(self, monkeypatch):
        import qhm.msolver as msolver

        real = msolver._invariant_solve

        def rejected(space, evidence, checks):
            real(space, evidence, checks)
            return None

        monkeypatch.setattr(msolver, "_invariant_solve", rejected)
        with pytest.raises(InconsistencyError) as exc:
            msolver.m_constant(interval_grid(0, 1, 3))
        diag = exc.value.diagnostics
        assert diag["certificate"] == "eigh" and "margin" in diag
        for key in ("flatness", "residual_bound", "mass_error", "mass_bound",
                    "measure_l1"):
            assert math.isfinite(diag[key])
        assert f"{diag['residual_bound']:.3e}" in str(exc.value)

    @pytest.mark.parametrize("case", ["equal-glue", "interval-5-tol-0"])
    def test_perturbed_solve_is_rejected(self, monkeypatch, case):
        # the eigh path's correction scaled by 1 + 1e-6 moves the potential
        # off its constant by 1e-6 of its spread, far beyond the check
        import qhm.msolver as msolver

        if case == "equal-glue":
            space, tol = _equal_glue(), DEFAULT_TOL
        else:  # tol = 0 leaves a Strict space without a certificate
            space, tol = fixture("interval-5").space, 0.0
        dec = m_constant(space, tol)
        assert dec.finite and dec.diagnostics["certificate"] == "eigh"
        real = msolver._classify_form

        def scaled(space, b, tol):
            cls = real(space, b, tol)
            return dataclasses.replace(
                cls, restricted_values=cls.restricted_values / (1.0 + 1e-6))

        monkeypatch.setattr(msolver, "_classify_form", scaled)
        with pytest.raises(InconsistencyError) as exc:
            m_constant(space, tol)
        diag = exc.value.diagnostics
        assert diag["flatness"] > diag["residual_bound"]
        assert diag["verdict"] == dec.diagnostics["verdict"]
        # the equal glue's degenerate direction has a zero flat value, so
        # the rejection is no evidence of an infinite constant
        if case == "equal-glue":
            assert diag["verdict"] == "NonStrict"
            assert "flat_value" not in diag
        assert invariant_measure(space, tol) is None


class TestSolverProperties:
    def test_subset_monotonicity(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            x = random_cloud(rng, n_min=4, n_max=8)
            dec = m_constant(x)
            k = int(rng.integers(2, x.n))
            idx = sorted(rng.choice(x.n, size=k, replace=False).tolist())
            sub_dec = m_constant(subspace(x, idx))
            assert sub_dec.value <= dec.value + 1e-9

    def test_glue_consistency_random_clouds(self):
        rng = np.random.default_rng(99)
        done = 0
        while done < 10:
            x = random_cloud(rng)
            y = random_cloud(rng)
            m_x = m_constant(x).value
            m_y = m_constant(y).value
            c = (m_x + m_y) / 2.0 + rng.uniform(0.05, 1.0)
            if 2 * c < max(diameter(x), diameter(y)):
                continue
            z = glue(GlueSpec(x, y, c))
            direct = m_constant(z).value
            pred = glued_m_predict(m_x, m_y, c)
            assert pred.kind == "finite"
            assert direct == pytest.approx(pred.value, rel=1e-7)
            done += 1

    def test_unique_iff_strict_on_samples(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = random_cloud(rng)
            if classify(x).verdict is Verdict.STRICT:
                assert invariant_measure(x).unique

    def test_maximal_measure_verifies(self):
        rng = np.random.default_rng(55)
        for _ in range(10):
            x = random_cloud(rng)
            dec = m_constant(x)
            report = verify_maximal(x, dec.maximal_measure, dec.value,
                                    trials=1000, seed=7)
            assert report.flatness <= 1e-8 * (1 + dec.value)
            assert report.dominance_violations == 0
            assert report.norm_squared == pytest.approx(1.0, abs=1e-8)

    def test_oracle_agreement_small(self):
        rng = np.random.default_rng(41)
        for _ in range(5):
            x = random_cloud(rng)
            dec = m_constant(x)
            trace = ascent_oracle(x, iterations=100_000, seed=11)
            assert dec.value - 1e-4 <= trace.best_value <= dec.value + 1e-9

    @pytest.mark.parametrize("lam", [1e-12, 1e-9, 1e-6, 0.01, 3.7, 1e6, 1e9,
                                     1e12])
    def test_scaling_covariance(self, lam):
        rng = np.random.default_rng(13)
        for _ in range(10):
            x = random_cloud(rng)
            dec = m_constant(x)
            scaled = validate_metric(x.dist * lam)
            dec_scaled = m_constant(scaled)
            assert dec_scaled.value == pytest.approx(lam * dec.value, rel=1e-9)
            assert np.abs(dec_scaled.maximal_measure.weights
                          - dec.maximal_measure.weights).max() <= 1e-9

import numpy as np
import pytest

from qhm import (
    GlueSpec,
    Verdict,
    ball_chain,
    classify,
    diameter,
    energy,
    euclidean_cloud,
    fixture,
    glue,
    interval_grid,
    kernel_flat_values,
    m_constant,
    measure,
    potential,
    random_metric,
    regular_polygon_arc,
    validate_metric,
)
from qhm.classify import _from_mass_zero, _restricted_form
from qhm.errors import NotApplicableError
from qhm.msolver import _invariant_solve

from conftest import random_cloud
from oracles import brute_max_mass_zero_energy, householder_basis


class TestRestrictedForm:
    def test_two_point_hand_value(self):
        x = validate_metric([[0, 1], [1, 0]])
        assert np.allclose(_restricted_form(x.dist), [[1.0]], atol=1e-15)

    def test_basis_annihilates_ones(self):
        # every column Q e_i of the mass-zero basis sums to zero: Q'1 = 0
        for n in range(2, 9):
            q = np.stack([_from_mass_zero(e) for e in np.eye(n - 1)], axis=1)
            assert np.abs(np.ones(n) @ q).max() < 1e-12

    def test_quadratic_form_is_negative_energy(self):
        # for y in the mass-zero basis, y' B y = -energy(Q y)
        rng = np.random.default_rng(7)
        for _ in range(100):
            x = random_cloud(rng)
            y = rng.standard_normal(x.n - 1)
            lhs = float(y @ _restricted_form(x.dist) @ y)
            rhs = -energy(x, measure(x, _from_mass_zero(y)))
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestMassZeroBasis:
    @pytest.mark.parametrize("n", [2, 3, 8, 57])
    def test_restricted_form_matches_explicit_basis(self, n):
        x = euclidean_cloud(np.random.default_rng(n).uniform(size=(n, 3)))
        q = householder_basis(n)
        b = _restricted_form(x.dist)
        expected = -(q.T @ x.dist @ q)
        assert np.array_equal(b, b.T)
        assert np.abs(b - expected).max() <= 1e-13 * np.abs(expected).max()
        # the same spectrum as the centered form -PDP, P = I - ones/n, minus
        # its trivial zero
        p = np.eye(n) - 1.0 / n
        lam = np.linalg.eigvalsh(-(p @ x.dist @ p))
        lam = np.delete(lam, np.argmin(np.abs(lam)))
        assert np.allclose(np.linalg.eigvalsh(b), lam, atol=1e-12)

    def test_single_point_form_is_empty(self):
        assert _restricted_form(np.zeros((1, 1))).shape == (0, 0)

    @pytest.mark.parametrize("n", [2, 3, 8, 57])
    def test_vector_maps_match_explicit_basis(self, n):
        rng = np.random.default_rng(n)
        q = householder_basis(n)
        y = rng.standard_normal(n - 1)
        assert np.allclose(_from_mass_zero(y), q @ y, atol=1e-14)
        assert abs(_from_mass_zero(y).sum()) <= 1e-13


class TestClassify:
    def test_five_point_nonqhm(self, five_point_nonqhm):
        cls = classify(five_point_nonqhm)
        assert cls.verdict is Verdict.NOT_QUASIHYPERMETRIC
        assert abs(cls.witness.mass) <= 1e-9
        assert energy(five_point_nonqhm, cls.witness) > cls.tol_used

    def test_five_point_boundary(self, five_point_boundary):
        cls = classify(five_point_boundary)
        assert cls.verdict is Verdict.NON_STRICT
        assert len(cls.kernel_basis) == 1
        f = cls.kernel_basis[0]
        assert abs(f.mass) <= 1e-9
        assert abs(energy(five_point_boundary, f)) <= cls.tol_used

    @pytest.mark.parametrize("key", ["circle-8", "nw-thm2.9", "nw-thm2.9a",
                                     "fourpoint-antipodal", "circle-4"])
    def test_witness_and_kernel_are_unit_mass_zero(self, key):
        # Q y of a unit eigenvector y needs no recentring or rescaling
        space = fixture(key).space
        cls = classify(space)
        vectors = [cls.witness] if cls.witness else list(cls.kernel_basis)
        assert vectors
        for f in vectors:
            assert abs(f.mass) <= 1e-14
            assert abs(np.linalg.norm(f.weights) - 1.0) <= 1e-14

    def test_interval_grid_strict(self):
        x = interval_grid(0, 1, 4)
        assert classify(x).verdict is Verdict.STRICT
        # independent check: no random mass-zero direction carries positive
        # energy, and the best stays clearly away from zero only from below
        assert brute_max_mass_zero_energy(x.dist, 100_000, seed=1) < 0.0

    def test_circle_four_nonstrict(self):
        assert classify(regular_polygon_arc(4)).verdict is Verdict.NON_STRICT

    def test_single_point_strict_by_convention(self):
        cls = classify(validate_metric([[0.0]]))
        assert cls.verdict is Verdict.STRICT
        assert cls.margin is None

    def test_eigenvalues_sorted_full_spectrum(self, five_point_boundary):
        cls = classify(five_point_boundary)
        assert cls.eigenvalues.shape == (5,)
        assert (np.diff(cls.eigenvalues) >= 0).all()

    def test_kernel_basis_orthonormal(self):
        cls = classify(regular_polygon_arc(8))
        basis = np.stack([f.weights for f in cls.kernel_basis])
        gram = basis @ basis.T
        assert np.allclose(gram, np.eye(len(cls.kernel_basis)), atol=1e-10)

    def test_brute_force_agreement_small_spaces(self):
        spaces = [random_metric(n, seed) for n in (3, 4, 5)
                  for seed in range(6)]
        spaces.append(fixture("nw-thm2.9a").space)
        spaces.append(fixture("nw-thm2.9").space)
        for x in spaces:
            cls = classify(x)
            best = brute_max_mass_zero_energy(x.dist, 100_000, seed=0)
            if cls.verdict is Verdict.NOT_QUASIHYPERMETRIC:
                assert best > cls.tol_used
            else:
                assert best <= cls.tol_used * 10

    @pytest.mark.parametrize("seed", range(50))
    def test_four_point_never_nonqhm(self, seed):
        cls = classify(random_metric(4, seed))
        assert cls.verdict in (Verdict.STRICT, Verdict.NON_STRICT)

    @pytest.mark.parametrize("lam", [0.001, 0.37, 250.0])
    def test_scaling_invariance(self, lam, five_point_boundary, five_point_nonqhm):
        for x in (five_point_boundary, five_point_nonqhm,
                  interval_grid(0, 1, 5), random_metric(6, 8)):
            scaled = validate_metric(x.dist * lam)
            assert classify(scaled).verdict is classify(x).verdict


class TestKernelFlatValues:
    def test_boundary_space_constant(self, five_point_boundary):
        z = five_point_boundary
        cls = classify(z)
        flats = kernel_flat_values(z, cls)
        assert len(flats) == 1
        # at the specific normalization (.5,.5,-1/3,-1/3,-1/3) the constant
        # is exactly -1/60
        f = measure(z, [0.5, 0.5, -1/3, -1/3, -1/3])
        pot = potential(z, f)
        assert np.allclose(pot, -1.0 / 60.0, atol=1e-10)
        # the orthonormal basis vector is a rescaling, value scales with it
        scale = np.linalg.norm(f.weights)
        assert abs(flats[0].value) == pytest.approx((1.0 / 60.0) / scale,
                                                    rel=1e-9)
        assert flats[0].deviation <= 1e-10

    def test_circle_four_constant_zero(self):
        x = regular_polygon_arc(4)
        f = measure(x, [0.5, -0.5, 0.5, -0.5])
        pot = potential(x, f)
        assert np.abs(pot).max() <= 1e-10
        flats = kernel_flat_values(x, classify(x))
        for kf in flats:
            assert kf.value == pytest.approx(0.0, abs=1e-10)
            assert kf.deviation <= 1e-10

    @pytest.mark.parametrize("case", ["circle-8", "fourpoint-antipodal",
                                      "nw-thm2.9", "equal-glue", "ball-glue"])
    def test_deviation_and_value_identities(self, case):
        # along a degenerate direction f = Q y, B y = lambda y, the potential
        # is D f = mean(D f) - lambda f exactly, so its deviation is
        # |lambda| max|f|; its mean is the coefficient <Du, f> that the
        # invariant solve drops along f
        two = validate_metric([[0, 1], [1, 0]])
        if case == "equal-glue":
            space = glue(GlueSpec(interval_grid(0, 1, 5), two, 0.5))
        elif case == "ball-glue":  # NonStrict inside the verdict's band
            _, _, (x,) = ball_chain([401])
            c = 0.5 * (m_constant(x).value + 0.5) * (1.0 + 2e-8)
            space = glue(GlueSpec(x, two, c))
        else:
            space = fixture(case).space
        cls = classify(space)
        assert cls.verdict is Verdict.NON_STRICT
        flats = kernel_flat_values(space, cls)
        vals = cls.restricted_values
        lams = vals[np.abs(vals) <= cls.tol_used]
        diagnostics = {}
        _invariant_solve(space, cls, diagnostics)
        dropped = diagnostics["kernel_flat_values"]
        assert len(flats) == lams.size == len(dropped)
        bound = 64.0 * np.finfo(np.float64).eps * diameter(space) * np.sqrt(
            space.n)
        for kf, lam, coef in zip(flats, lams, dropped):
            spread = abs(lam) * np.abs(kf.vector.weights).max()
            assert abs(kf.deviation - spread) <= bound
            assert abs(kf.value - coef) <= bound

    def test_not_applicable_on_strict(self):
        x = interval_grid(0, 1, 3)
        with pytest.raises(NotApplicableError):
            kernel_flat_values(x, classify(x))

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qhm import (
    FiniteMetricSpace,
    GlueSpec,
    ball_chain,
    ball_discretization,
    diameter,
    euclidean_cloud,
    glue,
    interval_grid,
    load_space,
    random_metric,
    regular_polygon_arc,
    save_space,
    subspace,
    validate_metric,
)
import qhm.spaces
from qhm.errors import (
    AsymmetryExceedsToleranceError,
    CrossDistanceTooSmallError,
    DegenerateIntervalError,
    DuplicateIndexError,
    DuplicatePointError,
    EmptySelectionError,
    IndexOutOfRangeError,
    InvalidInputError,
    MalformedMatrixError,
    NegativeEntryError,
    NonSquareError,
    NonzeroDiagonalError,
    ParseError,
    TooFewPointsError,
    TriangleViolationError,
    ValidationError,
)
from qhm.spaces import space_from_json, space_to_json
from qhm._kernels import TRIANGLE_TILE, triangle_scan
from qhm.fixtures import fixture

from oracles import reference_space_to_json


class TestValidateMetric:
    def test_two_point(self):
        x = validate_metric([[0, 1], [1, 0]])
        assert x.n == 2
        assert diameter(x) == 1.0

    def test_uniform_three_block(self):
        x = validate_metric([[0, 2, 2], [2, 0, 2], [2, 2, 0]])
        assert x.n == 3
        assert diameter(x) == 2.0

    def test_triangle_violation_reports_worst_triple(self):
        with pytest.raises(TriangleViolationError) as exc:
            validate_metric([[0, 1, 3], [1, 0, 1], [3, 1, 0]])
        assert sorted(exc.value.triple) == [0, 1, 2]
        assert exc.value.deficit == pytest.approx(1.0)

    def test_non_square(self):
        with pytest.raises(NonSquareError):
            validate_metric([[0, 1, 2], [1, 0, 1]])

    def test_negative_entry(self):
        with pytest.raises(NegativeEntryError):
            validate_metric([[0, -1], [-1, 0]])

    def test_nonzero_diagonal(self):
        with pytest.raises(NonzeroDiagonalError):
            validate_metric([[0.1, 1], [1, 0]])

    def test_asymmetry_above_tolerance(self):
        with pytest.raises(AsymmetryExceedsToleranceError):
            validate_metric([[0, 1.1], [1, 0]])

    def test_asymmetry_within_tolerance_averaged(self):
        x = validate_metric([[0, 1.0 + 1e-12], [1.0, 0]])
        assert x.dist[0, 1] == x.dist[1, 0]
        assert x.dist[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_tolerance_is_not_a_parameter(self):
        # the triangle tolerance is TRIANGLE_TOL_REL times the largest
        # entry on every reader: the violation is caught and the metric
        # passes, and no caller can pass a NaN or negative tolerance
        bad = [[0, 1, 3], [1, 0, 1], [3, 1, 0]]
        good = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
        for read in (validate_metric,
                     lambda m: space_from_json(json.dumps({"matrix": m}))):
            with pytest.raises(TriangleViolationError):
                read(bad)
            assert np.array_equal(read(good).dist, good)
        for read in (validate_metric, space_from_json, load_space):
            with pytest.raises(TypeError):
                read(good, tol_triangle=float("nan"))

    def test_zero_off_diagonal_rejected(self):
        with pytest.raises(ValidationError):
            validate_metric([[0, 0], [0, 0]])

    def test_single_point(self):
        x = validate_metric([[0.0]])
        assert x.n == 1 and diameter(x) == 0.0

    def test_matrix_is_immutable(self):
        x = validate_metric([[0, 1], [1, 0]])
        with pytest.raises(ValueError):
            x.dist[0, 1] = 5.0


class TestBuilders:
    def test_interval_grid_two_points(self):
        assert np.array_equal(interval_grid(0, 1, 2).dist,
                              [[0, 1], [1, 0]])

    def test_interval_grid_three_points(self):
        x = interval_grid(0, 1, 3)
        assert np.array_equal(x.dist, [[0, 0.5, 1], [0.5, 0, 0.5], [1, 0.5, 0]])

    def test_interval_grid_diameter(self):
        assert diameter(interval_grid(0, 2, 5)) == 2.0
        assert diameter(interval_grid(0, 1, 5)) == 1.0

    def test_interval_grid_errors(self):
        with pytest.raises(DegenerateIntervalError):
            interval_grid(1, 1, 3)
        with pytest.raises(TooFewPointsError):
            interval_grid(0, 1, 1)

    def test_polygon_two_points_antipodal(self):
        assert diameter(regular_polygon_arc(2)) == np.float64(math.pi)

    def test_polygon_four_points(self):
        x = regular_polygon_arc(4)
        assert x.dist[0, 1] == x.dist[1, 2] == pytest.approx(math.pi / 2)
        assert x.dist[0, 2] == np.float64(math.pi)
        assert x.dist[1, 3] == np.float64(math.pi)

    def test_polygon_errors(self):
        with pytest.raises(TooFewPointsError):
            regular_polygon_arc(1)

    def test_euclidean_square(self):
        x = euclidean_cloud([[0, 0], [1, 0], [1, 1], [0, 1]])
        assert diameter(x) == pytest.approx(math.sqrt(2))

    def test_euclidean_pair(self):
        x = euclidean_cloud([[0, 0, 0], [1, 0, 0]])
        assert x.dist[0, 1] == 1.0

    def test_euclidean_duplicate(self):
        with pytest.raises(DuplicatePointError):
            euclidean_cloud([[0, 0], [0, 0], [1, 1]])

    @pytest.mark.parametrize("scale", [1e-12, 1e-6, 1.0, 1e6])
    def test_euclidean_duplicate_tolerance_scales_with_diameter(self, scale):
        # distinct points at any scale build; coincident ones still raise
        pts = np.random.default_rng(3).uniform(size=(8, 3)) * scale
        assert euclidean_cloud(pts).n == 8
        with pytest.raises(DuplicatePointError):
            euclidean_cloud(np.vstack([pts, pts[2]]))

    @pytest.mark.parametrize("n", [2, 5])
    def test_euclidean_all_points_equal(self, n):
        with pytest.raises(DuplicatePointError):
            euclidean_cloud(np.full((n, 3), 0.25))

    def test_euclidean_overflow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError) as exc:
                euclidean_cloud([[0, 0], [1e200, 0], [0, 1e200]])
        assert not isinstance(exc.value, DuplicatePointError)
        assert "non-finite" in str(exc.value)

    @pytest.mark.parametrize("shape", [(8, 3), (40, 3), (12, 9)])
    def test_euclidean_tiny_clouds_scale_exactly(self, shape):
        # down to 2^-1000 the distances are those of the unscaled cloud
        # times the same power of two: no squared difference underflows
        rng = np.random.default_rng(shape[0])
        for _ in range(20 if shape == (8, 3) else 3):
            pts = rng.uniform(-1.0, 1.0, shape)
            dist = euclidean_cloud(pts).dist
            for k in (0, 100, 400, 500, 900, 1000):
                assert np.array_equal(euclidean_cloud(np.ldexp(pts, -k)).dist,
                                      np.ldexp(dist, -k))

    @pytest.mark.parametrize("bad", [np.zeros((3, 0)), [[0.0, np.nan]],
                                     [[0.0, 1.0], [np.inf, 0.0]]])
    def test_euclidean_rejects_empty_or_non_finite_coordinates(self, bad):
        with pytest.raises(InvalidInputError):
            euclidean_cloud(bad)

    @pytest.mark.parametrize("k", [1, 2, 3, 8, 9, 12, 40])
    def test_euclidean_row_blocks_match_one_array(self, k):
        # 300 points span several row blocks at every k
        pts = np.random.default_rng(k).standard_normal((300, k)) * 7.0
        diff = pts[:, None, :] - pts[None, :, :]
        assert np.array_equal(euclidean_cloud(pts).dist,
                              np.sqrt((diff * diff).sum(axis=-1)))

    def test_euclidean_memory_stays_near_the_result(self):
        import tracemalloc

        pts = np.random.default_rng(0).uniform(-1.0, 1.0, (801, 3))
        tracemalloc.start()
        try:
            euclidean_cloud(pts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the result is 5.1 MB, and each temporary of a row block at most
        # one TRIANGLE_TILE slab; one (n, n, 3) difference array is 15.4 MB
        assert peak < 8 * (801 * 801 + 4 * TRIANGLE_TILE)

    def test_ball_counts(self):
        assert ball_discretization(1, 4).n == 5
        assert ball_discretization(2, 64).n == 129

    def test_ball_inside_unit_ball(self):
        x = ball_discretization(3, 16)
        assert diameter(x) <= 2.0

    def test_random_metric_deterministic(self):
        a = random_metric(4, 7)
        b = random_metric(4, 7)
        assert np.array_equal(a.dist, b.dist)

    def test_random_metric_range(self):
        x = random_metric(5, 1)
        off = x.dist[~np.eye(5, dtype=bool)]
        assert ((off >= 1.0) & (off <= 2.0)).all()

    def test_random_metric_single_point(self):
        assert random_metric(1, 0).n == 1

    @pytest.mark.parametrize("value", [2.5, True, -1, 2 ** 63])
    @pytest.mark.parametrize("build, error", [
        (lambda v: interval_grid(0, 1, v), TooFewPointsError),
        (lambda v: regular_polygon_arc(v), TooFewPointsError),
        (lambda v: ball_discretization(v, 10), InvalidInputError),
        (lambda v: ball_discretization(2, v), TooFewPointsError),
        (lambda v: random_metric(v, 0), TooFewPointsError),
        (lambda v: random_metric(3, v), InvalidInputError),
    ], ids=["interval", "polygon", "ball-shells", "ball-points",
            "random-n", "random-seed"])
    def test_counts_must_be_integers(self, build, error, value):
        # 2.5 used to raise a bare AttributeError or TypeError, True to
        # build a space of one shell or to seed with 1, and a seed of -1 a
        # bare numpy ValueError
        with pytest.raises(error, match="as an integer"):
            build(value)

    def test_numpy_integer_counts(self):
        # interval_grid and regular_polygon_arc used to call bit_length on
        # a numpy integer
        k = np.int64
        assert np.array_equal(interval_grid(0, 1, k(5)).dist,
                              interval_grid(0, 1, 5).dist)
        assert np.array_equal(regular_polygon_arc(k(6)).dist,
                              regular_polygon_arc(6).dist)
        assert np.array_equal(random_metric(k(4), np.uint8(7)).dist,
                              random_metric(4, 7).dist)
        assert ball_discretization(k(2), k(8)).n == 17


class TestSubspace:
    def test_endpoints_of_grid(self):
        x = subspace(interval_grid(0, 1, 3), [0, 2])
        assert np.array_equal(x.dist, [[0, 1], [1, 0]])

    def test_antipodal_arc(self):
        x = subspace(regular_polygon_arc(4), [0, 2])
        assert x.dist[0, 1] == np.float64(math.pi)

    def test_identity_restriction(self):
        x = regular_polygon_arc(5)
        y = subspace(x, range(5))
        assert np.array_equal(x.dist, y.dist)
        assert x.labels == y.labels

    def test_composition(self):
        x = random_metric(8, 3)
        a = [0, 2, 4, 6, 7]
        b = [1, 3, 4]
        left = subspace(subspace(x, a), b)
        right = subspace(x, [a[i] for i in b])
        assert np.array_equal(left.dist, right.dist)
        assert left.labels == right.labels

    def test_errors(self):
        x = interval_grid(0, 1, 3)
        with pytest.raises(EmptySelectionError):
            subspace(x, [])
        with pytest.raises(IndexOutOfRangeError):
            subspace(x, [0, 3])
        with pytest.raises(DuplicateIndexError):
            subspace(x, [1, 1])

    @pytest.mark.parametrize("indices", [[0, 3.5], [0, 2.0], [True, 0],
                                         [np.bool_(True), 0], [0, "1"]])
    def test_non_integer_index(self, indices):
        # 3.5 used to raise a bare TypeError and True to select point 1
        with pytest.raises(IndexOutOfRangeError, match="is not an integer"):
            subspace(interval_grid(0, 1, 5), indices)


class TestGlue:
    def test_five_point_nonqhm_shape(self):
        two = validate_metric([[0, 2], [2, 0]])
        three = validate_metric([[0, 2, 2], [2, 0, 2], [2, 2, 0]])
        z = glue(GlueSpec(two, three, 1.0))
        assert z.n == 5
        assert diameter(z) == 2.0
        assert z.dist[0, 2] == z.dist[1, 4] == 1.0
        assert z.labels == ("x0", "x1", "y0", "y1", "y2")

    def test_blocks_restrict_exactly(self):
        x = random_metric(3, 1)
        y = random_metric(4, 2)
        z = glue(GlueSpec(x, y, 1.5))
        assert np.array_equal(subspace(z, range(3)).dist, x.dist)
        assert np.array_equal(subspace(z, range(3, 7)).dist, y.dist)

    def test_two_singletons(self):
        one = validate_metric([[0.0]])
        z = glue(GlueSpec(one, one, 1.0))
        assert np.array_equal(z.dist, [[0, 1], [1, 0]])

    def test_cross_distance_too_small(self):
        two = validate_metric([[0, 2], [2, 0]])
        with pytest.raises(CrossDistanceTooSmallError) as exc:
            GlueSpec(two, two, 0.9)
        assert "2c" in str(exc.value)

    def test_nonpositive_cross_distance(self):
        one = validate_metric([[0.0]])
        with pytest.raises(CrossDistanceTooSmallError):
            GlueSpec(one, one, 0.0)

    @pytest.mark.parametrize("c", ["x", None, True])
    def test_cross_distance_must_be_a_real_number(self, c):
        # "x" used to raise a bare ValueError and True to glue at 1
        one = validate_metric([[0.0]])
        with pytest.raises(CrossDistanceTooSmallError, match="positive"):
            GlueSpec(one, one, c)


def _validates_within(x, tol):
    """The builder output is exactly symmetric, its worst triangle deficit
    is at most `tol`, and it passes `validate_metric` at the default
    tolerance."""
    d = x.dist
    assert np.array_equal(d, d.T)
    assert triangle_scan(d)[0] <= tol
    validate_metric(d)


class TestBuilderValidationInvariants:
    @given(st.integers(2, 64),
           st.floats(-1e6, 1e6, allow_nan=False),
           st.floats(1e-6, 1e6, allow_nan=False))
    @settings(max_examples=150, deadline=None)
    def test_interval_grid_validates_at_zero_tolerance(self, n, a, width):
        _validates_within(interval_grid(a, a + width, n), 0.0)

    @given(st.integers(2, 96))
    @settings(max_examples=95, deadline=None)
    def test_polygon_validates_at_zero_tolerance(self, n):
        _validates_within(regular_polygon_arc(n), 0.0)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_metric_exact_triangle(self, seed):
        _validates_within(random_metric(7, seed), 0.0)

    @pytest.mark.parametrize("builder", [
        lambda: euclidean_cloud(np.random.default_rng(5).uniform(0, 3, (9, 3))),
        lambda: ball_discretization(2, 12),
    ])
    def test_euclidean_validates_at_relative_tolerance(self, builder):
        x = builder()
        _validates_within(x, 1e-12 * diameter(x))

    @staticmethod
    def _passes_checks_unchanged(x):
        """The output is exactly symmetric (so within any tolerance) and
        passes the O(n^2) checks with nothing to repair."""
        d = x.dist
        assert np.array_equal(d, d.T)
        checked, _ = qhm.spaces._checked_matrix(d.copy())
        assert np.array_equal(checked, d)

    @given(st.integers(2, 64),
           st.floats(-8e307, 8e307, allow_nan=False),
           st.floats(-8e307, 8e307, allow_nan=False))
    @settings(max_examples=150, deadline=None)
    def test_interval_grid_passes_checks_at_any_scale(self, n, a, b):
        assume(a < b)
        try:
            x = interval_grid(a, b, n)
        except DegenerateIntervalError:  # too short for n points
            assume(False)
        self._passes_checks_unchanged(x)

    @pytest.mark.parametrize("n", [2, 3, 8, 33, 96])
    def test_polygon_and_random_pass_checks(self, n):
        self._passes_checks_unchanged(regular_polygon_arc(n))
        self._passes_checks_unchanged(random_metric(n, n))

    # up to 2^500 no squared difference overflows, so every cloud here is
    # built; the scaled path starts below 2^-400
    CLOUD_EXPONENTS = [-1000, -700, -401, -400, -300, -1, 0, 1, 300, 500]
    CLOUD_SHAPES = [(2, 1), (5, 2), (9, 3), (40, 3), (30, 8), (120, 2)]

    @pytest.mark.parametrize("e", CLOUD_EXPONENTS)
    @pytest.mark.parametrize("shape", CLOUD_SHAPES)
    def test_euclidean_passes_checks_at_any_scale(self, e, shape):
        pts = np.random.default_rng(shape[0] + 1).uniform(-1, 1, shape) * 2.0 ** e
        self._passes_checks_unchanged(euclidean_cloud(pts))

    def test_ball_builders_pass_checks(self):
        self._passes_checks_unchanged(ball_discretization(3, 20))
        for x in ball_chain([21, 51, 121])[2]:
            self._passes_checks_unchanged(x)

    @pytest.mark.parametrize("e, f", [(-1000, 500), (-401, -1000), (0, 500),
                                      (500, 500)])
    def test_glues_pass_checks_at_any_scale(self, e, f):
        rng = np.random.default_rng(9)
        parts = [euclidean_cloud(rng.uniform(-1, 1, (7, 3)) * 2.0 ** e),
                 euclidean_cloud(rng.uniform(-1, 1, (6, 2)) * 2.0 ** f),
                 interval_grid(-8e307, 8e307, 5),
                 interval_grid(-3.0, 2.5, 4),
                 regular_polygon_arc(7)]
        for x in parts:
            for y in parts:
                c = max(diameter(x), diameter(y)) / 2.0
                for cross in (c, 2.0 * c):
                    self._passes_checks_unchanged(glue(GlueSpec(x, y, cross)))

    def test_interval_overflow_is_rejected_before_building(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for a, b in [(-1.7e308, 1.7e308), (-1e308, 1e308)]:
                with pytest.raises(DegenerateIntervalError,
                                   match="interval length b - a overflows"):
                    interval_grid(a, b, 3)


class TestTrustBoundary:
    """The O(n^2) checks and the O(n^3) triangle scan run once per untrusted
    matrix and never on builder outputs, which are metrics by
    construction."""

    @pytest.fixture
    def scans(self, monkeypatch):
        sizes = []
        scan = qhm.spaces.triangle_scan

        def counted(dist):
            sizes.append(dist.shape[0])
            return scan(dist)

        monkeypatch.setattr(qhm.spaces, "triangle_scan", counted)
        return sizes

    @pytest.fixture
    def checks(self, monkeypatch):
        sizes = []
        check = qhm.spaces._checked_matrix

        def counted(d):
            sizes.append(d.shape[0])
            return check(d)

        monkeypatch.setattr(qhm.spaces, "_checked_matrix", counted)
        return sizes

    def test_builders_do_not_scan(self, scans, checks):
        grid = interval_grid(0.0, 4.0, 9)
        arc = regular_polygon_arc(12)
        glue(GlueSpec(grid, arc, diameter(grid) / 2.0))  # 2c = diameter
        glue(GlueSpec(grid, arc, 5.0))
        euclidean_cloud(np.random.default_rng(1).uniform(0, 1, (20, 3)))
        _, _, chain = ball_chain([51, 201])
        random_metric(30, 4)
        subspace(chain[-1], range(0, 201, 3))
        ball_discretization(2, 8)
        assert scans == [] and checks == []

    def test_untrusted_matrices_scan_once(self, scans, checks, tmp_path):
        x = random_metric(6, 2)
        validate_metric(x.dist)
        assert scans == checks == [6]
        space_from_json(space_to_json(x))
        assert scans == checks == [6, 6]
        path = tmp_path / "x.json"
        save_space(x, path)
        load_space(path)
        assert scans == checks == [6, 6, 6]

    def test_large_untrusted_matrix_scans_once(self, scans, tmp_path):
        # above the screen's crossover: still one scan per matrix, none
        # from the builders
        n = qhm._kernels.SCREEN_MIN + 41
        x = random_metric(n, 3)
        assert scans == []
        validate_metric(x.dist)
        assert scans == [n]
        path = tmp_path / "x.json"
        save_space(x, path)
        y = load_space(path)
        assert scans == [n, n]
        glue(GlueSpec(x, y, 1.0))
        assert scans == [n, n]

    def test_direct_construction_scans(self, scans, checks):
        # d(0,2) = 5 > d(0,1) + d(1,2) = 2: not a metric, so no verdict
        bad = np.array([[0, 1, 5.0], [1, 0, 1], [5, 1, 0]])
        with pytest.raises(TriangleViolationError) as exc:
            FiniteMetricSpace(("a", "b", "c"), bad)
        assert exc.value.triple == (0, 2, 1)
        assert scans == checks == [3]
        assert bad.flags.writeable

    def test_direct_construction_is_validate_metric(self):
        good = np.array([[0, 1, 1.5], [1, 0, 1], [1.5, 1, 0]])
        x = FiniteMetricSpace(["a", "b", "c"], good, "x")
        y = validate_metric(good, ["a", "b", "c"], name="x")
        assert (x.labels, x.name) == (y.labels, y.name) == (("a", "b", "c"),
                                                            "x")
        assert np.array_equal(x.dist, y.dist)
        assert not x.dist.flags.writeable and good.flags.writeable
        assert not np.shares_memory(x.dist, good)
        assert FiniteMetricSpace(None, good).labels == ("p0", "p1", "p2")
        for d, labels in [([[0, np.nan], [np.nan, 0]], None),
                          ([[0, -1.0], [-1.0, 0]], None),
                          ([[1.0, 1], [1, 0]], None),
                          ([[0, 1.5], [1, 0]], None),
                          ([[0, 0.0], [0.0, 0]], None),
                          ([[0, 1], [1]], None),
                          (np.zeros((2, 3)), None),
                          ([[0, 1], [1, 0]], ["only"])]:
            with pytest.raises(ValidationError) as want:
                validate_metric(d, labels)
            with pytest.raises(ValidationError) as got:
                FiniteMetricSpace(labels, d)
            assert type(got.value) is type(want.value)
            assert str(got.value) == str(want.value)

    def test_glue_at_boundary_validates(self):
        grid = interval_grid(0.0, 4.0, 9)
        arc = regular_polygon_arc(12)
        z = glue(GlueSpec(grid, arc, diameter(grid) / 2.0))
        _validates_within(z, 0.0)
        cloud = euclidean_cloud(np.random.default_rng(5).uniform(0, 3, (9, 3)))
        z = glue(GlueSpec(cloud, arc, diameter(cloud) / 2.0))
        _validates_within(z, 1e-12 * diameter(z))

    def test_ball_chain_validates(self):
        master, _, chain = ball_chain([51, 201])
        for x in chain:
            _validates_within(x, 1e-12 * diameter(x))


class TestSpaceJson:
    def test_round_trip_bit_exact(self, tmp_path):
        x = euclidean_cloud(np.random.default_rng(0).uniform(0, 1, (6, 3)),
                            name="cloud6")
        path = tmp_path / "space.json"
        save_space(x, path)
        y = load_space(path)
        assert np.array_equal(x.dist, y.dist)
        assert x.labels == y.labels and x.name == y.name

    def test_seventeen_significant_digits(self):
        x = validate_metric([[0.0, 1.0 / 3.0], [1.0 / 3.0, 0.0]])
        text = space_to_json(x)
        assert "0.33333333333333331" in text

    def test_malformed_matrix_key(self):
        with pytest.raises(ParseError) as exc:
            space_from_json('{"name": "z", "matrix": "nope"}')
        assert "matrix" in str(exc.value)

    def test_missing_matrix_key(self):
        with pytest.raises(ParseError) as exc:
            space_from_json('{"name": "z"}')
        assert "matrix" in str(exc.value)

    def test_not_json(self):
        with pytest.raises(ParseError):
            space_from_json("{nope")

    def test_asymmetric_beyond_tolerance(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"name": "bad", "matrix": [[0, 1.5], [1, 0]]}))
        with pytest.raises(AsymmetryExceedsToleranceError):
            load_space(path)

    def test_labels_must_be_strings(self):
        with pytest.raises(ParseError):
            space_from_json('{"matrix": [[0, 1], [1, 0]], "labels": [1, 2]}')


def _one_array_distances(pts):
    diff = pts[:, None, :] - pts[None, :, :]
    return np.sqrt((diff * diff).sum(axis=-1))


class TestEuclideanConstruction:
    """Per-coordinate row blocks against the one-array formula."""

    @pytest.mark.parametrize("n", [1, 2, 255, 256, 257, 300, 513])
    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_row_block_edges_bit_identical(self, n, k):
        # TRIANGLE_TILE // n rows per block: one block, an exact fit and
        # blocks with a short last block
        pts = np.random.default_rng(n * 10 + k).standard_normal((n, k)) * 3.0
        assert np.array_equal(euclidean_cloud(pts).dist,
                              _one_array_distances(pts))

    @pytest.mark.parametrize("n, k, per_coordinate", [
        (22, 1, False), (23, 1, True),
        (13, 3, False), (14, 3, True),
        (8, 7, False), (9, 7, True),
        (300, 8, False), (200, 9, False),
    ])
    def test_shape_dispatch_bit_identical(self, n, k, per_coordinate,
                                          monkeypatch):
        calls = []
        kernel = qhm.spaces._add_squared_differences

        def counted(*args):
            calls.append(1)
            return kernel(*args)

        monkeypatch.setattr(qhm.spaces, "_add_squared_differences", counted)
        pts = np.random.default_rng(n + k).uniform(-5.0, 5.0, (n, k))
        assert per_coordinate == (k < 8 and n * n * k > qhm.spaces.ONE_ARRAY_MAX)
        assert np.array_equal(euclidean_cloud(pts).dist,
                              _one_array_distances(pts))
        assert bool(calls) == per_coordinate

    def test_peak_memory_is_result_plus_3mb(self):
        import tracemalloc

        n = 801
        pts = np.random.default_rng(0).uniform(-1.0, 1.0, (n, 3))
        tracemalloc.start()
        try:
            euclidean_cloud(pts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 + 3e6

    def test_duplicate_in_a_later_block(self):
        pts = np.random.default_rng(2).uniform(size=(400, 3))
        pts[390] = pts[5]
        with pytest.raises(DuplicatePointError) as exc:
            euclidean_cloud(pts)
        assert str(exc.value).startswith("points 5 and 390 coincide")


class TestReadOnlyAndOwnership:
    def test_validate_leaves_caller_array_alone(self):
        a = random_metric(40, 3).dist.copy()
        kept = a.copy()
        x = validate_metric(a)
        assert a.flags.writeable
        assert not np.shares_memory(a, x.dist)
        a[0, 1] = a[1, 0] = 1.5
        assert np.array_equal(x.dist, kept)

    def test_validate_copies_a_read_only_input(self):
        x = random_metric(20, 1)
        y = validate_metric(x.dist)
        assert not np.shares_memory(x.dist, y.dist)
        assert np.array_equal(x.dist, y.dist)

    @pytest.mark.parametrize("build", [
        lambda: interval_grid(0, 1, 7),
        lambda: regular_polygon_arc(9),
        lambda: random_metric(12, 5),
        lambda: euclidean_cloud(np.random.default_rng(1).uniform(size=(50, 3))),
        lambda: euclidean_cloud(np.random.default_rng(1).uniform(size=(5, 2))),
        lambda: ball_discretization(2, 8),
        lambda: glue(GlueSpec(random_metric(3, 1), random_metric(4, 2), 1.5)),
        lambda: ball_chain([21, 41])[2][1],
        lambda: validate_metric([[0, 1], [1, 0]]),
        lambda: space_from_json('{"matrix": [[0, 1], [1, 0]]}'),
    ])
    def test_outputs_are_read_only(self, build):
        x = build()
        assert not x.dist.flags.writeable
        with pytest.raises(ValueError):
            x.dist[0, -1] = 9.0


class TestSubspaceSharing:
    def test_identity_selection_shares_the_matrix(self):
        x = euclidean_cloud(np.random.default_rng(4).uniform(size=(30, 3)))
        y = subspace(x, range(30))
        assert y.dist is x.dist or np.shares_memory(y.dist, x.dist)
        assert not y.dist.flags.writeable
        assert np.array_equal(y.dist, x.dist)
        assert y.labels == x.labels and y.name == x.name

    @pytest.mark.parametrize("sel", [
        list(range(29)), list(range(1, 30)), list(range(29, -1, -1)),
        [1, 0] + list(range(2, 30)), [0, 2, 4], np.arange(0, 30, 3),
    ])
    def test_other_selections_copy(self, sel):
        x = euclidean_cloud(np.random.default_rng(4).uniform(size=(30, 3)))
        y = subspace(x, sel)
        assert not np.shares_memory(y.dist, x.dist)
        assert not y.dist.flags.writeable
        assert np.array_equal(y.dist, x.dist[np.ix_(sel, sel)])

    def test_top_of_ball_chain_shares_the_master(self):
        master, chains, spaces = ball_chain([41, 51])
        assert chains[-1] == list(range(master.n))
        assert np.shares_memory(spaces[-1].dist, master.dist)
        assert not np.shares_memory(spaces[0].dist, master.dist)


class TestCheckMessages:
    """Each O(n^2) check keeps its message and reported indices, on the
    validate path and on the JSON reader, with the offending entry in
    several tiles of a 300-point matrix."""

    N = 300

    def _base(self):
        return random_metric(self.N, 11).dist.copy()

    def _raises(self, d, error, message):
        for check in (
                lambda: validate_metric(d),
                lambda: space_from_json(json.dumps({"matrix": d.tolist()}))):
            with pytest.raises(error) as exc:
                check()
            assert type(exc.value) is error
            assert str(exc.value) == message

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at", [(0, 1), (280, 20), (299, 299)])
    def test_non_finite(self, value, at):
        d = self._base()
        d[at] = value
        self._raises(d, ValidationError, "matrix contains non-finite entries")

    @pytest.mark.parametrize("i", [0, 255, 256, 299])
    def test_nonzero_diagonal(self, i):
        d = self._base()
        d[i, i] = 0.5
        d[i + 1 - 2 * (i == 299), 3] = 0.5  # an off-diagonal entry too
        self._raises(d, NonzeroDiagonalError,
                     f"diagonal entry ({i},{i}) = 0.5 must be 0")

    def test_negative_entry_first_minimum(self):
        d = self._base()
        d[290, 3] = -0.5
        d[3, 290] = -0.25
        d[295, 1] = -0.5
        self._raises(d, NegativeEntryError, "entry (290,3) = -0.5 is negative")

    @pytest.mark.parametrize("i, j", [(10, 280), (280, 10), (257, 299)])
    def test_asymmetry_reports_upper_entry(self, i, j, monkeypatch):
        # the tolerance, about 1e-3, forgives the smaller asymmetry
        monkeypatch.setattr(qhm.spaces, "TRIANGLE_TOL_REL", 5e-4)
        d = self._base()
        d[i, j], d[j, i] = 1.75, 1.5
        d[5, 6] += 1e-4  # a smaller asymmetry elsewhere
        lo, hi = min(i, j), max(i, j)
        tol = 5e-4 * float(d.max())
        assert 1e-4 < tol < 0.25
        self._raises(d, AsymmetryExceedsToleranceError,
                     f"entries ({lo},{hi}) and ({hi},{lo}) differ by 0.25 > {tol}")

    def test_asymmetry_default_tolerance(self):
        d = self._base()
        d[100, 200] = 1.0
        d[200, 100] = 2.0
        tol = 1e-9 * float(d.max())
        self._raises(d, AsymmetryExceedsToleranceError,
                     f"entries (100,200) and (200,100) differ by 1.0 > {tol}")

    @pytest.mark.parametrize("i, j", [(7, 250), (260, 270), (0, 299)])
    def test_zero_off_diagonal(self, i, j):
        d = self._base()
        d[i, j] = d[j, i] = 0.0
        self._raises(d, ValidationError,
                     f"distance ({i},{j}) between distinct points must be positive")

    def test_zero_after_averaging_within_tolerance(self):
        d = self._base()
        d[4, 280], d[280, 4] = 0.0, 5e-324  # averages to 0
        self._raises(d, ValidationError,
                     "distance (4,280) between distinct points must be positive")
        d[280, 4] = 1e-12  # averages to 5e-13: positive, and repaired
        repaired, _ = qhm.spaces._checked_matrix(d)
        assert repaired[4, 280] == repaired[280, 4] == 5e-13


class TestMalformedMatrices:
    @pytest.mark.parametrize("text, row", [
        ('{"matrix": [[0, 1, 2], [1, 0]]}', 1),
        ('{"matrix": [[0, 1], [1, 0, 2], [2, 2, 0]]}', 1),
        ('{"matrix": [[0, "1"], ["1", 0]]}', 0),
        ('{"matrix": [[0, 1], [true, 0]]}', 1),
        ('{"matrix": [[0, 1, 1], [1, 0, 1], [1, null, 0]]}', 2),
        ('{"matrix": [[0, {}], [{}, 0]]}', 0),
        ('{"matrix": [[0, [1]], [[1], 0]]}', 0),
    ])
    def test_json_names_the_row(self, text, row):
        with pytest.raises(ParseError) as exc:
            space_from_json(text)
        assert str(exc.value).startswith(f"matrix row {row} ")

    def test_json_rectangular_is_still_non_square(self):
        with pytest.raises(NonSquareError):
            space_from_json('{"matrix": [[0, 1, 2], [1, 0, 1]]}')

    @pytest.mark.parametrize("matrix", [[0.0], [0, 1], [], 5])
    def test_flat_input_is_still_non_square(self, matrix):
        with pytest.raises(NonSquareError):
            validate_metric(matrix)

    def test_json_integers_and_big_integers_parse(self):
        x = space_from_json('{"matrix": [[0, 100000000000000000000], '
                            '[100000000000000000000, 0]]}')
        assert x.dist[0, 1] == 1e20

    @pytest.mark.parametrize("matrix", [
        [[0, "1"], ["1", 0]],
        [[0, True], [True, 0]],
        [[False, True], [True, False]],
        [[0, None], [None, 0]],
        [[0, {}], [{}, 0]],
        np.array([[False, True], [True, False]]),
        np.array([["0", "1"], ["1", "0"]]),
        np.array([[0, 1], [1, 0]], dtype=object),
        [[0, 1], 5],
        [[0, 1], None],
        [[0, 1], "ab"],
        [5, [0, 1]],
        [[0, 1], np.float64(1.0)],
    ])
    def test_validate_rejects_non_numbers(self, matrix):
        with pytest.raises(MalformedMatrixError) as exc:
            validate_metric(matrix)
        assert "real numbers" in str(exc.value)

    @pytest.mark.parametrize("matrix", [["a", 1.0], [True, 0.5], [0.0, None],
                                        [1j, 0.0]])
    def test_validate_rejects_flat_non_numbers(self, matrix):
        with pytest.raises(MalformedMatrixError) as exc:
            validate_metric(matrix)
        assert str(exc.value) == "matrix entries must be real numbers"

    def test_validate_rejects_integers_beyond_float_range(self):
        with pytest.raises(MalformedMatrixError) as exc:
            validate_metric([[0, 10 ** 400], [10 ** 400, 0]])
        assert str(exc.value).startswith("matrix entries must be within "
                                         "float64 range")

    def test_json_reader_rejects_integers_beyond_float_range(self):
        text = '{"matrix": [[0, 1%s], [1%s, 0]]}' % ("0" * 400, "0" * 400)
        with pytest.raises(ParseError, match="within float64 range"):
            space_from_json(text)

    def test_validate_ragged(self):
        with pytest.raises(MalformedMatrixError) as exc:
            validate_metric([[0, 1, 2], [1, 0]])
        assert str(exc.value) == "matrix row 1 has 2 entries but row 0 has 3"

    @pytest.mark.parametrize("matrix", [
        [[0, 1], [1, 0]],
        [(0, 1.5), (1.5, 0)],
        [np.array([0.0, 1.0]), np.array([1.0, 0.0])],
        [[np.float32(0), np.int64(1)], [1, 0.0]],
        np.array([[0, 1], [1, 0]], dtype=np.int32),
    ])
    def test_validate_accepts_real_numbers(self, matrix):
        x = validate_metric(matrix)
        assert x.dist.dtype == np.float64 and x.dist[0, 0] == 0.0


class TestCoordinateInput:
    """euclidean_cloud rejects what the matrix readers reject, naming the
    row, and reads numeric input exactly as before."""

    @pytest.mark.parametrize("coords, message", [
        ([["a", 0], [1, 2]], "coordinate row 0 holds entries that are not real numbers"),
        ([[0, 0], [1, "2"]], "coordinate row 1 holds entries that are not real numbers"),
        ([[0, 0], [1, 2, 3]], "coordinate row 1 has 3 entries but row 0 has 2"),
        ([[0, 0, 0], [1, 2], [3, 4, 5]], "coordinate row 1 has 2 entries but row 0 has 3"),
        ([[1j, 0], [1, 2]], "coordinate row 0 holds entries that are not real numbers"),
        ([[0, 0], [1, 2 + 0j]], "coordinate row 1 holds entries that are not real numbers"),
        ([[True, False], [False, True]], "coordinate row 0 holds entries that are not real numbers"),
        ([[0.0, 1.0], [np.True_, 0.5]], "coordinate row 1 holds entries that are not real numbers"),
        ([[0, 0], None], "coordinate row 1 is not a sequence of real numbers"),
        ([np.array([0.0, 1.0]), np.array([True, False])],
         "coordinate row 1 holds entries that are not real numbers"),
        (["a", 1.0], "coordinate entries must be real numbers"),
        ([True, 0.5], "coordinate entries must be real numbers"),
        (np.array([[1j, 0], [1, 2]]),
         "coordinate entries must be real numbers, got dtype complex128"),
        (np.array([[True, False], [False, True]]),
         "coordinate entries must be real numbers, got dtype bool"),
        (np.array([["0", "1"], ["1", "0"]]),
         "coordinate entries must be real numbers, got dtype <U1"),
        (np.array([[0, 1], [1, 0]], dtype=object),
         "coordinate entries must be real numbers, got dtype object"),
    ])
    def test_rejected_naming_the_row(self, coords, message):
        with pytest.raises(MalformedMatrixError) as exc:
            euclidean_cloud(coords)
        assert str(exc.value) == message

    def test_integers_beyond_float_range(self):
        with pytest.raises(MalformedMatrixError) as exc:
            euclidean_cloud([[0, 0], [10 ** 400, 1]])
        assert str(exc.value).startswith("coordinate entries must be within "
                                         "float64 range")

    def test_numeric_input_keeps_its_bits(self):
        rng = np.random.default_rng(21)
        pts = rng.uniform(-1.0, 1.0, (30, 3))
        ref = euclidean_cloud(pts).dist
        for same in (pts.tolist(), [tuple(p) for p in pts], list(pts),
                     tuple(pts.tolist())):
            assert np.array_equal(euclidean_cloud(same).dist, ref)
        ints = rng.integers(-5, 6, (12, 2))
        ref = euclidean_cloud(ints.astype(np.float64)).dist
        for same in (ints, ints.tolist(), ints.astype(np.int32)):
            assert np.array_equal(euclidean_cloud(same).dist, ref)
        f32 = pts.astype(np.float32)
        assert np.array_equal(euclidean_cloud(f32).dist,
                              euclidean_cloud(f32.astype(np.float64)).dist)
        line = euclidean_cloud([0, 1.5, np.float32(4.0)])
        assert np.array_equal(line.dist,
                              euclidean_cloud([[0.0], [1.5], [4.0]]).dist)

    def test_caller_array_untouched(self):
        pts = np.random.default_rng(22).uniform(size=(10, 3))
        before = pts.copy()
        euclidean_cloud(pts)
        assert np.array_equal(pts, before) and pts.flags.writeable


class TestJsonReaderMemory:
    """The JSON text and the parsed rows are freed before the O(n^3) scan,
    which sees only the owned float64 matrix."""

    N = 300

    def test_only_the_matrix_is_left_at_the_scan(self, monkeypatch, tmp_path):
        import tracemalloc

        n = self.N
        x = random_metric(n, 5)
        path = tmp_path / "x.json"
        save_space(x, path)
        text = space_to_json(x)  # the caller's text: allocated untraced
        held = []
        scan = qhm.spaces.triangle_scan

        def spy(d):
            held.append(tracemalloc.get_traced_memory()[0])
            return scan(d)

        monkeypatch.setattr(qhm.spaces, "triangle_scan", spy)
        tracemalloc.start()
        try:
            assert np.array_equal(load_space(path).dist, x.dist)
            assert np.array_equal(space_from_json(text).dist, x.dist)
        finally:
            tracemalloc.stop()
        # the matrix is 0.7 MB; the text alone is 1.8 MB, the parsed rows
        # 2.9 MB
        assert len(held) == 2 and max(held) < 2 * 8 * n * n < len(text)


class TestJsonWriter:
    """The row-template writer against the entry-by-entry one, byte for
    byte."""

    @pytest.mark.parametrize("key", ["nw-thm2.9", "nw-thm2.9a",
                                     "fourpoint-antipodal", "interval-9",
                                     "circle-8", "ball3-1"])
    def test_fixtures(self, key):
        x = fixture(key).space
        assert space_to_json(x) == reference_space_to_json(x)

    @pytest.mark.parametrize("scale", [1e-100, 1e-50, 1e-10, 1.0, 1e10,
                                       1e50, 1e100])
    def test_scaled_clouds(self, scale):
        pts = np.random.default_rng(9).standard_normal((40, 3)) * scale
        x = euclidean_cloud(pts, name="cloud")
        assert space_to_json(x) == reference_space_to_json(x)

    @pytest.mark.parametrize("value", [5e-324, 2.2250738585072014e-308 / 3,
                                       1.0 / 3.0, 0.1, 1e16, 123456789.0])
    def test_single_entries(self, value):
        x = validate_metric([[0.0, value], [value, 0.0]], name='"q"')
        text = space_to_json(x)
        assert text == reference_space_to_json(x)
        assert space_from_json(text).dist[0, 1] == value

    def test_single_point(self):
        x = validate_metric([[0.0]])
        assert space_to_json(x) == reference_space_to_json(x)

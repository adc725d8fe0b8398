import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhm import (
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
    NegativeEntryError,
    NonSquareError,
    NonzeroDiagonalError,
    ParseError,
    TooFewPointsError,
    TriangleViolationError,
    ValidationError,
)
from qhm.spaces import space_from_json, space_to_json


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
            validate_metric([[0, 1.1], [1, 0]], tol_triangle=1e-3)

    def test_asymmetry_within_tolerance_averaged(self):
        x = validate_metric([[0, 1.0 + 1e-12], [1.0, 0]], tol_triangle=1e-9)
        assert x.dist[0, 1] == x.dist[1, 0]
        assert x.dist[0, 1] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
    def test_invalid_tolerance_rejected(self, tol):
        # a NaN tolerance used to accept this violation; a negative one
        # used to report a bogus asymmetry on a valid metric
        for matrix in ([[0, 1, 3], [1, 0, 1], [3, 1, 0]],
                       [[0, 1, 1], [1, 0, 1], [1, 1, 0]]):
            with pytest.raises(InvalidInputError):
                validate_metric(matrix, tol_triangle=tol)

    def test_invalid_tolerance_rejected_from_json(self):
        with pytest.raises(InvalidInputError):
            space_from_json('{"matrix": [[0, 1], [1, 0]]}',
                            tol_triangle=float("nan"))

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
        # the result is 5.1 MB; one (n, n, 3) difference array is 15.4 MB
        assert peak < 20e6

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


class TestBuilderValidationInvariants:
    @given(st.integers(2, 64),
           st.floats(-1e6, 1e6, allow_nan=False),
           st.floats(1e-6, 1e6, allow_nan=False))
    @settings(max_examples=150, deadline=None)
    def test_interval_grid_validates_at_zero_tolerance(self, n, a, width):
        x = interval_grid(a, a + width, n)
        validate_metric(x.dist, tol_triangle=0.0)

    @given(st.integers(2, 96))
    @settings(max_examples=95, deadline=None)
    def test_polygon_validates_at_zero_tolerance(self, n):
        x = regular_polygon_arc(n)
        validate_metric(x.dist, tol_triangle=0.0)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_metric_exact_triangle(self, seed):
        x = random_metric(7, seed)
        validate_metric(x.dist, tol_triangle=0.0)

    @pytest.mark.parametrize("builder", [
        lambda: euclidean_cloud(np.random.default_rng(5).uniform(0, 3, (9, 3))),
        lambda: ball_discretization(2, 12),
    ])
    def test_euclidean_validates_at_relative_tolerance(self, builder):
        x = builder()
        validate_metric(x.dist, tol_triangle=1e-12 * diameter(x))


class TestTrustBoundary:
    """The O(n^3) triangle scan runs once per untrusted matrix and never on
    builder outputs, which are metrics by construction."""

    @pytest.fixture
    def scans(self, monkeypatch):
        sizes = []
        scan = qhm.spaces.worst_triangle_deficit

        def counted(dist):
            sizes.append(dist.shape[0])
            return scan(dist)

        monkeypatch.setattr(qhm.spaces, "worst_triangle_deficit", counted)
        return sizes

    def test_builders_do_not_scan(self, scans):
        grid = interval_grid(0.0, 4.0, 9)
        arc = regular_polygon_arc(12)
        glue(GlueSpec(grid, arc, diameter(grid) / 2.0))  # 2c = diameter
        glue(GlueSpec(grid, arc, 5.0))
        euclidean_cloud(np.random.default_rng(1).uniform(0, 1, (20, 3)))
        _, _, chain = ball_chain([51, 201])
        random_metric(30, 4)
        subspace(chain[-1], range(0, 201, 3))
        assert scans == []

    def test_untrusted_matrices_scan_once(self, scans, tmp_path):
        x = random_metric(6, 2)
        validate_metric(x.dist)
        assert scans == [6]
        space_from_json(space_to_json(x))
        assert scans == [6, 6]
        path = tmp_path / "x.json"
        save_space(x, path)
        load_space(path)
        assert scans == [6, 6, 6]

    def test_glue_at_boundary_validates(self):
        grid = interval_grid(0.0, 4.0, 9)
        arc = regular_polygon_arc(12)
        z = glue(GlueSpec(grid, arc, diameter(grid) / 2.0))
        validate_metric(z.dist, tol_triangle=0.0)
        cloud = euclidean_cloud(np.random.default_rng(5).uniform(0, 3, (9, 3)))
        z = glue(GlueSpec(cloud, arc, diameter(cloud) / 2.0))
        validate_metric(z.dist, tol_triangle=1e-12 * diameter(z))

    def test_ball_chain_validates(self):
        master, _, chain = ball_chain([51, 201])
        for x in chain:
            validate_metric(x.dist, tol_triangle=1e-12 * diameter(x))


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

import numpy as np
import pytest

from qhm import (
    atomic,
    energy,
    energy_bilinear,
    inner_extended,
    inner_zero,
    interval_grid,
    load_measure,
    measure,
    potential,
    random_metric,
    save_measure,
    seminorm_zero,
    uniform,
    validate_metric,
)
from qhm.energy import parse_weights
from qhm.errors import NonzeroMassError, ParseError, SpaceMismatchError

from conftest import random_cloud
from oracles import brute_energy, brute_energy_bilinear, brute_potential

TWO_POINT = validate_metric([[0, 1], [1, 0]])


class TestEnergyBilinear:
    def test_single_off_diagonal_term(self):
        assert energy_bilinear(TWO_POINT, atomic(TWO_POINT, 0),
                               atomic(TWO_POINT, 1)) == 1.0

    def test_invariant_component_against_atom(self, five_point_nonqhm):
        z = five_point_nonqhm
        mu = measure(z, [0.5, 0.5, 0, 0, 0])
        assert energy_bilinear(z, mu, atomic(z, 2)) == pytest.approx(1.0)

    def test_zero_measure(self):
        x = random_metric(4, 0)
        assert energy_bilinear(x, measure(x, np.zeros(4)), uniform(x)) == 0.0

    def test_symmetry_and_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            x = random_metric(int(rng.integers(2, 7)), int(rng.integers(1000)))
            w1 = rng.standard_normal(x.n)
            w2 = rng.standard_normal(x.n)
            ours = energy_bilinear(x, measure(x, w1), measure(x, w2))
            assert ours == pytest.approx(brute_energy_bilinear(x.dist, w1, w2),
                                         rel=1e-12)
            assert ours == pytest.approx(
                energy_bilinear(x, measure(x, w2), measure(x, w1)), rel=1e-12)

    def test_bilinearity(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            x = random_cloud(rng)
            a, b = rng.standard_normal(2)
            w1, w2, w3 = rng.standard_normal((3, x.n))
            lhs = energy_bilinear(x, measure(x, a * w1 + b * w2), measure(x, w3))
            rhs = (a * energy_bilinear(x, measure(x, w1), measure(x, w3))
                   + b * energy_bilinear(x, measure(x, w2), measure(x, w3)))
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_space_mismatch(self):
        other = random_metric(3, 0)
        with pytest.raises(SpaceMismatchError):
            energy_bilinear(TWO_POINT, uniform(other), uniform(other))


class TestEnergy:
    def test_endpoint_measure_on_unit_pair(self):
        assert energy(TWO_POINT, measure(TWO_POINT, [0.5, 0.5])) == 0.5

    def test_uniform_on_three_block(self):
        y = validate_metric([[0, 2, 2], [2, 0, 2], [2, 2, 0]])
        assert energy(y, uniform(y)) == pytest.approx(4.0 / 3.0)

    def test_atom_has_zero_energy(self):
        x = random_metric(5, 2)
        assert energy(x, atomic(x, 3)) == 0.0


class TestPotential:
    def test_flat_on_invariant_component(self, five_point_nonqhm):
        mu = measure(five_point_nonqhm, [0.5, 0.5, 0, 0, 0])
        assert np.allclose(potential(five_point_nonqhm, mu), 1.0, atol=1e-15)

    def test_atom_gives_distance_row(self):
        x = random_metric(5, 4)
        assert np.array_equal(potential(x, atomic(x, 2)), x.dist[2])

    def test_grid_endpoint_mix(self):
        x = interval_grid(0, 1, 3)
        mu = measure(x, [0.5, 0.0, 0.5])
        expected = brute_potential(x.dist, [0.5, 0.0, 0.5])
        assert np.allclose(expected, [0.5, 0.5, 0.5], atol=1e-15)
        assert np.allclose(potential(x, mu), expected, atol=1e-15)

    def test_pairing_identity(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            x = random_cloud(rng)
            w1, w2 = rng.standard_normal((2, x.n))
            lhs = energy_bilinear(x, measure(x, w1), measure(x, w2))
            rhs = float(potential(x, measure(x, w1)) @ w2)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestSeminormZero:
    def test_atom_difference(self):
        mu = measure(TWO_POINT, [1.0, -1.0])
        assert brute_energy(TWO_POINT.dist, [1.0, -1.0]) == -2.0
        assert seminorm_zero(TWO_POINT, mu) == pytest.approx(np.sqrt(2.0))

    def test_zero_measure(self):
        assert seminorm_zero(TWO_POINT, measure(TWO_POINT, [0.0, 0.0])) == 0.0

    def test_degenerate_direction_has_zero_seminorm(self, five_point_boundary):
        mu = measure(five_point_boundary, [0.5, 0.5, -1/3, -1/3, -1/3])
        assert seminorm_zero(five_point_boundary, mu) == pytest.approx(0.0, abs=1e-7)

    def test_nonzero_mass_rejected(self):
        with pytest.raises(NonzeroMassError):
            seminorm_zero(TWO_POINT, measure(TWO_POINT, [1.0, 0.0]))

    def test_diagnostics_flag_on_positive_energy(self, five_point_nonqhm):
        z = five_point_nonqhm
        mu = measure(z, [0.5, 0.5, -1/3, -1/3, -1/3])
        diag = {}
        value = seminorm_zero(z, mu, diagnostics=diag)
        if diag["negative_squared_norm"]:
            assert value == 0.0
        assert "radicand" in diag


class TestInnerZero:
    def test_atom_difference_squared(self):
        mu = measure(TWO_POINT, [1.0, -1.0])
        assert inner_zero(TWO_POINT, mu, mu) == pytest.approx(2.0)

    def test_zero_second_argument(self):
        mu = measure(TWO_POINT, [1.0, -1.0])
        nu = measure(TWO_POINT, [0.0, 0.0])
        assert inner_zero(TWO_POINT, mu, nu) == 0.0

    def test_polarization_identity(self, five_point_boundary):
        z = five_point_boundary
        mu = measure(z, [1.0, -1.0, 0, 0, 0])
        nu = measure(z, [0, 0, 1.0, -1.0, 0])
        lhs = inner_zero(z, mu, nu)
        plus = seminorm_zero(z, measure(z, mu.weights + nu.weights))
        minus = seminorm_zero(z, measure(z, mu.weights - nu.weights))
        assert lhs == pytest.approx((plus ** 2 - minus ** 2) / 4.0, abs=1e-12)

    def test_mass_checked_on_both(self):
        mu = measure(TWO_POINT, [1.0, -1.0])
        with pytest.raises(NonzeroMassError):
            inner_zero(TWO_POINT, mu, measure(TWO_POINT, [0.5, 0.6]))


class TestInnerExtended:
    def test_maximal_measure_has_unit_norm(self):
        mu = measure(TWO_POINT, [0.5, 0.5])
        assert inner_extended(TWO_POINT, 0.5, mu, mu) == pytest.approx(1.0)

    def test_reduces_to_inner_zero_on_mass_zero(self):
        rng = np.random.default_rng(5)
        x = random_cloud(rng)
        w1, w2 = rng.standard_normal((2, x.n))
        w1 -= w1.mean()
        w2 -= w2.mean()
        mu, nu = measure(x, w1), measure(x, w2)
        assert inner_extended(x, 0.7, mu, nu) == pytest.approx(
            inner_zero(x, mu, nu), rel=1e-9, abs=1e-12)

    def test_two_point_identity_value(self):
        mu = measure(TWO_POINT, [0.5, 0.5])
        # (m+1)*1*1 - I = 1.5 - 0.5
        assert inner_extended(TWO_POINT, 0.5, mu, mu) == 1.0


class TestMeasureJson:
    def test_round_trip(self, tmp_path):
        x = random_metric(4, 9)
        mu = measure(x, [0.25, -0.5, 1.0 / 3.0, 0.125])
        path = tmp_path / "mu.json"
        save_measure(mu, path)
        back = load_measure(path, x)
        assert np.array_equal(back.weights, mu.weights)

    def test_space_name_mismatch(self, tmp_path):
        x = random_metric(2, 0)
        path = tmp_path / "mu.json"
        path.write_text('{"space": "other", "weights": [1, 0]}')
        with pytest.raises(SpaceMismatchError):
            load_measure(path, x)

    def test_weight_count_checked(self, tmp_path):
        x = random_metric(3, 0)
        path = tmp_path / "mu.json"
        path.write_text('{"space": "", "weights": [1, 0]}')
        with pytest.raises(SpaceMismatchError):
            load_measure(path, x)

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "mu.json"
        path.write_bytes(b'\xff\xfe{"weights": [1, 0, 0]}')
        with pytest.raises(ParseError, match="not UTF-8 text"):
            load_measure(path, random_metric(3, 0))

    @pytest.mark.parametrize("weights, message", [
        ('["a", 1, 2]', "weight entries must be real numbers"),
        ("[1" + "0" * 400 + ", 0, 0]",
         "weight entries must be within float64 range"),
        ("[true, false, false]", "weight entries must be real numbers"),
        ("[null, 0, 1]", "weight entries must be real numbers"),
    ], ids=["string", "huge-integer", "booleans", "null"])
    def test_weights_must_be_real_numbers(self, tmp_path, weights, message):
        path = tmp_path / "mu.json"
        path.write_text('{"space": "", "weights": %s}' % weights)
        with pytest.raises(ParseError, match=message):
            load_measure(path, random_metric(3, 0))

    def test_integer_weights_parse(self, tmp_path):
        path = tmp_path / "mu.json"
        path.write_text('{"space": "", "weights": [2, -1, 0]}')
        mu = load_measure(path, random_metric(3, 0))
        assert mu.weights.dtype == np.float64
        assert np.array_equal(mu.weights, [2.0, -1.0, 0.0])

    def test_parse_weights_inline(self):
        assert np.array_equal(parse_weights("0.5, 0.5, 0"), [0.5, 0.5, 0.0])
        assert np.array_equal(parse_weights("1 -1"), [1.0, -1.0])
        with pytest.raises(ParseError):
            parse_weights(" ")
        with pytest.raises(ParseError):
            parse_weights("a,b")

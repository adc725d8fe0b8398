"""The fixture catalogue is its own regression gate: every expected decision
must pass when run through classify + m_constant."""

import math

import numpy as np
import pytest

from qhm import (
    Verdict,
    classify,
    fixture,
    fixture_keys,
    m_constant,
    measure,
    potential,
    validate_metric,
)
from qhm._kernels import triangle_scan
from qhm.errors import UnknownFixtureError

CHECKED_KEYS = ["nw-thm2.9", "nw-thm2.9a", "fourpoint-antipodal",
                "interval-2", "interval-5", "interval-17",
                "circle-2", "circle-4", "circle-12"]


@pytest.mark.parametrize("key", CHECKED_KEYS)
def test_expected_decision_holds(key):
    fx = fixture(key)
    exp = fx.expected
    cls = classify(fx.space)
    assert cls.verdict is exp.verdict, key
    dec = m_constant(fx.space)
    assert dec.status == exp.m_status, key
    if exp.m_status == "finite":
        assert dec.value == pytest.approx(exp.m_value, abs=1e-9)
    else:
        assert dec.reason == exp.reason

    if exp.measure is not None:
        mu = measure(fx.space, exp.measure)
        pot = potential(fx.space, mu)
        assert np.allclose(pot, exp.measure_value, atol=1e-10), key


def test_ball_fixture_counts():
    fx = fixture("ball3-2")
    assert fx.space.n == 129
    assert fx.expected.verdict is Verdict.STRICT


def test_ball_fixture_classifies_strict():
    fx = fixture("ball3-1")
    assert classify(fx.space).verdict is Verdict.STRICT
    dec = m_constant(fx.space)
    assert dec.finite and dec.value < 2.0


def test_circle_value_is_half_pi():
    assert fixture("circle-8").expected.m_value == math.pi / 2


def test_unknown_keys_listed():
    with pytest.raises(UnknownFixtureError) as exc:
        fixture("nope")
    assert "nw-thm2.9" in str(exc.value)


@pytest.mark.parametrize("key", ["interval-1", "circle-3", "circle-0", "ball3-0"])
def test_bad_parameters_rejected(key):
    with pytest.raises(UnknownFixtureError):
        fixture(key)


def test_keys_unique_and_sorted():
    keys = fixture_keys()
    assert len(keys) == len(set(keys))


STATIC_KEYS = [key for key in fixture_keys() if "<" not in key]


@pytest.mark.parametrize("key", STATIC_KEYS)
def test_static_fixture_is_a_metric_by_construction(monkeypatch, key):
    # built with no check of its own matrix, yet the same matrix that the
    # checks make of its rows, bit for bit, with no triangle deficit
    import qhm._kernels
    import qhm.fixtures
    import qhm.spaces

    def refuse(*args, **kwargs):
        raise AssertionError("a fixture checked its own matrix")

    for module, name in ((qhm.spaces, "validate_metric"),
                         (qhm.spaces, "triangle_scan"),
                         (qhm._kernels, "triangle_scan")):
        monkeypatch.setattr(module, name, refuse)
    assert not hasattr(qhm.fixtures, "validate_metric")
    space = fixture(key).space
    monkeypatch.undo()
    checked = validate_metric(space.dist.tolist(), space.labels, space.name)
    assert checked.dist.tobytes() == space.dist.tobytes()
    assert checked.labels == space.labels
    assert triangle_scan(space.dist)[0] == 0.0

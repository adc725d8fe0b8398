"""Catalogue of benchmark spaces with their known classifications and constants.

Keys are stable CLI-facing identifiers. Parameterized families use a numeric
suffix: interval-<n> (n >= 2 grid points on [0, 1]), circle-<2m> (even
polygon on the arc-length circle), ball3-<shells> (unit-ball discretization
with 64 lattice points per shell).

Every fixture is built the way the builders of `qhm.spaces` build: its
matrix is a metric by construction and is wrapped without the O(n^2)
checks or the triangle scan. The static ones glue uniform blocks, n points
at a common distance d > 0, whose matrix is d off the diagonal and 0 on it.
"""

import math
import re
from dataclasses import dataclass

import numpy as np

from .classify import Verdict
from .errors import UnknownFixtureError
from .spaces import (
    FiniteMetricSpace,
    GlueSpec,
    _space,
    ball_discretization,
    glue,
    interval_grid,
    regular_polygon_arc,
)

BALL_POINTS_PER_SHELL = 64


@dataclass(frozen=True)
class Expected:
    """Known ground truth attached to a fixture.

    measure/measure_value describe a distinguished measure: the maximal
    measure when the constant is finite, otherwise a measure with constant
    potential that witnesses the structure (its value is not the constant).
    """

    verdict: Verdict
    m_status: str  # "finite" | "infinite"
    m_value: float | None = None
    reason: str | None = None
    measure: tuple[float, ...] | None = None
    measure_value: float | None = None
    note: str = ""


@dataclass(frozen=True)
class Fixture:
    key: str
    space: FiniteMetricSpace
    expected: Expected | None = None


def _uniform_block(n: int, d: float) -> FiniteMetricSpace:
    """n points at distance d > 0 from each other, a metric by construction:
    d times 1 off the diagonal and times 0 on it, both exact."""
    return _space(d * (1.0 - np.eye(n)), None, f"uniform{n}(d={d})")


def _five_point(d2: float, d3: float, c: float) -> FiniteMetricSpace:
    """A uniform 2-block at distance d2 glued to a uniform 3-block at d3 by
    the cross-distance c."""
    return glue(GlueSpec(_uniform_block(2, d2), _uniform_block(3, d3), c))


_STATIC = {
    # components with constants 1/2 and 8/15, glued exactly on the boundary
    # 2c = 1/2 + 8/15, where a mass-zero direction with constant potential
    # -1/60 appears and pushes the glued constant to infinity
    "nw-thm2.9": lambda: Fixture(
        key="nw-thm2.9",
        space=_five_point(1.0, 0.8, 31.0 / 60.0),
        expected=Expected(
            verdict=Verdict.NON_STRICT, m_status="infinite",
            reason="NonzeroFlatKernel",
            measure=(0.5, 0.5, -1 / 3, -1 / 3, -1 / 3),
            measure_value=-1.0 / 60.0,
            note="5-point boundary gluing of uniform 2- and 3-blocks; "
                 "smallest point count where a quasihypermetric space has "
                 "an infinite constant")),
    # cross-distance below the boundary (2c = 2 < 1 + 4/3): the glued space
    # is not quasihypermetric yet still carries an invariant probability
    # measure of value 1 (half weight on each 2-block point)
    "nw-thm2.9a": lambda: Fixture(
        key="nw-thm2.9a",
        space=_five_point(2.0, 2.0, 1.0),
        expected=Expected(
            verdict=Verdict.NOT_QUASIHYPERMETRIC, m_status="infinite",
            reason="NotQuasihypermetric",
            measure=(0.5, 0.5, 0.0, 0.0, 0.0),
            measure_value=1.0,
            note="5-point non-quasihypermetric gluing that still carries an "
                 "invariant probability measure of value 1")),
    "fourpoint-antipodal": lambda: Fixture(
        key="fourpoint-antipodal",
        space=regular_polygon_arc(4),
        expected=Expected(
            verdict=Verdict.NON_STRICT, m_status="finite",
            m_value=math.pi / 2,
            measure=(0.5, 0.0, 0.5, 0.0),
            measure_value=math.pi / 2,
            note="two diametrically opposite point pairs on the arc-length "
                 "circle: finite constant pi/2 but degenerate directions")),
}


def _interval_fixture(n: int) -> Fixture:
    return Fixture(
        key=f"interval-{n}",
        space=interval_grid(0.0, 1.0, n),
        expected=Expected(
            verdict=Verdict.STRICT, m_status="finite", m_value=0.5,
            measure=(0.5,) + (0.0,) * (n - 2) + (0.5,),
            measure_value=0.5,
            note="grid on [0,1]: constant (b-a)/2 attained by half weight "
                 "on each endpoint, at every refinement"))


def _circle_fixture(n: int) -> Fixture:
    m = n // 2
    w = [0.0] * n
    w[0] = w[m] = 0.5
    return Fixture(
        key=f"circle-{n}",
        space=regular_polygon_arc(n),
        expected=Expected(
            verdict=Verdict.STRICT if n == 2 else Verdict.NON_STRICT,
            m_status="finite", m_value=math.pi / 2,
            measure=tuple(w), measure_value=math.pi / 2,
            note="even polygon on the unit arc-length circle: constant pi/2 "
                 "attained by any antipodal pair; multiple maximizers for "
                 "n >= 4"))


def _ball_fixture(shells: int) -> Fixture:
    return Fixture(
        key=f"ball3-{shells}",
        space=ball_discretization(shells, BALL_POINTS_PER_SHELL),
        expected=Expected(
            verdict=Verdict.STRICT, m_status="finite", m_value=None,
            note="unit-ball discretization: finite constant strictly below "
                 "2, the unit ball's; with the lattice fixed at 64 points per "
                 "shell, adding shells does not refine the ball, and the "
                 "constant levels off near 1.83 (1.50 at 1 shell, 1.80 at 4, "
                 "1.828 at 24)"))


_PATTERNS = [
    (re.compile(r"^interval-(\d+)$"), _interval_fixture, lambda v: v >= 2,
     "interval-<n> needs n >= 2"),
    (re.compile(r"^circle-(\d+)$"), _circle_fixture,
     lambda v: v >= 2 and v % 2 == 0, "circle-<n> needs even n >= 2"),
    (re.compile(r"^ball3-(\d+)$"), _ball_fixture, lambda v: v >= 1,
     "ball3-<k> needs k >= 1"),
]


def fixture_keys() -> list[str]:
    """Static keys plus the parameterized family patterns."""
    return sorted(_STATIC) + ["interval-<n>", "circle-<2m>", "ball3-<shells>"]


def fixture(key: str) -> Fixture:
    """Look up a catalogue space by key, a str."""
    if not isinstance(key, str):
        raise UnknownFixtureError(f"a fixture key is a str, got {key!r}")
    if key in _STATIC:
        return _STATIC[key]()
    for pattern, build, accept, msg in _PATTERNS:
        m = pattern.match(key)
        if m:
            v = int(m.group(1))
            if not accept(v):
                raise UnknownFixtureError(f"{key!r}: {msg}")
            return build(v)
    raise UnknownFixtureError(
        f"unknown fixture {key!r}; available: {', '.join(fixture_keys())}")

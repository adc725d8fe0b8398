"""Energy functionals over signed measures on a finite metric space.

The central objects are the bilinear energy

    I(mu, nu) = sum_ij dist[i][j] * mu[i] * nu[j],

the potential function x -> sum_j dist[x][j] * mu[j], and the semi-inner
product -I(mu, nu) carried by mass-zero measures on quasihypermetric spaces
(where I(mu) <= 0 whenever the weights sum to zero). Off those spaces a
mass-zero direction of positive energy has no seminorm, and `seminorm_zero`
raises NotApplicableError on one rather than answer 0. Sums are numpy
(BLAS) matrix-vector products.

A measure has mass m when its weights sum to m within SOLVE_REL times its
total variation ||mu||_1 (`_mass_bound`), the rule the invariant solve
accepts its measures by. Mass has no unit, but the rounding of a sum grows
with its terms: an absolute bound would reject the maximizers of
near-boundary spaces (||w||_1 about 1/gap) and a measure of mass zero
times 1e9. The rule is the same at every scale of the weights.

A measure owns a read-only float64 copy of its weights, as a space owns
its matrix: the caller's array is neither aliased nor made read-only. The
measures the package computes itself (maximal measures, witnesses, kernel
directions) are wrapped around their new weights by `_trusted_measure`,
without the copy and the checks.
"""

import json
from dataclasses import dataclass

import numpy as np

from .errors import (IndexOutOfRangeError, InvalidInputError,
                     MalformedMatrixError, NonzeroMassError,
                     NotApplicableError, ParseError, SpaceMismatchError)
from .spaces import (FiniteMetricSpace, _all_indices, _float_array, _open,
                     _real, diameter)
from .tolerances import SOLVE_REL


@dataclass(frozen=True, eq=False)
class SignedMeasure:
    """Weight vector over the points of a specific space (mass is derived).

    The weights are kept as a read-only float64 copy; weights that are not
    real numbers raise MalformedMatrixError."""

    space: FiniteMetricSpace
    weights: np.ndarray

    def __post_init__(self):
        w = _float_array(self.weights, "weight")
        if w.ndim != 1 or w.shape[0] != self.space.n:
            raise SpaceMismatchError(
                f"got {w.shape} weights for a space with {self.space.n} points")
        if not np.isfinite(w).all():
            raise SpaceMismatchError("weights must be finite")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def mass(self) -> float:
        return float(self.weights.sum())


def _trusted_measure(space: FiniteMetricSpace, w: np.ndarray) -> SignedMeasure:
    """A measure around weights the package computed, with no check: a new
    finite float64 vector of the space's length, made read-only, not
    copied."""
    w.setflags(write=False)
    mu = object.__new__(SignedMeasure)
    mu.__dict__.update(space=space, weights=w)
    return mu


def measure(space: FiniteMetricSpace, weights) -> SignedMeasure:
    """Convenience constructor from any array-like weight vector."""
    return SignedMeasure(space, weights)


def atomic(space: FiniteMetricSpace, i: int) -> SignedMeasure:
    """Unit point mass at point i, an integer with 0 <= i < n; any other
    index raises IndexOutOfRangeError."""
    if not (_all_indices([i]) and 0 <= i < space.n):
        raise IndexOutOfRangeError(f"index {i!r} out of range for n={space.n}")
    w = np.zeros(space.n)
    w[i] = 1.0
    return SignedMeasure(space, w)


def uniform(space: FiniteMetricSpace) -> SignedMeasure:
    """Probability measure with equal weight on every point."""
    return SignedMeasure(space, np.full(space.n, 1.0 / space.n))


def _check_on(space: FiniteMetricSpace, mu: SignedMeasure) -> None:
    if mu.space is space:
        return
    if mu.space.n == space.n and np.array_equal(mu.space.dist, space.dist):
        return
    raise SpaceMismatchError("measure does not live on the given space")


def energy_bilinear(space: FiniteMetricSpace, mu: SignedMeasure,
                    nu: SignedMeasure) -> float:
    """Bilinear energy sum_ij d(i,j) mu_i nu_j; symmetric in (mu, nu)."""
    _check_on(space, mu)
    _check_on(space, nu)
    return float(mu.weights @ (space.dist @ nu.weights))


def energy(space: FiniteMetricSpace, mu: SignedMeasure) -> float:
    """Quadratic energy I(mu) = I(mu, mu)."""
    _check_on(space, mu)
    return float(mu.weights @ (space.dist @ mu.weights))


def potential(space: FiniteMetricSpace, mu: SignedMeasure) -> np.ndarray:
    """Potential vector: component i is sum_j d(i,j) mu_j.

    Satisfies energy_bilinear(space, mu, nu) == potential(space, mu) @ nu.
    """
    _check_on(space, mu)
    return space.dist @ mu.weights


def _mass_bound(w: np.ndarray) -> float:
    """How far from its mass the weight sum of w may be: SOLVE_REL *
    ||w||_1. The one mass rule of the package: the invariant solve,
    `glued_invariant` (whose potential may be this times the diameter from
    its constant), `verify_maximal`, `sequence_diagnostics`, `seminorm_zero`
    and `inner_zero` all hold measures to it."""
    return SOLVE_REL * float(np.abs(w).sum())


def _check_mass(w: np.ndarray, target: float, what: str, error) -> None:
    """Raise `error` unless the weights w sum to `target` within
    `_mass_bound(w)`."""
    m = float(w.sum())
    if abs(m - target) > _mass_bound(w):
        raise error(f"{what} must have mass {target:g}, got mass {m}")


def seminorm_zero(space: FiniteMetricSpace, mu: SignedMeasure) -> float:
    """Seminorm sqrt(-I(mu)) of a measure of mass 0 within SOLVE_REL *
    ||mu||_1; any other mass raises NonzeroMassError.

    Defined where -I(mu) >= 0, as on every quasihypermetric space. A
    negative radicand within roundoff, SOLVE_REL * diameter * ||mu||_1^2
    (|I(mu)| is at most diameter * ||mu||_1^2), counts as 0; one below that
    is a direction of positive energy, which has no seminorm, and raises
    NotApplicableError. Both bounds scale with the weights, so
    seminorm_zero(t mu) = t seminorm_zero(mu) at every t > 0.
    """
    _check_mass(mu.weights, 0.0, "seminorm argument", NonzeroMassError)
    radicand = -energy(space, mu)
    l1 = float(np.abs(mu.weights).sum())
    if radicand < -SOLVE_REL * diameter(space) * l1 * l1:
        raise NotApplicableError(
            f"-I(mu) = {radicand:.3e} is negative beyond roundoff: the space "
            "is not quasihypermetric and mu has no seminorm")
    return float(np.sqrt(max(0.0, radicand)))


def inner_zero(space: FiniteMetricSpace, mu: SignedMeasure,
               nu: SignedMeasure) -> float:
    """Semi-inner product -I(mu, nu) on measures of mass 0, each within
    SOLVE_REL times its own total variation; any other mass raises
    NonzeroMassError."""
    _check_mass(mu.weights, 0.0, "first argument", NonzeroMassError)
    _check_mass(nu.weights, 0.0, "second argument", NonzeroMassError)
    return -energy_bilinear(space, mu, nu)


def inner_extended(space: FiniteMetricSpace, m_value: float, mu: SignedMeasure,
                   nu: SignedMeasure) -> float:
    """Extended semi-inner product (m+1) mass(mu) mass(nu) - I(mu, nu).

    `m_value` is a finite value of the energy supremum constant of the space
    (caller-supplied). For mass-1 measures this realizes the identity
    ||mu||^2 = m_value + 1 - I(mu); on mass-zero measures it reduces to
    inner_zero. An `m_value` that is not a finite real number raises
    InvalidInputError.
    """
    m_value = _real(m_value, "m_value must be a finite real number",
                    InvalidInputError)
    _check_on(space, mu)
    _check_on(space, nu)
    return ((m_value + 1.0) * mu.mass * nu.mass
            - energy_bilinear(space, mu, nu))


# -- measure JSON format ------------------------------------------------------
#
# {"space": str, "weights": [...]}; the space name must match the space the
# measure is attached to.


def measure_to_json(mu: SignedMeasure) -> str:
    ws = ", ".join(format(w, ".17g") for w in mu.weights)
    return ('{\n  "space": %s,\n  "weights": [%s]\n}\n'
            % (json.dumps(mu.space.name), ws))


def save_measure(mu: SignedMeasure, path) -> None:
    with _open(path, "w") as fh:
        fh.write(measure_to_json(mu))


def load_measure(path, space: FiniteMetricSpace) -> SignedMeasure:
    """Read a measure from JSON and attach it to `space` (names must agree).
    A file that is not UTF-8 text, or weights that are not real numbers
    within float64 range (booleans and nulls are not), raise ParseError; a
    path that is not a str or os.PathLike raises InvalidInputError."""
    with _open(path, "r") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"not valid JSON: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8 text: {exc}") from exc
    if not isinstance(obj, dict) or "weights" not in obj:
        raise ParseError("expected a JSON object with a 'weights' key")
    if not isinstance(obj["weights"], list):
        raise ParseError("'weights' must be an array of numbers")
    declared = obj.get("space", "")
    if declared and space.name and declared != space.name:
        raise SpaceMismatchError(
            f"measure file is for space {declared!r}, not {space.name!r}")
    try:
        weights = _float_array(obj["weights"], "weight")
    except MalformedMatrixError as exc:  # a non-numeric or huge entry
        raise ParseError(str(exc)) from exc
    return measure(space, weights)


def parse_weights(text: str) -> np.ndarray:
    """Parse an inline weight list: comma- or whitespace-separated numbers."""
    parts = [p for p in text.replace(",", " ").split() if p]
    if not parts:
        raise ParseError("empty weight list")
    try:
        return np.array([float(p) for p in parts])
    except ValueError as exc:
        raise ParseError(f"bad weight entry: {exc}") from exc

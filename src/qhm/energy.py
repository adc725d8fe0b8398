"""Energy functionals over signed measures on a finite metric space.

The central objects are the bilinear energy

    I(mu, nu) = sum_ij dist[i][j] * mu[i] * nu[j],

the potential function x -> sum_j dist[x][j] * mu[j], and the semi-inner
product -I(mu, nu) carried by mass-zero measures on quasihypermetric spaces
(where I(mu) <= 0 whenever the weights sum to zero). Sums are numpy (BLAS)
matrix-vector products.
"""

import json
from dataclasses import dataclass

import numpy as np

from .errors import (MalformedMatrixError, NonzeroMassError, ParseError,
                     SpaceMismatchError)
from .spaces import FiniteMetricSpace, _float_array, diameter
from .tolerances import MASS_TOL, NEG_RADICAND_REL


@dataclass(frozen=True, eq=False)
class SignedMeasure:
    """Weight vector over the points of a specific space (mass is derived)."""

    space: FiniteMetricSpace
    weights: np.ndarray

    def __post_init__(self):
        w = np.ascontiguousarray(self.weights, dtype=np.float64)
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


def measure(space: FiniteMetricSpace, weights) -> SignedMeasure:
    """Convenience constructor from any array-like weight vector."""
    return SignedMeasure(space, np.asarray(weights, dtype=np.float64))


def atomic(space: FiniteMetricSpace, i: int) -> SignedMeasure:
    """Unit point mass at point i."""
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


def _require_mass_zero(mu: SignedMeasure, mass_tol: float, what: str) -> None:
    m = mu.mass
    if abs(m) > mass_tol:
        raise NonzeroMassError(f"{what} must have mass 0, got mass {m}")


def seminorm_zero(space: FiniteMetricSpace, mu: SignedMeasure,
                  mass_tol: float = MASS_TOL, neg_tol: float | None = None,
                  diagnostics: dict | None = None) -> float:
    """Seminorm sqrt(-I(mu)) of a mass-zero measure.

    Meaningful when the space is quasihypermetric, where -I(mu) >= 0. Tiny
    negative radicands are clamped to zero; pass a `diagnostics` dict to
    receive the raw radicand and a flag when it is below -neg_tol (which
    signals genuinely non-quasihypermetric input rather than roundoff).
    `neg_tol` defaults to NEG_RADICAND_REL * diameter * ||mu||_1^2, the
    scale of I(mu).
    """
    _require_mass_zero(mu, mass_tol, "seminorm argument")
    radicand = -energy(space, mu)
    if diagnostics is not None:
        if neg_tol is None:
            l1 = float(np.abs(mu.weights).sum())
            neg_tol = NEG_RADICAND_REL * diameter(space) * l1 * l1
        diagnostics["radicand"] = radicand
        diagnostics["negative_squared_norm"] = radicand < -neg_tol
    return float(np.sqrt(max(0.0, radicand)))


def inner_zero(space: FiniteMetricSpace, mu: SignedMeasure, nu: SignedMeasure,
               mass_tol: float = MASS_TOL) -> float:
    """Semi-inner product -I(mu, nu) on mass-zero measures."""
    _require_mass_zero(mu, mass_tol, "first argument")
    _require_mass_zero(nu, mass_tol, "second argument")
    return -energy_bilinear(space, mu, nu)


def inner_extended(space: FiniteMetricSpace, m_value: float, mu: SignedMeasure,
                   nu: SignedMeasure) -> float:
    """Extended semi-inner product (m+1) mass(mu) mass(nu) - I(mu, nu).

    `m_value` is a finite value of the energy supremum constant of the space
    (caller-supplied). For mass-1 measures this realizes the identity
    ||mu||^2 = m_value + 1 - I(mu); on mass-zero measures it reduces to
    inner_zero.
    """
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
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(measure_to_json(mu))


def load_measure(path, space: FiniteMetricSpace) -> SignedMeasure:
    """Read a measure from JSON and attach it to `space` (names must agree).
    A file that is not UTF-8 text, or weights that are not real numbers
    within float64 range (booleans and nulls are not), raise ParseError."""
    with open(path, "r", encoding="utf-8") as fh:
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

"""Spectral classification of the negative-type (quasihypermetric) property.

A space is quasihypermetric iff the centered form A = -P D P (P the
projection removing the all-ones component) is positive semidefinite on the
mass-zero subspace, since a mass-zero coefficient vector has
alpha' A alpha = -energy(alpha). The verdict is read off the spectrum of A
restricted to that subspace:

    some eigenvalue < -tau   ->  NotQuasihypermetric (the eigenvector is a
                                 mass-zero witness with positive energy)
    all eigenvalues  >  tau  ->  Strict
    otherwise                ->  NonStrict; eigenvectors within +-tau of zero
                                 span the degenerate (seminorm-zero) directions

with tau = tol * max(1, spectral radius). Single-point spaces are Strict by
convention. The mass-zero basis is never formed; it is applied as one
Householder reflection.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .energy import SignedMeasure, potential
from .errors import (
    EigendecompositionFailure,
    FlatnessViolationError,
    InvalidInputError,
    NotApplicableError,
)
from .spaces import FiniteMetricSpace, diameter

DEFAULT_TOL = 1e-9  # relative spectral tolerance


def check_tol(tol: float) -> None:
    """Reject a NaN, infinite or negative decision tolerance."""
    if not (math.isfinite(tol) and tol >= 0.0):
        raise InvalidInputError(f"tol must be a finite number >= 0, got {tol!r}")


def default_flatness_tol(space: FiniteMetricSpace) -> float:
    """Absolute tolerance for 'constant potential' checks, scaled by size."""
    return 1e-8 * (1.0 + diameter(space))


class Verdict(str, Enum):
    NOT_QUASIHYPERMETRIC = "NotQuasihypermetric"
    STRICT = "Strict"
    NON_STRICT = "NonStrict"


@dataclass(frozen=True, eq=False)
class Classification:
    """Three-way verdict with the spectral evidence that produced it.

    eigenvalues: full centered-form spectrum, ascending (includes the trivial
    zero of the all-ones direction). margin: smallest |eigenvalue| on the
    mass-zero subspace, i.e. the distance of the decision to the
    Strict/NonStrict boundary (None for single-point spaces). witness: present
    iff NotQuasihypermetric, a unit mass-zero measure with positive energy.
    kernel_basis: present iff NonStrict, euclidean-orthonormal mass-zero
    measures spanning the degenerate directions. restricted_values/_vectors:
    the eigenpairs of the form in the mass-zero basis, for the invariant solve.
    """

    verdict: Verdict
    eigenvalues: np.ndarray
    margin: float | None
    tol_used: float
    restricted_values: np.ndarray
    restricted_vectors: np.ndarray
    witness: SignedMeasure | None = None
    kernel_basis: tuple[SignedMeasure, ...] = ()


def centered_form(space: FiniteMetricSpace) -> np.ndarray:
    """The matrix A = -P dist P with P = I - ones/n; A @ 1 = 0 and
    alpha' A alpha = -energy(alpha) for mass-zero alpha."""
    n = space.n
    p = np.eye(n) - np.full((n, n), 1.0 / n)
    return -(p @ space.dist @ p)


def _reflect(x: np.ndarray) -> np.ndarray:
    """H x (column by column for a matrix) for H = I - beta v v' with
    v = e1 - ones/sqrt(n). H maps e1 to ones/sqrt(n), so its other columns are
    an orthonormal mass-zero basis Q: Q'x = (H x)[1:] and Q y = H (0, y)."""
    n = x.shape[0]
    v = np.full(n, -1.0 / math.sqrt(n))
    v[0] += 1.0
    return x - np.multiply.outer(v, (2.0 / (v @ v)) * (v @ x))


def _from_mass_zero(y: np.ndarray) -> np.ndarray:
    return _reflect(np.concatenate(([0.0], y)))


def _pinv_mass_zero(cls: Classification, x: np.ndarray) -> tuple[np.ndarray, bool]:
    """Q B+ Q' x from the eigenpairs of B in `cls`, and whether B+ = B^-1.
    B+ inverts the eigenvalues above tol_used in magnitude, zeroing the
    degenerate ones."""
    vals, vecs = cls.restricted_values, cls.restricted_vectors
    if vals.size == 0:
        return np.zeros_like(x), True
    keep = np.abs(vals) > cls.tol_used
    coef = np.divide(vecs.T @ _reflect(x)[1:], vals, out=np.zeros_like(vals),
                     where=keep)
    return _from_mass_zero(vecs @ coef), bool(keep.all())


def _as_mass_zero_unit(space: FiniteMetricSpace, vec: np.ndarray) -> SignedMeasure:
    w = vec - vec.mean()
    w /= np.linalg.norm(w)
    return SignedMeasure(space, w)


def classify(space: FiniteMetricSpace, tol: float = DEFAULT_TOL) -> Classification:
    """Decide NotQuasihypermetric / Strict / NonStrict for a space."""
    check_tol(tol)
    n = space.n
    if n == 1:
        return Classification(verdict=Verdict.STRICT,
                              eigenvalues=np.zeros(1), margin=None,
                              tol_used=tol, restricted_values=np.zeros(0),
                              restricted_vectors=np.zeros((0, 0)))
    b = -_reflect(_reflect(space.dist).T)[1:, 1:]
    try:
        vals, vecs = np.linalg.eigh(b)
    except np.linalg.LinAlgError as exc:
        scale = float(np.abs(b).max())
        raise EigendecompositionFailure(
            f"eigensolver failed on the {n - 1} dimensional restricted form "
            f"(entry scale {scale:.3e}): {exc}") from exc

    tau = tol * max(1.0, float(np.abs(vals).max()))
    evidence = dict(eigenvalues=np.sort(np.append(vals, 0.0)),
                    margin=float(np.abs(vals).min()), tol_used=tau,
                    restricted_values=vals, restricted_vectors=vecs)

    if vals[0] < -tau:
        witness = _as_mass_zero_unit(space, _from_mass_zero(vecs[:, 0]))
        return Classification(verdict=Verdict.NOT_QUASIHYPERMETRIC,
                              witness=witness, **evidence)

    kernel_idx = np.flatnonzero(np.abs(vals) <= tau)
    if kernel_idx.size:
        basis = tuple(_as_mass_zero_unit(space, _from_mass_zero(vecs[:, i]))
                      for i in kernel_idx)
        return Classification(verdict=Verdict.NON_STRICT,
                              kernel_basis=basis, **evidence)

    return Classification(verdict=Verdict.STRICT, **evidence)


@dataclass(frozen=True)
class KernelFlatValue:
    """A degenerate direction with the constant value of its potential."""

    vector: SignedMeasure
    value: float
    deviation: float


def kernel_flat_values(space: FiniteMetricSpace, cls: Classification,
                       flatness_tol: float | None = None) -> list[KernelFlatValue]:
    """Constant potential values of the degenerate directions.

    On a genuinely quasihypermetric space the potential of every seminorm-zero
    mass-zero measure is constant; a deviation above `flatness_tol` means the
    classification tolerance was too loose for this space.
    """
    if cls.verdict is not Verdict.NON_STRICT:
        raise NotApplicableError(
            f"kernel flat values require a NonStrict verdict, got {cls.verdict.value}")
    if flatness_tol is None:
        flatness_tol = default_flatness_tol(space)
    out = []
    for f in cls.kernel_basis:
        pot = potential(space, f)
        value = float(pot.mean())
        deviation = float(np.abs(pot - value).max())
        if deviation > flatness_tol:
            raise FlatnessViolationError(
                f"degenerate-direction potential varies by {deviation} > "
                f"{flatness_tol}; classification tolerance too loose")
        out.append(KernelFlatValue(vector=f, value=value, deviation=deviation))
    return out

"""Spectral classification of the negative-type (quasihypermetric) property.

A space is quasihypermetric iff the centered form A = -P D P (P the
projection removing the all-ones component) is positive semidefinite on the
mass-zero subspace, since a mass-zero coefficient vector has
alpha' A alpha = -energy(alpha). The verdict is read off the spectrum of A
restricted to that subspace, B = -Q'DQ for an orthonormal mass-zero basis Q:

    some eigenvalue < -tau   ->  NotQuasihypermetric (the eigenvector is a
                                 mass-zero witness with positive energy)
    all eigenvalues  >  tau  ->  Strict
    otherwise                ->  NonStrict; eigenvectors within +-tau of zero
                                 span the degenerate (seminorm-zero) directions

with tau = tol * spectral radius of B, so the verdict does not depend on the
unit of length (see `qhm.tolerances`). Single-point spaces are Strict by
convention. Q is the last n - 1 columns of one Householder reflection H,
never formed: B comes from D by a rank-two update in O(n^2), and Q and Q'
are applied to vectors in closed form, O(n) each. `classify` always takes
the full `eigh` of B, since its verdict carries the spectrum; the
decisions of `qhm.msolver` first try to prove Strict without it.

A Classification holds what `eigh` returned and the verdict read from it.
What a caller may not read is built on first read from those eigenpairs:
the sorted spectrum with its trivial zero, the witness and the kernel
basis, each Q y wrapped as a measure without a copy or a check
(`qhm.energy._trusted_measure`). A decision on its own therefore costs the
`eigh` and a few comparisons, and no measure.
"""

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .energy import SignedMeasure, _trusted_measure, potential
from .errors import (
    EigendecompositionFailure,
    InvalidInputError,
    NotApplicableError,
)
from .spaces import FiniteMetricSpace, _instance, _real
from .tolerances import DEFAULT_TOL


def check_tol(tol: float) -> None:
    """Reject a decision tolerance that is not a real number, or is NaN,
    infinite or negative."""
    if _real(tol, "tol must be a finite number >= 0", InvalidInputError) < 0.0:
        raise InvalidInputError(f"tol must be a finite number >= 0, got {tol!r}")


class Verdict(str, Enum):
    NOT_QUASIHYPERMETRIC = "NotQuasihypermetric"
    STRICT = "Strict"
    NON_STRICT = "NonStrict"


@dataclass(frozen=True, eq=False)
class Classification:
    """Three-way verdict with the spectral evidence that produced it.

    A decision holds what its verdict is read from: restricted_values
    (ascending) and restricted_vectors, the eigenpairs of the form in the
    mass-zero basis, which the invariant solve also uses; margin, the
    smallest |eigenvalue| on the mass-zero subspace, i.e. the distance of
    the decision to the Strict/NonStrict boundary (None for single-point
    spaces); and tol_used. The rest of the evidence is built from the
    eigenpairs on first read and then kept: eigenvalues, the full
    centered-form spectrum, ascending (with the trivial zero of the
    all-ones direction); witness, present iff NotQuasihypermetric, a unit
    mass-zero measure with positive energy; kernel_basis, present iff
    NonStrict, euclidean-orthonormal mass-zero measures spanning the
    degenerate directions.
    """

    space: FiniteMetricSpace
    verdict: Verdict
    margin: float | None
    tol_used: float
    restricted_values: np.ndarray
    restricted_vectors: np.ndarray

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        return np.sort(np.append(self.restricted_values, 0.0))

    @cached_property
    def witness(self) -> SignedMeasure | None:
        if self.verdict is not Verdict.NOT_QUASIHYPERMETRIC:
            return None
        return self._measure(0)

    @cached_property
    def kernel_basis(self) -> tuple[SignedMeasure, ...]:
        if self.verdict is not Verdict.NON_STRICT:
            return ()
        return tuple(map(self._measure, np.flatnonzero(_degenerate(self))))

    def _measure(self, i) -> SignedMeasure:
        """Q y for the i-th eigenvector y, as a measure on the space."""
        return _trusted_measure(self.space,
                                _from_mass_zero(self.restricted_vectors[:, i]))


# The mass-zero basis Q is the last n - 1 columns of the Householder
# reflection H = I - beta v v' with v = e1 - ones/sqrt(n), which maps e1 to
# ones/sqrt(n). With a = 1/sqrt(n), v is 1 - a then -a repeated, and
# beta = 2 / v'v = 1 / (1 - a), so Q'x = (Hx)[1:] and Qy = H (0, y) are:
# Q'x = x[1:] + beta a v'x, with v'x = x_0 - a sum(x), and
# Qy = (a s, y - beta a^2 s) with s = sum(y).

def _to_mass_zero(x: np.ndarray) -> np.ndarray:
    """Q'x for n >= 2 entries, with Python floats for the scalars."""
    a = 1.0 / math.sqrt(x.shape[0])
    return x[1:] + (a / (1.0 - a)) * (float(x[0]) - a * float(x.sum()))


def _from_mass_zero(y: np.ndarray) -> np.ndarray:
    """Qy = (a s, y - beta a^2 s) with s = sum(y), for n - 1 >= 1 entries.
    Q has orthonormal mass-zero columns: Qy of a unit y is a unit mass-zero
    vector up to rounding, and needs no recentring or rescaling."""
    a = 1.0 / math.sqrt(y.shape[0] + 1)
    s = y.sum()
    return np.concatenate(([a * s], y - (a * a / (1.0 - a)) * s))


def _restricted_form(dist: np.ndarray,
                     out: np.ndarray | None = None) -> np.ndarray:
    """B = -Q'DQ, exactly symmetric, in O(n^2) from D; written into `out`
    when it is given, the same bits either way.

    With p = Dv and beta = 2 / v'v = 1 / (1 - a), a = 1/sqrt(n),
    HDH = D - v q' - q v' for q = beta p - (beta^2 v'p / 2) v. Every entry of
    v past the first is -a, so B_ij = -(t_i + t_j) - d_ij for i, j >= 1 with
    t = a q[1:]; summing t_i + t_j first keeps B symmetric bit for bit.
    """
    n = dist.shape[0]
    if n == 1:
        return np.zeros((0, 0))
    a = 1.0 / math.sqrt(n)
    beta = 1.0 / (1.0 - a)
    p = dist[:, 0] - a * dist.sum(axis=1)
    vp = p[0] - a * p.sum()
    t = a * (beta * p[1:] + (0.5 * beta * beta * a) * vp)
    b = np.subtract.outer(-t, t, out=out)
    b -= dist[1:, 1:]
    return b


def classify(space: FiniteMetricSpace, tol: float = DEFAULT_TOL) -> Classification:
    """Decide NotQuasihypermetric / Strict / NonStrict for a space from the
    full spectrum of its restricted form."""
    return _classify_form(space, _checked_form(space, tol), tol)


def _checked_form(space: FiniteMetricSpace, tol: float) -> np.ndarray:
    """The restricted form B of `space`, once `tol` and `space` are checked:
    the entry of `classify` and of the decisions of `qhm.msolver`."""
    check_tol(tol)
    return _restricted_form(_instance(space, FiniteMetricSpace, "space").dist)


def _classify_form(space: FiniteMetricSpace, b: np.ndarray,
                   tol: float) -> Classification:
    """`classify` on the restricted form `b` of `space`, already built."""
    n = space.n
    if n == 1:
        return Classification(space, Verdict.STRICT, None, tol, np.zeros(0),
                              np.zeros((0, 0)))
    try:
        vals, vecs = np.linalg.eigh(b)
    except np.linalg.LinAlgError as exc:
        scale = float(np.abs(b).max())
        raise EigendecompositionFailure(
            f"eigensolver failed on the {n - 1} dimensional restricted form "
            f"(entry scale {scale:.3e}): {exc}") from exc
    size = np.abs(vals)
    tau = tol * float(size.max())
    verdict = (Verdict.NOT_QUASIHYPERMETRIC if vals[0] < -tau else
               Verdict.NON_STRICT if (size <= tau).any() else Verdict.STRICT)
    return Classification(space, verdict, float(size.min()), tau, vals, vecs)


def _degenerate(cls: Classification) -> np.ndarray:
    """Which eigenvalues of B lie within cls.tol_used of zero: the
    degenerate directions, which the invariant solve skips."""
    return np.abs(cls.restricted_values) <= cls.tol_used


@dataclass(frozen=True)
class KernelFlatValue:
    """A degenerate direction with the constant value of its potential."""

    vector: SignedMeasure
    value: float
    deviation: float


def kernel_flat_values(space: FiniteMetricSpace,
                       cls: Classification) -> list[KernelFlatValue]:
    """Constant potential values of the degenerate directions, and how far
    each potential deviates from its value.

    For f = Q y, y a unit eigenvector of B with eigenvalue lambda,
    D f - mean(D f) = -lambda f exactly, so the deviation is |lambda| *
    max|f|, within the verdict's band. The value is the coefficient that
    the invariant solve drops along f (`qhm.msolver._invariant_solve`).
    """
    if _instance(cls, Classification, "cls").verdict is not Verdict.NON_STRICT:
        raise NotApplicableError(
            f"kernel flat values require a NonStrict verdict, got {cls.verdict.value}")
    out = []
    for f in cls.kernel_basis:
        pot = potential(space, f)
        value = float(pot.mean())
        deviation = float(np.abs(pot - value).max())
        out.append(KernelFlatValue(vector=f, value=value, deviation=deviation))
    return out

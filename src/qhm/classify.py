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
are applied to vectors in closed form, O(n) each.

`classify` always takes the full `eigh` of B, since its verdict carries the
spectrum. A Strict verdict alone needs less: `certify_strict` factors
B - (tau_hi + r) I by Cholesky, with tau_hi = tol * ||B||_F >= tau and r
a bound on the factorization's backward error. Success proves every
eigenvalue of B exceeds tau_hi, so `eigh` would also answer Strict; the
factor then solves with B by iterative refinement (a plain LU solve when B
is small). `m_constant` and `invariant_measure` try that certificate first
and fall back to `eigh`, on the same B, when it fails.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._kernels import cholesky_solver
from .energy import SignedMeasure, potential
from .errors import (
    EigendecompositionFailure,
    FlatnessViolationError,
    InvalidInputError,
    NotApplicableError,
)
from .spaces import FiniteMetricSpace, diameter
from .tolerances import DEFAULT_TOL, FLATNESS_REL

EPS = float(np.finfo(np.float64).eps)
# Up to this order of B a dense LU solve with B costs less than setting up
# the blocked triangular solves of its certificate and refining, although it
# is a second factorization of the decision. Refinement took 4-6 triangular
# solves per decision on clouds of 3-16 points. With refinement at every
# order, 10 s runs of the small-batch benchmark (seed 61, 2-vCPU machine)
# read decision_p50_s 104 -> 157 us and wall_s 0.27 -> 0.41 s, and again
# 111 -> 161 us and 0.31 -> 0.41 s.
DIRECT_SOLVE_MAX = 64


def check_tol(tol: float) -> None:
    """Reject a NaN, infinite or negative decision tolerance."""
    if not (math.isfinite(tol) and tol >= 0.0):
        raise InvalidInputError(f"tol must be a finite number >= 0, got {tol!r}")


def default_flatness_tol(space: FiniteMetricSpace) -> float:
    """Tolerance for 'constant potential' checks: FLATNESS_REL times the
    diameter."""
    return FLATNESS_REL * diameter(space)


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


# The mass-zero basis Q is the last n - 1 columns of the Householder
# reflection H = I - beta v v' with v = e1 - ones/sqrt(n), which maps e1 to
# ones/sqrt(n). With a = 1/sqrt(n), v is 1 - a then -a repeated, and
# beta = 2 / v'v = 1 / (1 - a), so Q'x = (Hx)[1:] and Qy = H (0, y) are:

def _to_mass_zero(x: np.ndarray) -> np.ndarray:
    """Q'x = x[1:] + beta a v'x, with v'x = x_0 - a sum(x)."""
    a = 1.0 / math.sqrt(x.shape[0])
    return x[1:] + (a / (1.0 - a)) * (x[0] - a * x.sum())


def _from_mass_zero(y: np.ndarray) -> np.ndarray:
    """Qy = (a s, y - beta a^2 s) with s = sum(y), for n - 1 >= 1 entries."""
    a = 1.0 / math.sqrt(y.shape[0] + 1)
    s = y.sum()
    return np.concatenate(([a * s], y - (a * a / (1.0 - a)) * s))


def _restricted_form(dist: np.ndarray) -> np.ndarray:
    """B = -Q'DQ, exactly symmetric, in O(n^2) from D.

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
    b = np.subtract.outer(-t, t)
    b -= dist[1:, 1:]
    return b


def _pinv_mass_zero(cls: Classification, x: np.ndarray) -> tuple[np.ndarray, bool]:
    """Q B+ Q' x from the eigenpairs of B in `cls`, and whether B+ = B^-1.
    B+ inverts the eigenvalues above tol_used in magnitude, zeroing the
    degenerate ones."""
    vals, vecs = cls.restricted_values, cls.restricted_vectors
    if vals.size == 0:
        return np.zeros_like(x), True
    keep = np.abs(vals) > cls.tol_used
    coef = np.divide(vecs.T @ _to_mass_zero(x), vals, out=np.zeros_like(vals),
                     where=keep)
    return _from_mass_zero(vecs @ coef), bool(keep.all())


@dataclass(frozen=True, eq=False)
class StrictCertificate:
    """Proof of a Strict verdict without the spectrum.

    margin: tau_hi, a certified lower bound on every eigenvalue of B, at
    least classify's tau. form: B. lower: the Cholesky factor of
    B - (tau_hi + rounding) I that proved it. rounding: (m + 1) eps trace(B),
    a bound on the 2-norm backward error of that factorization and of a
    backward-stable solve with B.
    """

    margin: float
    form: np.ndarray
    lower: np.ndarray
    rounding: float


def certify_strict(b: np.ndarray, tol: float) -> StrictCertificate | None:
    """Certify that every eigenvalue of the restricted form `b` exceeds
    tau_hi = tol * ||b||_F, or return None.

    ||b||_F >= spectral radius, so tau_hi >= classify's tau. Cholesky's
    computed factor of C is exact for C + E with ||E||_2 <= gamma_{m+1}
    trace(C) <= r = (m + 1) eps trace(b); factoring C = b - (tau_hi + r) I
    therefore proves lambda_min(b) > tau_hi. When tau_hi <= r (tol = 0
    among them) the certificate cannot resolve the margin and is not tried.
    `b` is shifted in place and restored before returning.
    """
    m = b.shape[0]
    if m == 0:
        return None
    margin = tol * float(np.linalg.norm(b))
    rounding = (m + 1) * EPS * float(b.trace())
    if not margin > rounding:
        return None
    diagonal = b.reshape(-1)[::m + 1]
    saved = diagonal.copy()
    diagonal -= margin + rounding
    try:
        lower = np.linalg.cholesky(b)
    except np.linalg.LinAlgError:
        return None
    finally:
        diagonal[:] = saved
    return StrictCertificate(margin=margin, form=b, lower=lower,
                             rounding=rounding)


def _certified_mass_zero(cert: StrictCertificate, x: np.ndarray) -> np.ndarray | None:
    """Q B^-1 Q' x for a certified B, or None when the solve does not reach
    backward stability.

    Up to DIRECT_SOLVE_MAX rows this is one LU solve with B. Above, it is
    iterative refinement on the certificate's factor: y <- y + C^-1 (r - B y)
    with C = B - shift I multiplies the error by -shift C^-1, so it
    contracts when lambda_min > 2 shift, and it stops when a correction no
    longer halves. The result is kept only if its residual is within
    `rounding` times its norm, as a backward-stable solve leaves it.
    """
    b = cert.form
    r = _to_mass_zero(x)
    if r.shape[0] <= DIRECT_SOLVE_MAX:
        return _from_mass_zero(np.linalg.solve(b, r))
    solve = cholesky_solver(cert.lower)
    y = solve(r)
    last = math.inf
    while True:
        res = r - b @ y
        dy = solve(res)
        size = float(np.abs(dy).max())
        if not size < 0.5 * last:
            break
        y += dy
        last = size
    if not np.linalg.norm(res) <= cert.rounding * np.linalg.norm(y):
        return None
    return _from_mass_zero(y)


def _as_mass_zero_unit(space: FiniteMetricSpace, vec: np.ndarray) -> SignedMeasure:
    w = vec - vec.mean()
    w /= np.linalg.norm(w)
    return SignedMeasure(space, w)


def classify(space: FiniteMetricSpace, tol: float = DEFAULT_TOL) -> Classification:
    """Decide NotQuasihypermetric / Strict / NonStrict for a space from the
    full spectrum of its restricted form."""
    check_tol(tol)
    return _classify_form(space, _restricted_form(space.dist), tol)


def _classify_form(space: FiniteMetricSpace, b: np.ndarray,
                   tol: float) -> Classification:
    """`classify` on the restricted form `b` of `space`, already built."""
    n = space.n
    if n == 1:
        return Classification(verdict=Verdict.STRICT,
                              eigenvalues=np.zeros(1), margin=None,
                              tol_used=tol, restricted_values=np.zeros(0),
                              restricted_vectors=np.zeros((0, 0)))
    try:
        vals, vecs = np.linalg.eigh(b)
    except np.linalg.LinAlgError as exc:
        scale = float(np.abs(b).max())
        raise EigendecompositionFailure(
            f"eigensolver failed on the {n - 1} dimensional restricted form "
            f"(entry scale {scale:.3e}): {exc}") from exc

    tau = tol * float(np.abs(vals).max())
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

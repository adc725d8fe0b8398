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
C = B - (tau_hi + 2 r) I, with tau_hi = tol * ||B||_F >= tau and r a bound
on the factorization's rounding. Success proves every eigenvalue of B
exceeds tau_hi, so `eigh` would also answer Strict. Up to CHOLESKY_BLOCK
rows the factorization is one `np.linalg.cholesky` and the solve with B one
LU solve. Above, it is `qhm._kernels.blocked_cholesky`, whose explicit
diagonal-block inverses form its panels, are checked by a measured
residual, and then drive the triangular solves of an iterative refinement
with B. `m_constant` and `invariant_measure` try that certificate first and
fall back to `eigh`, on the same B, when it fails.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._kernels import CHOLESKY_BLOCK, EPS, BlockedCholesky, blocked_cholesky
from .energy import SignedMeasure, potential
from .errors import (
    EigendecompositionFailure,
    InvalidInputError,
    NotApplicableError,
)
from .spaces import FiniteMetricSpace, _real
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


# The mass-zero basis Q is the last n - 1 columns of the Householder
# reflection H = I - beta v v' with v = e1 - ones/sqrt(n), which maps e1 to
# ones/sqrt(n). With a = 1/sqrt(n), v is 1 - a then -a repeated, and
# beta = 2 / v'v = 1 / (1 - a), so Q'x = (Hx)[1:] and Qy = H (0, y) are:

def _to_mass_zero(x: np.ndarray) -> np.ndarray:
    """Q'x = x[1:] + beta a v'x, with v'x = x_0 - a sum(x)."""
    a = 1.0 / math.sqrt(x.shape[0])
    return x[1:] + (a / (1.0 - a)) * (x[0] - a * x.sum())


def _from_mass_zero(y: np.ndarray) -> np.ndarray:
    """Qy = (a s, y - beta a^2 s) with s = sum(y), for n - 1 >= 1 entries.
    Q has orthonormal mass-zero columns: Qy of a unit y is a unit mass-zero
    vector up to rounding, and needs no recentring or rescaling."""
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


def _pinv_mass_zero(cls: Classification,
                    x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Q B+ Q' x from the eigenpairs of B in `cls`, and the coefficients
    <x, f_i> it drops. B+ inverts the eigenvalues above tol_used in
    magnitude and skips the degenerate ones, whose directions f_i are
    `cls.kernel_basis` in order; none dropped means B+ = B^-1. For x = Du,
    u = ones/n, <Du, f_i> = mean(D f_i) is the flat value of f_i."""
    vals, vecs = cls.restricted_values, cls.restricted_vectors
    if vals.size == 0:
        return np.zeros_like(x), np.zeros(0)
    keep = np.abs(vals) > cls.tol_used
    proj = vecs.T @ _to_mass_zero(x)
    coef = np.divide(proj, vals, out=np.zeros_like(vals), where=keep)
    return _from_mass_zero(vecs @ coef), proj[~keep]


@dataclass(frozen=True, eq=False)
class StrictCertificate:
    """Proof of a Strict verdict without the spectrum.

    margin: tau_hi, a certified lower bound on every eigenvalue of B, at
    least classify's tau. form: B. rounding: r = (m + 1) eps trace(B), a
    bound on the 2-norm of the rounding error of the factorization and the
    budget of its panel residual; per unit of ||y||, also the residual a
    converged refinement leaves. It does not judge the measure the solve
    gives, which `qhm.msolver` checks on its own scale. factor: the blocked
    factorization of B - (tau_hi + 2 r) I that proved it, or None up to
    CHOLESKY_BLOCK rows, where the solve is one LU solve with B.
    """

    margin: float
    form: np.ndarray
    rounding: float
    factor: BlockedCholesky | None


def certify_strict(b: np.ndarray, tol: float) -> StrictCertificate | None:
    """Certify that every eigenvalue of the restricted form `b` exceeds
    tau_hi = tol * ||b||_F, or return None.

    ||b||_F >= spectral radius, so tau_hi >= classify's tau. The
    certificate factors C = b - (tau_hi + 2 r) I with r = (m + 1) eps
    trace(b); when tau_hi <= r (tol = 0 among them) it cannot resolve the
    margin and is not tried. The computed upper factor R satisfies

        R'R = C + E_std + E_panel.

    E_std is the rounding of a Cholesky factorization: of the matmul
    updates C^_K = C_K - R_aK' R_a (inner dimension below m, then one
    subtraction), of the shift on the diagonal and of each diagonal block's
    `np.linalg.cholesky`. Taken against the results, |E_std| <=
    gamma_{m+3} |R|'|R| entrywise to first order (gamma_{m+2} with one
    block, which has no update). || |R|'|R| ||_2 <= ||R||_F^2 = trace(R'R)
    = trace(C + E_std) (E_panel has a zero diagonal) < trace(b) +
    m ||E_std||_2, so ||E_std||_2 <= (m + 3) u trace(b) / (1 - (m + 3) m u)
    <= r, u = eps / 2, for every m below 10^7.
    E_panel is what the explicit inverses of the diagonal blocks add to the
    panels of R, and `blocked_cholesky` bounds ||E_panel||_2 by its measured
    residual, `panel_error`; the certificate is refused unless that bound
    is at most r (with one block there are no panels and E_panel = 0). Then
    ||E_std + E_panel||_2 <= 2 r, and R is triangular with a positive
    diagonal, so C + E_std + E_panel is positive definite and
    lambda_min(b) > tau_hi + 2 r - 2 r = tau_hi.

    Up to CHOLESKY_BLOCK rows `b` is shifted in place for one
    `np.linalg.cholesky` and restored before returning; above, the blocked
    factorization reads `b` and writes its factor to a new array.
    """
    m = b.shape[0]
    if m == 0:
        return None
    margin = tol * float(np.linalg.norm(b))
    rounding = (m + 1) * EPS * float(b.trace())
    if not margin > rounding:
        return None
    shift = margin + 2.0 * rounding
    if m <= CHOLESKY_BLOCK:
        diagonal = b.reshape(-1)[::m + 1]
        saved = diagonal.copy()
        diagonal -= shift
        try:
            np.linalg.cholesky(b)
        except np.linalg.LinAlgError:
            return None
        finally:
            diagonal[:] = saved
        factor = None
    else:
        try:
            factor = blocked_cholesky(b, shift)
        except np.linalg.LinAlgError:
            return None
        if not factor.panel_error <= rounding:
            return None
    return StrictCertificate(margin=margin, form=b, rounding=rounding,
                             factor=factor)


def _certified_mass_zero(cert: StrictCertificate, x: np.ndarray) -> np.ndarray | None:
    """Q B^-1 Q' x for a certified B, or None when the refinement does not
    converge.

    Up to CHOLESKY_BLOCK rows this is one LU solve with B. Above, it is
    iterative refinement on the certificate's factor: y <- y + C^-1 (r - B y)
    with C = B - shift I multiplies the error by f = shift / (lambda -
    shift) along an eigenvector of eigenvalue lambda, so it contracts when
    lambda_min > 2 shift, and it stops when a correction no longer halves.
    It has converged only if its residual is within `rounding` times ||y||,
    where a backward-stable solve leaves it. One that stops with f >= 1/2
    along the smallest eigenvector has a residual of at least shift ||y|| >
    2 rounding ||y|| and is refused. That is a test of convergence the
    invariant solve's check in `qhm.msolver` cannot make: near the boundary
    lambda_min is a few shifts, so the same residual is within SOLVE_REL
    times ||B|| ||y||, while y is wrong by f^2 along that eigenvector.
    """
    b = cert.form
    r = _to_mass_zero(x)
    if cert.factor is None:
        return _from_mass_zero(np.linalg.solve(b, r))
    solve = cert.factor.solve
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
        witness = SignedMeasure(space, _from_mass_zero(vecs[:, 0]))
        return Classification(verdict=Verdict.NOT_QUASIHYPERMETRIC,
                              witness=witness, **evidence)

    kernel_idx = np.flatnonzero(np.abs(vals) <= tau)
    if kernel_idx.size:
        basis = tuple(SignedMeasure(space, _from_mass_zero(vecs[:, i]))
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


def kernel_flat_values(space: FiniteMetricSpace,
                       cls: Classification) -> list[KernelFlatValue]:
    """Constant potential values of the degenerate directions, and how far
    each potential deviates from its value.

    For f = Q y, y a unit eigenvector of B with eigenvalue lambda,
    D f - mean(D f) = -lambda f exactly, so the deviation is |lambda| *
    max|f|, within the verdict's band. The value is the coefficient that
    the invariant solve drops along f (`_pinv_mass_zero`).
    """
    if cls.verdict is not Verdict.NON_STRICT:
        raise NotApplicableError(
            f"kernel flat values require a NonStrict verdict, got {cls.verdict.value}")
    out = []
    for f in cls.kernel_basis:
        pot = potential(space, f)
        value = float(pot.mean())
        deviation = float(np.abs(pot - value).max())
        out.append(KernelFlatValue(vector=f, value=value, deviation=deviation))
    return out

"""Invariant measures and the energy supremum constant of a finite space.

The supremum M of the energy I(mu) over signed measures of total mass 1 is
decided in two steps: a non-quasihypermetric space has M infinite (the
spectral witness has positive energy); on a quasihypermetric space M is
finite exactly when some mass-1 measure w has constant potential, and then
M = c, that constant. With u = ones/n and B = -Q'DQ (Q an orthonormal
mass-zero basis), w = u + Q B+ Q' D u and c = mean(D w), where B+ skips the
degenerate directions f; what it skips, <Du, f> = mean(D f), is the
constant potential value of f.

Most finite spaces are Strict, and a Strict decision needs only a proof that
B is positive definite beyond the tolerance and B^-1 applied to one vector.
So `m_constant` and `invariant_measure` first try the Cholesky certificate
of `qhm.classify.certify_strict` and solve with its factor by iterative
refinement, or with a plain LU solve when B is small (diagnostics
"certificate": "cholesky", "margin": the certified lower bound tau_hi on
the eigenvalues of B). When the factorization fails, the refinement does
not converge (`_certified_inverse`) or its solve misses the check below,
they fall back to the full `eigh` classification of the same B
("certificate": "eigh", "margin": the smallest |eigenvalue|), which serves
the NonStrict and NotQuasihypermetric verdicts and their witnesses. One
check judges the measure w of either path: max|D w - c| within SOLVE_REL *
diameter * ||w||_1 and |sum(w) - 1| within SOLVE_REL * ||w||_1, a
backward error of SOLVE_REL on the scale of w itself, which grows like
1/gap near the Strict/NonStrict boundary. A certified solve that misses it
falls back to `eigh`; an `eigh` solve that misses it leaves no measure.
The same check decides NonStrict: M is finite when the solve passes, and
infinite (NonzeroFlatKernel) when it misses and the skipped values exceed
its residual bound in 2-norm. A w that is not finite passes neither
bound. Measures given to `glued_invariant`, `verify_maximal` and
`sequence_diagnostics` are held to the same bounds.

Below CHOLESKY_BLOCK rows the solve is one pass of a few small numpy calls:
Q' D u in closed form, one LU solve or one pseudo-inverse through the
eigenpairs, and u + Q y (`_invariant_solve`). A decision holds the weights
it found, of the maximal measure or of the witness, and makes the
SignedMeasure only when it is read (`MDecision`): a measure the package
computed is wrapped without the copy and the checks of one from outside.

An independent projected-ascent oracle cross-checks finite values and
detects divergence without touching the linear-algebra route: its iterates
are the steps of a linear recurrence, advanced a block at a time by
`qhm._kernels.ascent`.
"""

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._kernels import ascent, perron_upper_bound
from .classify import (
    StrictCertificate,
    Verdict,
    _certified_inverse,
    _classify_form,
    _degenerate,
    _from_mass_zero,
    _restricted_form,
    certify_strict,
    check_tol,
)
from .energy import (
    SignedMeasure,
    _check_mass,
    _mass_bound,
    _trusted_measure,
    energy,
    inner_extended,
    measure,
    potential,
)
from .errors import (
    ChainMismatchError,
    InconsistencyError,
    InvalidInputError,
    NotInvariantInputError,
    ValidationError,
)
from .spaces import (FiniteMetricSpace, GlueSpec, _count, _float_array,
                     _instance, _items, _real, _selection, diameter, glue)
from .tolerances import (
    BLOWUP_REL,
    DEFAULT_TOL,
    GRAD_TOL_REL,
    SOLVE_REL,
)


@dataclass(frozen=True, eq=False)
class InvariantSolve:
    """A mass-1 measure with constant potential, and how good the solve is.

    residual is the sup-norm deviation of the potential from the constant;
    unique is False when the classification found degenerate directions (the
    measure is then the minimum-euclidean-norm representative).
    """

    measure: SignedMeasure
    value: float
    residual: float
    unique: bool


@dataclass(frozen=True, eq=False)
class MDecision:
    """Finite/Infinite decision for the energy supremum constant.

    evidence holds the weights the decision found: of the maximal measure
    when finite, of the witness when infinite. The measure itself,
    `maximal_measure` or `witness` (None on the other status), is a
    read-only SignedMeasure on `space` around those weights, made on first
    read and then kept.
    """

    status: str  # "finite" | "infinite"
    space: FiniteMetricSpace
    evidence: np.ndarray
    value: float | None = None
    reason: str | None = None  # "NotQuasihypermetric" | "NonzeroFlatKernel"
    diagnostics: dict = field(default_factory=dict)

    @property
    def finite(self) -> bool:
        return self.status == "finite"

    @cached_property
    def maximal_measure(self) -> SignedMeasure | None:
        return _trusted_measure(self.space, self.evidence) if self.finite else None

    @cached_property
    def witness(self) -> SignedMeasure | None:
        return None if self.finite else _trusted_measure(self.space, self.evidence)


def _invariant_solve(space: FiniteMetricSpace, evidence,
                     diagnostics: dict) -> tuple[np.ndarray, float] | None:
    """(w, c) with w = u + Q B+ Q' D u, u = ones/n, and c = mean(D w), with
    B+ from the eigenpairs of a Classification or B^-1 from a
    StrictCertificate, or None when that solve fails or w fails the one
    acceptance check of an invariant solve: "flatness" = max|D w - c| within
    "residual_bound" = diameter * `qhm.energy._mass_bound(w)`, and
    "mass_error" = |sum(w) - 1| within "mass_bound" = `_mass_bound(w)`. A w
    that is not finite never passes. Those numbers, with "measure_l1" =
    ||w||_1, go into `diagnostics`, and "unique" with them when w is
    accepted. When B+ skips degenerate directions, the coefficients it
    drops, their constant potential values, go in as "kernel_flat_values".

    Q' D u, the solve and u + Q y are one pass in the closed forms of Q'
    and Q (`qhm.classify`), with Python floats for the scalars."""
    n = space.n
    u = np.full(n, 1.0 / n)
    x = space.dist @ u
    w, dropped = u, ()  # one point: the mass-zero subspace is {0}
    if n > 1:
        a = 1.0 / math.sqrt(n)
        r = x[1:] + (a / (1.0 - a)) * (float(x[0]) - a * float(x.sum()))
        if isinstance(evidence, StrictCertificate):
            y = _certified_inverse(evidence, r)
            if y is None:
                return None
        else:
            vals, vecs = evidence.restricted_values, evidence.restricted_vectors
            proj = vecs.T @ r
            skip = _degenerate(evidence)
            y = vecs @ np.divide(proj, vals, out=np.zeros_like(vals),
                                 where=~skip)
            dropped = proj[skip]
            if dropped.size:
                diagnostics["kernel_flat_values"] = dropped.tolist()
        w = u + _from_mass_zero(y)
    pot = space.dist @ w
    c = float(pot.sum()) / n
    l1 = float(np.abs(w).sum())
    bound = SOLVE_REL * l1  # _mass_bound(w)
    diagnostics.update(flatness=float(np.abs(pot - c).max()),
                       mass_error=abs(float(w.sum()) - 1.0), measure_l1=l1,
                       residual_bound=diameter(space) * bound, mass_bound=bound)
    if not (diagnostics["flatness"] <= diagnostics["residual_bound"]
            and diagnostics["mass_error"] <= bound):
        return None
    diagnostics["unique"] = len(dropped) == 0
    return w, c


def _certified_solve(space: FiniteMetricSpace, tol: float,
                     diagnostics: dict):
    """(B, solve): the restricted form and the invariant solve from its
    Strict certificate, None when Cholesky cannot give one or the solve
    misses its check. A certificate puts its verdict and margin, and then
    the solve's check, into `diagnostics`."""
    check_tol(tol)
    b = _restricted_form(_instance(space, FiniteMetricSpace, "space").dist)
    cert = certify_strict(b, tol)
    if cert is None:
        return b, None
    diagnostics.update(certificate="cholesky", margin=cert.margin,
                       classify_tol=cert.margin, verdict=Verdict.STRICT.value)
    return b, _invariant_solve(space, cert, diagnostics)


def invariant_measure(space: FiniteMetricSpace,
                      tol: float = DEFAULT_TOL) -> InvariantSolve | None:
    """Solve for a constant-potential mass-1 measure, on the certified
    Strict path when it succeeds and from the eigenpairs of the
    classification otherwise; None when no such measure exists or the
    solve misses its check."""
    diagnostics = {}
    b, solve = _certified_solve(space, tol, diagnostics)
    if solve is None:
        solve = _invariant_solve(space, _classify_form(space, b, tol),
                                 diagnostics)
    if solve is None:
        return None
    return InvariantSolve(_trusted_measure(space, solve[0]), solve[1],
                          diagnostics["flatness"], diagnostics["unique"])


def m_constant(space: FiniteMetricSpace,
               tol: float = DEFAULT_TOL) -> MDecision:
    """Decide whether the energy supremum constant is finite; compute it if so.

    Procedure: (a) a Cholesky certificate of a Strict verdict with an
    accepted invariant solve decides finite at once. Otherwise classify
    from the spectrum: (b) a NotQuasihypermetric verdict is Infinite with
    the spectral witness. (c) Otherwise an accepted invariant solve
    decides finite, on Strict and NonStrict alike. (d) A rejected solve on
    NonStrict is Infinite when the flat values it dropped along the
    degenerate directions exceed its "residual_bound" in 2-norm; the
    direction of largest |value| is the witness. Any other rejection
    raises InconsistencyError, whose diagnostics carry the check's numbers.
    The tolerance decides the verdict only, never finite versus infinite.
    The decision holds the weights of its measure; the SignedMeasure is
    built when it is read (see MDecision).

    diagnostics: "certificate" ("cholesky" or "eigh"), "verdict", "margin"
    (the certified lower bound tau_hi on the eigenvalues of B, or the
    smallest |eigenvalue|), "classify_tol" (the tolerance the verdict was
    tested against), the check's "flatness", "residual_bound",
    "mass_error", "mass_bound" and "measure_l1" (see `_invariant_solve`),
    "unique" on finite decisions, and on NonStrict "kernel_flat_values",
    with "flat_value" the witness's when Infinite.
    """
    diagnostics = {}
    b, solve = _certified_solve(space, tol, diagnostics)
    if solve is not None:  # (w, c): the evidence and the value
        return MDecision("finite", space, *solve, diagnostics=diagnostics)

    cls = _classify_form(space, b, tol)
    diagnostics = {"certificate": "eigh", "margin": cls.margin,
                   "classify_tol": cls.tol_used, "verdict": cls.verdict.value}

    if cls.verdict is Verdict.NOT_QUASIHYPERMETRIC:
        f = _from_mass_zero(cls.restricted_vectors[:, 0])
        diagnostics["witness_energy"] = float(f @ (space.dist @ f))
        return MDecision("infinite", space, f, reason="NotQuasihypermetric",
                         diagnostics=diagnostics)

    solve = _invariant_solve(space, cls, diagnostics)
    if solve is None:
        flats = diagnostics.get("kernel_flat_values", [])
        if math.hypot(*flats) > diagnostics["residual_bound"]:
            i = max(range(len(flats)), key=lambda k: abs(flats[k]))
            diagnostics["flat_value"] = flats[i]
            f = _from_mass_zero(
                cls.restricted_vectors[:, np.flatnonzero(_degenerate(cls))[i]])
            return MDecision("infinite", space, f, reason="NonzeroFlatKernel",
                             diagnostics=diagnostics)
        raise InconsistencyError(
            "the invariant solve on a space classified finite misses its "
            "check: flatness {flatness:.3e} against {residual_bound:.3e}, mass "
            "error {mass_error:.3e} against {mass_bound:.3e}".format_map(
                diagnostics), diagnostics=diagnostics)
    return MDecision("finite", space, *solve, diagnostics=diagnostics)


@dataclass(frozen=True)
class GluePrediction:
    """Closed-form prediction for the constant of a glued space."""

    kind: str  # "finite" | "infinite" | "boundary"
    value: float | None = None


def glued_m_predict(m_x: float, m_y: float, c: float) -> GluePrediction:
    """Predict the glued-space constant from component constants and c.

    2c > m_x + m_y gives a finite value (c^2 - m_x m_y)/(2c - m_x - m_y);
    2c < m_x + m_y means the glued space is not quasihypermetric (infinite).
    On the boundary 2c = m_x + m_y the constant stays finite (equal to the
    shared component value) only when m_x = m_y; otherwise a mass-zero
    measure with nonzero constant potential exists and the constant is
    infinite. The boundary is 2c = m_x + m_y within DEFAULT_TOL times
    max(m_x + m_y, 2c). That band is not `classify`'s; where the two
    disagree, `m_constant` decides (see `qhm.tolerances`).
    """
    m_x, m_y, c = (_real(v, f"{what} must be a finite real number",
                         InvalidInputError)
                   for v, what in ((m_x, "m_x"), (m_y, "m_y"), (c, "c")))
    if m_x < 0.0 or m_y < 0.0:
        raise InvalidInputError("component constants must be nonnegative")
    if c <= 0.0:
        raise InvalidInputError(f"cross-distance must be positive, got {c}")
    s = m_x + m_y
    gap = 2.0 * c - s
    eps = DEFAULT_TOL * max(s, 2.0 * c)
    if gap > eps:
        return GluePrediction(kind="finite", value=(c * c - m_x * m_y) / gap)
    if gap < -eps:
        return GluePrediction(kind="infinite")
    if abs(m_x - m_y) <= eps:
        return GluePrediction(kind="boundary", value=m_x)
    return GluePrediction(kind="infinite")


def glued_invariant(mu1: SignedMeasure, mu2: SignedMeasure, m_x: float,
                    m_y: float, c: float) -> SignedMeasure:
    """Combine component invariant measures into one on the glued space.

    Given mass-1 measures with constant potentials m_x, m_y on their spaces,
    the weighted concatenation (m_y - c) mu1 ++ (m_x - c) mu2 has constant
    potential m_x m_y - c^2 on the glued space and mass m_x + m_y - 2c. An
    input whose potential deviates from its constant by more than SOLVE_REL
    * diameter * ||mu||_1, the bound the invariant solve accepts, raises
    NotInvariantInputError; an m_x or m_y that is not a finite real number
    raises InvalidInputError.
    """
    m_x, m_y = (_real(v, f"{what} must be a finite real number",
                      InvalidInputError)
                for v, what in ((m_x, "m_x"), (m_y, "m_y")))
    for mu, m, what in ((mu1, m_x, "first"), (mu2, m_y, "second")):
        space = _instance(mu, SignedMeasure, f"{what} measure").space
        ft = diameter(space) * _mass_bound(mu.weights)
        dev = float(np.abs(potential(space, mu) - m).max())
        if dev > ft:
            raise NotInvariantInputError(
                f"{what} measure is not invariant with value {m} "
                f"(potential deviates by {dev} > {ft})")
    z = glue(GlueSpec(mu1.space, mu2.space, c))
    w = np.concatenate([(m_y - c) * mu1.weights, (m_x - c) * mu2.weights])
    return measure(z, w)


@dataclass(frozen=True, eq=False)
class AscentTrace:
    """Monotone-best trace of the projected gradient ascent.

    iterations and best_values are (iteration, best value so far) sampled
    every max(1, iterations // 256) iterations and at the exit iteration;
    best_measure is the iterate that reached best_value. status is
    "converged" (projected gradient below GRAD_TOL_REL times the diameter),
    "blowup" (best value crossed the divergence threshold), or "maxiter".
    """

    iterations: np.ndarray
    best_values: np.ndarray
    best_value: float
    best_measure: SignedMeasure
    status: str
    iterations_run: int

    @property
    def blown_up(self) -> bool:
        return self.status == "blowup"


# Below this many points `eigvalsh` of the distance matrix costs less than
# the about 40 matrix-vector products of the Perron root iteration.
PERRON_MIN_POINTS = 128


def ascent_step_default(space: FiniteMetricSpace) -> float:
    """Fixed ascent step 1/(2 r) with r >= rho(dist); guarantees monotone
    ascent for the concave restricted problem, no line search needed.

    rho is the Perron root of the nonnegative distance matrix. From
    PERRON_MIN_POINTS points on, r is its Collatz-Wielandt upper bound
    from `perron_upper_bound`, within about 1e-13 of rho; below, the full
    spectrum is cheaper."""
    if space.n == 1:
        return 1.0
    if space.n < PERRON_MIN_POINTS:
        rho = float(np.abs(np.linalg.eigvalsh(space.dist)).max())
    else:
        rho = perron_upper_bound(space.dist)
    return 1.0 / (2.0 * rho) if rho > 0 else 1.0


def ascent_oracle(space: FiniteMetricSpace, iterations: int = 100_000,
                  seed: int = 0, blowup: float | None = None) -> AscentTrace:
    """Projected gradient ascent on I(mu) over the mass-1 affine slice.

    Starts from the uniform measure plus a seeded mass-zero perturbation and
    iterates mu += s P(2 potential(mu)) with the step s of
    `ascent_step_default`, 1/(2 r) for r >= rho(dist). That step keeps the
    iteration an ascent; a longer one does not (twenty times it leaves
    `fixture("nw-thm2.9a")`, whose constant is infinite, at "maxiter" near
    1027 after 20,000 iterations). For quasihypermetric spaces with a
    finite constant the best value climbs to it (the restricted problem is
    concave) and the run stops once the projected gradient is below
    GRAD_TOL_REL (1e-10) times the diameter. When the constant is infinite
    the best value grows without bound, and the run stops once it passes
    `blowup`, by default BLOWUP_REL (1e6) times the diameter or the largest
    finite float, whichever is smaller; a one-point space has no scale and
    takes 1 and 1e-10. The trace records the best value every
    max(1, iterations // 256) iterations and at the exit.
    `iterations` must be an integer of at least 1 and `seed` one of at
    least 0 (both below 2^63); anything else raises InvalidInputError.

    The threshold can be set because the growth need not be fast. On a
    NonStrict space with a nonzero flat value (NonzeroFlatKernel) the best
    value grows only linearly: `fixture("nw-thm2.9")` ends at "maxiter"
    with a best value of 26.15 after 10^5 iterations, so a divergence test
    on such a space lowers `blowup` (or checks that the status is not
    "converged" and the best values never decrease). Purely iterative:
    shares nothing with the eigenpair solve, so it serves as an independent
    check.
    """
    _count(iterations, 1, "iteration", InvalidInputError)
    diam = diameter(space)
    if blowup is None:  # capped: past a diameter of 1.8e302 it overflows
        blowup = (min(BLOWUP_REL * diam, sys.float_info.max) if diam > 0.0
                  else 1.0)
    if _real(blowup, "blowup must be finite and > 0", InvalidInputError) <= 0.0:
        raise InvalidInputError(f"blowup must be finite and > 0, got {blowup!r}")
    n = space.n
    rng = np.random.default_rng(
        _count(seed, 0, "for the seed", InvalidInputError))
    z = rng.standard_normal(n)
    z -= z.mean()
    w0 = np.full(n, 1.0 / n) + 1e-3 * z

    rec_it, rec_val, best, best_w, status, last_it = ascent(
        space.dist, w0, iterations, ascent_step_default(space), blowup,
        GRAD_TOL_REL * diam if diam > 0.0 else GRAD_TOL_REL,
        max(1, iterations // 256))
    return AscentTrace(iterations=rec_it, best_values=rec_val,
                       best_value=best, best_measure=measure(space, best_w),
                       status=status, iterations_run=last_it)


@dataclass(frozen=True)
class MaximalityReport:
    """Evidence that a mass-1 measure attains the supremum.

    flatness: sup-norm deviation of its potential from m_value. dominance
    violations count seeded random mass-1 measures whose energy exceeds
    m_value beyond tolerance (must be 0 for a true maximizer); worst_excess
    is the largest such excess (negative when every trial stayed below).
    norm_squared comes from the extended inner product and must be 1.
    """

    flatness: float
    dominance_violations: int
    worst_excess: float
    norm_squared: float
    identity_gap: float
    trials: int


def verify_maximal(space: FiniteMetricSpace, mu: SignedMeasure, m_value: float,
                   trials: int = 1000, seed: int = 0,
                   tol: float = DEFAULT_TOL) -> MaximalityReport:
    """Check flatness, random dominance, and the norm identity for a
    candidate maximal measure, whose mass must be within SOLVE_REL *
    ||mu||_1 of 1. A trial's energy dominates m_value when it exceeds it by more
    than tol * diameter. `m_value` must be a finite real number, `trials`
    an integer of at least 1 and `seed` one of at least 0; anything else
    raises InvalidInputError."""
    check_tol(tol)
    m_value = _real(m_value, "m_value must be a finite real number",
                    InvalidInputError)
    _count(trials, 1, "trial", InvalidInputError)
    rng = np.random.default_rng(
        _count(seed, 0, "for the seed", InvalidInputError))
    flatness = float(np.abs(potential(space, mu) - m_value).max())
    _check_mass(mu.weights, 1.0, "candidate", InvalidInputError)
    n = space.n
    base = np.full(n, 1.0 / n)
    violations = 0
    worst = -math.inf
    margin = tol * diameter(space)
    for _ in range(trials):
        z = rng.standard_normal(n)
        z -= z.mean()
        nu = measure(space, base + z)
        excess = energy(space, nu) - m_value
        worst = max(worst, excess)
        if excess > margin:
            violations += 1
    norm_sq = inner_extended(space, m_value, mu, mu)
    return MaximalityReport(flatness=flatness, dominance_violations=violations,
                            worst_excess=worst, norm_squared=norm_sq,
                            identity_gap=abs(norm_sq - 1.0), trials=trials)


@dataclass(frozen=True)
class SequenceRow:
    """One chain element of a refinement diagnostic table."""

    k: int
    n_k: int
    i_mu: float
    flatness: float
    seminorm_step: float | None


def sequence_diagnostics(full_space: FiniteMetricSpace, index_chain,
                         measures) -> list[SequenceRow]:
    """Trend table for mass-1 measures on a nested chain of subspaces.

    index_chain[k] lists the integer indices of the points of the k-th
    subspace inside `full_space` (each list must be contained in the next);
    measures[k] is the measure on that subspace, given as a SignedMeasure
    or raw weights, of mass 1 within SOLVE_REL times its total variation.
    Each measure is extended by zeros to the full space; the table reports
    its energy, the sup-inf spread of its potential over all full-space
    points, and the seminorm sqrt(max(0, -I)) of the step from the previous
    chain element, whose mass is 0 within the sum of the two ends' bounds.
    Each index list is checked as `subspace` checks one (`_selection`). A
    chain that breaks these rules, an index that is not an integer
    included, raises ChainMismatchError; raw weights that are not real
    numbers raise MalformedMatrixError. The caller asserts
    monotonicity or boundedness; no rates are claimed. `run_converge`
    reports these columns on its rows.
    """
    chains = _items(index_chain, "need a chain", ChainMismatchError)
    measures = _items(measures, "need a measure sequence", ChainMismatchError)
    if len(chains) != len(measures):
        raise ChainMismatchError(
            f"{len(chains)} index lists but {len(measures)} measures")
    if not chains:
        raise ChainMismatchError("empty chain")
    n = _instance(full_space, FiniteMetricSpace, "full_space").n
    prev: set | None = None
    extended = []
    for k, (ix, mu) in enumerate(zip(chains, measures)):
        try:
            ix = chains[k] = _selection(ix, n)
        except ValidationError as exc:
            raise ChainMismatchError(f"chain element {k}: {exc}") from exc
        s = set(ix)
        if prev is not None and not prev.issubset(s):
            raise ChainMismatchError(
                f"chain element {k} does not contain element {k - 1}")
        prev = s
        w = (mu.weights if isinstance(mu, SignedMeasure)
             else _float_array(mu, "weight"))
        if w.shape != (len(ix),):
            raise ChainMismatchError(
                f"measure {k} has {w.shape} weights for {len(ix)} points")
        _check_mass(w, 1.0, f"measure {k}", ChainMismatchError)
        full = np.zeros(n)
        full[np.asarray(ix, dtype=np.intp)] = w
        extended.append(measure(full_space, full))

    rows = []
    for k, mu in enumerate(extended):
        pot = potential(full_space, mu)
        step = None
        if k > 0:
            dmu = measure(full_space, mu.weights - extended[k - 1].weights)
            step = float(np.sqrt(max(0.0, -energy(full_space, dmu))))
        rows.append(SequenceRow(k=k, n_k=len(chains[k]),
                                i_mu=energy(full_space, mu),
                                flatness=float(pot.max() - pot.min()),
                                seminorm_step=step))
    return rows

"""Every default tolerance of qhm, and what each one is relative to.

The energy supremum is homogeneous: scaling every distance by lambda > 0
scales M by lambda and leaves the verdict and the maximizing measure as
they are. So no threshold here is absolute. Each one is a pure number
times a quantity of the space itself:

- rho(B), the spectral radius of the restricted form B = -Q'DQ, for the
  spectral verdict, and ||B||_F >= rho(B) for its Cholesky certificate;
- the diameter, for potentials, residuals, energies and the ascent;
- the total variation ||mu||_1 of a measure, for its mass. Mass has no
  unit, but the rounding of sum(mu) grows with the size of its terms, and
  scaling the weights by t scales ||mu||_1 by t.

No rescaling pass is needed to make the decisions scale-free. For points
i != j the mass-zero vector x = (e_i - e_j)/sqrt(2) has unit norm and
energy -d(i, j), so ||B||_F >= rho(B) >= diameter. A floor of 1 under any of
these scales could only act on spaces of diameter below 1, and there it
turned a relative threshold into an absolute one. A one-point space has
diameter 0 and no scale; its decisions meet only exact zeros, and the
ascent oracle keeps absolute defaults for it.

The spectral band decides the verdict only. On a Strict or NonStrict
verdict, finite versus infinite is the invariant solve's check (SOLVE_REL
below). No band judges how flat a degenerate direction is: along an
eigenvector of eigenvalue lambda its potential varies by exactly |lambda|
times the vector, which the verdict's band already bounds.

Two different bands mark the Strict/NonStrict boundary of a glued space.
Glue X and Y, with constants m_x, m_y and maximizers w_x, w_y, at
cross-distance c, and let g = 2c - (m_x + m_y). `glued_m_predict` calls
the gap g zero within DEFAULT_TOL * max(m_x + m_y, 2c); `classify` calls
an eigenvalue of B zero within DEFAULT_TOL * rho(B). They meet through
nu = w_x - w_y, which has mass zero and -I(nu) = g, so lambda_min(B) <=
g / ||nu||_2^2 and `classify` can say Strict only when g > DEFAULT_TOL *
rho(B) * ||nu||_2^2. In units of the gap, its band is rho(B) ||nu||_2^2 /
max(m_x + m_y, 2c) times the predictor's, a factor of the space that may
be above or below 1. Where the two disagree, the decision of `m_constant`
wins; the predictor is a closed form to check decisions against.
"""

# Spectral verdict: an eigenvalue of B within DEFAULT_TOL * rho(B) of zero
# is degenerate. The Strict certificate proves every eigenvalue exceeds
# DEFAULT_TOL * ||B||_F, and the glue boundary is DEFAULT_TOL * max(s, 2c).
DEFAULT_TOL = 1e-9

# The one mass rule of the package: a measure mu has mass m when
# |sum(mu) - m| <= SOLVE_REL * ||mu||_1 (`qhm.energy._mass_bound`). It holds
# for every measure: the mass-zero arguments of `seminorm_zero` and
# `inner_zero` and the mass-1 measures of the invariant solve,
# `verify_maximal` and `sequence_diagnostics`. The invariant solve's measure w is accepted when,
# besides, its potential is within SOLVE_REL * diameter * ||w||_1 of its
# constant: a backward error of SOLVE_REL, scaled like the rounding of D w
# and of sum(w), which grow with ||w||_1 (about 1/gap near the
# Strict/NonStrict boundary). The spectral tolerance plays no part. This
# check alone decides finite versus infinite on Strict and NonStrict, and
# `glued_invariant` holds its inputs' potentials to the same bound. A
# seminorm radicand -I(mu) below -SOLVE_REL * diameter * ||mu||_1^2 is
# negative beyond roundoff (|I(mu)| <= diameter * ||mu||_1^2, the potential
# bound times ||mu||_1): mu is a direction of positive energy, which has no
# seminorm, and `seminorm_zero` raises NotApplicableError.
SOLVE_REL = 1e-9

# The ascent oracle stops converged when every projected gradient entry is
# below GRAD_TOL_REL * diameter, and reports blowup when its best value
# reaches BLOWUP_REL * diameter.
GRAD_TOL_REL = 1e-10
BLOWUP_REL = 1e6

# Triangle and symmetry defects of an untrusted matrix are forgiven up to
# TRIANGLE_TOL_REL times its largest entry. This is the only triangle and
# symmetry tolerance: `validate_metric`, the space JSON readers and a direct
# FiniteMetricSpace construction all use it, and none takes another.
TRIANGLE_TOL_REL = 1e-9

# Two cloud points closer than DUPLICATE_POINT_REL times the largest
# distance coincide.
DUPLICATE_POINT_REL = 1e-12

# The Perron root iteration stops when its Collatz-Wielandt bracket is
# narrower than PERRON_RTOL times its upper end.
PERRON_RTOL = 1e-13

# Experiments: a solved glued constant matches the closed form to
# GLUE_DIVERGE_PREDICTION_RTOL relative, and the equal-glue demo's glued
# constant matches the component constant m to EQUAL_GLUE_RTOL * m.
GLUE_DIVERGE_PREDICTION_RTOL = 1e-6
EQUAL_GLUE_RTOL = 1e-9

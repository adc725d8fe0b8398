"""Exception types raised across the package.

Validation errors signal bad inputs (exit code 2 in the CLI); solver errors
signal numerical breakdown, such as an eigensolver failure or an invariant
solve the theory rules out (exit code 3).
"""


class QhmError(Exception):
    """Base class for all package errors."""


class ValidationError(QhmError):
    """Base class for input and construction errors."""


# -- matrix validation ------------------------------------------------------

class NonSquareError(ValidationError):
    pass


class AsymmetryExceedsToleranceError(ValidationError):
    pass


class NegativeEntryError(ValidationError):
    pass


class NonzeroDiagonalError(ValidationError):
    pass


class MalformedMatrixError(ValidationError):
    """Rows of unequal length, or entries that are not real numbers."""


class TriangleViolationError(ValidationError):
    """Triangle inequality violated; carries the worst offending triple."""

    def __init__(self, msg, triple=None, deficit=None):
        super().__init__(msg)
        self.triple = triple
        self.deficit = deficit


# -- selection / builders ---------------------------------------------------

class EmptySelectionError(ValidationError):
    pass


class IndexOutOfRangeError(ValidationError):
    pass


class DuplicateIndexError(ValidationError):
    pass


class CrossDistanceTooSmallError(ValidationError):
    pass


class DegenerateIntervalError(ValidationError):
    pass


class TooFewPointsError(ValidationError):
    pass


class DuplicatePointError(ValidationError):
    pass


# -- measures ---------------------------------------------------------------

class SpaceMismatchError(ValidationError):
    pass


class NonzeroMassError(ValidationError):
    pass


# -- classification / solving ----------------------------------------------

class NotApplicableError(ValidationError):
    pass


class NotInvariantInputError(ValidationError):
    pass


class ChainMismatchError(ValidationError):
    pass


class InvalidInputError(ValidationError):
    pass


class UnknownFixtureError(ValidationError):
    pass


class ParseError(ValidationError):
    pass


class SolverError(QhmError):
    """Base class for numerical-failure errors."""


class EigendecompositionFailure(SolverError):
    pass


class InconsistencyError(SolverError):
    """A result the theory rules out: on a space the classification declares
    finite, no invariant solve passes its check."""

    def __init__(self, msg, diagnostics=None):
        super().__init__(msg)
        self.diagnostics = diagnostics or {}


class PredictionMismatchError(SolverError):
    pass

"""Exception types shared across the package.

Every precondition failure raises a named exception so callers (and the CLI)
can distinguish bad input (exit 2), search guards (exit 3), and internal
verification failures (exit 1, always a bug).
"""


class PerfbaseError(Exception):
    """Base class for all package errors."""


# --- field construction / arithmetic ---------------------------------------

class NotPrime(PerfbaseError):
    pass


class NotIrreducible(PerfbaseError):
    pass


class DegreeMismatch(PerfbaseError):
    pass


class NotASubfield(PerfbaseError):
    pass


class FieldMismatch(PerfbaseError):
    pass


# --- linear algebra ----------------------------------------------------------

class ShapeMismatch(PerfbaseError):
    pass


class Singular(PerfbaseError):
    pass


# --- constructions -----------------------------------------------------------

class ZeroGamma(PerfbaseError):
    pass


class SingularM(PerfbaseError):
    pass


class FieldTooSmall(PerfbaseError):
    pass


class BadGammaSet(PerfbaseError):
    pass


class UnsupportedCofactorDegree(PerfbaseError):
    pass


class RepeatedRoot(PerfbaseError):
    pass


class BadN(PerfbaseError):
    pass


class CaseNotCovered(PerfbaseError):
    pass


class CharTwo(PerfbaseError):
    pass


# --- codes -------------------------------------------------------------------

class BadEta(PerfbaseError):
    pass


class NotCoprime(PerfbaseError):
    pass


class DependentBasis(PerfbaseError):
    pass


class InvalidWitness(PerfbaseError):
    pass


class NotABase(PerfbaseError):
    pass


class BadSubset(PerfbaseError):
    pass


class ParametersOutOfRange(PerfbaseError):
    pass


# --- search / verification ----------------------------------------------------

class GuardExceeded(PerfbaseError):
    """A scan or subset search would exceed its work guard.

    `progress`, when the search reports it, says how far the run got, for
    example `{"phase": "oracle", "R": 5, "tests_used": 100}`.
    """

    def __init__(self, message, progress=None):
        super().__init__(message)
        self.progress = progress


class InternalVerificationError(PerfbaseError):
    """A constructor produced output that failed its own verification.

    Raised only on bugs: every constructor self-checks before returning.
    """

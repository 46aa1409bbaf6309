"""Exception types shared across the package.

Everything raised on purpose derives from :class:`CertBayesError`, so callers
can catch one type at the CLI boundary and map it to an exit code.
"""


class CertBayesError(Exception):
    """Base class for all errors raised by this package."""


# --- linear algebra ---------------------------------------------------------

class NotPositiveDefinite(CertBayesError):
    """A matrix required to be symmetric positive definite is not."""


class DimensionMismatch(CertBayesError):
    """Array shapes are inconsistent with each other."""


# --- validation of inputs ---------------------------------------------------

class NonFiniteEntry(CertBayesError):
    """An input array contains NaN or infinity."""


class Empty(CertBayesError):
    """A dataset or array has no rows (or no columns)."""


class DomainViolation(CertBayesError):
    """A log-normalizer or divergence was evaluated outside its domain."""


# --- certificates -----------------------------------------------------------

class CgfRangeViolation(CertBayesError):
    """A sub-gamma scale c is not below 1, so the CGF bound does not exist."""


class PreconditionViolated(CertBayesError):
    """A certificate hypothesis fails; no bound is emitted."""

    def __init__(self, message, diagnostics=()):
        super().__init__(message)
        self.diagnostics = tuple(diagnostics)


class BudgetMismatch(CertBayesError):
    """An operation requires matched train/test perturbation budgets."""


# --- sampling ---------------------------------------------------------------

class DivergentTrajectory(CertBayesError):
    """Repeated leapfrog energy blow-ups; the sampler cannot proceed."""


class NonFiniteDensity(CertBayesError):
    """The target log density is not finite where it must be evaluated."""


# --- data ingestion ---------------------------------------------------------

class ParseError(CertBayesError):
    """A CSV cell failed to parse; carries 1-based row/column location."""

    def __init__(self, message, row=None, column=None):
        super().__init__(message)
        self.row = row
        self.column = column


class NonNumericColumn(CertBayesError):
    """An entire CSV column is non-numeric."""


class MissingTarget(CertBayesError):
    """The requested target column does not exist."""


class ZeroVarianceColumn(CertBayesError):
    """A training column is constant and cannot be standardized."""


class TooFewRows(CertBayesError):
    """Not enough rows for the requested operation (e.g. splitting)."""

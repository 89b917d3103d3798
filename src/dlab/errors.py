"""Shared exception types."""


class DLabError(Exception):
    """Base class for all package errors."""


class DomainMismatchError(DLabError):
    """Operation received a field in the wrong domain (physical vs frequency)."""


class InvalidExponentError(DLabError):
    """Lebesgue exponent outside the valid range."""


class BandUnresolvedError(DLabError):
    """Dyadic band outside the range resolved by the grid."""


class NotRealError(DLabError):
    """Real-valued input required."""


class DegenerateDataError(DLabError):
    """Input data carries no usable content (e.g. empty active set)."""


class FitRangeError(DLabError):
    """Requested fit range is not statistically populated."""


class RegimeViolationError(DLabError):
    """Run parameters outside the regime a statement requires (and not flagged exploratory)."""


class BlowupDetected(DLabError):
    """Time integration hit the blowup guard.

    Carries the step index, the partial trajectory up to the last good frame
    and the max norm that tripped the guard (inf or nan when non-finite).
    """

    def __init__(self, step: int, trajectory=None, peak: float = float("nan")):
        super().__init__(f"blowup detected at step {step}")
        self.step = step
        self.trajectory = trajectory
        self.peak = peak


class NoContractionError(DLabError):
    """Picard iteration diverged (contraction ratio above 1 repeatedly)."""

    def __init__(self, message: str, record=None):
        super().__init__(message)
        self.record = record


class ConfigError(DLabError):
    """Invalid experiment configuration; carries every violated constraint."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class SnapshotFormatError(DLabError):
    """Binary snapshot failed validation."""


class MemoryBudgetError(DLabError):
    """A computation would hold more memory than its budget allows."""


class FlagError(DLabError, ValueError):
    """Malformed command-line flag value (``--grid``, ``--band``)."""


class ParameterRangeError(DLabError, ValueError):
    """A parameter of the right type outside the domain of the function it reaches."""

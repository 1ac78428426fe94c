"""Exception types shared across the package."""


class WristbandError(Exception):
    """Base class for all package-specific errors."""


class DomainError(WristbandError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ContractViolation(WristbandError, ValueError):
    """Inputs violate a structural precondition (shape, finiteness, config)."""


class CalibrationError(WristbandError, RuntimeError):
    """Null calibration produced unusable statistics (e.g. zero variance)."""


class UnsupportedDimension(WristbandError, ValueError):
    """The requested embedding dimension is outside the supported range."""


class FormatError(WristbandError, ValueError):
    """A serialized file is malformed (bad magic, version, or truncation)."""


class OptimizationFailure(WristbandError, RuntimeError):
    """The optimization loop produced a non-finite loss.

    Carries the step index at which the failure was detected.
    """

    def __init__(self, message: str, step: int):
        super().__init__(message)
        self.step = step

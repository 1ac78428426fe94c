"""Exception types shared across the package, and the one check of a caller's numbers.

Each class names where a refusal comes from, not which module made it:
a bad argument is a `ContractViolation` (a wrong shape, type, dimension,
domain or name), a malformed file from outside the program is a
`FormatError`, and a diverged run is an `OptimizationFailure`.  All three
are `WristbandError`s.

Every entry point that takes a count, a seed or a real reads it through
`_integer` or `_real`: a boolean or a value of another type is refused,
never truncated or parsed, and an accepted value comes back as a Python
int or float.
"""

import math
import numbers

__all__ = ["WristbandError", "ContractViolation", "FormatError", "OptimizationFailure"]


class WristbandError(Exception):
    """Base class for all package-specific errors."""


class ContractViolation(WristbandError, ValueError):
    """An argument breaks a rule of the call; the message names the rule."""


class FormatError(WristbandError, ValueError):
    """A serialized file is malformed (bad magic, version, or truncation)."""


class OptimizationFailure(WristbandError, RuntimeError):
    """The optimization loop produced a non-finite loss.

    Carries the step index at which the failure was detected.
    """

    def __init__(self, message: str, step: int):
        super().__init__(message)
        self.step = step


def _integer(name: str, value, minimum: int | None = None) -> int:
    """`value` as a Python int, if it is an integer (not a boolean) >= `minimum`; else a
    `ContractViolation`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ContractViolation(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ContractViolation(f"{name} must be >= {minimum}, got {value!r}")
    return int(value)


def _real(name: str, value, minimum: float | None = None, strict: bool = False) -> float:
    """`value` as a Python float, if it is a real (not a boolean) that is finite as a float
    and >= `minimum` (> with `strict`); else a `ContractViolation`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ContractViolation(f"{name} must be a real number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an integer or fraction beyond the range of a double
        x = math.inf
    if not math.isfinite(x) or (minimum is not None and (x < minimum or strict and x == minimum)):
        bound = "" if minimum is None else f" {'>' if strict else '>='} {minimum}"
        raise ContractViolation(f"{name} must be a finite real{bound}, got {value!r}")
    return x

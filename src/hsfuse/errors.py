"""Exception types shared across the package, and its rule for scalar arguments.

The CLI maps these onto process exit codes: validation problems exit with 2,
file-format and OS-level I/O problems with 3, numerical failures with 4.
Public entry points check each integer argument with ``check_int``, each
(row, column) offset with ``check_pair`` and each positive (or non-negative)
real one with ``check_real``, once; the code they call trusts the result.
"""

import math
import operator

__all__ = [
    "ValidationError",
    "SymmetryViolationError",
    "UnsupportedStructureError",
    "CubeFormatError",
    "BadMagicError",
    "TruncatedPayloadError",
    "UnknownDtypeError",
    "check_int",
    "check_pair",
    "check_real",
]


class ValidationError(ValueError):
    """Caller supplied inconsistent shapes, parameters, or options."""


class SymmetryViolationError(ArithmeticError):
    """An inverse transform expected conjugate-symmetric input and did not get it.

    This signals an upstream bug (a spectrum was edited in a way that cannot
    come from a real image), not bad user input.
    """


class UnsupportedStructureError(RuntimeError):
    """A fast solver's structural preconditions do not hold for this system."""


class CubeFormatError(Exception):
    """An on-disk file violates its format (cube container or SRF table)."""


class BadMagicError(CubeFormatError):
    """File does not start with the cube container magic."""


class TruncatedPayloadError(CubeFormatError):
    """Payload is shorter than the header promises."""


class UnknownDtypeError(CubeFormatError):
    """Header names a dtype the reader does not support."""


def check_int(name: str, value, minimum: int) -> int:
    """``value`` as an ``int``: an integer (not an integral float) of at least ``minimum``."""
    try:
        number = operator.index(value)
    except TypeError:
        raise ValidationError(f"{name} must be an integer, got {value!r}") from None
    if number < minimum:
        raise ValidationError(f"{name} must be at least {minimum}, got {value!r}")
    return number


def check_pair(name: str, value) -> tuple[int, int]:
    """``value`` as a (row, column) offset: a tuple of two ``int``s, each at least 0.

    Anything that does not unpack into two integers, a ragged pair such as
    ``(0, (1,))`` included, is refused.
    """
    try:
        row, col = value
    except (TypeError, ValueError):
        raise ValidationError(f"{name} must be a (row, column) pair, got {value!r}") from None
    return check_int(name, row, 0), check_int(name, col, 0)


def check_real(name: str, value, allow_zero: bool = False) -> float:
    """``value`` as a ``float``: finite and positive, or non-negative with ``allow_zero``.

    A value that is not a real number (text, None, complex, a sequence) is
    refused like one out of range; a 0-d array or a bool counts as its value.
    """
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        finite = False
    except TypeError:
        raise ValidationError(f"{name} must be a real number, got {value!r}") from None
    if not (finite and (value >= 0 if allow_zero else value > 0)):
        kind = "non-negative" if allow_zero else "positive"
        raise ValidationError(f"{name} must be finite and {kind}, got {value!r}")
    return float(value)

"""Exception types shared across the package, and the scalar readers that raise one."""

import numpy as np


class SpikesimError(Exception):
    """Base class for package-specific failures."""


class ValidationError(SpikesimError, ValueError):
    """Invalid configuration, spec, or argument combination."""


class SingularShiftError(SpikesimError):
    """Resolvent solve refused: zI - W is not positive definite, or the residual
    check failed (a shift inside spec(W) or too close to it, or a W that is not
    Hermitian)."""


class BracketError(SpikesimError):
    """Root bracket does not contain a sign change (no outlier in the bracket)."""


def checked_int(value, name: str, least: int | None = None) -> int:
    """``value`` as an int, >= ``least`` when one is given.  An int, a numpy
    integer or an integral float (400.0) is taken; a bool, inf, nan, a fraction
    or any other type is refused with a ValidationError that names ``name``."""
    whole = (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
             or isinstance(value, (float, np.floating)) and float(value).is_integer())
    if not whole or least is not None and value < least:
        bound = "" if least is None else f" >= {least}"
        raise ValidationError(f"{name} must be an integer{bound}, got {value!r}")
    return int(value)


def checked_real(value, name: str) -> float:
    """``value`` as a float.  An int, a float or a numpy real is taken; a bool,
    a str or any other type is refused with a ValidationError that names
    ``name``.  Finiteness and sign are the caller's domain to check."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValidationError(f"{name} must be a real number, got {value!r}")
    return float(value)

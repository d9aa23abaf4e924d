"""Exception types shared across the package, and the size check that raises one."""

import numpy as np


class SpikesimError(Exception):
    """Base class for package-specific failures."""


class ValidationError(SpikesimError, ValueError):
    """Invalid configuration, spec, or argument combination."""


class SingularShiftError(SpikesimError):
    """Linear solve at a shift too close to the spectrum (residual check failed)."""


class BracketError(SpikesimError):
    """Root bracket does not contain a sign change (no outlier in the bracket)."""


def checked_int(value, name: str, least: int) -> int:
    """``value`` as an int >= ``least``.  An int, a numpy integer or an
    integral float (400.0) is taken; a bool, inf, nan, a fraction or any other
    type is refused with a ValidationError that names ``name``."""
    whole = (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
             or isinstance(value, (float, np.floating)) and float(value).is_integer())
    if not whole or value < least:
        raise ValidationError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)

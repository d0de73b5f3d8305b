"""Exception hierarchy shared by all scpoly modules.

Three families, mirroring the CLI exit codes: input validation (exit 2),
numerical evaluation failures (exit 3), and solver non-convergence (exit 4).
The checked conversions at the end hold the one rule for the numbers that
scpoly takes.
"""

import cmath
import numbers
from itertools import repeat

import numpy as np


class ScpolyError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(ScpolyError, ValueError):
    """Bad input data or parameters (CLI exit code 2)."""


class NumericalError(ScpolyError, ArithmeticError):
    """A numerical procedure failed to deliver its contract (CLI exit code 3)."""


# -- validation family -------------------------------------------------------

class DegenerateSide(ValidationError):
    """Two cyclically consecutive vertices coincide."""


class PointOnCurve(ValidationError):
    """Query point lies on (or numerically too close to) the polygon trace."""


class InvalidExponent(ValidationError):
    """Quadrature or angle exponent outside its admissible range."""


class NotNormalized(ValidationError):
    """Prevertices do not start with the required pair (-1, 0)."""


class NotIncreasing(ValidationError):
    """Prevertices are not strictly increasing."""


class NotImmersedInput(ValidationError):
    """Polygon fails the necessary immersion conditions (a)/(b)."""


class OnBoundary(ValidationError):
    """Exponent vector sits on (or outside) the open angle polytope."""


class ZeroScale(ValidationError):
    """Similarity or affine fit with scale factor zero."""


# -- numerical family --------------------------------------------------------

class NoConvergence(NumericalError):
    """Refinement or iteration stalled before reaching tolerance."""


class AngleMismatch(NumericalError):
    """Forward-map verification found angles off their prescribed values."""


# -- numbers -----------------------------------------------------------------
#
# The rule: a Python or NumPy number, or a 0-d array of numbers, is a
# number; a bool, np.bool_, str, bytes or None is not. Where an integer is
# due, only an integer is one; where a real is due, a complex number is
# not one, whatever its imaginary part.

# Each type due, and its number ABC.
_TYPES = {int: (int, numbers.Integral), float: (float, numbers.Real),
          complex: (complex, numbers.Complex)}


def is_number(value, kind: type) -> bool:
    """Whether ``value`` is a number of ``kind`` (int, float or complex)
    by the rule, infinite or NaN ones included."""
    # The types first spare the common cases an ABC test. NumPy's numbers
    # are registered with the ABCs, np.bool_ is not; bool is an int.
    return (type(value) is kind
            or (isinstance(value, _TYPES[kind]) and not isinstance(value, bool))
            or (isinstance(value, np.ndarray) and not value.ndim
                and is_number(value[()], kind)))


def check_int(value, what: str, least: int) -> int:
    """``value`` as an int; ValidationError unless it is an integer by the
    rule (an integral float is not one) of at least ``least``."""
    if not is_number(value, int) or value < least:
        raise ValidationError(
            f"{what} must be an integer >= {least}, got {value!r}")
    return int(value)


def check_number(value, kind: type, what: str, error=ValidationError):
    """``value`` as a ``kind`` (float or complex), infinite or NaN ones
    included; ``error`` naming ``what`` unless it is such a number by the
    rule. An integer beyond floats converts to an infinity."""
    # A float or complex, NumPy's included, needs no ABC test.
    if not (isinstance(value, kind) or is_number(value, kind)):
        noun = "real" if kind is float else "complex"
        raise error(f"{what}: {value!r} is not a {noun} number")
    try:
        return kind(value)
    except OverflowError:
        return kind(np.inf if value > 0 else -np.inf)


def check_numbers(values, kind: type, what: str, error=ValidationError
                  ) -> tuple:
    """check_number of each of ``values``, in order, as a tuple."""
    values = tuple(values)
    if all(map(isinstance, values, repeat(kind))):
        return tuple(map(kind, values))
    return tuple(check_number(v, kind, what, error) for v in values)


def check_finites(values, kind: type, what: str, error=ValidationError
                  ) -> tuple:
    """check_numbers, and ``error`` "{what} must be finite" if a value is
    infinite or NaN."""
    values = check_numbers(values, kind, what, error)
    if not all(map(cmath.isfinite, values)):
        raise error(f"{what} must be finite")
    return values


def check_finite(value, kind: type, what: str, error=ValidationError):
    """check_number, and ``error`` "{what} must be finite" for an infinite
    or NaN value."""
    value = check_number(value, kind, what, error)
    if not cmath.isfinite(value):
        raise error(f"{what} must be finite")
    return value

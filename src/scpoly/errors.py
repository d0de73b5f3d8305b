"""Exception hierarchy shared by all scpoly modules.

Three families, mirroring the CLI exit codes: input validation (exit 2),
numerical evaluation failures (exit 3), and solver non-convergence (exit 4).
"""

import numbers


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


# -- checks ------------------------------------------------------------------

def check_int(value, what: str, least: int) -> None:
    """Raise ValidationError unless value is an integer, Python's or
    NumPy's (a bool or an integral float is not), of at least ``least``."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < least):
        raise ValidationError(
            f"{what} must be an integer >= {least}, got {value!r}")

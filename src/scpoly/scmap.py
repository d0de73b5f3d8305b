"""The half-plane-to-polygon map as a value, and its forward evaluation.

A map is determined by n - 1 increasing real prevertices (the n-th lives at
infinity), n exponents alpha_j summing to n - 2, and affine constants A, B.
Its evaluation at z integrates prod_j (zeta - z_j)^(alpha_j - 1) from the
base point i to z, scales by A and shifts by B. Restricted to the real line
plus infinity it traces a closed polygon whose vertex angles are alpha_j*pi;
``forward`` computes that polygon for the normalized constants A=1, B=0 and
verifies the angles as a built-in postcondition.

Standard maps keep every alpha_j inside (0, 2) and always produce immersed
polygons. Exponents >= 2 are legal only behind the explicit extended flag
and void the immersion guarantee; ``forward_extended`` evaluates those.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (AngleMismatch, DegenerateSide, InvalidExponent,
                     NotIncreasing, NotNormalized, NumericalError,
                     ValidationError, ZeroScale)
from .geometry import (TWO_PI, LabelledPolygon, check_immersion_necessary,
                       interior_angles)
from .quadrature import (DEFAULT_TOL, check_tol, integrate_sc,
                         integrate_to_infinity)

BASE_POINT = 1j
INFINITY = complex(math.inf, 0.0)

# Exponent sums are checked to this absolute slack.
_SUM_TOL = 1e-12
# Leg quadrature is never asked for more than this (near machine precision).
_QUAD_TOL_FLOOR = 1e-14


@dataclass(frozen=True)
class ExponentVector:
    """The n vertex exponents; interior angles are these times pi."""

    alphas: tuple[float, ...]
    extended: bool = False

    def __post_init__(self):
        vals = tuple(float(a) for a in self.alphas)
        n = len(vals)
        if n < 3:
            raise ValidationError(f"need at least 3 exponents, got {n}")
        for j, a in enumerate(vals):
            if not math.isfinite(a) or a <= 0.0:
                raise InvalidExponent(f"alpha_{j + 1} = {a} must be positive")
            if not self.extended and a >= 2.0:
                raise InvalidExponent(
                    f"alpha_{j + 1} = {a} needs the extended flag (>= 2)")
        total = math.fsum(vals)
        if abs(total - (n - 2)) > _SUM_TOL:
            raise InvalidExponent(
                f"exponents must sum to n - 2 = {n - 2}, got {total!r}")
        object.__setattr__(self, "alphas", vals)

    @property
    def n(self) -> int:
        return len(self.alphas)


@dataclass(frozen=True)
class Prevertices:
    """Finite prevertices z_1 < ... < z_{n-1}; the last vertex pulls back
    to infinity. Normalized so z_1 = -1 and z_2 = 0 exactly."""

    finite_points: tuple[float, ...]

    def __post_init__(self):
        pts = tuple(float(z) for z in self.finite_points)
        if len(pts) < 2:
            raise ValidationError("need at least 2 finite prevertices")
        for z in pts:
            if not math.isfinite(z):
                raise ValidationError("prevertices must be finite")
        for a, b in zip(pts, pts[1:]):
            if not a < b:
                raise NotIncreasing(f"prevertices must increase: {a} !< {b}")
        if pts[0] != -1.0 or pts[1] != 0.0:
            raise NotNormalized(
                f"normalization requires z_1 = -1, z_2 = 0; got {pts[:2]}")
        object.__setattr__(self, "finite_points", pts)

    @property
    def n(self) -> int:
        return len(self.finite_points) + 1


@dataclass(frozen=True)
class SCMap:
    prevertices: Prevertices
    exponents: ExponentVector
    A: complex = 1.0 + 0j
    B: complex = 0j

    def __post_init__(self):
        object.__setattr__(self, "A", complex(self.A))
        object.__setattr__(self, "B", complex(self.B))
        if not (cmath.isfinite(self.A) and cmath.isfinite(self.B)):
            raise ValidationError("A and B must be finite")
        if self.A == 0:
            raise ZeroScale("A must be nonzero")
        if self.prevertices.n != self.exponents.n:
            raise ValidationError(
                f"{len(self.prevertices.finite_points)} finite prevertices "
                f"need {len(self.prevertices.finite_points) + 1} exponents, "
                f"got {self.exponents.n}")

    @property
    def n(self) -> int:
        return self.exponents.n

    @property
    def mode(self) -> str:
        return "extended" if self.exponents.extended else "standard"


def _tail_waypoint(zs: tuple[float, ...]) -> float:
    # One unit past the last prevertex, plus the whole prevertex span:
    # keeps the finite tail leg clear of the singularities.
    return zs[-1] + 1.0 + (zs[-1] - zs[0])


def evaluate(map: SCMap, z: complex | np.ndarray, tol: float = DEFAULT_TOL
             ) -> complex | np.ndarray:
    """F(z) = A * integral(base point -> z) + B, for z in the closed upper
    half-plane or the infinity sentinel (any infinite value). An array of
    points gives the array of their images."""
    check_tol(tol)
    if np.ndim(z):
        return np.array([evaluate(map, w, tol) for w in np.ravel(z)],
                        dtype=complex).reshape(np.shape(z))
    z = complex(z)
    if math.isinf(z.real) or math.isinf(z.imag):
        R = _tail_waypoint(map.prevertices.finite_points)
        bare = (integrate_sc(map, BASE_POINT, complex(R), tol)
                + integrate_to_infinity(map, R, tol))
        return map.A * bare + map.B
    return map.A * integrate_sc(map, BASE_POINT, z, tol) + map.B


def _bare_vertices(pre: Prevertices, exp: ExponentVector,
                   quad_tol: float) -> list[complex]:
    """Vertices of the A=1, B=0 polygon, built leg by leg along the axis."""
    m = SCMap(pre, exp)
    zs = pre.finite_points
    w = [integrate_sc(m, BASE_POINT, complex(zs[0]), quad_tol)]
    for a, b in zip(zs, zs[1:]):
        w.append(w[-1] + integrate_sc(m, complex(a), complex(b), quad_tol))
    R = _tail_waypoint(zs)
    tail = (integrate_sc(m, complex(zs[-1]), complex(R), quad_tol)
            + integrate_to_infinity(m, R, quad_tol))
    w.append(w[-1] + tail)
    return w


def _circular_gap(x: float, y: float) -> float:
    d = (x - y) % TWO_PI
    return min(d, TWO_PI - d)


def _worst_angle_deviation(poly: LabelledPolygon, exp: ExponentVector
                           ) -> tuple[float, int]:
    try:
        measured = interior_angles(poly).values
    except DegenerateSide as exc:
        # The input map was valid; output vertices that coincide in
        # floating point are a failure of the computation.
        raise NumericalError(f"computed polygon is degenerate: {exc}") from exc
    worst, worst_j = 0.0, -1
    for j, (theta, alpha) in enumerate(zip(measured, exp.alphas)):
        if alpha >= 2.0:
            # Only extended vectors reach 2; those angles carry no gate.
            continue
        dev = _circular_gap(theta, alpha * math.pi)
        if dev > worst:
            worst, worst_j = dev, j
    return worst, worst_j


def _checked_polygon(pre: Prevertices, exp: ExponentVector, tol: float
                     ) -> LabelledPolygon:
    check_tol(tol)
    # Integrate two orders tighter than the angle gate; vertex positions
    # accumulate side errors and the angle check divides by side lengths.
    quad_tol = max(tol * 1e-2, _QUAD_TOL_FLOOR)
    poly = LabelledPolygon(tuple(_bare_vertices(pre, exp, quad_tol)))
    worst, worst_j = _worst_angle_deviation(poly, exp)
    if worst > 5.0 * tol and quad_tol > _QUAD_TOL_FLOOR:
        # Crowded prevertices make sides tiny relative to the diameter and
        # amplify leg errors by that ratio; retighten by the measured
        # excess (with headroom) instead of guessing the geometry.
        quad_tol = max(0.5 * quad_tol * tol / worst, _QUAD_TOL_FLOOR)
        poly = LabelledPolygon(tuple(_bare_vertices(pre, exp, quad_tol)))
        worst, worst_j = _worst_angle_deviation(poly, exp)
    if worst > 10.0 * tol:
        raise AngleMismatch(
            f"vertex {worst_j + 1} angle off by {worst:.3e} "
            f"(allowed {10.0 * tol:.1e}); quadrature is misbehaving")
    return poly


def forward(pre: Prevertices, exp: ExponentVector,
            tol: float = DEFAULT_TOL) -> LabelledPolygon:
    """Polygon traced by the normalized map: vertex j is the image of z_j,
    the last vertex the image of infinity. Angles are verified against
    alpha*pi and the immersion screen runs as a postcondition."""
    if exp.extended:
        raise ValidationError("extended exponents go through forward_extended")
    poly = _checked_polygon(pre, exp, tol)
    report = check_immersion_necessary(poly)
    if not report.ok:
        raise NumericalError(
            f"forward output failed the immersion screen: {report}")
    return poly


def forward_extended(pre: Prevertices, exp: ExponentVector,
                     tol: float = DEFAULT_TOL) -> LabelledPolygon:
    """Same trace for exponent vectors allowed to reach 2 or beyond.

    No immersion claim: vertices with alpha >= 2 carry their geometric
    angle mod 2*pi and are exempt from the angle gate.
    """
    return _checked_polygon(pre, exp, tol)


def apply_similarity(poly: LabelledPolygon, a: complex,
                     b: complex = 0j) -> LabelledPolygon:
    """Vertexwise w -> a*w + b; angles and simplicity are unaffected."""
    a, b = complex(a), complex(b)
    if a == 0:
        raise ZeroScale("similarity scale must be nonzero")
    return LabelledPolygon(tuple(a * w + b for w in poly.vertices))

"""The half-plane-to-polygon map as a value, and its forward evaluation.

A map is determined by n - 1 increasing real prevertices (the n-th lives at
infinity), n exponents alpha_j summing to n - 2, and affine constants A, B.
Its evaluation at z integrates prod_j (zeta - z_j)^(alpha_j - 1) from the
base point i to z, scales by A and shifts by B. Restricted to the real line
plus infinity it traces a closed polygon whose vertex angles are alpha_j*pi;
``forward`` computes that polygon for the normalized constants A=1, B=0 and
verifies the angles as a built-in postcondition, then screens the polygon
for immersion: a polygon with no self-contact whose angles pass is a
Jordan curve of turning number 1 and needs no winding probes, every other
one goes through ``check_immersion_necessary``.

The prevertex and exponent types check every number they are given.

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
                     ValidationError, ZeroScale, check_finites, check_number,
                     check_numbers)
from .geometry import (TWO_PI, LabelledPolygon, _find_contacts,
                       _jordan_immersed, _measure_sides,
                       check_immersion_necessary, interior_angles)
from .quadrature import (DEFAULT_TOL, _one_sided_rules, _refine,
                         _tail_singularities, check_tol, integrate_sc,
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
        vals = check_numbers(self.alphas, float, "alphas", InvalidExponent)
        n = len(vals)
        if n < 3:
            raise ValidationError(f"need at least 3 exponents, got {n}")
        for j, a in enumerate(vals):
            # The integrand's power alpha - 1 must exceed -1 in floats.
            if not math.isfinite(a) or a - 1.0 <= -1.0:
                raise InvalidExponent(f"alpha_{j + 1} = {a} must exceed 2^-54")
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
        pts = check_finites(self.finite_points, float, "prevertices")
        if len(pts) < 2:
            raise ValidationError("need at least 2 finite prevertices")
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
        A, B = check_finites((self.A, self.B), complex, "A and B")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        if A == 0:
            raise ZeroScale("A must be nonzero")
        _check_counts(self.prevertices, self.exponents)

    @property
    def n(self) -> int:
        return self.exponents.n

    @property
    def mode(self) -> str:
        return "extended" if self.exponents.extended else "standard"


def _check_counts(pre: Prevertices, exp: ExponentVector) -> None:
    # A map of n vertices has n - 1 finite prevertices and n exponents.
    if pre.n != exp.n:
        raise ValidationError(
            f"{len(pre.finite_points)} finite prevertices need {pre.n} "
            f"exponents, got {exp.n}")


def _tail_waypoint(zs: tuple[float, ...]) -> float:
    # One unit past the last prevertex, plus the whole prevertex span:
    # keeps the finite tail leg clear of the singularities.
    R = zs[-1] + 1.0 + (zs[-1] - zs[0])
    if R == math.inf:
        raise NumericalError(f"tail waypoint past prevertex {zs[-1]} "
                             "overflows")
    return R


def evaluate(map: SCMap, z: complex | np.ndarray, tol: float = DEFAULT_TOL
             ) -> complex | np.ndarray:
    """F(z) = A * integral(base point -> z) + B, for z in the closed upper
    half-plane or the infinity sentinel (any infinite value with no NaN
    part). An array of points gives the array of their images."""
    tol = check_tol(tol)
    if np.ndim(z):
        return np.array([evaluate(map, w, tol) for w in np.ravel(z)],
                        dtype=complex).reshape(np.shape(z))
    z = check_number(z, complex, "z")
    if cmath.isinf(z):
        if cmath.isnan(z):
            raise ValidationError(f"point {z} is not the infinity sentinel")
        R = _tail_waypoint(map.prevertices.finite_points)
        bare = (integrate_sc(map, BASE_POINT, complex(R), tol)
                + integrate_to_infinity(map, R, tol))
        return map.A * bare + map.B
    return map.A * integrate_sc(map, BASE_POINT, z, tol) + map.B


def _bare_vertices(points: list[tuple[Prevertices, ExponentVector]],
                   quad_tol: float) -> list[list[complex] | NumericalError]:
    """Vertices of the A=1, B=0 polygons of the (prevertices, exponents)
    pairs ``points``, all of one n, at quadrature tolerance ``quad_tol``:
    per point its vertex list, or the error of its first step to fail.
    One build of the one-sided Jacobi rules the points' legs absorb, then
    three refinement loops for all the points: the upper legs to z_1, then
    the sides with the legs to the tail waypoints, then the tails; each
    polygon adds up its legs in that order. A map's vertices do not depend
    on the other maps', nor on the rules built with its own. An error
    raised for all the maps (a Jacobi rule that fails its check, in the
    build or in a loop) sends each point through alone, so every point
    gets the outcome of its own call. A point whose counts do
    not match, or a batch of more than one n, raises ValidationError."""
    out: list = [None] * len(points)
    if not points:
        return out
    # A map whose waypoint overflows keeps R = 1 and enters no loop.
    R = np.ones(len(points))
    n = points[0][1].n
    for g, (pre, exp) in enumerate(points):
        _check_counts(pre, exp)
        if exp.n != n:
            raise ValidationError(
                f"a batch holds maps of one n, got n = {n} and n = {exp.n}")
        try:
            R[g] = _tail_waypoint(pre.finite_points)
        except NumericalError as exc:
            out[g] = exc
    zs = np.array([pre.finite_points for pre, _ in points])
    alphas = np.array([exp.alphas for _, exp in points])
    es = alphas[:, :-1] - 1.0
    ends = np.column_stack([zs, R])
    us, ues = _tail_singularities(zs, es, alphas[:, -1] - 1.0)
    # Per integral: the legs [p, q] of each map (a row each) and the
    # singularities they avoid.
    integrals = {
        "upper": (np.full((len(points), 1), BASE_POINT),
                  zs[:, :1].astype(complex), zs, es),
        "axis": (ends[:, :-1], ends[:, 1:], zs, es),
        "tail": (np.zeros((len(points), 1)), 1.0 / R[:, None], us, ues),
    }
    legs = {}
    alive = np.flatnonzero([w is None for w in out])
    try:
        # One build for the one-sided rules of all three loops.
        _one_sided_rules(alphas[alive])
        for kind, (p, q, xs, ys) in integrals.items():
            if not alive.size:
                return out
            of = alive.repeat(p.shape[1])
            sums, failed = _refine(kind, p[alive].ravel(), q[alive].ravel(),
                                   xs, ys, quad_tol, np.arange(of.size), of)
            legs[kind] = np.zeros(p.shape, dtype=complex)
            legs[kind][alive] = sums[:, 0].reshape(alive.size, -1)
            # A map that fails takes its error and leaves the later loops.
            for g, error in failed.items():
                out[g] = error
            alive = alive[np.array([g not in failed for g in alive.tolist()],
                                   dtype=bool)]
    except NumericalError as exc:
        if len(points) == 1:
            return [exc]
        return [w for point in points
                for w in _bare_vertices([point], quad_tol)]
    # np.cumsum adds in order, as the legs were added one by one.
    axis = legs["axis"][alive]
    w = np.cumsum(np.column_stack([legs["upper"][alive], axis[:, :-1],
                                   axis[:, -1:] + legs["tail"][alive]]), axis=1)
    for g, row in zip(alive.tolist(), w.tolist()):
        out[g] = row
    return out


def _worst_angle_deviation(poly: LabelledPolygon, exp: ExponentVector
                           ) -> tuple[float, int]:
    worst, worst_j = 0.0, -1
    for j, (theta, alpha) in enumerate(zip(interior_angles(poly).values,
                                           exp.alphas)):
        if alpha >= 2.0:
            # Only extended vectors reach 2; those angles carry no gate.
            continue
        d = (theta - alpha * math.pi) % TWO_PI
        dev = min(d, TWO_PI - d)
        if dev > worst:
            worst, worst_j = dev, j
    return worst, worst_j


def _polygons(vertices: list[list[complex] | NumericalError]
              ) -> list[LabelledPolygon | NumericalError]:
    """The polygon of each vertex list, or its error, all built before
    their diameters and sides are measured in one side pass per n."""
    out = []
    for w in vertices:
        try:
            out.append(w if isinstance(w, NumericalError)
                       else LabelledPolygon(tuple(w)))
        except ValidationError as exc:
            out.append(_invalid(exc))
    _measure_sides([p for p in out if isinstance(p, LabelledPolygon)])
    return out


def _invalid(exc: ValidationError) -> NumericalError:
    # The input map was valid, so vertices that coincide in floats or that
    # floats cannot hold are a failure of the computation.
    error = NumericalError(f"computed polygon is invalid: {exc}")
    error.__cause__ = exc
    return error


def _measured(exp: ExponentVector, poly: LabelledPolygon | NumericalError):
    # The polygon, its worst angle deviation and that vertex; or the error.
    if isinstance(poly, NumericalError):
        return poly
    try:
        return (poly, *_worst_angle_deviation(poly, exp))
    except DegenerateSide as exc:
        return _invalid(exc)


def _checked_polygons(points: list[tuple[Prevertices, ExponentVector]],
                      tol: float) -> list[LabelledPolygon | NumericalError]:
    tol = check_tol(tol)
    # Integrate two orders tighter than the angle gate; vertex positions
    # accumulate side errors and the angle check divides by side lengths.
    quad_tol = max(tol * 1e-2, _QUAD_TOL_FLOOR)
    gate = 10.0 * tol
    out = _polygons(_bare_vertices(points, quad_tol))
    for i, (point, poly) in enumerate(zip(points, out)):
        got = _measured(point[1], poly)
        # Only a polygon that fails the gate is retightened, on its own:
        # crowded prevertices make sides tiny relative to the diameter and
        # amplify leg errors by that ratio, so tighten by the measured
        # excess (with headroom) instead of guessing the geometry.
        if (isinstance(got, tuple) and got[1] > gate
                and quad_tol > _QUAD_TOL_FLOOR):
            tighter = max(0.5 * quad_tol * tol / got[1], _QUAD_TOL_FLOOR)
            got = _measured(point[1],
                            _polygons(_bare_vertices([point], tighter))[0])
        if isinstance(got, tuple):
            poly, worst, worst_j = got
            got = poly if worst <= gate else AngleMismatch(
                f"vertex {worst_j + 1} angle off by {worst:.3e} "
                f"(allowed {gate:.1e}); quadrature is misbehaving")
        out[i] = got
    return out


def _one(results: list):
    # The one result of a one-point batch; an error is raised.
    if isinstance(results[0], NumericalError):
        raise results[0]
    return results[0]


def _forward_many(points: list[tuple[Prevertices, ExponentVector]],
                  tol: float = DEFAULT_TOL
                  ) -> list[LabelledPolygon | NumericalError]:
    """forward of each (prevertices, exponents) pair of ``points``, all of
    one n, in one batch: per point its polygon or the NumericalError its
    forward raises. The integrals of all the points share their refinement
    loops, and each polygon is bitwise the one its forward alone gives.
    The polygons are built first; their sides, and then the self-contacts
    of those that pass the angle gate, are found in one array pass per n,
    each polygon's bit for bit as alone. A polygon without self-contacts
    that passes the screen's angle conditions is a Jordan curve and passes
    its winding condition too, so only the other polygons are screened in
    full."""
    for _, exp in points:
        if exp.extended:
            raise ValidationError(
                "extended exponents go through forward_extended")
    out = _checked_polygons(points, tol)
    _find_contacts([p for p in out if isinstance(p, LabelledPolygon)])
    for i, poly in enumerate(out):
        if isinstance(poly, LabelledPolygon) and not _jordan_immersed(poly):
            report = check_immersion_necessary(poly)
            if not report.ok:
                out[i] = NumericalError(
                    f"forward output failed the immersion screen: {report}")
    return out


def forward(pre: Prevertices, exp: ExponentVector,
            tol: float = DEFAULT_TOL) -> LabelledPolygon:
    """Polygon traced by the normalized map: vertex j is the image of z_j,
    the last vertex the image of infinity. Angles are verified against
    alpha*pi and the immersion screen runs as a postcondition."""
    return _one(_forward_many([(pre, exp)], tol))


def forward_extended(pre: Prevertices, exp: ExponentVector,
                     tol: float = DEFAULT_TOL) -> LabelledPolygon:
    """Same trace for exponent vectors allowed to reach 2 or beyond.

    No immersion claim: vertices with alpha >= 2 carry their geometric
    angle mod 2*pi and are exempt from the angle gate.
    """
    return _one(_checked_polygons([(pre, exp)], tol))


def apply_similarity(poly: LabelledPolygon, a: complex,
                     b: complex = 0j) -> LabelledPolygon:
    """Vertexwise w -> a*w + b; angles and simplicity are unaffected."""
    # Non-finite a and b are left to the vertices' own check.
    a, b = check_number(a, complex, "a"), check_number(b, complex, "b")
    if a == 0:
        raise ZeroScale("similarity scale must be nonzero")
    return LabelledPolygon(tuple(a * w + b for w in poly.vertices))

"""Labelled plane polygons and the predicates used on them.

Vertices are complex numbers (``PlanePoint`` is an alias); labels are the
positional indices, counter-clockwise by convention. Angles at a vertex are
measured as the clockwise sweep from the ray toward the previous vertex to
the ray toward the next one, normalized into (0, 2*pi]. For a CCW-labelled
embedded polygon this is the usual interior angle.

All predicates are pure functions; ``is_simple`` makes certificate-grade
decisions through the exact predicates in :mod:`scpoly.predicates`. Winding
numbers are computed by one array kernel over a whole batch of query points;
``winding_number``, the immersion screen and the witness search all use it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Optional, Sequence

import numpy as np

from .errors import DegenerateSide, PointOnCurve, ValidationError
from .predicates import (orientation, segment_crossing_point,
                         segments_intersect)

PlanePoint = complex

# Coincidence tolerance, relative to polygon diameter.
COINCIDENCE_RTOL = 1e-12
# Angle tolerance used for straight-vertex flags and immersion checks.
ANGLE_TOL = 1e-6
# Witness points must clear every side-supporting line by this, times diameter.
WITNESS_LINE_RTOL = 1e-9
# Fixed seed of the stratified witness search (PCG64); part of the contract
# that identical inputs give identical outputs.
_WITNESS_SEED = 20260814

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class LabelledPolygon:
    """Closed polygonal curve given by its labelled vertices.

    Consecutive vertices are expected to be distinct (operations raise
    :class:`DegenerateSide` otherwise); non-consecutive vertices may
    coincide — the curve is then necessarily non-simple, but still a valid
    input everywhere.
    """

    vertices: tuple[complex, ...]

    def __post_init__(self):
        verts = tuple(complex(v) for v in self.vertices)
        if len(verts) < 3:
            raise ValidationError(f"need at least 3 vertices, got {len(verts)}")
        for v in verts:
            if not (math.isfinite(v.real) and math.isfinite(v.imag)):
                raise ValidationError("vertices must be finite")
        object.__setattr__(self, "vertices", verts)

    @property
    def n(self) -> int:
        return len(self.vertices)

    @cached_property
    def diameter(self) -> float:
        return max(abs(a - b) for a, b in combinations(self.vertices, 2))

    def side(self, j: int) -> tuple[complex, complex]:
        """Side j joins vertex j to vertex j+1 (cyclically), 0-based."""
        return self.vertices[j], self.vertices[(j + 1) % self.n]

    @classmethod
    def from_points(cls, pts: Sequence) -> "LabelledPolygon":
        return cls(tuple(complex(p[0], p[1]) if not isinstance(p, complex) else p
                         for p in pts))


@dataclass(frozen=True)
class AngleVector:
    """Vertex angles in radians, one per label, each in (0, 2*pi].

    The container itself does not demand immersion validity: measured angle
    vectors of arbitrary closed polygons live here too. ``straight_indices``
    lists vertices whose angle is within tolerance of 0 or 2*pi, i.e. where
    the two incident sides fold back onto one ray; callers decide whether
    that is fatal.
    """

    values: tuple[float, ...]

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def straight_indices(self) -> tuple[int, ...]:
        out = []
        for j, t in enumerate(self.values):
            if t <= ANGLE_TOL or t >= TWO_PI - ANGLE_TOL:
                out.append(j)
        return tuple(out)

    def sum_defect(self) -> float:
        """(n-2)*pi minus the actual angle sum."""
        return (self.n - 2) * math.pi - math.fsum(self.values)


@dataclass(frozen=True)
class ImmersionReport:
    """Outcome of the necessary-condition screen for immersed polygons."""

    angles_in_range: bool      # (a) every vertex angle realizable in (0, 2*pi)
    angle_sum_ok: bool         # (b) angle sum equals (n-2)*pi
    winding_nonnegative: bool  # (c) winding >= 0 at sampled face points
    turning_number: int
    points_sampled: int

    @property
    def ok(self) -> bool:
        return self.angles_in_range and self.angle_sum_ok and self.winding_nonnegative


def _check_sides(poly: LabelledPolygon) -> float:
    """Validate consecutive-distinct; returns the coincidence tolerance."""
    tol = COINCIDENCE_RTOL * poly.diameter
    for j in range(poly.n):
        a, b = poly.side(j)
        if abs(a - b) <= tol:
            raise DegenerateSide(f"vertices {j} and {(j + 1) % poly.n} coincide")
    return tol


def interior_angles(poly: LabelledPolygon) -> AngleVector:
    """Clockwise vertex angles, in (0, 2*pi].

    The angle at vertex j is the clockwise sweep taking the ray toward
    vertex j-1 onto the ray toward vertex j+1. Exactly-zero sweeps (the two
    rays coincide) report as 2*pi.
    """
    _check_sides(poly)
    w = poly.vertices
    n = poly.n
    out = []
    for j in range(n):
        d_prev = w[(j - 1) % n] - w[j]
        d_next = w[(j + 1) % n] - w[j]
        ang = (math.atan2(d_prev.imag, d_prev.real)
               - math.atan2(d_next.imag, d_next.real)) % TWO_PI
        out.append(ang if ang > 0.0 else TWO_PI)
    return AngleVector(tuple(out))


def turning_angle_sum(poly: LabelledPolygon) -> float:
    """Sum of exterior angles pi - theta_j, each summand in [-pi, pi).

    Always an integer multiple of 2*pi up to rounding: 2*pi times the
    turning number of the closed curve.
    """
    angles = interior_angles(poly)
    return math.fsum(math.pi - t for t in angles.values)


def turning_number(poly: LabelledPolygon) -> int:
    total = turning_angle_sum(poly) / TWO_PI
    return int(round(total))


def _windings(poly: LabelledPolygon,
              points: Sequence[complex]) -> tuple[np.ndarray, np.ndarray]:
    """Winding numbers of the boundary around a batch of points.

    Returns the windings and a mask of the points where they are defined:
    farther than the coincidence tolerance from the trace, with the
    accumulated argument landing within 1e-6 of a whole number of turns
    (points effectively on the curve fail the latter). Entries outside the
    mask are meaningless.
    """
    tol = max(_check_sides(poly), 1e-300)
    # Sides along axis 0, points along axis 1.
    p = np.asarray(points, dtype=complex)[None, :]
    a = np.asarray(poly.vertices)[:, None]
    b = np.roll(a, -1, axis=0)
    d = b - a
    pa = p - a
    t = np.clip((pa.real * d.real + pa.imag * d.imag)
                / (d.real * d.real + d.imag * d.imag), 0.0, 1.0)
    clear = (np.abs(p - (a + t * d)) > tol).all(axis=0)
    # Side j turns by arg((b_j - p) / (a_j - p)).
    u, v = a - p, b - p
    turns = np.arctan2(u.real * v.imag - u.imag * v.real,
                       u.real * v.real + u.imag * v.imag).sum(axis=0) / TWO_PI
    k = np.round(turns)
    return k.astype(int), clear & (np.abs(turns - k) < 1e-6)


def winding_number(poly: LabelledPolygon, p: PlanePoint) -> int:
    """Winding of the polygon boundary around p, by argument accumulation
    (the batch kernel applied to one point).

    Raises :class:`PointOnCurve` if p is within tolerance of the trace, or
    if the accumulated total fails to land on an integer to 1e-6 (which
    only happens for points effectively on the curve).
    """
    k, defined = _windings(poly, [p])
    if not defined[0]:
        raise PointOnCurve(f"point {p} lies on or too near the curve")
    return int(k[0])


def _adjacent(i: int, j: int, n: int) -> bool:
    return (j - i) % n == 1 or (i - j) % n == 1


def _collinear_overlap(a: complex, shared: complex, c: complex) -> bool:
    """Do segments (a, shared) and (shared, c) overlap beyond the joint?"""
    if orientation(a.real, a.imag, shared.real, shared.imag, c.real, c.imag) != 0:
        return False
    # Collinear: overlap iff both far ends sit on the same side of `shared`.
    dot = ((Fraction(a.real) - Fraction(shared.real))
           * (Fraction(c.real) - Fraction(shared.real))
           + (Fraction(a.imag) - Fraction(shared.imag))
           * (Fraction(c.imag) - Fraction(shared.imag)))
    return dot > 0


def is_simple(poly: LabelledPolygon) -> bool:
    """Embeddedness of the boundary curve.

    True iff non-adjacent sides are disjoint, adjacent sides meet only at
    their shared vertex, and non-consecutive vertices are distinct. Side
    decisions use the exact orientation predicates; vertex coincidence uses
    the relative tolerance (coincident-within-noise counts as coincident).
    """
    tol = _check_sides(poly)
    w = poly.vertices
    n = poly.n
    for i in range(n):
        for j in range(i + 1, n):
            if (j - i) != 1 and not (i == 0 and j == n - 1):
                if abs(w[i] - w[j]) <= tol:
                    return False
    for i in range(n):
        for j in range(i + 1, n):
            a, b = poly.side(i)
            c, d = poly.side(j)
            if _adjacent(i, j, n):
                if (j - i) % n == 1:
                    shared, p_far, q_far = w[j], w[i], w[(j + 1) % n]
                else:
                    shared, p_far, q_far = w[i], w[j], w[(i + 1) % n]
                if _collinear_overlap(p_far, shared, q_far):
                    return False
            elif segments_intersect(a, b, c, d):
                return False
    return True


def _proper_crossings(poly: LabelledPolygon) -> list[complex]:
    pts = []
    n = poly.n
    for i in range(n):
        for j in range(i + 1, n):
            if _adjacent(i, j, n):
                continue
            a, b = poly.side(i)
            c, d = poly.side(j)
            q = segment_crossing_point(a, b, c, d)
            if q is not None:
                pts.append(q)
    return pts


def _bounding_box(poly: LabelledPolygon) -> tuple[float, float, float, float]:
    xs = [v.real for v in poly.vertices]
    ys = [v.imag for v in poly.vertices]
    return min(xs), max(xs), min(ys), max(ys)


def _line_clearance(poly: LabelledPolygon,
                    points: Sequence[complex]) -> np.ndarray:
    """Distance from each point to the nearest side-supporting (infinite)
    line."""
    p = np.asarray(points, dtype=complex)[None, :]
    a = np.asarray(poly.vertices)[:, None]
    d = np.roll(a, -1, axis=0) - a
    pa = p - a
    return (np.abs(d.real * pa.imag - d.imag * pa.real) / np.abs(d)).min(axis=0)


def _first_witness(poly: LabelledPolygon, points: Sequence[complex],
                   clearance: float) -> Optional[PlanePoint]:
    """First of the points with winding >= 2 and line clearance at least
    ``clearance``, or None."""
    k, defined = _windings(poly, points)
    certified = defined & (k >= 2) & (_line_clearance(poly, points) >= clearance)
    hits = np.flatnonzero(certified)
    return complex(points[hits[0]]) if hits.size else None


def _face_sample_points(poly: LabelledPolygon) -> list[complex]:
    """Deterministic probes aiming at every face of the side arrangement.

    Quadrant probes around each proper crossing, midpoints between crossing
    pairs (lens interiors), offset side midpoints, and a coarse grid over
    the bounding box.
    """
    diam = poly.diameter
    pts: list[complex] = []
    crossings = _proper_crossings(poly)
    # Crossings and original vertices bound every face of the side
    # arrangement; overlap lenses can be microscopic relative to the
    # diameter, so probe each crossing at scales set by its nearest
    # neighbour in that set as well as at diameter scales.
    anchors = crossings + list(poly.vertices)
    for q in crossings:
        near = min((abs(q - p) for p in anchors if abs(q - p) > 0.0),
                   default=diam)
        steps = [s * diam for s in (1e-3, 1e-2, 5e-2)]
        steps += [f * near for f in (0.5, 0.125, 0.03125)]
        for d in steps:
            pts.extend((q + d, q - d, q + 1j * d, q - 1j * d,
                        q + d * (1 + 1j) / math.sqrt(2),
                        q + d * (1 - 1j) / math.sqrt(2),
                        q + d * (-1 + 1j) / math.sqrt(2),
                        q + d * (-1 - 1j) / math.sqrt(2)))
    for q1, q2 in combinations(anchors, 2):
        pts.append((q1 + q2) / 2)
    for j in range(poly.n):
        a, b = poly.side(j)
        mid = (a + b) / 2
        normal = 1j * (b - a) / abs(b - a)
        for scale in (1e-3, 3e-2):
            pts.append(mid + scale * diam * normal)
            pts.append(mid - scale * diam * normal)
    lo_x, hi_x, lo_y, hi_y = _bounding_box(poly)
    grid = 7
    for ix in range(grid):
        for iy in range(grid):
            pts.append(complex(lo_x + (ix + 0.5) * (hi_x - lo_x) / grid,
                               lo_y + (iy + 0.5) * (hi_y - lo_y) / grid))
    return pts


def check_immersion_necessary(poly: LabelledPolygon) -> ImmersionReport:
    """Screen the necessary conditions for the polygon to be immersed.

    (a) every vertex angle is realizable strictly inside (0, 2*pi). The
        measured angles are only defined modulo full turns, so a hidden
        wrap (a vertex whose realizable angle must be >= 2*pi) is detected
        through the turning number: an immersed polygon has turning number
        exactly 1, and turning >= 2 forces at least one wrapped vertex.
    (b) the angle sum equals (n-2)*pi, equivalently turning number 1.
    (c) winding numbers at sampled arrangement-face points are all >= 0.
        All probes are wound in one batch; ``points_sampled`` counts the
        probes with a defined winding up to the first negative one.

    All three together are necessary, not sufficient.
    """
    angles = interior_angles(poly)
    t = turning_number(poly)
    pointwise_ok = not angles.straight_indices
    angles_in_range = pointwise_ok and t <= 1
    angle_sum_ok = abs(angles.sum_defect()) <= ANGLE_TOL and t == 1

    k, defined = _windings(poly, _face_sample_points(poly))
    negative = np.flatnonzero(defined & (k < 0))
    if negative.size:
        # The screen stops at the first negative winding.
        defined = defined[:negative[0] + 1]
    return ImmersionReport(angles_in_range, angle_sum_ok, not negative.size,
                           t, int(defined.sum()))


def find_multiwound_witness(poly: LabelledPolygon,
                            budget: int) -> Optional[PlanePoint]:
    """Hunt a point with winding number >= 2, clear of all side lines.

    Tries targeted probes around side crossings (and lens midpoints between
    them), then stratified uniform samples over the bounding box from a
    fixed-seed PCG64 stream, at most ``budget`` candidate evaluations in
    total. The probes, and each grid level, are wound as one batch; the
    result is the first certified candidate in probe and cell order, or
    None.
    """
    if budget <= 0:
        raise ValidationError("budget must be positive")
    clearance = WITNESS_LINE_RTOL * poly.diameter
    probes = _face_sample_points(poly)[:budget]
    found = _first_witness(poly, probes, clearance)
    tried = len(probes)
    rng = np.random.default_rng(_WITNESS_SEED)
    lo_x, hi_x, lo_y, hi_y = _bounding_box(poly)
    # Stratify: sweep a coarse-to-fine sequence of grids, one jittered
    # sample per cell (cells in row-major order), until the budget runs out.
    grid = 4
    while found is None and tried < budget:
        cells = min(grid * grid, budget - tried)
        ix, iy = np.divmod(np.arange(cells), grid)
        u, v = rng.random((cells, 2)).T
        pts = np.empty(cells, dtype=complex)
        pts.real = lo_x + (ix + u) * (hi_x - lo_x) / grid
        pts.imag = lo_y + (iy + v) * (hi_y - lo_y) / grid
        found = _first_witness(poly, pts, clearance)
        tried += cells
        grid *= 2
    return found

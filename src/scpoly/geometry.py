"""Labelled plane polygons and the predicates used on them.

Vertices are complex numbers (``PlanePoint`` is an alias); labels are the
positional indices, counter-clockwise by convention. Angles at a vertex are
measured as the clockwise sweep from the ray toward the previous vertex to
the ray toward the next one, normalized into (0, 2*pi]. For a CCW-labelled
embedded polygon this is the usual interior angle.

All predicates are pure functions. Self-contacts (proper crossings, a
vertex on a side, coincident vertices, overlapping collinear sides) are
read off one orientation matrix per polygon, whose entries are
float-filtered with Shewchuk's error bound and the unsure ones decided in
exact rationals; ``is_simple`` decides from it. One array kernel checks
a chunk of polygons of one n at once, in two passes: diameters and sides,
then orientation matrices, contacts and vertex coincidences. Each step is
elementwise or reduces one polygon's own entries, so every polygon gets
the bits it gets alone; a lone polygon is a chunk of one. A batch fills
its polygons' caches with one pass per n; a lone polygon runs each pass
on first use. Like the contacts, a polygon's vertex angles are measured
once and cached.
Winding numbers are computed by one array kernel over a whole batch of
query points. The immersion screen and the witness search share one
probe set, wound once per polygon: a point inside each sector at every
vertex of the curve's arrangement (polygon vertices and proper
crossings), which reaches every face of the arrangement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import (DegenerateSide, PointOnCurve, ValidationError,
                     check_finite, check_finites)

PlanePoint = complex

# Coincidence tolerance, relative to polygon diameter.
COINCIDENCE_RTOL = 1e-12
# Angle tolerance used for straight-vertex flags and immersion checks.
ANGLE_TOL = 1e-6
# Witness points must clear every side-supporting line by this, times diameter.
WITNESS_LINE_RTOL = 1e-9
# Filter constant for the 2x2 orientation determinant, (3 + 16u)u with
# u = 2^-53 (Shewchuk 1997, DCG 18:305): |det| above _ERRBOUND *
# (|det_left| + |det_right|) certifies the floating-point sign.
_ERRBOUND = (3.0 + 16.0 * 2.0 ** -53) * 2.0 ** -53

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
        verts = check_finites(self.vertices, complex, "vertices")
        if len(verts) < 3:
            raise ValidationError(f"need at least 3 vertices, got {len(verts)}")
        # Every vertex difference, and so the diameter, is then finite.
        xs, ys = [v.real for v in verts], [v.imag for v in verts]
        if math.hypot(max(xs) - min(xs), max(ys) - min(ys)) == math.inf:
            raise ValidationError("polygon extent overflows floats")
        object.__setattr__(self, "vertices", verts)

    @property
    def n(self) -> int:
        return len(self.vertices)

    @cached_property
    def _measures(self) -> tuple:
        # The side pass on a chunk of one, unless _measure_sides filled it
        # with the polygon's chunk.
        return _side_pass(np.asarray(self.vertices)[None])[0]

    @property
    def diameter(self) -> float:
        return self._measures[0]

    @property
    def _sides(self) -> tuple[np.ndarray, ...]:
        # Side vectors w_{j+1} - w_j, lengths and unit vectors, read-only;
        # the first side within the coincidence tolerance raises.
        _, sides, short = self._measures
        if short >= 0:
            raise DegenerateSide(
                f"vertices {short} and {(short + 1) % self.n} coincide")
        return sides

    @cached_property
    def _angles(self) -> AngleVector:
        # Clockwise vertex angles (see interior_angles), measured once for
        # the angle gate and the immersion screen.
        _check_sides(self)
        w, n = self.vertices, self.n
        out = []
        for j in range(n):
            d_prev = w[(j - 1) % n] - w[j]
            d_next = w[(j + 1) % n] - w[j]
            ang = (math.atan2(d_prev.imag, d_prev.real)
                   - math.atan2(d_next.imag, d_next.real)) % TWO_PI
            out.append(ang if ang > 0.0 else TWO_PI)
        return AngleVector(tuple(out))

    @cached_property
    def _contacts(self) -> tuple[np.ndarray, ...]:
        # The contact pass on a chunk of one, unless _find_contacts filled
        # it with the polygon's chunk; serves is_simple, the immersion
        # screen and the witness search; read-only by contract.
        w = np.asarray(self.vertices)[None]
        return _contact_pass(w, np.array([self.diameter]))[0]

    @cached_property
    def _probes(self) -> tuple[np.ndarray, ...]:
        # Sector probes, their windings and the defined mask, wound once
        # for the immersion screen and the witness search; read-only.
        points = _sector_probes(self)
        return (points, *_windings(self, points))

    def side(self, j: int) -> tuple[complex, complex]:
        """Side j joins vertex j to vertex j+1 (cyclically), 0-based."""
        return self.vertices[j], self.vertices[(j + 1) % self.n]


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
        return tuple(j for j, t in enumerate(self.values)
                     if t <= ANGLE_TOL or t >= TWO_PI - ANGLE_TOL)

    def sum_defect(self) -> float:
        """(n-2)*pi minus the actual angle sum."""
        return (self.n - 2) * math.pi - math.fsum(self.values)


@dataclass(frozen=True)
class ImmersionReport:
    """Outcome of the necessary-condition screen for immersed polygons."""

    angles_in_range: bool      # (a) every vertex angle realizable in (0, 2*pi)
    angle_sum_ok: bool         # (b) angle sum equals (n-2)*pi
    winding_nonnegative: bool  # (c) winding >= 0 on every arrangement face
    turning_number: int
    points_sampled: int

    @property
    def ok(self) -> bool:
        return self.angles_in_range and self.angle_sum_ok and self.winding_nonnegative


def _check_sides(poly: LabelledPolygon) -> float:
    """Validate consecutive-distinct; returns the coincidence tolerance."""
    poly._sides  # raises DegenerateSide on a side too short
    return COINCIDENCE_RTOL * poly.diameter


def interior_angles(poly: LabelledPolygon) -> AngleVector:
    """Clockwise vertex angles, in (0, 2*pi].

    The angle at vertex j is the clockwise sweep taking the ray toward
    vertex j-1 onto the ray toward vertex j+1. Exactly-zero sweeps (the two
    rays coincide) report as 2*pi. Measured once per polygon object.
    """
    return poly._angles


def turning_angle_sum(poly: LabelledPolygon) -> float:
    """Sum of exterior angles pi - theta_j, each summand in [-pi, pi).

    Always an integer multiple of 2*pi up to rounding: 2*pi times the
    turning number of the closed curve.
    """
    return _turning(interior_angles(poly))[0]


def turning_number(poly: LabelledPolygon) -> int:
    return _turning(interior_angles(poly))[1]


def _turning(angles: AngleVector) -> tuple[float, int]:
    # The exterior-angle sum and the turning number it rounds to.
    total = math.fsum(math.pi - t for t in angles.values)
    return total, int(round(total / TWO_PI))


def _following(a: np.ndarray, axis: int = 0) -> np.ndarray:
    """``a`` cycled one step back along ``axis`` (entry j holds a[j + 1]);
    ``np.roll`` does the same at several times the cost on small arrays."""
    head = (slice(None),) * axis
    return np.concatenate((a[head + (slice(1, None),)],
                           a[head + (slice(None, 1),)]), axis=axis)


def _scaled_offsets(poly: LabelledPolygon, points: Sequence[complex]
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Offsets a_j - p (real and imaginary parts) and squared side
    distances of a batch of points, each point's scaled by the exact power
    of two 2**-e (squared distances by its square) that brings its largest
    offset component into [0.5, 1); returns e too.

    Sides run along axis 0, points along axis 1. The scaling leaves angles
    unchanged and keeps every product finite for far-away points.
    """
    p = np.asarray(points, dtype=complex)[None, :]
    a = np.asarray(poly.vertices)[:, None]
    u = a - p
    _, e = np.frexp(np.maximum(np.abs(u.real), np.abs(u.imag)).max(axis=0))
    ur, ui = np.ldexp(u.real, -e), np.ldexp(u.imag, -e)
    _, length, dr, di = (side[:, None] for side in poly._sides)
    # Foot of the perpendicular from p, clamped to the side.
    s = np.minimum(np.maximum(-(ur * dr + ui * di), 0.0), np.ldexp(length, -e))
    x, y = ur + s * dr, ui + s * di
    return ur, ui, x * x + y * y, e


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
    ur, ui, dist2, e = _scaled_offsets(poly, points)
    clear = (dist2 > np.ldexp(tol, -e) ** 2).all(axis=0)
    # Side j turns by arg((b_j - p) / (a_j - p)).
    vr, vi = _following(ur), _following(ui)
    turns = np.arctan2(ur * vi - ui * vr, ur * vr + ui * vi).sum(axis=0) / TWO_PI
    k = np.round(turns)
    return k.astype(int), clear & (np.abs(turns - k) < 1e-6)


def winding_number(poly: LabelledPolygon, p: PlanePoint) -> int:
    """Winding of the polygon boundary around p, by argument accumulation
    (the batch kernel applied to one point).

    Raises :class:`PointOnCurve` if p is within tolerance of the trace, or
    if the accumulated total fails to land on an integer to 1e-6 (which
    only happens for points effectively on the curve), and
    :class:`ValidationError` if p is not a finite complex number by the
    rule of :mod:`scpoly.errors`.
    """
    k, defined = _windings(poly, [check_finite(p, complex, "point")])
    if not defined[0]:
        raise PointOnCurve(f"point {p} lies on or too near the curve")
    return int(k[0])


def _exact_orientation(p: complex, q: complex, r: complex) -> int:
    """Sign of det(p - r, q - r), +1 for pqr counter-clockwise, in exact
    rationals: every float converts to a Fraction without rounding."""
    (px, py), (qx, qy), (rx, ry) = ((Fraction(z.real), Fraction(z.imag))
                                    for z in (p, q, r))
    det = (px - rx) * (qy - ry) - (py - ry) * (qx - rx)
    return (det > 0) - (det < 0)


# -- the chunk kernel ---------------------------------------------------------
#
# A chunk is a (chunk, n) array of the vertices of polygons of one n, one
# row each. Every step is elementwise or reduces one polygon's own entries
# (a max, an any, a row-major nonzero), so each polygon gets the bits it
# gets in a chunk of one, whichever polygons share its chunk.

def _chunks(polys: Sequence[LabelledPolygon]):
    """The polygons grouped by n, each group with its chunk."""
    groups: dict[int, list[LabelledPolygon]] = {}
    for poly in polys:
        groups.setdefault(poly.n, []).append(poly)
    return [(group, np.array([p.vertices for p in group]))
            for group in groups.values()]


def _split(c: np.ndarray, size: int, *arrays: np.ndarray) -> list[tuple]:
    """Per polygon 0 .. size - 1, its share of ``arrays``, whose entries
    belong to the polygons ``c`` (sorted)."""
    bounds = np.searchsorted(c, np.arange(size + 1)).tolist()
    return [tuple(a[lo:hi] for a in arrays)
            for lo, hi in zip(bounds, bounds[1:])]


def _side_pass(w: np.ndarray) -> list[tuple]:
    """Per polygon of the chunk ``w``: its diameter, its side data (side
    vectors w_{j+1} - w_j, lengths, and the unit vectors' real and
    imaginary parts) and the first side within the coincidence tolerance,
    or -1. The side data of a polygon with such a side is meaningless."""
    u = w[:, :, None] - w[:, None]
    # np.hypot, unlike np.abs, rounds as Python's abs of a complex does.
    diameter = np.hypot(u.real, u.imag).max(axis=(1, 2))
    d = _following(w, 1) - w
    length = np.abs(d)
    short = length <= COINCIDENCE_RTOL * diameter[:, None]
    first = np.where(short.any(axis=1), short.argmax(axis=1), -1).tolist()
    with np.errstate(divide="ignore", invalid="ignore"):
        ur, ui = d.real / length, d.imag / length
    return [(float(diameter[c]), (d[c], length[c], ur[c], ui[c]), first[c])
            for c in range(len(w))]


def _orientation_matrices(w: np.ndarray) -> np.ndarray:
    """Orientation matrices O[c, j, k] of the chunk ``w``, the sign of
    det(w_j - w_k, w_{j+1} - w_k) in polygon c.

    Every determinant is formed in floats and trusted where it clears
    _ERRBOUND; the other entries are decided by _exact_orientation, except
    those with w_k equal to w_j or w_{j+1}, which are 0.
    """
    n = w.shape[1]
    a, b = w[:, :, None], w[:, None]
    ac, bc = a - b, _following(a, 1) - b
    detleft = ac.real * bc.imag
    detright = ac.imag * bc.real
    det = detleft - detright
    o = np.sign(det).astype(int)
    unsure = ((np.abs(det) <= _ERRBOUND * (np.abs(detleft) + np.abs(detright)))
              & (ac != 0) & (bc != 0))
    for c, j, k in zip(*np.nonzero(unsure)):
        o[c, j, k] = _exact_orientation(w[c, j], w[c, (j + 1) % n], w[c, k])
    return o


def _orientations(poly: LabelledPolygon) -> np.ndarray:
    """Orientation matrix O[j, k] of one polygon: the chunk kernel's on a
    chunk of one."""
    return _orientation_matrices(np.asarray(poly.vertices)[None])[0]


def _contact_pass(w: np.ndarray, diameter: np.ndarray) -> list[tuple]:
    """Self-contacts of the curves of the chunk ``w``, exact, from their
    orientation matrices; ``diameter`` holds the polygons' diameters.

    Per polygon: the side pairs (i, j), i < j, that cross properly, in
    row-major order; the touchings (s, k), vertex k on the closed side s
    without being one of its endpoints (a vertex on a side, coincident
    vertices, and the far end of one of two overlapping collinear sides),
    each as two index arrays; and the mask of the vertex pairs (j, k)
    within the coincidence tolerance.
    """
    size, n = w.shape
    o = _orientation_matrices(w)
    # split[c, i, j]: the line of side i strictly separates the ends of
    # side j, O[c, i, j] and O[c, i, j + 1] having opposite signs.
    split = o * _following(o, 2) < 0
    ci, i, j = np.nonzero(split & split.transpose(0, 2, 1))
    upper = i < j
    cs, s, k = np.nonzero(o == 0)
    apart = (k - s) % n > 1
    cs, s, k = cs[apart], s[apart], k[apart]
    # A vertex collinear with a side lies on it iff inside its bounding box.
    a, b, p = w[cs, s], _following(w, 1)[cs, s], w[cs, k]
    on_side = ((np.minimum(a.real, b.real) <= p.real)
               & (p.real <= np.maximum(a.real, b.real))
               & (np.minimum(a.imag, b.imag) <= p.imag)
               & (p.imag <= np.maximum(a.imag, b.imag)))
    coincident = (np.abs(w[:, :, None] - w[:, None])
                  <= COINCIDENCE_RTOL * diameter[:, None, None])
    crossings = _split(ci[upper], size, i[upper], j[upper])
    touchings = _split(cs[on_side], size, s[on_side], k[on_side])
    return [crossings[c] + touchings[c] + (coincident[c],)
            for c in range(size)]


def _measure_sides(polys: Sequence[LabelledPolygon]) -> None:
    """Fill the diameter and side caches of ``polys`` by one side pass per
    n; coincident consecutive vertices still raise on first use."""
    for group, w in _chunks(polys):
        for poly, measures in zip(group, _side_pass(w)):
            poly.__dict__["_measures"] = measures


def _find_contacts(polys: Sequence[LabelledPolygon]) -> None:
    """Fill the contact caches of ``polys`` by one contact pass per n."""
    for group, w in _chunks(polys):
        diameter = np.array([poly.diameter for poly in group])
        for poly, contacts in zip(group, _contact_pass(w, diameter)):
            poly.__dict__["_contacts"] = contacts


def is_simple(poly: LabelledPolygon) -> bool:
    """Embeddedness of the boundary curve.

    True iff non-adjacent sides are disjoint, adjacent sides meet only at
    their shared vertex, and non-consecutive vertices are distinct. Side
    decisions are exact (no proper crossing and no vertex on a side it is
    not an endpoint of); vertex coincidence uses the relative tolerance
    (coincident-within-noise counts as coincident).
    """
    _check_sides(poly)
    i, _, s, _, coincident = poly._contacts
    if i.size or s.size:
        return False
    j, k = np.nonzero(coincident)
    return not ((k - j + 1) % poly.n > 2).any()


def _line_clearance(poly: LabelledPolygon,
                    points: Sequence[complex]) -> np.ndarray:
    """Distance from each point to the nearest side-supporting (infinite)
    line."""
    pa = np.asarray(points, dtype=complex) - np.asarray(poly.vertices)[:, None]
    d, length = (side[:, None] for side in poly._sides[:2])
    return (np.abs(d.real * pa.imag - d.imag * pa.real) / length).min(axis=0)


def check_immersion_necessary(poly: LabelledPolygon) -> ImmersionReport:
    """Screen the necessary conditions for the polygon to be immersed.

    (a) every vertex angle is realizable strictly inside (0, 2*pi). The
        measured angles are only defined modulo full turns, so a hidden
        wrap (a vertex whose realizable angle must be >= 2*pi) is detected
        through the turning number: an immersed polygon has turning number
        exactly 1, and turning >= 2 forces at least one wrapped vertex.
    (b) the angle sum equals (n-2)*pi, equivalently turning number 1.
    (c) the winding number is >= 0 on every face of the arrangement. Every
        face gets a probe, one per sector at each arrangement vertex; a
        probe within tolerance of the trace has no defined winding and is
        skipped. All probes are wound in one batch; ``points_sampled``
        counts the probes with a defined winding up to the first negative
        one.

    All three together are necessary, not sufficient.
    """
    angles_in_range, angle_sum_ok, t = _angle_conditions(interior_angles(poly))
    _, k, defined = poly._probes
    negative = np.flatnonzero(defined & (k < 0))
    if negative.size:
        # The screen stops at the first negative winding.
        defined = defined[:negative[0] + 1]
    return ImmersionReport(angles_in_range, angle_sum_ok, not negative.size,
                           t, int(defined.sum()))


def _angle_conditions(angles: AngleVector) -> tuple[bool, bool, int]:
    # Conditions (a) and (b) of the immersion screen, and the turning number.
    t = _turning(angles)[1]
    return (not angles.straight_indices and t <= 1,
            abs(angles.sum_defect()) <= ANGLE_TOL and t == 1, t)


def _jordan_immersed(poly: LabelledPolygon) -> bool:
    """True if the curve has no exact self-contact (no proper crossing, no
    touching) and passes conditions (a) and (b) of the immersion screen.
    Such a curve is a Jordan curve of turning number 1, which winds 0 or 1
    around every point, so it meets condition (c) too: it passes the
    whole screen, and no probe need be wound to know it."""
    i, _, s, _, _ = poly._contacts
    if i.size or s.size:
        return False
    angles_in_range, angle_sum_ok, _ = _angle_conditions(poly._angles)
    return angles_in_range and angle_sum_ok


def _sector_probes(poly: LabelledPolygon) -> np.ndarray:
    """One probe inside each sector at every vertex of the arrangement.

    The arrangement's vertices are the polygon vertices and the proper
    crossings, and every face has one on its boundary. The sides through
    such a vertex q are its own two sides and those it touches, or the
    two crossing sides. They are the only sides that meet the disc about
    q whose radius r is the distance to the nearest other side (capped at
    the diameter), so each sector they cut out of that disc lies in one
    face. The probes sit at q + (r/2)*u, u running over the unit
    bisectors of the sectors: polygon vertices first, then crossings,
    each in counter-clockwise order from the negative real axis.
    """
    n = poly.n
    i, j, s, k, _ = poly._contacts
    w, d = np.asarray(poly.vertices), poly._sides[0]
    # A float cross product can vanish where the exact test sees a crossing.
    cross = d[i].real * d[j].imag - d[i].imag * d[j].real
    i, j, cross = i[cross != 0.0], j[cross != 0.0], cross[cross != 0.0]
    g = w[j] - w[i]
    t = (g.real * d[j].imag - g.imag * d[j].real) / cross
    q = np.concatenate((w, w[i] + t * d[i]))
    # through[m, side]: the side passes through arrangement vertex m.
    vertex, crossing = np.arange(n), n + np.arange(i.size)
    through = np.zeros((q.size, n), dtype=bool)
    through[np.concatenate((vertex, vertex, k, crossing, crossing)),
            np.concatenate((vertex, vertex - 1, s, i, j))] = True
    _, _, dist2, e = _scaled_offsets(poly, q)
    nearest2 = np.where(through.T, np.inf, dist2).min(axis=0)
    r = np.minimum(np.ldexp(np.sqrt(nearest2), e), poly.diameter)
    # Rays from q to both ends of every side through q, by angle.
    rays = np.concatenate((w, _following(w))) - q[:, None]
    is_ray = np.concatenate((through, through), axis=1) & (rays != 0)
    ang = np.sort(np.where(is_ray, np.angle(rays), np.inf), axis=1)
    count = is_ray.sum(axis=1)
    following = np.concatenate((ang[:, 1:], ang[:, :1]), axis=1)
    following[np.arange(q.size), count - 1] = ang[:, 0] + TWO_PI
    m, sector = np.nonzero(np.arange(2 * n) < count[:, None])
    mid = (ang[m, sector] + following[m, sector]) / 2
    return q[m] + r[m] / 2 * np.exp(1j * mid)


def find_multiwound_witness(poly: LabelledPolygon) -> Optional[PlanePoint]:
    """Hunt a point with winding number >= 2, clear of all side lines.

    Deterministic: the screen's probes, one per sector at every
    arrangement vertex, and their windings, computed once per polygon;
    returns the first certified candidate in that order, or None. Every
    face gets a probe, touchings included, so a face with winding >= 2 is
    missed only when its probes lack a defined winding or the line
    clearance. Coincident consecutive vertices raise :class:`DegenerateSide`.
    """
    points, k, defined = poly._probes
    clear = _line_clearance(poly, points) >= WITNESS_LINE_RTOL * poly.diameter
    hits = np.flatnonzero(defined & (k >= 2) & clear)
    return complex(points[hits[0]]) if hits.size else None

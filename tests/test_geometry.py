import cmath
import math
import warnings

import numpy as np
import pytest

from scpoly import (
    DegenerateSide,
    LabelledPolygon,
    PointOnCurve,
    SweepConfig,
    ValidationError,
    apply_similarity,
    check_immersion_necessary,
    find_multiwound_witness,
    forward,
    interior_angles,
    is_simple,
    moduli_unchart,
    sample_chart_point,
    turning_angle_sum,
    turning_number,
    winding_number,
)
from scpoly import geometry

from conftest import (HEX_WITNESS_LARGE, HEX_WITNESS_LENS,
                      PENTAGON_VERTICES, SQUARE_VERTICES,
                      TRIANGLE_VERTICES)
from oracles import (has_nonadjacent_crossing, orientation_exact,
                     ray_crossing_winding)

EQUILATERAL = LabelledPolygon((0j, 1 + 0j, 0.5 + math.sqrt(3) / 2 * 1j))


def cyclic_shift(poly, k):
    return LabelledPolygon(poly.vertices[k:] + poly.vertices[:k])


# ----------------------------------------------------------- containers

def test_polygon_needs_three_finite_vertices():
    with pytest.raises(ValidationError):
        LabelledPolygon((0j, 1 + 0j))
    with pytest.raises(ValidationError):
        LabelledPolygon((0j, 1 + 0j, complex(math.nan, 0.0)))
    # Finite vertices whose differences overflow leave no diameter to
    # measure sides against: not a polygon with coincident vertices.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="extent overflows"):
            LabelledPolygon((-1e308 + 0j, 1e308 + 0j, 1e308j))


def test_polygon_accessors(unit_square):
    assert unit_square.n == 4
    assert unit_square.diameter == pytest.approx(math.sqrt(2.0))
    assert unit_square.side(3) == (1j, 0j)


def test_degenerate_side_detected():
    cases = [
        ((0j, 1 + 0j, 1 + 0j, 1j), "1 and 2"),
        # The closing side, from the last vertex back to the first.
        ((0j, 1 + 0j, 1j, 0j), "3 and 0"),
        # Coincident within the relative tolerance, not exactly.
        ((0j, 1 + 0j, 1 + 1e-13j, 1j), "1 and 2"),
        # Two coinciding pairs: the first one is named.
        ((0j, 0j, 1 + 0j, 1 + 0j, 1j), "0 and 1"),
    ]
    for vertices, pair in cases:
        pinched = LabelledPolygon(vertices)
        match = f"vertices {pair} coincide"
        with pytest.raises(DegenerateSide, match=match):
            interior_angles(pinched)
        with pytest.raises(DegenerateSide, match=match):
            is_simple(pinched)
        with pytest.raises(DegenerateSide, match=match):
            check_immersion_necessary(pinched)
        with pytest.raises(DegenerateSide, match=match):
            winding_number(pinched, 0.25 + 0.25j)
        with pytest.raises(DegenerateSide, match=match):
            find_multiwound_witness(pinched)


# --------------------------------------------------------------- angles

def test_square_angles(unit_square):
    assert interior_angles(unit_square).values == pytest.approx(
        [math.pi / 2] * 4, abs=1e-15)


def test_equilateral_angles():
    assert interior_angles(EQUILATERAL).values == pytest.approx(
        [math.pi / 3] * 3, abs=1e-12)


def test_reflex_angle_measured_clockwise():
    # L-shape: the inner corner at 1+1j opens to 3*pi/2
    ell = LabelledPolygon((0j, 2 + 0j, 2 + 1j, 1 + 1j, 1 + 2j, 2j))
    angles = interior_angles(ell).values
    assert angles[3] == pytest.approx(1.5 * math.pi, abs=1e-12)
    assert math.fsum(angles) == pytest.approx(4 * math.pi, abs=1e-12)


def test_angle_vector_diagnostics(unit_square):
    v = interior_angles(unit_square)
    assert v.n == 4
    assert v.straight_indices == ()
    assert v.sum_defect() == pytest.approx(0.0, abs=1e-12)
    sliver = LabelledPolygon((0j, 2 + 0j, 1 + 1e-9j))
    assert interior_angles(sliver).straight_indices != ()


# -------------------------------------------------------------- turning

def test_turning_square(unit_square):
    assert turning_angle_sum(unit_square) == pytest.approx(2 * math.pi)
    assert turning_number(unit_square) == 1


def test_turning_bowtie(bowtie):
    # two positive and two negative exterior angles cancel
    assert turning_angle_sum(bowtie) == pytest.approx(0.0, abs=1e-12)
    assert turning_number(bowtie) == 0


def test_turning_wrapped_pentagon(pentagon_poly):
    """The curve with one 2.2*pi vertex turns twice.

    Summing pi - theta over MEASURED angles (the wrapped vertex reads
    pi/5, not 2.2*pi) counts the hidden full turn: 5*pi - pi = 4*pi.
    Equivalently each measured summand is the true exterior angle plus
    2*pi at the wrapped vertex.
    """
    assert turning_angle_sum(pentagon_poly) == pytest.approx(4 * math.pi,
                                                             abs=1e-9)
    assert turning_number(pentagon_poly) == 2


# -------------------------------------------------------------- winding

def test_winding_square_inside_outside(unit_square):
    assert winding_number(unit_square, 0.5 + 0.5j) == 1
    assert winding_number(unit_square, 10 + 10j) == 0


def test_winding_on_trace_rejected(unit_square):
    with pytest.raises(PointOnCurve):
        winding_number(unit_square, 0.5 + 0j)
    with pytest.raises(PointOnCurve):
        winding_number(unit_square, 1j)


def test_winding_needs_whole_turns(monkeypatch, unit_square):
    # With the distance rule turned off, the 1e-6 integer-residual rule
    # alone must leave the vertex 0j undefined: its turns sum to 0.25.
    real = geometry._scaled_offsets

    def far(poly, points):
        ur, ui, dist2, e = real(poly, points)
        return ur, ui, dist2 + 1.0, e

    monkeypatch.setattr(geometry, "_scaled_offsets", far)
    k, defined = geometry._windings(unit_square, [0j, 0.5 + 0.5j])
    assert defined.tolist() == [False, True]
    assert k[1] == 1


def test_winding_rejects_nonfinite_points(unit_square):
    # A string and None used to raise a bare TypeError from np.isfinite;
    # True was read as the vertex 1 and raised PointOnCurve.
    for p in (complex(math.inf, 0.0), complex(math.nan, 0.0),
              complex(0.5, -math.inf)):
        with pytest.raises(ValidationError, match="point must be finite"):
            winding_number(unit_square, p)
    for p in ("0.5+0.5j", b"0.5", None, True, np.True_):
        with pytest.raises(ValidationError,
                           match="point: .* is not a complex number"):
            winding_number(unit_square, p)
    for p, k in ((np.complex128(0.5 + 0.5j), 1), (np.float32(2.5), 0),
                 (np.int64(3), 0), (np.array(0.5 + 0.5j), 1)):
        assert winding_number(unit_square, p) == k


def test_winding_at_vertices_rejected_without_warnings(hex_large):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for v in hex_large.vertices:
            with pytest.raises(PointOnCurve):
                winding_number(hex_large, v)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_far_points_wind_zero_without_warnings(unit_square):
    # Offsets near the float range: the cross and dot products of the
    # argument sum and of the clearance test would overflow unscaled, and
    # for diagonal sides of length 10 the latter would give inf - inf.
    polys = (unit_square, LabelledPolygon((0j, 10 + 0j, 10 + 10j, 10j)),
             LabelledPolygon((0j, 10 + 10j, 20 + 0j, 10 - 10j)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for poly in polys:
            for p in (1e200 + 1e200j, 1e300 - 1e300j, 1e308, -1e308j,
                      1e308 + 1e308j, -1.5e308 + 1.7e308j, 1.5e308 - 1.7e308j):
                assert winding_number(poly, p) == 0
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_winding_agrees_with_ray_oracle(unit_square, hex_large, hex_lens,
                                        pentagon_poly):
    probes = [0.5 + 0.5j, -0.3 + 0.4j, 2 + 0.1j, 0.25 + 0.9j]
    for poly in (unit_square, hex_large, hex_lens, pentagon_poly):
        scale = poly.diameter
        lo = min(v.real for v in poly.vertices)
        for k, p in enumerate(probes):
            q = poly.vertices[0] + p * scale * (0.11 + 0.07 * k)
            try:
                w = winding_number(poly, q)
            except PointOnCurve:
                continue
            assert w == ray_crossing_winding(poly.vertices, q)
        # far outside is always winding 0
        far = complex(lo - 3 * scale, 0.0)
        assert winding_number(poly, far) == 0
        assert ray_crossing_winding(poly.vertices, far) == 0


def test_batch_windings_agree_with_ray_oracle(unit_square, hex_large,
                                              hex_lens, pentagon_poly):
    # Every probe of the immersion screen, one array call per polygon.
    for poly in (unit_square, hex_large, hex_lens, pentagon_poly):
        probes = geometry._sector_probes(poly)
        k, defined = geometry._windings(poly, probes)
        assert defined.sum() > len(probes) / 2
        for p, w in zip(np.asarray(probes)[defined], k[defined]):
            assert w == ray_crossing_winding(poly.vertices, p)


# ------------------------------------------------------------ is_simple

def test_square_simple_bowtie_not(unit_square, bowtie):
    assert is_simple(unit_square)
    assert not is_simple(bowtie)


def test_simple_matches_naive_crossing_scan(unit_square, bowtie, hex_large):
    for poly in (unit_square, bowtie, hex_large):
        assert is_simple(poly) == (not has_nonadjacent_crossing(poly.vertices))


def test_simple_invariant_under_relabelling(unit_square, hex_large):
    for poly, expected in ((unit_square, True), (hex_large, False)):
        for k in range(poly.n):
            assert is_simple(cyclic_shift(poly, k)) == expected


def test_simple_invariant_under_similarity(unit_square, hex_large):
    for poly, expected in ((unit_square, True), (hex_large, False)):
        for a, b in ((2.0, 0j), (0.3 - 1.7j, 11 + 5j), (1e-6j, -4j)):
            assert is_simple(apply_similarity(poly, a, b)) == expected


def test_coincident_nonconsecutive_vertices_not_simple():
    pinch = LabelledPolygon((0j, 1 + 0j, 1 + 1j, 0j, -1 + 0j, -1 - 1j))
    assert not is_simple(pinch)


def test_adjacent_sides_overlapping_not_simple():
    spike = LabelledPolygon((0j, 2 + 0j, 1 + 0j))
    assert not is_simple(spike)


def test_orientation_matrix_matches_exact_predicate(monkeypatch):
    # Shewchuk's near-degenerate grid: 64 points 2^-53 apart at (0.5, 0.5)
    # against the line through (12, 12) and (24, 24). Float determinants
    # get many of these signs wrong; the filter must hand them on.
    tiny = 2.0 ** -53
    grid = tuple(complex(0.5 + i * tiny, 0.5 + j * tiny)
                 for i in range(8) for j in range(8))
    poly = LabelledPolygon((12 + 12j, 24 + 24j) + grid)
    exact = geometry._exact_orientation
    escalated = []
    monkeypatch.setattr(geometry, "_exact_orientation",
                        lambda *a: escalated.append(a) or exact(*a))
    o = geometry._orientations(poly)
    w, n = poly.vertices, poly.n
    for j in range(n):
        for k in range(n):
            assert o[j, k] == orientation_exact(w[j], w[(j + 1) % n], w[k])
    assert 0 < len(escalated) < n * n
    assert set(o[0, 2:]) == {-1, 0, 1}


# ---------------------------------------------- probe completeness

def _line_crossing(a, b, c, d):
    # intersection of the lines ab and cd
    u, v, g = b - a, d - c, c - a
    return a + u * (g.real * v.imag - g.imag * v.real) \
        / (u.real * v.imag - u.imag * v.real)


def _strictly_inside(face, p):
    turns = [((b - a).conjugate() * (p - a)).imag
             for a, b in zip(face, face[1:] + face[:1])]
    return all(t > 0 for t in turns) or all(t < 0 for t in turns)


def _pentagram():
    tips = [cmath.exp(1j * (math.pi / 2 + 2 * math.pi * k / 5))
            for k in range(5)]
    poly = LabelledPolygon(tuple(tips[2 * k % 5] for k in range(5)))
    # inner[k] is the crossing between tips k and k + 1
    inner = [_line_crossing(tips[k], tips[(k + 2) % 5],
                            tips[(k + 1) % 5], tips[(k + 4) % 5])
             for k in range(5)]
    faces = [(inner, 2)]
    faces += [((inner[k - 1], tips[k], inner[k]), 1) for k in range(5)]
    faces += [((tips[k], inner[k], tips[(k + 1) % 5]), 0) for k in range(5)]
    return poly, faces


def _vertex_on_side():
    # vertex 3 lies on side 0, halfway along
    poly = LabelledPolygon((0j, 4 + 0j, 4 + 4j, 2 + 0j, 4j))
    faces = [((2 + 0j, 4 + 0j, 4 + 4j), 1), ((0j, 2 + 0j, 4j), 1),
             ((2 + 0j, 4 + 4j, 4j), 0), ((0j, 2 - 2j, 4 + 0j), 0)]
    return poly, faces


def _collinear_overlap():
    # sides 0 and 4 both run along the real axis and share [1, 3]
    poly = LabelledPolygon((0j, 3 + 0j, 3 + 2j, 1 + 2j, 1 + 0j, 4 + 0j,
                            4 + 3j, 3j))
    faces = [((1 + 0j, 3 + 0j, 3 + 2j, 1 + 2j), 2),
             ((0j, 1 + 0j, 1 + 3j, 3j), 1),
             ((0j, -1 - 1j, 4 - 1j, 4 + 0j), 0)]
    return poly, faces


def _pinch():
    # vertices 0 and 3 coincide: two triangles meeting at the origin
    poly = LabelledPolygon((0j, 1 + 0j, 1 + 1j, 0j, -1 + 0j, -1 - 1j))
    faces = [((0j, 1 + 0j, 1 + 1j), 1), ((0j, -1 + 0j, -1 - 1j), 1),
             ((0j, 1 + 1j, -1 + 1j), 0)]
    return poly, faces


def _thin_lens():
    # The V of sides 3 and 4 dips h below side 0, cutting out a lens
    # 1.5 long and h = 1e-6 diameters wide (the diameter is |4 - 2j|).
    h = 1e-6 * abs(4 - 2j)
    poly = LabelledPolygon((-2 + 0j, 2 + 0j, 2 + 2j, complex(1.5, h),
                            complex(0, -h), complex(-1.5, h), -2 + 2j))
    faces = [((-0.75 + 0j, complex(0, -h), 0.75 + 0j), -1),
             ((-2 + 0j, -1.5 + 0j, -2 + 2j), 1),
             ((1.5 + 0j, 2 + 0j, 2 + 2j), 1),
             ((-0.75 + 0j, 0.75 + 0j, complex(1.5, h), 2 + 2j, -2 + 2j,
               complex(-1.5, h)), 0),
             ((-2 - 2j, 2 - 2j, complex(2, -h), complex(-2, -h)), 0)]
    return poly, faces


@pytest.mark.parametrize("build", [_pentagram, _vertex_on_side,
                                   _collinear_overlap, _pinch, _thin_lens])
def test_sector_probes_reach_every_face(build):
    poly, faces = build()
    probes = geometry._sector_probes(poly)
    k, defined = geometry._windings(poly, probes)
    for face, winding in faces:
        inside = [m for m, p in enumerate(probes)
                  if _strictly_inside(face, p) and defined[m]]
        assert inside, face
        for m in inside:
            assert k[m] == ray_crossing_winding(poly.vertices, probes[m])
            assert k[m] == winding


@pytest.mark.parametrize("build", [_vertex_on_side, _collinear_overlap,
                                   _pinch])
def test_touchings_not_simple(build):
    # The naive oracle sees only proper crossings, so these are explicit.
    poly, _ = build()
    assert not has_nonadjacent_crossing(poly.vertices)
    assert is_simple(poly) is False


# ---------------------------------------------------- the chunk kernel

LITERAL_VERTICES = [
    TRIANGLE_VERTICES, SQUARE_VERTICES, PENTAGON_VERTICES,
    EQUILATERAL.vertices,
    (0j, 2 + 0j, 2 + 1j, 1 + 1j, 1 + 2j, 2j),
    (0j, 2 + 0j, 1 + 1e-9j),
    (0j, 1j, 1 + 1j, 1 + 0j),
    (0j, 10 + 0j, 10 + 10j, 10j),
    (0j, 10 + 10j, 20 + 0j, 10 - 10j),
    (0j, 2 + 2j, 2 + 0j, 2j),
    (0j, 2 + 0j, 1 + 0j),
    # Coincident consecutive vertices: the side data are meaningless, but
    # still the same bits.
    (0j, 1 + 0j, 1 + 0j, 1j),
    (0j, 1 + 0j, 1j, 0j),
    (0j, 1 + 0j, 1 + 1e-13j, 1j),
    (0j, 0j, 1 + 0j, 1 + 0j, 1j),
]


def _shewchuk_grid():
    # The 64-point grid of test_orientation_matrix_matches_exact_predicate.
    tiny = 2.0 ** -53
    grid = tuple(complex(0.5 + i * tiny, 0.5 + j * tiny)
                 for i in range(8) for j in range(8))
    return LabelledPolygon((12 + 12j, 24 + 24j) + grid)


def _near_collinear_octagons(count):
    # Vertices on y = x, each moved off it by up to 3 ulps: most
    # orientations are unsure in floats and go to the exact predicate.
    rng = np.random.default_rng(8)
    polys = []
    for _ in range(count):
        x = rng.uniform(0.25, 4.0, 8)
        y = x + rng.integers(-3, 4, 8) * np.spacing(x)
        polys.append(LabelledPolygon(tuple(map(complex, x, y))))
    return polys


def _kernel(polys):
    # Per polygon of one chunk: the kernel's diameter, side data, first
    # short side, orientation matrix, contacts and coincidence mask.
    w = np.array([poly.vertices for poly in polys])
    sides = geometry._side_pass(w)
    diameter = np.array([d for d, _, _ in sides])
    return [(d, *data, short, o, *contacts)
            for (d, data, short), o, contacts
            in zip(sides, geometry._orientation_matrices(w),
                   geometry._contact_pass(w, diameter))]


def _bitwise(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


def test_chunk_kernel_gives_each_polygon_its_lone_bits(monkeypatch,
                                                      unit_square, bowtie):
    exact = geometry._exact_orientation
    escalated = []
    monkeypatch.setattr(geometry, "_exact_orientation",
                        lambda *a: escalated.append(a) or exact(*a))
    grid = _shewchuk_grid()
    octagons = _near_collinear_octagons(300)
    builds = (_pentagram, _vertex_on_side, _collinear_overlap, _pinch,
              _thin_lens)
    polys = ([grid, cyclic_shift(grid, 5),
              LabelledPolygon(grid.vertices[::-1]), unit_square, bowtie]
             + [LabelledPolygon(w) for w in LITERAL_VERTICES]
             + [build()[0] for build in builds] + octagons)
    chunks = {}
    for poly in polys:
        chunks.setdefault(poly.n, []).append(poly)
    for chunk in chunks.values():
        for poly, got in zip(chunk, _kernel(chunk)):
            want = _kernel([poly])[0]
            assert len(got) == len(want) == 12
            assert all(map(_bitwise, got, want)), poly
    # The octagons reach the exact predicate, and they cross and touch.
    assert len(escalated) > 20 * len(octagons)
    contacts = [LabelledPolygon(p.vertices)._contacts for p in octagons]
    assert sum(c[0].size > 0 for c in contacts) > 250
    assert sum(c[2].size > 0 for c in contacts) > 10


def test_a_short_side_raises_alone_in_its_chunk(hex_large, hex_lens):
    # One chunk of mixed n, filled by one side pass and one contact pass
    # per n: the polygon with a short side raises on first use, as alone,
    # and its mates keep their lone values.
    short = LabelledPolygon((0j, 1 + 0j, 1 + 1e-13j, 1j))
    polys = [LabelledPolygon(p.vertices) for p in (hex_large, hex_lens)]
    polys += [short, _pentagram()[0], LabelledPolygon(SQUARE_VERTICES),
              _vertex_on_side()[0], _collinear_overlap()[0], _pinch()[0]]
    geometry._measure_sides(polys)
    geometry._find_contacts(polys)
    for poly in polys:
        assert {"_measures", "_contacts"} <= poly.__dict__.keys()
        alone = LabelledPolygon(poly.vertices)
        assert _bitwise(poly.diameter, alone.diameter)
        assert all(map(_bitwise, poly._contacts, alone._contacts))
        if poly is short:
            for check in (interior_angles, is_simple):
                with pytest.raises(DegenerateSide,
                                   match="vertices 1 and 2 coincide"):
                    check(poly)
            continue
        assert all(map(_bitwise, poly._sides, alone._sides))
        assert is_simple(poly) == is_simple(alone)
    assert ([is_simple(p) for p in polys if p is not short]
            == [False, False, False, True, False, False, False])


# ---------------------------------------------- immersion screen

def test_screen_square(unit_square):
    rep = check_immersion_necessary(unit_square)
    assert (rep.angles_in_range, rep.angle_sum_ok, rep.winding_nonnegative) \
        == (True, True, True)
    assert rep.ok
    assert rep.turning_number == 1


def test_screen_bowtie(bowtie):
    rep = check_immersion_necessary(bowtie)
    assert not rep.angle_sum_ok
    assert not rep.ok


def test_screen_wrapped_pentagon(pentagon_poly):
    rep = check_immersion_necessary(pentagon_poly)
    assert not rep.angles_in_range
    assert not rep.ok


def test_screen_clockwise_square_fails():
    cw = LabelledPolygon((0j, 1j, 1 + 1j, 1 + 0j))
    rep = check_immersion_necessary(cw)
    assert not rep.ok


def test_screen_measures_angles_once(monkeypatch, hex_large):
    # The turning number comes from the angles the screen has measured.
    calls = []
    measure = geometry.interior_angles
    monkeypatch.setattr(geometry, "interior_angles",
                        lambda poly: calls.append(poly) or measure(poly))
    report = check_immersion_necessary(hex_large)
    assert calls == [hex_large]
    assert report.turning_number == turning_number(hex_large)


def test_screen_points_sampled(unit_square, bowtie, hex_large, hex_lens):
    # The clockwise square stops at its first probe, which has negative
    # winding, and the bowtie at its third.
    cw = LabelledPolygon((0j, 1j, 1 + 1j, 1 + 0j))
    sampled = [check_immersion_necessary(p).points_sampled
               for p in (unit_square, cw, bowtie, hex_large, hex_lens)]
    assert sampled == [8, 1, 3, 20, 20]


# ------------------------------------------------------- witness search

def test_square_has_no_witness(unit_square):
    assert find_multiwound_witness(unit_square) is None


def test_witness_rejects_coincident_consecutive_vertices():
    with pytest.raises(DegenerateSide):
        find_multiwound_witness(LabelledPolygon((0j, 1 + 0j, 1 + 0j, 1j)))


def _line_clearance(poly, p):
    # distance from p to the nearest side-supporting line
    best = math.inf
    for j in range(poly.n):
        a, b = poly.side(j)
        d = b - a
        best = min(best, abs(((p - a) / d).imag) * abs(d))
    return best


@pytest.mark.parametrize("which,frozen", [("large", HEX_WITNESS_LARGE),
                                          ("lens", HEX_WITNESS_LENS)])
def test_hexagon_witnesses(which, frozen, hex_large, hex_lens):
    poly = hex_large if which == "large" else hex_lens
    found = find_multiwound_witness(poly)
    assert found is not None
    for p in (found, frozen):
        assert winding_number(poly, p) >= 2
        assert ray_crossing_winding(poly.vertices, p) == winding_number(poly, p)
        assert _line_clearance(poly, p) > 1e-9 * poly.diameter


def test_witness_search_reuses_the_screen_probes(monkeypatch, hex_large):
    # The screen winds the probe set; the search on the same polygon
    # object builds it no second time and finds what a fresh search finds.
    fresh = find_multiwound_witness(LabelledPolygon(hex_large.vertices))
    poly = LabelledPolygon(hex_large.vertices)
    check_immersion_necessary(poly)
    calls = []
    build = geometry._sector_probes
    monkeypatch.setattr(geometry, "_sector_probes",
                        lambda p: calls.append(p) or build(p))
    assert find_multiwound_witness(poly) == fresh
    assert fresh is not None and calls == []


def test_sector_probes_split_each_crossing_into_four_faces():
    # Sides 0 and 2 of this bowtie-like quadrilateral cross at 1 + 1j; the
    # nearest other side is 1 away, so the probes there sit 1/2 out along
    # the bisectors of the two crossing directions.
    poly = LabelledPolygon((0j, 2 + 2j, 2 + 0j, 2j))
    probes = geometry._sector_probes(poly)
    at_crossing = [p for p in probes
                   if abs(p - (1 + 1j)) == pytest.approx(0.5)]
    assert len(at_crossing) == 4
    assert sorted(ray_crossing_winding(poly.vertices, p)
                  for p in at_crossing) == [-1, 0, 0, 1]


@pytest.mark.parametrize("n,seed,index", [(12, 1, 323), (8, 1, 31),
                                           (8, 1, 299), (8, 2, 82)])
def test_sweep_polygons_certified_by_sector_probes(n, seed, index):
    # The face probes find no witness on these sweep samples; earlier a
    # random search found the last two and nothing found the first two.
    cfg = SweepConfig(n=n, samples=index + 1, seed=seed)
    poly = forward(*moduli_unchart(sample_chart_point(cfg, index)))
    assert not is_simple(poly)
    p = find_multiwound_witness(poly)
    assert p is not None
    assert ray_crossing_winding(poly.vertices, p) >= 2
    assert _line_clearance(poly, p) > 1e-9 * poly.diameter


def test_pentagon_witness(pentagon_poly):
    p = find_multiwound_witness(pentagon_poly)
    assert p is not None
    assert winding_number(pentagon_poly, p) >= 2
    assert ray_crossing_winding(pentagon_poly.vertices, p) >= 2

import math
import warnings

import numpy as np
import pytest

from scpoly import (
    DegenerateSide,
    LabelledPolygon,
    PointOnCurve,
    ValidationError,
    apply_similarity,
    check_immersion_necessary,
    find_multiwound_witness,
    interior_angles,
    is_simple,
    turning_angle_sum,
    turning_number,
    winding_number,
)
from scpoly import geometry

from conftest import HEX_WITNESS_LARGE, HEX_WITNESS_LENS
from oracles import has_nonadjacent_crossing, ray_crossing_winding

EQUILATERAL = LabelledPolygon((0j, 1 + 0j, 0.5 + math.sqrt(3) / 2 * 1j))


def cyclic_shift(poly, k):
    return LabelledPolygon(poly.vertices[k:] + poly.vertices[:k])


# ----------------------------------------------------------- containers

def test_polygon_needs_three_finite_vertices():
    with pytest.raises(ValidationError):
        LabelledPolygon((0j, 1 + 0j))
    with pytest.raises(ValidationError):
        LabelledPolygon((0j, 1 + 0j, complex(math.nan, 0.0)))


def test_polygon_accessors(unit_square):
    assert unit_square.n == 4
    assert unit_square.diameter == pytest.approx(math.sqrt(2.0))
    assert unit_square.side(3) == (1j, 0j)


def test_degenerate_side_detected():
    pinched = LabelledPolygon((0j, 1 + 0j, 1 + 0j, 1j))
    with pytest.raises(DegenerateSide):
        interior_angles(pinched)
    with pytest.raises(DegenerateSide):
        is_simple(pinched)


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


def test_winding_at_vertices_rejected_without_warnings(hex_large):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for v in hex_large.vertices:
            with pytest.raises(PointOnCurve):
                winding_number(hex_large, v)
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
        probes = geometry._face_sample_points(poly)
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


def test_screen_points_sampled(unit_square, bowtie, hex_large, hex_lens):
    # The clockwise square and the bowtie stop at their first probe, which
    # has negative winding.
    cw = LabelledPolygon((0j, 1j, 1 + 1j, 1 + 0j))
    sampled = [check_immersion_necessary(p).points_sampled
               for p in (unit_square, cw, bowtie, hex_large, hex_lens)]
    assert sampled == [67, 1, 1, 171, 182]


# ------------------------------------------------------- witness search

def test_square_has_no_witness(unit_square):
    assert find_multiwound_witness(unit_square, 10_000) is None


def test_witness_budget_validated(unit_square):
    with pytest.raises(ValidationError):
        find_multiwound_witness(unit_square, 0)


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
    found = find_multiwound_witness(poly, 20_000)
    assert found is not None
    for p in (found, frozen):
        assert winding_number(poly, p) >= 2
        assert ray_crossing_winding(poly.vertices, p) == winding_number(poly, p)
        assert _line_clearance(poly, p) > 1e-9 * poly.diameter


def test_stratified_witness_stream_frozen(monkeypatch, hex_large,
                                          pentagon_poly):
    # Cut the targeted probes to one point so the witness must come from
    # the fixed-seed stratified grids; values measured once and frozen.
    full = geometry._face_sample_points
    monkeypatch.setattr(geometry, "_face_sample_points",
                        lambda poly: full(poly)[:1])
    found = find_multiwound_witness(hex_large, 20_000)
    assert found == pytest.approx(-11.167871944147052 + 0.5819121362227122j,
                                  abs=1e-9 * hex_large.diameter)
    assert find_multiwound_witness(hex_large, 40) is None
    found = find_multiwound_witness(pentagon_poly, 40)
    assert found == pytest.approx(-0.8652129778260756 + 0.4293202503678804j,
                                  abs=1e-9 * pentagon_poly.diameter)


def test_pentagon_witness(pentagon_poly):
    p = find_multiwound_witness(pentagon_poly, 20_000)
    assert p is not None
    assert winding_number(pentagon_poly, p) >= 2
    assert ray_crossing_winding(pentagon_poly.vertices, p) >= 2

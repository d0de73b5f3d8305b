import cmath
import math

import numpy as np
import pytest

import scpoly.render as render
from scpoly import (
    INFINITY,
    ChartPoint,
    ExponentVector,
    InvalidExponent,
    LabelledPolygon,
    NoConvergence,
    NotIncreasing,
    NotNormalized,
    Prevertices,
    SCMap,
    SweepConfig,
    ValidationError,
    ZeroScale,
    apply_similarity,
    evaluate,
    forward,
    forward_extended,
    integrate_sc,
    integrate_to_infinity,
    interior_angles,
    moduli_unchart,
    sample_chart_point,
    turning_angle_sum,
)
from scpoly.quadrature import integrate_finite_legs
from scpoly.scmap import BASE_POINT, _bare_vertices, _tail_waypoint

from conftest import (
    BETA_THIRD,
    PENTAGON_ALPHAS,
    PENTAGON_SIDES,
    PENTAGON_VERTICES,
    SQUARE_SIDE,
    SQUARE_VERTICES,
    TRIANGLE_VERTICES,
    sup_dist,
)


# ---------------------------------------------------------------- types

def test_exponent_sum_enforced():
    with pytest.raises(InvalidExponent):
        ExponentVector((0.4, 0.7, 0.5, 0.2, 0.7, 0.5))  # sums to 3, needs 4


def test_exponent_range_standard_mode():
    with pytest.raises(InvalidExponent):
        ExponentVector((2.2, 0.2, 0.2, 0.2, 0.2))
    with pytest.raises(InvalidExponent):
        ExponentVector((-0.1, 0.6, 0.5))


def test_extended_flag_admits_large_exponents():
    exp = ExponentVector(PENTAGON_ALPHAS, extended=True)
    assert exp.extended
    with pytest.raises(InvalidExponent):
        # nonpositive stays illegal even with the flag
        ExponentVector((-0.2, 1.2, 1.0, 0.5, 0.5), extended=True)


def test_exponent_vector_needs_three_entries():
    with pytest.raises(ValidationError):
        ExponentVector((1.0, 1.0))


def test_prevertex_normalization():
    with pytest.raises(NotNormalized):
        Prevertices((0.0, 1.0))
    with pytest.raises(NotIncreasing):
        Prevertices((-1.0, 0.0, 0.0))
    with pytest.raises(ValidationError):
        Prevertices((-1.0,))
    assert Prevertices((-1.0, 0.0, 2.5)).n == 4


def test_scmap_validation(square_map):
    with pytest.raises(ZeroScale):
        SCMap(square_map.prevertices, square_map.exponents, A=0j)
    with pytest.raises(ValidationError):
        SCMap(Prevertices((-1.0, 0.0)), ExponentVector((0.5,) * 4))
    for A, B in ((complex(math.nan, 0.0), 0j), (1.0, complex(0.0, math.inf))):
        with pytest.raises(ValidationError):
            SCMap(square_map.prevertices, square_map.exponents, A=A, B=B)
    assert square_map.mode == "standard"
    pent = SCMap(Prevertices((-1.0, 0.0, 1.0, 2.0)),
                 ExponentVector(PENTAGON_ALPHAS, extended=True))
    assert pent.mode == "extended"


# ------------------------------------------------------------- evaluate

def test_base_point_maps_to_offset(square_map):
    m = SCMap(square_map.prevertices, square_map.exponents,
              A=2.0 - 1.0j, B=3.5 + 0.25j)
    assert evaluate(m, 1j) == m.B


def test_triangle_side_is_beta(triangle_map):
    side = evaluate(triangle_map, 0.0) - evaluate(triangle_map, -1.0)
    assert abs(side) == pytest.approx(BETA_THIRD, rel=1e-9)


def test_images_of_a_prevertex_gap_are_collinear(square_map):
    pts = [evaluate(square_map, complex(x)) for x in (0.25, 0.5, 0.75)]
    ratio = (pts[1] - pts[0]) / (pts[2] - pts[0])
    assert abs(ratio.imag) < 1e-9


def test_infinity_sentinel(triangle_map):
    w_inf = evaluate(triangle_map, complex(math.inf, 0.0))
    assert cmath.isfinite(w_inf)
    third = w_inf - evaluate(triangle_map, 0.0)
    assert abs(third) == pytest.approx(BETA_THIRD, rel=1e-9)


def test_evaluate_batch_matches_scalar_calls(monkeypatch):
    # The render grid of a sampled map, as grid_curves hands it over, plus
    # a prevertex, the base point and infinity twice: one call with the
    # array against one call per point.
    pt = sample_chart_point(SweepConfig(n=8, samples=1, seed=3), 0)
    m = SCMap(*moduli_unchart(pt), A=0.8 - 1.1j, B=2.5 + 1.0j)
    grid = []
    monkeypatch.setattr(render, "evaluate", lambda m, z, tol:
                        grid.append(z) or evaluate(m, z, tol))
    render.grid_curves(m, 4)
    points = np.append(grid, [m.prevertices.finite_points[2], BASE_POINT,
                              INFINITY, INFINITY])
    batch = evaluate(m, points)
    assert batch.shape == points.shape
    for z, w in zip(points, batch):
        scalar = evaluate(m, z)
        assert type(scalar) is complex
        assert abs(w - scalar) <= 1e-14 * abs(scalar)
    assert evaluate(m, points.reshape(2, -1)).shape == (2, points.size // 2)


def test_constants_act_as_similarity(square_map):
    m = SCMap(square_map.prevertices, square_map.exponents,
              A=1.5 + 0.5j, B=-2j)
    for z in (0.5j, -1.0, 2.0 + 1.0j):
        assert evaluate(m, z) == pytest.approx(
            m.A * evaluate(square_map, z) + m.B, rel=1e-12, abs=1e-12)


# -------------------------------------------------------------- forward

def test_forward_equilateral_triangle(triangle_map):
    poly = forward(triangle_map.prevertices, triangle_map.exponents)
    assert sup_dist(poly.vertices, TRIANGLE_VERTICES) < 1e-9
    sides = [abs(poly.vertices[(j + 1) % 3] - poly.vertices[j]) for j in range(3)]
    assert max(sides) - min(sides) < 1e-8


def test_forward_square(square_map):
    poly = forward(square_map.prevertices, square_map.exponents)
    assert sup_dist(poly.vertices, SQUARE_VERTICES) < 1e-9
    for j in range(4):
        side = poly.vertices[(j + 1) % 4] - poly.vertices[j]
        assert abs(side) == pytest.approx(SQUARE_SIDE, rel=1e-8)
    assert interior_angles(poly).values == pytest.approx([math.pi / 2] * 4,
                                                         abs=1e-8)


@pytest.mark.parametrize("tol", [-1.0, math.nan, math.inf])
def test_forward_rejects_bad_tol(square_map, tol):
    pre, exp = square_map.prevertices, square_map.exponents
    with pytest.raises(ValidationError):
        forward(pre, exp, tol)
    with pytest.raises(ValidationError):
        forward_extended(pre, exp, tol)
    with pytest.raises(ValidationError):
        evaluate(square_map, np.array([], dtype=complex), tol)


def test_forward_rejects_extended_exponents():
    exp = ExponentVector(PENTAGON_ALPHAS, extended=True)
    with pytest.raises(ValidationError):
        forward(Prevertices((-1.0, 0.0, 1.0, 2.0)), exp)


def test_forward_angle_sum_and_turning():
    for n in (4, 5, 6, 7):
        pt = sample_chart_point(SweepConfig(n=n, samples=1, seed=31), 0)
        poly = forward(*moduli_unchart(pt))
        angles = interior_angles(poly)
        assert math.fsum(angles.values) == pytest.approx((n - 2) * math.pi,
                                                         abs=1e-8)
        assert turning_angle_sum(poly) == pytest.approx(2 * math.pi, abs=1e-8)


def test_forward_angles_match_exponents():
    alphas = (0.4, 0.7, 0.5, 1.2, 0.7, 0.5)
    poly = forward(Prevertices((-1.0, 0.0, 1.0, 2.0, 3.0)),
                   ExponentVector(alphas))
    worst = max(abs(t - a * math.pi)
                for t, a in zip(interior_angles(poly).values, alphas))
    assert worst < 1e-8


def test_forward_survives_crowded_prevertices():
    # sample 1148 of the (n=6, seed 0) sweep: three prevertices within 0.13
    # of each other make two sides ~1e4 times smaller than the diameter,
    # which once tripped the angle verification at default tolerance
    pt = sample_chart_point(SweepConfig(n=6, samples=2000, seed=0), 1148)
    poly = forward(*moduli_unchart(pt))
    worst = max(abs(t - a * math.pi)
                for t, a in zip(interior_angles(poly).values,
                                moduli_unchart(pt)[1].alphas))
    assert worst < 1e-9


def test_bare_sides_match_single_leg_integrals():
    # Sample 4 of the n = 12, box 6 stream (seed 1): its two closest
    # prevertices are 3.8e-6 of the prevertex span apart. Each side must
    # be the integral over its leg alone, up to the rounding of the
    # running vertex sums.
    cfg = SweepConfig(n=12, samples=200, seed=1, chart_box=6.0)
    pre, exp = moduli_unchart(sample_chart_point(cfg, 4))
    m, zs, tol = SCMap(pre, exp), pre.finite_points, 1e-12
    w = _bare_vertices(pre, exp, tol)
    R = _tail_waypoint(zs)
    legs = ([integrate_sc(m, BASE_POINT, zs[0], tol)]
            + [integrate_sc(m, a, b, tol) for a, b in zip(zs, zs[1:])]
            + [integrate_sc(m, zs[-1], R, tol)
               + integrate_to_infinity(m, R, tol)])
    sides = [w[0]] + [b - a for a, b in zip(w, w[1:])]
    diameter = LabelledPolygon(tuple(w)).diameter
    for side, leg in zip(sides, legs):
        assert abs(side - leg) <= 1e-13 * abs(leg) + 1e-15 * diameter


def test_forward_never_waits_on_derivative_rows():
    # Sample 125 of the n = 8, box 6 stream (seed 5): a derivative row of
    # its finite legs stalls at 3.4e-11 relative, so settling the sides
    # together with their rows fails; forward needs the values only.
    cfg = SweepConfig(n=8, samples=150, seed=5, chart_box=6.0)
    pre, exp = moduli_unchart(sample_chart_point(cfg, 125))
    with pytest.raises(NoConvergence):
        integrate_finite_legs(pre.finite_points, exp.alphas[:-1], 1e-12)
    assert forward(pre, exp).n == 8


def test_forward_moves_continuously():
    z = (0.3, -0.4, 0.1)
    a = (0.2, 0.6, -0.2, 0.4, 0.1)
    ref = forward(*moduli_unchart(ChartPoint(6, z, a)))
    ratios = []
    for eps in (1e-4, 2e-5):
        bumped = ChartPoint(6, (z[0] + eps,) + z[1:], a)
        moved = forward(*moduli_unchart(bumped))
        ratios.append(sup_dist(moved.vertices, ref.vertices) / eps)
    # displacement scales linearly: the quotient stays bounded, no blowup
    assert ratios[1] < 10 * ratios[0] + 1.0


# ----------------------------------------------------- forward_extended

def test_extended_pentagon_frozen_vertices(pentagon_poly):
    assert sup_dist(pentagon_poly.vertices, PENTAGON_VERTICES) < 1e-9
    sides = [abs(pentagon_poly.vertices[(j + 1) % 5] - pentagon_poly.vertices[j])
             for j in range(5)]
    assert sides == pytest.approx(PENTAGON_SIDES, rel=1e-9)
    angles = interior_angles(pentagon_poly)
    # measured clockwise angles wrap: every vertex reads pi/5
    assert angles.values == pytest.approx([0.2 * math.pi] * 5, abs=1e-9)


def test_standard_exponents_same_through_both_entry_points(square_map):
    a = forward(square_map.prevertices, square_map.exponents)
    b = forward_extended(square_map.prevertices, square_map.exponents)
    assert a == b


# ------------------------------------------------------ apply_similarity

def test_similarity_identity(unit_square):
    assert apply_similarity(unit_square, 1.0, 0.0) == unit_square


def test_similarity_rotation_preserves_angles(unit_square):
    rotated = apply_similarity(unit_square, 2j, 0.0)
    assert abs(rotated.vertices[1] - rotated.vertices[0]) == pytest.approx(2.0)
    assert interior_angles(rotated).values == pytest.approx(
        interior_angles(unit_square).values)


def test_similarity_zero_scale_rejected(unit_square):
    with pytest.raises(ZeroScale):
        apply_similarity(unit_square, 0.0, 1.0 + 1.0j)


def test_forward_affine_equivariance(square_map):
    bare = forward(square_map.prevertices, square_map.exponents)
    m = SCMap(square_map.prevertices, square_map.exponents, A=0.5 - 2j, B=7.0)
    direct = tuple(evaluate(m, z) for z in (-1.0, 0.0, 1.0))
    shifted = apply_similarity(bare, m.A, m.B)
    assert sup_dist(direct, shifted.vertices[:3]) < 1e-9 * bare.diameter

import cmath
import math

import numpy as np
import pytest

import scpoly.quadrature as quadrature
import scpoly.render as render
import scpoly.scmap as scmap
from scpoly import (
    INFINITY,
    ChartPoint,
    ExponentVector,
    InvalidExponent,
    LabelledPolygon,
    NotIncreasing,
    NotNormalized,
    NumericalError,
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
from scpoly import check_immersion_necessary, geometry
from scpoly.geometry import ImmersionReport
from scpoly.quadrature import integrate_finite_legs
from scpoly.scmap import (BASE_POINT, _bare_vertices, _tail_waypoint,
                          _worst_angle_deviation)

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


def test_exponent_without_jacobi_rule_rejected():
    # alpha - 1 is -1 in floats below 2^-53: the integrand's power has no
    # Gauss-Jacobi rule, so the vector is rejected where it is built.
    with pytest.raises(InvalidExponent, match="alpha_1"):
        ExponentVector((3.7e-17, 0.6666666666666667, 0.3333333333333332))
    with pytest.raises(InvalidExponent, match="alpha_2"):
        ExponentVector((0.5, 2.0 ** -54, 0.5 - 2.0 ** -54))
    assert ExponentVector((2.0 ** -53, 0.5, 0.5 - 2.0 ** -53)).n == 3


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


def test_infinity_sentinel_has_no_nan_part(square_map):
    # complex(inf, nan) used to give the image of infinity.
    w_inf = evaluate(square_map, INFINITY)
    for z in (complex(math.inf, math.nan), complex(math.nan, -math.inf)):
        with pytest.raises(ValidationError, match="infinity sentinel"):
            evaluate(square_map, z)
    with pytest.raises(ValidationError):
        evaluate(square_map, np.array([INFINITY, complex(math.inf, math.nan)]))
    for z in (complex(-math.inf, 0.0), complex(1.0, math.inf),
              complex(math.inf, -math.inf)):
        assert evaluate(square_map, z) == w_inf


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
    w, = _bare_vertices([(pre, exp)], tol)
    R = _tail_waypoint(zs)
    legs = ([integrate_sc(m, BASE_POINT, zs[0], tol)]
            + [integrate_sc(m, a, b, tol) for a, b in zip(zs, zs[1:])]
            + [integrate_sc(m, zs[-1], R, tol)
               + integrate_to_infinity(m, R, tol)])
    sides = [w[0]] + [b - a for a, b in zip(w, w[1:])]
    diameter = LabelledPolygon(tuple(w)).diameter
    for side, leg in zip(sides, legs):
        assert abs(side - leg) <= 1e-13 * abs(leg) + 1e-15 * diameter


@pytest.mark.parametrize("n", [6, 8, 12])
def test_bare_vertices_make_three_integrals(monkeypatch, n):
    # The upper legs, one axis batch of the n - 2 sides and the waypoint
    # leg of every map, and the tails: three refinement loops whatever n
    # is and however many maps share them.
    refined = []
    refine = scmap._refine

    def counted_refine(kind, p, *args, **kwargs):
        out = refine(kind, p, *args, **kwargs)
        refined.append((kind, out[0].shape[0]))
        return out

    monkeypatch.setattr(scmap, "_refine", counted_refine)
    cfg = SweepConfig(n=n, samples=4, seed=3)
    points = [moduli_unchart(sample_chart_point(cfg, i)) for i in range(4)]
    for count in (1, 4):
        refined.clear()
        _bare_vertices(points[:count], 1e-12)
        assert refined == [("upper", count), ("axis", count * (n - 1)),
                           ("tail", count)]


def test_a_failed_rule_fails_only_the_maps_that_need_it(monkeypatch):
    # The rule absorbing u^(alpha_n - 1) at the start of map 2's tail
    # fails its weight-sum check, which fails the whole tail loop: each
    # map is then integrated alone, so map 2 fails as its lone forward
    # does, and the maps that shared its passes keep their bits.
    cfg = SweepConfig(n=6, samples=4, seed=3)
    points = [moduli_unchart(sample_chart_point(cfg, i)) for i in range(4)]
    lone = [forward(*point) for point in points]
    bad = (0.0, points[2][1].alphas[-1] - 1.0)
    build = quadrature._golub_welsch

    def failing(order, pairs):
        if bad in pairs:
            raise NumericalError("Jacobi rule weight sum off")
        return build(order, pairs)

    monkeypatch.setattr(quadrature, "_golub_welsch", failing)
    monkeypatch.setattr(quadrature, "_rules", {})
    batch = scmap._forward_many(points)
    assert type(batch[2]) is NumericalError
    assert "weight sum off" in str(batch[2])
    for i in (0, 1, 3):
        assert batch[i].vertices == lone[i].vertices
    with pytest.raises(NumericalError, match="weight sum off") as info:
        forward(*points[2])
    assert type(info.value) is NumericalError


def test_overflowing_tail_waypoint_fails_numerically():
    # A last prevertex above about 9e307 puts the tail waypoint past the
    # floats: a failure of the computation, not of the input. In a batch
    # only that map fails; the others keep the bits of their lone forward.
    far = moduli_unchart(ChartPoint(4, (709.5,), (0.0,) * 3))
    with pytest.raises(NumericalError, match="waypoint"):
        forward(*far)
    square = SCMap(Prevertices((-1.0, 0.0, 1.5e308)),
                   ExponentVector((0.5,) * 4))
    with pytest.raises(NumericalError, match="waypoint"):
        evaluate(square, INFINITY)
    cfg = SweepConfig(n=4, samples=3, seed=3)
    points = [moduli_unchart(sample_chart_point(cfg, i)) for i in range(3)]
    batch = scmap._forward_many([points[0], far, *points[1:]])
    assert type(batch[1]) is NumericalError
    for point, got in zip(points, batch[:1] + batch[2:]):
        assert got.vertices == forward(*point).vertices


def test_computed_polygon_beyond_floats_fails_numerically():
    # Vertices whose extent overflows are a failure of the computation,
    # counted as such, as coincident ones are.
    exp = ExponentVector((1.0 / 3.0,) * 3)
    got = scmap._measured(exp, [-1e308 + 0j, 1e308 + 0j, 1e308j])
    assert type(got) is NumericalError
    assert "extent" in str(got)


def test_forward_never_waits_on_derivative_rows():
    # Sample 125 of the n = 8, box 6 stream (seed 5): a derivative row of
    # its finite legs would stall at 3.4e-11 relative if it had to settle
    # on its own. Legs settle on their values, so the rows ride along, the
    # values are the ones forward's sides get, and forward goes through.
    cfg = SweepConfig(n=8, samples=150, seed=5, chart_box=6.0)
    pre, exp = moduli_unchart(sample_chart_point(cfg, 125))
    zs = pre.finite_points
    values, derivs = integrate_finite_legs(zs, exp.alphas[:-1], 1e-12)
    assert np.all(np.isfinite(derivs))
    m = SCMap(pre, exp)
    sides = np.array([integrate_sc(m, a, b, 1e-12)
                      for a, b in zip(zs, zs[1:])])
    assert np.all(np.abs(values - sides) <= 1e-14 * np.abs(sides))
    assert forward(pre, exp).n == 8


@pytest.mark.parametrize("n, seed, index", [(6, 1, 130), (8, 3, 14)])
def test_gate_passes_are_never_retightened_into_failures(n, seed, index):
    # Box 6 samples whose first pass already meets the angle gate (at
    # 8.0 and 6.2 times tol): retightening them stalled in the quadrature
    # (NoConvergence) or moved an angle past the gate (AngleMismatch).
    cfg = SweepConfig(n=n, samples=150, seed=seed, chart_box=6.0)
    pre, exp = moduli_unchart(sample_chart_point(cfg, index))
    poly = forward(pre, exp)
    assert _worst_angle_deviation(poly, exp)[0] <= 10.0 * 1e-10


def test_gate_pass_integrates_once(monkeypatch):
    # Sample 159 of the n = 16, box 3 stream (seed 2): its first pass is
    # off by between 5 and 10 times tol, which the gate accepts as it is.
    calls = []
    bare = scmap._bare_vertices

    def counted(*args):
        calls.append(args)
        return bare(*args)

    monkeypatch.setattr(scmap, "_bare_vertices", counted)
    cfg = SweepConfig(n=16, samples=300, seed=2)
    pre, exp = moduli_unchart(sample_chart_point(cfg, 159))
    poly = forward(pre, exp)
    assert len(calls) == 1
    worst = _worst_angle_deviation(poly, exp)[0]
    assert 5.0 * 1e-10 < worst <= 10.0 * 1e-10


def _stream_points(cfg, indices):
    return [moduli_unchart(sample_chart_point(cfg, i)) for i in indices]


def _benchmark_sweep_points():
    # The benchmark's sweep inputs at run seed 0: call k sweeps 8 samples
    # of n = 6, 8, 12 in turn at box 3, its seed drawn from (0, k).
    points = {6: [], 8: [], 12: []}
    for k in range(350):
        n = (6, 8, 12)[k % 3]
        seed = int(np.random.SeedSequence([0, k]).generate_state(1)[0])
        points[n] += _stream_points(SweepConfig(n, 8, seed), range(8))
    return list(points.values())


def test_jordan_shortcut_agrees_with_the_full_screen():
    # Every polygon that passes the angle gate, on the box-3 benchmark
    # inputs and the box-6 streams: the shortcut's verdict is the full
    # screen's, and it spares most polygons their probes.
    streams = _benchmark_sweep_points() + [
        _stream_points(SweepConfig(n, 150, seed, chart_box=6.0), range(150))
        for n in (6, 8, 12) for seed in (1, 3)]
    polygons = [poly for points in streams
                for start in range(0, len(points), 64)
                for poly in scmap._checked_polygons(
                    points[start:start + 64], 1e-10)
                if isinstance(poly, LabelledPolygon)]
    shortcut = 0
    for poly in polygons:
        jordan = geometry._jordan_immersed(poly)
        full = check_immersion_necessary(LabelledPolygon(poly.vertices)).ok
        assert (jordan or full) == full
        shortcut += jordan
    assert len(polygons) > 3500
    assert shortcut > 0.9 * len(polygons)


def test_forward_winds_probes_only_off_jordan_curves():
    # Samples 30 (simple) and 31 (not simple) of the n = 8, box 3 stream
    # of seed 1, in one batch.
    cfg = SweepConfig(n=8, samples=32, seed=1)
    simple, crossed = scmap._forward_many(_stream_points(cfg, (30, 31)))
    assert geometry.is_simple(simple) and not geometry.is_simple(crossed)
    assert "_probes" not in simple.__dict__
    assert "_probes" in crossed.__dict__


def test_clockwise_and_touching_polygons_take_the_full_screen(monkeypatch):
    square = LabelledPolygon(SQUARE_VERTICES)
    clockwise = LabelledPolygon(SQUARE_VERTICES[::-1])
    # A square notched from the top down to its bottom side, which vertex
    # 4 touches: not simple, but immersed.
    notched = LabelledPolygon((0j, 4 + 0j, 4 + 4j, 3 + 4j, 2 + 0j, 1 + 4j,
                               4j))
    assert not geometry.is_simple(notched)
    assert check_immersion_necessary(notched).ok
    polygons = [square, clockwise, notched]
    monkeypatch.setattr(scmap, "_checked_polygons",
                        lambda points, tol: list(polygons))
    screened = []
    full = scmap.check_immersion_necessary
    monkeypatch.setattr(scmap, "check_immersion_necessary",
                        lambda poly: screened.append(poly) or full(poly))
    point = (Prevertices((-1.0, 0.0, 1.0)), ExponentVector((0.5,) * 4))
    out = scmap._forward_many([point] * 3)
    assert screened == [clockwise, notched]
    assert out[0] is square and out[2] is notched
    assert type(out[1]) is NumericalError
    assert "failed the immersion screen" in str(out[1])


def test_forward_reports_a_failed_screen(monkeypatch):
    # Samples 28 to 31 of the n = 8, box 3 stream of seed 1; 31 is not
    # simple. A screen that fails every polygon it sees fails only that
    # one: the Jordan curves never reach it and keep their lone bits.
    cfg = SweepConfig(n=8, samples=32, seed=1)
    points = _stream_points(cfg, range(28, 32))
    lone = [forward(*point) for point in points]
    assert [geometry.is_simple(p) for p in lone] == [True] * 3 + [False]
    failing = ImmersionReport(True, True, False, 1, 1)
    monkeypatch.setattr(scmap, "check_immersion_necessary",
                        lambda poly: failing)
    batch = scmap._forward_many(points)
    assert type(batch[3]) is NumericalError
    assert "failed the immersion screen" in str(batch[3])
    for got, alone in zip(batch[:3], lone):
        assert got.vertices == alone.vertices


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

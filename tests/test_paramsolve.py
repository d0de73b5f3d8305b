import math

import numpy as np
import pytest

from scpoly import (
    ChartPoint,
    DegenerateSide,
    ExponentVector,
    LabelledPolygon,
    NotImmersedInput,
    Prevertices,
    SolveOptions,
    SweepConfig,
    ValidationError,
    apply_similarity,
    extract_exponents,
    fit_affine_constants,
    forward,
    moduli_chart,
    moduli_unchart,
    sample_chart_point,
    solve_parameter_problem,
)

from scpoly.paramsolve import _MAX_STEP, _log_residual, least_squares

from conftest import sup_dist


def chart_error(pt_a: ChartPoint, pt_b: ChartPoint) -> float:
    za, zb = np.asarray(pt_a.z_coords), np.asarray(pt_b.z_coords)
    aa, ab = np.asarray(pt_a.a_coords), np.asarray(pt_b.a_coords)
    return max(float(np.max(np.abs(za - zb), initial=0.0)),
               float(np.max(np.abs(aa - ab))))


# ----------------------------------------------------- extract_exponents

def test_extract_square_and_triangle(unit_square):
    assert extract_exponents(unit_square).alphas == pytest.approx((0.5,) * 4,
                                                                  abs=1e-12)
    tri = LabelledPolygon((0j, 1 + 0j, 0.5 + math.sqrt(3) / 2 * 1j))
    assert extract_exponents(tri).alphas == pytest.approx((1 / 3,) * 3,
                                                          abs=1e-12)


def test_extract_sums_exactly():
    poly = forward(*moduli_unchart(
        ChartPoint(6, (0.4, -0.3, 0.8), (1.0, -0.5, 0.25, 0.7, -1.1))))
    exp = extract_exponents(poly)
    assert math.fsum(exp.alphas) == 4.0


def test_extract_recovers_forward_exponents():
    pt = sample_chart_point(SweepConfig(n=7, samples=1, seed=5), 0)
    pre, exp = moduli_unchart(pt)
    got = extract_exponents(forward(pre, exp))
    assert got.alphas == pytest.approx(exp.alphas, abs=1e-8)


def test_extract_rejects_bowtie(bowtie):
    with pytest.raises(NotImmersedInput):
        extract_exponents(bowtie)


def test_extract_rejects_straight_vertex():
    sliver = LabelledPolygon((0j, 2 + 0j, 1 + 1e-9j))
    with pytest.raises(NotImmersedInput):
        extract_exponents(sliver)


def test_extract_rejects_wrapped_pentagon(pentagon_poly):
    # measured angle sum is pi, not 3*pi: the data cannot be immersed
    with pytest.raises(NotImmersedInput):
        extract_exponents(pentagon_poly)


# ---------------------------------------------------------- _log_residual

def residual(g, exp, target):
    """The solver's residual at log gaps g against the target's sides."""
    t = np.abs(np.diff(np.asarray(target.vertices[:-1])))
    return _log_residual(np.asarray(g, dtype=float), exp,
                         np.log(t[1:] / t[0]), SolveOptions.quadrature_tol)[0]


def test_residual_empty_for_triangle():
    tri = LabelledPolygon((0j, 1 + 0j, 0.5 + math.sqrt(3) / 2 * 1j))
    r = residual((), extract_exponents(tri), tri)
    assert len(r) == 0


def test_residual_vanishes_on_consistent_data():
    pt = sample_chart_point(SweepConfig(n=6, samples=1, seed=9), 0)
    pre, exp = moduli_unchart(pt)
    poly = forward(pre, exp)
    r = residual(pt.z_coords, exp, poly)
    assert np.max(np.abs(r)) <= 1e-9


def test_residual_square_scan_single_zero(square_map):
    """1-D scan in the quadrilateral's only unknown.

    The residual log(s_2/s_1) - log(t_2/t_1) is continuous in the gap
    coordinate and crosses zero exactly once, at the symmetric prevertex
    placement g = 0.
    """
    target = forward(square_map.prevertices, square_map.exponents)
    exp = square_map.exponents
    grid = np.linspace(-2.0, 2.0, 41)
    vals = [residual((g,), exp, target)[0] for g in grid]
    zeros = [g for g, v in zip(grid, vals) if v == 0.0]
    assert zeros == [0.0]
    assert all(v < 0.0 for g, v in zip(grid, vals) if g < 0)
    assert all(v > 0.0 for g, v in zip(grid, vals) if g > 0)


@pytest.mark.parametrize("n,seed", [(5, 21), (6, 9), (8, 42)])
def test_exact_jacobian_matches_difference_quotients(n, seed):
    # The solver's own Jacobian of the log side ratios, away from the
    # solution, against h = 1e-4 central differences of the same residual.
    pt = sample_chart_point(SweepConfig(n=n, samples=1, seed=seed), 0)
    pre, exp = moduli_unchart(pt)
    target = forward(pre, exp)
    sides = np.abs(np.diff(np.asarray(target.vertices[:-1])))
    log_ratio_t = np.log(sides[1:] / sides[0])
    g = np.asarray(pt.z_coords) + np.linspace(0.3, -0.2, n - 3)
    tol = SolveOptions.quadrature_tol
    r, J = _log_residual(g, exp, log_ratio_t, tol)
    assert np.max(np.abs(r)) > 1e-3
    h = 1e-4
    cols = []
    for k in range(n - 3):
        e = np.zeros(n - 3)
        e[k] = h
        up = _log_residual(g + e, exp, log_ratio_t, tol)[0]
        down = _log_residual(g - e, exp, log_ratio_t, tol)[0]
        cols.append((up - down) / (2 * h))
    err = np.max(np.abs(J - np.column_stack(cols)))
    assert err <= 1e-6 * np.max(np.abs(J))

    # Beyond 700, NaN, and a gap that vanishes against its position.
    for k, v in ((-1, 701.0), (0, math.nan), (-1, -700.0)):
        walled = g.copy()
        walled[k] = v
        r, J = _log_residual(walled, exp, log_ratio_t, tol)
        assert np.all(r == 1e8)
        assert J.shape == (n - 3, n - 3)
        assert np.all(np.isfinite(J)) and not J.any()


# --------------------------------------------------- fit_affine_constants

def test_fit_identity(unit_square):
    A, B = fit_affine_constants(unit_square.vertices, unit_square)
    assert A == pytest.approx(1.0)
    assert B == pytest.approx(0.0, abs=1e-15)


def test_fit_exact_linear_recovery(unit_square):
    target = apply_similarity(unit_square, 2.0, 3.0 + 4.0j)
    A, B = fit_affine_constants(unit_square.vertices, target)
    assert A == pytest.approx(2.0)
    assert B == pytest.approx(3.0 + 4.0j)


def test_fit_degenerate_bare_side(unit_square):
    with pytest.raises(DegenerateSide):
        fit_affine_constants((1 + 0j, 1 + 0j, 2j, 3j), unit_square)


# ---------------------------------------------------------- SolveOptions

def test_options_validation():
    for bad in (0, 2.5, 200.0, True):
        with pytest.raises(ValidationError):
            SolveOptions(max_iterations=bad)
    assert SolveOptions(max_iterations=np.int64(3)).max_iterations == 3
    with pytest.raises(ValidationError):
        SolveOptions(residual_tol=-1e-10)
    with pytest.raises(ValidationError):
        SolveOptions(residual_tol=1e-12, quadrature_tol=1e-11)
    # Every residual would pass an infinite tolerance: all solves converged.
    with pytest.raises(ValidationError):
        SolveOptions(residual_tol=math.inf)
    # Tolerances are real numbers: True is not 1.0, nor "1e-10" 1e-10.
    for bad in (True, "1e-10", 1e-10j):
        with pytest.raises(ValidationError):
            SolveOptions(residual_tol=bad)
        with pytest.raises(ValidationError):
            SolveOptions(quadrature_tol=bad)


# ------------------------------------------------- solve_parameter_problem

def test_triangle_solves_without_iterating():
    tri = LabelledPolygon((0j, 1 + 0j, 0.5 + math.sqrt(3) / 2 * 1j))
    m, rep = solve_parameter_problem(tri)
    assert rep.converged
    assert rep.iterations == 0
    assert rep.final_residual_norm == 0.0
    assert m.prevertices.finite_points == (-1.0, 0.0)
    assert rep.reconstruction_error < 1e-10


def test_square_solve(unit_square):
    m, rep = solve_parameter_problem(unit_square)
    assert rep.converged
    assert m.prevertices.finite_points[2] == pytest.approx(1.0, abs=1e-7)
    assert m.exponents.alphas == pytest.approx((0.5,) * 4, abs=1e-10)
    # reconstruction: apply the fitted constants to a fresh forward pass
    bare = forward(m.prevertices, m.exponents)
    rebuilt = apply_similarity(bare, m.A, m.B)
    assert sup_dist(rebuilt.vertices, unit_square.vertices) \
        <= 1e-7 * unit_square.diameter


def test_round_trip_through_chart():
    pt = sample_chart_point(SweepConfig(n=6, samples=1, seed=77), 0)
    poly = forward(*moduli_unchart(pt))
    m, rep = solve_parameter_problem(poly)
    assert rep.converged
    assert chart_error(moduli_chart(m), pt) < 1e-6
    assert rep.reconstruction_error <= 1e-6


def test_similarity_changes_only_constants():
    pt = sample_chart_point(SweepConfig(n=5, samples=1, seed=101), 0)
    poly = forward(*moduli_unchart(pt))
    m1, _ = solve_parameter_problem(poly)
    m2, _ = solve_parameter_problem(apply_similarity(poly, 1.3 - 0.6j, 2 + 9j))
    assert m2.prevertices.finite_points == pytest.approx(
        m1.prevertices.finite_points, abs=1e-8)
    assert m2.exponents.alphas == pytest.approx(m1.exponents.alphas, abs=1e-8)
    assert abs(m2.A - m1.A * (1.3 - 0.6j)) < 1e-6 * abs(m1.A)


def test_solve_is_deterministic(unit_square):
    a = solve_parameter_problem(unit_square)
    b = solve_parameter_problem(unit_square)
    assert a == b


def test_report_history_never_increases():
    pt = sample_chart_point(SweepConfig(n=8, samples=1, seed=42), 0)
    poly = forward(*moduli_unchart(pt))
    _, rep = solve_parameter_problem(poly)
    hist = rep.residual_history
    assert len(hist) >= 1
    assert all(x >= y for x, y in zip(hist, hist[1:]))
    assert rep.final_residual_norm == hist[-1]
    # Below residual_tol the loop steps on only while a step still cuts
    # the norm sharply; the quadratic tail reaches rounding in one step.
    assert rep.converged
    assert sum(h <= SolveOptions().residual_tol for h in hist) <= 2


@pytest.mark.parametrize("k", [1, 2, 5])
def test_step_budget_per_start(k):
    # max_iterations bounds the steps of the one start, and the report
    # counts the steps tried.
    pt = sample_chart_point(SweepConfig(n=8, samples=20, seed=42), 4)
    poly = forward(*moduli_unchart(pt))
    _, rep = solve_parameter_problem(poly, SolveOptions(max_iterations=k))
    assert rep.iterations <= k
    assert len(rep.residual_history) <= k + 1


def rosenbrock(x):
    r = np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])
    J = np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]])
    return r, J


def test_least_squares_on_rosenbrock():
    x, hist, steps = least_squares(rosenbrock, np.array([-1.2, 1.0]), 100,
                                   1e-10)
    assert np.max(np.abs(x - 1.0)) < 1e-10
    assert hist[-1] <= 1e-10
    assert all(a > b for a, b in zip(hist, hist[1:]))
    assert len(hist) - 1 <= steps <= 100


def test_least_squares_caps_each_step():
    # r = x - 50 wants one step of 50; each step moves at most _MAX_STEP.
    def fun(x):
        return x - 50.0, np.eye(1)
    x, hist, steps = least_squares(fun, np.zeros(1), 3, 1e-10)
    assert steps == 3
    assert x[0] == pytest.approx(3 * _MAX_STEP)
    x, hist, steps = least_squares(fun, np.zeros(1), 100, 1e-10)
    assert x[0] == pytest.approx(50.0, abs=1e-12)
    assert steps < 50.0 / _MAX_STEP + 5


def test_least_squares_stops_where_no_step_moves():
    # A walled start (constant residual, zero Jacobian) takes no step.
    def fun(x):
        return np.full(2, 1e8), np.zeros((2, 2))
    x, hist, steps = least_squares(fun, np.zeros(2), 200, 1e-10)
    assert (steps, hist) == (0, [float(np.linalg.norm(np.full(2, 1e8)))])
    assert not x.any()


def test_crowded_octagon_regression():
    # this sample once crept at contraction 0.9999 for hundreds of steps
    # under a noisy finite-difference Jacobian
    pt = sample_chart_point(SweepConfig(n=8, samples=20, seed=42), 4)
    poly = forward(*moduli_unchart(pt))
    m, rep = solve_parameter_problem(poly)
    assert rep.converged
    assert chart_error(moduli_chart(m), pt) < 1e-6


def test_nonconvergence_reported_not_raised():
    pt = sample_chart_point(SweepConfig(n=7, samples=1, seed=55), 0)
    poly = forward(*moduli_unchart(pt))
    m, rep = solve_parameter_problem(poly, SolveOptions(max_iterations=1))
    assert not rep.converged
    assert rep.iterations == 1
    assert rep.final_residual_norm > 1e-10

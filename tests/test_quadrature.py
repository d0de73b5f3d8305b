import math

import mpmath as mp
import numpy as np
import pytest

from scpoly import (
    ExponentVector,
    InvalidExponent,
    Prevertices,
    INFINITY,
    SCMap,
    ValidationError,
    evaluate,
    gauss_jacobi,
    integrate_sc,
    integrate_to_infinity,
    total_moment,
)
import scpoly.quadrature as quadrature
from scpoly.quadrature import integrate_finite_legs

from conftest import BETA_THIRD, PENTAGON_ALPHAS
from oracles import beta_lgamma, jacobi_moments, leg_integral, tail_integral


def test_single_node_legendre_is_midpoint():
    rule = gauss_jacobi(1, 0.0, 0.0)
    assert rule.nodes == pytest.approx([0.0], abs=1e-15)
    assert rule.weights == pytest.approx([2.0], rel=1e-15)


def test_three_node_legendre_classical_values():
    # eigensolver zeros are only good to a few ulps of the matrix norm
    rule = gauss_jacobi(3, 0.0, 0.0)
    r = math.sqrt(3.0 / 5.0)
    assert rule.nodes == pytest.approx([-r, 0.0, r], abs=5e-15)
    assert rule.weights == pytest.approx([5 / 9, 8 / 9, 5 / 9], rel=1e-14)


def test_inverse_sqrt_weight_total_mass():
    # integral of (1-x)^(-1/2) over [-1,1] is 2*sqrt(2)
    rule = gauss_jacobi(8, -0.5, 0.0)
    assert float(np.sum(rule.weights)) == pytest.approx(2.0 * math.sqrt(2.0),
                                                        rel=1e-14)


@pytest.mark.parametrize("a,b", [(0.0, 0.0), (-0.5, 0.3), (0.9, -0.99),
                                 (-0.7, -0.7), (1.0, 0.0)])
def test_rule_shape_and_mass(a, b):
    for order in (1, 2, 5, 16):
        rule = gauss_jacobi(order, a, b)
        nodes = np.asarray(rule.nodes)
        assert nodes.shape == (order,)
        assert np.all(np.diff(nodes) > 0)
        assert np.all((-1 < nodes) & (nodes < 1))
        assert np.all(np.asarray(rule.weights) > 0)
        mass = float(np.sum(rule.weights))
        assert mass == pytest.approx(total_moment(a, b), rel=1e-13)


def test_total_moment_against_lgamma():
    for a, b in [(0.0, 0.0), (-0.5, 0.0), (0.25, -0.75), (0.99, 0.99)]:
        expected = 2.0 ** (a + b + 1) * beta_lgamma(a + 1.0, b + 1.0)
        assert total_moment(a, b) == pytest.approx(expected, rel=1e-14)


def test_monomial_exactness_small_orders():
    # Full order sweep with sampled exponents runs in the acceptance suite;
    # here a few fixed rules against the 50-digit moment recursion.
    for order, a, b in [(4, -0.5, 0.25), (7, 0.8, -0.9), (12, -0.3, 0.7)]:
        rule = gauss_jacobi(order, a, b)
        moments = jacobi_moments(2 * order - 1, a, b)
        mass = float(moments[0])
        for k in range(2 * order):
            approx = float(np.sum(np.asarray(rule.weights)
                                  * np.asarray(rule.nodes) ** k))
            assert abs(approx - float(moments[k])) <= 1e-13 * mass


def test_exponent_at_or_below_minus_one_rejected():
    with pytest.raises(InvalidExponent):
        gauss_jacobi(4, -1.0, 0.0)
    with pytest.raises(InvalidExponent):
        gauss_jacobi(4, 0.0, -1.5)
    # Not a bare ValueError from the eigensolver after RuntimeWarnings.
    for a, b in ((math.nan, 0.0), (0.0, math.inf), (-math.inf, 0.5)):
        with pytest.raises(InvalidExponent):
            gauss_jacobi(4, a, b)


def test_order_must_be_positive():
    with pytest.raises(ValidationError):
        gauss_jacobi(0, 0.0, 0.0)
    for order in (2.5, 8.0):
        with pytest.raises(ValidationError):
            gauss_jacobi(order, 0.0, 0.0)
    assert np.array_equal(gauss_jacobi(np.int64(8), 0.5, 0.0).nodes,
                          gauss_jacobi(8, 0.5, 0.0).nodes)


@pytest.fixture(scope="module")
def tri_map():
    return SCMap(Prevertices((-1.0, 0.0)), ExponentVector((1 / 3,) * 3))


def test_empty_path_is_zero(tri_map):
    assert integrate_sc(tri_map, 0.5j, 0.5j) == 0j


def test_base_gap_matches_beta(tri_map):
    value = integrate_sc(tri_map, -1.0, 0.0)
    assert abs(value) == pytest.approx(BETA_THIRD, rel=1e-9)
    # log-gamma route, recomputed live
    assert abs(value) == pytest.approx(beta_lgamma(1 / 3, 1 / 3), rel=1e-9)


def test_additivity_through_interior_point(tri_map):
    whole = integrate_sc(tri_map, -1.0, 1.0 + 1.0j)
    first = integrate_sc(tri_map, -1.0, 0.2 + 0.7j)
    second = integrate_sc(tri_map, 0.2 + 0.7j, 1.0 + 1.0j)
    assert abs(whole - (first + second)) <= 1e-9 * abs(whole)


def test_path_independence_of_waypoint(tri_map):
    # same endpoints, two different interior stopovers
    via_a = (integrate_sc(tri_map, -1.0, 0.3 + 2.5j)
             + integrate_sc(tri_map, 0.3 + 2.5j, 0.0))
    via_b = (integrate_sc(tri_map, -1.0, -0.5 + 0.1j)
             + integrate_sc(tri_map, -0.5 + 0.1j, 0.0))
    direct = integrate_sc(tri_map, -1.0, 0.0)
    assert abs(via_a - direct) <= 1e-9 * abs(direct)
    assert abs(via_b - direct) <= 1e-9 * abs(direct)


def test_real_axis_leg_splits_at_prevertex(tri_map):
    # crossing z_2 = 0: improper but convergent; halves must add up
    whole = integrate_sc(tri_map, -1.0, 2.0)
    parts = integrate_sc(tri_map, -1.0, 0.0) + integrate_sc(tri_map, 0.0, 2.0)
    assert abs(whole - parts) <= 1e-9 * abs(whole)


def test_reversing_endpoints_flips_sign(tri_map):
    forward_leg = integrate_sc(tri_map, -1.0, 0.0)
    assert integrate_sc(tri_map, 0.0, -1.0) == pytest.approx(-forward_leg)


def test_tail_consistency(tri_map):
    # moving the tail start forward only shifts mass into the finite leg
    t1 = integrate_to_infinity(tri_map, 1.0)
    t2 = integrate_sc(tri_map, 1.0, 7.5) + integrate_to_infinity(tri_map, 7.5)
    assert abs(t1 - t2) <= 1e-9 * abs(t1)


def test_tail_is_finite_and_closes_triangle(tri_map):
    # third side of the equilateral triangle: |F(inf) - F(0)|
    tail = (integrate_sc(tri_map, 0.0, 1.0)
            + integrate_to_infinity(tri_map, 1.0))
    assert abs(tail) == pytest.approx(BETA_THIRD, rel=1e-9)


def test_tail_start_must_pass_last_prevertex(tri_map):
    with pytest.raises(ValidationError):
        integrate_to_infinity(tri_map, -0.5)


def test_lower_half_plane_rejected(tri_map):
    with pytest.raises(ValidationError):
        integrate_sc(tri_map, -1.0, 0.5 - 0.2j)


def test_nonpositive_tol_rejected(tri_map):
    with pytest.raises(ValidationError):
        integrate_sc(tri_map, -1.0, 0.0, tol=0.0)


@pytest.mark.parametrize("tol", [math.nan, math.inf])
def test_non_finite_tol_rejected(tri_map, tol):
    # NaN would refine every leg to MAX_LEVELS; inf would stop after one.
    with pytest.raises(ValidationError):
        integrate_sc(tri_map, 1j, 0.5 + 0.5j, tol=tol)
    with pytest.raises(ValidationError):
        integrate_finite_legs((-1.0, 0.0), (1 / 3, 1 / 3), tol)
    with pytest.raises(ValidationError):
        integrate_to_infinity(tri_map, 1.0, tol)


def test_pentagon_leg_against_substitution_oracle():
    """Dual route on a leg whose endpoint exponent is strongly singular.

    The (zeta+1)^(-0.8) factor at the left end is the case that once broke
    a naive adaptive integrator; the tanh-sinh oracle with the power
    substitution resolves it to ~1e-40 and the panel rule must agree.
    """
    exp = ExponentVector(PENTAGON_ALPHAS, extended=True)
    m = SCMap(Prevertices((-1.0, 0.0, 1.0, 2.0)), exp)
    got = integrate_sc(m, -1.0, 0.0)
    want = complex(leg_integral([-1, 0, 1, 2],
                                [0.2, 0.2, 0.2, 0.2], -1, 0))
    assert abs(got - want) <= 1e-10 * abs(want)


def test_square_gap_ratio_is_one():
    m = SCMap(Prevertices((-1.0, 0.0, 1.0)), ExponentVector((0.5,) * 4))
    s1 = abs(integrate_sc(m, -1.0, 0.0))
    s2 = abs(integrate_sc(m, 0.0, 1.0))
    assert s2 / s1 == pytest.approx(1.0, abs=1e-10)


# Gaps of 1, 0.05 and 2.95; alpha = 0.1 at z = 3 is strongly singular.
ORACLE_ZS = [-1.0, 0.0, 0.05, 3.0]
ORACLE_ALPHAS = [0.3, 0.6, 1.6, 0.1]


@pytest.fixture(scope="module")
def crowded_map():
    return SCMap(Prevertices(tuple(ORACLE_ZS)),
                 ExponentVector((*ORACLE_ALPHAS, 0.4)))


@pytest.mark.parametrize("p,q", [(1j, -1.0), (0.5 + 0.2j, 0.05)],
                         ids=["base-to-prevertex", "upper-to-crowded-prevertex"])
def test_upper_leg_into_prevertex_against_oracle(crowded_map, p, q):
    # The last panel absorbs the prevertex factor into its Jacobi weight.
    got = integrate_sc(crowded_map, p, q)
    want = complex(leg_integral(ORACLE_ZS, ORACLE_ALPHAS, p, q))
    assert abs(got - want) <= 1e-11 * abs(want)


def test_axis_leg_across_prevertices_against_oracle(crowded_map):
    # One call over three legs, each absorbing both of its end factors.
    got = integrate_sc(crowded_map, -1.0, 3.0)
    want = sum(complex(leg_integral(ORACLE_ZS, ORACLE_ALPHAS, a, b))
               for a, b in zip(ORACLE_ZS, ORACLE_ZS[1:]))
    assert abs(got - want) <= 1e-11 * abs(want)


def test_tail_against_oracle(crowded_map):
    got = integrate_to_infinity(crowded_map, 3.5)
    want = complex(tail_integral(ORACLE_ZS, ORACLE_ALPHAS, 3.5))
    assert abs(got - want) <= 1e-11 * abs(want)


def test_finite_leg_derivatives_against_oracle():
    """Every dI_j/dz_k of the batched legs against central differences of
    the tanh-sinh oracle, taken in 50-digit arithmetic at h = 1e-15.

    The map is prevertices (-1, 0, 0.7, 1.9) with alpha = (0.6, 1.3, 0.8,
    1.1, 1.2); the last exponent, at infinity, plays no role on these legs.
    """
    zs, alphas = [-1.0, 0.0, 0.7, 1.9], [0.6, 1.3, 0.8, 1.1]
    values, derivs = integrate_finite_legs(zs, alphas)
    assert values.shape == (3,) and derivs.shape == (3, 4)
    h = mp.mpf("1e-15")

    def legs(points):
        return [leg_integral(points, alphas, p, q)
                for p, q in zip(points, points[1:])]

    for got, want in zip(values, legs(zs)):
        assert abs(got - complex(want)) <= 1e-11 * abs(complex(want))

    for k in range(len(zs)):
        up = [mp.mpf(z) + (h if i == k else 0) for i, z in enumerate(zs)]
        down = [mp.mpf(z) - (h if i == k else 0) for i, z in enumerate(zs)]
        for j, (a, b) in enumerate(zip(legs(up), legs(down))):
            want = complex((a - b) / (2 * h))
            assert abs(derivs[j, k] - want) <= 1e-8 * abs(want), (j, k)


def test_finite_legs_sum_the_same_in_blocks(monkeypatch):
    # Deep refinements sum their panels block by block; splitting the
    # panels of one leg across blocks must not change the result.
    zs, alphas = ORACLE_ZS, ORACLE_ALPHAS
    values, derivs = integrate_finite_legs(zs, alphas)
    monkeypatch.setattr(quadrature, "_PASS_BLOCK", 7)
    blocked_values, blocked_derivs = integrate_finite_legs(zs, alphas)
    assert np.allclose(blocked_values, values, rtol=1e-13, atol=0.0)
    assert np.allclose(blocked_derivs, derivs, rtol=1e-13,
                       atol=1e-13 * np.abs(derivs).max())


def test_values_sum_the_same_in_blocks(monkeypatch, crowded_map):
    # Values-only calls: one axis path of three pieces under one label,
    # and upper-plane legs and a tail through evaluate.
    points = np.array([0.5 + 0.2j, -0.5 + 0.01j, 0.04 + 0.001j, 3.0,
                       INFINITY])
    path = integrate_sc(crowded_map, -1.0, 3.0)
    images = evaluate(crowded_map, points)
    monkeypatch.setattr(quadrature, "_PASS_BLOCK", 7)
    blocked = integrate_sc(crowded_map, -1.0, 3.0)
    assert abs(blocked - path) <= 1e-13 * abs(path)
    assert np.allclose(evaluate(crowded_map, points), images, rtol=1e-13,
                       atol=0.0)

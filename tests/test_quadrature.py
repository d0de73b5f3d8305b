import math
import re
import warnings

import mpmath as mp
import numpy as np
import pytest

from scpoly import (
    ExponentVector,
    InvalidExponent,
    NoConvergence,
    NumericalError,
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
from oracles import (beta_lgamma, gauss_jacobi_mp, golub_welsch,
                     jacobi_moments, leg_integral, tail_integral)


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


def test_total_moment_names_a_bad_pair():
    # Divergent, at the pole of lgamma, or not a finite real number: never
    # a moment, a NaN, a bare ValueError or TypeError, or a warning. A
    # rule checks its pair before float() could read a string as a number,
    # and a bool is not an exponent though it is an int. The pair is named
    # by repr, so the string "0.5" does not read as the number 0.5.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a, b in [(-1.5, 0.0), (-1.0, 0.0), (0.0, -3.0), (math.nan, 0.0),
                     (-math.inf, 0.0), ("0.5", 0.0), (0.5, 1j), ("abc", 0.0),
                     (b"0.5", 0.0), (None, 0.0), (0.5 + 0j, 0.0),
                     (0.0, "0.5"), (True, 0.0), (0.5, False)]:
            for build in (total_moment, lambda a, b: gauss_jacobi(8, a, b)):
                with pytest.raises(InvalidExponent,
                                   match=re.escape(f"a={a!r}, b={b!r}")):
                    build(a, b)


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
    # As cache keys 8.0 == 8 and True == 1: a cached rule of the integer
    # order must not let them through.
    gauss_jacobi(8, 0.5, 0.0)
    gauss_jacobi(1, 0.5, 0.0)
    for order in (8.0, True):
        with pytest.raises(ValidationError):
            gauss_jacobi(order, 0.5, 0.0)
    # Both orders read the same cache entry, and so do NumPy and integer
    # exponents.
    assert (gauss_jacobi(np.int64(8), 0.5, 0.0).nodes
            is gauss_jacobi(8, 0.5, 0.0).nodes)
    assert (gauss_jacobi(8, np.float64(0.5), 0).nodes
            is gauss_jacobi(8, 0.5, 0.0).nodes)


def _random_pairs(rng, count):
    pairs = [tuple(ab) for ab in rng.uniform(-0.99, 3.0, size=(count, 2))]
    return pairs + [(-1.0 + 1e-9, 0.25), (0.4, -1.0 + 1e-7), (0.0, 0.0)]


def test_stacked_rules_match_one_at_a_time():
    # One stacked eigh per build must give each rule as a lone
    # Golub-Welsch eigenproblem does, to a few ulps.
    rng = np.random.default_rng(2024)
    for order in range(1, 41):
        pairs = _random_pairs(rng, 12)
        built = quadrature._golub_welsch(order, pairs)
        assert all(rows.shape == (len(pairs), order) for rows in built)
        for (a, b), got_nodes, got_weights in zip(pairs, *built):
            nodes, weights = golub_welsch(order, a, b)
            mass = total_moment(a, b)
            assert np.max(np.abs(got_nodes - nodes)) <= 8 * np.spacing(1.0)
            assert np.max(np.abs(got_weights - weights)) <= (
                8 * np.spacing(mass)), (order, a, b)
            rule = gauss_jacobi(order, a, b)
            assert (rule.order, rule.exponent_right, rule.exponent_left) == (
                order, a, b)


def test_stacked_build_names_the_bad_pair():
    pairs = [(0.1, 0.2), (0.3, -1.25), (0.5, 0.6)]
    with pytest.raises(InvalidExponent, match=r"a=0\.3, b=-1\.25"):
        quadrature._golub_welsch(8, pairs)
    with pytest.raises(InvalidExponent, match=r"a=nan, b=0\.0"):
        quadrature._jacobi_rules(8, [(0.1, 0.2), (math.nan, 0.0)])


def test_rules_beyond_floats_fail_numerically():
    # Their total moments overflow: not a bare OverflowError from exp,
    # nor a LinAlgError after RuntimeWarnings from the matrix entries.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=r"a=1100\.0, b=0\.0"):
            total_moment(1100.0, 0.0)
        for a in (1100.0, 1e200):
            with pytest.raises(NumericalError,
                               match=re.escape(f"a={a}, b=0.0")):
                gauss_jacobi(8, a, 0.0)


def test_stacked_build_checks_every_weight_sum(monkeypatch):
    # The weights are m0 v0^2 with m0 = total_moment(a, b), so their sum
    # is checked against m0 to catch eigenvectors that lost their unit
    # norm. Here one matrix of the stack comes back 1e-12 off.
    eigh = np.linalg.eigh

    def off_in_one(mats):
        x, v = eigh(mats)
        v[2] *= 1.0 + 1e-12
        return x, v

    monkeypatch.setattr(np.linalg, "eigh", off_in_one)
    pairs = _random_pairs(np.random.default_rng(7), 5)
    with pytest.raises(NumericalError, match="weight sum off"):
        quadrature._golub_welsch(8, pairs)


def test_rule_cache_stays_bounded_and_exact(monkeypatch):
    # Batches larger than the cache, one after another: every rule comes
    # back as a fresh build gives it, and the cache never overflows.
    cap = 16
    monkeypatch.setattr(quadrature, "_RULE_CACHE_SIZE", cap)
    monkeypatch.setattr(quadrature, "_rules", {})
    rng = np.random.default_rng(11)
    first = _random_pairs(rng, 2 * cap)
    batches = [first, _random_pairs(rng, cap - 5) + first[-4:],
               first[:cap // 2] + _random_pairs(rng, cap) + first[-2:]]
    for pairs in batches:
        rules = quadrature._jacobi_rules(8, pairs)
        assert len(quadrature._rules) <= cap
        fresh_nodes, fresh_weights = quadrature._golub_welsch(8, pairs)
        assert len(rules) == len(pairs)
        for (nodes, weights), fresh_x, fresh_w in zip(rules, fresh_nodes,
                                                      fresh_weights):
            assert np.array_equal(nodes, fresh_x)
            assert np.array_equal(weights, fresh_w)
            assert not (nodes.flags.writeable or weights.flags.writeable)


def test_rule_pass_builds_only_the_rules_it_misses(monkeypatch):
    cap = 16
    monkeypatch.setattr(quadrature, "_RULE_CACHE_SIZE", cap)
    monkeypatch.setattr(quadrature, "_rules", {})
    build = quadrature._golub_welsch
    built = []

    def counted(order, pairs):
        built.append(list(pairs))
        return build(order, pairs)

    monkeypatch.setattr(quadrature, "_golub_welsch", counted)
    rng = np.random.default_rng(19)
    old = _random_pairs(rng, 2)
    new = [tuple(ab) for ab in rng.uniform(-0.99, 3.0, size=(3, 2))]
    quadrature._jacobi_rules(8, old)
    # Cached and new pairs mixed: only the new ones are built, in one
    # stack, and the rows come back in request order.
    mixed = [new[0], old[1], new[1], old[0], new[2]]
    built.clear()
    rules = quadrature._jacobi_rules(8, mixed)
    assert built == [[new[0], new[1], new[2]]]
    fresh_nodes, fresh_weights = build(8, mixed)
    for (nodes, weights), fresh_x, fresh_w in zip(rules, fresh_nodes,
                                                  fresh_weights):
        assert np.array_equal(nodes, fresh_x)
        assert np.array_equal(weights, fresh_w)
    # All cached: nothing is built, and the cached rows come back.
    built.clear()
    again = quadrature._jacobi_rules(8, mixed[::-1])
    assert built == []
    assert all(x is y and w is v
               for (x, w), (y, v) in zip(again, rules[::-1]))
    # More new pairs than the cache holds: all come back, the newest stay.
    many = [tuple(ab) for ab in rng.uniform(-0.99, 3.0, size=(cap + 5, 2))]
    built.clear()
    rules = quadrature._jacobi_rules(8, many)
    assert built == [many]
    fresh_nodes, fresh_weights = build(8, many)
    assert len(rules) == len(many)
    for (nodes, weights), fresh_x, fresh_w in zip(rules, fresh_nodes,
                                                  fresh_weights):
        assert np.array_equal(nodes, fresh_x)
        assert np.array_equal(weights, fresh_w)
    assert list(quadrature._rules) == [(8, a, b) for a, b in many[-cap:]]


# One-sided exponents e of the Newton-built rules (e, 0) and (0, e):
# a grid of (-1, 1) with both ends and both sides of 0 pressed close.
ONE_SIDED = ([e for e in np.linspace(-1.0, 1.0, 17)[1:-1].tolist() if e]
             + [1.0 - 1e-9, -1.0 + 1e-9, 1e-12, -1e-12])


def test_one_sided_rules_match_40_digit_rules():
    # Against Newton on mpmath's Jacobi polynomials at 40 digits, the
    # Newton-built rules are at least as accurate as Golub-Welsch ones of
    # the same pairs: nodes in units of eps, weights in ulps of the mass.
    pairs = [(e, 0.0) for e in ONE_SIDED]
    errors = []
    for build in (quadrature._one_sided, quadrature._golub_welsch):
        node_err = weight_err = 0.0
        for e, nodes, weights in zip(ONE_SIDED, *build(8, pairs)):
            want_nodes, want_weights = gauss_jacobi_mp(8, e, 0.0)
            node_err = max(node_err, *(float(abs(mp.mpf(x) - y)) for x, y
                                       in zip(nodes.tolist(), want_nodes)))
            weight_err = max(weight_err, *(
                float(abs(mp.mpf(x) - y)) / np.spacing(total_moment(e, 0.0))
                for x, y in zip(weights.tolist(), want_weights)))
        errors.append((node_err / np.spacing(1.0), weight_err))
    (newton_nodes, newton_weights), (eigh_nodes, eigh_weights) = errors
    print(f"one-sided rules: nodes {newton_nodes:.2f} eps (eigh "
          f"{eigh_nodes:.2f}), weights {newton_weights:.2f} ulps of the "
          f"mass (eigh {eigh_weights:.2f})")
    assert newton_nodes <= eigh_nodes
    assert newton_weights <= eigh_weights


def test_one_sided_rule_bits_depend_on_the_pair_alone(monkeypatch):
    # A rule comes out the same, bit for bit, built alone, inside a build
    # of 200 exponents, from a fresh cache, and through gauss_jacobi; and
    # (0, e) is exactly the mirror of (e, 0).
    rng = np.random.default_rng(29)
    many = rng.uniform(-1.0, 1.0, 200).tolist()
    pairs = [(e, 0.0) for e in many] + [(0.0, e) for e in many[::-1]]
    monkeypatch.setattr(quadrature, "_rules", {})
    built = quadrature._jacobi_rules(8, pairs)
    for e in many[:5] + ONE_SIDED:
        for pair in ((e, 0.0), (0.0, e)):
            monkeypatch.setattr(quadrature, "_rules", {})
            alone = quadrature._one_sided(8, [pair])
            monkeypatch.setattr(quadrature, "_rules", {})
            rule = gauss_jacobi(8, *pair)
            monkeypatch.setattr(quadrature, "_rules", {})
            routed = quadrature._jacobi_rules(8, [pair])[0]
            for got in ((alone[0][0], alone[1][0]), routed,
                        (rule.nodes, rule.weights)):
                if e in many:
                    want = built[pairs.index(pair)]
                    assert all(map(np.array_equal, got, want))
                assert all(map(np.array_equal, got, routed))
        nodes, weights = quadrature._one_sided(8, [(e, 0.0), (0.0, e)])
        assert np.array_equal(nodes[1], -nodes[0][::-1])
        assert np.array_equal(weights[1], weights[0][::-1])


def test_one_sided_build_checks_every_weight_sum(monkeypatch):
    # The weights are Christoffel numbers at the nodes, which sum to the
    # closed-form moment at the Gauss nodes but not at nodes a step
    # leaves off. Here the Newton step of a build leaves one node of one
    # rule 1e-9 off, and the check sees it.
    orthonormal = quadrature._orthonormal
    calls = []

    def off_in_one(x, diag, off):
        q, d = orthonormal(x, diag, off)
        calls.append(x)
        q[-1][3, 2] += 1e-9 * d[-1][3, 2]
        return q, d

    monkeypatch.setattr(quadrature, "_orthonormal", off_in_one)
    pairs = [(e, 0.0) for e in (-0.75, -0.25, 0.25, 0.5, 0.75)]
    with pytest.raises(NumericalError, match="weight sum off"):
        quadrature._one_sided(8, pairs)
    assert len(calls) == 1


def test_rules_are_routed_by_their_pair(monkeypatch):
    # One-sided pairs of order 8 with the exponent in (-1, 1) go to the
    # Newton build; (0, 0), two-sided pairs, exponents of 1 or more and
    # other orders to Golub-Welsch, so the cache tests above still test
    # it. Bad exponents reach Golub-Welsch too, which names them.
    monkeypatch.setattr(quadrature, "_rules", {})
    calls = []
    for name in ("_one_sided", "_golub_welsch"):
        def counted(order, pairs, _build=getattr(quadrature, name),
                    _name=name):
            calls.append((_name, order, pairs))
            return _build(order, pairs)

        monkeypatch.setattr(quadrature, name, counted)
    newton = [(0.5, 0.0), (0.0, -0.5), (-0.0, 0.25), (-1.0 + 1e-9, 0.0)]
    eigen = [(0.0, 0.0), (0.3, -0.2), (1.0, 0.0), (0.0, 1.5), (0.0, -0.0)]
    quadrature._jacobi_rules(8, eigen[:2] + newton + eigen[2:])
    assert calls == [("_one_sided", 8, newton), ("_golub_welsch", 8, eigen)]
    calls.clear()
    quadrature._jacobi_rules(6, [(0.5, 0.0), (0.0, -0.5)])
    assert calls == [("_golub_welsch", 6, [(0.5, 0.0), (0.0, -0.5)])]
    with pytest.raises(InvalidExponent, match=r"a=nan, b=0\.0"):
        quadrature._jacobi_rules(8, [(math.nan, 0.0)])


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
    # Across both prevertices: the same cut leg, so exactly the negation.
    across = integrate_sc(tri_map, -2.0, 1.0)
    assert integrate_sc(tri_map, 1.0, -2.0) == -across


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
    for start in (-0.5, math.inf):
        with pytest.raises(ValidationError):
            integrate_to_infinity(tri_map, start)


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


def test_finite_legs_name_a_non_finite_alpha():
    # Checked before the panels: an infinite exponent would otherwise meet
    # the other panels' zero weights as inf * 0 and be reported as a NaN
    # pair the caller never passed.
    for alphas in ((math.inf, 0.5, 0.5), (0.5, math.nan, 0.5),
                   (0.5, 0.5, -math.inf), (0.5, 0.0, 0.5)):
        bad = next(a for a in alphas if not 0.0 < a < math.inf)
        with pytest.raises(InvalidExponent, match=re.escape(f"alpha={bad}")):
            integrate_finite_legs((-1.0, 0.0, 1.0), alphas)


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


# Eleven prevertices: enough for a matrix product to round a panel's
# phase by the shape of the pass it is in.
WIDE_ZS = (-1.0, 0.0, 2.98, 4.81, 5.89, 6.2, 21.7, 21.91, 25.91, 34.13, 39.62)
WIDE_ALPHAS = (0.84, 1.83, 0.43, 0.76, 0.82, 0.44, 0.37, 0.85, 1.11, 1.47,
               0.48, 0.6)


def _axis_chain(m, ts):
    # The real legs (t_0, t_1), ..., (t_{m-1}, t_m) in one refinement
    # loop, each cut at the prevertices inside it; a leg's pieces share
    # its label, as forward's sides and integrate_sc's real leg do.
    ts = np.asarray(ts, dtype=float)
    xs, es = quadrature._sc_singularities(m)
    inside = xs[0, (ts[0] < xs[0]) & (xs[0] < ts[-1])]
    cuts = np.unique(np.concatenate([ts, inside]))
    leg = np.searchsorted(ts, cuts[:-1], side="right") - 1
    return quadrature._refine_map("axis", cuts[:-1], cuts[1:], xs, es,
                                  quadrature.DEFAULT_TOL, leg)[:, 0]


def test_axis_legs_in_one_loop_match_each_leg_alone(crowded_map):
    # Legs from a prevertex, between prevertices, across two of them and
    # past the last one: each is bitwise the integral integrate_sc gives
    # it alone, whatever legs share its passes.
    ts = [-1.0, -0.4, 0.05, 2.0, 3.0, 4.5]
    got = _axis_chain(crowded_map, ts)
    assert got.shape == (len(ts) - 1,)
    wide = SCMap(Prevertices(WIDE_ZS), ExponentVector(WIDE_ALPHAS))
    for m, path in ((crowded_map, ts), (wide, WIDE_ZS + (81.24,))):
        for value, a, b in zip(_axis_chain(m, path), path, path[1:]):
            assert value == integrate_sc(m, a, b), (a, b)
    cuts = [-0.4, 0.0, 0.05, 2.0]
    want = sum(complex(leg_integral(ORACLE_ZS, ORACLE_ALPHAS, a, b))
               for a, b in zip(cuts, cuts[1:]))
    assert abs(got[1] + got[2] - want) <= 1e-11 * abs(want)


def test_tail_against_oracle(crowded_map):
    got = integrate_to_infinity(crowded_map, 3.5)
    want = complex(tail_integral(ORACLE_ZS, ORACLE_ALPHAS, 3.5))
    assert abs(got - want) <= 1e-11 * abs(want)


def test_finite_leg_derivatives_against_oracle():
    """Every dI_j/dz_k of the batched legs against central differences of
    the tanh-sinh oracle, taken in 50-digit arithmetic at h = 1e-15.

    The exponent at infinity plays no role on these legs. In the second,
    crowded map the on-leg derivatives of the 1e-4 leg come from sums
    over prevertices far from it, which could cancel.
    """
    for zs, alphas in (([-1.0, 0.0, 0.7, 1.9], [0.6, 1.3, 0.8, 1.1]),
                       ([-1.0, 0.0, 3.0, 3.0001], [0.9, 0.2, 1.9, 0.1])):
        values, derivs = integrate_finite_legs(zs, alphas)
        assert values.shape == (len(zs) - 1,)
        assert derivs.shape == (len(zs) - 1, len(zs))
        _assert_legs_match_oracle(zs, alphas, values, derivs)


def _assert_legs_match_oracle(zs, alphas, values, derivs):
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


def test_finite_legs_never_revisit_a_settled_leg(monkeypatch):
    """A leg stops once its value has settled, so each pass refines a
    subset of the legs of the pass before it; the derivative rows ride
    along on those panels and keep the accuracy of the oracle test
    above."""
    zs = (-1.0, 0.0, 0.9229810407284639, 3.9617207567930968)
    alphas = (0.35658918882628143, 0.4230460944098081, 0.16617772905042053,
              1.513640717080413)
    passes = []
    leg_sums = quadrature._leg_sums

    def recording(kind, a, b, leg, *args):
        passes.append(set(leg.tolist()))
        return leg_sums(kind, a, b, leg, *args)

    monkeypatch.setattr(quadrature, "_leg_sums", recording)
    values, derivs = integrate_finite_legs(zs, alphas, 1e-11)
    assert passes[0] == {0, 1, 2}
    for before, after in zip(passes, passes[1:]):
        assert after <= before, passes
    _assert_legs_match_oracle(zs, alphas, values, derivs)


def test_finite_legs_sum_the_same_in_blocks(monkeypatch):
    # Deep refinements sum their panels block by block; splitting the
    # panels of one leg across blocks must not change a bit of the result.
    zs, alphas = ORACLE_ZS, ORACLE_ALPHAS
    values, derivs = integrate_finite_legs(zs, alphas)
    monkeypatch.setattr(quadrature, "_PASS_BLOCK", 7)
    blocked_values, blocked_derivs = integrate_finite_legs(zs, alphas)
    assert np.array_equal(blocked_values, values)
    assert np.array_equal(blocked_derivs, derivs)


def _recorded_passes(monkeypatch):
    # The arguments and sums of every _leg_sums pass from here on.
    passes = []
    leg_sums = quadrature._leg_sums

    def recording(*args):
        passes.append((args, leg_sums(*args)))
        return passes[-1][1]

    monkeypatch.setattr(quadrature, "_leg_sums", recording)
    return passes


def test_a_leg_settled_at_its_first_comparison_makes_one_pass(monkeypatch,
                                                              tri_map):
    # Levels 0 and 1 share a pass, so legs that settle when those two are
    # first compared take one pass: an upper-plane leg, and a map's two
    # finite legs.
    passes = _recorded_passes(monkeypatch)
    integrate_sc(tri_map, 1j, 2j)
    assert len(passes) == 1
    integrate_finite_legs((-1.0, 0.0, 1.0), (0.5, 0.5, 0.5))
    assert len(passes) == 2


@pytest.mark.parametrize("block", [quadrature._PASS_BLOCK, 7])
def test_first_pass_sums_each_level_as_its_own_pass(monkeypatch, crowded_map,
                                                     block):
    # The first pass carries the level-0 panels, then their halves (level
    # 1), each level added into its own rows of the sums. Each level's
    # sums must be bitwise those of a pass over its panels alone, with
    # derivative rows and without, whatever the block boundaries.
    leg_sums = quadrature._leg_sums
    monkeypatch.setattr(quadrature, "_PASS_BLOCK", block)
    passes = _recorded_passes(monkeypatch)
    points = np.array([0.5 + 0.2j, -0.5 + 0.01j, 3.0, INFINITY])
    for call in (lambda: integrate_finite_legs(ORACLE_ZS, ORACLE_ALPHAS),
                 lambda: integrate_sc(crowded_map, -1.0, 3.0),
                 lambda: evaluate(crowded_map, points)):
        passes.clear()
        call()
        (kind, a, b, leg, xs, es, of, size, rows, at), both = passes[0]
        legs = size // 2
        first = at < legs
        count = np.count_nonzero(first)
        assert 0 < count < a.size and first[:count].all()
        assert np.array_equal(at, np.where(first, leg, leg + legs))
        for got, want in zip((a[~first], b[~first], leg[~first]),
                             quadrature._halve(a[first], b[first],
                                               leg[first])):
            assert np.array_equal(got, want)
        for level, part in ((0, first), (1, ~first)):
            alone = leg_sums(kind, a[part], b[part], leg[part], xs, es, of,
                             legs, rows, leg[part])
            assert np.array_equal(both[level * legs:(level + 1) * legs],
                                  alone), (kind, level)


def test_a_leg_that_cannot_be_cut_fails_to_converge():
    # 64 halvings cannot bring panels 1e300 or 1e30 long down to the unit
    # spacing of the prevertices. At 1e300 a prevertex also lies at
    # distance 0 of a panel in its units, which once gave another class.
    m = SCMap(Prevertices((-1.0, 0.0, 1.0)), ExponentVector((0.5,) * 4))
    for p, q in ((-1e300, 1e300), (-1e30, 0.5)):
        with pytest.raises(NoConvergence,
                           match="panel subdivision failed to terminate"):
            integrate_sc(m, p, q)


def test_each_map_of_a_batch_fails_alone():
    # Three maps in one loop at one tolerance: map 1's leg crosses its own
    # singularity at 0 and cannot be cut (a private leg: no public path
    # runs through a prevertex), map 2's leg, 1e-4 long at 1e6,
    # has nodes that round by about 1e-10 and stalls (at 2.35e-8
    # relative). Map 0's legs settle as they do alone.
    xs = np.array([[-1.0, 0.0, 1.0], [-1.0, 0.0, 2.0],
                   [-1.0, 1e6, 1e6 + 1e-4]])
    es = np.array([[-0.5, 0.3, -0.2], [-0.4, -0.3, 0.1], [0.2, -0.6, 0.5]])
    p = np.array([-1.0, 0.0, -0.3, 1e6])
    q = np.array([0.0, 1.0, 1.5, 1e6 + 1e-4])
    sums, failed = quadrature._refine("axis", p, q, xs, es, 1e-12,
                                      np.arange(4), np.array([0, 0, 1, 2]))
    assert sorted(failed) == [1, 2]
    assert type(failed[1]) is NoConvergence
    assert type(failed[2]) is NoConvergence
    alone, none = quadrature._refine("axis", p[:2], q[:2], xs[:1], es[:1],
                                     1e-12, np.arange(2))
    assert not none
    assert np.array_equal(sums[:2], alone)


def test_a_loop_whose_maps_all_failed_makes_no_pass(monkeypatch):
    # The lone leg of map 1 above, which cannot be cut: the loop returns
    # with its error and integrates nothing.
    passes = []
    leg_sums = quadrature._leg_sums

    def counted(*args):
        passes.append(args)
        return leg_sums(*args)

    monkeypatch.setattr(quadrature, "_leg_sums", counted)
    with pytest.raises(NoConvergence):
        quadrature._refine_map("axis", np.array([-0.3]), np.array([1.5]),
                               np.array([[-1.0, 0.0, 2.0]]),
                               np.array([[-0.4, -0.3, 0.1]]), 1e-12)
    assert passes == []


def test_values_sum_the_same_in_blocks(monkeypatch, crowded_map):
    # Values-only calls: one axis path of three pieces under one label,
    # and upper-plane legs and a tail through evaluate.
    points = np.array([0.5 + 0.2j, -0.5 + 0.01j, 0.04 + 0.001j, 3.0,
                       INFINITY])
    path = integrate_sc(crowded_map, -1.0, 3.0)
    images = evaluate(crowded_map, points)
    monkeypatch.setattr(quadrature, "_PASS_BLOCK", 7)
    assert integrate_sc(crowded_map, -1.0, 3.0) == path
    assert np.array_equal(evaluate(crowded_map, points), images)

"""Gauss-Jacobi panel quadrature for integrands with endpoint power laws.

The target integrand is prod_j (zeta - x_j)^(e_j) with all x_j real and
e_j > -1: integrable power singularities at the x_j, analytic elsewhere in
the closed upper half-plane. Each integral is one flat array of panels over
all its straight legs, cut subject to the half-distance rule (a panel must
keep every singularity that is not one of its own endpoints at least half a
panel length away), which grades panel sizes geometrically into the
singular endpoints. A singularity sitting at a panel endpoint is absorbed
exactly into that panel's Jacobi weight; every other factor is evaluated
at the Gauss nodes, in one array pass over all panels.

Every integral goes through one per-leg halving loop: each panel carries
the label of its leg, and only legs whose last two levels still differ
by more than the tolerance relative to the larger are halved again.
integrate_sc cuts a real leg at the prevertices inside it; the pieces
share its label, so the leg converges as a whole. forward's sides and
tail waypoint leg (scmap) have no prevertex inside them and go into the
loop as they are. integrate_finite_legs passes every
finite leg of a map at once and adds per leg the derivatives of its
integral in every finite prevertex: the off-leg ones are integrals over
the same panels with the same endpoint powers, the two on-leg ones follow
from translation invariance and homogeneity. A leg stops on its value
alone: its derivative row rides along on the panels its value needed.
Each level is one pass per block of panels (per panel its integral, or a
row of it and its derivative moments) and one scatter-add of the block
into its legs (np.add.at, panel by panel in order), so a leg's sums do
not depend on block boundaries or on the other legs of its passes.
Levels 0 and 1 always both run, as no leg can settle before they are
compared, so they share the first pass: level 1's panels follow level
0's, and each level adds into its own rows of the sums. Panel by panel
the columns do not depend on what else shares the pass, and each row
takes its panels in the order of its own level, so both levels' sums
are bit for bit those of a pass of their own.

One loop can carry the legs of many maps (forward's batches): the
singularities come as one row per map, each leg names its map, and one
tolerance serves every leg. Every step of a pass is elementwise or works
row by row; the contractions with the exponents are einsums, which sum
each row in one order whatever else shares the pass and whether the
exponent row is one map's, broadcast, or gathered per panel. So each
map's legs come out bit for bit as when the map is integrated alone, at
any order. A map whose leg cannot be cut or stalls drops out of the loop
with its error; the other maps go on. A Jacobi rule that fails its
check (never seen outside a broken build) raises out of the loop for
all its maps, and forward's batches then integrate each map alone.

The Jacobi rules of a pass, one per exponent pair absorbed at panel
ends, come from one bounded cache keyed on (order, a, b). The rules a
pass misses, over all its maps, are built together, and the key alone
picks the builder. The one-sided rules of order DEFAULT_ORDER, (e, 0)
and (0, e) with e in (-1, 1) and not 0, absorb one prevertex at one
panel end, and most panels have such an end. They come from one
vectorised Newton build (_one_sided): start nodes from a fixed table
over e, one Newton step on the three-term recurrence, Christoffel weights
against the closed-form moment 2^(e+1)/(e+1), and (0, e) as the mirror
of (e, 0). Every other rule ((0, 0), two-sided pairs, exponents of 1 or
more, other orders) comes from one stacked Golub-Welsch eigenproblem.
Each build checks every rule's weight sum against its total moment and
hands the cache read-only node and weight arrays, one row per rule.
Both builders work elementwise or row by row, so a rule's bits depend on
its key alone, never on what is built with it or on the cache.
forward's batches and the parameter solve build every one-sided rule of
their maps before their first loop. A pass stacks the rows it needs;
gauss_jacobi wraps a row in a QuadratureRule for its public callers.

Branch convention on the real axis: arg(zeta - x_j) is exactly 0 to the
right of x_j and exactly pi to the left. These phases are constant on each
panel and are applied as hard-coded constants rather than recomputed from
floating-point signs. Off the axis the principal logarithm applies (the
integrand is only ever evaluated in the closed upper half-plane, where the
two conventions agree), taken as log|zeta - x_j| + i np.arctan2(Im, Re):
the range (-pi, pi] of np.arctan2 keeps the principal branch's signed
zeros (pi from +0, -pi from -0 left of x_j), np.abs does not overflow
where |zeta - x_j|^2 would, and the two real ufuncs cost about a tenth of
np.log on the complex array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import islice
from typing import TYPE_CHECKING

import numpy as np

from .errors import (InvalidExponent, NoConvergence, NumericalError,
                     ValidationError, check_finite, check_finites, check_int,
                     check_number, check_numbers, is_number)

if TYPE_CHECKING:
    from .scmap import SCMap

DEFAULT_ORDER = 8
DEFAULT_TOL = 1e-10
MAX_LEVELS = 14
_MAX_SPLIT_DEPTH = 64
_LN2 = math.log(2.0)
# Panels per block of a pass: caps each (nodes x prevertices) array of a
# deep refinement at a few MB.
_PASS_BLOCK = 4096


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights on [-1, 1] for weight (1-x)^a (1+x)^b.

    ``exponent_right`` is a (the power at +1), ``exponent_left`` is b.
    Weights include the weight function, so sum(weights * f(nodes))
    approximates the weighted integral of f.
    """

    nodes: np.ndarray
    weights: np.ndarray
    exponent_left: float
    exponent_right: float
    order: int


def _check_exponents(a: float, b: float) -> None:
    """Raise InvalidExponent naming the pair unless a and b are both real
    numbers in (-1, inf) by the rule of scpoly.errors."""
    if not all(is_number(e, float) and -1.0 < e < math.inf for e in (a, b)):
        raise InvalidExponent("Jacobi exponents must be finite and "
                              f"exceed -1, got a={a!r}, b={b!r}")


def total_moment(a: float, b: float) -> float:
    """Integral of (1-x)^a (1+x)^b over [-1, 1], via log-gamma. An
    exponent that is not a real number in (-1, inf) raises InvalidExponent
    naming the pair, a moment that floats cannot hold NumericalError."""
    _check_exponents(a, b)
    try:
        m0 = math.exp((a + b + 1.0) * _LN2 + math.lgamma(a + 1.0)
                      + math.lgamma(b + 1.0) - math.lgamma(a + b + 2.0))
    except OverflowError:
        m0 = math.inf
    if m0 == math.inf:
        raise NumericalError(f"Jacobi total moment for a={a}, b={b} overflows")
    return m0


# Rules kept at most; a pass that overflows the cache evicts the oldest.
# Oldest by insertion, not by use: a hit does not reorder the cache, so a
# pass whose rules are all cached is a plain lookup. A map's legs absorb
# 2n - 1 one-sided rules in every pass, all built by _one_sided, and up
# to n - 2 two-sided ones in their first pass, built by _golub_welsch; a
# sweep chunk of 64 maps (see sweep.SWEEP_CHUNK) keeps them all cached up
# to n = 11. A rule evicted and built again has the same bits. Each entry
# is the (nodes, weights) row pair of a rule, views into the arrays of the
# build that made it; a build's rows go in together, so its arrays are
# freed once its last row is evicted.
_RULE_CACHE_SIZE = 2048
_rules: dict[tuple[int, float, float], tuple[np.ndarray, np.ndarray]] = {}


def _recurrence(order: int, a: np.ndarray, b: np.ndarray | float
                ) -> tuple[np.ndarray, np.ndarray]:
    """The three-term recurrence of the orthonormal Jacobi polynomials for
    the exponents a, b (one column per pair), beta_{k+1} q_{k+1} =
    (x - alpha_k) q_k - beta_k q_{k-1}, one row per k: alpha_0, ...,
    alpha_{order-1} (the diagonal of the Jacobi matrix) and beta_1, ...,
    beta_order (its off-diagonal, then the beta_order of q_order).

    The k = 0 diagonal and k = 1 off-diagonal entries use cancelled closed
    forms; the general expressions hit 0/0 at a + b = 0 and a + b = -1
    respectively."""
    s = a + b
    k = np.arange(1.0, order + 1.0)[:, None]
    t = 2.0 * k + s
    diag = np.empty((order, s.size))
    diag[0] = (b - a) / (s + 2.0)
    diag[1:] = (b * b - a * a) / (t[:-1] * (t[:-1] + 2.0))
    off = np.empty_like(diag)
    off[0] = np.sqrt(4.0 * (1.0 + a) * (1.0 + b)
                     / ((s + 2.0) ** 2 * (s + 3.0)))
    k, t = k[1:], t[1:]
    off[1:] = np.sqrt(
        4.0 * k * (k + a) * (k + b) * (k + s) / (t * t * (t * t - 1.0)))
    return diag, off


def _check_weight_sums(w: np.ndarray, m0: np.ndarray) -> None:
    """NumericalError unless every row of weights ``w`` sums to its total
    moment m0 within 1e-13 relative."""
    sums = np.sum(w, axis=1)
    bad = np.abs(sums - m0) > 1e-13 * m0
    if bad.any():
        r = int(np.argmax(bad))
        raise NumericalError(
            f"Jacobi rule weight sum off: {sums[r]} vs {m0[r]}")


def _golub_welsch(order: int, pairs: list[tuple[float, float]]
                  ) -> tuple[np.ndarray, np.ndarray]:
    """The nodes and weights of the rules of ``order`` for the exponent
    pairs (a, b), one read-only row each."""
    # First: total_moment rejects bad exponents and moments beyond floats.
    m0 = np.array([total_moment(*pair) for pair in pairs])
    # Golub-Welsch on the symmetric tridiagonal recurrence matrices, one
    # per pair (dense, lower triangle, a few dozen rows at most), all
    # solved by one stacked eigh. Not scipy.special.roots_jacobi: its
    # nodes and weights drift to ~1e-12 relative error for a near -1 once
    # the order passes ~24, visibly polluting high moments.
    diag, off = _recurrence(order, *np.array(pairs).T)
    # Row-major flat matrices: the diagonal is every (order + 1)-th entry
    # from 0, the subdiagonal from order.
    mats = np.zeros((len(pairs), order * order))
    mats[:, ::order + 1] = diag.T
    mats[:, order::order + 1] = off[:-1].T
    x, v = np.linalg.eigh(mats.reshape(-1, order, order))
    w = m0[:, None] * v[:, 0] ** 2
    _check_weight_sums(w, m0)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


# Degree of the polynomials in e that start _one_sided's Newton step.
# Interpolating at 22 Chebyshev points of (-1, 1), they meet the nodes of
# every rule (e, 0) of order 8 to about 1e-15, the rounding of the
# Golub-Welsch nodes they interpolate (degree 13 leaves 1e-11 at e near
# -1), so one step takes each node to its last bits.
_START_DEGREE = 21


@cache
def _start_table(order: int) -> np.ndarray:
    """Per power of e, highest first, the coefficients of the polynomials
    in e that interpolate the nodes of the rules (e, 0) of ``order``, one
    column per node. Built once per order from _golub_welsch's rules at
    the Chebyshev points e_j = cos(pi (j + 1/2) / (_START_DEGREE + 1)):
    divided differences, then their Newton form expanded into powers."""
    e = np.cos(np.pi * (np.arange(_START_DEGREE + 1.0) + 0.5)
               / (_START_DEGREE + 1))
    diffs = _golub_welsch(order, [(x, 0.0) for x in e.tolist()])[0].copy()
    for j in range(1, e.size):
        diffs[j:] = (diffs[j:] - diffs[j - 1:-1]) / (e[j:] - e[:-j])[:, None]
    table = diffs[-1:]
    for j in range(e.size - 2, -1, -1):
        table = (np.concatenate([table, diffs[j:j + 1]])
                 - e[j] * np.concatenate([0.0 * diffs[:1], table]))
    table = table[:, :, None]
    table.setflags(write=False)
    return table


def _orthonormal(x: np.ndarray, diag: np.ndarray, off: np.ndarray
                 ) -> tuple[list, list]:
    """The orthonormal polynomials q_0 = 1, q_1, ..., q_n of the recurrence
    ``diag``, ``off`` (see _recurrence; n = len(diag)) at the points x,
    and their derivatives; x and each recurrence hold one column per
    exponent pair."""
    q, d = [1.0, (x - diag[0]) / off[0]], [0.0, 1.0 / off[0]]
    for k in range(1, len(diag)):
        xa = x - diag[k]
        q.append((xa * q[k] - off[k - 1] * q[k - 1]) / off[k])
        d.append((xa * d[k] + q[k] - off[k - 1] * d[k - 1]) / off[k])
    return q, d


def _one_sided(order: int, pairs: list[tuple[float, float]]
               ) -> tuple[np.ndarray, np.ndarray]:
    """The nodes and weights of the rules of ``order`` (DEFAULT_ORDER,
    for which _START_DEGREE is chosen) for the exponent pairs (e, 0) and
    (0, e), each e in (-1, 1) and not 0, one read-only row each.

    Each exponent e gets the rule (e, 0) once, by one Newton step on
    q_order (see _orthonormal) from the nodes of _start_table, which
    takes them to their last bits. The same evaluation gives the
    Christoffel sums S = sum_{k < order} q_k^2 at the Gauss nodes, S - S'
    step to first order (the start is off by about 1e-15, so the second
    order is below rounding), and the weights m0 / S, with the total
    moment m0 = 2^(e+1)/(e+1). They sum to m0 at the Gauss nodes but not
    at nodes that the step leaves off, so _check_weight_sums guards the
    nodes too. The rule (0, e) is the mirror of (e, 0): nodes -x and
    weights, reversed. Arrays hold one column per exponent and every step
    is elementwise, so a row's bits depend on its e alone."""
    column: dict[float, int] = {}
    of = [column.setdefault(a + b, len(column)) for a, b in pairs]
    e = np.array(list(column))
    diag, off = _recurrence(order, e, 0.0)
    table = _start_table(order)
    x = table[0]
    for c in table[1:]:
        x = x * e + c
    q, d = _orthonormal(x, diag, off)
    step = q[-1] / d[-1]
    x = x - step
    s = sum(qk * qk for qk in q[:-1])
    ds = sum(qk * dk for qk, dk in zip(q[:-1], d[:-1]))
    m0 = np.array([2.0 ** (t + 1.0) / (t + 1.0) for t in column])
    w = (m0 / (s - 2.0 * ds * step)).T
    _check_weight_sums(w, m0)
    x, w = x.T[of], w[of]
    mirror = np.array([a == 0.0 for a, _ in pairs])
    x[mirror] = -x[mirror, ::-1]
    w[mirror] = w[mirror, ::-1]
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _jacobi_rules(order: int, pairs: list[tuple[float, float]]
                  ) -> list[tuple[np.ndarray, np.ndarray]]:
    """The (nodes, weights) rows of the rules of a checked ``order`` for
    the exponent pairs (a, b). The ones not cached are built together:
    one-sided pairs of order DEFAULT_ORDER, (e, 0) and (0, e) with e in
    (-1, 1) and not 0, by _one_sided, the others by _golub_welsch."""
    rules = [_rules.get((order, a, b)) for a, b in pairs]
    if None in rules:
        new = [r for r, rule in enumerate(rules) if rule is None]
        newton = [order == DEFAULT_ORDER and (a == 0.0) != (b == 0.0)
                  and -1.0 < a + b < 1.0 for a, b in (pairs[r] for r in new)]
        for build, part in (
                (_one_sided, [r for r, s in zip(new, newton) if s]),
                (_golub_welsch, [r for r, s in zip(new, newton) if not s])):
            if part:
                x, w = build(order, [pairs[r] for r in part])
                for r, row, weights in zip(part, x, w):
                    rules[r] = _rules[(order, *pairs[r])] = row, weights
        # Every rule of the pass is in hand, so the oldest entries can go.
        excess = max(len(_rules) - _RULE_CACHE_SIZE, 0)
        for key in list(islice(_rules, excess)):
            del _rules[key]
    return rules


def _one_sided_rules(alphas: np.ndarray) -> None:
    """Build, in one _jacobi_rules call, every one-sided rule that the
    legs of the maps with exponent rows ``alphas`` absorb: (e, 0) and
    (0, e) of each finite prevertex's e = alpha - 1, and (0, e) of the
    exponent at infinity (the tail's u = 0). A rule that fails its check
    raises for all the maps."""
    es = (alphas - 1.0).tolist()
    pairs = [(0.0, row[-1]) for row in es]
    for row in es:
        for e in row[:-1]:
            pairs += [(e, 0.0), (0.0, e)]
    _jacobi_rules(DEFAULT_ORDER, list(dict.fromkeys(pairs)))


def check_tol(tol: float, name: str = "tol") -> float:
    """``tol`` as a float; ValidationError unless it is a positive finite
    real number by the rule of scpoly.errors."""
    tol = check_number(tol, float, name)
    if not 0.0 < tol < math.inf:
        raise ValidationError(f"{name} must be positive and finite, got {tol}")
    return tol


def gauss_jacobi(order: int, a: float, b: float) -> QuadratureRule:
    """Gauss-Jacobi rule of the given order for weight (1-x)^a (1+x)^b.

    A one-sided rule of order DEFAULT_ORDER, (e, 0) or (0, e) with e in
    (-1, 1) and not 0, is built by Newton's method on the Jacobi
    recurrence, its weights the Christoffel numbers times the closed-form
    moment 2^(e+1)/(e+1). Every other rule is built by Golub-Welsch, its
    weights the total moment times the squared first components of the
    eigenvectors. Either way the weight sum is checked against the
    moment to 1e-13 relative when the rule is built, and a violation
    raises. The check cannot see a wrong moment. For a Golub-Welsch rule
    it guards the unit norm of the eigenvectors; for a Newton rule the
    nodes too, as Christoffel weights sum to the moment at the Gauss nodes
    but not at nodes that a step leaves off. A rule's bits depend on
    (order, a, b) alone. Rules are read-only, so one cached rule serves
    every call.
    An order that is not an integer >= 1 raises ValidationError; an
    exponent that is not a real number in (-1, inf) (see scpoly.errors for
    what is a number) raises InvalidExponent, and a moment beyond floats
    NumericalError from total_moment before the rule's eigenproblem is
    built (no Newton rule has such a moment).
    """
    # Checked before the cache is read: as keys, 8.0 == 8 and True == 1.
    order = check_int(order, "order", 1)
    _check_exponents(a, b)
    # An integer beyond floats becomes inf, which total_moment rejects.
    a, b = check_number(a, float, "a"), check_number(b, float, "b")
    nodes, weights = _jacobi_rules(order, [(a, b)])[0]
    return QuadratureRule(nodes=nodes, weights=weights, exponent_left=b,
                          exponent_right=a, order=order)


def _split(p: np.ndarray, q: np.ndarray, leg: np.ndarray, xs: np.ndarray,
           of: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                    dict[int, NumericalError]]:
    """Half-distance panels [a_k, b_k], labelled leg[i], on legs [p_i, q_i],
    and the errors of the maps that could not be cut.

    Panels are cut at their midpoints, breadth-first, until every
    singularity of the leg's map (row of[leg] of ``xs``) other than the
    panel's own endpoints lies at least half a panel length from it. A
    panel whose midpoint rounds onto an endpoint spans only a few float
    ulps and cannot be cut further; its value is below representable
    resolution anyway. Real legs give real panels. A map with panels left
    to cut after _MAX_SPLIT_DEPTH levels cannot be cut and fails with
    NoConvergence; its panels stay in the output for the caller to drop.
    """
    done = []
    failed = {}
    a, b = p, q
    for depth in range(_MAX_SPLIT_DEPTH + 1):
        # Avoided points (axis 1) in the frame where the panel (axis 0) is
        # [0, 1], so distances come in units of the panel length. One
        # map's row broadcasts; a batch takes each panel's map's row. The
        # fork stays: gathering one map's row too, with the two forks in
        # _columns, costs render x1.088 and solve x1.019 (tools/parity.py
        # per-call medians, seed-5 inputs, 2-core VM).
        avoid = xs if len(xs) == 1 else xs[of[leg]]
        sa = avoid - a[:, None]
        u = sa / (b - a)[:, None]
        dist = np.abs(u - np.minimum(np.maximum(u.real, 0.0), 1.0))
        own = (sa == 0.0) | (avoid == b[:, None])
        m = (a + b) / 2
        fine = ((dist >= 0.5) | own).all(axis=1) | (m == a) | (m == b)
        if np.count_nonzero(fine) == fine.size:
            done.append((a, b, leg))
            break
        done.append((a[fine], b[fine], leg[fine]))
        if depth == _MAX_SPLIT_DEPTH:
            failed = {g: NoConvergence("panel subdivision failed to terminate")
                      for g in np.unique(of[leg[~fine]]).tolist()}
            break
        # Cut inline, not by _halve, whose float-resolution guard these
        # panels never need: _halve here costs render x1.061, solve x1.033.
        cut = ~fine
        a, m, b, leg = a[cut], m[cut], b[cut], leg[cut]
        a, b, leg = (np.concatenate([a, m]), np.concatenate([m, b]),
                     np.concatenate([leg, leg]))
    a, b, leg = (np.concatenate(part) for part in zip(*done))
    return a, b, leg, failed


def _halve(a: np.ndarray, b: np.ndarray, leg: np.ndarray
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # Children of an admissible panel are admissible: lengths halve while
    # singularity distances do not shrink. Panels already at float
    # resolution stay as they are.
    m = (a + b) / 2
    cut = (m != a) & (m != b)
    return (np.concatenate([a, m[cut]]),
            np.concatenate([np.where(cut, m, b), b[cut]]),
            np.concatenate([leg, leg[cut]]))


def _columns(kind: str, a: np.ndarray, b: np.ndarray, leg: np.ndarray,
             xs: np.ndarray, es: np.ndarray, of: np.ndarray, rows: bool
             ) -> np.ndarray:
    """One Gauss-Jacobi pass of order DEFAULT_ORDER over the panels [a, b]:
    per panel, int f or, with ``rows``, a row of int f and the moments of
    its derivatives.

    ``xs`` are the singular points in the integration variable t and ``es``
    their exponents, one row per map; a panel takes the row of[leg] of its
    leg's map. A singular point sitting exactly at a panel endpoint
    puts its factor into that panel's Jacobi weight; every other factor is
    evaluated at the nodes, as set by ``kind``:

    - ``axis``: t real; |t - x|^e, times the constant phase exp(i pi e) of
      each x to the right of the panel (the real-axis branch);
    - ``upper``: principal (t - x)^e, on complex panels, its log as
      log|t - x| + i arctan2 (see the module docstring);
    - ``tail``: t = 1/zeta real; (1 - t/x)^e, which is t^e at x = 0, the
      only singular point within reach of a tail panel.

    With ``rows`` (axis panels of one map, leg j from z_j = xs[0, j] to
    z_{j+1}) the columns go on with int f/(zeta - z_k) for every k off the
    leg (0 for z_j and z_{j+1}): differentiating under the integral sign
    gives dI_j/dz_k = -e_k int f/(zeta - z_k) there. The integrands keep
    the endpoint powers of f, so the panels and rules of f serve as they
    are; integrate_finite_legs finds the two on-leg derivatives from the
    settled per-leg sums.
    """
    # Per panel, the row of its leg's map; one map's row broadcasts. Every
    # contraction with the exponents is an einsum, which sums each row in
    # one order however many rows share its pass and whether its exponent
    # row is broadcast or gathered. The broadcast is kept for speed (see
    # _split).
    X, E = (xs, es) if len(xs) == 1 else (xs[of[leg]], es[of[leg]])
    own_left = a[:, None] == X
    own_right = b[:, None] == X
    ks, js = np.nonzero(own_left | own_right)
    # One Jacobi rule per absorbed exponent pair; ((b - a)/2)^e goes to logs.
    rule_of = np.zeros(a.size, dtype=np.intp)
    pairs = {(0.0, 0.0): 0}
    logs = 0.0
    if ks.size:
        e_left = np.einsum("pk,pk->p", own_left, E)
        e_right = np.einsum("pk,pk->p", own_right, E)
        rule_of[ks] = [pairs.setdefault(pair, len(pairs)) for pair in
                       zip(e_right[ks].tolist(), e_left[ks].tolist())]
        if kind == "upper":
            # Into the upper half-plane from each end: the principal branch.
            logs = (e_left * (np.log(b - a) - _LN2)
                    + e_right * (np.log(a - b) - _LN2))
        else:
            logs = (e_left + e_right) * (np.log(b - a) - _LN2)
    rules = _jacobi_rules(DEFAULT_ORDER, list(pairs))
    if len(rules) == 1:
        # One rule for every panel: its rows broadcast. Gathering them by
        # rule_of as below costs render x1.068.
        t, w = (row[None] for row in rules[0])
    else:
        t, w = np.array(rules).swapaxes(0, 1)[:, rule_of]
    half = (b - a) / 2.0
    nodes = a[:, None] + (t + 1.0) * half[:, None]
    d = nodes[:, :, None] - X[:, None, :]
    if kind != "upper":
        d = np.abs(d)
        if kind == "tail":
            d /= np.where(X == 0.0, 1.0, np.abs(X))[:, None, :]
        if kind == "axis":
            # An absorbed right end lies right of the nodes: its phase counts.
            logs = logs + 1j * math.pi * np.einsum("pk,pk->p",
                                                   X >= b[:, None], E)
    # Absorbed factors drop out of the nodes as log(1) = 0 and come back
    # as ((b - a)/2)^e times (1 -+ x)^e.
    if ks.size:
        d[ks, :, js] = 1.0
    if kind == "upper":
        # The principal log, written half by half (module docstring).
        lg = np.empty_like(d)
        np.log(np.abs(d), out=lg.real)
        np.arctan2(d.imag, d.real, out=lg.imag)
    else:
        lg = np.log(d, out=d)
    f = np.exp(np.einsum("pnk,pk->pn", lg, E))
    # Without absorbed ends or phases (upper legs off the axis) logs is 0,
    # and half times exp(0) = 1 is half, bit for bit.
    scale = half * np.exp(logs) if ks.size or kind == "axis" else half
    cols = scale * np.einsum("kj,kj->k", f, w)
    if rows:
        # 1/(zeta - z_k) at the nodes, 0 for the leg's own ends (at -inf).
        k = np.arange(X.shape[1])
        own = (k == leg[:, None]) | (k == leg[:, None] + 1)
        inv = 1.0 / (nodes[..., None] - np.where(own, -np.inf, X)[:, None, :])
        moments = np.einsum("pn,pnk->pk", f * w, inv)
        cols = np.column_stack([cols, scale[:, None] * moments])
    return cols


def _leg_sums(kind: str, a: np.ndarray, b: np.ndarray, leg: np.ndarray,
              xs: np.ndarray, es: np.ndarray, of: np.ndarray, size: int,
              rows: bool, at: np.ndarray) -> np.ndarray:
    """Per row 0, ..., size - 1 of the sums, the sum of the columns of the
    panels at[i] names, added panel by panel in order by one scatter-add
    per block of at most _PASS_BLOCK panels: the integral and, with
    ``rows``, the moments of its derivatives (see _columns, which reads
    ``leg`` as each panel's leg within its map). A row without panels
    reads zero."""
    sums = np.zeros((size, xs.shape[1] + 1) if rows else size, dtype=complex)
    for i in range(0, a.size, _PASS_BLOCK):
        block = slice(i, i + _PASS_BLOCK)
        np.add.at(sums, at[block], _columns(kind, a[block], b[block],
                                            leg[block], xs, es, of, rows))
    return sums if rows else sums[:, None]


def _refine(kind: str, p: np.ndarray, q: np.ndarray, xs: np.ndarray,
            es: np.ndarray, tol: float, leg: np.ndarray | None = None,
            of: np.ndarray | None = None, rows: bool = False
            ) -> tuple[np.ndarray, dict[int, NumericalError]]:
    """_leg_sums over the legs [p_i, q_i], labelled leg[i] = 0, 1, ... in
    ascending order (one leg without ``leg``), leg j of the map of[j] (map
    0 without ``of``), whose singularities are row of[j] of ``xs`` and
    ``es``. Each leg is halved until its value differs between two levels
    by at most ``tol`` times the larger. A derivative row (with ``rows``)
    rides along on the same panels and does not vote. No leg's sums depend
    on another's, so a settled leg's panels leave the passes for good, its
    sums kept from the pass it settled in. The first pass carries levels
    0 and 1, each added into its own rows (``at``; ``leg`` stays the leg
    within its map, which _columns reads), so a leg that settles at the
    first comparison takes one pass, with the sums of two separate ones.

    Returns the sums and, per map that failed, its NoConvergence: a leg
    that could not be cut (_split) or a leg still unsettled after
    MAX_LEVELS halvings. A map that cannot be cut leaves the passes at once,
    its rows of the sums undefined; the other maps go on as if alone, and
    a loop with no map left makes no pass. Any other error (a Jacobi rule
    that fails its check) is raised."""
    leg = np.zeros(p.size, dtype=np.intp) if leg is None else leg
    # The legs still halved.
    live = np.ones(int(leg[-1]) + 1, dtype=bool)
    of = np.zeros(live.size, dtype=np.intp) if of is None else of
    a, b, leg, failed = _split(p, q, leg, xs, of)
    if failed:
        live[np.isin(of, list(failed))] = False
        if not live.any():
            return np.empty((live.size, xs.shape[1] + 1 if rows else 1),
                            dtype=complex), failed
        keep = live[leg]
        a, b, leg = a[keep], b[keep], leg[keep]
    # Levels 0 and 1 in one pass: level 1's panels follow level 0's, and
    # each level adds into its own rows of the sums.
    legs = live.size
    a1, b1, leg1 = _halve(a, b, leg)
    both = _leg_sums(kind, np.concatenate([a, a1]), np.concatenate([b, b1]),
                     np.concatenate([leg, leg1]), xs, es, of, 2 * legs, rows,
                     np.concatenate([leg, leg1 + legs]))
    cur, new = both[:legs], both[legs:]
    a, b, leg = a1, b1, leg1
    out = np.empty_like(cur)
    for level in range(MAX_LEVELS):
        if level:
            a, b, leg = _halve(a, b, leg)
            cur, new = new, _leg_sums(kind, a, b, leg, xs, es, of, legs,
                                      rows, leg)
        change = np.abs(new[:, 0] - cur[:, 0])
        size = np.maximum(np.abs(new[:, 0]), np.abs(cur[:, 0]))
        done = live & (change <= tol * size)
        if done.any():
            np.copyto(out, new, where=done[:, None])
            live ^= done
            if not live.any():
                return out, failed
            keep = live[leg]
            a, b, leg = a[keep], b[keep], leg[keep]
    # Each map with a leg that never settled fails at its worst leg.
    excess = change - tol * size
    for g in np.unique(of[live]).tolist():
        worst = np.argmax(np.where(live & (of == g), excess, -np.inf))
        failed[g] = NoConvergence(
            f"panel refinement stalled at {change[worst]:.3e} relative to "
            f"{size[worst]:.3e} (tol {tol:.1e})")
    return out, failed


def _refine_map(kind: str, p: np.ndarray, q: np.ndarray, xs: np.ndarray,
                es: np.ndarray, tol: float, leg: np.ndarray | None = None,
                rows: bool = False) -> np.ndarray:
    """_refine for the legs of one map, whose error it raises."""
    out, failed = _refine(kind, p, q, xs, es, tol, leg, rows=rows)
    if failed:
        raise failed[0]
    return out


def _sc_singularities(map) -> tuple[np.ndarray, np.ndarray]:
    # The finite prevertices and their exponents, as one row each.
    xs = np.asarray(map.prevertices.finite_points, dtype=float)
    es = np.asarray(map.exponents.alphas[:-1], dtype=float) - 1.0
    return xs[None], es[None]


def _tail_singularities(xs: np.ndarray, es: np.ndarray, e_inf: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray]:
    """The tail integrand's singular points in u = 1/zeta and their
    exponents, one row per map (prevertex rows ``xs``, exponent rows
    ``es``, exponents at infinity ``e_inf``): u = 0 with the exponent at
    infinity, then 1/z_j for every finite prevertex but z_2 = 0."""
    shape = (len(xs), -1)
    keep = xs != 0.0
    us = np.column_stack([np.zeros(len(xs)), 1.0 / xs[keep].reshape(shape)])
    ues = np.column_stack([e_inf, es[keep].reshape(shape)])
    return us, ues


def integrate_sc(map: "SCMap", z_from: complex, z_to: complex,
                 tol: float = DEFAULT_TOL) -> complex:
    """Path integral of prod_j (zeta - z_j)^(alpha_j - 1) from z_from to z_to.

    The constants A, B of the enclosing map play no role here. A path on
    the real axis is one leg cut at the prevertices strictly inside it,
    so its integral is the convergent improper one; its pieces share the
    leg's label and converge as a whole.
    """
    z_from = check_finite(z_from, complex, "z_from")
    z_to = check_finite(z_to, complex, "z_to")
    for z, name in ((z_from, "z_from"), (z_to, "z_to")):
        if z.imag < 0.0:
            raise ValidationError(
                f"{name} must lie in the closed upper half-plane")
    tol = check_tol(tol)
    if z_from == z_to:
        return 0j
    xs, es = _sc_singularities(map)
    if z_from.imag == 0.0 and z_to.imag == 0.0:
        lo, hi = sorted((z_from.real, z_to.real))
        inside = xs[0][(lo < xs[0]) & (xs[0] < hi)]
        cuts = np.concatenate([[lo], inside, [hi]])
        total = _refine_map("axis", cuts[:-1], cuts[1:], xs, es, tol)[0, 0]
        return complex(total if z_from.real < z_to.real else -total)
    return complex(_refine_map("upper", np.array([z_from]), np.array([z_to]),
                               xs, es, tol)[0, 0])


def integrate_finite_legs(points, alphas, tol: float = DEFAULT_TOL
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Integrals over all finite real legs of a map, with their derivatives.

    ``points`` are the finite prevertices z_1 < ... < z_m and ``alphas``
    their exponents; the exponent at infinity plays no role on these legs.
    Returns I of length m - 1, the bare integrals over (z_j, z_{j+1}) as
    integrate_sc gives them, and D of shape (m - 1, m) with D[j, k] =
    dI_j/dz_k. Each leg stops halving once its value agrees to ``tol``
    between two levels; its row comes from the same panels and does not
    vote, so it is as accurate as those panels make it. The two on-leg
    entries of a row follow from its others by translation invariance and
    homogeneity of I_j.
    """
    # Checked on the tuples: NumPy costs more on a few values.
    xs = check_finites(points, float, "points")
    alphas = check_numbers(alphas, float, "alphas", InvalidExponent)
    if len(xs) != len(alphas) or len(xs) < 2:
        raise ValidationError("need one exponent for each of >= 2 points")
    if not all(a < b for a, b in zip(xs, xs[1:])):
        raise ValidationError("points must be finite and strictly increasing")
    for alpha in alphas:
        if not -1.0 < alpha - 1.0 < math.inf:
            raise InvalidExponent(
                f"exponents must be positive and finite, got alpha={alpha}")
    xs, es = np.array(xs), np.array(alphas) - 1.0
    tol = check_tol(tol)
    j = np.arange(xs.size - 1)
    sums = _refine_map("axis", xs[:-1], xs[1:], xs[None], es[None], tol, j,
                       rows=True)
    # From the settled sums: D[j, j] and D[j, j + 1] follow from the
    # off-leg entries by translation invariance (sum_k D[j, k] = 0) and
    # homogeneity (sum_k (z_k - z_j) D[j, k] = (1 + sum(es)) I_j).
    I, D = sums[:, 0], -es * sums[:, 1:]
    D[j, j + 1] = ((1.0 + es.sum()) * I
                   - (D * (xs - xs[:-1, None])).sum(axis=1)) / np.diff(xs)
    D[j, j] = -D.sum(axis=1)
    return I, D


def integrate_to_infinity(map: "SCMap", z_from: float,
                          tol: float = DEFAULT_TOL) -> complex:
    """Tail integral of the bare integrand from z_from along R to infinity.

    Substituting u = 1/zeta turns the tail into an integral over (0, 1/z_from]
    of u^(alpha_n - 1) * prod_j (1 - z_j u)^(alpha_j - 1): a Jacobi-weighted
    singularity at u = 0 (the decay exponent at infinity) and smooth positive
    factors, since every 1/z_j lies outside the interval.
    """
    xs, es = _sc_singularities(map)
    z_from = check_number(z_from, float, "z_from")
    if not xs[0, -1] < z_from < math.inf:
        raise ValidationError(f"tail start {z_from} must be finite and exceed "
                              f"the last finite prevertex {xs[0, -1]}")
    tol = check_tol(tol)
    us, ues = _tail_singularities(xs, es, map.exponents.alphas[-1] - 1.0)
    return complex(_refine_map("tail", np.array([0.0]),
                               np.array([1.0 / z_from]), us, ues, tol)[0, 0])

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

Convergence control is a whole-path comparison of successive global panel
halvings (every level doubles the panel count); levels are compared in
relative terms and the refined value is returned.

integrate_finite_legs serves the parameter solver: it takes all finite
legs (z_j, z_{j+1}) of one map through one split and one halving loop, and
returns each leg's integral together with its derivatives in every finite
prevertex. The derivatives are integrals over the same panels with the
same endpoint powers, so they cost one extra (nodes x prevertices) product
per pass; per-leg sums come from reduceat over blocks of panels, which
bounds the memory of a deep refinement. A leg stops halving once
its value and its derivative row each agree to the tolerance; rows wait
until every value has converged.

Branch convention on the real axis: arg(zeta - x_j) is exactly 0 to the
right of x_j and exactly pi to the left. These phases are constant on each
panel and are applied as hard-coded constants rather than recomputed from
floating-point signs. Off the axis the principal logarithm applies (the
integrand is only ever evaluated in the closed upper half-plane, where the
two conventions agree).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import (InvalidExponent, NoConvergence, NumericalError,
                     PathThroughSingularity, ValidationError)

if TYPE_CHECKING:
    from .scmap import SCMap

DEFAULT_ORDER = 8
DEFAULT_TOL = 1e-10
MAX_LEVELS = 14
_MAX_SPLIT_DEPTH = 64
_LN2 = math.log(2.0)
# Panels per block of a finite-legs pass: caps each (nodes x prevertices)
# array of a deep refinement at a few MB.
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


def total_moment(a: float, b: float) -> float:
    """Integral of (1-x)^a (1+x)^b over [-1, 1], via log-gamma."""
    return math.exp((a + b + 1.0) * _LN2
                    + math.lgamma(a + 1.0) + math.lgamma(b + 1.0)
                    - math.lgamma(a + b + 2.0))


@lru_cache(maxsize=512)
def _jacobi_nodes_weights(order: int, a: float, b: float):
    # Golub-Welsch on the symmetric tridiagonal recurrence matrix. Not
    # scipy.special.roots_jacobi: its nodes and weights drift to ~1e-12
    # relative error for a near -1 once the order passes ~24, visibly
    # polluting high moments. The k = 0 diagonal and k = 1 off-diagonal
    # entries use cancelled closed forms; the general expressions hit 0/0
    # at a + b = 0 and a + b = -1 respectively.
    s = a + b
    diag = np.empty(order)
    diag[0] = (b - a) / (s + 2.0)
    k = np.arange(1.0, order)
    diag[1:] = (b * b - a * a) / ((2.0 * k + s) * (2.0 * k + s + 2.0))
    off = np.empty(order - 1)
    if order > 1:
        off[0] = math.sqrt(4.0 * (1.0 + a) * (1.0 + b)
                           / ((s + 2.0) ** 2 * (s + 3.0)))
        j = np.arange(2.0, order)
        t = 2.0 * j + s
        off[1:] = np.sqrt(4.0 * j * (j + a) * (j + b) * (j + s)
                          / (t * t * (t * t - 1.0)))
    x, v = eigh_tridiagonal(diag, off)
    m0 = total_moment(a, b)
    w = m0 * v[0] ** 2
    if abs(float(np.sum(w)) - m0) > 1e-13 * m0:
        raise NumericalError(f"Jacobi rule weight sum off: {np.sum(w)} vs {m0}")
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def gauss_jacobi(order: int, a: float, b: float) -> QuadratureRule:
    """Gauss-Jacobi rule of the given order for weight (1-x)^a (1+x)^b.

    The weight sum is checked against the closed-form total moment to
    1e-13 relative when the rule is built (once per cached rule); a
    violation means a broken rule and raises.
    """
    if order < 1:
        raise ValidationError(f"order must be >= 1, got {order}")
    if a <= -1.0 or b <= -1.0:
        raise InvalidExponent(f"Jacobi exponents must exceed -1, got a={a}, b={b}")
    x, w = _jacobi_nodes_weights(order, float(a), float(b))
    return QuadratureRule(nodes=x, weights=w, exponent_left=float(b),
                          exponent_right=float(a), order=order)


def _split(p: np.ndarray, q: np.ndarray,
           avoid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Half-distance panels [a_k, b_k] covering the legs [p_i, q_i].

    Panels are cut at their midpoints, breadth-first, until every point of
    ``avoid`` other than a panel's own endpoints lies at least half a panel
    length from it. A panel whose midpoint rounds onto an endpoint spans
    only a few float ulps and cannot be cut further; its value is below
    representable resolution anyway. Real legs give real panels.
    """
    done_a, done_b = [], []
    a, b = p, q
    for depth in range(_MAX_SPLIT_DEPTH + 1):
        # Avoided points (axis 1) in the frame where the panel (axis 0) is
        # [0, 1], so distances come in units of the panel length.
        sa = avoid - a[:, None]
        u = sa / (b - a)[:, None]
        dist = np.abs(u - np.minimum(np.maximum(u.real, 0.0), 1.0))
        own = (sa == 0.0) | (avoid == b[:, None])
        m = (a + b) / 2
        fine = ((dist >= 0.5) | own).all(axis=1) | (m == a) | (m == b)
        if fine.all():
            done_a.append(a)
            done_b.append(b)
            break
        if depth == _MAX_SPLIT_DEPTH:
            if np.any(((dist == 0.0) & ~own)[~fine]):
                raise PathThroughSingularity("path runs through a singularity")
            raise NoConvergence("panel subdivision failed to terminate")
        done_a.append(a[fine])
        done_b.append(b[fine])
        cut = ~fine
        a, m, b = a[cut], m[cut], b[cut]
        a, b = np.concatenate([a, m]), np.concatenate([m, b])
    return np.concatenate(done_a), np.concatenate(done_b)


def _halve(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Children of an admissible panel are admissible: lengths halve while
    # singularity distances do not shrink. Panels already at float
    # resolution stay as they are.
    m = (a + b) / 2
    cut = (m != a) & (m != b)
    return (np.concatenate([a, m[cut]]),
            np.concatenate([np.where(cut, m, b), b[cut]]))


def _panel_terms(kind: str, a: np.ndarray, b: np.ndarray, xs: np.ndarray,
                 es: np.ndarray):
    """One Gauss-Jacobi pass of order DEFAULT_ORDER over the panels [a, b].

    Returns the nodes, the integrand at the nodes, the weights (each of
    shape (panels, order)) and a per-panel scale, so that panel k
    integrates to scale[k] * sum_j weights[k, j] * f[k, j].

    ``xs`` are the singular points in the integration variable t and ``es``
    their exponents. A singular point sitting exactly at a panel endpoint
    puts its factor into that panel's Jacobi weight; every other factor is
    evaluated at the nodes, as set by ``kind``:

    - ``axis``: t real; |t - x|^e, times the constant phase exp(i pi e) of
      each x to the right of the panel (the real-axis branch);
    - ``upper``: principal (t - x)^e, on complex panels;
    - ``tail``: t = 1/zeta real; (1 - t/x)^e, which is t^e at x = 0, the
      only singular point within reach of a tail panel.
    """
    order = DEFAULT_ORDER
    own_left = a[:, None] == xs
    own_right = b[:, None] == xs
    e_left = own_left @ es
    e_right = own_right @ es
    own = own_left | own_right
    # The Jacobi rule of each panel: one per absorbed exponent pair.
    ks, js = np.nonzero(own)
    rule_of = np.zeros(a.size, dtype=np.intp)
    pairs = {(0.0, 0.0): 0}
    for k in ks.tolist():
        rule_of[k] = pairs.setdefault((e_right[k], e_left[k]), len(pairs))
    rules = [gauss_jacobi(order, a=eR, b=eL) for eR, eL in pairs]
    t = np.array([r.nodes for r in rules])[rule_of]
    w = np.array([r.weights for r in rules])[rule_of]
    half = (b - a) / 2.0
    nodes = a[:, None] + (t + 1.0) * half[:, None]
    if kind == "upper":
        f = nodes.reshape(-1, 1) - xs
        # The directions point from each singular endpoint into the closed
        # upper half-plane, where the principal log is the right branch.
        logs = (e_left * (np.log(b - a) - _LN2)
                + e_right * (np.log(a - b) - _LN2))
    else:
        f = np.abs(nodes.reshape(-1, 1) - xs)
        if kind == "tail":
            f /= np.where(xs == 0.0, 1.0, np.abs(xs))
        logs = (e_left + e_right) * (np.log(b - a) - _LN2)
        if kind == "axis":
            # An absorbed right end lies right of the nodes: its phase counts.
            logs = logs + 1j * math.pi * ((xs >= b[:, None]) @ es)
    # Absorbed factors drop out of the nodes as log(1) = 0 and come back
    # as ((b - a)/2)^e times (1 -+ x)^e.
    f.reshape(a.size, order, xs.size)[ks, :, js] = 1.0
    f = np.exp(np.log(f) @ es).reshape(t.shape)
    return nodes, f, w, half * np.exp(logs)


def _panel_sum(kind: str, a: np.ndarray, b: np.ndarray, xs: np.ndarray,
               es: np.ndarray) -> complex:
    """The integral over the panels [a, b] from one pass of _panel_terms."""
    _, f, w, scale = _panel_terms(kind, a, b, xs, es)
    return complex(np.sum(scale * np.einsum("kj,kj->k", f, w)))


def _refined(kind: str, a: np.ndarray, b: np.ndarray, xs: np.ndarray,
             es: np.ndarray, tol: float) -> complex:
    """Halve every panel until two successive levels agree to ``tol``."""
    prev = _panel_sum(kind, a, b, xs, es)
    diff = math.inf
    for _ in range(MAX_LEVELS):
        a, b = _halve(a, b)
        cur = _panel_sum(kind, a, b, xs, es)
        denom = max(abs(cur), abs(prev))
        diff = abs(cur - prev)
        if denom == 0.0 or diff <= tol * denom:
            return cur
        prev = cur
    raise NoConvergence(
        f"panel refinement stalled at {diff:.3e} relative to {denom:.3e} "
        f"(tol {tol:.1e})")


def _sc_singularities(map) -> tuple[np.ndarray, np.ndarray]:
    xs = np.asarray(map.prevertices.finite_points, dtype=float)
    es = np.asarray(map.exponents.alphas[:-1], dtype=float) - 1.0
    return xs, es


def _check_upper(z: complex, name: str):
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValidationError(f"{name} must be finite")
    if z.imag < 0.0:
        raise ValidationError(f"{name} must lie in the closed upper half-plane")


def integrate_sc(map: "SCMap", z_from: complex, z_to: complex,
                 tol: float = DEFAULT_TOL) -> complex:
    """Path integral of prod_j (zeta - z_j)^(alpha_j - 1) from z_from to z_to.

    The constants A, B of the enclosing map play no role here. Real-axis
    legs crossing a prevertex are split there, so the integral is the
    convergent improper one; this keeps additivity across prevertices.
    """
    z_from, z_to = complex(z_from), complex(z_to)
    _check_upper(z_from, "z_from")
    _check_upper(z_to, "z_to")
    if tol <= 0.0:
        raise ValidationError("tol must be positive")
    if z_from == z_to:
        return 0j
    xs, es = _sc_singularities(map)
    if z_from.imag == 0.0 and z_to.imag == 0.0:
        lo, hi = sorted((z_from.real, z_to.real))
        cuts = np.concatenate(([lo], xs[(lo < xs) & (xs < hi)], [hi]))
        a, b = _split(cuts[:-1], cuts[1:], xs)
        total = _refined("axis", a, b, xs, es, tol)
        return total if z_from.real < z_to.real else -total
    a, b = _split(np.array([z_from]), np.array([z_to]), xs)
    return _refined("upper", a, b, xs, es, tol)


def _leg_of(xs: np.ndarray, a: np.ndarray) -> np.ndarray:
    # Leg j holds the panels that start in [xs[j], xs[j + 1]).
    return np.searchsorted(xs, a, side="right") - 1


def _finite_legs_pass(a: np.ndarray, b: np.ndarray, xs: np.ndarray,
                      es: np.ndarray):
    """Leg integrals and their derivatives from one pass over axis panels.

    Leg j runs from xs[j] to xs[j + 1]. Returns the legs that own panels,
    their integrals I and derivative rows D, D[i, k] = dI_(legs[i])/dxs[k].
    With t = (zeta - z_j)/(z_{j+1} - z_j) on leg j and c_j = 1 + e_j +
    e_{j+1}, differentiating under the integral sign gives

        dI_j/dz_k     = -e_k int f/(zeta - z_k)          (k off the leg),
        dI_j/dz_j     = -c_j I_j/(z_{j+1} - z_j) + int f (1 - t) s,
        dI_j/dz_{j+1} = +c_j I_j/(z_{j+1} - z_j) + int f t s,

    where s = sum_{k off the leg} e_k/(zeta - z_k). Each integrand keeps
    the endpoint powers of f, so the panels and rules of f serve as they
    are; every column is summed per leg with reduceat, one block of
    panels at a time.
    """
    leg_of = _leg_of(xs, a)
    keep = np.argsort(leg_of, kind="stable")
    a, b, leg_of = a[keep], b[keep], leg_of[keep]
    legs = leg_of[np.flatnonzero(np.diff(leg_of, prepend=-1))]
    sums = np.zeros((legs.size, xs.size + 2), dtype=complex)
    for i in range(0, a.size, _PASS_BLOCK):
        block = slice(i, i + _PASS_BLOCK)
        starts = np.flatnonzero(np.diff(leg_of[block], prepend=-1))
        rows = np.searchsorted(legs, leg_of[block][starts])
        sums[rows] += np.add.reduceat(
            _leg_columns(a[block], b[block], leg_of[block], xs, es),
            starts, axis=0)
    I, T = sums[:, 0], sums[:, -1]
    D = -es * sums[:, 1:-1]
    jump = (1.0 + es[legs] + es[legs + 1]) * I / (xs[legs + 1] - xs[legs])
    row = np.arange(legs.size)
    D[row, legs] = -D.sum(axis=1) - T - jump
    D[row, legs + 1] = T + jump
    return legs, I, D


def _leg_columns(a: np.ndarray, b: np.ndarray, leg_of: np.ndarray,
                 xs: np.ndarray, es: np.ndarray) -> np.ndarray:
    # Per panel: int f, int f/(zeta - z_k) for every k, and int f t s.
    nodes, f, w, scale = _panel_terms("axis", a, b, xs, es)
    # 1/(zeta - z_k) at the nodes, 0 for the leg's own ends (moved to -inf).
    k = np.arange(xs.size)
    own = (k == leg_of[:, None]) | (k == leg_of[:, None] + 1)
    inv = 1.0 / (nodes[..., None] - np.where(own, -np.inf, xs)[:, None, :])
    fw = f * w
    t = (nodes - xs[leg_of, None]) / (xs[leg_of + 1] - xs[leg_of])[:, None]
    moments = np.stack([fw, fw * t], axis=1) @ inv
    cols = np.column_stack([np.einsum("kj,kj->k", f, w), moments[:, 0],
                            moments[:, 1] @ es])
    return scale[:, None] * cols


def _leg_sizes(I: np.ndarray, D: np.ndarray) -> np.ndarray:
    # Values and derivative rows converge each on their own scale: the
    # derivative row of a short leg is far larger than its value.
    return np.column_stack([np.abs(I), np.linalg.norm(D, axis=1)])


def integrate_finite_legs(points, alphas, tol: float = DEFAULT_TOL
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Integrals over all finite real legs of a map, with their derivatives.

    ``points`` are the finite prevertices z_1 < ... < z_m and ``alphas``
    their exponents; the exponent at infinity plays no role on these legs.
    Returns I of length m - 1, the bare integrals over (z_j, z_{j+1}) as
    integrate_sc gives them, and D of shape (m - 1, m) with D[j, k] =
    dI_j/dz_k. All legs share one panel split and one halving loop; a leg
    stops halving once its value and its derivative row each agree to
    ``tol`` between two levels. Values are settled before derivative
    rows, so a value that cannot converge fails the call before any row
    is refined deep.
    """
    xs = np.asarray(points, dtype=float)
    es = np.asarray(alphas, dtype=float) - 1.0
    if xs.ndim != 1 or xs.shape != es.shape or xs.size < 2:
        raise ValidationError("need one exponent for each of >= 2 points")
    if not (np.all(np.isfinite(xs)) and np.all(np.diff(xs) > 0.0)):
        raise ValidationError("points must be finite and strictly increasing")
    if not np.all(es > -1.0):
        raise InvalidExponent("exponents must be positive")
    if tol <= 0.0:
        raise ValidationError("tol must be positive")
    a, b = _split(xs[:-1], xs[1:], xs)
    _, I, D = _finite_legs_pass(a, b, xs, es)
    # Per leg: value, derivative row not yet converged.
    unsettled = np.ones((xs.size - 1, 2), dtype=bool)
    level = np.zeros(xs.size - 1, dtype=int)
    while unsettled.any():
        # Next to prevertices closer than the float resolution of their
        # position a derivative row stalls at rounding level, and there
        # some value fails anyway: rows wait until every value converged.
        turn = (unsettled[:, 0] if unsettled[:, 0].any()
                else unsettled[:, 1])
        if level[turn].max() == MAX_LEVELS:
            worst = np.unravel_index(np.argmax(diff - tol * denom), diff.shape)
            raise NoConvergence(
                f"panel refinement stalled at {diff[worst]:.3e} relative to "
                f"{denom[worst]:.3e} (tol {tol:.1e})")
        mine = turn[_leg_of(xs, a)]
        halved = _halve(a[mine], b[mine])
        legs, I_new, D_new = _finite_legs_pass(*halved, xs, es)
        diff = _leg_sizes(I_new - I[legs], D_new - D[legs])
        denom = np.maximum(_leg_sizes(I_new, D_new),
                           _leg_sizes(I[legs], D[legs]))
        I[legs], D[legs] = I_new, D_new
        level[legs] += 1
        unsettled[legs] = diff > tol * denom
        a = np.concatenate([a[~mine], halved[0]])
        b = np.concatenate([b[~mine], halved[1]])
        keep = unsettled.any(axis=1)[_leg_of(xs, a)]
        a, b = a[keep], b[keep]
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
    z_from = float(z_from)
    if not z_from > xs[-1]:
        raise ValidationError(
            f"tail start {z_from} must exceed the last finite prevertex {xs[-1]}")
    if tol <= 0.0:
        raise ValidationError("tol must be positive")
    nonzero = xs != 0.0
    us = np.concatenate(([0.0], 1.0 / xs[nonzero]))
    ues = np.concatenate(([map.exponents.alphas[-1] - 1.0], es[nonzero]))
    a, b = _split(np.array([0.0]), np.array([1.0 / z_from]), us)
    return _refined("tail", a, b, us, ues, tol)

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


def _panel_sum(kind: str, a: np.ndarray, b: np.ndarray, xs: np.ndarray,
               es: np.ndarray) -> complex:
    """One Gauss-Jacobi pass of order DEFAULT_ORDER over the panels [a, b].

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
    nodes = (a[:, None] + (t + 1.0) * half[:, None]).reshape(-1, 1)
    if kind == "upper":
        f = nodes - xs
        # The directions point from each singular endpoint into the closed
        # upper half-plane, where the principal log is the right branch.
        logs = (e_left * (np.log(b - a) - _LN2)
                + e_right * (np.log(a - b) - _LN2))
    else:
        f = np.abs(nodes - xs)
        if kind == "tail":
            f /= np.where(xs == 0.0, 1.0, np.abs(xs))
        logs = (e_left + e_right) * (np.log(b - a) - _LN2)
        if kind == "axis":
            # An absorbed right end lies right of the nodes: its phase counts.
            logs = logs + 1j * math.pi * ((xs >= b[:, None]) @ es)
    # Absorbed factors drop out of the nodes as log(1) = 0 and come back
    # as ((b - a)/2)^e times (1 -+ x)^e.
    f.reshape(a.size, order, xs.size)[ks, :, js] = 1.0
    sums = np.einsum("kj,kj->k", np.exp(np.log(f) @ es).reshape(t.shape), w)
    return complex(np.sum(half * np.exp(logs) * sums))


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

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
by more than the tolerance relative to the larger are halved again. The
pieces of a real-axis path cut at prevertices share one label, so the
path converges as a whole. integrate_finite_legs passes every finite leg
of a map at once and adds per leg the derivatives of its integral in
every finite prevertex (integrals over the same panels with the same
endpoint powers), judged once every value has converged. Each level is
one pass per block of panels (per panel its integral, or a row of it and
its derivative moments) and one per-leg sum of the block (np.sum's
pairwise order for values, panel by panel for rows).

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


def total_moment(a: float, b: float) -> float:
    """Integral of (1-x)^a (1+x)^b over [-1, 1], via log-gamma."""
    return math.exp((a + b + 1.0) * _LN2
                    + math.lgamma(a + 1.0) + math.lgamma(b + 1.0)
                    - math.lgamma(a + b + 2.0))


@lru_cache(maxsize=512, typed=True)
def _jacobi_rule(order: int, a: float, b: float) -> QuadratureRule:
    # Checked once per rule; typed keys keep 8.0 off the order-8 rule.
    if not isinstance(order, (int, np.integer)) or order < 1:
        raise ValidationError(f"order must be an integer >= 1, got {order!r}")
    if not (-1.0 < a < math.inf and -1.0 < b < math.inf):
        raise InvalidExponent(
            f"Jacobi exponents must be finite and exceed -1, got a={a}, b={b}")
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
    return QuadratureRule(nodes=x, weights=w, exponent_left=b,
                          exponent_right=a, order=order)


def check_tol(tol: float, name: str = "tol") -> None:
    """Raise ValidationError unless ``tol`` is a positive finite number."""
    if not 0.0 < tol < math.inf:
        raise ValidationError(f"{name} must be positive and finite, got {tol}")


def gauss_jacobi(order: int, a: float, b: float) -> QuadratureRule:
    """Gauss-Jacobi rule of the given order for weight (1-x)^a (1+x)^b.

    The weight sum is checked against the closed-form total moment to
    1e-13 relative when the rule is built; a violation means a broken rule
    and raises. Rules are read-only, so one cached rule serves every call.
    An order that is not an integer >= 1 raises ValidationError, an
    exponent that is not a finite number above -1 InvalidExponent.
    """
    return _jacobi_rule(order, float(a), float(b))


def _split(p: np.ndarray, q: np.ndarray, leg: np.ndarray, avoid: np.ndarray
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Half-distance panels [a_k, b_k], labelled leg[i], on legs [p_i, q_i].

    Panels are cut at their midpoints, breadth-first, until every point of
    ``avoid`` other than a panel's own endpoints lies at least half a panel
    length from it. A panel whose midpoint rounds onto an endpoint spans
    only a few float ulps and cannot be cut further; its value is below
    representable resolution anyway. Real legs give real panels.
    """
    done = []
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
        if np.count_nonzero(fine) == fine.size:
            done.append((a, b, leg))
            break
        if depth == _MAX_SPLIT_DEPTH:
            if np.any(((dist == 0.0) & ~own)[~fine]):
                raise PathThroughSingularity("path runs through a singularity")
            raise NoConvergence("panel subdivision failed to terminate")
        done.append((a[fine], b[fine], leg[fine]))
        cut = ~fine
        a, m, b, leg = a[cut], m[cut], b[cut], leg[cut]
        a, b, leg = (np.concatenate([a, m]), np.concatenate([m, b]),
                     np.concatenate([leg, leg]))
    return tuple(np.concatenate(part) for part in zip(*done))


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
             xs: np.ndarray, es: np.ndarray, rows: bool) -> np.ndarray:
    """One Gauss-Jacobi pass of order DEFAULT_ORDER over the panels [a, b]:
    per panel, int f or, with ``rows``, a row of int f and the moments of
    its derivatives.

    ``xs`` are the singular points in the integration variable t and ``es``
    their exponents. A singular point sitting exactly at a panel endpoint
    puts its factor into that panel's Jacobi weight; every other factor is
    evaluated at the nodes, as set by ``kind``:

    - ``axis``: t real; |t - x|^e, times the constant phase exp(i pi e) of
      each x to the right of the panel (the real-axis branch);
    - ``upper``: principal (t - x)^e, on complex panels;
    - ``tail``: t = 1/zeta real; (1 - t/x)^e, which is t^e at x = 0, the
      only singular point within reach of a tail panel.

    With ``rows`` (axis panels of leg j from z_j = xs[j] to z_{j+1}) the
    columns go on with int f/(zeta - z_k) for every k and int f t s, where
    t = (zeta - z_j)/(z_{j+1} - z_j) and s = sum_{k off the leg}
    e_k/(zeta - z_k). With c_j = 1 + e_j + e_{j+1}, differentiating under
    the integral sign gives

        dI_j/dz_k     = -e_k int f/(zeta - z_k)          (k off the leg),
        dI_j/dz_j     = -c_j I_j/(z_{j+1} - z_j) + int f (1 - t) s,
        dI_j/dz_{j+1} = +c_j I_j/(z_{j+1} - z_j) + int f t s.

    Each integrand keeps the endpoint powers of f, so the panels and rules
    of f serve as they are; _leg_sums assembles the rows from the per-leg
    sums.
    """
    order = DEFAULT_ORDER
    own_left = a[:, None] == xs
    own_right = b[:, None] == xs
    ks, js = np.nonzero(own_left | own_right)
    # One Jacobi rule per absorbed exponent pair; ((b - a)/2)^e goes to logs.
    rule_of = np.zeros(a.size, dtype=np.intp)
    pairs = {(0.0, 0.0): 0}
    logs = 0.0
    if ks.size:
        e_left = own_left @ es
        e_right = own_right @ es
        for k in ks.tolist():
            rule_of[k] = pairs.setdefault((e_right[k], e_left[k]), len(pairs))
        if kind == "upper":
            # Into the upper half-plane from each end: the principal branch.
            logs = (e_left * (np.log(b - a) - _LN2)
                    + e_right * (np.log(a - b) - _LN2))
        else:
            logs = (e_left + e_right) * (np.log(b - a) - _LN2)
    rules = [gauss_jacobi(order, a=eR, b=eL) for eR, eL in pairs]
    t, w = np.array([[r.nodes for r in rules],
                     [r.weights for r in rules]])[:, rule_of]
    half = (b - a) / 2.0
    nodes = a[:, None] + (t + 1.0) * half[:, None]
    if kind == "upper":
        f = nodes.reshape(-1, 1) - xs
    else:
        f = np.abs(nodes.reshape(-1, 1) - xs)
        if kind == "tail":
            f /= np.where(xs == 0.0, 1.0, np.abs(xs))
        if kind == "axis":
            # An absorbed right end lies right of the nodes: its phase counts.
            logs = logs + 1j * math.pi * ((xs >= b[:, None]) @ es)
    # Absorbed factors drop out of the nodes as log(1) = 0 and come back
    # as ((b - a)/2)^e times (1 -+ x)^e.
    if ks.size:
        f.reshape(a.size, order, xs.size)[ks, :, js] = 1.0
    f = np.exp(np.log(f, out=f) @ es).reshape(t.shape)
    scale = half * np.exp(logs)
    cols = scale * np.einsum("kj,kj->k", f, w)
    if rows:
        # 1/(zeta - z_k) at the nodes, 0 for the leg's own ends (at -inf).
        k = np.arange(xs.size)
        own = (k == leg[:, None]) | (k == leg[:, None] + 1)
        inv = 1.0 / (nodes[..., None] - np.where(own, -np.inf, xs)[:, None, :])
        fw = f * w
        t = (nodes - xs[leg, None]) / (xs[leg + 1] - xs[leg])[:, None]
        moments = np.stack([fw, fw * t], axis=1) @ inv
        cols = np.column_stack([cols, scale[:, None] * moments[:, 0],
                                scale * (moments[:, 1] @ es)])
    return cols


def _leg_sums(kind: str, a: np.ndarray, b: np.ndarray, leg: np.ndarray,
              xs: np.ndarray, es: np.ndarray, legs: int, rows: bool
              ) -> np.ndarray:
    """Per leg, summed over its panels one block of at most _PASS_BLOCK at a
    time: the integral and, with ``rows`` (axis leg j from xs[j] to
    xs[j + 1]), its derivatives in every xs."""
    sums = np.zeros((legs, xs.size + 2) if rows else legs, dtype=complex)
    for i in range(0, a.size, _PASS_BLOCK):
        block = slice(i, i + _PASS_BLOCK)
        cols = _columns(kind, a[block], b[block], leg[block], xs, es, rows)
        for j in range(legs):
            sums[j] += np.add.reduce(cols[leg[block] == j], axis=0)
    if not rows:
        return sums[:, None]
    I, T = sums[:, 0], sums[:, -1]
    D = -es * sums[:, 1:-1]
    jump = (1.0 + es[:-1] + es[1:]) * I / np.diff(xs)
    j = np.arange(legs)
    D[j, j] = -D.sum(axis=1) - T - jump
    D[j, j + 1] = T + jump
    return np.column_stack([I, D])


def _sizes(R: np.ndarray) -> np.ndarray:
    # Values and derivative rows converge each on their own scale: the
    # derivative row of a short leg is far larger than its value.
    if R.shape[-1] == 1:
        return np.abs(R)
    return np.stack([np.abs(R[..., 0]), np.linalg.norm(R[..., 1:], axis=-1)],
                    axis=-1)


def _refine(kind: str, p: np.ndarray, q: np.ndarray, xs: np.ndarray,
            es: np.ndarray, tol: float, leg: np.ndarray | None = None,
            rows: bool = False) -> np.ndarray:
    """_leg_sums over the legs [p_i, q_i], labelled leg[i] = 0, 1, ... in
    ascending order (one leg without ``leg``), each leg halved until its
    value and, with ``rows``, its derivative row differ between two levels
    by at most ``tol`` times the larger. Values settle first."""
    leg = np.zeros(p.size, dtype=np.intp) if leg is None else leg
    legs = int(leg[-1]) + 1
    a, b, leg = _split(p, q, leg, xs)
    cur = _leg_sums(kind, a, b, leg, xs, es, legs, rows)
    # Per leg (a handful, so plain lists): halvings so far, and whether its
    # value and derivative row have settled. The legs halved next.
    level, turn = [0] * legs, list(range(legs))
    settled = [[False] * (1 + rows)] * legs
    # Panels of the legs whose derivative row waits for the values.
    waiting = a[:0], b[:0], leg[:0]
    while True:
        a, b, leg = _halve(a, b, leg)
        new = _leg_sums(kind, a, b, leg, xs, es, legs, rows)
        # Rows j, legs + j, 2 legs + j: the change of leg j and its sizes.
        sizes = _sizes(np.concatenate([new - cur, new, cur])).tolist()
        for j in turn:
            level[j] += 1
            settled[j] = [d <= tol * max(n, o) for d, n, o in
                          zip(*sizes[j::legs])]
        if len(turn) == legs:
            cur = new
        else:
            cur[turn] = new[turn]
        # Next to prevertices closer than the float resolution of their
        # position a derivative row stalls at rounding level, and there
        # some value fails anyway: rows wait until every value converged.
        phase = int(rows and all(s[0] for s in settled))
        judged, turn = turn, [j for j, s in enumerate(settled) if not s[phase]]
        if not turn:
            return cur
        if any(level[j] == MAX_LEVELS for j in turn):
            d, m = max(((d, max(n, o)) for j in judged
                        for d, n, o in zip(*sizes[j::legs])),
                       key=lambda dm: dm[0] - tol * dm[1])
            raise NoConvergence(
                f"panel refinement stalled at {d:.3e} relative to {m:.3e} "
                f"(tol {tol:.1e})")
        if rows or len(turn) < legs:
            mine = np.isin(np.arange(legs), turn)
            if rows:
                a, b, leg = (np.concatenate(c)
                             for c in zip((a, b, leg), waiting))
                wait = ~mine & ~np.array([s[-1] for s in settled])
                waiting = a[wait[leg]], b[wait[leg]], leg[wait[leg]]
            a, b, leg = a[mine[leg]], b[mine[leg]], leg[mine[leg]]


def _sc_singularities(map) -> tuple[np.ndarray, np.ndarray]:
    xs = np.asarray(map.prevertices.finite_points, dtype=float)
    es = np.asarray(map.exponents.alphas[:-1], dtype=float) - 1.0
    return xs, es


def integrate_sc(map: "SCMap", z_from: complex, z_to: complex,
                 tol: float = DEFAULT_TOL) -> complex:
    """Path integral of prod_j (zeta - z_j)^(alpha_j - 1) from z_from to z_to.

    The constants A, B of the enclosing map play no role here. Real-axis
    legs crossing a prevertex are split there, so the integral is the
    convergent improper one; this keeps additivity across prevertices.
    """
    z_from, z_to = complex(z_from), complex(z_to)
    for z, name in ((z_from, "z_from"), (z_to, "z_to")):
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise ValidationError(f"{name} must be finite")
        if z.imag < 0.0:
            raise ValidationError(
                f"{name} must lie in the closed upper half-plane")
    check_tol(tol)
    if z_from == z_to:
        return 0j
    xs, es = _sc_singularities(map)
    if z_from.imag == 0.0 and z_to.imag == 0.0:
        lo, hi = sorted((z_from.real, z_to.real))
        cuts = np.concatenate(([lo], xs[(lo < xs) & (xs < hi)], [hi]))
        # The pieces share one label, so the path converges as a whole.
        total = _refine("axis", cuts[:-1], cuts[1:], xs, es, tol)[0, 0]
        return complex(total if z_from.real < z_to.real else -total)
    return complex(_refine("upper", np.array([z_from]), np.array([z_to]), xs,
                           es, tol)[0, 0])


def integrate_finite_legs(points, alphas, tol: float = DEFAULT_TOL
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Integrals over all finite real legs of a map, with their derivatives.

    ``points`` are the finite prevertices z_1 < ... < z_m and ``alphas``
    their exponents; the exponent at infinity plays no role on these legs.
    Returns I of length m - 1, the bare integrals over (z_j, z_{j+1}) as
    integrate_sc gives them, and D of shape (m - 1, m) with D[j, k] =
    dI_j/dz_k. Each leg stops halving once its value and its derivative
    row each agree to ``tol`` between two levels.
    """
    xs = np.asarray(points, dtype=float)
    es = np.asarray(alphas, dtype=float) - 1.0
    if xs.ndim != 1 or xs.shape != es.shape or xs.size < 2:
        raise ValidationError("need one exponent for each of >= 2 points")
    if not (np.all(np.isfinite(xs)) and np.all(np.diff(xs) > 0.0)):
        raise ValidationError("points must be finite and strictly increasing")
    if not np.all(es > -1.0):
        raise InvalidExponent("exponents must be positive")
    check_tol(tol)
    sums = _refine("axis", xs[:-1], xs[1:], xs, es, tol,
                   leg=np.arange(xs.size - 1), rows=True)
    return sums[:, 0], sums[:, 1:]


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
    check_tol(tol)
    nonzero = xs != 0.0
    us = np.concatenate(([0.0], 1.0 / xs[nonzero]))
    ues = np.concatenate(([map.exponents.alphas[-1] - 1.0], es[nonzero]))
    return complex(_refine("tail", np.array([0.0]), np.array([1.0 / z_from]),
                           us, ues, tol)[0, 0])

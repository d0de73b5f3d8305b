"""Gauss-Jacobi panel quadrature for integrands with endpoint power laws.

The target integrand is prod_j (zeta - x_j)^(e_j) with all x_j real and
e_j > -1: integrable power singularities at the x_j, analytic elsewhere in
the closed upper half-plane. Each straight segment of an integration path
is cut into panels subject to the half-distance rule (a panel must keep
every singularity that is not one of its own endpoints at least half a
panel length away), which grades panel sizes geometrically into the
singular endpoints. Endpoint singularities are absorbed exactly into the
Jacobi weight; the leftover smooth factor is handled by the Gauss nodes.

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
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, Callable

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
    w = total_moment(a, b) * v[0] ** 2
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def gauss_jacobi(order: int, a: float, b: float) -> QuadratureRule:
    """Gauss-Jacobi rule of the given order for weight (1-x)^a (1+x)^b.

    The weight sum is checked against the closed-form total moment to
    1e-13 relative; a violation means a broken rule and raises.
    """
    if order < 1:
        raise ValidationError(f"order must be >= 1, got {order}")
    if a <= -1.0 or b <= -1.0:
        raise InvalidExponent(f"Jacobi exponents must exceed -1, got a={a}, b={b}")
    x, w = _jacobi_nodes_weights(order, float(a), float(b))
    m0 = total_moment(a, b)
    if abs(float(np.sum(w)) - m0) > 1e-13 * m0:
        raise NumericalError(f"Jacobi rule weight sum off: {np.sum(w)} vs {m0}")
    return QuadratureRule(nodes=x, weights=w, exponent_left=float(b),
                          exponent_right=float(a), order=order)


def _seg_point_dist(p: complex, q: complex, s: complex) -> float:
    d = q - p
    L2 = d.real * d.real + d.imag * d.imag
    t = ((s - p).real * d.real + (s - p).imag * d.imag) / L2
    t = min(1.0, max(0.0, t))
    return abs(s - (p + t * d))


@dataclass
class _Segment:
    """One straight leg of the path, with its singular-endpoint data.

    ``smooth_log(z, with_left, with_right)`` returns the log of the
    integrand part not absorbed into a panel's Jacobi weight: always the
    factors of singularities off the leg (constant phases folded in), plus
    the leg's own endpoint factors when the flags ask for them. Only the
    two panels touching the leg ends claim an endpoint factor as weight;
    every other panel sees it as part of the smooth remainder.

    ``avoid`` lists every singularity location relevant to the leg,
    including singular leg endpoints; a panel is exempt only from
    singularities sitting exactly at its own endpoints.
    """

    p: complex
    q: complex
    e_left: float
    e_right: float
    avoid: np.ndarray
    smooth_log: Callable[[np.ndarray, bool, bool], np.ndarray]
    panels: list[tuple[complex, complex]] = field(default_factory=list)

    def build_panels(self):
        out: list[tuple[complex, complex]] = []

        def split(a: complex, b: complex, depth: int):
            length = abs(b - a)
            worst = math.inf
            for s in self.avoid:
                s = complex(s)
                if s == a or s == b:
                    continue
                worst = min(worst, _seg_point_dist(a, b, s))
            m = (a + b) / 2
            # m == a or b: the panel spans only a few float ulps and cannot
            # be subdivided further; its value is below representable
            # resolution anyway.
            if worst >= 0.5 * length or m == a or m == b:
                out.append((a, b))
                return
            if depth >= _MAX_SPLIT_DEPTH:
                if worst == 0.0:
                    raise PathThroughSingularity(
                        f"path segment [{a}, {b}] runs through a singularity")
                raise NoConvergence("panel subdivision failed to terminate")
            split(a, m, depth + 1)
            split(m, b, depth + 1)

        split(self.p, self.q, 0)
        self.panels = out

    def halve_panels(self):
        # Children of an admissible panel are admissible: lengths halve
        # while singularity distances do not shrink. Panels already at
        # float resolution stay as they are.
        out = []
        for a, b in self.panels:
            m = (a + b) / 2
            if m == a or m == b:
                out.append((a, b))
            else:
                out.append((a, m))
                out.append((m, b))
        self.panels = out

    def integral(self) -> complex:
        groups: dict[tuple[bool, bool], list[tuple[complex, complex]]] = {}
        for a, b in self.panels:
            key = (a == self.p, b == self.q)
            groups.setdefault(key, []).append((a, b))
        total = 0.0 + 0.0j
        for (at_left, at_right), panels in groups.items():
            eL = self.e_left if at_left else 0.0
            eR = self.e_right if at_right else 0.0
            rule = gauss_jacobi(DEFAULT_ORDER, a=eR, b=eL)
            ps = np.array([pq[0] for pq in panels])
            qs = np.array([pq[1] for pq in panels])
            half = (qs - ps) / 2.0
            nodes = ps[:, None] + (rule.nodes[None, :] + 1.0) * half[:, None]
            logs = self.smooth_log(nodes.ravel(), not at_left, not at_right)
            vals = np.exp(logs).reshape(nodes.shape)
            sums = vals @ rule.weights
            # Claimed endpoint factors split off as ((q-p)/2)^e times
            # (1 -+ x)^e; directions point from each singular endpoint into
            # the upper half-plane, where the principal log is the right
            # branch.
            scale = half.astype(complex)
            if eL != 0.0:
                scale *= np.exp(eL * (np.log((qs - ps).astype(complex)) - _LN2))
            if eR != 0.0:
                scale *= np.exp(eR * (np.log((ps - qs).astype(complex)) - _LN2))
            total += complex(np.sum(scale * sums))
        return total


def _refined_total(segments: list[_Segment], tol: float) -> complex:
    for seg in segments:
        seg.build_panels()
    prev = sum((seg.integral() for seg in segments), 0j)
    diff = math.inf
    for _ in range(MAX_LEVELS):
        for seg in segments:
            seg.halve_panels()
        cur = sum((seg.integral() for seg in segments), 0j)
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


def _real_axis_segment(a: float, b: float, xs: np.ndarray,
                       es: np.ndarray) -> _Segment:
    """Leg along the real axis, a < b, no singularity strictly inside."""
    own_left = bool(np.any(xs == a))
    own_right = bool(np.any(xs == b))
    off_leg = (xs != a) & (xs != b)
    fx, fe = xs[off_leg], es[off_leg]
    # Constant phase: pi per unit exponent for every singularity to the
    # right of the leg (hard-coded branch on the axis).
    phase = 1j * math.pi * float(np.sum(fe[fx > b]))
    e_left = float(es[xs == a][0]) if own_left else 0.0
    e_right = float(es[xs == b][0]) if own_right else 0.0

    def smooth_log(z: np.ndarray, with_left: bool, with_right: bool):
        x = z.real
        if fx.size:
            out = np.log(np.abs(x[:, None] - fx[None, :])) @ fe + phase
        else:
            out = np.full(z.shape, phase)
        if with_left and e_left != 0.0:
            out = out + e_left * np.log(x - a)
        if with_right and e_right != 0.0:
            out = out + e_right * (np.log(b - x) + 1j * math.pi)
        return out

    avoid = np.concatenate([fx, xs[~off_leg]]).astype(complex)
    return _Segment(p=complex(a), q=complex(b), e_left=e_left,
                    e_right=e_right, avoid=avoid, smooth_log=smooth_log)


def _upper_plane_segment(p: complex, q: complex, xs: np.ndarray,
                         es: np.ndarray) -> _Segment:
    """Leg with at least one endpoint off the axis; interior avoids R.

    All node-to-singularity differences have argument in [0, pi], where the
    principal logarithm agrees with the real-axis branch convention.
    """
    own_left = p.imag == 0.0 and bool(np.any(xs == p.real))
    own_right = q.imag == 0.0 and bool(np.any(xs == q.real))
    off_leg = np.ones(xs.shape, dtype=bool)
    if own_left:
        off_leg &= xs != p.real
    if own_right:
        off_leg &= xs != q.real
    fx, fe = xs[off_leg], es[off_leg]
    fec = fe.astype(complex)
    e_left = float(es[xs == p.real][0]) if own_left else 0.0
    e_right = float(es[xs == q.real][0]) if own_right else 0.0

    def smooth_log(z: np.ndarray, with_left: bool, with_right: bool):
        if fx.size:
            out = np.log(z[:, None] - fx[None, :]) @ fec
        else:
            out = np.zeros(z.shape, dtype=complex)
        if with_left and e_left != 0.0:
            out = out + e_left * np.log(z - p)
        if with_right and e_right != 0.0:
            out = out + e_right * np.log(z - q)
        return out

    avoid = np.concatenate([fx.astype(complex),
                            np.array([p] * own_left + [q] * own_right)])
    return _Segment(p=p, q=q, e_left=e_left, e_right=e_right,
                    avoid=avoid, smooth_log=smooth_log)


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
    segments: list[_Segment] = []
    if z_from.imag == 0.0 and z_to.imag == 0.0:
        a, b = z_from.real, z_to.real
        sign = 1.0
        if a > b:
            a, b, sign = b, a, -1.0
        cuts = [a] + [float(x) for x in xs if a < x < b] + [b]
        for lo, hi in zip(cuts, cuts[1:]):
            segments.append(_real_axis_segment(lo, hi, xs, es))
        return sign * _refined_total(segments, tol)
    segments.append(_upper_plane_segment(z_from, z_to, xs, es))
    return _refined_total(segments, tol)


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
    alpha_n = float(map.exponents.alphas[-1])
    e0 = alpha_n - 1.0
    u0 = 1.0 / z_from
    nonzero = xs != 0.0
    cx, ce = xs[nonzero], es[nonzero]

    def smooth_log(u: np.ndarray, with_left: bool, with_right: bool):
        x = u.real
        if cx.size:
            out = np.log(1.0 - x[:, None] * cx[None, :]) @ ce
        else:
            out = np.zeros(u.shape)
        if with_left and e0 != 0.0:
            out = out + e0 * np.log(x)
        return out

    avoid = np.concatenate([[0.0], 1.0 / cx]).astype(complex)
    seg = _Segment(p=0j, q=complex(u0), e_left=e0, e_right=0.0,
                   avoid=avoid, smooth_log=smooth_log)
    return _refined_total([seg], tol)

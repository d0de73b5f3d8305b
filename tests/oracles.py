"""Independent reference computations for the test suite.

Everything here deliberately avoids the package's own code paths: Beta
values come from log-gamma, Jacobi moments from a three-term recursion in
50-digit arithmetic, Jacobi rules from one eigenproblem per rule or from
Newton on mpmath's Jacobi polynomials at 40 digits, winding
numbers from ray crossings, orientation signs from one cross product in
exact rationals, and complex leg integrals from
power-substitution plus tanh-sinh quadrature. Tests compare the package
against these, never against itself.
"""

import math
from fractions import Fraction
from itertools import combinations

import mpmath as mp
import numpy as np

mp.mp.dps = 50


def beta_lgamma(x: float, y: float) -> float:
    """Euler Beta through log-gamma only."""
    return math.exp(math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y))


def jacobi_moments(kmax: int, a: float, b: float) -> list:
    """Moments M_k = integral of x^k (1-x)^a (1+x)^b over [-1, 1].

    M_0 is 2^(a+b+1) B(a+1, b+1); differentiating
    x^k (1-x)^(a+1) (1+x)^(b+1) and integrating gives the recursion
    M_{k+1} = ((b - a) M_k + k M_{k-1}) / (a + b + k + 2).
    Returned as mpf values (50 digits), index 0..kmax.
    """
    a, b = mp.mpf(a), mp.mpf(b)
    out = [2 ** (a + b + 1) * mp.beta(a + 1, b + 1)]
    if kmax >= 1:
        out.append((b - a) * out[0] / (a + b + 2))
    for k in range(1, kmax):
        out.append(((b - a) * out[k] + k * out[k - 1]) / (a + b + k + 2))
    return out[:kmax + 1]


def golub_welsch(order: int, a: float, b: float):
    """Nodes and weights of one Gauss-Jacobi rule for (1-x)^a (1+x)^b.

    The Jacobi matrix is filled entry by entry from the three-term
    recurrence in float arithmetic, one dense eigh gives the nodes, and the
    first eigenvector components times the total mass (log-gamma) give the
    weights: the textbook Golub-Welsch build, one rule at a time.
    """
    s = a + b
    jac = np.zeros((order, order))
    jac[0, 0] = (b - a) / (s + 2.0)
    for k in range(1, order):
        jac[k, k] = (b * b - a * a) / ((2 * k + s) * (2 * k + s + 2.0))
    if order > 1:
        jac[1, 0] = math.sqrt(4.0 * (1.0 + a) * (1.0 + b)
                              / ((s + 2.0) ** 2 * (s + 3.0)))
    for k in range(2, order):
        t = 2 * k + s
        jac[k, k - 1] = math.sqrt(4.0 * k * (k + a) * (k + b) * (k + s)
                                  / (t * t * (t * t - 1.0)))
    x, v = np.linalg.eigh(jac)
    m0 = math.exp((s + 1.0) * math.log(2.0) + math.lgamma(a + 1.0)
                  + math.lgamma(b + 1.0) - math.lgamma(s + 2.0))
    return x, m0 * v[0] ** 2


def gauss_jacobi_mp(order: int, a: float, b: float, dps: int = 40):
    """Nodes and weights of one Gauss-Jacobi rule for (1-x)^a (1+x)^b to
    ``dps`` digits, as mpf values.

    Newton on mpmath's Jacobi polynomial P_n^(a,b), n = order, from the
    float nodes of golub_welsch until the steps vanish at working
    precision, and the classical weights
    w_i = 2^(a+b+1) G(n+a+1) G(n+b+1) / (G(n+a+b+1) n! (1-x_i^2) P_n'(x_i)^2)
    with P_n' = (n+a+b+1)/2 P_(n-1)^(a+1,b+1).
    """
    n = order
    with mp.workdps(dps + 10):
        a, b = mp.mpf(a), mp.mpf(b)

        def dp(x):
            return (n + a + b + 1) / 2 * mp.jacobi(n - 1, a + 1, b + 1, x)

        nodes = []
        for x in golub_welsch(order, float(a), float(b))[0]:
            x = mp.mpf(x)
            for _ in range(20):
                step = mp.jacobi(n, a, b, x) / dp(x)
                x -= step
                if abs(step) < mp.mpf(10) ** -(dps + 5):
                    break
            nodes.append(x)
        c = (2 ** (a + b + 1) * mp.gamma(n + a + 1) * mp.gamma(n + b + 1)
             / (mp.gamma(n + a + b + 1) * mp.factorial(n)))
        weights = [c / ((1 - x * x) * dp(x) ** 2) for x in nodes]
    return nodes, weights


def ray_crossing_winding(vertices, p: complex) -> int:
    """Winding number by signed crossings of the rightward horizontal ray.

    An upward edge crossing with p strictly left of the edge counts +1, a
    downward one with p strictly right counts -1 (half-open in y, so a
    vertex exactly at height p.imag is claimed by one edge only). The
    caller keeps p off the curve; this routine does not check.
    """
    w = 0
    n = len(vertices)
    for j in range(n):
        a = vertices[j]
        b = vertices[(j + 1) % n]
        side = ((b.real - a.real) * (p.imag - a.imag)
                - (p.real - a.real) * (b.imag - a.imag))
        if a.imag <= p.imag:
            if b.imag > p.imag and side > 0:
                w += 1
        elif b.imag <= p.imag and side < 0:
            w -= 1
    return w


def orientation_exact(p: complex, q: complex, r: complex) -> int:
    """Sign of the cross product (q - p) x (r - p): +1 when r lies left of
    the directed line pq, -1 right of it, 0 on it. Floats are dyadic
    rationals, so the Fraction arithmetic is exact."""
    px, py, qx, qy, rx, ry = (Fraction(float(x)) for x in
                              (p.real, p.imag, q.real, q.imag, r.real, r.imag))
    cross = (qx - px) * (ry - py) - (qy - py) * (rx - px)
    return (cross > 0) - (cross < 0)


def segments_cross_naive(p: complex, q: complex, r: complex, s: complex) -> bool:
    # plain orientation test, no exact-arithmetic escalation
    def orient(a, b, c):
        d = (b.real - a.real) * (c.imag - a.imag) - (c.real - a.real) * (b.imag - a.imag)
        return (d > 0) - (d < 0)

    o1, o2 = orient(p, q, r), orient(p, q, s)
    o3, o4 = orient(r, s, p), orient(r, s, q)
    if o1 != o2 and o3 != o4 and 0 not in (o1, o2, o3, o4):
        return True
    return False


def has_nonadjacent_crossing(vertices) -> bool:
    """Brute-force self-intersection scan over non-adjacent side pairs."""
    n = len(vertices)
    sides = [(vertices[j], vertices[(j + 1) % n]) for j in range(n)]
    for i, j in combinations(range(n), 2):
        if j == i + 1 or (i == 0 and j == n - 1):
            continue
        if segments_cross_naive(*sides[i], *sides[j]):
            return True
    return False


def leg_integral(zs, alphas, p, q):
    """Integral of prod_j (zeta - z_j)^(alpha_j - 1) over the segment [p, q].

    zs holds the finite singularities, alphas their exponents (one per
    singularity). Endpoints may coincide with singularities; the interior
    must not. Each half is integrated away from its endpoint after the
    substitution t = s^k with k = ceil(2/alpha), which removes the
    endpoint singularity, then tanh-sinh. 50-digit arithmetic.
    """
    zs = [mp.mpf(z) for z in zs]
    alphas = [mp.mpf(a) for a in alphas]
    p, q = mp.mpc(p), mp.mpc(q)
    mid = (p + q) / 2

    def alpha_at(pt):
        for zj, aj in zip(zs, alphas):
            if mp.mpc(zj) == pt:
                return aj
        return None

    def half_from(end, a_end):
        d = mid - end
        if a_end is None:
            def g(t):
                z = end + t * d
                out = mp.mpc(d)
                for zj, aj in zip(zs, alphas):
                    out *= (z - zj) ** (aj - 1)
                return out
            return mp.quad(g, [0, 1])
        k = int(mp.ceil(2 / a_end))

        def g(s):
            t = s ** k
            z = end + t * d
            out = (t * d) ** (a_end - 1) * d * k * s ** (k - 1)
            for zj, aj in zip(zs, alphas):
                if mp.mpc(zj) == end:
                    continue
                out *= (z - zj) ** (aj - 1)
            return out
        return mp.quad(g, [0, 1])

    return half_from(p, alpha_at(p)) - half_from(q, alpha_at(q))


def tail_integral(zs, alphas, x0):
    """Integral of prod_j (x - z_j)^(alpha_j - 1) over [x0, infinity).

    x0 lies right of every z_j, so the integrand is smooth and positive;
    tanh-sinh on the original variable, with the range cut at 2*x0 and
    10*x0 ahead of the infinite piece. 50-digit arithmetic.
    """
    zs = [mp.mpf(z) for z in zs]
    alphas = [mp.mpf(a) for a in alphas]
    x0 = mp.mpf(x0)
    return mp.quad(lambda x: mp.fprod((x - zj) ** (aj - 1)
                                      for zj, aj in zip(zs, alphas)),
                   [x0, 2 * x0, 10 * x0, mp.inf])

"""Exact-decision orientation predicate.

The orientation test runs a floating-point filter first: the determinant is
trusted whenever its magnitude clears a certified rounding-error bound
(Shewchuk 1997, DCG 18:305). Near-degenerate cases escalate to exact
rational arithmetic (every float is a dyadic rational, so
``fractions.Fraction`` gives the true sign). :mod:`scpoly.geometry` applies
the same filter to a whole matrix of orientations at once.
"""

from __future__ import annotations

from fractions import Fraction

# Filter constant for the 2x2 orientation determinant, (3 + 16u)u with
# u = 2^-53: |det| above _ERRBOUND * (|det_left| + |det_right|) certifies
# the floating-point sign.
_EPS = 2.0 ** -53
_ERRBOUND = (3.0 + 16.0 * _EPS) * _EPS


def _sign(x) -> int:
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


def orientation(ax: float, ay: float, bx: float, by: float,
                cx: float, cy: float) -> int:
    """Sign of the signed area of triangle abc: +1 ccw, -1 cw, 0 collinear."""
    detleft = (ax - cx) * (by - cy)
    detright = (ay - cy) * (bx - cx)
    det = detleft - detright
    detsum = abs(detleft) + abs(detright)
    if abs(det) > _ERRBOUND * detsum:
        return 1 if det > 0 else -1
    # Exact escalation. Floats convert to Fraction without rounding.
    fa = (Fraction(ax), Fraction(ay))
    fb = (Fraction(bx), Fraction(by))
    fc = (Fraction(cx), Fraction(cy))
    exact = (fa[0] - fc[0]) * (fb[1] - fc[1]) - (fa[1] - fc[1]) * (fb[0] - fc[0])
    return _sign(exact)

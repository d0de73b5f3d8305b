"""Global coordinates for the parameter space: R^(2n-4) without boundaries.

Two independent pieces. Prevertex configurations are charted by logs of the
consecutive gaps beyond the two pinned points, which makes the ordering
constraint vacuous. Exponent vectors live in an open convex polytope inside
the hyperplane sum(alpha) = n - 2; they are charted radially about the
barycenter, with the radius rescaled by r -> r/(rho - r) where rho is the
distance to the boundary along the ray. Both directions are closed-form.

The radial chart needs a fixed orthonormal basis of the direction space
{v : sum v_j = 0}; it is built by modified Gram-Schmidt over the difference
vectors (e_1 - e_2, e_2 - e_3, ...) in that order, so every implementation
of this convention produces identical coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence, Union

import numpy as np

from .errors import NumericalError, OnBoundary, ValidationError, check_int
from .scmap import ExponentVector, Prevertices, SCMap

# Distance from {0, 2} below which an exponent counts as on the boundary.
BOUNDARY_TOL = 1e-12


@dataclass(frozen=True)
class ChartPoint:
    """Coordinates of one parameter configuration: n - 3 gap logs plus
    n - 1 radial exponent coordinates, 2n - 4 numbers in total."""

    n: int
    z_coords: tuple[float, ...]
    a_coords: tuple[float, ...]

    def __post_init__(self):
        check_int(self.n, "n", 3)
        zc = tuple(float(v) for v in self.z_coords)
        ac = tuple(float(v) for v in self.a_coords)
        if len(zc) != self.n - 3:
            raise ValidationError(
                f"expected {self.n - 3} gap coordinates, got {len(zc)}")
        if len(ac) != self.n - 1:
            raise ValidationError(
                f"expected {self.n - 1} exponent coordinates, got {len(ac)}")
        for v in zc + ac:
            if not math.isfinite(v):
                raise ValidationError("chart coordinates must be finite")
        object.__setattr__(self, "z_coords", zc)
        object.__setattr__(self, "a_coords", ac)

    @property
    def dimension(self) -> int:
        return 2 * self.n - 4


def z_chart(prevertices: Union[Prevertices, Sequence[float]]) -> tuple[float, ...]:
    """Log-gap coordinates (log z_3, log(z_4 - z_3), ...) of a normalized
    prevertex configuration; empty for n = 3."""
    if not isinstance(prevertices, Prevertices):
        prevertices = Prevertices(tuple(prevertices))
    zs = prevertices.finite_points
    return tuple(math.log(b - a) for a, b in zip(zs[1:], zs[2:]))


def z_unchart(coords: Sequence[float]) -> Prevertices:
    """Inverse of z_chart: z_3 = e^(c_1), z_(k+1) = z_k + e^(c_k).

    Any finite coordinates name a valid, strictly increasing
    configuration; n is implied by the coordinate count. Where floats
    cannot hold it (a gap that overflows, or that vanishes against its
    position), NumericalError is raised.
    """
    pts = [-1.0, 0.0]
    for c in coords:
        c = float(c)
        if not math.isfinite(c):
            raise ValidationError("gap coordinates must be finite")
        try:
            z = pts[-1] + math.exp(c)
        except OverflowError:
            z = math.inf
        if not pts[-1] < z < math.inf:
            raise NumericalError(
                f"z_{len(pts)} + e^{c} is {z} in floats, "
                f"with z_{len(pts)} = {pts[-1]}")
        pts.append(z)
    return Prevertices(tuple(pts))


def direction_basis(n: int) -> np.ndarray:
    """Orthonormal basis (columns) of {v in R^n : sum v = 0}, from modified
    Gram-Schmidt over (e_1 - e_2, e_2 - e_3, ...), in order; read-only."""
    # Checked outside the cache, where equal keys (3.0, np.int64(3)) meet.
    check_int(n, "n", 2)
    return _direction_basis(int(n))


@lru_cache(maxsize=64)
def _direction_basis(n: int) -> np.ndarray:
    cols = []
    for k in range(n - 1):
        v = np.zeros(n)
        v[k], v[k + 1] = 1.0, -1.0
        for q in cols:
            v = v - (q @ v) * q
        v /= np.linalg.norm(v)
        cols.append(v)
    out = np.column_stack(cols)
    out.setflags(write=False)
    return out


def _barycenter(n: int) -> np.ndarray:
    return np.full(n, (n - 2) / n)


def _boundary_distance(center: np.ndarray, u: np.ndarray) -> float:
    """First exit parameter of center + t*u from the box constraints
    0 < alpha_j < 2 (the hyperplane is preserved by u)."""
    rho = math.inf
    for cj, uj in zip(center, u):
        if uj > 0.0:
            rho = min(rho, (2.0 - cj) / uj)
        elif uj < 0.0:
            rho = min(rho, cj / (-uj))
    return rho


def a_chart(exponents: Union[ExponentVector, Sequence[float]]) -> tuple[float, ...]:
    """Radial coordinates of a standard-mode exponent vector about the
    barycenter; the barycenter itself maps to the zero vector."""
    if not isinstance(exponents, ExponentVector):
        exponents = ExponentVector(tuple(exponents))
    alphas = np.asarray(exponents.alphas)
    n = alphas.size
    for j, a in enumerate(alphas):
        if a <= BOUNDARY_TOL or a >= 2.0 - BOUNDARY_TOL:
            raise OnBoundary(f"alpha_{j + 1} = {a} sits on the domain boundary")
    c = _barycenter(n)
    v = alphas - c
    r = float(np.linalg.norm(v))
    if r == 0.0:
        return (0.0,) * (n - 1)
    u = v / r
    rho = _boundary_distance(c, u)
    if not r < rho:
        raise OnBoundary(f"exponents at radius {r} >= boundary radius {rho}")
    s = r / (rho - r)
    y = direction_basis(n).T @ u
    return tuple(float(t) for t in s * y)


def _exact_sum(values: np.ndarray, total: float) -> np.ndarray:
    """Nudge values so math.fsum(values) equals total bit-for-bit,
    spreading the defect equally and parking the last ulp on the largest
    entry."""
    out = np.array(values, dtype=float)
    for _ in range(10):
        defect = total - math.fsum(out)
        if defect == 0.0:
            return out
        out += defect / out.size
    for _ in range(10):
        defect = total - math.fsum(out)
        if defect == 0.0:
            return out
        out[int(np.argmax(np.abs(out)))] += defect
    return out


def a_unchart(coords: Sequence[float]) -> ExponentVector:
    """Inverse radial chart. Outputs are strictly inside the domain and
    sum to n - 2 in exact floating point. Coordinates whose norm
    overflows, or whose image rounds onto the boundary (some alpha_j - 1
    at -1 or 1 in floats, where no integral exists), raise
    NumericalError."""
    y = np.asarray([float(c) for c in coords], dtype=float)
    if y.ndim != 1 or y.size < 2:
        raise ValidationError("need at least 2 coordinates (n >= 3)")
    if not np.all(np.isfinite(y)):
        raise ValidationError("chart coordinates must be finite")
    n = y.size + 1
    c = _barycenter(n)
    with np.errstate(over="ignore"):
        s = float(np.linalg.norm(y))
    if s == 0.0:
        alphas = _exact_sum(c, float(n - 2))
        return ExponentVector(tuple(alphas))
    if s == math.inf:
        raise NumericalError("the norm of the exponent coordinates overflows")
    u = direction_basis(n) @ (y / s)
    rho = _boundary_distance(c, u)
    r = rho * (s / (1.0 + s))
    alphas = _exact_sum(c + r * u, float(n - 2))
    # The integrand's powers alpha_j - 1 must lie in (-1, 1) in floats.
    if not np.all(np.abs(alphas - 1.0) < 1.0):
        raise NumericalError(f"radius {s} rounds onto the boundary: "
                             f"exponents {alphas.tolist()}")
    return ExponentVector(tuple(alphas))


def moduli_chart(map: SCMap) -> ChartPoint:
    """Coordinates of a map's prevertex/exponent data; A and B drop out."""
    return ChartPoint(n=map.n, z_coords=z_chart(map.prevertices),
                      a_coords=a_chart(map.exponents))


def moduli_unchart(pt: ChartPoint) -> tuple[Prevertices, ExponentVector]:
    return z_unchart(pt.z_coords), a_unchart(pt.a_coords)

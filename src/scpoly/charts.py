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

Uncharting also runs on a chunk of chart points at once
(``_unchart_rows``), each row bitwise as alone: a row keeps its own BLAS
norm and basis product, its own ``math.exp`` per gap and its own exact
sum, and every other step is elementwise over the chunk. ``z_unchart``
and ``a_unchart`` are chunks of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence, Union

import numpy as np

from .errors import (NumericalError, OnBoundary, ValidationError,
                     check_finites, check_int)
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
        n = check_int(self.n, "n", 3)
        zc = check_finites(self.z_coords, float, "chart coordinates")
        ac = check_finites(self.a_coords, float, "chart coordinates")
        if len(zc) != n - 3:
            raise ValidationError(
                f"expected {n - 3} gap coordinates, got {len(zc)}")
        if len(ac) != n - 1:
            raise ValidationError(
                f"expected {n - 1} exponent coordinates, got {len(ac)}")
        object.__setattr__(self, "n", n)
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
    pts, error = _z_row(check_finites(coords, float, "gap coordinates"))
    if error is not None:
        raise error
    return Prevertices(tuple(pts))


def _z_row(coords: Sequence[float]
           ) -> tuple[list[float], Optional[NumericalError]]:
    """The prevertices of finite gap coordinates, and the NumericalError
    z_unchart raises on them, or None (then the prevertices stop short at
    the failing gap). Each gap is math.exp of its coordinate (np.exp
    differs in the last bit), added to the last position in order."""
    pts = [-1.0, 0.0]
    for c in coords:
        try:
            z = pts[-1] + math.exp(c)
        except OverflowError:
            z = math.inf
        if not pts[-1] < z < math.inf:
            return pts, NumericalError(
                f"z_{len(pts)} + e^{c} is {z} in floats, "
                f"with z_{len(pts)} = {pts[-1]}")
        pts.append(z)
    return pts, None


def direction_basis(n: int) -> np.ndarray:
    """Orthonormal basis (columns) of {v in R^n : sum v = 0}, from modified
    Gram-Schmidt over (e_1 - e_2, e_2 - e_3, ...), in order; read-only."""
    # Checked outside the cache, where equal keys (3.0, np.int64(3)) meet.
    return _direction_basis(check_int(n, "n", 2))


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


def _boundary_distance(center: np.ndarray, u: np.ndarray) -> np.ndarray:
    """First exit parameter of center + t*u from the box constraints
    0 < alpha_j < 2 (the hyperplane is preserved by u), for each row of
    directions ``u``; a zero entry of u sets no bound."""
    with np.errstate(divide="ignore", over="ignore"):
        return (np.where(u > 0.0, 2.0 - center, center)
                / np.abs(u)).min(axis=-1)


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
    NumericalError. A chunk of one for _a_rows."""
    y = np.array(check_finites(coords, float, "chart coordinates"))
    if y.size < 2:
        raise ValidationError("need at least 2 coordinates (n >= 3)")
    alphas, (error,) = _a_rows(y[None])
    if error is not None:
        raise error
    return ExponentVector(tuple(alphas[0].tolist()))


def _a_rows(coords: np.ndarray) -> tuple[np.ndarray, list]:
    """Exponent rows of a (chunk, n - 1) array of finite chart
    coordinates, n >= 3, and per row the NumericalError its a_unchart
    raises, or None (then the row holds no exponents).

    The norm and the basis product stay one BLAS call per row, as a lone
    row makes them: np.linalg.norm of a row is the square root of its
    dot with itself, and a batched product or dot sums in another order.
    _exact_sum runs per row; every other step is elementwise over the
    chunk, or reduces a row's own entries, and so gives each row its
    lone bits."""
    k, d = coords.shape
    n = d + 1
    c = _barycenter(n)
    with np.errstate(over="ignore"):
        norms = [math.sqrt(row.dot(row)) for row in coords]
    alphas = np.empty((k, n))
    errors: list = [None] * k
    live = []
    for i, s in enumerate(norms):
        if s == 0.0:
            alphas[i] = _exact_sum(c, float(n - 2))
        elif s == math.inf:
            errors[i] = NumericalError(
                "the norm of the exponent coordinates overflows")
        else:
            live.append(i)
    if not live:
        return alphas, errors
    s = np.array([norms[i] for i in live])
    basis = direction_basis(n)
    u = np.array([basis @ row for row in coords[live] / s[:, None]])
    r = _boundary_distance(c, u) * (s / (1.0 + s))
    rows = np.array([_exact_sum(row, float(n - 2))
                     for row in c + r[:, None] * u])
    alphas[live] = rows
    # The integrand's powers alpha_j - 1 must lie in (-1, 1) in floats.
    inside = (np.abs(rows - 1.0) < 1.0).all(axis=1)
    if not inside.all():
        for i in np.asarray(live)[~inside].tolist():
            errors[i] = NumericalError(
                f"radius {norms[i]} rounds onto the boundary: "
                f"exponents {alphas[i].tolist()}")
    return alphas, errors


def _unchart_rows(coords: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, list]:
    """Prevertex rows and exponent rows of a (chunk, 2n - 4) array of
    finite chart coordinates, gap coordinates first, n >= 3; and per row
    the NumericalError that moduli_unchart raises on it, or None (a
    failed row holds no map). Each row is bitwise what z_unchart and
    a_unchart give it alone: the gaps go row by row through _z_row, the
    exponents through _a_rows."""
    n = coords.shape[1] // 2 + 2
    rows = [_z_row(row) for row in coords[:, :n - 3].tolist()]
    alphas, errors = _a_rows(coords[:, n - 3:])
    # A row whose gaps fail stops short; its prevertex row is NaN.
    zs = np.array([pts if z is None else [math.nan] * (n - 1)
                   for pts, z in rows])
    return zs, alphas, [a if z is None else z
                        for (_, z), a in zip(rows, errors)]


def moduli_chart(map: SCMap) -> ChartPoint:
    """Coordinates of a map's prevertex/exponent data; A and B drop out."""
    return ChartPoint(n=map.n, z_coords=z_chart(map.prevertices),
                      a_coords=a_chart(map.exponents))


def moduli_unchart(pt: ChartPoint) -> tuple[Prevertices, ExponentVector]:
    return z_unchart(pt.z_coords), a_unchart(pt.a_coords)

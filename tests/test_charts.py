import math

import numpy as np
import pytest

from scpoly import charts
from scpoly import (
    ChartPoint,
    ExponentVector,
    NumericalError,
    OnBoundary,
    Prevertices,
    SCMap,
    ValidationError,
    a_chart,
    a_unchart,
    direction_basis,
    moduli_chart,
    moduli_unchart,
    z_chart,
    z_unchart,
)


def test_z_chart_fixed_values():
    assert z_chart(Prevertices((-1.0, 0.0, 1.0, 2.0))) == pytest.approx((0.0, 0.0))
    assert z_chart(Prevertices((-1.0, 0.0, math.e))) == pytest.approx((1.0,))
    assert z_chart(Prevertices((-1.0, 0.0))) == ()


def test_z_unchart_fixed_values():
    assert z_unchart((0.0, 0.0)).finite_points == pytest.approx((-1.0, 0.0, 1.0, 2.0))
    assert z_unchart((1.0,)).finite_points[-1] == pytest.approx(math.e)
    assert z_unchart(()).finite_points == (-1.0, 0.0)


def test_z_round_trip_random():
    # half-width 3, the cube the solver and sweep operate in; recovering a
    # gap of e^-3 next to positions near 4*e^3 already costs ~1.5e-13
    rng = np.random.default_rng(12)
    for _ in range(200):
        m = int(rng.integers(0, 6))
        coords = rng.uniform(-3, 3, size=m)
        back = z_chart(z_unchart(coords))
        assert np.max(np.abs(np.asarray(back) - coords), initial=0.0) < 1e-12
        pts = z_unchart(coords).finite_points
        assert all(a < b for a, b in zip(pts, pts[1:]))


def test_z_unchart_overflowing_gap_fails_numerically():
    # Valid chart points whose prevertices floats cannot hold.
    for coords in ((710.0,), (709.7, 709.7)):
        with pytest.raises(NumericalError):
            z_unchart(coords)


def test_z_unchart_vanishing_gap_fails_numerically():
    # e^-800 is 0 in floats, and e^-40 vanishes against a position e^10.
    for coords in ((-800.0,), (1.0, -800.0), (10.0, -40.0)):
        with pytest.raises(NumericalError):
            z_unchart(coords)


def test_z_chart_requires_normalized_input():
    with pytest.raises(ValidationError):
        z_chart((0.0, 1.0, 2.0))


def test_a_chart_center_is_origin():
    for n in (3, 5, 8):
        c = (n - 2) / n
        out = a_chart((c,) * n)
        assert np.allclose(out, 0.0, atol=1e-15)


def test_a_unchart_zero_gives_barycenter():
    assert a_unchart((0.0, 0.0)).alphas == pytest.approx((1 / 3,) * 3)
    assert a_unchart((0.0,) * 4).alphas == pytest.approx((0.6,) * 5)


def test_a_unchart_beyond_floats_fails_numerically():
    # From a radius of about 2^53 on the image rounds onto the boundary
    # (at -8e15 alpha_1 - 1 rounds to -1); past about 1e154 the norm
    # itself overflows.
    for coords in ((1e16, 0.0), (-1e16, 3.0), (-8e15, 3.0), (1e150, 1e150),
                   (1e200, 1e200)):
        with pytest.raises(NumericalError):
            a_unchart(coords)
    alphas = a_unchart((1e15, 0.0)).alphas
    assert min(alphas) > 0.0 and math.fsum(alphas) == 1.0


def test_a_chart_norm_grows_toward_boundary():
    # push alpha along a fixed direction; image norms must increase and blow
    # up as the small components 0.5 - r/2 approach zero at r = 1
    n = 4
    c = np.full(n, 0.5)
    u = np.array([1.0, -1.0, 1.0, -1.0]) / 2.0  # unit, sums to zero
    norms = []
    for r in (0.2, 0.5, 0.9, 0.99, 0.9999):
        alphas = tuple(c + r * u)
        norms.append(float(np.linalg.norm(a_chart(alphas))))
    assert all(x < y for x, y in zip(norms, norms[1:]))
    assert norms[-1] > 1e3


def test_a_chart_rejects_boundary_exponents():
    eps = 5e-14
    rest = (2.0 - (2.0 - eps)) / 3.0
    with pytest.raises(OnBoundary):
        a_chart((2.0 - eps, rest, rest, rest))


def test_a_round_trip_random():
    rng = np.random.default_rng(13)
    for _ in range(200):
        n = int(rng.integers(3, 9))
        coords = rng.uniform(-6, 6, size=n - 1)
        exp = a_unchart(coords)
        alphas = exp.alphas
        assert math.fsum(alphas) == float(n - 2)  # exact, not approximate
        assert all(0.0 < a < 2.0 for a in alphas)
        back = a_chart(exp)
        assert np.max(np.abs(np.asarray(back) - coords)) < 1e-12


def test_direction_basis_orthonormal_and_sum_free():
    for n in (3, 4, 7):
        q = direction_basis(n)
        assert q.shape == (n, n - 1)
        assert np.allclose(q.T @ q, np.eye(n - 1), atol=1e-14)
        assert np.allclose(q.sum(axis=0), 0.0, atol=1e-13)
    # deterministic across calls
    assert np.array_equal(direction_basis(5), direction_basis(5))


def test_direction_basis_checks_n_before_its_cache():
    # A cache key equal to a cached one skips the cached function, so
    # 3.0 is tried once 3 and np.int64(3) are cached.
    direction_basis(3)
    direction_basis(np.int64(3))
    for n in (3.0, 2.5, "4", True, 1):
        with pytest.raises(ValidationError, match="n must be an integer"):
            direction_basis(n)
    assert np.array_equal(direction_basis(np.int64(4)), direction_basis(4))


def test_chart_point_shape_checks():
    with pytest.raises(ValidationError):
        ChartPoint(5, (0.0,), (0.0,) * 4)      # needs n-3 = 2 gap coords
    with pytest.raises(ValidationError):
        ChartPoint(5, (0.0, 0.0), (0.0,) * 3)  # needs n-1 = 4
    with pytest.raises(ValidationError):
        ChartPoint(4, (math.inf,), (0.0, 0.0, 0.0))
    # n must be an integer, so its JSON form reads back.
    for n in (4.0, True, np.float64(4.0)):
        with pytest.raises(ValidationError):
            ChartPoint(n, (0.0,), (0.0, 0.0, 0.0))
    assert ChartPoint(np.int64(4), (0.0,), (0.0, 0.0, 0.0)).dimension == 4
    assert ChartPoint(6, (0.0,) * 3, (0.0,) * 5).dimension == 8


def test_moduli_chart_round_trip(square_map):
    pt = moduli_chart(square_map)
    assert pt.n == 4 and pt.dimension == 4
    pre, exp = moduli_unchart(pt)
    assert pre.finite_points == pytest.approx(square_map.prevertices.finite_points,
                                              abs=1e-12)
    assert exp.alphas == pytest.approx(square_map.exponents.alphas, abs=1e-12)


def test_moduli_chart_drops_constants(square_map):
    moved = SCMap(square_map.prevertices, square_map.exponents,
                  A=3.0 - 4.0j, B=2.5j)
    assert moduli_chart(moved) == moduli_chart(square_map)


def test_triangle_chart_is_two_dimensional(triangle_map):
    pt = moduli_chart(triangle_map)
    assert pt.z_coords == ()
    assert pt.dimension == 2


def _z_unchart_loop(coords):
    # z_unchart number by number: the reference for the chunk kernel.
    pts = [-1.0, 0.0]
    for c in coords:
        try:
            z = pts[-1] + math.exp(c)
        except OverflowError:
            z = math.inf
        if not pts[-1] < z < math.inf:
            raise NumericalError(f"z_{len(pts)} + e^{c} is {z} in floats, "
                                 f"with z_{len(pts)} = {pts[-1]}")
        pts.append(z)
    return tuple(pts)


def _a_unchart_loop(coords):
    # a_unchart with np.linalg.norm, one basis product and a boundary
    # distance loop: the reference for the chunk kernel.
    y = np.array(coords, dtype=float)
    n = y.size + 1
    c = np.full(n, (n - 2) / n)
    with np.errstate(over="ignore"):
        s = float(np.linalg.norm(y))
    if s == 0.0:
        return tuple(charts._exact_sum(c, float(n - 2)).tolist())
    if s == math.inf:
        raise NumericalError("the norm of the exponent coordinates overflows")
    u = direction_basis(n) @ (y / s)
    rho = math.inf
    for cj, uj in zip(c, u):
        if uj > 0.0:
            rho = min(rho, (2.0 - cj) / uj)
        elif uj < 0.0:
            rho = min(rho, cj / (-uj))
    alphas = charts._exact_sum(c + rho * (s / (1.0 + s)) * u, float(n - 2))
    if not np.all(np.abs(alphas - 1.0) < 1.0):
        raise NumericalError(f"radius {s} rounds onto the boundary: "
                             f"exponents {alphas.tolist()}")
    return tuple(alphas.tolist())


def _outcome(fn, *args):
    # The hex digits of fn's floats, or the class and message it raised.
    try:
        return [x.hex() for x in fn(*args)]
    except NumericalError as exc:
        return [type(exc), str(exc)]


def test_chunk_unchart_is_bitwise_the_lone_unchart():
    # Each row of a chunk gets the bits, or the error class and message,
    # of its own z_unchart and a_unchart, and those of the loops they
    # replaced: the norm, the basis product and each gap stay per row,
    # everything else is elementwise over the chunk. Rows include zero
    # exponent coordinates (the barycenter), coordinates whose norm
    # overflows or whose image rounds onto the boundary, and gaps that
    # overflow or vanish.
    rng = np.random.default_rng(34)
    rows = 0
    for n in range(3, 17):
        for box in (3.0, 10.0):
            y = rng.uniform(-box, box, size=(360, 2 * n - 4))
            y[::17, n - 3:] = 0.0
            y[1::19, -1] = 1e16
            y[2::23, -1] = -1e16
            y[3::29, n - 3] = 1e300
            if n > 3:
                y[4::31, 0] = 800.0
                y[5::37, n - 4] = -800.0
            for start in range(0, len(y), 64):
                chunk = y[start:start + 64]
                zs, alphas, errors = charts._unchart_rows(chunk)
                for row, pts, vals, error in zip(chunk, zs, alphas, errors):
                    z, a = row[:n - 3].tolist(), row[n - 3:].tolist()
                    lone = (_outcome(lambda c: z_unchart(c).finite_points, z),
                            _outcome(lambda c: a_unchart(c).alphas, a))
                    assert lone == (_outcome(_z_unchart_loop, z),
                                    _outcome(_a_unchart_loop, a))
                    failed = [x for x in lone if isinstance(x[0], type)]
                    if failed:
                        assert [type(error), str(error)] == failed[0]
                        continue
                    assert error is None
                    assert lone == ([x.hex() for x in pts.tolist()],
                                    [x.hex() for x in vals.tolist()])
                    rows += 1
    assert rows > 5000

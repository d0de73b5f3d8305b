"""Recovery of map parameters from a labelled polygon (the inverse problem).

Exponents come straight from the measured vertex angles. The finite
prevertices beyond the two pinned ones are the real unknowns; they are
solved in log-gap coordinates (ordering for free) by Levenberg-Marquardt
iteration on the logs of side-length ratios: with n - 3 unknowns, the
ratios of sides 2..n-2 to side 1 give exactly n - 3 equations, and the two
sides meeting the last vertex are determined by closure. The affine
constants A, B are fitted afterwards from the first target side. The
Jacobian is exact (the side integrals' own quadrature pass gives their
derivatives); one fixed start, equal gaps, makes every solve
deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .charts import _exact_sum, z_unchart
from .errors import (DegenerateSide, NotImmersedInput, NumericalError,
                     ValidationError, check_int, check_numbers)
from .geometry import LabelledPolygon, _angle_conditions, interior_angles
from .quadrature import check_tol, integrate_finite_legs
# Not called here: bench/spans.py hooks every import site of integrate_sc.
from .quadrature import integrate_sc  # noqa: F401
from .scmap import ExponentVector, SCMap, _bare_vertices, _one

# Levenberg-Marquardt: the starting damping, the largest move of a log gap
# per step (a factor e^2 on the gap), the least cut in the norm that lets
# a step under the tolerance continue, and the least step relative to |x|.
_MU_START = 1e-3
_MAX_STEP = 2.0
_STOP_CUT = 100.0
_MIN_STEP = float(np.finfo(float).eps)


@dataclass(frozen=True)
class SolveOptions:
    max_iterations: int = 200
    residual_tol: float = 1e-10
    quadrature_tol: float = 1e-11

    def __post_init__(self):
        object.__setattr__(self, "max_iterations", check_int(
            self.max_iterations, "max_iterations", 1))
        for name in ("residual_tol", "quadrature_tol"):
            object.__setattr__(self, name,
                               check_tol(getattr(self, name), name))
        if not self.residual_tol > self.quadrature_tol:
            raise ValidationError("residual_tol must exceed quadrature_tol")


@dataclass(frozen=True)
class SolveReport:
    """Iteration diagnostics. ``iterations`` counts the steps tried from
    the one start, at most max_iterations. ``residual_history`` holds the
    norm at the start and after each accepted step, so it never increases.
    ``reconstruction_error`` is the max vertex deviation of the refitted
    polygon over the diameter."""

    converged: bool
    iterations: int
    final_residual_norm: float
    residual_history: tuple[float, ...]
    reconstruction_error: float


def extract_exponents(poly: LabelledPolygon) -> ExponentVector:
    """Vertex angles divided by pi, renormalized to sum to n - 2 exactly.

    Demands the immersion screen's conditions (a) and (b): no angle near 0
    or a full turn, and the angle sum (n-2)*pi (turning number one).
    """
    angles = interior_angles(poly)
    angles_in_range, angle_sum_ok, t = _angle_conditions(angles)
    if not (angles_in_range and angle_sum_ok):
        raise NotImmersedInput(
            f"not an immersed polygon's angle data: straight vertices "
            f"{angles.straight_indices}, turning number {t}, angle sum "
            f"misses (n-2)*pi by {angles.sum_defect():.3e}")
    raw = np.array(angles.values) / math.pi
    return ExponentVector(tuple(_exact_sum(raw, float(poly.n - 2))))


def _log_residual(g: np.ndarray, exps: ExponentVector,
                  log_ratio_t: np.ndarray, quad_tol: float
                  ) -> tuple[np.ndarray, np.ndarray]:
    """The residual log(s_j/s_1) - log(t_j/t_1) at log gaps g and its exact
    Jacobian; s_j = |bare side integral over (z_j, z_{j+1})|, t_j the
    target side. A walled point (|g_k| > 700 or NaN, a numerical failure
    of chart or quadrature, a non-finite result) gives 1e8 and J = 0."""
    m = g.size
    wall = (np.full(m, 1e8), np.zeros((m, m)))
    if not np.all(np.abs(g) <= 700.0):
        return wall
    try:
        I, D = integrate_finite_legs(z_unchart(tuple(g)).finite_points,
                                     exps.alphas[:-1], quad_tol)
    except NumericalError:
        return wall
    s = np.abs(I)
    r = np.log(s[1:] / s[0]) - log_ratio_t
    # d log s_j / d z_k; z_p = e^(g_1) + ... + e^(g_(p-2)) for p >= 3, so
    # g_k moves every prevertex from z_(k+2) on by e^(g_k).
    dlog = (D / I[:, None]).real
    ds = np.cumsum(dlog[:, :1:-1], axis=1)[:, ::-1] * np.exp(g)
    J = ds[1:] - ds[0]
    if not (np.all(np.isfinite(r)) and np.all(np.isfinite(J))):
        return wall
    return r, J


def fit_affine_constants(bare_vertices: Sequence[complex],
                         target: LabelledPolygon) -> tuple[complex, complex]:
    """Constants mapping the normalized vertices onto the target's first
    side; the rest follows if the gap solve succeeded."""
    if len(bare_vertices) < 2:
        raise ValidationError("affine fit needs two bare vertices")
    u1, u2 = check_numbers(bare_vertices[:2], complex, "bare_vertices")
    t1, t2 = target.vertices[0], target.vertices[1]
    if u1 == u2 or t1 == t2:
        raise DegenerateSide("affine fit needs two distinct leading vertices")
    A = (t2 - t1) / (u2 - u1)
    return A, t1 - A * u1


def least_squares(fun, x0: np.ndarray, max_iterations: int, tol: float
                  ) -> tuple[np.ndarray, list[float], int]:
    """Levenberg-Marquardt on fun(x) = (r, J) from x0.

    A step h solves [J; sqrt(mu |r|) I] h = [-r; 0] by least squares,
    shortened so no coordinate moves more than _MAX_STEP, and is accepted
    if it lowers |r|. The damping mu |r| vanishes with r, so the tail is
    Gauss-Newton and quadratic (Fan and Yuan 2005); mu follows Nielsen's
    gain-ratio rule (IMM-REP-1999-05). Stops after max_iterations steps,
    when |h| <= _MIN_STEP (|x| + _MIN_STEP) (Nielsen's test that x no
    longer moves), or once |r| <= tol and a step is rejected or cuts |r|
    by less than _STOP_CUT. Returns x, |r| at x0 and
    after each accepted step, and the number of steps tried.
    """
    x, (r, J) = x0, fun(x0)
    history = [float(np.linalg.norm(r))]
    mu, nu, steps = _MU_START, 2.0, 0
    while steps < max_iterations:
        last = history[-1]
        damped = np.vstack([J, math.sqrt(mu * last) * np.eye(x.size)])
        h = np.linalg.lstsq(damped, np.concatenate([-r, np.zeros(x.size)]),
                            rcond=None)[0]
        h *= _MAX_STEP / max(_MAX_STEP, float(np.max(np.abs(h))))
        if np.linalg.norm(h) <= _MIN_STEP * (np.linalg.norm(x) + _MIN_STEP):
            break
        trial = x + h
        steps += 1
        r_new, J_new = fun(trial)
        nrm = float(np.linalg.norm(r_new))
        if nrm < last:
            # Gain ratio: actual over predicted decrease of |r|^2, capped
            # at 1, where Nielsen's factor has already reached 1/3.
            Jh = J @ h
            predicted = -float(Jh @ (2.0 * r + Jh))
            gain = (last - nrm) * (last + nrm)
            rho = gain / predicted if gain < predicted else 1.0
            mu *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
            nu = 2.0
            x, r, J = trial, r_new, J_new
            history.append(nrm)
        else:
            mu, nu = mu * nu, 2.0 * nu
        # A rejected step has nrm >= last, so it passes the cut test.
        if history[-1] <= tol and last < _STOP_CUT * nrm:
            break
    return x, history, steps


def solve_parameter_problem(
        poly: LabelledPolygon,
        opts: Optional[SolveOptions] = None) -> tuple[SCMap, SolveReport]:
    """Normalized map parameters reproducing the given polygon.

    :func:`least_squares` drives the side-ratio system s_j/s_1 = t_j/t_1
    to zero in log form (same zeros, relative error to first order): a
    plain norm lets large ratios drown small ones, and a relative one
    saturates when a ratio collapses below its target. Report norms are of
    this form. A walled point has a zero Jacobian, and its step fails.
    The one start is equal gaps; max_iterations bounds its steps, each one
    residual evaluation. Non-convergence is reported, not raised.
    """
    opts = opts or SolveOptions()
    exps = extract_exponents(poly)
    t = np.abs(np.diff(poly.vertices[:-1]))  # sides 1 .. n-2
    log_ratio_t = np.log(t[1:] / t[0])

    # Triangles have no unknowns: their angles pin them.
    x, hist, iterations = np.zeros(poly.n - 3), [0.0], 0
    if x.size:
        x, hist, iterations = least_squares(
            lambda g: _log_residual(g, exps, log_ratio_t, opts.quadrature_tol),
            x, opts.max_iterations, opts.residual_tol)

    pre = z_unchart(tuple(x))
    bare = _one(_bare_vertices([(pre, exps)], opts.quadrature_tol))
    A, B = fit_affine_constants(bare, poly)
    deviation = max(abs(A * u + B - w)
                    for u, w in zip(bare, poly.vertices))
    report = SolveReport(converged=hist[-1] <= opts.residual_tol,
                         iterations=iterations, final_residual_norm=hist[-1],
                         residual_history=tuple(hist),
                         reconstruction_error=deviation / poly.diameter)
    return SCMap(pre, exps, A, B), report

"""Recovery of map parameters from a labelled polygon (the inverse problem).

Exponents come straight from the measured vertex angles. The finite
prevertices beyond the two pinned ones are the real unknowns; they are
solved in log-gap coordinates (ordering for free) by damped Gauss-Newton
iteration on side-length ratios: with n - 3 unknowns, the ratios of sides
2..n-2 to side 1 give exactly n - 3 equations, and the two sides meeting
the last vertex are determined by closure. The affine constants A, B are
fitted afterwards from the first target side.

The Jacobian is exact: the same quadrature pass that gives the side
integrals gives their derivatives in the prevertices, and the chain rule
carries them to the log gaps. Everything here is deterministic: fixed
initial guess, no randomness. Failure to converge is reported, not
raised; callers get the final iterate plus its diagnostics either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import least_squares

from .charts import _exact_sum, z_unchart
from .errors import DegenerateSide, NoConvergence, NotImmersedInput, \
    ValidationError
from .geometry import ANGLE_TOL, LabelledPolygon, interior_angles
from .quadrature import check_tol, integrate_finite_legs
# Not called here: bench/spans.py hooks every import site of integrate_sc.
from .quadrature import integrate_sc  # noqa: F401
from .scmap import ExponentVector, Prevertices, SCMap, _bare_vertices


@dataclass(frozen=True)
class SolveOptions:
    max_iterations: int = 200
    residual_tol: float = 1e-10
    quadrature_tol: float = 1e-11
    initial_gaps: Optional[tuple[float, ...]] = None

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValidationError("max_iterations must be positive")
        check_tol(self.residual_tol, "residual_tol")
        check_tol(self.quadrature_tol, "quadrature_tol")
        if not self.residual_tol > self.quadrature_tol:
            raise ValidationError("residual_tol must exceed quadrature_tol")
        if self.initial_gaps is not None:
            gaps = tuple(float(g) for g in self.initial_gaps)
            for g in gaps:
                if not math.isfinite(g):
                    raise ValidationError("initial gaps must be finite")
            object.__setattr__(self, "initial_gaps", gaps)


@dataclass(frozen=True)
class SolveReport:
    """Iteration diagnostics. ``residual_history`` holds the norm at the
    initial guess and after each accepted step, so it never increases.
    ``reconstruction_error`` is the max vertex deviation of the refitted
    polygon, relative to the target diameter."""

    converged: bool
    iterations: int
    final_residual_norm: float
    residual_history: tuple[float, ...]
    reconstruction_error: float


def extract_exponents(poly: LabelledPolygon) -> ExponentVector:
    """Vertex angles divided by pi, renormalized to sum to n - 2 exactly.

    Demands immersion-consistent angles: no angle within tolerance of 0 or
    a full turn, and the angle sum correct (turning number one).
    """
    angles = interior_angles(poly)
    if angles.straight_indices:
        raise NotImmersedInput(
            f"vertices {angles.straight_indices} have angle at 0 or full turn")
    defect = angles.sum_defect()
    if abs(defect) > ANGLE_TOL:
        raise NotImmersedInput(
            f"angle sum misses (n-2)*pi by {defect:.3e}; "
            "not an immersed polygon's angle data")
    raw = np.array(angles.values) / math.pi
    return ExponentVector(tuple(_exact_sum(raw, float(poly.n - 2))))


def _gap_lengths(pre: Prevertices, exp: ExponentVector,
                 quad_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Moduli s_j of the bare side integrals over (z_j, z_{j+1}), j =
    1..n-2, and their log-derivatives d log s_j / d z_k over the finite
    prevertices."""
    I, D = integrate_finite_legs(pre.finite_points, exp.alphas[:-1], quad_tol)
    return np.abs(I), (D / I[:, None]).real


def _target_sides(target: LabelledPolygon) -> np.ndarray:
    w = target.vertices
    return np.array([abs(w[j + 1] - w[j]) for j in range(target.n - 2)])


def side_length_residual(gaps: Sequence[float], exponents: ExponentVector,
                         target: LabelledPolygon,
                         quadrature_tol: float = SolveOptions.quadrature_tol
                         ) -> np.ndarray:
    """Candidate-vs-target side-length ratios, sides 2..n-2 against side 1.

    Empty for n = 3, where the shape is pinned by the angles alone.
    """
    n = exponents.n
    gaps = tuple(float(g) for g in gaps)
    if len(gaps) != n - 3:
        raise ValidationError(f"expected {n - 3} gaps, got {len(gaps)}")
    if target.n != n:
        raise ValidationError(
            f"target has {target.n} vertices, exponents say {n}")
    if n == 3:
        return np.zeros(0)
    s, _ = _gap_lengths(z_unchart(gaps), exponents, quadrature_tol)
    t = _target_sides(target)
    return s[1:] / s[0] - t[1:] / t[0]


def _log_residual(g: np.ndarray, exps: ExponentVector,
                  log_ratio_t: np.ndarray, quad_tol: float
                  ) -> tuple[np.ndarray, np.ndarray]:
    """The solver's residual log(s_j/s_1) - log(t_j/t_1) at log gaps g,
    with its exact Jacobian in g. A walled point (|g_k| > 700, a caught
    quadrature failure, or a non-finite result) gives the constant 1e8
    and a zero Jacobian."""
    m = g.size
    wall = (np.full(m, 1e8), np.zeros((m, m)))
    if np.any(np.abs(g) > 700.0):
        return wall
    try:
        s, dlog = _gap_lengths(z_unchart(tuple(g)), exps, quad_tol)
        r = np.log(s[1:] / s[0]) - log_ratio_t
    except (NoConvergence, ValidationError, OverflowError):
        return wall
    # z_p = e^(g_1) + ... + e^(g_(p-2)) for p >= 3: g_k moves every
    # prevertex from z_(k+2) on by e^(g_k).
    ds = np.cumsum(dlog[:, :1:-1], axis=1)[:, ::-1] * np.exp(g)
    J = ds[1:] - ds[0]
    if not (np.all(np.isfinite(r)) and np.all(np.isfinite(J))):
        return wall
    return r, J


def fit_affine_constants(bare_vertices: Sequence[complex],
                         target: LabelledPolygon) -> tuple[complex, complex]:
    """Constants mapping the normalized vertices onto the target's first
    side; the rest follows if the gap solve succeeded."""
    u1, u2 = complex(bare_vertices[0]), complex(bare_vertices[1])
    t1, t2 = target.vertices[0], target.vertices[1]
    if u1 == u2 or t1 == t2:
        raise DegenerateSide("affine fit needs two distinct leading vertices")
    A = (t2 - t1) / (u2 - u1)
    return A, t1 - A * u1


def solve_parameter_problem(
        poly: LabelledPolygon,
        opts: Optional[SolveOptions] = None) -> tuple[SCMap, SolveReport]:
    """Normalized map parameters reproducing the given polygon.

    Levenberg-Marquardt (MINPACK lmder) with an exact Jacobian and
    residual-norm step acceptance. The iteration drives the
    side-ratio system to zero in log form, log(s_j/s_1) - log(t_j/t_1),
    which has the same zero set as side_length_residual and agrees with
    the relative error to first order near it. Side ratios span orders
    of magnitude, so a plain norm would let large ratios drown the small
    ones, while a relative one saturates (gradient dies) when a candidate
    ratio collapses below its target; the log form suffers neither.
    Residual norms in the report are of this log form.

    Each residual evaluation also yields the Jacobian at its point, from
    the derivatives of the leg integrals on the same quadrature panels;
    lmder asks for the Jacobian at the point it evaluated last, so only
    a request at any other point costs quadrature again. Where the
    residual is walled (|gap coordinate| > 700, or the quadrature
    fails), the Jacobian is zero. max_iterations is spent in MINPACK's
    own budget currency, (m + 1) residual calls per nominal iteration.
    Non-convergence is reported via the returned SolveReport rather
    than raised.

    Starts from equal gaps (or ``initial_gaps``); if that attempt ends
    above residual_tol, one deterministic retry runs from gaps matching
    the target's side-length ratios, and the better endpoint wins. The
    report's history covers the winning attempt; its iteration count
    covers both.
    """
    opts = opts or SolveOptions()
    exps = extract_exponents(poly)
    m = poly.n - 3
    if opts.initial_gaps is not None and len(opts.initial_gaps) != m:
        raise ValidationError(
            f"expected {m} initial gaps, got {len(opts.initial_gaps)}")
    x = np.array(opts.initial_gaps if opts.initial_gaps is not None
                 else np.zeros(m), dtype=float)

    t = _target_sides(poly)
    log_ratio_t = np.log(t[1:] / t[0])

    history: list[float] = []
    # (point bytes, Jacobian) of the last residual evaluation.
    cached = (None, None)

    def tracked(g: np.ndarray) -> np.ndarray:
        nonlocal cached
        r, J = _log_residual(g, exps, log_ratio_t, opts.quadrature_tol)
        cached = (g.tobytes(), J)
        nrm = float(np.linalg.norm(r))
        if not history or nrm < history[-1]:
            history.append(nrm)
        return r

    def jacobian(g: np.ndarray) -> np.ndarray:
        key, J = cached
        if key == g.tobytes():
            return J
        return _log_residual(g, exps, log_ratio_t, opts.quadrature_tol)[1]

    def attempt(x0: np.ndarray):
        nonlocal history
        history = []
        result = least_squares(
            tracked, x0, jac=jacobian, method="lm",
            ftol=1e-15, xtol=1e-15, gtol=1e-15,
            max_nfev=opts.max_iterations * (m + 1))
        nrm = float(np.linalg.norm(result.fun))
        if nrm < history[-1]:
            history.append(nrm)
        return result.x, nrm, tuple(history), result.njev

    iterations = 0
    if m == 0:
        # Triangles are pinned by their angles; nothing to iterate.
        hist = (0.0,)
        nrm = 0.0
    else:
        start = x.copy()
        x, nrm, hist, iterations = attempt(start)
        if nrm > opts.residual_tol and not np.array_equal(log_ratio_t, start):
            # Equal gaps occasionally stall at a nonzero local minimum of
            # the least-squares landscape. Second deterministic start:
            # log gap ratios equal to the target's log side ratios, which
            # places wildly uneven sides in the right basin. The history
            # reported is that of the attempt whose result is returned;
            # iterations count the total work.
            x2, nrm2, hist2, extra = attempt(log_ratio_t.copy())
            iterations += extra
            if nrm2 < nrm:
                x, nrm, hist = x2, nrm2, hist2
    converged = nrm <= opts.residual_tol

    pre = z_unchart(tuple(x))
    bare = _bare_vertices(pre, exps, opts.quadrature_tol)
    A, B = fit_affine_constants(bare, poly)
    deviation = max(abs(A * u + B - w)
                    for u, w in zip(bare, poly.vertices))
    report = SolveReport(converged=converged, iterations=iterations,
                         final_residual_norm=nrm,
                         residual_history=hist,
                         reconstruction_error=deviation / poly.diameter)
    return SCMap(pre, exps, A, B), report

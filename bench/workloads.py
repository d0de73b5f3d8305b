"""The benchmark's workloads: seeded inputs, the timed public call, and
the correctness check of each call's output.

Every call goes through a module attribute looked up at call time
(``scpoly.sweep.run_sweep``), so the hooks in ``spans`` see it. Input k
of a run depends only on (seed, k).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

import scpoly.paramsolve
import scpoly.render
import scpoly.sweep
from scpoly import (INFINITY, ChartPoint, LabelledPolygon, NumericalError,
                    SCMap, SweepConfig, apply_similarity, evaluate,
                    forward, forward_extended, moduli_chart, moduli_unchart,
                    sample_chart_point)

SWEEP_BATCH = 8
RENDER_GRID = 4
# grid_curves samples each of its 2 * grid lines at 48 points.
RENDER_POINTS = 2 * RENDER_GRID * 48
ROUND_TRIP_TOL = 1e-6
VERTEX_RTOL = 1e-8


@dataclass(frozen=True)
class Workload:
    """make(seed, k) builds input k (untimed); call(input) is the timed
    public call; check(input, output, caught) returns failed items by
    class; items(input) is how many items one call attempts; calls_per_s
    sizes a run (calls per second on the reference machine); block is
    the number of consecutive calls that share one speed scale, a whole
    number of turns through the workload's n."""

    name: str
    make: Callable[[int, int], Any]
    call: Callable[[Any], Any]
    check: Callable[[Any, Any, Optional[list[str]]], Counter]
    warm_up: Callable[[], None]
    items: Callable[[Any], int]
    calls_per_s: float
    block: int


def call_seed(seed: int, k: int) -> int:
    """Seed of call k in a run seeded ``seed``."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def ray_winding(vertices, p: complex) -> int:
    """Winding number of the closed polyline around p by signed crossings
    of the rightward horizontal ray (counterclockwise counts +1)."""
    w = 0
    n = len(vertices)
    for j in range(n):
        a, b = vertices[j], vertices[(j + 1) % n]
        side = ((b.real - a.real) * (p.imag - a.imag)
                - (p.real - a.real) * (b.imag - a.imag))
        if a.imag <= p.imag < b.imag and side > 0:
            w += 1
        elif b.imag <= p.imag < a.imag and side < 0:
            w -= 1
    return w


def _similarity(rng: np.random.Generator) -> tuple[complex, complex]:
    scale = rng.uniform(0.5, 2.0) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    return complex(scale), complex(*rng.uniform(-5.0, 5.0, size=2))


def _zero_chart(n: int) -> ChartPoint:
    return ChartPoint(n, (0.0,) * (n - 3), (0.0,) * (n - 1))


# -- sweep --------------------------------------------------------------------

SWEEP_NS = (6, 8, 12)


def _sweep_checks(cfg: SweepConfig, result, caught: Optional[list[str]]) -> Counter:
    failed: Counter = Counter()
    counted = (result.simple_count + len(result.nonsimple_instances)
               + result.failures)
    if counted != cfg.samples or result.tested != cfg.samples:
        failed["CheckFailed"] += cfg.samples
        return failed
    # run_sweep swallows NumericalError; the traced run names the classes.
    caught = list(caught or [])[:result.failures]
    failed.update(caught)
    failed["NumericalError"] += result.failures - len(caught)
    for inst in result.nonsimple_instances:
        if inst.witness is None:
            continue
        poly = forward(*moduli_unchart(inst.chart))
        if inst.winding < 2 or ray_winding(poly.vertices, inst.witness) < 2:
            failed["CheckFailed"] += 1
    return +failed


def _sweep_make(seed: int, k: int) -> SweepConfig:
    return SweepConfig(n=SWEEP_NS[k % len(SWEEP_NS)], samples=SWEEP_BATCH,
                       seed=call_seed(seed, k), chart_box=3.0)


def _sweep_call(cfg: SweepConfig):
    return scpoly.sweep.run_sweep(cfg)


def _sweep_warm_up() -> None:
    for n in SWEEP_NS:
        scpoly.sweep.run_sweep(SweepConfig(n=n, samples=1, seed=0,
                                           chart_box=3.0))


# -- solve --------------------------------------------------------------------

SOLVE_NS = (5, 6, 8)
# Shapes come from the chart stream of the solver round-trip acceptance
# test (seed 777, box 3); the run seed places each one in the plane.
# Solve times are heavy-tailed (a few solves take seconds), so shapes
# drawn afresh for every seed would make runs disagree by far more than
# any bound; a fixed shape list keeps runs comparable.
SOLVE_SHAPE_SEED = 777


@dataclass(frozen=True)
class SolveInput:
    chart: ChartPoint
    target: LabelledPolygon


def _solve_make(seed: int, k: int) -> SolveInput:
    n = SOLVE_NS[k % len(SOLVE_NS)]
    cfg = SweepConfig(n=n, samples=1, seed=SOLVE_SHAPE_SEED, chart_box=3.0)
    index = k // len(SOLVE_NS)
    while True:
        pt = sample_chart_point(cfg, index)
        try:
            poly = forward(*moduli_unchart(pt))
            break
        except NumericalError:
            # No polygon to solve for; take a shape from further along
            # the stream, past any index a run reaches.
            index += 100_000
    a, b = _similarity(np.random.default_rng([seed, k]))
    return SolveInput(pt, apply_similarity(poly, a, b))


def _solve_call(inp: SolveInput):
    return scpoly.paramsolve.solve_parameter_problem(inp.target)


def _solve_checks(inp: SolveInput, out, caught) -> Counter:
    fitted, report = out
    if not report.converged:
        return Counter(NotConverged=1)
    back = moduli_chart(fitted)
    err = max(abs(u - v) for u, v in
              zip(inp.chart.z_coords + inp.chart.a_coords,
                  back.z_coords + back.a_coords))
    return Counter(CheckFailed=1) if not err < ROUND_TRIP_TOL else Counter()


def _solve_warm_up() -> None:
    for n in SOLVE_NS:
        regular = LabelledPolygon(tuple(
            complex(math.cos(2 * math.pi * j / n), math.sin(2 * math.pi * j / n))
            for j in range(n)))
        scpoly.paramsolve.solve_parameter_problem(regular)


# -- render -------------------------------------------------------------------

RENDER_NS = (4, 8, 12)


def _render_make(seed: int, k: int) -> SCMap:
    n = RENDER_NS[k % len(RENDER_NS)]
    cfg = SweepConfig(n=n, samples=1, seed=call_seed(seed, k), chart_box=3.0)
    pre, exp = moduli_unchart(sample_chart_point(cfg, 0))
    a, b = _similarity(np.random.default_rng([cfg.seed, 1]))
    return SCMap(pre, exp, a, b)


def _render_call(m: SCMap) -> str:
    return scpoly.render.scmap_svg(m, grid=RENDER_GRID)


def _render_checks(m: SCMap, svg: str, caught) -> Counter:
    if svg.count("<path ") != 1 + 2 * RENDER_GRID:
        return Counter(CheckFailed=RENDER_POINTS)
    bare = forward_extended(m.prevertices, m.exponents)
    poly = apply_similarity(bare, m.A, m.B)
    zs = m.prevertices.finite_points + (INFINITY,)
    worst = max(abs(evaluate(m, z) - w) for z, w in zip(zs, poly.vertices))
    if not worst <= VERTEX_RTOL * poly.diameter:
        return Counter(CheckFailed=RENDER_POINTS)
    return Counter()


def _render_warm_up() -> None:
    for n in RENDER_NS:
        scpoly.render.scmap_svg(SCMap(*moduli_unchart(_zero_chart(n))),
                                grid=RENDER_GRID)


WORKLOADS = {
    "sweep": Workload("sweep", _sweep_make, _sweep_call, _sweep_checks,
                      _sweep_warm_up, lambda cfg: cfg.samples, 14.0, 9),
    "solve": Workload("solve", _solve_make, _solve_call, _solve_checks,
                      _solve_warm_up, lambda inp: 1, 6.0, 3),
    "render": Workload("render", _render_make, _render_call, _render_checks,
                       _render_warm_up, lambda m: RENDER_POINTS, 4.4, 3),
}

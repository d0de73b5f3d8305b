"""Randomized simplicity sweeps over the parameter chart.

Samples chart points uniformly in a cube, runs the forward construction,
and classifies each polygon as simple, non-simple (with a multiwound
witness when one of the arrangement probes of ``find_multiwound_witness``
certifies one), or failed. Per-sample substreams are derived from (seed, index), so
results are independent of evaluation order and a parallel driver would
reproduce the serial result exactly. The forward construction runs on
chunks of samples at once, and each polygon comes out bitwise as its
own ``forward`` gives it, so results do not depend on the chunks either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .charts import ChartPoint, moduli_unchart
from .errors import NumericalError, ValidationError, check_int
from .geometry import (PlanePoint, find_multiwound_witness, is_simple,
                       winding_number)
from .quadrature import DEFAULT_TOL, check_tol
# forward is not called here: bench/spans.py hooks it at this module.
from .scmap import _forward_many, forward  # noqa: F401

# Samples forwarded in one batch by run_sweep.
SWEEP_CHUNK = 64


@dataclass(frozen=True)
class SweepConfig:
    n: int
    samples: int
    seed: int = 0
    chart_box: float = 3.0

    def __post_init__(self):
        check_int(self.n, "n", 3)
        check_int(self.samples, "samples", 1)
        check_int(self.seed, "seed", 0)
        check_tol(self.chart_box, "chart_box")
        # Samples are drawn from an interval of width 2 * chart_box.
        if not 2.0 * self.chart_box < math.inf:
            raise ValidationError(
                f"2 * chart_box must be finite, got {self.chart_box}")


@dataclass(frozen=True)
class NonSimpleInstance:
    chart: ChartPoint
    witness: Optional[PlanePoint]
    winding: int


@dataclass(frozen=True)
class SweepResult:
    """Classification counts; tested = simple + non-simple + failures."""

    tested: int
    simple_count: int
    nonsimple_instances: tuple[NonSimpleInstance, ...]
    failures: int

    def __post_init__(self):
        for name in ("tested", "simple_count", "failures"):
            check_int(getattr(self, name), name, 0)
        total = self.simple_count + len(self.nonsimple_instances) + self.failures
        if total != self.tested:
            raise ValidationError(
                f"counts {total} do not add up to tested = {self.tested}")


def sample_chart_point(cfg: SweepConfig, index: int) -> ChartPoint:
    """Chart point of sample ``index``: 2n - 4 uniform draws in
    [-chart_box, chart_box] from the PCG64 stream seeded by (seed, index),
    gap coordinates first. ``index`` is an integer >= 0."""
    check_int(index, "index", 0)
    rng = np.random.default_rng([cfg.seed, index])
    y = rng.uniform(-cfg.chart_box, cfg.chart_box, size=2 * cfg.n - 4)
    return ChartPoint(cfg.n, tuple(y[:cfg.n - 3]), tuple(y[cfg.n - 3:]))


def run_sweep(cfg: SweepConfig, tol: float = DEFAULT_TOL) -> SweepResult:
    """Forward-and-classify ``cfg.samples`` chart points.

    Failures count chart points whose map floats cannot hold and forward
    constructions that died numerically; chart points themselves are
    always valid (the chart covers all of the cube). The samples go
    forward in chunks of SWEEP_CHUNK, each chunk one batch of
    ``scmap._forward_many``; each polygon is bitwise the one its own
    ``forward`` gives, so the result does not depend on the chunks.
    """
    check_tol(tol)
    simple = 0
    failures = 0
    nonsimple: list[NonSimpleInstance] = []
    for start in range(0, cfg.samples, SWEEP_CHUNK):
        charted, maps = [], []
        for index in range(start, min(start + SWEEP_CHUNK, cfg.samples)):
            pt = sample_chart_point(cfg, index)
            try:
                maps.append(moduli_unchart(pt))
            except NumericalError:
                failures += 1
                continue
            charted.append(pt)
        for pt, poly in zip(charted, _forward_many(maps, tol)):
            if isinstance(poly, NumericalError):
                failures += 1
                continue
            if is_simple(poly):
                simple += 1
                continue
            witness = find_multiwound_witness(poly)
            winding = 0 if witness is None else winding_number(poly, witness)
            nonsimple.append(NonSimpleInstance(pt, witness, winding))
    return SweepResult(tested=cfg.samples, simple_count=simple,
                       nonsimple_instances=tuple(nonsimple),
                       failures=failures)

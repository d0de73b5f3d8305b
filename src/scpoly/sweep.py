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

from .charts import ChartPoint, a_unchart, z_unchart
from .errors import NumericalError, ValidationError, check_int
from .geometry import (PlanePoint, find_multiwound_witness, is_simple,
                       winding_number)
from .quadrature import DEFAULT_TOL, check_tol
from .scmap import _forward_many
# Not called here (run_sweep uncharts its drawn coordinates and forwards
# in batches), but bench/spans.py hooks them at this module.
from .charts import moduli_unchart  # noqa: F401
from .scmap import forward  # noqa: F401

# Samples forwarded in one batch by run_sweep.
SWEEP_CHUNK = 64


@dataclass(frozen=True)
class SweepConfig:
    n: int
    samples: int
    seed: int = 0
    chart_box: float = 3.0

    def __post_init__(self):
        for name, least in (("n", 3), ("samples", 1), ("seed", 0)):
            object.__setattr__(self, name,
                               check_int(getattr(self, name), name, least))
        box = check_tol(self.chart_box, "chart_box")
        # Samples are drawn from an interval of width 2 * chart_box.
        if not 2.0 * box < math.inf:
            raise ValidationError(f"2 * chart_box must be finite, got {box}")
        object.__setattr__(self, "chart_box", box)


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
            object.__setattr__(self, name,
                               check_int(getattr(self, name), name, 0))
        total = self.simple_count + len(self.nonsimple_instances) + self.failures
        if total != self.tested:
            raise ValidationError(
                f"counts {total} do not add up to tested = {self.tested}")


def _draw(cfg: SweepConfig, index: int) -> np.ndarray:
    # The 2n - 4 coordinates of sample ``index``, gap coordinates first.
    rng = np.random.default_rng([cfg.seed, index])
    return rng.uniform(-cfg.chart_box, cfg.chart_box, size=2 * cfg.n - 4)


def _chart_point(cfg: SweepConfig, y: np.ndarray) -> ChartPoint:
    return ChartPoint(cfg.n, tuple(y[:cfg.n - 3]), tuple(y[cfg.n - 3:]))


def sample_chart_point(cfg: SweepConfig, index: int) -> ChartPoint:
    """Chart point of sample ``index``: 2n - 4 uniform draws in
    [-chart_box, chart_box] from the PCG64 stream seeded by (seed, index),
    gap coordinates first. ``index`` is an integer >= 0."""
    return _chart_point(cfg, _draw(cfg, check_int(index, "index", 0)))


def run_sweep(cfg: SweepConfig, tol: float = DEFAULT_TOL) -> SweepResult:
    """Forward-and-classify ``cfg.samples`` chart points.

    Failures count chart points whose map floats cannot hold and forward
    constructions that died numerically; chart points themselves are
    always valid (the chart covers all of the cube). The samples go
    forward in chunks of SWEEP_CHUNK, each chunk one batch of
    ``scmap._forward_many``, whose polygons are checked (sides,
    self-contacts and so ``is_simple``) in one array pass per chunk; each
    polygon, and each of its checks, is bitwise what its own ``forward``
    gives, so the result does not depend on the chunks. Each sample's
    coordinates are those of ``sample_chart_point``, uncharted directly;
    a ``ChartPoint`` is built only for the non-simple instances kept.
    """
    # _forward_many checks tol for every chunk.
    n = cfg.n
    simple = 0
    failures = 0
    nonsimple: list[NonSimpleInstance] = []
    for start in range(0, cfg.samples, SWEEP_CHUNK):
        drawn, maps = [], []
        for index in range(start, min(start + SWEEP_CHUNK, cfg.samples)):
            y = _draw(cfg, index)
            try:
                maps.append((z_unchart(y[:n - 3]), a_unchart(y[n - 3:])))
            except NumericalError:
                failures += 1
                continue
            drawn.append(y)
        for y, poly in zip(drawn, _forward_many(maps, tol)):
            if isinstance(poly, NumericalError):
                failures += 1
                continue
            if is_simple(poly):
                simple += 1
                continue
            witness = find_multiwound_witness(poly)
            winding = 0 if witness is None else winding_number(poly, witness)
            nonsimple.append(
                NonSimpleInstance(_chart_point(cfg, y), witness, winding))
    return SweepResult(tested=cfg.samples, simple_count=simple,
                       nonsimple_instances=tuple(nonsimple),
                       failures=failures)

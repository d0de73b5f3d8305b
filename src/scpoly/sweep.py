"""Randomized simplicity sweeps over the parameter chart.

Samples chart points uniformly in a cube, runs the forward construction,
and classifies each polygon as simple, non-simple (with a multiwound
witness when one of the arrangement probes of ``find_multiwound_witness``
certifies one), or failed. Per-sample substreams are derived from (seed, index), so
results are independent of evaluation order and a parallel driver would
reproduce the serial result exactly. Uncharting and the forward
construction run on chunks of samples at once, and each map and polygon
comes out bitwise as its own ``moduli_unchart`` and ``forward`` give it,
so results do not depend on the chunks either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .charts import ChartPoint, _unchart_rows
from .errors import NumericalError, ValidationError, check_int
from .geometry import (PlanePoint, find_multiwound_witness, is_simple,
                       winding_number)
from .quadrature import DEFAULT_TOL, check_tol
from .scmap import ExponentVector, Prevertices, _forward_many
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
    coordinates are those of ``sample_chart_point``; a chunk's are
    stacked and uncharted by one ``charts._unchart_rows`` call, whose
    rows that unchart become maps through the two constructors, as
    ``moduli_unchart`` builds them. A ``ChartPoint`` is built only for
    the non-simple instances kept.
    """
    # _forward_many checks tol for every chunk.
    simple = 0
    failures = 0
    nonsimple: list[NonSimpleInstance] = []
    for start in range(0, cfg.samples, SWEEP_CHUNK):
        drawn = np.array([_draw(cfg, index) for index in
                          range(start, min(start + SWEEP_CHUNK, cfg.samples))])
        zs, alphas, errors = _unchart_rows(drawn)
        kept = [i for i, error in enumerate(errors) if error is None]
        failures += len(errors) - len(kept)
        maps = [(Prevertices(tuple(z)), ExponentVector(tuple(a)))
                for z, a in zip(zs[kept].tolist(), alphas[kept].tolist())]
        for i, poly in zip(kept, _forward_many(maps, tol)):
            if isinstance(poly, NumericalError):
                failures += 1
                continue
            if is_simple(poly):
                simple += 1
                continue
            witness = find_multiwound_witness(poly)
            winding = 0 if witness is None else winding_number(poly, witness)
            nonsimple.append(NonSimpleInstance(_chart_point(cfg, drawn[i]),
                                               witness, winding))
    return SweepResult(tested=cfg.samples, simple_count=simple,
                       nonsimple_instances=tuple(nonsimple),
                       failures=failures)

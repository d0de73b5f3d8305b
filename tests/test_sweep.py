import math

import numpy as np
import pytest

import scpoly.sweep as sweep_mod
from scpoly import (
    ChartPoint,
    DegenerateSide,
    NumericalError,
    NonSimpleInstance,
    SweepConfig,
    SweepResult,
    ValidationError,
    is_simple,
    forward,
    moduli_unchart,
    run_sweep,
    sample_chart_point,
    winding_number,
)

from conftest import HEX_CHART_LARGE, HEX_CHART_LENS
from oracles import ray_crossing_winding


def test_config_validation():
    with pytest.raises(ValidationError):
        SweepConfig(n=2, samples=10)
    with pytest.raises(ValidationError):
        SweepConfig(n=5, samples=0)
    with pytest.raises(ValidationError):
        SweepConfig(n=5, samples=10, seed=-1)
    with pytest.raises(ValidationError):
        SweepConfig(n=5, samples=10, chart_box=0.0)


def test_result_counts_must_balance():
    with pytest.raises(ValidationError):
        SweepResult(tested=3, simple_count=1, nonsimple_instances=(), failures=1)
    ok = SweepResult(tested=2, simple_count=2, nonsimple_instances=(), failures=0)
    assert ok.tested == 2


def test_sample_stream_is_indexed_not_sequential():
    cfg = SweepConfig(n=5, samples=100, seed=7)
    a = sample_chart_point(cfg, 42)
    b = sample_chart_point(cfg, 42)
    assert a == b
    assert sample_chart_point(cfg, 43) != a
    # sample 42 does not depend on whether samples 0..41 were drawn
    direct = np.random.default_rng([7, 42]).uniform(-3.0, 3.0, size=6)
    assert a.z_coords == pytest.approx(direct[:2])
    assert a.a_coords == pytest.approx(direct[2:])


def test_sample_respects_box():
    cfg = SweepConfig(n=6, samples=1, seed=0, chart_box=0.25)
    pt = sample_chart_point(cfg, 11)
    assert all(abs(v) <= 0.25 for v in pt.z_coords + pt.a_coords)
    assert pt.n == 6 and pt.dimension == 8


def test_small_pentagon_sweep_all_simple():
    res = run_sweep(SweepConfig(n=5, samples=60, seed=3))
    assert res.tested == 60
    assert res.simple_count == 60
    assert res.nonsimple_instances == ()
    assert res.failures == 0


def test_sweep_deterministic():
    cfg = SweepConfig(n=4, samples=30, seed=19)
    assert run_sweep(cfg) == run_sweep(cfg)


def test_sweep_finds_frozen_hexagons():
    """The two known non-simple hexagons sit at sample indices 2450 and
    2691 of the seed-0 stream; a sweep long enough to cover the first one
    must report it with a certified witness."""
    res = run_sweep(SweepConfig(n=6, samples=2451, seed=0))
    assert res.failures == 0
    assert len(res.nonsimple_instances) == 1
    inst = res.nonsimple_instances[0]
    assert inst.chart == HEX_CHART_LARGE
    assert inst.witness is not None
    assert inst.winding >= 2
    poly = forward(*moduli_unchart(inst.chart))
    assert winding_number(poly, inst.witness) == inst.winding
    assert ray_crossing_winding(poly.vertices, inst.witness) == inst.winding


def test_frozen_lens_chart_classifies_nonsimple():
    # the second frozen instance, without sweeping all the way to it
    poly = forward(*moduli_unchart(HEX_CHART_LENS))
    assert not is_simple(poly)


def test_forward_failures_are_counted(monkeypatch):
    real_forward = sweep_mod.forward
    def flaky(pre, exp, tol):
        if abs(pre.finite_points[-1] - 1.0) < 0.5:
            raise NumericalError("synthetic failure")
        return real_forward(pre, exp, tol)
    monkeypatch.setattr(sweep_mod, "forward", flaky)
    res = run_sweep(SweepConfig(n=4, samples=40, seed=2))
    assert res.failures > 0
    assert res.tested == 40
    assert res.simple_count + len(res.nonsimple_instances) + res.failures == 40


@pytest.mark.parametrize("tol", [-1.0, math.nan, math.inf])
def test_bad_tol_is_rejected_not_counted(tol):
    with pytest.raises(ValidationError):
        run_sweep(SweepConfig(n=5, samples=3, seed=0), tol)


def test_degenerate_forward_output_counts_as_failure():
    # Sample 1 of this config integrates to float-coincident vertices.
    cfg = SweepConfig(n=8, samples=2, seed=11, chart_box=10.0)
    with pytest.raises(NumericalError) as info:
        forward(*moduli_unchart(sample_chart_point(cfg, 1)))
    assert isinstance(info.value.__cause__, DegenerateSide)
    res = run_sweep(cfg)
    assert res.tested == 2
    assert res.failures >= 1


def test_nonsimple_instance_container():
    inst = NonSimpleInstance(chart=ChartPoint(4, (0.0,), (0.0, 0.0, 0.0)),
                             witness=None, winding=0)
    assert inst.witness is None

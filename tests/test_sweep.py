import math

import numpy as np
import pytest

import scpoly.quadrature as quadrature
import scpoly.scmap as scmap
import scpoly.sweep as sweep_mod
from scpoly import (
    AngleMismatch,
    ChartPoint,
    DegenerateSide,
    NoConvergence,
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
    # Integer fields take Python or NumPy integers, not bools or floats.
    for bad in ({"n": 6.0}, {"samples": 2.0}, {"seed": 1.5},
                {"samples": True}, {"n": np.float64(6.0)}):
        with pytest.raises(ValidationError):
            SweepConfig(**{"n": 6, "samples": 2, **bad})
    cfg = SweepConfig(n=np.int64(5), samples=np.int32(2), seed=np.int64(1))
    assert run_sweep(cfg).tested == 2
    # The samples come from [-box, box], whose width 2 * box must be finite.
    # A bool or a value that is not real is no width at all.
    for box in (0.0, math.inf, math.nan, 1e308, True, "3", 3 + 0j, None):
        with pytest.raises(ValidationError):
            SweepConfig(n=5, samples=10, chart_box=box)


@pytest.mark.parametrize("n,box", [(3, 1e16), (3, 1e300), (6, 1e300)])
def test_chart_points_beyond_floats_count_as_failures(n, box):
    # At n = 3 only exponent coordinates are drawn: at 1e16 they round
    # onto the boundary, at 1e300 their norm overflows.
    res = run_sweep(SweepConfig(n=n, samples=4, seed=5, chart_box=box))
    assert (res.tested, res.failures) == (4, 4)


def test_overflowing_tail_waypoints_count_as_failures():
    # At box 720, sample 28 of this stream puts its last prevertex so far
    # out that its tail waypoint overflows.
    res = run_sweep(SweepConfig(n=4, samples=29, seed=0, chart_box=720.0))
    assert res.tested == 29
    assert res.failures >= 1


def test_result_counts_must_balance():
    with pytest.raises(ValidationError):
        SweepResult(tested=3, simple_count=1, nonsimple_instances=(), failures=1)
    ok = SweepResult(tested=2, simple_count=2, nonsimple_instances=(), failures=0)
    assert ok.tested == 2


@pytest.mark.parametrize("counts", [
    {"tested": -2, "simple_count": -2, "failures": 0},
    {"tested": 0, "simple_count": 1, "failures": -1},
    {"tested": 2, "simple_count": 2.0, "failures": 0},
    {"tested": True, "simple_count": 1, "failures": 0},
])
def test_result_counts_are_integers_at_least_zero(counts):
    # Each of these balances; only the count itself is wrong.
    with pytest.raises(ValidationError):
        SweepResult(nonsimple_instances=(), **counts)


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


@pytest.mark.parametrize("index", [-1, True, 2.0, np.float64(3.0), "4"])
def test_sample_index_must_be_an_integer_at_least_zero(index):
    cfg = SweepConfig(n=5, samples=10, seed=7)
    with pytest.raises(ValidationError):
        sample_chart_point(cfg, index)
    assert sample_chart_point(cfg, np.int64(1)) == sample_chart_point(cfg, 1)


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
    real_forward_many = sweep_mod._forward_many
    def flaky(points, tol):
        out = real_forward_many(points, tol)
        return [NumericalError("synthetic failure")
                if abs(pre.finite_points[-1] - 1.0) < 0.5 else poly
                for (pre, _), poly in zip(points, out)]
    monkeypatch.setattr(sweep_mod, "_forward_many", flaky)
    res = run_sweep(SweepConfig(n=4, samples=40, seed=2))
    assert res.failures > 0
    assert res.tested == 40
    assert res.simple_count + len(res.nonsimple_instances) + res.failures == 40


@pytest.mark.parametrize("tol", [-1.0, math.nan, math.inf, True, "1e-10"])
def test_bad_tol_is_rejected_not_counted(tol):
    with pytest.raises(ValidationError):
        run_sweep(SweepConfig(n=5, samples=3, seed=0), tol)


def test_sweep_chunks_do_not_change_a_bit(monkeypatch):
    # Sample 13 of this stream is retightened after its first pass; the
    # others pass the gate at once, and some are not simple. In the box 6
    # chunk, samples 4 and 81 are retightened, each at its own tolerance
    # (3.8e-14 and 2.8e-14). A batch in any order gives each polygon the
    # bits of its lone forward, so sweeps in chunks of any size agree.
    cfg = SweepConfig(n=16, samples=24, seed=1)
    points = [moduli_unchart(sample_chart_point(cfg, i))
              for i in range(cfg.samples)]
    wide = SweepConfig(n=8, samples=150, seed=3, chart_box=6.0)
    box6 = [moduli_unchart(sample_chart_point(wide, i))
            for i in (0, 1, 4, 5, 81)]
    tols = []
    bare = scmap._bare_vertices

    def recorded(batch, quad_tol):
        tols.append(quad_tol)
        return bare(batch, quad_tol)

    monkeypatch.setattr(scmap, "_bare_vertices", recorded)
    rng = np.random.default_rng(5)
    for stream in (points, box6):
        lone = [forward(*point) for point in stream]
        order = rng.permutation(len(stream))
        tols.clear()
        batch = scmap._forward_many([stream[i] for i in order])
        for i, poly in zip(order.tolist(), batch):
            assert poly.vertices == lone[i].vertices
    assert len(set(tols[1:])) == 2
    results = []
    for chunk in (1, 3, sweep_mod.SWEEP_CHUNK):
        monkeypatch.setattr(sweep_mod, "SWEEP_CHUNK", chunk)
        results.append(run_sweep(cfg))
    assert results[0].nonsimple_instances
    assert results[0] == results[1] == results[2]


def test_a_batch_equals_lone_forward_at_any_order(monkeypatch):
    # Each row of a pass sums its exponent products in one order, whatever
    # the pass's size and whichever maps share it, so a batch keeps the
    # bits of each lone forward at an order that is not a multiple of 8.
    monkeypatch.setattr(quadrature, "DEFAULT_ORDER", 10)
    cfg = SweepConfig(n=12, samples=16, seed=1)
    points = [moduli_unchart(sample_chart_point(cfg, i))
              for i in range(cfg.samples)]
    batch = scmap._forward_many(points)
    for point, got in zip(points, batch):
        try:
            want = forward(*point)
        except NumericalError as exc:
            assert type(got) is type(exc)
        else:
            assert got.vertices == want.vertices


def test_failed_samples_leave_their_batch_mates_alone():
    # Samples 0-7 and 23 of this stream in one batch: 1 stalls in the
    # quadrature, 2 fails the angle gate and 23 integrates to coincident
    # vertices. Each keeps the outcome of its lone forward, class for
    # class and bit for bit.
    cfg = SweepConfig(n=12, samples=60, seed=1, chart_box=6.0)
    points = [moduli_unchart(sample_chart_point(cfg, i))
              for i in (*range(8), 23)]
    batch = scmap._forward_many(points)
    for point, got in zip(points, batch):
        try:
            want = forward(*point)
        except NumericalError as exc:
            assert type(got) is type(exc)
        else:
            assert got.vertices == want.vertices
    failed = [type(got) for got in batch if isinstance(got, Exception)]
    assert failed == [NoConvergence, AngleMismatch, NumericalError]
    assert isinstance(batch[-1].__cause__, DegenerateSide)


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

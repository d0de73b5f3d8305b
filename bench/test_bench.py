"""Tests of the benchmark's own machinery.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import math
import os
import sys
from collections import Counter

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import scpoly  # noqa: E402
import scpoly.render  # noqa: E402
import scpoly.scmap  # noqa: E402
from scpoly import SCMap, moduli_unchart  # noqa: E402

import run  # noqa: E402
from spans import HOOKS, Tracer, child_counts, hooked, self_times  # noqa: E402
from workloads import WORKLOADS, Workload, ray_winding  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] has children a [1, 4] and b [5, 7]; a has child d
    # [2, 3], which counts against a but not against root.
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 7.0]
    parent = [-1, 0, 1, 0]
    own = self_times(start, end, parent)
    assert own == pytest.approx([10.0 - 3.0 - 2.0, 3.0 - 1.0, 1.0, 2.0])


def test_self_time_of_sequential_children_sums_to_wall_time():
    clock = iter(float(t) for t in range(100))
    tracer = Tracer(clock=lambda: next(clock))
    root = tracer.open("root")
    for _ in range(3):
        leaf = tracer.open("leaf")
        tracer.close(leaf)
    tracer.close(root)
    own = self_times(tracer.start, tracer.end, tracer.parent)
    assert sum(own) == pytest.approx(tracer.end[root] - tracer.start[root])
    assert child_counts(tracer, "root", "leaf") == [3]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_same_inputs(name):
    wl = WORKLOADS[name]
    first = [wl.make(11, k) for k in range(4)]
    again = [wl.make(11, k) for k in range(4)]
    other = [wl.make(12, k) for k in range(4)]
    assert first == again
    assert first != other


def _site_values():
    out = {}
    for sites, _ in HOOKS.values():
        for module_name, attr in sites:
            module = sys.modules[module_name]
            out[(module_name, attr)] = getattr(module, attr)
    return out


def test_hooks_are_restored_even_after_an_error():
    before = _site_values()
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with hooked(tracer) as absent:
            assert not absent
            assert scpoly.scmap.integrate_sc is not before[
                ("scpoly.scmap", "integrate_sc")]
            raise RuntimeError("stop")
    assert _site_values() == before


def test_missing_hook_target_is_reported_absent():
    hooks = {"gone.span": ((("scpoly.scmap", "no_such_function"),), None)}
    with hooked(Tracer(), hooks) as absent:
        assert absent == {"gone.span"}
    assert not hasattr(scpoly.scmap, "no_such_function")


def test_traced_render_nests_spans():
    pre, exp = moduli_unchart(scpoly.ChartPoint(4, (0.0,), (0.0,) * 3))
    tracer = Tracer()
    with hooked(tracer):
        scpoly.render.scmap_svg(SCMap(pre, exp), grid=1, tol=1e-8)
    names = [tracer.name(i) for i in range(len(tracer))]
    assert names[0] == "render.scmap_svg"
    assert names.count("scmap.evaluate") == 2 * 48
    leg = tracer.indices("quadrature.leg_upper")[-1]
    assert tracer.name(tracer.parent[leg]) == "scmap.evaluate"
    assert child_counts(tracer, "render.scmap_svg", "render.grid_curves") == [1]


def test_ray_winding_counts_a_pentagram_twice():
    star = [complex(math.cos(0.5 * math.pi + 4 * math.pi * k / 5),
                    math.sin(0.5 * math.pi + 4 * math.pi * k / 5))
            for k in range(5)]
    assert ray_winding(star, 0.01 + 0.02j) == 2
    assert ray_winding(star[::-1], 0.01 + 0.02j) == -2
    assert ray_winding(star, 0.9 + 0.2j) == 0


def test_loop_counts_failures_by_class():
    def call(k):
        if k == 1:
            raise scpoly.NoConvergence("stalled")
        if k == 2:
            raise scpoly.DegenerateSide("collapsed")
        return k

    def check(k, out, caught):
        return Counter(CheckFailed=1) if k == 3 else Counter()

    wl = Workload("fake", make=lambda seed, k: k, call=call, check=check,
                  warm_up=lambda: None, items=lambda k: 2, calls_per_s=1.0,
                  block=2)
    loop = run.run_loop(wl, seed=0, calls=5)
    assert loop.items == 10
    assert loop.failed == Counter(NoConvergence=2, DegenerateSide=2,
                                  CheckFailed=1)
    assert len(loop.scale) == 5
    assert loop.items_per_s() == pytest.approx(5 / sum(loop.scaled_s()))

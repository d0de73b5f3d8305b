"""Bitwise parity and interleaved timing of this tree against a git ref.

    python3 tools/parity.py HEAD~1 --seeds 0 1 --stream 8,60,11,10.0

Extracts REF with ``git archive`` into a temporary directory and loads
its ``src/scpoly`` and ``bench/workloads.py`` next to this tree's, in one
process; each tree makes its own inputs with its own classes. Streams:

- ``sweep``: the benchmark's first 350 sweep inputs
  (``workloads._sweep_make``) of each seed: every sample through lone
  ``forward`` and through ``scmap._forward_many`` in chunks of maps of
  one n, as many as that tree's ``sweep.SWEEP_CHUNK``, and each call's
  ``run_sweep`` result, whose class is its counts and the windings of
  its non-simple instances;
- ``config``: each ``--stream N,SAMPLES,SEED,BOX`` as a ``SweepConfig``,
  sample by sample as above;
- ``solve``: the ``repr`` of each ``solve_parameter_problem`` result of
  the first 45 solve inputs, and its fitted chart coordinates;
- ``render``: the bytes of each ``scmap_svg`` figure of the first 24
  render inputs, and the numbers in them;
- ``axis``: ``integrate_sc`` on the render maps: real-axis paths that
  start at, end at and cross prevertices, in both directions, and
  upper-plane legs from ``BASE_POINT`` to every finite prevertex and to
  a point above each gap between them and past each end.

A solve or render output that fails the benchmark's own check counts as
a failure of that check's class. Per stream it prints the item count,
the bitwise-equal count, the count of items that failed in this tree,
every change of class, every failure that kept its class but changed
its message, and the largest move: of a vertex relative to the
diameter, of an integral relative to its size, of a chart coordinate,
or of an SVG number (canvas units, span 1000). Per sweep stream it also
prints, per tree, the largest gate ratio of a returned polygon: its
worst angle deviation (``scmap._worst_angle_deviation``) over the angle
gate 10 tol. It lists every item whose ratio exceeds 0.95 in either
tree with both ratios; an item that failed the gate takes the ratio its
AngleMismatch message states. It ends with call-by-call interleaved
time ratios (this tree over REF) per benchmark workload, on the seed-5
inputs (30 sweep calls, 45 solves, 24 render figures), the sweep's also
per n with each tree's mean time per call. Each timed call starts with
an empty Jacobi rule cache (``scpoly.quadrature._rules``), as a
benchmark call with fresh exponents does, so the ratios pay for rule
building. Per tree it then prints the ``_refine`` loops, ``_leg_sums``
passes and Jacobi rules built per call, the rules by builder (eigh:
``_golub_welsch``; one-sided: ``_one_sided``), counted on one more
untimed call per input, also from an empty cache. It reads ``bench/``
and changes nothing there.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP pools before numpy loads, as bench/run.py does.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import re
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Inputs compared per workload and seed: calls k = 0, 1, ... of each.
PARITY_CALLS = {"sweep": 350, "solve": 45, "render": 24}
# Inputs timed per workload, all of seed TIME_SEED.
TIME_CALLS = {"sweep": 30, "solve": 45, "render": 24}
TIME_SEED = 5
# Functions whose calls per timed input are counted, on an untimed call.
COUNTED = ("_refine", "_leg_sums")
# Jacobi rule builders, by the name printed for each, whose rules (one per
# exponent pair of a call) per timed input are counted on the same call.
BUILDERS = {"_golub_welsch": "eigh", "_one_sided": "one-sided"}
# Gate ratios above this are listed item by item.
NEAR_GATE = 0.95


def _owned(name: str) -> bool:
    return (name.split(".")[0] == "scpoly"
            or name in ("workloads", "spans", "speed"))


class Tree:
    """One tree's scpoly and bench workloads, imported under their own
    names and swapped into sys.modules by ``activate``, so that a lazy
    import inside a call finds its own tree."""

    def __init__(self, root: str):
        saved = {k: sys.modules.pop(k) for k in list(sys.modules)
                 if _owned(k)}
        sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "bench")]
        try:
            self.workloads = importlib.import_module("workloads")
            self.scpoly = importlib.import_module("scpoly")
            self.scmap = importlib.import_module("scpoly.scmap")
            self.modules = {k: sys.modules.pop(k) for k in list(sys.modules)
                            if _owned(k)}
        finally:
            del sys.path[:2]
            sys.modules.update(saved)

    def activate(self) -> "Tree":
        for k in [k for k in sys.modules if _owned(k)]:
            del sys.modules[k]
        sys.modules.update(self.modules)
        return self


@dataclass(frozen=True)
class Outcome:
    """An item's result. ``kind`` is "ok", the class of what it raised or
    of its failed check, or a run_sweep result's counts and windings;
    ``value`` (None for a failure) is compared with ``==``. The largest
    move is over ``points``, divided by ``scale``; ``ratio`` is a
    polygon's gate ratio (see the module docstring); ``message`` is what
    a raised failure says, listed when only it changes."""

    kind: str
    value: object = None
    points: tuple = field(default=(), compare=False)
    scale: float = field(default=1.0, compare=False)
    ratio: float | None = field(default=None, compare=False)
    message: str = field(default="", compare=False)


def _failed(exc: Exception) -> Outcome:
    # An AngleMismatch states the deviation and the gate it failed.
    gate = re.search(r"off by (\S+) \(allowed (\S+)\)", str(exc))
    return Outcome(type(exc).__name__, message=str(exc),
                   ratio=float(gate[1]) / float(gate[2]) if gate else None)


def _outcome(fn, *args) -> Outcome:
    """fn(*args), or what it raised as a failure."""
    try:
        return fn(*args)
    except Exception as exc:  # every failure is compared by its class
        return _failed(exc)


def _polygon(tree: Tree, exp, poly) -> Outcome:
    worst, _ = tree.scmap._worst_angle_deviation(poly, exp)
    return Outcome("ok", poly.vertices, poly.vertices, poly.diameter,
                   worst / (10.0 * tree.scmap.DEFAULT_TOL))


def _integral(value: complex) -> Outcome:
    return Outcome("ok", value, (value,), abs(value) or 1.0)


def _swept(result) -> Outcome:
    windings = [inst.winding for inst in result.nonsimple_instances]
    return Outcome(f"{result.simple_count} simple, {len(windings)} "
                   f"non-simple {windings}, {result.failures} failed",
                   repr(result))


def _checked(wl, inp, out, points) -> Outcome:
    failed = wl.check(inp, out, None)
    if failed:
        return Outcome(next(iter(failed)))
    return Outcome("ok", repr(out), points)


def _solved(tree: Tree, wl, inp) -> Outcome:
    out = wl.call(inp)
    chart = tree.scpoly.moduli_chart(out[0])
    return _checked(wl, inp, out, chart.z_coords + chart.a_coords)


def _rendered(wl, m) -> Outcome:
    svg = wl.call(m)
    numbers = tuple(float(x) for x in re.findall(r"-?\d+\.\d+", svg))
    return _checked(wl, m, svg, numbers)


def _samples(tree: Tree, configs) -> tuple[list, list]:
    """Per sample of the configs, lone forward's and _forward_many's
    outcome."""
    tree.activate()
    sp = tree.scpoly
    maps = []
    for cfg in configs:
        for i in range(cfg.samples):
            maps.append(_outcome(sp.moduli_unchart,
                                 sp.sample_chart_point(cfg, i)))
    lone = [m if isinstance(m, Outcome) else
            _outcome(lambda m: _polygon(tree, m[1], sp.forward(*m)), m)
            for m in maps]
    many = list(maps)
    by_n: dict[int, list[int]] = {}
    for i, m in enumerate(maps):
        if not isinstance(m, Outcome):
            by_n.setdefault(m[1].n, []).append(i)
    size = sp.sweep.SWEEP_CHUNK
    for rows in by_n.values():
        for s in range(0, len(rows), size):
            chunk = rows[s:s + size]
            got = tree.scmap._forward_many([maps[i] for i in chunk])
            for i, poly in zip(chunk, got):
                many[i] = (_failed(poly) if isinstance(poly, Exception)
                           else _polygon(tree, maps[i][1], poly))
    return lone, many


def _compare(label: str, old: list, new: list) -> None:
    """Print the equal count, class and message changes and largest move
    of a stream, and the gate ratios of polygons (see the module
    docstring)."""
    equal = sum(a == b for a, b in zip(old, new))
    move = 0.0
    changes, reworded = [], []
    for i, (a, b) in enumerate(zip(old, new)):
        if a.kind != b.kind:
            changes.append(f"    item {i}: {a.kind} -> {b.kind}")
        elif a.message != b.message:
            reworded.append(f"    item {i}, {a.kind}: {a.message!r} -> "
                            f"{b.message!r}")
        elif a.value != b.value and len(a.points) == len(b.points) > 0:
            move = max(move, max(abs(u - v) for u, v in
                                 zip(a.points, b.points)) / a.scale)
    failed = sum(b.value is None for b in new)
    print(f"  {label}: {len(old)} items, {equal} equal, {failed} failed, "
          f"max move {move:.1e}, {len(changes)} class changes, "
          f"{len(reworded)} message changes")
    for line in changes + reworded:
        print(line)
    if any(x.ratio is not None for x in old + new):
        worst = [max((x.ratio for x in items if x.value is not None),
                     default=0.0) for items in (old, new)]
        print(f"    largest gate ratio of a polygon: {worst[0]:.4f} -> "
              f"{worst[1]:.4f}")
        for i, pair in enumerate(zip(old, new)):
            rs = [x.ratio for x in pair]
            if any(r is not None and r > NEAR_GATE for r in rs):
                was, now = ("-" if r is None else f"{r:.4f}" for r in rs)
                print(f"    near the gate, item {i}: {was} -> {now}")


def _streams(tree: Tree, seeds, streams) -> dict[str, list]:
    """Every stream's outcomes in one tree."""
    wl = tree.activate().workloads
    sp = tree.scpoly
    solve, render = wl.WORKLOADS["solve"], wl.WORKLOADS["render"]
    out: dict[str, list] = {}
    for seed in seeds:
        sweeps = [wl._sweep_make(seed, k)
                  for k in range(PARITY_CALLS["sweep"])]
        out[f"sweep seed {seed} lone"], out[f"sweep seed {seed} batch"] = (
            _samples(tree, sweeps))
        out[f"sweep seed {seed} run_sweep"] = [
            _outcome(lambda cfg: _swept(wl._sweep_call(cfg)), cfg)
            for cfg in sweeps]
        out[f"solve seed {seed}"] = [
            _outcome(_solved, tree, solve, solve.make(seed, k))
            for k in range(PARITY_CALLS["solve"])]
        maps = [render.make(seed, k) for k in range(PARITY_CALLS["render"])]
        out[f"render seed {seed}"] = [_outcome(_rendered, render, m)
                                      for m in maps]
        out[f"axis seed {seed}"] = [
            _outcome(lambda *path: _integral(sp.integrate_sc(*path)), m, a, b)
            for m in maps for a, b in _paths(m, sp.BASE_POINT)]
    for n, samples, seed, box in streams:
        cfg = sp.SweepConfig(n, samples, seed, chart_box=box)
        name = f"config {n},{samples},{seed},{box}"
        out[f"{name} lone"], out[f"{name} batch"] = _samples(tree, [cfg])
    return out


def _paths(m, base: complex) -> list[tuple[complex, complex]]:
    # On the axis: between, from and to prevertices, across up to three
    # of them, and past both ends; every path both ways. Then legs from
    # the base point to each prevertex and to a point above each gap,
    # half the gap high, and 1 above the points 1 past either end.
    zs = list(m.prevertices.finite_points)
    mids = [(a + b) / 2 for a, b in zip(zs, zs[1:])]
    ts = sorted(zs + mids + [zs[0] - 1.0, zs[-1] + 1.0])
    above = [complex((a + b) / 2, (b - a) / 2) for a, b in zip(zs, zs[1:])]
    above += [complex(zs[0] - 1.0, 1.0), complex(zs[-1] + 1.0, 1.0)]
    return ([path for i in range(len(ts)) for j in range(i + 1, i + 6)
             if j < len(ts) for path in ((ts[i], ts[j]), (ts[j], ts[i]))]
            + [(base, z) for z in zs + above])


def _passes(tree: Tree, name: str, inputs: list) -> list[float]:
    """The ``_refine`` loops and ``_leg_sums`` passes per call of workload
    ``name``, then the rules each of BUILDERS builds per call (0 for one
    the tree lacks), counted on one untimed call per input, each from an
    empty rule cache, by wrappers on every binding of those functions in
    the tree's modules."""
    wl = tree.activate().workloads.WORKLOADS[name]
    quadrature = tree.modules["scpoly.quadrature"]
    counts = dict.fromkeys((*COUNTED, *BUILDERS), 0)
    patched = []
    for fname in counts:
        fn = getattr(quadrature, fname, None)
        if fn is None:
            continue

        def counted(*args, _fn=fn, _name=fname, **kwargs):
            # A builder's second argument holds its exponent pairs.
            counts[_name] += len(args[1]) if _name in BUILDERS else 1
            return _fn(*args, **kwargs)

        for module in tree.modules.values():
            if getattr(module, fname, None) is fn:
                patched.append((module, fname, fn))
                setattr(module, fname, counted)
    try:
        for inp in inputs:
            quadrature._rules.clear()
            _outcome(wl.call, inp)
    finally:
        for module, fname, fn in patched:
            setattr(module, fname, fn)
    return [count / len(inputs) for count in counts.values()]


def _timing(trees: list[Tree], repeats: int) -> None:
    """Per workload, each call timed ``repeats`` times per tree, the two
    trees alternating call by call, each call from an empty rule cache;
    the ratios are of per-call minima, the sweep's also per n (_per_n).
    Then, per tree, the refinement loops, passes and rules built per call
    (_passes)."""
    print(f"time ratio, this tree / ref (seed {TIME_SEED}, "
          f"{repeats} repeats, each from an empty rule cache):")
    for name, count in TIME_CALLS.items():
        ratios, totals, per_call = [], [0.0, 0.0], []
        inputs = ([], [])
        for k in range(count):
            best = []
            for tree, made in zip(trees, inputs):
                wl = tree.activate().workloads.WORKLOADS[name]
                made.append(wl.make(TIME_SEED, k))
                best.append([wl, made[-1], []])
            for r in range(repeats):
                for t in ((0, 1) if (k + r) % 2 == 0 else (1, 0)):
                    wl, inp, times = best[t]
                    trees[t].activate()
                    trees[t].modules["scpoly.quadrature"]._rules.clear()
                    t0 = time.perf_counter()
                    _outcome(wl.call, inp)
                    times.append(time.perf_counter() - t0)
            ref_s, new_s = (min(times) for _, _, times in best)
            ratios.append(new_s / ref_s)
            per_call.append((ref_s, new_s))
            totals[0] += ref_s
            totals[1] += new_s
        q1, med, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
        print(f"  {name}: median {med:.3f} (quartiles {q1:.3f}-{q3:.3f}), "
              f"total {totals[1] / totals[0]:.3f} over {count} calls")
        if name == "sweep":
            _per_n(inputs[1], ratios, per_call)
        for label, tree, made in zip(("ref", "this tree"), trees, inputs):
            loops, passes, *rules = _passes(tree, name, made)
            built = ", ".join(f"{count:.1f} {kind}" for count, kind
                              in zip(rules, BUILDERS.values()))
            print(f"    {label}: {loops:.2f} _refine loops and {passes:.2f} "
                  f"_leg_sums passes per call, "
                  f"{passes / loops:.2f} passes per loop; rules built per "
                  f"call: {built}")


def _per_n(inputs: list, ratios: list[float],
           per_call: list[tuple[float, float]]) -> None:
    """Per n of the sweep inputs: the median time ratio and each tree's
    mean time per call. Calls of large n take most of the summed time, so
    they weigh most in items/s."""
    by_n: dict[int, list[int]] = {}
    for k, cfg in enumerate(inputs):
        by_n.setdefault(cfg.n, []).append(k)
    for n, ks in sorted(by_n.items()):
        ref_ms, new_ms = (1e3 * statistics.fmean(per_call[k][t] for k in ks)
                          for t in (0, 1))
        print(f"    n = {n}: median "
              f"{statistics.median(ratios[k] for k in ks):.3f} over "
              f"{len(ks)} calls; per call ref {ref_ms:.2f} ms, this tree "
              f"{new_ms:.2f} ms")


def _stream_arg(text: str) -> tuple[int, int, int, float]:
    n, samples, seed, box = text.split(",")
    return int(n), int(samples), int(seed), float(box)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("ref", help="git ref to compare against")
    p.add_argument("--seeds", type=int, nargs="*", default=[0],
                   help="benchmark seeds whose inputs are compared")
    p.add_argument("--stream", type=_stream_arg, action="append", default=[],
                   metavar="N,SAMPLES,SEED,BOX",
                   help="a SweepConfig compared sample by sample")
    p.add_argument("--repeats", type=int, default=4,
                   help="timed calls per input and tree (0: no timing)")
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "archive", args.ref], cwd=ROOT,
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        trees = [Tree(tmp), Tree(ROOT)]
        old, new = (_streams(tree, args.seeds, args.stream)
                    for tree in trees)
        print(f"parity, {args.ref} -> this tree:")
        for label in old:
            _compare(label, old[label], new[label])
        if args.repeats:
            _timing(trees, args.repeats)
    return 0


if __name__ == "__main__":
    sys.exit(main())

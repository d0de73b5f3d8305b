"""scpoly benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout and imports scpoly from ``src``.
The workload's public call runs in a closed loop (the next call starts
when the previous one returns), as many times as make about ``--seconds``
of calls on the reference machine; inputs are built and outputs checked
outside the timed region. The last line of stdout is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
half the calls run untraced, then the same calls traced, and the metrics
are the per-layer ones. See bench/README.md.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP pools before numpy loads, here and in every child.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 60
# Machine-speed probes taken by each set-up process; in a run, one more
# probe follows a call for every PROBE_EVERY_S it took, so long calls
# are matched by as many speed samples.
SETUP_PROBES = 5
PROBE_EVERY_S = 0.05

# The keys of workloads.WORKLOADS, listed here because importing that
# module loads scpoly, which a set-up process must do inside its timing.
WORKLOAD_NAMES = ("sweep", "solve", "render")

# Failure classes reported as their own per-layer metric; others are
# summed into failed.other_frac.
FAILURE_CLASSES = ("NoConvergence", "AngleMismatch", "PathThroughSingularity",
                   "DegenerateSide", "NumericalError", "NotConverged",
                   "CheckFailed")


def _import_scpoly_path() -> None:
    if not os.path.isfile(os.path.join(SRC, "scpoly", "__init__.py")):
        raise SystemExit(f"error: no scpoly sources under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH_DIR)


def _env_info(seed: int) -> dict:
    import numpy
    import scipy
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"seed": seed, "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


# -- set-up time ----------------------------------------------------------------

def setup_child(workload: str) -> None:
    """Fresh-process set-up: import scpoly, one warm-up call per n. Prints
    the set-up seconds, a speed probe and the peak RSS in MB."""
    t0 = time.perf_counter()
    from workloads import WORKLOADS
    WORKLOADS[workload].warm_up()
    elapsed = time.perf_counter() - t0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    from speed import probe
    probe_s = statistics.median(probe() for _ in range(SETUP_PROBES))
    print(json.dumps([elapsed, probe_s, rss_mb]))


def measure_setup(workload: str) -> tuple[float, float, float]:
    """Median scaled set-up seconds, raw seconds and peak RSS over
    SETUP_REPEATS fresh processes."""
    from speed import NOMINAL_PROBE_S
    scaled, raw, rss = [], [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-child",
             "--workload", workload],
            cwd=ROOT, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S, check=True)
        elapsed, probe_s, rss_mb = json.loads(proc.stdout.splitlines()[-1])
        raw.append(elapsed)
        scaled.append(elapsed * NOMINAL_PROBE_S / probe_s)
        rss.append(rss_mb)
    return (statistics.median(scaled), statistics.median(raw),
            statistics.median(rss))


# -- closed loop ------------------------------------------------------------------

class Loop:
    """Outcome of a closed loop of calls: per-call wall seconds and speed
    scale, attempted items and failed items by class."""

    def __init__(self):
        self.call_s: list[float] = []
        self.scale: list[float] = []
        self.items = 0
        self.failed: Counter = Counter()

    @property
    def timed_s(self) -> float:
        return sum(self.call_s)

    @property
    def failed_items(self) -> int:
        return sum(self.failed.values())

    def scaled_s(self) -> list[float]:
        return [t * s for t, s in zip(self.call_s, self.scale)]

    def items_per_s(self) -> float:
        """Items that succeeded per scaled second of calls."""
        return (self.items - self.failed_items) / sum(self.scaled_s())


def run_loop(wl, seed: int, calls: int, tracer=None) -> Loop:
    """Make calls 0 .. calls-1 one after another. The speed probe runs
    outside the timed region: once before each block of ``wl.block``
    calls, and after each call once plus once per PROBE_EVERY_S the call
    took. The calls of a block share the median of its probes."""
    from speed import NOMINAL_PROBE_S, probe
    out = Loop()
    probes = [probe()]
    block_calls = 0
    for k in range(calls):
        inp = wl.make(seed, k)
        items = wl.items(inp)
        since = 0
        if tracer is not None:
            tracer.item, since = k, len(tracer)
            tracer.enabled = True
        t0 = time.perf_counter()
        try:
            res, exc = wl.call(inp), None
        except Exception as err:  # every failure is counted by its class
            res, exc = None, err
        out.call_s.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.enabled = False
        probes.extend(probe() for _ in range(
            1 + int(out.call_s[-1] / PROBE_EVERY_S)))
        if exc is not None:
            out.failed[type(exc).__name__] += items
        else:
            caught = (tracer.raised("scmap.forward", since)
                      if tracer is not None else None)
            try:
                out.failed.update(wl.check(inp, res, caught))
            except Exception:  # a check that cannot run fails the call
                out.failed["CheckFailed"] += items
        out.items += items
        block_calls += 1
        if block_calls == wl.block or k == calls - 1:
            scale = NOMINAL_PROBE_S / statistics.median(probes)
            out.scale.extend([scale] * block_calls)
            probes = [probe()]
            block_calls = 0
    return out


def _percentile(values: list[float], q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_calls(wl, seconds: float) -> int:
    """Calls in a run: about ``seconds`` of calls on the reference machine."""
    return max(2, round(seconds * wl.calls_per_s))


def end_to_end(wl, seed: int, seconds: float) -> tuple[dict, Loop, dict]:
    setup_s, setup_raw_s, setup_rss_mb = measure_setup(wl.name)
    loop = run_loop(wl, seed, run_calls(wl, seconds))
    call_ms = [t * 1e3 for t in loop.scaled_s()]
    raw_ms = [t * 1e3 for t in loop.call_s]
    p90 = _percentile(call_ms, 90)
    metrics = {
        "items_per_s": (loop.items_per_s(), "1/s"),
        "call_ms_p50": (statistics.median(call_ms), "ms"),
        "call_ms_p90": (p90, "ms"),
        "ok_frac": (1.0 - loop.failed_items / loop.items, "ratio"),
        "setup_s": (setup_s, "s"),
        "setup_rss_mb": (setup_rss_mb, "MB"),
    }
    details = {
        "calls": len(call_ms),
        "calls_beyond_p90": sum(t > p90 for t in call_ms),
        "call_ms_max": max(call_ms),
        "timed_s": loop.timed_s,
        "raw_items_per_s": (loop.items - loop.failed_items) / loop.timed_s,
        "raw_call_ms_p50": statistics.median(raw_ms),
        "raw_call_ms_p90": _percentile(raw_ms, 90),
        "raw_setup_s": setup_raw_s,
        "median_speed_scale": statistics.median(loop.scale),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    return metrics, loop, details


# -- traced run -------------------------------------------------------------------

def per_layer(wl, seed: int, seconds: float) -> tuple[dict, Loop, dict]:
    from spans import Tracer, hooked, layer_metrics
    half = max(1, run_calls(wl, seconds) // 2)
    plain = run_loop(wl, seed, half)
    tracer = Tracer()
    with hooked(tracer) as absent:
        tracer.enabled = False
        loop = run_loop(wl, seed, half, tracer)
    items = loop.items
    metrics = layer_metrics(tracer, absent, items, loop.scale)
    other = loop.failed_items
    for cls in FAILURE_CLASSES:
        metrics[f"failed.{cls}_frac"] = (loop.failed[cls] / items, "ratio")
        other -= loop.failed[cls]
    metrics["failed.other_frac"] = (other / items, "ratio")

    traced_rate, plain_rate = loop.items_per_s(), plain.items_per_s()
    metrics["trace.items_per_s"] = (traced_rate, "1/s")
    metrics["trace.untraced_items_per_s"] = (plain_rate, "1/s")
    metrics["trace.overhead_ratio"] = (plain_rate / traced_rate, "ratio")
    details = {"spans": len(tracer), "absent_spans": sorted(absent),
               "untraced_failed": dict(plain.failed)}
    return metrics, loop, details


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-child", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    _import_scpoly_path()
    if args.setup_child:
        setup_child(args.workload)
        return 0

    from workloads import WORKLOADS
    wl = WORKLOADS[args.workload]
    measure = per_layer if args.trace else end_to_end
    metrics, loop, details = measure(wl, args.seed, args.seconds)
    info = _env_info(args.seed)
    info.update(workload=wl.name, trace=args.trace, items=loop.items,
                failed_by_class=dict(loop.failed), **details)
    print("# " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        # A failed check or an unconverged solve is a wrong output.
        "correct": not (loop.failed["CheckFailed"]
                        or loop.failed["NotConverged"]),
        "attempted": loop.items,
        "failed": loop.failed_items,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

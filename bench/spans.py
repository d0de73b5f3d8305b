"""In-memory spans recorded by hooks around scpoly's public functions.

A hook replaces a function at the module attribute where its caller looks
it up (``scpoly.scmap.integrate_sc`` is what ``forward`` calls), records
one span per call and restores the attribute when tracing ends. Spans keep
name, start, end, parent span and item id; the benchmark turns them into
per-item call counts and self times after the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from array import array
from collections import Counter
from typing import Callable, Iterator, Optional


class Tracer:
    """Spans in parallel arrays. ``item`` tags every span opened while it
    is set; hooks pass calls straight through while ``enabled`` is off."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.item_of = array("l")
        self.info: dict[int, object] = {}
        self.item = -1
        self.enabled = True
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.start)

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.item_of.append(self.item)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int, info: object = None) -> None:
        self.end[idx] = self.clock()
        self._stack.pop()
        if info is not None:
            self.info[idx] = info

    def name(self, idx: int) -> str:
        return self.names[self.name_id[idx]]

    def indices(self, name: str, since: int = 0) -> list[int]:
        nid = self._name_ids.get(name)
        if nid is None:
            return []
        return [i for i in range(since, len(self.start))
                if self.name_id[i] == nid]

    def raised(self, name: str, since: int = 0) -> list[str]:
        """Exception class names that escaped spans ``name`` from ``since``."""
        out = []
        for i in self.indices(name, since):
            info = self.info.get(i)
            if isinstance(info, dict) and "raised" in info:
                out.append(info["raised"])
        return out


def self_times(start, end, parent) -> list[float]:
    """Duration of each span minus the durations of its direct children.

    Spans nest as a stack, so children are disjoint and lie inside
    their parent.
    """
    out = [end[i] - start[i] for i in range(len(start))]
    for i, p in enumerate(parent):
        if p >= 0:
            out[p] -= end[i] - start[i]
    return out


def child_counts(tracer: Tracer, parent_name: str,
                 child_name: str) -> list[int]:
    """For each span ``parent_name``, how many direct children are
    ``child_name``."""
    parents = tracer.indices(parent_name)
    slot = {p: k for k, p in enumerate(parents)}
    counts = [0] * len(parents)
    for c in tracer.indices(child_name):
        k = slot.get(tracer.parent[c])
        if k is not None:
            counts[k] += 1
    return counts


# -- hooks --------------------------------------------------------------------

def _span_wrapper(tracer: Tracer, fn, name_of, info_of=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        idx = tracer.open(name_of(args, kwargs))
        try:
            out = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.close(idx, {"raised": type(exc).__name__})
            raise
        tracer.close(idx, info_of(out) if info_of else None)
        return out
    return wrapper


def _fixed(name: str):
    return lambda args, kwargs: name


def _leg_name(args, kwargs) -> str:
    # integrate_sc(map, z_from, z_to, ...): a leg is "upper" when either
    # endpoint is off the real axis.
    z_from = kwargs.get("z_from", args[1] if len(args) > 1 else 0j)
    z_to = kwargs.get("z_to", args[2] if len(args) > 2 else 0j)
    on_axis = complex(z_from).imag == 0.0 and complex(z_to).imag == 0.0
    return "quadrature.leg_real" if on_axis else "quadrature.leg_upper"


def _least_squares_factory(tracer: Tracer, fn):
    """least_squares plus spans around its residual and Jacobian callbacks."""
    traced = _span_wrapper(tracer, fn, _fixed("paramsolve.least_squares"))

    @functools.wraps(fn)
    def wrapper(fun, *args, **kwargs):
        fun = _span_wrapper(tracer, fun, _fixed("paramsolve.residual"))
        if callable(kwargs.get("jac")):
            kwargs["jac"] = _span_wrapper(tracer, kwargs["jac"],
                                          _fixed("paramsolve.jacobian"))
        return traced(fun, *args, **kwargs)
    return wrapper


def _sweep_info(result) -> dict:
    return {"tested": result.tested,
            "nonsimple": len(result.nonsimple_instances)}


def _solve_info(out) -> dict:
    return {"converged": bool(out[1].converged)}


def _found_info(witness) -> dict:
    return {"found": witness is not None}


# span name -> (call sites, recorder of the span's info from the result).
# A call site is the module attribute through which callers reach the
# function; every site of a function is hooked so no caller slips past
# the span.
HOOKS: dict[str, tuple[tuple[tuple[str, str], ...], Optional[Callable]]] = {
    "quadrature.leg": (
        (("scpoly.scmap", "integrate_sc"), ("scpoly.paramsolve", "integrate_sc")),
        None),
    "quadrature.tail": ((("scpoly.scmap", "integrate_to_infinity"),), None),
    "quadrature.gauss_jacobi": ((("scpoly.quadrature", "gauss_jacobi"),), None),
    "scmap.forward": ((("scpoly.sweep", "forward"),), None),
    "scmap.forward_extended": ((("scpoly.render", "forward_extended"),), None),
    "scmap.evaluate": ((("scpoly.render", "evaluate"),), None),
    "geometry.check_immersion_necessary": (
        (("scpoly.scmap", "check_immersion_necessary"),), None),
    "geometry.interior_angles": (
        (("scpoly.scmap", "interior_angles"),
         ("scpoly.paramsolve", "interior_angles"),
         ("scpoly.geometry", "interior_angles")),
        None),
    "geometry.is_simple": ((("scpoly.sweep", "is_simple"),), None),
    "geometry.find_multiwound_witness": (
        (("scpoly.sweep", "find_multiwound_witness"),), _found_info),
    "geometry.winding_number": (
        (("scpoly.sweep", "winding_number"),
         ("scpoly.geometry", "winding_number")),
        None),
    "paramsolve.solve_parameter_problem": (
        (("scpoly.paramsolve", "solve_parameter_problem"),), _solve_info),
    "paramsolve.least_squares": ((("scpoly.paramsolve", "least_squares"),),
                                 None),
    "charts.moduli_unchart": ((("scpoly.sweep", "moduli_unchart"),), None),
    "sweep.run_sweep": ((("scpoly.sweep", "run_sweep"),), _sweep_info),
    "render.scmap_svg": ((("scpoly.render", "scmap_svg"),), None),
    "render.grid_curves": ((("scpoly.render", "grid_curves"),), None),
    "render.polygon_svg": ((("scpoly.render", "polygon_svg"),), None),
}

# Hooks that record spans under other names than their own.
_FACTORIES = {
    "quadrature.leg": lambda tracer, fn: _span_wrapper(tracer, fn, _leg_name),
    "paramsolve.least_squares": _least_squares_factory,
}
SPANS_OF = {
    "quadrature.leg": ("quadrature.leg_real", "quadrature.leg_upper"),
    "paramsolve.least_squares": ("paramsolve.least_squares",
                                 "paramsolve.residual", "paramsolve.jacobian"),
}


def _wrap(tracer: Tracer, name: str, fn, info_of):
    factory = _FACTORIES.get(name)
    if factory is not None:
        return factory(tracer, fn)
    return _span_wrapper(tracer, fn, _fixed(name), info_of)


@contextlib.contextmanager
def hooked(tracer: Tracer, hooks: Optional[dict] = None) -> Iterator[set[str]]:
    """Install every hook whose call site exists; yield the names of the
    spans whose hook has no site left. All replaced attributes are
    restored on exit."""
    hooks = HOOKS if hooks is None else hooks
    saved: list[tuple[object, str, object]] = []
    absent: set[str] = set()
    try:
        for name, (sites, info_of) in hooks.items():
            installed = 0
            for module_name, attr in sites:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    continue
                original = getattr(module, attr, None)
                if original is None:
                    continue
                saved.append((module, attr, original))
                setattr(module, attr, _wrap(tracer, name, original, info_of))
                installed += 1
            if not installed:
                absent.update(SPANS_OF.get(name, (name,)))
        yield absent
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


SPAN_NAMES = tuple(span for hook in HOOKS for span in SPANS_OF.get(hook, (hook,)))


def span_totals(tracer: Tracer, scale=None) -> tuple[Counter, Counter]:
    """Call count and summed self seconds per span name; ``scale[item]``
    multiplies the self times of the item's spans."""
    own = self_times(tracer.start, tracer.end, tracer.parent)
    calls: Counter = Counter()
    seconds: Counter = Counter()
    for i, t in enumerate(own):
        name = tracer.name(i)
        calls[name] += 1
        seconds[name] += t if scale is None else t * scale[tracer.item_of[i]]
    return calls, seconds


def _frac(hits: int, base: int) -> float:
    return hits / base if base else 0.0


def layer_metrics(tracer: Tracer, absent: set[str], items: int,
                  scale=None) -> dict[str, tuple[float, str]]:
    """Per-item call counts and self times of every span that is not
    absent, plus the ratios whose spans are all present (0 on an empty
    base)."""
    calls, self_s = span_totals(tracer, scale)
    out: dict[str, tuple[float, str]] = {}
    for name in SPAN_NAMES:
        if name not in absent:
            out[f"{name}.calls_per_item"] = (calls[name] / items, "count")
            out[f"{name}.self_ms_per_item"] = (self_s[name] * 1e3 / items,
                                               "ms")

    def infos(name: str) -> list:
        return [tracer.info.get(i, {}) for i in tracer.indices(name)]

    ratios = {}
    if not absent & {"scmap.forward", "quadrature.tail"}:
        tails = child_counts(tracer, "scmap.forward", "quadrature.tail")
        ratios["scmap.forward.retighten_frac"] = _frac(
            sum(c > 1 for c in tails), len(tails))
    if not absent & {"paramsolve.solve_parameter_problem",
                     "paramsolve.least_squares"}:
        done = [s for s in infos("paramsolve.solve_parameter_problem")
                if "converged" in s]
        ratios["paramsolve.converged_frac"] = _frac(
            sum(s["converged"] for s in done), len(done))
        starts = child_counts(tracer, "paramsolve.solve_parameter_problem",
                              "paramsolve.least_squares")
        ratios["paramsolve.retry_frac"] = _frac(
            sum(c > 1 for c in starts), len(starts))
    if "geometry.find_multiwound_witness" not in absent:
        hunts = infos("geometry.find_multiwound_witness")
        ratios["geometry.find_multiwound_witness.found_frac"] = _frac(
            sum(h.get("found", False) for h in hunts), len(hunts))
    if "sweep.run_sweep" not in absent:
        sweeps = [s for s in infos("sweep.run_sweep") if "tested" in s]
        ratios["sweep.nonsimple_frac"] = _frac(
            sum(s["nonsimple"] for s in sweeps),
            sum(s["tested"] for s in sweeps))
    legs = ("quadrature.leg_real", "quadrature.leg_upper", "quadrature.tail")
    if not absent & {"quadrature.gauss_jacobi", *legs}:
        ratios["quadrature.gauss_jacobi.calls_per_integral"] = _frac(
            calls["quadrature.gauss_jacobi"], sum(calls[n] for n in legs))
    out.update((name, (value, "ratio")) for name, value in ratios.items())
    return out

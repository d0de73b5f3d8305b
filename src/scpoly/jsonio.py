"""JSON payloads for every CLI-visible object.

One pair of functions per payload type; ``*_to_json`` produces plain
dict/list/float trees, ``*_from_json`` validates and rebuilds the domain
object, raising ValidationError on anything malformed so the CLI can map
it to exit code 2. Floats pass through Python's shortest-repr encoder,
so parse(print(x)) == x holds exactly.
"""

from __future__ import annotations

import json
from typing import Any, Optional

from .charts import ChartPoint
from .errors import ValidationError
from .geometry import LabelledPolygon
from .paramsolve import SolveReport
from .scmap import ExponentVector, Prevertices, SCMap
from .sweep import NonSimpleInstance, SweepResult


def complex_to_pair(w: complex) -> list[float]:
    return [float(w.real), float(w.imag)]


def complex_from_pair(obj: Any, what: str) -> complex:
    if not (isinstance(obj, (list, tuple)) and len(obj) == 2):
        raise ValidationError(f"{what} must be a [re, im] pair, got {obj!r}")
    return complex(_as_float(obj[0], what), _as_float(obj[1], what))


def _as_floats(obj: Any, what: str) -> list[float]:
    if not isinstance(obj, (list, tuple)):
        raise ValidationError(f"{what} must be a list of numbers")
    return [_as_float(v, what) for v in obj]


def _as_float(obj: Any, what: str) -> float:
    # JSON true/false arrive as bool, which is a subclass of int.
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ValidationError(f"{what} must be a number, got {obj!r}")
    return float(obj)


def _as_int(obj: Any, what: str) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise ValidationError(f"{what} must be an integer, got {obj!r}")
    return obj


def _field(data: Any, key: str) -> Any:
    if not isinstance(data, dict):
        raise ValidationError(f"expected a JSON object, got {type(data).__name__}")
    if key not in data:
        raise ValidationError(f"missing field {key!r}")
    return data[key]


def polygon_to_json(poly: LabelledPolygon) -> dict:
    return {"n": poly.n, "vertices": [complex_to_pair(w) for w in poly.vertices]}


def polygon_from_json(data: Any) -> LabelledPolygon:
    n = _as_int(_field(data, "n"), "n")
    verts = _field(data, "vertices")
    if not isinstance(verts, list):
        raise ValidationError("vertices must be a list")
    ws = tuple(complex_from_pair(v, "vertex") for v in verts)
    if n != len(ws):
        raise ValidationError(f"n = {n!r} does not match {len(ws)} vertices")
    return LabelledPolygon(ws)


def scmap_to_json(m: SCMap) -> dict:
    return {
        "n": m.n,
        "prevertices": [float(z) for z in m.prevertices.finite_points],
        "alphas": [float(a) for a in m.exponents.alphas],
        "A": complex_to_pair(m.A),
        "B": complex_to_pair(m.B),
        "mode": m.mode,
    }


def scmap_from_json(data: Any) -> SCMap:
    n = _as_int(_field(data, "n"), "n")
    mode = _field(data, "mode")
    if mode not in ("standard", "extended"):
        raise ValidationError(f"mode must be standard or extended, got {mode!r}")
    pre = Prevertices(tuple(_as_floats(_field(data, "prevertices"),
                                       "prevertices")))
    exp = ExponentVector(tuple(_as_floats(_field(data, "alphas"), "alphas")),
                         extended=(mode == "extended"))
    if n != exp.n:
        raise ValidationError(f"n = {n!r} does not match {exp.n} alphas")
    return SCMap(pre, exp,
                 complex_from_pair(_field(data, "A"), "A"),
                 complex_from_pair(_field(data, "B"), "B"))


def chart_point_to_json(pt: ChartPoint) -> dict:
    return {"n": pt.n, "z": list(pt.z_coords), "a": list(pt.a_coords)}


def chart_point_from_json(data: Any) -> ChartPoint:
    n = _as_int(_field(data, "n"), "n")
    return ChartPoint(n,
                      tuple(_as_floats(_field(data, "z"), "z")),
                      tuple(_as_floats(_field(data, "a"), "a")))


def solve_report_to_json(rep: SolveReport) -> dict:
    return {
        "converged": rep.converged,
        "iterations": rep.iterations,
        "final_residual_norm": rep.final_residual_norm,
        "residual_history": list(rep.residual_history),
        "reconstruction_error": rep.reconstruction_error,
    }


def solve_report_from_json(data: Any) -> SolveReport:
    conv = _field(data, "converged")
    its = _as_int(_field(data, "iterations"), "iterations")
    if not isinstance(conv, bool) or its < 0:
        raise ValidationError(
            "converged must be bool, iterations a non-negative integer")
    return SolveReport(
        converged=conv,
        iterations=its,
        final_residual_norm=_as_float(_field(data, "final_residual_norm"),
                                      "final_residual_norm"),
        residual_history=tuple(_as_floats(_field(data, "residual_history"),
                                          "residual_history")),
        reconstruction_error=_as_float(_field(data, "reconstruction_error"),
                                       "reconstruction_error"))


def sweep_result_to_json(res: SweepResult) -> dict:
    instances = []
    for inst in res.nonsimple_instances:
        instances.append({
            "chart": chart_point_to_json(inst.chart),
            "witness": None if inst.witness is None else complex_to_pair(inst.witness),
            "winding": inst.winding,
        })
    return {
        "tested": res.tested,
        "simple_count": res.simple_count,
        "nonsimple_instances": instances,
        "failures": res.failures,
    }


def sweep_result_from_json(data: Any) -> SweepResult:
    raw = _field(data, "nonsimple_instances")
    if not isinstance(raw, list):
        raise ValidationError("nonsimple_instances must be a list")
    instances = []
    for item in raw:
        w: Optional[complex] = None
        if _field(item, "witness") is not None:
            w = complex_from_pair(item["witness"], "witness")
        instances.append(NonSimpleInstance(
            chart=chart_point_from_json(_field(item, "chart")),
            witness=w, winding=_as_int(_field(item, "winding"), "winding")))
    return SweepResult(
        tested=_as_int(_field(data, "tested"), "tested"),
        simple_count=_as_int(_field(data, "simple_count"), "simple_count"),
        nonsimple_instances=tuple(instances),
        failures=_as_int(_field(data, "failures"), "failures"))


def dumps(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def loads(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed JSON: {exc}") from None

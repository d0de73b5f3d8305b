import json

import pytest

from scpoly import (
    ChartPoint,
    ExponentVector,
    Prevertices,
    SCMap,
    SweepConfig,
    ValidationError,
    run_sweep,
    solve_parameter_problem,
)
from scpoly.jsonio import (
    chart_point_from_json,
    chart_point_to_json,
    complex_from_pair,
    complex_to_pair,
    dumps,
    loads,
    polygon_from_json,
    polygon_to_json,
    scmap_from_json,
    scmap_to_json,
    solve_report_from_json,
    solve_report_to_json,
    sweep_result_from_json,
    sweep_result_to_json,
)

from conftest import PENTAGON_ALPHAS


def test_complex_pair_round_trip():
    assert complex_to_pair(3 - 2j) == [3.0, -2.0]
    assert complex_from_pair([3, -2], "w") == 3 - 2j
    with pytest.raises(ValidationError):
        complex_from_pair([1.0], "w")
    with pytest.raises(ValidationError):
        complex_from_pair("nope", "w")
    with pytest.raises(ValidationError):
        complex_from_pair([True, False], "w")


def test_polygon_round_trip(unit_square):
    data = polygon_to_json(unit_square)
    assert data["n"] == 4
    assert data["vertices"][1] == [1.0, 0.0]
    assert polygon_from_json(data) == unit_square


def test_polygon_schema_errors():
    with pytest.raises(ValidationError):
        polygon_from_json({"vertices": [[0, 0], [1, 0], [0, 1]]})  # n missing
    with pytest.raises(ValidationError):
        polygon_from_json({"n": 4, "vertices": [[0, 0], [1, 0], [0, 1]]})
    with pytest.raises(ValidationError):
        polygon_from_json({"n": 3, "vertices": [[0, 0], [1, 0], "x"]})


def test_scmap_round_trip(square_map):
    m = SCMap(square_map.prevertices, square_map.exponents, A=2j, B=1 - 1j)
    data = scmap_to_json(m)
    assert data["mode"] == "standard"
    assert data["A"] == [0.0, 2.0]
    assert scmap_from_json(data) == m


def test_scmap_extended_round_trip():
    m = SCMap(Prevertices((-1.0, 0.0, 1.0, 2.0)),
              ExponentVector(PENTAGON_ALPHAS, extended=True))
    data = scmap_to_json(m)
    assert data["mode"] == "extended"
    back = scmap_from_json(data)
    assert back == m and back.mode == "extended"


def test_scmap_schema_errors(square_map):
    good = scmap_to_json(square_map)
    bad_mode = dict(good, mode="fancy")
    with pytest.raises(ValidationError):
        scmap_from_json(bad_mode)
    # extended exponents must not sneak through in standard mode
    smuggled = dict(good, alphas=[0.2, 0.2, 0.2, 0.2, 2.2],
                    prevertices=[-1.0, 0.0, 1.0, 2.0], n=5)
    with pytest.raises(ValidationError):
        scmap_from_json(smuggled)
    with pytest.raises(ValidationError):
        scmap_from_json(dict(good, n=7))


def test_chart_point_round_trip():
    pt = ChartPoint(5, (0.25, -1.5), (0.0, 3.25, -0.125, 9.0))
    data = chart_point_to_json(pt)
    assert set(data) == {"n", "z", "a"}
    assert chart_point_from_json(data) == pt
    with pytest.raises(ValidationError):
        chart_point_from_json({"n": 5, "z": [0.0], "a": [0, 0, 0, 0]})


def test_solve_report_round_trip(unit_square):
    _, rep = solve_parameter_problem(unit_square)
    back = solve_report_from_json(solve_report_to_json(rep))
    assert back == rep


@pytest.mark.parametrize("key,value", [
    ("final_residual_norm", "abc"),
    ("final_residual_norm", [1]),
    ("final_residual_norm", True),
    ("reconstruction_error", None),
    ("iterations", True),
    ("iterations", -4),
    ("iterations", 2.0),
])
def test_solve_report_rejects_malformed_fields(key, value):
    data = {"converged": True, "iterations": 3,
            "final_residual_norm": 1e-12, "residual_history": [1.0, 1e-12],
            "reconstruction_error": 1e-13}
    solve_report_from_json(data)
    with pytest.raises(ValidationError):
        solve_report_from_json({**data, key: value})


@pytest.mark.parametrize("parse,payload", [
    (polygon_from_json, {"n": 3, "vertices": [[True, 0], [1, 0], [0, 1]]}),
    (chart_point_from_json, {"n": 4, "z": [True], "a": [0, 0, 0]}),
    (scmap_from_json, {"n": 4, "prevertices": [-1, 0, True],
                       "alphas": [0.5] * 4, "A": [1, 0], "B": [0, 0],
                       "mode": "standard"}),
    (scmap_from_json, {"n": 4, "prevertices": [-1, 0, 1],
                       "alphas": [0.5] * 4, "A": [True, False], "B": [0, 0],
                       "mode": "standard"}),
    (sweep_result_from_json, {"tested": True, "simple_count": True,
                              "failures": 0, "nonsimple_instances": []}),
    (sweep_result_from_json, {"tested": 1, "simple_count": 0,
                              "failures": True, "nonsimple_instances": []}),
    (sweep_result_from_json, {
        "tested": 1, "simple_count": 0, "failures": 0,
        "nonsimple_instances": [
            {"chart": {"n": 4, "z": [0.0], "a": [0.0, 0.0, 0.0]},
             "witness": None, "winding": True}]}),
])
def test_json_booleans_are_not_numbers(parse, payload):
    with pytest.raises(ValidationError):
        parse(payload)


def test_sweep_result_round_trip():
    res = run_sweep(SweepConfig(n=4, samples=5, seed=1))
    back = sweep_result_from_json(sweep_result_to_json(res))
    assert back == res


@pytest.mark.parametrize("counts", [
    {"tested": 4, "simple_count": 5, "failures": -1},
    {"tested": -1, "simple_count": 0, "failures": -1},
    {"tested": -3, "simple_count": -3, "failures": 0},
])
def test_sweep_result_rejects_negative_counts(counts):
    # Each of these balances; only a count itself is wrong.
    with pytest.raises(ValidationError):
        sweep_result_from_json({**counts, "nonsimple_instances": []})


def test_sweep_result_witness_nullable():
    data = {
        "tested": 1, "simple_count": 0, "failures": 0,
        "nonsimple_instances": [
            {"chart": {"n": 4, "z": [0.0], "a": [0.0, 0.0, 0.0]},
             "witness": None, "winding": 0},
        ],
    }
    res = sweep_result_from_json(data)
    assert res.nonsimple_instances[0].witness is None
    again = sweep_result_from_json(sweep_result_to_json(res))
    assert again == res


def test_dumps_is_pretty_and_newline_terminated(unit_square):
    text = dumps(polygon_to_json(unit_square))
    assert text.endswith("\n")
    assert text.splitlines()[1].startswith("  ")
    assert json.loads(text)["n"] == 4


def test_loads_rejects_garbage():
    with pytest.raises(ValidationError):
        loads("{not json")


def test_nonfinite_numbers_rejected():
    # Python's json parser accepts these literals; the schema must not
    with pytest.raises(ValidationError):
        polygon_from_json(loads('{"n": 3, "vertices": [[0, NaN], [1, 0], [0, 1]]}'))
    with pytest.raises(ValidationError):
        chart_point_from_json(loads('{"n": 4, "z": [Infinity], "a": [0, 0, 0]}'))
    with pytest.raises(ValidationError):
        scmap_from_json(loads(
            '{"n": 3, "prevertices": [-1, 0], "alphas": [NaN, 0.5, 0.5],'
            ' "A": [1, 0], "B": [0, 0], "mode": "standard"}'))

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from scpoly import (LabelledPolygon, NumericalError, SolveOptions,
                    SweepConfig, interior_angles, is_simple, render)
from scpoly.cli import build_parser, main
from scpoly.jsonio import dumps, polygon_to_json

from conftest import SQUARE_VERTICES, sup_dist

SQUARE_CHART = '{"n": 4, "z": [0.0], "a": [0.0, 0.0, 0.0]}'
SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    out = capsys.readouterr().out
    return code, out


def test_forward_square(capsys):
    code, out = run_cli(capsys, "forward", SQUARE_CHART)
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 4
    verts = [complex(re, im) for re, im in data["vertices"]]
    assert sup_dist(verts, SQUARE_VERTICES) < 1e-8


def test_forward_triangle_chart_origin(capsys):
    code, out = run_cli(capsys, "forward", '{"n": 3, "z": [], "a": [0, 0]}')
    assert code == 0
    poly = LabelledPolygon([complex(*p) for p in json.loads(out)["vertices"]])
    assert interior_angles(poly).values == pytest.approx([math.pi / 3] * 3,
                                                         abs=1e-8)


def test_forward_malformed_json(capsys):
    code, out = run_cli(capsys, "forward", '{"n": 4, "z": [0.0]')
    assert code == 2
    assert json.loads(out)["error"] == "ValidationError"


def test_forward_numerical_failure(capsys):
    # a tolerance below machine precision makes the angle gate unreachable
    code, out = run_cli(capsys, "forward", SQUARE_CHART, "--tol", "1e-30")
    assert code == 3
    assert "error" in json.loads(out)


def test_chart_points_beyond_floats_exit_3(capsys):
    # An overflowing gap, one whose tail waypoint overflows, and one that
    # vanishes against its position.
    code, out = run_cli(capsys, "unchart",
                        '{"n": 4, "z": [710.0], "a": [0.0, 0.0, 0.0]}')
    assert (code, json.loads(out)["error"]) == (3, "NumericalError")
    code, out = run_cli(capsys, "forward",
                        '{"n": 4, "z": [709.5], "a": [0.0, 0.0, 0.0]}')
    assert (code, json.loads(out)["error"]) == (3, "NumericalError")
    code, out = run_cli(capsys, "forward",
                        '{"n": 5, "z": [1.0, -800.0], "a": [0.0, 0.0, 0.0, 0.0]}')
    assert (code, json.loads(out)["error"]) == (3, "NumericalError")


QUAD_FREE_COMMANDS = pytest.mark.parametrize("command,payload", [
    ("chart", '{"n": 4, "prevertices": [-1.0, 0.0, 1.0],'
              ' "alphas": [0.5, 0.5, 0.5, 0.5], "A": [1, 0], "B": [0, 0],'
              ' "mode": "standard"}'),
    ("unchart", SQUARE_CHART),
    ("invert", dumps(polygon_to_json(LabelledPolygon(SQUARE_VERTICES)))),
], ids=["chart", "unchart", "invert"])


@QUAD_FREE_COMMANDS
def test_tol_belongs_to_quadrature_commands(capsys, command, payload):
    # invert has its own --quadrature-tol; chart and unchart integrate
    # nothing.
    code, _ = run_cli(capsys, command, payload, "--tol", "1e-9")
    assert code == 2


@QUAD_FREE_COMMANDS
def test_env_tol_belongs_to_quadrature_commands(monkeypatch, capsys,
                                                command, payload):
    monkeypatch.setenv("SCPOLY_TOL", "nan")
    code, _ = run_cli(capsys, command, payload)
    assert code == 0
    code, out = run_cli(capsys, "forward", SQUARE_CHART)
    assert (code, json.loads(out)["error"]) == (2, "ValidationError")


def test_forward_reads_file_and_writes_file(tmp_path, capsys):
    src = tmp_path / "chart.json"
    src.write_text(SQUARE_CHART)
    dst = tmp_path / "poly.json"
    code, out = run_cli(capsys, "forward", str(src), "--output", str(dst))
    assert code == 0 and out == ""
    assert json.loads(dst.read_text())["n"] == 4


def test_round_trip_forward_invert(capsys):
    code, poly_text = run_cli(capsys, "forward", SQUARE_CHART)
    assert code == 0
    code, out = run_cli(capsys, "invert", poly_text)
    assert code == 0
    data = json.loads(out)
    assert data["report"]["converged"] is True
    assert data["chart"]["z"] == pytest.approx([0.0], abs=1e-7)
    assert data["chart"]["a"] == pytest.approx([0.0, 0.0, 0.0], abs=1e-7)
    assert data["scmap"]["prevertices"] == pytest.approx([-1.0, 0.0, 1.0],
                                                         abs=1e-7)


def test_invert_not_immersed_input(capsys):
    bowtie = dumps(polygon_to_json(
        LabelledPolygon((0j, 1 + 1j, 1 + 0j, 1j))))
    code, out = run_cli(capsys, "invert", bowtie)
    assert code == 2
    assert json.loads(out)["error"] == "NotImmersedInput"


def test_invert_nonconvergence_exit_code(capsys):
    code, poly_text = run_cli(
        capsys, "forward",
        '{"n": 6, "z": [1.5, -2.0, 0.7], "a": [2.0, -1.0, 1.0, 0.5, -0.3]}')
    assert code == 0
    code, out = run_cli(capsys, "invert", poly_text, "--max-iterations", "1")
    assert code == 4
    assert json.loads(out)["report"]["converged"] is False


def test_parser_defaults_are_the_dataclass_defaults():
    parser = build_parser()
    args = parser.parse_args(["invert", "poly.json"])
    opts = SolveOptions()
    assert (args.max_iterations, args.residual_tol, args.quadrature_tol) \
        == (opts.max_iterations, opts.residual_tol, opts.quadrature_tol)
    args = parser.parse_args(["sweep", "--n", "6", "--samples", "1"])
    assert args.box == SweepConfig(n=6, samples=1).chart_box


def test_seed_belongs_to_sweep_only():
    parser = build_parser()
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(["forward", "x.json", "--seed", "1"])
    assert exc.value.code == 2
    args = parser.parse_args(["sweep", "--n", "5", "--samples", "1"])
    assert args.seed == SweepConfig.seed


def test_sweep_counts(capsys):
    code, out = run_cli(capsys, "sweep", "--n", "5", "--samples", "8",
                        "--seed", "3")
    assert code == 0
    data = json.loads(out)
    assert data["tested"] == 8
    assert data["simple_count"] == 8
    assert data["nonsimple_instances"] == []


def test_sweep_zero_samples_rejected(capsys):
    code, out = run_cli(capsys, "sweep", "--n", "5", "--samples", "0")
    assert code == 2


def test_sweep_infinite_box_rejected(capsys):
    code, out = run_cli(capsys, "sweep", "--n", "5", "--samples", "1",
                        "--box", "inf")
    assert (code, json.loads(out)["error"]) == (2, "ValidationError")


def test_eval_base_point_and_vertex(capsys):
    code, fwd = run_cli(capsys, "forward", SQUARE_CHART)
    first_vertex = complex(*json.loads(fwd)["vertices"][0])
    m = ('{"n": 4, "prevertices": [-1.0, 0.0, 1.0],'
         ' "alphas": [0.5, 0.5, 0.5, 0.5], "A": [1, 0], "B": [2, 5],'
         ' "mode": "standard"}')
    code, out = run_cli(capsys, "eval", m, '[[0, 1], [-1, 0]]')
    assert code == 0
    images = [complex(*p) for p in json.loads(out)["images"]]
    assert images[0] == 2 + 5j                      # base point gives B
    assert images[1] == pytest.approx(first_vertex + 2 + 5j, abs=1e-8)


@pytest.mark.parametrize("A,B", [("[NaN, 0]", "[0, 0]"),
                                 ("[1, 0]", "[0, Infinity]")])
def test_eval_rejects_non_finite_constants(capsys, A, B):
    m = ('{"n": 4, "prevertices": [-1.0, 0.0, 1.0],'
         ' "alphas": [0.5, 0.5, 0.5, 0.5], "A": %s, "B": %s,'
         ' "mode": "standard"}' % (A, B))
    code, out = run_cli(capsys, "eval", m, '[[0, 1]]')
    assert code == 2
    assert json.loads(out)["error"] == "ValidationError"


def test_eval_rejects_infinity_with_a_nan_part(capsys):
    m = ('{"n": 4, "prevertices": [-1.0, 0.0, 1.0],'
         ' "alphas": [0.5, 0.5, 0.5, 0.5], "A": [1, 0], "B": [0, 0],'
         ' "mode": "standard"}')
    code, out = run_cli(capsys, "eval", m, "[[Infinity, NaN]]")
    assert (code, json.loads(out)["error"]) == (2, "ValidationError")
    code, out = run_cli(capsys, "eval", m, "[[Infinity, 0]]")
    assert code == 0


def test_eval_rejects_exponent_without_jacobi_rule(capsys):
    # alpha_1 - 1 rounds to -1, the power no Gauss-Jacobi rule takes.
    m = ('{"n": 3, "prevertices": [-1.0, 0.0],'
         ' "alphas": [3.7e-17, 0.6666666666666667, 0.3333333333333332],'
         ' "A": [1, 0], "B": [0, 0], "mode": "standard"}')
    code, out = run_cli(capsys, "eval", m, '[[-0.5, 0]]')
    assert code == 2
    body = json.loads(out)
    assert body["error"] == "InvalidExponent"
    assert "alpha_1" in body["message"]


def test_eval_rule_beyond_floats_exits_3(capsys):
    # Into z_1 the leg absorbs alpha_1 - 1 = 1195.8, whose Jacobi total
    # moment overflows the floats.
    n = 1200
    m = json.dumps({"n": n, "prevertices": [-1.0, *range(n - 2)],
                    "alphas": [1198 - 1199e-3] + [1e-3] * (n - 1),
                    "A": [1, 0], "B": [0, 0], "mode": "extended"})
    code, out = run_cli(capsys, "eval", m, "[[-1, 0]]")
    assert code == 3
    assert json.loads(out)["error"] == "NumericalError"


def test_eval_batch_performance(capsys):
    import time
    pts = [[(k % 37) / 10.0 - 1.5, 0.3 + (k % 11) / 10.0] for k in range(1000)]
    m = ('{"n": 4, "prevertices": [-1.0, 0.0, 1.0],'
         ' "alphas": [0.5, 0.5, 0.5, 0.5], "A": [1, 0], "B": [0, 0],'
         ' "mode": "standard"}')
    t0 = time.perf_counter()
    code, out = run_cli(capsys, "eval", m, json.dumps(pts))
    elapsed = time.perf_counter() - t0
    assert code == 0
    assert len(json.loads(out)["images"]) == 1000
    assert elapsed < 5.0


def test_chart_unchart_round_trip(capsys):
    m = ('{"n": 5, "prevertices": [-1.0, 0.0, 1.0, 2.0],'
         ' "alphas": [0.6, 0.6, 0.6, 0.6, 0.6], "A": [3, 1], "B": [0, 2],'
         ' "mode": "standard"}')
    code, chart_text = run_cli(capsys, "chart", m)
    assert code == 0
    assert json.loads(chart_text)["z"] == pytest.approx([0.0, 0.0], abs=1e-12)
    code, out = run_cli(capsys, "unchart", chart_text)
    assert code == 0
    back = json.loads(out)
    assert back["prevertices"] == pytest.approx([-1.0, 0.0, 1.0, 2.0], abs=1e-9)
    assert back["alphas"] == pytest.approx([0.6] * 5, abs=1e-12)
    assert back["A"] == [1.0, 0.0] and back["B"] == [0.0, 0.0]


def test_render_polygon_svg(tmp_path, capsys):
    square = dumps(polygon_to_json(LabelledPolygon((0j, 1 + 0j, 1 + 1j, 1j))))
    out_file = tmp_path / "fig.svg"
    code, _ = run_cli(capsys, "render", square, "--output", str(out_file))
    assert code == 0
    svg = out_file.read_text()
    assert svg.startswith("<?xml") and "<path" in svg


def test_render_with_grid_and_witness(capsys):
    m = ('{"n": 4, "prevertices": [-1.0, 0.0, 1.0],'
         ' "alphas": [0.5, 0.5, 0.5, 0.5], "A": [1, 0], "B": [0, 0],'
         ' "mode": "standard"}')
    code, svg = run_cli(capsys, "render", m, "--grid", "2",
                        "--witness", "0.0,1.0")
    assert code == 0
    assert svg.count("<path") == 5
    assert svg.count("<circle") == 1


def test_render_nonfinite_witness_exits_2(capsys):
    square = '{"n": 4, "vertices": [[0,0],[1,0],[1,1],[0,1]]}'
    for text in ("nan,0", "0,inf", "-inf,1"):
        code, out = run_cli(capsys, "render", square, "--witness", text)
        assert code == 2
        assert "<svg" not in out


def test_render_negative_grid_exits_2(capsys, monkeypatch):
    m = ('{"n": 4, "prevertices": [-1.0, 0.0, 1.0],'
         ' "alphas": [0.5, 0.5, 0.5, 0.5], "A": [1, 0], "B": [0, 0],'
         ' "mode": "standard"}')
    code, out = run_cli(capsys, "render", m, "--grid", "-1")
    assert code == 2
    assert "<svg" not in out

    # Also when the map's forward would fail: the grid is checked first.
    def fail(*args):
        raise NumericalError("forward failed")

    monkeypatch.setattr(render, "forward_extended", fail)
    assert run_cli(capsys, "render", m, "--grid", "-1")[0] == 2
    assert run_cli(capsys, "render", m, "--grid", "1")[0] == 3


def test_render_grid_on_polygon_rejected(capsys):
    square = dumps(polygon_to_json(LabelledPolygon((0j, 1 + 0j, 1 + 1j, 1j))))
    code, out = run_cli(capsys, "render", square, "--grid", "2")
    assert code == 2


@pytest.mark.parametrize("command", ["render", "invert"])
def test_polygon_extent_beyond_floats_exits_2(capsys, command):
    wide = '{"n": 3, "vertices": [[-1e308, 0], [1e308, 0], [0, 1e308]]}'
    code, out = run_cli(capsys, command, wide)
    assert code == 2
    assert "extent" in json.loads(out)["message"]


def test_extended_forward_flag(capsys):
    code, out = run_cli(capsys, "forward", '{"n": 3, "z": [], "a": [0, 0]}',
                        "--extended")
    assert code == 0
    assert json.loads(out)["n"] == 3


def test_env_tolerance_override(monkeypatch, capsys):
    monkeypatch.setenv("SCPOLY_TOL", "1e-8")
    code, _ = run_cli(capsys, "forward", SQUARE_CHART)
    assert code == 0
    monkeypatch.setenv("SCPOLY_TOL", "not-a-number")
    code, out = run_cli(capsys, "forward", SQUARE_CHART)
    assert code == 2
    assert json.loads(out)["error"] == "ValidationError"


@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
def test_bad_tolerance_exits_2(monkeypatch, capsys, tol):
    code, out = run_cli(capsys, "forward", SQUARE_CHART, "--tol", tol)
    assert (code, json.loads(out)["error"]) == (2, "ValidationError")
    monkeypatch.setenv("SCPOLY_TOL", tol)
    code, out = run_cli(capsys, "forward", SQUARE_CHART)
    assert (code, json.loads(out)["error"]) == (2, "ValidationError")


def test_stdin_input(capsys, monkeypatch):
    import io
    monkeypatch.setattr(sys, "stdin", io.StringIO(SQUARE_CHART))
    code, out = run_cli(capsys, "forward", "-")
    assert code == 0
    assert json.loads(out)["n"] == 4


def test_installed_entry_point_runs():
    proc = subprocess.run(["scpoly", "forward", SQUARE_CHART],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["n"] == 4


def run_module(*argv):
    """The CLI as its own process, from the source tree (no install)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC_DIR), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "scpoly.cli", *argv],
                          capture_output=True, text=True, env=env)


def test_module_entry_point_runs():
    proc = run_module("forward", SQUARE_CHART)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["n"] == 4


def test_module_entry_point_exit_code_on_bad_chart():
    proc = run_module("forward", '{"n": 4}')
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"] == "ValidationError"

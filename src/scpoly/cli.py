"""Command-line surface.

Subcommands: forward, invert, sweep, render, eval, chart, unchart.
Payloads are the JSON formats from :mod:`scpoly.jsonio`; an input
argument is a file path, ``-`` for stdin, or inline JSON (anything that
starts with ``{`` or ``[``). Results go to --output or stdout. Errors
print a JSON body {"error": <class>, "message": ...} on stdout and set
the exit code: 2 for validation problems, 3 for numerical failures, 4
when the parameter solve does not converge.

SCPOLY_TOL in the environment overrides the default --tol of forward,
sweep, render and eval, and only theirs; an explicit --tol wins over both.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Any, Optional, Sequence

from . import jsonio
from .charts import moduli_chart, moduli_unchart
from .errors import NumericalError, ScpolyError, ValidationError
from .paramsolve import SolveOptions, solve_parameter_problem
from .quadrature import DEFAULT_TOL, check_tol
from .render import polygon_svg, scmap_svg
from .scmap import SCMap, evaluate, forward, forward_extended
from .sweep import SweepConfig, run_sweep

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_NO_CONVERGENCE = 4


def _read_payload(source: str) -> Any:
    if source == "-":
        return jsonio.loads(sys.stdin.read())
    if source.lstrip()[:1] in ("{", "["):
        return jsonio.loads(source)
    try:
        with open(source, "r", encoding="utf-8") as fh:
            return jsonio.loads(fh.read())
    except OSError as exc:
        raise ValidationError(f"cannot read {source!r}: {exc}") from None


def _write(text: str, output: Optional[str]) -> None:
    if output is None:
        sys.stdout.write(text)
        return
    try:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write {output!r}: {exc}") from None


def _witness_arg(text: str) -> complex:
    parts = text.split(",")
    try:
        re, im = (float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"witness must look like RE,IM, got {text!r}") from None
    if not (math.isfinite(re) and math.isfinite(im)):
        raise argparse.ArgumentTypeError(f"witness must be finite, got {text!r}")
    return complex(re, im)


def cmd_forward(args: argparse.Namespace) -> int:
    pt = jsonio.chart_point_from_json(_read_payload(args.input))
    pre, exp = moduli_unchart(pt)
    build = forward_extended if args.extended else forward
    poly = build(pre, exp, args.tol)
    _write(jsonio.dumps(jsonio.polygon_to_json(poly)), args.output)
    return EXIT_OK


def cmd_invert(args: argparse.Namespace) -> int:
    poly = jsonio.polygon_from_json(_read_payload(args.input))
    opts = SolveOptions(max_iterations=args.max_iterations,
                        residual_tol=args.residual_tol,
                        quadrature_tol=args.quadrature_tol)
    m, report = solve_parameter_problem(poly, opts)
    payload = {
        "scmap": jsonio.scmap_to_json(m),
        "chart": jsonio.chart_point_to_json(moduli_chart(m)),
        "report": jsonio.solve_report_to_json(report),
    }
    _write(jsonio.dumps(payload), args.output)
    return EXIT_OK if report.converged else EXIT_NO_CONVERGENCE


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = SweepConfig(n=args.n, samples=args.samples, seed=args.seed,
                      chart_box=args.box)
    result = run_sweep(cfg, args.tol)
    _write(jsonio.dumps(jsonio.sweep_result_to_json(result)), args.output)
    return EXIT_OK


def cmd_render(args: argparse.Namespace) -> int:
    data = _read_payload(args.input)
    witnesses = tuple(args.witness)
    if isinstance(data, dict) and "vertices" in data:
        if args.grid:
            raise ValidationError("grid rendering needs a map, not a polygon")
        svg = polygon_svg(jsonio.polygon_from_json(data), witnesses=witnesses)
    else:
        svg = scmap_svg(jsonio.scmap_from_json(data), grid=args.grid,
                        tol=args.tol, witnesses=witnesses)
    _write(svg, args.output)
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    m = jsonio.scmap_from_json(_read_payload(args.input))
    raw = _read_payload(args.points)
    if not isinstance(raw, list):
        raise ValidationError("points must be a JSON list of [re, im] pairs")
    images = evaluate(m, [jsonio.complex_from_pair(p, "point") for p in raw],
                      args.tol)
    _write(jsonio.dumps({"images": [jsonio.complex_to_pair(w) for w in images]}),
           args.output)
    return EXIT_OK


def cmd_chart(args: argparse.Namespace) -> int:
    m = jsonio.scmap_from_json(_read_payload(args.input))
    pt = moduli_chart(m)
    _write(jsonio.dumps(jsonio.chart_point_to_json(pt)), args.output)
    return EXIT_OK


def cmd_unchart(args: argparse.Namespace) -> int:
    pt = jsonio.chart_point_from_json(_read_payload(args.input))
    pre, exp = moduli_unchart(pt)
    _write(jsonio.dumps(jsonio.scmap_to_json(SCMap(pre, exp))), args.output)
    return EXIT_OK


def _default_tol() -> float:
    raw = os.environ.get("SCPOLY_TOL", repr(DEFAULT_TOL))
    try:
        tol = float(raw)
    except ValueError:
        raise ValidationError(f"SCPOLY_TOL is not a number: {raw!r}") from None
    check_tol(tol, "SCPOLY_TOL")
    return tol


def build_parser() -> argparse.ArgumentParser:
    """The CLI; an omitted --tol stays None for ``main`` to fill."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", default=None,
                        help="write the result here instead of stdout")
    quad = argparse.ArgumentParser(add_help=False, parents=[common])
    quad.add_argument("--tol", type=float, default=None,
                      help="quadrature tolerance (default: SCPOLY_TOL, "
                           f"else {DEFAULT_TOL:g})")

    parser = argparse.ArgumentParser(
        prog="scpoly",
        description="Polygon construction and parameter recovery for "
                    "half-plane conformal maps.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("forward", parents=[quad],
                       help="chart point JSON -> polygon JSON")
    p.add_argument("input")
    p.add_argument("--extended", action="store_true",
                   help="skip the immersion screen (angles may exceed 2*pi)")
    p.set_defaults(func=cmd_forward)

    p = sub.add_parser("invert", parents=[common],
                       help="polygon JSON -> map + chart + solve report")
    p.add_argument("input")
    p.add_argument("--max-iterations", type=int,
                   default=SolveOptions.max_iterations,
                   help="Levenberg-Marquardt steps, each one residual "
                        "evaluation (default %(default)d)")
    p.add_argument("--residual-tol", type=float,
                   default=SolveOptions.residual_tol)
    p.add_argument("--quadrature-tol", type=float,
                   default=SolveOptions.quadrature_tol)
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("sweep", parents=[quad],
                       help="random chart samples -> simplicity statistics")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--box", type=float, default=SweepConfig.chart_box,
                   help="half-width of the chart sampling cube")
    p.add_argument("--seed", type=int, default=SweepConfig.seed,
                   help="seed of the chart sample stream")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("render", parents=[quad],
                       help="polygon or map JSON -> SVG")
    p.add_argument("input")
    p.add_argument("--grid", type=int, default=0,
                   help="grid-image curves per direction (maps only)")
    p.add_argument("--witness", type=_witness_arg, action="append",
                   default=[], help="mark RE,IM with a dot (repeatable)")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("eval", parents=[quad],
                       help="map JSON + point list -> image list")
    p.add_argument("input")
    p.add_argument("points", help="JSON list of [re, im] pairs")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("chart", parents=[common],
                       help="map JSON -> chart point JSON")
    p.add_argument("input")
    p.set_defaults(func=cmd_chart)

    p = sub.add_parser("unchart", parents=[common],
                       help="chart point JSON -> normalized map JSON")
    p.add_argument("input")
    p.set_defaults(func=cmd_unchart)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if "tol" in args and args.tol is None:
            args.tol = _default_tol()
        return args.func(args)
    except ScpolyError as exc:
        body = {"error": type(exc).__name__, "message": str(exc)}
        sys.stdout.write(jsonio.dumps(body))
        return (EXIT_NUMERICAL if isinstance(exc, NumericalError)
                else EXIT_VALIDATION)


if __name__ == "__main__":
    sys.exit(main())

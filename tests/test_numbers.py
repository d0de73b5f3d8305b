"""One rule for the numbers every entry point takes (see scpoly.errors).

A Python or NumPy number, or a 0-d array of numbers, is accepted and
stored as the plain int, float or complex it stands for; a bool, np.bool_,
str, bytes or None is rejected with a ValidationError naming the argument,
and so is a complex number where a real is due.
"""

import re

import numpy as np
import pytest

from scpoly import (
    ChartPoint,
    ExponentVector,
    LabelledPolygon,
    Prevertices,
    QuadratureRule,
    SCMap,
    SolveOptions,
    SweepConfig,
    ValidationError,
    a_unchart,
    apply_similarity,
    direction_basis,
    evaluate,
    gauss_jacobi,
    grid_curves,
    integrate_sc,
    integrate_to_infinity,
    sample_chart_point,
    winding_number,
    z_unchart,
)
from scpoly.quadrature import integrate_finite_legs

PRE = Prevertices((-1.0, 0.0, 1.0))
EXP = ExponentVector((0.5, 0.5, 0.5, 0.5))
SQUARE = SCMap(PRE, EXP)
UNIT = LabelledPolygon((0j, 1 + 0j, 1 + 1j, 1j))
CFG = SweepConfig(n=5, samples=2)
TOL = 2.0 ** -30  # exact in float32 too

# (argument named in the message, kind due, a valid value, the call)
ENTRY_POINTS = {
    "ChartPoint.n": ("n", int, 4,
                     lambda v: ChartPoint(v, (0.5,), (0.0, 0.0, 0.0))),
    "ChartPoint.z_coords": ("chart coordinates", float, 2,
                            lambda v: ChartPoint(4, (v,), (0.0, 0.0, 0.0))),
    "ChartPoint.a_coords": ("chart coordinates", float, 0.5,
                            lambda v: ChartPoint(4, (0.0,), (v, 0.0, 0.0))),
    "z_unchart": ("gap coordinates", float, 2, lambda v: z_unchart((v,))),
    "a_unchart": ("chart coordinates", float, 0.5,
                  lambda v: a_unchart((v, 0.0, 0.0))),
    "Prevertices": ("prevertices", float, 2,
                    lambda v: Prevertices((-1.0, 0.0, v))),
    "ExponentVector": ("alphas", float, 0.5,
                       lambda v: ExponentVector((v, 0.5, 0.5, 0.5))),
    "SCMap.A": ("A", complex, 2, lambda v: SCMap(PRE, EXP, v)),
    "SCMap.B": ("B", complex, 0.5j, lambda v: SCMap(PRE, EXP, 1.0, v)),
    "LabelledPolygon": ("vertices", complex, 1,
                        lambda v: LabelledPolygon((0j, v, 1 + 1j, 1j))),
    "integrate_sc": ("z_to", complex, 2,
                     lambda v: integrate_sc(SQUARE, 1j, v)),
    "integrate_sc.tol": ("tol", float, TOL,
                         lambda v: integrate_sc(SQUARE, 1j, 0.5j, v)),
    "integrate_to_infinity": ("z_from", float, 3,
                              lambda v: integrate_to_infinity(SQUARE, v)),
    "integrate_finite_legs": ("points", float, 2,
                              lambda v: integrate_finite_legs(
                                  [-1.0, 0.0, v], [0.5, 0.5, 0.5])),
    "integrate_finite_legs.alphas": ("alphas", float, 0.5,
                                     lambda v: integrate_finite_legs(
                                         [-1.0, 0.0, 1.0], [v, 0.5, 0.5])),
    "evaluate": ("z", complex, 2, lambda v: evaluate(SQUARE, v)),
    "apply_similarity": ("a", complex, 2,
                         lambda v: apply_similarity(UNIT, v)),
    "winding_number": ("point", complex, 0.5 + 0.5j,
                       lambda v: winding_number(UNIT, v)),
    "SweepConfig.samples": ("samples", int, 2,
                            lambda v: SweepConfig(n=5, samples=v)),
    "SweepConfig.chart_box": ("chart_box", float, 2,
                              lambda v: SweepConfig(5, 2, chart_box=v)),
    "SolveOptions.max_iterations": ("max_iterations", int, 50,
                                    lambda v: SolveOptions(max_iterations=v)),
    "SolveOptions.residual_tol": ("residual_tol", float, TOL,
                                  lambda v: SolveOptions(residual_tol=v)),
    "sample_chart_point": ("index", int, 3,
                           lambda v: sample_chart_point(CFG, v)),
    "grid_curves": ("grid", int, 1, lambda v: grid_curves(SQUARE, v)),
    "gauss_jacobi.order": ("order", int, 8,
                           lambda v: gauss_jacobi(v, 0.5, 0.0)),
    "gauss_jacobi.a": ("a=", float, 0.5, lambda v: gauss_jacobi(8, v, 0.0)),
    "direction_basis": ("n", int, 3, direction_basis),
}


def _variants(kind, value):
    """The forms of ``value`` a ``kind`` argument accepts, NumPy's and
    0-d arrays included."""
    forms = []
    if value == int(abs(value)) == value.real:
        forms += [int(value), np.int64(value), np.array(int(value))]
    if kind is not int and complex(value).imag == 0.0:
        x = complex(value).real
        forms += [float(x), np.float64(x), np.float32(x), np.array(x)]
    if kind is complex:
        forms += [complex(value), np.complex128(value),
                  np.array(complex(value))]
    return forms


def _key(result):
    # What a result is made of, arrays as lists; equal keys mean equal
    # results, plain Python numbers included.
    if isinstance(result, QuadratureRule):
        return (result.nodes.tolist(), result.weights.tolist(),
                result.exponent_left, result.exponent_right, result.order)
    if isinstance(result, np.ndarray):
        return result.tolist()
    if isinstance(result, (tuple, list)):
        return [_key(r) for r in result]
    return repr(result)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_every_form_of_a_number_gives_the_plain_result(entry):
    _, kind, value, call = ENTRY_POINTS[entry]
    expected = _key(call(kind(value)))
    for form in _variants(kind, value):
        assert _key(call(form)) == expected, form


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_what_is_not_a_number_is_rejected_by_name(entry):
    name, kind, _, call = ENTRY_POINTS[entry]
    bad = ["0.5", b"0.5", None, True, np.True_]
    if kind is not complex:
        bad += [0.5 + 0j, np.complex128(2.0)]
    for value in bad:
        with pytest.raises(ValidationError, match=re.escape(name)) as info:
            call(value)
        assert "positive and finite" not in str(info.value), value

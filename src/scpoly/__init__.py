"""Parametrize labelled immersed polygons by half-plane conformal data."""

from .charts import (ChartPoint, a_chart, a_unchart, direction_basis,
                     moduli_chart, moduli_unchart, z_chart, z_unchart)
from .errors import (AngleMismatch, DegenerateSide, InvalidExponent,
                     NoConvergence, NotImmersedInput, NotIncreasing,
                     NotNormalized, NumericalError, OnBoundary,
                     PathThroughSingularity, PointOnCurve, ScpolyError,
                     ValidationError, ZeroScale)
from .geometry import (AngleVector, ImmersionReport, LabelledPolygon,
                       PlanePoint, check_immersion_necessary,
                       find_multiwound_witness, interior_angles, is_simple,
                       turning_angle_sum, turning_number, winding_number)
from .paramsolve import (SolveOptions, SolveReport, extract_exponents,
                         fit_affine_constants, side_length_residual,
                         solve_parameter_problem)
from .quadrature import (QuadratureRule, gauss_jacobi, integrate_sc,
                         integrate_to_infinity, total_moment)
from .render import grid_curves, polygon_svg, scmap_svg
from .scmap import (BASE_POINT, INFINITY, ExponentVector, Prevertices, SCMap,
                    apply_similarity, evaluate, forward, forward_extended)
from .sweep import (NonSimpleInstance, SweepConfig, SweepResult, run_sweep,
                    sample_chart_point)

__version__ = "0.1.0"

__all__ = [
    "AngleMismatch", "AngleVector", "BASE_POINT", "ChartPoint",
    "DegenerateSide", "ExponentVector", "INFINITY", "ImmersionReport",
    "InvalidExponent", "LabelledPolygon", "NoConvergence",
    "NonSimpleInstance", "NotImmersedInput", "NotIncreasing",
    "NotNormalized", "NumericalError", "OnBoundary",
    "PathThroughSingularity", "PlanePoint", "PointOnCurve", "Prevertices",
    "QuadratureRule", "SCMap", "ScpolyError", "SolveOptions", "SolveReport",
    "SweepConfig", "SweepResult", "ValidationError", "ZeroScale", "a_chart",
    "a_unchart", "apply_similarity", "check_immersion_necessary",
    "direction_basis", "evaluate", "extract_exponents",
    "find_multiwound_witness", "fit_affine_constants", "forward",
    "forward_extended", "gauss_jacobi", "grid_curves", "integrate_sc",
    "integrate_to_infinity", "interior_angles", "is_simple", "moduli_chart",
    "moduli_unchart", "polygon_svg", "run_sweep", "sample_chart_point",
    "scmap_svg", "side_length_residual", "solve_parameter_problem",
    "total_moment", "turning_angle_sum", "turning_number", "winding_number",
    "z_chart", "z_unchart",
]

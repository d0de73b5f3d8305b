"""Deterministic SVG figures: polygon traces, grid images, witness marks.

Geometry is y-flipped into SVG's downward axis, rescaled to a canvas of
unit span 1000 (so the fixed 6-decimal coordinate format never loses
more than 1e-9 of the drawing), and wrapped in a viewBox fitted with a
5% margin. Output bytes depend only on the inputs and style arguments.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import ValidationError, check_finites, check_int
from .geometry import LabelledPolygon, PlanePoint
from .quadrature import DEFAULT_TOL
from .scmap import SCMap, apply_similarity, evaluate, forward_extended

_CANVAS = 1000.0
_POLY_STROKE = "#1b3f8f"
_GRID_STROKE = "#9aa7b8"
_WITNESS_FILL = "#c0392b"
# Samples along each grid line.
_LINE_SAMPLES = 48


def _fmt(v: float) -> str:
    # Avoid the negative-zero artifact so equal drawings share bytes.
    if v == 0.0:
        v = 0.0
    return f"{v:.6f}"


class _Frame:
    """Affine placement of flipped plane points onto the canvas."""

    def __init__(self, points: Sequence[PlanePoint]):
        xs = [p.real for p in points]
        ys = [-p.imag for p in points]
        self.x0, self.y0 = min(xs), min(ys)
        width, height = max(xs) - self.x0, max(ys) - self.y0
        # Only a drawing of one point has no extent to scale by.
        self.scale = _CANVAS / (max(width, height) or 1.0)
        if not 0.0 < self.scale < np.inf:
            raise ValidationError("drawing extent does not fit floats")
        self.width, self.height = width * self.scale, height * self.scale

    def place(self, p: PlanePoint) -> tuple[float, float]:
        return ((p.real - self.x0) * self.scale,
                (-p.imag - self.y0) * self.scale)

    def view_box(self) -> str:
        margin = 0.05 * max(self.width, self.height)
        return " ".join(_fmt(v) for v in
                        (-margin, -margin,
                         self.width + 2 * margin, self.height + 2 * margin))


def _path(frame: _Frame, points: Sequence[PlanePoint], closed: bool) -> str:
    cmds = []
    for k, p in enumerate(points):
        x, y = frame.place(p)
        cmds.append(f"{'M' if k == 0 else 'L'} {_fmt(x)} {_fmt(y)}")
    if closed:
        cmds.append("Z")
    return " ".join(cmds)


def polygon_svg(poly: LabelledPolygon,
                witnesses: Sequence[PlanePoint] = (),
                grid_curves: Iterable[Sequence[PlanePoint]] = ()) -> str:
    """SVG document with the closed polygon path, optional grid-image
    polylines underneath, and optional marked witness points on top.
    Raises :class:`ValidationError` unless every point is a finite complex
    number by the rule of :mod:`scpoly.errors`."""
    witnesses = check_finites(witnesses, complex, "points to draw")
    curves = [check_finites(c, complex, "points to draw")
              for c in grid_curves]
    frame = _Frame([*poly.vertices, *witnesses, *(p for c in curves for p in c)])
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{frame.view_box()}">',
    ]
    for c in curves:
        lines.append(
            f'  <path d="{_path(frame, c, closed=False)}" fill="none" '
            f'stroke="{_GRID_STROKE}" stroke-width="{_fmt(0.004 * _CANVAS)}"/>')
    lines.append(
        f'  <path d="{_path(frame, poly.vertices, closed=True)}" fill="none" '
        f'stroke="{_POLY_STROKE}" stroke-width="{_fmt(0.01 * _CANVAS)}" '
        'stroke-linejoin="round"/>')
    for w in witnesses:
        x, y = frame.place(w)
        lines.append(
            f'  <circle cx="{_fmt(x)}" cy="{_fmt(y)}" '
            f'r="{_fmt(0.015 * _CANVAS)}" fill="{_WITNESS_FILL}"/>')
    lines.append('</svg>')
    return "\n".join(lines) + "\n"


def grid_curves(m: SCMap, lines: int, tol: float = DEFAULT_TOL
                ) -> list[list[PlanePoint]]:
    """Images of ``lines`` vertical and ``lines`` horizontal segments of
    the upper half-plane under the map, as polylines of 48 samples each.

    The window covers the finite prevertices with half a span of slack on
    both sides and reaches comparably high; verticals stop just short of
    the boundary, which keeps every sample strictly inside the domain.
    ``lines`` that is not an integer >= 0 raises ValidationError.
    """
    lines = check_int(lines, "grid", 0)
    if not lines:
        return []
    zs = m.prevertices.finite_points
    span = max(zs[-1] - zs[0], 1.0)
    x_lo, x_hi = zs[0] - 0.5 * span, zs[-1] + 0.5 * span
    height = 0.75 * span
    k = np.arange(lines)[:, None]
    j = np.arange(_LINE_SAMPLES)
    verticals = (x_lo + (k + 0.5) * (x_hi - x_lo) / lines
                 + 1j * (height * (j + 1) / _LINE_SAMPLES))
    horizontals = (x_lo + j * (x_hi - x_lo) / (_LINE_SAMPLES - 1)
                   + 1j * (height * (k + 0.5) / lines))
    return [[evaluate(m, z, tol) for z in curve]
            for curve in np.vstack([verticals, horizontals])]


def scmap_svg(m: SCMap, grid: int = 0, tol: float = DEFAULT_TOL,
              witnesses: Sequence[PlanePoint] = ()) -> str:
    """Render the map's polygon (A, B applied); ``grid`` > 0 adds that
    many grid-image curves per direction (see grid_curves)."""
    curves = grid_curves(m, grid, tol)
    poly = apply_similarity(forward_extended(m.prevertices, m.exponents, tol),
                            m.A, m.B)
    return polygon_svg(poly, witnesses=witnesses, grid_curves=curves)

import math

import numpy as np
import pytest

from scpoly import (
    ExponentVector,
    LabelledPolygon,
    NumericalError,
    Prevertices,
    SCMap,
    ValidationError,
    grid_curves,
    polygon_svg,
    render,
    scmap_svg,
    winding_number,
)

from oracles import ray_crossing_winding


def test_square_svg_single_closed_path(unit_square):
    svg = polygon_svg(unit_square)
    assert svg.startswith("<?xml")
    assert svg.count("<path") == 1
    body = svg.split('d="')[1].split('"')[0]
    assert body.startswith("M ")
    assert body.count("L ") == 3 and body.rstrip().endswith("Z")


def test_view_box_has_five_percent_margin(unit_square):
    svg = polygon_svg(unit_square)
    vb = svg.split('viewBox="')[1].split('"')[0]
    assert vb == "-50.000000 -50.000000 1100.000000 1100.000000"


def test_svg_bytes_deterministic(unit_square, hex_large):
    for poly in (unit_square, hex_large):
        assert polygon_svg(poly) == polygon_svg(poly)


def test_witness_marker_drawn(hex_large):
    from conftest import HEX_WITNESS_LARGE
    plain = polygon_svg(hex_large)
    marked = polygon_svg(hex_large, witnesses=(HEX_WITNESS_LARGE,))
    assert "<circle" not in plain
    assert marked.count("<circle") == 1


def test_nonfinite_witness_rejected(unit_square):
    # A string and None used to raise a bare TypeError; a bool was drawn
    # as the point 0 or 1.
    for w in (complex(math.nan, 0.0), complex(0.0, math.inf), "0.5", None,
              False, np.True_):
        with pytest.raises(ValidationError, match="finite numbers"):
            polygon_svg(unit_square, witnesses=(0.5j, w))
    with pytest.raises(ValidationError, match="finite numbers"):
        polygon_svg(unit_square, grid_curves=[[0.5j, True]])
    assert (polygon_svg(unit_square, witnesses=(np.complex128(0.5j),))
            == polygon_svg(unit_square, witnesses=(0.5j,)))


def test_drawing_extent_must_fit_floats(unit_square):
    far = (complex(-1e308, 0.0), complex(1e308, 0.0))
    with pytest.raises(ValidationError, match="extent"):
        polygon_svg(unit_square, witnesses=far)


def test_wide_rectangle_margin_uses_long_side():
    rect = LabelledPolygon((0j, 4 + 0j, 4 + 1j, 1j))
    vb = polygon_svg(rect).split('viewBox="')[1].split('"')[0].split()
    assert float(vb[2]) == pytest.approx(1100.0)   # width 4 -> span 1000 + 2*50


def test_grid_curves_land_inside_polygon(square_map):
    from scpoly import forward
    poly = forward(square_map.prevertices, square_map.exponents)
    curves = grid_curves(square_map, 3)
    assert len(curves) == 6
    for curve in curves:
        mid = curve[len(curve) // 2]
        assert winding_number(poly, mid) >= 1
        assert ray_crossing_winding(poly.vertices, mid) >= 1


def test_scmap_svg_with_grid(square_map):
    bare = scmap_svg(square_map)
    gridded = scmap_svg(square_map, grid=4)
    assert gridded == scmap_svg(square_map, grid=4)
    assert bare.count("<path") == 1
    assert gridded.count("<path") == 1 + 8


def test_grid_must_be_an_integer_at_least_zero(square_map, monkeypatch):
    # 2.5 once drew 3 curves per direction, True 1, -1 none.
    for grid in (2.5, True, -1, "2"):
        with pytest.raises(ValidationError):
            grid_curves(square_map, grid)
        with pytest.raises(ValidationError):
            scmap_svg(square_map, grid=grid)
    assert grid_curves(square_map, 0) == []
    assert grid_curves(square_map, np.int64(2)) == grid_curves(square_map, 2)

    # A map whose forward fails still reports a bad grid as such.
    def fail(*args):
        raise NumericalError("forward failed")

    monkeypatch.setattr(render, "forward_extended", fail)
    with pytest.raises(ValidationError):
        scmap_svg(square_map, grid=-1)
    with pytest.raises(NumericalError):
        scmap_svg(square_map, grid=1)


def test_scmap_svg_applies_constants(square_map):
    moved = SCMap(square_map.prevertices, square_map.exponents,
                  A=2.0, B=100.0 + 100.0j)
    # pure similarity: identical canvas after fitting, so identical bytes
    assert scmap_svg(moved) == scmap_svg(square_map)


def test_extended_map_renders(pentagon_poly):
    m = SCMap(Prevertices((-1.0, 0.0, 1.0, 2.0)),
              ExponentVector((0.2, 0.2, 0.2, 0.2, 2.2), extended=True))
    svg = scmap_svg(m)
    assert svg.count("<path") == 1
    assert polygon_svg(pentagon_poly) == polygon_svg(pentagon_poly)

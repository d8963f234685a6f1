"""SVG rendering from a command's table rows."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from trajbound.config import default_config
from trajbound.data import csv_cell
from trajbound.errors import InvalidArgumentError
from trajbound.experiments import _write_outputs
from trajbound.plots import PALETTE, PlotSpec, emit_svg_plots


def points(svg, series=0):
    return svg.split('points="')[1 + series].split('"')[0].split()


def test_basic_polyline_and_axes(tmp_path):
    out = emit_svg_plots(str(tmp_path), ("t", "loss"), [[0, 1.0], [1, 0.5], [2, 0.25]],
                         [PlotSpec(x="t", ys=("loss",), out_name="loss.svg", title="loss")])
    assert len(out) == 1
    svg = open(out[0]).read()
    assert svg.startswith("<svg")
    assert svg.count("<polyline") == 1
    assert len(points(svg)) == 3
    assert ">loss</text>" in svg  # title and legend label
    assert ">t</text>" in svg     # x-axis label


def test_two_points_are_enough_for_a_line(tmp_path):
    out = emit_svg_plots(str(tmp_path), ("x", "y"), [[0, 3], [10, 4]],
                         [PlotSpec(x="x", ys=("y",), out_name="two.svg")])
    assert len(points(open(out[0]).read())) == 2


def test_rendering_is_byte_identical(tmp_path):
    rows = [[0, 1, 5], [1, 2, 4], [2, 3, 3]]
    spec = PlotSpec(x="t", ys=("a", "b"), out_name="ab.svg", title="ab")
    first = open(emit_svg_plots(str(tmp_path), ("t", "a", "b"), rows, [spec])[0], "rb").read()
    second = open(emit_svg_plots(str(tmp_path), ("t", "a", "b"), rows, [spec])[0], "rb").read()
    assert first == second


@given(st.lists(st.tuples(st.integers(-10**6, 10**6),
                          st.floats(allow_nan=False, allow_infinity=False, width=64)),
                min_size=1, max_size=6))
def test_a_value_draws_as_its_csv_cell_would(tmp_path_factory, pairs):
    # a cell is plotted as float(value): bitwise float(csv_cell(value)), so the
    # rows draw the same SVG as the CSV text written from them, numpy scalars too
    out = tmp_path_factory.mktemp("cells")
    spec = PlotSpec(x="x", ys=("y",), out_name="v.svg")
    rows = [[np.int64(x), np.float64(y)] for x, y in pairs]
    text_rows = [[csv_cell(x), csv_cell(y)] for x, y in rows]
    drawn = open(emit_svg_plots(str(out), ("x", "y"), rows, [spec])[0], "rb").read()
    as_text = open(emit_svg_plots(str(out), ("x", "y"), text_rows, [spec])[0], "rb").read()
    assert drawn == as_text


def test_multiple_series_get_distinct_palette_colors(tmp_path):
    out = emit_svg_plots(str(tmp_path), ("t", "a", "b"), [[0, 1, 5], [1, 2, 4]],
                         [PlotSpec(x="t", ys=("a", "b"), out_name="colors.svg")])
    svg = open(out[0]).read()
    assert PALETTE[0] in svg and PALETTE[1] in svg


def test_missing_column_is_named(tmp_path):
    rows = [[0, 1], [1, 2]]
    with pytest.raises(InvalidArgumentError, match="z.svg: no column 'z'"):
        emit_svg_plots(str(tmp_path), ("t", "a"), rows,
                       [PlotSpec(x="t", ys=("z",), out_name="z.svg")])
    with pytest.raises(InvalidArgumentError, match="a.svg: no column 'epoch'"):
        emit_svg_plots(str(tmp_path), ("t", "a"), rows,
                       [PlotSpec(x="epoch", ys=("a",), out_name="a.svg")])
    assert list(tmp_path.iterdir()) == []


def test_empty_series_is_rejected_not_rendered(tmp_path):
    with pytest.raises(InvalidArgumentError, match="a.svg: series 'a' has no points"):
        emit_svg_plots(str(tmp_path), ("t", "a"), [[0, None], [1, None]],
                       [PlotSpec(x="t", ys=("a",), out_name="a.svg")])
    # nothing was written
    assert not (tmp_path / "a.svg").exists()


def test_empty_cells_are_skipped_per_series(tmp_path):
    out = emit_svg_plots(str(tmp_path), ("t", "a"), [[0, 1], [1, None], [2, 3], [None, 9]],
                         [PlotSpec(x="t", ys=("a",), out_name="gap.svg")])
    # rows with a None y or None x drop out: two points remain
    assert len(points(open(out[0]).read())) == 2


def test_constant_series_still_renders(tmp_path):
    # a flat line has zero y-range; the renderer pads instead of dividing by it
    out = emit_svg_plots(str(tmp_path), ("t", "v"), [[0, 2], [1, 2], [2, 2]],
                         [PlotSpec(x="t", ys=("v",), out_name="flat.svg")])
    assert "<polyline" in open(out[0]).read()


def test_single_point_series_renders(tmp_path):
    out = emit_svg_plots(str(tmp_path), ("t", "v"), [[5, 3]],
                         [PlotSpec(x="t", ys=("v",), out_name="dot.svg")])
    assert "<polyline" in open(out[0]).read()


def test_plots_are_written_next_to_the_csv(tmp_path):
    # a command's SVGs go into its output directory, beside the CSV of the
    # rows they draw, after it and meta.json
    sub = tmp_path / "elsewhere"
    sub.mkdir()
    cfg = dataclasses.replace(default_config("eos"), output_dir=str(sub))
    rows = [[0, 1.0], [1, 2.0]]
    out = _write_outputs(cfg, True, {"v.csv": (("t", "v"), rows)}, {},
                         [(("t", "v"), rows, [PlotSpec(x="t", ys=("v",), out_name="v.svg")])])
    assert out == [str(sub / "v.csv"), str(sub / "meta.json"), str(sub / "v.svg")]
    assert (sub / "v.csv").read_text() == "t,v\n0,1.0\n1,2.0\n"
    assert len(points((sub / "v.svg").read_text())) == 2

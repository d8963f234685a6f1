"""SVG rendering from CSV tables."""

import pytest

from trajbound.errors import DataSchemaError, InvalidArgumentError
from trajbound.plots import PALETTE, PlotSpec, emit_svg_plots


def write_csv(tmp_path, text, name="table.csv"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_basic_polyline_and_axes(tmp_path):
    path = write_csv(tmp_path, "t,loss\n0,1.0\n1,0.5\n2,0.25\n")
    out = emit_svg_plots(path, [PlotSpec(x="t", ys=("loss",),
                                         out_name="loss.svg", title="loss")])
    assert len(out) == 1
    svg = open(out[0]).read()
    assert svg.startswith("<svg")
    assert svg.count("<polyline") == 1
    pts = svg.split('points="')[1].split('"')[0].split()
    assert len(pts) == 3
    assert ">loss</text>" in svg  # title and legend label
    assert ">t</text>" in svg     # x-axis label


def test_two_points_are_enough_for_a_line(tmp_path):
    path = write_csv(tmp_path, "x,y\n0,3\n10,4\n")
    out = emit_svg_plots(path, [PlotSpec(x="x", ys=("y",), out_name="two.svg")])
    svg = open(out[0]).read()
    assert len(svg.split('points="')[1].split('"')[0].split()) == 2


def test_rendering_is_byte_identical(tmp_path):
    path = write_csv(tmp_path, "t,a,b\n0,1,5\n1,2,4\n2,3,3\n")
    spec = PlotSpec(x="t", ys=("a", "b"), out_name="ab.svg", title="ab")
    first = open(emit_svg_plots(path, [spec])[0], "rb").read()
    second = open(emit_svg_plots(path, [spec])[0], "rb").read()
    assert first == second


def test_multiple_series_get_distinct_palette_colors(tmp_path):
    path = write_csv(tmp_path, "t,a,b\n0,1,5\n1,2,4\n")
    out = emit_svg_plots(path, [PlotSpec(x="t", ys=("a", "b"),
                                         out_name="colors.svg")])
    svg = open(out[0]).read()
    assert PALETTE[0] in svg and PALETTE[1] in svg


def test_missing_column_is_named(tmp_path):
    path = write_csv(tmp_path, "t,a\n0,1\n1,2\n")
    with pytest.raises(InvalidArgumentError, match="'z'"):
        emit_svg_plots(path, [PlotSpec(x="t", ys=("z",), out_name="z.svg")])
    with pytest.raises(InvalidArgumentError, match="'epoch'"):
        emit_svg_plots(path, [PlotSpec(x="epoch", ys=("a",), out_name="a.svg")])


def test_empty_series_is_rejected_not_rendered(tmp_path):
    path = write_csv(tmp_path, "t,a\n0,\n1,\n")
    with pytest.raises(InvalidArgumentError, match="series 'a' has no points"):
        emit_svg_plots(path, [PlotSpec(x="t", ys=("a",), out_name="a.svg")])
    # nothing was written
    assert not (tmp_path / "a.svg").exists()


def test_empty_cells_are_skipped_per_series(tmp_path):
    path = write_csv(tmp_path, "t,a\n0,1\n1,\n2,3\n,9\n")
    out = emit_svg_plots(path, [PlotSpec(x="t", ys=("a",), out_name="gap.svg")])
    svg = open(out[0]).read()
    # rows with an empty y or empty x drop out: two points remain
    assert len(svg.split('points="')[1].split('"')[0].split()) == 2


def test_where_and_exclude_filters(tmp_path):
    text = ("group,t,v\nmain,0,1\nmain,1,2\ncontrol,0,5\ncontrol,1,6\n"
            "mean,2,9\n")
    path = write_csv(tmp_path, text)
    out = emit_svg_plots(path, [
        PlotSpec(x="t", ys=("v",), out_name="main.svg",
                 where=("group", "main")),
        PlotSpec(x="t", ys=("v",), out_name="nomean.svg",
                 exclude=("group", "mean")),
    ])
    main_pts = open(out[0]).read().split('points="')[1].split('"')[0].split()
    assert len(main_pts) == 2
    nomean_pts = open(out[1]).read().split('points="')[1].split('"')[0].split()
    assert len(nomean_pts) == 4


def test_constant_series_still_renders(tmp_path):
    # a flat line has zero y-range; the renderer pads instead of dividing by it
    path = write_csv(tmp_path, "t,v\n0,2\n1,2\n2,2\n")
    out = emit_svg_plots(path, [PlotSpec(x="t", ys=("v",), out_name="flat.svg")])
    assert "<polyline" in open(out[0]).read()


def test_single_point_series_renders(tmp_path):
    path = write_csv(tmp_path, "t,v\n5,3\n")
    out = emit_svg_plots(path, [PlotSpec(x="t", ys=("v",), out_name="dot.svg")])
    assert "<polyline" in open(out[0]).read()


def test_empty_csv_is_a_schema_error(tmp_path):
    path = write_csv(tmp_path, "")
    with pytest.raises(DataSchemaError, match="empty"):
        emit_svg_plots(path, [PlotSpec(x="t", ys=("v",), out_name="x.svg")])


def test_plots_are_written_next_to_the_csv(tmp_path):
    sub = tmp_path / "elsewhere"
    sub.mkdir()
    path = write_csv(sub, "t,v\n0,1\n1,2\n")
    out = emit_svg_plots(path, [PlotSpec(x="t", ys=("v",), out_name="v.svg")])
    assert out == [str(sub / "v.svg")]

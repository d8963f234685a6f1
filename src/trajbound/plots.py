"""Deterministic SVG line plots from CSV columns.

No plotting library: the renderer is a pure function of the parsed table,
so identical inputs produce byte-identical files. Layout is fixed-size
with linear axes, five ticks per axis, a small legend, and one polyline
per series; cells that are empty in the CSV are simply skipped.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass

from .errors import DataSchemaError, InvalidArgumentError

WIDTH, HEIGHT = 640.0, 420.0
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64.0, 20.0, 34.0, 48.0
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


@dataclass(frozen=True)
class PlotSpec:
    """One output file: x column, y columns, optional row filters.

    where keeps only rows whose column equals the given string; exclude
    drops such rows. Both compare raw CSV text.
    """

    x: str
    ys: tuple[str, ...]
    out_name: str
    title: str = ""
    where: tuple[str, str] | None = None
    exclude: tuple[str, str] | None = None


def _read_table(csv_path: str) -> tuple[list[str], list[list[str]]]:
    with open(csv_path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        rows = [row for row in reader if row]
    if not rows:
        raise DataSchemaError(f"{csv_path}: empty file")
    return rows[0], rows[1:]


def _column(header: list[str], name: str, csv_path: str) -> int:
    try:
        return header.index(name)
    except ValueError:
        raise InvalidArgumentError(
            f"{csv_path}: no column {name!r}; have {', '.join(header)}"
        ) from None


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if hi == lo:
        return [lo]
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


def _fmt_tick(v: float) -> str:
    s = f"{v:.4g}"
    return "0" if s == "-0" else s


def _line(x1: float, y1: float, x2: float, y2: float, color: str = "#000000",
          width: str = "1") -> str:
    return (f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
            f'stroke="{color}" stroke-width="{width}"/>')


def _text(x: str, y: str, body: str, size: int, anchor: str | None = None) -> str:
    at = f' text-anchor="{anchor}"' if anchor else ""
    return (f'<text x="{x}" y="{y}"{at} font-family="sans-serif" '
            f'font-size="{size}">{body}</text>')


def _svg_for_series(series: dict[str, list[tuple[float, float]]],
                    x_name: str, title: str) -> str:
    xs = [p[0] for pts in series.values() for p in pts]
    ys = [p[1] for pts in series.values() for p in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0
    if y_hi == y_lo:
        pad = abs(y_lo) * 0.1 or 1.0
        y_lo, y_hi = y_lo - pad, y_hi + pad
    else:
        pad = (y_hi - y_lo) * 0.05
        y_lo, y_hi = y_lo - pad, y_hi + pad

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(x):
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return MARGIN_T + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH:.0f}" '
        f'height="{HEIGHT:.0f}" viewBox="0 0 {WIDTH:.0f} {HEIGHT:.0f}">',
        f'<rect width="{WIDTH:.0f}" height="{HEIGHT:.0f}" fill="#ffffff"/>',
    ]
    if title:
        parts.append(_text(f"{WIDTH / 2:.1f}", "20", title, 14, "middle"))
    # axes
    x0, y0 = MARGIN_L, MARGIN_T + plot_h
    parts += [_line(x0, y0, MARGIN_L + plot_w, y0), _line(x0, MARGIN_T, x0, y0)]
    for tx in _ticks(x_lo, x_hi):
        cx = px(tx)
        parts += [_line(cx, y0, cx, y0 + 5),
                  _text(f"{cx:.2f}", f"{y0 + 18:.2f}", _fmt_tick(tx), 11, "middle")]
    for ty in _ticks(y_lo, y_hi):
        cy = py(ty)
        parts += [_line(x0 - 5, cy, x0, cy),
                  _text(f"{x0 - 8:.2f}", f"{cy + 4:.2f}", _fmt_tick(ty), 11, "end")]
    parts.append(_text(f"{MARGIN_L + plot_w / 2:.1f}", f"{HEIGHT - 10:.1f}", x_name, 12,
                       "middle"))
    for i, (name, pts) in enumerate(series.items()):
        color = PALETTE[i % len(PALETTE)]
        coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in pts)
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{coords}"/>'
        )
        ly = MARGIN_T + 14.0 + 16.0 * i
        lx = MARGIN_L + plot_w - 150.0
        parts += [_line(lx, ly - 4, lx + 22, ly - 4, color, "1.5"),
                  _text(f"{lx + 28:.2f}", f"{ly:.2f}", name, 11)]
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_svg_plots(csv_path: str, specs) -> list[str]:
    """Render each PlotSpec from the CSV into its directory; returns the paths.

    Every referenced column must exist, and every series must contribute
    at least one point, otherwise nothing is written and the offending
    column is named.
    """
    header, rows = _read_table(csv_path)
    out_dir = os.path.dirname(csv_path) or "."
    written = []
    for spec in specs:
        xi = _column(header, spec.x, csv_path)
        yidx = {name: _column(header, name, csv_path) for name in spec.ys}
        if spec.where is not None:
            wi = _column(header, spec.where[0], csv_path)
        if spec.exclude is not None:
            ei = _column(header, spec.exclude[0], csv_path)
        series: dict[str, list[tuple[float, float]]] = {n: [] for n in spec.ys}
        for row in rows:
            if spec.where is not None and row[wi] != spec.where[1]:
                continue
            if spec.exclude is not None and row[ei] == spec.exclude[1]:
                continue
            if not row[xi]:
                continue
            x = float(row[xi])
            for name, yi in yidx.items():
                if row[yi]:
                    series[name].append((x, float(row[yi])))
        for name, pts in series.items():
            if not pts:
                raise InvalidArgumentError(
                    f"{csv_path}: series {name!r} has no points for {spec.out_name}"
                )
        svg = _svg_for_series(series, spec.x, spec.title)
        path = os.path.join(out_dir, spec.out_name)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(svg)
        written.append(path)
    return written

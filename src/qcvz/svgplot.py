"""Dependency-free SVG emission for line plots and heatmaps.

Output is deterministic for a fixed CSV input: fixed canvas, fixed float
formatting, no timestamps.
"""
from __future__ import annotations

import csv
import math
from pathlib import Path

from .signals import NumericError

WIDTH, HEIGHT = 720, 480
MARGIN = 60

# Five-stop blue-to-yellow colormap for heatmaps.
_STOPS = [
    (68, 1, 84),
    (59, 82, 139),
    (33, 145, 140),
    (94, 201, 98),
    (253, 231, 37),
]


class PlotError(NumericError, ValueError):
    """CSV schema does not match the requested plot kind."""


def _fmt(x: float) -> str:
    return f"{x:.3f}"


def _color(v: float) -> str:
    v = min(max(v, 0.0), 1.0)
    pos = v * (len(_STOPS) - 1)
    i = min(int(pos), len(_STOPS) - 2)
    f = pos - i
    r, g, b = (
        round(a + f * (b_ - a)) for a, b_ in zip(_STOPS[i], _STOPS[i + 1])
    )
    return f"#{r:02x}{g:02x}{b:02x}"


def _read_csv(path: str | Path, n_cols: int) -> tuple[list[str], list[list[float]]]:
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise PlotError(f"cannot read {path}: {exc}") from exc
    if not rows or len(rows) < 2:
        raise PlotError(f"{path}: empty CSV")
    header = rows[0]
    if len(header) != n_cols:
        raise PlotError(f"{path}: expected {n_cols} columns, found {len(header)}")
    try:
        data = [[float(v) for v in r] for r in rows[1:] if r]
    except ValueError as exc:
        raise PlotError(f"{path}: non-numeric cell: {exc}") from exc
    for r in data:
        if len(r) != n_cols or not all(map(math.isfinite, r)):
            raise PlotError(f"{path}: row {r} is not {n_cols} finite numbers")
    return header, data


def _svg(body: list[str]) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">\n'
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>\n'
    )
    return head + "\n".join(body) + "\n</svg>\n"


def _axes(xlab: str, ylab: str, xmin, xmax, ymin, ymax) -> list[str]:
    x0, y0 = MARGIN, HEIGHT - MARGIN
    x1, y1 = WIDTH - MARGIN, MARGIN
    return [
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>',
        f'<text x="{(x0 + x1) // 2}" y="{HEIGHT - 16}" text-anchor="middle" '
        f'font-size="14">{xlab}</text>',
        f'<text x="18" y="{(y0 + y1) // 2}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 18 {(y0 + y1) // 2})">{ylab}</text>',
        f'<text x="{x0}" y="{y0 + 18}" font-size="11">{xmin:.6g}</text>',
        f'<text x="{x1}" y="{y0 + 18}" text-anchor="end" font-size="11">{xmax:.6g}</text>',
        f'<text x="{x0 - 6}" y="{y0}" text-anchor="end" font-size="11">{ymin:.6g}</text>',
        f'<text x="{x0 - 6}" y="{y1 + 4}" text-anchor="end" font-size="11">{ymax:.6g}</text>',
    ]


def line_plot(csv_path: str | Path, svg_path: str | Path) -> Path:
    """Two-column CSV (x, y) to a polyline plot."""
    header, data = _read_csv(csv_path, 2)
    xs = [r[0] for r in data]
    ys = [r[1] for r in data]
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    xspan = (xmax - xmin) or 1.0
    yspan = (ymax - ymin) or 1.0
    pts = " ".join(
        f"{_fmt(MARGIN + (x - xmin) / xspan * (WIDTH - 2 * MARGIN))},"
        f"{_fmt(HEIGHT - MARGIN - (y - ymin) / yspan * (HEIGHT - 2 * MARGIN))}"
        for x, y in zip(xs, ys)
    )
    body = _axes(header[0], header[1], xmin, xmax, ymin, ymax)
    body.append(f'<polyline points="{pts}" fill="none" stroke="#c22" stroke-width="1.5"/>')
    svg_path = Path(svg_path)
    svg_path.write_text(_svg(body))
    return svg_path


def heatmap(csv_path: str | Path, svg_path: str | Path) -> Path:
    """Three-column CSV (x, y, value) on a rectangular grid to a heatmap."""
    header, data = _read_csv(csv_path, 3)
    xs = sorted({r[0] for r in data})
    ys = sorted({r[1] for r in data})
    vals = {(r[0], r[1]): r[2] for r in data}
    if not len(xs) * len(ys) == len(vals) == len(data):
        raise PlotError(f"{csv_path}: rows do not form a full rectangular grid")
    vmin = min(v for v in vals.values())
    vmax = max(v for v in vals.values())
    vspan = (vmax - vmin) or 1.0
    cw = (WIDTH - 2 * MARGIN) / len(xs)
    ch = (HEIGHT - 2 * MARGIN) / len(ys)
    body = _axes(header[0], header[1], xs[0], xs[-1], ys[0], ys[-1])
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            v = (vals[(x, y)] - vmin) / vspan
            px = MARGIN + i * cw
            py = HEIGHT - MARGIN - (j + 1) * ch
            body.append(
                f'<rect x="{_fmt(px)}" y="{_fmt(py)}" width="{_fmt(cw + 0.5)}" '
                f'height="{_fmt(ch + 0.5)}" fill="{_color(v)}"/>'
            )
    svg_path = Path(svg_path)
    svg_path.write_text(_svg(body))
    return svg_path


def emit_plot(csv_path: str | Path, kind: str, svg_path: str | Path | None = None) -> Path:
    """Render a CSV artifact as a self-contained SVG next to it."""
    csv_path = Path(csv_path)
    if svg_path is None:
        svg_path = csv_path.with_suffix(".svg")
    if kind == "line":
        return line_plot(csv_path, svg_path)
    if kind == "heatmap":
        return heatmap(csv_path, svg_path)
    raise PlotError(f"unknown plot kind {kind!r}")

"""Minimal self-contained SVG charts for run artifacts.

Deterministic text output: same data, same bytes.  Covers the three
shapes the lab emits: line charts, grouped bar charts and an occupancy
grid overlay with paths.
"""

from __future__ import annotations

import math

import numpy as np

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
WIDTH, HEIGHT = 720, 480
MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, MARGIN_BOTTOM = 64, 16, 36, 46
TICK_COUNT = 6  # ticks an axis aims for
STROKE_WIDTH = 1.5  # of every chart line


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _ticks(lo: float, hi: float) -> list[float]:
    """Round tick positions covering [lo, hi].

    Ticks are counted by index, so a range a few ulps wide, where a tick
    plus the step is the same tick, still gets a bounded list.  Ticks
    are rounded to 12 decimals and each is returned once, so a range too
    narrow to split at that resolution gets a single tick.  A range so
    narrow that the step's power of ten underflows to 0 is ticked as an
    empty one.
    """
    intervals = TICK_COUNT - 1
    if not (hi - lo) / intervals > 1e-323:  # 10.0 ** -324 == 0.0
        hi = lo + 1.0
    raw = (hi - lo) / intervals
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if step >= raw:
            break
    last = math.floor(hi / step + 1e-12)
    # + 0.0 makes a tick that rounds to -0.0 the same tick as 0.0.
    ticks = (round(k * step, 12) + 0.0 for k in range(math.ceil(lo / step), last + 1))
    return list(dict.fromkeys(ticks))


def _axis_ticks(lo: float, hi: float) -> list[float]:
    """The round ticks inside [lo, hi], or its midpoint when none is.

    A range between two 12-decimal ticks holds no round tick, and an
    axis draws at least one.
    """
    inside = [tick for tick in _ticks(lo, hi) if lo <= tick <= hi]
    return inside or [0.5 * lo + 0.5 * hi]


class _Canvas:
    def __init__(self, title: str):
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
            f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
            f'<text x="{WIDTH / 2}" y="22" text-anchor="middle" '
            f'font-family="sans-serif" font-size="15">{title}</text>',
        ]

    def add(self, fragment: str) -> None:
        self.parts.append(fragment)

    def write(self, path) -> None:
        self.parts.append("</svg>")
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write("\n".join(self.parts) + "\n")


class _Frame:
    """Maps data coordinates into the plot viewport."""

    def __init__(self, xlim, ylim, equal_aspect=False):
        self.x0, self.x1 = xlim
        self.y0, self.y1 = ylim
        # Adding 1 alone would leave a range at 1e17 flat: 1e17 + 1 == 1e17.
        if self.x1 <= self.x0:
            self.x1 = self.x0 + max(1.0, 1e-6 * abs(self.x0))
        if self.y1 <= self.y0:
            self.y1 = self.y0 + max(1.0, 1e-6 * abs(self.y0))
        self.left = MARGIN_LEFT
        self.right = WIDTH - MARGIN_RIGHT
        self.top = MARGIN_TOP
        self.bottom = HEIGHT - MARGIN_BOTTOM
        if equal_aspect:
            sx = (self.right - self.left) / (self.x1 - self.x0)
            sy = (self.bottom - self.top) / (self.y1 - self.y0)
            s = min(sx, sy)
            self.right = self.left + s * (self.x1 - self.x0)
            self.bottom = self.top + s * (self.y1 - self.y0)

    def px(self, x: float) -> float:
        t = (x - self.x0) / (self.x1 - self.x0)
        return self.left + t * (self.right - self.left)

    def py(self, y: float) -> float:
        t = (y - self.y0) / (self.y1 - self.y0)
        return self.bottom - t * (self.bottom - self.top)

    def axes_svg(self, xlabel: str, ylabel: str) -> str:
        parts = [
            f'<rect x="{self.left}" y="{self.top}" width="{self.right - self.left}" '
            f'height="{self.bottom - self.top}" fill="none" stroke="#444"/>'
        ]
        for tick in _axis_ticks(self.x0, self.x1):
            x = self.px(tick)
            parts.append(
                f'<line x1="{_fmt(x)}" y1="{self.bottom}" x2="{_fmt(x)}" '
                f'y2="{self.bottom + 4}" stroke="#444"/>'
            )
            parts.append(
                f'<text x="{_fmt(x)}" y="{self.bottom + 17}" text-anchor="middle" '
                f'font-family="sans-serif" font-size="11">{tick:g}</text>'
            )
        for tick in _axis_ticks(self.y0, self.y1):
            y = self.py(tick)
            parts.append(
                f'<line x1="{self.left - 4}" y1="{_fmt(y)}" x2="{self.left}" '
                f'y2="{_fmt(y)}" stroke="#444"/>'
            )
            parts.append(
                f'<text x="{self.left - 7}" y="{_fmt(y + 3.5)}" text-anchor="end" '
                f'font-family="sans-serif" font-size="11">{tick:g}</text>'
            )
        parts.append(
            f'<text x="{(self.left + self.right) / 2}" y="{HEIGHT - 10}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="12">{xlabel}</text>'
        )
        parts.append(
            f'<text x="16" y="{(self.top + self.bottom) / 2}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12" '
            f'transform="rotate(-90 16 {(self.top + self.bottom) / 2})">{ylabel}</text>'
        )
        return "\n".join(parts)

    def legend_svg(self, labels: list[str], colors: list[str]) -> str:
        parts = []
        x = self.left + 10
        y = self.top + 16
        for label, color in zip(labels, colors):
            parts.append(
                f'<line x1="{x}" y1="{y - 4}" x2="{x + 22}" y2="{y - 4}" '
                f'stroke="{color}" stroke-width="2"/>'
            )
            parts.append(
                f'<text x="{x + 27}" y="{y}" font-family="sans-serif" '
                f'font-size="11">{label}</text>'
            )
            y += 16
        return "\n".join(parts)


def _polyline(frame: _Frame, xs, ys, color: str) -> str:
    pts = " ".join(
        f"{_fmt(frame.px(float(x)))},{_fmt(frame.py(float(y)))}"
        for x, y in zip(xs, ys)
    )
    return (
        f'<polyline points="{pts}" fill="none" stroke="{color}" '
        f'stroke-width="{STROKE_WIDTH}"/>'
    )


def line_chart(path, curves, title="", xlabel="", ylabel="", equal_aspect=False):
    """Write a multi-series line chart.

    curves: list of (label, xs, ys) with array-likes of equal length.
    """
    xs_all = np.concatenate([np.asarray(c[1], dtype=float) for c in curves])
    ys_all = np.concatenate([np.asarray(c[2], dtype=float) for c in curves])
    pad_x = 0.02 * (xs_all.max() - xs_all.min() or 1.0)
    pad_y = 0.05 * (ys_all.max() - ys_all.min() or 1.0)
    frame = _Frame(
        (xs_all.min() - pad_x, xs_all.max() + pad_x),
        (ys_all.min() - pad_y, ys_all.max() + pad_y),
        equal_aspect=equal_aspect,
    )
    canvas = _Canvas(title)
    canvas.add(frame.axes_svg(xlabel, ylabel))
    labels, colors = [], []
    for i, (label, xs, ys) in enumerate(curves):
        color = PALETTE[i % len(PALETTE)]
        canvas.add(_polyline(frame, xs, ys, color))
        labels.append(label)
        colors.append(color)
    canvas.add(frame.legend_svg(labels, colors))
    canvas.write(path)


def bar_chart(path, categories, series, title="", xlabel="", ylabel=""):
    """Write a grouped bar chart.

    categories: x-axis group names; series: list of (label, values).
    """
    n_groups = len(categories)
    n_series = len(series)
    values = np.array([s[1] for s in series], dtype=float)
    top = float(values.max()) * 1.1 if values.size else 1.0
    frame = _Frame((0.0, float(n_groups)), (0.0, top))
    canvas = _Canvas(title)
    canvas.add(frame.axes_svg(xlabel, ylabel))
    slot = 1.0 / (n_series + 1)
    colors = [PALETTE[i % len(PALETTE)] for i in range(n_series)]
    for i, (label, vals) in enumerate(series):
        color = colors[i]
        for j, value in enumerate(vals):
            x0 = frame.px(j + slot * (i + 0.5))
            x1 = frame.px(j + slot * (i + 1.5))
            y0 = frame.py(float(value))
            canvas.add(
                f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" width="{_fmt(x1 - x0)}" '
                f'height="{_fmt(frame.py(0.0) - y0)}" fill="{color}"/>'
            )
    for j, name in enumerate(categories):
        canvas.add(
            f'<text x="{_fmt(frame.px(j + 0.5))}" y="{frame.bottom + 17}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="11">{name}</text>'
        )
    canvas.add(frame.legend_svg([s[0] for s in series], colors))
    canvas.write(path)


def grid_overlay(path, grid, paths, title=""):
    """Write an occupancy grid with obstacle cells and path polylines.

    paths: list of (label, points) with points as (n, 2) world arrays.
    """
    res = grid.resolution
    xlim = (-res, grid.width * res)
    ylim = (-res, grid.height * res)
    frame = _Frame(xlim, ylim, equal_aspect=True)
    canvas = _Canvas(title)
    canvas.add(frame.axes_svg("x [m]", "y [m]"))
    for row in range(grid.height):
        for col in range(grid.width):
            if grid.cells[row, col]:
                cx, cy = grid.cell_to_world((col, row))
                px = frame.px(cx - 0.5 * res)
                py = frame.py(cy + 0.5 * res)
                w = frame.px(cx + 0.5 * res) - px
                h = frame.py(cy - 0.5 * res) - py
                canvas.add(
                    f'<rect x="{_fmt(px)}" y="{_fmt(py)}" width="{_fmt(w)}" '
                    f'height="{_fmt(h)}" fill="#888"/>'
                )
    labels, colors = [], []
    for i, (label, points) in enumerate(paths):
        color = PALETTE[i % len(PALETTE)]
        points = np.asarray(points, dtype=float)
        canvas.add(_polyline(frame, points[:, 0], points[:, 1], color))
        labels.append(label)
        colors.append(color)
    canvas.add(frame.legend_svg(labels, colors))
    canvas.write(path)

"""Minimal self-contained SVG charts (no plotting dependency).

Output is deterministic: fixed canvas, fixed tick count, and all numbers
printed as %.6g (bar labels as str), so identical data yields
byte-identical files. The points of a line chart and the marks of a bar
chart are rows of _text.rows, the same text laid out as bytes from
_text.TEMPLATE_MIN rows on; the five ticks are formatted by `%`.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterator

import numpy as np

from . import _text

WIDTH, HEIGHT = 720, 460
MARGIN_LEFT, MARGIN_RIGHT = 80, 24
MARGIN_TOP, MARGIN_BOTTOM = 48, 56
PLOT_W = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
PLOT_H = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM


def escape(text: str) -> str:
    """xml.sax.saxutils.escape: `&` first, then `>` and `<`."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _scale(values: np.ndarray, lo, hi, pixels) -> np.ndarray:
    if hi == lo:
        return np.zeros(values.shape)
    return (values - lo) / (hi - lo) * pixels


def _frame(title, comment, marks, x_lo, x_hi, y_hi, x_label, y_label) -> Iterator[str]:
    """The head, axes and ticks, then the marks, then `</svg>`; one element per line."""
    x0, y0, mid = MARGIN_LEFT, MARGIN_TOP + PLOT_H, MARGIN_TOP + PLOT_H / 2
    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">\n<!-- {escape(comment)} -->\n'
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>\n'
        f'<text x="{WIDTH / 2:.6g}" y="28" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{escape(title)}</text>\n'
        f'<line x1="{x0}" y1="{y0}" x2="{x0 + PLOT_W}" y2="{y0}" stroke="black"/>\n'
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{MARGIN_TOP}" stroke="black"/>\n'
        f'<text x="{x0 + PLOT_W / 2:.6g}" y="{HEIGHT - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{escape(x_label)}</text>\n'
        f'<text x="20" y="{mid:.6g}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="13" transform="rotate(-90 20 {mid:.6g})">{escape(y_label)}</text>\n'
    )
    tick = (
        f'<line x1="%.6g" y1="{y0}" x2="%.6g" y2="{y0 + 5}" stroke="black"/>\n<text x="%.6g" '
        f'y="{y0 + 20}" text-anchor="middle" font-family="sans-serif" font-size="11">%.6g</text>\n'
        f'<line x1="{x0 - 5}" y1="%.6g" x2="{x0}" y2="%.6g" stroke="black"/>\n<text x="{x0 - 8}" '
        f'y="%.6g" text-anchor="end" font-family="sans-serif" font-size="11">%.6g</text>\n'
    )
    ticks = []
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        x, y = x0 + frac * PLOT_W, y0 - frac * PLOT_H
        ticks.append(tick % (x, x, x, x_lo + frac * (x_hi - x_lo), y, y, y + 4, frac * y_hi))
    return chain((head, "".join(ticks)), marks, ("</svg>\n",))


def line_chart(xs, ys, title, x_label, y_label, comment) -> Iterator[str]:
    """Polyline chart for continuous patterns."""
    xs, ys = np.asarray(xs), np.asarray(ys)
    x_lo, x_hi = xs.min().item(), xs.max().item()
    y_hi = max(ys.max().item(), 1e-300)
    px = MARGIN_LEFT + _scale(xs, x_lo, x_hi, PLOT_W)
    py = MARGIN_TOP + PLOT_H - _scale(ys, 0.0, y_hi, PLOT_H)
    head = '<polyline points="%.6g,%.6g' % (px[0], py[0])
    tail = '" fill="none" stroke="#1f6fb2" stroke-width="1.5"/>\n'
    points = _text.rows((" ", px[1:], ",", py[1:]), "%.6g")
    marks = chain((head,), points, (tail,))
    return _frame(title, comment, marks, x_lo, x_hi, y_hi, x_label, y_label)


def bar_chart(labels, values, title, x_label, y_label, comment) -> Iterator[str]:
    """Bar chart for discrete detector distributions; labels are numbers, written as str(label)."""
    values = np.asarray(values)
    count = values.size
    y_hi = max(values.max().item(), 1e-300)
    y0 = MARGIN_TOP + PLOT_H
    slot = PLOT_W / count
    width = slot * 0.7
    heights = _scale(values, 0.0, y_hi, PLOT_H)
    xs = MARGIN_LEFT + np.arange(count) * slot + (slot - width) / 2
    # str(label) of an int is its %d, and of a float its repr (%r).
    marks = _text.rows((
        '<rect x="', xs, '" y="', y0 - heights, f'" width="{width:.6g}" height="', heights,
        '" fill="#1f6fb2"/>\n<text x="', xs + width / 2, f'" y="{y0 + 34}" text-anchor="middle" '
        'font-family="sans-serif" font-size="10">', (np.asarray(labels), "%r"), "</text>\n",
    ), "%.6g")
    return _frame(title, comment, marks, 0.5, count + 0.5, y_hi, x_label, y_label)

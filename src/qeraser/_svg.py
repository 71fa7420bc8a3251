"""Minimal self-contained SVG charts (no plotting dependency).

Output is deterministic: fixed canvas, fixed tick count, and all numbers
formatted with %.6g, so identical data yields byte-identical files.
"""

from __future__ import annotations

from xml.sax.saxutils import escape

import numpy as np

WIDTH, HEIGHT = 720, 460
MARGIN_LEFT, MARGIN_RIGHT = 80, 24
MARGIN_TOP, MARGIN_BOTTOM = 48, 56
PLOT_W = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
PLOT_H = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _scale(values: np.ndarray, lo, hi, pixels) -> np.ndarray:
    if hi == lo:
        return np.zeros(values.shape)
    return (values - lo) / (hi - lo) * pixels


def _frame(title: str, comment: str, body: list[str]) -> str:
    head = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f"<!-- {escape(comment)} -->",
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.6g}" y="28" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{escape(title)}</text>',
    ]
    return "\n".join(head + body + ["</svg>"]) + "\n"


def _axes(x_lo, x_hi, y_hi, x_label, y_label) -> list[str]:
    x0, y0 = MARGIN_LEFT, MARGIN_TOP + PLOT_H
    parts = [
        f'<line x1="{x0}" y1="{y0}" x2="{x0 + PLOT_W}" y2="{y0}" stroke="black"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{MARGIN_TOP}" stroke="black"/>',
        f'<text x="{x0 + PLOT_W / 2:.6g}" y="{HEIGHT - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{escape(x_label)}</text>',
        f'<text x="20" y="{MARGIN_TOP + PLOT_H / 2:.6g}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 20 {MARGIN_TOP + PLOT_H / 2:.6g})">{escape(y_label)}</text>',
    ]
    for i in range(5):
        frac = i / 4
        x = x0 + frac * PLOT_W
        value = x_lo + frac * (x_hi - x_lo)
        parts.append(f'<line x1="{x:.6g}" y1="{y0}" x2="{x:.6g}" y2="{y0 + 5}" stroke="black"/>')
        parts.append(
            f'<text x="{x:.6g}" y="{y0 + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt(value)}</text>'
        )
        y = y0 - frac * PLOT_H
        parts.append(f'<line x1="{x0 - 5}" y1="{y:.6g}" x2="{x0}" y2="{y:.6g}" stroke="black"/>')
        parts.append(
            f'<text x="{x0 - 8}" y="{y + 4:.6g}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt(frac * y_hi)}</text>'
        )
    return parts


def line_chart(xs, ys, title, x_label, y_label, comment) -> str:
    """Polyline chart for continuous patterns."""
    xs, ys = np.asarray(xs), np.asarray(ys)
    x_lo, x_hi = xs.min().item(), xs.max().item()
    y_hi = max(ys.max().item(), 1e-300)
    y0 = MARGIN_TOP + PLOT_H
    flat = [None] * (2 * xs.size)
    flat[0::2] = (MARGIN_LEFT + _scale(xs, x_lo, x_hi, PLOT_W)).tolist()
    flat[1::2] = (y0 - _scale(ys, 0.0, y_hi, PLOT_H)).tolist()
    points = (("%.6g,%.6g " * xs.size) % tuple(flat))[:-1]
    body = _axes(x_lo, x_hi, y_hi, x_label, y_label)
    body.append(f'<polyline points="{points}" fill="none" stroke="#1f6fb2" stroke-width="1.5"/>')
    return _frame(title, comment, body)


def bar_chart(labels, values, title, x_label, y_label, comment) -> str:
    """Bar chart for discrete detector distributions."""
    labels, values = np.asarray(labels).tolist(), np.asarray(values)
    count = values.size
    y_hi = max(values.max().item(), 1e-300)
    y0 = MARGIN_TOP + PLOT_H
    slot = PLOT_W / count
    width = slot * 0.7
    body = _axes(0.5, count + 0.5, y_hi, x_label, y_label)
    for i, (label, height) in enumerate(zip(labels, _scale(values, 0.0, y_hi, PLOT_H).tolist())):
        x = MARGIN_LEFT + i * slot + (slot - width) / 2
        body.append(
            f'<rect x="{x:.6g}" y="{y0 - height:.6g}" width="{width:.6g}" '
            f'height="{height:.6g}" fill="#1f6fb2"/>'
        )
        body.append(
            f'<text x="{x + width / 2:.6g}" y="{y0 + 34}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10">{escape(str(label))}</text>'
        )
    return _frame(title, comment, body)

"""Minimal hand-rolled SVG line/scatter plots.

Numeric CSVs are the ground truth for every command; these drawings exist
for quick visual inspection only, so the implementation stays deliberately
small: linear axes, ticks, polylines, optional markers, a legend. Output
is a deterministic function of the inputs (no timestamps, no randomness).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd",
           "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f")

_W, _H = 720, 520
_ML, _MR, _MT, _MB = 72, 24, 36, 56


@dataclass
class Series:
    x: list
    y: list
    label: str = ""
    color: str | None = None
    points: bool = False     # draw markers instead of a line
    dashed: bool = False


@dataclass
class FillBand:
    """Filled region between two curves sharing an x grid."""

    x: list
    y_low: list
    y_high: list
    label: str = ""
    color: str = "#bbbbbb"
    opacity: float = 0.5


def _ticks(lo: float, hi: float, n: int = 6) -> list[float]:
    """Round tick positions covering [lo, hi]."""
    span = hi - lo
    if span <= 0:
        return [lo]
    raw = span / max(n - 1, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for m in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= m * mag:
            step = m * mag
            break
    start = math.ceil(lo / step) * step
    out = []
    t = start
    while t <= hi + 1e-9 * span:
        out.append(0.0 if abs(t) < 1e-12 * span else t)
        t += step
    return out


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def render(series: list[Series], xlabel: str, ylabel: str, title: str = "",
           bands: list[FillBand] | None = None) -> str:
    """Render data series to an SVG document string."""
    xs = [float(v) for s in series for v in s.x]
    ys = [float(v) for s in series for v in s.y]
    for b in bands or []:
        xs += [float(v) for v in b.x]
        ys += [float(v) for v in b.y_low] + [float(v) for v in b.y_high]
    if not xs:
        xs, ys = [0.0, 1.0], [0.0, 1.0]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    # open a zero-width range by 1, or by |lo| where 1 is below float spacing
    if x_hi == x_lo:
        x_hi = x_lo + 1.0 if x_lo + 1.0 != x_lo else x_lo + abs(x_lo)
    if y_hi == y_lo:
        y_hi = y_lo + 1.0 if y_lo + 1.0 != y_lo else y_lo + abs(y_lo)
    pad_x = 0.03 * (x_hi - x_lo)
    pad_y = 0.05 * (y_hi - y_lo)
    x_lo, x_hi = x_lo - pad_x, x_hi + pad_x
    y_lo, y_hi = y_lo - pad_y, y_hi + pad_y
    pw, ph = _W - _ML - _MR, _H - _MT - _MB

    def sx(v):
        return _ML + (float(v) - x_lo) / (x_hi - x_lo) * pw

    def sy(v):
        return _MT + ph - (float(v) - y_lo) / (y_hi - y_lo) * ph

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
           f'viewBox="0 0 {_W} {_H}">',
           f'<rect width="{_W}" height="{_H}" fill="white"/>']
    # axes box and ticks
    out.append(f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" '
               'fill="none" stroke="#333" stroke-width="1"/>')
    for t in _ticks(x_lo + pad_x, x_hi - pad_x):
        px = sx(t)
        out.append(f'<line x1="{px:.2f}" y1="{_MT + ph}" x2="{px:.2f}" '
                   f'y2="{_MT + ph + 5}" stroke="#333"/>')
        out.append(f'<text x="{px:.2f}" y="{_MT + ph + 18}" font-size="11" '
                   f'text-anchor="middle" font-family="sans-serif">{_fmt(t)}</text>')
    for t in _ticks(y_lo + pad_y, y_hi - pad_y):
        py = sy(t)
        out.append(f'<line x1="{_ML - 5}" y1="{py:.2f}" x2="{_ML}" '
                   f'y2="{py:.2f}" stroke="#333"/>')
        out.append(f'<text x="{_ML - 8}" y="{py + 4:.2f}" font-size="11" '
                   f'text-anchor="end" font-family="sans-serif">{_fmt(t)}</text>')
    out.append(f'<text x="{_ML + pw / 2:.2f}" y="{_H - 12}" font-size="13" '
               f'text-anchor="middle" font-family="sans-serif">{xlabel}</text>')
    out.append(f'<text x="16" y="{_MT + ph / 2:.2f}" font-size="13" '
               f'text-anchor="middle" font-family="sans-serif" '
               f'transform="rotate(-90 16 {_MT + ph / 2:.2f})">{ylabel}</text>')
    if title:
        out.append(f'<text x="{_ML + pw / 2:.2f}" y="22" font-size="14" '
                   f'text-anchor="middle" font-family="sans-serif">{title}</text>')

    for b in bands or []:
        fwd = [f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(b.x, b.y_high)]
        back = [f"{sx(x):.2f},{sy(y):.2f}"
                for x, y in zip(reversed(list(b.x)), reversed(list(b.y_low)))]
        out.append(f'<polygon points="{" ".join(fwd + back)}" fill="{b.color}" '
                   f'opacity="{b.opacity}" stroke="none"/>')

    legend = []
    for idx, s in enumerate(series):
        color = s.color or PALETTE[idx % len(PALETTE)]
        if s.points:
            for x, y in zip(s.x, s.y):
                out.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="2.5" '
                           f'fill="{color}"/>')
        else:
            pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(s.x, s.y))
            dash = ' stroke-dasharray="6 4"' if s.dashed else ""
            out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                       f'stroke-width="1.6"{dash}/>')
        if s.label:
            legend.append((s.label, color, s.points, s.dashed))
    for b in bands or []:
        if b.label:
            legend.append((b.label, b.color, True, False))

    ly = _MT + 10
    for label, color, is_pt, dashed in legend:
        if is_pt:
            out.append(f'<circle cx="{_ML + pw - 150}" cy="{ly - 4}" r="3" '
                       f'fill="{color}"/>')
        else:
            dash = ' stroke-dasharray="6 4"' if dashed else ""
            out.append(f'<line x1="{_ML + pw - 158}" y1="{ly - 4}" '
                       f'x2="{_ML + pw - 142}" y2="{ly - 4}" stroke="{color}" '
                       f'stroke-width="2"{dash}/>')
        out.append(f'<text x="{_ML + pw - 136}" y="{ly}" font-size="11" '
                   f'font-family="sans-serif">{label}</text>')
        ly += 16
    out.append("</svg>")
    return "\n".join(out) + "\n"

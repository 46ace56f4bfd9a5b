"""Small dependency-free SVG charts: BER curves and constellation scatters."""

from __future__ import annotations

import math

import numpy as np

__all__ = ["line_chart", "scatter_chart"]

_COLOR = "#1b6ca8"

_W, _H = 640, 420
_ML, _MR, _MT, _MB = 64, 24, 36, 48

# BER points at exactly zero cannot sit on a log axis; they are drawn
# pinned to this floor with an open marker instead.
_LOG_FLOOR = 1e-7


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _esc(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def line_chart(name: str, points: list[tuple[float, float, float]],
               title: str = "") -> str:
    """Log-y BER-vs-SNR chart of one curve named name; points are (x, y, ci_halfwidth)."""
    if not points:
        raise ValueError("nothing to plot")
    xs = [p[0] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0
    pos = [p[1] for p in points if p[1] > 0]
    y_min = min(pos) if pos else _LOG_FLOOR
    y_lo = 10 ** math.floor(math.log10(max(y_min, _LOG_FLOOR)))
    y_hi = 1.0

    plot_w = _W - _ML - _MR
    plot_h = _H - _MT - _MB

    def sx(x: float) -> float:
        return _ML + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        y = max(y, y_lo)
        frac = (math.log10(y) - math.log10(y_lo)) / (math.log10(y_hi) - math.log10(y_lo))
        return _MT + (1 - frac) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#444"/>',
    ]
    if title:
        parts.append(f'<text x="{_W // 2}" y="22" text-anchor="middle" '
                     f'font-size="14">{_esc(title)}</text>')

    decade = int(round(math.log10(y_lo)))
    for e in range(decade, 1):
        y = sy(10.0 ** e)
        parts.append(f'<line x1="{_ML}" y1="{_fmt(y)}" x2="{_W - _MR}" '
                     f'y2="{_fmt(y)}" stroke="#ddd"/>')
        parts.append(f'<text x="{_ML - 6}" y="{_fmt(y + 4)}" '
                     f'text-anchor="end">1e{e}</text>')
    for x in sorted(set(xs)):
        px = sx(x)
        parts.append(f'<line x1="{_fmt(px)}" y1="{_MT}" x2="{_fmt(px)}" '
                     f'y2="{_H - _MB}" stroke="#eee"/>')
        parts.append(f'<text x="{_fmt(px)}" y="{_H - _MB + 16}" '
                     f'text-anchor="middle">{x:g}</text>')
    parts.append(f'<text x="{_W // 2}" y="{_H - 10}" '
                 'text-anchor="middle">SNR (dB)</text>')
    parts.append(f'<text x="16" y="{_H // 2}" text-anchor="middle" '
                 f'transform="rotate(-90 16 {_H // 2})">BER</text>')

    coords = [(sx(x), sy(y)) for x, y, _ in points]
    path = " ".join(f"{'M' if j == 0 else 'L'}{_fmt(px)},{_fmt(py)}"
                    for j, (px, py) in enumerate(coords))
    parts.append(f'<path d="{path}" fill="none" stroke="{_COLOR}" '
                 'stroke-width="1.5"/>')
    for (x, y, ci), (px, py) in zip(points, coords):
        if ci > 0 and y > 0:
            y_top = sy(y + ci)
            y_bot = sy(max(y - ci, y_lo))
            parts.append(f'<line x1="{_fmt(px)}" y1="{_fmt(y_top)}" '
                         f'x2="{_fmt(px)}" y2="{_fmt(y_bot)}" '
                         f'stroke="{_COLOR}"/>')
        fill = _COLOR if y > 0 else "white"
        parts.append(f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="3" '
                     f'fill="{fill}" stroke="{_COLOR}"/>')
    ly = _MT + 16
    parts.append(f'<line x1="{_W - _MR - 130}" y1="{ly - 4}" '
                 f'x2="{_W - _MR - 104}" y2="{ly - 4}" stroke="{_COLOR}" '
                 'stroke-width="1.5"/>')
    parts.append(f'<text x="{_W - _MR - 98}" y="{ly}">{_esc(name)}</text>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def scatter_chart(points: np.ndarray, title: str = "",
                  reference: np.ndarray | None = None) -> str:
    """Square IQ scatter scaled to its points; reference constellation drawn as crosses."""
    pts = np.asarray(points).ravel()
    if pts.size == 0:
        raise ValueError("nothing to plot")
    if pts.size > 8192:
        pts = pts[:8192]
    spread = float(np.max(np.abs(np.concatenate([pts.real, pts.imag]))))
    if reference is not None:
        spread = max(spread, float(np.max(np.abs(reference.real))),
                     float(np.max(np.abs(reference.imag))))
    # Every point lies strictly inside the axes, so none is clipped.
    limit = 1.2 * max(spread, 1e-6)

    side = 420
    margin = 30
    plot = side - 2 * margin

    def sx(v: float) -> float:
        return margin + (v + limit) / (2 * limit) * plot

    def sy(v: float) -> float:
        return margin + (limit - v) / (2 * limit) * plot

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{side}" height="{side}" '
        f'viewBox="0 0 {side} {side}" font-family="sans-serif" font-size="12">',
        f'<rect width="{side}" height="{side}" fill="white"/>',
        f'<rect x="{margin}" y="{margin}" width="{plot}" height="{plot}" '
        'fill="none" stroke="#444"/>',
        f'<line x1="{margin}" y1="{_fmt(sy(0))}" x2="{side - margin}" '
        f'y2="{_fmt(sy(0))}" stroke="#ccc"/>',
        f'<line x1="{_fmt(sx(0))}" y1="{margin}" x2="{_fmt(sx(0))}" '
        f'y2="{side - margin}" stroke="#ccc"/>',
    ]
    if title:
        parts.append(f'<text x="{side // 2}" y="20" text-anchor="middle" '
                     f'font-size="14">{_esc(title)}</text>')
    # sx and sy over all points at once, in the same float64 operations.
    xs = margin + (pts.real + limit) / (2 * limit) * plot
    ys = margin + (limit - pts.imag) / (2 * limit) * plot
    parts.extend(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" '
                 f'r="1.5" fill="{_COLOR}" fill-opacity="0.5"/>'
                 for x, y in zip(xs.tolist(), ys.tolist()))
    if reference is not None:
        for rp in np.asarray(reference).ravel():
            cx, cy = sx(rp.real), sy(rp.imag)
            parts.append(f'<path d="M{_fmt(cx - 4)},{_fmt(cy)} H{_fmt(cx + 4)} '
                         f'M{_fmt(cx)},{_fmt(cy - 4)} V{_fmt(cy + 4)}" '
                         'stroke="#d1495b" stroke-width="1.5"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"

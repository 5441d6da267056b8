"""The phase-error band plot: a mean curve over 0..100% of the gait cycle,
its shaded error band, and a dashed stance/swing divider.

Hand-rolled so that two runs with identical inputs yield byte-identical
files; no plotting library injects ids or timestamps.
"""

from __future__ import annotations

import numpy as np

_WIDTH = 640.0
_HEIGHT = 400.0
_LEFT, _RIGHT, _TOP, _BOTTOM = 62.0, 16.0, 34.0, 48.0

_NICE_STEPS = (1.0, 2.0, 2.5, 5.0, 10.0)

STANCE_SWING_BOUNDARY = 60.0  # percent of the gait cycle


def _nice_ceiling(value: float) -> float:
    """Smallest 1/2/2.5/5 x 10^k at or above value."""
    if value <= 0.0:
        return 1.0
    exp = np.floor(np.log10(value))
    base = 10.0**exp
    for step in _NICE_STEPS:
        if step * base >= value * (1.0 - 1e-12):
            return step * base
    return 10.0 * base


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _points(xs: list[float], ys: list[float]) -> list[str]:
    """"x,y" pairs with _fmt's two decimals."""
    return [f"{a:.2f},{b:.2f}" for a, b in zip(xs, ys)]


def band_plot_svg(mean: np.ndarray, half_band: np.ndarray, title: str, y_label: str) -> str:
    """Plot of mean +-half_band, its samples evenly spread over 0..100% gait phase."""
    mean = np.asarray(mean, dtype=np.float64)
    half_band = np.asarray(half_band, dtype=np.float64)
    y_hi = _nice_ceiling(float(np.max(mean + half_band)) * 1.05)

    def px(v):
        return _LEFT + v / 100.0 * (_WIDTH - _LEFT - _RIGHT)

    def py(v):
        return _HEIGHT - _BOTTOM - v / y_hi * (_HEIGHT - _TOP - _BOTTOM)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH:.0f}" '
        f'height="{_HEIGHT:.0f}" viewBox="0 0 {_WIDTH:.0f} {_HEIGHT:.0f}">',
        f'<rect width="{_WIDTH:.0f}" height="{_HEIGHT:.0f}" fill="white"/>',
    ]

    def text(x, y, anchor, size, body, extra=""):
        """One <text>; a float coordinate is written by _fmt, a str one as it is."""
        x, y = (v if isinstance(v, str) else _fmt(v) for v in (x, y))
        parts.append(
            f'<text x="{x}" y="{y}" text-anchor="{anchor}" '
            f'font-family="sans-serif" font-size="{size}"{extra}>{body}</text>'
        )

    def line(x1, y1, x2, y2, stroke, extra=""):
        parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{stroke}" stroke-width="1"{extra}/>'
        )

    text(f"{_WIDTH / 2:.0f}", "20", "middle", 14, title)
    # axes + ticks
    n_yticks = 5
    for i in range(n_yticks + 1):
        v = y_hi * i / n_yticks
        line(_LEFT, py(v), _WIDTH - _RIGHT, py(v), "#dddddd")
        text(_LEFT - 6, py(v) + 4, "end", 11, f"{v:.4g}")
    for v in np.linspace(0.0, 100.0, 6):
        text(px(v), _HEIGHT - _BOTTOM + 16, "middle", 11, f"{v:.4g}")
    divider = px(STANCE_SWING_BOUNDARY)
    line(divider, py(y_hi), divider, py(0.0), "#888888", ' stroke-dasharray="5,4"')
    text(divider - 6, _TOP + 12, "end", 11, "stance", ' fill="#666666"')
    text(divider + 6, _TOP + 12, "start", 11, "swing", ' fill="#666666"')
    # error band and mean line; px and py map whole arrays elementwise
    xs = px(np.linspace(0.0, 100.0, len(mean))).tolist()
    upper = _points(xs, py(mean + half_band).tolist())
    floor = py(np.maximum(mean - half_band, 0.0)).tolist()
    lower = _points(xs[::-1], floor[::-1])
    parts.append(
        '<polygon points="' + " ".join(upper + lower) + '" fill="#aec7e8" fill-opacity="0.55"/>'
    )
    pts = " ".join(_points(xs, py(mean).tolist()))
    parts.append(f'<polyline points="{pts}" fill="none" stroke="#1f77b4" stroke-width="1.8"/>')
    # frame + labels
    parts.append(
        f'<rect x="{_fmt(_LEFT)}" y="{_fmt(_TOP)}" width="{_fmt(_WIDTH - _LEFT - _RIGHT)}" '
        f'height="{_fmt(_HEIGHT - _TOP - _BOTTOM)}" fill="none" stroke="#333333" stroke-width="1"/>'
    )
    text((_LEFT + _WIDTH - _RIGHT) / 2, _HEIGHT - 10, "middle", 12, "gait phase (%)")
    mid = _fmt((_TOP + _HEIGHT - _BOTTOM) / 2)
    text("16", mid, "middle", 12, y_label, f' transform="rotate(-90 16 {mid})"')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"

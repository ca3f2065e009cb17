"""Deterministic SVG time-space diagrams with no plotting dependency.

Output is plain SVG text with fixed coordinate formatting, so one run
renders to byte-identical bytes every time.  Time runs along x,
position along y; each vehicle is one polyline with small squares at
its first and last recorded states.  Ramp positions appear as dashed
guide lines (dash-dot for entries, dotted for exits).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Callable, Optional

import numpy as np

from .trajectory import Trajectory

WIDTH = 900.0
HEIGHT = 520.0
MARGIN_LEFT = 62.0
MARGIN_RIGHT = 16.0
MARGIN_TOP = 22.0
MARGIN_BOTTOM = 44.0

PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#17becf", "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22",
)


def _ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    span = hi - lo
    if span <= 0.0:
        return [lo]
    step = 10.0 ** math.floor(math.log10(span / target))
    for mult in (1.0, 2.0, 5.0, 10.0, 20.0):
        if span / (mult * step) <= target:
            step = mult * step
            break
    out = []
    x = math.ceil(lo / step) * step
    while x <= hi + 1e-9 * span:
        out.append(round(x, 10))
        x += step
    return out


def _fmt(x: float) -> str:
    return f"{x:.2f}".rstrip("0").rstrip(".")


def _vehicle_paths(tr: Trajectory, lo_t: float, hi_t: float,
                   sx: Callable, sy: Callable) -> list[str]:
    """Each vehicle's polyline through its points in [lo_t, hi_t], then
    the squares at its first and last one, in ascending vehicle id.

    The rows of the steps in the window are grouped per vehicle by one
    stable sort on the id, which keeps each vehicle's rows in time
    order.  ``sy`` maps the window's positions as one array, each
    step's x is formatted once, and each vehicle's points are formatted
    only while its polyline is joined.
    """
    k0 = bisect_left(tr.times, lo_t)
    k1 = bisect_right(tr.times, hi_t)
    start, stop = tr.offsets[k0], tr.offsets[k1]
    xs = [sx(time) for time in tr.times[k0:k1]]
    x_texts = np.array([_fmt(x) + "," for x in xs], dtype=object)
    counts = np.diff(np.frombuffer(tr.offsets[k0:k1 + 1], np.int64))
    vids = np.frombuffer(tr.vehicle_id[start:stop], np.int64)
    order = np.argsort(vids, kind="stable")
    vids = vids[order]
    steps = np.repeat(np.arange(k1 - k0), counts)[order]
    row_x_texts = x_texts[steps].tolist()
    y = sy(np.frombuffer(tr.p[start:stop]))[order]
    new = np.ones(len(vids), np.bool_)
    new[1:] = vids[1:] != vids[:-1]
    firsts = np.flatnonzero(new).tolist()
    parts = []
    for a, b in zip(firsts, firsts[1:] + [len(vids)]):
        ys = y[a:b].tolist()
        points = " ".join(map(str.__add__, row_x_texts[a:b], map(_fmt, ys)))
        color = PALETTE[int(vids[a]) % len(PALETTE)]
        parts.append(
            f'<polyline points="{points}" fill="none" '
            f'stroke="{color}" stroke-width="1.1"/>'
        )
        for x, y_end, fill in ((xs[steps[a]], ys[0], color),
                               (xs[steps[b - 1]], ys[-1], "none")):
            parts.append(
                f'<rect x="{_fmt(x - 2.2)}" y="{_fmt(y_end - 2.2)}" '
                f'width="4.4" height="4.4" fill="{fill}" '
                f'stroke="{color}" stroke-width="0.9"/>'
            )
    return parts


def render_timespace(tr: Trajectory, t0: Optional[float] = None,
                     t1: Optional[float] = None) -> str:
    """Render the run over [t0, t1], by default its whole horizon [0,
    ``tr.params.duration``], as SVG text."""
    params = tr.params
    lo_t = 0.0 if t0 is None else t0
    hi_t = params.duration if t1 is None else t1
    if hi_t <= lo_t:
        raise ValueError(f"empty time window [{lo_t}, {hi_t}]")
    lo_p, hi_p = 0.0, params.road.length

    x_span = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    y_span = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def sx(t: float) -> float:
        return MARGIN_LEFT + (t - lo_t) / (hi_t - lo_t) * x_span

    def sy(p: float) -> float:
        return HEIGHT - MARGIN_BOTTOM - (p - lo_p) / (hi_p - lo_p) * y_span

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{_fmt(WIDTH)}" height="{_fmt(HEIGHT)}" '
        f'viewBox="0 0 {_fmt(WIDTH)} {_fmt(HEIGHT)}">',
        f'<rect width="{_fmt(WIDTH)}" height="{_fmt(HEIGHT)}" fill="#ffffff"/>',
    ]

    for p in params.road.on_ramps:
        y = _fmt(sy(p))
        parts.append(
            f'<line x1="{_fmt(MARGIN_LEFT)}" y1="{y}" '
            f'x2="{_fmt(WIDTH - MARGIN_RIGHT)}" y2="{y}" '
            f'stroke="#999999" stroke-width="0.8" '
            f'stroke-dasharray="8 3 2 3"/>'
        )
    for p in params.road.off_ramps:
        y = _fmt(sy(p))
        parts.append(
            f'<line x1="{_fmt(MARGIN_LEFT)}" y1="{y}" '
            f'x2="{_fmt(WIDTH - MARGIN_RIGHT)}" y2="{y}" '
            f'stroke="#bbbbbb" stroke-width="0.8" stroke-dasharray="2 4"/>'
        )

    parts += _vehicle_paths(tr, lo_t, hi_t, sx, sy)

    axis = '#333333'
    parts.append(
        f'<line x1="{_fmt(MARGIN_LEFT)}" y1="{_fmt(HEIGHT - MARGIN_BOTTOM)}" '
        f'x2="{_fmt(WIDTH - MARGIN_RIGHT)}" '
        f'y2="{_fmt(HEIGHT - MARGIN_BOTTOM)}" stroke="{axis}"/>'
    )
    parts.append(
        f'<line x1="{_fmt(MARGIN_LEFT)}" y1="{_fmt(MARGIN_TOP)}" '
        f'x2="{_fmt(MARGIN_LEFT)}" y2="{_fmt(HEIGHT - MARGIN_BOTTOM)}" '
        f'stroke="{axis}"/>'
    )
    y0 = HEIGHT - MARGIN_BOTTOM
    for t in _ticks(lo_t, hi_t):
        x = sx(t)
        parts.append(f'<line x1="{_fmt(x)}" y1="{_fmt(y0)}" '
                     f'x2="{_fmt(x)}" y2="{_fmt(y0 + 4)}" stroke="{axis}"/>')
        parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y0 + 16)}" font-size="11" '
            f'font-family="sans-serif" text-anchor="middle" '
            f'fill="{axis}">{_fmt(t)}</text>'
        )
    for p in _ticks(lo_p, hi_p):
        y = sy(p)
        parts.append(
            f'<line x1="{_fmt(MARGIN_LEFT - 4)}" y1="{_fmt(y)}" '
            f'x2="{_fmt(MARGIN_LEFT)}" y2="{_fmt(y)}" stroke="{axis}"/>'
        )
        parts.append(
            f'<text x="{_fmt(MARGIN_LEFT - 7)}" y="{_fmt(y + 3.5)}" '
            f'font-size="11" font-family="sans-serif" text-anchor="end" '
            f'fill="{axis}">{_fmt(p)}</text>'
        )
    parts.append(
        f'<text x="{_fmt(MARGIN_LEFT + x_span / 2)}" '
        f'y="{_fmt(HEIGHT - 8)}" font-size="12" font-family="sans-serif" '
        f'text-anchor="middle" fill="{axis}">time (s)</text>'
    )
    parts.append(
        f'<text x="14" y="{_fmt(MARGIN_TOP + y_span / 2)}" font-size="12" '
        f'font-family="sans-serif" text-anchor="middle" fill="{axis}" '
        f'transform="rotate(-90 14 {_fmt(MARGIN_TOP + y_span / 2)})">'
        f'position (m)</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"

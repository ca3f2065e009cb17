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

from .trajectory import Trajectory, stable_order

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
AXIS = "#333333"


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


def _points(x_texts: list[str], ys: list[float]) -> str:
    """The ``points`` of a polyline: ``" ".join(x + _fmt(y))`` over the
    pairs of ``x_texts`` and ``ys``, in one ``%``.

    Each y is ``%.2f`` text and a space, so the zeros ``_fmt`` strips
    end in ``"0 "``: replacing ``"0 "`` by a space strips the last
    one, then replacing ``".0 "`` strips a second one with its point.
    No x text holds a space.
    """
    pairs = [None] * (2 * len(ys))
    pairs[::2], pairs[1::2] = x_texts, ys
    text = "%s%.2f " * len(ys) % tuple(pairs)
    return text.replace("0 ", " ").replace(".0 ", " ")[:-1]


def _line(x1: float, y1: float, x2: float, y2: float, style: str) -> str:
    """A ``<line>`` from (x1, y1) to (x2, y2) with the attributes
    ``style``."""
    return (f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" '
            f'x2="{_fmt(x2)}" y2="{_fmt(y2)}" {style}/>')


def _text(x: float, y: float, size: float, anchor: str, body: str,
          extra: str = "") -> str:
    """A ``<text>`` of ``body`` at (x, y) in the axis colour, ``size``
    points high and anchored at ``anchor``; ``extra`` follows its
    attributes."""
    return (f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="{_fmt(size)}" '
            f'font-family="sans-serif" text-anchor="{anchor}" '
            f'fill="{AXIS}"{extra}>{body}</text>')


def _vehicle_paths(tr: Trajectory, lo_t: float, hi_t: float,
                   sx: Callable, sy: Callable) -> list[str]:
    """Each vehicle's polyline through its points in [lo_t, hi_t], then
    the squares at its first and last one, in ascending vehicle id.

    The rows of the steps in the window are grouped per vehicle by one
    ``stable_order`` of the ids, which keeps each vehicle's rows in time
    order.  ``sy`` maps the window's positions as one array, each
    step's x is formatted once, and each vehicle's points are formatted
    by one ``_points``.
    """
    k0 = bisect_left(tr.times, lo_t)
    k1 = bisect_right(tr.times, hi_t)
    start, stop = tr.offsets[k0], tr.offsets[k1]
    xs = [sx(time) for time in tr.times[k0:k1]]
    x_texts = np.array([_fmt(x) + "," for x in xs], dtype=object)
    counts = np.diff(np.frombuffer(tr.offsets[k0:k1 + 1], np.int64))
    vids = np.frombuffer(tr.vehicle_id[start:stop], np.int64)
    order = stable_order(vids)
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
        points = _points(row_x_texts[a:b], ys)
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
    ``tr.params.duration``], as SVG text.  ``ValueError`` names a window
    with an end that is not finite, or that holds no time."""
    params = tr.params
    lo_t = 0.0 if t0 is None else t0
    hi_t = params.duration if t1 is None else t1
    if not (math.isfinite(lo_t) and math.isfinite(hi_t)):
        raise ValueError(f"time window [{lo_t}, {hi_t}] is not finite")
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

    for ramps, style in (
            (params.road.on_ramps,
             'stroke="#999999" stroke-width="0.8" stroke-dasharray="8 3 2 3"'),
            (params.road.off_ramps,
             'stroke="#bbbbbb" stroke-width="0.8" stroke-dasharray="2 4"')):
        for p in ramps:
            y = sy(p)
            parts.append(_line(MARGIN_LEFT, y, WIDTH - MARGIN_RIGHT, y, style))

    parts += _vehicle_paths(tr, lo_t, hi_t, sx, sy)

    axis = f'stroke="{AXIS}"'
    y0 = HEIGHT - MARGIN_BOTTOM
    parts.append(_line(MARGIN_LEFT, y0, WIDTH - MARGIN_RIGHT, y0, axis))
    parts.append(_line(MARGIN_LEFT, MARGIN_TOP, MARGIN_LEFT, y0, axis))
    for t in _ticks(lo_t, hi_t):
        x = sx(t)
        parts.append(_line(x, y0, x, y0 + 4, axis))
        parts.append(_text(x, y0 + 16, 11, "middle", _fmt(t)))
    for p in _ticks(lo_p, hi_p):
        y = sy(p)
        parts.append(_line(MARGIN_LEFT - 4, y, MARGIN_LEFT, y, axis))
        parts.append(_text(MARGIN_LEFT - 7, y + 3.5, 11, "end", _fmt(p)))
    parts.append(_text(MARGIN_LEFT + x_span / 2, HEIGHT - 8, 12, "middle",
                       "time (s)"))
    y_mid = MARGIN_TOP + y_span / 2
    parts.append(_text(14, y_mid, 12, "middle", "position (m)",
                       f' transform="rotate(-90 14 {_fmt(y_mid)})"'))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"

"""Tiny hand-rolled SVG line plots.

Only what the CLI figure needs: log or linear axes, decade/even ticks,
a handful of styled polylines and a legend.  Emitting the markup directly
keeps the package free of plotting dependencies and the output is a plain
text file that diffs cleanly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from html import escape
from typing import Sequence

import numpy as np

from .outputs import write_all

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b")
_DASHES = {"solid": None, "dashed": "8 5", "dotted": "2 4"}


@dataclass(frozen=True)
class Curve:
    label: str
    xs: Sequence[float]
    ys: Sequence[float]
    style: str = "solid"  # solid | dashed | dotted


def _finite_points(curve: Curve) -> tuple[np.ndarray, np.ndarray]:
    xs = np.asarray(curve.xs, dtype=np.float64)
    ys = np.asarray(curve.ys, dtype=np.float64)
    if len(xs) != len(ys):
        raise ValueError(f"curve {curve.label!r}: x/y length mismatch")
    keep = np.isfinite(xs) & np.isfinite(ys)
    if np.count_nonzero(keep) < 2:
        raise ValueError(f"curve {curve.label!r}: fewer than 2 finite points")
    return xs[keep], ys[keep]


def _unit_map(lo: float, hi: float, log: bool):
    """The map of [lo, hi] onto [0, 1], through log10 on a log axis, for scalars or arrays."""
    f = np.log10 if log else np.asarray
    f_lo = f(lo)
    f_span = f(hi) - f_lo
    return lambda v: (f(v) - f_lo) / f_span


def _ticks(lo: float, hi: float, log: bool) -> list[float]:
    if log:
        first = math.ceil(math.log10(lo) - 1e-9)
        last = math.floor(math.log10(hi) + 1e-9)
        every = max(1, math.ceil((last - first) / 10))  # at most 11 labelled decades
        vals = [10.0**k for k in range(first, last + 1, every)]
        return vals or [lo, hi]
    step = (hi - lo) / 4.0
    return [lo + i * step for i in range(5)]


def _fmt_tick(v: float) -> str:
    return f"{v:g}"


def render_line_plot(
    curves: Sequence[Curve],
    *,
    title: str,
    xlabel: str,
    ylabel: str,
    log_x: bool = True,
    log_y: bool = True,
    width: int = 720,
    height: int = 540,
) -> str:
    """Return a complete standalone SVG document as a string."""
    if not curves:
        raise ValueError("nothing to plot")
    pts = {c.label: _finite_points(c) for c in curves}
    xs_all = np.concatenate([xs for xs, _ in pts.values()])
    ys_all = np.concatenate([ys for _, ys in pts.values()])
    if log_x and xs_all.min() <= 0.0:
        raise ValueError("log x axis needs strictly positive x values")
    if log_y and ys_all.min() <= 0.0:
        raise ValueError("log y axis needs strictly positive y values")

    def span(values: np.ndarray, log: bool) -> tuple[float, float]:
        lo, hi = float(values.min()), float(values.max())
        if lo == hi:  # degenerate; widen a hair so the transform is defined
            pad = abs(lo) * 0.05 or 0.5
            return (lo / (1 + 0.1) if log else lo - pad, hi * (1 + 0.1) if log else hi + pad)
        return lo, hi

    x_lo, x_hi = span(xs_all, log_x)
    y_lo, y_hi = span(ys_all, log_y)

    margin_l, margin_r, margin_t, margin_b = 72, 24, 46, 58
    plot_w = width - margin_l - margin_r
    plot_h = height - margin_t - margin_b
    tx = _unit_map(x_lo, x_hi, log_x)
    ty = _unit_map(y_lo, y_hi, log_y)

    def to_px(x, y):
        return margin_l + tx(x) * plot_w, margin_t + (1.0 - ty(y)) * plot_h

    out: list[str] = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="13">'
    )
    out.append(f'<rect width="{width}" height="{height}" fill="white"/>')
    out.append(
        f'<text x="{width / 2:.0f}" y="26" text-anchor="middle" font-size="16">'
        f"{escape(title, quote=False)}</text>"
    )

    # gridlines + tick labels
    for xv in _ticks(x_lo, x_hi, log_x):
        if not x_lo <= xv <= x_hi:
            continue
        px, _ = to_px(xv, y_hi)
        out.append(
            f'<line x1="{px:.2f}" y1="{margin_t}" x2="{px:.2f}" '
            f'y2="{margin_t + plot_h}" stroke="#dddddd"/>'
        )
        out.append(
            f'<text x="{px:.2f}" y="{margin_t + plot_h + 18}" text-anchor="middle">'
            f"{_fmt_tick(xv)}</text>"
        )
    for yv in _ticks(y_lo, y_hi, log_y):
        if not y_lo <= yv <= y_hi:
            continue
        _, py = to_px(x_lo, yv)
        out.append(
            f'<line x1="{margin_l}" y1="{py:.2f}" x2="{margin_l + plot_w}" '
            f'y2="{py:.2f}" stroke="#dddddd"/>'
        )
        out.append(
            f'<text x="{margin_l - 8}" y="{py + 4:.2f}" text-anchor="end">'
            f"{_fmt_tick(yv)}</text>"
        )

    # frame
    out.append(
        f'<rect x="{margin_l}" y="{margin_t}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="black"/>'
    )
    out.append(
        f'<text x="{margin_l + plot_w / 2:.0f}" y="{height - 14}" text-anchor="middle">'
        f"{escape(xlabel, quote=False)}</text>"
    )
    out.append(
        f'<text x="20" y="{margin_t + plot_h / 2:.0f}" text-anchor="middle" '
        f'transform="rotate(-90 20 {margin_t + plot_h / 2:.0f})">'
        f"{escape(ylabel, quote=False)}</text>"
    )

    # curves
    for i, c in enumerate(curves):
        color = _COLORS[i % len(_COLORS)]
        dash = _DASHES.get(c.style)
        if c.style not in _DASHES:
            raise ValueError(f"unknown line style {c.style!r}")
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        px, py = to_px(*pts[c.label])
        coords = " ".join(map("%.2f,%.2f".__mod__, zip(px.tolist(), py.tolist())))
        out.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.8"{dash_attr} '
            f'points="{coords}"/>'
        )

    # legend, top right corner of the frame
    for i, c in enumerate(curves):
        color = _COLORS[i % len(_COLORS)]
        dash = _DASHES.get(c.style)
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        ly = margin_t + 16 + 18 * i
        lx = margin_l + plot_w - 190
        out.append(
            f'<line x1="{lx}" y1="{ly}" x2="{lx + 34}" y2="{ly}" stroke="{color}" '
            f'stroke-width="1.8"{dash_attr}/>'
        )
        out.append(f'<text x="{lx + 42}" y="{ly + 4}">{escape(c.label, quote=False)}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"


def write_line_plot(path: str, curves: Sequence[Curve], **kwargs) -> None:
    write_all({path: render_line_plot(curves, **kwargs)})

"""The SVG plot of the paper's Figure 1, written by hand.

`figure1_svg` draws the three bound columns of a `bounds.figure1_table`
table: eps_min against the photon budget on a log or linear x axis over a
log y axis, with decade/even ticks and a legend.  Emitting the markup
directly keeps the package free of plotting dependencies and the output is
a plain text file that diffs cleanly.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .outputs import points_text

# label (formatted with the mode count), column, colour, dash pattern
_CURVES = (
    ("entangled cat, {} modes", "eps_entangled", "#1f77b4", None),
    ("{} separable cats", "eps_separable", "#d62728", "2 4"),
    ("single-mode cat", "eps_single_cat", "#2ca02c", "8 5"),
)
_WIDTH, _HEIGHT = 720, 540


def _axis(lo: float, hi: float, log: bool):
    """An axis over [lo, hi]: its span lo, hi, the span's map onto [0, 1] and the ticks inside it.

    A log axis maps through log10 and is ticked at its decades (at most 11), a linear one at
    five even ticks ending exactly at hi; an axis with no tick inside is ticked at its two ends.
    """
    f = np.log10 if log else np.asarray
    if not f(hi) > f(lo):  # degenerate on the axis's own scale; widen a hair so the map is defined
        pad = abs(lo) * 0.05 or 0.5
        lo, hi = (lo / (1 + 0.1), hi * (1 + 0.1)) if log else (lo - pad, hi + pad)
    if log:
        first = math.ceil(math.log10(lo) - 1e-9)
        last = math.floor(math.log10(hi) + 1e-9)
        every = max(1, math.ceil((last - first) / 10))  # at most 11 labelled decades
        ticks = [10.0**k for k in range(first, last + 1, every)]
    else:
        ticks = np.linspace(lo, hi, 5).tolist()
    f_lo = f(lo)
    f_span = f(hi) - f_lo
    ticks = [t for t in ticks if lo <= t <= hi] or [lo, hi]
    return lo, hi, lambda v: (f(v) - f_lo) / f_span, ticks


def figure1_svg(table: dict, n_modes: int, log_x: bool) -> Iterator[bytes]:
    """A complete standalone SVG document plotting a `bounds.figure1_table` table, as UTF-8 pieces.

    Each eps column is 1/sqrt(Var(G)) of a Var(G) that `bounds.curve` has
    checked to be finite and positive, so every point lies on a log y axis.
    The pieces are made only when asked for: the head (everything before the
    first polyline), then per curve its opening ``points="``, the
    `outputs.points_text` pieces of its x and y pixel columns, its closing ``"/>``,
    then the legend and ``</svg>``.  Joined, they are the document byte for byte.
    """
    xs = table["n_tot"]
    ys = [table[column] for _, column, _, _ in _CURVES]

    x_lo, _, tx, x_ticks = _axis(xs.min(), xs.max(), log_x)
    _, y_hi, ty, y_ticks = _axis(min(y.min() for y in ys), max(y.max() for y in ys), True)

    margin_l, margin_r, margin_t, margin_b = 72, 24, 46, 58
    plot_w = _WIDTH - margin_l - margin_r
    plot_h = _HEIGHT - margin_t - margin_b

    def to_px(x, y):
        return margin_l + tx(x) * plot_w, margin_t + (1.0 - ty(y)) * plot_h

    out: list[str] = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="sans-serif" font-size="13">'
    )
    out.append(f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>')
    out.append(
        f'<text x="{_WIDTH / 2:.0f}" y="26" text-anchor="middle" font-size="16">'
        "Minimum detectable displacement vs photon budget</text>"
    )

    # gridlines + tick labels
    for xv in x_ticks:
        px, _ = to_px(xv, y_hi)
        out.append(
            f'<line x1="{px:.2f}" y1="{margin_t}" x2="{px:.2f}" '
            f'y2="{margin_t + plot_h}" stroke="#dddddd"/>'
        )
        out.append(
            f'<text x="{px:.2f}" y="{margin_t + plot_h + 18}" text-anchor="middle">'
            f"{xv:g}</text>"
        )
    for yv in y_ticks:
        _, py = to_px(x_lo, yv)
        out.append(
            f'<line x1="{margin_l}" y1="{py:.2f}" x2="{margin_l + plot_w}" '
            f'y2="{py:.2f}" stroke="#dddddd"/>'
        )
        out.append(
            f'<text x="{margin_l - 8}" y="{py + 4:.2f}" text-anchor="end">'
            f"{yv:g}</text>"
        )

    # frame
    out.append(
        f'<rect x="{margin_l}" y="{margin_t}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="black"/>'
    )
    out.append(
        f'<text x="{margin_l + plot_w / 2:.0f}" y="{_HEIGHT - 14}" text-anchor="middle">'
        "total mean photon number</text>"
    )
    out.append(
        f'<text x="20" y="{margin_t + plot_h / 2:.0f}" text-anchor="middle" '
        f'transform="rotate(-90 20 {margin_t + plot_h / 2:.0f})">'
        "eps_min</text>"
    )

    # each curve's stroke, shared by its polyline and its legend entry
    strokes = [f'stroke="{color}" stroke-width="1.8"'
               + (f' stroke-dasharray="{dash}"' if dash else "")
               for _, _, color, dash in _CURVES]

    yield ("\n".join(out) + "\n").encode()

    # curves: the x pixels, the same for every curve, and each curve's own y pixels
    px = to_px(xs, y_hi)[0]
    for y, stroke in zip(ys, strokes):
        yield f'<polyline fill="none" {stroke} points="'.encode()
        yield from points_text(px, to_px(x_lo, y)[1])
        yield b'"/>\n'

    # legend, top right corner of the frame
    out = []
    for i, ((label, _, _, _), stroke) in enumerate(zip(_CURVES, strokes)):
        ly = margin_t + 16 + 18 * i
        lx = margin_l + plot_w - 190
        out.append(f'<line x1="{lx}" y1="{ly}" x2="{lx + 34}" y2="{ly}" {stroke}/>')
        out.append(f'<text x="{lx + 42}" y="{ly + 4}">{label.format(n_modes)}</text>')

    out.append("</svg>")
    yield ("\n".join(out) + "\n").encode()


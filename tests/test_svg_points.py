"""The array `%.2f` kernel of the SVG polylines writes the bytes of Python's `%`.

The reference is the one-liner the kernel replaced: one ``"%.2f,%.2f "``
per point over the interleaved pixel coordinates, last space dropped.
The kernel takes a curve's x and y columns and yields its text in pieces of
`outputs._CHUNK_ROWS` pairs.  The pixels `figure1_svg` hands it have their
own reference: its curve loop as it was, each curve's x and y pixels
computed afresh from the table's columns.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from catsense import bounds, cli, outputs, svgplot


def reference_points(v) -> str:
    xy = tuple(np.asarray(v, dtype=np.float64).tolist())
    return ("%.2f,%.2f " * (len(xy) // 2) % xy)[:-1]


def points_text(values) -> tuple[str, str]:
    """(kernel, reference) text of the values, then of their negatives, as x, y pairs."""
    v = np.asarray(values, dtype=np.float64)
    v = np.concatenate([v, -v])
    return b"".join(outputs.points_text(v[::2], v[1::2])).decode(), reference_points(v)


def render(table: dict, n_modes: int, log_x: bool) -> str:
    """The SVG document `figure1_svg` yields, joined and decoded."""
    return b"".join(svgplot.figure1_svg(table, n_modes, log_x)).decode()


def around(edges, ulps: int = 64) -> np.ndarray:
    """Every double within `ulps` ulps of each edge."""
    bits = np.asarray(edges, dtype=np.float64).view(np.int64)
    return (bits[:, None] + np.arange(-ulps, ulps + 1)).ravel().view(np.float64)


class TestPointsKernel:
    def test_uniform_values(self):
        rng = np.random.default_rng(20261018)
        for _ in range(20):
            text, want = points_text(rng.uniform(-10.0, 1010.0, 20_000))
            assert text == want

    def test_every_hundredth_and_half(self):
        text, want = points_text(np.arange(200_000) / 200.0)  # k/8 among them: exact binary ties
        assert text == want
        assert text.split(" ", 13)[12] == "0.12,0.12"  # 0.125 is a tie: it goes to the even digit

    def test_ulps_around_999_and_the_ties(self):
        rng = np.random.default_rng(5)
        ties = rng.integers(0, 999, (3, 100)) + (np.arange(100) + 0.5) / 100.0  # each .xx5, 3 times
        text, want = points_text(around([999.0, 1000.0, *ties.ravel()]))
        assert text == want

    def test_special_values(self):
        values = [0.0, -0.0, 5e-324, 0.004999, 0.005, 998.995, 999.0, 1e300, 1.7976931348623157e308,
                  np.inf, np.nan]
        text, want = points_text(values)
        assert text == want
        assert text.startswith("0.00,-0.00 0.00,0.00 0.01,999.00 999.00,1000000000000000052504")
        assert "-inf,nan" in text

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
    def test_any_finite_floats(self, values):
        text, want = points_text(values)
        assert text == want

    @pytest.mark.parametrize("n", [1, outputs._CHUNK_ROWS - 1, outputs._CHUNK_ROWS,
                                   outputs._CHUNK_ROWS + 1, 3 * outputs._CHUNK_ROWS + 5])
    def test_pieces_of_chunk_rows_pairs_join_to_the_text(self, n):
        # uncertified values among the pairs: k/8 ties, 999 and negatives take Python's %
        rng = np.random.default_rng(n)
        x = rng.choice([0.125, 0.375, 998.875, 999.0, 1234.5, -0.5, -0.0, 12.345], n)
        y = rng.uniform(-5.0, 1005.0, n)
        pieces = list(outputs.points_text(x, y))
        assert [p.count(b",") for p in pieces] == [
            min(outputs._CHUNK_ROWS, n - start) for start in range(0, n, outputs._CHUNK_ROWS)]
        assert [p[:1] == b" " for p in pieces] == [False] + [True] * (len(pieces) - 1)
        assert b"".join(pieces).decode() == reference_points(np.stack([x, y], axis=1).ravel())


@pytest.mark.parametrize("spacing", ["log", "linear"])
@pytest.mark.parametrize("n_modes", [1, 10, 1000])
def test_figure1_svg_matches_the_reference_render(monkeypatch, spacing, n_modes):
    rng = np.random.default_rng([n_modes, spacing == "log"])
    tables = []
    for points in [2, 3, 50, 1000, 10_000]:
        lo = 10.0 ** rng.uniform(-4.0, 5.0)
        hi = lo * 10.0 ** rng.uniform(0.3, 10.0)
        tables.append(bounds.figure1_table(n_modes, cli._make_grid(lo, hi, points, spacing)))
    got = [render(t, n_modes, spacing == "log") for t in tables]
    monkeypatch.setattr(svgplot, "points_text",
                        lambda x, y: [reference_points(np.stack([x, y], axis=1).ravel()).encode()])
    assert got == [render(t, n_modes, spacing == "log") for t in tables]


@pytest.mark.parametrize("values, log, span, ticks", [
    # a log span with no decade inside: the 1e-9 fudge finds 0.1, just below it, so the ends tick
    ([0.10000000001, 0.5], True, (0.10000000001, 0.5), [0.10000000001, 0.5]),
    ([0.05, 2000.0], True, (0.05, 2000.0), [0.1, 1.0, 10.0, 100.0, 1000.0]),
    ([1.0, 9.0, 5.0], False, (1.0, 9.0), [1.0, 3.0, 5.0, 7.0, 9.0]),
    # degenerate spans widen a hair: by a factor 1.1 on a log axis, by 5% (0.5 about 0) on a linear
    ([2.0, 2.0], True, (2.0 / 1.1, 2.2), [2.0 / 1.1, 2.2]),
    ([3.0], False, (2.85, 3.15), [2.85, 2.925, 3.0, 3.075, 3.15]),
    ([0.0], False, (-0.5, 0.5), [-0.5, -0.25, 0.0, 0.25, 0.5]),
    # lo + 4 * (hi - lo) / 4 rounds one ulp past hi here; the right-end tick must stay
    ([0.0010965378454489347, 0.09196931857738598], False,
     (0.0010965378454489347, 0.09196931857738598),
     [0.0010965378454489347, 0.023814733028433198, 0.04653292821141746,
      0.06925112339440173, 0.09196931857738598]),
])
def test_axis_span_map_and_ticks(values, log, span, ticks):
    lo, hi, unit, got = svgplot._axis(min(values), max(values), log)
    assert (lo, hi) == pytest.approx(span, rel=1e-15)
    assert got == pytest.approx(ticks, rel=1e-15, abs=1e-15)
    assert log or got[-1] == hi
    assert unit(np.array([lo, hi])).tolist() == [0.0, 1.0]
    assert all(lo <= t <= hi for t in got) and np.all(np.diff(unit(np.array(got))) > 0)


def reference_polylines(table: dict, log_x: bool) -> list[str]:
    """The points of `figure1_svg`'s three polylines as its curve loop once made them: each
    curve's x and y pixels computed afresh and stacked, then written by one
    `outputs.points_text` call."""
    xs = table["n_tot"]
    ys = [table[column] for _, column, _, _ in svgplot._CURVES]
    _, _, tx, _ = svgplot._axis(xs.min(), xs.max(), log_x)
    every_y = np.concatenate(ys)
    _, _, ty, _ = svgplot._axis(every_y.min(), every_y.max(), True)
    margin_l, margin_t, plot_w, plot_h = 72, 46, 720 - 72 - 24, 540 - 46 - 58

    def to_px(x, y):
        return margin_l + tx(x) * plot_w, margin_t + (1.0 - ty(y)) * plot_h

    return [b"".join(outputs.points_text(*to_px(xs, y))).decode() for y in ys]


@given(points=st.integers(2, 10_000), n_modes=st.integers(1, 1000),
       spacing=st.sampled_from(["log", "linear"]), log_lo=st.floats(-4.0, 5.0),
       decades=st.floats(0.3, 10.0), from_zero=st.booleans())
@example(points=outputs._CHUNK_ROWS, n_modes=10, spacing="log", log_lo=-1.0, decades=3.0,
         from_zero=False)  # one whole piece per curve
@example(points=outputs._CHUNK_ROWS + 1, n_modes=10, spacing="linear", log_lo=-1.0,
         decades=3.0, from_zero=True)  # a whole piece, then a piece of one point
def test_figure1_svg_pixels_match_the_reference_curve_loop(points, n_modes, spacing, log_lo,
                                                            decades, from_zero):
    lo = 0.0 if from_zero and spacing == "linear" else 10.0**log_lo
    table = bounds.figure1_table(n_modes, cli._make_grid(lo, 10.0 ** (log_lo + decades),
                                                         points, spacing))
    svg = render(table, n_modes, spacing == "log")
    assert re.findall(r'<polyline [^>]* points="([^"]*)"/>', svg) == reference_polylines(
        table, spacing == "log")


@given(points=st.integers(2, 50), n_modes=st.integers(1, 1000),
       spacing=st.sampled_from(["log", "linear"]), lo=st.floats(5e-324, 1e290),
       log2_ulps=st.floats(0.0, 56.0))
@example(points=2, n_modes=1, spacing="log", lo=5.0, log2_ulps=0.0)  # 5 to 5.000000000000001
def test_figure1_svg_points_stay_in_the_frame(points, n_modes, spacing, lo, log2_ulps):
    # hi is k >= 1 ulps above lo: from one ulp, where log10 may round both ends alike, up to
    # 2^56 ulps, sixteen binades or nearly five decades; lo stops where 1000 modes would put
    # Var(G) past the largest double, which figure1_table refuses
    k = int(2.0**log2_ulps)
    hi = float((np.float64(lo).view(np.int64) + k).view(np.float64))
    table = bounds.figure1_table(n_modes, cli._make_grid(lo, hi, points, spacing))
    svg = render(table, n_modes, spacing == "log")
    polylines = re.findall(r'<polyline [^>]* points="([^"]*)"/>', svg)
    assert len(polylines) == 3
    for text in polylines:
        for pair in text.split(" "):
            x, y = map(float, pair.split(","))
            assert math.isfinite(x) and 72.0 <= x <= 720.0 - 24.0
            assert math.isfinite(y) and 46.0 <= y <= 540.0 - 58.0

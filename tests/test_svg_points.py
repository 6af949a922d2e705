"""The array `%.2f` kernel of the SVG polylines writes the bytes of Python's `%`.

The reference is the one-liner the kernel replaced: one ``"%.2f,%.2f "``
per point over the interleaved pixel coordinates, last space dropped.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from catsense import bounds, cli, svgplot


def reference_points(v) -> str:
    xy = tuple(np.asarray(v, dtype=np.float64).tolist())
    return ("%.2f,%.2f " * (len(xy) // 2) % xy)[:-1]


def points_text(values) -> tuple[str, str]:
    """(kernel, reference) text of the values, then of their negatives, as x, y pairs."""
    v = np.asarray(values, dtype=np.float64)
    v = np.concatenate([v, -v])
    return svgplot._points_text(v), reference_points(v)


def around(edges, ulps: int = 64) -> np.ndarray:
    """Every double within `ulps` ulps of each edge."""
    bits = np.asarray(edges, dtype=np.float64).view(np.int64)
    return (bits[:, None] + np.arange(-ulps, ulps + 1)).ravel().view(np.float64)


@pytest.mark.filterwarnings("error")
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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("spacing", ["log", "linear"])
@pytest.mark.parametrize("n_modes", [1, 10, 1000])
def test_figure1_svg_matches_the_reference_render(monkeypatch, spacing, n_modes):
    rng = np.random.default_rng([n_modes, spacing == "log"])
    tables = []
    for points in [2, 3, 50, 1000, 10_000]:
        lo = 10.0 ** rng.uniform(-4.0, 5.0)
        hi = lo * 10.0 ** rng.uniform(0.3, 10.0)
        tables.append(bounds.figure1_table(n_modes, cli._make_grid(lo, hi, points, spacing)))
    got = [svgplot.figure1_svg(t, n_modes, spacing == "log") for t in tables]
    monkeypatch.setattr(svgplot, "_points_text", reference_points)
    assert got == [svgplot.figure1_svg(t, n_modes, spacing == "log") for t in tables]


@pytest.mark.filterwarnings("error")
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
    lo, hi, unit, got = svgplot._axis(np.array(values), log)
    assert (lo, hi) == pytest.approx(span, rel=1e-15)
    assert got == pytest.approx(ticks, rel=1e-15, abs=1e-15)
    assert log or got[-1] == hi
    assert unit(np.array([lo, hi])).tolist() == [0.0, 1.0]
    assert all(lo <= t <= hi for t in got) and np.all(np.diff(unit(np.array(got))) > 0)

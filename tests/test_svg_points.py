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
    got = [cli.figure1_svg(t, n_modes, spacing) for t in tables]
    monkeypatch.setattr(svgplot, "_points_text", reference_points)
    assert got == [cli.figure1_svg(t, n_modes, spacing) for t in tables]

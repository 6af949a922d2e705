"""`outputs.csv_text` writes the same bytes as formatting one row at a time.

The reference below is the row-at-a-time algorithm the column formatter
replaced: the first row picks one `%` template (int/bool -> %d, float ->
%.17g, anything else -> %s), each row is formatted on its own, and lines are
joined with LF.  Rows are built the way the subcommands used to build them,
from `.tolist()` of each array column with repeated values copied per row.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from catsense import cli, outputs
from catsense.cli import main
from catsense.outputs import csv_text


def reference_format(v) -> str:
    if isinstance(v, (int, np.integer)):
        return "%d"
    if isinstance(v, (float, np.floating)):
        return "%.17g"
    return "%s"


def reference_csv(header, rows) -> str:
    lines = [",".join(header)]
    if len(rows):
        template = ",".join(map(reference_format, rows[0]))
        lines.extend(template % tuple(row) for row in rows)
    return "\n".join(lines) + "\n"


def as_rows(columns) -> list[tuple]:
    n_rows = max((len(c) for c in columns if np.ndim(c)), default=0)
    lists = [c.tolist() if isinstance(c, np.ndarray) else list(c) if np.ndim(c) else [c] * n_rows
             for c in columns]
    return list(zip(*lists))


def assert_matches_reference(header, columns) -> None:
    assert csv_text(header, columns) == reference_csv(header, as_rows(columns))


@pytest.fixture
def tables(monkeypatch):
    """Every (header, columns) pair the CLI formats while the fixture is active."""
    seen = []
    real = csv_text

    def record(header, columns):
        seen.append((header, columns))
        return real(header, columns)

    monkeypatch.setattr(cli, "csv_text", record)
    return seen


@pytest.mark.parametrize("args", [
    ["figure1"],
    ["bounds"],
    ["qfi-check"],
    ["ramsey"],
    ["montecarlo"],
    ["bounds", "--family", "sql", "--points", "7"],  # an all-NaN alpha column
    ["bounds", "--family", "sql"],
    ["bounds", "--family", "squeezed"],
])
def test_subcommand_tables_match_row_at_a_time_text(tmp_path, tables, args):
    out = tmp_path / "t.csv"
    assert main([*args, "--out", str(out)]) == 0
    [(header, columns)] = tables
    text = reference_csv(header, as_rows(columns))
    assert out.read_text() == text
    assert_matches_reference(header, columns)
    if args[-1] == "7":
        assert all(line.split(",")[3] == "nan" for line in text.splitlines()[1:])


def test_edge_values_match_row_at_a_time_text():
    floats = np.array([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7976931348623157e308])
    flags = np.array([True, False, True, True, False, False])
    seeds = np.full(6, 2**64 - 1, dtype=np.uint64)
    header = ["x", "flag", "seed", "note", "modes", "step"]
    columns = (floats, flags, seeds, "100% (50%s)", 3, 0.1)
    assert_matches_reference(header, columns)
    first = csv_text(header, columns).splitlines()[1]
    assert first == "nan,1,18446744073709551615,100% (50%s),3,0.10000000000000001"


def test_sequence_columns_keep_their_python_values():
    # a list is not coerced to one numpy dtype: ints beside an int64-overflowing one stay exact
    columns = ([-1, 2**64 - 1], ["ghz", "product"], (0.5, 2))
    assert_matches_reference(["i", "s", "f"], columns)


def test_zero_rows_give_the_header_only():
    columns = (np.array([]), np.array([], dtype=np.int64), "family", 2)
    assert csv_text(["a", "b", "c", "d"], columns) == "a,b,c,d\n"
    assert_matches_reference(["a", "b", "c", "d"], columns)


def float_text(values) -> tuple[str, str]:
    """(csv_text, row-at-a-time reference) of one float64 column, both signs."""
    values = np.asarray(values, dtype=np.float64)
    values = np.concatenate([values, -values])
    return csv_text(["x"], [values]), reference_csv(["x"], [(v,) for v in values.tolist()])


@pytest.mark.filterwarnings("error")
class TestFloatKernel:
    """The array `%.17g` of float64 columns is byte-identical to Python's, warnings as errors."""

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(20261018)
        for _ in range(5):  # 10^6 values in all, NaN payloads and subnormals among them
            bits = rng.integers(0, 2**64, 100_000, dtype=np.uint64).view(np.float64)
            assert np.isnan(bits).any()
            text, want = float_text(bits)
            assert text == want

    def test_powers_of_ten_and_their_neighbours(self):
        powers = np.array([float(f"1e{k}") for k in range(-324, 309)])
        text, want = float_text(np.concatenate([np.nextafter(powers, -np.inf), powers,
                                                np.nextafter(powers, np.inf)]))
        assert text == want
        # the double nearest 10^153 lies below it and rounds up into the next decade
        assert int(1e153) < 10**153 and "\n1e+153\n" in text

    def test_exact_ties_at_the_18th_digit(self):
        rng = np.random.default_rng(7)
        values = []
        for p in range(2, 26):  # n / 2^p has the 18 digits of n 5^p, the last a 5, when n is odd
            low, high = -(-10**17 // 5**p), min(2**53, 10**18 // 5**p)
            for n in rng.integers(low, high, 50):
                n = int(n) | 1
                if n < high:
                    assert len(str(n * 5**p)) == 18 and str(n * 5**p).endswith("5")
                    values.append(n / 2**p)
        text, want = float_text(values)
        assert text == want

    @pytest.mark.parametrize("edge", [1e-4, 1.0, 1e16, 1e17])
    def test_layout_edges(self, edge):
        ulps = np.arange(-64, 65) + np.float64(edge).view(np.int64)
        text, want = float_text(ulps.view(np.float64))
        assert text == want

    def test_special_values(self):
        values = [0.0, math.inf, math.nan, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
        text, want = float_text(values)
        assert text == want
        assert text.split("\n")[1:-1] == [
            "0", "inf", "nan", "4.9406564584124654e-324", "2.2250738585072014e-308",
            "1.7976931348623157e+308", "-0", "-inf", "nan", "-4.9406564584124654e-324",
            "-2.2250738585072014e-308", "-1.7976931348623157e+308"]

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_tables_around_the_chunk_size(self, extra):
        n = outputs._CHUNK_ROWS + extra
        rng = np.random.default_rng(n)
        x = np.exp(rng.normal(0.0, 30.0, n)) * rng.choice([-1.0, 1.0], n)
        x[::97] = np.nan
        seeds = np.full(n, 2**64 - 1, dtype=np.uint64)
        columns = (x, np.arange(n), [f"r{i}" for i in range(n)], rng.random(n) < 0.5, seeds,
                   "100% (50%s)", 3, 0.1, x[::-1].copy())
        assert_matches_reference(list("abcdefghi"), columns)

    @pytest.mark.parametrize("rows", [40, outputs._CHUNK_ROWS + 10])
    def test_repeated_uncertified_cells(self, rows):
        # one cell is formatted per bit pattern: NaN payloads and zeros of both signs stay apart
        nans = np.array([0x7FF8000000000000, 0x7FF0000000000001, 0x7FFFFFFFFFFFFFFF],
                        dtype=np.uint64)
        signed = (nans | np.uint64(2**63)).view(np.float64)
        specials = np.concatenate([nans.view(np.float64), signed,
                                   [0.0, -0.0, math.inf, -math.inf, 1.5]])
        x = np.resize(specials, rows)
        rng = np.random.default_rng(rows)
        columns = (x, rng.permutation(x), np.resize(specials[::-1], rows))
        assert np.signbit(x[np.isnan(x)]).any() and not np.signbit(x[np.isnan(x)]).all()
        assert_matches_reference(["a", "b", "c"], columns)
        assert csv_text(["x"], [specials]).splitlines()[1:] == ["nan"] * 6 + [
            "0", "-0", "inf", "-inf", "1.5"]

    @given(st.lists(st.floats(), min_size=1, max_size=40))
    def test_any_floats(self, values):
        text, want = float_text(values)
        assert text == want


@pytest.mark.parametrize("args", [["figure1"], ["bounds"], ["qfi-check"], ["ramsey"],
                                  ["montecarlo"]])
def test_write_csv_counts_the_rows_of_its_table(tmp_path, tables, args):
    out = tmp_path / "t.csv"
    assert main([*args, "--out", str(out)]) == 0
    [(header, columns)] = tables
    rows = cli.write_csv(str(tmp_path / "again.csv"), dict(zip(header, columns)))
    assert rows == out.read_text().count("\n") - 1 > 0


def test_write_csv_counts_zero_rows(tmp_path):
    out = tmp_path / "empty.csv"
    assert cli.write_csv(str(out), {"a": np.array([]), "b": "family", "c": []}) == 0
    assert out.read_text() == "a,b,c\n"

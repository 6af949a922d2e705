"""`outputs.csv_text` writes the same bytes as formatting one row at a time.

The reference below is the row-at-a-time algorithm the column formatter
replaced: the first row picks one `%` template (int/bool -> %d, float ->
%.17g, anything else -> %s), each row is formatted on its own, and lines are
joined with LF.  Rows are built the way the subcommands used to build them,
from `.tolist()` of each array column with repeated values copied per row.
"""

import math
import re
import string
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from catsense import bounds, cli, outputs, svgplot
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


def assert_same_text(got: str, want: str) -> None:
    """got == want, reported as the index and text of the first line that differs.

    One `==` on two whole tables would have pytest diff them character by character, which
    takes minutes for texts of a few hundred KB.
    """
    got_lines, want_lines = got.split("\n"), want.split("\n")
    i = next((i for i, (g, w) in enumerate(zip(got_lines, want_lines)) if g != w),
             min(len(got_lines), len(want_lines)))
    assert (i, got_lines[i:i + 1]) == (i, want_lines[i:i + 1])


def assert_matches_reference(header, columns) -> None:
    assert_same_text(csv_text(dict(zip(header, columns))), reference_csv(header, as_rows(columns)))


@pytest.fixture
def tables(monkeypatch):
    """Every (header, columns) pair the CLI formats while the fixture is active."""
    seen = []
    real = outputs.csv_chunks

    def record(table):
        seen.append((list(table), list(table.values())))
        return real(table)

    monkeypatch.setattr(cli, "csv_chunks", record)
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
    assert_same_text(out.read_text(), text)
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
    first = csv_text(dict(zip(header, columns))).splitlines()[1]
    assert first == "nan,1,18446744073709551615,100% (50%s),3,0.10000000000000001"


def test_sequence_columns_keep_their_python_values():
    # a list is not coerced to one numpy dtype: ints beside an int64-overflowing one stay exact
    columns = ([-1, 2**64 - 1], ["ghz", "product"], (0.5, 2))
    assert_matches_reference(["i", "s", "f"], columns)


def test_zero_rows_give_the_header_only():
    columns = (np.array([]), np.array([], dtype=np.int64), "family", 2)
    assert csv_text(dict(zip("abcd", columns))) == "a,b,c,d\n"
    assert_matches_reference(["a", "b", "c", "d"], columns)


WORDS = st.text(string.ascii_letters + string.digits, max_size=6)
ARRAYS = [(np.float64, st.floats()), (np.int64, st.integers(-2**63, 2**63 - 1)),
          (np.uint64, st.integers(0, 2**64 - 1)), (bool, st.booleans()), (list, WORDS)]
SCALARS = st.one_of(WORDS, st.integers(), st.floats())


@st.composite
def mixed_columns(draw, rows: int) -> list:
    """1..8 columns in any order: float64, int64, uint64 and bool arrays, lists of words, and
    scalar str, int and float.  Each column's rows repeat a few drawn values in a seeded order,
    so a table of thousands of rows stays a small hypothesis example."""
    columns = []
    for _ in range(draw(st.integers(1, 8))):
        if draw(st.booleans()):
            columns.append(draw(SCALARS))
            continue
        kind, cell = draw(st.sampled_from(ARRAYS))
        values = draw(st.lists(cell, min_size=1, max_size=4))
        pick = np.random.default_rng(draw(st.integers(0, 2**32))).integers(len(values), size=rows)
        columns.append([values[i] for i in pick] if kind is list
                       else np.array(values, dtype=kind)[pick])
    return columns


ROW_COUNTS = [0, 1, 2, outputs._CHUNK_ROWS - 1, outputs._CHUNK_ROWS, outputs._CHUNK_ROWS + 1,
              2 * outputs._CHUNK_ROWS + 3]


@given(st.sampled_from(ROW_COUNTS).flatmap(mixed_columns))
def test_mixed_tables_match_row_at_a_time_text(columns):
    # a scalar or text column first, and text-only tables over several chunks, which the
    # subcommands' fixed column orders never write: each chunk's row joins every kind of block
    assert_matches_reference([f"c{j}" for j in range(len(columns))], columns)


@pytest.mark.parametrize("header, columns, bad", [
    (["a", "b"], [np.arange(3.0), [7.5]], "column 'b' has shape (1,)"),
    (["a", "b"], [np.arange(3.0), np.arange(5.0)], "column 'b' has shape (5,)"),
    (["a", "b"], [np.arange(3.0), np.arange(2.0)], "column 'b' has shape (2,)"),
    (["a", "b"], [np.arange(3), np.zeros((3, 2))], "column 'b' has shape (3, 2)"),
])
def test_ragged_tables_are_refused(header, columns, bad):
    with pytest.raises(ValueError, match=re.escape(bad)):
        csv_text(dict(zip(header, columns)))


def test_write_csv_writes_no_ragged_table(tmp_path, monkeypatch):
    # the `csv_chunks` call checks the columns before any chunk is made: a check at the first
    # chunk would open a staging file and remove it again
    opened = []
    monkeypatch.setattr(outputs, "open", lambda *args: opened.append(args) or open(*args),
                        raising=False)
    out = tmp_path / "t.csv"
    with pytest.raises(ValueError, match="column 'b'"):
        cli.write_csv(str(out), {"a": np.arange(3.0), "b": np.arange(5.0), "c": "family"})
    assert list(tmp_path.iterdir()) == []
    assert opened == []


@pytest.mark.parametrize("existing", [False, True])
@pytest.mark.parametrize("exc", [KeyboardInterrupt, MemoryError])
def test_a_failure_mid_stream_replaces_no_target(tmp_path, monkeypatch, exc, existing):
    # the second chunk of three fails after the header and the first chunk were staged
    table = bounds.figure1_table(2, np.geomspace(0.1, 100.0, 3 * outputs._CHUNK_ROWS))
    real, calls, staged = outputs._float_cells, [], []

    def fail_second(x):
        calls.append(x.size)
        if len(calls) < 2:
            return real(x)
        staged.extend(p.stat().st_size for p in tmp_path.glob("*.tmp"))
        raise exc

    monkeypatch.setattr(outputs, "_float_cells", fail_second)
    out, svg = tmp_path / "f.csv", tmp_path / "f.svg"
    if existing:
        out.write_bytes(b"old csv\n")
    with pytest.raises(exc):
        cli.write_csv(str(out), table, {str(svg): [b"<svg/>"]})
    assert len(calls) == 2 and len(staged) == 1 and staged[0] > 0  # the first chunk landed
    assert [p.name for p in tmp_path.iterdir()] == (["f.csv"] if existing else [])
    if existing:
        assert out.read_bytes() == b"old csv\n"


@pytest.mark.parametrize("existing", [False, True])
@pytest.mark.parametrize("exc", [KeyboardInterrupt, MemoryError])
def test_a_failure_mid_svg_replaces_no_target(tmp_path, monkeypatch, exc, existing):
    # the SVG's second points piece of nine fails; the whole CSV was staged before any of it
    table = bounds.figure1_table(2, np.geomspace(0.1, 100.0, 3 * outputs._CHUNK_ROWS))
    real, calls, staged = outputs.points_text, [], {}

    def fail_second(x, y):
        for piece in real(x, y):
            calls.append(piece.count(b","))  # one comma a pair
            if len(calls) == 2:
                staged.update((p.name.split(".")[1], p.read_bytes())
                              for p in tmp_path.glob("*.tmp"))
                raise exc
            yield piece

    monkeypatch.setattr(svgplot, "points_text", fail_second)
    out, svg = tmp_path / "f.csv", tmp_path / "f.svg"
    if existing:
        out.write_bytes(b"old csv\n")
        svg.write_bytes(b"old svg\n")
    with pytest.raises(exc):
        cli.write_csv(str(out), table, {str(svg): svgplot.figure1_svg(table, 2, True)})
    assert sorted(staged) == ["csv", "svg"] and staged["csv"] == csv_text(table).encode()
    assert calls == [outputs._CHUNK_ROWS] * 2
    assert sorted(p.name for p in tmp_path.iterdir()) == (["f.csv", "f.svg"] if existing else [])
    if existing:
        assert (out.read_bytes(), svg.read_bytes()) == (b"old csv\n", b"old svg\n")


def test_write_csv_memory_does_not_grow_with_the_table(tmp_path):
    # the CSV streams into its staging file a chunk at a time; holding the table's text
    # (9.5 MB here) would peak near twice its length
    table = bounds.figure1_table(10, np.geomspace(0.1, 100.0, 100_000))
    out = tmp_path / "f.csv"
    tracemalloc.start()
    try:
        cli.write_csv(str(out), table)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < out.stat().st_size / 4


def test_write_csv_memory_with_the_svg_stays_below_the_svg(tmp_path):
    # the SVG streams into its staging file after the CSV, its points text a piece at a time;
    # rendered whole before staging, it peaked at about four times the file's size
    table = bounds.figure1_table(10, np.geomspace(0.1, 100.0, 100_000))
    out, svg = tmp_path / "f.csv", tmp_path / "f.svg"
    tracemalloc.start()
    try:
        cli.write_csv(str(out), table, {str(svg): svgplot.figure1_svg(table, 10, True)})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < svg.stat().st_size


def test_figure1_svg_memory_holds_no_whole_curve_buffer():
    # draining the SVG holds the x pixels and one curve's y pixels beside pieces of
    # outputs._CHUNK_ROWS pairs: 2.41 MB at 10^5 points, where interleaving each curve's
    # pixels into one whole-grid buffer first peaked at 3.21 MB
    table = bounds.figure1_table(10, np.geomspace(0.1, 100.0, 100_000))
    tracemalloc.start()
    try:
        for _ in svgplot.figure1_svg(table, 10, True):
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.7e6


def exact_cells(decade: int):
    """(d, v) per count d of shown digits: v = m 10^e of the decade, m a d-digit integer with a
    nonzero last digit, the least such that a double holds exactly; no v when none does."""
    for d in range(1, 18):
        e = decade - d + 1
        step = 5 ** max(-e, 0)  # m 10^e = (m / 5^-e) 2^e is dyadic only if 5^-e divides m
        for m in range(-(-10 ** (d - 1) // step) * step, 10**d, step):
            j = m * 10**e if e >= 0 else m // step
            if m % 10 and float(j) == j:
                yield d, math.ldexp(j, min(e, 0))
                break


def reference_masks() -> list[np.ndarray]:
    """The kernel's keep, shift and over bytes per layout, one byte at a time from the rule.

    A cell's words hold E = "0000000" and its 17 digits at bytes 0..23, then the exponent
    text from byte 25.  A cell shows E[7 + min(X, 0) : 7 + max(digits, X + 1)]: the digits
    up to E[7 + X] stay where they are, a point follows when a shown digit does, and the
    digits after it come from the words shifted up one byte; a negative cell gets a '-'
    before its first shown digit.  The exponent word is kept as it is but for byte 0.
    """
    n_layouts = 22 * 17 * 2
    keep, shift = np.zeros((2, n_layouts, 32), np.uint8)
    over = np.full((n_layouts, 32), 0xFF, np.uint8)
    for layout in range(n_layouts):
        cls, cut = divmod(layout // 2, 17)
        x = cls - 4 if cls < 21 else 0
        start, end = 7 + min(x, 0), 7 + max(cut + 1, x + 1)
        for e in range(start, end):
            table, byte = (keep, e) if e <= 7 + x else (shift, e + 1)
            table[layout, byte], over[layout, byte] = 0xFF, 0
        if end > 8 + x:
            over[layout, 8 + x] = ord(".")
        if layout % 2:
            over[layout, start - 1] = ord("-")
        keep[layout, 25:], over[layout, 25:] = 0xFF, 0
    return [keep, shift, over]


def float_text(values) -> tuple[str, str]:
    """(csv_text, row-at-a-time reference) of one float64 column, both signs."""
    values = np.asarray(values, dtype=np.float64)
    values = np.concatenate([values, -values])
    return csv_text({"x": values}), reference_csv(["x"], [(v,) for v in values.tolist()])


class TestFloatKernel:
    """The array `%.17g` of float64 columns is byte-identical to Python's, warnings as errors."""

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(20261018)
        for _ in range(5):  # 10^6 values in all, NaN payloads and subnormals among them
            bits = rng.integers(0, 2**64, 100_000, dtype=np.uint64).view(np.float64)
            assert np.isnan(bits).any()
            text, want = float_text(bits)
            assert_same_text(text, want)

    def test_powers_of_ten_and_their_neighbours(self):
        powers = np.array([float(f"1e{k}") for k in range(-324, 309)])
        text, want = float_text(np.concatenate([np.nextafter(powers, -np.inf), powers,
                                                np.nextafter(powers, np.inf)]))
        assert_same_text(text, want)
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
        assert_same_text(text, want)

    @pytest.mark.parametrize("edge", [1e-4, 1.0, 1e16, 1e17])
    def test_layout_edges(self, edge):
        ulps = np.arange(-64, 65) + np.float64(edge).view(np.int64)
        text, want = float_text(ulps.view(np.float64))
        assert_same_text(text, want)

    def test_special_values(self):
        values = [0.0, math.inf, math.nan, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
        text, want = float_text(values)
        assert_same_text(text, want)
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
        assert csv_text({"x": specials}).splitlines()[1:] == ["nan"] * 6 + [
            "0", "-0", "inf", "-inf", "1.5"]

    def test_every_layout(self):
        # the random bit patterns reach almost only 17-digit e±XX cells: here every fixed decade
        # -4..16 with each count of shown digits it holds exactly, and e±XX cells of 1..17 digits
        decades = [*range(-8, 23)]
        cells = {(k, d): v for k in decades for d, v in exact_cells(k)}
        for (k, d), v in cells.items():
            digits, _, exponent = ("%.16e" % v).partition("e")
            assert (int(exponent), len(digits.replace(".", "").rstrip("0"))) == (k, d)
        # the least digit count held exactly per decade; every count above it is held too
        least = {k: min(d for kk, d in cells if kk == k) for k in decades}
        assert least == {-8: 17, -7: 14, -6: 12, -5: 10, -4: 7, -3: 5, -2: 3,
                         **dict.fromkeys(range(-1, 23), 1)}
        assert len(cells) == sum(18 - d for d in least.values())
        text, want = float_text(list(cells.values()))
        assert_same_text(text, want)

    def test_masks_match_the_layout_rule(self):
        masks = [m.view(np.uint8) for m in (outputs._KEEP, outputs._SHIFT, outputs._OVER)]
        for got, want in zip(masks, reference_masks()):
            np.testing.assert_array_equal(got, want)

    def test_keep_shift_and_over_are_disjoint(self):
        keep, shift, over = (m.view(np.uint8) for m in (outputs._KEEP, outputs._SHIFT,
                                                        outputs._OVER))
        assert keep.shape == shift.shape == over.shape == (22 * 17 * 2, 32)
        assert not ((keep & shift) | (keep & over) | (shift & over)).any()
        assert ((keep | shift | over) != 0).all()  # every byte comes from one of them

    def test_rows_are_32_bytes_ending_in_a_hole(self):
        tie = 4000000000000001 / 4  # 1000000000000000.25: its 18th digit is an exact tie
        assert "%.18g" % tie == "1000000000000000.25"
        values = [1.5, -2.5e-300, 6.02214076e23, tie, -tie, 0.0, -0.0, math.inf, -math.inf,
                  math.nan, -5e-324]
        cells = outputs._float_cells(np.array(values))
        assert cells.shape == (len(values), 32) and cells.dtype == np.uint8
        assert (cells[:, -1] == 0xFF).all()
        assert [c.tobytes().replace(b"\xff", b"").decode() for c in cells] == [
            "%.17g" % v for v in values]

    def test_inputs_keep_their_bits(self):
        # the kernel computes in place, on its own copies only, never on the caller's arrays
        n = 2 * outputs._CHUNK_ROWS + 5
        rng = np.random.default_rng(n)
        x = 10.0 ** rng.uniform(-320, 308, n) * rng.choice([-1.0, 1.0], n)
        x[:8] = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -2.2250738585072009e-308, 1e16]
        y = rng.permutation(x)
        table = {"x": x, "k": np.arange(n), "y": y, "c": 0.5}
        bits = [x.view(np.int64).copy(), y.view(np.int64).copy()]
        csv_text(table)
        outputs._float_cells(y)
        np.testing.assert_array_equal(x.view(np.int64), bits[0])
        np.testing.assert_array_equal(y.view(np.int64), bits[1])

    @given(st.lists(st.floats(), min_size=1, max_size=40))
    def test_any_floats(self, values):
        text, want = float_text(values)
        assert_same_text(text, want)


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

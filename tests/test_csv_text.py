"""`_csv_text` writes the same bytes as formatting one row at a time.

The reference below is the row-at-a-time algorithm the column formatter
replaced: the first row picks one `%` template (int/bool -> %d, float ->
%.17g, anything else -> %s), each row is formatted on its own, and lines are
joined with LF.  Rows are built the way the subcommands used to build them,
from `.tolist()` of each array column with repeated values copied per row.
"""

import math

import numpy as np
import pytest

from catsense import cli
from catsense.cli import main


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
    assert cli._csv_text(header, columns) == reference_csv(header, as_rows(columns))


@pytest.fixture
def tables(monkeypatch):
    """Every (header, columns) pair the CLI formats while the fixture is active."""
    seen = []
    real = cli._csv_text

    def record(header, columns):
        seen.append((header, columns))
        return real(header, columns)

    monkeypatch.setattr(cli, "_csv_text", record)
    return seen


@pytest.mark.parametrize("args", [
    ["figure1"],
    ["bounds"],
    ["qfi-check"],
    ["ramsey"],
    ["montecarlo"],
    ["bounds", "--family", "sql", "--points", "7"],  # an all-NaN alpha column
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
    first = cli._csv_text(header, columns).splitlines()[1]
    assert first == "nan,1,18446744073709551615,100% (50%s),3,0.10000000000000001"


def test_sequence_columns_keep_their_python_values():
    # a list is not coerced to one numpy dtype: ints beside an int64-overflowing one stay exact
    columns = ([-1, 2**64 - 1], ["ghz", "product"], (0.5, 2))
    assert_matches_reference(["i", "s", "f"], columns)


def test_zero_rows_give_the_header_only():
    columns = (np.array([]), np.array([], dtype=np.int64), "family", 2)
    assert cli._csv_text(["a", "b", "c", "d"], columns) == "a,b,c,d\n"
    assert_matches_reference(["a", "b", "c", "d"], columns)

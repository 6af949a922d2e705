"""Every committed ``BENCH_*.json`` holds the twelve runs its standing rule asks for.

Each file records one commit: the four workloads at seeds 1-3, each run
correct with no failed op, every run's provenance naming the file's HEAD,
and the per-file ``src/`` line counts summing to the total each run saw.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
WORKLOADS = ("sweep", "algebra", "oracle", "cold_cli")


def test_the_trajectory_is_committed():
    assert BENCH_FILES, "no BENCH_*.json at the repository root"


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_holds_the_twelve_runs_of_its_head(path):
    bench = json.loads(path.read_text())
    runs = bench["runs"]
    assert sorted((r["workload"], r["seed"]) for r in runs) == sorted(
        (w, s) for w in WORKLOADS for s in (1, 2, 3))
    for run in runs:
        assert run["result"]["correct"] is True and run["result"]["failed"] == 0, run["workload"]
        assert run["provenance"]["git_head"] == bench["head"]
        assert run["provenance"]["seed"] == run["seed"]
    lines = dict(bench["src_lines"])
    total = lines.pop("total")
    assert sum(lines.values()) == total
    assert {run["provenance"]["src_lines"] for run in runs} == {total}

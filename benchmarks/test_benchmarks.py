"""Self-tests of the benchmark harness.

    python3 -m pytest benchmarks -q

They run the program on a few small ops, so they take about half a minute.
"""

from __future__ import annotations

import csv
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest

import run
import tracing
import workloads as wk

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def ctx(tmp_path_factory):
    prog = wk.load_program(ROOT)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return wk.Context(prog, tmp_path_factory.mktemp("bench"), sys.executable, env)


def first_op(workload: str, accept) -> dict:
    ops = wk.first_ops(wk.WORKLOADS[workload], 3, 4)
    return next(op for op in ops if accept(op))


def run_and_check(workload: str, op: dict, ctx):
    wl = wk.WORKLOADS[workload]
    out = wl.run(wl.prepare(op, ctx), ctx)
    return out, wl.check(op, out, ctx)


def rewrite_cell(path: Path, row: int, col: int, scale: float) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[row + 1][col] = repr(float(rows[row + 1][col]) * scale)
    path.write_text("\n".join(",".join(r) for r in rows) + "\n")


@pytest.mark.parametrize("name", sorted(wk.WORKLOADS))
def test_inputs_depend_only_on_the_seed(name):
    wl = wk.WORKLOADS[name]
    once = json.dumps(wk.first_ops(wl, 7, 2), sort_keys=True).encode()
    again = json.dumps(wk.first_ops(wl, 7, 2), sort_keys=True).encode()
    other = json.dumps(wk.first_ops(wl, 8, 2), sort_keys=True).encode()
    assert once == again
    assert once != other


def test_sweep_check_flags_a_perturbed_bound(ctx):
    op = first_op("sweep", lambda o: o["family"] == "entangled-cat" and o["points"] < 2000)
    out, reason = run_and_check("sweep", op, ctx)
    assert reason is None
    rewrite_cell(ctx.tmp / "sweep.csv", op["check_rows"][-1], 4, 1 + 1e-10)
    assert "reference" in wk.WORKLOADS["sweep"].check(op, out, ctx)


def test_sweep_check_flags_a_broken_figure(ctx):
    op = first_op("sweep", lambda o: o["cmd"] == "figure1")
    out, reason = run_and_check("sweep", op, ctx)
    assert reason is None
    (ctx.tmp / "sweep.svg").write_text("<svg/>")
    assert "curves" in wk.WORKLOADS["sweep"].check(op, out, ctx)


@pytest.mark.parametrize("kind", ["cat", "random"])
def test_algebra_check_flags_a_perturbed_variance(ctx, kind):
    op = first_op("algebra", lambda o: o["kind"] == kind and math.hypot(*o["betas"][0]) < 10)
    (mean, var, n), reason = run_and_check("algebra", op, ctx)
    assert reason is None
    assert "Var(G)" in wk.WORKLOADS["algebra"].check(op, (mean, var * (1 + 1e-8), n), ctx)


def test_oracle_check_flags_a_perturbed_qfi(ctx):
    op = first_op("oracle", lambda o: o["kind"] == "qfi" and o["modes"] < 3)
    out, reason = run_and_check("oracle", op, ctx)
    assert reason is None
    rewrite_cell(ctx.tmp / "oracle.csv", 0, 4, 1 + 1e-5)
    assert "qfi_oracle" in wk.WORKLOADS["oracle"].check(op, out, ctx)


def test_oracle_check_flags_a_perturbed_squeezed_moment(ctx):
    op = first_op("oracle", lambda o: o["kind"] == "squeezed")
    (var_y, nbar, qfi), reason = run_and_check("oracle", op, ctx)
    assert reason is None
    assert "Var(Y)" in wk.WORKLOADS["oracle"].check(op, (var_y + 1e-7, nbar, qfi), ctx)


def test_cold_cli_check_flags_a_missing_row(ctx):
    op = {"cmd": "montecarlo"}
    out, reason = run_and_check("cold_cli", op, ctx)
    assert reason is None
    path = ctx.tmp / "cold.csv"
    path.write_text(path.read_text().splitlines()[0] + "\n")
    assert "rows" in wk.WORKLOADS["cold_cli"].check(op, out, ctx)


def test_reference_root_matches_bisection():
    for n_tot, n_modes in ((1e-4, 1000), (0.3, 1), (10.0, 10), (1e6, 2)):
        u = wk.ref_u(n_tot, n_modes)
        with mpmath.workdps(60):
            lo, hi = mpmath.mpf(0), mpmath.mpf(n_tot) + 2
            for _ in range(220):
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if mid * mpmath.tanh(mid) < n_tot else (lo, mid)
            assert abs(u - lo) <= mpmath.mpf(10) ** -45 * lo


def test_superposition_reference_matches_direct_mpmath():
    """The displacement-invariant reference equals a 50-digit sum over the displaced labels."""
    coeffs = [0.8 + 0.1j, -0.3 + 0.5j, 0.2 - 0.7j]
    labels = [[0.3 + 0.1j, -1.0 + 0.4j], [1.2 - 0.5j, 0.2 + 0.9j], [-0.6 + 1.1j, 0.7 - 0.8j]]
    betas = [2.5 - 1.5j, -0.75 + 3.0j]
    with mpmath.workdps(50):
        terms = []
        for c, lab in zip(coeffs, labels):
            phase = sum((mpmath.mpc(b) * mpmath.conj(g)).imag for b, g in zip(betas, lab))
            terms.append((c * mpmath.expj(phase), [mpmath.mpc(g) + b for g, b in zip(lab, betas)]))
        den = m1 = m2 = nph = 0
        for ci, li in terms:
            for cj, lj in terms:
                w = mpmath.conj(ci) * cj * mpmath.exp(sum(
                    -abs(x) ** 2 / 2 - abs(y) ** 2 / 2 + mpmath.conj(x) * y for x, y in zip(li, lj)))
                e1 = sum(lj) + sum(mpmath.conj(x) for x in li)
                den += w
                m1 += w * e1
                m2 += w * (e1 ** 2 + len(li))
                nph += w * sum(mpmath.conj(x) * y for x, y in zip(li, lj))
        mean, var, n = (m1 / den).real, (m2 / den - (m1 / den) ** 2).real, (nph / den).real
    got = wk.ref_superposition_moments(coeffs, labels, betas)
    for value, want in zip(got, (mean, var, n)):
        assert abs(value - float(want)) <= 1e-15 * abs(float(want))


def test_self_times_account_for_op_wall_time():
    rec = tracing.Recorder()
    root = rec.begin_op(0)
    outer = rec.begin("fock.to_fock")
    inner = rec.begin("coherent.norm_squared")
    rec.finish(inner)
    rec.finish(outer)
    rec.finish_op(root)
    spans = tracing.summarize(rec)
    layers = spans["harness.self_s"] + spans["fock.self_s"] + spans["coherent.self_s"]
    assert layers == pytest.approx(spans["trace.op_wall_s"], rel=1e-12)
    assert spans["fock.to_fock.calls"] == 1


def test_latency_tail_keeps_ten_samples_beyond():
    value, pct, beyond = run.latency_tail([float(i) for i in range(1, 101)])
    assert (value, pct, beyond) == (90.0, 90.0, 10)


def test_names_match_benchmark_json():
    assert {w["name"] for w in SPEC["workloads"]} <= set(wk.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(run.PER_LAYER)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    r = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "oracle", "--seed", "5",
                        "--seconds", "0.5", "--trace", str(trace)],
                       cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert r.returncode == 0, r.stderr
    result = json.loads(r.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in SPEC[section]}


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    r = subprocess.run(SPEC["command"] + ["--workload", "sweep", "--seed", "1", "--seconds", "1",
                                          "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert r.returncode != 0
    assert '"metrics"' not in r.stdout

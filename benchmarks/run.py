"""catsense benchmark: run one workload from a seed and print every metric.

    python3 benchmarks/run.py --workload sweep --seed 1 --seconds 15 --trace 0

One closed-loop client in this process issues one op at a time and waits
for it.  With --trace 0 it measures the end-to-end metrics; with --trace 1
it replays a fixed prefix of the same op stream untraced and then traced,
and reports per-layer self times and counts.  Every output is checked
independently; program failures are counted, never raised.  The last
stdout line is one JSON object: correct, attempted, failed, metrics.
Exit code 2 means the harness itself could not run.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 7
# CPU seconds of reference_job() on the reference machine (x86-64 Xeon, Python 3.11)
REFERENCE_JOB_S = 1.5e-3
SLOWNESS_WINDOW = 4  # an op's slowness is the mean over the reference jobs this many ops around it
WARMUP_SEED = 0x5EED
SHOWN_FAILURES = 5

# (name, unit, better); must match BENCHMARK.json
END_TO_END = (
    ("ops_per_s", "1/s", "higher"),
    ("latency_p50_s", "s", "lower"),
    ("latency_tail_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
PER_LAYER = (
    ("harness.self_s", "s", "lower"),
    ("trace.op_wall_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "higher"),
    ("cli.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.write_csv.self_s", "s", "lower"),
    ("cli.write_csv.bytes", "B", "lower"),
    ("svgplot.self_s", "s", "lower"),
    ("svgplot.write_line_plot.self_s", "s", "lower"),
    ("svgplot.write_line_plot.bytes", "B", "lower"),
    ("bounds.self_s", "s", "lower"),
    ("bounds.invert_ntot.calls", "count", "lower"),
    ("bounds.invert_ntot.self_s", "s", "lower"),
    ("bounds.curve.self_s", "s", "lower"),
    ("bounds.grid_points", "count", "higher"),
    ("coherent.self_s", "s", "lower"),
    ("coherent.SuperpositionState.self_s", "s", "lower"),
    ("coherent.displace.self_s", "s", "lower"),
    ("coherent.expect_generator.self_s", "s", "lower"),
    ("coherent.variance_generator.self_s", "s", "lower"),
    ("coherent.mean_photon_number.self_s", "s", "lower"),
    ("coherent.norm_squared.self_s", "s", "lower"),
    ("coherent.pair_evals", "count", "lower"),
    ("fock.self_s", "s", "lower"),
    ("fock.to_fock.self_s", "s", "lower"),
    ("fock.collective_quad_x.self_s", "s", "lower"),
    ("fock.qfi_pure.self_s", "s", "lower"),
    ("fock.qfi_fidelity_fd.self_s", "s", "lower"),
    ("fock.displace_fock.self_s", "s", "lower"),
    ("fock.state_bytes", "B", "lower"),
    ("fock.generator_nnz", "count", "lower"),
    ("estimation.self_s", "s", "lower"),
    ("estimation.ramsey_simulate.calls", "count", "lower"),
    ("estimation.ramsey_simulate.self_s", "s", "lower"),
    ("estimation.sample_homodyne.self_s", "s", "lower"),
    ("import.self_s", "s", "lower"),
    ("import.catsense_cli_s", "s", "lower"),
    ("import.catsense_fock_s", "s", "lower"),
    ("import.scipy_sparse_s", "s", "lower"),
    ("import.numpy_s", "s", "lower"),
    ("import.click_s", "s", "lower"),
)


def pin_threads() -> dict:
    """Pin BLAS/OpenMP pools to THREADS here and in every child; returns the child env."""
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def provenance(seed: int) -> dict:
    head = None
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        head = r.stdout.strip() or None
    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    versions = {pkg: metadata.version(pkg) for pkg in ("numpy", "scipy", "click", "mpmath")}
    return {"seed": seed, "git_head": head, "python": platform.python_version(), **versions,
            "nproc": os.cpu_count(), "threads": THREADS, "src_lines": src_lines}


def latency_tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile with >= 10 samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    beyond = min(10, n - 1)
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


class Tally:
    """Attempted ops and the reasons of the failed ones."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, reason: str | None) -> None:
        self.attempted += 1
        if reason:
            self.failures.append(reason)


def children_cpu() -> float:
    """CPU seconds (user + system) of every child reaped so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def reference_job() -> float:
    """CPU time of a fixed job made of what ops do: scalar bisection, small tuples, CSV text.

    It runs next to every timed op and never touches the program, so the
    ratio of its time to REFERENCE_JOB_S is how slow the machine is at that
    moment.
    """
    c0 = process_time()
    rows = []
    for k in range(90):
        n = 10.0 ** (k / 10 - 2)
        lo, hi = 0.0, math.sqrt(n) + 1.0
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            if mid * mid * math.tanh(mid * mid) < n:
                lo = mid
            else:
                hi = mid
        rows.append((n, lo, 1.0 / math.sqrt(1.0 + 4.0 * n)))
    csv.writer(io.StringIO()).writerows(rows)
    return process_time() - c0


def cpu_clock(wl):
    """The clock of a workload's op times: this process's CPU time, or its children's."""
    return process_time if wl.in_process else children_cpu


def run_op(wl, op, ctx, tally: Tally, timed_call=None) -> tuple[float, float]:
    """Prepare, time and check one op; returns its (CPU, wall) time, check excluded."""
    args = wl.prepare(op, ctx)
    call = timed_call or (lambda a: wl.run(a, ctx))
    clock = cpu_clock(wl)
    c0, t0 = clock(), perf_counter()
    try:
        out, reason = call(args), None
    except Exception as exc:  # a failing op is a result, not a harness error
        out, reason = None, f"{type(exc).__name__}: {exc}"
    elapsed = clock() - c0, perf_counter() - t0
    if reason is None:
        try:
            reason = wl.check(op, out, ctx)
        except Exception as exc:
            reason = f"check raised {type(exc).__name__}: {exc}"
    tally.record(reason)
    return elapsed


def setup_time(wl, ctx, tally: Tally) -> tuple[float, float]:
    """(CPU time, machine slowness) of a fresh interpreter that imports catsense +
    catsense.cli and runs the workload's warm-up op."""
    slow = [reference_job() for _ in range(SLOWNESS_WINDOW)]
    c0 = children_cpu()
    r = subprocess.run([ctx.python, "-c", wl.setup_code, str(ctx.tmp)], cwd=ctx.tmp,
                       env=ctx.env, capture_output=True, text=True, timeout=120)
    cpu = children_cpu() - c0
    slow += [reference_job() for _ in range(SLOWNESS_WINDOW)]
    tally.record(None if r.returncode == 0 else f"set-up exit {r.returncode}: {r.stderr[-200:]}")
    return cpu, statistics.fmean(slow) / REFERENCE_JOB_S


def warm_up(wl, ctx) -> None:
    if wl.in_process:
        from workloads import op_stream

        scratch = Tally()
        for op in next(op_stream(wl, WARMUP_SEED)):
            run_op(wl, op, ctx, scratch)


def measure(wl, seed: int, seconds: float, ctx) -> tuple[Tally, dict, list[str]]:
    """Time wl.passes passes over one seeded op list, at the reference machine's speed.

    The op list is the whole blocks that fill `seconds` of op time on the
    reference machine, so a seed fixes the work and a faster program
    finishes sooner.  On a shared machine the speed of identical work swings
    by up to 2x for seconds to minutes.  So a reference job runs before
    every op, each op's CPU time is divided by the machine's slowness around
    it (reference job time / REFERENCE_JOB_S), and an op's time is the
    median of its passes.  Set-up samples are scaled the same way and spread
    over the pass boundaries.
    """
    from workloads import first_ops

    tally = Tally()
    warm_up(wl, ctx)
    # boundary p (before pass p, or after the last pass) gets shares[p] set-up samples
    shares = [0] * (wl.passes + 1)
    for j in range(SETUP_REPEATS):
        shares[j * (wl.passes + 1) // SETUP_REPEATS] += 1
    ops = first_ops(wl, seed, max(1, round(seconds / (wl.passes * wl.block_seconds))))
    cpu = [[0.0] * len(ops) for _ in range(wl.passes)]
    ref = [[0.0] * len(ops) for _ in range(wl.passes)]
    walls: list[float] = []
    setup: list[tuple[float, float]] = []
    start = perf_counter()
    for p, share in enumerate(shares):
        setup += [setup_time(wl, ctx, tally) for _ in range(share)]
        if p == wl.passes:
            break
        for k, op in enumerate(ops):
            ref[p][k] = reference_job()
            cpu[p][k], wall = run_op(wl, op, ctx, tally)
            walls.append(wall)

    def slowness(p: int, k: int) -> float:
        near = ref[p][max(0, k - SLOWNESS_WINDOW):k + SLOWNESS_WINDOW + 1]
        return statistics.fmean(near) / REFERENCE_JOB_S

    latencies = [statistics.median(cpu[p][k] / slowness(p, k) for p in range(wl.passes))
                 for k in range(len(ops))]
    usage = resource.getrusage(resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN)
    tail, pct, beyond = latency_tail(latencies)
    raw = [statistics.median(cpu[p][k] for p in range(wl.passes)) for k in range(len(ops))]
    metrics = {
        "ops_per_s": len(latencies) / sum(latencies),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail,
        "setup_s": statistics.median(t / s for t, s in setup),
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }
    median_slowness = statistics.median(r for row in ref for r in row) / REFERENCE_JOB_S
    notes = [
        "op and set-up times are CPU seconds (user + system) of "
        + ("this process" if wl.in_process else "the CLI children")
        + " at the reference machine's speed; each op's time is the median of "
        + f"{wl.passes} passes over {len(ops)} ops",
        f"latency_tail_s is p{pct:.1f} of {len(latencies)} ops ({beyond} beyond)",
        f"setup_s is the median of {SETUP_REPEATS} fresh interpreters",
        f"machine slowness: the reference job took {median_slowness:.4g}x REFERENCE_JOB_S (median)",
        f"unscaled CPU time: {len(raw) / sum(raw):.4g} ops/s, p50 {statistics.median(raw):.4g} s, "
        f"setup {statistics.median(t for t, _ in setup):.4g} s",
        f"wall time over all passes: {len(walls) / sum(walls):.4g} ops/s, "
        f"p50 {statistics.median(walls):.4g} s, tail {latency_tail(walls)[0]:.4g} s, "
        f"run {perf_counter() - start:.1f} s",
        "peak_rss_mb is the max RSS of " + ("this process" if wl.in_process else "the CLI children"),
    ]
    return tally, metrics, notes


def trace(wl, seed: int, ctx) -> tuple[Tally, dict, list[str]]:
    import tracing
    from workloads import CLI_DEFAULTS, first_ops

    tally = Tally()
    imports = tracing.import_times(ctx.python, ctx.tmp, ctx.env)
    ops = first_ops(wl, seed, wl.trace_blocks)
    warm_up(wl, ctx)
    untraced = sum(run_op(wl, op, ctx, tally)[1] for op in ops)

    rec = tracing.Recorder()
    restore = tracing.install(rec, tracing.program_modules())
    try:
        for k, op in enumerate(ops):
            def call(args, k=k):
                root = rec.begin_op(k)
                try:
                    if wl.in_process:
                        return wl.run(args, ctx)
                    return tracing.run_traced_child(rec, args, ctx.tmp, ctx.env)
                finally:
                    rec.finish_op(root)
            run_op(wl, op, ctx, tally, call)
    finally:
        restore()
    spans = tracing.summarize(rec)
    tracing.save(rec, ROOT / ".bench_trace" / f"{wl.name}.npz")

    # a bound table has one row per grid point; cold_cli ops run at the CLI defaults
    grid = sum(op.get("points", CLI_DEFAULTS[op["cmd"]][1]) for op in ops
               if op.get("cmd") in ("bounds", "figure1"))
    metrics = {name: spans.get(name, 0.0) for name, _, _ in PER_LAYER}
    metrics.update(imports)
    metrics["bounds.grid_points"] = grid
    metrics["trace.overhead_ratio"] = untraced / spans["trace.op_wall_s"]
    layers = sum(metrics[f"{layer}.self_s"] for layer in
                 ("cli", "svgplot", "bounds", "coherent", "fock", "estimation", "import"))
    notes = [
        f"traced {len(ops)} ops ({wl.trace_blocks} blocks), {int(spans['trace.spans'])} spans; "
        f"untraced pass {untraced:.3f} s",
        f"layer self times {layers:.6f} s + harness.self_s {metrics['harness.self_s']:.6f} s "
        f"= op wall {spans['trace.op_wall_s']:.6f} s",
        "import.* (except import.self_s) are medians of 3 `python -X importtime` runs",
    ]
    return tally, metrics, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env = pin_threads()
    from workloads import WORKLOADS, Context, HarnessError, load_program

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; pick from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        prog = load_program(ROOT)
    except HarnessError as exc:
        print(f"harness error: {exc}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    tmp = ROOT / ".bench_tmp" / f"{wl.name}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    ctx = Context(prog, tmp, sys.executable, env)
    try:
        if args.trace:
            tally, metrics, notes = trace(wl, args.seed, ctx)
        else:
            tally, metrics, notes = measure(wl, args.seed, args.seconds, ctx)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    units = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}
    print(f"# catsense benchmark: workload {wl.name}, trace {args.trace}")
    print("# provenance " + json.dumps(provenance(args.seed)))
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    failed = len(tally.failures)
    print(f"fail_ratio = {failed}/{tally.attempted} = {failed / tally.attempted!r}")
    for note in notes:
        print(f"# {note}")
    for reason in tally.failures[:SHOWN_FAILURES]:
        print(f"# failed: {reason}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

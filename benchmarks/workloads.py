"""Seeded workloads of the catsense benchmark: inputs, ops and independent checks.

Every workload is a stream of blocks.  A block is a fixed mix of op kinds
whose sizes are drawn stratified (one draw per equal-probability stratum,
in random order), so any run of whole blocks sees the same cost mix and the
seed only changes the exact values and their order.  That is what keeps
throughput and latency quantiles steady from seed to seed.

An op is one user request.  `prepare` turns a JSON-able op spec into call
arguments (untimed), `run` is the timed request, and `check` compares its
output with a reference computed here, never by the code under test
(untimed).  `check` returns None on success or a one-line reason.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import subprocess
import sys
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import mpmath
import numpy as np

# Tolerances of the independent checks (relative unless stated).
TOL_BOUNDS = 1e-12  # sweep: alpha, eps_min and qfi against 50-digit mpmath
TOL_GRID = 1e-12  # sweep: n_tot column against the requested grid
TOL_ALGEBRA = 1e-9  # algebra: moments against the reference expansion
TOL_QFI_CLOSED = 1e-12  # oracle: closed-form column against mpmath
TOL_QFI_PURE = 1e-6  # oracle: the CLI's own default gates
TOL_QFI_FD = 1e-3
TOL_SQUEEZED = 1e-8  # oracle: absolute, as acceptance criterion 8
SQUEEZED_DIM = 128  # the oracle's dimension cap
MP_DIGITS = 50

FAMILY_OTHERS = ("sql", "squeezed", "single-cat", "separable-cats")
SWEEP_MODES = (1, 2, 10, 100, 1000)
SWEEP_GROUPS = (("figure1", 8), ("entangled-cat", 18), ("other", 6))
BOUNDS_HEADER = ["family", "n_modes", "n_tot", "alpha", "eps_min", "qfi"]
FIGURE1_HEADER = ["n_tot", "eps_entangled", "eps_separable", "eps_single_cat", "alpha_entangled"]
QFI_HEADER = ["modes", "alpha", "dim", "qfi_closed_form", "qfi_oracle", "qfi_fd",
              "rel_err_oracle", "rel_err_fd"]

# cold_cli: each subcommand at its defaults -> (CSV header, rows written).
CLI_DEFAULTS = {
    "figure1": (FIGURE1_HEADER, 200),
    "bounds": (BOUNDS_HEADER, 50),
    "qfi-check": (QFI_HEADER, 12),
    "ramsey": (["N", "scheme", "FI", "delta_theta", "empirical_stderr"], 10),
    "montecarlo": (["probe", "true_eps", "shots", "seed", "y_variance", "eps_hat",
                    "stderr", "pull"], 1),
}


class HarnessError(RuntimeError):
    """The benchmark itself cannot run; never raised for a program failure."""


def load_program(root: Path) -> SimpleNamespace:
    """Import catsense from the checkout's own src/, never from site-packages."""
    src = root / "src"
    if not (src / "catsense" / "__init__.py").is_file():
        raise HarnessError(f"no catsense sources under {src}")
    sys.path.insert(0, str(src))
    import catsense
    import catsense.cli

    if Path(catsense.__file__).resolve().parent != (src / "catsense").resolve():
        raise HarnessError(f"catsense imported from {catsense.__file__}, not {src}")
    from catsense import bounds, cli, coherent, fock

    return SimpleNamespace(bounds=bounds, cli=cli, coherent=coherent, fock=fock)


@dataclass
class Context:
    """What ops need besides their spec: the program, a scratch dir, child env."""

    prog: SimpleNamespace
    tmp: Path
    python: str
    env: dict


@dataclass(frozen=True)
class Workload:
    name: str
    block: Callable[[np.random.Generator], list[dict]]
    prepare: Callable[[dict, Context], object]
    run: Callable[[object, Context], object]
    check: Callable[[dict, object, Context], str | None]
    # Fresh-interpreter set-up: Python source run with argv[1] = scratch dir.
    setup_code: str
    trace_blocks: int  # whole blocks replayed by the traced run
    passes: int  # timed passes over the same ops; an op's time is the median of its passes
    block_seconds: float  # op time of one block at the reference machine's speed
    in_process: bool = True


def op_stream(workload: Workload, seed: int):
    """Endless sequence of blocks; the same seed always yields the same ops."""
    rng = np.random.default_rng(seed)
    while True:
        yield workload.block(rng)


def first_ops(workload: Workload, seed: int, blocks: int) -> list[dict]:
    stream = op_stream(workload, seed)
    return [op for _ in range(blocks) for op in next(stream)]


def _strata(rng: np.random.Generator, n: int) -> np.ndarray:
    """n uniforms in [0, 1), one per stratum [k/n, (k+1)/n), in random order."""
    return (rng.permutation(n) + rng.random(n)) / n


def _midpoints(rng: np.random.Generator, n: int) -> np.ndarray:
    """The n stratum midpoints (k + 1/2) / n in random order: strata without jitter."""
    return (rng.permutation(n) + 0.5) / n


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return float(lo * (hi / lo) ** u)


def _betas(rng: np.random.Generator, magnitude: float, modes: int) -> list[list[float]]:
    phases = rng.uniform(0.0, 2.0 * math.pi, modes)
    return [[magnitude * math.cos(p), magnitude * math.sin(p)] for p in phases]


def _cplx(pairs) -> list[complex]:
    return [complex(re, im) for re, im in pairs]


def _call_cli(prog: SimpleNamespace, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = prog.cli.main(argv)
    return code, out.getvalue()


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        return [], []
    return rows[0], rows[1:]


def _rel(got: float, want, tol: float) -> bool:
    want = float(want)
    return abs(got - want) <= tol * abs(want)


# ------------------------------------------------------------ mpmath references

def ref_u(n_tot: float, n_modes: int) -> mpmath.mpf:
    """u = N alpha^2 solving u tanh(u) = n_tot, at MP_DIGITS digits.

    The root is bracketed by max(n, sqrt n) <= u <= max(n, sqrt n) + 1.
    """
    with mpmath.workdps(MP_DIGITS):
        n = mpmath.mpf(n_tot)
        lo = max(n, mpmath.sqrt(n))
        return mpmath.findroot(lambda u: u * mpmath.tanh(u) - n, (lo, lo + 1),
                               solver="anderson")


def ref_entangled_var(u: mpmath.mpf, n_modes: int) -> mpmath.mpf:
    """N (1 + 4u / (1 + e^{-2u})) with u = N alpha^2."""
    with mpmath.workdps(MP_DIGITS):
        return n_modes * (1 + 4 * u / (1 + mpmath.exp(-2 * u)))


def ref_bound_row(family: str, n_tot: float, n_modes: int) -> tuple:
    """(alpha, eps_min, qfi) of one bound-table row; alpha None where the CSV has nan."""
    with mpmath.workdps(MP_DIGITS):
        n = mpmath.mpf(n_tot)
        if family == "sql":
            return None, mpmath.mpf("0.5"), mpmath.mpf(4)
        if family == "squeezed":
            return None, 1 / mpmath.sqrt(4 * n), 4 * n
        if family == "single-cat":
            return mpmath.sqrt(n), 1 / mpmath.sqrt(1 + 4 * n), 1 + 4 * n
        if family == "separable-cats":
            return mpmath.sqrt(n / n_modes), 1 / mpmath.sqrt(n_modes + 4 * n), n_modes + 4 * n
        u = ref_u(n_tot, n_modes)
        var = ref_entangled_var(u, n_modes)
        return mpmath.sqrt(u / n_modes), 1 / mpmath.sqrt(var), var


# ------------------------------------------------------------------ sweep

def sweep_block(rng: np.random.Generator) -> list[dict]:
    """32 requests: 8 `figure1 --svg`, 18 entangled-cat and 6 other `bounds` tables.

    Grid sizes sit at the stratum midpoints of each group and mode counts
    cycle through SWEEP_MODES, so every block carries the same amount of
    work and the op at any latency quantile has the same size in every run.
    """
    ops = []
    for group, count in SWEEP_GROUPS:
        if group == "other":
            families = rng.permutation(np.resize(FAMILY_OTHERS, count))
        else:
            families = [group] * count
        modes = rng.permutation(np.resize(SWEEP_MODES, count))
        for family, n_modes, size_u in zip(families, modes, _midpoints(rng, count)):
            points = int(round(_log_uniform(size_u, 50, 1e4)))
            lo = 10.0 ** rng.uniform(-4.0, 5.0)
            hi = min(lo * 10.0 ** rng.uniform(0.3, 10.0), 1e6)
            ops.append({
                "cmd": "figure1" if group == "figure1" else "bounds",
                "family": None if group == "figure1" else str(family),
                "modes": int(n_modes),
                "ntot_min": lo,
                "ntot_max": hi,
                "points": points,
                "spacing": "linear" if rng.random() < 0.2 else "log",
                "via_config": bool(rng.random() < 1 / 3),
                "check_rows": sorted({0, points - 1, int(rng.integers(points))}),
            })
    return [ops[i] for i in rng.permutation(len(ops))]


def sweep_prepare(op: dict, ctx: Context) -> list[str]:
    csv_path, svg_path, cfg_path = (ctx.tmp / n for n in ("sweep.csv", "sweep.svg", "sweep.cfg"))
    for p in (csv_path, svg_path):
        p.unlink(missing_ok=True)
    settings = {
        "modes": str(op["modes"]),
        "ntot-min": repr(op["ntot_min"]),
        "ntot-max": repr(op["ntot_max"]),
        "points": str(op["points"]),
        "spacing": op["spacing"],
    }
    argv = [op["cmd"], "--out", str(csv_path)]
    if op["family"] is not None:
        argv += ["--family", op["family"]]
    if op["cmd"] == "figure1":
        argv += ["--svg", str(svg_path)]
    if op["via_config"]:
        cfg_path.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()))
        argv += ["--config", str(cfg_path)]
    else:
        for k, v in settings.items():
            argv += [f"--{k}", v]
    return argv


def sweep_run(argv: list[str], ctx: Context) -> tuple[int, str]:
    return _call_cli(ctx.prog, argv)


def _expected_grid(op: dict) -> np.ndarray:
    i = np.arange(op["points"], dtype=np.float64) / (op["points"] - 1)
    lo, hi = op["ntot_min"], op["ntot_max"]
    if op["spacing"] == "log":
        return lo * (hi / lo) ** i
    return lo + (hi - lo) * i


def sweep_check(op: dict, out: tuple[int, str], ctx: Context) -> str | None:
    code, text = out
    if code != 0:
        return f"exit code {code}: {text.strip()[-200:]}"
    header, rows = _read_csv(ctx.tmp / "sweep.csv")
    figure = op["cmd"] == "figure1"
    if header != (FIGURE1_HEADER if figure else BOUNDS_HEADER):
        return f"unexpected header {header}"
    if len(rows) != op["points"]:
        return f"{len(rows)} rows, expected {op['points']}"
    col = 0 if figure else 2
    grid = np.array([float(r[col]) for r in rows])
    want = _expected_grid(op)
    worst = float(np.max(np.abs(grid - want) / want))
    if not worst <= TOL_GRID:
        return f"n_tot grid off by {worst:.3e}"
    n_modes = op["modes"] if (figure or op["family"] in ("entangled-cat", "separable-cats")) else 1
    for i in op["check_rows"]:
        vals = [float(v) for v in rows[i][0 if figure else 2:]]
        n = vals[0]
        if figure:
            alpha, eps_ent, _ = ref_bound_row("entangled-cat", n, n_modes)
            pairs = [(vals[1], eps_ent), (vals[4], alpha),
                     (vals[2], ref_bound_row("separable-cats", n, n_modes)[1]),
                     (vals[3], ref_bound_row("single-cat", n, 1)[1])]
        else:
            if rows[i][:2] != [op["family"], str(n_modes)]:
                return f"row {i}: family/modes {rows[i][:2]}"
            alpha, eps, qfi = ref_bound_row(op["family"], n, n_modes)
            if alpha is None and not math.isnan(vals[1]):
                return f"row {i}: alpha {vals[1]} should be nan"
            pairs = [(vals[2], eps), (vals[3], qfi)]
            if alpha is not None:
                pairs.append((vals[1], alpha))
        for got, ref in pairs:
            if not _rel(got, ref, TOL_BOUNDS):
                return f"row {i} (n_tot={n!r}): {got!r} vs reference {mpmath.nstr(ref, 17)}"
    if figure:
        try:
            svg = ET.parse(ctx.tmp / "sweep.svg").getroot()
        except (OSError, ET.ParseError) as exc:
            return f"svg unreadable: {exc}"
        lines = svg.findall("{http://www.w3.org/2000/svg}polyline") or svg.findall("polyline")
        if len(lines) != 3:
            return f"svg has {len(lines)} curves, expected 3"
    return None


# ------------------------------------------------------------------ algebra

def _separated_labels(rng: np.random.Generator, terms: int, modes: int) -> np.ndarray:
    """terms points of C^modes, pairwise Euclidean distance >= 1 (rejection sampling)."""
    half = 0.5 * terms ** (1.0 / (2 * modes)) + 0.5
    pts = np.empty((0, 2 * modes))
    while len(pts) < terms:
        p = rng.uniform(-half, half, 2 * modes)
        if len(pts) == 0 or np.min(np.sum((pts - p) ** 2, axis=1)) >= 1.0:
            pts = np.vstack([pts, p])
        else:
            half *= 1.002
    return pts.reshape(terms, modes, 2)


def algebra_block(rng: np.random.Generator) -> list[dict]:
    """30 requests: 18 displaced entangled cats and 12 random 8..128-term superpositions.

    Each mode count 1..6 appears twice among the random states, once with a
    term count from the lower and once from the upper half of the strata.
    """
    ops = []
    for nu, au, bu in zip(_strata(rng, 18), _strata(rng, 18), _strata(rng, 18)):
        n_modes = int(round(_log_uniform(nu, 1, 100)))
        ops.append({
            "kind": "cat",
            "alpha": _log_uniform(au, 0.1, 2.0),
            "modes": n_modes,
            "betas": _betas(rng, _log_uniform(bu, 1e-2, 1e6), n_modes),
        })
    modes = np.concatenate([rng.permutation(6), rng.permutation(6)]) + 1
    for m, tu, bu in zip(modes, np.sort(_strata(rng, 12)), _strata(rng, 12)):
        m = int(m)
        terms = int(round(_log_uniform(tu, 8, 128)))
        ops.append({
            "kind": "random",
            "labels": _separated_labels(rng, terms, m).tolist(),
            "coeffs": rng.normal(size=(terms, 2)).tolist(),
            "modes": m,
            "betas": _betas(rng, _log_uniform(bu, 1e-2, 1e6), m),
        })
    return [ops[i] for i in rng.permutation(len(ops))]


def algebra_prepare(op: dict, ctx: Context) -> tuple:
    betas = _cplx(op["betas"])
    if op["kind"] == "cat":
        return "cat", (op["alpha"], op["modes"]), betas
    labels = [_cplx(label) for label in op["labels"]]
    return "random", (_cplx(op["coeffs"]), labels), betas


def algebra_run(args: tuple, ctx: Context) -> tuple[float, float, float]:
    c = ctx.prog.coherent
    kind, spec, betas = args
    if kind == "cat":
        state = c.make_entangled_cat(*spec)
    else:
        coeffs, labels = spec
        state = c.SuperpositionState([(k, c.CoherentLabel(lab)) for k, lab in zip(coeffs, labels)])
    moved = c.displace(state, betas)
    return c.expect_generator(moved), c.variance_generator(moved), c.mean_photon_number(moved)


def ref_superposition_moments(coeffs, labels, betas) -> tuple[float, float, float]:
    """(<G>, Var G, <n>) of D(beta) sum_i c_i |l_i>, in extended precision.

    Evaluated on the undisplaced expansion, where every label is O(1), with
    the Gram matrix W_ij = conj(c_i) c_j <l_i|l_j> and central moments.  The
    displacement enters exactly: G -> G + 2 Re sum(beta) leaves Var G
    unchanged and a_k -> a_k + beta_k shifts <n>.
    """
    cl = np.clongdouble
    c = np.asarray(coeffs, dtype=cl)
    lab = np.asarray(labels, dtype=cl)
    b = np.asarray(betas, dtype=cl)
    sq = np.sum(np.abs(lab) ** 2, axis=1)
    cross = lab.conj() @ lab.T
    w = c.conj()[:, None] * c[None, :] * np.exp(-0.5 * sq[:, None] - 0.5 * sq[None, :] + cross)
    den = np.sum(w)
    e1 = np.sum(lab, axis=1)[None, :] + np.sum(lab, axis=1).conj()[:, None]
    mean0 = np.sum(w * e1) / den
    var0 = np.sum(w * ((e1 - mean0) ** 2 + lab.shape[1])) / den
    amp = np.sum(w, axis=0) @ lab / den
    n0 = np.sum(w * cross) / den
    mean = mean0.real + 2 * np.sum(b.real)
    n = n0.real + 2 * np.sum((b.conj() * amp).real) + np.sum(np.abs(b) ** 2)
    return float(mean), float(var0.real), float(n)


def ref_cat_moments(alpha: float, n_modes: int, betas) -> tuple:
    """(<G>, Var G, <n>) of the displaced entangled cat, at MP_DIGITS digits."""
    with mpmath.workdps(MP_DIGITS):
        u = n_modes * mpmath.mpf(alpha) ** 2
        bs = [mpmath.mpc(re, im) for re, im in betas]
        mean = 2 * sum(x.real for x in bs)
        n = u * mpmath.tanh(u) + sum(abs(x) ** 2 for x in bs)
        return mean, ref_entangled_var(u, n_modes), n


def algebra_check(op: dict, out: tuple[float, float, float], ctx: Context) -> str | None:
    mean, var, n = out
    if op["kind"] == "cat":
        ref_mean, ref_var, ref_n = ref_cat_moments(op["alpha"], op["modes"], op["betas"])
        closed = ctx.prog.bounds.entangled_cat_generator_variance(op["alpha"], op["modes"])
        if not _rel(closed, ref_var, TOL_ALGEBRA):
            return f"closed-form Var(G) {closed!r} vs reference {mpmath.nstr(ref_var, 17)}"
    else:
        ref_mean, ref_var, ref_n = ref_superposition_moments(
            _cplx(op["coeffs"]), [_cplx(x) for x in op["labels"]], _cplx(op["betas"]))
    if not _rel(var, ref_var, TOL_ALGEBRA):
        return (f"Var(G) {var!r} vs reference {float(ref_var)!r} "
                f"(rel err {abs(var - float(ref_var)) / float(ref_var):.2e}, "
                f"|beta| {math.hypot(*op['betas'][0]):.3g})")
    # <G> is judged against its own spread, sqrt(Var G), when it sits near 0
    scale = max(abs(float(ref_mean)), math.sqrt(float(ref_var)))
    if not abs(mean - float(ref_mean)) <= TOL_ALGEBRA * scale:
        return f"<G> {mean!r} vs reference {float(ref_mean)!r}"
    if not abs(n - float(ref_n)) <= TOL_ALGEBRA * max(float(ref_n), 1.0):
        return f"<n> {n!r} vs reference {float(ref_n)!r}"
    return None


# ------------------------------------------------------------------ oracle

def oracle_block(rng: np.random.Generator) -> list[dict]:
    """32 requests: 28 single-case qfi-checks (10/10/8 at 1/2/3 modes), 4 squeezed probes."""
    ops = []
    for modes, count in ((1, 10), (2, 10), (3, 8)):
        for u in _strata(rng, count):
            ops.append({"kind": "qfi", "modes": modes, "alpha": _log_uniform(u, 0.25, 2.5)})
    for u in _strata(rng, 4):
        ops.append({"kind": "squeezed", "r": 1.2 * float(u)})
    return [ops[i] for i in rng.permutation(len(ops))]


def oracle_prepare(op: dict, ctx: Context):
    if op["kind"] == "squeezed":
        return op
    path = ctx.tmp / "oracle.csv"
    path.unlink(missing_ok=True)
    return ["qfi-check", "--modes-list", str(op["modes"]), "--alpha-list", repr(op["alpha"]),
            "--out", str(path)]


def oracle_run(args, ctx: Context):
    if isinstance(args, list):
        return _call_cli(ctx.prog, args)
    f, r = ctx.prog.fock, args["r"]
    psi = f.squeezed_vector(r, SQUEEZED_DIM)
    return (f.variance(psi, f.quad_y(SQUEEZED_DIM)),
            f.expectation(psi, f.number_operator(SQUEEZED_DIM)),
            f.qfi_pure(psi, f.quad_x(SQUEEZED_DIM)))


def ref_cat_qfi(alpha: float, n_modes: int) -> mpmath.mpf:
    with mpmath.workdps(MP_DIGITS):
        return 4 * ref_entangled_var(n_modes * mpmath.mpf(alpha) ** 2, n_modes)


def oracle_check(op: dict, out, ctx: Context) -> str | None:
    if op["kind"] == "squeezed":
        var_y, nbar, qfi = out
        with mpmath.workdps(MP_DIGITS):
            r = mpmath.mpf(op["r"])
            refs = (mpmath.exp(-2 * r), mpmath.sinh(r) ** 2, mpmath.exp(-r) / 2)
        exact = ctx.prog.bounds.eps_min_squeezed_exact(op["r"])
        for what, got, ref in (("Var(Y)", var_y, refs[0]), ("nbar", nbar, refs[1]),
                               ("oracle eps_min", 1.0 / math.sqrt(qfi), refs[2]),
                               ("closed-form eps_min", exact, refs[2])):
            if not abs(got - float(ref)) < TOL_SQUEEZED:
                return f"squeezed r={op['r']!r}: {what} {got!r} vs {mpmath.nstr(ref, 17)}"
        return None
    code, text = out
    if code != 0:
        return f"exit code {code}: {text.strip()[-200:]}"
    header, rows = _read_csv(ctx.tmp / "oracle.csv")
    if header != QFI_HEADER or len(rows) != 1:
        return f"unexpected table: header {header}, {len(rows)} rows"
    row = rows[0]
    if int(row[0]) != op["modes"] or float(row[1]) != op["alpha"]:
        return f"row is for modes {row[0]}, alpha {row[1]}"
    closed, oracle, fd, rel_oracle, rel_fd = (float(v) for v in row[3:])
    ref = ref_cat_qfi(op["alpha"], op["modes"])
    checks = (("qfi_closed_form", closed, TOL_QFI_CLOSED), ("qfi_oracle", oracle, TOL_QFI_PURE),
              ("qfi_fd", fd, TOL_QFI_FD))
    for what, got, tol in checks:
        if not _rel(got, ref, tol):
            return f"{what} {got!r} vs closed form {mpmath.nstr(ref, 17)} (tol {tol:g})"
    for what, got, value in (("rel_err_oracle", rel_oracle, oracle), ("rel_err_fd", rel_fd, fd)):
        if not abs(got - abs(value - closed) / closed) <= 1e-12:
            return f"{what} {got!r} does not match its own columns"
    return None


# ------------------------------------------------------------------ cold_cli

def cold_block(rng: np.random.Generator) -> list[dict]:
    """One round: every subcommand once, at its defaults, in seeded order."""
    names = list(CLI_DEFAULTS)
    return [{"cmd": names[i]} for i in rng.permutation(len(names))]


def cold_prepare(op: dict, ctx: Context) -> list[str]:
    out, svg = ctx.tmp / "cold.csv", ctx.tmp / "cold.svg"
    for p in (out, svg):
        p.unlink(missing_ok=True)
    extra = ["--svg", str(svg)] if op["cmd"] == "figure1" else []
    return [ctx.python, "-m", "catsense.cli", op["cmd"], *extra, "--out", str(out)]


def cold_run(argv: list[str], ctx: Context) -> subprocess.CompletedProcess:
    return subprocess.run(argv, cwd=ctx.tmp, env=ctx.env, capture_output=True, text=True,
                          timeout=120)


def cold_check(op: dict, out: subprocess.CompletedProcess, ctx: Context) -> str | None:
    if out.returncode != 0:
        return f"exit code {out.returncode}: {out.stderr.strip()[-200:]}"
    header, rows = _read_csv(ctx.tmp / "cold.csv")
    want_header, want_rows = CLI_DEFAULTS[op["cmd"]]
    if header != want_header:
        return f"{op['cmd']}: unexpected header {header}"
    if len(rows) != want_rows:
        return f"{op['cmd']}: {len(rows)} rows, expected {want_rows}"
    if op["cmd"] == "figure1" and not (ctx.tmp / "cold.svg").is_file():
        return "figure1: no svg written"
    return None


_SETUP_PREFIX = "import sys, catsense, catsense.cli\n"

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep",
            sweep_block, sweep_prepare, sweep_run, sweep_check,
            _SETUP_PREFIX + "sys.exit(catsense.cli.main(['bounds', '--out', sys.argv[1] + '/w.csv']))",
            trace_blocks=1,
            passes=5,
            block_seconds=2.5,
        ),
        Workload(
            "algebra",
            algebra_block, algebra_prepare, algebra_run, algebra_check,
            _SETUP_PREFIX + "from catsense import coherent as c\n"
            "s = c.displace(c.make_entangled_cat(1.0, 3), [1.0] * 3)\n"
            "c.expect_generator(s), c.variance_generator(s), c.mean_photon_number(s)",
            trace_blocks=2,
            passes=5,
            block_seconds=0.75,
        ),
        Workload(
            "oracle",
            oracle_block, oracle_prepare, oracle_run, oracle_check,
            _SETUP_PREFIX + "sys.exit(catsense.cli.main(['qfi-check', '--modes-list', '2', "
            "'--alpha-list', '1', '--out', sys.argv[1] + '/w.csv']))",
            trace_blocks=4,
            passes=5,
            block_seconds=0.32,
        ),
        Workload(
            "cold_cli",
            cold_block, cold_prepare, cold_run, cold_check,
            _SETUP_PREFIX,
            trace_blocks=2,
            passes=2,
            block_seconds=3.6,
            in_process=False,
        ),
    )
}

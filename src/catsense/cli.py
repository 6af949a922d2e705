"""Command-line front end.

Settings resolve in three layers: explicit flags beat config-file keys beat
built-in defaults, which ``catsense <cmd> --help`` lists.  The config file is
flat ``key = value`` text, keys named exactly like the long flags of the
subcommand without the leading dashes, ``#`` comments and blank lines
ignored; a key that names no option of the subcommand is an error.  A rule
on one value lives on its option's click type, which ``--help`` shows; rules
the library enforces are not repeated here.  Every output file is written
whole or not at all, so a failed run leaves none behind.

Exit codes: 0 success, 1 bad usage or bad domain input, 2 I/O failure,
3 oracle capacity or tolerance failure.
"""

from __future__ import annotations

import math
import sys
from typing import Sequence

import click
import numpy as np

from . import bounds, coherent, estimation, fock, svgplot
from .errors import (
    CapacityError,
    CatsenseError,
    StepTooSmallError,
    ToleranceFailure,
    TruncationError,
)
from .outputs import write_all


def _sig17(x: float) -> str:
    return format(float(x), ".17g")


def _csv_format(v) -> str:
    if isinstance(v, (int, np.integer)):  # bool too: True -> 1
        return "%d"
    if isinstance(v, (float, np.floating)):
        return "%.17g"
    return "%s"


def _csv_text(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    lines = [",".join(header)]
    if len(rows):
        template = ",".join(map(_csv_format, rows[0]))
        lines.extend(template % tuple(row) for row in rows)
    return "\n".join(lines) + "\n"


def write_csv(path: str, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    """CSV with 17-significant-digit floats and LF line endings; rows typed like the first."""
    write_all({path: _csv_text(header, rows)})


def _make_grid(ntot_min: float, ntot_max: float, points: int, spacing: str) -> np.ndarray:
    if not (math.isfinite(ntot_min) and math.isfinite(ntot_max) and ntot_min < ntot_max):
        raise click.UsageError(f"need finite ntot-min < ntot-max, got {ntot_min} and {ntot_max}")
    if spacing == "linear":
        return np.linspace(ntot_min, ntot_max, points)
    if ntot_min <= 0.0:
        raise click.UsageError("log spacing needs ntot-min > 0")
    return np.geomspace(ntot_min, ntot_max, points)


# ---------------------------------------------------------------- figure1

def run_figure1(
    n_modes: int,
    ntot_min: float,
    ntot_max: float,
    points: int,
    spacing: str,
    out: str,
    svg: str | None = None,
) -> list[tuple]:
    """Sweep the photon budget and tabulate the three cat-probe bounds."""
    grid = _make_grid(ntot_min, ntot_max, points, spacing)
    family, kinds = bounds.ProbeFamily, bounds.FamilyKind
    ent = bounds.curve(family(kinds.ENTANGLED_CAT, n_modes), grid)
    sep = bounds.curve(family(kinds.SEPARABLE_CATS, n_modes), grid)
    one = bounds.curve(family(kinds.SINGLE_CAT), grid)
    columns = (ent.n_tot, ent.eps_min, sep.eps_min, one.eps_min, ent.alpha)
    rows = list(zip(*(c.tolist() for c in columns)))
    header = ["n_tot", "eps_entangled", "eps_separable", "eps_single_cat", "alpha_entangled"]
    docs = {out: _csv_text(header, rows)}
    if svg is not None:
        curves = [
            svgplot.Curve(f"entangled cat, {n_modes} modes", grid, ent.eps_min, "solid"),
            svgplot.Curve(f"{n_modes} separable cats", grid, sep.eps_min, "dotted"),
            svgplot.Curve("single-mode cat", grid, one.eps_min, "dashed"),
        ]
        docs[svg] = svgplot.render_line_plot(
            curves,
            title="Minimum detectable displacement vs photon budget",
            xlabel="total mean photon number",
            ylabel="eps_min",
            log_x=(spacing == "log"),
            log_y=True,
        )
    write_all(docs)  # both files or neither
    return rows


# ---------------------------------------------------------------- bounds

def run_bounds(
    family: str,
    n_modes: int,
    ntot_min: float,
    ntot_max: float,
    points: int,
    spacing: str,
    out: str,
) -> list[tuple]:
    """Tabulate one bound family on a photon-number grid."""
    kind = bounds.FamilyKind(family)
    fam = bounds.ProbeFamily(kind, n_modes if kind in (
        bounds.FamilyKind.SEPARABLE_CATS, bounds.FamilyKind.ENTANGLED_CAT) else 1)
    grid = _make_grid(ntot_min, ntot_max, points, spacing)
    res = bounds.curve(fam, grid)
    columns = (res.n_tot, res.alpha, res.eps_min, res.qfi)
    rows = [(fam.kind.value, fam.n_modes, *r) for r in zip(*(c.tolist() for c in columns))]
    write_csv(out, ["family", "n_modes", "n_tot", "alpha", "eps_min", "qfi"], rows)
    return rows


# ---------------------------------------------------------------- qfi-check

def run_qfi_check(
    modes_list: Sequence[int],
    alpha_list: Sequence[float],
    tol_pure: float,
    tol_fd: float,
    fd_step: float,
    out: str,
) -> tuple[list[list], float, float]:
    """Cross-check the closed-form cat QFI against the Fock oracle.

    Closed form: 4 Var(G) = 4 N (1 + 4 N a^2 / (1 + e^{-2 N a^2})).  The
    oracle computes the same number twice, from the generator variance of
    the truncated state and from the fidelity curvature under the actual
    displacement family.
    """
    rows: list[list] = []
    for n_modes in modes_list:
        for alpha in alpha_list:
            closed = 4.0 * bounds.entangled_cat_generator_variance(alpha, n_modes)
            cat = coherent.make_entangled_cat(alpha, n_modes)
            state = fock.to_fock(cat)
            gen = fock.collective_quad_x(state.dim, n_modes)
            oracle = fock.qfi_pure(state, gen)

            def displaced(eps: float, base=state, k=n_modes) -> fock.FockVector:
                return fock.displace_fock(base, [1j * eps] * k)

            fd = fock.qfi_fidelity_fd(displaced, 0.0, fd_step)
            rel_pure = abs(oracle - closed) / closed
            rel_fd = abs(fd - closed) / closed
            rows.append(
                [n_modes, float(alpha), state.dim, closed, oracle, fd, rel_pure, rel_fd]
            )
    write_csv(
        out,
        ["modes", "alpha", "dim", "qfi_closed_form", "qfi_oracle", "qfi_fd",
         "rel_err_oracle", "rel_err_fd"],
        rows,
    )
    # np.max keeps a NaN that max() would drop; with `not <` a NaN fails the gate
    worst_pure = float(np.max([row[6] for row in rows], initial=0.0))
    worst_fd = float(np.max([row[7] for row in rows], initial=0.0))
    if not (worst_pure < tol_pure and worst_fd < tol_fd):
        raise ToleranceFailure(
            f"qfi-check failed: worst oracle rel err {worst_pure:.3e} (tol {tol_pure:g}), "
            f"worst fd rel err {worst_fd:.3e} (tol {tol_fd:g})"
        )
    return rows, worst_pure, worst_fd


# ---------------------------------------------------------------- ramsey

def run_ramsey(
    qubit_list: Sequence[int],
    shots: int,
    replicates: int,
    seed: int,
    out: str,
) -> list[list]:
    """Simulate product vs GHZ fringe readout over a range of register sizes.

    Both schemes get the same qubit budget: `shots` GHZ repetitions consume
    shots * N qubits, so the product rows run shots * N single-qubit
    repetitions.  Under that accounting the predicted standard error
    1/sqrt(FI * repetitions) falls like N^-1/2 for product and N^-1 for
    GHZ.  Per row: per-repetition Fisher information, that prediction, and
    the spread of theta_hat over independent replicates.  Working point
    theta = pi / (8 N) keeps every fringe away from its extrema.
    """
    root = np.random.SeedSequence(estimation._check_seed(seed))
    rows: list[list] = []
    for n_qubits in qubit_list:
        theta = math.pi / (8.0 * n_qubits)
        for scheme in (estimation.Scheme.PRODUCT, estimation.Scheme.GHZ):
            model = estimation.RamseyModel(scheme, n_qubits, theta)
            info = estimation.ramsey_fisher(model)
            reps = shots * n_qubits if scheme is estimation.Scheme.PRODUCT else shots
            child_seeds = [
                int(child.generate_state(1, np.uint64)[0])
                for child in root.spawn(replicates)
            ]
            estimates = [estimation.ramsey_simulate(model, reps, s) for s in child_seeds]
            theta_hats = np.array([e.theta_hat for e in estimates])
            rows.append(
                [
                    n_qubits,
                    scheme.value,
                    info,
                    1.0 / math.sqrt(info * reps),
                    float(np.std(theta_hats, ddof=1)),
                ]
            )
    write_csv(out, ["N", "scheme", "FI", "delta_theta", "empirical_stderr"], rows)
    return rows


# ---------------------------------------------------------------- montecarlo

def run_montecarlo(
    probe_name: str,
    r: float,
    eps: float,
    shots: int,
    seed: int,
    out: str,
) -> list[list]:
    """One homodyne Monte Carlo run: sample, estimate, report the pull."""
    probe = estimation.SqueezedProbe(r) if probe_name == "squeezed" else estimation.CoherentProbe()
    experiment = estimation.HomodyneExperiment(probe, eps, shots, seed)
    samples = estimation.sample_homodyne(experiment)
    eps_hat, stderr = estimation.estimate_eps(samples, probe)
    pull = (eps_hat - eps) / stderr
    rows = [[probe_name, eps, shots, seed, probe.y_variance, eps_hat, stderr, pull]]
    write_csv(
        out,
        ["probe", "true_eps", "shots", "seed", "y_variance", "eps_hat", "stderr", "pull"],
        rows,
    )
    return rows


# ---------------------------------------------------------------- click wiring

class CommaList(click.ParamType):
    """A non-empty comma-separated list, parsed alike from a flag or a config key."""

    def __init__(self, item: click.ParamType) -> None:
        self.item = item
        self.name = f"{item.name},..."

    def convert(self, value, param, ctx) -> tuple:
        items = tuple(self.item.convert(tok.strip(), param, ctx)
                      for tok in value.split(",") if tok.strip())
        if not items:
            self.fail(f"empty list {value!r}", param, ctx)
        return items


def _load_config(ctx: click.Context, param: click.Parameter, path: str | None) -> None:
    """Load a flat ``key = value`` file, keyed by long-flag name, into ``ctx.default_map``."""
    if path is None:
        return
    names = {opt[2:]: p.name for p in ctx.command.params if p is not param
             for opt in p.opts if opt.startswith("--")}
    settings: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, eq, value = (part.strip() for part in line.partition("="))
            if not eq or not key:
                raise click.UsageError(f"{path}:{lineno}: expected 'key = value'")
            if key not in names:
                raise click.UsageError(
                    f"{path}:{lineno}: unknown key {key!r}; valid keys: {', '.join(names)}")
            settings[names[key]] = value
    ctx.default_map = settings


_config_opt = click.option(
    "--config", type=str, default=None, is_eager=True, expose_value=False,
    callback=_load_config, help="flat key=value settings file; flags given here win over it",
)


def _shots_opt(help: str):
    return click.option("--shots", type=int, default=100_000, help=help)


def _grid_opts(points: int):
    """The photon-budget grid options that figure1 and bounds share."""
    opts = (
        click.option("--modes", "n_modes", type=int, default=10,
                     help="modes of the entangled cat, copies of the separable cats"),
        click.option("--ntot-min", type=float, default=0.1, help="grid start"),
        click.option("--ntot-max", type=float, default=100.0, help="grid end"),
        click.option("--points", type=click.IntRange(min=2), default=points, help="grid size"),
        click.option("--spacing", type=click.Choice(["log", "linear"]), default="log",
                     help="grid spacing"),
    )

    def apply(f):
        for opt in reversed(opts):
            f = opt(f)
        return f

    return apply


@click.group(name="catsense", context_settings={"show_default": True})
def cli() -> None:
    """Displacement-sensing bounds, oracle cross-checks and toy experiments."""


@cli.command("figure1")
@_grid_opts(points=200)
@click.option("--out", type=str, default="figure1.csv", help="CSV path")
@click.option("--svg", type=str, default=None, help="also render an SVG plot here")
@_config_opt
def figure1_cmd(**settings):
    """Compare entangled, separable and single-cat bounds over a photon sweep."""
    rows = run_figure1(**settings)
    click.echo(f"figure1: wrote {len(rows)} rows")


@cli.command("bounds")
@click.option("--family", type=click.Choice([k.value for k in bounds.FamilyKind]),
              default="entangled-cat", help="bound family")
@_grid_opts(points=50)
@click.option("--out", type=str, default="bounds.csv", help="CSV path")
@_config_opt
def bounds_cmd(**settings):
    """Tabulate a single bound family."""
    rows = run_bounds(**settings)
    click.echo(f"bounds: wrote {len(rows)} rows")


@cli.command("qfi-check")
@click.option("--modes-list", type=CommaList(click.INT), default="1,2,3", help="mode counts")
@click.option("--alpha-list", type=CommaList(click.FLOAT), default="0.25,0.5,1,2",
              help="cat amplitudes")
@click.option("--tol-pure", type=float, default=1e-6, help="oracle rel-err gate")
@click.option("--tol-fd", type=float, default=1e-3, help="finite-difference rel-err gate")
@click.option("--fd-step", type=float, default=1e-3, help="fidelity FD base step")
@click.option("--out", type=str, default="qfi_check.csv", help="CSV path")
@_config_opt
def qfi_check_cmd(**settings):
    """Verify closed-form cat QFI against the truncated-basis oracle."""
    rows, worst_pure, worst_fd = run_qfi_check(**settings)
    click.echo(
        f"qfi-check: {len(rows)} cases, worst oracle rel err {worst_pure:.3e}, "
        f"worst fd rel err {worst_fd:.3e}"
    )


@cli.command("ramsey")
@click.option("--qubit-list", type=CommaList(click.IntRange(min=1)), default="1,2,4,8,16",
              help="qubit counts")
@_shots_opt("GHZ repetitions per replicate; product rows use shots*N")
@click.option("--replicates", type=click.IntRange(min=2), default=32, help="independent repeats")
@click.option("--seed", type=int, default=42, help="master seed")
@click.option("--out", type=str, default="ramsey.csv", help="CSV path")
@_config_opt
def ramsey_cmd(**settings):
    """Product vs GHZ Ramsey readout across register sizes."""
    rows = run_ramsey(**settings)
    click.echo(f"ramsey: wrote {len(rows)} rows")


@cli.command("montecarlo")
@click.option("--probe", "probe_name", type=click.Choice(["coherent", "squeezed"]),
              default="coherent", help="homodyne probe")
@click.option("--r", type=float, default=1.0, help="squeezing parameter")
@click.option("--eps", type=float, default=0.1, help="true displacement")
@_shots_opt("homodyne shots")
@click.option("--seed", type=int, default=7, help="rng seed")
@click.option("--out", type=str, default="montecarlo.csv", help="CSV path")
@_config_opt
def montecarlo_cmd(**settings):
    """Sample a homodyne record and recover the displacement."""
    rows = run_montecarlo(**settings)
    click.echo(
        f"montecarlo: eps_hat {_sig17(rows[0][5])}, stderr {_sig17(rows[0][6])}"
    )


def main(argv: Sequence[str] | None = None) -> int:
    """Run the CLI and map failures onto the documented exit codes."""
    try:
        cli.main(args=list(argv) if argv is not None else None,
                 prog_name="catsense", standalone_mode=False)
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except click.ClickException as exc:  # usage errors; the CLI opens no file through click
        click.echo(f"usage error: {exc.format_message()}", err=True)
        return 1
    except click.Abort:
        return 1
    except OSError as exc:
        click.echo(f"io error: {exc}", err=True)
        return 2
    except (CapacityError, ToleranceFailure, TruncationError, StepTooSmallError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 3
    except (CatsenseError, ValueError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

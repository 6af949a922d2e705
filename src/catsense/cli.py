"""Command-line front end.

Settings resolve in three layers: explicit flags beat config-file keys beat
built-in defaults, which ``catsense <cmd> --help`` lists.  The config file is
flat ``key = value`` text, keys named exactly like the long flags of the
subcommand without the leading dashes, ``#`` comments and blank lines
ignored; a key that names no option of the subcommand is an error.  A rule
on one value lives on its option's click type, which ``--help`` shows; the
types of ``--replicates``, ``--qubit-list`` and ``--probe`` restate library
rules to show them there and name the flag.  Outputs are staged all or none,
then renamed one by one: no file is left partial, but a failure between two
renames leaves the first new.  A command imports only the modules it runs.

Exit codes: 0 success, 1 bad usage or bad domain input, 2 I/O failure,
3 oracle capacity or tolerance failure, 130 interrupted (Ctrl-C).
"""

from __future__ import annotations

import math
import os
import sys
from typing import Any, Iterable, Mapping, Sequence

import click
import numpy as np

from . import bounds  # at the top: the --family choices are read from it
from .errors import CatsenseError, ToleranceFailure, require_int
from .outputs import csv_chunks, write_all

_CONFIG_KEY = "catsense.config"  # the ctx.meta key holding the run's --config path


def write_csv(path: str, table: Mapping[str, Any],
              also: Mapping[str, Iterable[bytes]] | None = None) -> int:
    """Write a table's CSV and each `also` path's byte chunks, staged all or none; returns rows.

    Every subcommand writes its files through this one call, which adds to
    `outputs.write_all` only the guard that needs the click context: an
    output that names the run's ``--config`` file is refused before any file
    is staged.  The CSV is streamed into its staging file from
    `outputs.csv_chunks`, a chunk at a time, and then each `also` file from
    its chunks (a generator such as `svgplot.figure1_svg` runs only then).
    """
    also = also or {}
    ctx = click.get_current_context(silent=True)
    config = ctx.meta.get(_CONFIG_KEY) if ctx else None
    if config is not None:
        real = os.path.realpath(config)
        clash = [p for p in (path, *also) if os.path.realpath(p) == real]
        if clash:
            raise ValueError(f"the output {clash[0]!r} names the config file {config!r}")
    write_all([(path, csv_chunks(table)), *also.items()])
    return next((len(c) for c in table.values() if np.ndim(c)), 0)


def _make_grid(ntot_min: float, ntot_max: float, points: int, spacing: str) -> np.ndarray:
    require_int("points", points)  # the ceiling; click's IntRange would echo a huge value
    if not (ntot_min < ntot_max and math.isfinite(ntot_max - ntot_min)):  # NaN, ±inf, overflow
        raise click.UsageError(f"need finite ntot-min < ntot-max, got {ntot_min} and {ntot_max}")
    if spacing == "log" and ntot_min <= 0.0:
        raise click.UsageError("log spacing needs ntot-min > 0")
    # near the largest double, each builder overflows only in the endpoint it then sets to stop
    with np.errstate(over="ignore"):
        return (np.geomspace if spacing == "log" else np.linspace)(ntot_min, ntot_max, points)


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


def _load_config(ctx: click.Context, param: click.Parameter, paths: tuple[str, ...]) -> None:
    """Load a flat ``key = value`` file, keyed by long-flag name, into ``ctx.default_map``."""
    if not paths:
        return
    if len(paths) > 1:  # one file per run: write_csv guards only the path kept in ctx.meta
        raise click.UsageError(f"--config given {len(paths)} times: {', '.join(map(repr, paths))}")
    path, = paths
    ctx.meta[_CONFIG_KEY] = path
    names = {opt[2:]: p.name for p in ctx.command.params if p is not param
             for opt in p.opts if opt.startswith("--")}
    settings: dict[str, str] = {}
    first_line: dict[str, int] = {}
    with open(path, "r", encoding="utf-8-sig") as fh:  # -sig: a leading byte-order mark is dropped
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
            if key in first_line:
                raise click.UsageError(
                    f"{path}:{lineno}: key {key!r} repeats line {first_line[key]}")
            first_line[key] = lineno
            settings[names[key]] = value
    ctx.default_map = settings


_config_opt = click.option(
    "--config", type=str, multiple=True, is_eager=True, expose_value=False,
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
def figure1_cmd(out, svg, n_modes, spacing, **grid):
    """Compare entangled, separable and single-cat bounds over a photon sweep."""
    table = bounds.figure1_table(n_modes, _make_grid(spacing=spacing, **grid))
    plot = {}
    if svg is not None:
        from . import svgplot
        plot[svg] = svgplot.figure1_svg(table, n_modes, log_x=(spacing == "log"))
    rows = write_csv(out, table, plot)
    click.echo(f"figure1: wrote {rows} rows")


@cli.command("bounds")
@click.option("--family", type=click.Choice([k.value for k in bounds.FAMILIES]),
              default="entangled-cat", help="bound family")
@_grid_opts(points=50)
@click.option("--out", type=str, default="bounds.csv", help="CSV path")
@_config_opt
def bounds_cmd(out, family, n_modes, **grid):
    """Tabulate one bound family.  Single-mode families ignore a valid --modes, reporting 1."""
    rows = write_csv(out, bounds.bounds_table(family, n_modes, _make_grid(**grid)))
    click.echo(f"bounds: wrote {rows} rows")


@cli.command("qfi-check")
@click.option("--modes-list", type=CommaList(click.INT), default="1,2,3", help="mode counts")
@click.option("--alpha-list", type=CommaList(click.FLOAT), default="0.25,0.5,1,2",
              help="cat amplitudes")
@click.option("--tol-pure", type=float, default=1e-6, help="oracle rel-err gate")
@click.option("--tol-fd", type=float, default=1e-3, help="finite-difference rel-err gate")
@click.option("--fd-step", type=float, default=1e-3, help="fidelity FD base step")
@click.option("--out", type=str, default="qfi_check.csv", help="CSV path")
@_config_opt
def qfi_check_cmd(out, tol_pure, tol_fd, **settings):
    """Verify closed-form cat QFI against the truncated-basis oracle."""
    from . import fock
    table = fock.cat_qfi_check(**settings)
    cases = write_csv(out, table)  # lands before the gate
    # np.max keeps a NaN that max() would drop; with `not <` a NaN fails the gate
    worst_pure = float(np.max(table["rel_err_oracle"], initial=0.0))
    worst_fd = float(np.max(table["rel_err_fd"], initial=0.0))
    if not (worst_pure < tol_pure and worst_fd < tol_fd):
        raise ToleranceFailure(
            f"qfi-check failed: worst oracle rel err {worst_pure:.3e} (tol {tol_pure:g}), "
            f"worst fd rel err {worst_fd:.3e} (tol {tol_fd:g})"
        )
    click.echo(
        f"qfi-check: {cases} cases, worst oracle rel err {worst_pure:.3e}, "
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
def ramsey_cmd(out, **settings):
    """Product vs GHZ Ramsey readout across register sizes."""
    from . import estimation
    table, at_boundary = estimation.ramsey_table(**settings)
    if at_boundary:
        click.echo(f"warning: ramsey: {at_boundary} of {len(table['N']) * settings['replicates']} "
                   "replicates hit the fringe boundary (p_hat 0 or 1); empirical_stderr includes "
                   "them", err=True)
    rows = write_csv(out, table)
    click.echo(f"ramsey: wrote {rows} rows")


@cli.command("montecarlo")
@click.option("--probe", type=click.Choice(["coherent", "squeezed"]),
              default="coherent", help="homodyne probe")
@click.option("--r", type=float, default=1.0, help="squeezing parameter")
@click.option("--eps", type=float, default=0.1, help="true displacement")
@_shots_opt("homodyne shots")
@click.option("--seed", type=int, default=7, help="rng seed")
@click.option("--out", type=str, default="montecarlo.csv", help="CSV path")
@_config_opt
def montecarlo_cmd(out, **settings):
    """Sample a homodyne record and recover the displacement."""
    from . import estimation
    table = estimation.homodyne_table(**settings)
    write_csv(out, table)
    click.echo(f"montecarlo: eps_hat {table['eps_hat'][0]:.17g}, stderr {table['stderr'][0]:.17g}")


def main(argv: Sequence[str] | None = None) -> int:
    """Run the CLI and map failures onto the documented exit codes."""
    try:
        cli.main(args=argv, prog_name="catsense", standalone_mode=False)  # click copies argv
    except click.ClickException as exc:  # usage errors; the CLI opens no file through click
        click.echo(f"usage error: {exc.format_message()}", err=True)
        return 1
    except click.Abort:  # Ctrl-C: 128 + SIGINT, as a shell reports it
        return 130
    except OSError as exc:
        click.echo(f"io error: {exc}", err=True)
        return 2
    except (CatsenseError, ValueError, MemoryError) as exc:  # a library error carries its exit code
        click.echo(f"error: {exc}", err=True)
        return getattr(exc, "exit_code", 1)
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

"""Each input rule has one home: click types, the library, or a fail-closed gate."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from catsense import fock
from catsense.cli import main

QFI_CASE = ["qfi-check", "--modes-list", "1", "--alpha-list", "0.5"]
HUGE = str(10**400)  # past every count numpy takes, and too long to echo


@pytest.mark.parametrize("args, code, flag", [
    (["figure1", "--points", "1"], 1, "--points"),
    (["figure1", "--spacing", "cubic"], 1, "--spacing"),
    (["montecarlo", "--probe", "thermal"], 1, "--probe"),
    (["ramsey", "--replicates", "1"], 1, "--replicates"),
    (["ramsey", "--qubit-list", "0"], 1, "--qubit-list"),
    (["qfi-check", "--modes-list", "4", "--alpha-list", "0.5"], 3, None),
    (["qfi-check", "--modes-list", "0", "--alpha-list", "0.5"], 1, None),
    # alpha^2 overflows: infinitely many levels, past the oracle caps
    (["qfi-check", "--modes-list", "1", "--alpha-list", "1e200"], 3, None),
    # alpha^2 is finite but 4 N alpha^2 is not, and the level count is a double
    (["qfi-check", "--modes-list", "1", "--alpha-list", "1e154"], 3, None),
    # the level count is the double 1e200, whose square overflows: refused, not OverflowError
    (["qfi-check", "--modes-list", "1", "--alpha-list", "1e100"], 3, None),
    # Var(Y) / shots = exp(-2r) / 10^5 underflows to 0: no stderr, so no pull
    (["montecarlo", "--probe", "squeezed", "--r", "370"], 1, None),
    # exp(-2r) itself underflows to 0
    (["montecarlo", "--probe", "squeezed", "--r", "400"], 1, None),
    # the record mean 2 * eps overflows
    (["montecarlo", "--eps", "1e308", "--shots", "10"], 1, None),
    # the noise sqrt(exp(-2r)) is no wider than the spacing of doubles at 2 * eps
    (["montecarlo", "--probe", "squeezed", "--r", "40"], 1, None),
    (["montecarlo", "--probe", "squeezed", "--r", "366", "--eps", "1e300"], 1, None),
    # r must be a finite real >= 0 for every probe, not only the one it squeezes
    (["montecarlo", "--probe", "coherent", "--r", "nan"], 1, None),
    (["montecarlo", "--probe", "coherent", "--r", "-3"], 1, None),
    # counts past 2^63 - 1, numpy's largest; ramsey's product rows draw shots * N
    (["ramsey", "--qubit-list", "1000000000000000", "--shots", "100000", "--replicates", "2"],
     1, None),
    (["ramsey", "--qubit-list", "4", "--shots", "10000000000000000000", "--replicates", "2"],
     1, None),
    (["ramsey", "--qubit-list", HUGE], 1, None),
    (["ramsey", "--shots", HUGE], 1, None),
    (["montecarlo", "--shots", HUGE], 1, None),
    (["figure1", "--points", "3", "--modes", HUGE], 1, None),
    (["bounds", "--points", "3", "--modes", HUGE], 1, None),
    # a single-mode family ignores a valid --modes but refuses a bad one
    *[(["bounds", "--family", family, "--points", "3", "--modes", modes], 1, None)
      for family in ("sql", "squeezed", "single-cat")
      for modes in ("-5", "0", "99999999999999999999")],
    (["qfi-check", "--alpha-list", "0.5", "--modes-list", HUGE], 1, None),
    (["figure1", "--points", HUGE], 1, None),
    # counts numpy cannot allocate: MemoryError is bad input, not a traceback
    (["montecarlo", "--shots", "1000000000000000"], 1, None),
    (["figure1", "--points", "1000000000000000"], 1, None),
    # Var(G) past the largest double: eps_min would print as 0 and qfi as inf
    (["bounds", "--family", "entangled-cat", "--modes", "1000", "--ntot-min", "1e305",
      "--ntot-max", "1e306", "--points", "2"], 1, None),
    *[(["bounds", "--family", family, "--spacing", "linear", "--ntot-min", "1e307",
        "--ntot-max", "1.7e308"], 1, None)
      for family in ("squeezed", "single-cat", "separable-cats")],
    (["figure1", "--spacing", "linear", "--ntot-min", "1e307", "--ntot-max", "1.7e308"], 1, None),
])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_bad_value_exit_code(tmp_path, capsys, args, code, flag):
    out = tmp_path / "out.csv"
    assert main([*args, "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert not out.exists()
    assert "Traceback" not in err
    assert len(err) < 200
    if flag is not None:  # a usage error names its flag
        assert f"'{flag}'" in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_log_grid_ending_at_the_largest_double(tmp_path):
    # geomspace's power step overflows in the endpoint it then replaces with stop
    out = tmp_path / "out.csv"
    assert main(["bounds", "--family", "sql", "--ntot-min", "1e308",
                 "--ntot-max", "1.7976931348623157e308", "--points", "4", "--out", str(out)]) == 0
    n_tot = [float(line.split(",")[2]) for line in out.read_text().splitlines()[1:]]
    assert len(n_tot) == 4 and all(math.isfinite(n) for n in n_tot)
    assert n_tot[-1] == 1.7976931348623157e308


@pytest.mark.parametrize("cmd, shown", [
    ("figure1", ["[log|linear]", "x>=2"]),
    ("bounds", ["[log|linear]", "x>=2"]),
    ("montecarlo", ["[coherent|squeezed]"]),
    ("ramsey", ["x>=2"]),
])
def test_help_shows_the_rules(capsys, cmd, shown):
    assert main([cmd, "--help"]) == 0
    text = capsys.readouterr().out
    for rule in shown:
        assert rule in text


class TestQfiGatesFailClosed:
    @pytest.mark.parametrize("flag", ["--tol-pure", "--tol-fd"])
    def test_nan_tolerance_fails(self, tmp_path, flag):
        out = tmp_path / "q.csv"
        assert main([*QFI_CASE, flag, "nan", "--out", str(out)]) == 3
        assert out.exists()  # the report is still written

    def test_nan_error_fails(self, tmp_path, monkeypatch):
        monkeypatch.setattr(fock, "qfi_pure", lambda state, gen: float("nan"))
        out = tmp_path / "q.csv"
        assert main([*QFI_CASE, "--out", str(out)]) == 3
        assert "nan" in out.read_text().splitlines()[1]

    @pytest.mark.parametrize("step", ["nan", "inf"])
    def test_nonfinite_fd_step_is_bad_input(self, tmp_path, capsys, step):
        out = tmp_path / "q.csv"
        assert main([*QFI_CASE, "--fd-step", step, "--out", str(out)]) == 1
        assert "finite" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("cmd", ["ramsey", "montecarlo"])
@pytest.mark.parametrize("seed", [2**64, -1])
def test_one_seed_rule(tmp_path, capsys, cmd, seed):
    out = tmp_path / "s.csv"
    assert main([cmd, "--seed", str(seed), "--shots", "10", "--out", str(out)]) == 1
    assert f"seed must be in [0, 2^64), got {seed}" in capsys.readouterr().err
    assert not out.exists()


def test_cli_import_skips_the_network_stack():
    # an XML helper such as xml.sax.saxutils would pull in urllib.request,
    # http.client and email on every subcommand
    src = Path(fock.__file__).resolve().parents[1]
    paths = [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    script = (
        "import sys\n"
        "import catsense.cli\n"
        "heavy = ('xml.sax', 'http.client', 'email')\n"
        "print(sorted(m for m in sys.modules if m.startswith(heavy)))\n"
    )
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def _fresh_interpreter(script: str, *args: str, cwd=None) -> str:
    """Stdout of `script` in a new interpreter that imports catsense from this checkout."""
    src = Path(fock.__file__).resolve().parents[1]
    paths = [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    done = subprocess.run([sys.executable, "-c", script, *args], cwd=cwd, env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_bare_import_loads_no_submodule():
    script = (
        "import sys\n"
        "import catsense\n"
        "print(sorted(m for m in sys.modules if m.startswith('catsense.') or m == 'numpy'))\n"
    )
    assert _fresh_interpreter(script) == "[]"


def test_public_names_load_on_first_access():
    script = (
        "import sys\n"
        "import catsense\n"
        "for name in catsense.__all__:\n"
        "    obj = getattr(catsense, name)\n"
        "    assert obj.__module__.startswith('catsense.'), name\n"
        "    assert obj is getattr(sys.modules[obj.__module__], name), name\n"
        "assert set(catsense.__all__) <= set(dir(catsense))\n"
        "assert catsense.fock is sys.modules['catsense.fock']\n"
        "try:\n"
        "    catsense.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    assert _fresh_interpreter(script) == "module 'catsense' has no attribute 'no_such_name'"


@pytest.mark.parametrize("args, adds", [
    (["bounds"], []),
    (["figure1"], []),
    (["figure1", "--svg", "t.svg"], ["svgplot"]),
    (["qfi-check"], ["coherent", "fock"]),
    (["ramsey"], ["estimation"]),
    (["montecarlo"], ["estimation"]),
])
def test_each_command_loads_only_what_it_runs(tmp_path, args, adds):
    script = (
        "import sys\n"
        "from catsense.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(code, sorted(m for m in sys.modules if m.startswith('catsense.')))\n"
    )
    out = _fresh_interpreter(script, *args, "--out", "t.csv", cwd=tmp_path)
    want = sorted(f"catsense.{m}" for m in ["cli", "bounds", "errors", "outputs", *adds])
    assert out.splitlines()[-1] == f"0 {want}"  # after the command's own echo


def test_qubit_list_rule_reads_from_config(tmp_path, capsys):
    cfg = tmp_path / "r.cfg"
    cfg.write_text("qubit-list = 2, 0\n")
    out = tmp_path / "r.csv"
    assert main(["ramsey", "--config", str(cfg), "--out", str(out)]) == 1
    assert "'--qubit-list'" in capsys.readouterr().err
    assert not out.exists()

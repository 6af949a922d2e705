"""Each input rule has one home: click types, the library, or a fail-closed gate."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from catsense import fock
from catsense.cli import main

QFI_CASE = ["qfi-check", "--modes-list", "1", "--alpha-list", "0.5"]


@pytest.mark.parametrize("args, code, flag", [
    (["figure1", "--points", "1"], 1, "--points"),
    (["figure1", "--spacing", "cubic"], 1, "--spacing"),
    (["montecarlo", "--probe", "thermal"], 1, "--probe"),
    (["ramsey", "--replicates", "1"], 1, "--replicates"),
    (["ramsey", "--qubit-list", "0"], 1, "--qubit-list"),
    (["qfi-check", "--modes-list", "4", "--alpha-list", "0.5"], 3, None),
    (["qfi-check", "--modes-list", "0", "--alpha-list", "0.5"], 1, None),
])
def test_bad_value_exit_code(tmp_path, capsys, args, code, flag):
    out = tmp_path / "out.csv"
    assert main([*args, "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert not out.exists()
    assert "Traceback" not in err
    if flag is not None:  # a usage error names its flag
        assert f"'{flag}'" in err


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
    # svgplot escapes with html.escape; xml.sax.saxutils would pull in
    # urllib.request, http.client and email on every subcommand
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


def test_qubit_list_rule_reads_from_config(tmp_path, capsys):
    cfg = tmp_path / "r.cfg"
    cfg.write_text("qubit-list = 2, 0\n")
    out = tmp_path / "r.csv"
    assert main(["ramsey", "--config", str(cfg), "--out", str(out)]) == 1
    assert "'--qubit-list'" in capsys.readouterr().err
    assert not out.exists()

"""Settings resolution, bad-input handling and all-or-nothing outputs of the CLI."""

import builtins
import errno

import numpy as np
import pytest

from catsense import bounds, svgplot
from catsense.cli import main, write_csv
from catsense.outputs import write_all

# Every setting of every subcommand at its documented default.  Keys are
# the long flags without dashes, which is also how a config file names them.
DEFAULTS = {
    "figure1": {"modes": "10", "ntot-min": "0.1", "ntot-max": "100", "points": "200",
                "spacing": "log", "out": "figure1.csv"},
    "bounds": {"family": "entangled-cat", "modes": "10", "ntot-min": "0.1",
               "ntot-max": "100", "points": "50", "spacing": "log", "out": "bounds.csv"},
    "qfi-check": {"modes-list": "1,2,3", "alpha-list": "0.25,0.5,1,2", "tol-pure": "1e-6",
                  "tol-fd": "1e-3", "fd-step": "1e-3", "out": "qfi_check.csv"},
    "ramsey": {"qubit-list": "1,2,4,8,16", "shots": "100000", "replicates": "32",
               "seed": "42", "out": "ramsey.csv"},
    "montecarlo": {"probe": "coherent", "r": "1.0", "eps": "0.1", "shots": "100000",
                   "seed": "7", "out": "montecarlo.csv"},
}

# Non-default values that keep a run fast; given as flags in every variant.
CHEAP = {"qfi-check": {"alpha-list": "0.25,0.5"}}


def _flags(settings):
    return [arg for key, value in settings.items() for arg in (f"--{key}", value)]


def _write_config(path, settings):
    path.write_text("# every setting\n" + "".join(f"{k} = {v}\n" for k, v in settings.items()))
    return str(path)


@pytest.mark.parametrize("cmd", sorted(DEFAULTS))
def test_flags_config_and_defaults_agree(cmd, tmp_path, monkeypatch):
    cheap = CHEAP.get(cmd, {})
    settings = {**DEFAULTS[cmd], **cheap}
    variants = {
        "flags": _flags(settings),
        "config": ["--config", _write_config(tmp_path / "run.cfg", settings)],
        "defaults": _flags(cheap),
    }
    outputs = {}
    for name, args in variants.items():
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        assert main([cmd, *args]) == 0, name
        outputs[name] = (tmp_path / name / DEFAULTS[cmd]["out"]).read_bytes()
    assert outputs["flags"] == outputs["defaults"]
    assert outputs["config"] == outputs["defaults"]


@pytest.mark.parametrize("cmd, settings, rows", [
    ("qfi-check", {"modes-list": "1, 2", "alpha-list": "0.5"}, 2),
    ("ramsey", {"qubit-list": "1,2,4", "shots": "500", "replicates": "4"}, 6),
])
def test_list_keys_from_config(cmd, settings, rows, tmp_path):
    out = tmp_path / "x.csv"
    cfg = _write_config(tmp_path / "run.cfg", {**settings, "out": str(out)})
    assert main([cmd, "--config", cfg]) == 0
    assert len(out.read_text().splitlines()) == rows + 1


@pytest.mark.parametrize("key", ["point", "modes-list", "config"])
def test_config_key_naming_no_option_exits_1(key, tmp_path, capsys):
    out = tmp_path / "fig.csv"
    cfg = _write_config(tmp_path / "run.cfg", {key: "7"})
    assert main(["figure1", "--config", cfg, "--out", str(out)]) == 1
    assert "points" in capsys.readouterr().err  # the valid keys are listed
    assert not out.exists()


@pytest.mark.parametrize("cmd, flag", [
    ("qfi-check", "--modes-list"), ("qfi-check", "--alpha-list"), ("ramsey", "--qubit-list"),
])
@pytest.mark.parametrize("via_config", [False, True])
def test_empty_list_exits_1(cmd, flag, via_config, tmp_path):
    out = tmp_path / "x.csv"
    if via_config:
        args = ["--config", _write_config(tmp_path / "run.cfg", {flag[2:]: ""})]
    else:
        args = [flag, ""]
    assert main([cmd, *args, "--out", str(out)]) == 1
    assert not out.exists()


def test_bad_list_item_exits_1(tmp_path):
    assert main(["qfi-check", "--alpha-list", "0.5,x", "--out", str(tmp_path / "x.csv")]) == 1


@pytest.mark.parametrize("svg", ["no/x.svg", "adir"])
def test_figure1_unwritable_svg_leaves_no_csv(svg, tmp_path):
    (tmp_path / "adir").mkdir()
    out = tmp_path / "figure1.csv"
    assert main(["figure1", "--out", str(out), "--svg", str(tmp_path / svg)]) == 2
    assert [p.name for p in tmp_path.iterdir()] == ["adir"]


class _HalfWriter:
    """A file whose write stores half the text, then fails like a full disk."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.fh.write(text[: len(text) // 2])
        self.fh.flush()
        raise OSError(errno.ENOSPC, "No space left on device")


@pytest.fixture
def full_disk(monkeypatch):
    """Every file opened for writing takes half its text, then the write fails."""
    real_open = builtins.open

    def failing_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        return _HalfWriter(fh) if ("w" in mode or "x" in mode) else fh

    monkeypatch.setattr(builtins, "open", failing_open)


@pytest.fixture
def old_files(tmp_path):
    paths = [tmp_path / "old.csv", tmp_path / "old.svg"]
    for p in paths:
        p.write_text(f"previous {p.name}\n")
    return paths


def _assert_untouched(paths):
    assert [p.read_text() for p in paths] == [f"previous {p.name}\n" for p in paths]
    assert sorted(paths[0].parent.iterdir()) == sorted(paths)  # no temporary left behind


def test_failed_csv_write_keeps_previous_file(old_files, full_disk):
    with pytest.raises(OSError):
        write_csv(str(old_files[0]), {"a": [1.5] * 100})
    _assert_untouched(old_files)


def test_failed_svg_write_keeps_previous_file(old_files, full_disk):
    with pytest.raises(OSError):
        svg = svgplot.figure1_svg(bounds.figure1_table(2, np.array([1.0, 2.0])), 2, True)
        write_all({str(old_files[1]): svg})
    _assert_untouched(old_files)


def test_failed_figure1_keeps_previous_files(old_files, full_disk):
    csv, svg = (str(p) for p in old_files)
    assert main(["figure1", "--points", "8", "--out", csv, "--svg", svg]) == 2
    _assert_untouched(old_files)


def test_empty_target_path_writes_nothing(tmp_path, monkeypatch):
    # "" would fail only at its rename, after the CSV was already replaced
    monkeypatch.chdir(tmp_path)
    assert main(["figure1", "--points", "3", "--out", "a.csv", "--svg", ""]) == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("out", ["f.csv", "./f.csv"])
def test_csv_and_svg_naming_one_file_write_nothing(out, tmp_path, monkeypatch, capsys):
    # one spelling would keep only the SVG; two would collide on one temporary file
    monkeypatch.chdir(tmp_path)
    assert main(["figure1", "--points", "3", "--out", out, "--svg", "f.csv"]) == 1
    assert capsys.readouterr().err == f"error: the outputs {out!r}, 'f.csv' name one file\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args", [["bounds", "--out", "c.cfg"],
                                  ["figure1", "--out", "f.csv", "--svg", "./c.cfg"]])
def test_output_naming_the_config_file_writes_nothing(args, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "c.cfg"
    _write_config(cfg, {"points": "3"})
    before = cfg.read_bytes()
    assert main([*args, "--config", "c.cfg"]) == 1
    err = capsys.readouterr().err
    assert err == f"error: the output {args[-1]!r} names the config file 'c.cfg'\n"
    assert cfg.read_bytes() == before
    assert list(tmp_path.iterdir()) == [cfg]


def test_config_with_a_byte_order_mark(tmp_path):
    settings = {"family": "squeezed", "points": "5", "spacing": "linear"}
    plain = _write_config(tmp_path / "plain.cfg", settings)
    (tmp_path / "bom.cfg").write_bytes(b"\xef\xbb\xbf" + (tmp_path / "plain.cfg").read_bytes())
    outputs = []
    for cfg in (plain, str(tmp_path / "bom.cfg")):
        out = tmp_path / f"{len(outputs)}.csv"
        assert main(["bounds", "--config", cfg, "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] and outputs[0].count(b"\n") == 6


@pytest.mark.parametrize("cmd", sorted(DEFAULTS))
def test_help_shows_every_default(cmd, capsys):
    assert main([cmd, "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    entries = {seg.split(" ", 1)[0]: seg for seg in text.split(" --")[1:]}
    for key in DEFAULTS[cmd]:
        assert "[default: " in entries[key], entries[key]
    # --svg and --config have no default, and no other option shows one
    assert text.count("[default: ") == len(DEFAULTS[cmd])

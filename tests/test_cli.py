import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from catsense import bounds, cli, fock
from catsense.cli import main, run_figure1, write_csv


def read_rows(path):
    text = path.read_text()
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


class TestCsvFormat:
    def test_seventeen_significant_digits_round_trip(self, tmp_path):
        out = tmp_path / "x.csv"
        value = math.pi / 7.0
        write_csv(str(out), {"v": [value]})
        _, rows = read_rows(out)
        assert float(rows[0][0]) == value  # %.17g is lossless for doubles

    def test_lf_only_line_endings(self, tmp_path):
        out = tmp_path / "x.csv"
        write_csv(str(out), {"a": [1, 3], "b": [2.5, 4.5]})
        raw = out.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_mixed_cell_types(self, tmp_path):
        out = tmp_path / "x.csv"
        write_csv(str(out), {"s": ["ghz"], "i": [7], "f": [0.5]})
        assert out.read_text().splitlines()[1] == "ghz,7,0.5"


class TestFigure1:
    def test_default_grid_shape(self, tmp_path):
        out = tmp_path / "fig.csv"
        code = main(["figure1", "--out", str(out)])
        assert code == 0
        header, rows = read_rows(out)
        assert header == ["n_tot", "eps_entangled", "eps_separable",
                          "eps_single_cat", "alpha_entangled"]
        assert len(rows) == 200
        assert float(rows[0][0]) == pytest.approx(0.1)
        assert float(rows[-1][0]) == pytest.approx(100.0)

    def test_rows_ordered_and_consistent(self, tmp_path):
        out = tmp_path / "fig.csv"
        assert main(["figure1", "--out", str(out), "--points", "60"]) == 0
        _, rows = read_rows(out)
        prev = None
        for cells in rows:
            n_tot, ent, sep, single, alpha = map(float, cells)
            assert ent < sep < single
            assert bounds.entangled_cat_ntot(alpha, 10) == pytest.approx(n_tot, rel=1e-9)
            if prev is not None:
                assert ent < prev
            prev = ent

    def test_reference_point_values(self, tmp_path):
        out = tmp_path / "fig.csv"
        assert main([
            "figure1", "--out", str(out),
            "--ntot-min", "0.1", "--ntot-max", "100", "--points", "4",
        ]) == 0
        _, rows = read_rows(out)
        n_tot, ent, sep, single, _ = map(float, rows[2])
        assert n_tot == pytest.approx(10.0, rel=1e-12)
        assert ent == pytest.approx(0.0493864797828243, rel=1e-9)
        assert sep == pytest.approx(0.1414213562373095, rel=1e-9)
        assert single == pytest.approx(0.15617376188860607, rel=1e-9)

    def test_svg_output(self, tmp_path):
        out = tmp_path / "fig.csv"
        svg = tmp_path / "fig.svg"
        assert main(["figure1", "--out", str(out), "--points", "16",
                     "--svg", str(svg)]) == 0
        root = ET.fromstring(svg.read_text())
        assert root.tag.endswith("svg")
        polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
        assert len(polylines) == 3

    def test_linear_spacing(self, tmp_path):
        out = tmp_path / "fig.csv"
        assert main(["figure1", "--out", str(out), "--points", "5",
                     "--ntot-min", "1", "--ntot-max", "3",
                     "--spacing", "linear"]) == 0
        _, rows = read_rows(out)
        assert [float(r[0]) for r in rows] == pytest.approx([1.0, 1.5, 2.0, 2.5, 3.0])


class TestUsageErrors:
    def test_unknown_option(self):
        assert main(["figure1", "--frobnicate", "3"]) == 1

    def test_unknown_command(self):
        assert main(["no-such-command"]) == 1

    def test_too_few_points(self, tmp_path):
        assert main(["figure1", "--points", "1", "--out", str(tmp_path / "x.csv")]) == 1

    def test_log_grid_needs_positive_min(self, tmp_path):
        assert main(["figure1", "--ntot-min", "-1", "--out", str(tmp_path / "x.csv")]) == 1

    def test_inverted_range(self, tmp_path):
        assert main(["figure1", "--ntot-min", "5", "--ntot-max", "2",
                     "--out", str(tmp_path / "x.csv")]) == 1

    def test_bad_spacing(self, tmp_path):
        assert main(["figure1", "--spacing", "cubic", "--out", str(tmp_path / "x.csv")]) == 1

    def test_bad_family(self, tmp_path):
        assert main(["bounds", "--family", "telepathic", "--out", str(tmp_path / "x.csv")]) == 1

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0
        assert main(["figure1", "--help"]) == 0


class TestIoErrors:
    def test_missing_output_directory(self, tmp_path):
        assert main(["figure1", "--out", str(tmp_path / "no" / "dir" / "x.csv")]) == 2

    def test_missing_config_file(self, tmp_path):
        assert main(["figure1", "--config", str(tmp_path / "absent.cfg"),
                     "--out", str(tmp_path / "x.csv")]) == 2


class TestConfigFile:
    def test_config_supplies_values(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "fig.csv"
        cfg.write_text(
            "# comment line\n"
            "\n"
            f"out = {out}\n"
            "points = 7\n"
            "ntot-min = 1\n"
            "ntot-max = 10\n"
        )
        assert main(["figure1", "--config", str(cfg)]) == 0
        _, rows = read_rows(out)
        assert len(rows) == 7

    def test_flag_beats_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "fig.csv"
        cfg.write_text("points = 7\n")
        assert main(["figure1", "--config", str(cfg), "--points", "4",
                     "--out", str(out)]) == 0
        _, rows = read_rows(out)
        assert len(rows) == 4

    def test_malformed_line(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("points 7\n")
        assert main(["figure1", "--config", str(cfg)]) == 1

    def test_unparseable_value(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("points = many\n")
        assert main(["figure1", "--config", str(cfg)]) == 1


class TestBoundsCommand:
    def test_each_family_runs(self, tmp_path):
        for fam in ["sql", "squeezed", "single-cat", "separable-cats", "entangled-cat"]:
            out = tmp_path / f"{fam}.csv"
            assert main(["bounds", "--family", fam, "--points", "5",
                         "--out", str(out)]) == 0
            header, rows = read_rows(out)
            assert header == ["family", "n_modes", "n_tot", "alpha", "eps_min", "qfi"]
            assert len(rows) == 5
            assert rows[0][0] == fam

    def test_sql_rows_flat(self, tmp_path):
        out = tmp_path / "sql.csv"
        assert main(["bounds", "--family", "sql", "--points", "4", "--out", str(out)]) == 0
        _, rows = read_rows(out)
        assert {r[4] for r in rows} == {"0.5"}


class TestQfiCheck:
    def test_small_grid_passes(self, tmp_path):
        out = tmp_path / "qfi.csv"
        code = main(["qfi-check", "--modes-list", "1,2", "--alpha-list", "0.5,1",
                     "--out", str(out)])
        assert code == 0
        header, rows = read_rows(out)
        assert len(rows) == 4
        for cells in rows:
            assert float(cells[6]) < 1e-6   # oracle rel err
            assert float(cells[7]) < 1e-3   # fd rel err

    def test_capacity_exit_code(self, tmp_path):
        assert main(["qfi-check", "--modes-list", "4", "--alpha-list", "0.5",
                     "--out", str(tmp_path / "q.csv")]) == 3

    def test_unreachable_tolerance_exit_code(self, tmp_path):
        # the fd route carries a ~1e-9 Richardson residual, so a 1e-18 gate
        # must trip; (the generator route can agree to the last bit, so it
        # is no good for forcing this path)
        out = tmp_path / "q.csv"
        code = main(["qfi-check", "--modes-list", "1", "--alpha-list", "0.5",
                     "--tol-fd", "1e-18", "--out", str(out)])
        assert code == 3
        assert out.exists()  # report still written so the failure is inspectable

    def test_run_qfi_check_default_grid_values(self):
        table = fock.cat_qfi_check(modes_list=(1,), alpha_list=(1.0,), fd_step=1e-3)
        worst_pure = float(np.max(table["rel_err_oracle"], initial=0.0))
        worst_fd = float(np.max(table["rel_err_fd"], initial=0.0))
        assert table["qfi_closed_form"][0] == pytest.approx(18.092753247646102, rel=1e-12)
        assert worst_pure < 1e-6 and worst_fd < 1e-3


class TestRamseyCommand:
    def test_csv_shape_and_fisher_column(self, tmp_path):
        out = tmp_path / "ramsey.csv"
        assert main(["ramsey", "--qubit-list", "1,4", "--shots", "2000",
                     "--replicates", "8", "--seed", "9", "--out", str(out)]) == 0
        header, rows = read_rows(out)
        assert header == ["N", "scheme", "FI", "delta_theta", "empirical_stderr"]
        assert [r[1] for r in rows] == ["product", "ghz", "product", "ghz"]
        by_key = {(r[0], r[1]): list(map(float, r[2:])) for r in rows}
        assert by_key[("4", "ghz")][0] == 64.0
        assert by_key[("4", "product")][0] == 4.0
        # equal qubit budget: product rows run shots * N repetitions
        assert by_key[("4", "product")][1] == pytest.approx(1 / math.sqrt(4 * 8000))
        assert by_key[("4", "ghz")][1] == pytest.approx(1 / math.sqrt(64 * 2000))

    def test_empirical_tracks_prediction(self, tmp_path):
        out = tmp_path / "ramsey.csv"
        assert main(["ramsey", "--qubit-list", "2", "--shots", "100000",
                     "--replicates", "64", "--seed", "4", "--out", str(out)]) == 0
        _, rows = read_rows(out)
        for cells in rows:
            predicted, empirical = float(cells[3]), float(cells[4])
            assert empirical == pytest.approx(predicted, rel=0.35)

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["ramsey", "--qubit-list", "1,2", "--shots", "500",
                "--replicates", "4", "--seed", "33"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_boundary_replicates_warn_once(self, tmp_path, capsys):
        # p = cos^2(pi / 512) over 6400 product shots: every replicate sees p_hat = 1
        out = tmp_path / "ramsey.csv"
        assert main(["ramsey", "--qubit-list", "64", "--shots", "100", "--replicates", "4",
                     "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert err.startswith("warning: ramsey: 4 of 8 replicates hit the fringe boundary")
        assert err.count("\n") == 1
        _, rows = read_rows(out)
        assert (rows[0][1], rows[0][4]) == ("product", "0")  # the CSV still averages them in

    def test_default_run_has_no_boundary_warning(self, tmp_path, capsys):
        assert main(["ramsey", "--out", str(tmp_path / "ramsey.csv")]) == 0
        assert capsys.readouterr().err == ""

    def test_replicates_validated(self, tmp_path):
        assert main(["ramsey", "--replicates", "1", "--out", str(tmp_path / "r.csv")]) == 1


class TestMonteCarloCommand:
    def test_coherent_run(self, tmp_path):
        out = tmp_path / "mc.csv"
        assert main(["montecarlo", "--eps", "0.25", "--shots", "40000",
                     "--seed", "5", "--out", str(out)]) == 0
        header, rows = read_rows(out)
        assert header == ["probe", "true_eps", "shots", "seed", "y_variance",
                          "eps_hat", "stderr", "pull"]
        cells = rows[0]
        assert cells[0] == "coherent"
        assert float(cells[4]) == 1.0
        assert abs(float(cells[7])) < 5.0

    def test_squeezed_run(self, tmp_path):
        out = tmp_path / "mc.csv"
        assert main(["montecarlo", "--probe", "squeezed", "--r", "1.2",
                     "--eps", "0.02", "--shots", "40000", "--seed", "5",
                     "--out", str(out)]) == 0
        _, rows = read_rows(out)
        assert float(rows[0][4]) == pytest.approx(math.exp(-2.4))

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["montecarlo", "--eps", "0.1", "--shots", "1000", "--seed", "77"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_probe(self, tmp_path):
        assert main(["montecarlo", "--probe", "thermal",
                     "--out", str(tmp_path / "m.csv")]) == 1

    def test_negative_r(self, tmp_path):
        assert main(["montecarlo", "--probe", "squeezed", "--r", "-1",
                     "--out", str(tmp_path / "m.csv")]) == 1


class TestRunFigure1Function:
    def test_returns_rows_matching_csv(self, tmp_path):
        out = tmp_path / "f.csv"
        table = run_figure1(10, 0.1, 100.0, 4, "log")
        write_csv(str(out), table)
        rows = np.column_stack(list(table.values()))
        assert len(rows) == 4
        _, csv_rows = read_rows(out)
        assert float(csv_rows[1][1]) == rows[1][1]


@pytest.mark.parametrize("args, files", [
    (["figure1", "--points", "4", "--svg", "t.svg"], 2),
    (["bounds", "--points", "3"], 1),
    (["qfi-check", "--modes-list", "1", "--alpha-list", "0.5"], 1),
    (["ramsey", "--qubit-list", "1", "--shots", "10", "--replicates", "2"], 1),
    (["montecarlo", "--shots", "10"], 1),
])
def test_each_command_writes_through_one_call(tmp_path, monkeypatch, args, files):
    calls = []
    monkeypatch.setattr(cli, "write_all", calls.append)
    monkeypatch.chdir(tmp_path)
    assert main([*args, "--out", "t.csv"]) == 0
    assert [sorted(docs) for docs in calls] == [sorted(["t.csv", "t.svg"][:files])]
    assert list(tmp_path.iterdir()) == []  # the run_* functions open no file

import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from catsense.cli import main
from catsense.estimation import homodyne_table, ramsey_fisher, ramsey_table


def run(probe="coherent", r=0.0, eps=0.2, shots=4000, seed=101):
    """homodyne_table's one row, and the record it drew, rebuilt by the documented draw."""
    row = {key: column[0] for key, column in homodyne_table(probe, r, eps, shots, seed).items()}
    rng = np.random.Generator(np.random.PCG64(seed))
    y = rng.normal(loc=2.0 * eps, scale=math.sqrt(row["y_variance"]), size=shots)
    assert row["eps_hat"] == float(np.mean(y)) / 2.0
    assert row["stderr"] == math.sqrt(row["y_variance"] / shots) / 2.0
    assert row["pull"] == (row["eps_hat"] - eps) / row["stderr"]
    return row, y


class TestProbes:
    def test_coherent_noise_is_vacuum(self):
        assert run()[0]["y_variance"] == 1.0
        assert run(r=2.0)[0]["y_variance"] == 1.0  # r squeezes only the squeezed probe

    def test_squeezed_noise(self):
        assert run("squeezed", 1.0)[0]["y_variance"] == pytest.approx(math.exp(-2.0))
        assert run("squeezed", 0.0)[0]["y_variance"] == 1.0

    def test_squeezed_validation(self):
        with pytest.raises(ValueError):
            homodyne_table("squeezed", -0.5, 0.1, 10, 7)

    def test_unknown_probe(self):
        with pytest.raises(ValueError, match=r"^probe must be coherent or squeezed, got 'thermal'"):
            homodyne_table("thermal", 0.0, 0.1, 10, 7)

    def test_squeezed_noise_per_shot_must_stay_positive(self):
        # exp(-740) is subnormal: one shot keeps a stderr, 10^5 shots divide it down to 0
        assert homodyne_table("squeezed", 370.0, 0.0, 1, 7)["shots"] == [1]
        with pytest.raises(ValueError, match=r"the squeezed probe at r = 370.0 over 100000 shots "
                                             r"must be finite and > 0"):
            homodyne_table("squeezed", 370.0, 0.1, 100_000, 7)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("eps", [1e308, np.float64(1e308)])
    def test_record_mean_must_be_finite(self, eps):
        with pytest.raises(ValueError, match=r"^the record mean 2 \* true_eps must be finite "
                                             r"and >= 0, got inf$"):
            homodyne_table("coherent", 0.0, eps, 10, 7)

    @pytest.mark.parametrize("probe, r, label, eps, ok_eps", [
        ("squeezed", 40.0, "the squeezed probe at r = 40.0", 0.1, 1e-3),
        ("squeezed", 370.0, "the squeezed probe at r = 370.0", 0.1, 0.0),
        ("squeezed", 366.0, "the squeezed probe at r = 366.0", 1e300, 0.0),
        # sqrt(Var(Y)) = 1 is the spacing of doubles at 2^52
        ("coherent", 0.0, "the coherent probe", 2.0**51, 2.0**50),
    ])
    def test_noise_must_outsize_the_double_spacing_at_the_mean(self, probe, r, label, eps,
                                                               ok_eps):
        # every sample would round to the mean 2 eps, and the pull would measure rounding
        with pytest.raises(ValueError, match=re.escape(f"{label} is no wider") + ".*"
                                             + re.escape(f"eps = {eps}")):
            homodyne_table(probe, r, eps, 1, 7)
        assert homodyne_table(probe, r, ok_eps, 1, 7)["true_eps"] == [ok_eps]


class TestSampling:
    def test_same_seed_bit_identical(self):
        a = homodyne_table("coherent", 0.0, 0.2, 4000, 101)
        b = homodyne_table("coherent", 0.0, 0.2, 4000, 101)
        assert a == b

    def test_different_seed_differs(self):
        a = homodyne_table("coherent", 0.0, 0.2, 4000, 101)
        b = homodyne_table("coherent", 0.0, 0.2, 4000, 102)
        assert a["eps_hat"] != b["eps_hat"]

    def test_signal_mean_is_twice_eps(self):
        _, s = run(shots=200_000)
        # 5 sigma band around 2*eps
        assert abs(float(np.mean(s)) - 0.4) < 5.0 / math.sqrt(200_000)

    def test_squeezing_narrows_the_record(self):
        r = 1.0
        _, s = run("squeezed", r, shots=200_000)
        assert float(np.var(s)) == pytest.approx(math.exp(-2 * r), rel=0.05)

    @pytest.mark.parametrize("shots, eps, seed", [(0, 0.2, 101), (4000, -0.1, 101),
                                                  (4000, 0.2, -1), (4000, 0.2, 2**64)])
    def test_validation(self, shots, eps, seed):
        with pytest.raises(ValueError):
            homodyne_table("coherent", 0.0, eps, shots, seed)


class TestEstimateEps:
    def test_known_noise_path(self):
        row, _ = run(eps=0.3, shots=10_000, seed=7)
        eps_hat, stderr = row["eps_hat"], row["stderr"]
        assert stderr == 1.0 / (2.0 * math.sqrt(10_000))
        assert abs(eps_hat - 0.3) < 5 * stderr

    def test_single_shot(self):
        row, y = run(shots=1)
        assert row["eps_hat"] == y[0] / 2.0
        assert row["stderr"] == 0.5

    def test_squeezed_probe_shrinks_stderr(self):
        plain = homodyne_table("coherent", 0.0, 0.0, 100, 7)["stderr"][0]
        squeezed = homodyne_table("squeezed", 1.0, 0.0, 100, 7)["stderr"][0]
        assert squeezed == pytest.approx(plain * math.exp(-1.0))

    @given(seed=st.integers(0, 2**32 - 1))
    def test_estimator_consistent_within_five_sigma(self, seed):
        row = homodyne_table("coherent", 0.0, 0.25, 2000, seed)
        eps_hat, stderr = row["eps_hat"][0], row["stderr"][0]
        assert abs(eps_hat - 0.25) < 5 * stderr


class TestRamseyFisher:
    def test_fisher_information(self):
        assert ramsey_fisher(1) == 4.0
        assert ramsey_fisher(7) == 4.0 * 49.0


class TestRamseyReadout:
    def test_shots_validated(self):
        with pytest.raises(ValueError):
            ramsey_table((1,), 0, 2, 1)

    @pytest.mark.parametrize("replicates", [1, 0, -3])
    def test_replicates_below_two_refused_before_any_draw(self, monkeypatch, replicates):
        def no_draw(*args):
            raise AssertionError("drew before checking the replicate count")

        monkeypatch.setattr(np.random, "SeedSequence", no_draw)  # the seeds of every draw
        with pytest.raises(ValueError, match=rf"^replicates must be >= 2, got {replicates}$"):
            ramsey_table((2,), 10, replicates, 1)

    def test_a_register_size_is_checked_before_it_meets_shots(self):
        # "3" * shots would be a message of a billion characters
        with pytest.raises(ValueError) as info:
            ramsey_table(["3"], 10**9, 4, 1)
        assert str(info.value) == "shots * N must be an integer, got '3'"

    def test_ghz_beats_product_at_equal_qubit_budget(self):
        # same number of atoms consumed: product runs N * shots repetitions
        n, shots = 8, 20_000
        table, _ = ramsey_table((n,), shots, 40, 2026)
        ratio = table["empirical_stderr"][0] / table["empirical_stderr"][1]
        assert ratio == pytest.approx(math.sqrt(n), rel=0.45)


class TestRamseyTable:
    def test_columns_match_the_default_csv(self, tmp_path):
        out = tmp_path / "ramsey.csv"
        assert main(["ramsey", "--out", str(out)]) == 0
        header, *rows = [line.split(",") for line in out.read_text().splitlines()]
        table, _ = ramsey_table((1, 2, 4, 8, 16), 100_000, 32, 42)  # the CLI defaults
        assert header == list(table)
        assert [r[:2] for r in rows] == [[str(n), s] for n, s in zip(table["N"], table["scheme"])]
        cells = np.array([[float(c) for c in r[2:]] for r in rows])
        assert np.array_equal(cells, np.column_stack([table[k] for k in header[2:]]))

    def test_seeded_calls_are_bit_identical(self):
        a, a_boundary = ramsey_table((1, 3), 500, 4, 33)
        b, b_boundary = ramsey_table((1, 3), 500, 4, 33)
        assert a_boundary == b_boundary and list(a) == list(b)
        assert all(np.array_equal(a[k], b[k]) for k in a)
        other, _ = ramsey_table((1, 3), 500, 4, 34)
        assert not np.array_equal(a["empirical_stderr"], other["empirical_stderr"])

    def test_boundary_count_is_the_cli_warning_count(self, tmp_path, capsys):
        assert ramsey_table((64,), 100, 4, 42)[1] == 4
        assert main(["ramsey", "--qubit-list", "64", "--shots", "100", "--replicates", "4",
                     "--out", str(tmp_path / "r.csv")]) == 0
        assert capsys.readouterr().err.startswith("warning: ramsey: 4 of 8 replicates")

    def test_delta_theta_formula(self):
        # 1/sqrt(FI reps) = 1/(2 phi sqrt(reps)); perfect-square reps keep both sides exact
        table, _ = ramsey_table((1, 4, 9), 400, 2, 5)
        for n, scheme, delta in zip(table["N"], table["scheme"], table["delta_theta"]):
            phi, reps = (1, 400 * n) if scheme == "product" else (n, 400)
            assert delta == 1.0 / (2.0 * phi * math.sqrt(reps))

    @pytest.mark.parametrize("qubits, shots", [
        ((4, 10**15), 100_000),  # N = 4 alone fits, and is not drawn first
        ((10**400,), 1),
    ])
    def test_product_counts_must_fit_int64_before_any_draw(self, monkeypatch, qubits, shots):
        def no_draw(*args):
            raise AssertionError("drew before checking every count")

        monkeypatch.setattr(np.random, "PCG64", no_draw)  # every draw starts here
        with pytest.raises(ValueError, match=r"^shots \* N must be <= 2\^63 - 1$"):
            ramsey_table(qubits, shots, 2, 1)


class TestCoverage:
    def test_wald_interval_covers_near_nominal(self):
        # 200 replications, 95% intervals from the known-noise stderr
        root = np.random.SeedSequence(20260814)
        hits = 0
        for child in root.spawn(200):
            seed = int(child.generate_state(1, np.uint64)[0])
            row = homodyne_table("coherent", 0.0, 0.2, 2000, seed)
            eps_hat, stderr = row["eps_hat"][0], row["stderr"][0]
            if abs(eps_hat - 0.2) <= 1.959963984540054 * stderr:
                hits += 1
        assert 0.91 <= hits / 200 <= 0.99

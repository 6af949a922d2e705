import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from catsense import estimation
from catsense.cli import main
from catsense.errors import DimensionMismatch
from catsense.estimation import (
    CoherentProbe,
    HomodyneExperiment,
    RamseyModel,
    Scheme,
    SqueezedProbe,
    estimate_eps,
    plus_probability,
    ramsey_fisher,
    ramsey_simulate,
    ramsey_table,
    sample_homodyne,
)


class TestProbes:
    def test_coherent_noise_is_vacuum(self):
        assert CoherentProbe().y_variance == 1.0

    def test_squeezed_noise(self):
        assert SqueezedProbe(1.0).y_variance == pytest.approx(math.exp(-2.0))
        assert SqueezedProbe(0.0).y_variance == 1.0

    def test_squeezed_validation(self):
        with pytest.raises(ValueError):
            SqueezedProbe(-0.5)

    def test_squeezed_noise_per_shot_must_stay_positive(self):
        # exp(-740) is subnormal: one shot keeps a stderr, 10^5 shots divide it down to 0
        assert HomodyneExperiment(SqueezedProbe(370.0), 0.0, 1, 7).shots == 1
        with pytest.raises(ValueError, match=r"SqueezedProbe\(r=370.0\) over 100000 shots "
                                             r"must be finite and > 0"):
            HomodyneExperiment(SqueezedProbe(370.0), 0.1, 100_000, 7)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("eps", [1e308, np.float64(1e308)])
    def test_record_mean_must_be_finite(self, eps):
        with pytest.raises(ValueError, match=r"^the record mean 2 \* true_eps must be finite "
                                             r"and >= 0, got inf$"):
            HomodyneExperiment(CoherentProbe(), eps, 10, 7)

    @pytest.mark.parametrize("probe, eps, ok_eps", [
        (SqueezedProbe(40.0), 0.1, 1e-3),
        (SqueezedProbe(370.0), 0.1, 0.0),
        (SqueezedProbe(366.0), 1e300, 0.0),
        (CoherentProbe(), 2.0**51, 2.0**50),  # sqrt(Var(Y)) = 1 is the spacing of doubles at 2^52
    ])
    def test_noise_must_outsize_the_double_spacing_at_the_mean(self, probe, eps, ok_eps):
        # every sample would round to the mean 2 eps, and the pull would measure rounding
        with pytest.raises(ValueError, match=re.escape(f"{probe} is no wider") + ".*"
                                             + re.escape(f"eps = {eps}")):
            HomodyneExperiment(probe, eps, 1, 7)
        assert HomodyneExperiment(probe, ok_eps, 1, 7).true_eps == ok_eps


class TestSampling:
    def exp(self, **kw):
        base = dict(probe=CoherentProbe(), true_eps=0.2, shots=4000, seed=101)
        base.update(kw)
        return HomodyneExperiment(**base)

    def test_same_seed_bit_identical(self):
        a = sample_homodyne(self.exp())
        b = sample_homodyne(self.exp())
        assert np.array_equal(a, b)

    def test_different_seed_differs(self):
        a = sample_homodyne(self.exp())
        b = sample_homodyne(self.exp(seed=102))
        assert not np.array_equal(a, b)

    def test_signal_mean_is_twice_eps(self):
        s = sample_homodyne(self.exp(shots=200_000))
        # 5 sigma band around 2*eps
        assert abs(float(np.mean(s)) - 0.4) < 5.0 / math.sqrt(200_000)

    def test_squeezing_narrows_the_record(self):
        r = 1.0
        s = sample_homodyne(self.exp(probe=SqueezedProbe(r), shots=200_000))
        assert float(np.var(s)) == pytest.approx(math.exp(-2 * r), rel=0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            self.exp(shots=0)
        with pytest.raises(ValueError):
            self.exp(true_eps=-0.1)
        with pytest.raises(ValueError):
            self.exp(seed=-1)
        with pytest.raises(ValueError):
            self.exp(seed=2**64)


class TestEstimateEps:
    def test_known_noise_path(self):
        e = HomodyneExperiment(CoherentProbe(), 0.3, 10_000, 7)
        eps_hat, stderr = estimate_eps(sample_homodyne(e), e.probe)
        assert stderr == 1.0 / (2.0 * math.sqrt(10_000))
        assert abs(eps_hat - 0.3) < 5 * stderr

    def test_single_sample_needs_probe(self):
        eps_hat, stderr = estimate_eps(np.array([0.4]), CoherentProbe())
        assert eps_hat == 0.2
        assert stderr == 0.5

    def test_empty_record_rejected(self):
        with pytest.raises(DimensionMismatch):
            estimate_eps(np.array([]), CoherentProbe())

    def test_squeezed_probe_shrinks_stderr(self):
        s = np.zeros(100)
        _, plain = estimate_eps(s, CoherentProbe())
        _, squeezed = estimate_eps(s, SqueezedProbe(1.0))
        assert squeezed == pytest.approx(plain * math.exp(-1.0))

    @given(seed=st.integers(0, 2**32 - 1))
    def test_estimator_consistent_within_five_sigma(self, seed):
        e = HomodyneExperiment(CoherentProbe(), 0.25, 2000, seed)
        eps_hat, stderr = estimate_eps(sample_homodyne(e), e.probe)
        assert abs(eps_hat - 0.25) < 5 * stderr


class TestRamseyModel:
    def test_plus_probability(self):
        assert plus_probability(RamseyModel(Scheme.PRODUCT, 5, 0.0)) == 1.0
        assert plus_probability(RamseyModel(Scheme.PRODUCT, 5, math.pi / 4)) == pytest.approx(0.5)
        assert plus_probability(RamseyModel(Scheme.GHZ, 2, math.pi / 8)) == pytest.approx(0.5)

    def test_fisher_information(self):
        assert ramsey_fisher(RamseyModel(Scheme.PRODUCT, 7, 0.3)) == 4.0
        assert ramsey_fisher(RamseyModel(Scheme.GHZ, 7, 0.3)) == 4.0 * 49.0

    def test_fisher_theta_independent(self):
        vals = {ramsey_fisher(RamseyModel(Scheme.GHZ, 3, t)) for t in (0.05, 0.4, 1.1)}
        assert vals == {36.0}

    def test_validation(self):
        with pytest.raises(ValueError):
            RamseyModel(Scheme.GHZ, 0, 0.1)
        with pytest.raises(ValueError):
            RamseyModel(Scheme.GHZ, 2, math.nan)


class TestRamseySimulate:
    def test_deterministic(self):
        m = RamseyModel(Scheme.GHZ, 4, math.pi / 32)
        assert ramsey_simulate(m, 50_000, 3) == ramsey_simulate(m, 50_000, 3)

    def test_recovers_theta(self):
        m = RamseyModel(Scheme.GHZ, 4, math.pi / 32)
        est = ramsey_simulate(m, 100_000, 11)
        assert not est.boundary
        assert abs(est.theta_hat - math.pi / 32) < 5 / math.sqrt(ramsey_fisher(m) * 100_000)

    def test_boundary_flagged_not_raised(self):
        est = ramsey_simulate(RamseyModel(Scheme.PRODUCT, 1, 0.0), 100, 1)
        assert est.boundary
        assert est.theta_hat == 0.0

    def test_shots_validated(self):
        with pytest.raises(ValueError):
            ramsey_simulate(RamseyModel(Scheme.PRODUCT, 1, 0.1), 0, 1)

    def test_ghz_beats_product_at_equal_qubit_budget(self):
        # same number of atoms consumed: product runs N * shots repetitions
        n, shots = 8, 20_000
        theta = math.pi / (8 * n)
        seeds = np.random.SeedSequence(2026).spawn(80)
        ints = [int(s.generate_state(1, np.uint64)[0]) for s in seeds]
        prod = np.array([
            ramsey_simulate(RamseyModel(Scheme.PRODUCT, n, theta), shots * n, s).theta_hat
            for s in ints[:40]
        ])
        ghz = np.array([
            ramsey_simulate(RamseyModel(Scheme.GHZ, n, theta), shots, s).theta_hat
            for s in ints[40:]
        ])
        ratio = np.std(prod, ddof=1) / np.std(ghz, ddof=1)
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

        monkeypatch.setattr(estimation, "ramsey_simulate", no_draw)
        with pytest.raises(ValueError, match=r"^shots \* N must be <= 2\^63 - 1$"):
            ramsey_table(qubits, shots, 2, 1)


class TestCoverage:
    def test_wald_interval_covers_near_nominal(self):
        # 200 replications, 95% intervals from the known-noise stderr
        root = np.random.SeedSequence(20260814)
        hits = 0
        for child in root.spawn(200):
            seed = int(child.generate_state(1, np.uint64)[0])
            e = HomodyneExperiment(CoherentProbe(), 0.2, 2000, seed)
            eps_hat, stderr = estimate_eps(sample_homodyne(e), e.probe)
            if abs(eps_hat - 0.2) <= 1.959963984540054 * stderr:
                hits += 1
        assert 0.91 <= hits / 200 <= 0.99

"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single [PASS]/[FAIL] line (visible even under pytest
capture) and then asserts, so a plain `pytest -v` run shows the scorecard.
"""

import math

import numpy as np
import pytest

from catsense import bounds, coherent, estimation, fock
from catsense.cli import run_figure1, run_ramsey


def test_criterion_1_sql_floor_and_monte_carlo(report):
    floor_ok = bounds.eps_min_sql() == 0.5
    exp = estimation.HomodyneExperiment(
        estimation.CoherentProbe(), true_eps=0.5, shots=1_000_000, seed=20260814
    )
    eps_hat, stderr = estimation.estimate_eps(estimation.sample_homodyne(exp), exp.probe)
    mc_ok = stderr == 1.0 / 2000.0 and abs(eps_hat - 0.5) < 5 * stderr
    report(
        "criterion 1: coherent floor 0.5, recovered by 1e6-shot Monte Carlo",
        floor_ok and mc_ok,
        f"eps_hat={eps_hat:.6f}, stderr={stderr:.2e}",
    )


def test_criterion_2_closed_form_qfi_vs_oracle(report):
    table = fock.cat_qfi_check(modes_list=(1, 2, 3), alpha_list=(0.25, 0.5, 1.0, 2.0), fd_step=1e-3)
    rows = table["modes"]
    # np.max keeps a NaN in any case, and a NaN fails the `<` checks below
    worst_pure = float(np.max(table["rel_err_oracle"], initial=0.0))
    worst_fd = float(np.max(table["rel_err_fd"], initial=0.0))
    report(
        "criterion 2: cat QFI closed form vs Fock oracle on the 3x4 grid",
        len(rows) == 12 and worst_pure < 1e-6 and worst_fd < 1e-3,
        f"worst generator-route rel err {worst_pure:.2e}, worst fd rel err {worst_fd:.2e}",
    )


def test_criterion_3_photon_budget_and_inversion(report):
    unit_ok = abs(bounds.entangled_cat_ntot(1.0, 1) - math.tanh(1.0)) < 1e-12
    bridge_worst = 0.0
    for alpha, n in [(0.3, 1), (1.0, 1), (0.7, 2), (1.0, 3), (1.5, 2)]:
        exact = coherent.mean_photon_number(coherent.make_entangled_cat(alpha, n))
        bridge_worst = max(bridge_worst, abs(bounds.entangled_cat_ntot(alpha, n) - exact))
    round_worst = 0.0
    for n_tot in np.geomspace(1e-4, 1e4, 25):
        for n_modes in (1, 2, 10, 50):
            back = bounds.entangled_cat_ntot(bounds.invert_ntot(n_tot, n_modes), n_modes)
            round_worst = max(round_worst, abs(back - n_tot) / n_tot)
    report(
        "criterion 3: photon budget closed form and bisection inverse",
        unit_ok and bridge_worst < 1e-10 and round_worst < 1e-10,
        f"algebra bridge {bridge_worst:.2e}, worst round-trip rel err {round_worst:.2e}",
    )


def test_criterion_4_figure_reference_points_and_shape(report):
    pin = np.column_stack(list(run_figure1(10, 0.1, 100.0, 4, "log").values()))
    n_tot, ent, sep, single, _ = pin[2]
    values_ok = (
        abs(n_tot - 10.0) < 1e-9
        and abs(ent / 0.0493864797828243 - 1.0) < 1e-9
        and abs(sep / 0.1414213562373095 - 1.0) < 1e-9
        and abs(single / 0.15617376188860607 - 1.0) < 1e-9
    )
    sweep = np.column_stack(list(run_figure1(10, 0.1, 100.0, 200, "log").values()))
    ordered = all(r[1] < r[2] < r[3] for r in sweep)
    decreasing = all(
        a[1] > b[1] and a[2] > b[2] and a[3] > b[3] for a, b in zip(sweep, sweep[1:])
    )
    report(
        "criterion 4: figure sweep pins (N=10, n_tot=10) and keeps curve order",
        values_ok and ordered and decreasing,
        f"eps at n_tot=10: {ent:.10f} < {sep:.10f} < {single:.10f}",
    )


def test_criterion_5_heisenberg_asymptote(report):
    worst_low, worst_high = 1.0, 0.0
    for n_modes in (1, 10, 100):
        for n_tot in (100.0, 1000.0, 10000.0):
            res = bounds.eps_min_entangled_cat(bounds.invert_ntot(n_tot, n_modes), n_modes)
            ratio = res.eps_min * math.sqrt(4.0 * n_modes * n_tot)
            worst_low = min(worst_low, ratio)
            worst_high = max(worst_high, ratio)
    report(
        "criterion 5: entangled bound reaches 1/sqrt(4 N n_tot) for n_tot >= 100",
        0.995 <= worst_low and worst_high <= 1.0,
        f"ratio range [{worst_low:.6f}, {worst_high:.6f}]",
    )


def test_criterion_6_sqrt_n_entanglement_advantage(report):
    n_modes, n_tot = 10, 1000.0
    ent = bounds.eps_min_entangled_cat(bounds.invert_ntot(n_tot, n_modes), n_modes).eps_min
    gap = bounds.eps_min_separable_cats(n_tot, n_modes) / ent
    rel = abs(gap / math.sqrt(n_modes) - 1.0)
    report(
        "criterion 6: separable/entangled gap hits sqrt(10) at n_tot=1000",
        rel < 0.01,
        f"gap {gap:.4f} vs sqrt(10) {math.sqrt(10):.4f}, rel dev {rel:.2e}",
    )


def test_criterion_7_ramsey_error_scaling(report):
    table = run_ramsey(qubit_list=(1, 2, 4, 8, 16), shots=100_000, replicates=300, seed=20260814)
    rows = list(zip(*table.values()))
    slopes = {}
    for scheme in ("product", "ghz"):
        pts = [(r[0], r[4]) for r in rows if r[1] == scheme]
        xs = np.log10([n for n, _ in pts])
        ys = np.log10([e for _, e in pts])
        slopes[scheme] = float(np.polyfit(xs, ys, 1)[0])
    ok = abs(slopes["product"] + 0.5) < 0.05 and abs(slopes["ghz"] + 1.0) < 0.05
    report(
        "criterion 7: equal-budget Ramsey slopes -1/2 (product) and -1 (GHZ)",
        ok,
        f"measured product {slopes['product']:.4f}, ghz {slopes['ghz']:.4f}",
    )


def test_criterion_8_squeezed_probe_consistency(report):
    r, dim = 0.8, 60
    psi = fock.squeezed_vector(r, dim)
    var_y = fock.variance(psi, fock.quad_y(dim))
    nbar = fock.expectation(psi, fock.number_operator(dim))
    moments_ok = (
        abs(var_y - math.exp(-2 * r)) < 1e-8 and abs(nbar - math.sinh(r) ** 2) < 1e-8
    )
    oracle_eps = 1.0 / math.sqrt(fock.qfi_pure(psi, fock.quad_x(dim)))
    exact_ok = abs(bounds.eps_min_squeezed_exact(r) - oracle_eps) < 1e-8
    ratio = bounds.eps_min_squeezed(math.sinh(5.0) ** 2) / bounds.eps_min_squeezed_exact(5.0)
    factor_ok = abs(ratio - 2.0) < 1e-4
    report(
        "criterion 8: squeezed moments, oracle bound and the two normalizations",
        moments_ok and exact_ok and factor_ok,
        f"VarY err {abs(var_y - math.exp(-2 * r)):.1e}, nbar err "
        f"{abs(nbar - math.sinh(r) ** 2):.1e}, convention ratio {ratio:.6f}",
    )


def test_criterion_9_property_suites_wired_in(report):
    import test_bounds as tb
    import test_coherent as tc
    import test_estimation as te
    import test_fock as tf
    from hypothesis import settings as hsettings

    def given_count(module) -> int:
        count = 0
        for obj in vars(module).values():
            if isinstance(obj, type):
                count += sum(
                    1 for m in vars(obj).values() if hasattr(m, "hypothesis")
                )
            elif hasattr(obj, "hypothesis"):
                count += 1
        return count

    counts = {m.__name__.split(".")[-1]: given_count(m) for m in (tc, tf, tb, te)}
    profile_ok = hsettings().max_examples >= 50
    report(
        "criterion 9: every module ships property tests under the suite profile",
        all(c >= 1 for c in counts.values()) and profile_ok,
        f"@given tests per module {counts}; wall time in the pytest summary",
    )

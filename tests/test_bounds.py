import csv
import hashlib
import math
import re
import tracemalloc
import xml.etree.ElementTree as ET

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from catsense import bounds, coherent, fock, outputs, svgplot
from catsense.bounds import (
    FamilyKind,
    curve,
    entangled_cat_generator_variance,
    entangled_cat_ntot,
    eps_min_entangled_cat,
    eps_min_squeezed_exact,
    invert_ntot,
)
from catsense.cli import bounds_cmd, main
from catsense.errors import require_int, require_nonnegative


class TestScalarBounds:
    def test_sql_is_half(self):
        assert curve("sql", 1.0)[2] == 0.5

    def test_squeezed_formula(self):
        assert curve(FamilyKind.SQUEEZED, 0.25)[2] == pytest.approx(1.0)
        assert curve(FamilyKind.SQUEEZED, 25.0)[2] == pytest.approx(0.1)

    def test_squeezed_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            curve(FamilyKind.SQUEEZED, 0.0)
        with pytest.raises(ValueError):
            curve(FamilyKind.SQUEEZED, -1.0)

    def test_squeezed_exact_formula(self):
        assert eps_min_squeezed_exact(0.0) == pytest.approx(0.5)
        assert eps_min_squeezed_exact(1.0) == pytest.approx(0.5 * math.exp(-1.0))

    def test_squeezed_conventions_differ_by_factor_two(self):
        # photon-budget form vs exact quadrature form: at large r the probe
        # holds sinh^2 r photons and e^{-r} ~ 1/sqrt(4 sinh^2 r) * 2, so the
        # two published normalizations sit exactly a factor 2 apart
        r = 5.0
        budget = curve(FamilyKind.SQUEEZED, math.sinh(r) ** 2)[2]
        exact = eps_min_squeezed_exact(r)
        assert budget / exact == pytest.approx(2.0, abs=1e-4)

    def test_single_cat_formula(self):
        assert curve(FamilyKind.SINGLE_CAT, 2.0)[2] == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_separable_formula(self):
        assert curve(FamilyKind.SEPARABLE_CATS, 10.0, 10)[2] == pytest.approx(
            1.0 / math.sqrt(50.0), rel=1e-14
        )

    def test_separable_validation(self):
        with pytest.raises(ValueError):
            curve(FamilyKind.SEPARABLE_CATS, 1.0, 0)
        with pytest.raises(ValueError):
            curve(FamilyKind.SEPARABLE_CATS, -1.0, 2)

    @pytest.mark.parametrize("bad", [-1e-300, math.nan, math.inf])
    def test_budget_must_be_finite_and_nonnegative(self, bad):
        for fn in (lambda n: curve(FamilyKind.SINGLE_CAT, n),
                   lambda n: curve(FamilyKind.SEPARABLE_CATS, n, 2),
                   lambda n: invert_ntot(n, 3), lambda n: curve(FamilyKind.SQUEEZED, n)):
            with pytest.raises(ValueError):
                fn(bad)

    def test_zero_budget_is_the_vacuum(self):
        assert curve(FamilyKind.SINGLE_CAT, 0.0)[2] == 1.0
        assert curve(FamilyKind.SEPARABLE_CATS, 0.0, 4)[2] == 0.5
        assert invert_ntot(0.0, 3) == 0.0
        _, alpha, eps, _ = curve(FamilyKind.ENTANGLED_CAT, [0.0, 1.0], 4)
        assert alpha[0] == 0.0
        assert eps[0] == 0.5


class TestVarianceForms:
    @given(alpha=st.floats(0.0, 4.0))
    def test_single_cat_matches_exact_algebra(self, alpha):
        want = coherent.variance_generator(coherent.make_entangled_cat(alpha, 1))
        assert entangled_cat_generator_variance(alpha, 1) == pytest.approx(want, rel=1e-12)

    @given(alpha=st.floats(0.0, 3.0), n=st.integers(1, 8))
    def test_entangled_matches_exact_algebra(self, alpha, n):
        want = coherent.variance_generator(coherent.make_entangled_cat(alpha, n))
        assert entangled_cat_generator_variance(alpha, n) == pytest.approx(want, rel=1e-12)

    @given(alpha=st.floats(0.0, 3.0), n=st.integers(1, 16))
    def test_entanglement_concentrates_into_one_collective_cat(self, alpha, n):
        # Var_ent(a, N) = N * Var_cat1(sqrt(N) a): the N-mode cat is a single
        # cat of amplitude sqrt(N) a living in the symmetric collective mode,
        # plus N - 1 spectator vacua contributing variance 1 each
        lhs = entangled_cat_generator_variance(alpha, n)
        rhs = n * entangled_cat_generator_variance(math.sqrt(n) * alpha, 1)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    @given(alpha=st.floats(0.0, 3.0), n=st.integers(1, 8))
    def test_ntot_matches_exact_algebra(self, alpha, n):
        want = coherent.mean_photon_number(coherent.make_entangled_cat(alpha, n))
        assert entangled_cat_ntot(alpha, n) == pytest.approx(want, rel=1e-11, abs=1e-13)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    @pytest.mark.parametrize("fn", [
        entangled_cat_generator_variance, entangled_cat_ntot, eps_min_entangled_cat])
    def test_amplitude_must_be_finite_and_nonnegative(self, fn, bad):
        with pytest.raises(ValueError, match="alpha must be finite and >= 0"):
            fn(bad, 2)

    def test_array_amplitude_names_the_bad_entry(self):
        with pytest.raises(ValueError, match="got inf"):
            entangled_cat_ntot(np.array([0.5, math.inf, 1.0]), 3)

    def test_huge_amplitude_no_overflow(self):
        # exp(-2 N a^2) underflows; the limit variance N (1 + 4 N a^2) must
        # come back, not a range error
        v = entangled_cat_generator_variance(50.0, 3)
        assert v == pytest.approx(3 * (1 + 4 * 3 * 2500.0), rel=1e-14)
        assert entangled_cat_ntot(50.0, 3) == pytest.approx(7500.0, rel=1e-14)


class TestEntangledBound:
    def test_unit_amplitude_point(self):
        eps = eps_min_entangled_cat(1.0, 1)
        assert type(eps) is float
        var = 1.0 + 4.0 / (1.0 + math.exp(-2.0))
        assert eps == pytest.approx(1.0 / math.sqrt(var), rel=1e-14)
        assert entangled_cat_generator_variance(1.0, 1) == pytest.approx(var, rel=1e-14)
        assert entangled_cat_ntot(1.0, 1) == pytest.approx(math.tanh(1.0), rel=1e-14)

    def test_array_amplitude_gives_array(self):
        alphas = np.array([0.5, 1.0, 2.0])
        eps = eps_min_entangled_cat(alphas, 3)
        assert eps.tolist() == [eps_min_entangled_cat(a, 3) for a in alphas.tolist()]

    def test_ten_mode_ten_photon_point(self):
        eps = eps_min_entangled_cat(invert_ntot(10.0, 10), 10)
        assert eps == pytest.approx(0.0493864797828243, rel=1e-12)

    def test_agrees_with_fock_oracle(self):
        # eps_min = 1/sqrt(Var G); the oracle returns 4 Var G, so divide out
        # the quantum-Fisher factor before comparing
        for n_modes, alpha in [(1, 0.5), (1, 1.0), (2, 0.8), (3, 1.0)]:
            psi = fock.to_fock(coherent.make_entangled_cat(alpha, n_modes))
            oracle_eps = 1.0 / math.sqrt(fock.qfi_pure(psi, fock.quad_x(psi.dim)) / 4.0)
            assert eps_min_entangled_cat(alpha, n_modes) == pytest.approx(
                oracle_eps, abs=1e-8
            )

    @pytest.mark.parametrize("n_modes", [1, 2, 10])
    def test_least_share_of_the_photon_budget_ceiling(self, n_modes):
        # Var(G) / (N (sqrt(n) + sqrt(n + 1))^2) depends on u = N alpha^2 alone; it
        # tends to 1 at both ends of the budget and dips to 0.92 in between
        alpha = np.sqrt(np.linspace(0.5, 4.0, 350001) / n_modes)
        n = entangled_cat_ntot(alpha, n_modes)
        ceiling = n_modes * (np.sqrt(n) + np.sqrt(n + 1)) ** 2
        ratio = entangled_cat_generator_variance(alpha, n_modes) / ceiling
        least = np.argmin(ratio)
        assert ratio[least] == pytest.approx(0.92000, abs=1e-5)
        assert n[least] == pytest.approx(1.561, abs=1e-3)


class TestInvertNtot:
    def test_unit_point(self):
        assert invert_ntot(math.tanh(1.0), 1) == pytest.approx(1.0, abs=1e-12)

    @given(
        n_tot=st.floats(1e-6, 1e4),
        n_modes=st.integers(1, 64),
    )
    def test_round_trip(self, n_tot, n_modes):
        alpha = invert_ntot(n_tot, n_modes)
        back = entangled_cat_ntot(alpha, n_modes)
        assert back == pytest.approx(n_tot, rel=1e-10)

    def test_large_budget_saturates_tanh(self):
        # for n_tot >> 1 the cat photon number is just N alpha^2
        alpha = invert_ntot(400.0, 4)
        assert alpha == pytest.approx(10.0, rel=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError):
            invert_ntot(-1.0, 1)
        with pytest.raises(ValueError):
            invert_ntot(1.0, 0)


class TestCurve:
    grid = np.geomspace(0.1, 100.0, 40)

    def test_four_photon_families_strictly_decrease(self):
        for kind, n_modes in [
            (FamilyKind.SQUEEZED, 1),
            (FamilyKind.SINGLE_CAT, 1),
            (FamilyKind.SEPARABLE_CATS, 10),
            (FamilyKind.ENTANGLED_CAT, 10),
        ]:
            eps = curve(kind, self.grid, n_modes)[2]
            assert eps.shape == self.grid.shape, kind
            assert (eps[:-1] > eps[1:]).all(), kind

    def test_sql_curve_is_flat(self):
        eps = curve(FamilyKind.COHERENT_SQL, self.grid)[2]
        assert eps.tolist() == [0.5] * len(self.grid)

    def test_entangled_below_separable_below_single(self):
        families = [(FamilyKind.ENTANGLED_CAT, 10), (FamilyKind.SEPARABLE_CATS, 10),
                    (FamilyKind.SINGLE_CAT, 1)]
        e, s, o = (curve(kind, self.grid, n_modes)[2] for kind, n_modes in families)
        assert e.shape == s.shape == o.shape == self.grid.shape
        assert ((e < s) & (s < o)).all()

    def test_rows_carry_requested_ntot_and_qfi(self):
        n_tot, alpha, eps, qfi = curve(FamilyKind.ENTANGLED_CAT, [0.5, 5.0], 3)
        assert n_tot.tolist() == [0.5, 5.0]
        assert qfi == pytest.approx(1.0 / eps**2, rel=1e-14)
        assert entangled_cat_ntot(alpha, 3) == pytest.approx([0.5, 5.0], rel=1e-10)

    @pytest.mark.parametrize("kind", list(FamilyKind))
    def test_scalar_grid_gives_0d_float64_arrays(self, kind):
        n_modes = 3 if bounds.FAMILIES[kind].multimode else 1
        one, grid = curve(kind, 3.0, n_modes), curve(kind, [3.0], n_modes)
        for field, value, column in zip(("n_tot", "alpha", "eps_min", "qfi"), one, grid):
            assert type(value) is np.ndarray and value.dtype == np.float64, field
            assert value.shape == () and np.array_equal(value, column[0], equal_nan=True), field

    def test_scalar_eps_min_forms_give_python_floats(self):
        values = (eps_min_entangled_cat(3.0, 2), entangled_cat_ntot(3.0, 2), invert_ntot(3.0, 2),
                  eps_min_squeezed_exact(3.0))
        assert all(type(value) is float for value in values)

    def test_single_mode_family_rejects_multimode(self):
        with pytest.raises(ValueError, match="^single-cat is a single-mode family$"):
            curve(FamilyKind.SINGLE_CAT, 1.0, 3)

    def test_family_named_by_its_string_value(self):
        for a, b in zip(curve("separable-cats", self.grid, 4),
                        curve(FamilyKind.SEPARABLE_CATS, self.grid, 4)):
            assert a.tolist() == b.tolist()

    @pytest.mark.parametrize("kind", list(FamilyKind))
    def test_bounds_table_reports_one_mode_for_single_mode_families(self, kind):
        table = bounds.bounds_table(kind.value, 3, self.grid)
        multimode = bounds.FAMILIES[kind].multimode
        assert (table["family"], table["n_modes"]) == (kind.value, 3 if multimode else 1)
        n_tot, alpha, eps, qfi = curve(kind, self.grid, table["n_modes"])
        got = table["n_tot"], table["alpha"], table["eps_min"], table["qfi"]
        for a, b in zip(got, (n_tot, alpha, eps, qfi)):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("bad", [-1.0, math.inf, math.nan])
    def test_sql_checks_the_budget_like_every_family(self, bad):
        with pytest.raises(ValueError, match="finite and >= 0"):
            curve(FamilyKind.COHERENT_SQL, [1.0, bad])

    @pytest.mark.parametrize("kind", list(FamilyKind))
    def test_a_float64_grid_comes_back_as_itself(self, kind):
        assert curve(kind, self.grid)[0] is self.grid

    def test_a_read_only_grid_runs_through_every_table_and_output(self):
        # nothing writes into the caller's grid: a frozen one gives the bytes of a writable copy
        frozen = self.grid.copy()
        frozen.setflags(write=False)

        def texts(grid):
            tables = [bounds.bounds_table(kind, 3, grid) for kind in FamilyKind]
            fig = bounds.figure1_table(3, grid)
            svg = b"".join(svgplot.figure1_svg(fig, 3, log_x=True))
            return [outputs.csv_text(table) for table in (*tables, fig)], svg

        assert texts(frozen) == texts(self.grid.copy())
        assert frozen.tobytes() == self.grid.tobytes()


def _branch_curve(kind, n_tot, n_modes=1):
    """`curve` as it was before the family table: one branch per family, kept as a reference."""
    kind, m = FamilyKind(kind), require_int("n_modes", n_modes)
    if kind not in (FamilyKind.SEPARABLE_CATS, FamilyKind.ENTANGLED_CAT) and m != 1:
        raise ValueError(f"{kind.value} is a single-mode family")
    n = require_nonnegative("n_tot", np.array(n_tot, np.float64), kind is FamilyKind.SQUEEZED)
    alpha, var = np.full(n.shape, np.nan), np.full(n.shape, 4.0)
    if kind is FamilyKind.ENTANGLED_CAT:
        alpha = invert_ntot(n, m)
        var = entangled_cat_generator_variance(alpha, m)
    elif kind is not FamilyKind.COHERENT_SQL:
        with np.errstate(over="ignore"):
            if kind is FamilyKind.SQUEEZED:
                var = 4.0 * n
            else:
                var, alpha = m + 4.0 * n, np.sqrt(n / m)
    eps = bounds._eps_from_variance(var, "n_tot", n)
    return (n, *(np.asarray(f, np.float64) for f in (alpha, eps, var)))


_MAX = float(np.finfo(np.float64).max)
# budgets the rows take and refuse: 0, subnormals, Var(G)'s overflow edge, negatives, NaN, inf
_budgets = st.one_of(
    st.floats(0.0, _MAX), st.floats(),
    st.sampled_from([0.0, 5e-324, 1e-310, _MAX / 4, math.nextafter(_MAX / 4, math.inf), _MAX]))
_grids = st.one_of(
    _budgets, st.integers(0, 10**6), st.lists(_budgets, max_size=5),
    st.lists(_budgets, max_size=5).map(np.array),
    st.lists(_budgets, min_size=6, max_size=6).map(lambda v: np.array(v).reshape(2, 3)))


class TestFamilyTable:
    def test_the_table_has_one_row_per_family_and_the_cli_offers_each(self):
        assert list(bounds.FAMILIES) == list(FamilyKind)
        multimode = tuple(kind for kind, row in bounds.FAMILIES.items() if row.multimode)
        assert multimode == (FamilyKind.SEPARABLE_CATS, FamilyKind.ENTANGLED_CAT)
        family = next(p for p in bounds_cmd.params if p.name == "family")
        assert list(family.type.choices) == [k.value for k in FamilyKind]

    @given(kind=st.sampled_from([*FamilyKind, *(k.value for k in FamilyKind)]), grid=_grids,
           n_modes=st.one_of(st.integers(1, 1000), st.sampled_from([0, 1, 2, 1000])))
    @example(kind=FamilyKind.SQUEEZED, grid=0.0, n_modes=1)
    @example(kind=FamilyKind.SINGLE_CAT, grid=1.0, n_modes=3)
    @example(kind=FamilyKind.SEPARABLE_CATS, grid=[1.0, _MAX], n_modes=7)
    @example(kind=FamilyKind.ENTANGLED_CAT, grid=np.array([0.0, 5e-324, 1e300]), n_modes=1000)
    def test_curve_matches_the_branch_per_family_curve(self, kind, grid, n_modes):
        try:
            want = _branch_curve(kind, grid, n_modes)
        except ValueError as exc:
            with pytest.raises(type(exc)) as got:
                curve(kind, grid, n_modes)
            assert str(got.value) == str(exc)
            return
        got = curve(kind, grid, n_modes)
        assert len(got) == len(want) == 4
        for a, b in zip(got, want):
            assert type(a) is type(b) is np.ndarray
            assert (a.shape, a.dtype, a.flags.writeable) == (b.shape, b.dtype, b.flags.writeable)
            assert a.tobytes() == b.tobytes()  # bit for bit, NaN payloads and signed zeros too


def _mp_entangled(n_tot: float, n_modes: int) -> tuple:
    """(alpha, eps_min, qfi) of the N-mode entangled cat holding n_tot photons, at 50 digits."""
    with mpmath.workdps(50):
        n = mpmath.mpf(n_tot)
        lo = max(n, mpmath.sqrt(n))
        u = mpmath.findroot(lambda v: v * mpmath.tanh(v) - n, (lo, lo + 1), solver="anderson")
        var = n_modes * (1 + 4 * u / (1 + mpmath.exp(-2 * u)))
        return mpmath.sqrt(u / n_modes), 1 / mpmath.sqrt(var), var


def _rel_err(got: float, want) -> float:
    with mpmath.workdps(50):
        return float(abs(mpmath.mpf(got) / want - 1))


# log10 of n_tot: log-uniform budgets over the whole range the bounds promise
log_budgets = st.floats(-300.0, 300.0)


def _newton_reference(n_tot, n_modes):
    """`invert_ntot`'s Newton loop as it was before it updated its buffers in place, kept as a
    reference: a fresh array per operation and an `np.errstate` on every pass."""
    n_modes = require_int("n_modes", n_modes)
    n = require_nonnegative("n_tot", n_tot)
    lo = np.maximum(n, np.sqrt(n))
    hi = lo + np.minimum(lo, 1.0)
    u = lo
    for _ in range(64):
        t = np.tanh(u)
        g = u * t - n
        lo = np.where(g < 0.0, u, lo)
        hi = np.where(g > 0.0, u, hi)
        step = g / np.maximum(t + u * (1.0 - t * t), np.finfo(np.float64).tiny)
        with np.errstate(over="ignore"):
            ulp = np.spacing(u)
        done = (np.abs(step) <= ulp) | (hi - lo <= ulp)
        if done.all():
            break
        new = u - step
        new = np.where((lo < new) & (new < hi), new, lo + 0.5 * (hi - lo))
        u = np.where(done, u, new)
    return bounds._out(np.sqrt(u / n_modes))


def _same_answer(got, want) -> bool:
    """Bit for bit, of one type, and of one shape and dtype for an array."""
    if type(got) is not type(want):
        return False
    if isinstance(want, float):
        return np.float64(got).tobytes() == np.float64(want).tobytes()
    return (got.shape, got.dtype) == (want.shape, want.dtype) and got.tobytes() == want.tobytes()


# n_tot from 1e-323 up to the largest double, log-uniform, with zero and the range's edges
_ntots = st.one_of(
    st.floats(-323.0, 308.25).map(lambda e: 10.0**e),  # 10^308.25 is 0.99 of the largest double
    st.sampled_from([0.0, 5e-324, 1e-310, float(np.finfo(np.float64).tiny), 1e308,
                     math.nextafter(_MAX, 0.0), _MAX]))
_ntot_inputs = st.one_of(
    _ntots, _ntots.map(np.array), st.lists(_ntots, min_size=1, max_size=30).map(np.array),
    st.lists(_ntots, min_size=6, max_size=6).map(lambda v: np.array(v).reshape(2, 3)))


class TestNewtonSolve:
    @given(n_tot=_ntot_inputs, n_modes=st.integers(1, 1000))
    @example(n_tot=np.array([0.0, 5e-324, 1e-310, 1.0, 1e308, _MAX]), n_modes=1)
    @example(n_tot=np.geomspace(1e-300, 1e300, bounds._SLICE + 1), n_modes=10)
    @example(n_tot=np.geomspace(1e-3, 1e3, bounds._SLICE + 2).reshape(2, bounds._SLICE // 2 + 1),
             n_modes=7)
    @example(n_tot=np.array([]), n_modes=3)
    def test_invert_ntot_matches_the_reference_loop_bit_for_bit(self, n_tot, n_modes):
        assert _same_answer(invert_ntot(n_tot, n_modes), _newton_reference(n_tot, n_modes))

    def test_invert_ntot_memory_is_one_slice_not_the_grid(self):
        # the solve runs `bounds._SLICE` budgets at a time; over the whole grid at once its
        # scratch was about 90 B a budget, a 90 MB peak here beside the 8 MB answer
        grid = np.geomspace(0.1, 100.0, 10**6)
        tracemalloc.start()
        try:
            invert_ntot(grid, 10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 24e6

    @pytest.mark.parametrize("table, limit", [
        # four 8 MB columns beside the caller's grid peak at 57 MB; a grid copy per curve call
        # and the held entangled Var(G) made it 81 MB
        (lambda grid: bounds.figure1_table(10, grid), 66e6),
        # three columns beside the caller's grid peak at 40 MB; with the grid copied, 48 MB
        (lambda grid: bounds.bounds_table("entangled-cat", 10, grid), 44e6),
    ], ids=["figure1_table", "bounds_table"])
    def test_a_table_copies_no_grid_and_holds_no_unprinted_column(self, table, limit):
        grid = np.geomspace(0.1, 100.0, 10**6)
        tracemalloc.start()
        try:
            table(grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < limit

    @pytest.mark.parametrize("n_tot", [0.0, 5e-324, 1e308, _MAX])
    @pytest.mark.parametrize("as_array", [False, True])
    def test_range_edges_raise_no_warning(self, n_tot, as_array):
        n = np.array([n_tot, 1.0]) if as_array else n_tot
        got = invert_ntot(n, 7)  # the suite's filterwarnings fails any warning, overflow too
        assert _same_answer(got, _newton_reference(n, 7))


class TestHighPrecisionReference:
    @given(log_n=log_budgets, n_modes=st.integers(1, 10_000))
    @example(log_n=1.5, n_modes=1)  # u = 31.6: tanh saturates to 1.0
    @example(log_n=3.0, n_modes=7)  # 2u = 2000 > 700: e^{-2u} underflows to 0
    @example(log_n=-200.0, n_modes=1000)
    def test_entangled_curve_matches_mpmath(self, log_n, n_modes):
        n_tot = 10.0**log_n
        _, *res = curve(FamilyKind.ENTANGLED_CAT, [n_tot], n_modes)
        for got, want in zip(res, _mp_entangled(n_tot, n_modes)):
            assert _rel_err(float(got[0]), want) <= 1e-14

    @given(log_ns=st.lists(log_budgets, min_size=1, max_size=20), n_modes=st.integers(1, 10_000))
    def test_invert_ntot_scalar_and_array_calls_agree_bitwise(self, log_ns, n_modes):
        grid = 10.0 ** np.array(log_ns)
        scalars = [invert_ntot(n, n_modes) for n in grid.tolist()]
        assert all(type(a) is float for a in scalars)
        assert invert_ntot(grid, n_modes).tolist() == scalars

    @given(log_ns=st.lists(log_budgets, min_size=1, max_size=20), n_modes=st.integers(1, 10_000))
    def test_closed_form_families_equal_math_formulas(self, log_ns, n_modes):
        grid = 10.0 ** np.array(log_ns)
        formulas = {  # (alpha, eps_min, qfi) at one point, in plain float arithmetic
            (FamilyKind.COHERENT_SQL, 1): lambda n: (math.nan, 0.5, 4.0),
            (FamilyKind.SQUEEZED, 1): lambda n: (
                math.nan, 1.0 / math.sqrt(4.0 * n), 4.0 * n),
            (FamilyKind.SINGLE_CAT, 1): lambda n: (
                math.sqrt(n), 1.0 / math.sqrt(1.0 + 4.0 * n), 1.0 + 4.0 * n),
            (FamilyKind.SEPARABLE_CATS, n_modes): lambda n: (
                math.sqrt(n / n_modes), 1.0 / math.sqrt(n_modes + 4.0 * n), n_modes + 4.0 * n),
        }
        for (kind, m), formula in formulas.items():
            _, alpha, eps, qfi = curve(kind, grid, m)
            want = np.array([formula(n) for n in grid.tolist()])
            np.testing.assert_array_equal(alpha, want[:, 0])
            np.testing.assert_array_equal(eps, want[:, 1])
            np.testing.assert_array_equal(qfi, want[:, 2])
        for n in grid.tolist():  # a scalar budget takes curve's 0-d path to the same bits
            assert curve(FamilyKind.SQUEEZED, n)[2] == 1.0 / math.sqrt(4.0 * n)
            assert curve(FamilyKind.SINGLE_CAT, n)[2] == 1.0 / math.sqrt(1.0 + 4.0 * n)
            assert curve(FamilyKind.SEPARABLE_CATS, n, n_modes)[2] == (
                1.0 / math.sqrt(n_modes + 4.0 * n))


@pytest.mark.parametrize("kind, n_modes", [
    (FamilyKind.SQUEEZED, 1), (FamilyKind.SINGLE_CAT, 1), (FamilyKind.SEPARABLE_CATS, 10),
    (FamilyKind.ENTANGLED_CAT, 1), (FamilyKind.ENTANGLED_CAT, 10), (FamilyKind.ENTANGLED_CAT, 1000),
])
def test_last_budget_before_the_variance_overflows(kind, n_modes):
    def accepted(bits: int) -> bool:
        try:
            curve(kind, [np.int64(bits).view(np.float64)], n_modes)
        except ValueError as exc:
            assert "puts Var(G) past the largest double" in str(exc)
            return False
        return True

    lo, hi = (int(np.float64(x).view(np.int64)) for x in (1.0, np.finfo(np.float64).max))
    assert accepted(lo) and not accepted(hi)
    while hi - lo > 1:  # the first refused budget is the double after the last accepted one
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if accepted(mid) else (lo, mid)
    n_tot = float(np.int64(lo).view(np.float64))
    _, _, res_eps, res_qfi = curve(kind, [n_tot], n_modes)
    with mpmath.workdps(50):
        if kind is FamilyKind.ENTANGLED_CAT:
            _, eps, var = _mp_entangled(n_tot, n_modes)
        else:
            var = (kind is not FamilyKind.SQUEEZED) * n_modes + 4 * mpmath.mpf(n_tot)
            eps = 1 / mpmath.sqrt(var)
        assert abs(var / np.finfo(np.float64).max - 1) < mpmath.mpf(2) ** -50  # the range's end
    assert _rel_err(float(res_eps[0]), eps) <= 1e-14
    assert _rel_err(float(res_qfi[0]), var) <= 1e-14
    eps_of = {  # the scalar entry point of each family: a scalar curve, or the amplitude form
        FamilyKind.ENTANGLED_CAT: lambda n: eps_min_entangled_cat(invert_ntot(n, n_modes), n_modes),
    }.get(kind, lambda n: curve(kind, n, n_modes)[2])
    assert eps_of(n_tot) == res_eps[0]
    with pytest.raises(ValueError, match=r"puts Var\(G\) past the largest double"):
        eps_of(float(np.int64(hi).view(np.float64)))
    if kind is FamilyKind.SQUEEZED:  # Var(G) = 4 n_tot is positive where 1 / eps_min^2 overflows
        tiny = np.array([1e-320, 1e-310])
        qfi = curve(kind, tiny, n_modes)[3]
        np.testing.assert_array_equal(qfi, 4.0 * tiny)
        assert (qfi > 0.0).all()


def _x_tick_labels(svg) -> list[str]:
    """The x tick labels of a figure1 SVG: its centred texts that read as numbers."""
    texts = ET.parse(svg).getroot().iter("{http://www.w3.org/2000/svg}text")
    centred = [t.text for t in texts if t.get("text-anchor") == "middle"]
    return [v for v in centred if re.fullmatch(r"[-+.0-9e]+", v)]


class TestExtremeBudgetsThroughCli:
    def _alphas(self, tmp_path, ntot_min: str, ntot_max: str, points: int, n_modes: int):
        out = tmp_path / "bounds.csv"
        code = main(["bounds", "--ntot-min", ntot_min, "--ntot-max", ntot_max,
                     "--points", str(points), "--modes", str(n_modes), "--out", str(out)])
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == points
        return [(float(r["n_tot"]), float(r["alpha"])) for r in rows]

    def test_large_budgets_keep_their_bracket(self, tmp_path):
        # sqrt(n/N) + 1 rounds to sqrt(n/N) up here, which broke the old bisection bracket
        for n_tot, alpha in self._alphas(tmp_path, "1e40", "1e50", 50, 10):
            assert _rel_err(alpha, _mp_entangled(n_tot, 10)[0]) <= 1e-14

    def test_tiny_budgets_resolve_alpha(self, tmp_path):
        # a capped bisection from alpha = 1 runs out of halvings long before 1e-75
        for n_tot, alpha in self._alphas(tmp_path, "1e-300", "1e-290", 3, 1):
            assert _rel_err(alpha, _mp_entangled(n_tot, 1)[0]) <= 1e-14

    def test_linear_grid_from_zero(self, tmp_path):
        out = tmp_path / "figure1.csv"
        code = main(["figure1", "--spacing", "linear", "--ntot-min", "0", "--out", str(out)])
        assert code == 0
        with open(out, newline="") as fh:
            first = next(csv.DictReader(fh))
        assert float(first["eps_entangled"]) == 1.0 / math.sqrt(10.0)
        assert float(first["eps_single_cat"]) == 1.0

    def test_svg_of_an_overflowing_variance_is_refused(self, tmp_path, capsys):
        # the refusal names the budget, not the plot's "strictly positive y values"
        out, svg = tmp_path / "f.csv", tmp_path / "f.svg"
        code = main(["figure1", "--spacing", "linear", "--ntot-min", "1e307", "--ntot-max",
                     "1.7e308", "--out", str(out), "--svg", str(svg)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: n_tot 1e+307 puts Var(G) past the largest double\n")
        assert not out.exists() and not svg.exists()

    def test_svg_thins_decade_labels(self, tmp_path):
        svg = tmp_path / "wide.svg"
        code = main(["figure1", "--ntot-min", "1e-300", "--ntot-max", "1e300", "--points", "50",
                     "--out", str(tmp_path / "wide.csv"), "--svg", str(svg)])
        assert code == 0
        x_labels = [float(v) for v in _x_tick_labels(svg)]
        assert 2 <= len(x_labels) <= 11
        assert x_labels == sorted(x_labels)

    def test_svg_ticks_an_axis_with_no_decade_inside_at_its_ends(self, tmp_path):
        # the one decade found, 0.1, lies 1e-10 below the span; the axis once had no labels
        svg = tmp_path / "f.svg"
        code = main(["figure1", "--ntot-min", "0.10000000001", "--ntot-max", "0.5", "--points", "5",
                     "--out", str(tmp_path / "f.csv"), "--svg", str(svg)])
        assert code == 0
        assert _x_tick_labels(svg) == ["0.1", "0.5"]

    @pytest.mark.parametrize("family", ["sql", "entangled-cat"])
    @pytest.mark.parametrize("flag, value", [("--ntot-max", "inf"), ("--ntot-max", "nan"),
                                             ("--ntot-min", "nan")])
    def test_nonfinite_grid_end_exits_1(self, tmp_path, capsys, family, flag, value):
        # an inf end once went through geomspace and wrote n_tot = inf rows for sql
        code = main(["bounds", "--family", family, flag, value, "--points", "3",
                     "--out", str(tmp_path / "bounds.csv")])
        assert code == 1
        assert "finite" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_default_svg_unchanged(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["figure1", "--svg", "figure1.svg"]) == 0
        digest = hashlib.sha256((tmp_path / "figure1.svg").read_bytes()).hexdigest()
        assert digest.startswith("e39933fe03ddaf99")

    @pytest.mark.parametrize("args, pin", [
        # every eps is 1.0: the y axis takes _axis's widening of a degenerate range
        (["--modes", "1", "--ntot-min", "1e-300", "--ntot-max", "2e-300", "--points", "5"],
         "514ec36a4e01e405"),
        (["--modes", "1000", "--spacing", "linear", "--ntot-min", "0", "--points", "500"],
         "63ab4bb24c2e8f52"),
        (["--ntot-min", "1e-300", "--ntot-max", "1e300", "--points", "5000"], "979e8b1e3bbdcd81"),
    ])
    def test_other_svgs_unchanged(self, tmp_path, monkeypatch, args, pin):
        monkeypatch.chdir(tmp_path)
        assert main(["figure1", *args, "--svg", "figure1.svg"]) == 0
        digest = hashlib.sha256((tmp_path / "figure1.svg").read_bytes()).hexdigest()
        assert digest.startswith(pin)

    # ramsey and montecarlo depend only on PCG64 streams and libm; qfi_check.csv is
    # left out because its last bits depend on LAPACK's eigh
    @pytest.mark.parametrize("cmd, pin", [("figure1", "0987970f8b8cd103"),
                                          ("bounds", "e0c8942acc24fbb5"),
                                          ("ramsey", "fa2a6fe4d582b048"),
                                          ("montecarlo", "4d1bcbb3f636fffd")])
    def test_default_csv_unchanged(self, tmp_path, monkeypatch, cmd, pin):
        monkeypatch.chdir(tmp_path)
        assert main([cmd]) == 0
        digest = hashlib.sha256((tmp_path / f"{cmd}.csv").read_bytes()).hexdigest()
        assert digest.startswith(pin)

    @pytest.mark.parametrize("args, pin", [
        (["bounds", "--family", "sql"], "7eb0b5519cf3e03c"),
        (["bounds", "--family", "squeezed"], "3e4f4233b143547d"),
        (["bounds", "--family", "single-cat"], "6dc96071278fe1ad"),
        (["bounds", "--family", "separable-cats"], "3b0dcf56c78bed14"),
        (["figure1", "--modes", "1"], "053ca518dc06c3b5"),
        (["figure1", "--modes", "2"], "1f7bbd25225f8cef"),
        (["figure1", "--modes", "1000"], "8b4d5aeb9f1e5a10"),
    ])
    def test_other_default_csvs_unchanged(self, tmp_path, monkeypatch, args, pin):
        # every family's bounds table and figure1 at one, two and many modes, at their defaults
        monkeypatch.chdir(tmp_path)
        assert main([*args, "--out", "t.csv"]) == 0
        assert hashlib.sha256((tmp_path / "t.csv").read_bytes()).hexdigest().startswith(pin)

    def test_default_qfi_check_closed_form_columns_unchanged(self, tmp_path, monkeypatch):
        # the columns that need no eigh: the oracle columns' last bits depend on LAPACK
        monkeypatch.chdir(tmp_path)
        assert main(["qfi-check"]) == 0
        rows = [line.split(",")[:4] for line in (tmp_path / "qfi_check.csv").read_text().splitlines()]
        assert rows[0] == ["modes", "alpha", "dim", "qfi_closed_form"]
        text = "".join(",".join(row) + "\n" for row in rows)
        assert hashlib.sha256(text.encode()).hexdigest().startswith("59b18507210eb9ad")


class TestAgainstOracleConventions:
    def test_single_cat_formula_is_a_large_amplitude_approximation(self):
        # the 1/sqrt(1 + 4 n_tot) form replaces the cat's true photon number
        # a^2 tanh(a^2) by a^2; at n_tot = 2 that costs ~0.7%, visible well
        # above the oracle's accuracy, and it dies off by n_tot ~ 16
        def oracle_eps(n_tot: float) -> float:
            alpha = invert_ntot(n_tot, 1)
            psi = fock.to_fock(coherent.make_entangled_cat(alpha, 1))
            return 1.0 / math.sqrt(fock.qfi_pure(psi, fock.quad_x(psi.dim)) / 4.0)

        dev_small = abs(curve(FamilyKind.SINGLE_CAT, 2.0)[2] / oracle_eps(2.0) - 1.0)
        assert 1e-3 < dev_small < 1e-2
        dev_large = abs(curve(FamilyKind.SINGLE_CAT, 16.0)[2] / oracle_eps(16.0) - 1.0)
        assert dev_large < 1e-10

    def test_separable_formula_against_exact_variance(self):
        # N independent cats: total Var(G) = N * Var_single(alpha); the
        # printed N + 4 n_tot matches it at the e^{-2 a^2} level
        n_modes, n_tot = 4, 36.0
        alpha = invert_ntot(n_tot / n_modes, 1)
        exact_var = n_modes * entangled_cat_generator_variance(alpha, 1)
        assert curve(FamilyKind.SEPARABLE_CATS, n_tot, n_modes)[2] == pytest.approx(
            1.0 / math.sqrt(exact_var), rel=1e-6
        )

    def test_squeezed_exact_matches_fock_qfi(self):
        r, dim = 0.8, 60
        psi = fock.squeezed_vector(r, dim)
        oracle_eps = 1.0 / math.sqrt(fock.qfi_pure(psi, fock.quad_x(dim)))
        assert eps_min_squeezed_exact(r) == pytest.approx(oracle_eps, abs=1e-8)


class TestAsymptotics:
    @pytest.mark.parametrize("n_modes", [1, 10, 100])
    def test_entangled_approaches_heisenberg_form(self, n_modes):
        for n_tot in [100.0, 1000.0, 10000.0]:
            eps = eps_min_entangled_cat(invert_ntot(n_tot, n_modes), n_modes)
            ratio = eps * math.sqrt(4.0 * n_modes * n_tot)
            assert 0.995 <= ratio <= 1.0

    def test_sqrt_n_gap_between_separable_and_entangled(self):
        n_modes, n_tot = 10, 1000.0
        eps = eps_min_entangled_cat(invert_ntot(n_tot, n_modes), n_modes)
        gap = curve(FamilyKind.SEPARABLE_CATS, n_tot, n_modes)[2] / eps
        assert gap == pytest.approx(math.sqrt(n_modes), rel=0.01)

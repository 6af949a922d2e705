import cmath
import csv
import functools
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from test_bounds import _mp_entangled

from catsense import bounds, coherent, fock
from catsense.errors import (
    CapacityError,
    DegenerateState,
    DimensionMismatch,
    HermiticityError,
    StepTooSmallError,
    TruncationError,
)


def _assert_matches_50_digits(got: np.ndarray, ref: list) -> None:
    """Every entry of got against ref normalized on the same basis, at 50 digits: within
    1e-15 absolute, and 1e-13 relative wherever the reference is above 1e-250."""
    with mpmath.workdps(50):
        nrm = mpmath.sqrt(mpmath.fsum(abs(c) ** 2 for c in ref))
        for n, (g, c) in enumerate(zip(got.tolist(), ref)):
            want = c / nrm
            err = abs(mpmath.mpc(g) - want)
            assert err <= 1e-15, f"level {n}: {float(err):.3e} absolute"
            assert abs(want) <= 1e-250 or err <= 1e-13 * abs(want), (
                f"level {n}: {float(err / abs(want)):.3e} relative")


class TestCoherentVector:
    def test_vacuum_any_dim(self):
        v = fock.coherent_vector(0.0, 10)
        assert v.amplitudes[0] == pytest.approx(1.0)
        assert np.all(v.amplitudes[1:] == 0)

    def test_coefficients_match_factorial_formula(self):
        a = 0.9 + 0.4j
        v = fock.coherent_vector(a, 30)
        for n in range(6):
            want = math.exp(-abs(a) ** 2 / 2) * a**n / math.sqrt(math.factorial(n))
            assert v.amplitudes[n] == pytest.approx(want, rel=1e-12)

    def test_unit_norm_and_mean_photon(self):
        v = fock.coherent_vector(1.5, 40)
        assert np.linalg.norm(v.amplitudes) == pytest.approx(1.0, abs=1e-13)
        nbar = fock.expectation(v, fock.number_operator(40))
        assert nbar == pytest.approx(2.25, abs=1e-10)

    @pytest.mark.parametrize("alpha, dim, match", [
        (3.0, 12, "in the top two levels"),
        # far too few levels: the top two hold almost nothing, so only the norm gate refuses
        (12.0, 20, r"norm 5\.28\d*e-20 too far from 1"),
        (30.0, 10, "norm 0.0 too far from 1"),
    ], ids=["tail-gate", "norm-gate-tiny", "norm-gate-zero"])
    def test_small_cutoff_rejected(self, alpha, dim, match):
        with pytest.raises(TruncationError, match=match):
            fock.coherent_vector(alpha, dim)

    def test_amplitudes_frozen(self):
        v = fock.coherent_vector(1.0, 25)
        with pytest.raises(ValueError):
            v.amplitudes[0] = 0.0

    @given(st.floats(0.0, 2.5))
    def test_recommended_dim_passes_tail_gate(self, alpha):
        fock.coherent_vector(alpha, fock.recommended_dim(alpha))  # must not raise

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, complex(0.5, math.nan)])
    def test_nonfinite_alpha_refused(self, alpha):
        # a NaN compares false in both the tail and the norm gate, so it is refused first
        with pytest.raises(ValueError, match="alpha must be finite"):
            fock.coherent_vector(alpha, 25)

    @pytest.mark.parametrize("alpha", [1e200, complex(1e308, 1e308)])
    def test_overflowing_alpha_refused(self, alpha):
        with pytest.raises(TruncationError, match="overflows"):
            fock.coherent_vector(alpha, 25)

    @pytest.mark.parametrize("alpha, dim", [
        (0.0, 10), (0.25, 23), (-2.0, 40), (0.9 + 0.4j, 30), (3j, 60), (10.0, 200),
        (30.0, 1448), (20 + 15j, 1024),
    ])
    def test_every_level_matches_a_50_digit_recurrence(self, alpha, dim):
        with mpmath.workdps(50):
            a = mpmath.mpc(alpha)
            ref = [mpmath.exp(-abs(a) ** 2 / 2)]
            for n in range(1, dim):
                ref.append(ref[-1] * a / mpmath.sqrt(n))
        _assert_matches_50_digits(fock.coherent_vector(alpha, dim).amplitudes, ref)

    def test_the_gaussian_factor_comes_first(self):
        # alpha^n / sqrt(n!) alone overflows near the top of 1448 levels once |alpha| >~ 37.7;
        # with exp(-|alpha|^2/2) first every partial product is an amplitude and the tail gate
        # refuses the cutoff instead
        with pytest.raises(TruncationError, match="in the top two levels"):
            fock.coherent_vector(38.0, 1448)

    def test_nan_tail_fails_the_gate(self):
        with pytest.raises(TruncationError, match="nan in the top two levels"):
            fock._check_tail(np.array([1.0, math.nan, 0.0]), "v")


class TestSqueezedVector:
    def test_quadrature_variances(self):
        r, dim = 0.8, 60
        v = fock.squeezed_vector(r, dim)
        assert fock.variance(v, fock.quad_y(dim)) == pytest.approx(math.exp(-2 * r), abs=1e-8)
        assert fock.variance(v, fock.quad_x(dim)) == pytest.approx(math.exp(2 * r), abs=1e-6)

    def test_mean_photon_number(self):
        r, dim = 0.8, 60
        v = fock.squeezed_vector(r, dim)
        nbar = fock.expectation(v, fock.number_operator(dim))
        assert nbar == pytest.approx(math.sinh(r) ** 2, abs=1e-8)

    def test_tails_decay_slower_than_poisson(self):
        # at r = 1 a 60-level basis still holds ~1e-8 in the top levels, so
        # second moments are only good to ~1e-6; the gate admits exactly that
        dim = 60
        v = fock.squeezed_vector(1.0, dim)
        assert fock.variance(v, fock.quad_y(dim)) == pytest.approx(math.exp(-2.0), abs=1e-5)

    def test_only_even_levels(self):
        v = fock.squeezed_vector(0.6, 40)
        assert np.all(v.amplitudes[1::2] == 0)
        assert np.all(np.abs(v.amplitudes[0::2][:10]) > 0)

    def test_vacuum_limit(self):
        v = fock.squeezed_vector(0.0, 30)
        assert v.amplitudes[0] == pytest.approx(1.0)

    def test_negative_r_rejected(self):
        with pytest.raises(ValueError):
            fock.squeezed_vector(-0.2, 60)

    def test_undersized_basis_rejected(self):
        with pytest.raises(TruncationError):
            fock.squeezed_vector(1.0, 20)
        # sinh(r)^2 overflows past r ~ 355 and sinh(r) past r ~ 710: no basis is big enough
        for r in (400.0, 800.0):
            with pytest.raises(TruncationError, match="inf required"):
                fock.squeezed_vector(r, 20)

    @pytest.mark.parametrize("r", [1.5, 2.0])
    def test_criterion_8_on_a_wide_basis(self, r):
        # past r = 1.2 the squeezed tail needs more than 128 levels for 1e-8
        dim = 1024
        v = fock.squeezed_vector(r, dim)
        assert fock.variance(v, fock.quad_y(dim)) == pytest.approx(math.exp(-2 * r), abs=1e-8)
        nbar = fock.expectation(v, fock.number_operator(dim))
        assert nbar == pytest.approx(math.sinh(r) ** 2, abs=1e-8)
        eps_min = 1.0 / math.sqrt(fock.qfi_pure(v, fock.quad_x(dim)))
        assert eps_min == pytest.approx(math.exp(-r) / 2.0, abs=1e-8)

    @pytest.mark.parametrize("r, dim", [
        (0.1, 30), (0.1, 128), (0.1, 1024), (1.0, 128), (1.0, 1024), (2.0, 1024),
    ])
    def test_every_level_matches_a_50_digit_recurrence(self, r, dim):
        with mpmath.workdps(50):
            t = mpmath.tanh(r)
            ref = [1 / mpmath.sqrt(mpmath.cosh(r))]
            for n in range(1, dim):
                ref.append(0 if n % 2 else ref[n - 2] * t * mpmath.sqrt(mpmath.mpf(n - 1) / n))
        _assert_matches_50_digits(fock.squeezed_vector(r, dim).amplitudes, ref)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_r_rejected(self, bad):
        with pytest.raises(ValueError, match="r must be finite and >= 0"):
            fock.squeezed_vector(bad, 60)


class TestToFock:
    def test_cat_norm_matches_exact(self):
        cat = coherent.make_entangled_cat(1.0, 2)
        v = fock.to_fock(cat)
        assert np.linalg.norm(v.amplitudes) == pytest.approx(math.sqrt(coherent.norm_squared(cat)), abs=1e-11)

    def test_default_dim_is_recommended(self):
        cat = coherent.make_entangled_cat(1.0, 1)
        assert fock.to_fock(cat).dim == fock.recommended_dim(1.0)

    def test_mode_cap(self):
        labels = coherent.CoherentLabel((0.1,) * 4)
        s = coherent.SuperpositionState([(1.0, labels)])
        with pytest.raises(CapacityError):
            fock.to_fock(s)

    def test_dim_cap(self):
        s = coherent.SuperpositionState([(1.0, coherent.CoherentLabel((34.1,)))])
        with pytest.raises(CapacityError):
            fock.to_fock(s)  # recommended dim 34.1^2 + 272.8 + 20 > 1448

    @pytest.mark.parametrize("n_modes", [1, 2, 3])
    @pytest.mark.parametrize("dim", [None, np.int64(30)])
    def test_dim_and_mode_count_are_ints_sized_to_the_amplitudes(self, n_modes, dim):
        # a traced benchmark run counts 16 * dim ** mode_count bytes for each state
        v = fock.to_fock(coherent.make_entangled_cat(0.5, n_modes), dim)
        assert type(v.dim) is int and type(v.mode_count) is int
        assert v.dim**v.mode_count == v.amplitudes.size

    def test_explicit_small_dim_rejected_not_clipped(self):
        cat = coherent.make_entangled_cat(2.0, 1)
        with pytest.raises(TruncationError):
            fock.to_fock(cat, dim=15)

    def test_a_cutoff_below_the_first_kept_level_fails_the_norm_gate(self):
        # 54 coherent states |4 w^k>, w = e^{2 pi i / 54}, cancel every level but 0, 54, 108, ...:
        # at 54 levels each one passes its own tail check, yet level 54's share of the norm is cut
        ring = coherent.SuperpositionState(
            [(1.0, coherent.CoherentLabel([4.0 * cmath.exp(2j * math.pi * k / 54)])) for k in range(54)])
        with pytest.raises(TruncationError,
                           match=r"^truncated norm \S+ vs exact \S+, cutoff too small$"):
            fock.to_fock(ring, 54)
        fock.to_fock(ring, 60)  # level 54 kept: the gate passes


class TestOperators:
    def test_annihilation_entries(self):
        a = fock.annihilation(5)
        assert a[0, 1] == pytest.approx(1.0)
        assert a[3, 4] == pytest.approx(2.0)
        assert np.count_nonzero(a) == 4

    def test_commutator_on_interior(self):
        # [a, a*] = 1 away from the cutoff edge
        dim = 12
        a = fock.annihilation(dim)
        comm = a @ a.conj().T - a.conj().T @ a
        assert_allclose(np.diag(comm)[: dim - 1], 1.0, atol=1e-13)

    def test_number_operator_diag(self):
        n = fock.number_operator(6)
        assert_allclose(np.diag(n).real, np.arange(6), atol=0)

    def test_quadrature_vacuum_variances(self):
        dim = 20
        vac = fock.coherent_vector(0.0, dim)
        assert fock.variance(vac, fock.quad_x(dim)) == pytest.approx(1.0, abs=1e-12)
        assert fock.variance(vac, fock.quad_y(dim)) == pytest.approx(1.0, abs=1e-12)

    def test_variance_survives_a_large_mean(self):
        # <X^2> - <X>^2 cancelled to exactly 0 under a 1e8 shift
        dim = 40
        shifted = fock.quad_x(dim) + 1e8 * np.eye(dim)
        assert fock.variance(fock.coherent_vector(1.5, dim), shifted) == pytest.approx(
            1.0, rel=1e-8
        )

    def test_mode_0_is_the_slow_index(self):
        # the label (0.8, 0) leaves mode 1 in vacuum: all mass sits at n_1 = 0
        dim = 20
        label = coherent.CoherentLabel((0.8, 0.0))
        psi = fock.to_fock(coherent.SuperpositionState([(1.0, label)]), dim)
        assert np.all(psi.amplitudes[:, 1:] == 0)
        assert np.sum(np.abs(psi.amplitudes[1:, 0]) ** 2) > 0.4
        assert_allclose(psi.amplitudes.ravel(), np.kron(fock.coherent_vector(0.8, dim).amplitudes,
                                                        fock.coherent_vector(0.0, dim).amplitudes))

    def test_collective_generator_matches_exact_algebra(self):
        cat = coherent.make_entangled_cat(0.9, 3)
        psi = fock.to_fock(cat)
        assert fock.variance(psi, fock.quad_x(psi.dim)) == pytest.approx(
            coherent.variance_generator(cat), rel=1e-11
        )

    @pytest.mark.parametrize("dim, alpha", [(20, 0.6), (24, 0.8)])
    def test_beam_splitter_folds_the_two_mode_cat_into_one_mode(self, dim, alpha):
        # the 50:50 splitter U = exp(-i (pi/4) H), H = i (a* b - a b*), sends the
        # symmetric mode (a + b) / sqrt(2) to a: |x, x> -> |sqrt(2) x, 0>
        eye = np.eye(dim)
        a, b = np.kron(fock.annihilation(dim), eye), np.kron(eye, fock.annihilation(dim))
        w, v = np.linalg.eigh(1j * (a.conj().T @ b - a @ b.conj().T))
        u = (v * np.exp(-0.25j * np.pi * w)) @ v.conj().T
        pair = fock.to_fock(coherent.make_entangled_cat(alpha, 2), dim)
        one = fock.to_fock(coherent.make_entangled_cat(math.sqrt(2) * alpha, 1), dim)
        folded = fock.FockVector((u @ pair.amplitudes.ravel()).reshape(dim, dim))
        want = np.multiply.outer(one.amplitudes, eye[0])
        assert_allclose(folded.amplitudes, want, rtol=0, atol=1e-10)
        x = fock.quad_x(dim)
        assert fock.variance(pair, x) == pytest.approx(2 * fock.variance(one, x), rel=1e-12)


def _kron_reference(op: np.ndarray, modes: int) -> np.ndarray:
    """Full-space matrix of the collective sum of op, one explicit np.kron product per mode."""
    dim = op.shape[0]
    total = np.zeros((dim**modes,) * 2, dtype=np.complex128)
    for k in range(modes):
        factors = [np.eye(dim)] * modes
        factors[k] = op
        product = factors[0]
        for f in factors[1:]:
            product = np.kron(product, f)
        total += product
    return total


class TestAgainstKronReference:
    @pytest.mark.parametrize("modes", [1, 2, 3])
    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_collective_moments(self, modes, dim):
        rng = np.random.default_rng(100 * modes + dim)
        amps = rng.normal(size=dim**modes) + 1j * rng.normal(size=dim**modes)
        psi = fock.FockVector(amps.reshape((dim,) * modes))
        raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        herm = raw + raw.conj().T
        for op in (herm, fock.quad_x(dim)):
            full = _kron_reference(op, modes)
            nrm2 = np.vdot(amps, amps).real
            mean = np.vdot(amps, full @ amps).real / nrm2
            dev = full @ amps - mean * amps
            var = np.vdot(dev, dev).real / nrm2
            assert fock.expectation(psi, op) == pytest.approx(mean, rel=1e-12, abs=1e-12)
            assert fock.variance(psi, op) == pytest.approx(var, rel=1e-12, abs=1e-12)

    def test_non_hermitian_operator(self):
        psi = fock.to_fock(coherent.make_entangled_cat(0.5, 2))
        with pytest.raises(HermiticityError, match="deviates from Hermitian"):
            fock.variance(psi, fock.annihilation(psi.dim))

    def test_nan_entry_is_not_hermitian(self):
        # NaN compares false with the tolerance, so the gate must fail closed
        psi = fock.to_fock(coherent.make_entangled_cat(0.5, 2))
        op = fock.quad_x(psi.dim)
        op[2, 3] = np.nan
        for moment in (fock.expectation, fock.variance, fock.qfi_pure):
            with pytest.raises(HermiticityError, match="by nan"):
                moment(psi, op)

    def test_wrong_shape(self):
        psi = fock.to_fock(coherent.make_entangled_cat(0.5, 2))
        x = fock.quad_x(psi.dim)
        bad = [
            fock.quad_x(psi.dim + 1),
            (x, x),  # per-mode terms are not the operator format
            np.kron(x, np.eye(psi.dim)),  # nor are full-space matrices
        ]
        for op in bad:
            with pytest.raises(DimensionMismatch):
                fock.expectation(psi, op)
            with pytest.raises(DimensionMismatch):
                fock.variance(psi, op)

    def test_the_zero_operator(self):
        psi = fock.to_fock(coherent.make_entangled_cat(0.7, 3))
        zero = np.zeros((psi.dim, psi.dim))
        assert fock.expectation(psi, zero) == 0.0
        assert fock.variance(psi, zero) == 0.0


def _cahill_glauber(beta: complex, dim: int) -> np.ndarray:
    """<m|D(beta)|n> of the untruncated operator on the lowest dim levels (Cahill & Glauber 1969).

    With x = |beta|^2 and u = beta/|beta|: <m|D|n> = f_n(m - n) u^(m - n) for m >= n and
    f_m(n - m) (-conj u)^(n - m) for m < n, where f_0(k) = x^(k/2) e^(-x/2) / sqrt(k!) is
    taken in log space, f_1 = (1 + k - x) f_0 / sqrt(1 + k) and f_{n+1} =
    ((2n + 1 + k - x) f_n - sqrt(n (n + k)) f_{n-1}) / sqrt((n + 1)(n + 1 + k)).
    """
    if beta == 0:
        return np.eye(dim, dtype=complex)
    x, u = abs(beta) ** 2, beta / abs(beta)
    k = np.arange(dim)
    f = np.empty((dim, dim))  # f[n, k]
    f[0] = np.exp(0.5 * k * math.log(x) - x / 2 - 0.5 * np.array([math.lgamma(j + 1) for j in k]))
    f[1] = (1 + k - x) * f[0] / np.sqrt(1 + k)
    for n in range(1, dim - 1):
        f[n + 1] = ((2 * n + 1 + k - x) * f[n] - np.sqrt(n * (n + k)) * f[n - 1]) / np.sqrt(
            (n + 1) * (n + 1 + k))
    m, n = np.indices((dim, dim))
    return f[np.minimum(m, n), abs(m - n)] * np.where(m >= n, u, -u.conjugate()) ** abs(m - n)


class TestDisplacement:
    def test_unitary(self):
        d = fock.displacement_matrix(0.7 - 0.3j, 30)
        assert_allclose(d @ d.conj().T, np.eye(30), atol=1e-12)

    def test_inverse_is_negated_argument(self):
        b = 0.4 + 0.9j
        d1 = fock.displacement_matrix(b, 25)
        d2 = fock.displacement_matrix(-b, 25)
        assert_allclose(d1 @ d2, np.eye(25), atol=1e-12)

    def test_creates_coherent_state_from_vacuum(self):
        dim = 40
        vac = np.zeros(dim)
        vac[0] = 1.0
        got = fock.displacement_matrix(1.2 + 0.5j, dim) @ vac
        want = fock.coherent_vector(1.2 + 0.5j, dim).amplitudes
        assert_allclose(got, want, atol=1e-11)

    @pytest.mark.parametrize("beta", [0, 0.3, 1j, 1 - 0.5j, 2.5j, -1.7 + 0.4j])
    def test_matches_cahill_glauber_elements(self, beta):
        # the truncated exponential agrees with the untruncated operator away from the cutoff
        for dim in (40, 80, 200):
            low = dim // 3
            got = fock.displacement_matrix(beta, dim)[:low, :low]
            assert np.abs(got - _cahill_glauber(beta, dim)[:low, :low]).max() <= 1e-13

    @pytest.mark.parametrize("beta", [0.3, 1j, 1 - 0.5j, 2.5j, -1.7 + 0.4j])
    def test_cahill_glauber_elements_match_50_digit_laguerre(self, beta):
        d = _cahill_glauber(beta, 40)
        with mpmath.workdps(50):
            b = mpmath.mpc(beta)
            x = abs(b) ** 2
            for m, n in [(0, 0), (5, 2), (2, 5), (17, 9)]:
                lo, k = min(m, n), abs(m - n)
                want = (mpmath.sqrt(mpmath.factorial(lo) / mpmath.factorial(lo + k))
                        * (b if m >= n else -mpmath.conj(b)) ** k * mpmath.exp(-x / 2)
                        * mpmath.laguerre(lo, k, x))
                assert abs(mpmath.mpc(complex(d[m, n])) - want) <= 1e-15, (m, n)

    def test_group_phase(self):
        # D(b)D(g) = exp(i Im(b conj(g))) D(b+g)
        b, g, dim = 0.5 + 0.2j, -0.3 + 0.4j, 35
        lhs = fock.displacement_matrix(b, dim) @ fock.displacement_matrix(g, dim)
        rhs = np.exp(1j * (b * g.conjugate()).imag) * fock.displacement_matrix(b + g, dim)
        # interior columns only: the top corner of the truncated product leaks
        assert_allclose(lhs[:20, :20], rhs[:20, :20], atol=1e-9)

    def test_displace_fock_agrees_with_exact_phase(self):
        # D(i eps)|a0> = e^{i eps a0}|a0 + i eps> for real a0
        a0, eps, dim = 1.1, 0.25, 40
        start = fock.coherent_vector(a0, dim)
        moved = fock.displace_fock(start, [1j * eps])
        want = np.exp(1j * eps * a0) * fock.coherent_vector(a0 + 1j * eps, dim).amplitudes
        assert_allclose(moved.amplitudes, want, atol=1e-11)

    def test_displace_fock_multimode_norm(self):
        cat = coherent.make_entangled_cat(0.8, 3)
        psi = fock.to_fock(cat)
        kicked = fock.displace_fock(psi, [0.1j, -0.2, 0.05 + 0.05j])
        assert np.linalg.norm(kicked.amplitudes) == pytest.approx(np.linalg.norm(psi.amplitudes), abs=1e-12)

    def test_kick_past_the_cutoff_refused(self):
        # the truncated D(3i) clips ~1e-4 of the mass; renormalized, <n> would read
        # 9.249982 for the exact 9.25
        with pytest.raises(TruncationError, match="kick 3j on mode 0 adds mass 9.38"):
            fock.displace_fock(fock.coherent_vector(0.5, 25), [3j])

    def test_gate_counts_only_the_mass_a_kick_adds(self):
        # squeezed vacuum passes its own looser gate with ~9.3e-9 at the top
        psi = fock.squeezed_vector(1.0, 60)
        assert np.sum(np.abs(psi.amplitudes[-2:]) ** 2) > 1e-9
        kicked = fock.displace_fock(psi, [1e-3j])
        assert np.linalg.norm(kicked.amplitudes) == pytest.approx(np.linalg.norm(psi.amplitudes), abs=1e-12)

    @pytest.mark.parametrize("beta", [1e155j, 1e308j, 1.7976931348623157e308])
    def test_kick_whose_square_overflows_refused(self, beta):
        # |beta|^2 past the largest double: no cutoff holds D(beta)|psi>, refused before eigh
        # runs, whose entries near |beta| sqrt(dim) would overflow or fail to converge
        psi = fock.coherent_vector(0.5, 21)
        with pytest.raises(TruncationError, match=r"\|beta\|\^2 overflows, past every cutoff"):
            fock.displacement_matrix(beta, 20)
        with pytest.raises(TruncationError, match="past every cutoff"):
            fock.displace_fock(psi, [beta])
        with pytest.raises(TruncationError, match="past every cutoff"):
            fock.qfi_fidelity_fd(psi, [beta], 1.0)
        with pytest.raises(TruncationError, match="past every cutoff"):
            fock.qfi_fidelity_fd(psi, [1j], 1e308)

    def test_the_amplitude_rule_refuses_exactly_the_overflowing_squares(self):
        below = math.nextafter(2.0**512, 0.0)
        assert fock._require_amplitude("f", "z", below) == (below, below**2)
        for z in (2.0**512, complex(1e154, 1e154)):
            with pytest.raises(OverflowError):
                abs(z) ** 2
            with pytest.raises(TruncationError, match=r"^f\(z=.*\): \|z\|\^2 overflows"):
                fock._require_amplitude("f", "z", z)

    @pytest.mark.parametrize("beta", [math.nan, math.inf, complex(0.0, -math.inf),
                                      complex(math.nan, 1.0)])
    def test_non_finite_kick_refused(self, monkeypatch, beta):
        psi = fock.coherent_vector(0.5, 25)

        def no_build(dim):
            raise AssertionError("built the ladder operator before checking the kick")

        monkeypatch.setattr(fock, "annihilation", no_build)
        # the matrix names beta as passed; displace_fock names the bad entry of its kick vector
        with pytest.raises(ValueError, match=rf"^beta must be finite, got {re.escape(str(beta))}$"):
            fock.displacement_matrix(beta, 25)
        shown = re.escape(str(complex(beta)))
        with pytest.raises(ValueError, match=rf"^kick must be finite, got {shown}$"):
            fock.displace_fock(psi, [beta])

    def test_wrong_kick_count(self):
        psi = fock.to_fock(coherent.make_entangled_cat(0.5, 2))
        with pytest.raises(DimensionMismatch):
            fock.displace_fock(psi, [0.1])

    @pytest.mark.parametrize("kicks, built", [
        ([0.3j] * 3, 1), ([0.0] * 3, 0), ([0.3j, 0.0, -0.2], 2), ([0.1, 0.1j, 0.1], 2)])
    def test_each_distinct_kick_builds_one_matrix(self, monkeypatch, kicks, built):
        psi = fock.to_fock(coherent.make_entangled_cat(0.6, 3))
        want = psi.amplitudes
        for k, b in enumerate(kicks):  # reference: one matrix per mode, D(0) included
            want = np.moveaxis(np.tensordot(fock.displacement_matrix(b, psi.dim), want,
                                            axes=([1], [k])), 0, k)
        calls = []

        def counting(beta, dim):
            calls.append(beta)
            return build(beta, dim)

        build = fock.displacement_matrix
        monkeypatch.setattr(fock, "displacement_matrix", counting)
        got = fock.displace_fock(psi, kicks)
        assert len(calls) == built
        assert np.array_equal(got.amplitudes, want)


class TestQfi:
    def test_requires_hermitian_generator(self):
        v = fock.coherent_vector(0.5, 25)
        with pytest.raises(HermiticityError):
            fock.qfi_pure(v, fock.annihilation(25))

    def test_coherent_probe_gives_vacuum_limit(self):
        dim = 40
        v = fock.coherent_vector(1.5, dim)
        assert fock.qfi_pure(v, fock.quad_x(dim)) == pytest.approx(4.0, abs=1e-9)

    def test_squeezed_probe(self):
        r, dim = 0.8, 60
        v = fock.squeezed_vector(r, dim)
        assert fock.qfi_pure(v, fock.quad_x(dim)) == pytest.approx(
            4.0 * math.exp(2 * r), rel=1e-8
        )

    def test_sparse_generator_accepted(self):
        cat = coherent.make_entangled_cat(1.0, 2)
        psi = fock.to_fock(cat)
        assert fock.qfi_pure(psi, fock.quad_x(psi.dim)) == pytest.approx(
            4.0 * coherent.variance_generator(cat), rel=1e-10
        )

    def test_fd_matches_generator_route_for_coherent(self):
        got = fock.qfi_fidelity_fd(fock.coherent_vector(1.0, 40), [1j], 1e-3)
        assert got == pytest.approx(4.0, rel=1e-9)

    @given(st.lists(st.tuples(st.floats(0.0, 3.0), st.floats(-math.pi, math.pi),
                              st.floats(-math.pi, math.pi)), min_size=1, max_size=3),
           st.floats(1e-4, 1e-3))
    def test_fd_reaches_the_coherent_qfi_to_1e_10(self, modes, step):
        # a product of coherent states has QFI 4 per unit kick, whatever its phase;
        # the fidelity deficit must not lose half its digits to 1 - |<a|b>|
        dim = fock.recommended_dim(3.0)
        columns = [fock.coherent_vector(cmath.rect(r, t), dim).amplitudes for r, t, _ in modes]
        psi = fock.FockVector(functools.reduce(np.multiply.outer, columns))
        kicks = [cmath.rect(1.0, phase) for _, _, phase in modes]
        got = fock.qfi_fidelity_fd(psi, kicks, step)
        assert got == pytest.approx(4.0 * len(modes), rel=1e-10)

    def test_fd_step_too_small(self):
        with pytest.raises(StepTooSmallError):
            fock.qfi_fidelity_fd(fock.coherent_vector(0.5, 30), [1j], 1e-9)

    def test_fd_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            fock.qfi_fidelity_fd(fock.coherent_vector(0.0, 25), [1.0], 0.0)

    @pytest.mark.parametrize("step", [math.nan, math.inf])
    def test_fd_rejects_nonfinite_step(self, step):
        with pytest.raises(ValueError, match="finite"):
            fock.qfi_fidelity_fd(fock.coherent_vector(0.0, 25), [1.0], step)

    @pytest.mark.parametrize("kicks", [[0, 0], [0.0, 0j]])
    def test_fd_refuses_kicks_that_move_no_mode(self, monkeypatch, kicks):
        # bad input, not a step too small: no step resolves a family that does not move
        def no_displace(*args):
            raise AssertionError("displaced before checking the kicks")

        psi = fock.to_fock(coherent.make_entangled_cat(1.0, 2))
        monkeypatch.setattr(fock, "displace_fock", no_displace)
        with pytest.raises(ValueError, match="^kicks must have a nonzero entry") as info:
            fock.qfi_fidelity_fd(psi, kicks, 1e-3)
        assert not isinstance(info.value, StepTooSmallError)  # a plain ValueError: exit 1

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 1.5])
    def test_fd_kicks_each_mode_by_its_own_entry(self, alpha):
        # kicking mode 0 of the two-mode cat alone: the generator is X_0, whose variance in
        # the cat is 1 + 4 a^2 / (1 + e^{-4 a^2}), mode 1 adding only its e^{-2 a^2} to the
        # overlap of the two branches
        psi = fock.to_fock(coherent.make_entangled_cat(alpha, 2))
        want = 4 * (1 + 4 * alpha**2 / (1 + math.exp(-4 * alpha**2)))
        assert fock.qfi_fidelity_fd(psi, [1j, 0], 1e-3) == pytest.approx(want, rel=1e-8)

    @pytest.mark.parametrize("n_tot", np.geomspace(0.1, 100.0, 200))
    def test_figure1_ten_mode_cat_through_the_symmetric_mode(self, n_tot):
        # the N-mode cat is a one-mode cat of amplitude sqrt(N) alpha in the symmetric
        # mode plus N - 1 vacua, so its QFI is N times that one-mode cat's; figure 1's
        # whole N = 10 curve, dims 25..201
        alpha = bounds.invert_ntot(n_tot, 10)
        psi = fock.to_fock(coherent.make_entangled_cat(math.sqrt(10) * alpha, 1))
        got = 10 * fock.qfi_pure(psi, fock.quad_x(psi.dim))
        assert got == pytest.approx(4 * bounds.entangled_cat_generator_variance(alpha, 10), rel=1e-12)
        with mpmath.workdps(50):  # Var(G) from a 50-digit root of u tanh u = n_tot
            assert float(abs(got / (4 * _mp_entangled(n_tot, 10)[2]) - 1)) <= 1e-12

    @pytest.mark.parametrize("n_modes", [1, 2, 3])
    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 2.0])
    def test_symmetric_mode_reproduces_the_default_grid(self, n_modes, alpha):
        # qfi-check's default grid through the symmetric mode: the N-mode cat under the uniform
        # kick eps is the one-mode cat at sqrt(N) alpha under the kick sqrt(N) eps, with
        # generator sqrt(N) X; the tensor route it is checked against never uses that identity
        row = fock.cat_qfi_check([n_modes], [alpha], 1e-3)
        psi = fock.to_fock(coherent.make_entangled_cat(math.sqrt(n_modes) * alpha, 1))
        oracle = n_modes * fock.qfi_pure(psi, fock.quad_x(psi.dim))
        assert oracle == pytest.approx(row["qfi_oracle"][0], rel=1e-12)
        kick = 1j * math.sqrt(n_modes)
        fd = fock.qfi_fidelity_fd(psi, [kick], 1e-3)
        assert fd == pytest.approx(row["qfi_fd"][0], rel=1e-8)

    def test_figure1_ten_mode_cat_at_the_entry_budget(self):
        # one mode reaches 1448 levels: n_tot = 1150 fits, n_tot = 1160 does not
        fits = math.sqrt(10) * bounds.invert_ntot(1150.0, 10)
        assert fock.to_fock(coherent.make_entangled_cat(fits, 1)).dim == 1442
        over = math.sqrt(10) * bounds.invert_ntot(1160.0, 10)
        assert fock.recommended_dim(over) == 1453
        with pytest.raises(CapacityError):
            fock.to_fock(coherent.make_entangled_cat(over, 1))

    @pytest.mark.parametrize("r, dim", [
        (0.1, 128), (0.2, 128), (0.5, 128), (0.75, 128), (1.0, 128),
        # by r = 1.2 a 128-level cutoff already costs ~3e-7
        (1.5, 1024), (2.0, 1024),
    ])
    def test_photon_subtracted_squeezed_vacuum(self, r, dim):
        # a|sq>; r = 0 is left out (a|0> = 0)
        k = fock.annihilation(dim) @ fock.squeezed_vector(r, dim).amplitudes
        psi = fock.FockVector(k / np.linalg.norm(k))
        n = fock.expectation(psi, fock.number_operator(dim))
        assert n == pytest.approx(1.0 + 3.0 * math.sinh(r) ** 2, abs=1e-10)
        assert fock.variance(psi, fock.quad_x(dim)) == pytest.approx(3.0 * math.exp(2 * r), abs=1e-10)
        assert fock.variance(psi, fock.quad_y(dim)) == pytest.approx(3.0 * math.exp(-2 * r), abs=1e-10)


class TestFockVectorValidation:
    def test_compares_by_identity_and_hashes(self):
        v, w = fock.coherent_vector(0.5, 20), fock.coherent_vector(0.5, 20)
        assert (v == w) is False
        assert v == v
        assert len({v, w}) == 2

    def test_amplitudes_are_a_read_only_tensor_copy(self):
        tensor = np.arange(27.0).reshape(3, 3, 3)
        psi = fock.FockVector(tensor)
        assert psi.amplitudes.shape == (3, 3, 3)
        assert psi.amplitudes[1, 2, 0] == 15.0  # mode 0 varies slowest
        assert (psi.dim, psi.mode_count) == (3, 3)
        assert type(psi.dim) is int and type(psi.mode_count) is int
        assert psi.amplitudes.dtype == np.complex128 and psi.amplitudes.flags.c_contiguous
        fortran = fock.FockVector(np.asfortranarray(tensor))
        assert fortran.amplitudes.flags.c_contiguous
        assert np.array_equal(fortran.amplitudes, psi.amplitudes)
        tensor[0, 0, 0] = 1.0
        assert psi.amplitudes[0, 0, 0] == 0.0
        with pytest.raises(ValueError):
            psi.amplitudes[0, 0, 0] = 1.0

    @pytest.mark.parametrize("amplitudes", [np.zeros((3, 4)), np.zeros((3, 3, 2)), np.array(1.0)])
    def test_axes_must_have_one_length(self, amplitudes):
        # a (3, 4) matrix or a 0-d scalar is no (dim,) * modes tensor
        with pytest.raises(DimensionMismatch):
            fock.FockVector(amplitudes)

    def test_mode_cap(self):
        with pytest.raises(CapacityError):
            fock.FockVector(np.zeros((2,) * 4))

    def test_dim_cap(self):
        with pytest.raises(CapacityError):
            fock.FockVector(np.zeros(1449))

    def test_no_levels(self):
        with pytest.raises(CapacityError):
            fock.FockVector(np.zeros(0))

    @pytest.mark.parametrize("amplitude", [0.0, 1e-200])  # 1e-200 squared underflows to 0
    @pytest.mark.parametrize("use", [
        lambda psi: fock.expectation(psi, fock.quad_x(psi.dim)),
        lambda psi: fock.qfi_pure(psi, fock.quad_x(psi.dim)),
        lambda psi: fock.qfi_fidelity_fd(psi, [1j], 1e-3),
    ])
    def test_a_zero_state_has_no_moments_and_no_qfi(self, use, amplitude):
        # refused by name, not a bare ZeroDivisionError or a nan
        with pytest.raises(DegenerateState, match=r"^the 1-mode state has norm\^2 = 0\.0$"):
            use(fock.FockVector(np.full(20, amplitude)))

    def test_capacity_is_checked_before_the_copy(self):
        # a zero-stride view with an over-cap shape holds one element; only its copy is 34 MB
        view = np.broadcast_to(np.complex128(0), (129,) * 3)
        with pytest.raises(CapacityError):
            fock.FockVector(view)


@pytest.mark.parametrize("request_over_cap", [
    lambda: fock.FockVector(np.zeros((2,) * 4)),
    lambda: fock.to_fock(coherent.SuperpositionState([(1.0, coherent.CoherentLabel((0.1,) * 4))])),
    lambda: fock.to_fock(coherent.make_entangled_cat(0.5, 1), dim=1449),
    lambda: fock.coherent_vector(0.5, 1449),
    lambda: fock.FockVector(np.zeros((1449,) * 2)),
    lambda: fock.FockVector(np.zeros((129,) * 3)),
    lambda: fock.FockVector(np.full((2,) * 4, np.nan)),  # capacity before finiteness
    lambda: fock.squeezed_vector(0.5, 0),
    # refused before the vector is built
    lambda: fock.coherent_vector(0.5, 0),
    lambda: fock.coherent_vector(0.5, -3),
    lambda: fock.coherent_vector(0.5, 10**6),
    lambda: fock.squeezed_vector(0.5, -3),
    lambda: fock.squeezed_vector(0.5, 10**6),
])
def test_one_capacity_rule_and_message(request_over_cap):
    with pytest.raises(CapacityError, match=r"oracle caps of 1\.\.3 modes and 2097152 entries"):
        request_over_cap()


@pytest.mark.parametrize("request_at_cap", [
    lambda: fock.coherent_vector(0.5, 1448),
    lambda: fock.FockVector(np.zeros((1448,) * 2)),
    lambda: fock.FockVector(np.zeros((128,) * 3)),
])
def test_the_entry_budget_is_inclusive(request_at_cap):
    # the largest arrays the rule accepts: 1448^2 and 128^3 entries of at most 128^3
    request_at_cap()


def _run_in_checkout(script: str, *args: str, **env_vars: str) -> None:
    """Run `script` in a new interpreter that imports catsense from this checkout."""
    src = Path(fock.__file__).resolve().parents[1]
    paths = [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths), **env_vars)
    done = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_oracle_runs_without_scipy(tmp_path):
    # the oracle is numpy alone: a fresh interpreter running qfi-check never loads scipy
    script = (
        "import sys\n"
        "from catsense.cli import main\n"
        "code = main(['qfi-check', '--modes-list', '1,2', '--alpha-list', '0.5',"
        f" '--out', {str(tmp_path / 'qfi.csv')!r}])\n"
        "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
        "assert code == 0 and not loaded, (code, loaded)\n"
    )
    _run_in_checkout(script)


def test_default_qfi_check_is_one_file_on_one_and_two_blas_threads(tmp_path):
    # every oracle norm and overlap is numpy's pairwise sum, not a threaded BLAS reduction;
    # no digest is pinned, since eigh's last bits may still follow the CPU's BLAS kernel
    script = ("import sys\nfrom catsense.cli import main\n"
              "sys.exit(main(['qfi-check', '--out', sys.argv[1]]))\n")
    for threads in ("1", "2"):
        _run_in_checkout(script, str(tmp_path / f"qfi_{threads}.csv"),
                         OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
    assert (tmp_path / "qfi_1.csv").read_bytes() == (tmp_path / "qfi_2.csv").read_bytes()
    # the default grid: the generator route within 1e-15, the fidelity route within 1e-10
    with open(tmp_path / "qfi_1.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 12
    assert max(float(row["rel_err_oracle"]) for row in rows) <= 1e-15
    assert max(float(row["rel_err_fd"]) for row in rows) <= 1e-10

"""Brute-force oracle: truncated number-basis simulation of 1 to 3 modes.

This module deliberately does everything the slow way (dense matrices in
a finite Fock basis) so the closed forms in `coherent` and `bounds` have
something independent to be checked against: 1..MAX_MODES modes and no
array past MAX_ENTRIES entries; the exact algebra covers everything beyond.

Conventions:
  * a k-mode state is its read-only (dim,) * k amplitude tensor, indexed
    [n_0, n_1, ..., n_{k-1}]; mode 0 is the slowest-varying index of its
    C-order flattening, which is what consecutive `numpy.kron` calls produce.
  * an observable is one dense (dim, dim) Hermitian array O; on a k-mode
    state it stands for the collective sum O_0 + ... + O_{k-1}, as in
    `coherent`, so `quad_x(dim)` is G = sum_k X_k on any mode count.  Each
    copy acts by one contraction along its tensor axis, so no full-space
    matrix is formed.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import bounds, coherent
from .errors import (
    CapacityError,
    DegenerateState,
    DimensionMismatch,
    HermiticityError,
    StepTooSmallError,
    TruncationError,
    require_finite,
    require_int,
    require_nonnegative,
    require_real,
)

MAX_MODES = 3
MAX_ENTRIES = 128**3  # per array: the dim**modes state, or a dense (dim, dim) operator

# A cutoff is accepted when the top two levels together hold less mass than
# this; for a Poisson-tailed state that bounds the discarded mass too.
TAIL_TOL = 1e-12

# Squeezed-vacuum tails fall off geometrically (factor tanh^2 r per level
# pair), orders of magnitude slower than Poisson, so they get a looser gate;
# second moments built on a basis passing this are good to ~1e-6 and callers
# wanting better must raise dim until the gate passes a stricter tol.
SQUEEZED_TAIL_TOL = 1e-8


def _require_capacity(dim: int, mode_count: int) -> None:
    """The oracle's one capacity rule, checked before anything of that size is built."""
    if isinstance(dim, numbers.Real) and not (1 <= dim <= math.isqrt(MAX_ENTRIES)
            and 1 <= mode_count <= MAX_MODES and dim**mode_count <= MAX_ENTRIES):
        raise CapacityError(f"{mode_count} modes of {dim} levels exceed the oracle caps "
                            f"of 1..{MAX_MODES} modes and {MAX_ENTRIES} entries per array")
    require_int("dim", dim)  # after the caps, so a float need past 2^53 stays a CapacityError


def recommended_dim(alpha_max: float) -> int | float:
    """Cutoff that keeps the Poisson tail of |alpha| << alpha_max far below TAIL_TOL.

    Mean alpha^2 plus eight standard-deviation-ish units plus a flat floor;
    generous on purpose, the oracle is not performance critical.  A need
    past 2^53, where doubles stop counting whole levels, stays that float
    (`math.inf` once the square overflows), far past every cap.
    """
    a = abs(alpha_max)
    need = a * a + 8.0 * a + 20.0
    return math.ceil(need) if need < 2.0**53 else need


@dataclass(frozen=True, eq=False)
class FockVector:
    """A state as its read-only (dim,)*mode_count amplitude tensor; equal only to itself.

    The constructor copies a (dim,)*mode_count tensor of finite amplitudes and reads dim and
    mode_count from its shape.
    """

    amplitudes: np.ndarray
    dim: int
    mode_count: int

    def __init__(self, amplitudes: np.ndarray) -> None:
        shape = np.shape(amplitudes)
        if len(set(shape)) != 1:
            raise DimensionMismatch(f"amplitudes of shape {shape} are no (dim,)*modes tensor")
        _require_capacity(shape[0], len(shape))
        amps = np.array(amplitudes, dtype=np.complex128, order="C")
        require_finite("amplitude", amps)
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "dim", shape[0])
        object.__setattr__(self, "mode_count", len(shape))


def _inner(a: np.ndarray, b: np.ndarray) -> complex:
    """<a|b> by numpy's pairwise sum, not BLAS: the same bits on any thread count.

    <a|a> is the sum of the squares of a's real and imaginary parts.
    """
    if a is b:
        x = np.ravel(a, order="K").view(np.float64)
        return complex(np.sum(x * x))
    return complex(np.sum(np.conjugate(a) * b))


def _norm_squared(state: FockVector) -> float:
    """<psi|psi>, refused by name when it is zero: a zero vector has no moments and no QFI."""
    nrm2 = _inner(state.amplitudes, state.amplitudes).real
    if not nrm2 > 0.0:
        raise DegenerateState(f"the {state.mode_count}-mode state has norm^2 = {nrm2}")
    return nrm2


def _top_mass(amps: np.ndarray, axis: int = 0) -> float:
    """The mass in the top two levels of one tensor axis."""
    return float(np.sum(np.abs(np.moveaxis(amps, axis, 0)[-2:]) ** 2))


def _check_tail(amps: np.ndarray, what: str, tol: float = TAIL_TOL) -> None:
    tail = _top_mass(amps)
    if not tail < tol:  # a NaN tail fails too
        raise TruncationError(
            f"{what}: mass {tail:.3e} in the top two levels, cutoff too small"
        )


def _require_amplitude(fn: str, name: str, z: complex) -> tuple[complex, float]:
    """The oracle's one amplitude rule: z finite and |z|^2 a double; returns z and |z|^2."""
    z = complex(require_finite(name, z))
    if not abs(z) < 2.0**512:  # (2^512)^2 = 2^1024, one past the largest double
        raise TruncationError(f"{fn}({name}={z}): |{name}|^2 overflows, past every cutoff")
    return z, abs(z) ** 2


def coherent_vector(alpha: complex, dim: int) -> FockVector:
    """|alpha> truncated to dim levels and renormalized.

    Coefficients exp(-|alpha|^2/2) alpha^n / sqrt(n!): one cumulative product of
    [exp(-|alpha|^2/2), alpha/sqrt(1), ..., alpha/sqrt(dim-1)], the Gaussian factor first so
    that every partial product is an amplitude (at most 1) and cannot overflow.  Raises
    TruncationError when the top of the basis still holds mass, instead of silently clipping,
    or when |alpha|^2 overflows; a NaN or infinite alpha is a ValueError (`_require_amplitude`).
    """
    _require_capacity(dim, 1)
    a, mean = _require_amplitude("coherent_vector", "alpha", alpha)
    c = np.cumprod(np.concatenate(([math.exp(-0.5 * mean)], a / np.sqrt(np.arange(1, dim)))))
    if dim >= 2:
        _check_tail(c, f"coherent_vector(alpha={a})")
    nrm = math.sqrt(_inner(c, c).real)
    if not abs(nrm - 1.0) <= 1e-9:
        raise TruncationError(f"coherent_vector norm {nrm} too far from 1")
    return FockVector(c / nrm)


def squeezed_vector(r: float, dim: int) -> FockVector:
    """Momentum-squeezed vacuum: Var(Y) = exp(-2r), Var(X) = exp(+2r).

    Only even levels are populated, c_{2m} = tanh(r)^m sqrt((2m)!) / (2^m m!) / sqrt(cosh r):
    one cumulative product of [1/sqrt(cosh r), tanh(r) sqrt(1/2), tanh(r) sqrt(3/4), ...].
    The sign convention (positive tanh) is what squeezes Y = -i(a - a*);
    flipping it would squeeze X instead.
    """
    _require_capacity(dim, 1)
    rr = float(require_nonnegative("r", r))
    # sinh(r) overflows past r ~ 710.5, where the need is already infinite
    need = recommended_dim(math.sinh(min(rr, 710.0)))
    if dim < need:
        raise TruncationError(f"dim {dim} < {need} required for r = {rr}")
    c = np.zeros(dim, dtype=np.complex128)
    ratios = math.tanh(rr) * np.sqrt(np.arange(1, dim - 1, 2) / np.arange(2, dim, 2))
    c[::2] = np.cumprod(np.concatenate(([1.0 / math.sqrt(math.cosh(rr))], ratios)))
    _check_tail(c, f"squeezed_vector(r={rr})", SQUEEZED_TAIL_TOL)
    return FockVector(c / math.sqrt(_inner(c, c).real))


def to_fock(s: coherent.SuperpositionState, dim: int | None = None) -> FockVector:
    """Expand a coherent-label superposition in the truncated number basis.

    Keeps the exact norm of `s` (no renormalization), so overlap checks
    against the closed forms are apples to apples.  The cutoff defaults to
    `recommended_dim` of the largest label component.
    """
    if dim is None:
        dim = recommended_dim(float(np.max(np.abs(s.labels))))
    _require_capacity(dim, s.mode_count)
    total = np.zeros((dim,) * s.mode_count, dtype=np.complex128)
    for coeff, label in zip(s.coeffs, s.labels):
        columns = [coherent_vector(a, dim).amplitudes for a in label]
        total += coeff * functools.reduce(np.multiply.outer, columns)
    state = FockVector(total)
    nrm = math.sqrt(_inner(total, total).real)
    exact = math.sqrt(coherent.norm_squared(s))
    if abs(nrm - exact) > 1e-10 * max(exact, 1.0):
        raise TruncationError(f"truncated norm {nrm} vs exact {exact}, cutoff too small")
    return state


def annihilation(dim: int) -> np.ndarray:
    """a with a[n-1, n] = sqrt(n)."""
    return np.diag(np.sqrt(np.arange(1, dim, dtype=np.float64)), k=1).astype(np.complex128)


def number_operator(dim: int) -> np.ndarray:
    return np.diag(np.arange(dim, dtype=np.float64)).astype(np.complex128)


def quad_x(dim: int) -> np.ndarray:
    """X = a + a*."""
    a = annihilation(dim)
    return a + a.conj().T


def quad_y(dim: int) -> np.ndarray:
    """Y = -i (a - a*)."""
    a = annihilation(dim)
    return -1j * (a - a.conj().T)


def displacement_matrix(beta: complex, dim: int) -> np.ndarray:
    """exp(beta a* - conj(beta) a) on the truncated basis.

    Computed as exp(-i H) with the Hermitian H = i(beta a* - conj(beta) a)
    through its eigendecomposition, so the result is unitary to roundoff
    (a Taylor series on a truncated a would not be).  A NaN or infinite beta is a
    ValueError and one whose |beta|^2 overflows a TruncationError, both raised before
    anything is built (`_require_amplitude`, the rule of `coherent_vector`'s alpha).
    """
    b = _require_amplitude("displacement_matrix", "beta", beta)[0]
    a = annihilation(dim)
    h = 1j * (b * a.conj().T - b.conjugate() * a)
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w)) @ v.conj().T


def _contract(mat: np.ndarray, tens: np.ndarray, k: int) -> np.ndarray:
    """mat applied to axis k of an amplitude tensor: how any single-mode matrix acts."""
    return np.moveaxis(np.tensordot(mat, tens, axes=([1], [k])), 0, k)


def displace_fock(state: FockVector, betas: Sequence[complex]) -> FockVector:
    """Apply per-mode displacements without forming the full-space matrix.

    Each D(beta_k) is a dim x dim dense matrix contracted along axis k of
    the amplitude tensor; memory stays at one state vector.  Each distinct
    amplitude builds its matrix once, and D(0) = I is skipped.  Raises
    TruncationError when a kick adds TAIL_TOL or more to the mass in the top
    two levels of its mode: the truncated D(beta) would clip that mass, and
    the result would be renormalized with its photon number quietly wrong.
    """
    kicks = require_finite("kick", [complex(b) for b in betas]).tolist()
    if len(kicks) != state.mode_count:
        raise DimensionMismatch(f"{len(kicks)} kicks for a {state.mode_count}-mode state")
    matrices = {b: displacement_matrix(b, state.dim) for b in set(kicks) - {0j}}
    tens = state.amplitudes
    for k, b in enumerate(kicks):
        if b in matrices:
            before = _top_mass(tens, k)
            tens = _contract(matrices[b], tens, k)
            added = _top_mass(tens, k) - before
            if not added < TAIL_TOL:
                raise TruncationError(f"displace_fock: the kick {b} on mode {k} adds mass "
                                      f"{added:.3e} to its top two levels, cutoff too small")
    return FockVector(tens)


def _moment(state: FockVector, op: np.ndarray) -> tuple[np.ndarray, np.ndarray, float, float]:
    """psi, O psi, <O> and ||psi||^2 for the collective sum O = sum_k O_k, O Hermitian."""
    op = np.asarray(op)
    if op.shape != (state.dim, state.dim):
        raise DimensionMismatch(f"operator has shape {op.shape}, dim is {state.dim}")
    worst = float(np.max(np.abs(op - op.conj().T)))
    if not worst <= 1e-10:  # a NaN entry fails too
        raise HermiticityError(f"operator deviates from Hermitian by {worst:.3e}")
    psi = state.amplitudes
    opsi = sum(_contract(op, psi, k) for k in range(state.mode_count))
    nrm2 = _norm_squared(state)
    m = require_real("Hermitian expectation", _inner(psi, opsi) / nrm2)
    return psi, opsi, m, nrm2


def expectation(state: FockVector, op: np.ndarray) -> float:
    """<psi|O|psi> / <psi|psi> for the collective sum O of a Hermitian (dim, dim) op."""
    return _moment(state, op)[2]


def variance(state: FockVector, op: np.ndarray) -> float:
    """Var(O) = ||(O - m) psi||^2 / ||psi||^2, m = <O>: never cancels against m^2."""
    psi, opsi, m, nrm2 = _moment(state, op)
    dev = opsi - m * psi
    return _inner(dev, dev).real / nrm2


def qfi_pure(state: FockVector, generator: np.ndarray) -> float:
    """Quantum Fisher information of a pure state under exp(i eps G): 4 Var(G)."""
    return 4.0 * variance(state, generator)


def qfi_fidelity_fd(state: FockVector, kicks: Sequence[complex], step: float) -> float:
    """QFI at eps = 0 of eps -> D(eps * kicks)|state> from the fidelity curvature.

    No generator is needed: kicks[k] is mode k's displacement per unit eps.
    For pure states F(0, d) = 1 - (d^2/8) QFI + O(d^4), so
        q(d) = 8 (1 - F) / d^2
    converges quadratically and one Richardson step, (4 q(d/2) - q(d)) / 3,
    removes the leading error term.  The deficit is taken as
        1 - F = |e^{-i phi} b - a|^2 / (2 |a|^2),   phi = arg <a|b>  (0 when <a|b> = 0),
    a being the base state and b = D(d * kicks) a, which has a's norm since the
    truncated D is unitary.  The form 1 - |<a|b>| / |a|^2 loses half its digits to
    cancellation (about 1e-9 relative at the default step); in this one a relative
    error e in the norm of b moves the deficit by e relative and e^2 / 2 absolute,
    so it needs no normalization of b.  When the deficit sinks toward
    double-precision roundoff the quotient is garbage; that is reported as
    StepTooSmallError rather than returned.  A zero state is a DegenerateState.
    """
    kicks = require_finite("kick", [complex(k) for k in kicks]).tolist()
    require_nonnegative("step", step, strict=True)
    if not any(kicks):  # no step resolves a family that does not move
        raise ValueError(f"kicks must have a nonzero entry, got {kicks}")
    base = state.amplitudes
    nrm2 = _norm_squared(state)

    def quotient(d: float) -> float:
        other = displace_fock(state, [k * d for k in kicks]).amplitudes
        z = _inner(base, other)
        diff = other * (z.conjugate() / abs(z) if z else 1.0) - base  # e^{-i phi} b - a
        df = 0.5 * _inner(diff, diff).real / nrm2
        if df < 1e-13:
            raise StepTooSmallError(
                f"fidelity deficit {df:.3e} at step {d:.3e} is below the roundoff floor"
            )
        return 8.0 * df / (d * d)

    q1 = quotient(step)
    q2 = quotient(step / 2.0)
    return float((4.0 * q2 - q1) / 3.0)


def cat_qfi_check(
    modes_list: Sequence[int], alpha_list: Sequence[float], fd_step: float
) -> dict[str, np.ndarray]:
    """Cross-check the closed-form entangled-cat QFI against the oracle.

    Closed form: 4 Var(G) = 4 N (1 + 4 N a^2 / (1 + e^{-2 N a^2})).  The
    oracle computes the same number twice, from the generator variance of
    the truncated state (`qfi_pure`) and from the fidelity curvature under
    the actual displacement family (`qfi_fidelity_fd`).  One row per
    (modes, alpha) case, modes varying slowest; returns the columns modes,
    alpha, dim, qfi_closed_form, qfi_oracle, qfi_fd and the relative errors
    of the two oracle routes, rel_err_oracle and rel_err_fd.
    """
    rows = [_cat_qfi_case(n, float(a), fd_step) for n in modes_list for a in alpha_list]
    columns = [np.array(c) for c in zip(*rows)] if rows else [np.array([])] * 6
    modes, alpha, dim, closed, oracle, fd = columns
    return {"modes": modes, "alpha": alpha, "dim": dim, "qfi_closed_form": closed,
            "qfi_oracle": oracle, "qfi_fd": fd, "rel_err_oracle": abs(oracle - closed) / closed,
            "rel_err_fd": abs(fd - closed) / closed}


def _cat_qfi_case(n_modes: int, alpha: float, fd_step: float) -> tuple:
    """modes, alpha, dim and the closed-form, generator and fidelity QFI of one cat."""
    closed = 4.0 * bounds.entangled_cat_generator_variance(alpha, n_modes)
    state = to_fock(coherent.make_entangled_cat(alpha, n_modes))
    oracle = qfi_pure(state, quad_x(state.dim))
    fd = qfi_fidelity_fd(state, [1j] * n_modes, fd_step)
    return n_modes, alpha, state.dim, closed, oracle, fd

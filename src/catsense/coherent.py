"""Exact algebra for finite superpositions of multimode coherent states.

A state sum_i c_i |L_i> is a coefficient vector c (T terms) and a label
matrix L (T x M), one row of complex amplitudes per term.  Overlaps,
displacements and low-order moments of such states have closed forms, so
nothing in this module touches a Fock-space cutoff; results are exact up to
floating point.  Every quantity is a weighted sum over one Gram matrix
W_ij = conj(c_i) d_j <L_i|K_j>, and moments are taken about their mean.

Quadrature convention, fixed package-wide:

    X = a + a*        Y = -i (a - a*)        Var_vacuum(X) = Var_vacuum(Y) = 1

(``a*`` denotes the creation operator.)  A weak classical force acting for a
fixed time kicks every mode by the same imaginary displacement i*eps, which
is generated by X summed over modes.  That collective sum is the generator
evaluated by `expect_generator` and `variance_generator`; its variance is
what separates one probe family from another.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    TOL_HERM,
    ConsistencyError,
    DegenerateState,
    DimensionMismatch,
    require_finite,
    require_int,
    require_nonnegative,
    require_real,
)

# Labels closer than this (per component, absolute) are the same physical
# amplitude and get merged; keeps norms well conditioned.
TOL_LABEL = 1e-12

ComplexLike = complex | float | int


@dataclass(frozen=True)
class CoherentLabel:
    """Amplitude tuple of a multimode coherent state |g_0, g_1, ...>."""

    amplitudes: tuple[complex, ...]

    def __init__(self, amplitudes: Sequence[ComplexLike]) -> None:
        amps = tuple(complex(a) for a in amplitudes)
        if not amps:
            raise DimensionMismatch("a coherent label needs at least one mode")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def mode_count(self) -> int:
        return len(self.amplitudes)


@dataclass(frozen=True, init=False, eq=False)
class SuperpositionState:
    """Finite sum  sum_i c_i |L_i>,  not necessarily normalized.

    `coeffs` (T,) and `labels` (T, M) are read-only complex arrays.  A label
    within `TOL_LABEL` per component of an earlier one merges into it
    (coefficients add), chains included, so the stored labels are pairwise
    more than `TOL_LABEL` apart in some component, in order of first
    appearance.  The state may still be a numerical null vector; that is
    only rejected where a moment would divide by the norm.
    """

    coeffs: np.ndarray
    labels: np.ndarray

    def __init__(self, terms: Sequence[tuple[ComplexLike, CoherentLabel]]) -> None:
        if not terms:
            raise ValueError("state needs at least one term")
        coeffs, labels = zip(*terms)
        if len({label.mode_count for label in labels}) > 1:
            raise DimensionMismatch("mixed mode counts in one state")
        amps = np.array([label.amplitudes for label in labels], dtype=np.complex128)
        self._store(np.asarray(coeffs, dtype=np.complex128), amps)

    def _store(self, coeffs: np.ndarray, labels: np.ndarray) -> None:
        require_finite("label amplitude", labels)
        require_finite("coefficient", coeffs)
        with np.errstate(over="ignore"):  # a difference past the double range is inf: not close
            close = np.all(np.abs(labels[:, None, :] - labels[None, :, :]) <= TOL_LABEL, axis=2)
        root = np.argmax(close, axis=0)  # each label's first close label, itself or earlier
        while np.any(root[root] != root):  # follow chains; every pointer points back, so this ends
            root = root[root]
        keep, group = np.unique(root, return_inverse=True)
        merged = np.zeros(len(keep), dtype=np.complex128)
        with np.errstate(over="ignore", invalid="ignore"):  # a sum past the double range is inf
            np.add.at(merged, group, coeffs)
        require_finite("merged coefficient", merged)
        for name, value in (("coeffs", merged), ("labels", labels[keep])):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def mode_count(self) -> int:
        return self.labels.shape[1]

    def __len__(self) -> int:
        return len(self.coeffs)


def _gram(s: SuperpositionState, t: SuperpositionState) -> tuple[np.ndarray, complex]:
    """W_ij = conj(c_i) d_j <L_i|K_j> for s = sum c_i |L_i> and t = sum d_j |K_j>, and <s|t>.

    With D = L_i - K_j and P = L_i / 2 + K_j / 2, log <L_i|K_j> is written
    sum_k -|D_k|^2 / 2 - i Im(conj(P_k) D_k): it does not cancel for large, close labels, and
    swapping the labels conjugates it exactly, so W of a state with itself is Hermitian to the
    last bit.  Each W_ij and <s|t> is a double or ValueError: a pair of magnitude 0 is 0 whatever
    its phase or coefficients; any other whose phase or coefficient product overflows is refused.
    """
    if s.mode_count != t.mode_count:
        raise DimensionMismatch(f"overlap of {s.mode_count}- and {t.mode_count}-mode states")
    bra, ket = s.labels[:, None, :], t.labels[None, :, :]
    with np.errstate(over="ignore", invalid="ignore"):  # the sum <s|t> reads every inf and NaN
        diff, mid = bra - ket, 0.5 * bra + 0.5 * ket  # a midpoint of doubles is a double
        log = np.empty(diff.shape, np.complex128)  # set by parts: 1j * inf has a NaN real part
        log.real, log.imag = -0.5 * (diff.real**2 + diff.imag**2), 0.0 - (mid.conj() * diff).imag
        z = np.sum(log, axis=2)
        w = s.coeffs.conj()[:, None] * t.coeffs[None, :] * np.exp(z)
        if not cmath.isfinite(total := complex(np.sum(w))):  # a pair of magnitude 0 is 0
            w[~np.isfinite(w) & (np.exp(z.real) == 0)] = 0.0
            if not cmath.isfinite(total := complex(np.sum(w))):
                raise ValueError("<s|t> = sum_ij conj(c_i) d_j <L_i|K_j> is past the double range")
    return w, total


def overlap(a: CoherentLabel, b: CoherentLabel) -> complex:
    """<a|b> = exp( sum_k  -|a_k|^2/2 - |b_k|^2/2 + conj(a_k) b_k )."""
    return inner(SuperpositionState([(1.0, a)]), SuperpositionState([(1.0, b)]))


def inner(s: SuperpositionState, t: SuperpositionState) -> complex:
    """<s|t> expanded over all label pairs."""
    return _gram(s, t)[1]


def _positive_norm(s: SuperpositionState, v: complex) -> float:
    """v = <s|s> as a float, or DegenerateState if it is not safely positive."""
    n2 = require_real("norm^2", v)
    # Relative floor: coefficients of unit size with norm^2 ~ 1e-12 mean the
    # labels nearly cancel and any moment would amplify roundoff.
    with np.errstate(over="ignore"):  # squares summing past the double range: an inf floor refuses
        floor = 1e-12 * max(float(np.sum(np.abs(s.coeffs) ** 2)), 1e-300)
    if n2 <= floor:
        raise DegenerateState(f"norm^2 = {n2} is not safely positive")
    return n2


def norm_squared(s: SuperpositionState) -> float:
    """<s|s> as a float.  Raises DegenerateState if it is not safely positive."""
    return _positive_norm(s, inner(s, s))


def make_entangled_cat(alpha: float, n_modes: int) -> SuperpositionState:
    """( |alpha,...,alpha> + |-alpha,...,-alpha> ) / sqrt(2), over n_modes modes.

    Unnormalized by construction: norm^2 = 1 + exp(-2 n_modes alpha^2).
    alpha = 0 collapses to a single vacuum term with coefficient sqrt(2).
    """
    n_modes = require_int("n_modes", n_modes)
    a = float(require_nonnegative("alpha", alpha))
    c = 1.0 / math.sqrt(2.0)
    plus = CoherentLabel((a,) * n_modes)
    minus = CoherentLabel((-a,) * n_modes)
    return SuperpositionState([(c, plus), (c, minus)])


def displace(s: SuperpositionState, betas: Sequence[ComplexLike]) -> SuperpositionState:
    """Apply the product of per-mode displacements D(beta_k) to every term.

    On a single label the rule is
        D(beta)|g> = exp(i Im(beta conj(g))) |g + beta>,
    which follows from splitting exp(beta a* - conj(beta) a) with the BCH
    identity for operators whose commutator is a scalar.

    The stored label h = fl(g + beta) misses g + beta by err (exact, from
    TwoSum).  <g + beta|h> has phase Im(err conj(g + beta)) to first order,
    so that phase joins the coefficient, or the overlaps of displaced terms
    would be off in phase by about |beta| ulp(beta).
    """
    kicks = require_finite("kick", [complex(b) for b in betas])
    if kicks.shape != (s.mode_count,):
        raise DimensionMismatch(f"{len(kicks)} kicks for a {s.mode_count}-mode state")
    # a label or phase past the double range is refused below; an unused real part may overflow
    with np.errstate(over="ignore", invalid="ignore"):
        moved = s.labels + kicks
        part = moved - s.labels
        err = (s.labels - (moved - part)) + (kicks - part)  # TwoSum
        phase = np.sum((kicks * s.labels.conj()).imag + (err * moved.conj()).imag, axis=1)
        coeffs = s.coeffs * np.exp(1j * phase)  # one past the double range is refused by _store
    require_finite("displaced label amplitude", moved)
    require_finite("displacement phase Im(beta conj(g))", phase)
    out = object.__new__(SuperpositionState)  # arrays in hand, no term list to convert
    out._store(coeffs, moved)
    return out


def _weights(s: SuperpositionState) -> np.ndarray:
    """W / <s|s>: the Gram matrix of s as weights, so <O> = sum_ij W_ij O_ij."""
    w, total = _gram(s, s)
    return w / _positive_norm(s, total)


def _moment(name: str, z: complex, mean: bool = False) -> float:
    """Moment `name` from its sum z: finite, real and, unless a mean, >= 0 (within TOL_HERM)."""
    if not cmath.isfinite(z):
        raise ValueError(f"{name} of the state is past the largest double")
    if (x := require_real(name, complex(z))) < -TOL_HERM and not mean:
        raise ConsistencyError(f"{name} = {x} < 0 beyond tolerance")
    return x if mean else max(x, 0.0)


def _generator_element(s: SuperpositionState) -> np.ndarray:
    # a_k|g> = g_k|g> and <b|a_k* = <b|conj(b_k), so the collective X picks
    # up ket amplitudes from annihilators and conjugate bra amplitudes from
    # creators:
    #     <b| sum_k (a_k + a_k*) |g> = (sum_k g_k + sum_k conj(b_k)) <b|g>
    u = np.sum(s.labels, axis=1)
    return u[None, :] + u.conj()[:, None]


def expect_generator(s: SuperpositionState) -> float:
    """Mean of the collective quadrature  G = sum_k (a_k + a_k*)."""
    with np.errstate(over="ignore", invalid="ignore"):  # the moment gate reads every inf and NaN
        return _moment("<G>", np.sum(_weights(s) * _generator_element(s)), mean=True)


def variance_generator(s: SuperpositionState) -> float:
    """Variance of the collective quadrature G, as the central moment <(G - m)^2>.

    Second moment: expand G^2 and normal-order.  Each cross term a_k a_l*
    with k = l contributes one commutator [a_k, a_k*] = 1, so with M modes
        G^2 = sum_{k,l} ( a_k a_l + a_k* a_l* + a_k* a_l + a_l* a_k )  +  M.
    Every normal-ordered word is diagonal in the labels, giving
        <b|G^2|g> = ( e1^2 + M ) <b|g>,   e1 = sum_k g_k + sum_k conj(b_k),
    and with m = <G> the element of (G - m)^2 is (e1 - m)^2 + M, which
    never cancels against m^2 however far the state sits from the origin.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        w, e1 = _weights(s), _generator_element(s)
        m = _moment("<G>", np.sum(w * e1), mean=True)
        return _moment("Var(G)", np.sum(w * ((e1 - m) ** 2 + s.mode_count)))


def mean_photon_number(s: SuperpositionState) -> float:
    """Mean of  sum_k a_k* a_k,  total photon number over all modes.

    Taken as |mu|^2 + <(a - mu)* . (a - mu)> with mu_k = <a_k>, whose
    label-pair element is conj(L_i - mu) . (L_j - mu).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        w = _weights(s)
        dev = s.labels - (mu := np.sum(w, axis=0) @ s.labels)
        return _moment("<n>", np.sum(np.abs(mu) ** 2) + np.sum(w * (dev.conj() @ dev.T)))

"""Closed-form minimum-detectable-displacement bounds per probe family.

All bounds answer the same question: a weak force kicks every mode of the
probe by i*eps; how small can eps be and still poke above the measurement
noise after one shot?  The convention used throughout is

    eps_min = 1 / sqrt(Var(G)),      G = sum_k (a_k + a_k*),

i.e. the displacement that moves the signal by one standard deviation of
the generator.  Pure-state quantum Fisher information is 4 Var(G), so the
single-shot quantum Cramer-Rao limit sits a factor 2 below each of these
numbers; the `qfi` field of BoundResult carries 1 / eps_min^2 = Var(G) for
consistency with the printed bound, and the oracle bridge in the test
suite converts explicitly where the 4x convention is needed.

Baselines:
    vacuum / coherent probe      eps_min = 1/2
    squeezed vacuum (n_tot)      eps_min = 1 / sqrt(4 n_tot)
    single-mode cat              eps_min = 1 / sqrt(1 + 4 n_tot)
    N separable single cats      eps_min = 1 / sqrt(N + 4 n_tot)
    N-mode entangled cat         eps_min = 1 / sqrt(N (1 + 4 N a^2 / (1 + e^{-2 N a^2})))

The coherent baseline keeps its historical normalization eps_min = 1/2
(signal-to-noise 2 eps = 1); the cat-family rows use the variance rule
above.  Both conventions are exercised against the Fock oracle in the
tests, with the factor bookkeeping spelled out there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import ConsistencyError


class FamilyKind(str, Enum):
    COHERENT_SQL = "sql"
    SQUEEZED = "squeezed"
    SINGLE_CAT = "single-cat"
    SEPARABLE_CATS = "separable-cats"
    ENTANGLED_CAT = "entangled-cat"


@dataclass(frozen=True)
class ProbeFamily:
    """A bound family plus the mode/copy count where that is meaningful."""

    kind: FamilyKind
    n_modes: int = 1

    def __post_init__(self) -> None:
        if self.n_modes < 1:
            raise ValueError(f"n_modes must be >= 1, got {self.n_modes}")
        if self.kind in (FamilyKind.COHERENT_SQL, FamilyKind.SQUEEZED, FamilyKind.SINGLE_CAT):
            if self.n_modes != 1:
                raise ValueError(f"{self.kind.value} is a single-mode family")


@dataclass(frozen=True)
class BoundResult:
    """One point of a bound curve.

    alpha is the per-mode cat amplitude that realizes the stated n_tot
    (NaN for families without a cat amplitude); qfi = 1 / eps_min^2.
    """

    family: ProbeFamily
    n_tot: float
    alpha: float
    eps_min: float
    qfi: float


def _exp_neg(x: float) -> float:
    # exp(-x) underflows for x > ~745; the bounds only ever need x >= 0 and
    # the correct limit is 0, so clamp instead of raising
    if x > 700.0:
        return 0.0
    return math.exp(-x)


def _require_positive(name: str, value: float) -> float:
    v = float(value)
    if not math.isfinite(v) or v <= 0.0:
        raise ValueError(f"{name} must be finite and > 0, got {value}")
    return v


def eps_min_sql() -> float:
    """Coherent-probe floor: no amount of coherent amplitude moves it."""
    return 0.5


def eps_min_squeezed(n_tot: float) -> float:
    """Squeezed-vacuum bound 1/sqrt(4 n_tot) with n_tot = sinh^2 r photons."""
    n = _require_positive("n_tot", n_tot)
    return 1.0 / math.sqrt(4.0 * n)


def eps_min_squeezed_exact(r: float) -> float:
    """exp(-r)/2: the noise-limited displacement of a Y-squeezed probe.

    Equals half the standard deviation of the squeezed quadrature, and
    matches 1/sqrt(QFI) of the same probe computed in the Fock oracle.
    The large-r photon-counting form `eps_min_squeezed` sits a factor 2
    above this; both are kept because each matches a different published
    normalization, and the relation is pinned down in the tests.
    """
    rr = float(r)
    if not math.isfinite(rr) or rr < 0.0:
        raise ValueError(f"r must be finite and >= 0, got {r}")
    return 0.5 * math.exp(-rr)


def single_cat_generator_variance(alpha: float) -> float:
    """Var(G) of (|a> + |-a>)/norm in one mode: 1 + 4 a^2 / (1 + e^{-2 a^2})."""
    return entangled_cat_generator_variance(alpha, 1)


def entangled_cat_generator_variance(alpha: float, n_modes: int) -> float:
    """Var(G) of the n-mode entangled cat: N (1 + 4 N a^2 / (1 + e^{-2 N a^2})).

    Same shape as one cat at effective amplitude sqrt(N) a, times N: only
    the symmetric collective mode is super-Poissonian, the other N - 1
    orthogonal combinations each contribute vacuum variance 1.
    """
    if n_modes < 1:
        raise ValueError(f"n_modes must be >= 1, got {n_modes}")
    a = float(alpha)
    if a < 0.0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    u = n_modes * a * a
    return n_modes * (1.0 + 4.0 * u / (1.0 + _exp_neg(2.0 * u)))


def entangled_cat_ntot(alpha: float, n_modes: int) -> float:
    """Total photon number of the n-mode cat: u tanh(u) with u = N a^2."""
    if n_modes < 1:
        raise ValueError(f"n_modes must be >= 1, got {n_modes}")
    a = float(alpha)
    if a < 0.0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    u = n_modes * a * a
    return u * math.tanh(u)


def eps_min_single_cat(n_tot: float) -> float:
    """Single-cat bound 1/sqrt(1 + 4 n_tot), with n_tot standing in for a^2.

    Exact only for a^2 >> 1 where the cat's photon number approaches a^2;
    at small n_tot it deviates from the oracle at the percent level, which
    the tests document rather than hide.
    """
    n = _require_positive("n_tot", n_tot)
    return 1.0 / math.sqrt(1.0 + 4.0 * n)


def eps_min_separable_cats(n_tot: float, n_copies: int) -> float:
    """N independent single-mode cats sharing n_tot photons: 1/sqrt(N + 4 n_tot)."""
    if n_copies < 1:
        raise ValueError(f"n_copies must be >= 1, got {n_copies}")
    n = _require_positive("n_tot", n_tot)
    return 1.0 / math.sqrt(n_copies + 4.0 * n)


def eps_min_entangled_cat(alpha: float, n_modes: int) -> BoundResult:
    """Bound of the N-mode entangled cat at per-mode amplitude alpha."""
    var = entangled_cat_generator_variance(alpha, n_modes)
    if var <= 0.0:
        raise ConsistencyError(f"generator variance {var} <= 0")
    eps = 1.0 / math.sqrt(var)
    return BoundResult(
        family=ProbeFamily(FamilyKind.ENTANGLED_CAT, n_modes),
        n_tot=entangled_cat_ntot(alpha, n_modes),
        alpha=float(alpha),
        eps_min=eps,
        qfi=var,
    )


def invert_ntot(n_tot: float, n_modes: int) -> float:
    """Per-mode amplitude alpha such that the N-mode cat holds n_tot photons.

    Solves u tanh(u) = n_tot for u = N alpha^2.  The left side is strictly
    increasing in alpha, so the root is unique; it always lies inside
    alpha in [0, sqrt(n_tot / N) + 1], since at the upper end
    u = n_tot + 2 sqrt(N n_tot) + N and u tanh(u) >= n_tot there for every
    n_tot > 0 (tanh(u) >= tanh(1) ~ 0.76 already covers small n_tot, and
    the 2 sqrt(...) + N surplus covers the tanh deficit at large n_tot).
    Plain bisection, capped at 200 halvings: immune to the flat tanh
    saturation that trips Newton steps, and the bracket collapses to one
    double-precision ulp long before the cap.
    """
    if n_modes < 1:
        raise ValueError(f"n_modes must be >= 1, got {n_modes}")
    n = _require_positive("n_tot", n_tot)

    def f(alpha: float) -> float:
        u = n_modes * alpha * alpha
        return u * math.tanh(u) - n

    lo, hi = 0.0, math.sqrt(n / n_modes) + 1.0
    if f(hi) < 0.0:
        raise ConsistencyError(f"bisection bracket failed at n_tot = {n}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def curve(family: ProbeFamily, n_tot_grid) -> list[BoundResult]:
    """Evaluate one family on a grid of total photon numbers."""
    out: list[BoundResult] = []
    nan = float("nan")
    for n_raw in n_tot_grid:
        n = float(n_raw)
        if family.kind is FamilyKind.COHERENT_SQL:
            if n < 0.0:
                raise ValueError(f"n_tot must be >= 0, got {n}")
            out.append(BoundResult(family, n, nan, eps_min_sql(), 1.0 / eps_min_sql() ** 2))
        elif family.kind is FamilyKind.SQUEEZED:
            e = eps_min_squeezed(n)
            out.append(BoundResult(family, n, nan, e, 1.0 / (e * e)))
        elif family.kind is FamilyKind.SINGLE_CAT:
            e = eps_min_single_cat(n)
            out.append(BoundResult(family, n, math.sqrt(n), e, 1.0 / (e * e)))
        elif family.kind is FamilyKind.SEPARABLE_CATS:
            e = eps_min_separable_cats(n, family.n_modes)
            a = math.sqrt(n / family.n_modes)
            out.append(BoundResult(family, n, a, e, 1.0 / (e * e)))
        elif family.kind is FamilyKind.ENTANGLED_CAT:
            alpha = invert_ntot(n, family.n_modes)
            res = eps_min_entangled_cat(alpha, family.n_modes)
            # keep the requested n_tot in the row; the round trip through
            # alpha reproduces it to ~1e-12 anyway
            out.append(BoundResult(family, n, alpha, res.eps_min, res.qfi))
        else:  # pragma: no cover
            raise ValueError(f"unknown family {family.kind}")
    return out

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

The closed forms and `invert_ntot` take a scalar or a float64 array and
answer in kind (a float for a scalar).  `curve` evaluates a family over a
whole grid as one BoundResult of arrays; `eps_min_entangled_cat` gives one
point with float fields.

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

import numpy as np

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
    """A bound at one point, or along a whole photon-budget grid.

    From `eps_min_entangled_cat` the fields are floats for one point; from
    `curve` n_tot, alpha, eps_min and qfi are float64 arrays aligned with the
    grid.  alpha is the per-mode cat amplitude that realizes the stated n_tot
    (NaN for families without a cat amplitude); qfi = 1 / eps_min^2.
    """

    family: ProbeFamily
    n_tot: float | np.ndarray
    alpha: float | np.ndarray
    eps_min: float | np.ndarray
    qfi: float | np.ndarray


def _out(x: np.ndarray) -> float | np.ndarray:
    """A Python float for a scalar result, the array itself otherwise."""
    return float(x) if np.ndim(x) == 0 else x


def _exp_neg(x: np.ndarray) -> np.ndarray:
    # the bounds only need x >= 0; beyond 700, exp(-x) < 1e-304 counts as its limit 0
    return np.where(x > 700.0, 0.0, np.exp(-x))


def _require_ntot(n_tot: float | np.ndarray, strict: bool = False) -> np.ndarray:
    v = np.asarray(n_tot, dtype=np.float64)
    ok = ((v > 0.0) if strict else (v >= 0.0)) & (v < np.inf)  # false for NaN too
    if not ok.all():
        raise ValueError(f"n_tot must be finite and {'>' if strict else '>='} 0, got {v[~ok][0]}")
    return v


def _cat_u(alpha: float | np.ndarray, n_modes: int) -> np.ndarray:
    """u = N alpha^2, after checking N >= 1 and 0 <= alpha < inf."""
    if n_modes < 1:
        raise ValueError(f"n_modes must be >= 1, got {n_modes}")
    a = np.asarray(alpha, dtype=np.float64)
    ok = (a >= 0.0) & (a < np.inf)  # false for NaN too
    if not ok.all():
        raise ValueError(f"alpha must be finite and >= 0, got {a[~ok][0]}")
    return n_modes * a * a


def _eps_from_variance(var: float | np.ndarray) -> float | np.ndarray:
    v = np.asarray(var)
    if (v <= 0.0).any():
        raise ConsistencyError(f"generator variance {v[v <= 0.0][0]} <= 0")
    return _out(1.0 / np.sqrt(v))


def eps_min_sql() -> float:
    """Coherent-probe floor: no amount of coherent amplitude moves it."""
    return 0.5


def eps_min_squeezed(n_tot: float | np.ndarray) -> float | np.ndarray:
    """Squeezed-vacuum bound 1/sqrt(4 n_tot) with n_tot = sinh^2 r photons."""
    n = _require_ntot(n_tot, strict=True)
    return _out(1.0 / np.sqrt(4.0 * n))


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


def single_cat_generator_variance(alpha: float | np.ndarray) -> float | np.ndarray:
    """Var(G) of (|a> + |-a>)/norm in one mode: 1 + 4 a^2 / (1 + e^{-2 a^2})."""
    return entangled_cat_generator_variance(alpha, 1)


def entangled_cat_generator_variance(alpha: float | np.ndarray, n_modes: int) -> float | np.ndarray:
    """Var(G) of the n-mode entangled cat: N (1 + 4 N a^2 / (1 + e^{-2 N a^2})).

    Same shape as one cat at effective amplitude sqrt(N) a, times N: only
    the symmetric collective mode is super-Poissonian, the other N - 1
    orthogonal combinations each contribute vacuum variance 1.
    """
    u = _cat_u(alpha, n_modes)
    return _out(n_modes * (1.0 + 4.0 * u / (1.0 + _exp_neg(2.0 * u))))


def entangled_cat_ntot(alpha: float | np.ndarray, n_modes: int) -> float | np.ndarray:
    """Total photon number of the n-mode cat: u tanh(u) with u = N a^2."""
    u = _cat_u(alpha, n_modes)
    return _out(u * np.tanh(u))


def eps_min_single_cat(n_tot: float | np.ndarray) -> float | np.ndarray:
    """Single-cat bound 1/sqrt(1 + 4 n_tot), with n_tot standing in for a^2.

    Exact only for a^2 >> 1 where the cat's photon number approaches a^2;
    at small n_tot it deviates from the oracle at the percent level, which
    the tests document rather than hide.
    """
    n = _require_ntot(n_tot)
    return _out(1.0 / np.sqrt(1.0 + 4.0 * n))


def eps_min_separable_cats(n_tot: float | np.ndarray, n_copies: int) -> float | np.ndarray:
    """N independent single-mode cats sharing n_tot photons: 1/sqrt(N + 4 n_tot)."""
    if n_copies < 1:
        raise ValueError(f"n_copies must be >= 1, got {n_copies}")
    n = _require_ntot(n_tot)
    return _out(1.0 / np.sqrt(n_copies + 4.0 * n))


def eps_min_entangled_cat(alpha: float, n_modes: int) -> BoundResult:
    """Bound of the N-mode entangled cat at per-mode amplitude alpha."""
    var = entangled_cat_generator_variance(alpha, n_modes)
    return BoundResult(
        family=ProbeFamily(FamilyKind.ENTANGLED_CAT, n_modes),
        n_tot=entangled_cat_ntot(alpha, n_modes),
        alpha=float(alpha),
        eps_min=_eps_from_variance(var),
        qfi=var,
    )


def invert_ntot(n_tot: float | np.ndarray, n_modes: int) -> float | np.ndarray:
    """Per-mode amplitude alpha such that the N-mode cat holds n_tot photons.

    Solves g(u) = u tanh(u) = n_tot for u = N alpha^2.  g is strictly
    increasing, so the root is unique, and it lies in [m, m + min(m, 1)]
    with m = max(n, sqrt n): g(u) <= min(u, u^2) gives the lower end; for
    n < 1, g(2m) >= tanh(1) min(2m, 4m^2) >= 1.52 n, and for n >= 1, u =
    m + 1 gives g(u) >= u - 2u e^{-2u} > u - 1 = n.  Newton steps (g' =
    tanh u + u sech^2 u) start at the lower end, a step that leaves the
    bracket is replaced by bisection, and an entry stops once its step or
    bracket is below one ulp of u.  Each entry takes the same path alone
    as inside an array, so scalar and array calls agree bit for bit.
    """
    if n_modes < 1:
        raise ValueError(f"n_modes must be >= 1, got {n_modes}")
    n = _require_ntot(n_tot)
    lo = np.maximum(n, np.sqrt(n))
    hi = lo + np.minimum(lo, 1.0)
    u = lo
    for _ in range(64):  # a safety cap: no n_tot in 1e-323...1e308 needs more than 6 passes
        t = np.tanh(u)
        g = u * t - n
        lo = np.where(g < 0.0, u, lo)
        hi = np.where(g > 0.0, u, hi)
        # g' > 0 except at u = 0, where n_tot = 0 and g = 0 give step 0
        step = g / np.maximum(t + u * (1.0 - t * t), np.finfo(np.float64).tiny)
        ulp = np.spacing(u)
        done = (np.abs(step) <= ulp) | (hi - lo <= ulp)
        if done.all():
            break
        new = u - step
        new = np.where((lo < new) & (new < hi), new, lo + 0.5 * (hi - lo))
        u = np.where(done, u, new)
    return _out(np.sqrt(u / n_modes))


def curve(family: ProbeFamily, n_tot_grid) -> BoundResult:
    """Evaluate one family on a whole grid of total photon numbers.

    Returns one BoundResult whose n_tot, alpha, eps_min and qfi fields are
    float64 arrays aligned with the grid.
    """
    n = np.array(n_tot_grid, dtype=np.float64)
    alpha = np.full(n.shape, np.nan)
    kind = family.kind
    if kind is FamilyKind.COHERENT_SQL:
        _require_ntot(n)
        eps = np.full(n.shape, eps_min_sql())
    elif kind is FamilyKind.SQUEEZED:
        eps = eps_min_squeezed(n)
    elif kind is FamilyKind.SINGLE_CAT:
        eps = eps_min_single_cat(n)
        alpha = np.sqrt(n)
    elif kind is FamilyKind.SEPARABLE_CATS:
        eps = eps_min_separable_cats(n, family.n_modes)
        alpha = np.sqrt(n / family.n_modes)
    elif kind is FamilyKind.ENTANGLED_CAT:
        # n_tot stays the requested grid; the round trip through alpha gives it to ~1e-15
        alpha = invert_ntot(n, family.n_modes)
        var = entangled_cat_generator_variance(alpha, family.n_modes)
        return BoundResult(family, n, alpha, _eps_from_variance(var), var)
    else:  # pragma: no cover
        raise ValueError(f"unknown family {kind}")
    return BoundResult(family, n, alpha, eps, 1.0 / (eps * eps))

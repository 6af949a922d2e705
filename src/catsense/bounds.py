"""Closed-form minimum-detectable-displacement bounds per probe family.

All bounds answer the same question: a weak force kicks every mode of the
probe by i*eps; how small can eps be and still poke above the measurement
noise after one shot?  The convention used throughout is

    eps_min = 1 / sqrt(Var(G)),      G = sum_k (a_k + a_k*),

i.e. the displacement that moves the signal by one standard deviation of
the generator.  Pure-state quantum Fisher information is 4 Var(G), so the
single-shot quantum Cramer-Rao limit sits a factor 2 below each of these
numbers; the `qfi` column of `bounds_table` carries Var(G) itself (4 on
the coherent row, its 1 / eps_min^2), and the oracle bridge in the test
suite converts explicitly where the 4x convention is needed.

`curve` is the one evaluator of a family at a photon budget: it evaluates
the family over a whole grid as four float64 arrays (n_tot, alpha, eps_min,
Var(G)) and is the one place each family's Var(G) is stated.  The cat
forms in the amplitude alpha and `invert_ntot` take a scalar or a float64
array and answer in kind (a float for a scalar).  `bounds_table` and
`figure1_table` are the `catsense bounds` and `catsense figure1` tables.

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
from enum import Enum

import numpy as np

from .errors import ConsistencyError, require_count, require_nonnegative


class FamilyKind(str, Enum):
    COHERENT_SQL = "sql"
    SQUEEZED = "squeezed"
    SINGLE_CAT = "single-cat"
    SEPARABLE_CATS = "separable-cats"
    ENTANGLED_CAT = "entangled-cat"


# The families whose mode/copy count may exceed 1; every other one is single-mode.
MULTIMODE_FAMILIES = (FamilyKind.SEPARABLE_CATS, FamilyKind.ENTANGLED_CAT)


def _out(x: np.ndarray) -> float | np.ndarray:
    """A Python float for a scalar result, the array itself otherwise."""
    return float(x) if np.ndim(x) == 0 else x


def _cat_u(alpha: float | np.ndarray, n_modes: int) -> np.ndarray:
    """u = N alpha^2, after checking N >= 1 and 0 <= alpha < inf."""
    require_count("n_modes", n_modes)
    a = require_nonnegative("alpha", alpha)
    with np.errstate(over="ignore"):  # u past the double range is inf, as the forms expect
        return n_modes * a * a


def _eps_from_variance(var: float | np.ndarray, what: str, x) -> float | np.ndarray:
    """1 / sqrt(Var(G)), refusing a variance <= 0 or past the largest double.

    `what` and `x` name the input that gave each variance in the error.
    """
    v = np.asarray(var)
    if (v <= 0.0).any():
        raise ConsistencyError(f"generator variance {v[v <= 0.0][0]} <= 0")
    over = ~np.isfinite(v)
    if over.any():
        raise ValueError(f"{what} {np.asarray(x)[over][0]} puts Var(G) past the largest double")
    return _out(1.0 / np.sqrt(v))


def eps_min_squeezed_exact(r: float) -> float:
    """exp(-r)/2: the noise-limited displacement of a Y-squeezed probe.

    Equals half the standard deviation of the squeezed quadrature, and
    matches 1/sqrt(QFI) of the same probe computed in the Fock oracle.
    The large-r photon-counting form, `curve`'s squeezed row 1/sqrt(4 n_tot)
    at n_tot = sinh^2 r, sits a factor 2 above this; both are kept because
    each matches a different published normalization, and the relation is
    pinned down in the tests.
    """
    return 0.5 * math.exp(-float(require_nonnegative("r", r)))


def entangled_cat_generator_variance(alpha: float | np.ndarray, n_modes: int) -> float | np.ndarray:
    """Var(G) of the n-mode entangled cat: N (1 + 4 N a^2 / (1 + e^{-2 N a^2})).

    Same shape as one cat at effective amplitude sqrt(N) a, times N: only
    the symmetric collective mode is super-Poissonian, the other N - 1
    orthogonal combinations each contribute vacuum variance 1.
    """
    u = _cat_u(alpha, n_modes)
    with np.errstate(over="ignore"):  # 2u and 4u past the double range are inf, like u in _cat_u
        return _out(n_modes * (1.0 + 4.0 * u / (1.0 + np.exp(-2.0 * u))))


def entangled_cat_ntot(alpha: float | np.ndarray, n_modes: int) -> float | np.ndarray:
    """Total photon number of the n-mode cat: u tanh(u) with u = N a^2."""
    u = _cat_u(alpha, n_modes)
    return _out(u * np.tanh(u))


def eps_min_entangled_cat(alpha: float | np.ndarray, n_modes: int) -> float | np.ndarray:
    """Bound of the N-mode entangled cat at per-mode amplitude alpha."""
    return _eps_from_variance(entangled_cat_generator_variance(alpha, n_modes), "alpha", alpha)


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
    require_count("n_modes", n_modes)
    n = require_nonnegative("n_tot", n_tot)
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
        with np.errstate(over="ignore"):  # inf at the largest double, where every step is done
            ulp = np.spacing(u)
        done = (np.abs(step) <= ulp) | (hi - lo <= ulp)
        if done.all():
            break
        new = u - step
        new = np.where((lo < new) & (new < hi), new, lo + 0.5 * (hi - lo))
        u = np.where(done, u, new)
    return _out(np.sqrt(u / n_modes))


def curve(kind: FamilyKind | str, n_tot, n_modes: int = 1) -> tuple[np.ndarray, ...]:
    """Evaluate one family on a whole grid of total photon numbers.

    Returns the float64 arrays (n_tot, alpha, eps_min, Var(G)), aligned with
    the grid (0-d for a scalar grid); alpha is the per-mode cat amplitude
    that realizes each n_tot (NaN for families without one).  Only the
    multimode families take n_modes > 1.  A grid point whose Var(G) is past
    the largest double is refused.
    """
    kind, m = FamilyKind(kind), n_modes
    require_count("n_modes", m)
    if kind not in MULTIMODE_FAMILIES and m != 1:
        raise ValueError(f"{kind.value} is a single-mode family")
    n = require_nonnegative("n_tot", np.array(n_tot, np.float64), kind is FamilyKind.SQUEEZED)
    # the sql row: the coherent floor eps_min = 1/2, which no coherent amplitude moves
    alpha, var = np.full(n.shape, np.nan), np.full(n.shape, 4.0)
    if kind is FamilyKind.ENTANGLED_CAT:
        # n_tot stays the requested grid; the round trip through alpha gives it to ~1e-15
        alpha = invert_ntot(n, m)
        var = entangled_cat_generator_variance(alpha, m)
    elif kind is not FamilyKind.COHERENT_SQL:
        with np.errstate(over="ignore"):  # 4 n_tot past the double range is inf, refused below
            if kind is FamilyKind.SQUEEZED:
                var = 4.0 * n
            elif kind is FamilyKind.SINGLE_CAT:
                var, alpha = 1.0 + 4.0 * n, np.sqrt(n)
            else:
                var, alpha = m + 4.0 * n, np.sqrt(n / m)
    eps = _eps_from_variance(var, "n_tot", n)
    return (n, *(np.asarray(f, np.float64) for f in (alpha, eps, var)))


def bounds_table(family: FamilyKind | str, n_modes: int, n_tot) -> dict[str, object]:
    """The `catsense bounds` table of one family; a single-mode family reports n_modes 1."""
    kind = FamilyKind(family)
    require_count("n_modes", n_modes)  # every family refuses a bad count; single-mode ones drop it
    n_modes = n_modes if kind in MULTIMODE_FAMILIES else 1
    n, alpha, eps, var = curve(kind, n_tot, n_modes)
    return {"family": kind.value, "n_modes": n_modes, "n_tot": n,
            "alpha": alpha, "eps_min": eps, "qfi": var}


def figure1_table(n_modes: int, n_tot) -> dict[str, object]:
    """The `catsense figure1` table: the three cat-probe bounds on one photon-budget grid."""
    n, alpha, ent, _ = curve(FamilyKind.ENTANGLED_CAT, n_tot, n_modes)
    sep = curve(FamilyKind.SEPARABLE_CATS, n, n_modes)[2]
    one = curve(FamilyKind.SINGLE_CAT, n)[2]
    return {"n_tot": n, "eps_entangled": ent, "eps_separable": sep, "eps_single_cat": one,
            "alpha_entangled": alpha}

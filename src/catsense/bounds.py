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

`FAMILIES` is the one place a probe family is stated, one row each; `curve`
evaluates a row over a grid, and it, the tables and the CLI read the rows,
so a new family is a `FamilyKind` name and its row.  The cat forms in the
amplitude alpha and `invert_ntot` take a scalar or a float64 array and
answer in kind (a float for a scalar).  `bounds_table` and `figure1_table`
are the `catsense bounds` and `catsense figure1` tables.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from .errors import require_int, require_nonnegative


class FamilyKind(str, Enum):
    COHERENT_SQL = "sql"
    SQUEEZED = "squeezed"
    SINGLE_CAT = "single-cat"
    SEPARABLE_CATS = "separable-cats"
    ENTANGLED_CAT = "entangled-cat"


def _out(x: np.ndarray) -> float | np.ndarray:
    """A Python float for a scalar result, the array itself otherwise."""
    return float(x) if np.ndim(x) == 0 else x


def _cat_u(alpha: float | np.ndarray, n_modes: int) -> np.ndarray:
    """u = N alpha^2, after checking N >= 1 and 0 <= alpha < inf."""
    n_modes = require_int("n_modes", n_modes)
    a = require_nonnegative("alpha", alpha)
    with np.errstate(over="ignore"):  # u past the double range is inf, as the forms expect
        return n_modes * a * a


def _eps_from_variance(var: float | np.ndarray, what: str, x) -> float | np.ndarray:
    """1 / sqrt(var); a var past the largest double is refused, naming its input `what` = `x`."""
    v = np.asarray(var)
    over = ~np.isfinite(v)
    if over.any():
        raise ValueError(f"{what} {np.asarray(x)[over][0]} puts Var(G) past the largest double")
    return _out(1.0 / np.sqrt(v))


def eps_min_squeezed_exact(r: float) -> float:
    """exp(-r)/2: the noise-limited displacement of a Y-squeezed probe.

    Half the squeezed quadrature's standard deviation, as 1/sqrt(QFI) in the
    Fock oracle.  The squeezed row of `FAMILIES` (n_tot = sinh^2 r) sits a
    factor 2 above it at large r: each matches a published normalization.
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


_BELOW_MAX = np.nextafter(np.finfo(np.float64).max, 0.0)  # the last double with a finite ulp
_SLICE = 1 << 16  # entries solved at a time: the solve's scratch is ~90 B an entry, ~6 MB a slice


def invert_ntot(n_tot: float | np.ndarray, n_modes: int) -> float | np.ndarray:
    """Per-mode amplitude alpha such that the N-mode cat holds n_tot photons.

    Solves g(u) = u tanh(u) = n_tot for u = N alpha^2.  g is strictly
    increasing, so the root is unique, and it lies in [m, m + min(m, 1)]
    with m = max(n, sqrt n): g(u) <= min(u, u^2) gives the lower end; for
    n < 1, g(2m) >= tanh(1) min(2m, 4m^2) >= 1.52 n, and for n >= 1, u =
    m + 1 gives g(u) >= u - 2u e^{-2u} > u - 1 = n.  Newton steps (g' =
    tanh u + u sech^2 u) start at the lower end, a step that leaves the
    bracket is replaced by bisection, and an entry stops once its step or
    bracket is below one ulp of u.  A grid is solved `_SLICE` entries at a
    time; each entry's path is its own, alone or in any slice, so no bit moves.
    """
    n_modes = require_int("n_modes", n_modes)
    n = require_nonnegative("n_tot", n_tot)
    flat, alpha = n.ravel(), np.empty(n.size)
    for i in range(0, n.size, _SLICE):
        part = flat[i:i + _SLICE]
        lo = u = np.maximum(part, np.sqrt(part))
        hi = lo + np.minimum(lo, 1.0)
        for _ in range(64):  # a safety cap: no n_tot in 1e-323...1e308 needs more than 6 passes
            t = np.tanh(u)
            g = u * t - part
            lo = np.where(g < 0.0, u, lo)
            hi = np.where(g > 0.0, u, hi)
            # g' > 0 except at u = 0, where n_tot = 0 and g = 0 give step 0
            step = g / np.maximum(t + u * (1.0 - t * t), np.finfo(np.float64).tiny)
            # u is the largest double, whose ulp overflows, only at that n_tot, where step = 0
            ulp = np.spacing(np.minimum(u, _BELOW_MAX))
            width = hi - lo
            done = (np.abs(step) <= ulp) | (width <= ulp)
            if done.all():
                break
            new = u - step
            new = np.where((lo < new) & (new < hi), new, lo + 0.5 * width)
            u = np.where(done, u, new)
        alpha[i:i + _SLICE] = np.sqrt(u / n_modes)
    return _out(alpha.reshape(n.shape))


class Family(NamedTuple):  # a row of FAMILIES
    multimode: bool  # takes n_modes > 1; every other family is single-mode
    strict: bool  # its budget must be > 0, not only >= 0
    form: Callable[[np.ndarray, int], tuple]  # (n_tot grid, N) -> grid-shaped (alpha, Var(G))


def _squeezed(n: np.ndarray, m: int) -> tuple:
    return np.full(n.shape, np.nan), 4.0 * n


def _separable(n: np.ndarray, m: int) -> tuple:
    return np.sqrt(n / m), m + 4.0 * n


def _entangled(n: np.ndarray, m: int) -> tuple:
    alpha = invert_ntot(n, m)  # n_tot stays the requested grid; the round trip gives it to ~1e-15
    return alpha, entangled_cat_generator_variance(alpha, m)


FAMILIES = {  # each row's bound eps_min = 1 / sqrt(Var(G)) is named beside it
    # vacuum / coherent probe: eps_min = 1/2 (signal-to-noise 2 eps = 1), not the variance rule's 1
    FamilyKind.COHERENT_SQL: Family(False, False, lambda n, m: (
        np.full(n.shape, np.nan), np.full(n.shape, 4.0))),
    FamilyKind.SQUEEZED: Family(False, True, _squeezed),  # squeezed vacuum: 1 / sqrt(4 n_tot)
    FamilyKind.SINGLE_CAT: Family(False, False, _separable),  # one cat: 1 / sqrt(1 + 4 n_tot)
    FamilyKind.SEPARABLE_CATS: Family(True, False, _separable),  # N cats: 1 / sqrt(N + 4 n_tot)
    # N-mode entangled cat: eps_min = 1 / sqrt(N (1 + 4 N a^2 / (1 + e^{-2 N a^2})))
    FamilyKind.ENTANGLED_CAT: Family(True, False, _entangled),
}


def curve(kind: FamilyKind | str, n_tot, n_modes: int = 1) -> tuple[np.ndarray, ...]:
    """One family's row on a grid of total photon numbers, as float64 arrays.

    Returns (n_tot, alpha, eps_min, Var(G)), 0-d for a scalar grid; a float64 grid
    comes back as itself, not a copy.  alpha, the per-mode cat amplitude holding each
    n_tot, is NaN for a family without one; a Var(G) past the largest double is refused.
    """
    kind, m = FamilyKind(kind), require_int("n_modes", n_modes)
    multimode, strict, form = FAMILIES[kind]
    if not multimode and m != 1:
        raise ValueError(f"{kind.value} is a single-mode family")
    n = require_nonnegative("n_tot", np.asarray(n_tot, np.float64), strict)
    with np.errstate(over="ignore"):  # a Var(G) past the double range is inf, refused below
        alpha, var = form(n, m)
    eps = _eps_from_variance(var, "n_tot", n)
    return n, np.asarray(alpha), np.asarray(eps), np.asarray(var)


def bounds_table(family: FamilyKind | str, n_modes: int, n_tot) -> dict[str, object]:
    """The `catsense bounds` table of one family; a single-mode family reports n_modes 1."""
    kind, n_modes = FamilyKind(family), require_int("n_modes", n_modes)  # every family checks it
    n_modes = n_modes if FAMILIES[kind].multimode else 1  # single-mode ones then drop it
    n, alpha, eps, var = curve(kind, n_tot, n_modes)
    return {"family": kind.value, "n_modes": n_modes, "n_tot": n,
            "alpha": alpha, "eps_min": eps, "qfi": var}


def figure1_table(n_modes: int, n_tot) -> dict[str, object]:
    """The `catsense figure1` table: the three cat-probe bounds on one photon-budget grid."""
    n, alpha, ent = curve(FamilyKind.ENTANGLED_CAT, n_tot, n_modes)[:3]
    sep = curve(FamilyKind.SEPARABLE_CATS, n, n_modes)[2]
    one = curve(FamilyKind.SINGLE_CAT, n)[2]
    return {"n_tot": n, "eps_entangled": ent, "eps_separable": sep, "eps_single_cat": one,
            "alpha_entangled": alpha}

"""The package's failure rules, each stated once.

Every exception type carries the exit code it earns in the CLI as the class
attribute `exit_code`: 1 for bad input, 3 for an oracle capacity or tolerance
failure.  Beside them sit the rule helpers that the other modules call on
their inputs: `require_int` (counts, seeds and replicates), `require_finite`
(amplitudes, coefficients and kicks), `require_nonnegative` and `require_real`.
"""

import operator

import numpy as np

# Allowed imaginary leakage on quantities that must be real.
TOL_HERM = 1e-9


class CatsenseError(Exception):
    """Base class for every error raised by this package."""

    exit_code = 1


class DimensionMismatch(CatsenseError, ValueError):
    """Objects that must share a mode count or shape do not."""


class DegenerateState(CatsenseError, ValueError):
    """State norm is zero or negative beyond tolerance; moments are undefined."""


class ConsistencyError(CatsenseError, ArithmeticError):
    """A quantity that must be real (or non-negative) came out otherwise."""


class HermiticityError(CatsenseError, ValueError):
    """An operator expected to be Hermitian is not, beyond tolerance."""


class TruncationError(CatsenseError, ValueError):
    """Fock cutoff too small: probability mass near the cutoff is not negligible."""

    exit_code = 3


class CapacityError(CatsenseError, ValueError):
    """Request exceeds the hard limits of the brute-force oracle."""

    exit_code = 3


class StepTooSmallError(CatsenseError, ValueError):
    """Finite-difference step so small the fidelity deficit drowns in roundoff."""

    exit_code = 3


class ToleranceFailure(CatsenseError, RuntimeError):
    """A verification table exceeded one of its error gates."""

    exit_code = 3


def require_int(name: str, n, least: int = 1, bits: int = 63) -> int:
    """n as an int, once it is an integer (numpy's too) in [least, 2^bits - 1]: int64 by default."""
    try:
        k = operator.index(n)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {n!r}") from None
    if k < least:
        raise ValueError(f"{name} must be >= {least}, got {k}")
    if k >= 2**bits:  # the message leaves out a value that may run to hundreds of digits
        raise ValueError(f"{name} must be <= 2^{bits} - 1")
    return k


def require_finite(name: str, z) -> np.ndarray:
    """z as a complex128 array once every entry is finite."""
    v = np.asarray(z, dtype=np.complex128)
    ok = np.isfinite(v)
    if not ok.all():
        bad = z if v.ndim == 0 else np.asarray(z)[~ok][0]
        raise ValueError(f"{name} must be finite, got {bad}")
    return v


def require_nonnegative(name: str, x, strict: bool = False) -> np.ndarray:
    """x as a float64 array once every entry is finite and >= 0 (> 0 if strict)."""
    v = np.asarray(x, dtype=np.float64)
    ok = ((v > 0.0) if strict else (v >= 0.0)) & (v < np.inf)  # false for NaN too
    if not ok.all():
        bad = x if v.ndim == 0 else v[~ok][0]
        raise ValueError(f"{name} must be finite and {'>' if strict else '>='} 0, got {bad}")
    return v


def require_real(what: str, z: complex) -> float:
    """The real part of z, after checking z is finite and |Im z| <= TOL_HERM * max(1, |Re z|)."""
    if not (np.isfinite(z) and abs(z.imag) <= TOL_HERM * max(1.0, abs(z.real))):
        raise ConsistencyError(f"{what} is {z}, not a finite real number")
    return z.real

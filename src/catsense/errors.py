"""The package's failure rules, each stated once.

Every exception type carries the exit code it earns in the CLI as the class
attribute `exit_code`: 1 for bad input, 3 for an oracle capacity or tolerance
failure.  Beside them sit the rule helpers that the other modules call on
their inputs: `require_count`, `require_nonnegative` and `require_real`.  The
seed rule, `estimation.check_seed`, stays beside the samplers it feeds.
"""

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


def require_count(name: str, n: int) -> None:
    """A count of modes, copies, shots, qubits or points must be >= 1 and fit numpy's int64."""
    if n < 1:
        raise ValueError(f"{name} must be >= 1, got {n}")
    if n > 2**63 - 1:  # the message leaves out a value that may run to hundreds of digits
        raise ValueError(f"{name} must be <= 2^63 - 1")


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

"""Monte Carlo estimation: homodyne displacement readout and Ramsey fringes.

Each experiment is one table function, which checks its inputs, draws and
returns its table as columns: `homodyne_table` behind ``catsense
montecarlo`` and `ramsey_table` behind ``catsense ramsey``.

Randomness policy: every experiment owns a 64-bit seed and draws from
``numpy.random.Generator`` over the PCG64 bit generator.  numpy guarantees
stream stability for a fixed (bit generator, distribution method) pair, so
a given (experiment, seed) reproduces bit-identical samples across runs and
platforms.  Replications spawn children from one
``numpy.random.SeedSequence`` rather than reuse or increment seeds;
`ramsey_table` carries this out, one int child seed per replicate.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import require_int, require_nonnegative


def homodyne_table(probe: str, r: float, eps: float, shots: int,
                   seed: int) -> dict[str, list]:
    """Repeated Y-homodyne readout of a probe kicked by i*eps, as a one-row table.

    The probe is "coherent" (or vacuum), whose Y quadrature carries vacuum
    noise Var(Y) = 1, or "squeezed", momentum-squeezed to Var(Y) = exp(-2 r).
    The kick D(i eps) moves the Y mean to 2 eps and leaves the probe's Y noise
    untouched, so each shot is Normal(2 eps, Var(Y)).  eps_hat = mean / 2, and
    stderr = sqrt(Var(Y) / shots) / 2 from the model variance, which is known
    exactly.  Returns the columns probe, true_eps, shots, seed, y_variance,
    eps_hat, stderr and pull = (eps_hat - eps) / stderr.
    """
    require_nonnegative("r", r)
    require_nonnegative("true_eps", eps)
    require_nonnegative("the record mean 2 * true_eps", 2.0 * float(eps))
    shots = require_int("shots", shots)
    seed = require_int("seed", seed, least=0, bits=64)
    if probe == "squeezed":
        label, y_variance = f"the squeezed probe at r = {r}", math.exp(-2.0 * r)
    elif probe == "coherent":
        label, y_variance = "the coherent probe", 1.0
    else:
        raise ValueError(f"probe must be coherent or squeezed, got {probe!r}")
    # the estimate's stderr is sqrt(Var(Y) / shots) / 2, and the pull divides by it;
    # for a squeezed probe the ratio underflows to 0 from r ~ 367 at 10^5 shots
    require_nonnegative(f"Var(Y) / shots of {label} over {shots} shots",
                        y_variance / shots, strict=True)
    # noise no wider than the spacing of doubles at the mean rounds every sample
    # to the mean, and the pull would measure that rounding, not the noise
    if math.sqrt(y_variance) <= math.ulp(2.0 * eps):
        raise ValueError(f"the Y noise of {label} is no wider than the spacing of "
                         f"doubles at the record mean 2 * eps, eps = {eps}")
    rng = np.random.Generator(np.random.PCG64(seed))
    y = rng.normal(loc=2.0 * eps, scale=math.sqrt(y_variance), size=shots)
    eps_hat = float(np.mean(y)) / 2.0
    stderr = math.sqrt(y_variance / shots) / 2.0
    return {"probe": [probe], "true_eps": [eps], "shots": [shots], "seed": [seed],
            "y_variance": [y_variance], "eps_hat": [eps_hat], "stderr": [stderr],
            "pull": [(eps_hat - eps) / stderr]}


def ramsey_fisher(phi: int) -> float:
    """Per-shot Fisher information about theta of the fringe cos^2(phi theta): 4 phi^2.

    For p = cos^2(phi theta), p' = -phi sin(2 phi theta) and
    F = p'^2 / (p (1 - p)) = 4 phi^2 after sin(2x) = 2 sin x cos x cancels
    the binomial denominator, so F does not depend on theta.  Product
    scheme (phi = 1): 4; GHZ (phi = N): 4 N^2.
    """
    return 4.0 * phi**2


def ramsey_table(qubit_list: Sequence[int], shots: int, replicates: int,
                 seed: int) -> tuple[dict[str, np.ndarray], int]:
    """Product vs GHZ fringe readout at an equal qubit budget, per register size N.

    N uncorrelated atoms measured one by one see the fringe cos^2(theta); a
    GHZ register accumulates the phase N times faster and its parity readout
    sees cos^2(N theta).  Either way a shot is one Bernoulli draw with
    p = cos^2(phi theta), phi = 1 or N, and a replicate inverts its binomial
    count on the first fringe branch: theta_hat = arccos(sqrt(p_hat)) / phi.
    `shots` GHZ repetitions consume shots * N qubits, so the product rows run
    shots * N single-qubit ones, and delta_theta = 1/sqrt(FI * repetitions)
    falls like N^-1/2 (product) and N^-1 (GHZ).  Working point theta = pi/(8N)
    keeps every fringe off its extrema.  Each row, N varying slowest, spawns
    `replicates` child seeds from one SeedSequence on `seed`; empirical_stderr
    is the ddof=1 spread of theta_hat over them.  Returns the table (columns
    N, scheme, FI, delta_theta, empirical_stderr) and the count of replicates
    at the fringe boundary (p_hat 0 or 1), which stay in the spread: arccos
    still inverts there, but the delta-method stderr does not hold.
    """
    shots = require_int("shots", shots)
    replicates = require_int("replicates", replicates, least=2)  # the ddof=1 spread needs two
    for n_qubits in qubit_list:  # before any draw, and before 8 N meets a float
        require_int("shots * N", shots * n_qubits)
    root = np.random.SeedSequence(require_int("seed", seed, least=0, bits=64))
    rows, at_boundary = [], 0
    for n in qubit_list:
        theta = math.pi / (8.0 * n)
        for scheme, phi, reps in (("product", 1, shots * n), ("ghz", n, shots)):
            p = math.cos(phi * theta) ** 2
            theta_hat = []
            for child in root.spawn(replicates):
                child_seed = int(child.generate_state(1, np.uint64)[0])
                rng = np.random.Generator(np.random.PCG64(child_seed))
                p_hat = int(rng.binomial(reps, p)) / reps
                at_boundary += p_hat in (0.0, 1.0)
                theta_hat.append(math.acos(math.sqrt(p_hat)) / phi)
            info = ramsey_fisher(phi)
            rows.append((n, scheme, info, 1.0 / math.sqrt(info * reps),
                         np.std(theta_hat, ddof=1)))
    header = ("N", "scheme", "FI", "delta_theta", "empirical_stderr")
    return {key: np.array([row[i] for row in rows]) for i, key in enumerate(header)}, at_boundary

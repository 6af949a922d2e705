"""Monte Carlo estimation: homodyne displacement readout and Ramsey fringes.

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
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, require_count, require_nonnegative


def check_seed(seed: int) -> int:
    """The seed as an int, which must lie in [0, 2^64)."""
    s = int(seed)
    if not 0 <= s < 2**64:
        raise ValueError(f"seed must be in [0, 2^64), got {seed}")
    return s


@dataclass(frozen=True)
class CoherentProbe:
    """Coherent (or vacuum) probe; the Y quadrature carries vacuum noise."""

    @property
    def y_variance(self) -> float:
        return 1.0


@dataclass(frozen=True)
class SqueezedProbe:
    """Momentum-squeezed probe: Var(Y) = exp(-2 r)."""

    r: float

    def __post_init__(self) -> None:
        require_nonnegative("r", self.r)

    @property
    def y_variance(self) -> float:
        return math.exp(-2.0 * self.r)


Probe = CoherentProbe | SqueezedProbe


@dataclass(frozen=True)
class HomodyneExperiment:
    """Repeated Y-homodyne readout of a probe kicked by i*eps.

    The kick D(i eps) moves the Y mean to 2 eps and leaves the Y noise of
    the probe untouched, so each shot is Normal(2 eps, Var_Y(probe)).
    """

    probe: Probe
    true_eps: float
    shots: int
    seed: int

    def __post_init__(self) -> None:
        require_nonnegative("true_eps", self.true_eps)
        require_nonnegative("the record mean 2 * true_eps", 2.0 * float(self.true_eps))
        require_count("shots", self.shots)
        check_seed(self.seed)
        # the estimate's stderr is sqrt(Var(Y) / shots) / 2, and the pull divides by it;
        # for a squeezed probe the ratio underflows to 0 from r ~ 367 at 10^5 shots
        require_nonnegative(f"Var(Y) / shots of {self.probe} over {self.shots} shots",
                            self.probe.y_variance / self.shots, strict=True)
        # noise no wider than the spacing of doubles at the mean rounds every sample
        # to the mean, and the pull would measure that rounding, not the noise
        if math.sqrt(self.probe.y_variance) <= math.ulp(2.0 * self.true_eps):
            raise ValueError(f"the Y noise of {self.probe} is no wider than the spacing of "
                             f"doubles at the record mean 2 * eps, eps = {self.true_eps}")


def sample_homodyne(experiment: HomodyneExperiment) -> np.ndarray:
    """Draw the Y-quadrature record: shots iid Normal(2 eps, Var_Y)."""
    rng = np.random.Generator(np.random.PCG64(experiment.seed))
    mean = 2.0 * experiment.true_eps
    sigma = math.sqrt(experiment.probe.y_variance)
    return rng.normal(loc=mean, scale=sigma, size=experiment.shots)


def estimate_eps(samples: np.ndarray, probe: Probe) -> tuple[float, float]:
    """Point estimate of eps and its standard error from a homodyne record.

    eps_hat = mean / 2, and stderr = sqrt(Var_Y(probe) / shots) / 2 from the
    probe's model variance, which is known exactly.
    """
    y = np.asarray(samples, dtype=np.float64).ravel()
    if y.size < 1:
        raise DimensionMismatch("empty sample record")
    eps_hat = float(np.mean(y)) / 2.0
    stderr = math.sqrt(probe.y_variance / y.size) / 2.0
    return eps_hat, stderr


class Scheme(str, Enum):
    PRODUCT = "product"
    GHZ = "ghz"


@dataclass(frozen=True)
class RamseyModel:
    """N two-level atoms read out after phase accumulation theta per atom.

    Uncorrelated atoms measured one by one see the fringe cos^2(theta);
    a GHZ-correlated register accumulates the phase N times faster and its
    parity readout sees cos^2(N theta).  Either way a shot is one Bernoulli
    draw with success probability cos^2(phi theta), phi = 1 or N.
    """

    scheme: Scheme
    n_qubits: int
    theta: float

    def __post_init__(self) -> None:
        require_count("n_qubits", self.n_qubits)
        if not math.isfinite(self.theta):
            raise ValueError("theta must be finite")

    @property
    def phase_factor(self) -> int:
        return self.n_qubits if self.scheme is Scheme.GHZ else 1


def plus_probability(model: RamseyModel) -> float:
    """P(+ | theta) = cos^2(phi theta)."""
    return math.cos(model.phase_factor * model.theta) ** 2


def ramsey_fisher(model: RamseyModel) -> float:
    """Per-shot Fisher information about theta: 4 phi^2, theta-independent.

    For p = cos^2(phi theta), p' = -phi sin(2 phi theta) and
    F = p'^2 / (p (1 - p)) = 4 phi^2 after sin(2x) = 2 sin x cos x cancels
    the binomial denominator.  Product scheme: 4; GHZ: 4 N^2.
    """
    return 4.0 * model.phase_factor**2


@dataclass(frozen=True)
class RamseyEstimate:
    """Inverted fringe estimate; `boundary` flags p_hat in {0, 1}.

    At the boundary arccos still inverts (theta_hat maps to a fringe
    extremum) but the delta-method standard error is unreliable, so the
    flag is data, not an exception: calling code decides whether to
    discard, widen, or keep the replicate.
    """

    theta_hat: float
    boundary: bool


def ramsey_simulate(model: RamseyModel, shots: int, seed: int) -> RamseyEstimate:
    """Draw shots Bernoulli outcomes and invert the fringe.

    theta_hat = arccos(sqrt(p_hat)) / phi, the maximum-likelihood inverse
    on the first fringe branch.  Its standard error is 1 / sqrt(F shots)
    with F from `ramsey_fisher`.
    """
    require_count("shots", shots)
    rng = np.random.Generator(np.random.PCG64(check_seed(seed)))
    p = plus_probability(model)
    successes = int(rng.binomial(shots, p))
    p_hat = successes / shots
    theta_hat = math.acos(math.sqrt(p_hat)) / model.phase_factor
    return RamseyEstimate(theta_hat=theta_hat, boundary=p_hat in (0.0, 1.0))


def ramsey_table(qubit_list: Sequence[int], shots: int, replicates: int,
                 seed: int) -> tuple[dict[str, np.ndarray], int]:
    """Product vs GHZ fringe readout at an equal qubit budget, per register size N.

    `shots` GHZ repetitions consume shots * N qubits, so the product rows run
    shots * N single-qubit ones, and delta_theta = 1/sqrt(FI * repetitions)
    falls like N^-1/2 (product) and N^-1 (GHZ).  Working point theta = pi/(8N)
    keeps every fringe off its extrema.  Each row, N varying slowest, spawns
    `replicates` child seeds from one SeedSequence on `seed`; empirical_stderr
    is the ddof=1 spread of theta_hat over them.  Returns the table (columns
    N, scheme, FI, delta_theta, empirical_stderr) and the count of replicates
    at the fringe boundary, which stay in the spread.
    """
    require_count("shots", shots)
    for n_qubits in qubit_list:  # before any draw, and before 8 N meets a float
        require_count("shots * N", shots * n_qubits)
    models = [RamseyModel(scheme, n, math.pi / (8.0 * n))
              for n in qubit_list for scheme in (Scheme.PRODUCT, Scheme.GHZ)]
    reps = [shots * m.n_qubits if m.scheme is Scheme.PRODUCT else shots for m in models]
    root = np.random.SeedSequence(check_seed(seed))
    estimates = [[ramsey_simulate(m, n, int(child.generate_state(1, np.uint64)[0]))
                  for child in root.spawn(replicates)] for m, n in zip(models, reps)]
    info = np.array([ramsey_fisher(m) for m in models])
    table = {"N": np.array([m.n_qubits for m in models]),
             "scheme": np.array([m.scheme.value for m in models]), "FI": info,
             "delta_theta": 1.0 / np.sqrt(info * np.array(reps)),
             "empirical_stderr": np.array([np.std([e.theta_hat for e in row], ddof=1)
                                           for row in estimates])}
    return table, sum(e.boundary for row in estimates for e in row)

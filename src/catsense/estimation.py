"""Monte Carlo estimation: homodyne displacement readout and Ramsey fringes.

Randomness policy: every experiment owns a 64-bit seed and draws from
``numpy.random.Generator`` over the PCG64 bit generator.  numpy guarantees
stream stability for a fixed (bit generator, distribution method) pair, so
a given (experiment, seed) reproduces bit-identical samples across runs and
platforms.  Replications should spawn children from one
``numpy.random.SeedSequence`` rather than reuse or increment seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

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

    alpha: float = 0.0

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


def estimate_eps(samples: np.ndarray, probe: Probe | None = None) -> tuple[float, float]:
    """Point estimate of eps and its standard error from a homodyne record.

    eps_hat = mean / 2.  The noise scale is taken from the probe when one is
    given (the model variance is known exactly) and from the sample variance
    otherwise, which keeps the function usable on records of unknown origin;
    a single shot without a probe has no variance estimate and is rejected.
    """
    y = np.asarray(samples, dtype=np.float64).ravel()
    if y.size < 1:
        raise DimensionMismatch("empty sample record")
    if probe is None:
        if y.size < 2:
            raise DimensionMismatch("need >= 2 samples to estimate the noise scale")
        var = float(np.var(y, ddof=1))
    else:
        var = probe.y_variance
    eps_hat = float(np.mean(y)) / 2.0
    stderr = math.sqrt(var / y.size) / 2.0
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
    stderr: float
    boundary: bool


def ramsey_simulate(model: RamseyModel, shots: int, seed: int) -> RamseyEstimate:
    """Draw shots Bernoulli outcomes, invert the fringe, report the stderr.

    theta_hat = arccos(sqrt(p_hat)) / phi, the maximum-likelihood inverse
    on the first fringe branch.  stderr propagates the binomial error
    through the inverse: 1 / (2 phi sqrt(shots)), again theta-independent;
    equivalently 1 / sqrt(F shots) with F from `ramsey_fisher`.
    """
    require_count("shots", shots)
    rng = np.random.Generator(np.random.PCG64(check_seed(seed)))
    p = plus_probability(model)
    successes = int(rng.binomial(shots, p))
    p_hat = successes / shots
    phi = model.phase_factor
    theta_hat = math.acos(math.sqrt(p_hat)) / phi
    stderr = 1.0 / (2.0 * phi * math.sqrt(shots))
    return RamseyEstimate(theta_hat=theta_hat, stderr=stderr, boundary=p_hat in (0.0, 1.0))

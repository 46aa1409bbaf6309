"""Posteriors and their evaluation.

The Gaussian-likelihood Bayes posterior is available in closed form. The
robust posterior replaces the NLL with its adversarial counterpart; it stays
log-concave (convex losses plus Gaussian prior) but loses the closed form, so
it is represented by draws from a Hamiltonian Monte Carlo sampler with
dual-averaging step-size adaptation toward a mean acceptance probability of
0.8, an optional dense mass matrix and a trajectory length drawn uniformly
from 1 to a maximum on every iteration. Warmup adapts that maximum as well
and freezes it, together with the step size, when it ends.

The mass matrix M = LL' is given by its lower Cholesky factor L. The
momentum is kept in whitened coordinates, xi ~ N(0, I), so with A = L^{-T}
the leapfrog steps are xi += (eps/2) A'grad(theta) and theta += eps A xi,
and the kinetic energy stays xi'xi/2. A is formed once per run; on a
Gaussian target whose precision is M the dynamics are isotropic. The random
length (Neal, "MCMC using Hamiltonian dynamics", 2011) breaks the resonance
a fixed leapfrog count has on near-Gaussian targets.

The maximum length starts at the cap, config.leapfrog_steps, and stays there
for the first 15% of warmup, while the chain travels from the origin. From
then on a Welford running variance of the whitened position w = L'theta is
kept, and once 20 positions are in, every warmup iteration sets the maximum
to min(cap, max(1, ceil(pi * s_max / eps))), where s_max is the largest
whitened standard deviation: a Gaussian's half period, the length that
ChEES (Hoffman, Radul & Sountsov, AISTATS 2021) targets, estimated from the
one chain. A warmup too short to collect 20 positions keeps the cap.

expected_risk scores a posterior at one test radius or at a sequence of
them. The residual r = y - x'theta does not depend on the radius dh, and the
loss (|r| + dh ||theta||)^2 / (2 sigma^2) + log(2 pi sigma^2)/2 expands into
non-negative terms of mean |r| and mean r^2, so one residual pass per set of
draws serves every radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence, Union

import numpy as np
from scipy.linalg import solve_triangular

from .adversarial_loss import _gaussian_adv_nll_and_residual
from .errors import DimensionMismatch, DivergentTrajectory, NonFiniteDensity
from .model import Dataset, GaussianPosterior, IsotropicPrior, NoiseModel, SampleSet
from .model import _check_nonnegative
from .numerics import SpdMatrix, spd_solve

__all__ = [
    "HmcConfig",
    "RiskEstimate",
    "bayes_posterior",
    "robust_log_density_unnorm",
    "robust_log_density_grad",
    "hmc_sample",
    "expected_risk",
]

# Energy error above which a trajectory counts as divergent, how many
# divergences in a row abort the run, and the mean acceptance probability
# that warmup tunes the step size toward.
_DIVERGENCE_ENERGY = 1000.0
_MAX_CONSECUTIVE_DIVERGENCES = 25
_TARGET_ACCEPT = 0.8
# Share of warmup run at the cap before the whitened positions are recorded,
# and how many positions the maximum trajectory length is first set from.
_LENGTH_BURN_IN = 0.15
_LENGTH_MIN_DRAWS = 20


@dataclass(frozen=True)
class HmcConfig:
    """Draws kept, warmup iterations, the cap on the warmup-adapted maximum
    leapfrog steps per iteration, and the seed."""

    n_samples: int = 4000
    n_warmup: int = 2000
    leapfrog_steps: int = 32
    seed: int = 0

    def __post_init__(self):
        for name in ("n_samples", "n_warmup", "leapfrog_steps"):
            v = getattr(self, name)
            if not (isinstance(v, (int, np.integer)) and v >= 1):
                raise ValueError(f"{name} must be a positive integer, got {v!r}")


def bayes_posterior(
    data: Dataset, noise: NoiseModel, prior: IsotropicPrior
) -> GaussianPosterior:
    """Exact posterior of the Gaussian linear model under the isotropic prior.

    Precision (1/sigma^2) X'X + (1/sigma_p^2) I; the mean solves the ridge
    normal equations.
    """
    precision = SpdMatrix.from_array(
        (data.X.T @ data.X) / noise.sigma_sq
        + np.eye(data.d) / prior.sigma_p_sq
    )
    mean = spd_solve(precision, (data.X.T @ data.Y) / noise.sigma_sq)
    return GaussianPosterior(mean=mean, precision=precision)


def robust_log_density_unnorm(
    theta, data: Dataset, noise: NoiseModel, prior: IsotropicPrior, delta: float
) -> float:
    """Unnormalized log density of the robust posterior at theta."""
    th = np.asarray(theta, dtype=float)
    adv_nll, _ = _gaussian_adv_nll_and_residual(th, data, noise, delta)
    return -adv_nll - 0.5 * float(th @ th) / prior.sigma_p_sq


def robust_log_density_grad(
    theta, data: Dataset, noise: NoiseModel, prior: IsotropicPrior, delta: float
) -> np.ndarray:
    """Gradient of :func:`robust_log_density_unnorm`.

    At the kinks, the |residual| term uses sign(0) := +1 on theta'x - y and
    the delta*||theta|| term uses gradient 0 at theta = 0 — the same
    selections the losses use, so the sampler sees a consistent field.
    """
    th = np.asarray(theta, dtype=float)
    r = data.Y - data.X @ th
    theta_norm = math.sqrt(th @ th)
    grown = np.abs(r) + delta * theta_norm
    grad_loss = data.X.T @ np.where(r <= 0.0, grown, -grown)
    if delta > 0.0 and theta_norm > 0.0:
        grad_loss = grad_loss + (delta * float(grown.sum()) / theta_norm) * th
    return -grad_loss / noise.sigma_sq - th / prior.sigma_p_sq


def _leapfrog(theta, xi, eps, n_steps, grad, a):
    """Leapfrog with whitened momentum xi and theta velocity A xi;
    n_steps + 1 gradient evaluations."""
    g = a.T @ grad(theta)
    xi = xi + 0.5 * eps * g
    for step in range(n_steps):
        theta = theta + eps * (a @ xi)
        g = a.T @ grad(theta)
        if step < n_steps - 1:
            xi = xi + eps * g
    xi = xi + 0.5 * eps * g
    return theta, xi


def _whitening(mass_chol, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """(A, L') from the lower Cholesky factor L of the mass matrix, with
    A = L^{-T}: one triangular solve per run, so no gradient step solves."""
    chol = np.asarray(mass_chol, dtype=float)
    if chol.shape != (dim, dim):
        raise DimensionMismatch(f"mass_chol has shape {chol.shape}, expected ({dim}, {dim})")
    return solve_triangular(chol, np.eye(dim), lower=True).T, chol.T


def _find_reasonable_epsilon(theta, logdensity, grad, a, rng) -> tuple[float, int]:
    """Double/halve a unit step until the one-step acceptance crosses 1/2;
    returns the step and the gradient evaluations it took."""
    eps = 1.0
    lp0 = logdensity(theta)
    p0 = rng.standard_normal(theta.shape[0])
    h0 = lp0 - 0.5 * float(p0 @ p0)
    grad_evals = 0

    def log_ratio(eps_try: float) -> float:
        nonlocal grad_evals
        grad_evals += 2
        theta1, p1 = _leapfrog(theta, p0, eps_try, 1, grad, a)
        lp1 = logdensity(theta1)
        if not math.isfinite(lp1):
            return -math.inf
        return (lp1 - 0.5 * float(p1 @ p1)) - h0

    direction = 1.0 if log_ratio(eps) > math.log(0.5) else -1.0
    for _ in range(60):
        if direction * log_ratio(eps) <= -direction * math.log(2.0):
            break
        eps *= 2.0 ** direction
    return eps, grad_evals


def hmc_sample(
    logdensity: Callable[[np.ndarray], float],
    grad: Callable[[np.ndarray], np.ndarray],
    dim: int,
    config: HmcConfig,
    *,
    mass_chol=None,
) -> SampleSet:
    """Sample with HMC, adapting the step size during warmup by dual averaging
    and the maximum trajectory length by the whitened half period.

    Deterministic for a fixed config.seed. The chain starts at the origin,
    where the log density must be finite. Each iteration runs a trajectory
    of 1 to max_leapfrog leapfrog steps, drawn uniformly. max_leapfrog is
    config.leapfrog_steps for the first 15% of warmup and until 20 whitened
    positions w = L'theta have been recorded after it; from then on each
    warmup iteration sets it to min(config.leapfrog_steps,
    max(1, ceil(pi * s_max / eps))), with s_max the largest running standard
    deviation of w. It is frozen with eps when warmup ends, and the returned
    SampleSet carries it and the run's gradient count.

    mass_chol is the lower Cholesky factor L of the mass matrix M = LL'; a
    good choice is the factor of an approximation of the target's precision,
    such as ``bayes_posterior(...).precision.chol_lower`` for the robust
    posterior. None means M = I.

    Raises
    ------
    NonFiniteDensity
        if the log density is not finite at the starting point.
    DivergentTrajectory
        after repeated trajectories with energy error beyond 1000.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    rng = np.random.default_rng(config.seed)
    theta = np.zeros(dim)
    lp = logdensity(theta)
    if not math.isfinite(lp):
        raise NonFiniteDensity(f"log density at the origin is {lp!r}")

    a, lt = (np.eye(dim), None) if mass_chol is None else _whitening(mass_chol, dim)
    eps, grad_evals = _find_reasonable_epsilon(theta, logdensity, grad, a, rng)

    # Dual-averaging state (shrinkage toward mu, decaying adaptation).
    mu = math.log(10.0 * eps)
    log_eps_bar = 0.0
    h_bar = 0.0
    gamma, t0, kappa = 0.05, 10.0, 0.75

    draws = np.empty((config.n_samples, dim))
    accept_sum = 0.0
    consecutive_divergences = 0
    total_iters = config.n_warmup + config.n_samples

    # Trajectory-length state: Welford moments of the whitened position.
    max_steps = config.leapfrog_steps
    burn_in = int(_LENGTH_BURN_IN * config.n_warmup)
    w_mean, w_m2 = np.zeros(dim), np.zeros(dim)

    for m in range(1, total_iters + 1):
        n_steps = int(rng.integers(1, max_steps + 1))
        grad_evals += n_steps + 1
        p0 = rng.standard_normal(dim)
        h0 = lp - 0.5 * float(p0 @ p0)
        theta_prop, p1 = _leapfrog(theta, p0, eps, n_steps, grad, a)
        lp_prop = logdensity(theta_prop)
        if math.isfinite(lp_prop):
            log_ratio = (lp_prop - 0.5 * float(p1 @ p1)) - h0
            if math.isnan(log_ratio):
                log_ratio = -math.inf
        else:
            log_ratio = -math.inf

        if log_ratio < -_DIVERGENCE_ENERGY:
            consecutive_divergences += 1
            if consecutive_divergences >= _MAX_CONSECUTIVE_DIVERGENCES:
                raise DivergentTrajectory(
                    f"{consecutive_divergences} consecutive divergent trajectories "
                    f"(energy error > {_DIVERGENCE_ENERGY:g}) at step size {eps:g}"
                )
        else:
            consecutive_divergences = 0

        alpha = min(1.0, math.exp(min(log_ratio, 0.0)))
        if rng.uniform() < alpha:
            theta, lp = theta_prop, lp_prop

        if m <= config.n_warmup:
            frac = 1.0 / (m + t0)
            h_bar = (1.0 - frac) * h_bar + frac * (_TARGET_ACCEPT - alpha)
            log_eps = mu - math.sqrt(m) / gamma * h_bar
            eta = m ** (-kappa)
            log_eps_bar = eta * log_eps + (1.0 - eta) * log_eps_bar
            eps = math.exp(log_eps)
            if m == config.n_warmup:
                eps = math.exp(log_eps_bar)
            if m > burn_in:
                w = theta if lt is None else lt @ theta
                w_count = m - burn_in
                dev = w - w_mean
                w_mean += dev / w_count
                w_m2 += dev * (w - w_mean)
                if w_count >= _LENGTH_MIN_DRAWS:
                    s_max = math.sqrt(float(w_m2.max()) / (w_count - 1))
                    half_period = math.pi * s_max / eps
                    # "not <" keeps the cap for an infinite or NaN ratio
                    max_steps = (
                        max(1, math.ceil(half_period))
                        if half_period < config.leapfrog_steps
                        else config.leapfrog_steps
                    )
        else:
            accept_sum += alpha
            draws[m - config.n_warmup - 1] = theta

    return SampleSet(
        draws=draws,
        seed=config.seed,
        accept_rate=accept_sum / config.n_samples,
        step_size=eps,
        grad_evals=grad_evals,
        max_leapfrog=max_steps,
    )


class RiskEstimate(NamedTuple):
    """A risk value with its Monte-Carlo standard error (0 for exact values)."""

    value: float
    std_error: float


def _effective_sample_size(series: np.ndarray) -> float:
    """ESS of a scalar chain via Geyer's initial positive sequence."""
    n = series.shape[0]
    if n < 4:
        return float(n)
    x = series - series.mean()
    var = float(x @ x) / n
    if var <= 0.0:
        return float(n)
    nfft = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(x, nfft)
    acov = np.fft.irfft(f * np.conj(f), nfft)[:n].real / n
    rho = acov / acov[0]
    tau = 0.0
    for k in range(0, n - 1, 2):
        pair = rho[k] + rho[k + 1]
        if pair <= 0.0:
            break
        tau += 2.0 * pair
    tau -= 1.0
    if tau < 1.0:
        tau = 1.0
    return float(min(n, n / tau))


def _residual_moments(
    draws: np.ndarray, testset: Dataset
) -> tuple[np.ndarray, np.ndarray]:
    """Mean |r| and mean r^2 over the test set, one pair per draw, where
    r = y - x'theta.

    One GEMM per chunk of draws, [theta, -1] [X, Y]', writes -r into a buffer
    of at most 2^22 entries (32 MB) regardless of test size; the abs and both
    row sums work in that buffer, so no other draws x test array is formed.
    """
    n, m = testset.n, draws.shape[0]
    xy = np.column_stack((testset.X, testset.Y))
    aug = np.column_stack((draws, np.full(m, -1.0)))
    chunk = max(1, (1 << 22) // n)
    buf = np.empty((min(chunk, m), n))
    m1, m2 = np.empty(m), np.empty(m)
    for start in range(0, m, chunk):
        stop = min(start + chunk, m)
        r = buf[: stop - start]
        np.matmul(aug[start:stop], xy.T, out=r)
        np.einsum("ij,ij->i", r, r, out=m2[start:stop])
        np.abs(r, out=r)
        np.einsum("ij->i", r, out=m1[start:stop])
    return m1 / n, m2 / n


def expected_risk(
    samples_or_exact: Union[SampleSet, GaussianPosterior],
    testset: Dataset,
    noise: NoiseModel,
    delta_test: Union[float, Sequence[float]] = 0.0,
    *,
    n_draws: int = 4000,
    seed: int = 0,
) -> Union[RiskEstimate, tuple[RiskEstimate, ...]]:
    """Posterior-averaged test risk under the (adversarial) Gaussian NLL.

    delta_test is one radius, which gives one RiskEstimate, or a sequence of
    radii, which gives a tuple of RiskEstimates in the order given (like
    ``np.quantile``). Per draw theta and test point the loss at radius dh is
    (|r| + dh ||theta||)^2 / (2 sigma^2) + log(2 pi sigma^2)/2 with
    r = y - x'theta, so every radius is read from two per-draw means over the
    test set, of |r| and of r^2, formed in one pass over the draws; every
    term of the expanded square is non-negative.

    With an exact Gaussian posterior, dh = 0 is closed form (standard error
    0): per point, [(y - x'mean)^2 + x' P^{-1} x] / (2 sigma^2) +
    log(2 pi sigma^2)/2. Every dh > 0 is averaged over one shared set of
    n_draws fresh draws from ``default_rng(seed)``, the set a call with that
    radius alone draws. A SampleSet scores every radius on its stored draws,
    and each standard error is adjusted by the effective sample size of that
    radius's per-draw risks along the chain.

    Raises ValueError for a radius that is not finite and >= 0 and for a
    posterior whose dimension differs from the test set's.
    """
    radii = np.asarray(delta_test, dtype=float)
    if radii.ndim > 1:
        raise ValueError(f"delta_test must be a float or a sequence, got shape {radii.shape}")
    wanted = radii.reshape(-1).tolist()
    for dh in wanted:
        _check_nonnegative("delta_test", dh)
    if samples_or_exact.dim != testset.d:
        raise ValueError(
            f"posterior dimension {samples_or_exact.dim} != test dimension {testset.d}"
        )

    exact = isinstance(samples_or_exact, GaussianPosterior)
    const = 0.5 * math.log(2.0 * math.pi * noise.sigma_sq)
    estimates = {}
    if exact and 0.0 in wanted:
        post = samples_or_exact
        resid = testset.Y - testset.X @ post.mean
        w = solve_triangular(
            post.precision.chol_lower, testset.X.T, lower=True, check_finite=False
        )
        predictive_var = np.sum(w * w, axis=0)
        value = float(
            np.mean(0.5 * (resid * resid + predictive_var) / noise.sigma_sq + const)
        )
        estimates[0.0] = RiskEstimate(value=value, std_error=0.0)
    pending = set(wanted) - estimates.keys()
    if pending:
        if exact:
            draws = samples_or_exact.sample(n_draws, np.random.default_rng(seed))
        else:
            draws = samples_or_exact.draws
        m1, m2 = _residual_moments(draws, testset)
        norms = np.linalg.norm(draws, axis=1)
        for dh in pending:
            t = dh * norms
            risks = 0.5 * (m2 + 2.0 * t * m1 + t * t) / noise.sigma_sq + const
            if risks.shape[0] == 1:
                estimates[dh] = RiskEstimate(value=float(risks[0]), std_error=0.0)
                continue
            ess = float(risks.shape[0]) if exact else _effective_sample_size(risks)
            estimates[dh] = RiskEstimate(
                value=float(np.mean(risks)),
                std_error=float(np.std(risks, ddof=1) / math.sqrt(ess)),
            )
    found = tuple(estimates[dh] for dh in wanted)
    return found[0] if radii.ndim == 0 else found

"""Posteriors and their evaluation.

The Gaussian-likelihood Bayes posterior is available in closed form. The
robust posterior replaces the NLL with its adversarial counterpart; it stays
log-concave (convex losses plus Gaussian prior) but loses the closed form, so
it is represented by draws from a Hamiltonian Monte Carlo sampler with
dual-averaging step-size adaptation toward a mean acceptance probability of
0.8, a dense mass matrix and a trajectory length drawn uniformly
from 1 to a maximum on every iteration. Warmup adapts that maximum as well
and freezes it, together with the step size, when it ends.

The sampler runs C chains as one state, (d,) for one chain and (C, d) for
C > 1, through warmup and sampling alike, so each leapfrog step evaluates
the C positions in one call, from one (C, n) residual: at small n a batched
call costs little more than a single one, and a (d,) call less than a
(1, d) batch. The chains start from C draws of a reference Gaussian, the
Bayes posterior in the CLI, so R-hat over them can show a warmup that has
not converged. Warmup's iterations are shared out, ceil(n_warmup / C) per
chain, and its adaptation is pooled over the chains, as ChEES (Hoffman,
Radul & Sountsov, AISTATS 2021) and MEADS (Hoffman & Sountsov, AISTATS
2022) adapt from many short chains. default_n_chains picks C from the
training size and the draws kept.

The mass matrix M = LL' is the reference's precision, an approximation of
the target's (Neal, "MCMC using Hamiltonian dynamics", 2011), and L its
lower Cholesky factor. The momentum is kept in whitened coordinates,
xi ~ N(0, I), so with A = L^{-T} the leapfrog steps are
xi += (eps/2) A'grad(theta) and theta += eps A xi, and the kinetic energy
stays xi'xi/2. A is formed once per run; on a Gaussian target whose
precision is M the dynamics are isotropic. The random length (Neal, 2011)
breaks the resonance a fixed leapfrog count has on near-Gaussian targets.
Each chain carries the log density and gradient of its position, so each
leapfrog step makes one call, value_and_grad(theta, value=True). The
density enters only the energy error at a trajectory's end, so every other
step passes value=False, and a target may then return None in its place,
as robust_log_density_grad does.

robust_log_density_grad screens the residual signs. Each point's loss is
(|e_i| + delta ||theta||)^2 with e_i = x_i'theta - y_i, so the density is
Gaussian in theta wherever every sign of e_i is fixed. With c the
least-squares center (Dataset.sign_screen), D_j = theta_j - c and
r = max_j ||D_j||, a point with q_i = |e_i(c)| / ||x_i|| > r keeps the sign
s_i of e_i(c) under every row (Cauchy-Schwarz, as in safe screening: El
Ghaoui, Viallon & Rabbani, 2012). Those points are a suffix of the points
sorted by q, found by one searchsorted, and the sums over them are kept as
tails from the k-th point on. With G = X'X, c_j = delta ||theta_j|| and U
the other points:
  sum e_i x_i = X'e(c) + G D_j,
  sum e_i^2 = sum e_i(c)^2 + 2 D_j'X'e(c) + D_j'G D_j,
  sum |e_i| = tail(|e_i(c)|) + D_j'tail(s_i x_i) + sum_U |e_i|,
  sum sign(e_i)(|e_i| + c_j) x_i
    = sum e_i x_i + c_j (tail(s_i x_i) + sum_U sign(e_i) x_i),
with the kernel's tie rule, sign(+0.0) = +1. So a call touches only U, as
(C, |U|) arrays, and near the mode most points are fixed: at sweep's
n = 4200 cell (delta = 0.01, d = 5) the screen takes 98-99% of calls, which
skip a median of 3 810-3 860 of the 4 200. The screen's own steps cost
about what one row's pass over 1 200 points does, so it runs only where a
call skips at least that many (_SCREEN_MIN_SKIPPED) and no row is
theta = 0. Every other call, and every call on fewer points, makes the full
pass bit for bit as before.

The maximum length starts at the cap, config.leapfrog_steps. From warmup's
first iteration a Welford running variance of the whitened positions
w = L'theta of every chain is kept in Stan's doubling windows (Carpenter et
al., J. Stat. Softw. 2017): it restarts once the current window holds
max(20, all earlier windows') positions, so windows hold 20, 20, 40, 80, ...
positions in whole iterations, and a distant start's travel inflates only
the early ones. Once a window holds 20, every warmup iteration sets the
maximum to min(cap, max(1, ceil(pi * s_max / eps))), where s_max is the
window's largest whitened standard deviation: a Gaussian's half period, the
length ChEES targets. Until then the last window's length, or the cap, stands.

expected_risk scores a posterior at one test radius or at a sequence of
them. The residual r = y - x'theta does not depend on the radius dh, and the
loss (|r| + dh ||theta||)^2 / (2 sigma^2) + log(2 pi sigma^2)/2 expands into
non-negative terms of mean |r| and mean r^2, so one set of the two means per
set of draws serves every radius.

Both means are taken around the draws' mean c. With r_bar = y - X c and
D_j = theta_j - c, a residual is r_bar_i - x_i'D_j. So mean r^2 is, for
every draw, a quadratic form of [D_j, 1] in the (d+1) x (d+1) Gram matrix
of [X, -r_bar], with no pass over the residuals; centring keeps the sum of
r_bar^2 a direct sum, so the form does not cancel. A test point with
|r_bar_i| > ||x_i|| max_j ||D_j|| keeps the sign of r_bar_i under every
draw (Cauchy-Schwarz), so its |r| is linear in D_j, and the sum over those
points is one (d+1)-vector dotted with [D_j, 1]. The identities are exact,
and only the other points go through a residual pass. On sweep's draws at
2000 x 1e4 test points and d = 5, that is 12-13% of the points at n = 4200
and 63-64% at n = 100; on auto-mpg, all of them.

That pass works in blocks of about 2^17 of those residuals (1 MB,
_BLOCK_CELLS), so a block stays in one core's L2 cache between the GEMM
that writes it and the abs and sum passes that read it. Every block holds
at least 2 draws, unless there is only one: numpy computes a 1-row product
with gemv, not gemm, and gemv's last bits can differ. The blocks are cut
into contiguous parts, one per usable CPU (os.sched_getaffinity) with at
least 2 blocks each, so a call below 4 blocks' worth of residuals runs in
the caller alone. The caller runs the first part and a thread runs each
other one. Threads, not forked processes: numpy releases the GIL in matmul,
einsum and abs, so the parts overlap, and they read the draws and the test
set and write their own slices of the outputs with no copy or pipe. A
draw's means come from the same arithmetic in any block and part, so the
risks do not depend on the CPU count.
"""

from __future__ import annotations

import concurrent.futures
import math
import os
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence, Union

import numpy as np
from scipy.linalg import solve_triangular

from .adversarial_loss import _adv_nll, _check_theta, _sq_rows, _worst_residual
from .errors import DivergentTrajectory, NonFiniteDensity
from .model import Dataset, GaussianPosterior, IsotropicPrior, NoiseModel, SampleSet
from .model import _check_nonnegative
from .numerics import SpdMatrix, spd_solve

__all__ = [
    "HmcConfig",
    "RiskEstimate",
    "bayes_posterior",
    "default_n_chains",
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
# Fewest positions an adaptation window holds and sets the maximum
# trajectory length from.
_LENGTH_MIN_DRAWS = 20


@dataclass(frozen=True)
class HmcConfig:
    """Draws kept in total, warmup iterations in total, the cap on the
    warmup-adapted maximum leapfrog steps per iteration, the seed, and the
    chains that share both: each chain keeps n_samples / n_chains draws,
    which n_chains must divide, after ceil(n_warmup / n_chains) warmup
    iterations."""

    n_samples: int = 4000
    n_warmup: int = 2000
    leapfrog_steps: int = 32
    seed: int = 0
    n_chains: int = 1

    def __post_init__(self):
        for name in ("n_samples", "n_warmup", "leapfrog_steps", "n_chains"):
            v = getattr(self, name)
            if not (isinstance(v, (int, np.integer)) and v >= 1):
                raise ValueError(f"{name} must be a positive integer, got {v!r}")
        if self.n_samples % self.n_chains:
            raise ValueError(
                f"n_chains {self.n_chains} must divide n_samples {self.n_samples}"
            )


# Most rows (chains x training points) one batched call of the robust log
# density may hold. A call keeps two (C, n) arrays alive; past the budget,
# the allocator hands a call fresh pages, each a minor fault on first touch.
# Measured at d = 5 with one BLAS thread, in fresh processes: at 33 600 and
# 40 960 rows, (C, n) = (8, 4200) and (16, 2560), a call took no faults and
# 160-303 us at (8, 4200), where a kernel that held three took 165 and 208
# faults and 465-699 us; at 67 200 rows, (16, 4200), a call took 231.
# Below it a call is bound by numpy dispatch, not by its rows: at n = 274,
# d = 9 one took 64-81 us at C = 8, 80-96 us at 16 and 83-138 us at 32
# (Xeon, one BLAS thread), so 16 chains make about half the calls of 8.
_CHAIN_ROW_BUDGET = 40_960

# Fewest kept draws per chain at which default_n_chains goes past 8 chains.
# Split-R-hat over short chains follows the draws each chain keeps, not C
# or its warmup: on synthetic n = 200, d = 5 at delta = 1.0 (12 HMC seeds),
# it exceeded 1.01 on 7-11 seeds at 125 draws per chain (C = 8, 16, 32),
# on 3 at 250 (C = 8 and 16, with 125-500 warmup iterations each) and on
# none at 500 (C = 8, 16, and 32 with 63 warmup iterations each). 250 is
# the shortest chain the C <= 8 rule already runs at sweep's defaults
# (2000 draws), so 16 chains keep chains no shorter than that: at
# fit-eval's 4000 draws they do, and 32 (125 each) do not.
_MIN_DRAWS_PER_CHAIN = 250


def default_n_chains(n: int, n_samples: int) -> int:
    """The chains the robust sampler runs for n training points and
    n_samples kept draws: the largest C in {16, 8, 4, 2, 1} with
    C * n <= 40960 that divides n_samples, where 16 also needs at least 250
    draws per chain: 8 chains up to n = 5120 and 16 up to 2560."""
    fits = (c for c in (16, 8, 4, 2)
            if c * n <= _CHAIN_ROW_BUDGET and n_samples % c == 0
            and (c <= 8 or n_samples // c >= _MIN_DRAWS_PER_CHAIN))
    return next(fits, 1)


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


def robust_log_density_grad(
    theta, data: Dataset, noise: NoiseModel, prior: IsotropicPrior, delta: float,
    value: bool = True,
) -> tuple[Union[float, np.ndarray, None], np.ndarray]:
    """Unnormalized log density of the robust posterior at theta,
    -adv_nll(theta) - ||theta||^2 / (2 sigma_p^2), and its gradient, both
    from one residual. With value=False the density is not computed and
    None stands in its place; the gradient is the same, bit for bit.

    theta is one point, shape (d,), which gives a float and a (d,) gradient,
    or a batch of C points, shape (C, d), which gives a (C,) array and a
    (C, d) array, one row per point, from one (C, n) residual. Any other
    shape raises DimensionMismatch.

    At the kinks, the |residual| term uses sign(0) := +1 on theta'x - y and
    the delta*||theta|| term uses gradient 0 at theta = 0 — the same
    selections the losses use, for a single point and for each row of a
    batch, so the sampler sees a consistent field.

    Where the sign screen runs (module docstring), both come from the same
    sums taken in another order, equal to the full pass's within rounding
    (1e-12 relative, as tested). Everywhere else they are the full pass bit
    for bit: on fewer than _SCREEN_MIN_SKIPPED points, where d > n or X'X
    does not factorize, for a batch with a theta = 0 row, and where a call
    would skip fewer points than that. value=False gives the gradient of
    the same path bit for bit.
    """
    th = _check_theta(theta, data.d, batch=True)
    screened = _screened_density_grad(th, data, noise, prior, delta, value)
    if screened is not None:
        return screened
    e, grown, sq_norm, norm = _worst_residual(th, data, delta)
    # +grown where e >= 0, -grown where e < 0, branch-free and written over e,
    # so a call holds two (C, n) arrays; np.where's cost jumps on a batch. A
    # tie takes +grown: e = X theta - Y is -0.0 only where X theta is -0.0,
    # and matmul sums from +0.0.
    grad_loss = np.copysign(grown, e, out=e) @ data.X
    if delta > 0.0:
        # delta * sum(grown) / ||theta|| along theta per point; a zero norm
        # divides by 1 instead, so theta = 0 gets 0
        pull = delta * np.add.reduce(grown, axis=-1) / (norm + (norm == 0.0))
        grad_loss += th * pull[..., None]
    grad = -grad_loss / noise.sigma_sq - th / prior.sigma_p_sq
    if not value:
        return None, grad
    return -_adv_nll(grown, data, noise) - 0.5 * sq_norm / prior.sigma_p_sq, grad


# Fewest training points a call must skip for the sign screen to run. The
# screen's own steps (the offset from the center, its reach, the lookup, G D
# and the tails) cost a one-row call about what its pass over this many
# points does. At d = 5 and 11 with one BLAS thread, alternating calls, a
# screened (d,) call broke even with the full pass at 1 200-1 500 skipped
# points at n = 2000 and 4200, and was still slower at 900 of n = 1000;
# at C = 8 it was faster from 500. A floor on the points, not on C times
# them, keeps every call that skips fewer, and every dataset with fewer
# points, on the full pass bit for bit.
_SCREEN_MIN_SKIPPED = 1200


def _screened_density_grad(th, data: Dataset, noise: NoiseModel, prior: IsotropicPrior,
                           delta: float, value: bool):
    """robust_log_density_grad's result from the sign screen, or None where
    the data have no screen or fewer than _SCREEN_MIN_SKIPPED points, theta
    has a zero row, or the call would skip fewer than that. Only the points
    the screen cannot fix, U, are touched, as (C, |U|) arrays; the module
    docstring gives the identities."""
    screen = data.sign_screen if data.n >= _SCREEN_MIN_SKIPPED else None
    if screen is None:
        return None
    dev = th - screen.center
    sq_dev = _sq_rows(dev)
    reach = math.sqrt(sq_dev if th.ndim == 1 else max(sq_dev.tolist()))
    k = int(screen.q.searchsorted(reach, "right"))
    if data.n - k < _SCREEN_MIN_SKIPPED:
        return None
    sq_norm = _sq_rows(th)
    if np.count_nonzero(sq_norm) < sq_norm.size:
        return None
    _check_nonnegative("delta", delta)
    grad_loss = dev @ data.gram
    grad_loss += screen.hx  # sum e_i x_i
    if value:
        sq_sum = screen.sq_sum + _sq_rows(dev, screen.hx + grad_loss)
    if delta > 0.0:
        norm = np.sqrt(sq_norm)
        grow = delta * norm
        xu = screen.x[:k]
        e = th @ xu.T
        e -= screen.y[:k]
        abs_sum = np.add.reduce(np.abs(e), axis=-1)
        abs_sum += screen.abs_tail[k] + dev @ screen.sx_tail[k]
        # sum sign(e_i) x_i: each skipped point's sign is s_i; a tie is +1
        signed = np.copysign(1.0, e, out=e) @ xu
        signed += screen.sx_tail[k]
        grown_sum = abs_sum + data.n * grow
        grad_loss += grow[..., None] * signed
        grad_loss += th * (delta * grown_sum / norm)[..., None]
        if value:
            sq_sum += grow * (grown_sum + abs_sum)
    grad = -grad_loss / noise.sigma_sq - th / prior.sigma_p_sq
    if not value:
        return None, grad
    const = 0.5 * data.n * math.log(2.0 * math.pi * noise.sigma_sq)
    return -(const + 0.5 * sq_sum / noise.sigma_sq) - 0.5 * sq_norm / prior.sigma_p_sq, grad


def _leapfrog(theta, xi, g, eps, n_steps, value_and_grad, a):
    """Leapfrog with whitened momentum xi, theta velocity A xi and start
    gradient g = A'grad; n_steps calls, of which only the last asks for the
    log density. Returns the end's theta, xi, lp, g. A (d,) state is one
    chain and a (C, d) state C chains, one per row."""
    xi = xi + 0.5 * eps * g
    for _ in range(n_steps - 1):
        theta = theta + eps * (xi @ a.T)
        xi = xi + eps * (value_and_grad(theta, value=False)[1] @ a)
    theta = theta + eps * (xi @ a.T)
    lp, grad = value_and_grad(theta)
    g = grad @ a
    xi = xi + 0.5 * eps * g
    return theta, xi, lp, g


def _find_reasonable_epsilon(theta, lp0, g0, value_and_grad, a, rng) -> tuple[float, int]:
    """Double/halve a unit step from theta, whose log density is lp0 and
    whitened gradient g0, until the one-step acceptance crosses 1/2; returns
    the step and the calls of value_and_grad it took."""
    p0 = rng.standard_normal(theta.shape[0])
    h0 = lp0 - 0.5 * float(p0 @ p0)
    eps = 1.0
    for calls in range(1, 61):
        _, p1, lp1, _ = _leapfrog(theta, p0, g0, eps, 1, value_and_grad, a)
        ratio = (lp1 - 0.5 * float(p1 @ p1)) - h0 if math.isfinite(lp1) else -math.inf
        if calls == 1:
            direction = 1.0 if ratio > math.log(0.5) else -1.0
        if direction * ratio <= -direction * math.log(2.0):
            break
        eps *= 2.0 ** direction
    return eps, calls


def hmc_sample(
    value_and_grad: Callable[..., tuple],
    config: HmcConfig,
    reference: GaussianPosterior,
) -> SampleSet:
    """Sample with HMC on C = config.n_chains chains, adapting the step size
    during warmup by dual averaging and the maximum trajectory length by the
    whitened half period.

    value_and_grad(theta, value=True) returns the log density and its
    gradient, as robust_log_density_grad does: for theta of shape (d,), which
    one chain and the step-size search pass, a float and a (d,) array, and
    for theta of shape (C, d), which C > 1 chains pass, a (C,) and a (C, d)
    array, one row per chain. Each chain carries both for its position, so
    each leapfrog step makes one call, and a rejection none. Only a
    trajectory's last call, the chains' starts and the step-size search read
    the density; every other call passes value=False, and the target may
    then return None, or a density that is ignored, with the gradient.

    reference is a Gaussian approximation of the target, N(mu, M^{-1}) with
    M = LL'. Its precision M is the mass matrix, its order is the dimension
    sampled in, and chain c starts at mu + L^{-T} z_c with z_c ~ N(0, I), a
    draw of the reference; all C starts are evaluated in one call, and each
    must have a finite log density. The CLI passes the Bayes posterior
    whole, whose precision matches the robust posterior's scale far better
    than the identity, so the chains start from draws of it.
    The chains then run as one state, (d,) for one chain and (C, d) for
    C > 1: ceil(n_warmup / C) warmup iterations and n_samples / C sampling
    iterations, each of which draws one trajectory length for all chains and
    one momentum and one uniform per chain, so each chain accepts or rejects
    on its own. Warmup's step size starts from a search on chain 0, and its
    dual averaging follows the chains' mean acceptance. Each iteration runs 1
    to max_leapfrog leapfrog steps, drawn uniformly. max_leapfrog starts at
    config.leapfrog_steps; warmup sets it from doubling windows of the
    whitened positions, as the module docstring sets out, and freezes it
    with eps. Sampling continues each chain from its own warmup state.

    Deterministic for a fixed config.seed. The returned SampleSet holds the
    draws chain-major (chain 0's, then chain 1's, ...), max_leapfrog,
    grad_evals, the gradient rows the run evaluated (one per chain per call,
    and one per call of the search), and divergences, the sampling
    transitions over all chains whose energy error exceeded 1000.

    Raises
    ------
    NonFiniteDensity
        if the log density is not finite at some chain's start.
    DivergentTrajectory
        after repeated trajectories of one chain with energy error beyond
        1000.
    """
    chol = reference.precision.chol_lower
    dim = reference.dim
    a = solve_triangular(chol, np.eye(dim), lower=True).T  # A = L^{-T}
    chains = config.n_chains
    shape = (chains, dim) if chains > 1 else (dim,)
    rng = np.random.default_rng(config.seed)
    theta = reference.mean + rng.standard_normal(shape) @ a.T
    lp, grad = value_and_grad(theta)
    lp = np.array(lp, dtype=float)
    if not np.all(np.isfinite(lp)):
        raise NonFiniteDensity(f"log density at the chains' starts is {lp!r}")
    g = grad @ a

    eps, searched = _find_reasonable_epsilon(
        theta.reshape(-1, dim)[0], float(lp.flat[0]), g.reshape(-1, dim)[0],
        value_and_grad, a, rng,
    )
    grad_evals = chains + searched  # the starts' call and the search's

    # Dual-averaging state (shrinkage toward mu, decaying adaptation).
    mu = math.log(10.0 * eps)
    log_eps_bar = 0.0
    h_bar = 0.0
    gamma, t0, kappa = 0.05, 10.0, 0.75

    # Trajectory-length state: the earlier windows' positions, and Welford
    # moments of the current window's whitened positions over the chains.
    max_steps = config.leapfrog_steps
    n_warmup = -(-config.n_warmup // chains)
    w_done, w_count, w_mean, w_m2 = 0, 0, np.zeros(dim), np.zeros(dim)

    consecutive = 0  # each chain's divergences in a row; 0 while none diverges
    divergences = 0
    draws = np.empty((chains, config.n_samples // chains, dim))
    alpha_sum = np.zeros(lp.shape)
    for m in range(1, n_warmup + draws.shape[1] + 1):
        n_steps = int(rng.integers(1, max_steps + 1))
        grad_evals += chains * n_steps
        p0 = rng.standard_normal(shape)
        h0 = lp - 0.5 * np.einsum("...i,...i->...", p0, p0)
        theta_prop, p1, lp_prop, g_prop = _leapfrog(theta, p0, g, eps, n_steps, value_and_grad, a)
        log_ratio = (lp_prop - 0.5 * np.einsum("...i,...i->...", p1, p1)) - h0
        # NaN, and +inf from a non-finite density, reject like -inf
        log_ratio = np.where(log_ratio < math.inf, log_ratio, -math.inf)

        diverged = log_ratio < -_DIVERGENCE_ENERGY
        if diverged.any():
            consecutive = (consecutive + 1) * diverged
            if consecutive.max() >= _MAX_CONSECUTIVE_DIVERGENCES:
                raise DivergentTrajectory(
                    f"{int(consecutive.max())} consecutive divergent trajectories "
                    f"(energy error > {_DIVERGENCE_ENERGY:g}) at step size {eps:g}"
                )
            if m > n_warmup:
                divergences += int(diverged.sum())
        else:
            consecutive = 0  # every chain's count restarts

        alpha = np.exp(np.minimum(log_ratio, 0.0))
        accept = rng.uniform(size=lp.shape) < alpha
        rows = accept[..., None]
        np.copyto(theta, theta_prop, where=rows)
        np.copyto(g, g_prop, where=rows)
        np.copyto(lp, lp_prop, where=accept)

        if m > n_warmup:
            draws[:, m - n_warmup - 1] = theta
            alpha_sum += alpha
            continue
        frac = 1.0 / (m + t0)
        h_bar = (1.0 - frac) * h_bar + frac * (_TARGET_ACCEPT - float(alpha.sum()) / chains)
        log_eps = mu - math.sqrt(m) / gamma * h_bar
        eta = m ** (-kappa)
        log_eps_bar = eta * log_eps + (1.0 - eta) * log_eps_bar
        eps = math.exp(log_eps if m < n_warmup else log_eps_bar)
        if w_count >= max(_LENGTH_MIN_DRAWS, w_done):
            w_done, w_count, w_mean, w_m2 = w_done + w_count, 0, np.zeros(dim), np.zeros(dim)
        # Welford's update, summed over this iteration's C positions
        w = (theta @ chol).reshape(-1, dim)
        dev = w - w_mean
        w_count += w.shape[0]
        w_mean += dev.sum(axis=0) / w_count
        w_m2 += (dev * (w - w_mean)).sum(axis=0)
        if w_count >= _LENGTH_MIN_DRAWS:
            s_max = math.sqrt(float(w_m2.max()) / (w_count - 1))
            half_period = math.pi * s_max / eps
            # "not <" keeps the cap for an infinite or NaN ratio
            max_steps = (
                max(1, math.ceil(half_period))
                if half_period < config.leapfrog_steps
                else config.leapfrog_steps
            )

    return SampleSet(
        draws=draws.reshape(config.n_samples, dim),
        accept_rate=float(alpha_sum.sum()) / config.n_samples,
        step_size=eps,
        grad_evals=grad_evals,
        max_leapfrog=max_steps,
        n_chains=chains,
        divergences=divergences,
    )


class RiskEstimate(NamedTuple):
    """A risk value with its Monte-Carlo standard error (0 for exact values)."""

    value: float
    std_error: float


def _effective_sample_size(series: np.ndarray, n_chains: int = 1) -> float:
    """ESS of a scalar series made of n_chains equal-length chains laid end
    to end, via Geyer's initial positive sequence.

    The autocorrelation at lag k is (acov_k + B) / (acov_0 + B): acov_k is
    the within-chain autocovariance (divided by the chain length) averaged
    over chains, and B the variance of the chain means, so chains that
    disagree read as correlated draws (var+ of Gelman et al., with the
    within-chain variance not rescaled). One chain has B = 0 and gives the
    single-chain estimator; no lag ever pairs the end of one chain with the
    start of the next.
    """
    n = series.shape[0]
    if n < 4:
        return float(n)
    chains = series.reshape(n_chains, -1)
    length = chains.shape[1]
    x = chains - chains.mean(axis=1, keepdims=True)
    between = float(np.var(chains.mean(axis=1), ddof=1)) if n_chains > 1 else 0.0
    var = float(np.vdot(x, x)) / n + between
    if var <= 0.0:
        return float(n)
    nfft = 1 << (2 * length - 1).bit_length()
    f = np.fft.rfft(x, nfft, axis=1)
    acov = np.fft.irfft(f * np.conj(f), nfft, axis=1)[:, :length].real.mean(axis=0) / length
    rho = (acov + between) / (acov[0] + between)
    tau = 0.0
    for k in range(0, length - 1, 2):
        pair = rho[k] + rho[k + 1]
        if pair <= 0.0:
            break
        tau += 2.0 * pair
    tau -= 1.0
    if tau < 1.0:
        tau = 1.0
    return float(min(n, n / tau))


# Residuals per block: 2^17 doubles, 1 MB, stay in one core's L2 cache
# between the GEMM that writes a block and the passes that read it. On the
# draws of sweep's n = 100 cell (2000 x 1e4 test points, 64% of them through
# the pass), d = 5 and one BLAS thread, on a Xeon with 2 MiB of L2 per
# core, a call on one CPU took 22-39 ms (median 23.5) in blocks of 2^22 and
# 12.8-20 ms (median 13.1) in blocks of 2^17, and 13.1-21 ms on two CPUs,
# in alternating runs.
_BLOCK_CELLS = 1 << 17


def _residual_moments(
    draws: np.ndarray, testset: Dataset
) -> tuple[np.ndarray, np.ndarray]:
    """Mean |r| and mean r^2 over the test set, one pair per draw, where
    r = y - x'theta.

    With c the draws' mean, v = [theta - c, 1] and w = [x, -(y - x'c)],
    every residual is -v'w. So the sum of r^2 over the test set is v'Gv,
    with G the Gram matrix of the rows w, and the sum of |r| over the points
    whose sign cannot change is -v'u, with u their rows w summed, each signed
    by its residual at c. One GEMM per block of draws, v [w_pass]', writes
    -r at the other points into its part's one-block buffer, and the abs and
    row sum work in that buffer, so no draws x test array is formed. The
    blocks and the parts are cut over those points as the module docstring
    sets out; every thread that ran a part has ended when the call returns.
    """
    n, m = testset.n, draws.shape[0]
    # the draws' mean bit for bit: for d > 1 numpy's mean adds the rows in
    # order, as this einsum does at about a third of the cost; for d = 1 it
    # sums pairwise, and cheaply
    center = np.einsum("ij->j", draws) / m if draws.shape[1] > 1 else draws.mean(axis=0)
    spread = draws - center
    v = np.column_stack((spread, np.ones(m)))
    w = np.column_stack((testset.X, testset.X @ center - testset.Y))
    m2 = np.einsum("ij,ij->i", v @ (w.T @ w), v)
    # Where |y - x'c| > ||x|| max_j ||theta_j - c||, -r = v'w has the sign
    # of w's last entry under every draw (Cauchy-Schwarz).
    reach = np.linalg.norm(testset.X, axis=1) * math.sqrt(_sq_rows(spread).max())
    fixed = np.abs(w[:, -1]) > reach
    m1 = v @ (np.sign(w[:, -1]) * fixed @ w)
    w_pass = w[~fixed]
    cols = w_pass.shape[0]
    blocks = max(1, min(m // 2, m * cols // _BLOCK_CELLS))
    bounds = [m * b // blocks for b in range(blocks + 1)]

    def run(first: int, last: int) -> None:
        buf = np.empty((-(-m // blocks), cols))
        for start, stop in zip(bounds[first:last], bounds[first + 1 : last + 1]):
            r = buf[: stop - start]
            np.matmul(v[start:stop], w_pass.T, out=r)
            np.abs(r, out=r)
            m1[start:stop] += np.einsum("ij->i", r)

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    parts = max(1, min(cpus, blocks // 2))
    cuts = [blocks * p // parts for p in range(parts + 1)]
    with concurrent.futures.ThreadPoolExecutor(max(1, parts - 1)) as pool:
        others = [pool.submit(run, a, b) for a, b in zip(cuts[1:-1], cuts[2:])]
        run(cuts[0], cuts[1])
        for other in others:
            other.result()  # raises what the part raised
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
    radius's per-draw risks over the set's chains.

    Raises ValueError for a radius that is not finite and >= 0, for an
    n_draws that is not an integer >= 1 and for a posterior whose dimension
    differs from the test set's.
    """
    radii = np.asarray(delta_test, dtype=float)
    if radii.ndim > 1:
        raise ValueError(f"delta_test must be a float or a sequence, got shape {radii.shape}")
    wanted = radii.reshape(-1).tolist()
    for dh in wanted:
        _check_nonnegative("delta_test", dh)
    if isinstance(n_draws, bool) or not (
        isinstance(n_draws, (int, np.integer)) and n_draws >= 1
    ):
        raise ValueError(f"n_draws must be a positive integer, got {n_draws!r}")
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
            ess = (
                float(risks.shape[0]) if exact
                else _effective_sample_size(risks, samples_or_exact.n_chains)
            )
            estimates[dh] = RiskEstimate(
                value=float(np.mean(risks)),
                std_error=float(np.std(risks, ddof=1) / math.sqrt(ess)),
            )
    found = tuple(estimates[dh] for dh in wanted)
    return found[0] if radii.ndim == 0 else found

import math

import numpy as np
import pytest

from certbayes import (
    HmcConfig,
    IsotropicPrior,
    NoiseModel,
    RiskEstimate,
    SampleSet,
    bayes_posterior,
    expected_risk,
    hmc_sample,
    robust_log_density_grad,
    robust_log_density_unnorm,
    validate_dataset,
)
from certbayes.errors import DimensionMismatch, DivergentTrajectory, NonFiniteDensity
from certbayes.posterior import _effective_sample_size

from oracles import central_difference_gradient


def _problem(seed, n=30, d=3, sigma_sq=1.0, sigma_p_sq=1.0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    y = x @ rng.standard_normal(d) * 0.5 + math.sqrt(sigma_sq) * rng.standard_normal(n)
    return validate_dataset(x, y), NoiseModel(sigma_sq), IsotropicPrior(sigma_p_sq)


# --- exact posterior ------------------------------------------------------------


def test_bayes_posterior_no_signal():
    ds = validate_dataset(np.zeros((4, 2)), np.array([1.0, -1.0, 0.5, 0.0]))
    post = bayes_posterior(ds, NoiseModel(1.0), IsotropicPrior(0.25))
    np.testing.assert_allclose(post.mean, 0.0, atol=1e-15)
    np.testing.assert_allclose(post.precision.entries, 4.0 * np.eye(2), rtol=1e-14)


def test_bayes_posterior_hand_value():
    ds = validate_dataset(np.array([[1.0]]), np.array([1.0]))
    post = bayes_posterior(ds, NoiseModel(1.0), IsotropicPrior(1.0))
    assert post.precision.entries[0, 0] == pytest.approx(2.0)
    assert post.mean[0] == pytest.approx(0.5)


def test_bayes_posterior_mean_minimizes_ridge_objective():
    for seed in range(5):
        ds, noise, prior = _problem(seed)
        post = bayes_posterior(ds, noise, prior)
        grad = (
            -(ds.X.T @ (ds.Y - ds.X @ post.mean)) / noise.sigma_sq
            + post.mean / prior.sigma_p_sq
        )
        assert np.linalg.norm(grad) <= 1e-9


# --- robust log density -----------------------------------------------------------


def test_robust_log_density_reduces_to_bayes_at_delta_zero():
    ds, noise, prior = _problem(2)
    post = bayes_posterior(ds, noise, prior)
    rng = np.random.default_rng(3)
    for _ in range(10):
        t1, t2 = rng.standard_normal(ds.d), rng.standard_normal(ds.d)
        got = robust_log_density_unnorm(t1, ds, noise, prior, 0.0) - (
            robust_log_density_unnorm(t2, ds, noise, prior, 0.0)
        )
        # exact Gaussian log posterior difference via the quadratic form
        def quad(t):
            dev = t - post.mean
            return -0.5 * float(dev @ (post.precision.entries @ dev))

        assert got == pytest.approx(quad(t1) - quad(t2), rel=1e-9, abs=1e-9)


def test_robust_log_density_monotone_in_delta():
    ds, noise, prior = _problem(4)
    theta = np.full(ds.d, 0.3)
    values = [
        robust_log_density_unnorm(theta, ds, noise, prior, delta)
        for delta in (0.0, 0.1, 0.5, 1.0, 3.0)
    ]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_robust_log_density_finite():
    ds, noise, prior = _problem(5)
    for theta in (np.zeros(ds.d), np.full(ds.d, 1e6), np.full(ds.d, -1e4)):
        assert math.isfinite(robust_log_density_unnorm(theta, ds, noise, prior, 0.7))


def test_grad_delta_zero_reduction():
    ds, noise, prior = _problem(6)
    theta = np.random.default_rng(0).standard_normal(ds.d)
    got = robust_log_density_grad(theta, ds, noise, prior, 0.0)
    want = (ds.X.T @ (ds.Y - ds.X @ theta)) / noise.sigma_sq - theta / prior.sigma_p_sq
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_grad_at_origin_with_positive_delta():
    ds, noise, prior = _problem(7)
    theta = np.zeros(ds.d)
    got = robust_log_density_grad(theta, ds, noise, prior, 0.9)
    # the delta*||theta|| term contributes nothing at theta = 0
    u = np.where(-ds.Y >= 0, 1.0, -1.0)
    want = -(ds.X.T @ (np.abs(ds.Y) * u)) / noise.sigma_sq
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_grad_at_zero_residual_takes_sign_plus_one():
    # theta = (3, 4), ||theta|| = 5, residuals y - x'theta = (0, -2, 1): the
    # first is an exact tie. With sign(x'theta - y) = (+1, +1, -1) and
    # |r| + delta ||theta|| = (5, 7, 6) at delta = 1,
    # grad loss = X'(5, 7, -6) + (18 / 5) theta = (12, -5) + (10.8, 14.4).
    x = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 2.0]])
    ds = validate_dataset(x, np.array([3.0, 5.0, 9.0]))
    theta = np.array([3.0, 4.0])
    got = robust_log_density_grad(theta, ds, NoiseModel(2.0), IsotropicPrior(4.0), 1.0)
    want = -np.array([22.8, 9.4]) / 2.0 - theta / 4.0
    np.testing.assert_allclose(got, want, rtol=1e-14)


def test_grad_matches_finite_differences():
    ds, noise, prior = _problem(8, n=20, d=4)
    rng = np.random.default_rng(1)
    for delta in (0.0, 0.25, 1.0):
        checked = 0
        while checked < 25:
            theta = rng.standard_normal(ds.d)
            r = ds.Y - ds.X @ theta
            if np.min(np.abs(r)) < 1e-3 or np.linalg.norm(theta) < 1e-2:
                continue  # too close to a kink for finite differences
            got = robust_log_density_grad(theta, ds, noise, prior, delta)
            fd = central_difference_gradient(
                lambda t: robust_log_density_unnorm(t, ds, noise, prior, delta), theta
            )
            np.testing.assert_allclose(got, fd, rtol=1e-4, atol=1e-6)
            checked += 1


# --- HMC ---------------------------------------------------------------------------


def _std_normal_target(dim):
    return (
        lambda t: -0.5 * float(t @ t),
        lambda t: -t,
        dim,
    )


def test_hmc_standard_normal_moments():
    logp, grad, dim = _std_normal_target(2)
    out = hmc_sample(logp, grad, dim, HmcConfig(n_samples=5000, n_warmup=1000, seed=42))
    assert np.all(np.abs(out.draws.mean(axis=0)) <= 3.0 / math.sqrt(5000) * 3)
    cov = np.cov(out.draws.T)
    assert np.linalg.norm(cov - np.eye(2)) / np.linalg.norm(np.eye(2)) <= 0.10


def test_hmc_acceptance_band():
    logp, grad, dim = _std_normal_target(3)
    cfg = HmcConfig(n_samples=2000, n_warmup=1000, seed=5)
    out = hmc_sample(logp, grad, dim, cfg)
    assert 0.8 - 0.15 <= out.accept_rate <= 0.8 + 0.10  # warmup targets 0.8


def test_hmc_deterministic():
    logp, grad, dim = _std_normal_target(2)
    cfg = HmcConfig(n_samples=500, n_warmup=300, seed=123)
    a = hmc_sample(logp, grad, dim, cfg)
    b = hmc_sample(logp, grad, dim, cfg)
    assert np.array_equal(a.draws, b.draws)
    assert a.accept_rate == b.accept_rate and a.step_size == b.step_size


def test_hmc_rejects_nonfinite_origin():
    with pytest.raises(NonFiniteDensity):
        hmc_sample(
            lambda t: -math.inf,
            lambda t: np.zeros_like(t),
            2,
            HmcConfig(n_samples=10, n_warmup=10, seed=0),
        )


def test_hmc_divergence_error():
    # finite only exactly at the origin: every proposal is rejected with an
    # infinite energy error, which must eventually raise
    def logp(t):
        return 0.0 if float(t @ t) == 0.0 else -math.inf

    with pytest.raises(DivergentTrajectory):
        hmc_sample(
            logp,
            lambda t: np.zeros_like(t),
            2,
            HmcConfig(n_samples=100, n_warmup=100, seed=0),
        )


def test_hmc_mass_matrix_recovers_ill_conditioned_gaussian():
    # A rotated 4-d Gaussian whose precision has condition number 1e4.
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    precision = (q * np.geomspace(1.0, 1e4, 4)) @ q.T
    precision = 0.5 * (precision + precision.T)
    mean = rng.standard_normal(4)
    assert np.linalg.cond(precision) >= 1e3
    cov = np.linalg.inv(precision)

    def logp(t):
        r = t - mean
        return -0.5 * float(r @ (precision @ r))

    out = hmc_sample(
        logp, lambda t: -(precision @ (t - mean)), mean.shape[0],
        HmcConfig(n_samples=4000, n_warmup=1000, leapfrog_steps=8, seed=7),
        mass_chol=np.linalg.cholesky(precision),
    )
    for j in range(mean.shape[0]):
        series = out.draws[:, j]
        mcse = series.std(ddof=1) / math.sqrt(_effective_sample_size(series))
        assert abs(series.mean() - mean[j]) <= 3.0 * mcse
    rel = np.linalg.norm(np.cov(out.draws.T) - cov) / np.linalg.norm(cov)
    assert rel <= 0.10


def test_hmc_identity_mass_matrix_is_the_default():
    logp, grad, dim = _std_normal_target(3)
    cfg = HmcConfig(n_samples=300, n_warmup=200, leapfrog_steps=6, seed=9)
    plain = hmc_sample(logp, grad, dim, cfg)
    unit = hmc_sample(logp, grad, dim, cfg, mass_chol=np.eye(dim))
    assert plain.draws.tobytes() == unit.draws.tobytes()
    assert (plain.accept_rate, plain.step_size) == (unit.accept_rate, unit.step_size)


def test_hmc_rejects_mass_factor_of_wrong_shape():
    logp, grad, dim = _std_normal_target(3)
    with pytest.raises(DimensionMismatch):
        hmc_sample(logp, grad, dim, HmcConfig(n_samples=10, n_warmup=10),
                   mass_chol=np.eye(2))


def test_hmc_trajectory_lengths_are_drawn_up_to_the_maximum():
    """Each iteration evaluates the log density once, after its trajectory;
    the gradient calls since the previous evaluation are that trajectory's."""
    cfg = HmcConfig(n_samples=400, n_warmup=200, leapfrog_steps=5, seed=3)
    per_trajectory, pending = [], [0]

    def logp(t):
        per_trajectory.append(pending[0])
        pending[0] = 0
        return -0.5 * float(t @ t)

    def grad(t):
        pending[0] += 1
        return -t

    hmc_sample(logp, grad, 2, cfg)
    calls = per_trajectory[-(cfg.n_warmup + cfg.n_samples):]
    assert all(2 <= c <= cfg.leapfrog_steps + 1 for c in calls)
    assert set(calls) == set(range(2, cfg.leapfrog_steps + 2))


def test_hmc_random_length_breaks_resonance():
    """A fixed count of 8 steps nearly resonates on a 9-d unit Gaussian, so
    some coordinate mixes slowly: the min-ESS of 4000 draws read 1985, 970
    and 1416 for seeds 0-2 with a fixed count and +/-20% step jitter. A
    length drawn from 1..8 each iteration keeps every seed above half the
    draws."""
    logp, grad, dim = _std_normal_target(9)
    for seed in range(3):
        out = hmc_sample(
            logp, grad, dim,
            HmcConfig(n_samples=4000, n_warmup=1000, leapfrog_steps=8, seed=seed),
        )
        min_ess = min(_effective_sample_size(out.draws[:, j]) for j in range(dim))
        assert min_ess >= 2000, f"seed {seed}: min-ESS {min_ess:.0f} of 4000"


def test_hmc_config_validation():
    with pytest.raises(ValueError):
        HmcConfig(n_samples=0)


# --- expected risk -------------------------------------------------------------------


def test_expected_risk_exact_matches_mc():
    ds, noise, prior = _problem(10, n=40, d=3)
    test, _, _ = _problem(11, n=500, d=3)
    post = bayes_posterior(ds, noise, prior)
    exact = expected_risk(post, test, noise, 0.0)
    assert exact.std_error == 0.0

    draws = post.sample(20000, np.random.default_rng(5))
    sample_set = SampleSet(draws=draws, seed=5, accept_rate=1.0, step_size=1.0)
    mc = expected_risk(sample_set, test, noise, 0.0)
    # i.i.d. draws, so the plain MC standard error applies
    assert abs(mc.value - exact.value) <= 3 * mc.std_error + 1e-12


def test_expected_risk_single_draw_at_truth():
    rng = np.random.default_rng(12)
    theta_star = rng.standard_normal(3)
    x = rng.standard_normal((50, 3))
    test = validate_dataset(x, x @ theta_star)  # noiseless labels
    ss = SampleSet(
        draws=theta_star[None, :], seed=0, accept_rate=1.0, step_size=1.0
    )
    sigma_sq = 0.7
    out = expected_risk(ss, test, NoiseModel(sigma_sq), 0.0)
    assert out.value == pytest.approx(0.5 * math.log(2 * math.pi * sigma_sq), abs=1e-12)
    assert out.std_error == 0.0


def test_expected_risk_nondecreasing_in_delta():
    ds, noise, prior = _problem(13)
    post = bayes_posterior(ds, noise, prior)
    test, _, _ = _problem(14, n=200, d=3)
    values = [
        expected_risk(post, test, noise, dh, n_draws=2000, seed=3).value
        for dh in (0.0, 0.1, 0.3, 0.8)
    ]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_expected_risk_is_named_tuple():
    est = RiskEstimate(value=1.0, std_error=0.1)
    v, se = est
    assert (v, se) == (1.0, 0.1)


def test_effective_sample_size_bounds():
    rng = np.random.default_rng(0)
    iid = rng.standard_normal(4000)
    ess_iid = _effective_sample_size(iid)
    assert 0.5 * 4000 <= ess_iid <= 4000
    # an AR(1) chain with strong positive correlation has far fewer
    # effective draws
    ar = np.empty(4000)
    ar[0] = 0.0
    for i in range(1, 4000):
        ar[i] = 0.95 * ar[i - 1] + rng.standard_normal()
    assert _effective_sample_size(ar) < 1000

import concurrent.futures
import math
import threading
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from certbayes import (
    GaussianPosterior,
    HmcConfig,
    IsotropicPrior,
    NoiseModel,
    RiskEstimate,
    SampleSet,
    SplitSpec,
    SpdMatrix,
    SyntheticSpec,
    bayes_posterior,
    expected_risk,
    gaussian_adv_nll,
    generate_synthetic,
    hmc_sample,
    load_csv,
    robust_log_density_grad,
    split,
    standardize_fit_transform,
    validate_dataset,
)
from certbayes import posterior
from certbayes.errors import DimensionMismatch, DivergentTrajectory, NonFiniteDensity
from certbayes.model import _own_dataset
from certbayes.posterior import _effective_sample_size

from oracles import central_difference_gradient

AUTO_MPG = Path(__file__).resolve().parents[1] / "data" / "auto_mpg.csv"


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
        got = robust_log_density_grad(t1, ds, noise, prior, 0.0)[0] - (
            robust_log_density_grad(t2, ds, noise, prior, 0.0)[0]
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
        robust_log_density_grad(theta, ds, noise, prior, delta)[0]
        for delta in (0.0, 0.1, 0.5, 1.0, 3.0)
    ]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_robust_log_density_finite():
    ds, noise, prior = _problem(5)
    for theta in (np.zeros(ds.d), np.full(ds.d, 1e6), np.full(ds.d, -1e4)):
        assert math.isfinite(robust_log_density_grad(theta, ds, noise, prior, 0.7)[0])


def test_robust_log_density_is_minus_the_adversarial_nll_and_prior_term():
    """Bit for bit, for the value the fused call returns."""
    ds, noise, prior = _problem(9, n=50, d=4)
    rng = np.random.default_rng(4)
    for delta in (0.0, 0.1, 2.0):
        for theta in (np.zeros(ds.d), *rng.standard_normal((5, ds.d))):
            want = (
                -gaussian_adv_nll(theta, ds, noise, delta).value
                - 0.5 * float(theta @ theta) / prior.sigma_p_sq
            )
            assert robust_log_density_grad(theta, ds, noise, prior, delta)[0] == want


@pytest.mark.parametrize("delta", [math.nan, math.inf, -0.1])
def test_grad_rejects_a_delta_that_is_not_finite_and_nonnegative(delta):
    ds, noise, prior = _problem(9, n=20, d=3)
    with pytest.raises(ValueError, match="delta"):
        robust_log_density_grad(np.ones(ds.d), ds, noise, prior, delta)


def test_grad_rejects_theta_of_the_wrong_length():
    """A point must have d entries and a batch must be (C, d); a (1, d)
    batch is valid (see test_batched_call_rows_equal_single_calls)."""
    ds, noise, prior = _problem(9, n=20, d=3)
    for theta in (
        np.zeros(ds.d + 1), np.zeros(ds.d - 1), np.zeros((4, ds.d + 1)), np.zeros((2, ds.d - 1)),
        np.zeros((1, 1, ds.d)), np.zeros((2, 4, ds.d)), np.float64(0.0),
    ):
        with pytest.raises(DimensionMismatch):
            robust_log_density_grad(theta, ds, noise, prior, 0.1)


def test_grad_without_the_value_is_the_same_gradient():
    """value=False gives None for the log density and the gradient a
    value=True call gives, bit for bit: for a point and a batch, at
    delta = 0 and delta > 0, and at theta = 0, where the delta term pulls
    with 0."""
    ds, noise, prior = _problem(12, n=40, d=3)
    rng = np.random.default_rng(12)
    batch = rng.standard_normal((4, ds.d))
    batch[2] = 0.0
    for theta in (rng.standard_normal(ds.d), np.zeros(ds.d), batch):
        for delta in (0.0, 0.1, 1.0):
            _, want = robust_log_density_grad(theta, ds, noise, prior, delta)
            skipped, got = robust_log_density_grad(theta, ds, noise, prior, delta, value=False)
            assert skipped is None
            assert np.array_equal(got, want) and got.tobytes() == want.tobytes(), (theta, delta)


def test_grad_without_the_value_checks_theta_and_delta_alike():
    """value=False refuses a theta of the wrong shape and a bad delta with
    the errors and messages of a value=True call."""
    ds, noise, prior = _problem(9, n=20, d=3)
    for theta, delta, error in (
        (np.zeros(ds.d + 1), 0.1, DimensionMismatch),
        (np.zeros((2, 4, ds.d)), 0.1, DimensionMismatch),
        (np.ones(ds.d), math.nan, ValueError),
        (np.ones(ds.d), -0.1, ValueError),
        (np.ones((2, ds.d)), math.inf, ValueError),
    ):
        messages = []
        for value in (True, False):
            with pytest.raises(error) as raised:
                robust_log_density_grad(theta, ds, noise, prior, delta, value=value)
            messages.append(str(raised.value))
        assert messages[0] == messages[1]


def _straight_line_gradient(theta, data, noise, prior, delta):
    """The gradient as it was computed before the log density joined it."""
    th = np.asarray(theta, dtype=float)
    r = data.Y - data.X @ th
    theta_norm = math.sqrt(th @ th)
    grown = np.abs(r) + delta * theta_norm
    grad_loss = data.X.T @ np.where(r <= 0.0, grown, -grown)
    if delta > 0.0 and theta_norm > 0.0:
        grad_loss = grad_loss + (delta * float(grown.sum()) / theta_norm) * th
    return -grad_loss / noise.sigma_sq - th / prior.sigma_p_sq


def test_fused_gradient_is_the_straight_line_formula_bit_for_bit():
    """On standardized auto-mpg, at theta = 0, the Bayes mean and points
    around it."""
    data = load_csv(AUTO_MPG, "mpg")
    train, _ = standardize_fit_transform(*split(data, SplitSpec(train_fraction=0.7, seed=0)))
    noise, prior = NoiseModel(1.0), IsotropicPrior(0.05)
    mean = bayes_posterior(train, noise, prior).mean
    rng = np.random.default_rng(13)
    thetas = (np.zeros(train.d), mean, *(mean + 0.1 * rng.standard_normal((8, train.d))))
    for delta in (0.0, 0.1, 1.0):
        for theta in thetas:
            _, got = robust_log_density_grad(theta, train, noise, prior, delta)
            want = _straight_line_gradient(theta, train, noise, prior, delta)
            assert got.tobytes() == want.tobytes(), (delta, theta)


def _three_array_gradient(theta, data, noise, prior, delta):
    """The value and gradient as computed while a batched call held three
    (C, n) arrays at once: |e| grown by a double-transposed add, and the
    value squared into a new array."""
    th = np.asarray(theta, dtype=float)
    e = th @ data.X.T
    e -= data.Y
    sq_norm = th @ th if th.ndim == 1 else np.einsum("ij,ij->i", th, th)
    norm = np.sqrt(sq_norm) if delta > 0.0 else None
    grown = np.abs(e) if norm is None else (np.abs(e).T + delta * norm).T
    const = 0.5 * data.n * math.log(2.0 * math.pi * noise.sigma_sq)
    adv_nll = const + 0.5 * (grown * grown).sum(axis=-1) / noise.sigma_sq
    grad_loss = np.copysign(grown, e) @ data.X
    if delta > 0.0:
        pull = delta * grown.sum(axis=-1) / (norm + (norm == 0.0))
        grad_loss += (th.T * pull).T
    return (-adv_nll - 0.5 * sq_norm / prior.sigma_p_sq,
            -grad_loss / noise.sigma_sq - th / prior.sigma_p_sq)


def _chain_batch(chains, n, seed):
    """A synthetic d = 5 problem at the criterion-5 scales and a (chains, 5)
    batch around its Bayes mean, whose row 1 is theta = 0."""
    ds, noise, prior = _problem(seed, n=n, d=5, sigma_sq=1.0 / 9.0, sigma_p_sq=0.01)
    mean = bayes_posterior(ds, noise, prior).mean
    batch = mean + 0.05 * np.random.default_rng(seed).standard_normal((chains, 5))
    batch[1] = 0.0
    return ds, noise, prior, batch


@pytest.mark.parametrize("chains, n", [(8, 4200), (16, 2560)])
def test_batched_call_at_the_row_budget_is_the_three_array_formula_bit_for_bit(chains, n):
    ds, noise, prior, batch = _chain_batch(chains, n, seed=chains)
    for delta in (0.0, 0.01, 1.0):
        got = robust_log_density_grad(batch, ds, noise, prior, delta)
        want = _three_array_gradient(batch, ds, noise, prior, delta)
        assert got[0].tobytes() == want[0].tobytes(), delta
        assert got[1].tobytes() == want[1].tobytes(), delta


def test_small_calls_are_the_three_array_formula_bit_for_bit():
    """(d,) points and batches of 1 to 32 rows, n 1-399, d 1-11, theta
    scaled from 0 to 1e3, with a theta = 0 row in every batch."""
    rng = np.random.default_rng(23)
    for case in range(120):
        n, d = int(rng.integers(1, 400)), int(rng.integers(1, 12))
        ds = validate_dataset(rng.standard_normal((n, d)), rng.standard_normal(n))
        noise, prior = NoiseModel(float(rng.uniform(0.1, 2.0))), IsotropicPrior(0.5)
        chains = (0, 1, 2, 4, 8, 16, 32)[case % 7]
        theta = (0.0, 1e-3, 1.0, 1e3)[case % 4] * rng.standard_normal(
            (chains, d) if chains else d
        )
        if chains > 1:
            theta[case % chains] = 0.0
        for delta in (0.0, 0.01, 1.0):
            got = robust_log_density_grad(theta, ds, noise, prior, delta)
            want = _three_array_gradient(theta, ds, noise, prior, delta)
            assert np.asarray(got[0]).tobytes() == np.asarray(want[0]).tobytes()
            assert got[1].tobytes() == want[1].tobytes(), (case, delta)


@pytest.mark.parametrize("chains, n", [(8, 4200), (16, 2560)])
def test_batched_call_holds_two_chain_by_point_arrays(chains, n):
    """One call at the row budget peaks below 2.5 (C, n) float arrays, so it
    holds the prediction error and the grown residuals and no third array,
    with the log density and without it.
    posterior._CHAIN_ROW_BUDGET rests on this bound: a call that held three
    took 165-208 minor page faults per call at these sizes."""
    ds, noise, prior, batch = _chain_batch(chains, n, seed=chains)
    for value in (True, False):
        robust_log_density_grad(batch, ds, noise, prior, 0.01, value)
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            robust_log_density_grad(batch, ds, noise, prior, 0.01, value)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if started:
                tracemalloc.stop()
        assert peak < 2.5 * 8 * chains * n, value


# --- sign screen ----------------------------------------------------------------
# Tolerances of a screened call against the three-array formula, fixed before
# any run: the value relative to itself, each gradient row relative to its
# largest entry.
_SCREEN_VALUE_RTOL = 1e-12
_SCREEN_GRAD_RTOL = 1e-12


def _screen_result(theta, ds, noise, prior, delta, value=True):
    """What the sign screen gives at theta, or None where it does not run."""
    th = np.asarray(theta, dtype=float)
    return posterior._screened_density_grad(th, ds, noise, prior, delta, value)


def _skipped(theta, screen):
    """How many points, the last in the screen's order, a call at theta skips."""
    dev = np.atleast_2d(theta) - screen.center
    reach = math.sqrt(np.max(np.einsum("ij,ij->i", dev, dev)))
    return len(screen.q) - int(np.searchsorted(screen.q, reach, side="right"))


def _assert_rows_close(got, want):
    values, wanted = np.atleast_1d(got[0]), np.atleast_1d(want[0])
    assert np.all(np.abs(values - wanted) <= _SCREEN_VALUE_RTOL * np.abs(wanted)), (values, wanted)
    grads, wanted = np.atleast_2d(got[1]), np.atleast_2d(want[1])
    scale = np.abs(wanted).max(axis=1, keepdims=True)
    assert np.all(np.abs(grads - wanted) <= _SCREEN_GRAD_RTOL * scale), (grads, wanted)


def _assert_skipped_signs_hold(theta, screen):
    """Every skipped point's residual x'theta - y has the screen's sign s_i
    (+1 at a tie) on every row."""
    first = len(screen.q) - _skipped(theta, screen)
    resid = np.atleast_2d(theta) @ screen.x[first:].T - screen.y[first:]
    assert np.array_equal(np.where(resid >= 0.0, 1.0, -1.0), np.broadcast_to(
        screen.sign[first:], resid.shape))


def _screen_problem(seed, n, d):
    """A criterion-5-like problem, y = x'beta / 2 + noise of variance 1/9."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    y = 0.5 * x @ rng.standard_normal(d) + rng.standard_normal(n) / 3.0
    return validate_dataset(x, y), NoiseModel(1.0 / 9.0), IsotropicPrior(0.01)


def _check_against_three_array(theta, ds, noise, prior, delta):
    """The call at theta: the screen's result within the tolerances above,
    with its skipped signs and its value=False gradient bit for bit, or,
    where the screen does not run, the three-array formula bit for bit.
    Returns whether the screen ran."""
    got = robust_log_density_grad(theta, ds, noise, prior, delta)
    want = _three_array_gradient(theta, ds, noise, prior, delta)
    screened = _screen_result(theta, ds, noise, prior, delta)
    if screened is None:
        assert np.asarray(got[0]).tobytes() == np.asarray(want[0]).tobytes()
        assert got[1].tobytes() == want[1].tobytes()
        return False
    assert np.shape(got[0]) == np.shape(want[0]) and got[1].shape == want[1].shape
    assert np.asarray(got[0]).tobytes() == np.asarray(screened[0]).tobytes()
    assert got[1].tobytes() == screened[1].tobytes()
    _assert_rows_close(got, want)
    _assert_skipped_signs_hold(theta, ds.sign_screen)
    skipped, grad = robust_log_density_grad(theta, ds, noise, prior, delta, value=False)
    assert skipped is None and grad.tobytes() == got[1].tobytes()
    return True


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(posterior._SCREEN_MIN_SKIPPED, 5000),
    d=st.integers(1, 11),
    chains=st.sampled_from([1, 2, 4, 8, 16]),
    point=st.booleans(),
    delta=st.sampled_from([0.0, 0.01, 0.3, 1.0]),
    scale=st.sampled_from([0.0, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0]),
)
def test_screened_calls_match_the_three_array_formula(seed, n, d, chains, point, delta, scale):
    """Around the least-squares center, at scales where the screen runs and
    where it falls back; chains = 1 is also a (d,) point."""
    ds, noise, prior = _screen_problem(seed, n, d)
    shape = (d,) if chains == 1 and point else (chains, d)
    theta = ds.sign_screen.center + scale * np.random.default_rng(seed).standard_normal(shape)
    _check_against_three_array(theta, ds, noise, prior, delta)


def test_the_screen_runs_near_its_center_and_falls_back_far_from_it():
    """The property test's scales take both branches: at n = 4200, d = 5
    the screen runs within 1e-2 of the center and skips at least the floor,
    and falls back from 1.0 on, where too few points keep their sign."""
    ds, noise, prior = _screen_problem(5, 4200, 5)
    rng = np.random.default_rng(5)
    for scale, runs in ((0.0, True), (1e-3, True), (1e-2, True), (1.0, False), (10.0, False)):
        for shape in ((5,), (8, 5)):
            theta = ds.sign_screen.center + scale * rng.standard_normal(shape)
            assert (_skipped(theta, ds.sign_screen) >= posterior._SCREEN_MIN_SKIPPED) == runs
            for delta in (0.0, 0.01, 1.0):
                assert _check_against_three_array(theta, ds, noise, prior, delta) == runs


def test_a_screened_call_holds_no_chain_by_point_array():
    """At (8, 4200) near the center, where the sampler spends its calls, a
    screened call peaks below one (C, n) float array, with the log density
    and without it."""
    ds, noise, prior = _screen_problem(8, 4200, 5)
    batch = ds.sign_screen.center + 0.01 * np.random.default_rng(8).standard_normal((8, 5))
    for value in (True, False):
        assert _screen_result(batch, ds, noise, prior, 0.01, value) is not None
        robust_log_density_grad(batch, ds, noise, prior, 0.01, value)
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            robust_log_density_grad(batch, ds, noise, prior, 0.01, value)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if started:
                tracemalloc.stop()
        assert peak < 8 * batch.shape[0] * ds.n, value


def test_a_dataset_below_the_floor_builds_no_screen():
    ds, noise, prior = _screen_problem(3, posterior._SCREEN_MIN_SKIPPED - 1, 3)
    for delta in (0.0, 0.3):
        robust_log_density_grad(np.full((4, 3), 0.1), ds, noise, prior, delta)
    assert "sign_screen" not in vars(ds)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_screen_with_zero_feature_rows():
    """A zero row keeps its residual -y under every theta: with y != 0 the
    screen skips it under its sign, and with y = 0 its residual is +0.0, a
    tie, which takes +1; neither divides 0 by 0."""
    ds, noise, prior = _screen_problem(11, 3000, 4)
    x, y = ds.X.copy(), ds.Y.copy()
    x[:40] = 0.0
    y[:20] = 0.0
    ds = validate_dataset(x, y)
    screen = ds.sign_screen
    zero = np.all(screen.x == 0.0, axis=1)
    assert zero.sum() == 40 and np.all(np.isinf(screen.q[zero]))
    assert np.all(screen.sign[zero & (screen.y == 0.0)] == 1.0)
    assert np.all(screen.sign[zero & (screen.y != 0.0)] == -np.sign(screen.y[zero & (screen.y != 0.0)]))
    rng = np.random.default_rng(11)
    for shape in ((4,), (8, 4)):
        theta = screen.center + 0.01 * rng.standard_normal(shape)
        for delta in (0.0, 0.01, 1.0):
            assert _check_against_three_array(theta, ds, noise, prior, delta)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_screen_with_a_zero_residual_at_the_center_and_duplicate_rows():
    """x = 1 and y = 3 + k for k in -3..3, 4096 points: the center is 3
    exactly, so the points with y = 3 have e(c) = +0.0, q = 0 and sign +1 and
    are never skipped, while every point is one of 7 duplicate rows."""
    y = 3.0 + np.append(np.tile(np.arange(-3.0, 4.0), 585), 0.0)
    assert y.shape == (4096,) and y.sum() == 3.0 * 4096
    ds, noise, prior = validate_dataset(np.ones((4096, 1)), y), NoiseModel(1.0), IsotropicPrior(1.0)
    screen = ds.sign_screen
    assert screen.center.tolist() == [3.0]
    tie = screen.y == 3.0
    assert np.all(screen.q[tie] == 0.0) and np.all(screen.sign[tie] == 1.0)
    for theta in (np.array([3.0]), np.array([3.2]), np.array([[3.0], [2.7], [3.5]])):
        assert _skipped(theta, screen) == 4096 - tie.sum()  # every |y - 3| >= 1 > reach
        for delta in (0.0, 0.01, 1.0):
            assert _check_against_three_array(theta, ds, noise, prior, delta)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_no_screen_for_collinear_columns_or_more_features_than_points():
    """X'X does not factorize when a column is twice another, and d > n has
    no d x d Gram to factorize: neither dataset has a screen, and a call
    near where a screen's center would be is the full path bit for bit."""
    ds, noise, prior = _screen_problem(12, 2000, 3)
    x = np.column_stack((ds.X, 2.0 * ds.X[:, 0]))
    collinear = validate_dataset(x, ds.Y)
    rng = np.random.default_rng(12)
    wide = validate_dataset(rng.standard_normal((1300, 1400)), rng.standard_normal(1300))
    for data in (collinear, wide):
        assert data.sign_screen is None
        for shape in ((data.d,), (4, data.d)):
            theta = 0.01 * rng.standard_normal(shape)
            for delta in (0.0, 0.01, 1.0):
                assert not _check_against_three_array(theta, data, noise, prior, delta)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_theta_zero_row_or_delta_zero_near_the_center():
    """A batch with a theta = 0 row takes the full path bit for bit, at
    delta = 0 and delta > 0, and delta = 0 near the center is screened."""
    ds, noise, prior = _screen_problem(13, 4200, 5)
    batch = ds.sign_screen.center + 0.01 * np.random.default_rng(13).standard_normal((8, 5))
    assert _check_against_three_array(batch, ds, noise, prior, 0.0)
    batch[3] = 0.0
    for delta in (0.0, 0.01, 1.0):
        assert not _check_against_three_array(batch, ds, noise, prior, delta)
    assert not _check_against_three_array(np.zeros(5), ds, noise, prior, 0.3)


def test_grad_delta_zero_reduction():
    ds, noise, prior = _problem(6)
    theta = np.random.default_rng(0).standard_normal(ds.d)
    _, got = robust_log_density_grad(theta, ds, noise, prior, 0.0)
    want = (ds.X.T @ (ds.Y - ds.X @ theta)) / noise.sigma_sq - theta / prior.sigma_p_sq
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_grad_at_origin_with_positive_delta():
    ds, noise, prior = _problem(7)
    theta = np.zeros(ds.d)
    _, got = robust_log_density_grad(theta, ds, noise, prior, 0.9)
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
    _, got = robust_log_density_grad(theta, ds, NoiseModel(2.0), IsotropicPrior(4.0), 1.0)
    want = -np.array([22.8, 9.4]) / 2.0 - theta / 4.0
    np.testing.assert_allclose(got, want, rtol=1e-14)


def test_grad_matches_finite_differences():
    """At n = 20 around the origin, and at n = 1500 near the sign screen's
    center, where the screen evaluates both the density and the gradient."""
    small, screened = _problem(8, n=20, d=4), _problem(8, n=1500, d=4)
    rng = np.random.default_rng(1)
    cases = ((small, 0.0, 1.0, 25), (screened, screened[0].sign_screen.center, 0.02, 5))
    for (ds, noise, prior), around, spread, count in cases:
        for delta in (0.0, 0.25, 1.0):
            checked = 0
            while checked < count:
                theta = around + spread * rng.standard_normal(ds.d)
                r = ds.Y - ds.X @ theta
                if np.min(np.abs(r)) < 1e-3 or np.linalg.norm(theta) < 1e-2:
                    continue  # too close to a kink for finite differences
                assert (_screen_result(theta, ds, noise, prior, delta) is None) == (ds is small[0])
                _, got = robust_log_density_grad(theta, ds, noise, prior, delta)
                fd = central_difference_gradient(
                    lambda t: robust_log_density_grad(t, ds, noise, prior, delta)[0], theta
                )
                np.testing.assert_allclose(got, fd, rtol=1e-4, atol=1e-6)
                checked += 1


def _batch_away_from_kinks(ds, rng, rows):
    """rows points, none within 1e-3 of a residual kink or 1e-2 of theta = 0."""
    kept = []
    while len(kept) < rows:
        theta = rng.standard_normal(ds.d)
        if np.min(np.abs(ds.Y - ds.X @ theta)) >= 1e-3 and np.linalg.norm(theta) >= 1e-2:
            kept.append(theta)
    return np.array(kept)


def test_batched_call_rows_equal_single_calls():
    """At n = 40 with a theta = 0 row, and at n = 3000 near the sign
    screen's center, where the screen evaluates the batch and each row."""
    small, screened = _problem(21, n=40, d=4), _problem(21, n=3000, d=4)
    rng = np.random.default_rng(2)
    thetas = np.vstack([np.zeros(small[0].d), rng.standard_normal((5, small[0].d))])
    near = screened[0].sign_screen.center + 0.01 * rng.standard_normal((6, screened[0].d))
    for (ds, noise, prior), batches in ((small, thetas), (screened, near)):
        for delta in (0.0, 0.4):
            for batch in (batches, batches[:1], batches[1:2]):
                assert (_screen_result(batch, ds, noise, prior, delta) is None) == (ds is small[0])
                values, grads = robust_log_density_grad(batch, ds, noise, prior, delta)
                assert values.shape == (batch.shape[0],) and grads.shape == batch.shape
                for theta, value, grad in zip(batch, values, grads):
                    want_value, want_grad = robust_log_density_grad(theta, ds, noise, prior, delta)
                    assert value == pytest.approx(want_value, rel=1e-12)
                    np.testing.assert_allclose(
                        grad, want_grad, rtol=1e-12, atol=1e-12 * np.abs(want_grad).max()
                    )


def test_batched_call_gives_theta_zero_the_zero_norm_selection():
    """A zero row in a batch takes gradient 0 for the delta ||theta|| term,
    as a single call at theta = 0 does, while the other rows keep it."""
    ds, noise, prior = _problem(7)
    batch = np.vstack([np.full(ds.d, 0.5), np.zeros(ds.d), np.full(ds.d, -0.2)])
    _, grads = robust_log_density_grad(batch, ds, noise, prior, 0.9)
    u = np.where(-ds.Y >= 0, 1.0, -1.0)
    want = -(ds.X.T @ (np.abs(ds.Y) * u)) / noise.sigma_sq
    np.testing.assert_allclose(grads[1], want, rtol=1e-12)
    assert np.all(np.isfinite(grads))
    for row in (0, 2):
        _, want_row = robust_log_density_grad(batch[row], ds, noise, prior, 0.9)
        np.testing.assert_allclose(grads[row], want_row, rtol=1e-12, atol=1e-12)


def test_batched_grad_matches_finite_differences_on_every_row():
    ds, noise, prior = _problem(8, n=20, d=4)
    rng = np.random.default_rng(3)
    for delta in (0.0, 0.25, 1.0):
        batch = _batch_away_from_kinks(ds, rng, 6)
        _, grads = robust_log_density_grad(batch, ds, noise, prior, delta)
        for row in range(batch.shape[0]):
            def row_value(t, row=row):
                moved = batch.copy()
                moved[row] = t
                return robust_log_density_grad(moved, ds, noise, prior, delta)[0][row]

            fd = central_difference_gradient(row_value, batch[row])
            np.testing.assert_allclose(grads[row], fd, rtol=1e-4, atol=1e-6)


# --- HMC ---------------------------------------------------------------------------


def _at_origin(precision):
    """The sampler's reference N(0, precision^{-1}): mass matrix precision,
    chains started around the origin."""
    return GaussianPosterior(np.zeros(len(precision)), SpdMatrix.from_array(precision))


def _std_normal_target(dim):
    """N(0, I) in dim dimensions, for theta of shape (d,) or (C, d), and
    itself as the reference: identity mass, starts around the origin."""
    return lambda t, value=True: (-0.5 * np.sum(t * t, axis=-1), -t), _at_origin(np.eye(dim))


def test_hmc_standard_normal_moments():
    target, unit = _std_normal_target(2)
    out = hmc_sample(
        target, HmcConfig(n_samples=5000, n_warmup=1000, seed=42), unit
    )
    assert np.all(np.abs(out.draws.mean(axis=0)) <= 3.0 / math.sqrt(5000) * 3)
    cov = np.cov(out.draws.T)
    assert np.linalg.norm(cov - np.eye(2)) / np.linalg.norm(np.eye(2)) <= 0.10


def test_hmc_acceptance_band():
    target, unit = _std_normal_target(3)
    cfg = HmcConfig(n_samples=2000, n_warmup=1000, seed=5)
    out = hmc_sample(target, cfg, unit)
    assert 0.8 - 0.15 <= out.accept_rate <= 0.8 + 0.10  # warmup targets 0.8


def test_hmc_deterministic():
    target, unit = _std_normal_target(2)
    cfg = HmcConfig(n_samples=500, n_warmup=300, seed=123)
    a = hmc_sample(target, cfg, unit)
    b = hmc_sample(target, cfg, unit)
    assert np.array_equal(a.draws, b.draws)
    assert a.accept_rate == b.accept_rate and a.step_size == b.step_size


def test_hmc_rejects_nonfinite_origin():
    with pytest.raises(NonFiniteDensity):
        hmc_sample(
            lambda t, value=True: (-math.inf, np.zeros_like(t)),
            HmcConfig(n_samples=10, n_warmup=10, seed=0),
            _at_origin(np.eye(2)),
        )


def _finite_only_at_the_starts():
    """A target whose log density is 0 at the chains' starts, the rows of
    its first call, and -inf everywhere else, and the shapes it was called
    with. Its gradient at the starts, 1e150 per coordinate, moves every
    trajectory off them even at the tiny step size that the step-size
    search ends on here, and is small enough that no energy overflows."""
    starts, shapes = [], []

    def target(t, value=True):
        shapes.append(t.shape)
        if not starts:
            starts.append(t.reshape(-1, t.shape[-1]).copy())
        at_start = (t[..., None, :] == starts[0]).all(axis=-1).any(axis=-1)
        grad = np.where(at_start[..., None], 1e150, np.zeros_like(t))
        return np.where(at_start, 0.0, -np.inf), grad

    return target, shapes


def test_hmc_divergence_error():
    # finite only at the start: every proposal is rejected with an infinite
    # energy error, which must eventually raise
    target, _ = _finite_only_at_the_starts()
    with pytest.raises(DivergentTrajectory, match="25 consecutive"):
        hmc_sample(
            target,
            HmcConfig(n_samples=100, n_warmup=100, seed=0),
            _at_origin(np.eye(2)),
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

    def target(t, value=True):
        r = t - mean
        pr = r @ precision  # precision is symmetric
        return -0.5 * np.sum(r * pr, axis=-1), -pr

    out = hmc_sample(
        target,
        HmcConfig(n_samples=4000, n_warmup=1000, leapfrog_steps=8, seed=7),
        _at_origin(precision),
    )
    for j in range(mean.shape[0]):
        series = out.draws[:, j]
        mcse = series.std(ddof=1) / math.sqrt(_effective_sample_size(series))
        assert abs(series.mean() - mean[j]) <= 3.0 * mcse
    rel = np.linalg.norm(np.cov(out.draws.T) - cov) / np.linalg.norm(cov)
    assert rel <= 0.10


def test_hmc_evaluates_its_start_point_once():
    """The chains' starts are evaluated in one call, the first, whose log
    densities and gradients serve the start check, the step-size search and
    the first trajectories; no later call evaluates a start again."""
    for chains in (1, 2):
        calls = []

        def target(t, value=True):
            calls.append(t.copy())
            return -0.5 * np.sum(t * t, axis=-1), -t

        cfg = HmcConfig(n_samples=50, n_warmup=50, seed=2, n_chains=chains)
        hmc_sample(target, cfg, _at_origin(np.eye(3)))
        starts = calls[0].reshape(-1, 3)
        assert starts.shape == (chains, 3)
        later = np.concatenate([c.reshape(-1, 3) for c in calls[1:]])
        assert not (later[:, None, :] == starts).all(axis=-1).any()


def test_hmc_evaluates_each_position_once():
    """The chain carries the log density and gradient of its current
    position from the trajectory that reached it, so no position is
    evaluated twice, after an acceptance or after a rejection."""
    precision = np.diag([1.0, 4.0, 25.0])
    seen = []

    def target(t, value=True):
        seen.append(t.tobytes())
        return -0.5 * np.sum(t * (t @ precision), axis=-1), -(t @ precision)

    out = hmc_sample(
        target, HmcConfig(n_samples=300, n_warmup=200, leapfrog_steps=8, seed=5),
        _at_origin(np.eye(3)),
    )
    assert 0.0 < out.accept_rate < 1.0  # both branches ran
    assert len(seen) == out.grad_evals
    assert len(set(seen)) == len(seen)


def test_hmc_rejects_a_reference_of_another_order():
    """A reference whose order differs from the robust target's dimension is
    refused by the target's check of theta."""
    ds, noise, prior = _problem(9, n=20, d=3)
    with pytest.raises(DimensionMismatch):
        hmc_sample(
            lambda t, value=True: robust_log_density_grad(t, ds, noise, prior, 0.1, value),
            HmcConfig(n_samples=10, n_warmup=10), _at_origin(np.eye(2)),
        )


def _trajectory_gradient_counts(monkeypatch, cfg, scale=1.0, dim=2):
    """Calls of the target per iteration of an HMC run on the dim-d
    N(0, scale^2 I), and the run: the calls made inside each _leapfrog call,
    of which the last ceil(n_warmup / C) + n_samples / C are the iterations'
    trajectories, warmup's first."""
    per_trajectory, calls = [], [0]
    leapfrog = posterior._leapfrog

    def counted(*args):
        before = calls[0]
        out = leapfrog(*args)
        per_trajectory.append(calls[0] - before)
        return out

    def target(t, value=True):
        calls[0] += 1
        return -0.5 * np.sum(t * t, axis=-1) / scale**2, -t / scale**2

    monkeypatch.setattr(posterior, "_leapfrog", counted)
    out = hmc_sample(target, cfg, _at_origin(np.eye(dim)))
    iterations = -(-cfg.n_warmup // cfg.n_chains) + cfg.n_samples // cfg.n_chains
    return per_trajectory[-iterations:], out


def test_hmc_trajectory_lengths_are_drawn_up_to_the_maximum(monkeypatch):
    cfg = HmcConfig(n_samples=400, n_warmup=200, leapfrog_steps=5, seed=3)
    calls, _ = _trajectory_gradient_counts(monkeypatch, cfg)
    assert all(1 <= c <= cfg.leapfrog_steps for c in calls)
    assert set(calls) == set(range(1, cfg.leapfrog_steps + 1))


def test_hmc_random_length_breaks_resonance():
    """A fixed count of 8 steps nearly resonates on a 9-d unit Gaussian, so
    some coordinate mixes slowly: the min-ESS of 4000 draws read 1985, 970
    and 1416 for seeds 0-2 with a fixed count and +/-20% step jitter. A
    length drawn each iteration from 1 to the warmup-adapted maximum (at
    most 8) keeps every seed above half the draws."""
    target, unit = _std_normal_target(9)
    for seed in range(3):
        out = hmc_sample(
            target,
            HmcConfig(n_samples=4000, n_warmup=1000, leapfrog_steps=8, seed=seed),
            unit,
        )
        min_ess = min(_effective_sample_size(out.draws[:, j]) for j in range(out.dim))
        assert min_ess >= 2000, f"seed {seed}: min-ESS {min_ess:.0f} of 4000"


@pytest.mark.parametrize("cap", [1, 2, 5])
def test_hmc_adapted_length_never_exceeds_the_cap(cap, monkeypatch):
    """A unit Gaussian's half period, pi / eps, is about 3 steps; a target 20
    times wider asks for far more than any of these caps."""
    for scale in (1.0, 20.0):
        cfg = HmcConfig(n_samples=300, n_warmup=200, leapfrog_steps=cap, seed=4)
        calls, out = _trajectory_gradient_counts(monkeypatch, cfg, scale=scale)
        assert 1 <= out.max_leapfrog <= cap
        assert all(1 <= c <= cap for c in calls)
        assert max(calls[cfg.n_warmup:]) <= out.max_leapfrog
    if cap == 1:
        assert set(calls) == {1}


def test_hmc_replay_gives_identical_draws_step_size_and_length():
    # M = diag(1, 4, 16) against precision diag(1, 4, 25): unequal whitened scales
    precision = np.diag([1.0, 4.0, 25.0])
    cfg = HmcConfig(n_samples=400, n_warmup=300, leapfrog_steps=32, seed=11)
    a, b = (
        hmc_sample(
            lambda t, value=True: (
                -0.5 * np.sum(t * (t @ precision), axis=-1), -(t @ precision)
            ),
            cfg,
            _at_origin(np.diag([1.0, 4.0, 16.0])),
        )
        for _ in range(2)
    )
    assert a.draws.tobytes() == b.draws.tobytes()
    assert (a.step_size, a.max_leapfrog, a.grad_evals, a.accept_rate) == (
        b.step_size, b.max_leapfrog, b.grad_evals, b.accept_rate
    )
    assert a.max_leapfrog < cfg.leapfrog_steps  # the adaptation ran


def test_hmc_adapted_length_is_the_unit_gaussian_half_period():
    """With M = I on N(0, I) every whitened standard deviation is about 1, so
    the length is the half period pi / eps rounded up, within one step for
    the sampling error of s_max."""
    target, unit = _std_normal_target(4)
    for seed in range(3):
        out = hmc_sample(
            target,
            HmcConfig(n_samples=100, n_warmup=1000, leapfrog_steps=32, seed=seed),
            unit,
        )
        want = math.ceil(math.pi / out.step_size)
        assert abs(out.max_leapfrog - want) <= 1, (seed, out.max_leapfrog, want)


def test_hmc_length_windows_keep_a_distant_start_out_of_the_half_period():
    """Chains started 20 standard deviations from a unit Gaussian's mean
    (reference: identity at the origin) still find its half period pi / eps,
    within one step: their travel into the bulk inflates s_max only in the
    early, short windows, and the last window's positions are in the bulk.
    Pooling every warmup position instead gives 7-12 steps against 3-4."""
    mean = np.array([20.0, 0.0])

    def target(t, value=True):
        r = t - mean
        return -0.5 * np.sum(r * r, axis=-1), -r

    for chains, n_warmup in ((1, 200), (4, 400)):
        for seed in range(5):
            cfg = HmcConfig(n_samples=40, n_warmup=n_warmup, leapfrog_steps=32, seed=seed,
                            n_chains=chains)
            out = hmc_sample(target, cfg, _at_origin(np.eye(2)))
            want = math.ceil(math.pi / out.step_size)
            assert abs(out.max_leapfrog - want) <= 1, (chains, seed, out.max_leapfrog, want)


@pytest.mark.parametrize("chains, n_warmup", [(4, 100), (16, 500)])
def test_hmc_length_windows_find_the_half_period_after_a_short_warmup(chains, n_warmup):
    """The distant start of the test above, with 25 and 32 warmup iterations
    per chain. A fixed burn-in of the first 15% of warmup at the cap, 3 or 4
    iterations here, left the chains travelling when the positions began to
    count: its gaps were 10, 6, 12, 5, 0 (C = 4) and 0, 0, 1, 1, 4 (C = 16)
    over seeds 0-4, against at most 1 with the doubling windows."""
    mean = np.array([20.0, 0.0])

    def target(t, value=True):
        r = t - mean
        return -0.5 * np.sum(r * r, axis=-1), -r

    for seed in range(5):
        cfg = HmcConfig(n_samples=48, n_warmup=n_warmup, leapfrog_steps=32, seed=seed,
                        n_chains=chains)
        out = hmc_sample(target, cfg, _at_origin(np.eye(2)))
        want = math.ceil(math.pi / out.step_size)
        assert abs(out.max_leapfrog - want) <= 1, (seed, out.max_leapfrog, want)


def test_hmc_length_windows_leave_the_cap_early_from_a_start_in_the_bulk(monkeypatch):
    """Chains that start from draws of the target, N(0, I_9), set the length
    from the first window, after 2 of their 125 warmup iterations at C = 16,
    so few warmup trajectories run far past the final max_leapfrog (4 on
    every seed). Over seeds 0-4, the warmup trajectories longer than twice
    that numbered 1-4 with the doubling windows and 10-20 with a fixed
    burn-in that ran the first 15% of warmup at the cap."""
    for seed in range(5):
        cfg = HmcConfig(n_samples=160, n_warmup=2000, leapfrog_steps=32, seed=seed,
                        n_chains=16)
        calls, out = _trajectory_gradient_counts(monkeypatch, cfg, dim=9)
        long = sum(c > 2 * out.max_leapfrog for c in calls[:cfg.n_warmup // 16])
        assert long <= 6, (seed, long, out.max_leapfrog)


def test_hmc_warmup_shorter_than_the_adaptation_window_keeps_the_cap(monkeypatch):
    """One chain records one position per warmup iteration: 19 iterations
    leave the first window one short of the 20 the length needs; 20 fill it."""
    short = HmcConfig(n_samples=300, n_warmup=19, leapfrog_steps=32, seed=1)
    calls, out = _trajectory_gradient_counts(monkeypatch, short)
    assert out.max_leapfrog == short.leapfrog_steps
    assert max(calls[short.n_warmup:]) > 16  # sampling still draws up to the cap
    _, adapted = _trajectory_gradient_counts(monkeypatch, replace(short, n_warmup=20))
    assert adapted.max_leapfrog < short.leapfrog_steps


def test_hmc_length_pools_the_positions_of_every_chain():
    """With 10 warmup iterations per chain, each chain records 10
    positions: too few for one chain to set the length, enough once 4 chains
    pool theirs."""
    target, unit = _std_normal_target(2)
    one = hmc_sample(target, HmcConfig(n_samples=40, n_warmup=10, seed=1), unit)
    assert one.max_leapfrog == 32
    pooled = HmcConfig(n_samples=40, n_warmup=40, seed=1, n_chains=4)
    assert hmc_sample(target, pooled, unit).max_leapfrog < 32


def test_hmc_grad_evals_counts_every_gradient_call():
    """The origin, the initial step-size search, warmup and sampling all
    count, one call per leapfrog step."""
    ds, noise, prior = _problem(15, n=40, d=3)
    calls = [0]

    def target(t, value=True):
        calls[0] += 1
        return robust_log_density_grad(t, ds, noise, prior, 0.3, value)

    for cfg in (
        HmcConfig(n_samples=200, n_warmup=150, leapfrog_steps=12, seed=6),
        HmcConfig(n_samples=5, n_warmup=3, leapfrog_steps=1, seed=0),
    ):
        calls[0] = 0
        bayes = bayes_posterior(ds, noise, prior)
        out = hmc_sample(target, cfg, GaussianPosterior(np.zeros(3), bayes.precision))
        assert out.grad_evals == calls[0] > cfg.n_warmup + cfg.n_samples


def test_hmc_config_validation():
    with pytest.raises(ValueError):
        HmcConfig(n_samples=0)


@pytest.mark.parametrize(
    "fields", [{"n_chains": 0}, {"n_chains": 2.0}, {"n_samples": 50, "n_chains": 4}]
)
def test_hmc_config_rejects_chains_that_do_not_divide_the_draws(fields):
    with pytest.raises(ValueError, match="n_chains"):
        HmcConfig(**fields)


@pytest.mark.parametrize(
    "n, n_samples, chains",
    [(100, 2000, 8), (274, 4000, 16), (4200, 2000, 8), (274, 50, 2), (40_000, 4000, 1),
     (274, 49, 1), (2560, 4000, 16), (2561, 4000, 8), (5120, 4000, 8), (5121, 4000, 4),
     (10_240, 4000, 4), (10_241, 4000, 2), (20_480, 4000, 2), (20_481, 4000, 1),
     (1280, 4000, 16), (1281, 4000, 16), (274, 2008, 8), (274, 3984, 8), (274, 8000, 16)],
)
def test_default_n_chains_rule(n, n_samples, chains):
    assert posterior.default_n_chains(n, n_samples) == chains


# --- HMC, several chains ------------------------------------------------------------


def test_hmc_chains_standard_normal_moments():
    target, unit = _std_normal_target(2)
    cfg = HmcConfig(n_samples=5000, n_warmup=1000, seed=42, n_chains=4)
    out = hmc_sample(target, cfg, unit)
    assert out.n_chains == 4 and out.draws.shape == (5000, 2)
    assert np.all(np.abs(out.draws.mean(axis=0)) <= 3.0 / math.sqrt(5000) * 3)
    cov = np.cov(out.draws.T)
    assert np.linalg.norm(cov - np.eye(2)) / np.linalg.norm(np.eye(2)) <= 0.10


def test_hmc_chains_acceptance_band():
    target, unit = _std_normal_target(3)
    out = hmc_sample(
        target, HmcConfig(n_samples=2000, n_warmup=1000, seed=5, n_chains=4), unit
    )
    assert 0.8 - 0.15 <= out.accept_rate <= 0.8 + 0.10


def test_hmc_chains_replay_and_share_the_warmup():
    """Two runs with one seed agree bit for bit, at every C; the chains of a
    run share one warmup, which adapts one step size and one maximum length
    from all of them."""
    precision = np.diag([1.0, 4.0, 25.0])

    def target(t, value=True):
        return -0.5 * np.sum(t * (t @ precision), axis=-1), -(t @ precision)

    for c in (4, 1, 8):
        cfg = HmcConfig(n_samples=400, n_warmup=300, seed=11, n_chains=c)
        a, b = (hmc_sample(target, cfg, _at_origin(np.eye(3))) for _ in range(2))
        assert a.draws.tobytes() == b.draws.tobytes()
        assert (a.step_size, a.max_leapfrog, a.grad_evals, a.accept_rate, a.divergences) == (
            b.step_size, b.max_leapfrog, b.grad_evals, b.accept_rate, b.divergences
        )
        assert a.max_leapfrog < cfg.leapfrog_steps  # the adaptation ran


def test_hmc_chains_start_from_the_warmup_state_and_are_stored_chain_major(monkeypatch):
    """Every chain's first sampling trajectory starts at its own last warmup
    position, and draw k * S + i is chain k's position after its sampling
    iteration i, S = n_samples / C."""
    starts, ends = [], []
    leapfrog = posterior._leapfrog

    def recorded(theta, *args):
        starts.append(np.array(theta))
        out = leapfrog(theta, *args)
        ends.append(out[0])
        return out

    monkeypatch.setattr(posterior, "_leapfrog", recorded)
    target, unit = _std_normal_target(2)
    cfg = HmcConfig(n_samples=60, n_warmup=40, seed=3, n_chains=3)
    out = hmc_sample(target, cfg, unit)
    sampling = starts[-20:]
    assert all(s.shape == (3, 2) for s in sampling)
    # the last warmup iteration (ceil(40 / 3) = 14 per chain) left each
    # chain at its proposal or at its start, and the chains apart
    last_start, last_end = starts[-21], ends[-21]
    assert last_start.shape == (3, 2)
    kept = np.all(sampling[0] == last_start, axis=1) | np.all(sampling[0] == last_end, axis=1)
    assert kept.all()
    assert len({row.tobytes() for row in sampling[0]}) == 3
    per_chain = out.draws.reshape(3, 20, 2)
    for i, start in enumerate(sampling[1:]):
        assert np.array_equal(per_chain[:, i], start)
    moved = [np.all(p == e, axis=1) for p, e in zip(per_chain.transpose(1, 0, 2), ends[-20:])]
    assert 0 < sum(m.sum() for m in moved) < 60  # some proposals accepted, some not


def _record_iterations(monkeypatch, before=lambda i: None):
    """The state shape of each HMC iteration's trajectory, in order, leaving
    out the step-size search's; before(i) runs ahead of iteration i's."""
    shapes, searching = [], [False]
    leapfrog, search = posterior._leapfrog, posterior._find_reasonable_epsilon

    def searched(*args):
        searching[0] = True
        try:
            return search(*args)
        finally:
            searching[0] = False

    def recorded(theta, *args):
        if not searching[0]:
            before(len(shapes))
            shapes.append(theta.shape)
        return leapfrog(theta, *args)

    monkeypatch.setattr(posterior, "_find_reasonable_epsilon", searched)
    monkeypatch.setattr(posterior, "_leapfrog", recorded)
    return shapes


def test_hmc_chains_divergence_error(monkeypatch):
    """Every chain diverges on every trajectory. Each chain's ceil(10 / 4) = 3
    warmup divergences carry over into sampling, where it reaches 25 on the
    22nd iteration."""
    iterations = _record_iterations(monkeypatch)
    target, shapes = _finite_only_at_the_starts()
    with pytest.raises(DivergentTrajectory, match="25 consecutive"):
        hmc_sample(
            target, HmcConfig(n_samples=100, n_warmup=10, seed=0, n_chains=4),
            _at_origin(np.eye(2)),
        )
    assert shapes[-1] == (4, 2)
    assert iterations == [(4, 2)] * (3 + 22)


def test_hmc_chains_grad_evals_counts_rows():
    ds, noise, prior = _problem(15, n=40, d=3)
    rows, calls = [0], [0]

    def target(t, value=True):
        rows[0] += 1 if t.ndim == 1 else t.shape[0]
        calls[0] += 1
        return robust_log_density_grad(t, ds, noise, prior, 0.3, value)

    cfg = HmcConfig(n_samples=200, n_warmup=150, leapfrog_steps=12, seed=6, n_chains=4)
    bayes = bayes_posterior(ds, noise, prior)
    out = hmc_sample(target, cfg, GaussianPosterior(np.zeros(3), bayes.precision))
    assert out.grad_evals == rows[0] > calls[0] > cfg.n_warmup + cfg.n_samples // 4


def test_hmc_one_chain_never_sees_a_batch():
    """With one chain, sampling calls the target on (d,) points, as warmup
    does, never on a (1, d) batch, which costs more per call."""
    ds, noise, prior = _problem(16, n=40, d=3)
    shapes = set()

    def target(t, value=True):
        shapes.add(t.shape)
        return robust_log_density_grad(t, ds, noise, prior, 0.3, value)

    cfg = HmcConfig(n_samples=100, n_warmup=50, leapfrog_steps=8, seed=7)
    bayes = bayes_posterior(ds, noise, prior)
    out = hmc_sample(target, cfg, GaussianPosterior(np.zeros(3), bayes.precision))
    assert shapes == {(3,)}
    assert out.n_chains == 1 and out.draws.shape == (100, 3)
    assert 0.0 < out.accept_rate < 1.0


def test_hmc_chains_start_at_draws_of_the_center_and_mass():
    """The first call evaluates all C starts as one (C, d) batch, and row c
    is mu + L^{-T} z_c, z_c the seed's first standard normal draws: a draw
    of the reference N(mu, M^{-1}), M = LL'."""
    calls = []

    def target(t, value=True):
        calls.append(t.copy())
        return -0.5 * np.sum(t * t, axis=-1), -t

    chol = np.array([[2.0, 0.0, 0.0], [0.5, 1.0, 0.0], [-0.3, 0.2, 0.5]])
    center = np.array([0.5, -1.0, 2.0])
    reference = GaussianPosterior(center, SpdMatrix.from_array(chol @ chol.T))
    cfg = HmcConfig(n_samples=40, n_warmup=20, seed=9, n_chains=4)
    hmc_sample(target, cfg, reference)
    z = np.random.default_rng(cfg.seed).standard_normal((4, 3))
    lower = reference.precision.chol_lower
    assert calls[0].shape == (4, 3)
    np.testing.assert_allclose(calls[0], center + np.linalg.solve(lower.T, z.T).T, rtol=1e-14)


def test_hmc_rejects_a_nonfinite_start():
    """One start outside the support refuses the run, before any trajectory."""
    def target(t, value=True):
        return np.where(t[..., 0] < 10.0, -0.5 * np.sum(t * t, axis=-1), -np.inf), -t

    cfg = HmcConfig(n_samples=40, n_warmup=20, seed=0, n_chains=4)
    with pytest.raises(NonFiniteDensity):
        hmc_sample(target, cfg, replace(_at_origin(np.eye(2)), mean=np.array([10.0, 0.0])))


@pytest.mark.parametrize("n_warmup, chains", [(40, 3), (2, 4), (10, 1), (300, 8)])
def test_hmc_each_chain_runs_its_share_of_the_warmup(n_warmup, chains, monkeypatch):
    """Each chain runs ceil(n_warmup / C) warmup iterations, one when
    n_warmup < C, and grad_evals is the rows the target saw."""
    rows = [0]

    def target(t, value=True):
        rows[0] += 1 if t.ndim == 1 else t.shape[0]
        return -0.5 * np.sum(t * t, axis=-1), -t

    shapes = _record_iterations(monkeypatch)
    # 8 sampling iterations: a step size adapted in one warmup iteration
    # diverges on the unit Gaussian, but not 25 times in a row
    cfg = HmcConfig(n_samples=8 * chains, n_warmup=n_warmup, seed=1, n_chains=chains)
    out = hmc_sample(target, cfg, _at_origin(np.eye(2)))
    assert shapes == [(chains, 2) if chains > 1 else (2,)] * (math.ceil(n_warmup / chains) + 8)
    assert out.grad_evals == rows[0]


@pytest.mark.parametrize("chains", [1, 4])
def test_hmc_divergences_count_the_divergent_sampling_transitions(chains, monkeypatch):
    """A unit Gaussian whose log density is -inf, for chosen chains, along
    chosen trajectories, each of which then ends with an infinite energy
    error. divergences counts those of sampling over all chains, not those
    of warmup (its first 10 iterations)."""
    poisoned = {4: {0, 3}, 13: {0, 2}, 17: {1}, 25: {0, 1, 2, 3}}  # iteration -> chains
    current = [set()]

    def target(t, value=True):
        rows = np.arange(t.shape[0]) if t.ndim == 2 else 0
        hit = np.isin(rows, sorted(current[0]))
        return np.where(hit, -np.inf, -0.5 * np.sum(t * t, axis=-1)), -t

    _record_iterations(monkeypatch, lambda i: current.__setitem__(0, poisoned.get(i, set())))
    cfg = HmcConfig(n_samples=20 * chains, n_warmup=10 * chains, seed=2, n_chains=chains)
    out = hmc_sample(target, cfg, _at_origin(np.eye(2)))
    want = {1: 2, 4: 7}[chains]  # iterations 13, 17 and 25; 4 is warmup
    assert out.divergences == want


@pytest.mark.parametrize("chains", [1, 16])
@pytest.mark.parametrize("delta", [0.0, 0.1])
def test_hmc_asks_for_the_log_density_only_where_it_reads_it(delta, chains, monkeypatch):
    """Each trajectory asks for the log density at its last call alone, and
    besides them only the chains' starts do, in the first call; the
    step-size search's one-step trajectories are among them. Skipping the
    density at every other call leaves every field of the run bit for bit
    that of a target that always computes it."""
    ds, noise, prior = _problem(17, n=40, d=3)
    bayes = bayes_posterior(ds, noise, prior)
    cfg = HmcConfig(n_samples=160, n_warmup=160, leapfrog_steps=8, seed=3, n_chains=chains)
    full = hmc_sample(
        lambda t, value=True: robust_log_density_grad(t, ds, noise, prior, delta), cfg, bayes
    )
    flags, trajectories = [], []
    leapfrog = posterior._leapfrog

    def target(t, value=True):
        flags.append(value)
        return robust_log_density_grad(t, ds, noise, prior, delta, value)

    def recorded(*args):
        first = len(flags)
        out = leapfrog(*args)
        trajectories.append(flags[first:])
        return out

    monkeypatch.setattr(posterior, "_leapfrog", recorded)
    skipped = hmc_sample(target, cfg, bayes)
    assert flags[0] is True and len(flags) == 1 + sum(map(len, trajectories))
    assert all(f == [False] * (len(f) - 1) + [True] for f in trajectories)
    assert flags.count(True) == 1 + len(trajectories) < len(flags)
    assert skipped.draws.tobytes() == full.draws.tobytes()
    for field in fields(SampleSet):
        if field.name != "draws":
            assert getattr(skipped, field.name) == getattr(full, field.name), field.name


@pytest.mark.parametrize("chains", [1, 4])
def test_hmc_consecutive_divergences_restart_after_a_good_trajectory(chains, monkeypatch):
    """A chain's count of divergences in a row restarts when one of its
    trajectories does not diverge, whether another chain diverges on that
    iteration or none does: 24, one good trajectory, then 24 more never raise, and
    divergences still counts every divergent sampling transition (those of
    iterations 10 on). 25 in a row raise on the 25th."""
    def poisoned(spans):
        """The unit Gaussian, whose log density is -inf, so that the
        trajectory diverges, for the chains each span of iterations names,
        and the list of the iterations run."""
        plan, first = {}, 0
        for length, which in spans:
            plan.update(dict.fromkeys(range(first, first + length), which))
            first += length
        current = [set()]

        def target(t, value=True):
            rows = np.arange(t.shape[0]) if t.ndim == 2 else 0
            hit = np.isin(rows, sorted(current[0]))
            return np.where(hit, -np.inf, -0.5 * np.sum(t * t, axis=-1)), -t

        def before(i):
            current[0] = plan.get(i, set())

        return target, _record_iterations(monkeypatch, before)

    if chains == 1:
        # 0-23 diverge, 24 does not (no chain diverges), 25-48 diverge
        target, _ = poisoned([(24, {0}), (1, set()), (24, {0})])
        want = 14 + 24
    else:
        # chains 0 and 3 diverge on 0-23, only chain 1 on 24, chains 0 and 3
        # again on 25-48 and chain 1 on 25-47, none on 49, all on 50-73
        target, _ = poisoned([(24, {0, 3}), (1, {1}), (23, {0, 1, 3}), (1, {0, 3}),
                              (1, set()), (24, {0, 1, 2, 3})])
        want = 2 * 14 + 1 + 2 * 24 + 23 + 4 * 24
    cfg = HmcConfig(n_samples=80 * chains, n_warmup=10 * chains, seed=2, n_chains=chains)
    assert hmc_sample(target, cfg, _at_origin(np.eye(2))).divergences == want

    monkeypatch.undo()
    target, iterations = poisoned([(25, {chains - 1})])
    with pytest.raises(DivergentTrajectory, match="25 consecutive"):
        hmc_sample(target, cfg, _at_origin(np.eye(2)))
    assert len(iterations) == 25


def _max_split_rhat(draws, chains):
    """Largest split-R-hat over coordinates (Gelman et al., Bayesian Data
    Analysis, 3rd ed., section 11.4): each of the chains' chain-major runs
    is cut in two halves, and R-hat = sqrt(var+ / W) over the halves."""
    per_chain = draws.reshape(chains, -1, draws.shape[1])
    half = per_chain.shape[1] // 2
    halves = np.concatenate((per_chain[:, :half], per_chain[:, half:2 * half]))
    n = halves.shape[1]
    within = halves.var(axis=1, ddof=1).mean(axis=0)
    between_over_n = halves.mean(axis=1).var(axis=0, ddof=1)
    return float(np.max(np.sqrt(((n - 1) / n * within + between_over_n) / within)))


def test_hmc_chains_agree_on_auto_mpg():
    """At fit-eval's default HMC settings (4000 draws, 2000 warmup
    iterations, cap 32) on the standardized auto-mpg split, the chains
    default_n_chains picks (16), started from draws of the Bayes posterior,
    agree: max split-R-hat over the coordinates is at most 1.01 on every
    seed. They also pay: 16 chains make at most 0.6 times the calls of 8,
    from gradient rows within 15% of theirs, since a call of 16 rows costs
    far less than two calls of 8 there."""
    data = load_csv(AUTO_MPG, "mpg")
    noise, prior, delta = NoiseModel(1.0), IsotropicPrior(1.0 / 9.0), 0.1
    for seed in range(3):
        train, _ = standardize_fit_transform(
            *split(data, SplitSpec(train_fraction=0.7, seed=seed))
        )
        exact = bayes_posterior(train, noise, prior)
        calls, rows, outs = {}, {}, {}
        for chains in (posterior.default_n_chains(train.n, 4000), 8):
            calls[chains] = rows[chains] = 0

            def target(t, value=True, chains=chains):
                calls[chains] += 1
                rows[chains] += t.shape[0] if t.ndim == 2 else 1
                return robust_log_density_grad(t, train, noise, prior, delta, value)

            cfg = HmcConfig(n_samples=4000, n_warmup=2000, leapfrog_steps=32, seed=seed,
                            n_chains=chains)
            outs[chains] = hmc_sample(target, cfg, exact)
        assert list(outs) == [16, 8]
        assert _max_split_rhat(outs[16].draws, 16) <= 1.01, seed
        assert calls[16] <= 0.6 * calls[8], (seed, calls)
        assert abs(rows[16] / rows[8] - 1.0) <= 0.15, (seed, rows)


# --- expected risk -------------------------------------------------------------------


def test_expected_risk_exact_matches_mc():
    ds, noise, prior = _problem(10, n=40, d=3)
    test, _, _ = _problem(11, n=500, d=3)
    post = bayes_posterior(ds, noise, prior)
    exact = expected_risk(post, test, noise, 0.0)
    assert exact.std_error == 0.0

    draws = post.sample(20000, np.random.default_rng(5))
    sample_set = SampleSet(draws=draws, accept_rate=1.0, step_size=1.0)
    mc = expected_risk(sample_set, test, noise, 0.0)
    # i.i.d. draws, so the plain MC standard error applies
    assert abs(mc.value - exact.value) <= 3 * mc.std_error + 1e-12


def test_expected_risk_single_draw_at_truth():
    rng = np.random.default_rng(12)
    theta_star = rng.standard_normal(3)
    x = rng.standard_normal((50, 3))
    test = validate_dataset(x, x @ theta_star)  # noiseless labels
    ss = SampleSet(
        draws=theta_star[None, :], accept_rate=1.0, step_size=1.0
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


def _per_draw_reference(draws, test, noise, dh):
    """Straight-line risk per draw: the mean of (|y - x'theta| + dh ||theta||)^2
    / (2 sigma^2) + log(2 pi sigma^2)/2 over the test points."""
    const = 0.5 * math.log(2.0 * math.pi * noise.sigma_sq)
    out = []
    for theta in draws:
        grown = np.abs(test.Y - test.X @ theta) + dh * np.linalg.norm(theta)
        out.append(0.5 * np.mean(grown * grown) / noise.sigma_sq + const)
    return np.array(out)


def test_expected_risk_matches_straight_line_reference_across_chunks():
    """Of 5000 test points, the 982 whose residual can change sign across
    1000 iid draws make 7 blocks of 142 or 143 draws (982 000 residuals in
    blocks of about 2^17), run in one part per usable CPU, at most 3."""
    test, noise, _ = _problem(20, n=5000, d=3, sigma_sq=0.3)
    rng = np.random.default_rng(21)
    draws = 0.5 + 0.1 * rng.standard_normal((1000, 3))
    assert _pass_columns(draws, test) == 982
    ss = SampleSet(draws=draws, accept_rate=1.0, step_size=1.0)
    for dh in (0.0, 0.05, 2.0):
        got = expected_risk(ss, test, noise, dh)
        ref = _per_draw_reference(draws, test, noise, dh)
        assert got.value == pytest.approx(ref.mean(), rel=1e-12)


def _straight_line_moments(draws, test):
    """Mean |r| and mean r^2 over the test points, one draw at a time, with
    r = y - x'theta."""
    m1, m2 = [], []
    for theta in draws:
        r = test.Y - test.X @ theta
        m1.append(np.mean(np.abs(r)))
        m2.append(np.mean(r * r))
    return np.array(m1), np.array(m2)


def _pass_columns(draws, test):
    """The test points whose residual can change sign across the draws:
    |y - x'c| <= ||x|| max_j ||theta_j - c||, with c the draws' mean. Only
    these go through _residual_moments' block pass."""
    center = draws.mean(axis=0)
    reach = np.linalg.norm(test.X, axis=1) * np.linalg.norm(draws - center, axis=1).max()
    return int(np.sum(np.abs(test.Y - test.X @ center) <= reach))


def _recording_matmul(monkeypatch):
    """Record the (rows, columns) of every np.matmul call: the GEMMs of
    _residual_moments' block pass, whose other products use @."""
    shapes = []
    matmul = np.matmul

    def recording(a, b, **kwargs):
        shapes.append((a.shape[0], b.shape[1]))
        return matmul(a, b, **kwargs)

    monkeypatch.setattr(np, "matmul", recording)
    return shapes


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 40), n=st.integers(3, 30),
       d=st.integers(1, 8), spread=st.sampled_from([0.0, 1e-12, 1e-3, 0.1, 1.0, 1e3]),
       sigma_sq=st.floats(1e-3, 10.0), zero_at_center=st.booleans())
@example(seed=1, m=1, n=10, d=3, spread=0.1, sigma_sq=1.0, zero_at_center=False)
@example(seed=2, m=6, n=10, d=3, spread=0.0, sigma_sq=1.0, zero_at_center=False)
@example(seed=3, m=20, n=25, d=4, spread=1e-12, sigma_sq=1e-3, zero_at_center=False)
@example(seed=4, m=20, n=25, d=4, spread=1e3, sigma_sq=1.0, zero_at_center=False)
@example(seed=5, m=20, n=25, d=4, spread=0.1, sigma_sq=0.5, zero_at_center=True)
@example(seed=6, m=30, n=3, d=8, spread=1.0, sigma_sq=1e-3, zero_at_center=False)
def test_residual_moments_match_a_per_draw_reference(seed, m, n, d, spread, sigma_sq,
                                                     zero_at_center):
    """The closed forms over the draws' mean c agree with the straight-line
    moments at one draw, at identical draws, at draws so tight that every
    point keeps its sign and so wide that none does, at a point whose
    residual at c is exactly 0, and at d > n; the labels carry noise of
    variance at least 1e-3, so no draw fits them all."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    theta = rng.standard_normal(d)
    y = x @ theta + math.sqrt(sigma_sq) * rng.standard_normal(n)
    z = rng.standard_normal((m, d))
    draws = theta + spread * (z - z.mean(axis=0))
    center = draws.mean(axis=0)
    if zero_at_center:
        y[0] = (x @ center)[0]
    test = _own_dataset(x, y)  # x itself, so X @ c is the product taken above
    if zero_at_center:
        assert (test.Y - test.X @ center)[0] == 0.0
    cols = _pass_columns(draws, test)
    if spread == 1e-12:
        assert cols == int(zero_at_center)
    if spread == 1e3 and m > 1:
        assert cols == n
    with pytest.MonkeyPatch.context() as patch:
        shapes = _recording_matmul(patch)
        got = posterior._residual_moments(draws, test)
    assert {c for _, c in shapes} == {cols}
    for found, want in zip(got, _straight_line_moments(draws, test)):
        np.testing.assert_allclose(found, want, rtol=1e-12, atol=0.0)


def test_residual_moments_pass_only_the_points_whose_sign_can_change(monkeypatch):
    """The block pass takes the test points whose residual can change sign
    across the draws, and no others. 2000 Bayes draws at n = 4200, d = 5
    (sweep's larger cell) leave at most 20% of 2000 test points to it; 4000
    Bayes draws on the standardized auto-mpg split leave all 118."""
    shapes = _recording_matmul(monkeypatch)
    ds, _ = generate_synthetic(SyntheticSpec(n=6200, d=5, sigma_x_sq=1.0, sigma_sq=1.0,
                                             theta_star_norm_sq=1.0, seed=32))
    train = validate_dataset(ds.X[:4200], ds.Y[:4200])
    test = validate_dataset(ds.X[4200:], ds.Y[4200:])
    draws = bayes_posterior(train, NoiseModel(1.0), IsotropicPrior(1.0)).sample(
        2000, np.random.default_rng(33))
    got = posterior._residual_moments(draws, test)
    assert shapes and {c for _, c in shapes} == {_pass_columns(draws, test)}
    assert 0 < shapes[0][1] <= 0.2 * test.n
    for found, want in zip(got, _straight_line_moments(draws, test)):
        np.testing.assert_allclose(found, want, rtol=1e-12, atol=0.0)

    shapes.clear()
    train, test = standardize_fit_transform(
        *split(load_csv(AUTO_MPG, "mpg"), SplitSpec(train_fraction=0.7, seed=0)))
    draws = bayes_posterior(train, NoiseModel(1.0), IsotropicPrior(1.0 / 9.0)).sample(
        4000, np.random.default_rng(34))
    posterior._residual_moments(draws, test)
    assert shapes and {c for _, c in shapes} == {test.n}


def _cut_risk(monkeypatch, cpus, block_cells):
    """Run _residual_moments on `cpus` usable CPUs in blocks of about
    `block_cells` residuals, and record the parts it hands to threads."""
    monkeypatch.setattr(posterior.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    monkeypatch.setattr(posterior, "_BLOCK_CELLS", block_cells)
    handed = []
    submit = concurrent.futures.ThreadPoolExecutor.submit

    def recording(pool, fn, *args):
        handed.append(args)
        return submit(pool, fn, *args)

    monkeypatch.setattr(concurrent.futures.ThreadPoolExecutor, "submit", recording)
    return handed


def _moments_leaving_no_thread(draws, test):
    before = threading.active_count()
    found = posterior._residual_moments(draws, test)
    assert threading.active_count() == before
    return found


@pytest.mark.parametrize("parts", [2, 3])
def test_residual_moments_in_parts_match_one_block_bit_for_bit(parts, monkeypatch):
    """37 draws x 50 test points, of which 9 go through the pass, are one
    block at the real block size; in blocks of 4 x 9 residuals they are 9
    blocks of 4 or 5 draws, in `parts` parts."""
    test, _, _ = _problem(25, n=50, d=3)
    draws = 0.5 + 0.1 * np.random.default_rng(26).standard_normal((37, 3))
    cols = _pass_columns(draws, test)
    assert cols == 9
    one = _moments_leaving_no_thread(draws, test)
    handed = _cut_risk(monkeypatch, 1, 4 * cols)
    assert all(np.array_equal(a, b) for a, b in zip(_moments_leaving_no_thread(draws, test), one))
    assert handed == []
    handed = _cut_risk(monkeypatch, parts, 4 * cols)
    cut = _moments_leaving_no_thread(draws, test)
    assert len(handed) == parts - 1
    assert all(np.array_equal(a, b) for a, b in zip(cut, one))


@pytest.mark.parametrize("m", [1, 2, 3, 17])
def test_expected_risk_runs_no_one_draw_block_but_a_lone_draw(m, monkeypatch):
    """In blocks of about 4 draws' residuals at the points that go through
    the pass, on 2 CPUs: 1, 2 and 3 draws are one block, and 17, one past a
    multiple of 4, are blocks of 4, 4, 4 and 5 in 2 parts. numpy's product
    of a 1-row block takes another path (gemv), whose last bits can
    differ."""
    test, noise, _ = _problem(27, n=50, d=3, sigma_sq=0.3)
    draws = 0.5 + 0.1 * np.random.default_rng(28).standard_normal((m, 3))
    cols = _pass_columns(draws, test)
    assert (cols == 0) == (m == 1)  # a lone draw's every residual keeps its sign
    handed = _cut_risk(monkeypatch, 2, 4 * max(cols, 1))
    shapes = _recording_matmul(monkeypatch)
    ss = SampleSet(draws=draws, accept_rate=1.0, step_size=1.0)
    for dh in (0.0, 2.0):
        before = threading.active_count()
        got = expected_risk(ss, test, noise, dh)
        assert threading.active_count() == before
        assert got.value == pytest.approx(_per_draw_reference(draws, test, noise, dh).mean(),
                                          rel=1e-12)
    rows = [r for r, _ in shapes]
    assert sorted(rows) == sorted(2 * ([1] if m == 1 else [m] if m < 4 else [4, 4, 4, 5]))
    assert len(handed) == (2 if m == 17 else 0)  # one part handed on per call


@pytest.mark.parametrize("m, n, parts", [(4000, 118, 1), (511, 1024, 1), (512, 1024, 2)])
def test_residual_moments_second_part_starts_at_four_blocks(m, n, parts, monkeypatch):
    """A part holds at least 2 blocks of 2^17 residuals at the points that
    go through the pass, here all of them: auto-mpg's 4000 draws x 118 test
    points (3.6 blocks) and 511 x 1024 run in the caller, 512 x 1024 (4
    blocks) in 2 parts."""
    test, _, _ = _problem(29, n=n, d=3)
    draws = 2.0 * np.random.default_rng(30).standard_normal((m, 3))
    assert _pass_columns(draws, test) == n
    handed = _cut_risk(monkeypatch, 2, posterior._BLOCK_CELLS)
    _moments_leaving_no_thread(draws, test)
    assert len(handed) == parts - 1


@pytest.mark.parametrize("bad", [0, -3, 2.5, True])
def test_expected_risk_rejects_a_draw_count_below_one_or_not_an_integer(bad, monkeypatch):
    ds, noise, prior = _problem(31)
    post = bayes_posterior(ds, noise, prior)
    chain = SampleSet(draws=post.sample(50, np.random.default_rng(0)),
                      accept_rate=1.0, step_size=1.0)
    monkeypatch.setattr(GaussianPosterior, "sample", None)  # no draw may be made
    for posterior_ in (post, chain):
        with pytest.raises(ValueError, match=f"n_draws must be a positive integer, got {bad}"):
            expected_risk(posterior_, ds, noise, 0.1, n_draws=bad)


def test_expected_risk_sequence_matches_per_radius_calls():
    ds, noise, prior = _problem(15)
    test, _, _ = _problem(16, n=300, d=3)
    post = bayes_posterior(ds, noise, prior)
    rng = np.random.default_rng(17)
    draws = post.mean + 0.2 * np.cumsum(rng.standard_normal((400, 3)), axis=0) / 20
    chain = SampleSet(draws=draws, accept_rate=1.0, step_size=1.0)
    radii = [0.3, 0.0, 0.1, 0.3, 0.05]
    for posterior in (chain, post):
        together = expected_risk(posterior, test, noise, radii, n_draws=500, seed=4)
        assert isinstance(together, tuple) and len(together) == len(radii)
        for dh, est in zip(radii, together):
            alone = expected_risk(posterior, test, noise, dh, n_draws=500, seed=4)
            assert isinstance(alone, RiskEstimate)
            assert est.value == pytest.approx(alone.value, rel=1e-12)
            assert est.std_error == pytest.approx(alone.std_error, rel=1e-12)
        assert together[0] == together[3]
    assert expected_risk(chain, test, noise, np.array(radii)) == expected_risk(
        chain, test, noise, radii
    )
    assert expected_risk(chain, test, noise, []) == ()


def test_expected_risk_exact_zero_radius_in_a_sequence_is_the_closed_form():
    ds, noise, prior = _problem(18)
    test, _, _ = _problem(19, n=200, d=3)
    post = bayes_posterior(ds, noise, prior)
    closed = expected_risk(post, test, noise, 0.0)
    for radii in ([0.0], [0.2, 0.0], [0.0, 0.0, 0.1]):
        found = dict(zip(radii, expected_risk(post, test, noise, radii, n_draws=300)))
        assert found[0.0].std_error == 0.0
        assert found[0.0] == closed  # bit for bit


@pytest.mark.parametrize("bad", [math.nan, math.inf, -0.1])
def test_expected_risk_rejects_non_finite_or_negative_radius(bad):
    ds, noise, prior = _problem(22)
    post = bayes_posterior(ds, noise, prior)
    chain = SampleSet(draws=post.sample(50, np.random.default_rng(0)),
                      accept_rate=1.0, step_size=1.0)
    for posterior in (post, chain):
        for delta_test in (bad, [0.1, bad]):
            with pytest.raises(ValueError, match=f"delta_test must be finite and >= 0, got {bad}"):
                expected_risk(posterior, ds, noise, delta_test)


def test_expected_risk_rejects_radii_that_are_not_a_sequence():
    ds, noise, prior = _problem(22)
    post = bayes_posterior(ds, noise, prior)
    with pytest.raises(ValueError, match=r"delta_test must be a float or a sequence, got shape \(1, 2\)"):
        expected_risk(post, ds, noise, [[0.0, 0.1]])


def test_expected_risk_on_identical_draws_has_standard_error_zero():
    """A constant per-draw risk counts as n effective draws, not 0 / 0."""
    ds, noise, _ = _problem(25)
    draws = np.tile([0.3, -0.2, 0.1], (8, 1))
    for n_chains in (1, 2):
        chain = SampleSet(draws=draws, accept_rate=1.0, step_size=1.0, n_chains=n_chains)
        for risk in expected_risk(chain, ds, noise, [0.0, 0.1]):
            assert risk.std_error == 0.0


def test_expected_risk_dimension_mismatch_names_both_dimensions():
    ds, noise, prior = _problem(23, d=3)
    test, _, _ = _problem(24, n=20, d=4)
    post = bayes_posterior(ds, noise, prior)
    chain = SampleSet(draws=post.sample(50, np.random.default_rng(0)),
                      accept_rate=1.0, step_size=1.0)
    for posterior in (post, chain):
        for delta_test in (0.0, 0.1, [0.0, 0.1]):
            with pytest.raises(ValueError, match="posterior dimension 3 != test dimension 4"):
                expected_risk(posterior, test, noise, delta_test)


def test_expected_risk_is_named_tuple():
    est = RiskEstimate(value=1.0, std_error=0.1)
    v, se = est
    assert (v, se) == (1.0, 0.1)


def test_effective_sample_size_reads_chains():
    """Four iid N(0, 1) chains are worth about their total; four whose means
    sit 3 sd apart are worth far less, whatever each chain's own mixing."""
    rng = np.random.default_rng(0)
    chains = rng.standard_normal((4, 1000))
    assert 0.8 * 4000 <= _effective_sample_size(chains.ravel(), 4) <= 4000
    shifted = chains + 3.0 * np.arange(4)[:, None]
    assert _effective_sample_size(shifted.ravel(), 4) < 0.05 * 4000


def test_expected_risk_standard_error_reads_the_chains():
    """Four chains whose draws sit apart: the standard error uses the
    multi-chain ESS of the per-draw risks, not the one of their
    concatenation."""
    ds, noise, _ = _problem(12, n=60, d=3)
    rng = np.random.default_rng(5)
    centres = rng.standard_normal((4, 1, 3))
    draws = (centres + 0.05 * rng.standard_normal((4, 200, 3))).reshape(800, 3)
    risks = _per_draw_reference(draws, ds, noise, 0.1)
    for chains in (4, 1):
        got = expected_risk(SampleSet(draws, 0.8, 0.1, n_chains=chains), ds, noise, 0.1)
        want = np.std(risks, ddof=1) / math.sqrt(_effective_sample_size(risks, chains))
        assert got.std_error == pytest.approx(want, rel=1e-9)
    assert _effective_sample_size(risks, 4) != _effective_sample_size(risks)


def test_sample_set_chains_must_divide_the_draws():
    draws = np.zeros((12, 2))
    assert SampleSet(draws, 0.5, 0.1, n_chains=4).n_chains == 4
    for bad in (0, 5, 1.0):
        with pytest.raises(ValueError, match="n_chains"):
            SampleSet(draws, 0.5, 0.1, n_chains=bad)


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

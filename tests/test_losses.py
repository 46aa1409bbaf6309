import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certbayes import (
    Dataset,
    NoiseModel,
    adv_loss_sandwich,
    bernoulli_family,
    bregman_divergence,
    expfam_adv_nll_point,
    gaussian_adv_nll,
    gaussian_adv_perturbation,
    gaussian_family,
    gaussian_nll,
    poisson_family,
    validate_dataset,
)
from certbayes.errors import DimensionMismatch, DomainViolation

from oracles import brute_force_gaussian_adv_nll_point


def _random_problem(seed, n=6, d=3):
    rng = np.random.default_rng(seed)
    return (
        validate_dataset(rng.standard_normal((n, d)), rng.standard_normal(n)),
        rng.standard_normal(d),
    )


# --- standard NLL ------------------------------------------------------------


def test_nll_zero_at_matched_constant():
    # sigma^2 = 1/(2 pi) kills the log constant; zero residuals kill the rest
    ds = validate_dataset(np.random.default_rng(0).standard_normal((4, 2)), np.zeros(4))
    assert gaussian_nll(np.zeros(2), ds, NoiseModel(1.0 / (2 * math.pi))) == pytest.approx(
        0.0, abs=1e-12
    )


def test_nll_hand_value():
    ds = validate_dataset(np.array([[1.0, 0.0]]), np.array([3.0]))
    got = gaussian_nll(np.array([1.0, 0.0]), ds, NoiseModel(1.0))
    assert got == pytest.approx(0.5 * math.log(2 * math.pi) + 2.0, rel=1e-14)


def test_nll_matches_loop_oracle():
    ds, theta = _random_problem(3)
    sigma_sq = 1.7
    loop = 0.0
    for i in range(ds.n):
        r = ds.Y[i] - float(ds.X[i] @ theta)
        loop += 0.5 * math.log(2 * math.pi * sigma_sq) + r * r / (2 * sigma_sq)
    assert gaussian_nll(theta, ds, NoiseModel(sigma_sq)) == pytest.approx(loop, rel=1e-12)


def test_nll_dimension_mismatch():
    ds, _ = _random_problem(0)
    with pytest.raises(DimensionMismatch):
        gaussian_nll(np.zeros(ds.d + 1), ds, NoiseModel(1.0))


# --- adversarial Gaussian NLL --------------------------------------------------


def test_adv_nll_delta_zero_is_bit_identical():
    ds, theta = _random_problem(5)
    noise = NoiseModel(0.8)
    assert gaussian_adv_nll(theta, ds, noise, 0.0).value == gaussian_nll(theta, ds, noise)


def test_nll_is_infinite_where_the_norm_of_theta_overflows():
    """||theta||^2 = inf must not turn the delta = 0 loss into 0 * inf = NaN."""
    ds, _ = _random_problem(2, d=2)
    theta, noise = np.array([1e200, -1e200]), NoiseModel(1.0)
    with np.errstate(over="ignore"):
        assert gaussian_nll(theta, ds, noise) == math.inf
        assert gaussian_adv_nll(theta, ds, noise, 0.0).value == math.inf


def test_adv_nll_hand_value():
    ds = validate_dataset(np.array([[0.0, 0.0]]), np.array([1.0]))
    out = gaussian_adv_nll(np.array([1.0, 0.0]), ds, NoiseModel(1.0), 0.5)
    assert out.value == pytest.approx(0.5 * math.log(2 * math.pi) + 1.125, rel=1e-14)
    # residual theta'x - y = -1 < 0
    assert out.chosen_sign.tolist() == [-1.0]


def test_adv_nll_negative_delta_rejected():
    ds, theta = _random_problem(1)
    with pytest.raises(ValueError):
        gaussian_adv_nll(theta, ds, NoiseModel(1.0), -0.1)


@pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf])
def test_adversarial_losses_reject_non_finite_delta(delta):
    ds, theta = _random_problem(1)
    noise = NoiseModel(1.0)
    calls = [
        lambda: gaussian_adv_nll(theta, ds, noise, delta),
        lambda: gaussian_adv_perturbation(theta, ds.X[0], float(ds.Y[0]), delta),
        lambda: expfam_adv_nll_point(theta, ds.X[0], 1.0, delta, bernoulli_family()),
        lambda: adv_loss_sandwich(theta, ds, noise, delta),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=f"delta must be finite and >= 0, got {delta}"):
            call()


def test_adv_nll_matches_brute_force():
    rng = np.random.default_rng(11)
    for trial in range(12):
        d = int(rng.integers(1, 4))
        theta = rng.standard_normal(d)
        x = rng.standard_normal(d)
        y = float(rng.standard_normal())
        delta = float(rng.uniform(0.05, 0.6))
        sigma_sq = float(rng.uniform(0.5, 2.0))
        ds = validate_dataset(x[None, :], np.array([y]))
        closed = gaussian_adv_nll(theta, ds, NoiseModel(sigma_sq), delta).value
        brute = brute_force_gaussian_adv_nll_point(
            theta, x, y, delta, sigma_sq, np.random.default_rng(1000 + trial)
        )
        assert closed == pytest.approx(brute, rel=1e-6)


@settings(max_examples=60)
@given(
    seed=st.integers(0, 10 ** 6),
    delta=st.floats(min_value=0.0, max_value=2.0),
)
def test_adv_dominates_standard(seed, delta):
    ds, theta = _random_problem(seed)
    noise = NoiseModel(1.3)
    adv = gaussian_adv_nll(theta, ds, noise, delta).value
    std = gaussian_nll(theta, ds, noise)
    assert adv >= std
    if delta * np.linalg.norm(theta) == 0.0:
        assert adv == std
    elif delta > 1e-6:
        assert adv > std


@settings(max_examples=40)
@given(
    seed=st.integers(0, 10 ** 6),
    d1=st.floats(min_value=0.0, max_value=1.0),
    d2=st.floats(min_value=0.0, max_value=1.0),
)
def test_adv_monotone_in_delta(seed, d1, d2):
    ds, theta = _random_problem(seed)
    noise = NoiseModel(1.0)
    lo, hi = sorted((d1, d2))
    assert (
        gaussian_adv_nll(theta, ds, noise, lo).value
        <= gaussian_adv_nll(theta, ds, noise, hi).value
    )


def test_adv_reduction_order_independent():
    ds, theta = _random_problem(21, n=64, d=4)
    noise = NoiseModel(1.0)
    base = gaussian_adv_nll(theta, ds, noise, 0.3).value
    perm = np.random.default_rng(0).permutation(ds.n)
    shuffled = validate_dataset(ds.X[perm], ds.Y[perm])
    assert gaussian_adv_nll(theta, shuffled, noise, 0.3).value == pytest.approx(
        base, rel=1e-9
    )


# --- worst-case perturbations ---------------------------------------------------


def test_perturbation_hand_value():
    res = gaussian_adv_perturbation(
        np.array([1.0, 0.0]), np.array([0.0, 0.0]), 1.0, 0.5
    )
    np.testing.assert_allclose(res.x_tilde, [-0.5, 0.0])
    assert not res.theta_is_zero


def test_perturbation_zero_delta_is_identity():
    x = np.array([0.3, -0.2])
    res = gaussian_adv_perturbation(np.array([1.0, 2.0]), x, 0.0, 0.0)
    np.testing.assert_array_equal(res.x_tilde, x)


def test_perturbation_zero_theta_flag():
    x = np.array([0.3, -0.2])
    res = gaussian_adv_perturbation(np.zeros(2), x, 1.0, 0.7)
    assert res.theta_is_zero
    np.testing.assert_array_equal(res.x_tilde, x)


def test_perturbation_radius_and_attainment():
    rng = np.random.default_rng(4)
    for _ in range(50):
        d = int(rng.integers(1, 5))
        theta = rng.standard_normal(d)
        x = rng.standard_normal(d)
        y = float(rng.standard_normal())
        delta = float(rng.uniform(0.0, 1.0))
        res = gaussian_adv_perturbation(theta, x, y, delta)
        assert np.linalg.norm(res.x_tilde - x) == pytest.approx(delta, abs=1e-12)
        # plugging the worst point into the standard per-point NLL recovers
        # the per-point adversarial value
        ds_tilde = validate_dataset(res.x_tilde[None, :], np.array([y]))
        ds = validate_dataset(x[None, :], np.array([y]))
        noise = NoiseModel(1.0)
        attained = gaussian_nll(theta, ds_tilde, noise)
        adv = gaussian_adv_nll(theta, ds, noise, delta).value
        assert attained == pytest.approx(adv, abs=1e-10)


def test_perturbation_scale_covariant_in_theta():
    theta = np.array([0.3, -1.2, 0.5])
    x = np.array([1.0, 0.0, -1.0])
    base = gaussian_adv_perturbation(theta, x, 0.4, 0.8).x_tilde
    for c in (0.01, 3.0, 250.0):
        scaled = gaussian_adv_perturbation(c * theta, x, 0.4, 0.8).x_tilde
        np.testing.assert_allclose(scaled, base, atol=1e-12)


# --- exponential families --------------------------------------------------------


def test_expfam_bernoulli_hand_value():
    # theta'x = 0, delta*||theta|| = 1, y = 1: the s=-1 branch wins
    out = expfam_adv_nll_point(
        np.array([1.0]), np.array([0.0]), 1.0, 1.0, bernoulli_family()
    )
    assert out.value == pytest.approx(math.log(1 + math.exp(-1)) + 1.0, rel=1e-12)
    assert out.value == pytest.approx(1.313262, abs=1e-6)
    assert out.chosen_sign.tolist() == [-1.0]


def test_expfam_delta_zero_is_standard_nll():
    fam = poisson_family()
    theta, x, y = np.array([0.4, -0.3]), np.array([1.0, 2.0]), 3.0
    eta = float(theta @ x)
    expected = fam.psi(eta) - y * eta - fam.base_log_measure(y)
    assert expfam_adv_nll_point(theta, x, y, 0.0, fam).value == pytest.approx(
        expected, rel=1e-14
    )


def test_expfam_domain_violation():
    # Poisson log-normalizer overflows once the probed eta reaches ~700
    with pytest.raises(DomainViolation):
        expfam_adv_nll_point(
            np.array([100.0]), np.array([7.0]), 1.0, 0.5, poisson_family()
        )


@pytest.mark.parametrize(
    "fam, draw_label",
    [
        (bernoulli_family(), lambda rng: float(rng.integers(0, 2))),
        (poisson_family(), lambda rng: float(rng.poisson(2.0))),
    ],
    ids=["bernoulli", "poisson"],
)
def test_expfam_worst_case_point(fam, draw_label):
    """The returned point is x + delta s theta/||theta||, on the ball's
    boundary, and attains the returned value as a plain NLL."""
    rng = np.random.default_rng(12)
    for _ in range(40):
        d = int(rng.integers(1, 5))
        theta = rng.standard_normal(d)
        x = rng.standard_normal(d)
        y = draw_label(rng)
        delta = float(rng.uniform(0.0, 1.0))
        out = expfam_adv_nll_point(theta, x, y, delta, fam)
        s = float(out.chosen_sign[0])
        assert out.perturbed_points.shape == (1, d)
        x_tilde = out.perturbed_points[0]
        step = delta * s * theta / np.linalg.norm(theta)
        np.testing.assert_allclose(x_tilde - x, step, rtol=1e-12, atol=1e-15)
        assert np.linalg.norm(x_tilde - x) == pytest.approx(delta, abs=1e-12)
        eta = float(theta @ x_tilde)
        plain = fam.psi(eta) - y * eta - fam.base_log_measure(y)
        assert plain == pytest.approx(out.value, rel=1e-12, abs=1e-12)

    x, y = np.array([0.3, -0.2, 1.1]), draw_label(rng)
    out = expfam_adv_nll_point(np.zeros(3), x, y, 0.7, fam)
    np.testing.assert_array_equal(out.perturbed_points[0], x)
    assert out.value == fam.psi(0.0) - fam.base_log_measure(y)


def test_expfam_gaussian_self_duality():
    """Gaussian-family adversarial NLL differs from the squared-error one only
    by constants, which cancel when differencing two parameter values."""
    fam = gaussian_family(sigma_sq=1.0)
    rng = np.random.default_rng(9)
    for _ in range(20):
        d = int(rng.integers(1, 4))
        x = rng.standard_normal(d)
        y = float(rng.standard_normal())
        delta = float(rng.uniform(0.0, 0.8))
        th1, th2 = rng.standard_normal(d), rng.standard_normal(d)
        noise = NoiseModel(1.0)
        ds = validate_dataset(x[None, :], np.array([y]))
        diff_exp = (
            expfam_adv_nll_point(th1, x, y, delta, fam).value
            - expfam_adv_nll_point(th2, x, y, delta, fam).value
        )
        diff_gauss = (
            gaussian_adv_nll(th1, ds, noise, delta).value
            - gaussian_adv_nll(th2, ds, noise, delta).value
        )
        assert diff_exp == pytest.approx(diff_gauss, rel=1e-9, abs=1e-9)


def test_gaussian_and_expfam_adversaries_pick_the_same_point():
    """With |theta'x - y| well away from 0, the unit-variance Gaussian family's
    adversary takes the branch s = sign(theta'x - y), as the closed-form
    Gaussian one does, and moves x to the same point bit for bit; at
    theta = 0 both leave x where it is."""
    fam = gaussian_family(1.0)
    rng = np.random.default_rng(21)
    compared = 0
    for _ in range(300):
        d = int(rng.integers(1, 6))
        theta, x = rng.standard_normal(d), rng.standard_normal(d)
        y = float(rng.standard_normal())
        delta = float(rng.uniform(0.05, 1.0))
        if abs(float(theta @ x) - y) < 0.1:
            continue
        closed = gaussian_adv_perturbation(theta, x, y, delta)
        general = expfam_adv_nll_point(theta, x, y, delta, fam)
        assert general.chosen_sign[0] == (1.0 if float(theta @ x) - y >= 0.0 else -1.0)
        assert closed.x_tilde.tobytes() == general.perturbed_points[0].tobytes()
        compared += 1
    assert compared > 200

    x, y = rng.standard_normal(3), float(rng.standard_normal())
    closed = gaussian_adv_perturbation(np.zeros(3), x, y, 0.7)
    general = expfam_adv_nll_point(np.zeros(3), x, y, 0.7, fam)
    assert closed.theta_is_zero
    assert closed.x_tilde.tobytes() == general.perturbed_points[0].tobytes() == x.tobytes()


# --- Bregman divergence ----------------------------------------------------------


@pytest.mark.parametrize(
    "fam", [gaussian_family(), bernoulli_family(), poisson_family()], ids=lambda f: f.name
)
def test_bregman_zero_at_equal_args(fam):
    assert bregman_divergence(fam, 0.3, 0.3) == pytest.approx(0.0, abs=1e-12)


def test_bregman_gaussian_hand_value():
    assert bregman_divergence(gaussian_family(), 3.0, 1.0) == pytest.approx(2.0)


def test_bregman_nonnegative_probe():
    rng = np.random.default_rng(12)
    fams = [gaussian_family(), bernoulli_family(), poisson_family()]
    for _ in range(1000):
        a, b = rng.uniform(-3, 3, size=2)
        for fam in fams:
            assert bregman_divergence(fam, float(a), float(b)) >= -1e-12


# --- sandwich bounds --------------------------------------------------------------


def test_sandwich_tight_at_delta_zero():
    ds, theta = _random_problem(8)
    noise = NoiseModel(1.2)
    lower, upper = adv_loss_sandwich(theta, ds, noise, 0.0)
    nll = gaussian_nll(theta, ds, noise)
    assert lower == pytest.approx(nll, rel=1e-12)
    # the (a+b)^2 <= 2a^2 + 2b^2 slack remains in the upper bound
    const = 0.5 * ds.n * math.log(2 * math.pi * noise.sigma_sq)
    assert upper == pytest.approx(2 * nll - const, rel=1e-12)


def test_sandwich_is_infinite_at_delta_zero_where_the_norm_of_theta_overflows():
    """The delta = 0 adversarial term is exactly 0, not 0 * inf = NaN, so
    both bounds follow the NLL to inf."""
    ds = validate_dataset(np.eye(2), np.array([1.0, 2.0]))
    theta, noise = np.array([1e200, 1e200]), NoiseModel(1.0)
    with np.errstate(over="ignore"):
        assert gaussian_nll(theta, ds, noise) == math.inf
        assert adv_loss_sandwich(theta, ds, noise, 0.0) == (math.inf, math.inf)


def test_sandwich_gap_at_theta_zero():
    ds, _ = _random_problem(13)
    noise = NoiseModel(0.9)
    lower, upper = adv_loss_sandwich(np.zeros(ds.d), ds, noise, 0.7)
    r_sq = float(np.sum((ds.Y) ** 2))
    assert upper - lower == pytest.approx(r_sq / (2 * noise.sigma_sq), rel=1e-12)


def test_sandwich_ordering_bulk():
    rng = np.random.default_rng(17)
    noise = NoiseModel(1.0)
    for seed in range(200):
        ds, theta = _random_problem(seed, n=5, d=2)
        for delta in rng.uniform(0.0, 1.5, size=50):
            lower, upper = adv_loss_sandwich(theta, ds, noise, float(delta))
            mid = gaussian_adv_nll(theta, ds, noise, float(delta)).value
            assert lower <= mid + 1e-12
            assert mid <= upper + 1e-12

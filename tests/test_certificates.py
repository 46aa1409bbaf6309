import math
import re

import numpy as np
import pytest

from certbayes import (
    DataDistributionSpec,
    IsotropicPrior,
    NoiseModel,
    PerturbationBudget,
    TheoremId,
    cert_bayes_adversarial,
    cert_bayes_standard,
    cert_robust_adversarial_general,
    cert_robust_adversarial_matched,
    cert_robust_standard,
    cgf_adversarial,
    cgf_standard,
    neg_log_z_bayes,
    neg_log_z_robust_upper,
    validate_dataset,
    validate_preconditions,
)
from certbayes.certificates import _gram_terms
from certbayes.errors import BudgetMismatch, CgfRangeViolation, PreconditionViolated

import oracles as orc


def _instance(seed, n_max=20, d_max=20):
    """A random precondition-passing certificate instance."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, n_max + 1))
    d = int(rng.integers(1, d_max + 1))
    ds = validate_dataset(rng.standard_normal((n, d)), rng.standard_normal(n))
    sigma_sq = float(rng.uniform(0.5, 2.0))
    sigma_x_sq = float(rng.uniform(0.5, 2.0))
    # sigma_p^2 < sigma^2 / (2 (sigma_x^2 + 0.04)) and < sigma^2 / (2 n delta_hat^2)
    # for every delta in [0, 0.2], n <= 20; 0.2 * sigma^2 clears both with margin
    sigma_p_sq = float(rng.uniform(0.02, 0.2)) * sigma_sq
    dist = DataDistributionSpec(
        sigma_x_sq=sigma_x_sq, theta_star_norm_sq=float(rng.uniform(0.0, 2.0))
    )
    delta = float(rng.uniform(0.0, 0.2))
    delta_hat = float(rng.uniform(0.0, 0.2))
    beta = float(rng.uniform(0.01, 0.5))
    return ds, NoiseModel(sigma_sq), IsotropicPrior(sigma_p_sq), dist, delta, delta_hat, beta


# --- CGF constants ----------------------------------------------------------


def test_cgf_standard_hand_values():
    out = cgf_standard(
        NoiseModel(1.0), IsotropicPrior(0.5), DataDistributionSpec(1.0, 0.0), d=1
    )
    assert out.c == pytest.approx(0.5)
    assert out.s_sq == pytest.approx(1.0)

    out = cgf_standard(
        NoiseModel(1.0 / 9.0),
        IsotropicPrior(0.01),
        DataDistributionSpec(1.0, 0.5),
        d=5,
    )
    assert out.c == pytest.approx(0.09)
    assert out.s_sq == pytest.approx(5.86, rel=1e-9)


def test_cgf_rejects_scale_at_or_above_one():
    """c = 1 exactly and above it, refused with a message naming c."""
    noise, dist = NoiseModel(1.0), DataDistributionSpec(1.0, 0.0)
    std = "c = sigma_p_sq*sigma_x_sq/sigma_sq = {} must be < 1"
    for sigma_p_sq, c in ((1.0, "1"), (1.5, "1.5")):
        with pytest.raises(CgfRangeViolation, match=re.escape(std.format(c))):
            cgf_standard(noise, IsotropicPrior(sigma_p_sq), dist, d=1)
    adv = "c = 2*sigma_p_sq*(sigma_x_sq + delta_test^2)/sigma_sq = {} must be < 1"
    for sigma_p_sq, c in ((0.5, "1"), (1.0, "2")):
        with pytest.raises(CgfRangeViolation, match=re.escape(adv.format(c))):
            cgf_adversarial(noise, IsotropicPrior(sigma_p_sq), dist, d=1, delta_test=0.0)


def test_cgf_adversarial_hand_values():
    out = cgf_adversarial(
        NoiseModel(1.0 / 9.0),
        IsotropicPrior(0.01),
        DataDistributionSpec(1.0, 0.5),
        d=5,
        delta_test=0.1,
    )
    assert out.c == pytest.approx(0.1818, rel=1e-9)
    assert out.s_sq == pytest.approx(12.4544, rel=1e-9)


def test_cgf_adversarial_delta_zero_doubles_scale():
    noise = NoiseModel(1.3)
    prior = IsotropicPrior(0.1)
    dist = DataDistributionSpec(0.8, 0.3)
    std = cgf_standard(noise, prior, dist, d=4)
    adv = cgf_adversarial(noise, prior, dist, d=4, delta_test=0.0)
    assert adv.c == pytest.approx(2.0 * std.c, rel=1e-14)
    # same bracket, doubled prefactor, with the adversarial c inside
    want = 2.0 * (adv.c * 4 - adv.c + 1.0 + 0.8 * 0.3 / 1.3)
    assert adv.s_sq == pytest.approx(want, rel=1e-14)


def test_cgf_adversarial_dominates_standard_scale():
    rng = np.random.default_rng(0)
    for _ in range(100):
        noise = NoiseModel(float(rng.uniform(0.5, 2)))
        prior = IsotropicPrior(float(rng.uniform(0.01, 0.2)))
        dist = DataDistributionSpec(float(rng.uniform(0.5, 2)), float(rng.uniform(0, 1)))
        dh = float(rng.uniform(0, 0.5))
        assert (
            cgf_adversarial(noise, prior, dist, d=3, delta_test=dh).c
            >= cgf_standard(noise, prior, dist, d=3).c
        )


# --- normalizers -------------------------------------------------------------


def test_neg_log_z_bayes_zero_features():
    y = np.array([1.0, -2.0, 0.5])
    ds = validate_dataset(np.zeros((3, 2)), y)
    got = neg_log_z_bayes(ds, NoiseModel(1.3), IsotropicPrior(0.7))
    assert got == pytest.approx(float(y @ y) / (2 * 1.3), rel=1e-12)


def test_neg_log_z_bayes_hand_value():
    ds = validate_dataset(np.array([[1.0]]), np.array([1.0]))
    got = neg_log_z_bayes(ds, NoiseModel(1.0), IsotropicPrior(1.0))
    assert got == pytest.approx(0.5 * math.log(2.0) + 0.25, rel=1e-14)


def test_neg_log_z_bayes_matches_quadrature():
    rng = np.random.default_rng(3)
    for _ in range(5):
        n = int(rng.integers(1, 8))
        x = rng.standard_normal((n, 1))
        y = rng.standard_normal(n)
        ds = validate_dataset(x, y)
        sigma_sq = float(rng.uniform(0.5, 2))
        sigma_p_sq = float(rng.uniform(0.3, 1.5))
        got = neg_log_z_bayes(ds, NoiseModel(sigma_sq), IsotropicPrior(sigma_p_sq))
        want = orc.oracle_neg_log_z_bayes_quadrature(x, y, sigma_sq, sigma_p_sq)
        assert got == pytest.approx(want, abs=1e-4)


def test_neg_log_z_robust_upper_degenerate():
    y = np.array([1.0, 2.0])
    ds = validate_dataset(np.zeros((2, 1)), y)
    got = neg_log_z_robust_upper(ds, NoiseModel(1.0), IsotropicPrior(1.0), 0.0)
    assert got == pytest.approx(float(y @ y), rel=1e-12)  # ||Y||^2 / sigma^2


def test_neg_log_z_robust_upper_monotone_in_delta():
    rng = np.random.default_rng(4)
    for seed in range(20):
        n = int(rng.integers(1, 10))
        d = int(rng.integers(1, 5))
        ds = validate_dataset(rng.standard_normal((n, d)), rng.standard_normal(n))
        noise, prior = NoiseModel(1.0), IsotropicPrior(0.5)
        vals = [
            neg_log_z_robust_upper(ds, noise, prior, delta)
            for delta in (0.0, 0.1, 0.5, 1.0, 2.0)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -0.1])
def test_radius_that_is_not_finite_and_nonnegative_is_named(bad):
    """A NaN radius used to surface as CgfRangeViolation or NonFiniteEntry."""
    noise, prior = NoiseModel(1.0), IsotropicPrior(0.01)
    with pytest.raises(ValueError, match=f"delta_test must be finite and >= 0, got {bad}"):
        cgf_adversarial(noise, prior, DataDistributionSpec(1.0, 0.5), 5, bad)
    ds = validate_dataset(np.ones((3, 2)), np.arange(3.0))
    with pytest.raises(ValueError, match=f"delta must be finite and >= 0, got {bad}"):
        neg_log_z_robust_upper(ds, noise, prior, bad)


def test_neg_log_z_robust_upper_bounds_importance_estimate():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((5, 1))
    y = rng.standard_normal(5)
    ds = validate_dataset(x, y)
    for delta in (0.0, 0.2, 0.6):
        upper = neg_log_z_robust_upper(ds, NoiseModel(1.0), IsotropicPrior(1.0), delta)
        est, se = orc.oracle_neg_log_z_robust_importance(
            x, y, 1.0, 1.0, delta, n_draws=200_000, seed=9
        )
        assert upper >= est - 3 * se


# --- preconditions -----------------------------------------------------------


def test_preconditions_bayes_std_pass():
    checks = validate_preconditions(
        TheoremId.BAYES_STD,
        NoiseModel(1.0),
        IsotropicPrior(0.5),
        DataDistributionSpec(1.0, 0.0),
        None,
        n=10,
        d=2,
        beta=0.05,
    )
    assert all(c.ok for c in checks)
    assert any("sigma_p_sq" in c.detail for c in checks)


def test_preconditions_bayes_adv_denominator_fails_at_large_n():
    checks = validate_preconditions(
        TheoremId.BAYES_ADV,
        NoiseModel(1.0),
        IsotropicPrior(0.01),
        DataDistributionSpec(1.0, 0.0),
        PerturbationBudget(delta_train=0.1, delta_test=0.1),
        n=10_000,  # sigma^2 - 2 n delta^2 sigma_p^2 = 1 - 2 < 0
        d=2,
        beta=0.05,
    )
    failed = [c for c in checks if not c.ok]
    assert len(failed) == 1
    assert failed[0].name == "denominator_positive"
    assert ">" in failed[0].detail  # the violated inequality is rendered


def test_preconditions_general_auto_pass_when_test_budget_smaller():
    checks = validate_preconditions(
        TheoremId.ROBUST_ADV_GENERAL,
        NoiseModel(1.0),
        IsotropicPrior(0.01),
        DataDistributionSpec(1.0, 0.0),
        PerturbationBudget(delta_train=0.2, delta_test=0.1),
        n=10 ** 9,  # would annihilate the denominator if the gap were positive
        d=2,
        beta=0.05,
    )
    denom = [c for c in checks if c.name == "denominator_positive"]
    assert len(denom) == 1 and denom[0].ok


def test_precondition_violation_is_a_hard_error():
    ds = validate_dataset(np.ones((3, 1)), np.ones(3))
    with pytest.raises(PreconditionViolated) as info:
        cert_bayes_standard(
            ds,
            NoiseModel(1.0),
            IsotropicPrior(2.0),  # c = 2 >= 1
            DataDistributionSpec(1.0, 0.0),
            beta=0.05,
        )
    assert any("FAIL" in line for line in info.value.diagnostics)


# --- the five bounds -----------------------------------------------------------


def test_cert_bayes_standard_degenerate_hand_value():
    ds = validate_dataset(np.zeros((1, 1)), np.zeros(1))
    report = cert_bayes_standard(
        ds, NoiseModel(1.0), IsotropicPrior(0.5), DataDistributionSpec(1.0, 0.0), beta=1.0
    )
    assert report.bound_value == 1.0  # exact, not approximate
    assert report.cgf_c == 0.5


def test_all_bounds_match_straight_line_oracles():
    for seed in range(25):
        ds, noise, prior, dist, delta, delta_hat, beta = _instance(seed)
        x, y = ds.X, ds.Y
        args = (noise.sigma_sq, prior.sigma_p_sq, dist.sigma_x_sq, dist.theta_star_norm_sq)
        got_want = [
            (
                cert_bayes_standard(ds, noise, prior, dist, beta).bound_value,
                orc.oracle_cert_bayes_standard(x, y, *args, beta),
            ),
            (
                cert_bayes_adversarial(
                    ds, noise, prior, dist, PerturbationBudget(0.0, delta_hat), beta
                ).bound_value,
                orc.oracle_cert_bayes_adversarial(x, y, *args, delta_hat, beta),
            ),
            (
                cert_robust_standard(
                    ds, noise, prior, dist, PerturbationBudget(delta, 0.0), beta
                ).bound_value,
                orc.oracle_cert_robust_standard(x, y, *args, delta, beta),
            ),
            (
                cert_robust_adversarial_matched(
                    ds, noise, prior, dist, PerturbationBudget(delta, delta), beta
                ).bound_value,
                orc.oracle_cert_robust_adversarial_matched(x, y, *args, delta, beta),
            ),
            (
                cert_robust_adversarial_general(
                    ds, noise, prior, dist, PerturbationBudget(delta, delta_hat), beta
                ).bound_value,
                orc.oracle_cert_robust_adversarial_general(
                    x, y, *args, delta, delta_hat, beta
                ),
            ),
        ]
        for got, want in got_want:
            assert got == pytest.approx(want, rel=1e-9)


def test_bounds_decrease_in_beta():
    ds, noise, prior, dist, delta, delta_hat, _ = _instance(99)
    betas = (0.01, 0.05, 0.2, 0.9)

    def series(fn, *extra):
        return [fn(ds, noise, prior, dist, *extra, beta=b).bound_value for b in betas]

    all_series = [
        series(cert_bayes_standard),
        series(cert_bayes_adversarial, PerturbationBudget(0.0, delta_hat)),
        series(cert_robust_standard, PerturbationBudget(delta, 0.0)),
        series(cert_robust_adversarial_matched, PerturbationBudget(delta, delta)),
        series(cert_robust_adversarial_general, PerturbationBudget(delta, delta_hat)),
    ]
    for vals in all_series:
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_gram_terms_agree_across_formulations():
    """The d x d path (n >= d) and the n x n path (n < d) compute the same
    log-determinant and quadratic form."""
    rng = np.random.default_rng(7)
    for n, d in [(12, 4), (4, 12), (9, 9), (1, 6), (6, 1)]:
        x = rng.standard_normal((n, d))
        y = rng.standard_normal(n)
        ds = validate_dataset(x, y)
        k = float(rng.uniform(0.5, 3.0))
        a = float(rng.uniform(0.05, 1.0))
        logdet, quad = _gram_terms(ds, k, a)
        want_logdet = float(np.sum(np.log(np.linalg.eigvalsh(k * np.eye(d) + a * x.T @ x))))
        want_quad = float(y @ np.linalg.solve(k * np.eye(n) + a * (x @ x.T), y))
        assert logdet == pytest.approx(want_logdet, rel=1e-8)
        assert quad == pytest.approx(want_quad, rel=1e-8)


def test_matched_requires_equal_budgets():
    ds, noise, prior, dist, delta, _, beta = _instance(3)
    with pytest.raises(BudgetMismatch):
        cert_robust_adversarial_matched(
            ds, noise, prior, dist, PerturbationBudget(delta, delta + 0.01), beta
        )


def test_matched_dominated_by_general():
    violations = 0
    for seed in range(60):
        ds, noise, prior, dist, delta, _, beta = _instance(seed + 500)
        budget = PerturbationBudget(delta, delta)
        m = cert_robust_adversarial_matched(ds, noise, prior, dist, budget, beta)
        g = cert_robust_adversarial_general(ds, noise, prior, dist, budget, beta)
        if m.bound_value > g.bound_value:
            violations += 1
    assert violations == 0


def test_robust_standard_finite_for_all_delta():
    ds, noise, prior, dist, _, _, beta = _instance(42)
    for delta in (0.0, 0.5, 2.0, 10.0, 100.0):
        report = cert_robust_standard(
            ds, noise, prior, dist, PerturbationBudget(delta, 0.0), beta
        )
        assert math.isfinite(report.bound_value)


def test_general_nondecreasing_in_delta_hat():
    ds, noise, prior, dist, delta, _, beta = _instance(77)
    prev = -math.inf
    for dh in np.linspace(delta, delta + 0.15, 6):
        report = cert_robust_adversarial_general(
            ds, noise, prior, dist, PerturbationBudget(delta, float(dh)), beta
        )
        assert report.bound_value >= prev - 1e-12
        prev = report.bound_value


def test_matched_at_delta_zero_dominates_bayes_std_data_terms():
    """Even with delta = delta_hat = 0 the matched bound keeps the doubled
    Gram coefficient from the robust-normalizer envelope, so (tails aside) it
    can only be looser than the exact-normalizer BayesStd bound: eigenwise,
    log(1+2rl) >= 0.5 log(1+rl) and 1/(1+2rl) >= 0.5/(1+rl)."""
    for seed in range(20):
        ds, noise, prior, dist, _, _, beta = _instance(seed)
        matched = cert_robust_adversarial_matched(
            ds, noise, prior, dist, PerturbationBudget(0.0, 0.0), beta
        )
        std = cert_bayes_standard(ds, noise, prior, dist, beta)
        tail_m = cgf_adversarial(noise, prior, dist, ds.d, 0.0).tail
        tail_s = cgf_standard(noise, prior, dist, ds.d).tail
        assert matched.bound_value - tail_m >= std.bound_value - tail_s - 1e-12

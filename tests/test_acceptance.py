"""Acceptance suite: one test per shipped claim, each printing a verdict line.

Every test ends by calling _verdict, which prints
``criterion N: PASS/FAIL - <measured numbers>`` before asserting, so a plain
``pytest -v -s tests/test_acceptance.py`` doubles as the conformance report.
The slow tests state their own runtime budgets and assert them.
"""

import math
import time
from pathlib import Path

import numpy as np

import oracles
from certbayes import (
    DataDistributionSpec,
    GaussianPosterior,
    HmcConfig,
    IsotropicPrior,
    NoiseModel,
    PerturbationBudget,
    SplitSpec,
    SpdMatrix,
    SyntheticSpec,
    bayes_posterior,
    bernoulli_family,
    cert_bayes_adversarial,
    cert_bayes_standard,
    cert_robust_adversarial_general,
    cert_robust_adversarial_matched,
    cert_robust_standard,
    default_n_chains,
    expected_risk,
    expfam_adv_nll_point,
    gaussian_adv_nll,
    gaussian_nll,
    generate_synthetic,
    hmc_sample,
    load_csv,
    neg_log_z_bayes,
    neg_log_z_robust_upper,
    poisson_family,
    robust_log_density_grad,
    split,
    standardize_fit_transform,
    validate_dataset,
)
from certbayes.posterior import _effective_sample_size

_DATA_DIR = Path(__file__).resolve().parent.parent / "data"


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def _slice_synthetic(n_train, n_test, d, sigma_sq, theta_norm_sq, seed):
    """Train and test rows from one draw, so both share the same truth."""
    spec = SyntheticSpec(
        n=n_train + n_test, d=d, sigma_x_sq=1.0, sigma_sq=sigma_sq,
        theta_star_norm_sq=theta_norm_sq, seed=seed,
    )
    full, _ = generate_synthetic(spec)
    train = validate_dataset(full.X[:n_train], full.Y[:n_train])
    test = validate_dataset(full.X[n_train:], full.Y[n_train:])
    return train, test


def _robust_hmc(train, noise, prior, delta, n_samples, n_warmup, leapfrog, seed):
    """The CLI's robust sampler: preconditioned by the Bayes posterior
    precision and started from draws of the Bayes posterior, with the chains
    default_n_chains picks."""
    exact = bayes_posterior(train, noise, prior)
    return hmc_sample(
        lambda th: robust_log_density_grad(th, train, noise, prior, delta),
        HmcConfig(
            n_samples=n_samples, n_warmup=n_warmup,
            leapfrog_steps=leapfrog, seed=seed,
            n_chains=default_n_chains(train.n, n_samples),
        ),
        exact,
    )


# --------------------------------------------------------------------------


def test_criterion_1_closed_form_matches_brute_force_adversary():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260825)
    worst = 0.0
    for family in ("gaussian", "bernoulli", "poisson"):
        for i in range(200):
            d = 1 + i % 3
            delta = 0.0 if i % 10 == 0 else float(rng.uniform(0.0, 1.2))
            x = rng.standard_normal(d) * 1.5
            if family == "gaussian":
                theta = rng.standard_normal(d) * (0.3, 1.0, 3.0)[i % 3]
                y = float(rng.standard_normal() * 2.0)
                sigma_sq = float(rng.uniform(0.3, 2.0))
                data = validate_dataset(x[None, :], np.array([y]))
                closed = gaussian_adv_nll(
                    theta, data, NoiseModel(sigma_sq), delta
                ).value
                ref = oracles.brute_force_gaussian_adv_nll_point(
                    theta, x, y, delta, sigma_sq, rng
                )
            else:
                theta = rng.standard_normal(d) * 0.5
                if family == "bernoulli":
                    y, fam = float(rng.integers(0, 2)), bernoulli_family()
                else:
                    y, fam = float(rng.integers(0, 6)), poisson_family()
                    delta = min(delta, 0.8)
                closed = expfam_adv_nll_point(theta, x, y, delta, fam).value
                ref = oracles.brute_force_expfam_adv_nll_point(
                    family, theta, x, y, delta, rng
                )
            worst = max(worst, abs(closed - ref) / max(abs(ref), 1e-6))
    elapsed = time.perf_counter() - t0
    _verdict(
        1,
        worst <= 1e-5 and elapsed < 60.0,
        f"max rel err {worst:.2e} over 3x200 instances in {elapsed:.1f}s "
        f"(limits 1e-5, 60s)",
    )


def test_criterion_2_delta_zero_reductions():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)

    worst_loss = 0.0
    for _ in range(50):
        data = validate_dataset(
            rng.standard_normal((8, 3)), rng.standard_normal(8)
        )
        noise = NoiseModel(float(rng.uniform(0.3, 2.0)))
        theta = rng.standard_normal(3)
        worst_loss = max(
            worst_loss,
            abs(
                gaussian_adv_nll(theta, data, noise, 0.0).value
                - gaussian_nll(theta, data, noise)
            ),
        )
    for fam_name, fam in (
        ("bernoulli", bernoulli_family()), ("poisson", poisson_family())
    ):
        for _ in range(25):
            theta = rng.standard_normal(2) * 0.5
            x = rng.standard_normal(2)
            hi = 2 if fam_name == "bernoulli" else 5
            y = float(rng.integers(0, hi))
            eta = float(theta @ x)
            std = fam.psi(eta) - y * eta - fam.base_log_measure(y)
            worst_loss = max(
                worst_loss, abs(expfam_adv_nll_point(theta, x, y, 0.0, fam).value - std)
            )

    # the delta=0 robust posterior is the Bayes posterior: risks must agree
    train, test = _slice_synthetic(60, 2000, 3, 1.0, 1.0, seed=5)
    noise, prior = NoiseModel(1.0), IsotropicPrior(0.5)
    exact = bayes_posterior(train, noise, prior)
    hmc = _robust_hmc(train, noise, prior, 0.0, 1500, 750, 16, seed=0)
    risk_gaps = []
    risks_ok = True
    for dh in (0.0, 0.1):
        rb = expected_risk(hmc, test, noise, dh)
        bb = expected_risk(exact, test, noise, dh, n_draws=1500, seed=11)
        gap = abs(rb.value - bb.value)
        limit = 3.0 * math.hypot(rb.std_error, bb.std_error)
        risk_gaps.append(f"dh={dh:g}: |gap| {gap:.4f} vs 3SE {limit:.4f}")
        risks_ok = risks_ok and gap <= limit
    elapsed = time.perf_counter() - t0
    _verdict(
        2,
        worst_loss <= 1e-12 and risks_ok and elapsed < 120.0,
        f"max loss gap {worst_loss:.2e} (limit 1e-12); "
        + "; ".join(risk_gaps)
        + f"; {elapsed:.1f}s (limit 120s)",
    )


def _cert_instance(seed):
    """Random instance inside every certificate's precondition region."""
    rng = np.random.default_rng(5000 + seed)
    n = int(rng.integers(1, 21))
    d = int(rng.integers(1, 21))
    X = rng.standard_normal((n, d)) * float(rng.uniform(0.5, 1.5))
    Y = rng.standard_normal(n) * float(rng.uniform(0.5, 1.5))
    sigma_sq = float(rng.uniform(0.5, 2.0))
    sigma_p_sq = float(rng.uniform(0.02, 0.2)) * sigma_sq
    sigma_x_sq = float(rng.uniform(0.5, 2.0))
    theta_norm_sq = float(rng.uniform(0.0, 2.0))
    delta = float(rng.uniform(0.0, 0.2))
    delta_hat = float(rng.uniform(0.0, 0.2))
    beta = float(rng.uniform(0.01, 0.5))
    data = validate_dataset(X, Y)
    return (
        data, NoiseModel(sigma_sq), IsotropicPrior(sigma_p_sq),
        DataDistributionSpec(sigma_x_sq=sigma_x_sq, theta_star_norm_sq=theta_norm_sq),
        delta, delta_hat, beta,
    )


def test_criterion_3_certificates_match_straight_line_oracles():
    worst = 0.0
    for seed in range(100):
        data, noise, prior, dist, delta, delta_hat, beta = _cert_instance(seed)
        X, Y = data.X, data.Y
        common = dict(
            sigma_sq=noise.sigma_sq, sigma_p_sq=prior.sigma_p_sq,
            sigma_x_sq=dist.sigma_x_sq, theta_norm_sq=dist.theta_star_norm_sq,
            beta=beta,
        )
        pairs = [
            (
                cert_bayes_standard(data, noise, prior, dist, beta),
                oracles.oracle_cert_bayes_standard(
                    X, Y, common["sigma_sq"], common["sigma_p_sq"],
                    common["sigma_x_sq"], common["theta_norm_sq"], beta,
                ),
            ),
            (
                cert_bayes_adversarial(
                    data, noise, prior, dist,
                    PerturbationBudget(delta, delta_hat), beta,
                ),
                oracles.oracle_cert_bayes_adversarial(
                    X, Y, common["sigma_sq"], common["sigma_p_sq"],
                    common["sigma_x_sq"], common["theta_norm_sq"], delta_hat, beta,
                ),
            ),
            (
                cert_robust_standard(
                    data, noise, prior, dist,
                    PerturbationBudget(delta, delta_hat), beta,
                ),
                oracles.oracle_cert_robust_standard(
                    X, Y, common["sigma_sq"], common["sigma_p_sq"],
                    common["sigma_x_sq"], common["theta_norm_sq"], delta, beta,
                ),
            ),
            (
                cert_robust_adversarial_matched(
                    data, noise, prior, dist, PerturbationBudget(delta, delta), beta
                ),
                oracles.oracle_cert_robust_adversarial_matched(
                    X, Y, common["sigma_sq"], common["sigma_p_sq"],
                    common["sigma_x_sq"], common["theta_norm_sq"], delta, beta,
                ),
            ),
            (
                cert_robust_adversarial_general(
                    data, noise, prior, dist,
                    PerturbationBudget(delta, delta_hat), beta,
                ),
                oracles.oracle_cert_robust_adversarial_general(
                    X, Y, common["sigma_sq"], common["sigma_p_sq"],
                    common["sigma_x_sq"], common["theta_norm_sq"],
                    delta, delta_hat, beta,
                ),
            ),
        ]
        for report, ref in pairs:
            worst = max(
                worst, abs(report.bound_value - ref) / max(abs(ref), 1e-12)
            )

    degenerate = cert_bayes_standard(
        validate_dataset(np.zeros((1, 1)), np.zeros(1)),
        NoiseModel(1.0),
        IsotropicPrior(0.5),
        DataDistributionSpec(sigma_x_sq=1.0, theta_star_norm_sq=0.0),
        beta=1.0,
    )
    exact_one = degenerate.bound_value == 1.0
    _verdict(
        3,
        worst <= 1e-9 and exact_one,
        f"max rel err {worst:.2e} over 100 instances x 5 certificates "
        f"(limit 1e-9); degenerate bound {degenerate.bound_value!r} == 1.0: "
        f"{exact_one}",
    )


def test_criterion_4_matched_budget_dominance():
    violations = 0
    worst_gap = -math.inf
    for seed in range(500):
        data, noise, prior, dist, delta, _, beta = _cert_instance(10_000 + seed)
        budget = PerturbationBudget(delta, delta)
        matched = cert_robust_adversarial_matched(
            data, noise, prior, dist, budget, beta
        ).bound_value
        general = cert_robust_adversarial_general(
            data, noise, prior, dist, budget, beta
        ).bound_value
        if matched > general:
            violations += 1
        worst_gap = max(worst_gap, matched - general)
    _verdict(
        4,
        violations == 0,
        f"{violations} violations of matched <= general over 500 instances "
        f"(max matched-general gap {worst_gap:.2e})",
    )


def test_criterion_5_certificate_curves_decrease_and_hold():
    t0 = time.perf_counter()
    noise = NoiseModel(1.0 / 9.0)
    prior = IsotropicPrior(0.01)
    dist = DataDistributionSpec(sigma_x_sq=1.0, theta_star_norm_sq=0.5)
    budget = PerturbationBudget(delta_train=0.01, delta_test=0.01)
    certs = {
        "bayes-std": lambda tr: cert_bayes_standard(tr, noise, prior, dist),
        "bayes-adv": lambda tr: cert_bayes_adversarial(tr, noise, prior, dist, budget),
        "robust-std": lambda tr: cert_robust_standard(tr, noise, prior, dist, budget),
        "robust-adv-matched": lambda tr: cert_robust_adversarial_matched(
            tr, noise, prior, dist, budget
        ),
    }

    def gen_train(n, seed):
        spec = SyntheticSpec(
            n=n, d=5, sigma_x_sq=1.0, sigma_sq=1.0 / 9.0,
            theta_star_norm_sq=0.5, seed=seed,
        )
        return generate_synthetic(spec)[0]

    monotone = True
    for seed in range(3):
        bounds = {
            name: [fn(gen_train(n, seed)).bound_value for n in (10, 100, 1000, 10000)]
            for name, fn in certs.items()
        }
        monotone = monotone and all(b[-1] < b[0] for b in bounds.values())

    wins = {name: 0 for name in certs}
    for seed in range(40):
        train, test = _slice_synthetic(100, 10_000, 5, 1.0 / 9.0, 0.5, seed)
        exact = bayes_posterior(train, noise, prior)
        hmc = _robust_hmc(train, noise, prior, 0.01, 1500, 750, 16, seed)
        risks = {
            "bayes-std": expected_risk(exact, test, noise, 0.0).value,
            "bayes-adv": expected_risk(
                exact, test, noise, 0.01, n_draws=1500, seed=seed
            ).value,
            "robust-std": expected_risk(hmc, test, noise, 0.0).value,
            "robust-adv-matched": expected_risk(hmc, test, noise, 0.01).value,
        }
        for name, fn in certs.items():
            if fn(train).bound_value > risks[name]:
                wins[name] += 1
    elapsed = time.perf_counter() - t0
    min_wins = min(wins.values())
    _verdict(
        5,
        monotone and min_wins >= 38 and elapsed < 900.0,
        f"endpoint decrease over n=10..10^4 for 3 seeds: {monotone}; "
        f"bound>risk wins/40 {wins} (need >=38 each); "
        f"{elapsed:.0f}s (limit 900s)",
    )


def test_criterion_6_real_and_synthetic_robustness_trend():
    t0 = time.perf_counter()
    delta = 0.1

    data = load_csv(_DATA_DIR / "auto_mpg.csv", "mpg")
    noise = NoiseModel(1.0)
    prior = IsotropicPrior(1.0 / data.d)
    bayes_vals, robust_vals = [], []
    for seed in range(5):
        train, test = split(data, SplitSpec(train_fraction=0.7, seed=seed))
        train, test = standardize_fit_transform(train, test)
        exact = bayes_posterior(train, noise, prior)
        hmc = _robust_hmc(train, noise, prior, delta, 4000, 2000, 32, seed)
        bayes_vals.append(
            expected_risk(exact, test, noise, delta, n_draws=4000, seed=seed).value
        )
        robust_vals.append(expected_risk(hmc, test, noise, delta).value)
    bayes_mean = float(np.mean(bayes_vals))
    robust_mean = float(np.mean(robust_vals))
    mpg_ok = (
        robust_mean < bayes_mean
        and abs(bayes_mean - 1.0552) <= 0.03
        and abs(robust_mean - 1.0469) <= 0.03
    )

    # directional check on the synthetic family: known noise, no rescaling
    syn_noise = NoiseModel(1.0 / 9.0)
    syn_prior = IsotropicPrior(1.0 / 5.0)
    syn_wins = 0
    for seed in range(5):
        spec = SyntheticSpec(
            n=6000, d=5, sigma_x_sq=1.0, sigma_sq=1.0 / 9.0,
            theta_star_norm_sq=0.5, seed=seed,
        )
        full, _ = generate_synthetic(spec)
        train, test = split(full, SplitSpec(train_fraction=0.7, seed=seed))
        exact = bayes_posterior(train, syn_noise, syn_prior)
        hmc = _robust_hmc(train, syn_noise, syn_prior, delta, 4000, 2000, 32, seed)
        b = expected_risk(exact, test, syn_noise, delta, n_draws=4000, seed=seed).value
        r = expected_risk(hmc, test, syn_noise, delta).value
        syn_wins += r < b
    elapsed = time.perf_counter() - t0
    _verdict(
        6,
        mpg_ok and syn_wins >= 4 and elapsed < 600.0,
        f"auto-mpg adv NLL bayes {bayes_mean:.4f} vs robust {robust_mean:.4f} "
        f"(targets 1.0552/1.0469 +-0.03, robust<bayes); synthetic wins "
        f"{syn_wins}/5 (need >=4); {elapsed:.0f}s (limit 600s)",
    )


def test_criterion_7_hmc_recovers_closed_form_posterior():
    t0 = time.perf_counter()
    train, _ = _slice_synthetic(30, 1, 3, 1.0, 1.0, seed=3)
    post = bayes_posterior(train, NoiseModel(1.0), IsotropicPrior(0.5))
    precision = post.precision.entries
    cov = np.linalg.inv(precision)

    def logp_and_grad(th):
        r = th - post.mean
        pr = r @ precision  # precision is symmetric
        return -0.5 * np.sum(r * pr, axis=-1), -pr

    config = HmcConfig(n_samples=5000, n_warmup=2000, leapfrog_steps=32, seed=0)
    unit = GaussianPosterior(np.zeros(post.dim), SpdMatrix.from_array(np.eye(post.dim)))
    run_a = hmc_sample(logp_and_grad, config, unit)
    run_b = hmc_sample(logp_and_grad, config, unit)
    deterministic = (
        np.array_equal(run_a.draws, run_b.draws)
        and run_a.step_size == run_b.step_size
        and run_a.accept_rate == run_b.accept_rate
    )

    mean_ok = True
    worst_z = 0.0
    for j in range(post.dim):
        series = run_a.draws[:, j]
        se = series.std(ddof=1) / math.sqrt(_effective_sample_size(series))
        z = abs(series.mean() - post.mean[j]) / se
        worst_z = max(worst_z, z)
        mean_ok = mean_ok and z <= 3.0
    cov_err = np.linalg.norm(np.cov(run_a.draws.T) - cov) / np.linalg.norm(cov)
    elapsed = time.perf_counter() - t0
    _verdict(
        7,
        mean_ok and cov_err <= 0.10 and deterministic and elapsed < 60.0,
        f"max mean z-score {worst_z:.2f} (limit 3); cov Frobenius rel err "
        f"{cov_err:.3f} (limit 0.10); identical-seed replay: {deterministic}; "
        f"{elapsed:.1f}s (limit 60s)",
    )


def test_criterion_8_normalizer_bounds():
    t0 = time.perf_counter()
    rng = np.random.default_rng(8)
    worst = 0.0
    for n, sigma_sq, sigma_p_sq in (
        (1, 1.0, 1.0), (3, 0.5, 0.2), (5, 2.0, 0.7), (8, 1.0, 0.05), (12, 0.8, 1.5)
    ):
        X = rng.standard_normal((n, 1))
        Y = rng.standard_normal(n)
        data = validate_dataset(X, Y)
        value = neg_log_z_bayes(data, NoiseModel(sigma_sq), IsotropicPrior(sigma_p_sq))
        ref = oracles.oracle_neg_log_z_bayes_quadrature(X, Y, sigma_sq, sigma_p_sq)
        worst = max(worst, abs(value - ref) / max(1.0, abs(ref)))

    X = rng.standard_normal((5, 1))
    Y = rng.standard_normal(5)
    data = validate_dataset(X, Y)
    noise, prior = NoiseModel(1.0), IsotropicPrior(0.5)
    upper_ok = True
    slacks = []
    for delta in (0.1, 0.5):
        upper = neg_log_z_robust_upper(data, noise, prior, delta)
        est, se = oracles.oracle_neg_log_z_robust_importance(
            X, Y, 1.0, 0.5, delta, n_draws=10**6, seed=0
        )
        slacks.append(f"delta={delta:g}: upper-est {upper - est:+.3f} (3SE {3 * se:.4f})")
        upper_ok = upper_ok and upper >= est - 3.0 * se
    elapsed = time.perf_counter() - t0
    _verdict(
        8,
        worst <= 1e-4 and upper_ok and elapsed < 120.0,
        f"quadrature max rel err {worst:.2e} (limit 1e-4); "
        + "; ".join(slacks)
        + f"; {elapsed:.1f}s (limit 120s)",
    )


def test_criterion_9_gradient_matches_central_differences():
    rng = np.random.default_rng(9)
    train, _ = _slice_synthetic(30, 1, 3, 1.0, 1.0, seed=7)
    noise, prior = NoiseModel(1.0), IsotropicPrior(0.5)
    worst = 0.0
    for delta in (0.0, 0.25, 1.0):
        done = 0
        while done < 100:
            theta = rng.standard_normal(train.d) * 1.5
            residuals = train.Y - train.X @ theta
            if np.min(np.abs(residuals)) < 1e-3 or np.linalg.norm(theta) < 1e-2:
                continue  # keep away from the |r| and ||theta|| kinks
            _, grad = robust_log_density_grad(theta, train, noise, prior, delta)
            ref = oracles.central_difference_gradient(
                lambda t: robust_log_density_grad(t, train, noise, prior, delta)[0],
                theta,
            )
            worst = max(
                worst,
                float(np.max(np.abs(grad - ref)) / max(np.max(np.abs(ref)), 1e-6)),
            )
            done += 1
    _verdict(
        9,
        worst <= 1e-4,
        f"max rel err {worst:.2e} over 3 radii x 100 smooth points (limit 1e-4)",
    )

"""Adversarially robust Bayesian linear regression with PAC-Bayes certificates.

The package provides closed-form adversarial negative log-likelihood losses,
the exact Bayes posterior and its adversarially robust Gibbs counterpart
(sampled with HMC), five generalization certificates, and a small data/CLI
harness for reproducible experiments.
"""

from .adversarial_loss import (
    AdvLossValue,
    adv_loss_sandwich,
    bregman_divergence,
    expfam_adv_nll_point,
    gaussian_adv_nll,
    gaussian_adv_perturbation,
    gaussian_nll,
)
from .certificates import (
    CgfConstants,
    cert_bayes_adversarial,
    cert_bayes_standard,
    cert_robust_adversarial_general,
    cert_robust_adversarial_matched,
    cert_robust_standard,
    cgf_adversarial,
    cgf_standard,
    neg_log_z_bayes,
    neg_log_z_robust_upper,
    validate_preconditions,
)
from .data_pipeline import (
    SplitSpec,
    SyntheticSpec,
    generate_synthetic,
    load_csv,
    save_csv,
    split,
    standardize_fit_transform,
)
from .model import (
    CertificateReport,
    DataDistributionSpec,
    Dataset,
    ExponentialFamily,
    GaussianPosterior,
    IsotropicPrior,
    NoiseModel,
    PerturbationBudget,
    SampleSet,
    TheoremId,
    bernoulli_family,
    gaussian_family,
    poisson_family,
    validate_dataset,
)
from .numerics import SpdMatrix, quad_form_inv, spd_logdet, spd_solve
from .posterior import (
    HmcConfig,
    RiskEstimate,
    bayes_posterior,
    default_n_chains,
    expected_risk,
    hmc_sample,
    robust_log_density_grad,
)

__version__ = "0.1.0"

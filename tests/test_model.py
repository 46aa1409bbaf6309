import numpy as np
import pytest

from certbayes import (
    BUILTIN_FAMILIES,
    CertificateReport,
    DataDistributionSpec,
    Dataset,
    GaussianPosterior,
    IsotropicPrior,
    NoiseModel,
    PerturbationBudget,
    SampleSet,
    SpdMatrix,
    TheoremId,
    validate_dataset,
)
from certbayes.errors import DimensionMismatch, Empty, NonFiniteEntry


def test_validate_dataset_well_formed():
    ds = validate_dataset(np.ones((3, 2)), np.zeros(3))
    assert isinstance(ds, Dataset)
    assert ds.n == 3 and ds.d == 2


def test_validate_dataset_row_mismatch():
    with pytest.raises(DimensionMismatch):
        validate_dataset(np.ones((3, 2)), np.zeros(4))


def test_validate_dataset_nan():
    x = np.ones((3, 2))
    x[1, 0] = np.nan
    with pytest.raises(NonFiniteEntry):
        validate_dataset(x, np.zeros(3))
    with pytest.raises(NonFiniteEntry):
        validate_dataset(np.ones((2, 2)), np.array([0.0, np.inf]))


def test_validate_dataset_empty():
    with pytest.raises(Empty):
        validate_dataset(np.empty((0, 2)), np.empty(0))
    with pytest.raises(Empty):
        validate_dataset(np.empty((3, 0)), np.zeros(3))


def test_dataset_arrays_are_frozen():
    ds = validate_dataset(np.ones((2, 2)), np.zeros(2))
    with pytest.raises(ValueError):
        ds.X[0, 0] = 5.0
    with pytest.raises(ValueError):
        ds.Y[0] = 5.0


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
def test_scalar_type_validation(bad):
    with pytest.raises(ValueError):
        NoiseModel(bad)
    with pytest.raises(ValueError):
        IsotropicPrior(bad)
    with pytest.raises(ValueError):
        DataDistributionSpec(sigma_x_sq=bad, theta_star_norm_sq=0.0)


def test_budget_validation():
    b = PerturbationBudget(delta_train=0.0, delta_test=0.3)
    assert b.delta_test == 0.3
    with pytest.raises(ValueError):
        PerturbationBudget(delta_train=-0.1, delta_test=0.0)
    with pytest.raises(ValueError):
        PerturbationBudget(delta_train=0.0, delta_test=float("inf"))


def test_theta_star_norm_can_be_zero():
    spec = DataDistributionSpec(sigma_x_sq=1.0, theta_star_norm_sq=0.0)
    assert spec.theta_star_norm_sq == 0.0


# --- exponential families ----------------------------------------------------


def _probe_points(name):
    # keep Poisson probes small enough that psi stays finite
    return np.linspace(-3.0, 3.0, 13) if name != "poisson" else np.linspace(-3.0, 2.0, 13)


@pytest.mark.parametrize("name", sorted(BUILTIN_FAMILIES))
def test_family_psi_convex(name):
    fam = BUILTIN_FAMILIES[name]()
    pts = _probe_points(name)
    for a, b, c in zip(pts, pts[1:], pts[2:]):
        lam = (b - a) / (c - a)
        chord = (1 - lam) * fam.psi(a) + lam * fam.psi(c)
        assert fam.psi(b) <= chord + 1e-9


@pytest.mark.parametrize("name", sorted(BUILTIN_FAMILIES))
def test_family_grad_matches_finite_differences(name):
    fam = BUILTIN_FAMILIES[name]()
    h = 1e-7
    for eta in _probe_points(name):
        fd = (fam.psi(eta + h) - fam.psi(eta - h)) / (2 * h)
        assert fam.psi_grad(eta) == pytest.approx(fd, rel=1e-6, abs=1e-6)


# --- posterior containers -----------------------------------------------------


def test_gaussian_posterior_sampling_moments():
    precision = SpdMatrix.from_array(np.array([[4.0, 1.0], [1.0, 3.0]]))
    mean = np.array([1.0, -2.0])
    post = GaussianPosterior(mean=mean, precision=precision)
    draws = post.sample(200_000, np.random.default_rng(7))
    cov_target = np.linalg.inv(precision.entries)
    np.testing.assert_allclose(draws.mean(axis=0), mean, atol=5e-3)
    np.testing.assert_allclose(np.cov(draws.T), cov_target, atol=5e-3)


def test_gaussian_posterior_dimension_check():
    precision = SpdMatrix.from_array(np.eye(2))
    with pytest.raises(DimensionMismatch):
        GaussianPosterior(mean=np.zeros(3), precision=precision)
    with pytest.raises(NonFiniteEntry):
        GaussianPosterior(mean=np.array([np.nan, 0.0]), precision=precision)


def test_sample_set_validation():
    good = SampleSet(draws=np.zeros((5, 2)), seed=0, accept_rate=0.8, step_size=0.1)
    assert good.n_draws == 5 and good.dim == 2
    with pytest.raises(ValueError):
        SampleSet(draws=np.zeros((5, 2)), seed=0, accept_rate=1.5, step_size=0.1)
    with pytest.raises(NonFiniteEntry):
        SampleSet(
            draws=np.full((5, 2), np.nan), seed=0, accept_rate=0.8, step_size=0.1
        )
    with pytest.raises(DimensionMismatch):
        SampleSet(draws=np.zeros(5), seed=0, accept_rate=0.8, step_size=0.1)


def test_theorem_ids():
    assert {t.value for t in TheoremId} == {
        "BayesStd",
        "BayesAdv",
        "RobustStd",
        "RobustAdvMatched",
        "RobustAdvGeneral",
    }


def test_certificate_report_invariants():
    ok = CertificateReport(
        bound_value=1.0,
        cgf_c=0.5,
        cgf_s_sq=1.0,
        t=1.0,
        beta=0.05,
        theorem_id=TheoremId.BAYES_STD,
        diagnostics=("c < 1 [pass]",),
    )
    d = ok.to_dict()
    assert d["theorem_id"] == "BayesStd"
    assert d["bound_value"] == 1.0
    assert d["preconditions"] == ["c < 1 [pass]"]

    with pytest.raises(ValueError):
        CertificateReport(
            bound_value=1.0,
            cgf_c=1.5,  # outside (0,1) while claiming preconditions passed
            cgf_s_sq=1.0,
            t=1.0,
            beta=0.05,
            theorem_id=TheoremId.BAYES_STD,
        )
    with pytest.raises(ValueError):
        CertificateReport(
            bound_value=float("inf"),
            cgf_c=0.5,
            cgf_s_sq=1.0,
            t=1.0,
            beta=0.05,
            theorem_id=TheoremId.BAYES_STD,
        )
    with pytest.raises(ValueError):
        CertificateReport(
            bound_value=1.0,
            cgf_c=0.5,
            cgf_s_sq=1.0,
            t=1.0,
            beta=0.0,
            theorem_id=TheoremId.BAYES_STD,
        )

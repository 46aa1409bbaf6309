import copy
import functools
import math
import pickle

import numpy as np
import pytest

from certbayes import (
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
    bernoulli_family,
    cert_bayes_adversarial,
    cert_bayes_standard,
    cert_robust_adversarial_general,
    cert_robust_adversarial_matched,
    cert_robust_standard,
    gaussian_family,
    poisson_family,
    validate_dataset,
)
from certbayes.certificates import _gram_terms, neg_log_z_bayes, neg_log_z_robust_upper
from certbayes.errors import (
    DimensionMismatch,
    DomainViolation,
    Empty,
    NonFiniteEntry,
    NotPositiveDefinite,
)


def test_validate_dataset_well_formed():
    ds = validate_dataset(np.ones((3, 2)), np.zeros(3))
    assert isinstance(ds, Dataset)
    assert ds.n == 3 and ds.d == 2


def test_validate_dataset_row_mismatch():
    with pytest.raises(DimensionMismatch):
        validate_dataset(np.ones((3, 2)), np.zeros(4))


def test_validate_dataset_refuses_a_y_that_is_no_vector_and_an_x_that_is_no_matrix():
    with pytest.raises(DimensionMismatch, match=r"Y must be a vector, got shape \(3, 1\)"):
        validate_dataset(np.ones((3, 2)), np.zeros((3, 1)))
    with pytest.raises(DimensionMismatch, match=r"X must be a matrix, got shape \(3, 2, 1\)"):
        validate_dataset(np.ones((3, 2, 1)), np.zeros(3))


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


def test_array_holding_types_compare_and_hash_by_identity():
    a = validate_dataset(np.ones((3, 2)), np.zeros(3))
    b = validate_dataset(np.ones((3, 2)), np.zeros(3))
    assert a == a
    assert a != b
    keys = {a: "a", b: "b"}
    assert len(keys) == 2 and keys[a] == "a" and keys[b] == "b"
    precision = SpdMatrix.from_array(np.eye(2))
    post = GaussianPosterior(mean=np.zeros(2), precision=precision)
    draws = SampleSet(draws=np.zeros((2, 2)), accept_rate=1.0, step_size=0.1)
    for value, twin in [
        (precision, SpdMatrix.from_array(np.eye(2))),
        (post, GaussianPosterior(mean=np.zeros(2), precision=precision)),
        (draws, SampleSet(draws=np.zeros((2, 2)), accept_rate=1.0, step_size=0.1)),
    ]:
        assert value == value and value != twin
        assert len({value, twin}) == 2


# --- cached Gram statistics ------------------------------------------------------

_SHAPES = [(12, 4), (4, 12), (9, 9), (1, 6)]


def _random_dataset(n, d):
    rng = np.random.default_rng(n * 100 + d)
    return validate_dataset(rng.standard_normal((n, d)), rng.standard_normal(n))


@pytest.mark.parametrize("n, d", _SHAPES)
def test_gram_statistics_are_the_smaller_gram_and_xty(n, d):
    ds = _random_dataset(n, d)
    x = ds.X
    want = x.T @ x if d <= n else x @ x.T
    assert ds.gram.shape == (min(n, d), min(n, d))
    assert ds.gram.tobytes() == want.tobytes()


@pytest.mark.parametrize("n, d", _SHAPES)
def test_gram_statistics_are_read_only_and_kept(n, d):
    ds = _random_dataset(n, d)
    gram = ds.gram
    assert ds.gram is gram
    assert not gram.flags.writeable
    with pytest.raises(ValueError):
        gram[0] = 1.0


_CERT_INPUTS = (
    NoiseModel(0.1111111111111111), IsotropicPrior(0.01),
    DataDistributionSpec(sigma_x_sq=1.0, theta_star_norm_sq=0.5),
    PerturbationBudget(delta_train=0.01, delta_test=0.01),
)
_FIVE_CERTS = (
    cert_bayes_standard, cert_bayes_adversarial, cert_robust_standard,
    cert_robust_adversarial_matched, cert_robust_adversarial_general,
)


def test_copied_or_unpickled_dataset_is_frozen_and_drops_the_cache():
    ds = _random_dataset(12, 4)
    gram = ds.gram
    bound = cert_bayes_standard(ds, *_CERT_INPUTS[:3]).bound_value
    assert len(ds.gram_terms) == 1
    screen = ds.sign_screen
    for twin in (pickle.loads(pickle.dumps(ds)), copy.deepcopy(ds), copy.copy(ds)):
        assert not (twin.X.flags.writeable or twin.Y.flags.writeable)
        assert "gram" not in vars(twin)
        assert "gram_terms" not in vars(twin)
        assert "sign_screen" not in vars(twin)
        assert twin.gram.tobytes() == gram.tobytes()
        assert not twin.gram.flags.writeable
        assert cert_bayes_standard(twin, *_CERT_INPUTS[:3]).bound_value == bound
        assert twin.gram_terms == ds.gram_terms and twin.gram_terms is not ds.gram_terms
        rebuilt = twin.sign_screen
        assert rebuilt is not screen
        for name, kept in vars(screen).items():
            again = getattr(rebuilt, name)
            assert np.asarray(again).tobytes() == np.asarray(kept).tobytes(), name
            if isinstance(kept, np.ndarray):
                assert not (kept.flags.writeable or again.flags.writeable), name


def _certify_one(cert, ds):
    noise, prior, dist, budget = _CERT_INPUTS
    if cert is cert_bayes_standard:
        return cert(ds, noise, prior, dist)
    return cert(ds, noise, prior, dist, budget)


def _counting_from_array(monkeypatch) -> list:
    """Record the shape of every matrix ``SpdMatrix.from_array`` is given."""
    shapes, original = [], SpdMatrix.from_array

    def counted(matrix):
        shapes.append(np.shape(matrix))
        return original(matrix)

    monkeypatch.setattr(SpdMatrix, "from_array", staticmethod(counted))
    return shapes


@pytest.mark.parametrize("n, d", _SHAPES)
def test_kept_terms_give_each_bound_bit_for_bit(n, d):
    """Every report on a shared dataset, in either order, equals the same
    certificate run alone on a fresh dataset of the same arrays."""
    shared = _random_dataset(n, d)
    alone = [_certify_one(cert, validate_dataset(shared.X, shared.Y)) for cert in _FIVE_CERTS]
    for order in (_FIVE_CERTS, _FIVE_CERTS[::-1]):
        ds = validate_dataset(shared.X, shared.Y)
        got = {cert: _certify_one(cert, ds) for cert in order}
        for cert, want in zip(_FIVE_CERTS, alone):
            report = got[cert]
            assert report.bound_value.hex() == want.bound_value.hex(), cert.__name__
            assert (report.cgf_c, report.cgf_s_sq, report.diagnostics) == (
                want.cgf_c, want.cgf_s_sq, want.diagnostics)


def test_normalizers_share_the_kept_terms(monkeypatch):
    shapes = _counting_from_array(monkeypatch)
    ds = _random_dataset(12, 4)
    noise, prior, _, _ = _CERT_INPUTS
    first = (neg_log_z_bayes(ds, noise, prior), neg_log_z_robust_upper(ds, noise, prior, 0.3))
    cert_bayes_standard(ds, *_CERT_INPUTS[:3])
    again = (neg_log_z_bayes(ds, noise, prior), neg_log_z_robust_upper(ds, noise, prior, 0.3))
    assert again == first
    assert len(shapes) == 2
    fresh = validate_dataset(ds.X, ds.Y)
    assert neg_log_z_robust_upper(fresh, noise, prior, 0.3) == first[1]


@pytest.mark.parametrize("n, d", [(12, 4), (4, 12)])
def test_a_failed_factorization_is_not_kept(n, d, monkeypatch):
    shapes = _counting_from_array(monkeypatch)
    ds = _random_dataset(n, d)
    for _ in range(2):
        with pytest.raises(NotPositiveDefinite):
            _gram_terms(ds, -1.0, 1e-3)
    assert len(shapes) == 2
    assert ds.gram_terms == {}


@pytest.mark.parametrize("n, d", _SHAPES)
def test_five_certificates_form_the_gram_statistics_once(n, d, monkeypatch):
    """One Gram matrix, and three factorizations for five rows: I + rG,
    k I + 2rG and k I + rG. Running the five again factorizes nothing."""
    formed = {"gram": 0}
    original = Dataset.gram.func

    def counted(self):
        formed["gram"] += 1
        return original(self)

    prop = functools.cached_property(counted)
    prop.__set_name__(Dataset, "gram")
    monkeypatch.setattr(Dataset, "gram", prop)
    shapes = _counting_from_array(monkeypatch)
    ds = _random_dataset(n, d)
    for cert in _FIVE_CERTS:
        _certify_one(cert, ds)
    assert formed == {"gram": 1}
    assert shapes == [(min(n, d), min(n, d))] * 3
    assert len(ds.gram_terms) == 3
    for cert in _FIVE_CERTS:
        _certify_one(cert, ds)
    assert formed == {"gram": 1} and len(shapes) == 3


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


_FAMILIES = {
    "gaussian": gaussian_family,
    "bernoulli": bernoulli_family,
    "poisson": poisson_family,
}


def _probe_points(name):
    # keep Poisson probes small enough that psi stays finite
    return np.linspace(-3.0, 3.0, 13) if name != "poisson" else np.linspace(-3.0, 2.0, 13)


@pytest.mark.parametrize("name", sorted(_FAMILIES))
def test_family_psi_convex(name):
    fam = _FAMILIES[name]()
    pts = _probe_points(name)
    for a, b, c in zip(pts, pts[1:], pts[2:]):
        lam = (b - a) / (c - a)
        chord = (1 - lam) * fam.psi(a) + lam * fam.psi(c)
        assert fam.psi(b) <= chord + 1e-9


@pytest.mark.parametrize("name", sorted(_FAMILIES))
def test_family_grad_matches_finite_differences(name):
    fam = _FAMILIES[name]()
    h = 1e-7
    for eta in _probe_points(name):
        fd = (fam.psi(eta + h) - fam.psi(eta - h)) / (2 * h)
        assert fam.psi_grad(eta) == pytest.approx(fd, rel=1e-6, abs=1e-6)


def test_bernoulli_grad_is_the_logistic_without_overflow():
    fam = bernoulli_family()
    assert fam.psi_grad(0.0) == 0.5
    assert fam.psi_grad(2.0) == pytest.approx(1.0 / (1.0 + math.exp(-2.0)), rel=1e-15)
    assert fam.psi_grad(-2.0) == pytest.approx(1.0 - fam.psi_grad(2.0), rel=1e-15)
    assert (fam.psi_grad(-1000.0), fam.psi_grad(1000.0)) == (0.0, 1.0)


def test_poisson_base_measure_is_minus_log_factorial():
    fam = poisson_family()
    for k in range(8):
        assert fam.base_log_measure(float(k)) == pytest.approx(
            -math.log(math.factorial(k)), abs=1e-14
        )
    assert fam.base_log_measure(1e308) == -math.inf  # Gamma(y + 1) overflows


@pytest.mark.parametrize("y", [-1.0, -2.0, -7.0])
def test_poisson_base_measure_refuses_its_poles(y):
    with pytest.raises(DomainViolation, match="poisson"):
        poisson_family().base_log_measure(y)


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
    good = SampleSet(draws=np.zeros((5, 2)), accept_rate=0.8, step_size=0.1)
    assert good.n_draws == 5 and good.dim == 2
    with pytest.raises(ValueError):
        SampleSet(draws=np.zeros((5, 2)), accept_rate=1.5, step_size=0.1)
    with pytest.raises(NonFiniteEntry):
        SampleSet(
            draws=np.full((5, 2), np.nan), accept_rate=0.8, step_size=0.1
        )
    with pytest.raises(DimensionMismatch):
        SampleSet(draws=np.zeros(5), accept_rate=0.8, step_size=0.1)


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
            beta=0.05,
            theorem_id=TheoremId.BAYES_STD,
        )
    with pytest.raises(ValueError):
        CertificateReport(
            bound_value=float("inf"),
            cgf_c=0.5,
            cgf_s_sq=1.0,
            beta=0.05,
            theorem_id=TheoremId.BAYES_STD,
        )
    with pytest.raises(ValueError):
        CertificateReport(
            bound_value=1.0,
            cgf_c=0.5,
            cgf_s_sq=1.0,
            beta=0.0,
            theorem_id=TheoremId.BAYES_STD,
        )

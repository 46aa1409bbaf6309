"""Domain types shared across the package.

All types are immutable value objects validated on construction, so any
instance passed around is known-good. Types that hold arrays compare and
hash by identity, as == on arrays has no single truth value.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np
from scipy.linalg import solve_triangular

from .errors import DimensionMismatch, DomainViolation, Empty, NonFiniteEntry
from .numerics import SpdMatrix


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _check_nonnegative(name: str, v: float) -> None:
    """Reject a value that is NaN, infinite or negative, naming it."""
    if not (math.isfinite(v) and v >= 0):
        raise ValueError(f"{name} must be finite and >= 0, got {v}")


def _check_positive(name: str, v: float) -> None:
    """Reject a value that is NaN, infinite, zero or negative, naming it."""
    if not (math.isfinite(v) and v > 0):
        raise ValueError(f"{name} must be finite and > 0, got {v}")


@dataclass(frozen=True, eq=False)
class Dataset:
    """A feature matrix X (n rows, d columns) with a label vector Y (length n).

    :attr:`gram` and :attr:`gram_terms`, the certificates' data terms by
    (k, a), are kept for the life of the instance. The caches are sound only
    because X and Y never change. Every instance the library makes holds
    frozen arrays that nothing else can write: :func:`validate_dataset`
    freezes copies of a caller's arrays, and ``_own_dataset`` freezes in
    place the arrays that the library has just made (a parsed file, a
    generated or standardized dataset, the rows of a split), to which no
    other reference is left. A copy or unpickled instance is rebuilt through
    :func:`validate_dataset`.
    """

    X: np.ndarray
    Y: np.ndarray

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    def __reduce__(self):
        # Unpickled arrays are writeable; rebuild frozen ones, without the caches.
        return validate_dataset, (self.X, self.Y)

    @cached_property
    def gram(self) -> np.ndarray:
        """The smaller Gram matrix, read-only: X'X (d x d) when d <= n, else
        XX' (n x n)."""
        x = self.X
        return _freeze(x.T @ x if self.d <= self.n else x @ x.T)

    @cached_property
    def gram_terms(self) -> dict:
        """(k, a) -> (log det(k I_d + a X'X), Y'(k I_n + a XX')^{-1} Y), as
        ``certificates._gram_terms`` computed them."""
        return {}


def validate_dataset(X, Y) -> Dataset:
    """Validate raw arrays and wrap copies of them in a :class:`Dataset`.

    The copies are what make the dataset's caches sound for a caller's
    arrays: the caller may still hold X and Y, or a writeable view of them,
    and write to it later.

    Raises
    ------
    Empty
        if there are no rows or no feature columns.
    DimensionMismatch
        if X is not 2-D, Y is not 1-D, or their row counts differ.
    NonFiniteEntry
        if any entry is NaN or infinite.
    """
    x = np.atleast_2d(np.asarray(X, dtype=float))
    return _own_dataset(x.copy(), np.asarray(Y, dtype=float).copy())


def _own_dataset(x: np.ndarray, y: np.ndarray) -> Dataset:
    """:func:`validate_dataset` for float arrays that the library has just
    made and that nothing else holds: the same checks, then x and y frozen in
    place, not copied.

    Freezing in place is as sound as the copy there, because no reference
    or view that could write to the arrays outlives the call that made them.
    """
    if y.ndim != 1:
        raise DimensionMismatch(f"Y must be a vector, got shape {y.shape}")
    if x.ndim != 2:
        raise DimensionMismatch(f"X must be a matrix, got shape {x.shape}")
    if x.shape[0] == 0 or x.shape[1] == 0:
        raise Empty(f"dataset has shape {x.shape}; need at least one row and column")
    if x.shape[0] != y.shape[0]:
        raise DimensionMismatch(
            f"X has {x.shape[0]} rows but Y has length {y.shape[0]}"
        )
    if not np.all(np.isfinite(x)):
        raise NonFiniteEntry("X contains NaN or Inf")
    if not np.all(np.isfinite(y)):
        raise NonFiniteEntry("Y contains NaN or Inf")
    return Dataset(X=_freeze(x), Y=_freeze(y))


@dataclass(frozen=True)
class NoiseModel:
    """Observation noise variance of the Gaussian likelihood."""

    sigma_sq: float

    def __post_init__(self):
        _check_positive("sigma_sq", self.sigma_sq)


@dataclass(frozen=True)
class IsotropicPrior:
    """Zero-mean isotropic Gaussian prior with variance sigma_p_sq per coordinate."""

    sigma_p_sq: float

    def __post_init__(self):
        _check_positive("sigma_p_sq", self.sigma_p_sq)


@dataclass(frozen=True)
class PerturbationBudget:
    """L2 feature-perturbation radii: delta_train for fitting, delta_test for evaluation."""

    delta_train: float
    delta_test: float

    def __post_init__(self):
        _check_nonnegative("delta_train", self.delta_train)
        _check_nonnegative("delta_test", self.delta_test)


@dataclass(frozen=True)
class DataDistributionSpec:
    """Population quantities the certificates consume.

    sigma_x_sq is the per-direction second moment of the features,
    E[(x'v)^2] = sigma_x_sq * ||v||^2; theta_star_norm_sq is the squared norm
    of the true parameter. Known exactly for synthetic data; plug-in estimates
    otherwise.
    """

    sigma_x_sq: float
    theta_star_norm_sq: float

    def __post_init__(self):
        _check_positive("sigma_x_sq", self.sigma_x_sq)
        _check_nonnegative("theta_star_norm_sq", self.theta_star_norm_sq)


@dataclass(frozen=True)
class ExponentialFamily:
    """A one-parameter exponential family in natural form.

    psi is the log-normalizer (strictly convex), psi_grad its derivative, and
    base_log_measure(y) the log of the base measure h(y), so the NLL of a
    point is psi(eta) - y*eta - base_log_measure(y).
    """

    name: str
    psi: Callable[[float], float]
    psi_grad: Callable[[float], float]
    base_log_measure: Callable[[float], float]


def gaussian_family(sigma_sq: float = 1.0) -> ExponentialFamily:
    """Gaussian with known variance; psi(eta) = eta^2 * sigma_sq / 2.

    The natural parameter of a linear model is eta = theta'x, which predicts
    mean sigma_sq * eta — so this family's NLL coincides with the squared-error
    NLL only at sigma_sq = 1.
    """
    _check_positive("sigma_sq", sigma_sq)
    return ExponentialFamily(
        name=f"gaussian(sigma_sq={sigma_sq:g})",
        psi=lambda eta: 0.5 * sigma_sq * eta * eta,
        psi_grad=lambda eta: sigma_sq * eta,
        base_log_measure=lambda y: -0.5 * y * y / sigma_sq
        - 0.5 * math.log(2.0 * math.pi * sigma_sq),
    )


def _logistic(eta: float) -> float:
    """1 / (1 + exp(-eta)), with exp taken of -|eta| so it never overflows."""
    z = math.exp(-abs(eta))
    return 1.0 / (1.0 + z) if eta >= 0.0 else z / (1.0 + z)


def bernoulli_family() -> ExponentialFamily:
    return ExponentialFamily(
        name="bernoulli",
        psi=lambda eta: float(np.logaddexp(0.0, eta)),
        psi_grad=_logistic,
        base_log_measure=lambda y: 0.0,
    )


def _poisson_base_log_measure(y: float) -> float:
    """-log Gamma(y + 1), -inf where Gamma overflows; refuses the poles y = -1, -2, ..."""
    try:
        return -math.lgamma(y + 1.0)
    except ValueError:
        raise DomainViolation(f"base measure of family 'poisson' has a pole at y={y!r}") from None
    except OverflowError:
        return -math.inf


def poisson_family() -> ExponentialFamily:
    return ExponentialFamily(
        name="poisson",
        psi=lambda eta: math.exp(eta) if eta < 700 else math.inf,
        psi_grad=lambda eta: math.exp(eta) if eta < 700 else math.inf,
        base_log_measure=_poisson_base_log_measure,
    )


@dataclass(frozen=True, eq=False)
class GaussianPosterior:
    """Exact Gaussian posterior: mean vector and precision matrix.

    Also the reference that hmc_sample takes: its precision is the mass
    matrix and its draws are the chains' starts."""

    mean: np.ndarray
    precision: SpdMatrix

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        if mean.ndim != 1 or mean.shape[0] != self.precision.dim:
            raise DimensionMismatch(
                f"mean has shape {mean.shape} but precision is "
                f"{self.precision.dim}x{self.precision.dim}"
            )
        if not np.all(np.isfinite(mean)):
            raise NonFiniteEntry("posterior mean contains NaN or Inf")
        object.__setattr__(self, "mean", _freeze(mean.copy()))

    @property
    def dim(self) -> int:
        return self.precision.dim

    def sample(self, n_draws: int, rng: np.random.Generator) -> np.ndarray:
        """Draw n_draws vectors; rows are mean + L^{-T} z with precision = L L'."""
        z = rng.standard_normal((self.dim, n_draws))
        shifted = solve_triangular(
            self.precision.chol_lower.T, z, lower=False, check_finite=False
        )
        return self.mean[None, :] + shifted.T


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Posterior draws from a sampler run, with its diagnostics.

    draws is (m, d) and chain-major: the m / n_chains draws of chain 0 in
    order, then those of chain 1, and so on. grad_evals counts the gradient
    rows the run evaluated, one per point per fused log-density-and-gradient
    call, max_leapfrog is its adapted maximum trajectory length, and
    divergences counts the sampling transitions, over all chains, whose
    energy error exceeded 1000; all three are 0 for draws no HMC run
    produced.
    """

    draws: np.ndarray
    accept_rate: float
    step_size: float
    grad_evals: int = 0
    max_leapfrog: int = 0
    n_chains: int = 1
    divergences: int = 0

    def __post_init__(self):
        draws = np.asarray(self.draws, dtype=float)
        if draws.ndim != 2:
            raise DimensionMismatch(f"draws must be (m, d), got shape {draws.shape}")
        if not (isinstance(self.n_chains, (int, np.integer)) and self.n_chains >= 1
                and draws.shape[0] % self.n_chains == 0):
            raise ValueError(
                f"n_chains must be a positive integer dividing the {draws.shape[0]} draws, "
                f"got {self.n_chains!r}"
            )
        if not np.all(np.isfinite(draws)):
            raise NonFiniteEntry("draws contain NaN or Inf")
        if not 0.0 <= self.accept_rate <= 1.0:
            raise ValueError(f"accept_rate must lie in [0,1], got {self.accept_rate}")
        object.__setattr__(self, "draws", _freeze(draws.copy()))

    @property
    def n_draws(self) -> int:
        return self.draws.shape[0]

    @property
    def dim(self) -> int:
        return self.draws.shape[1]


class TheoremId(enum.Enum):
    """Which generalization certificate a report carries."""

    BAYES_STD = "BayesStd"
    BAYES_ADV = "BayesAdv"
    ROBUST_STD = "RobustStd"
    ROBUST_ADV_MATCHED = "RobustAdvMatched"
    ROBUST_ADV_GENERAL = "RobustAdvGeneral"


@dataclass(frozen=True)
class CertificateReport:
    """A computed certificate: the bound, its tail constants, and diagnostics.

    Instances are only produced when every precondition passed, so the
    diagnostics record passing checks.
    """

    bound_value: float
    cgf_c: float
    cgf_s_sq: float
    beta: float
    theorem_id: TheoremId
    diagnostics: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if not 0.0 < self.beta <= 1.0:
            raise ValueError(f"beta must lie in (0, 1], got {self.beta}")
        if not (0.0 < self.cgf_c < 1.0):
            raise ValueError(
                f"cgf_c must lie in (0,1) for a valid report, got {self.cgf_c}"
            )
        if not math.isfinite(self.bound_value):
            raise ValueError(f"bound_value must be finite, got {self.bound_value}")

    def to_dict(self) -> dict:
        return {
            "theorem_id": self.theorem_id.value,
            "bound_value": self.bound_value,
            "c": self.cgf_c,
            "s_sq": self.cgf_s_sq,
            "beta": self.beta,
            "preconditions": list(self.diagnostics),
        }

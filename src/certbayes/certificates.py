"""PAC-Bayes generalization certificates for the Bayes and robust posteriors.

Each certificate is a high-probability upper bound on a posterior's expected
(possibly adversarial) test risk, from the training data plus the population
quantities in :class:`DataDistributionSpec`. All five are one formula,

    s/(2n) [log det U_d + (m/k) Y'U_n^{-1}Y / sigma^2]
    - v/(2n) [log det V_d + 2k Y'V_n^{-1}Y / sigma^2]
    + log(1/beta)/n + s_sq/(2 (1 - c)) + d g sigma_p^2 / (sigma^2 - 2 n g sigma_p^2),

with r = sigma_p^2/sigma^2, U = k I + m r G, V = k I + r G, and G = X'X in
the d x d form (subscript d) or XX' in the n x n form (subscript n). U is
I + r G (k = m = 1) or k I + 2 r G (k = 2 n delta_train^2 r + 1, m = 2); c and
s_sq are the sub-gamma constants of :func:`cgf_standard` or of
:func:`cgf_adversarial` at delta_test, taken at tilt 1: each bound is on a
Gibbs posterior at temperature n, whose data term is then a negative log
normalizer (Germain et al., NeurIPS 2016). ``_THEOREMS`` holds one row each:

    theorem           CGF          U          s  v  mismatch gap g
    BayesStd          standard     I + rG     1  0  -
    BayesAdv          adversarial  I + rG     2  0  delta_test^2
    RobustStd         standard     kI + 2rG   2  1  -
    RobustAdvMatched  adversarial  kI + 2rG   1  0  - (needs delta_test == delta_train)
    RobustAdvGeneral  adversarial  kI + 2rG   2  0  delta_test^2 - delta_train^2

:func:`validate_preconditions` reads the same rows: beta in (0, 1], n, d >= 1,
c < 1, matched budgets, and sigma^2 - 2 n g sigma_p^2 > 0 (automatic for
RobustAdvGeneral when g <= 0). The d x d and n x n forms of every data term
are equal; :func:`_gram_terms` factorizes the smaller. G is formed once per
dataset (``Dataset.gram``), and each distinct (k, a) is factorized once per
dataset (``Dataset.gram_terms``), for every data term on it. So the five rows
of ``certify --theorem all`` factorize at most three matrices: I + rG,
k I + 2rG and k I + rG (k = 1 at delta_train = 0 makes the last I + rG).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BudgetMismatch, CgfRangeViolation, PreconditionViolated
from .model import (
    CertificateReport,
    DataDistributionSpec,
    Dataset,
    IsotropicPrior,
    NoiseModel,
    PerturbationBudget,
    TheoremId,
    _check_nonnegative,
    _check_positive,
)
from .numerics import SpdMatrix, quad_form_inv, spd_logdet, spd_solve

__all__ = [
    "CgfConstants",
    "PreconditionCheck",
    "cgf_standard",
    "cgf_adversarial",
    "neg_log_z_bayes",
    "neg_log_z_robust_upper",
    "validate_preconditions",
    "cert_bayes_standard",
    "cert_bayes_adversarial",
    "cert_robust_standard",
    "cert_robust_adversarial_matched",
    "cert_robust_adversarial_general",
]

DEFAULT_BETA = 0.05


@dataclass(frozen=True)
class CgfConstants:
    """Sub-gamma scale c in (0, 1) and variance proxy s^2."""

    c: float
    s_sq: float

    def __post_init__(self):
        if not (0.0 < self.c < 1.0):
            raise ValueError(f"need 0 < c < 1, got c={self.c}")
        _check_positive("s_sq", self.s_sq)

    @property
    def tail(self) -> float:
        """The bound's tail term s^2 / (2 (1 - c))."""
        return self.s_sq / (2.0 * (1.0 - self.c))


def _scale(adversarial: bool, noise, prior, dist, delta_test: float) -> tuple[float, str]:
    """Sub-gamma scale c of the standard or adversarial NLL, with its formula
    for diagnostics."""
    if not adversarial:
        c = prior.sigma_p_sq * dist.sigma_x_sq / noise.sigma_sq
        return c, "sigma_p_sq*sigma_x_sq/sigma_sq"
    c = 2.0 * prior.sigma_p_sq * (dist.sigma_x_sq + delta_test ** 2) / noise.sigma_sq
    return c, "2*sigma_p_sq*(sigma_x_sq + delta_test^2)/sigma_sq"


def _cgf(adversarial: bool, noise, prior, dist, d: int, delta_test: float):
    """Sub-gamma constants of either NLL; s^2 doubles for the adversarial one."""
    c, formula = _scale(adversarial, noise, prior, dist, delta_test)
    if not c < 1.0:
        raise CgfRangeViolation(f"sub-gamma scale c = {formula} = {c:g} must be < 1")
    factor = 2.0 if adversarial else 1.0
    bracket = c * d - c + 1.0 + dist.sigma_x_sq * dist.theta_star_norm_sq / noise.sigma_sq
    return CgfConstants(c=c, s_sq=factor * bracket)


def cgf_standard(
    noise: NoiseModel,
    prior: IsotropicPrior,
    dist: DataDistributionSpec,
    d: int,
) -> CgfConstants:
    """Sub-gamma constants of the standard NLL under the data distribution.

    c = sigma_p^2 sigma_x^2 / sigma^2,
    s^2 = c d - c + 1 + sigma_x^2 ||theta*||^2 / sigma^2.
    Raises :class:`CgfRangeViolation` when c >= 1.
    """
    return _cgf(False, noise, prior, dist, d, 0.0)


def cgf_adversarial(
    noise: NoiseModel,
    prior: IsotropicPrior,
    dist: DataDistributionSpec,
    d: int,
    delta_test: float,
) -> CgfConstants:
    """Sub-gamma constants of the adversarial NLL at evaluation radius delta_test.

    c = 2 sigma_p^2 (sigma_x^2 + delta_test^2) / sigma^2,
    s^2 = 2 (c d - c + 1 + sigma_x^2 ||theta*||^2 / sigma^2).
    Raises :class:`CgfRangeViolation` when c >= 1.
    """
    _check_nonnegative("delta_test", delta_test)
    return _cgf(True, noise, prior, dist, d, delta_test)


def _gram_terms(data: Dataset, k: float, a: float) -> tuple[float, float]:
    """log det(k I_d + a X'X) and Y'(k I_n + a X X')^{-1} Y.

    Factorizes k I + a G, with G = ``data.gram``, the smaller Gram matrix,
    which the dataset forms once: the two log-determinants differ by
    (n - d) log k, and when G = X'X the quadratic form converts through
    Y'(k I_n + a X X')^{-1} Y = (Y'Y - a q'(k I_d + a X'X)^{-1} q) / k
    with q = X'Y. The pair is kept in ``data.gram_terms`` under (k, a); a
    failure is not kept, so it raises again on the next call.
    """
    kept = data.gram_terms.get((k, a))
    if kept is not None:
        return kept
    y, n, d = data.Y, data.n, data.d
    m = SpdMatrix.from_array(k * np.eye(min(n, d)) + a * data.gram)
    if d <= n:
        logdet_d = spd_logdet(m)
        q = data.X.T @ y
        quad_n = (float(y @ y) - a * float(q @ spd_solve(m, q))) / k
    else:
        logdet_d = spd_logdet(m) + (d - n) * math.log(k)
        quad_n = quad_form_inv(m, y)
    data.gram_terms[k, a] = logdet_d, quad_n
    return logdet_d, quad_n


def _k_delta(data: Dataset, noise: NoiseModel, prior: IsotropicPrior, delta: float) -> float:
    return 2.0 * data.n * delta ** 2 * prior.sigma_p_sq / noise.sigma_sq + 1.0


def neg_log_z_bayes(data: Dataset, noise: NoiseModel, prior: IsotropicPrior) -> float:
    """Exact negative log normalizer of the Bayes posterior (constant-free loss).

    (1/2) log det(I + (sigma_p^2/sigma^2) X'X)
    + Y'(I + (sigma_p^2/sigma^2) X X')^{-1} Y / (2 sigma^2).
    """
    logdet_d, quad_n = _gram_terms(data, 1.0, prior.sigma_p_sq / noise.sigma_sq)
    return 0.5 * logdet_d + 0.5 * quad_n / noise.sigma_sq


def neg_log_z_robust_upper(
    data: Dataset, noise: NoiseModel, prior: IsotropicPrior, delta: float
) -> float:
    """Upper bound on the robust posterior's negative log normalizer.

    Integrates the quadratic upper envelope of the adversarial loss against
    the prior:

    (1/2) log det(k I + (2 sigma_p^2/sigma^2) X'X)
    + (k/sigma^2) Y'(k I + (2 sigma_p^2/sigma^2) X X')^{-1} Y,
    k = 2 n delta^2 sigma_p^2 / sigma^2 + 1.

    The quadratic-form coefficient k/sigma^2 is what the Gaussian integral
    gives; it makes the bound monotone in delta and an actual upper bound.
    At delta = 0 the factor-2 envelope slack remains — this does not collapse
    to :func:`neg_log_z_bayes`.
    """
    _check_nonnegative("delta", delta)
    k = _k_delta(data, noise, prior, delta)
    logdet_d, quad_n = _gram_terms(data, k, 2.0 * prior.sigma_p_sq / noise.sigma_sq)
    return 0.5 * logdet_d + k * quad_n / noise.sigma_sq


class _Gap(enum.Enum):
    """Budget gap g of the mismatch term, named as the diagnostics render it."""

    TEST = "delta_test^2"
    TEST_MINUS_TRAIN = "(delta_test^2 - delta_train^2)"

    def size(self, budget: PerturbationBudget) -> float:
        train_sq = budget.delta_train ** 2 if self is _Gap.TEST_MINUS_TRAIN else 0.0
        return budget.delta_test ** 2 - train_sq


@dataclass(frozen=True)
class _Theorem:
    """One certificate's row of the bound in the module docstring."""

    adversarial: bool  # CGF of the adversarial NLL at delta_test, else the standard one
    robust_u: bool  # U = k I + 2 r G with k from delta_train, else U = I + r G
    scale: float  # s, the multiplier on the U data terms
    minus_v: bool = False  # subtract the V = k I + r G data terms
    gap: Optional[_Gap] = None  # budget gap feeding the mismatch term
    matched: bool = False  # requires delta_test == delta_train


_THEOREMS = {
    TheoremId.BAYES_STD: _Theorem(False, robust_u=False, scale=1.0),
    TheoremId.BAYES_ADV: _Theorem(True, robust_u=False, scale=2.0, gap=_Gap.TEST),
    TheoremId.ROBUST_STD: _Theorem(False, robust_u=True, scale=2.0, minus_v=True),
    TheoremId.ROBUST_ADV_MATCHED: _Theorem(True, robust_u=True, scale=1.0, matched=True),
    TheoremId.ROBUST_ADV_GENERAL: _Theorem(
        True, robust_u=True, scale=2.0, gap=_Gap.TEST_MINUS_TRAIN
    ),
}
_NO_BUDGET = PerturbationBudget(delta_train=0.0, delta_test=0.0)


@dataclass(frozen=True)
class PreconditionCheck:
    name: str
    ok: bool
    detail: str

    def __post_init__(self):
        object.__setattr__(self, "ok", bool(self.ok))

    def render(self) -> str:
        return f"{self.name}: {self.detail} [{'pass' if self.ok else 'FAIL'}]"


def validate_preconditions(
    theorem_id: TheoremId,
    noise: NoiseModel,
    prior: IsotropicPrior,
    dist: DataDistributionSpec,
    budget: Optional[PerturbationBudget],
    n: int,
    d: int,
    beta: float,
) -> list[PreconditionCheck]:
    """Evaluate every hypothesis of the requested certificate.

    Returns one check per condition with the inequality rendered numerically;
    certificate operations refuse to emit a bound when any check fails. A
    missing budget counts as delta_train = delta_test = 0.
    """
    row = _THEOREMS[theorem_id]
    budget = _NO_BUDGET if budget is None else budget
    dt, d_train = budget.delta_test, budget.delta_train
    checks = [
        PreconditionCheck("beta_in_range", 0.0 < beta <= 1.0, f"0 < beta={beta:g} <= 1"),
        PreconditionCheck("shape_positive", n >= 1 and d >= 1, f"n={n} >= 1 and d={d} >= 1"),
    ]
    if row.matched:
        detail = f"delta_test={dt:g} == delta_train={d_train:g}"
        checks.append(PreconditionCheck("matched_budget", dt == d_train, detail))
    c, formula = _scale(row.adversarial, noise, prior, dist, dt)
    checks.append(PreconditionCheck("cgf_scale_lt_one", c < 1.0, f"{formula} = {c:g} < 1"))
    if row.gap is not None:
        gap = row.gap.size(budget)
        if row.gap is _Gap.TEST_MINUS_TRAIN and gap <= 0.0:
            ok = True
            detail = "auto-pass: delta_test <= delta_train makes the extra term nonpositive"
        else:
            denom = noise.sigma_sq - 2.0 * n * gap * prior.sigma_p_sq
            ok = denom > 0.0
            detail = f"sigma_sq - 2*n*{row.gap.value}*sigma_p_sq = {denom:g} > 0"
        checks.append(PreconditionCheck("denominator_positive", ok, detail))
    return checks


def _require_preconditions(
    theorem_id: TheoremId, noise, prior, dist, budget, n: int, d: int, beta: float
) -> tuple[str, ...]:
    """The rendered checks of :func:`validate_preconditions`, or the refusal if one fails."""
    checks = validate_preconditions(theorem_id, noise, prior, dist, budget, n, d, beta)
    failed = [check for check in checks if not check.ok]
    if any(check.name == "matched_budget" for check in failed):
        raise BudgetMismatch(
            f"matched-budget certificate needs delta_test == delta_train, got "
            f"{budget.delta_test:g} != {budget.delta_train:g}"
        )
    diagnostics = tuple(check.render() for check in checks)
    if failed:
        raise PreconditionViolated(
            "certificate preconditions violated: "
            + "; ".join(check.render() for check in failed),
            diagnostics=diagnostics,
        )
    return diagnostics


def _certify(theorem_id: TheoremId, data: Dataset, noise, prior, dist, budget, beta: float):
    """Check a certificate's hypotheses, then evaluate its row of the bound."""
    row = _THEOREMS[theorem_id]
    n, d = data.n, data.d
    diagnostics = _require_preconditions(theorem_id, noise, prior, dist, budget, n, d, beta)
    cgf = _cgf(row.adversarial, noise, prior, dist, d, budget.delta_test)
    sigma_sq, sigma_p_sq = noise.sigma_sq, prior.sigma_p_sq
    r = sigma_p_sq / sigma_sq
    k = _k_delta(data, noise, prior, budget.delta_train) if row.robust_u else 1.0
    m = 2.0 if row.robust_u else 1.0
    logdet_u, quad_u = _gram_terms(data, k, m * r)
    bound = row.scale * (logdet_u + m / k * quad_u / sigma_sq) / (2.0 * n)
    if row.minus_v:
        logdet_v, quad_v = _gram_terms(data, k, r)
        bound -= (logdet_v + 2.0 * k * quad_v / sigma_sq) / (2.0 * n)
    bound += math.log(1.0 / beta) / n + cgf.tail
    if row.gap is not None:
        gap = row.gap.size(budget)
        bound += d * gap * sigma_p_sq / (sigma_sq - 2.0 * n * gap * sigma_p_sq)
    return CertificateReport(
        bound_value=float(bound), cgf_c=cgf.c, cgf_s_sq=cgf.s_sq, beta=beta,
        theorem_id=theorem_id, diagnostics=diagnostics,
    )


def cert_bayes_standard(
    data: Dataset,
    noise: NoiseModel,
    prior: IsotropicPrior,
    dist: DataDistributionSpec,
    beta: float = DEFAULT_BETA,
) -> CertificateReport:
    """Certificate on the Bayes posterior's standard test risk (row BayesStd)."""
    return _certify(TheoremId.BAYES_STD, data, noise, prior, dist, _NO_BUDGET, beta)


def cert_bayes_adversarial(
    data: Dataset,
    noise: NoiseModel,
    prior: IsotropicPrior,
    dist: DataDistributionSpec,
    budget: PerturbationBudget,
    beta: float = DEFAULT_BETA,
) -> CertificateReport:
    """Certificate on the Bayes posterior's adversarial test risk at delta_test
    (row BayesAdv)."""
    return _certify(TheoremId.BAYES_ADV, data, noise, prior, dist, budget, beta)


def cert_robust_standard(
    data: Dataset,
    noise: NoiseModel,
    prior: IsotropicPrior,
    dist: DataDistributionSpec,
    budget: PerturbationBudget,
    beta: float = DEFAULT_BETA,
) -> CertificateReport:
    """Certificate on the robust posterior's standard test risk (row RobustStd):
    the robust-normalizer envelope (U) less the Bayes normalizer at ridge k (V)."""
    return _certify(TheoremId.ROBUST_STD, data, noise, prior, dist, budget, beta)


def cert_robust_adversarial_matched(
    data: Dataset,
    noise: NoiseModel,
    prior: IsotropicPrior,
    dist: DataDistributionSpec,
    budget: PerturbationBudget,
    beta: float = DEFAULT_BETA,
) -> CertificateReport:
    """Certificate on the robust posterior's adversarial risk at delta_test ==
    delta_train (row RobustAdvMatched); raises :class:`BudgetMismatch` otherwise."""
    return _certify(TheoremId.ROBUST_ADV_MATCHED, data, noise, prior, dist, budget, beta)


def cert_robust_adversarial_general(
    data: Dataset,
    noise: NoiseModel,
    prior: IsotropicPrior,
    dist: DataDistributionSpec,
    budget: PerturbationBudget,
    beta: float = DEFAULT_BETA,
) -> CertificateReport:
    """Certificate on the robust posterior's adversarial risk for any delta_test
    (row RobustAdvGeneral)."""
    return _certify(TheoremId.ROBUST_ADV_GENERAL, data, noise, prior, dist, budget, beta)

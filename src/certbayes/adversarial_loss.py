"""Standard and adversarial negative log-likelihood losses.

The adversary moves each feature vector inside an L2 ball of radius delta to
maximize the NLL. For linear predictors the worst case is attained on the
ball boundary along +/- theta, which collapses the inner maximization to a
closed form (Gaussian case) or a two-branch comparison (general exponential
family).

Sign convention at ties: sign(0) := +1, applied to theta'x - y. Both branches
give the same loss value at a tie; fixing the sign makes outputs deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import DimensionMismatch, DomainViolation
from .model import Dataset, ExponentialFamily, NoiseModel, _check_nonnegative

__all__ = [
    "AdvLossValue",
    "PerturbationResult",
    "gaussian_nll",
    "gaussian_adv_nll",
    "gaussian_adv_perturbation",
    "expfam_adv_nll_point",
    "bregman_divergence",
    "adv_loss_sandwich",
]


@dataclass(frozen=True)
class AdvLossValue:
    """An adversarial loss value with the adversary's choices.

    chosen_sign holds the maximizing branch s per point (+1 or -1);
    perturbed_points holds the worst-case inputs, one row per point, from
    :func:`expfam_adv_nll_point`; :func:`gaussian_adv_nll` leaves it None.
    """

    value: float
    chosen_sign: np.ndarray
    perturbed_points: Optional[np.ndarray] = None


class PerturbationResult(NamedTuple):
    x_tilde: np.ndarray
    theta_is_zero: bool


def _check_theta(theta, d: int) -> np.ndarray:
    th = np.asarray(theta, dtype=float)
    if th.ndim != 1 or th.shape[0] != d:
        raise DimensionMismatch(
            f"theta has shape {th.shape} but the data has {d} features"
        )
    return th


def _sign_plus(z: np.ndarray) -> np.ndarray:
    """Elementwise sign with sign(0) := +1."""
    return np.where(z >= 0.0, 1.0, -1.0)


def gaussian_nll(theta, data: Dataset, noise: NoiseModel) -> float:
    """Exact Gaussian NLL, (n/2) log(2 pi sigma^2) + ||Y - X theta||^2 / (2 sigma^2)."""
    th = _check_theta(theta, data.d)
    r = data.Y - data.X @ th
    const = 0.5 * data.n * math.log(2.0 * math.pi * noise.sigma_sq)
    return const + 0.5 * float(np.sum(r * r)) / noise.sigma_sq


def _gaussian_adv_nll_and_residual(
    theta, data: Dataset, noise: NoiseModel, delta: float
) -> tuple[float, np.ndarray]:
    """The value of :func:`gaussian_adv_nll` and the residual Y - X theta,
    without the per-point signs."""
    _check_nonnegative("delta", delta)
    th = _check_theta(theta, data.d)
    r = data.Y - data.X @ th
    grown = np.abs(r) + delta * math.sqrt(float(th @ th))
    const = 0.5 * data.n * math.log(2.0 * math.pi * noise.sigma_sq)
    return const + 0.5 * float(np.sum(grown * grown)) / noise.sigma_sq, r


def gaussian_adv_nll(theta, data: Dataset, noise: NoiseModel, delta: float) -> AdvLossValue:
    """Worst-case Gaussian NLL over per-point L2 feature perturbations of radius delta.

    Each absolute residual grows by exactly delta*||theta||, giving
    (n/2) log(2 pi sigma^2) + || |Y - X theta| + delta ||theta|| ||^2 / (2 sigma^2).
    At delta = 0 this reproduces :func:`gaussian_nll` bit for bit.
    """
    value, r = _gaussian_adv_nll_and_residual(theta, data, noise, delta)
    return AdvLossValue(value=value, chosen_sign=_sign_plus(-r))  # sign of theta'x - y


def gaussian_adv_perturbation(theta, x, y: float, delta: float) -> PerturbationResult:
    """Worst-case input for one point: x + delta * sign(theta'x - y) * theta/||theta||.

    When theta = 0 the loss does not depend on the input at all; x is returned
    unchanged with theta_is_zero set.
    """
    _check_nonnegative("delta", delta)
    xv = np.asarray(x, dtype=float)
    th = _check_theta(theta, xv.shape[0])
    theta_norm = float(np.linalg.norm(th))
    if theta_norm == 0.0:
        return PerturbationResult(x_tilde=xv.copy(), theta_is_zero=True)
    s = 1.0 if float(th @ xv) - y >= 0.0 else -1.0
    return PerturbationResult(
        x_tilde=xv + (delta * s / theta_norm) * th, theta_is_zero=False
    )


def _psi_checked(fam: ExponentialFamily, eta: float) -> float:
    val = fam.psi(eta)
    if not math.isfinite(val):
        raise DomainViolation(
            f"log-normalizer of family '{fam.name}' diverges at eta={eta!r}"
        )
    return val


def expfam_adv_nll_point(
    theta, x, y: float, delta: float, fam: ExponentialFamily
) -> AdvLossValue:
    """Worst-case exponential-family NLL for one point.

    Evaluates both candidate natural parameters theta'x +/- delta*||theta||
    and keeps the larger NLL psi(eta) - y*eta - base_log_measure(y). Ties go
    to the +1 branch.
    """
    _check_nonnegative("delta", delta)
    xv = np.asarray(x, dtype=float)
    th = _check_theta(theta, xv.shape[0])
    eta = float(th @ xv)
    theta_norm = float(np.linalg.norm(th))
    shift = delta * theta_norm
    log_h = fam.base_log_measure(y)
    value_plus = _psi_checked(fam, eta + shift) - y * (eta + shift) - log_h
    value_minus = _psi_checked(fam, eta - shift) - y * (eta - shift) - log_h
    if value_plus >= value_minus:
        s, value = 1.0, value_plus
    else:
        s, value = -1.0, value_minus
    if theta_norm > 0.0:
        x_tilde = xv + (delta * s / theta_norm) * th
    else:
        x_tilde = xv.copy()
    return AdvLossValue(
        value=float(value),
        chosen_sign=np.array([s]),
        perturbed_points=x_tilde[None, :],
    )


def bregman_divergence(fam: ExponentialFamily, a: float, b: float) -> float:
    """psi(a) - psi(b) - psi'(b) (a - b); nonnegative, zero iff a = b."""
    psi_a = _psi_checked(fam, a)
    psi_b = _psi_checked(fam, b)
    grad_b = fam.psi_grad(b)
    if not math.isfinite(grad_b):
        raise DomainViolation(
            f"gradient of family '{fam.name}' log-normalizer diverges at {b!r}"
        )
    return psi_a - psi_b - grad_b * (a - b)


def adv_loss_sandwich(
    theta, data: Dataset, noise: NoiseModel, delta: float
) -> tuple[float, float]:
    """Quadratic lower/upper bounds around the adversarial Gaussian NLL.

    (r_i^2 + delta^2 ||theta||^2) <= (|r_i| + delta ||theta||)^2
                                  <= 2 r_i^2 + 2 delta^2 ||theta||^2
    summed and scaled by 1/(2 sigma^2), plus the shared log constant.
    """
    _check_nonnegative("delta", delta)
    th = _check_theta(theta, data.d)
    r = data.Y - data.X @ th
    m_sq = (delta ** 2) * float(th @ th)
    const = 0.5 * data.n * math.log(2.0 * math.pi * noise.sigma_sq)
    sum_r_sq = float(np.sum(r * r))
    lower = const + 0.5 * (sum_r_sq + data.n * m_sq) / noise.sigma_sq
    upper = const + (sum_r_sq + data.n * m_sq) / noise.sigma_sq
    return lower, upper

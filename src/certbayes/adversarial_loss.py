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


def _check_theta(theta, d: int, *, batch: bool = False) -> np.ndarray:
    """theta as a float array of shape (d,), or also (C, d) with batch."""
    th = np.asarray(theta, dtype=float)
    if th.ndim not in ((1, 2) if batch else (1,)) or th.shape[-1] != d:
        raise DimensionMismatch(
            f"theta has shape {th.shape} but the data has {d} features"
        )
    return th


def _sq_rows(a, b=None):
    """a'b row by row, a'a without b: a float for (d,) and (C,) for (C, d)."""
    b = a if b is None else b
    return a @ b if a.ndim == 1 else np.einsum("ij,ij->i", a, b)


def gaussian_nll(theta, data: Dataset, noise: NoiseModel) -> float:
    """Exact Gaussian NLL, (n/2) log(2 pi sigma^2) + ||Y - X theta||^2 / (2 sigma^2):
    the adversarial NLL at delta = 0."""
    th = _check_theta(theta, data.d)
    return float(_adv_nll(_worst_residual(th, data, 0.0)[1], data, noise))


def _worst_residual(th: np.ndarray, data: Dataset, delta: float) -> tuple:
    """e = X theta - Y, the grown residuals |e| + delta ||theta||, ||theta||^2
    and ||theta|| (None at delta = 0) for th from :func:`_check_theta`; for a
    (C, d) batch, e and grown are (C, n), one row per theta, and both norms (C,)."""
    _check_nonnegative("delta", delta)
    e = th @ data.X.T
    e -= data.Y
    sq_norm = _sq_rows(th)
    # at delta = 0, |e| itself: 0 * sqrt(sq_norm) is NaN once ||theta||^2 overflows
    norm = np.sqrt(sq_norm) if delta > 0.0 else None
    grown = np.abs(e)
    if norm is not None:
        grown += (delta * norm)[..., None]
    return e, grown, sq_norm, norm


def _adv_nll(grown: np.ndarray, data: Dataset, noise: NoiseModel):
    """:func:`gaussian_adv_nll`'s value from grown residuals, squared in place."""
    const = 0.5 * data.n * math.log(2.0 * math.pi * noise.sigma_sq)
    return const + 0.5 * np.square(grown, out=grown).sum(axis=-1) / noise.sigma_sq


def gaussian_adv_nll(theta, data: Dataset, noise: NoiseModel, delta: float) -> AdvLossValue:
    """Worst-case Gaussian NLL over per-point L2 feature perturbations of radius delta.

    Each absolute residual grows by exactly delta*||theta||, giving
    (n/2) log(2 pi sigma^2) + || |Y - X theta| + delta ||theta|| ||^2 / (2 sigma^2).
    At delta = 0 this reproduces :func:`gaussian_nll` bit for bit.
    """
    th = _check_theta(theta, data.d)
    e, grown, _, _ = _worst_residual(th, data, delta)
    # chosen_sign is the sign of theta'x - y, with sign(0) := +1
    return AdvLossValue(value=float(_adv_nll(grown, data, noise)),
                        chosen_sign=np.where(e >= 0.0, 1.0, -1.0))


def _point(theta, x, delta: float) -> tuple:
    """One point's x and theta as float arrays, theta'x and ||theta||, checked."""
    _check_nonnegative("delta", delta)
    xv = np.asarray(x, dtype=float)
    th = _check_theta(theta, xv.shape[0])
    return xv, th, float(th @ xv), float(np.linalg.norm(th))


def _worst_input(xv, th, theta_norm: float, delta: float, s: float) -> np.ndarray:
    """The adversary's input x + delta * s * theta/||theta|| on branch s; a copy
    of x when theta = 0, where the loss does not depend on the input."""
    if theta_norm == 0.0:
        return xv.copy()
    return xv + (delta * s / theta_norm) * th


def gaussian_adv_perturbation(theta, x, y: float, delta: float) -> PerturbationResult:
    """Worst-case input for one point: x + delta * sign(theta'x - y) * theta/||theta||.

    When theta = 0 the loss does not depend on the input at all; x is returned
    unchanged with theta_is_zero set.
    """
    xv, th, eta, theta_norm = _point(theta, x, delta)
    s = 1.0 if eta - y >= 0.0 else -1.0
    return PerturbationResult(_worst_input(xv, th, theta_norm, delta, s), theta_norm == 0.0)


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
    xv, th, eta, theta_norm = _point(theta, x, delta)
    shift = delta * theta_norm
    log_h = fam.base_log_measure(y)
    value_plus = _psi_checked(fam, eta + shift) - y * (eta + shift) - log_h
    value_minus = _psi_checked(fam, eta - shift) - y * (eta - shift) - log_h
    s, value = (1.0, value_plus) if value_plus >= value_minus else (-1.0, value_minus)
    return AdvLossValue(
        value=float(value),
        chosen_sign=np.array([s]),
        perturbed_points=_worst_input(xv, th, theta_norm, delta, s)[None, :],
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
    th = _check_theta(theta, data.d)
    e, _, sq_norm, _ = _worst_residual(th, data, delta)
    # 0 at delta = 0, not 0 * inf = NaN once ||theta||^2 overflows
    m_sq = (delta ** 2) * float(sq_norm) if delta > 0.0 else 0.0
    const = 0.5 * data.n * math.log(2.0 * math.pi * noise.sigma_sq)
    sum_r_sq = float(np.sum(e * e))
    lower = const + 0.5 * (sum_r_sq + data.n * m_sq) / noise.sigma_sq
    upper = const + (sum_r_sq + data.n * m_sq) / noise.sigma_sq
    return lower, upper

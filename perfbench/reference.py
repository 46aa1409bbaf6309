"""Reference certificate bounds that the benchmark checks CLI output against.

Small problems go straight to the independent oracles in ``tests/oracles.py``
(imported read-only). Those build explicit n x n inverses and d x d
eigendecompositions, which is out of reach at n = 10^5 or d = 2000 inside a
timed benchmark. For those sizes this module evaluates the same five formulas
from one eigendecomposition of the smaller Gram matrix (X'X when d <= n,
otherwise XX'), which shares no code with the library's Cholesky path. The
self-test shows this agrees with the oracles at 1e-9 relative on both sides
of d = n, including the ``wide-certify`` shape.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
import oracles  # noqa: E402

# Largest n and d for which the oracles are called directly (an n x n
# inverse and a d x d eigendecomposition per term).
ORACLE_MAX_DIM = 600


@dataclass(frozen=True)
class Constants:
    """Noise and prior variances, population constants and radii of a problem."""

    sigma_sq: float
    sigma_p_sq: float
    sigma_x_sq: float
    theta_star_norm_sq: float
    delta: float
    delta_hat: float
    beta: float = 0.05

    def flags(self) -> list[str]:
        """The CLI flags that pass these constants to ``certify``."""
        return [
            "--sigma-sq", repr(self.sigma_sq),
            "--sigma-p-sq", repr(self.sigma_p_sq),
            "--sigma-x-sq", repr(self.sigma_x_sq),
            "--theta-star-norm-sq", repr(self.theta_star_norm_sq),
            "--delta", repr(self.delta),
            "--delta-hat", repr(self.delta_hat),
        ]


def oracle_bounds(x: np.ndarray, y: np.ndarray, c: Constants) -> dict[str, float]:
    """All five bounds from ``tests/oracles.py``."""
    common = (x, y, c.sigma_sq, c.sigma_p_sq, c.sigma_x_sq, c.theta_star_norm_sq)
    return {
        "BayesStd": oracles.oracle_cert_bayes_standard(*common, c.beta),
        "BayesAdv": oracles.oracle_cert_bayes_adversarial(*common, c.delta_hat, c.beta),
        "RobustStd": oracles.oracle_cert_robust_standard(*common, c.delta, c.beta),
        "RobustAdvMatched": oracles.oracle_cert_robust_adversarial_matched(
            *common, c.delta, c.beta
        ),
        "RobustAdvGeneral": oracles.oracle_cert_robust_adversarial_general(
            *common, c.delta, c.delta_hat, c.beta
        ),
    }


class _Spectrum:
    """log det(k I_d + a X'X) and Y'(k I_n + a XX')^{-1} Y for any (k, a).

    Both come from the eigenvalues lam of the smaller Gram matrix and the
    projections w of Y (or X'Y) on its eigenvectors.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray):
        self.n, self.d = x.shape
        if self.d <= self.n:
            self.lam, vecs = np.linalg.eigh(x.T @ x)
            self.w = vecs.T @ (x.T @ y)
            self.yy = float(y @ y)
        else:
            self.lam, vecs = np.linalg.eigh(x @ x.T)
            self.w = vecs.T @ y

    def logdet(self, k: float, a: float) -> float:
        extra = max(self.d - self.n, 0) * math.log(k)
        return float(np.sum(np.log(k + a * self.lam))) + extra

    def quad(self, k: float, a: float) -> float:
        if self.d <= self.n:
            return (self.yy - a * float(np.sum(self.w ** 2 / (k + a * self.lam)))) / k
        return float(np.sum(self.w ** 2 / (k + a * self.lam)))


def spectral_bounds(x: np.ndarray, y: np.ndarray, c: Constants) -> dict[str, float]:
    """All five bounds, term for term as in ``tests/oracles.py``."""
    n, d = x.shape
    s = _Spectrum(x, y)
    ratio = c.sigma_p_sq / c.sigma_sq
    k = 2.0 * n * c.delta ** 2 * c.sigma_p_sq / c.sigma_sq + 1.0
    conf = math.log(1.0 / c.beta) / n
    std_c, std_s = oracles._standard_constants(
        d, c.sigma_sq, c.sigma_p_sq, c.sigma_x_sq, c.theta_star_norm_sq
    )

    def adv_tail(radius: float) -> float:
        cc, ss = oracles._adversarial_constants(
            d, c.sigma_sq, c.sigma_p_sq, c.sigma_x_sq, c.theta_star_norm_sq, radius
        )
        return ss / (2.0 * (1.0 - cc))

    std_tail = std_s / (2.0 * (1.0 - std_c))
    gap = c.delta_hat ** 2 - c.delta ** 2
    return {
        "BayesStd": 0.5 * s.logdet(1.0, ratio) / n
        + s.quad(1.0, ratio) / (2.0 * n * c.sigma_sq) + conf + std_tail,
        "BayesAdv": s.logdet(1.0, ratio) / n
        + s.quad(1.0, ratio) / (n * c.sigma_sq) + conf + adv_tail(c.delta_hat)
        + d * c.delta_hat ** 2 * c.sigma_p_sq
        / (c.sigma_sq - 2.0 * n * c.delta_hat ** 2 * c.sigma_p_sq),
        "RobustStd": s.logdet(k, 2.0 * ratio) / n
        + 2.0 * s.quad(k, 2.0 * ratio) / (n * k * c.sigma_sq)
        - 0.5 * s.logdet(k, ratio) / n
        - k * s.quad(k, ratio) / (n * c.sigma_sq) + conf + std_tail,
        "RobustAdvMatched": 0.5 * s.logdet(k, 2.0 * ratio) / n
        + s.quad(k, 2.0 * ratio) / (n * k * c.sigma_sq) + conf + adv_tail(c.delta),
        "RobustAdvGeneral": s.logdet(k, 2.0 * ratio) / n
        + 2.0 * s.quad(k, 2.0 * ratio) / (n * k * c.sigma_sq) + conf
        + adv_tail(c.delta_hat)
        + gap * c.sigma_p_sq * d / (c.sigma_sq - 2.0 * n * gap * c.sigma_p_sq),
    }


def reference_bounds(x: np.ndarray, y: np.ndarray, c: Constants) -> dict[str, float]:
    """The oracles where they are affordable, the spectral form elsewhere."""
    if max(x.shape) <= ORACLE_MAX_DIM:
        return oracle_bounds(x, y, c)
    return spectral_bounds(x, y, c)


def bound_mismatches(printed: dict[str, float], expected: dict[str, float],
                     rtol: float = 1e-9) -> list[str]:
    """One message per theorem whose printed bound is missing or off by > rtol."""
    problems = []
    for name, want in expected.items():
        got = printed.get(name)
        if got is None or not math.isfinite(got):
            problems.append(f"{name}: bound missing or not finite ({got!r})")
        elif abs(got - want) > rtol * abs(want):
            problems.append(f"{name}: printed {got!r}, reference {want!r}")
    return problems

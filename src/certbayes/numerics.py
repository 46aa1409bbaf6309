"""Dense symmetric-positive-definite linear algebra.

Every matrix handled by the certificate and posterior code is of the form
``k*I + a*(Gram matrix)`` with k, a > 0, so Cholesky is the natural
factorization: it is cheap, and a failure is a meaningful "not SPD" signal
rather than a silent loss of accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgError, cho_solve, cholesky, solve_triangular

from .errors import DimensionMismatch, NonFiniteEntry, NotPositiveDefinite

_SYM_RTOL = 1e-12


@dataclass(frozen=True, eq=False)
class SpdMatrix:
    """A validated symmetric positive definite matrix with its Cholesky factor.

    Construct through :meth:`from_array`, which symmetrizes (guarding against
    floating-point asymmetry from Gram-matrix accumulation), checks the input
    was symmetric to begin with, and factorizes.
    """

    entries: np.ndarray
    chol_lower: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @staticmethod
    def from_array(matrix) -> "SpdMatrix":
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
        if m.shape[0] == 0:
            raise DimensionMismatch("empty matrix")
        if not np.all(np.isfinite(m)):
            raise NonFiniteEntry("matrix contains NaN or Inf")
        scale = np.max(np.abs(m))
        asym = np.max(np.abs(m - m.T))
        if scale > 0 and asym > _SYM_RTOL * scale:
            raise NotPositiveDefinite(
                f"matrix is not symmetric (relative asymmetry {asym / scale:.3e})"
            )
        sym = 0.5 * (m + m.T)
        try:
            lower = cholesky(sym, lower=True, check_finite=False)
        except LinAlgError as exc:
            raise NotPositiveDefinite(f"Cholesky factorization failed: {exc}") from exc
        return SpdMatrix(entries=sym, chol_lower=lower)


def spd_logdet(m: SpdMatrix) -> float:
    """log det(M) as twice the log-product of Cholesky pivots."""
    return float(2.0 * np.sum(np.log(np.diag(m.chol_lower))))


def spd_solve(m: SpdMatrix, b) -> np.ndarray:
    """Solve M x = b for SPD M."""
    rhs = np.asarray(b, dtype=float)
    if rhs.shape[0] != m.dim:
        raise DimensionMismatch(
            f"matrix is {m.dim}x{m.dim} but right-hand side has length {rhs.shape[0]}"
        )
    return cho_solve((m.chol_lower, True), rhs, check_finite=False)


def quad_form_inv(m: SpdMatrix, v) -> float:
    """v' M^{-1} v, computed through the Cholesky factor (never an inverse).

    Returned as ||L^{-1} v||^2, which is nonnegative by construction.
    """
    vec = np.asarray(v, dtype=float)
    if vec.shape[0] != m.dim:
        raise DimensionMismatch(
            f"matrix is {m.dim}x{m.dim} but vector has length {vec.shape[0]}"
        )
    w = solve_triangular(m.chol_lower, vec, lower=True, check_finite=False)
    return float(w @ w)

"""Effective sample size, written independently of the library's estimator.

Bulk-ESS of Vehtari, Gelman, Simpson, Carpenter and Buerkner,
"Rank-normalization, folding, and localization: an improved R-hat for
assessing convergence of MCMC", Bayesian Analysis (2021): the chain is split
in half, the draws are rank-normalized, and the autocorrelation sum is
truncated by Geyer's initial monotone sequence. The benchmark computes
``min_ess_per_s`` with this estimator so that a change to
``certbayes.posterior._effective_sample_size`` cannot move it.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri


def _autocovariance(chains: np.ndarray) -> np.ndarray:
    """Biased autocovariance of each row, lags 0..n-1, via a zero-padded FFT."""
    n = chains.shape[1]
    centred = chains - chains.mean(axis=1, keepdims=True)
    size = 1 << (2 * n - 1).bit_length()
    spec = np.fft.rfft(centred, size, axis=1)
    return np.fft.irfft(spec * np.conj(spec), size, axis=1)[:, :n] / n


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks, ties sharing their mean rank (rejected HMC proposals
    repeat the previous draw, so ties are common)."""
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]


def _ess_of_chains(chains: np.ndarray) -> float:
    """Multi-chain ESS of an (m, n) array, Geyer initial monotone sequence."""
    m, n = chains.shape
    acov = _autocovariance(chains)
    within = float(np.mean(acov[:, 0])) * n / (n - 1.0)
    var_plus = within * (n - 1.0) / n
    if m > 1:
        var_plus += float(np.var(chains.mean(axis=1), ddof=1))
    if var_plus <= 0.0:
        return float(m * n)
    rho = 1.0 - (within - acov.mean(axis=0)) / var_plus
    rho[0] = 1.0
    tau = -1.0
    previous = np.inf
    for lag in range(0, n - 1, 2):
        pair = float(rho[lag] + rho[lag + 1])
        if pair <= 0.0:
            break
        pair = min(pair, previous)
        tau += 2.0 * pair
        previous = pair
    return float(m * n / max(tau, 1.0 / np.log10(m * n)))


def bulk_ess(series) -> float:
    """Bulk-ESS of one chain of scalar draws (split in two, rank-normalized)."""
    x = np.asarray(series, dtype=float)
    half = x.shape[0] // 2
    if half < 4:
        raise ValueError(f"need at least 8 draws, got {x.shape[0]}")
    x = x[x.shape[0] - 2 * half:]
    ranks = _average_ranks(x)
    z = ndtri((ranks - 0.375) / (x.shape[0] + 0.25))
    return _ess_of_chains(z.reshape(2, half))


def min_ess(draws) -> float:
    """Smallest bulk-ESS over the coordinates of an (n_draws, dim) array."""
    d = np.asarray(draws, dtype=float)
    return min(bulk_ess(d[:, j]) for j in range(d.shape[1]))

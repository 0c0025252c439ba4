"""Effective sample size, written apart from the package under test.

The estimator follows Geyer (1992): the autocorrelation is computed with an
FFT, consecutive lags are summed in pairs, the sum stops at the first
negative pair (initial positive sequence) and each pair is capped by the
one before it (initial monotone sequence).  Bulk ESS rank-normalises the
pooled draws first (Vehtari et al. 2021, Bayesian Analysis), so heavy tails
and monotone transforms do not move it.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri


def autocorrelation(x: np.ndarray) -> np.ndarray:
    """Normalised autocorrelation at lags 0..n-1, through a zero-padded FFT."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    centred = x - x.mean()
    size = 1 << (2 * n - 1).bit_length()
    spectrum = np.fft.rfft(centred, size)
    acov = np.fft.irfft(spectrum * np.conj(spectrum), size)[:n]
    if acov[0] <= 0.0:
        raise ValueError("a constant series has no effective sample size")
    return acov / acov[0]


def ess_geyer(x: np.ndarray) -> float:
    """ESS of one chain by Geyer's initial monotone sequence estimator."""
    rho = autocorrelation(x)
    n = len(rho)
    pairs = rho[: n - n % 2].reshape(-1, 2).sum(axis=1)
    negative = np.nonzero(pairs < 0.0)[0]
    pairs = pairs[: negative[0] if len(negative) else len(pairs)]
    pairs = np.minimum.accumulate(pairs)
    tau = -1.0 + 2.0 * float(pairs.sum())
    # antithetic chains can push tau towards 0; cap the ESS at n log10(n)
    return n / max(tau, 1.0 / np.log10(max(n, 10)))


def rank_normalise(values: np.ndarray) -> np.ndarray:
    """Normal scores of the ranks, ``Phi^-1((r - 3/8) / (S + 1/4))``; ties share their mean rank."""
    flat = np.asarray(values, dtype=float).ravel()
    order = np.argsort(flat, kind="stable")
    ranks = np.empty(len(flat))
    ranks[order] = np.arange(1, len(flat) + 1)
    _, inverse, counts = np.unique(flat, return_inverse=True, return_counts=True)
    sums = np.bincount(inverse, weights=ranks)
    ranks = sums[inverse] / counts[inverse]
    return ndtri((ranks - 0.375) / (len(flat) + 0.25)).reshape(np.shape(values))


def bulk_ess(chains: list) -> float:
    """Bulk ESS of equal-length chains: rank-normalise the pool, sum per-chain ESS."""
    stacked = np.vstack([np.asarray(c, dtype=float) for c in chains])
    z = rank_normalise(stacked)
    return float(sum(ess_geyer(row) for row in z))

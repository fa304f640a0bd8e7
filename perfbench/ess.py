"""Effective sample size of a chain, and its batch-means cross-check.

`geyer_ess` is Geyer's (1992) initial monotone sequence estimator: sum the
autocovariance pairs Gamma_m = gamma_{2m} + gamma_{2m+1} up to the first
non-positive pair, forcing the pairs to be non-increasing on the way.
`batch_means_ess` is var / se^2 with se the batch-means standard error of
the mean (Flegal & Jones, 2010), which `riskalloc` reports for every
coordinate whose measure is the mean.
"""

from __future__ import annotations

import numpy as np

# Geyer and batch-means ESS further apart than this factor are flagged.
# Batch means with ~sqrt(n) batches estimates se^2 from few batches, so
# the two legitimately differ by tens of percent on short chains.
DISAGREEMENT_FACTOR = 3.0


def autocovariance(x) -> np.ndarray:
    """Biased (1/n) autocovariances at lags 0..n-1, by FFT."""
    x = np.asarray(x, dtype=float).ravel()
    n = x.size
    xc = x - x.mean()
    f = np.fft.rfft(xc, 2 * n)
    return np.fft.irfft(f * np.conj(f), 2 * n)[:n] / n


def geyer_ess(x) -> float:
    """Initial monotone sequence ESS of one coordinate's chain."""
    x = np.asarray(x, dtype=float).ravel()
    n = x.size
    if n < 4:
        raise ValueError(f"need at least 4 states for an ESS, got {n}")
    acov = autocovariance(x)
    g0 = acov[0]
    if not g0 > 0.0:
        raise ValueError("a constant chain has no effective sample size")
    m = (n - 1) // 2
    pairs = acov[0 : 2 * m : 2] + acov[1 : 2 * m + 1 : 2]
    stop = np.flatnonzero(pairs <= 0.0)
    pairs = pairs[: stop[0] if stop.size else pairs.size]
    sigma2 = -g0 + 2.0 * float(np.minimum.accumulate(pairs).sum())
    if not sigma2 > 0.0:
        raise ValueError("initial sequence gave a non-positive asymptotic variance")
    return n * g0 / sigma2


def batch_means_ess(x, se: float) -> float:
    """var(x) / se^2: the sample size whose iid mean has standard error se."""
    return float(np.var(np.asarray(x, dtype=float), ddof=1)) / (se * se)


def disagree(ess_a: float, ess_b: float, factor: float = DISAGREEMENT_FACTOR) -> bool:
    ratio = ess_a / ess_b
    return not 1.0 / factor <= ratio <= factor

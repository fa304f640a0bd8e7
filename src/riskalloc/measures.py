"""Empirical marginal risk measures and uncertainty diagnostics.

The estimators follow the generalized-inverse convention throughout: the
empirical quantile at level a is the order statistic x_(k) with k = ceil(n*a),
and RVaR averages the order statistics strictly above the lower index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MEASURE_KINDS = ("mean", "var", "rvar", "es")

_N_LEVELS = {"mean": 0, "var": 1, "rvar": 2, "es": 1}


@dataclass(frozen=True)
class MarginalRiskMeasure:
    """A risk functional applied to one marginal of a conditional sample.

    kind is one of ``mean``, ``var``, ``rvar``, ``es``; levels carries the
    confidence levels (none for mean, one for var/es, an ordered pair for
    rvar, where the upper rvar level may equal 1).
    """

    kind: str
    levels: tuple = ()

    def __post_init__(self):
        kind = str(self.kind).lower()
        levels = tuple(float(b) for b in np.atleast_1d(np.asarray(self.levels)))
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "levels", levels)
        if kind not in MEASURE_KINDS:
            raise ValueError(f"unknown measure kind {self.kind!r}")
        if len(levels) != _N_LEVELS[kind]:
            raise ValueError(
                f"measure {kind!r} takes {_N_LEVELS[kind]} level(s), got {levels}"
            )
        for b in levels:
            if not 0.0 < b <= 1.0:
                raise ValueError(f"levels must lie in (0, 1], got {levels}")
        if kind in ("var", "es") and levels[0] == 1.0:
            raise ValueError(f"{kind} level must lie in (0, 1), got {levels[0]}")
        if kind == "rvar" and not levels[0] < levels[1]:
            raise ValueError(f"rvar needs increasing levels, got {levels}")


@dataclass(frozen=True)
class EstimateWithSE:
    point: float
    se: float
    n_effective_batches: int
    few_batches: bool = False

    def __post_init__(self):
        if self.se < 0.0:
            raise ValueError("standard error must be nonnegative")


def empirical_quantile(sample, alpha: float) -> float:
    """Order statistic x_(k) with k = ceil(n*alpha)."""
    x = np.asarray(sample, dtype=float).ravel()
    if x.size == 0:
        raise ValueError("empty sample")
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"quantile level must lie in (0, 1], got {alpha}")
    k = math.ceil(x.size * alpha)
    return float(np.sort(x)[k - 1])


def empirical_measure(sample, m: MarginalRiskMeasure) -> float:
    x = np.asarray(sample, dtype=float).ravel()
    if x.size == 0:
        raise ValueError("empty sample")
    if m.kind == "mean":
        return float(x.mean())
    if m.kind == "var":
        return empirical_quantile(x, m.levels[0])
    b1, b2 = m.levels if m.kind == "rvar" else (m.levels[0], 1.0)
    n = x.size
    lo = math.ceil(n * b1)  # 0-based start, i.e. order statistics ceil(n*b1)+1 .. ceil(n*b2)
    hi = math.ceil(n * b2)
    if lo >= hi:
        raise ValueError(
            f"no order statistics between levels {b1} and {b2} with n={n}"
        )
    return float(np.sort(x)[lo:hi].mean())


def batch_means_se(path, m: MarginalRiskMeasure) -> EstimateWithSE:
    """Batch-means standard error with batch length ceil(sqrt(N)).

    The functional is applied per consecutive batch; a short trailing batch
    is dropped when it holds fewer than half a batch length.  The point
    estimate is the functional on the whole path.
    """
    x = np.asarray(path, dtype=float).ravel()
    n = x.size
    if n < 100:
        raise ValueError(f"batch means need at least 100 path points, got {n}")
    length = math.ceil(math.sqrt(n))
    batches = [x[i : i + length] for i in range(0, n, length)]
    if batches[-1].size < length / 2.0:
        batches = batches[:-1]
    vals = np.array([empirical_measure(b, m) for b in batches])
    b_kept = vals.size
    se = float(np.std(vals, ddof=1)) / math.sqrt(b_kept)
    return EstimateWithSE(
        point=empirical_measure(x, m),
        se=se,
        n_effective_batches=b_kept,
        few_batches=b_kept < 10,
    )


def acf(path, max_lag: int) -> np.ndarray:
    """Sample autocorrelations at lags 0..max_lag.

    A path with zero variance has no defined autocorrelation; the all-NaN
    return value is the error flag for that case.
    """
    x = np.asarray(path, dtype=float).ravel()
    n = x.size
    if n <= max_lag:
        raise ValueError(f"path of length {n} cannot support lag {max_lag}")
    xc = x - x.mean()
    c0 = float(xc @ xc) / n
    if not c0 > 0.0:
        return np.full(max_lag + 1, np.nan)
    out = np.empty(max_lag + 1)
    out[0] = 1.0
    for h in range(1, max_lag + 1):
        out[h] = float(xc[:-h] @ xc[h:]) / (n * c0)
    return out


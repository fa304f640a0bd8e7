"""Random-scan Gibbs sampling on band-constrained sum events.

Each update draws one coordinate index from fixed selection probabilities
and replaces that coordinate by an exact draw from its full conditional
distribution truncated to the band slice, obtained by inverting the
conditional copula cdf.  There is no accept/reject step: the acceptance
probability is identically one.

The selection probabilities come from Schur-complement conditional
variances of the conditional presample covariance, and the thinning
interval from prerun autocorrelations.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .events import ConcreteCrisisEvent, _left_to_right_sum, count, json_count
from .measures import acf

DEGENERATE_MASS = 1e-14
MAX_DEGENERATE_REDRAWS = 100
# the most uniforms the chain draws in one call
UNIFORM_BLOCK = 1024
# the thinning prerun: its length in updates, and the autocorrelation every
# coordinate must fall to at the thinning interval
N_PRERUN = 100
RHO_TARGET = 0.15


class DegenerateSliceError(RuntimeError):
    """The truncated conditional slice carries (numerically) no mass."""


@dataclass(frozen=True, eq=False)
class GibbsParams:
    p: np.ndarray
    thin_T: int

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if p.ndim != 1 or np.any(p <= 0.0):
            raise ValueError("selection probabilities must be positive")
        if abs(p.sum() - 1.0) > 1e-9:
            raise ValueError("selection probabilities must sum to one")
        p = p / p.sum()
        p.setflags(write=False)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "thin_T", count("thinning interval thin_T", self.thin_T, 1))

    def to_json_dict(self) -> dict:
        return {"p": [float(v) for v in self.p], "thin_T": self.thin_T}

    @classmethod
    def from_json_dict(cls, d: dict) -> GibbsParams:
        return cls(np.asarray(d["p"], dtype=float), json_count(d["thin_T"]))


@dataclass(frozen=True, eq=False)
class GibbsDiagnostics:
    coordinates_updated: np.ndarray
    n_degenerate_redraws: int


def select_probs(cov) -> np.ndarray:
    """Selection probabilities proportional to conditional variances.

    p_j is the Schur complement cov_jj - cov_j,-j cov_-j,-j^{-1} cov_-j,j,
    normalized to sum one.
    """
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    d = cov.shape[0]
    if cov.shape != (d, d) or not np.allclose(cov, cov.T, atol=1e-10):
        raise ValueError("covariance must be a symmetric square matrix")
    if d == 1:
        return np.ones(1)
    out = np.empty(d)
    for j in range(d):
        idx = [i for i in range(d) if i != j]
        sub = cov[np.ix_(idx, idx)]
        try:
            sol = np.linalg.solve(sub, cov[idx, j])
        except np.linalg.LinAlgError:
            raise ValueError(
                f"conditioning block for coordinate {j} is singular"
            ) from None
        out[j] = cov[j, j] - float(cov[j, idx] @ sol)
    if np.any(out <= 0.0):
        raise ValueError("covariance is not positive definite")
    return out / out.sum()


class ThinResult(NamedTuple):
    interval: int
    capped: bool


def thin_interval(prerun_path, rho_target: float = RHO_TARGET) -> ThinResult:
    """Smallest lag at which every marginal autocorrelation is <= rho_target.

    Capped at n_pre/4; the cap being hit is flagged rather than fatal.
    """
    x = np.atleast_2d(np.asarray(prerun_path, dtype=float))
    n_pre, d = x.shape
    if n_pre < 50:
        raise ValueError(f"prerun too short to estimate thinning: {n_pre} < 50")
    cap = max(1, n_pre // 4)
    acfs = np.column_stack([acf(x[:, j], cap) for j in range(d)])
    for lag in range(1, cap + 1):
        if np.all(acfs[lag] <= rho_target):
            return ThinResult(lag, False)
    return ThinResult(cap, True)


# -- truncated full-conditional inversion ---------------------------------------


def _slice_interval(x_rest, event: ConcreteCrisisEvent):
    """Truncation interval, in x_j space, for the coordinate whose others
    are x_rest."""
    s_rest = _left_to_right_sum(x_rest)
    return event.v1 - s_rest, event.v2 - s_rest


def _in_band(event: ConcreteCrisisEvent, x) -> bool:
    """v1 <= 1.x <= v2 up to the event's tolerance."""
    s = _left_to_right_sum(x)
    tol = event.tolerance
    return event.v1 - tol <= s <= event.v2 + tol


def _draw_in_slice(model, j: int, rest, lo: float, hi: float, u: float):
    """Exact draw of coordinate j, given the others' chain states rest
    (model.coordinate_state), truncated to [lo, hi]: the full
    conditional's quantile at C_lo + u (C_hi - C_lo).  Returns the draw and
    its state."""
    support_min = model.marginals[j].support_min
    cdf, quantile = model.full_conditional(j, rest)
    # the cdf at a bound: 1 at +inf, 0 at or below the support
    c_lo = 1.0 if lo == math.inf else 0.0 if lo <= support_min else float(cdf(lo))
    c_hi = 1.0 if hi == math.inf else 0.0 if hi <= support_min else float(cdf(hi))
    mass = c_hi - c_lo
    if mass < DEGENERATE_MASS:
        raise DegenerateSliceError(
            f"conditional slice [{lo:.6g}, {hi:.6g}] for coordinate {j} "
            f"carries mass {mass:.3g}"
        )
    u_trunc = min(max(c_lo + u * mass, 1e-15), 1.0 - 1e-15)
    x_new = min(max(float(quantile(u_trunc)), lo), hi)
    return x_new, model.coordinate_state(j, x_new)


def _uniforms(rng, block: int):
    """rng.random() values one at a time, drawn block values per call: the
    same stream as one rng.random() call per value."""
    while True:
        yield from rng.random(block).tolist()


def rsgs_sample(model, event: ConcreteCrisisEvent, params: GibbsParams, x0, n: int, seed):
    """Random-scan Gibbs chain on the event's sum band, emitting one state
    per thin_T updates.  Next to x the chain carries each coordinate's
    state as the model defines it, and conditions on the others' states;
    both are lists of floats."""
    d = model.d
    if event.d != d:
        raise ValueError("band dimension does not match the model")
    if params.p.size != d:
        raise ValueError("selection probabilities must have one entry per coordinate")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (d,):
        raise ValueError(f"initial state must have dimension {d}")
    x = x0.tolist()
    if not _in_band(event, x):
        raise ValueError("initial state violates the band")
    if not np.isfinite(model.logpdf(x0)):
        raise ValueError("initial state has non-finite log-density")

    # each update draws its coordinate and then its innovation; one block
    # covers a chain that meets no degenerate slice, up to UNIFORM_BLOCK
    block = min(2 * n * params.thin_T, UNIFORM_BLOCK)
    draw = _uniforms(np.random.default_rng(seed), block).__next__
    state = [model.coordinate_state(j, x[j]) for j in range(d)]
    cum = np.cumsum(params.p).tolist()
    path = np.empty((n, d))
    coords = []
    consec_degenerate = 0
    total_degenerate = 0
    for i in range(n):
        done = 0
        while done < params.thin_T:
            # np.searchsorted(cum, r, side="right") on the list
            j = bisect.bisect_right(cum, draw())
            lo, hi = _slice_interval(x[:j] + x[j + 1:], event)
            try:
                x[j], state[j] = _draw_in_slice(model, j, state[:j] + state[j + 1:], lo, hi, draw())
            except DegenerateSliceError:
                consec_degenerate += 1
                total_degenerate += 1
                if consec_degenerate > MAX_DEGENERATE_REDRAWS:
                    raise RuntimeError(
                        f"more than {MAX_DEGENERATE_REDRAWS} consecutive "
                        "degenerate conditional slices; the band has "
                        "(numerically) zero volume from the current state"
                    ) from None
                continue
            consec_degenerate = 0
            coords.append(j)
            done += 1
        path[i] = x
    return path, GibbsDiagnostics(
        coordinates_updated=np.array(coords, dtype=np.int64), n_degenerate_redraws=total_degenerate
    )

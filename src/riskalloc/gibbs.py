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
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .events import ConcreteCrisisEvent
from .measures import acf

DEGENERATE_MASS = 1e-14
MAX_DEGENERATE_REDRAWS = 100
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
        T = self.thin_T
        if not (isinstance(T, (int, np.integer)) and not isinstance(T, bool) and T >= 1):
            raise ValueError("thinning interval must be a positive integer")
        object.__setattr__(self, "thin_T", int(self.thin_T))

    def to_json_dict(self) -> dict:
        return {"p": [float(v) for v in self.p], "thin_T": self.thin_T}

    @classmethod
    def from_json_dict(cls, d: dict) -> GibbsParams:
        # an integral float (3.0) is read as an int; any other non-int fails
        T = d["thin_T"]
        T = int(T) if isinstance(T, float) and T.is_integer() else T
        return cls(np.asarray(d["p"], dtype=float), T)


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


def _slice_interval(ones, x_rest, event: ConcreteCrisisEvent):
    """Truncation interval, in x_j space, for the coordinate whose others
    are x_rest; ones is np.ones(d - 1), which the chain builds once."""
    s_rest = float(ones @ np.asarray(x_rest, dtype=float))
    return event.v1 - s_rest, event.v2 - s_rest


def _in_band(event: ConcreteCrisisEvent, x) -> bool:
    """v1 <= 1.x <= v2 up to the event's tolerance."""
    s = float(np.ones(event.d) @ x)
    tol = event.tolerance
    return event.v1 - tol <= s <= event.v2 + tol


def _draw_in_slice(model, j: int, rest, lo: float, hi: float, u: float):
    """Exact draw of coordinate j, given the others' chain states rest
    (model.coordinate_state), truncated to [lo, hi]: the full
    conditional's quantile at C_lo + u (C_hi - C_lo).  Returns the draw and
    its state."""
    m = model.marginals[j]
    cdf, quantile = model.full_conditional(j, rest)

    def cdf_at(x):
        if x == np.inf:
            return 1.0
        if x <= m.support_min:
            return 0.0
        return float(cdf(x))

    c_lo = cdf_at(lo)
    c_hi = cdf_at(hi)
    mass = c_hi - c_lo
    if mass < DEGENERATE_MASS:
        raise DegenerateSliceError(
            f"conditional slice [{lo:.6g}, {hi:.6g}] for coordinate {j} "
            f"carries mass {mass:.3g}"
        )
    u_trunc = min(max(c_lo + u * mass, 1e-15), 1.0 - 1e-15)
    x_new = float(quantile(u_trunc))
    x_new = min(max(x_new, lo), hi)
    return x_new, model.coordinate_state(j, x_new)


def rsgs_sample(model, event: ConcreteCrisisEvent, params: GibbsParams, x0, n: int, seed):
    """Random-scan Gibbs chain on the event's sum band, emitting one state
    per thin_T updates.  Next to x the chain carries each coordinate's
    state as the model defines it, and conditions on the others' states."""
    d = model.d
    if event.d != d:
        raise ValueError("band dimension does not match the model")
    if params.p.size != d:
        raise ValueError("selection probabilities must have one entry per coordinate")
    x = np.asarray(x0, dtype=float).copy()
    if x.shape != (d,):
        raise ValueError(f"initial state must have dimension {d}")
    if not _in_band(event, x):
        raise ValueError("initial state violates the band")
    if not np.isfinite(model.logpdf(x)):
        raise ValueError("initial state has non-finite log-density")

    rng = np.random.default_rng(seed)
    state = np.array([model.coordinate_state(j, x[j]) for j in range(d)])
    # the other coordinates of each j, as np.delete(x, j) selects them
    others = [np.delete(np.arange(d), j) for j in range(d)]
    ones = np.ones(d - 1)
    cum = np.cumsum(params.p).tolist()
    path = np.empty((n, d))
    coords = np.empty(n * params.thin_T, dtype=np.int64)
    k = 0
    consec_degenerate = 0
    total_degenerate = 0
    for i in range(n):
        done = 0
        while done < params.thin_T:
            # np.searchsorted(cum, r, side="right") on the list
            j = bisect.bisect_right(cum, rng.random())
            rest = others[j]
            lo, hi = _slice_interval(ones, x[rest], event)
            try:
                x[j], state[j] = _draw_in_slice(model, j, state[rest], lo, hi, rng.random())
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
            coords[k] = j
            k += 1
            done += 1
        path[i] = x
    return path, GibbsDiagnostics(
        coordinates_updated=coords, n_degenerate_redraws=total_degenerate
    )

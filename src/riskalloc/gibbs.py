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

import bisect
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .copulas import U_EPS, clip01
from .events import ConcreteCrisisEvent, _left_to_right_sum, count
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
        if p.ndim != 1:
            raise ValueError(f"selection probabilities must be a vector, got shape {p.shape}")
        if not np.all(p > 0.0):
            raise ValueError("selection probabilities must be positive")
        if not abs(p.sum() - 1.0) <= 1e-9:
            raise ValueError("selection probabilities must sum to one")
        p = p / p.sum()
        p.setflags(write=False)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "thin_T", count("thinning interval thin_T", self.thin_T, 1))


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
# A clamp of a float v to [lo, hi] is written `lo if v < lo else hi if v > hi
# else v`: for lo <= hi it is min(max(v, lo), hi), NaN included, without
# the cost of two builtin calls.


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


class _Route(NamedTuple):
    """A model's full conditionals as a Gibbs chain evaluates them, bound
    once per chain.  condition(j, rest) conditions the copula once on the
    other coordinates' chain states rest; cdf(j, c, x) and quantile(j, c, p)
    are the conditional cdf and quantile of X_j given that conditioning c,
    each on a float; state(j, x) is what the chain carries for x_j, and
    floor[j] the bottom of coordinate j's support."""

    condition: Callable
    cdf: Callable
    quantile: Callable
    state: Callable
    floor: list


def _copula_route(model) -> _Route:
    """States are the levels F_j(x_j).  p goes to the copula's ppf
    unclamped: the ppf clamps it, and a clamp before the survival
    Clayton's mirror 1 - p would move the last bit of draws near 1."""
    margins = model.marginals

    def state(j, x):
        return clip01(float(margins[j].cdf(x)))

    def cdf(j, c, x):
        return float(c[0](state(j, x)))

    def quantile(j, c, p):
        return float(margins[j].quantile(clip01(c[1](p))))

    return _Route(model.copula.conditional, cdf, quantile, state, [m.support_min for m in margins])


def _score_route(model, ell) -> _Route:
    """States are the scores (x_j - mu_j) / sigma_j, clamped to
    [q_lo, q_hi]; the copula conditions on them (score_conditional) and
    the standard law of its conditional scores takes a float (score_law)."""
    law_cdf, law_ppf = model.copula.score_law
    mu, sigma = ell.mu.tolist(), ell.sigma.tolist()
    q_lo, q_hi = ell.q_lo, ell.q_hi
    p_lo, p_hi = U_EPS, 1.0 - U_EPS

    def state(j, x):
        z = (x - mu[j]) / sigma[j]
        return q_lo if z < q_lo else q_hi if z > q_hi else z

    def cdf(j, c, x):
        return law_cdf((state(j, x) - c[0]) / c[1])

    def quantile(j, c, p):
        p = p_lo if p < p_lo else p_hi if p > p_hi else p
        z = c[0] + c[1] * law_ppf(p)
        return mu[j] + sigma[j] * (q_lo if z < q_lo else q_hi if z > q_hi else z)

    return _Route(model.copula.score_conditional, cdf, quantile, state, [-math.inf] * model.d)


def _route(model) -> _Route:
    ell = model.elliptical()
    return _copula_route(model) if ell is None else _score_route(model, ell)


def _draw_in_slice(route: _Route, j: int, rest, lo: float, hi: float, u: float):
    """Exact draw of coordinate j, given the others' chain states rest,
    truncated to [lo, hi]: the full conditional's quantile at
    C_lo + u (C_hi - C_lo).  Returns the draw and its state."""
    condition, cdf, quantile, state, floor = route
    c = condition(j, rest)
    # the cdf at a bound: 1 at +inf, 0 at or below the support
    c_lo = 1.0 if lo == math.inf else 0.0 if lo <= floor[j] else cdf(j, c, lo)
    c_hi = 1.0 if hi == math.inf else 0.0 if hi <= floor[j] else cdf(j, c, hi)
    mass = c_hi - c_lo
    if mass < DEGENERATE_MASS:
        raise DegenerateSliceError(
            f"conditional slice [{lo:.6g}, {hi:.6g}] for coordinate {j} "
            f"carries mass {mass:.3g}"
        )
    u_trunc = c_lo + u * mass
    u_trunc = 1e-15 if u_trunc < 1e-15 else 1.0 - 1e-15 if u_trunc > 1.0 - 1e-15 else u_trunc
    x_new = quantile(j, c, u_trunc)
    x_new = lo if x_new < lo else hi if x_new > hi else x_new
    return x_new, state(j, x_new)


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
    n = count("chain length n", n, 1)
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
    route = _route(model)
    state = [route.state(j, x[j]) for j in range(d)]
    # the partial sums can end just below 1; the last is 1, so that every
    # uniform in [0, 1) picks a coordinate
    cum = np.cumsum(params.p).tolist()
    cum[-1] = 1.0
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
                x[j], state[j] = _draw_in_slice(route, j, state[:j] + state[j + 1:], lo, hi, draw())
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

"""Hamiltonian Monte Carlo with hyperplane reflection.

The kinetic energy is standard normal throughout, so the drift velocity is
the momentum itself.  Linear constraints are handled inside the leapfrog
drift: when the straight-line move would cross a constraint hyperplane, the
position and the normal momentum component are mirrored there and the drift
continues with the remaining fraction of the step.  This keeps every
trajectory point feasible and preserves kinetic energy exactly, so the
usual Metropolis correction applies unchanged.

Also provides Cholesky standardization of the target coordinates and the
presample-driven heuristic that picks the stepsize and integration time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .events import hit_time, reflect, standardize_constraints

MAX_REFLECTIONS = 10_000
EPS_FLOOR = 1e-12
FEASIBILITY_NUDGE = 1e-9


@dataclass(frozen=True)
class HmcParams:
    eps: float
    T: int

    def __post_init__(self):
        if not self.eps > 0.0:
            raise ValueError("stepsize must be positive")
        if not (isinstance(self.T, (int, np.integer)) and self.T >= 1):
            raise ValueError("integration time must be a positive integer")
        object.__setattr__(self, "T", int(self.T))

    def to_json_dict(self) -> dict:
        return {"eps": self.eps, "T": self.T}

    @classmethod
    def from_json_dict(cls, d: dict) -> HmcParams:
        return cls(float(d["eps"]), int(d["T"]))


@dataclass(frozen=True, eq=False)
class HmcDiagnostics:
    acr: float
    hamiltonian_errors: np.ndarray
    reflections_per_proposal: np.ndarray
    accepted: np.ndarray
    n_nonfinite: int = 0


def leapfrog(x, p, eps: float, grad_u):
    """One plain leapfrog step: half-kick, drift, half-kick."""
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    p_half = p - 0.5 * eps * np.asarray(grad_u(x), dtype=float)
    x_new = x + eps * p_half
    p_new = p_half - 0.5 * eps * np.asarray(grad_u(x_new), dtype=float)
    return x_new, p_new


def leapfrog_reflect(x, p, eps: float, grad_u, constraints):
    """One leapfrog step whose drift reflects off constraint hyperplanes.

    Gradients are only evaluated at the step endpoints, which reflection
    keeps feasible; the drift in between is piecewise linear.  Returns the
    new state and the number of reflections performed.
    """
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    p = p - 0.5 * eps * np.asarray(grad_u(x), dtype=float)
    remaining = eps
    n_reflections = 0
    while True:
        hits = []
        for idx, c in enumerate(constraints):
            if float(c.h @ p) < 0.0:
                t = hit_time(x, p, remaining, c)
                if t is not None:
                    hits.append((t, idx, c))
        if not hits:
            x = x + remaining * p
            break
        t_star, _, c_star = min(hits, key=lambda h: (h[0], h[1]))
        n_reflections += 1
        if n_reflections > MAX_REFLECTIONS:
            raise RuntimeError(
                f"more than {MAX_REFLECTIONS} reflections in a single drift; "
                "the stepsize is likely far too large for the constraint set"
            )
        x, p = reflect(x + (t_star * remaining) * p, p, c_star)
        remaining *= 1.0 - t_star
        if remaining == 0.0:
            break
    # absorb float drift: tiny violations are projected back onto the boundary
    for c in constraints:
        gap = c.v - float(c.h @ x)
        if 0.0 < gap <= FEASIBILITY_NUDGE * max(1.0, abs(c.v)):
            x = x + (gap / float(c.h @ c.h)) * c.h
    p = p - 0.5 * eps * np.asarray(grad_u(x), dtype=float)
    return x, p, n_reflections


def _check_start(target, x0):
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (target.dim,):
        raise ValueError(f"initial state must have dimension {target.dim}")
    for c in getattr(target, "constraints", ()):
        if c.slack(x0) < 1e-12:
            raise ValueError("initial state must be strictly feasible")
    lp = target.logpdf(x0)
    if not np.isfinite(lp):
        raise ValueError("initial state has non-finite log-density")
    return x0, float(lp)


def hmc_sample(target, params: HmcParams, x0, n: int, seed):
    """Run the chain for n proposals; returns (path, diagnostics)."""
    x, lp = _check_start(target, x0)
    constraints = tuple(getattr(target, "constraints", ()))
    d = target.dim

    def grad_u(z):
        return -target.grad_logpdf(z)

    rng = np.random.default_rng(seed)
    path = np.empty((n, d))
    dh = np.empty(n)
    refl = np.zeros(n, dtype=np.int64)
    acc = np.zeros(n, dtype=bool)
    n_nonfinite = 0
    u_x = -lp
    for i in range(n):
        p = rng.standard_normal(d)
        h_old = u_x + 0.5 * float(p @ p)
        xt, pt = x, p
        n_ref = 0
        for _ in range(params.T):
            xt, pt, k = leapfrog_reflect(xt, pt, params.eps, grad_u, constraints)
            n_ref += k
        pt = -pt
        u_new = -target.logpdf(xt)
        h_new = u_new + 0.5 * float(pt @ pt)
        delta_h = h_new - h_old
        dh[i] = delta_h
        refl[i] = n_ref
        if not np.isfinite(delta_h):
            n_nonfinite += 1
            rng.random()  # keep the stream aligned with the accept draw
        elif rng.random() < math.exp(min(0.0, -delta_h)):
            acc[i] = True
            x, u_x = xt, u_new
        path[i] = x
    diagnostics = HmcDiagnostics(
        acr=float(acc.mean()),
        hamiltonian_errors=dh,
        reflections_per_proposal=refl,
        accepted=acc,
        n_nonfinite=n_nonfinite,
    )
    return path, diagnostics


# -- standardization -----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Standardizer:
    """Affine reparametrization x = mu + L y from presample moments."""

    mu: np.ndarray
    chol: np.ndarray
    jittered: bool = False

    def to_x(self, y) -> np.ndarray:
        return self.mu + self.chol @ np.asarray(y, dtype=float)

    def to_x_rows(self, rows) -> np.ndarray:
        return np.asarray(rows, dtype=float) @ self.chol.T + self.mu

    def to_y(self, x) -> np.ndarray:
        return solve_triangular(self.chol, np.asarray(x, dtype=float) - self.mu,
                                lower=True)

    def to_y_rows(self, rows) -> np.ndarray:
        diff = np.asarray(rows, dtype=float) - self.mu
        return solve_triangular(self.chol, diff.T, lower=True).T


class StandardizedTarget:
    """A target composed with x = mu + L y; constraints mapped accordingly.

    The affine Jacobian is constant, so it cancels in acceptance ratios and
    is omitted from the log-density.
    """

    def __init__(self, base, standardizer: Standardizer):
        self.base = base
        self.standardizer = standardizer
        self.dim = base.dim
        self.constraints = standardize_constraints(
            base.constraints, standardizer.chol, standardizer.mu
        )

    def logpdf(self, y) -> float:
        return self.base.logpdf(self.standardizer.to_x(y))

    def grad_logpdf(self, y) -> np.ndarray:
        x = self.standardizer.to_x(y)
        return self.standardizer.chol.T @ self.base.grad_logpdf(x)


def standardize(target, presample_conditional):
    """Build the whitening map from conditional presample moments.

    Returns (transformed target, Standardizer).  A non-positive-definite
    covariance gets a diagonal jitter of 1e-8 * trace/d, flagged on the
    Standardizer; if that still fails the covariance is rank-deficient.
    """
    pts = np.asarray(presample_conditional, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 2:
        raise ValueError("standardization needs a k x d matrix with k >= 2")
    d = pts.shape[1]
    if d != target.dim:
        raise ValueError(f"presample dimension {d} != target dimension {target.dim}")
    mu = pts.mean(axis=0)
    cov = np.atleast_2d(np.cov(pts, rowvar=False))
    jittered = False
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        jittered = True
        cov = cov + (1e-8 * np.trace(cov) / d) * np.eye(d)
        try:
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise ValueError(
                "conditional presample covariance is rank-deficient even "
                "after jitter; cannot standardize"
            ) from None
    std = Standardizer(mu=mu, chol=chol, jittered=jittered)
    return StandardizedTarget(target, std), std


# -- stepsize / integration-time heuristic --------------------------------------


@dataclass(frozen=True)
class TuneResult:
    params: HmcParams
    alpha_bar: float
    n_trajectories: int
    n_capped: int
    n_halvings: int

    @property
    def capped(self) -> bool:
        return self.n_capped > 0


def tune(target, presample_conditional, c_eps: float = 1.0,
         t_max: int = 1000, seed=0) -> TuneResult:
    """Pick (eps, T) from presample trajectories.

    Starting from eps = c_eps * d^(-1/4), the stepsize is halved until the
    minimum stepwise acceptance ratio along all trajectories exceeds the
    target (1 + (d-1)*0.65)/d.  Each trajectory starts at a presample point
    with fresh standard-normal momentum and stops at its first U-turn
    (distance to the start decreasing after having increased); T is the
    floor of the mean stopping step over trajectories.  A scan is abandoned
    as soon as its minimum ratio falls below target, which cannot change
    the outcome because only the accepted stepsize's trajectories determine
    T.
    """
    pts = np.asarray(presample_conditional, dtype=float)
    if pts.ndim != 2:
        raise ValueError("presample must be a k x d matrix")
    constraints = tuple(getattr(target, "constraints", ()))
    feasible = [
        x for x in pts
        if np.isfinite(target.logpdf(x)) and all(c.slack(x) > 0.0 for c in constraints)
    ]
    if len(feasible) < 10:
        raise ValueError(
            f"tuning needs at least 10 strictly feasible presample points, "
            f"got {len(feasible)}"
        )
    d = target.dim
    alpha_bar = (1.0 + (d - 1) * 0.65) / d

    def grad_u(z):
        return -target.grad_logpdf(z)

    def hamiltonian(z, mom):
        return -target.logpdf(z) + 0.5 * float(mom @ mom)

    rng = np.random.default_rng(seed)
    eps = c_eps * d ** (-0.25)
    n_halvings = 0
    worst = 0.0
    while True:
        eps *= 0.5
        n_halvings += 1
        if eps < EPS_FLOOR:
            raise RuntimeError(
                f"tuning stepsize underflowed below {EPS_FLOOR}; worst "
                f"acceptance ratio so far {worst:.3g}"
            )
        alpha_min = np.inf
        stops = []
        n_capped = 0
        failed = False
        for x0 in feasible:
            p = rng.standard_normal(d)
            x = np.array(x0, dtype=float)
            h_prev = hamiltonian(x, p)
            dist_prev = 0.0
            delta_prev = None
            t_stop = None
            for t in range(1, t_max + 1):
                x, p, _ = leapfrog_reflect(x, p, eps, grad_u, constraints)
                h_curr = hamiltonian(x, p)
                if np.isfinite(h_curr):
                    a = math.exp(min(0.0, h_prev - h_curr))
                else:
                    a = 0.0
                dist = float(np.linalg.norm(x - x0))
                delta = dist - dist_prev
                if delta_prev is not None and delta < 0.0 and delta_prev > 0.0:
                    t_stop = t - 1  # the U-turn step itself is not recorded
                    break
                alpha_min = min(alpha_min, a)
                if alpha_min < alpha_bar:
                    failed = True
                    break
                h_prev, dist_prev, delta_prev = h_curr, dist, delta
            if failed:
                break
            if t_stop is None:
                t_stop = t_max
                n_capped += 1
            stops.append(t_stop)
        if failed:
            worst = alpha_min
            continue
        t_final = max(1, math.floor(float(np.mean(stops))))
        return TuneResult(
            params=HmcParams(eps=eps, T=t_final),
            alpha_bar=alpha_bar,
            n_trajectories=len(feasible),
            n_capped=n_capped,
            n_halvings=n_halvings,
        )

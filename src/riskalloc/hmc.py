"""Hamiltonian Monte Carlo with hyperplane reflection.

The kinetic energy is standard normal throughout, so the drift velocity is
the momentum itself.  Linear constraints are handled inside the leapfrog
drift: when the straight-line move would cross a constraint hyperplane, the
position and the normal momentum component are mirrored there and the drift
continues with the remaining fraction of the step.  This keeps every
trajectory point feasible and preserves kinetic energy exactly, so the
usual Metropolis correction applies unchanged.

A target has dim, logpdf, grad_logpdf and constraints, a HalfSpaces that
has no rows when the target is unconstrained.

Also provides StandardizedTarget(base, rows), a target in the coordinates
whitened by the mean and Cholesky factor of conditional presample rows, and
the presample-driven heuristic that picks the stepsize and integration time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular

from .events import HalfSpaces, count, hit_time, json_count, reflect

MAX_REFLECTIONS = 10_000
EPS_FLOOR = 1e-12
FEASIBILITY_NUDGE = 1e-9
# The drift skips the exact hit times when every row satisfies
# v - h.x < (eps * CLEAR_MARGIN) * h.p for every constraint: each crossing
# time toward a wall then exceeds 1 by far more than rounding can blur, so
# hit_time would report no hit either.
CLEAR_MARGIN = 1.0 + 1e-12


@dataclass(frozen=True)
class HmcParams:
    eps: float
    T: int

    def __post_init__(self):
        if not (self.eps > 0.0 and math.isfinite(self.eps)):
            raise ValueError("stepsize must be positive and finite")
        object.__setattr__(self, "T", count("integration time T", self.T, 1))

    def to_json_dict(self) -> dict:
        return {"eps": self.eps, "T": self.T}

    @classmethod
    def from_json_dict(cls, d: dict) -> HmcParams:
        return cls(float(d["eps"]), json_count(d["T"]))


@dataclass(frozen=True, eq=False)
class HmcDiagnostics:
    acr: float
    hamiltonian_errors: np.ndarray
    reflections_per_proposal: np.ndarray
    accepted: np.ndarray
    n_nonfinite: int = 0


def leapfrog_reflect(x, p, eps: float, grad_u, walls: HalfSpaces):
    """One leapfrog step whose drift reflects off constraint hyperplanes.

    x and p are one state (d,) or a batch of states (K, d) that step in
    lockstep; grad_u takes the same shapes.  Gradients are only evaluated
    at the step endpoints, which reflection keeps feasible; the drift in
    between is piecewise linear.  Returns the new state and the number of
    reflections performed, one count per row for a batch.
    """
    x = np.asarray(x, dtype=float)
    half = 0.5 * eps
    p = np.asarray(p, dtype=float) - half * grad_u(x)
    n_reflections = np.zeros(x.shape[:-1], dtype=np.int64)
    x, p = _reflective_drift(x, p, eps, walls, n_reflections)
    p = p - half * grad_u(x)
    return x, p, n_reflections[()]


def _reflective_drift(x, p, eps, walls, n_reflections):
    """Drift every row for time eps; a row that reaches a hyperplane is
    mirrored there and drifts on for the rest of its time.  Each round
    reflects every row that hits, at its earliest hit (ties go to the first
    constraint), and counts it in n_reflections, in place.  Tiny float
    violations at the end are nudged back onto the boundary."""
    if not walls:
        return x + eps * p, p
    if (walls.offsets - walls.dots(x) < (eps * CLEAR_MARGIN) * walls.dots(p)).all():
        return _nudge_onto_boundary(x + eps * p, walls), p
    remaining = np.full(x.shape[:-1], float(eps))
    drifting = np.ones(x.shape[:-1], dtype=bool)
    while True:
        # a row that has stopped has no time left, so it hits nothing
        t = hit_time(x, p, remaining, walls)
        t_star = t.min(axis=-1)
        hit = t_star <= 1.0
        # the rows that reach no wall drift to the end of the step
        x = np.where((drifting & ~hit)[..., None], x + remaining[..., None] * p, x)
        if not hit.any():
            return _nudge_onto_boundary(x, walls), p
        n_reflections += hit
        if n_reflections.max() > MAX_REFLECTIONS:
            raise RuntimeError(
                f"more than {MAX_REFLECTIONS} reflections in a single drift; "
                "the stepsize is likely far too large for the constraint set"
            )
        j = t.argmin(axis=-1)[hit]
        t_hit, left = t_star[hit], remaining[hit]
        x_star = x[hit] + (t_hit * left)[..., None] * p[hit]
        x[hit], p[hit] = reflect(x_star, p[hit], walls.normals[j], walls.offsets[j])
        remaining = np.zeros(remaining.shape)
        remaining[hit] = left * (1.0 - t_hit)
        drifting = remaining != 0.0
        if not drifting.any():
            return _nudge_onto_boundary(x, walls), p


def _nudge_onto_boundary(x, walls):
    """Absorb float drift: a tiny violation is projected back onto the
    boundary, one constraint after the other."""
    if not (walls.dots(x) < walls.offsets).any():
        return x
    tol = FEASIBILITY_NUDGE * np.maximum(1.0, np.abs(walls.offsets))
    for h, v, tol_c in zip(walls.normals, walls.offsets, tol):
        gap = v - np.vecdot(x, h)
        near = (gap > 0.0) & (gap <= tol_c)
        x = np.where(near[..., None], x + (gap / np.vecdot(h, h))[..., None] * h, x)
    return x


def _check_start(target, x0):
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (target.dim,):
        raise ValueError(f"initial state must have dimension {target.dim}")
    if (target.constraints.slack(x0) < 1e-12).any():
        raise ValueError("initial state must be strictly feasible")
    lp = target.logpdf(x0)
    if not np.isfinite(lp):
        raise ValueError("initial state has non-finite log-density")
    return x0, float(lp)


def hmc_sample(target, params: HmcParams, x0, n: int, seed):
    """Run the chain for n proposals; returns (path, diagnostics)."""
    x, lp = _check_start(target, x0)
    walls = target.constraints
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
            xt, pt, k = leapfrog_reflect(xt, pt, params.eps, grad_u, walls)
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


class StandardizedTarget:
    """A target in the coordinates y whitened by presample rows: x = mu + L y,
    with mu their mean and L the Cholesky factor of their covariance.  The
    constraints are mapped accordingly, (h, v) to (L^T h, v - h.mu).

    A covariance that is not positive definite gets a diagonal jitter of
    1e-8 * trace/d, flagged as jittered; if that still fails the covariance
    is rank-deficient.  The affine Jacobian is constant, so it cancels in
    acceptance ratios and is omitted from the log-density.
    """

    def __init__(self, base, rows):
        pts = np.asarray(rows, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 2:
            raise ValueError("standardization needs a k x d matrix with k >= 2")
        d = pts.shape[1]
        if d != base.dim:
            raise ValueError(f"presample dimension {d} != target dimension {base.dim}")
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
        walls = base.constraints
        self.base = base
        self.dim = d
        self.mu = mu
        self.chol = chol
        self.jittered = jittered
        self.constraints = HalfSpaces(
            np.matvec(chol.T, walls.normals), walls.offsets - walls.dots(mu)
        )

    # both maps take a point (d,) or a batch of rows (K, d)
    def to_x(self, y) -> np.ndarray:
        return np.asarray(y, dtype=float) @ self.chol.T + self.mu

    def to_y(self, x) -> np.ndarray:
        diff = np.asarray(x, dtype=float) - self.mu
        return solve_triangular(self.chol, diff.T, lower=True).T

    def logpdf(self, y):
        return self.base.logpdf(self.to_x(y))

    def grad_logpdf(self, y) -> np.ndarray:
        x = self.to_x(y)
        return np.matvec(self.chol.T, self.base.grad_logpdf(x))


# -- stepsize / integration-time heuristic --------------------------------------


@dataclass(frozen=True)
class TuneResult:
    """The tuned parameters and how they were found.  n_steps (lockstep
    steps) and n_trajectory_steps (trajectory steps), both summed over all
    stepsizes tried, count work and take no part in equality."""

    params: HmcParams
    alpha_bar: float
    n_trajectories: int
    n_capped: int
    n_halvings: int
    n_steps: int = field(default=0, compare=False)
    n_trajectory_steps: int = field(default=0, compare=False)


def _scan(target, walls, starts, momenta, eps, t_max, alpha_bar):
    """Advance one trajectory per start row, all in lockstep, each until its
    first U-turn (the U-turn step itself is not recorded), its first step
    with acceptance ratio below alpha_bar, or t_max steps.  Once a
    trajectory j has failed, the rows after it are dropped and the scan
    ends when every row before it has stopped: the rows after j would not
    have run in a one-by-one scan.

    Returns (stops, failure, n_steps, n_trajectory_steps).  failure is None
    when every ratio stayed at or above alpha_bar, else (j, a): the first
    failing trajectory in row order and its ratio at its first failing step.
    """

    def grad_u(z):
        return -target.grad_logpdf(z)

    def hamiltonian(z, mom):
        return -target.logpdf(z) + 0.5 * np.vecdot(mom, mom)

    k = starts.shape[0]
    stops = np.full(k, t_max)
    live = np.arange(k)
    x0, x, p = starts, starts, momenta
    h_prev = hamiltonian(x, p)
    dist_prev = np.zeros(k)
    delta_prev = np.zeros(k)  # a U-turn needs a positive previous delta
    failure = None
    n_steps = n_trajectory_steps = 0
    for t in range(1, t_max + 1):
        x, p, _ = leapfrog_reflect(x, p, eps, grad_u, walls)
        n_steps += 1
        n_trajectory_steps += live.size
        h_curr = hamiltonian(x, p)
        finite = np.isfinite(h_curr)
        a = np.zeros(live.size)
        a[finite] = np.exp(np.minimum(0.0, h_prev[finite] - h_curr[finite]))
        diff = x - x0
        dist = np.sqrt(np.vecdot(diff, diff))
        delta = dist - dist_prev
        uturn = (delta < 0.0) & (delta_prev > 0.0)
        stops[live[uturn]] = t - 1
        failed = ~uturn & (a < alpha_bar)
        if failed.any():
            i = np.flatnonzero(failed)[0]  # live rows stay in row order
            if failure is None or live[i] < failure[0]:
                failure = (int(live[i]), float(a[i]))
        go = ~uturn & ~failed
        if failure is not None:
            go &= live < failure[0]
        if not go.all():
            live, x0, x, p = live[go], x0[go], x[go], p[go]
            h_curr, dist, delta = h_curr[go], dist[go], delta[go]
            if live.size == 0:
                break
        h_prev, dist_prev, delta_prev = h_curr, dist, delta
    return stops, failure, n_steps, n_trajectory_steps


def tune(target, presample_conditional, t_max: int = 1000, seed=0) -> TuneResult:
    """Pick (eps, T) from presample trajectories.

    Starting from eps = d^(-1/4), the stepsize is halved until the
    minimum stepwise acceptance ratio along all trajectories exceeds the
    target (1 + (d-1)*0.65)/d.  Each trajectory starts at a presample point
    with fresh standard-normal momentum and stops at its first U-turn
    (distance to the start decreasing after having increased); T is the
    floor of the mean stopping step over trajectories.

    The trajectories of one stepsize advance in lockstep as one batch, on
    the same random stream as running them one after another: the k
    momenta are one (k, d) block draw, which equals k draws of d numbers.
    A stepsize fails at its first failing trajectory j in row order; the
    scan ends once every trajectory before j has stopped, which cannot
    change the outcome, and the stream is rewound and redrawn to where the
    one-by-one scan leaves it, after j + 1 momenta.
    """
    pts = np.asarray(presample_conditional, dtype=float)
    if pts.ndim != 2:
        raise ValueError("presample must be a k x d matrix")
    walls = target.constraints
    feasible = np.isfinite(target.logpdf(pts)) & (walls.slack(pts) > 0.0).all(axis=-1)
    starts = pts[feasible]
    if len(starts) < 10:
        raise ValueError(
            f"tuning needs at least 10 strictly feasible presample points, "
            f"got {len(starts)}"
        )
    d = target.dim
    alpha_bar = (1.0 + (d - 1) * 0.65) / d

    rng = np.random.default_rng(seed)
    eps = d ** (-0.25)
    n_halvings = 0
    worst = 0.0
    n_steps = n_trajectory_steps = 0
    while True:
        eps *= 0.5
        n_halvings += 1
        if eps < EPS_FLOOR:
            raise RuntimeError(
                f"tuning stepsize underflowed below {EPS_FLOOR}; worst "
                f"acceptance ratio so far {worst:.3g}"
            )
        state = rng.bit_generator.state
        stops, failure, steps, trajectory_steps = _scan(
            target, walls, starts, rng.standard_normal(starts.shape), eps, t_max, alpha_bar
        )
        n_steps += steps
        n_trajectory_steps += trajectory_steps
        if failure is not None:
            j, worst = failure
            rng.bit_generator.state = state
            rng.standard_normal((j + 1, d))
            continue
        t_final = max(1, math.floor(float(np.mean(stops))))
        return TuneResult(
            params=HmcParams(eps=eps, T=t_final),
            alpha_bar=alpha_bar,
            n_trajectories=len(starts),
            n_capped=int((stops == t_max).sum()),
            n_halvings=n_halvings,
            n_steps=n_steps,
            n_trajectory_steps=n_trajectory_steps,
        )

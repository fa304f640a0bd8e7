"""Crisis events as sum bands.

An event is the band {v1 <= 1.x <= v2} on the loss vector, with v1 and v2
read off empirical quantiles of presample row sums, intersected with the
half-spaces x_j >= 0 when the losses are pure.  The VaR event is special:
with a positive band half-width delta it is the band between the
alpha -/+ delta quantiles, which plain Monte Carlo can hit; with delta = 0
it is the exact hyperplane {1.x = v*}, which the samplers handle through a
(d-1)-dimensional reduced target.

The module also provides the constraint geometry the reflective sampler
needs: constraints stacked as arrays, boundary hit times, mirror
reflections, and the affine mapping of constraints into standardized
coordinates.  The targets and the geometry take a point of shape (d,) or
a batch of shape (K, d).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import empirical_quantile

EVENT_KINDS = ("var", "rvar", "es")
SUPPORT_CLASSES = ("pure-losses", "pnl")

# relative tolerance for the VaR sum equality; the identity is maintained
# algebraically, this only absorbs float drift
EQUALITY_RTOL = 1e-9

PURE_LOSSES_ONLY = (
    "var dimension reduction requires a model with nonnegative "
    "losses; profit-and-loss models are not supported"
)


@dataclass(frozen=True, eq=False)
class LinearConstraint:
    """Half-space h.x >= v."""

    h: np.ndarray
    v: float

    def __post_init__(self):
        h = np.atleast_1d(np.asarray(self.h, dtype=float))
        if h.ndim != 1 or not np.any(h != 0.0):
            raise ValueError("constraint normal must be a nonzero vector")
        h.setflags(write=False)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "v", float(self.v))

    def slack(self, x) -> float:
        """h.x - v; nonnegative on the feasible side."""
        return float(self.h @ np.asarray(x, dtype=float)) - self.v


class HalfSpaces(tuple):
    """A tuple of LinearConstraint that also holds them stacked: the normals
    as the rows of an (m, d) matrix and the offsets as an m-vector, built
    once so that a sampler step need not stack them again."""

    def __new__(cls, constraints=()):
        if isinstance(constraints, HalfSpaces):
            return constraints
        self = super().__new__(cls, constraints)
        self.normals = np.stack([c.h for c in self]) if self else None
        self.offsets = np.array([c.v for c in self])
        return self

    def dots(self, x) -> np.ndarray:
        """h.x for every constraint: shape (m,) for a point, (K, m) for a
        batch.  np.vecdot gives each the bits of the 1-D h @ x."""
        x = np.asarray(x, dtype=float)
        if not self:
            return np.empty(x.shape[:-1] + (0,))
        return np.vecdot(x[..., None, :], self.normals)

    def slack(self, x) -> np.ndarray:
        """h.x - v for every constraint; nonnegative on the feasible side."""
        return self.dots(x) - self.offsets


@dataclass(frozen=True)
class CrisisEventSpec:
    """What conditioning event to build: kind, levels, and the VaR band width."""

    kind: str
    levels: tuple
    delta: float = 0.0

    def __post_init__(self):
        kind = str(self.kind).lower()
        levels = tuple(float(a) for a in np.atleast_1d(np.asarray(self.levels)))
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "delta", float(self.delta))
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {self.kind!r}")
        if kind in ("var", "es"):
            if len(levels) != 1 or not 0.0 < levels[0] < 1.0:
                raise ValueError(f"{kind} event takes one level in (0, 1), got {levels}")
        else:
            if len(levels) != 2 or not 0.0 < levels[0] < levels[1] <= 1.0:
                raise ValueError(
                    f"rvar event takes levels 0 < a1 < a2 <= 1, got {levels}"
                )
        if self.delta < 0.0:
            raise ValueError("delta must be nonnegative")
        if self.delta > 0.0 and kind != "var":
            raise ValueError("delta applies only to the var event kind")

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "levels": list(self.levels), "delta": self.delta}


@dataclass(frozen=True, eq=False)
class ConcreteCrisisEvent:
    """An estimated event: the sum band {v1 <= 1.x <= v2}, plus x >= 0 when
    the losses are pure (nonnegative).

    Every event kind is such a band: es has v2 = inf, rvar and the delta > 0
    var event have both bounds finite, and the exact var event (delta = 0)
    has v1 = v2 = v*, the hyperplane {1.x = v*}.  kind, levels, delta and
    thresholds record what the band was estimated from.
    """

    kind: str
    levels: tuple
    delta: float
    v1: float
    v2: float
    d: int
    nonnegative: bool
    thresholds: dict

    def __post_init__(self):
        object.__setattr__(self, "v1", float(self.v1))
        object.__setattr__(self, "v2", float(self.v2))
        if not self.v1 <= self.v2:
            raise ValueError(f"band needs v1 <= v2, got [{self.v1}, {self.v2}]")

    @property
    def sum_equality(self) -> float | None:
        """v* for the exact var event (v1 = v2), else None."""
        return self.v1 if self.v1 == self.v2 else None

    @property
    def constraints(self) -> tuple:
        """The event as half-spaces h.x >= v: finite band bounds, then x_j >= 0.

        The exact var hyperplane is not a half-space; see sum_equality.
        """
        ones = np.ones(self.d)
        out = []
        if self.v1 < self.v2:
            if np.isfinite(self.v1):
                out.append(LinearConstraint(ones, self.v1))
            if np.isfinite(self.v2):
                out.append(LinearConstraint(-ones, -self.v2))
        if self.nonnegative:
            out.extend(_coordinate_constraints(self.d))
        return tuple(out)

    def contains_rows(self, rows) -> np.ndarray:
        rows = np.asarray(rows, dtype=float)
        mask = np.ones(rows.shape[0], dtype=bool)
        constraints = self.constraints
        if constraints:
            hmat = np.stack([c.h for c in constraints])
            vvec = np.array([c.v for c in constraints])
            mask &= (rows @ hmat.T >= vvec).all(axis=1)
        if self.sum_equality is not None:
            v = self.sum_equality
            tol = EQUALITY_RTOL * max(1.0, abs(v))
            mask &= np.abs(rows.sum(axis=1) - v) <= tol
        return mask

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "levels": list(self.levels),
            "delta": self.delta,
            "thresholds": {k: float(v) for k, v in self.thresholds.items()},
            "sum_equality": self.sum_equality,
            "constraints": [
                {"h": c.h.tolist(), "v": c.v} for c in self.constraints
            ],
        }


def _coordinate_constraints(d: int) -> list:
    out = []
    for j in range(d):
        e = np.zeros(d)
        e[j] = 1.0
        out.append(LinearConstraint(e, 0.0))
    return out


def estimate_event(spec: CrisisEventSpec, presample, support_class: str) -> ConcreteCrisisEvent:
    """Build a concrete event from empirical quantiles of presample row sums."""
    if support_class not in SUPPORT_CLASSES:
        raise ValueError(f"unknown support class {support_class!r}")
    x = np.asarray(presample, dtype=float)
    if x.ndim != 2:
        raise ValueError("presample must be an n x d matrix")
    n, d = x.shape
    if n < 100:
        raise ValueError(f"presample too small to estimate thresholds: n={n} < 100")
    s = x.sum(axis=1)

    if spec.kind == "es":
        v1 = empirical_quantile(s, spec.levels[0])
        v2 = np.inf
        thresholds = {"v": v1}
    elif spec.kind == "rvar":
        v1 = empirical_quantile(s, spec.levels[0])
        v2 = empirical_quantile(s, spec.levels[1])
        thresholds = {"v1": v1, "v2": v2}
    else:
        alpha = spec.levels[0]
        v1 = v2 = empirical_quantile(s, alpha)
        thresholds = {"v_star": v1}
        if spec.delta > 0.0:
            if not (0.0 < alpha - spec.delta and alpha + spec.delta < 1.0):
                raise ValueError(
                    f"band levels {alpha} +/- {spec.delta} fall outside (0, 1)"
                )
            v1 = empirical_quantile(s, alpha - spec.delta)
            v2 = empirical_quantile(s, alpha + spec.delta)
            thresholds.update(v_lo=v1, v_hi=v2)
    return ConcreteCrisisEvent(
        kind=spec.kind,
        levels=spec.levels,
        delta=spec.delta,
        v1=v1,
        v2=v2,
        d=d,
        nonnegative=support_class == "pure-losses",
        thresholds=thresholds,
    )


class EventTarget:
    """Unnormalized log-density of the model restricted to an inequality event."""

    def __init__(self, model, event: ConcreteCrisisEvent):
        if event.sum_equality is not None:
            raise ValueError(
                "the exact var event has zero volume in full dimension; "
                "use ReducedVarTarget instead"
            )
        self.model = model
        self.event = event
        self.dim = model.d
        self.constraints = HalfSpaces(event.constraints)

    def feasible(self, x):
        """Whether the point, or each row of the batch, satisfies every constraint."""
        walls = self.constraints
        return (walls.dots(x) >= walls.offsets).all(axis=-1)

    def logpdf(self, x):
        return np.where(self.feasible(x), self.model.logpdf(x), -np.inf)[()]

    def grad_logpdf(self, x) -> np.ndarray:
        return self.model.grad_logpdf(x)


class ReducedVarTarget:
    """The (d-1)-dimensional target for the exact VaR event.

    The last coordinate is eliminated through the sum equality: a reduced
    point x' stands for the full point (x', v* - 1.x').  Nonnegativity of
    the implied last coordinate forces 1.x' <= v*, so the feasible region
    is the simplex {x' >= 0, 1.x' <= v*}.
    """

    def __init__(self, model, v_star: float):
        if model.support_class != "pure-losses":
            raise ValueError(PURE_LOSSES_ONLY)
        if model.d < 2:
            raise ValueError("dimension reduction needs d >= 2")
        self.model = model
        self.v_star = float(v_star)
        self.dim = model.d - 1
        cons = _coordinate_constraints(self.dim)
        cons.append(LinearConstraint(-np.ones(self.dim), -self.v_star))
        self.constraints = HalfSpaces(cons)

    def lift(self, x_reduced) -> np.ndarray:
        """Append the implied last coordinate to a point or to each row."""
        x_reduced = np.asarray(x_reduced, dtype=float)
        last = self.v_star - x_reduced.sum(axis=-1)
        return np.concatenate([x_reduced, last[..., None]], axis=-1)

    def logpdf(self, x_reduced):
        return self.model.logpdf(self.lift(x_reduced))

    def grad_logpdf(self, x_reduced) -> np.ndarray:
        g = self.model.grad_logpdf(self.lift(x_reduced))
        return g[..., :-1] - g[..., -1:]


def hit_time(x, p, eps, walls: HalfSpaces) -> np.ndarray:
    """Fraction of the step x -> x + eps*p at which each hyperplane is reached.

    x and p are a point (d,) or a batch (K, d), eps a scalar or one value per
    row; the result has shape (m,) or (K, m).  A constraint the motion heads
    toward (eps*h.p < 0) gets its crossing time if that lies in [0, 1];
    every other entry is inf.  Callers are expected to pass feasible x.
    """
    denom = np.asarray(eps, dtype=float)[..., None] * walls.dots(p)
    toward = denom < 0.0
    t = np.divide(walls.offsets - walls.dots(x), denom, out=np.full(denom.shape, np.inf),
                  where=toward)
    return np.where((t >= 0.0) & (t <= 1.0), t, np.inf)


def reflect(x_star, p, h, v):
    """Mirror boundary points and their momenta across hyperplanes h.x = v.

    h is one normal (d,) with its offset v, or one normal per row (K, d)
    with an offset per row.  The momentum keeps its tangential part and
    flips the normal part, so kinetic energy is preserved exactly.
    """
    x_star = np.asarray(x_star, dtype=float)
    p = np.asarray(p, dtype=float)
    hh = np.vecdot(h, h)[..., None]
    x_r = x_star - 2.0 * ((np.vecdot(h, x_star)[..., None] - np.asarray(v)[..., None]) / hh) * h
    p_r = p - 2.0 * (np.vecdot(h, p)[..., None] / hh) * h
    return x_r, p_r


def standardize_constraints(constraints, chol, mu):
    """Map constraints through x = mu + L.y: (h, v) becomes (L^T h, v - h.mu)."""
    chol = np.asarray(chol, dtype=float)
    mu = np.asarray(mu, dtype=float)
    sign, _ = np.linalg.slogdet(chol)
    if sign == 0.0:
        raise ValueError("standardization matrix is singular")
    return HalfSpaces(
        LinearConstraint(chol.T @ c.h, c.v - float(c.h @ mu)) for c in constraints
    )

"""Crisis events as sum bands.

An event is one value: the band {v1 <= 1.x <= v2} on the loss vector, with
v1 and v2 read off order statistics of presample row sums, intersected
with the half-spaces x_j >= 0 when the losses are pure, together with the
spec it was estimated from.  The VaR event is special: with a positive
band half-width delta it is the band between the alpha -/+ delta
quantiles, which plain Monte Carlo can hit; with delta = 0 it is the exact
hyperplane {1.x = v*}, which the samplers handle through a
(d-1)-dimensional reduced target.

Every set of linear constraints h.x >= v, the event's and the samplers',
is one HalfSpaces: the normals as the rows of an (m, d) matrix and the
offsets as an m-vector.  The module also provides the geometry the
reflective sampler needs on them: boundary hit times and mirror
reflections.  The targets and the geometry take a point of shape (d,) or a
batch of shape (K, d).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

EVENT_KINDS = ("var", "rvar", "es")
SUPPORT_CLASSES = ("pure-losses", "pnl")

# relative tolerance on a band's sum bounds (band_tolerance);
# the sum identities are maintained algebraically, this only absorbs float
# drift
EQUALITY_RTOL = 1e-9

PURE_LOSSES_ONLY = (
    "var dimension reduction requires a model with nonnegative "
    "losses; profit-and-loss models are not supported"
)


def count(field: str, value, least: int) -> int:
    """value as an int: an int (np.integer too, bool not) of at least least.
    A ValueError naming field otherwise.  Every count a run is configured
    with, in RunConfig, HmcParams and GibbsParams, follows this rule."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{field} must be an integer of at least {least}, got {value!r}")
    return int(value)


def json_count(value):
    """A count as a JSON reader takes it: an integral float (1e5) as an int,
    any other value as it is, for count() to check."""
    return int(value) if isinstance(value, float) and value.is_integer() else value


@dataclass(frozen=True, eq=False)
class HalfSpaces:
    """The half-spaces h.x >= v: the normals h as the rows of an (m, d)
    matrix and the offsets v as an m-vector, both read-only.  m may be 0."""

    normals: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        normals = np.array(self.normals, dtype=float)
        offsets = np.array(self.offsets, dtype=float)
        if normals.ndim != 2 or offsets.shape != normals.shape[:1]:
            raise ValueError(
                f"need an (m, d) matrix of normals and m offsets, got shapes "
                f"{normals.shape} and {offsets.shape}"
            )
        if not (normals != 0.0).any(axis=1).all():
            raise ValueError("constraint normals must be nonzero vectors")
        normals.setflags(write=False)
        offsets.setflags(write=False)
        object.__setattr__(self, "normals", normals)
        object.__setattr__(self, "offsets", offsets)

    def __len__(self) -> int:
        return self.offsets.shape[0]

    def dots(self, x) -> np.ndarray:
        """h.x for every constraint: shape (m,) for a point, (K, m) for a
        batch.  np.vecdot gives each the bits of the 1-D h @ x."""
        return np.vecdot(np.asarray(x, dtype=float)[..., None, :], self.normals)

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
    has v1 = v2 = v*, the hyperplane {1.x = v*}.  spec and thresholds record
    what the band was estimated from.
    """

    spec: CrisisEventSpec
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
    def tolerance(self) -> float:
        """How far 1.x may stray past a finite band bound: a conditional
        mean, a clamped draw or the exact var sum may sit a few ulps off the
        band."""
        return band_tolerance(self.v1, self.v2)

    @cached_property
    def constraints(self) -> HalfSpaces:
        """The event as half-spaces h.x >= v: finite band bounds, then x_j >= 0.

        The exact var hyperplane is not a half-space; see sum_equality.
        """
        normals, offsets = [], []
        if self.v1 < self.v2:
            if np.isfinite(self.v1):
                normals.append(np.ones(self.d))
                offsets.append(self.v1)
            if np.isfinite(self.v2):
                normals.append(-np.ones(self.d))
                offsets.append(-self.v2)
        if self.nonnegative:
            normals.extend(np.eye(self.d))
            offsets.extend([0.0] * self.d)
        return HalfSpaces(np.reshape(normals, (-1, self.d)), offsets)

    def contains_rows(self, rows) -> np.ndarray:
        """Which rows lie in the event: their sums, added as estimate_event
        adds them, are compared with the band, so the row whose sum is a
        threshold lies on the threshold."""
        rows = np.asarray(rows, dtype=float)
        s = _left_to_right_sum(rows.T)
        if self.sum_equality is not None:
            mask = np.abs(s - self.sum_equality) <= self.tolerance
        else:
            mask = (s >= self.v1) & (s <= self.v2)
        if self.nonnegative:
            mask &= (rows >= 0.0).all(axis=1)
        return mask

    def to_json_dict(self) -> dict:
        walls = self.constraints
        return {
            **self.spec.to_json_dict(),
            "thresholds": {k: float(v) for k, v in self.thresholds.items()},
            "sum_equality": self.sum_equality,
            "constraints": [
                {"h": h, "v": v} for h, v in zip(walls.normals.tolist(), walls.offsets.tolist())
            ],
        }


def band_tolerance(*bounds) -> float:
    """EQUALITY_RTOL relative to the largest finite bound, and to at least 1."""
    return EQUALITY_RTOL * max([1.0] + [abs(v) for v in bounds if math.isfinite(v)])


# private: perfbench's tracer wraps public functions, and a span on every
# Gibbs update would outweigh the sum
def _left_to_right_sum(terms):
    """terms[0] + terms[1] + ..., added left to right: floats, or columns
    added in place into a copy of the first.  The event's thresholds and
    membership, the Gibbs slices and the model's log-density all add this
    way.  The row sums of x are _left_to_right_sum(x.T), for d < 8 the bits
    of x.sum(axis=1)."""
    s = +terms[0]
    for t in terms[1:]:
        s += t
    return s


@dataclass(frozen=True, eq=False)
class Presample:
    """The rows of an n-row presample that a run can read, in draw order,
    with their sums (_left_to_right_sum).

    The kept sums are the largest len(sums) of all n, so the k-th smallest
    of all n is the kept sums' entry at index k - 1 - (n - len(sums)).  An
    (n, d) matrix is the presample that keeps every row.
    """

    n: int
    rows: np.ndarray
    sums: np.ndarray

    def order_statistic(self, level: float) -> float:
        """The k-th smallest of all n sums, k = ceil(n * level): the order
        statistic empirical_quantile reads, read from a partition of the
        kept sums."""
        if not 0.0 < level <= 1.0:
            raise ValueError(f"quantile level must lie in (0, 1], got {level}")
        i = math.ceil(self.n * level) - 1 - (self.n - len(self.sums))
        if i < 0:
            raise ValueError(
                f"the presample kept the largest {len(self.sums)} of {self.n} sums, "
                f"too few to read the sum quantile at level {level}"
            )
        return float(np.partition(self.sums, i)[i])


def _as_presample(x) -> Presample:
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError("presample must be an n x d matrix")
    return Presample(len(x), x, _left_to_right_sum(x.T))


def band_levels(spec: CrisisEventSpec) -> tuple:
    """The levels of the order statistics that bound spec's band, (lower,
    upper).  es is open above; its upper level 1 is the largest sum."""
    if spec.kind == "es":
        return spec.levels[0], 1.0
    if spec.kind == "rvar":
        return spec.levels
    alpha = spec.levels[0]
    return alpha - spec.delta, alpha + spec.delta


def estimate_event(spec: CrisisEventSpec, presample, support_class: str) -> ConcreteCrisisEvent:
    """Build a concrete event from order statistics of presample row sums.

    presample is a Presample, or an (n, d) matrix of every row.
    """
    if support_class not in SUPPORT_CLASSES:
        raise ValueError(f"unknown support class {support_class!r}")
    pre = presample if isinstance(presample, Presample) else _as_presample(presample)
    if pre.n < 100:
        raise ValueError(f"presample too small to estimate thresholds: n={pre.n} < 100")
    quantile = pre.order_statistic
    lo, hi = band_levels(spec)

    if spec.kind == "es":
        v1 = quantile(lo)
        v2 = np.inf
        thresholds = {"v": v1}
    elif spec.kind == "rvar":
        v1 = quantile(lo)
        v2 = quantile(hi)
        thresholds = {"v1": v1, "v2": v2}
    else:
        alpha = spec.levels[0]
        v1 = v2 = quantile(alpha)
        thresholds = {"v_star": v1}
        if spec.delta > 0.0:
            if not (0.0 < lo and hi < 1.0):
                raise ValueError(
                    f"band levels {alpha} +/- {spec.delta} fall outside (0, 1)"
                )
            v1 = quantile(lo)
            v2 = quantile(hi)
            thresholds.update(v_lo=v1, v_hi=v2)
    return ConcreteCrisisEvent(
        spec=spec,
        v1=v1,
        v2=v2,
        d=pre.rows.shape[1],
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
        self.constraints = event.constraints

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
        self.constraints = HalfSpaces(
            np.vstack([np.eye(self.dim), -np.ones(self.dim)]),
            np.append(np.zeros(self.dim), -self.v_star),
        )

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


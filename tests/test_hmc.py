import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riskalloc.events import (
    CrisisEventSpec,
    EventTarget,
    HalfSpaces,
    ReducedVarTarget,
    estimate_event,
)
from riskalloc.hmc import (
    CLEAR_MARGIN,
    FEASIBILITY_NUDGE,
    HmcParams,
    StandardizedTarget,
    TuneResult,
    hmc_sample,
    leapfrog_reflect,
    tune,
    _hit_time_drift,
    _point_drift,
    _reflective_drift,
)
from riskalloc.harness import run_config_from_dict
from riskalloc.measures import MarginalRiskMeasure, batch_means_se
from riskalloc.models import preset


# The test targets take a point (d,) or a batch of rows (K, d), as tune
# calls them with batches.


def no_walls(d):
    """The constraints of an unconstrained target in d dimensions."""
    return HalfSpaces(np.empty((0, d)), [])


# the unit square 0 <= x_j <= 1
UNIT_BOX = HalfSpaces(
    [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]], [0.0, -1.0, 0.0, -1.0]
)


class GaussianTarget:
    """Unconstrained standard normal in d dimensions."""

    def __init__(self, d=3):
        self.dim = d
        self.constraints = no_walls(d)

    def logpdf(self, x):
        x = np.asarray(x, dtype=float)
        return -0.5 * np.vecdot(x, x)

    def grad_logpdf(self, x):
        return -np.asarray(x, dtype=float)


class FlatTarget:
    """Constant density over a constraint region; zero gradient."""

    def __init__(self, constraints, dim):
        self.constraints = constraints
        self.dim = dim

    def logpdf(self, x):
        inside = (self.constraints.slack(x) >= 0).all(axis=-1)
        return np.where(inside, 0.0, -np.inf)[()]

    def grad_logpdf(self, x):
        return np.zeros(np.shape(x))


class BrokenGradientTarget(GaussianTarget):
    def grad_logpdf(self, x):
        return np.full(np.shape(x), np.nan)


@pytest.fixture(scope="module")
def m1_rvar_target():
    m = preset("M1")
    pre = m.sample(50_000, np.random.default_rng(0))
    ev = estimate_event(CrisisEventSpec("rvar", (0.95, 0.99)), pre, m.nonnegative)
    cond = pre[ev.contains_rows(pre)]
    return EventTarget(m, ev), cond


def leapfrog(x, p, eps: float, grad_u):
    """One plain leapfrog step: half-kick, drift, half-kick.  The reference
    that leapfrog_reflect must equal when no wall is hit."""
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    p_half = p - 0.5 * eps * np.asarray(grad_u(x), dtype=float)
    x_new = x + eps * p_half
    p_new = p_half - 0.5 * eps * np.asarray(grad_u(x_new), dtype=float)
    return x_new, p_new


def test_leapfrog_quadratic_frozen_value():
    # U(x) = x^2/2: half-kick -0.05, drift to 0.995, half-kick to -0.09975
    x, p = leapfrog(np.array([1.0]), np.array([0.0]), 0.1, lambda z: z)
    assert x[0] == pytest.approx(0.995, abs=1e-15)
    assert p[0] == pytest.approx(-0.09975, abs=1e-15)


def test_leapfrog_zero_step_identity():
    x0, p0 = np.array([0.3, -1.2]), np.array([2.0, 0.5])
    x, p = leapfrog(x0, p0, 0.0, lambda z: z)
    assert np.array_equal(x, x0)
    assert np.array_equal(p, p0)


def test_leapfrog_reversibility():
    rng = np.random.default_rng(1)
    grad = lambda z: z  # standard normal potential
    for _ in range(20):
        x, p = rng.normal(size=3), rng.normal(size=3)
        xf, pf = x.copy(), p.copy()
        for _ in range(10):
            xf, pf = leapfrog(xf, pf, 0.15, grad)
        xb, pb = xf, -pf
        for _ in range(10):
            xb, pb = leapfrog(xb, pb, 0.15, grad)
        assert np.allclose(xb, x, atol=1e-12)
        assert np.allclose(-pb, p, atol=1e-12)


def test_reflect_leapfrog_matches_plain_without_constraints():
    rng = np.random.default_rng(2)
    grad = lambda z: z
    x, p = rng.normal(size=4), rng.normal(size=4)
    xa, pa = leapfrog(x, p, 0.2, grad)
    xb, pb, n_ref = leapfrog_reflect(x, p, 0.2, grad, no_walls(4))
    assert n_ref == 0
    assert np.array_equal(xa, xb)
    assert np.array_equal(pa, pb)
    # inactive constraints leave the path bit-identical too
    far = HalfSpaces([np.ones(4)], [-1e6])
    xc, pc, n_ref = leapfrog_reflect(x, p, 0.2, grad, far)
    assert n_ref == 0
    assert np.array_equal(xa, xc)
    assert np.array_equal(pa, pc)


def test_reflect_leapfrog_one_dimensional_trace():
    # flat potential, x >= 0: drift from 0.5 with p=-2 bounces at t=0.25
    cons = HalfSpaces([[1.0]], [0.0])
    x, p, n_ref = leapfrog_reflect(
        np.array([0.5]), np.array([-2.0]), 1.0, lambda z: np.zeros(1), cons
    )
    assert n_ref == 1
    assert x[0] == pytest.approx(1.5, abs=1e-14)
    assert p[0] == pytest.approx(2.0, abs=1e-14)


def test_reflect_leapfrog_preserves_kinetic_energy_flat():
    tgt = FlatTarget(UNIT_BOX, 2)
    rng = np.random.default_rng(3)
    grad = lambda z: np.zeros(2)
    for _ in range(30):
        x = rng.uniform(0.05, 0.95, size=2)
        p = rng.normal(size=2) * 3.0
        k0 = p @ p
        x1, p1, _ = leapfrog_reflect(x, p, 1.0, grad, UNIT_BOX)
        assert p1 @ p1 == pytest.approx(k0, rel=1e-12)
        assert tgt.logpdf(x1) == 0.0  # stayed in the box


def test_reflect_leapfrog_reversible_in_box():
    grad = lambda z: np.zeros(2)
    rng = np.random.default_rng(4)
    for _ in range(100):
        x0 = rng.uniform(0.1, 0.9, size=2)
        p0 = rng.normal(size=2)
        eps = rng.uniform(0.05, 0.6)
        steps = rng.integers(1, 8)
        x, p = x0.copy(), p0.copy()
        refl = 0
        for _ in range(steps):
            x, p, k = leapfrog_reflect(x, p, eps, grad, UNIT_BOX)
            refl += k
        if refl > 3:
            continue
        xb, pb = x, -p
        for _ in range(steps):
            xb, pb, _ = leapfrog_reflect(xb, pb, eps, grad, UNIT_BOX)
        assert np.max(np.abs(xb - x0)) < 1e-10
        assert np.max(np.abs(-pb - p0)) < 1e-10


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 5),
    m=st.integers(1, 8),
    k=st.integers(1, 6),
    eps=st.floats(1e-3, 3.0),
)
def test_reflective_drift_keeps_rows_feasible_and_their_speed(seed, d, m, k, eps):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(k, d)) * rng.uniform(0.1, 10.0)
    p = rng.normal(size=(k, d)) * rng.uniform(0.1, 3.0)
    normals = rng.normal(size=(m, d))
    # every wall at a random gap below the lowest row: all rows feasible
    offsets = (x @ normals.T).min(axis=0) - rng.uniform(0.05, 2.0, size=m)
    walls = HalfSpaces(normals, offsets)
    assert (walls.slack(x) >= 0.0).all()
    n_reflections = np.zeros(k, dtype=np.int64)
    x1, p1 = _reflective_drift(x, p, eps, walls, n_reflections)
    tol = FEASIBILITY_NUDGE * np.maximum(1.0, np.abs(walls.offsets))
    assert (walls.slack(x1) >= -tol).all()
    np.testing.assert_allclose(
        np.linalg.norm(p1, axis=-1), np.linalg.norm(p, axis=-1), rtol=1e-12, atol=0.0
    )
    # a row that reflects nowhere drifts in a straight line
    straight = n_reflections == 0
    np.testing.assert_array_equal(p1[straight], p[straight])


# -- a point's drift against the batch drift and the hit-time loop ------------

WEDGE = HalfSpaces([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0, -1.0, -1.0]], [-0.5, -0.5, -1.5])


@functools.cache
def drift_walls(name):
    """(walls, a strictly feasible centre): the standardized M1 es 0.99
    walls (m = 4, centred on the conditional mean), the unit box or the
    wedge."""
    if name == "box":
        return UNIT_BOX, np.array([0.5, 0.5])
    if name == "wedge":
        return WEDGE, np.zeros(3)
    m = preset("M1")
    pre = m.sample(10_000, np.random.default_rng(0))
    event = estimate_event(CrisisEventSpec("es", (0.99,)), pre, m.nonnegative)
    target = StandardizedTarget(EventTarget(m, event), pre[event.contains_rows(pre)])
    return target.constraints, np.zeros(3)


def drift_start(walls, centre, kind, rng):
    """A start (x, p).  "inside": x between the centre and the first wall
    along a random ray, p standard normal.  "near-wall": x on that wall, p
    along it but for a normal component within 1e-15 of 0, which makes the
    drift graze the wall, reflect off it or end a rounding error past it."""
    reach = np.full(len(walls), np.inf)
    while not np.isfinite(reach.min()):
        z = rng.normal(size=centre.size)
        hz = walls.normals @ z
        with np.errstate(divide="ignore"):
            reach = np.where(hz < 0.0, (walls.offsets - walls.normals @ centre) / hz, np.inf)
    j = int(np.argmin(reach))
    if kind == "inside":
        return centre + rng.uniform(0.0, 0.99) * reach[j] * z, rng.normal(size=centre.size)
    h, q = walls.normals[j], rng.normal(size=centre.size)
    tangent = q - (q @ h) / (h @ h) * h
    return centre + reach[j] * z, tangent + rng.uniform(-1.0, 1.0) * 1e-15 * h


def drift_branch(walls, x, p, eps):
    """Which branch of the drift (x, p) takes: "clear" (straight), "nudge"
    (straight, then back onto a wall), "graze" (the clear-margin test
    fails, nothing is hit) or "reflect"."""
    if (walls.offsets - walls.dots(x) < (eps * CLEAR_MARGIN) * walls.dots(p)).all():
        return "nudge" if (walls.dots(x + eps * p) < walls.offsets).any() else "clear"
    n_reflections = np.zeros((), dtype=np.int64)
    _hit_time_drift(x, p.copy(), eps, walls, n_reflections)
    return "reflect" if n_reflections > 0 else "graze"


# a start that takes each branch: (walls, kind, seed, eps)
DRIFT_BRANCHES = {
    "clear": ("m1-es", "inside", 0, 0.05),
    "graze": ("wedge", "near-wall", 1, 0.05),
    "reflect": ("m1-es", "inside", 3, 3.0),
    "nudge": ("m1-es", "near-wall", 38, 0.001),
}


@pytest.mark.parametrize("branch", sorted(DRIFT_BRANCHES))
def test_drift_branch_starts_take_their_branch(branch):
    name, kind, seed, eps = DRIFT_BRANCHES[branch]
    walls, centre = drift_walls(name)
    x, p = drift_start(walls, centre, kind, np.random.default_rng(seed))
    assert drift_branch(walls, x, p, eps) == branch
    assert type(_point_drift(x, p.copy(), eps, walls)[2]) is np.int64


def drift_outcomes(walls, x, p, eps):
    """The bits of (x, p, reflections) that the point drift, the one-row
    batch drift and the hit-time loop return, or the message of the
    RuntimeError each raises: a point on a wall whose normal momentum is
    too small for the reflection to flip trips the reflection guard."""

    def batch():
        n_reflections = np.zeros(1, dtype=np.int64)
        xb, pb = _reflective_drift(x[None].copy(), p[None].copy(), eps, walls, n_reflections)
        return xb[0], pb[0], n_reflections[0]

    def loop():
        n_reflections = np.zeros((), dtype=np.int64)
        return *_hit_time_drift(x.copy(), p.copy(), eps, walls, n_reflections), n_reflections

    # each drift gets its own momentum, which the hit-time loop writes in place
    outcomes = []
    for drift in (lambda: _point_drift(x.copy(), p.copy(), eps, walls), batch, loop):
        try:
            outcomes.append([np.asarray(a).tobytes() for a in drift()])
        except RuntimeError as err:
            outcomes.append(str(err))
    return outcomes


@settings(max_examples=300, deadline=None)
@given(
    name=st.sampled_from(["m1-es", "box", "wedge"]),
    kind=st.sampled_from(["inside", "near-wall"]),
    seed=st.integers(0, 2**32 - 1),
    eps=st.floats(1e-3, 3.0),
)
@example(*DRIFT_BRANCHES["clear"])
@example(*DRIFT_BRANCHES["graze"])
@example(*DRIFT_BRANCHES["reflect"])
@example(*DRIFT_BRANCHES["nudge"])
def test_point_drift_equals_the_batch_drift_and_the_hit_time_loop(name, kind, seed, eps):
    walls, centre = drift_walls(name)
    x, p = drift_start(walls, centre, kind, np.random.default_rng(seed))
    point, batch, loop = drift_outcomes(walls, x, p, eps)
    assert point == batch == loop


def test_reflect_leapfrog_reversible_on_m1_event(m1_rvar_target):
    target, cond = m1_rvar_target
    grad_u = lambda z: -target.grad_logpdf(z)
    rng = np.random.default_rng(5)
    checked = 0
    for i in range(60):
        x0 = cond[rng.integers(0, cond.shape[0])]
        p0 = rng.normal(size=3)
        eps = rng.uniform(0.01, 0.3)
        steps = int(rng.integers(1, 10))
        x, p = x0.copy(), p0.copy()
        refl = 0
        for _ in range(steps):
            x, p, k = leapfrog_reflect(x, p, eps, grad_u, target.constraints)
            refl += k
        if refl > 3:
            continue
        xb, pb = x, -p
        for _ in range(steps):
            xb, pb, _ = leapfrog_reflect(xb, pb, eps, grad_u, target.constraints)
        assert np.max(np.abs(xb - x0)) < 1e-8
        checked += 1
    assert checked >= 20


def test_runaway_reflection_guard():
    sliver = HalfSpaces([[1.0], [-1.0]], [0.0, -1e-7])
    with pytest.raises(RuntimeError, match="reflections"):
        leapfrog_reflect(
            np.array([5e-8]), np.array([1.0]), 10.0, lambda z: np.zeros(1), sliver
        )


def test_hmc_standard_normal_moments():
    tgt = GaussianTarget(3)
    path, diag = hmc_sample(tgt, HmcParams(0.5, 5), np.zeros(3), 10_000, seed=6)
    assert path.shape == (10_000, 3)
    assert 0.6 < diag.acr <= 1.0
    mean_measure = MarginalRiskMeasure("mean")
    for j in range(3):
        est = batch_means_se(path[:, j], mean_measure)
        assert abs(est.point) < 4.0 * est.se
        assert path[:, j].var() == pytest.approx(1.0, rel=0.1)


def test_hmc_determinism_and_rejection_bookkeeping():
    tgt = GaussianTarget(2)
    p1, d1 = hmc_sample(tgt, HmcParams(1.8, 3), np.zeros(2), 500, seed=7)
    p2, d2 = hmc_sample(tgt, HmcParams(1.8, 3), np.zeros(2), 500, seed=7)
    assert np.array_equal(p1, p2)
    assert np.array_equal(d1.accepted, d2.accepted)
    assert d1.acr < 1.0  # coarse stepsize must reject sometimes
    rejected = np.where(~d1.accepted)[0]
    rejected = rejected[rejected > 0]
    for i in rejected[:20]:
        assert np.array_equal(p1[i], p1[i - 1])  # rejected proposals repeat the state
    finite = np.isfinite(d1.hamiltonian_errors)
    assert finite.all()
    assert d1.reflections_per_proposal.sum() == 0


def test_hmc_feasibility_on_constrained_target(m1_rvar_target):
    target, cond = m1_rvar_target
    x0 = cond.mean(axis=0)
    path, diag = hmc_sample(target, HmcParams(0.05, 8), x0, 400, seed=8)
    assert target.event.contains_rows(path).all()
    assert diag.acr > 0.5


def test_hmc_start_validation(m1_rvar_target):
    target, _ = m1_rvar_target
    with pytest.raises(ValueError, match="feasible"):
        hmc_sample(target, HmcParams(0.1, 5), np.zeros(3), 10, seed=0)
    tgt = GaussianTarget(2)
    with pytest.raises(ValueError, match="dimension"):
        hmc_sample(tgt, HmcParams(0.1, 5), np.zeros(3), 10, seed=0)


@pytest.mark.parametrize("n", [0, -1, 2.0, True])
def test_hmc_chain_length_follows_the_count_rule(n):
    with pytest.raises(ValueError, match="chain length n must be an integer of at least 1"):
        hmc_sample(GaussianTarget(2), HmcParams(0.1, 5), np.zeros(2), n, seed=0)


@pytest.mark.parametrize("t_max", [0, -3, 10.0])
def test_tune_scan_length_follows_the_count_rule(t_max):
    pts = np.random.default_rng(12).normal(size=(20, 3))
    with pytest.raises(ValueError, match="scan length t_max must be an integer of at least 1"):
        tune(GaussianTarget(3), pts, t_max=t_max)


def test_params_validation():
    with pytest.raises(ValueError):
        HmcParams(0.0, 5)
    with pytest.raises(ValueError):
        HmcParams(0.1, 0)
    for eps in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="stepsize"):
            HmcParams(eps, 3)
    for T in (True, False, np.bool_(True), 3.0):
        with pytest.raises(ValueError, match="integration time"):
            HmcParams(0.1, T)
    assert HmcParams(0.1, np.int64(3)).T == 3


def test_params_from_json_reject_non_integral_values():
    def from_json(overrides):
        cfg = {"model": "M1", "event": {"kind": "es", "levels": [0.99]}, "engine": "hmc"}
        return run_config_from_dict({**cfg, "overrides": overrides}).overrides

    assert from_json({"eps": 0.1, "T": 3}) == HmcParams(0.1, 3)
    assert from_json({"eps": 0.1, "T": 3.0}) == HmcParams(0.1, 3)
    eps = from_json({"eps": 1, "T": 3}).eps
    assert eps == 1.0 and type(eps) is float
    for T in (2.7, math.inf, math.nan):
        with pytest.raises(ValueError, match="integration time"):
            from_json({"eps": 0.1, "T": T})
    # the config reader names a field that is no number
    for T, kind in ((True, "bool"), ("3", "str")):
        with pytest.raises(ValueError, match=f"^the config field 'T' must be a number, got {kind}$"):
            from_json({"eps": 0.1, "T": T})
    with pytest.raises(ValueError, match="^the config field 'eps' must be a number, got str$"):
        from_json({"eps": "inf", "T": 3})
    for eps in (math.inf, math.nan, 0.0):
        with pytest.raises(ValueError, match="stepsize"):
            from_json({"eps": eps, "T": 3})


def test_standardizer_whitens_and_roundtrips():
    rng = np.random.default_rng(9)
    a = rng.normal(size=(3, 3))
    pts = rng.normal(size=(4000, 3)) @ a.T + np.array([1.0, -2.0, 0.5])
    std = StandardizedTarget(GaussianTarget(3), pts)
    assert not std.jittered
    cov = np.atleast_2d(np.cov(pts, rowvar=False))
    assert np.allclose(std.chol @ std.chol.T, cov, atol=1e-10)
    y = std.to_y(pts)
    assert np.allclose(np.cov(y, rowvar=False), np.eye(3), atol=0.05)
    assert np.allclose(y.mean(axis=0), 0.0, atol=1e-12)
    # round trip
    x = rng.normal(size=3)
    assert np.allclose(std.to_x(std.to_y(x)), x, atol=1e-10)
    assert np.allclose(std.to_x(y)[:5], pts[:5], atol=1e-8)


def test_standardized_target_chain_rule():
    m = preset("M1")
    pre = m.sample(20_000, np.random.default_rng(10))
    ev = estimate_event(CrisisEventSpec("es", (0.9,)), pre, m.nonnegative)
    cond = pre[ev.contains_rows(pre)]
    base = EventTarget(m, ev)
    std_tgt = StandardizedTarget(base, cond)
    y = std_tgt.to_y(cond[0])
    assert std_tgt.logpdf(y) == pytest.approx(base.logpdf(cond[0]), rel=1e-12)
    g = std_tgt.grad_logpdf(y)
    for j in range(3):
        h = 1e-6
        up, dn = y.copy(), y.copy()
        up[j] += h
        dn[j] -= h
        fd = (std_tgt.logpdf(up) - std_tgt.logpdf(dn)) / (2.0 * h)
        assert g[j] == pytest.approx(fd, rel=5e-5, abs=1e-8)
    # membership carries over
    for row in cond[:50]:
        yy = std_tgt.to_y(row)
        assert (std_tgt.constraints.slack(yy) >= -1e-9).all()


def test_standardize_jitter_and_failure():
    rng = np.random.default_rng(11)
    col = rng.normal(size=2000)
    dup = np.column_stack([col, col, rng.normal(size=2000)])
    tgt = GaussianTarget(3)
    assert StandardizedTarget(tgt, dup).jittered
    with pytest.raises(ValueError, match="rank-deficient"):
        StandardizedTarget(tgt, np.ones((500, 3)))


def test_tune_on_standard_normal():
    tgt = GaussianTarget(3)
    pts = np.random.default_rng(12).normal(size=(80, 3))
    res = tune(tgt, pts, seed=12)
    assert isinstance(res, TuneResult)
    assert res.alpha_bar == pytest.approx((1.0 + 2 * 0.65) / 3.0)
    # stepsize must sit on the halving ladder started at d^(-1/4)
    eps0 = 3.0 ** (-0.25)
    ratio = math.log2(eps0 / res.params.eps)
    assert ratio == pytest.approx(round(ratio), abs=1e-9)
    assert round(ratio) >= 1
    assert 1 <= res.params.T <= 200
    # tuned chain accepts well above the tuning floor
    path, diag = hmc_sample(tgt, res.params, np.zeros(3), 2000, seed=13)
    assert diag.acr >= 0.9


def test_tune_requires_feasible_points():
    tgt = GaussianTarget(3)
    with pytest.raises(ValueError, match="10"):
        tune(tgt, np.random.default_rng(0).normal(size=(5, 3)))


def test_tune_underflow_reports_worst_ratio():
    tgt = BrokenGradientTarget(2)
    pts = np.random.default_rng(14).normal(size=(12, 2))
    with pytest.raises(RuntimeError, match="underflow"):
        tune(tgt, pts, seed=14)


def test_tune_on_m1_event_gives_plausible_scales(m1_rvar_target):
    target, cond = m1_rvar_target
    std_tgt = StandardizedTarget(target, cond)
    y = std_tgt.to_y(cond)[:150]
    res = tune(std_tgt, y, seed=15)
    assert 0.02 <= res.params.eps <= 0.8
    assert 2 <= res.params.T <= 60


# -- batched tune against the one-by-one scan ---------------------------------


def sequential_tune(target, presample_conditional, c_eps=1.0, t_max=1000, seed=0):
    """The reference: the tuning scan one trajectory after another, on point
    calls of the target and the integrator."""
    pts = np.asarray(presample_conditional, dtype=float)
    walls = target.constraints
    feasible = [
        x for x in pts
        if np.isfinite(target.logpdf(x))
        and all(float(h @ x) - v > 0.0 for h, v in zip(walls.normals, walls.offsets))
    ]
    if len(feasible) < 10:
        raise ValueError(f"got {len(feasible)}")
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
        if eps < 1e-12:
            raise RuntimeError(
                f"tuning stepsize underflowed below {1e-12}; worst "
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
                x, p, _ = leapfrog_reflect(x, p, eps, grad_u, walls)
                h_curr = hamiltonian(x, p)
                if np.isfinite(h_curr):
                    a = math.exp(min(0.0, h_prev - h_curr))
                else:
                    a = 0.0
                dist = float(np.linalg.norm(x - x0))
                delta = dist - dist_prev
                if delta_prev is not None and delta < 0.0 and delta_prev > 0.0:
                    t_stop = t - 1
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
        return TuneResult(
            params=HmcParams(eps=eps, T=max(1, math.floor(float(np.mean(stops))))),
            alpha_bar=alpha_bar,
            n_trajectories=len(feasible),
            n_capped=n_capped,
            n_halvings=n_halvings,
        )


def _tuning_problem(name, spec, n, seed):
    """The standardized target and start rows hmc tunes on, as a run builds them."""
    m = preset(name)
    pre = m.sample(n, np.random.default_rng(seed))
    ev = estimate_event(spec, pre, m.nonnegative)
    cond = pre[ev.contains_rows(pre)]
    if spec.kind == "var":
        target = ReducedVarTarget(m, ev.thresholds["v_star"])
        pts = cond[:, :-1]
        pts = pts[(target.constraints.slack(pts) > 0.0).all(axis=-1)]
    else:
        target, pts = EventTarget(m, ev), cond
    std_target = StandardizedTarget(target, pts)
    return std_target, std_target.to_y(pts)


TUNE_CASES = [
    ("M1", CrisisEventSpec("es", (0.9,)), 1000, 0, 1000),
    ("M1", CrisisEventSpec("es", (0.9,)), 1000, 1, 1000),
    ("M1", CrisisEventSpec("es", (0.9,)), 1000, 2, 5),
    ("M2", CrisisEventSpec("es", (0.9,)), 1000, 0, 1000),
    ("M2", CrisisEventSpec("es", (0.9,)), 1000, 1, 1000),
    ("M3", CrisisEventSpec("es", (0.9,)), 500, 0, 1000),
    ("M3", CrisisEventSpec("es", (0.9,)), 500, 5, 1000),
    ("M1", CrisisEventSpec("rvar", (0.9, 0.99)), 1000, 0, 1000),
    ("M1", CrisisEventSpec("rvar", (0.9, 0.99)), 1000, 1, 1000),
    ("M1", CrisisEventSpec("var", (0.9,), 0.02), 2000, 0, 1000),
    ("M1", CrisisEventSpec("var", (0.9,), 0.02), 2000, 1, 1000),
]


@functools.cache
def _tuned_case(i):
    name, spec, n, seed, t_max = TUNE_CASES[i]
    target, y = _tuning_problem(name, spec, n, seed)
    return target, y, tune(target, y, t_max=t_max, seed=seed)


@pytest.mark.parametrize(
    "i", range(len(TUNE_CASES)),
    ids=[f"{c[0]}-{c[1].kind}-seed{c[3]}-tmax{c[4]}" for c in TUNE_CASES],
)
def test_batched_tune_equals_the_one_by_one_scan(i):
    target, y, res = _tuned_case(i)
    _, _, _, seed, t_max = TUNE_CASES[i]
    assert res == sequential_tune(target, y, t_max=t_max, seed=seed)
    assert 0 < res.n_steps <= res.n_trajectory_steps


def test_tune_cases_rewind_the_stream_and_cap_trajectories():
    # the cases above include failed stepsizes (so the stream is rewound
    # and redrawn before the next one) and capped trajectories
    results = [_tuned_case(i)[2] for i in range(len(TUNE_CASES))]
    assert max(r.n_halvings for r in results) >= 2
    assert max(r.n_capped for r in results) > 0


class RoughTarget(GaussianTarget):
    """A standard normal with a log-density ripple far finer than any step,
    so every stepsize fails at a ratio that varies from scan to scan."""

    def logpdf(self, x):
        x = np.asarray(x, dtype=float)
        return -0.5 * np.vecdot(x, x) + 3.0 * np.sin(1e15 * x[..., 0])


@pytest.mark.parametrize("target", [BrokenGradientTarget(2), RoughTarget(2)],
                         ids=["broken-gradient", "rough"])
def test_tune_underflow_reports_the_reference_worst_ratio(target):
    pts = np.random.default_rng(14).normal(size=(12, 2))
    with pytest.raises(RuntimeError, match="underflow") as want:
        sequential_tune(target, pts, seed=14)
    with pytest.raises(RuntimeError, match="underflow") as got:
        tune(target, pts, seed=14)
    assert str(got.value) == str(want.value)

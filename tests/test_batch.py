"""A (K, d) batch through the model, the targets and the integrator gives,
row for row, what K point calls give.

Rows may differ from a point call in the last bits: np.log/np.log1p on
arrays take numpy's SIMD path where a point keeps libm's, and the batch
to_x is one matrix product.  Hence rtol=1e-12 there, and exact equality
where neither enters.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskalloc.events import (
    CrisisEventSpec,
    EventTarget,
    HalfSpaces,
    ReducedVarTarget,
    estimate_event,
)
from riskalloc.copulas import Clayton, GaussianCopula, Independence
from riskalloc.hmc import StandardizedTarget, leapfrog_reflect
from riskalloc.marginals import GPD, Normal, Pareto
from riskalloc.models import JointLossModel, equicorrelation, preset

RTOL = 1e-12
MODELS = {name: preset(name) for name in ("M1", "M2", "M3")}
# every copula's batch path: Gaussian, Clayton and independence as well
MODELS.update(
    gaussian=JointLossModel([Normal(1.0, 2.0), Normal(), Normal(-1.0, 0.5)],
                            GaussianCopula(equicorrelation(3, 0.4))),
    clayton=JointLossModel([GPD(0.3, 1.0), Pareto(2.0, 3.0)], Clayton(1.5, 2)),
    independence=JointLossModel([GPD(0.2, 1.0), GPD(0.2, 1.0)], Independence(2)),
)


def _targets():
    m = MODELS["M1"]
    pre = m.sample(20_000, np.random.default_rng(0))
    ev = estimate_event(CrisisEventSpec("es", (0.9,)), pre, m.support_class)
    cond = pre[ev.contains_rows(pre)]
    event_target = EventTarget(m, ev)
    return {
        "event": event_target,
        "reduced-var": ReducedVarTarget(m, 10.0),
        "standardized": StandardizedTarget(event_target, cond),
    }


TARGETS = _targets()


def rows(d, max_rows=8):
    """Batches of 1..max_rows rows: points in the bulk, in the far tail,
    near zero and, now and then, below zero (off a pure-loss support)."""
    coord = st.one_of(
        st.floats(0.0, 20.0),
        st.floats(20.0, 1e6),
        st.floats(0.0, 1e-9),
        st.floats(-5.0, 0.0),
    )
    return st.lists(st.lists(coord, min_size=d, max_size=d), min_size=1, max_size=max_rows).map(
        lambda r: np.array(r, dtype=float)
    )


def _check_logpdf(f, x):
    batch = f(x)
    assert batch.shape == (x.shape[0],)
    points = np.array([f(row) for row in x])
    np.testing.assert_allclose(batch, points, rtol=RTOL, atol=0.0)
    # a one-row batch matches its point call
    np.testing.assert_allclose(f(x[:1]), [f(x[0])], rtol=RTOL, atol=0.0)
    return batch


def _check_grad(f, x):
    batch = f(x)
    assert batch.shape == x.shape
    points = np.array([f(row) for row in x])
    np.testing.assert_allclose(batch, points, rtol=RTOL, atol=0.0)
    np.testing.assert_allclose(f(x[:1]), points[:1], rtol=RTOL, atol=0.0)


@pytest.mark.parametrize("name", sorted(MODELS))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_model_batch_equals_point_calls(name, data):
    m = MODELS[name]
    x = data.draw(rows(m.d))
    lp = _check_logpdf(m.logpdf, x)
    on = np.array([bool(m.in_support(row)) for row in x])
    assert np.array_equal(m.in_support(x), on)
    assert np.all(lp[~on] == -np.inf)
    if on.any():
        _check_grad(m.grad_logpdf, x[on])
    if not on.all():
        with pytest.raises(ValueError, match="outside the support"):
            m.grad_logpdf(x)


@pytest.mark.parametrize("name", sorted(TARGETS))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_target_batch_equals_point_calls(name, data):
    target = TARGETS[name]
    x = data.draw(rows(target.dim))
    if name == "standardized":
        x = x / 10.0 - 1.0  # standardized coordinates live on the unit scale
    lp = _check_logpdf(target.logpdf, x)
    finite = np.isfinite(lp)
    if finite.any():
        _check_grad(target.grad_logpdf, x[finite])


def test_event_target_gives_minus_inf_off_the_event():
    target = TARGETS["event"]
    v = target.event.v1
    x = np.array([[v, 1.0, 1.0], [0.1, 0.1, 0.1], [-1.0, v, v], [v / 3.0, v / 3.0, v / 3.0]])
    lp = target.logpdf(x)
    assert np.isfinite(lp[0]) and np.isfinite(lp[3])
    assert lp[1] == -np.inf and lp[2] == -np.inf
    assert np.array_equal(target.feasible(x), [True, False, False, True])


BOX = HalfSpaces([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]], [0.0, -1.0, 0.0, -1.0])
WEDGE_ROWS = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0, -1.0, -1.0]]
WEDGE = HalfSpaces(WEDGE_ROWS, [-0.5, -0.5, -1.5])
NO_WALLS = HalfSpaces(np.empty((0, 3)), [])


def _check_leapfrog(x, p, eps, grad_u, constraints, rtol):
    xb, pb, nb = leapfrog_reflect(x, p, eps, grad_u, constraints)
    assert nb.shape == (x.shape[0],)
    for k in range(x.shape[0]):
        xk, pk, nk = leapfrog_reflect(x[k], p[k], eps, grad_u, constraints)
        assert nb[k] == nk
        if rtol == 0.0:
            assert np.array_equal(xb[k], xk)
            assert np.array_equal(pb[k], pk)
        else:
            np.testing.assert_allclose(xb[k], xk, rtol=rtol, atol=0.0)
            np.testing.assert_allclose(pb[k], pk, rtol=rtol, atol=0.0)
    return nb


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 12), eps=st.floats(0.01, 3.0))
def test_leapfrog_batch_equals_rows_in_a_box(seed, k, eps):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.05, 0.95, size=(k, 2))
    p = rng.normal(size=(k, 2)) * 3.0
    _check_leapfrog(x, p, eps, lambda z: np.zeros(np.shape(z)), BOX, rtol=0.0)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 12), eps=st.floats(0.01, 2.0))
def test_leapfrog_batch_equals_rows_on_a_gaussian(seed, k, eps):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-0.4, 0.4, size=(k, 3))
    p = rng.normal(size=(k, 3)) * 2.0
    _check_leapfrog(x, p, eps, lambda z: np.asarray(z), WEDGE, rtol=0.0)
    # and with no constraint at all
    _check_leapfrog(x, p, eps, lambda z: np.asarray(z), NO_WALLS, rtol=0.0)


def test_leapfrog_batch_equals_rows_on_m1_rvar():
    m = MODELS["M1"]
    pre = m.sample(50_000, np.random.default_rng(0))
    ev = estimate_event(CrisisEventSpec("rvar", (0.95, 0.99)), pre, m.support_class)
    target = EventTarget(m, ev)
    cond = pre[ev.contains_rows(pre)]
    rng = np.random.default_rng(5)
    reflected = 0
    for eps in (0.05, 0.3, 1.0):
        x = cond[rng.choice(cond.shape[0], size=40, replace=False)]
        p = rng.normal(size=x.shape)
        n = _check_leapfrog(x, p, eps, lambda z: -target.grad_logpdf(z), target.constraints,
                            rtol=RTOL)
        reflected += int(n.sum())
    assert reflected > 0


def test_half_spaces_stack_once_and_dot_like_the_points():
    walls = WEDGE
    assert walls.normals.shape == (3, 3) and len(walls) == 3
    assert walls.normals.tolist() == WEDGE_ROWS
    assert walls.offsets.tolist() == [-0.5, -0.5, -1.5]
    x = np.random.default_rng(6).normal(size=(50, 3))
    want = np.array(
        [[float(h @ row) - v for h, v in zip(walls.normals, walls.offsets)] for row in x]
    )
    assert np.array_equal(walls.slack(x), want)
    assert np.array_equal(walls.slack(x[0]), want[0])
    assert NO_WALLS.slack(x).shape == (50, 0)

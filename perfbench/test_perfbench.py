"""Tests of the benchmark's own estimators and tracer.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import inspect
import sys
import time

import numpy as np
import pytest

from ess import batch_means_ess, disagree, geyer_ess
from tracer import Tracer
from workloads import import_riskalloc

ra = import_riskalloc()
from bench import LAYERS, SELF_TIME_SLACK  # noqa: E402  (needs riskalloc on the path)


def ar1(phi: float, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    e = rng.standard_normal(n)
    x = np.empty(n)
    x[0] = e[0] / np.sqrt(1.0 - phi * phi)
    for t in range(1, n):
        x[t] = phi * x[t - 1] + e[t]
    return x


@pytest.mark.parametrize("phi", [0.0, 0.5, 0.9, -0.3])
def test_geyer_ess_matches_ar1(phi):
    n = 200_000
    want = n * (1.0 - phi) / (1.0 + phi)
    assert geyer_ess(ar1(phi, n, 1)) == pytest.approx(want, rel=0.08)


def test_batch_means_ess_agrees_with_geyer_on_ar1():
    x = ar1(0.7, 40_000, 2)
    se = ra.batch_means_se(x, ra.MarginalRiskMeasure("mean")).se
    assert not disagree(geyer_ess(x), batch_means_ess(x, se))


def test_geyer_ess_rejects_constant_chain():
    with pytest.raises(ValueError):
        geyer_ess(np.ones(100))


def _bindings():
    """Every function and method binding in the package's modules and classes."""
    out = {}
    for name, mod in sorted(sys.modules.items()):
        if name == "riskalloc" or name.startswith("riskalloc."):
            for attr, obj in vars(mod).items():
                out[(name, attr)] = obj
                if inspect.isclass(obj):
                    for meth, fn in vars(obj).items():
                        out[(name, attr, meth)] = fn
    return out


def _traced_run(config):
    tracer = Tracer("riskalloc", LAYERS)
    tracer.install()
    try:
        t0 = time.perf_counter()
        report = ra.harness.run(config)
        wall = time.perf_counter() - t0
    finally:
        tracer.restore()
    return tracer, report, wall


def _config(engine, **kw):
    return ra.RunConfig("M1", ra.CrisisEventSpec("es", (0.9,)), engine, n_mc=2000, n_mcmc=100, seed=3, **kw)


def test_tracer_patches_where_callers_look_and_restores_originals():
    before = _bindings()
    tracer = Tracer("riskalloc", LAYERS)
    tracer.install()
    try:
        for owner, attr in [
            (ra.harness, "tune"), (ra.harness, "mc_presample"), (ra.harness, "run"),
            (ra.hmc, "hit_time"), (ra.hmc, "reflect"), (ra, "run"),
            (ra.models.JointLossModel, "grad_logpdf"), (ra.copulas.StudentTCopula, "hfun_inv"),
        ]:
            assert vars(owner)[attr] is not before[_key(owner, attr)]
    finally:
        tracer.restore()
    assert tracer.restored()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def _key(owner, attr):
    if inspect.ismodule(owner):
        return (owner.__name__, attr)
    return (owner.__module__, owner.__name__, attr)


@pytest.mark.parametrize("engine", ["hmc", "gibbs", "mc"])
def test_layer_self_times_sum_to_traced_run_s(engine):
    tracer, _, wall = _traced_run(_config(engine))
    spans = tracer.spans()
    assert (spans.parent == -1).sum() == 1
    assert spans.names[spans.name_id[0]] == "harness.run"
    total = float(spans.self_time().sum())
    assert total == pytest.approx(float(spans.duration[0]), rel=1e-9)
    assert abs(total - wall) <= SELF_TIME_SLACK * wall


def test_grad_calls_are_tune_plus_two_per_chain_step():
    tracer, report, _ = _traced_run(_config("hmc"))
    spans = tracer.spans()
    grad = spans.select(lambda s: s == "models.JointLossModel.grad_logpdf")
    tune = spans.select(lambda s: s == "hmc.tune")
    leap = spans.select(lambda s: s == "hmc.leapfrog_reflect")
    T = report.engine_details["T"]
    assert grad.size == spans.within(grad, tune).size + 2 * T * 100
    assert spans.within(grad, leap).size == 2 * leap.size

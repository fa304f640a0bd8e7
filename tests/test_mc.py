import math

import numpy as np
import pytest
from scipy import special

from riskalloc.copulas import Independence
from riskalloc.events import CrisisEventSpec
from riskalloc.harness import RunConfig, prepare, run
from riskalloc.marginals import GPD, Normal
from riskalloc.mc import ConditionalCountError, mc_presample
from riskalloc.measures import MarginalRiskMeasure
from riskalloc.models import JointLossModel, preset

MEAN2 = (MarginalRiskMeasure("mean"),) * 2


def test_presample_determinism():
    m = preset("M2")
    a = mc_presample(m, 5000, 7)
    b = mc_presample(m, 5000, 7)
    assert np.array_equal(a, b)
    assert a.shape == (5000, 3)
    # t margins have mean zero; LLN bound
    sd = a.std(axis=0)
    assert np.all(np.abs(a.mean(axis=0)) < 3.0 * sd / math.sqrt(a.shape[0]))


def test_presample_size_floor():
    with pytest.raises(ValueError):
        mc_presample(preset("M1"), 99, 0)


def mc(model, spec, n, seed, measures=None):
    return RunConfig(model, spec, "mc", measures=measures, n_mc=n, seed=seed)


def test_m1_es_estimates_near_table_values():
    rep = run(mc("M1", CrisisEventSpec("es", (0.99,)), 100_000, 11))
    assert np.all(np.abs(rep.estimates - np.array([15.7, 15.8, 15.7])) < 1.5)
    for se in rep.ses:
        assert 0.05 < se < 1.5
    assert rep.runtime_seconds > 0.0


def test_conditional_count_binomial_bound():
    prep = prepare(mc("M1", CrisisEventSpec("es", (0.99,)), 100_000, 3))
    k = len(prep.cond)
    n, p = 100_000, 0.01
    assert abs(k - n * p) <= 4.0 * math.sqrt(n * p * (1.0 - p))
    assert prep.cond.shape == (k, 3)
    assert np.all(prep.event.contains_rows(prep.cond))


def test_var_band_rows_inside_band():
    prep = prepare(mc("M1", CrisisEventSpec("var", (0.99,), delta=0.001), 100_000, 5))
    sums = prep.cond.sum(axis=1)
    assert np.all(sums >= prep.event.thresholds["v_lo"])
    assert np.all(sums <= prep.event.thresholds["v_hi"])
    # band mass is 2*delta
    assert abs(len(prep.cond) - 200) <= 4.0 * math.sqrt(100_000 * 0.002 * 0.998)


def test_var_without_band_rejected():
    with pytest.raises(ValueError, match="delta"):
        run(mc("M1", CrisisEventSpec("var", (0.99,)), 100_000, 0))


def test_sparse_event_raises_count_error():
    # plain MC would widen the event; a sampler run reports the shortfall
    cfg = RunConfig("M1", CrisisEventSpec("es", (0.999,)), "gibbs", n_mc=50_000, seed=1)
    with pytest.raises(ConditionalCountError) as exc:
        prepare(cfg)
    assert exc.value.k < 100
    assert "widen" in str(exc.value)


def test_measure_count_mismatch():
    with pytest.raises(ValueError):
        run(mc("M1", CrisisEventSpec("es", (0.9,)), 10_000, 0, measures=MEAN2))


def test_conditional_mean_against_quadrature_oracle():
    # independent standard normal pair, ES event: closed-form conditional mean
    m = JointLossModel([Normal(), Normal()], Independence(2))
    rep = run(mc(m, CrisisEventSpec("es", (0.9,)), 200_000, 13))
    v = rep.event.thresholds["v"]
    z = v / math.sqrt(2.0)
    phi = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    tail = special.ndtr(-z)
    oracle = (math.sqrt(2.0) / 2.0) * phi / tail  # E[X1 | X1+X2 >= v]
    for a in rep.allocations:
        assert abs(a.estimate - oracle) < 4.0 * a.se


def test_allocate_determinism():
    cfg = mc("M1", CrisisEventSpec("rvar", (0.95, 0.99)), 20_000, 21)
    assert np.array_equal(prepare(cfg).cond, prepare(cfg).cond)
    r1, r2 = run(cfg), run(cfg)
    assert r1.estimates.tolist() == r2.estimates.tolist()
    assert r1.ses.tolist() == r2.ses.tolist()


def test_permutation_equivariance():
    margins = [GPD(0.2, 1.0), GPD(0.4, 2.0)]
    m1 = JointLossModel(margins, Independence(2))
    m2 = JointLossModel(margins[::-1], Independence(2))
    spec = CrisisEventSpec("es", (0.9,))
    r1 = run(mc(m1, spec, 50_000, 2))
    r2 = run(mc(m2, spec, 50_000, 2))
    # streams differ per coordinate, so compare statistically
    for j in range(2):
        e1, e2 = r1.allocations[j], r2.allocations[1 - j]
        assert abs(e1.estimate - e2.estimate) <= 3.0 * (e1.se + e2.se)

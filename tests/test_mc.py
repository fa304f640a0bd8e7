import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import special

from riskalloc import harness
from riskalloc.copulas import Independence
from riskalloc.events import (
    EQUALITY_RTOL,
    CrisisEventSpec,
    _as_presample,
    _left_to_right_sum,
    band_levels,
    estimate_event,
)
from riskalloc.harness import RunConfig, oracle_for, prepare, run
from riskalloc.marginals import GPD, Normal
from riskalloc.mc import PRESAMPLE_CHUNK, ConditionalCountError, mc_presample
from riskalloc.measures import MarginalRiskMeasure
from riskalloc.models import JointLossModel, preset

MEAN2 = (MarginalRiskMeasure("mean"),) * 2
# three chunks, the last one short
MULTI_CHUNK = 2 * PRESAMPLE_CHUNK + 17


def test_presample_determinism():
    m = preset("M2")
    for n in (5000, MULTI_CHUNK):
        a = mc_presample(m, n, 7)
        b = mc_presample(m, n, 7)
        assert a.n == n and np.array_equal(a.rows, b.rows) and np.array_equal(a.sums, b.sums)
        assert a.rows.shape == (n, 3)
        # t margins have mean zero; LLN bound
        sd = a.rows.std(axis=0)
        assert np.all(np.abs(a.rows.mean(axis=0)) < 3.0 * sd / math.sqrt(n))


def chunked_matrix(model, n, seed):
    """Every presample row: the chunks mc_presample draws, concatenated."""
    rng = np.random.default_rng(seed)
    sizes = [min(PRESAMPLE_CHUNK, n - s) for s in range(0, n, PRESAMPLE_CHUNK)]
    return np.concatenate([model.sample(c, rng) for c in sizes])


EVENT_KINDS = [
    CrisisEventSpec("es", (0.99,)),
    CrisisEventSpec("rvar", (0.975, 0.99)),
    CrisisEventSpec("var", (0.99,), delta=0.001),
    CrisisEventSpec("var", (0.99,)),
]


@pytest.mark.parametrize("n", [5000, PRESAMPLE_CHUNK, MULTI_CHUNK])
@pytest.mark.parametrize("name", ["M1", "M2"])
def test_cut_presample_builds_the_events_of_every_row(name, n):
    m = preset(name)
    full = chunked_matrix(m, n, 4)
    full_sums = _left_to_right_sum(full.T)
    if n <= PRESAMPLE_CHUNK:
        # one chunk is one model.sample call
        assert np.array_equal(full, m.sample(n, np.random.default_rng(4)))
    for spec in EVENT_KINDS:
        rank = math.ceil(n * band_levels(spec)[0])
        pre = mc_presample(m, n, 4, rank)
        assert np.array_equal(pre.sums, _left_to_right_sum(pre.rows.T))
        ev = estimate_event(spec, pre, m.nonnegative)
        ref = estimate_event(spec, full, m.nonnegative)
        assert ev.thresholds == ref.thresholds
        assert (ev.v1, ev.v2) == (ref.v1, ref.v2)
        # the same rows in the same draw order
        cond = pre.rows[ev.contains_rows(pre.rows)]
        assert np.array_equal(cond, full[ref.contains_rows(full)])
        assert len(cond) >= 1
        # the kept rows: ranks rank..n, plus the ties within the tolerance
        cut = np.sort(full_sums)[rank - 1]
        kept = full_sums - cut >= -EQUALITY_RTOL * max(1.0, abs(cut))
        assert np.array_equal(pre.rows, full[kept])
        assert n - rank + 1 <= len(pre.rows) == kept.sum()


def test_cut_keeps_the_rows_within_the_tolerance_below_an_exact_var():
    # rows (s, 0) with sums 1..1000; v* at level 0.99 is 990, and the row
    # drawn first sits within the event's tolerance below it
    sums = np.arange(1.0, 1001.0)
    sums[988] = 990.0 * (1.0 - 0.5 * EQUALITY_RTOL)
    sums = np.roll(sums, -988)
    model = SimpleNamespace(sample=lambda n, rng: np.column_stack([sums[:n], np.zeros(n)]))
    spec = CrisisEventSpec("var", (0.99,))
    pre = mc_presample(model, 1000, 0, rank=990)
    assert len(pre.rows) == 12
    ev = estimate_event(spec, pre, True)
    assert ev.sum_equality == 990.0
    cond = pre.rows[ev.contains_rows(pre.rows)]
    assert cond[:, 0].tolist() == [sums[0], 990.0]


def test_cut_presample_cannot_read_below_its_rank():
    pre = mc_presample(preset("M2"), 5000, 1, rank=4950)
    assert len(pre.rows) == 51
    assert pre.order_statistic(0.99) == pre.sums.min()
    with pytest.raises(ValueError, match="kept the largest 51 of 5000"):
        estimate_event(CrisisEventSpec("es", (0.98,)), pre, False)
    with pytest.raises(ValueError, match="rank"):
        mc_presample(preset("M2"), 5000, 1, rank=5001)


def test_widened_mc_run_on_a_cut_presample_equals_every_row(monkeypatch):
    # the widening walks 0.999 -> 0.989, whose band first holds 1000 ranks
    cfg = RunConfig(
        "M1", CrisisEventSpec("es", (0.999,)), "mc", n_mc=MULTI_CHUNK, seed=2, min_conditional=1000
    )
    assert harness._lowest_rank(cfg) == math.ceil(MULTI_CHUNK * (0.999 - 0.01))
    prep = prepare(cfg)
    assert len(prep.widening_log) == 1
    assert prep.work["presample_kept_rows"] == MULTI_CHUNK - harness._lowest_rank(cfg) + 1

    def every_row(model, n, seed, rank=1):
        return _as_presample(chunked_matrix(model, n, seed))

    monkeypatch.setattr(harness, "mc_presample", every_row)
    ref = prepare(cfg)
    assert ref.work["presample_kept_rows"] == MULTI_CHUNK
    assert prep.widening_log == ref.widening_log
    assert prep.event.to_json_dict() == ref.event.to_json_dict()
    assert np.array_equal(prep.cond, ref.cond)


def test_ties_at_the_es_threshold_stop_the_widening(monkeypatch):
    # sums 1..1000 with the ten below 990 raised to it: es 0.99 has 11 ranks,
    # fewer than min_conditional, but 20 rows, so mc keeps the band; the
    # presample still keeps the rows of the band the walk could widen to
    sums = np.arange(1.0, 1001.0)
    sums[980:990] = 990.0
    rows = np.column_stack([sums, np.zeros((1000, 2))])
    ranks = []

    def tied(model, n, seed, rank=1):
        ranks.append(rank)
        return _as_presample(rows)

    monkeypatch.setattr(harness, "mc_presample", tied)
    cfg = RunConfig("M1", CrisisEventSpec("es", (0.99,)), "mc", n_mc=1000, min_conditional=20)
    prep = prepare(cfg)
    assert ranks == [math.ceil(1000 * (0.99 - 0.01))]
    assert not prep.widening_log
    assert prep.event.spec == cfg.event and prep.event.v1 == 990.0
    assert len(prep.cond) == 20


def test_far_tail_mc_run_needs_no_widening():
    # M2 es 0.9999 on 2e6 draws (16 chunks): about 200 conditional rows
    spec = CrisisEventSpec("es", (0.9999,))
    rep = run(RunConfig("M2", spec, "mc", n_mc=2_000_000, seed=0))
    assert not rep.widening_log
    assert rep.event_spec == rep.requested_event == spec
    assert rep.work["presample_kept_rows"] == rep.engine_details["k_conditional"] == 201
    z = (rep.estimates - oracle_for("M2", spec)) / rep.ses
    assert np.all(np.abs(z) <= 3.0)


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

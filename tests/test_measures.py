import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskalloc.events import CrisisEventSpec
from riskalloc.measures import (
    EstimateWithSE,
    MarginalRiskMeasure,
    acf,
    batch_means_se,
    empirical_measure,
    empirical_quantile,
)

LADDER = np.arange(1.0, 101.0)

MEAN = MarginalRiskMeasure("mean")


def test_quantile_ladder():
    assert empirical_quantile(LADDER, 0.95) == 95.0
    assert empirical_quantile(LADDER, 1.0) == 100.0
    assert empirical_quantile(LADDER, 0.001) == 1.0
    assert empirical_quantile(np.full(7, 3.5), 0.9) == 3.5


# finite values, drawn from a pool of three often enough to tie
VALUES = st.lists(
    st.one_of(st.sampled_from([-1.5, 0.0, 2.0]), st.floats(-1e6, 1e6)), min_size=1, max_size=60
)


@settings(max_examples=300, deadline=None)
@given(x=VALUES, data=st.data())
def test_quantile_equals_the_sorted_order_statistic(x, data):
    # k = 1, k = n and any k between, each through a level that selects it
    n = len(x)
    k = data.draw(st.one_of(st.just(1), st.just(n), st.integers(1, n)))
    alpha = 1.0 if k == n and data.draw(st.booleans()) else (k - 0.5) / n
    assert math.ceil(n * alpha) == k
    assert empirical_quantile(x, alpha) == np.sort(np.array(x))[k - 1]


def test_quantile_errors():
    with pytest.raises(ValueError):
        empirical_quantile([], 0.5)
    with pytest.raises(ValueError):
        empirical_quantile(LADDER, 0.0)
    with pytest.raises(ValueError):
        empirical_quantile(LADDER, 1.2)


def test_rvar_ladder_oracle():
    # order statistics 91..95 under the ceil convention
    m = MarginalRiskMeasure("rvar", (0.9, 0.95))
    assert empirical_measure(LADDER, m) == 93.0


def test_es_ladder_oracle():
    m = MarginalRiskMeasure("es", (0.95,))
    assert empirical_measure(LADDER, m) == 98.0


def test_constant_sample_all_kinds():
    c = np.full(500, 2.25)
    for m in (
        MEAN,
        MarginalRiskMeasure("var", (0.9,)),
        MarginalRiskMeasure("rvar", (0.5, 0.9)),
        MarginalRiskMeasure("es", (0.8,)),
    ):
        assert empirical_measure(c, m) == 2.25


def test_empty_order_statistic_range_names_levels_and_n():
    m = MarginalRiskMeasure("rvar", (0.5, 0.55))
    with pytest.raises(ValueError, match=r"0\.5.*0\.55.*n=5"):
        empirical_measure(np.arange(5.0), m)


def test_measure_validation():
    with pytest.raises(ValueError, match=r"^unknown measure kind 'median'; choose from \("):
        MarginalRiskMeasure("median")
    with pytest.raises(ValueError, match=r"^var measure takes one level in \(0, 1\), got \(1\.5,\)$"):
        MarginalRiskMeasure("var", (1.5,))
    with pytest.raises(ValueError):
        MarginalRiskMeasure("var", (1.0,))
    with pytest.raises(ValueError):
        MarginalRiskMeasure("rvar", (0.9, 0.8))
    with pytest.raises(ValueError):
        MarginalRiskMeasure("es", ())
    with pytest.raises(ValueError):
        MarginalRiskMeasure("mean", (0.5,))
    assert MarginalRiskMeasure("rvar", (0.9, 1.0)).levels == (0.9, 1.0)


def _accepts(cls, kind, levels) -> bool:
    try:
        cls(kind, levels)
    except ValueError:
        return False
    return True


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(["var", "rvar", "es"]),
    levels=st.lists(
        st.one_of(st.sampled_from([0.0, 0.5, 0.99, 1.0]), st.floats(-0.5, 1.5)), max_size=3
    ),
)
def test_events_and_measures_take_the_same_levels(kind, levels):
    """A crisis event and a marginal measure of one kind accept the same levels."""
    levels = tuple(levels)
    assert _accepts(CrisisEventSpec, kind, levels) == _accepts(MarginalRiskMeasure, kind, levels)


def test_es_equals_rvar_to_one():
    x = np.random.default_rng(0).exponential(size=1000)
    es = empirical_measure(x, MarginalRiskMeasure("es", (0.9,)))
    rv = empirical_measure(x, MarginalRiskMeasure("rvar", (0.9, 1.0)))
    assert es == rv


def test_monotonicity_es_rvar_var():
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.standard_t(df=4, size=777)
        b = rng.uniform(0.5, 0.9)
        b2 = rng.uniform(b + 0.01, 1.0)
        var = empirical_measure(x, MarginalRiskMeasure("var", (b,)))
        rvar = empirical_measure(x, MarginalRiskMeasure("rvar", (b, b2)))
        es = empirical_measure(x, MarginalRiskMeasure("es", (b,)))
        assert es >= rvar >= var


def test_translation_and_scaling_equivariance():
    rng = np.random.default_rng(2)
    x = rng.gamma(2.0, size=400)
    kinds = [
        MEAN,
        MarginalRiskMeasure("var", (0.7,)),
        MarginalRiskMeasure("rvar", (0.6, 0.8)),
        MarginalRiskMeasure("es", (0.75,)),
    ]
    for m in kinds:
        base = empirical_measure(x, m)
        assert empirical_measure(x + 3.5, m) == pytest.approx(base + 3.5, rel=1e-12)
        assert empirical_measure(2.0 * x, m) == pytest.approx(2.0 * base, rel=1e-12)


def test_batch_means_constant_path():
    res = batch_means_se(np.full(400, 7.0), MEAN)
    assert res.se == 0.0
    assert res.point == 7.0
    assert not res.few_batches


def test_batch_layout_n_1e4():
    res = batch_means_se(np.random.default_rng(3).normal(size=10_000), MEAN)
    assert res.n_effective_batches == 100


def test_batch_means_iid_normal_se():
    # i.i.d. CLT: se of the mean over N=1e4 points is 0.01
    ses = []
    for seed in range(5):
        path = np.random.default_rng(seed).normal(size=10_000)
        ses.append(batch_means_se(path, MEAN).se)
    assert np.mean(ses) == pytest.approx(0.01, rel=0.3)


def test_batch_point_matches_full_path_measure():
    x = np.random.default_rng(4).exponential(size=2345)
    m = MarginalRiskMeasure("es", (0.8,))
    assert batch_means_se(x, m).point == empirical_measure(x, m)


def test_batch_short_tail_dropped_and_flagged():
    # N=101: L=11, last batch holds 2 points -> dropped -> 9 batches
    res = batch_means_se(np.random.default_rng(5).normal(size=101), MEAN)
    assert res.n_effective_batches == 9
    assert res.few_batches


def test_batch_means_needs_100_points():
    with pytest.raises(ValueError):
        batch_means_se(np.ones(99), MEAN)


def test_acf_basics():
    x = np.random.default_rng(6).normal(size=10_000)
    r = acf(x, 50)
    assert r[0] == 1.0
    band = 3.0 / np.sqrt(x.size)
    assert np.mean(np.abs(r[1:]) < band) > 0.95


def test_acf_constant_path_flags_nan():
    r = acf(np.full(50, 1.0), 10)
    assert np.all(np.isnan(r))


def test_acf_ar1_positive():
    rng = np.random.default_rng(7)
    x = np.empty(20_000)
    x[0] = 0.0
    for t in range(1, x.size):
        x[t] = 0.8 * x[t - 1] + rng.normal()
    r = acf(x, 3)
    assert r[1] == pytest.approx(0.8, abs=0.05)
    assert r[2] == pytest.approx(0.64, abs=0.05)


def test_acf_lag_bounds():
    with pytest.raises(ValueError):
        acf(np.ones(5), 5)


def test_estimate_se_nonnegative():
    with pytest.raises(ValueError):
        EstimateWithSE(point=1.0, se=-0.1, n_effective_batches=10)

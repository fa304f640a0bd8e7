import functools
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from riskalloc import gibbs
from riskalloc.copulas import U_EPS, Clayton, GaussianCopula, Independence, StudentTCopula, clip01
from riskalloc.events import ConcreteCrisisEvent, CrisisEventSpec, _left_to_right_sum, estimate_event
from riskalloc.gibbs import (
    DEGENERATE_MASS,
    DegenerateSliceError,
    GibbsParams,
    rsgs_sample,
    select_probs,
    thin_interval,
)
from riskalloc.harness import RunConfig, run
from riskalloc.marginals import GPD, Marginal, Normal, Pareto, StudentT
from riskalloc.models import JointLossModel, equicorrelation, preset


class Uniform01(Marginal):
    """Test helper: uniform marginal on [0, 1]."""

    support = "nonnegative-half-line"

    def logpdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where((x >= 0.0) & (x <= 1.0), 0.0, -np.inf)

    def _dlogpdf(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))

    def cdf(self, x):
        return np.clip(np.asarray(x, dtype=float), 0.0, 1.0)

    def quantile(self, u):
        self._check_quantile_arg(u)
        return np.asarray(u, dtype=float)


def sum_band(d, v1, v2):
    """The sum band {v1 <= 1.x <= v2} in d dimensions, without sign constraints."""
    return ConcreteCrisisEvent(CrisisEventSpec("rvar", (0.5, 0.9)), v1, v2, d, False, {})


def test_band_event_validation():
    sum_band(2, 1.0, np.inf)
    sum_band(2, -np.inf, np.inf)
    with pytest.raises(ValueError):
        sum_band(2, 2.0, 1.0)
    b = sum_band(2, 1.0, 2.0)
    assert b.contains_rows([[0.7, 0.5], [2.0, 0.5]]).tolist() == [True, False]


def ladder_presample(n=1000, d=2):
    s = np.arange(1.0, n + 1.0)
    return np.tile((s / d)[:, None], (1, d))


def test_band_from_event_kinds():
    pre = ladder_presample()
    es = estimate_event(CrisisEventSpec("es", (0.99,)), pre, "pnl")
    assert es.v1 == 990.0 and es.v2 == np.inf
    rv = estimate_event(CrisisEventSpec("rvar", (0.9, 0.99)), pre, "pnl")
    assert (rv.v1, rv.v2) == (900.0, 990.0)
    vb = estimate_event(CrisisEventSpec("var", (0.99,), delta=0.001), pre, "pnl")
    assert (vb.v1, vb.v2) == (989.0, 991.0)
    exact = estimate_event(CrisisEventSpec("var", (0.99,)), pre, "pnl")
    assert exact.v1 == exact.v2 == 990.0
    with pytest.raises(ValueError, match="delta band|hmc"):
        run(RunConfig("M1", CrisisEventSpec("var", (0.99,)), "gibbs"))


def test_select_probs_identity_and_equicorr():
    assert np.allclose(select_probs(np.eye(3)), np.ones(3) / 3.0)
    assert np.allclose(select_probs(equicorrelation(4, 0.5)), np.ones(4) / 4.0)


def test_select_probs_equivariance_and_scale():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 3))
    cov = a @ a.T + 0.5 * np.eye(3)
    p = select_probs(cov)
    assert np.allclose(select_probs(7.5 * cov), p, atol=1e-12)
    perm = np.array([2, 0, 1])
    pcov = cov[np.ix_(perm, perm)]
    assert np.allclose(select_probs(pcov), p[perm], atol=1e-12)


def test_select_probs_m1_es_near_uniform():
    # M1 is exchangeable, so the population conditional covariance is
    # permutation symmetric and the selection probabilities are 1/3 each.
    # The estimate from ~1000 heavy tailed conditional rows is noisy
    # (the GPD(0.3) fourth moment is infinite), hence the loose band.
    m = preset("M1")
    x = m.sample(100_000, np.random.default_rng(1))
    ev = estimate_event(CrisisEventSpec("es", (0.99,)), x, m.support_class)
    cond = x[ev.contains_rows(x)]
    p = select_probs(np.cov(cond, rowvar=False))
    assert p.shape == (3,)
    assert np.all(p > 0) and np.isclose(p.sum(), 1.0)
    assert np.all(np.abs(p - 1.0 / 3.0) < 0.08)


def test_select_probs_singular():
    with pytest.raises(ValueError):
        select_probs(np.ones((3, 3)))


def test_thin_interval_iid_and_persistent():
    rng = np.random.default_rng(2)
    assert thin_interval(rng.normal(size=(200, 3))) == (1, False)
    ramp = np.tile(np.arange(200.0)[:, None], (1, 2))
    res = thin_interval(ramp)
    assert res.capped and res.interval == 50
    with pytest.raises(ValueError):
        thin_interval(rng.normal(size=(40, 2)))


def test_thin_interval_ar1():
    rng = np.random.default_rng(3)
    n = 4000
    x = np.empty((n, 1))
    x[0] = 0.0
    for t in range(1, n):
        x[t] = 0.6 * x[t - 1] + rng.normal()
    res = thin_interval(x)
    # 0.6^k <= 0.15 first at k = 4
    assert res.interval in (3, 4, 5)
    assert not res.capped


def rest_levels(model, j, x_rest):
    """u_rest = F_-j(x_-j), clamped as the chain carries it."""
    rest = [m for i, m in enumerate(model.marginals) if i != j]
    return clip01(np.array([float(m.cdf(x)) for m, x in zip(rest, x_rest)]))


def conditional_cdf(model, j, x_rest):
    """The cdf of X_j given X_-j = x_rest."""
    return model.full_conditional(j, rest_levels(model, j, x_rest))[0]


def slice_draw(model, j, x_rest, band, u):
    """One draw of coordinate j given the others, truncated to the band's
    slice, as a chain update makes it from the innovation u."""
    lo, hi = gibbs._slice_interval(x_rest.tolist(), band)
    return gibbs._draw_in_slice(model, j, rest_levels(model, j, x_rest), lo, hi, u)[0]


def test_full_conditional_truncated_uniform_oracle():
    m = JointLossModel([Uniform01(), Uniform01()], Independence(2))
    band = sum_band(2, 1.0, np.inf)
    x = slice_draw(m, 0, np.array([0.3]), band, 0.5)
    assert x == pytest.approx(0.85, abs=1e-12)
    # lower-tail truncation: X1 | X1 + 0.3 <= 1 is U(0, 0.7)
    band2 = sum_band(2, -np.inf, 1.0)
    x2 = slice_draw(m, 0, np.array([0.3]), band2, 0.5)
    assert x2 == pytest.approx(0.35, abs=1e-12)


def test_full_conditional_unconstrained_matches_conditional_cdf():
    m = preset("M1")
    band = sum_band(3, -np.inf, np.inf)
    x_rest = np.array([1.0, 1.0])
    rng = np.random.default_rng(4)
    draws = np.array(
        [slice_draw(m, 0, x_rest, band, rng.random()) for _ in range(4000)]
    )
    ks = stats.kstest(draws, conditional_cdf(m, 0, x_rest))
    assert ks.pvalue > 0.01


def test_full_conditional_banded_matches_truncated_cdf():
    m = preset("M1")
    band = sum_band(3, 3.0, 6.0)
    x_rest = np.array([1.0, 1.0])
    lo, hi = 1.0, 4.0  # slice bounds for coordinate 0
    cdf = conditional_cdf(m, 0, x_rest)
    c_lo = cdf(lo)
    c_hi = cdf(hi)
    rng = np.random.default_rng(5)
    draws = np.array(
        [slice_draw(m, 0, x_rest, band, rng.random()) for _ in range(10_000)]
    )
    assert np.all(draws >= lo - 1e-12)
    assert np.all(draws <= hi + 1e-12)
    grid = np.linspace(lo + 1e-9, hi - 1e-9, 60)
    truncated = (cdf(grid) - c_lo) / (c_hi - c_lo)
    empirical = np.searchsorted(np.sort(draws), grid, side="right") / draws.size
    assert np.max(np.abs(empirical - truncated)) < 0.02


def test_degenerate_slice_raises():
    m = preset("M1")
    band = sum_band(3, 1e7, 1e7 + 1e-6)
    with pytest.raises(DegenerateSliceError):
        slice_draw(m, 0, np.array([0.1, 0.1]), band, 0.5)


# -- one conditional per update, against the three-conditioning reference -------


def reference_draw_in_slice(model, j, u_rest, lo, hi, u):
    """The update as it was before Copula.conditional: the cdf at each slice
    bound and the inverse each condition the copula on u_rest again, through
    hfun and hfun_inv.  rsgs_sample must reproduce its chains bit for bit on
    the copula route, and up to rounding on the score route."""
    m = model.marginals[j]

    def cdf_bound(x):
        if x == np.inf:
            return 1.0
        if x <= m.support_min:
            return 0.0
        return float(model.copula.hfun(j, clip01(m.cdf(x)), u_rest))

    c_lo = cdf_bound(lo)
    c_hi = cdf_bound(hi)
    mass = c_hi - c_lo
    if mass < DEGENERATE_MASS:
        raise DegenerateSliceError(f"slice [{lo}, {hi}] carries mass {mass}")
    u_trunc = min(max(c_lo + u * mass, 1e-15), 1.0 - 1e-15)
    uj = clip01(float(model.copula.hfun_inv(j, u_trunc, u_rest)))
    x_new = float(m.quantile(uj))
    x_new = min(max(x_new, lo), hi)
    return x_new, clip01(float(m.cdf(x_new)))


# one model per copula family, the presets included; M2 and gaussian are
# elliptical and take the score route, t-other-nu (t margins whose nu is
# not the copula's) stays on the copula route
REFERENCE_MODELS = {
    "M1": preset("M1"),
    "M2": preset("M2"),
    "M3": preset("M3"),
    "gaussian": JointLossModel([Normal(1.0, 2.0), Normal(), Normal(-1.0, 0.5)],
                               GaussianCopula(equicorrelation(3, 0.4))),
    "t-other-nu": JointLossModel([StudentT(3.0, 1.0, 2.0), StudentT(8.0), StudentT(5.0, -1.0, 0.5)],
                                 StudentTCopula(5.0, equicorrelation(3, 0.3))),
    "clayton": JointLossModel([GPD(0.3, 1.0), Pareto(2.0, 3.0)], Clayton(1.5, 2)),
    "independence": JointLossModel([GPD(0.2, 1.0), GPD(0.2, 1.0)], Independence(2)),
}
BANDS = {"es": CrisisEventSpec("es", (0.9,)), "rvar": CrisisEventSpec("rvar", (0.5, 0.9))}


def chain_setup(m, band, seed=21):
    x = m.sample(20_000, np.random.default_rng(seed))
    ev = estimate_event(BANDS[band], x, m.support_class)
    cond = x[ev.contains_rows(x)]
    return ev, GibbsParams(select_probs(np.cov(cond, rowvar=False)), 3), cond.mean(axis=0)


# The score route skips the copula route's cdf -> quantile round trips,
# which return the same numbers up to rounding.  Over these chains the
# paths differ by at most 6.9e-13 relative (gaussian, rvar; M2 3.4e-13).
SCORE_ROUTE_RTOL = 1e-11


@pytest.mark.parametrize("band", sorted(BANDS))
@pytest.mark.parametrize("name", sorted(REFERENCE_MODELS))
def test_rsgs_equals_the_three_conditioning_reference(name, band, monkeypatch):
    m = REFERENCE_MODELS[name]
    ev, params, x0 = chain_setup(m, band)
    path, diag = rsgs_sample(m, ev, params, x0, 300, seed=22)
    score_route = m.elliptical() is not None
    # the reference conditions on levels, on the copula route
    monkeypatch.setattr(m, "elliptical", lambda: None)
    monkeypatch.setattr(gibbs, "_draw_in_slice", reference_draw_in_slice)
    ref_path, ref_diag = rsgs_sample(m, ev, params, x0, 300, seed=22)
    if score_route:
        np.testing.assert_allclose(path, ref_path, rtol=SCORE_ROUTE_RTOL, atol=0.0)
    else:
        assert (path == ref_path).all()
    assert (diag.coordinates_updated == ref_diag.coordinates_updated).all()
    assert diag.n_degenerate_redraws == ref_diag.n_degenerate_redraws


@pytest.mark.parametrize("name", ["M1", "M2"])
def test_one_update_conditions_the_copula_once(name, monkeypatch):
    # on the score route (M2) the copula conditions on scores
    m = preset(name)
    ev, params, x0 = chain_setup(m, "es")
    calls = []
    method = "conditional" if m.elliptical() is None else "score_conditional"
    conditional = getattr(m.copula, method)

    def counting(j, rest):
        calls.append(j)
        return conditional(j, rest)

    monkeypatch.setattr(m.copula, method, counting)
    _, diag = rsgs_sample(m, ev, params, x0, 100, seed=23)
    assert diag.n_degenerate_redraws == 0
    assert calls == diag.coordinates_updated.tolist()


# levels near and at the 1e-12 clamp, and anywhere between
LEVEL = st.one_of(
    st.floats(U_EPS, U_EPS + 1e-10),
    st.floats(1.0 - U_EPS - 1e-10, 1.0 - U_EPS),
    st.floats(U_EPS, 1.0 - U_EPS),
)


@pytest.mark.parametrize("name", sorted(REFERENCE_MODELS))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_slice_draws_stay_inside_the_slice(name, data):
    m = REFERENCE_MODELS[name]
    j = data.draw(st.integers(0, m.d - 1))
    u_rest = np.array(data.draw(st.lists(LEVEL, min_size=m.d - 1, max_size=m.d - 1)))
    # the chain state: the levels on the copula route, their scores on the
    # score route
    ell = m.elliptical()
    rest = u_rest if ell is None else ell.generator.quantile(u_rest)
    state_lo, state_hi = (U_EPS, 1.0 - U_EPS) if ell is None else (ell.q_lo, ell.q_hi)
    a, b = sorted(data.draw(st.lists(LEVEL, min_size=2, max_size=2)))
    marginal = m.marginals[j]
    # bounds inside the support, below it and unbounded
    lo = data.draw(st.sampled_from([float(marginal.quantile(a)), marginal.support_min - 1.0, -np.inf]))
    hi = data.draw(st.sampled_from([float(marginal.quantile(b)), np.inf]))
    u = data.draw(st.floats(0.0, 1.0, exclude_max=True))
    try:
        x_new, state = gibbs._draw_in_slice(m, j, rest, lo, hi, u)
    except DegenerateSliceError:
        return
    assert lo <= x_new <= hi
    assert state_lo <= state <= state_hi


# -- the chain on floats: left-to-right sums, block-drawn uniforms ----------------


@settings(max_examples=60, deadline=None)
@given(d=st.integers(2, 10), seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([1e-3, 1.0, 1e6]))
def test_chain_sums_equal_the_event_row_sums(d, seed, scale):
    # _in_band sums a state and _slice_interval the others of a coordinate,
    # each bit for bit as the event's thresholds and membership do
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((200, d)) * scale * rng.uniform(0.1, 10.0, d)
    sums = _left_to_right_sum(rows.T)
    for row, want in zip(rows[:20].tolist(), sums[:20].tolist()):
        # floats and columns alike: a + b + ... in Python
        want_py = functools.reduce(operator.add, row)
        assert _left_to_right_sum(row).hex() == want.hex() == want_py.hex()
        for j in range(d):
            rest = row[:j] + row[j + 1:]
            want_rest = float(_left_to_right_sum(np.array([rest]).T)[0])
            lo, hi = gibbs._slice_interval(rest, sum_band(d, 0.0, np.inf))
            assert lo.hex() == (0.0 - want_rest).hex() and hi == np.inf
    # the row whose sum is the es threshold passes rsgs_sample's start check
    ev = estimate_event(CrisisEventSpec("es", (0.9,)), rows, "pnl")
    threshold_row = rows[np.flatnonzero(sums == ev.v1)[0]]
    assert gibbs._in_band(ev, threshold_row.tolist())
    m = JointLossModel([Normal(0.0, scale)] * d, Independence(d))
    path, _ = rsgs_sample(m, ev, GibbsParams(np.full(d, 1.0 / d), 1), threshold_row, 1, seed=0)
    assert path.shape == (1, d)


def scalar_draw_chain(model, event, params, x0, n, seed):
    """rsgs_sample's chain with one rng.random() call per uniform, the
    coordinate picked by np.searchsorted."""
    rng = np.random.default_rng(seed)
    x = [float(v) for v in x0]
    state = [model.coordinate_state(j, x[j]) for j in range(model.d)]
    cum = np.cumsum(params.p)
    path, coords, redraws = [], [], 0
    for _ in range(n):
        done = 0
        while done < params.thin_T:
            j = int(np.searchsorted(cum, rng.random(), side="right"))
            lo, hi = gibbs._slice_interval(x[:j] + x[j + 1:], event)
            u = rng.random()
            try:
                x[j], state[j] = gibbs._draw_in_slice(model, j, state[:j] + state[j + 1:], lo, hi, u)
            except DegenerateSliceError:
                redraws += 1
                continue
            coords.append(j)
            done += 1
        path.append(list(x))
    return np.array(path), coords, redraws


@pytest.mark.parametrize("block", [7, gibbs.UNIFORM_BLOCK])
@pytest.mark.parametrize("name", ["M1", "M2"])
def test_block_drawn_uniforms_equal_the_scalar_stream(name, block, monkeypatch):
    # a band 3e-14 wide: many slices carry no mass and are drawn again; a
    # block of 7 refills mid-update, between a pick and its innovation
    m = preset(name)
    x0 = np.array([1.0, 1.5, 2.0])
    v = float(_left_to_right_sum(x0[None].T)[0])
    band = sum_band(3, v, v + 3e-14)
    params = GibbsParams(np.array([0.5, 0.3, 0.2]), 2)
    monkeypatch.setattr(gibbs, "UNIFORM_BLOCK", block)
    path, diag = rsgs_sample(m, band, params, x0, 300, seed=11)
    ref_path, ref_coords, ref_redraws = scalar_draw_chain(m, band, params, x0, 300, seed=11)
    assert diag.n_degenerate_redraws == ref_redraws > 0
    assert diag.coordinates_updated.tolist() == ref_coords
    assert (path == ref_path).all()


def test_gibbs_params_validation():
    GibbsParams(np.full(3, 1.0 / 3.0), 4)
    with pytest.raises(ValueError):
        GibbsParams(np.array([0.5, 0.5, 0.1]), 4)
    with pytest.raises(ValueError):
        GibbsParams(np.array([0.7, -0.1, 0.4]), 4)
    with pytest.raises(ValueError):
        GibbsParams(np.full(3, 1.0 / 3.0), 0)
    for thin_T in (True, np.bool_(True), 2.0):
        with pytest.raises(ValueError, match="thinning interval"):
            GibbsParams(np.full(3, 1.0 / 3.0), thin_T)


def test_gibbs_params_from_json_reject_non_integral_values():
    p = [0.2, 0.3, 0.5]
    assert GibbsParams.from_json_dict({"p": p, "thin_T": 4}).thin_T == 4
    assert GibbsParams.from_json_dict({"p": p, "thin_T": 4.0}).thin_T == 4
    for thin_T in (2.7, True, "4", math.inf):
        with pytest.raises(ValueError, match="thinning interval"):
            GibbsParams.from_json_dict({"p": p, "thin_T": thin_T})


def test_rsgs_emits_feasible_states_and_is_deterministic():
    m = preset("M1")
    x = m.sample(50_000, np.random.default_rng(7))
    ev = estimate_event(CrisisEventSpec("es", (0.99,)), x, m.support_class)
    cond = x[ev.contains_rows(x)]
    params = GibbsParams(select_probs(np.cov(cond, rowvar=False)), 3)
    x0 = cond.mean(axis=0)
    path, diag = rsgs_sample(m, ev, params, x0, 500, seed=8)
    assert path.shape == (500, 3)
    sums = path.sum(axis=1)
    assert np.all(sums >= ev.v1 - 1e-9 * max(1.0, abs(ev.v1)))
    assert np.all(path >= 0.0)
    assert diag.coordinates_updated.shape == (1500,)
    assert set(np.unique(diag.coordinates_updated)) <= {0, 1, 2}
    path2, diag2 = rsgs_sample(m, ev, params, x0, 500, seed=8)
    assert np.array_equal(path, path2)
    assert np.array_equal(diag.coordinates_updated, diag2.coordinates_updated)


def test_rsgs_selection_frequencies_follow_p():
    m = preset("M2")
    band = sum_band(3, -np.inf, np.inf)
    p = np.array([0.6, 0.3, 0.1])
    path, diag = rsgs_sample(m, band, GibbsParams(p, 2), np.zeros(3), 2000, seed=9)
    freq = np.bincount(diag.coordinates_updated, minlength=3) / 4000.0
    assert np.all(np.abs(freq - p) < 0.03)


def test_rsgs_start_validation():
    m = preset("M1")
    band = sum_band(3, 5.0, 10.0)
    params = GibbsParams(np.full(3, 1.0 / 3.0), 2)
    with pytest.raises(ValueError, match="band"):
        rsgs_sample(m, band, params, np.zeros(3), 10, seed=0)
    with pytest.raises(ValueError, match="dimension"):
        rsgs_sample(m, band, params, np.full(2, 3.0), 10, seed=0)


def test_single_site_update_preserves_target():
    # transition-operator check: apply one single-coordinate update to each
    # of m target-distributed points; the updated cloud must still follow
    # the conditional target (chi-square on a product-quantile grid whose
    # cell probabilities come from a large reference pool)
    m = JointLossModel([GPD(0.3, 1.0), GPD(0.3, 1.0)], Independence(2))
    spec = CrisisEventSpec("rvar", (0.5, 0.9))
    n_move, n_ref = 2000, 40_000
    passes = 0
    for seed in range(20):
        rng = np.random.default_rng(500 + seed)
        x = m.sample(150_000, rng)
        ev = estimate_event(spec, x, m.support_class)
        cond = x[ev.contains_rows(x)]
        assert len(cond) > n_move + n_ref
        moved = np.empty((n_move, 2))
        params = GibbsParams(np.full(2, 0.5), 1)
        for i in range(n_move):
            path, _ = rsgs_sample(m, ev, params, cond[i], 1, seed=7000 * seed + i)
            moved[i] = path[0]
        ref = cond[n_move : n_move + n_ref]
        # conditional-quantile grid: bin x2 within each x1 bin so that every
        # cell has reference mass ~1/16 (a plain product grid leaves the
        # low-low corner structurally empty under the band)
        q = np.array([0.25, 0.5, 0.75])
        edges1 = np.quantile(ref[:, 0], q)
        edges2 = [
            np.quantile(ref[np.digitize(ref[:, 0], edges1) == b, 1], q)
            for b in range(4)
        ]
        def cell(rows):
            i1 = np.digitize(rows[:, 0], edges1)
            i2 = np.array([np.digitize(r[1], edges2[b]) for r, b in zip(rows, i1)])
            return np.bincount(i1 * 4 + i2, minlength=16)
        p_ref = cell(ref) / n_ref
        obs = cell(moved)
        assert np.all(p_ref * n_move >= 5)
        res = stats.chisquare(obs, p_ref * n_move * (obs.sum() / n_move))
        if res.pvalue > 0.01:
            passes += 1
    assert passes >= 19


def test_rsgs_matches_mc_on_wide_band():
    # d=2 independence model: thinned Gibbs draws vs i.i.d. conditional MC
    # rows.  A single two-sample KS at the 1% level is anti-conservative on
    # chain output (residual autocorrelation), so run a few seeds and ask
    # that most pass and that no margin is grossly off.
    m = JointLossModel([GPD(0.3, 1.0), GPD(0.3, 1.0)], Independence(2))
    p = np.full(2, 0.5)
    passed = 0
    worst_stat = 0.0
    for seed in range(5):
        x = m.sample(60_000, np.random.default_rng(100 + seed))
        ev = estimate_event(CrisisEventSpec("rvar", (0.5, 0.9)), x, m.support_class)
        cond = x[ev.contains_rows(x)]
        pre, _ = rsgs_sample(m, ev, GibbsParams(p, 1), cond.mean(axis=0), 100, seed=seed)
        thin = thin_interval(pre)
        path, _ = rsgs_sample(m, ev, GibbsParams(p, thin.interval), pre[-1], 5000, seed=1000 + seed)
        ks = [stats.ks_2samp(path[:, j], cond[:, j]) for j in range(2)]
        worst_stat = max(worst_stat, *(k.statistic for k in ks))
        if all(k.pvalue > 0.01 for k in ks):
            passed += 1
    assert passed >= 3
    assert worst_stat < 0.05

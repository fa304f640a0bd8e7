import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from riskalloc.copulas import Clayton, Independence, SurvivalClayton, clip01
from riskalloc.marginals import GPD, Marginal, Pareto
from riskalloc.models import (
    JointLossModel,
    equicorrelation,
    load_model,
    model_from_dict,
    preset,
    student_t_model,
)


@pytest.fixture(scope="module")
def m1():
    return preset("M1")


@pytest.fixture(scope="module")
def m2():
    return preset("M2")


@pytest.fixture(scope="module")
def m3():
    return preset("M3")


def test_preset_shapes(m1, m2, m3):
    assert (m1.d, m2.d, m3.d) == (3, 3, 2)
    assert m1.support_class == "pure-losses"
    assert m2.support_class == "pnl"
    assert m3.support_class == "pure-losses"
    assert m2.copula.corr[0, 2] == pytest.approx(2.0 / 3.0)
    assert m3.copula.theta == 0.512


def test_unknown_preset():
    with pytest.raises(ValueError):
        preset("M9")


def test_logpdf_zero_at_origin_for_independent_gpd():
    m = JointLossModel([GPD(0.3, 1.0), GPD(0.3, 1.0)], Independence(2))
    assert m.logpdf(np.zeros(2)) == pytest.approx(0.0, abs=1e-12)


def test_sklar_consistency(m1):
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = rng.uniform(0.5, 4.0, size=3)
        u = np.array([mm.cdf(xx) for mm, xx in zip(m1.marginals, x)])
        direct = m1.copula.density(u) * np.prod([mm.pdf(xx) for mm, xx in zip(m1.marginals, x)])
        assert math.exp(m1.logpdf(x)) == pytest.approx(direct, rel=1e-12)


def test_m2_center_matches_multivariate_t_density(m2):
    # closed-form t density at its center: Gamma((nu+d)/2) / (Gamma(nu/2) (nu pi)^(d/2)) |R|^(-1/2)
    nu, d = 5.0, 3
    r = m2.copula.corr
    lognorm = (
        special.gammaln((nu + d) / 2.0)
        - special.gammaln(nu / 2.0)
        - 0.5 * d * math.log(nu * math.pi)
        - 0.5 * math.log(np.linalg.det(r))
    )
    assert m2.logpdf(np.zeros(3)) == pytest.approx(lognorm, rel=1e-10)


def test_out_of_support_sentinel(m1):
    assert m1.logpdf(np.array([1.0, -0.1, 1.0])) == -np.inf
    with pytest.raises(ValueError):
        m1.grad_logpdf(np.array([1.0, -0.1, 1.0]))


@pytest.mark.parametrize("name", ["M1", "M2", "M3"])
def test_grad_logpdf_matches_finite_differences(name):
    m = preset(name)
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = np.array([mm.quantile(rng.uniform(0.2, 0.9)) for mm in m.marginals])
        g = m.grad_logpdf(x)
        for j in range(m.d):
            h = 1e-5 * max(1.0, abs(x[j]))
            up, dn = x.copy(), x.copy()
            up[j] += h
            dn[j] -= h
            fd = (m.logpdf(up) - m.logpdf(dn)) / (2.0 * h)
            assert g[j] == pytest.approx(fd, rel=2e-5, abs=1e-9)


def test_grad_symmetry_at_exchangeable_point(m1):
    g = m1.grad_logpdf(np.array([2.0, 2.0, 2.0]))
    assert g[0] == pytest.approx(g[1], rel=1e-12)
    assert g[1] == pytest.approx(g[2], rel=1e-12)


def test_sample_marginals_ks(m1, m2):
    rng = np.random.default_rng(11)
    x = m1.sample(100_000, rng)
    for j in range(3):
        ks = stats.kstest(x[:, j], m1.marginals[j].cdf).statistic
        assert ks < 0.01
    x = m2.sample(100_000, rng)
    for j in range(3):
        ks = stats.kstest(x[:, j], m2.marginals[j].cdf).statistic
        assert ks < 0.01


def test_sample_determinism(m1):
    a = m1.sample(1000, np.random.default_rng(42))
    b = m1.sample(1000, np.random.default_rng(42))
    assert np.array_equal(a, b)


def full_conditional_at(m, j, x_rest):
    """full_conditional of coordinate j given the others at x_rest."""
    rest = [mm for i, mm in enumerate(m.marginals) if i != j]
    return m.full_conditional(j, clip01(np.array([float(mm.cdf(x)) for mm, x in zip(rest, x_rest)])))


def test_conditional_cdf_equals_marginal_under_independence():
    m = JointLossModel([GPD(0.3, 1.0), GPD(0.5, 2.0)], Independence(2))
    cdf, _ = full_conditional_at(m, 0, [1.0])
    for x in (0.5, 1.0, 3.0):
        assert cdf(x) == pytest.approx(m.marginals[0].cdf(x), abs=1e-12)


def test_conditional_quantile_cdf_roundtrip(m1, m3):
    rng = np.random.default_rng(13)
    for m in (m1, m3):
        for _ in range(20):
            x_rest = np.array([mm.quantile(rng.uniform(0.2, 0.9))
                               for mm in m.marginals[1:]])
            p = rng.uniform(0.05, 0.95)
            cdf, quantile = full_conditional_at(m, 0, x_rest)
            assert cdf(quantile(p)) == pytest.approx(p, abs=1e-8)


def test_conditional_cdf_against_quadrature(m1):
    # ratio of numerically integrated joint densities on a 1-D grid
    x_rest = np.array([1.0, 1.0])
    grid = m1.marginals[0].quantile(np.linspace(1e-9, 1.0 - 1e-9, 40_001))
    dens = np.array([math.exp(m1.logpdf(np.array([g, 1.0, 1.0]))) for g in grid])
    seg = 0.5 * (dens[1:] + dens[:-1]) * np.diff(grid)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    cum /= cum[-1]
    cdf, _ = full_conditional_at(m1, 0, x_rest)
    for x in (0.3, 0.8, 1.5, 3.0, 6.0):
        quad = float(np.interp(x, grid, cum))
        assert cdf(x) == pytest.approx(quad, abs=1e-4)


def test_density_normalization_d2(m3):
    # trapezoid over a truncated grid carrying >= 0.999 mass
    qs = np.linspace(5e-4, 1.0 - 5e-4, 350)
    g1 = m3.marginals[0].quantile(qs)
    g2 = m3.marginals[1].quantile(qs)
    dens = np.empty((g1.size, g2.size))
    for i, a in enumerate(g1):
        for k, b in enumerate(g2):
            dens[i, k] = math.exp(m3.logpdf(np.array([a, b])))
    inner = np.trapezoid(np.trapezoid(dens, g2, axis=1), g1)
    assert inner == pytest.approx(1.0, abs=1e-2)


def test_equicorrelation_helper():
    r = equicorrelation(5, 1.0 / 12.0)
    assert r.shape == (5, 5)
    assert np.all(np.diag(r) == 1.0)
    assert r[0, 4] == pytest.approx(1.0 / 12.0)


def test_student_t_model_roundtrip():
    m = student_t_model(6.0, equicorrelation(5, 1.0 / 12.0))
    assert m.d == 5 and m.support_class == "pnl"
    assert all(mm.nu == 6.0 for mm in m.marginals)


def test_model_from_dict_and_load_model(m1):
    cfg = {
        "marginals": [{"kind": "GPD", "params": [0.3, 1.0]}] * 3,
        "copula": {"kind": "SurvivalClayton", "theta": 2.0},
    }
    m = model_from_dict(cfg)
    x = np.array([1.0, 2.0, 0.5])
    assert m.logpdf(x) == pytest.approx(m1.logpdf(x), rel=1e-14)
    assert load_model("M2").d == 3
    assert load_model(m1) is m1
    with pytest.raises(TypeError):
        load_model(42)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        JointLossModel([GPD(0.3, 1.0)] * 3, Independence(2))


# -- grouped evaluation: exact equality with the per-coordinate loop ----------


class Uniform(Marginal):
    """Uniform on [0, upper]; its array attribute makes two instances
    incomparable, so each stays in a group of its own."""

    support = "nonnegative-half-line"

    def __init__(self, upper):
        self.bounds = np.array([0.0, float(upper)])

    def logpdf(self, x):
        x = np.asarray(x, dtype=float)
        lo, hi = self.bounds
        return np.where((x >= lo) & (x <= hi), -math.log(hi), -np.inf)

    def _dlogpdf(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))

    def cdf(self, x):
        return np.clip(np.asarray(x, dtype=float) / self.bounds[1], 0.0, 1.0)


EXACT_MODELS = {
    "M1": lambda: preset("M1"),
    "M2": lambda: preset("M2"),
    "M3": lambda: preset("M3"),
    "mixed": lambda: JointLossModel(
        [GPD(0.3, 1.0), GPD(0.3, 1.0), GPD(0.5, 2.0), Pareto(3.0, 2.5)],
        SurvivalClayton(1.5, 4),
    ),
    "custom": lambda: JointLossModel([Uniform(2.0), Uniform(2.0), GPD(0.3, 1.0)], Clayton(1.0, 3)),
    # from d = 8 on, np.sum no longer adds the log-densities left to right
    "wide": lambda: JointLossModel(
        [GPD(0.3, 1.0)] * 5 + [Pareto(3.0, 2.5)] * 4, SurvivalClayton(1.5, 9)
    ),
}
_BUILT = {}


def _exact_model(name):
    if name not in _BUILT:
        _BUILT[name] = EXACT_MODELS[name]()
    return _BUILT[name]


def reference_logpdf(model, x):
    """The per-coordinate evaluation the grouped one must reproduce bit for bit."""
    x = np.asarray(x, dtype=float)
    if not all(bool(m.in_support(x[j])) for j, m in enumerate(model.marginals)):
        return -np.inf
    u = np.empty(model.d)
    total = 0.0
    for j, m in enumerate(model.marginals):
        total += float(m.logpdf(x[j]))
        u[j] = m.cdf(x[j])
    if not np.isfinite(total):
        return -np.inf
    return total + float(model.copula.logdensity(clip01(u)))


def reference_grad_logpdf(model, x):
    x = np.asarray(x, dtype=float)
    if not all(bool(m.in_support(x[j])) for j, m in enumerate(model.marginals)):
        raise ValueError("gradient requested outside the support")
    u, fx, dm = np.empty(model.d), np.empty(model.d), np.empty(model.d)
    for j, m in enumerate(model.marginals):
        u[j] = m.cdf(x[j])
        fx[j] = m.pdf(x[j])
        dm[j] = m.dlogpdf(x[j])
    return model.copula.grad_logdensity(clip01(u)) * fx + dm


# x = 0, u below the 1e-12 clamp, the body, and u above 1 - 1e-12 (large x)
NONNEGATIVE = st.one_of(
    st.just(0.0), st.floats(0.0, 1e-10), st.floats(0.0, 50.0), st.floats(1e3, 1e12)
)
# off the half-line support (the left tail on M2), and NaN
NEGATIVE_OR_NAN = st.one_of(st.floats(-1e12, -1e-300), st.just(math.nan))


@pytest.mark.parametrize("name", sorted(EXACT_MODELS))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_grouped_evaluation_equals_per_coordinate_loop(name, data):
    model = _exact_model(name)
    x = np.array(data.draw(st.lists(NONNEGATIVE, min_size=model.d, max_size=model.d)))
    for j in data.draw(st.sets(st.integers(0, model.d - 1), max_size=2)):
        x[j] = data.draw(NEGATIVE_OR_NAN)
    assert model.logpdf(x) == reference_logpdf(model, x)
    try:
        want = reference_grad_logpdf(model, x)
    except ValueError:
        with pytest.raises(ValueError):
            model.grad_logpdf(x)
        return
    got = model.grad_logpdf(x)
    assert got.shape == want.shape
    # exact equality, with NaN only where the reference has NaN
    np.testing.assert_array_equal(got, want)


def test_coordinates_grouped_by_distribution():
    def groups(model):
        return [idx.tolist() for _, idx in model._groups]

    assert groups(preset("M1")) == [[0, 1, 2]]
    assert groups(preset("M2")) == [[0, 1, 2]]
    assert groups(preset("M3")) == [[0], [1]]
    assert groups(_exact_model("mixed")) == [[0, 1], [2], [3]]
    assert groups(_exact_model("custom")) == [[0], [1], [2]]
    assert groups(_exact_model("wide")) == [[0, 1, 2, 3, 4], [5, 6, 7, 8]]

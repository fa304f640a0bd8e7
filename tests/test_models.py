import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from riskalloc import gibbs
from riskalloc.copulas import (
    U_EPS,
    Clayton,
    GaussianCopula,
    Independence,
    StudentTCopula,
    SurvivalClayton,
    clip01,
)
from riskalloc.events import CrisisEventSpec
from riskalloc.harness import oracle_for
from riskalloc.marginals import GPD, Marginal, Normal, Pareto, StudentT
from riskalloc.models import (
    JointLossModel,
    equicorrelation,
    load_model,
    model_from_dict,
    preset,
    student_t_model,
)
from test_gibbs import Uniform01


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
    assert (m1.nonnegative, m2.nonnegative, m3.nonnegative) == (True, False, True)
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
    """The conditional (cdf, quantile) of coordinate j given the others at
    x_rest, on floats, as a Gibbs update evaluates them (the copula route)."""
    rest = [mm for i, mm in enumerate(m.marginals) if i != j]
    route = gibbs._route(m)
    c = route.condition(j, clip01(np.array([float(mm.cdf(x)) for mm, x in zip(rest, x_rest)])))
    return (lambda x: route.cdf(j, c, x)), (lambda p: route.quantile(j, c, p))


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
    assert m.d == 5 and m.nonnegative is False
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


NAN = math.nan
INF = math.inf
IND = {"kind": "independence"}
CORR2 = [[1.0, 0.5], [0.5, 1.0]]


@pytest.mark.parametrize(
    "marginal, copula, message",
    [
        (("gpd", [NAN, 1.0]), IND, "GPD shape xi must be finite and >= 0"),
        (("gpd", [0.3, NAN]), IND, "GPD scale beta must be finite and > 0"),
        (("pareto", [NAN, 2.0]), IND, "Pareto scale lam must be finite and > 0"),
        (("pareto", [1.0, NAN]), IND, "Pareto shape theta must be finite and > 0"),
        (("studentt", [NAN, 0.0, 1.0]), IND, "StudentT degrees of freedom nu must be finite and > 0"),
        (("studentt", [5.0, 0.0, NAN]), IND, "StudentT scale sigma must be finite and > 0"),
        (("normal", [0.0, NAN]), IND, "Normal scale sigma must be finite and > 0"),
        (("gpd", [0.3, 1.0]), {"kind": "clayton", "theta": NAN}, "Clayton theta must be finite and > 0"),
        (("gpd", [0.3, 1.0]), {"kind": "survivalclayton", "theta": NAN},
         "Clayton theta must be finite and > 0"),
        (("gpd", [0.3, 1.0]), {"kind": "studentt", "nu": NAN, "corr": CORR2},
         "StudentT copula nu must be finite and > 0"),
        (("gpd", [INF, 1.0]), IND, "GPD shape xi must be finite and >= 0"),
        (("gpd", [0.3, INF]), IND, "GPD scale beta must be finite and > 0"),
        (("pareto", [INF, 2.0]), IND, "Pareto scale lam must be finite and > 0"),
        (("pareto", [1.0, INF]), IND, "Pareto shape theta must be finite and > 0"),
        (("studentt", [INF, 0.0, 1.0]), IND, "StudentT degrees of freedom nu must be finite and > 0"),
        (("studentt", [5.0, 0.0, INF]), IND, "StudentT scale sigma must be finite and > 0"),
        (("normal", [0.0, INF]), IND, "Normal scale sigma must be finite and > 0"),
        (("gpd", [0.3, 1.0]), {"kind": "clayton", "theta": INF}, "Clayton theta must be finite and > 0"),
        (("gpd", [0.3, 1.0]), {"kind": "survivalclayton", "theta": INF},
         "Clayton theta must be finite and > 0"),
        (("gpd", [0.3, 1.0]), {"kind": "studentt", "nu": INF, "corr": CORR2},
         "StudentT copula nu must be finite and > 0"),
        (("studentt", [5.0, NAN, 1.0]), IND, "StudentT location mu must be finite"),
        (("studentt", [5.0, INF, 1.0]), IND, "StudentT location mu must be finite"),
        (("studentt", [5.0, -INF, 1.0]), IND, "StudentT location mu must be finite"),
        (("normal", [NAN, 1.0]), IND, "Normal location mu must be finite"),
        (("normal", [INF, 1.0]), IND, "Normal location mu must be finite"),
        (("normal", [-INF, 1.0]), IND, "Normal location mu must be finite"),
    ],
    ids=["gpd-xi", "gpd-beta", "pareto-lam", "pareto-theta", "studentt-nu", "studentt-sigma",
         "normal-sigma", "clayton-theta", "survival-theta", "t-copula-nu",
         "gpd-xi-inf", "gpd-beta-inf", "pareto-lam-inf", "pareto-theta-inf", "studentt-nu-inf",
         "studentt-sigma-inf", "normal-sigma-inf", "clayton-theta-inf", "survival-theta-inf",
         "t-copula-nu-inf", "studentt-mu", "studentt-mu-inf", "studentt-mu-minus-inf",
         "normal-mu", "normal-mu-inf", "normal-mu-minus-inf"],
)
def test_model_spec_names_a_nan_parameter(marginal, copula, message):
    # a NaN fails every comparison and an infinity passes a bare positivity
    # check, so each check is written to fail on both and name the
    # parameter, not to let it through to the run
    kind, params = marginal
    cfg = {"marginals": [{"kind": kind, "params": params}] * 2, "copula": copula}
    with pytest.raises(ValueError, match=f"^{message}$"):
        model_from_dict(cfg)


GPD_ITEM = {"kind": "gpd", "params": [0.3, 1.0]}
# a spec with one stray key, at each level of the spec, and the message
# that must name it and where it sits
UNKNOWN_KEYS = {
    "copula-field": (
        {"marginals": [GPD_ITEM] * 2, "copula": {"kind": "clayton", "theta": 2.0, "thetta": 5}},
        "the model spec field 'copula' of kind 'clayton' has unknown keys ['thetta']; "
        "it takes ['kind', 'theta']",
    ),
    "marginal-field": (
        {"marginals": [GPD_ITEM, {**GPD_ITEM, "beta": 1.0}], "copula": IND},
        "the model spec field 'marginals[1]' of kind 'gpd' has unknown keys ['beta']; "
        "it takes ['kind', 'params']",
    ),
    "top-level": (
        {"marginals": [GPD_ITEM] * 2, "copulaa": IND, "copula": IND},
        "the model spec has unknown keys ['copulaa']; it takes ['marginals', 'copula']",
    ),
    "independence-corr": (
        {"marginals": [GPD_ITEM] * 2, "copula": {"kind": "independence", "corr": CORR2}},
        "the model spec field 'copula' of kind 'independence' has unknown keys ['corr']; "
        "it takes ['kind']",
    ),
}


@pytest.mark.parametrize("name", sorted(UNKNOWN_KEYS))
def test_model_spec_names_an_unknown_key(name):
    cfg, message = UNKNOWN_KEYS[name]
    with pytest.raises(ValueError) as err:
        model_from_dict(cfg)
    assert str(err.value) == message


def test_model_spec_must_be_an_object():
    with pytest.raises(ValueError, match="^the model spec must be an object, got list$"):
        model_from_dict([GPD_ITEM])


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


# -- the fused marginal pass: Marginal._terms ------------------------------------

TERMS_MARGINALS = {
    "gpd": lambda: GPD(0.3, 1.7),
    "gpd-xi0": lambda: GPD(0.0, 2.0),
    "pareto": lambda: Pareto(14036.0, 1.122),
    "studentt": lambda: StudentT(5.0, 0.5, 2.0),
    "normal": lambda: Normal(1.0, 3.0),
    "uniform": lambda: Uniform(2.0),
    "uniform01": lambda: Uniform01(),
}
# magnitudes in the support: 0, 1e-300, subnormals, the body, 1e12 and inf;
# a real-line marginal also gets their negatives
MAGNITUDES = st.one_of(
    st.just(0.0),
    st.just(1e-300),
    st.floats(5e-324, 2.2e-308),
    st.floats(0.0, 50.0),
    st.just(1e12),
    st.just(math.inf),
)


@pytest.mark.parametrize("name", sorted(TERMS_MARGINALS))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_terms_equal_the_three_methods(name, data):
    m = TERMS_MARGINALS[name]()
    k, d = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))

    def draw(elements):
        return np.array(data.draw(st.lists(elements, min_size=k * d, max_size=k * d))).reshape(k, d)

    x = draw(MAGNITUDES)
    if m.support == "real-line":
        x *= draw(st.sampled_from([-1.0, 1.0]))
    # a point, a (K, d) batch and the transposed (strided) view of the batch
    for xs in (x[0, 0].reshape(()), x, x.T):
        # the density pass computes no derivative, so it warns nowhere
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = m._terms(xs, grad=False)
            want = (m.logpdf(xs), m.cdf(xs))
        assert got[2] is None
        for g, w in zip(got, want):
            assert np.shape(g) == np.shape(w)
            assert np.array_equal(g, w)
        # the t derivative at +-inf is inf/inf = nan in both
        with np.errstate(invalid="ignore"):
            got = m._terms(xs, grad=True)
            want = (m.logpdf(xs), m.cdf(xs), m._dlogpdf(xs))
        for g, w in zip(got, want):
            assert np.shape(g) == np.shape(w)
            assert np.array_equal(g, w, equal_nan=True)


@pytest.mark.parametrize(
    "name, n_groups", [("M1", 1), ("M2", 1), ("M3", 2), ("mixed", 3), ("custom", 3)]
)
def test_one_terms_call_per_group(name, n_groups, monkeypatch):
    # a point's gradient calls the point hook once per group, everything
    # else _terms (which the default point hook calls in turn)
    model = _exact_model(name)
    calls = {"_terms": [], "_point_terms": []}
    for cls in {type(m) for m in model.marginals}:
        for hook in calls:
            def counted(self, x, grad, fn=getattr(cls, hook), seen=calls[hook]):
                seen.append(x)
                return fn(self, x, grad)

            monkeypatch.setattr(cls, hook, counted)
    x = np.full(model.d, 0.5)
    batch = np.full((4, model.d), 0.5)
    for method in ("logpdf", "grad_logpdf"):
        for arg in (x, batch):
            for seen in calls.values():
                seen.clear()
            getattr(model, method)(arg)
            hook = "_point_terms" if method == "grad_logpdf" and arg is x else "_terms"
            assert len(calls[hook]) == n_groups
            if hook == "_point_terms":
                assert all(type(c) is list for c in calls[hook])
            else:
                assert calls["_point_terms"] == []
            # a model of one group evaluates on the argument itself, a point
            # as its list of floats
            if n_groups == 1 and method == "grad_logpdf":
                assert calls[hook][0] == arg.tolist() if arg is x else calls[hook][0] is arg


# -- the point hooks: Marginal._point_terms, Copula._point_grad_logdensity -------

POINT_MARGINALS = {
    "gpd": GPD(0.3, 1.7),
    "gpd-xi0": GPD(0.0, 2.0),
    "pareto": Pareto(14036.0, 1.122),
    "pareto-small-scale": Pareto(3.0, 2.5),
}
POINT_COPULAS = {
    f"{cls.__name__}-d{d}": (cls, d) for cls in (Clayton, SurvivalClayton) for d in range(2, 11)
}
# the bulk, up to 1e6, near 0, both zeros (the array clamp maps -0.0 to
# 0.0) and NaN (which the hooks pass through)
POINT_X = st.one_of(
    st.floats(0.0, 50.0), st.floats(0.0, 1e6), st.floats(0.0, 1e-9), st.sampled_from([0.0, -0.0]),
    st.just(math.nan),
)
# levels in the bulk, within 1e-12 of 0 and of 1, and NaN, which the clamp
# passes through
POINT_LEVEL = st.one_of(
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.floats(0.0, 1e-12, exclude_min=True),
    st.floats(1.0 - 1e-12, 1.0, exclude_max=True),
    st.just(math.nan),
)


def _hexes(values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("name", sorted(POINT_MARGINALS))
@settings(max_examples=300, deadline=None)
@given(x=st.lists(POINT_X, min_size=1, max_size=5), grad=st.booleans())
def test_marginal_point_hook_equals_its_array_method(name, x, grad):
    m = POINT_MARGINALS[name]
    got = m._point_terms(x, grad)
    want = m._terms(np.array([x]), grad)
    assert all(type(v) is float for terms in got if terms is not None for v in terms)
    assert _hexes(got[0]) == _hexes(want[0][0]) and _hexes(got[1]) == _hexes(want[1][0])
    assert (got[2] is None) if not grad else _hexes(got[2]) == _hexes(want[2][0])


@pytest.mark.parametrize("name", sorted(POINT_COPULAS))
@settings(max_examples=150, deadline=None)
@given(data=st.data(), theta=st.floats(0.05, 20.0))
def test_copula_point_hook_equals_its_array_method(name, data, theta):
    # from d = 8 on, w adds in numpy's pairwise order
    cls, d = POINT_COPULAS[name]
    cop = cls(theta, d)
    u = data.draw(st.lists(POINT_LEVEL, min_size=d, max_size=d))
    levels = clip01(u)
    assert _hexes(levels) == _hexes(clip01(np.array(u)))
    got = cop._point_grad_logdensity(levels)
    want = cop._grad_logdensity(clip01(np.array([u])))[0]
    assert all(type(v) is float for v in got)
    assert _hexes(got) == _hexes(want)


@pytest.mark.parametrize("name", ["M1", "M3", "mixed", "wide"])
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_point_gradient_off_the_support_raises(name, data):
    model = _exact_model(name)
    x = data.draw(st.lists(st.floats(0.0, 50.0), min_size=model.d, max_size=model.d))
    x[data.draw(st.integers(0, model.d - 1))] = data.draw(NEGATIVE_OR_NAN)
    with pytest.raises(ValueError, match="^gradient requested outside the support$"):
        model.grad_logpdf(np.array(x))


class Logistic(Marginal):
    """A marginal of the four methods only: it runs the default point hook."""

    def logpdf(self, x):
        x = np.asarray(x, dtype=float)
        return -x - 2.0 * np.log1p(np.exp(-x))

    def _dlogpdf(self, x):
        return -np.tanh(0.5 * np.asarray(x, dtype=float))

    def cdf(self, x):
        return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=float)))

    def quantile(self, u):
        u = self._check_quantile_arg(u)
        return np.log(u) - np.log1p(-u)


@pytest.mark.parametrize(
    "copula", [Clayton(1.5, 3), GaussianCopula(equicorrelation(3, 0.4))], ids=["clayton", "gaussian"]
)
@settings(max_examples=100, deadline=None)
@given(x=st.lists(st.floats(-30.0, 30.0), min_size=3, max_size=3))
def test_default_point_hook_equals_a_one_row_batch(copula, x):
    assert "_point_terms" not in vars(Logistic)
    model = JointLossModel([Logistic(), Logistic(), GPD(0.3, 1.0)], copula)
    x[2] = abs(x[2])
    point = model.grad_logpdf(np.array(x))
    assert _hexes(point) == _hexes(model.grad_logpdf(np.array([x]))[0])


@pytest.mark.parametrize("name", sorted(EXACT_MODELS))
@pytest.mark.parametrize("value", [math.inf, -math.inf])
def test_logpdf_at_an_infinite_coordinate_raises_no_warning(name, value):
    model = _exact_model(name)
    x = np.full((2, model.d), 0.5)
    x[0, 0] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = model.logpdf(x)
        point = model.logpdf(x[0])
    assert got[0] == point == -np.inf
    assert np.isfinite(got[1])


def test_coordinates_grouped_by_distribution():
    def groups(model):
        return [idx.tolist() for _, idx in model._groups]

    assert groups(preset("M1")) == [[0, 1, 2]]
    assert groups(preset("M2")) == [[0, 1, 2]]
    assert groups(preset("M3")) == [[0], [1]]
    assert groups(_exact_model("mixed")) == [[0, 1], [2], [3]]
    assert groups(_exact_model("custom")) == [[0], [1], [2]]
    assert groups(_exact_model("wide")) == [[0, 1, 2, 3, 4], [5, 6, 7, 8]]


# -- the two routes: copula levels, or scores of an elliptical model -----------


def test_elliptical_predicate():
    m2 = preset("M2").elliptical()
    assert isinstance(m2.generator, StudentT) and m2.generator.nu == 5.0
    assert m2.generator.mu == 0.0 and m2.generator.sigma == 1.0
    assert (m2.mu == 0.0).all() and (m2.sigma == 1.0).all()
    assert (m2.q_lo, m2.q_hi) == (special.stdtrit(5.0, U_EPS), special.stdtrit(5.0, 1.0 - U_EPS))
    gauss = JointLossModel([Normal(1.0, 2.0), Normal()], GaussianCopula(equicorrelation(2, 0.3)))
    ell = gauss.elliptical()
    assert isinstance(ell.generator, Normal)
    assert ell.mu.tolist() == [1.0, 0.0] and ell.sigma.tolist() == [2.0, 1.0]
    assert (ell.corr == equicorrelation(2, 0.3)).all()


R3 = equicorrelation(3, 0.3)
COPULA_ROUTE_MODELS = {
    # t margins of another nu than the copula's, in one coordinate or all
    "t-other-nu": JointLossModel([StudentT(5.0), StudentT(4.0), StudentT(5.0)], StudentTCopula(5.0, R3)),
    "t-all-other-nu": JointLossModel([StudentT(3.0)] * 3, StudentTCopula(5.0, R3)),
    "gaussian-t-margins": JointLossModel([StudentT(5.0)] * 3, GaussianCopula(R3)),
    "t-normal-margins": JointLossModel([Normal()] * 3, StudentTCopula(5.0, R3)),
    "mixed-margins": JointLossModel([Normal(), Normal(), GPD(0.3, 1.0)], GaussianCopula(R3)),
    "M1": preset("M1"),
    "M3": preset("M3"),
}


@pytest.mark.parametrize("name", sorted(COPULA_ROUTE_MODELS))
def test_non_elliptical_models_stay_on_the_copula_route(name):
    model = COPULA_ROUTE_MODELS[name]
    assert model.elliptical() is None
    x = model.sample(2000, np.random.default_rng(3))
    u = model.copula.sample(2000, np.random.default_rng(3))
    want = np.column_stack([m.quantile(u[:, j]) for j, m in enumerate(model.marginals)])
    assert np.array_equal(x, want)


# oracle_for before the predicate replaced the oracle's own test, as repr
T5 = student_t_model(6.0, equicorrelation(5, 1.0 / 12.0), loc=[0.0, 1.0, -2.0, 0.5, 3.0],
                     scale=[1.0, 2.0, 0.5, 1.5, 3.0])
GAUSS3 = JointLossModel([Normal(1.0, 2.0), Normal(), Normal(-1.0, 0.5)],
                        GaussianCopula(equicorrelation(3, 0.4)))
ORACLES = [
    ("M2", CrisisEventSpec("es", (0.99,)),
     [3.740788686495134, 3.1173239054126114, 3.740788686495134]),
    ("M2", CrisisEventSpec("rvar", (0.9, 0.99)),
     [1.733534593491821, 1.444612161243184, 1.733534593491821]),
    (GAUSS3, CrisisEventSpec("es", (0.99,)),
     [5.8846958285005995, 1.878729164807923, -0.20154010495663266]),
    (GAUSS3, CrisisEventSpec("var", (0.99,)),
     [5.263635421581288, 1.6398597775312649, -0.3030595945492124]),
    (T5, CrisisEventSpec("es", (0.99,)),
     [1.4116095465933904, 5.457714357663338, -1.4985071347628744, 3.230350044068795,
      12.138314433209842]),
    (T5, CrisisEventSpec("rvar", (0.9, 0.99)),
     [0.69385417007541, 3.1911184318170838, -1.753499176420578, 1.842060039487964,
      7.491792785225022]),
]


@pytest.mark.parametrize("k", range(len(ORACLES)))
def test_oracle_for_gives_the_same_vectors(k):
    model, event, want = ORACLES[k]
    assert oracle_for(model, event).tolist() == want


def test_oracle_for_needs_the_predicate():
    for model in ["M1", "M3", *COPULA_ROUTE_MODELS.values()]:
        assert oracle_for(model, CrisisEventSpec("es", (0.99,))) is None


class ScriptedRng:
    """Hands out given standard normals and chi-square values, so that the
    scores can land anywhere, near and past the clamps included."""

    def __init__(self, normals, chi2):
        self.normals, self.chi2 = normals, chi2

    def standard_normal(self, shape):
        assert shape == self.normals.shape
        return self.normals.copy()

    def chisquare(self, df, size):
        assert size == self.chi2.size
        return self.chi2.copy()


@settings(max_examples=80, deadline=None)
@given(
    nu=st.one_of(st.none(), st.floats(0.5, 50.0)),
    d=st.integers(2, 5),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_score_route_sample_equals_the_copula_round_trip(nu, d, seed, data):
    # nu None is the Gaussian copula with normal margins
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(d, d + 1))
    cov = a @ a.T
    sd = np.sqrt(np.diag(cov))
    corr = cov / np.outer(sd, sd)
    np.fill_diagonal(corr, 1.0)
    loc = data.draw(st.lists(st.floats(-100.0, 100.0), min_size=d, max_size=d))
    scale = data.draw(st.lists(st.floats(1e-3, 1e3), min_size=d, max_size=d))
    if nu is None:
        model = JointLossModel([Normal(l, s) for l, s in zip(loc, scale)], GaussianCopula(corr))
    else:
        model = student_t_model(nu, corr, loc, scale)
    ell = model.elliptical()
    assert ell is not None
    # rows from the body to far past the clamps, and radial factors from
    # tiny to large
    n = 500
    normals = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-3.0, 30.0, size=(n, 1))
    chi2 = rng.chisquare(nu or 1.0, size=n) * 10.0 ** rng.uniform(-30.0, 3.0, size=n)
    x = model.sample(n, ScriptedRng(normals, chi2))
    u = model.copula.sample(n, ScriptedRng(normals, chi2))
    ref = np.column_stack([m.quantile(u[:, j]) for j, m in enumerate(model.marginals)])
    # at and past the clamps the two are equal: mu + sigma q_lo or q_hi
    clamped = (u == U_EPS) | (u == 1.0 - U_EPS)
    assert clamped.any() and (~clamped).any()
    assert np.array_equal(x[clamped], ref[clamped])
    z, z_ref = (x - ell.mu) / ell.sigma, (ref - ell.mu) / ell.sigma
    # the scores agree to 1e-9 (relative above 1) where the round trip
    # resolves the level; above 1 - 1e-6 it is coarse (the spacing of
    # doubles below 1 is 1.1e-16), and the levels agree instead
    body = u <= 1.0 - 1e-6
    assert (np.abs(z - z_ref) <= 1e-9 * np.maximum(1.0, np.abs(z_ref)))[body].all()
    cdf = ell.generator.cdf
    assert np.abs(cdf(z) - cdf(z_ref)).max() <= 1e-12

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from riskalloc import copulas
from riskalloc.copulas import (
    SCORE_BLOCK,
    U_EPS,
    Clayton,
    Copula,
    GaussianCopula,
    Independence,
    StudentTCopula,
    SurvivalClayton,
)
from riskalloc.marginals import GPD
from riskalloc.models import model_from_dict, preset

R3 = np.array([[1.0, 1.0 / 3.0, 2.0 / 3.0],
               [1.0 / 3.0, 1.0, 1.0 / 3.0],
               [2.0 / 3.0, 1.0 / 3.0, 1.0]])

ALL_COPULAS = [
    Independence(3),
    Clayton(2.0, 3),
    Clayton(0.512, 2),
    SurvivalClayton(2.0, 3),
    SurvivalClayton(0.512, 2),
    GaussianCopula(R3),
    StudentTCopula(5.0, R3),
]

IDS = [f"{type(c).__name__}-d{c.dim}" for c in ALL_COPULAS]


def rand_u(rng, d, n=1):
    return rng.uniform(0.03, 0.97, size=(n, d))


def test_independence_trivials():
    c = Independence(3)
    u = np.array([0.2, 0.5, 0.9])
    assert c.density(u) == 1.0
    assert np.all(c.grad_logdensity(u) == 0.0)
    assert c.hfun(1, 0.7, np.array([0.2, 0.9])) == 0.7
    assert c.hfun_inv(1, 0.7, np.array([0.2, 0.9])) == 0.7


def test_clayton_density_matches_numeric_mixed_partial():
    # independent oracle: c = d^2 C / du1 du2 by central differences of the cdf
    th = 2.0
    cop = Clayton(th, 2)

    def cdf(u1, u2):
        return (u1 ** -th + u2 ** -th - 1.0) ** (-1.0 / th)

    h = 1e-5
    for u in [(0.5, 0.5), (0.3, 0.7), (0.8, 0.2)]:
        u1, u2 = u
        num = (
            cdf(u1 + h, u2 + h) - cdf(u1 + h, u2 - h)
            - cdf(u1 - h, u2 + h) + cdf(u1 - h, u2 - h)
        ) / (4.0 * h * h)
        assert cop.density(np.array(u)) == pytest.approx(num, rel=1e-5)


def test_clayton_hfun_closed_value():
    # u1^(-theta-1) (u1^-theta + u2^-theta - 1)^(-1/theta-1) = 8 * 7^(-1.5)
    cop = Clayton(2.0, 2)
    val = cop.hfun(1, 0.5, np.array([0.5]))
    assert val == pytest.approx(8.0 * 7.0 ** -1.5, rel=1e-12)
    assert val == pytest.approx(0.431959, abs=1e-6)


def test_clayton_hfun_matches_numeric_partial_of_cdf():
    th = 2.0
    cop = Clayton(th, 2)

    def cdf(u1, u2):
        return (u1 ** -th + u2 ** -th - 1.0) ** (-1.0 / th)

    h = 1e-6
    for u1, u2 in [(0.5, 0.5), (0.25, 0.6), (0.9, 0.4)]:
        num = (cdf(u1 + h, u2) - cdf(u1 - h, u2)) / (2.0 * h)  # d C / du1 = h(u2 -> cond on u1)
        assert cop.hfun(1, u2, np.array([u1])) == pytest.approx(num, rel=1e-6)


def test_survival_clayton_density_is_clayton_at_reflected_point():
    sc, c = SurvivalClayton(2.0, 3), Clayton(2.0, 3)
    rng = np.random.default_rng(1)
    for u in rand_u(rng, 3, 5):
        assert sc.density(u) == pytest.approx(c.density(1.0 - u), rel=1e-12)


def test_survival_rotation_involution():
    # rotating the h-function twice gives back the original values
    base = Clayton(2.0, 3)
    rng = np.random.default_rng(2)

    def rot(h):
        return lambda j, uj, u_rest: 1.0 - h(j, 1.0 - uj, 1.0 - u_rest)

    twice = rot(rot(base.hfun))
    for _ in range(20):
        u = rand_u(rng, 3)[0]
        j = int(rng.integers(3))
        rest = np.delete(u, j)
        assert twice(j, u[j], rest) == pytest.approx(base.hfun(j, u[j], rest), abs=1e-12)


def test_survival_clayton_hfun_definition():
    sc, c = SurvivalClayton(2.0, 3), Clayton(2.0, 3)
    rng = np.random.default_rng(3)
    for u in rand_u(rng, 3, 10):
        j = 1
        rest = np.delete(u, j)
        assert sc.hfun(j, u[j], rest) == pytest.approx(
            1.0 - c.hfun(j, 1.0 - u[j], 1.0 - rest), abs=1e-12
        )


@pytest.mark.parametrize("cop", ALL_COPULAS, ids=IDS)
def test_grad_logdensity_matches_finite_differences(cop):
    rng = np.random.default_rng(11)
    step = 1e-6
    for u in rand_u(rng, cop.dim, 25):
        g = cop.grad_logdensity(u)
        for j in range(cop.dim):
            up, dn = u.copy(), u.copy()
            up[j] += step
            dn[j] -= step
            fd = (cop.logdensity(up) - cop.logdensity(dn)) / (2.0 * step)
            assert g[j] == pytest.approx(fd, rel=1e-5, abs=1e-7)


@pytest.mark.parametrize("cop", ALL_COPULAS, ids=IDS)
def test_density_of_a_batch_equals_its_point_calls(cop):
    # a point keeps libm's log where a batch takes numpy's, hence rel=1e-12
    u = rand_u(np.random.default_rng(12), cop.dim, 6)
    batch = cop.density(u)
    assert batch.shape == (6,)
    for row, c in zip(u, batch):
        assert c == pytest.approx(cop.density(row), rel=1e-12)


@pytest.mark.parametrize("cop", ALL_COPULAS, ids=IDS)
def test_hfun_roundtrip_on_grid(cop):
    # |h(h_inv(p | u), u) - p| <= 1e-8 on a 10x10 random grid per coordinate
    rng = np.random.default_rng(17)
    for j in range(cop.dim):
        for _ in range(10):
            u_rest = rng.uniform(0.02, 0.98, size=cop.dim - 1)
            p = rng.uniform(0.02, 0.98, size=10)
            uj = cop.hfun_inv(j, p, u_rest)
            back = cop.hfun(j, uj, u_rest)
            assert np.max(np.abs(back - p)) <= 1e-8


# a level within 1e-10 of the 1e-12 clamp, on either side of it, or anywhere
LEVEL = st.one_of(
    st.floats(0.0, U_EPS + 1e-10, exclude_min=True),
    st.floats(1.0 - U_EPS - 1e-10, 1.0, exclude_max=True),
    st.floats(U_EPS, 1.0 - U_EPS),
)


@pytest.mark.parametrize("cop", ALL_COPULAS, ids=IDS)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_conditional_ppf_inverts_cdf_near_the_clamp(cop, data):
    j = data.draw(st.integers(0, cop.dim - 1))
    u_rest = np.array(data.draw(st.lists(LEVEL, min_size=cop.dim - 1, max_size=cop.dim - 1)))
    u = data.draw(LEVEL)
    cdf, ppf = cop.conditional(j, u_rest)
    q = cdf(u)
    back = ppf(q)
    # ppf(cdf(u)) lies on u's level set everywhere ...
    assert abs(cdf(back) - q) <= 1e-8
    # ... and is u itself wherever the conditional cdf is not flat to rounding
    if 1e-6 < q < 1.0 - 1e-6:
        assert abs(back - u) <= 1e-8
    # hfun and hfun_inv evaluate the same pair
    assert cop.hfun(j, u, u_rest) == q
    assert cop.hfun_inv(j, q, u_rest) == back


@settings(max_examples=500, deadline=None)
@given(
    nu=st.one_of(st.sampled_from([5.0, 7.0]), st.floats(0.5, 50.0)),
    t=st.floats(allow_nan=False),
    p=st.one_of(st.sampled_from([U_EPS, 1.0 - U_EPS]), LEVEL),
)
def test_score_law_equals_the_conditional_ufuncs(nu, t, p):
    # score_law, the one float path, goes through cython_special; conditional
    # runs _cond_cdf and _cond_ppf, the ufuncs; the two agree bit for bit:
    # at +-inf, near the clamp and anywhere else
    for cop in (GaussianCopula(R3), StudentTCopula(nu, R3)):
        for fn, ufunc, arg in [(cop.score_law[0], cop._cond_cdf, t), (cop.score_law[1], cop._cond_ppf, p)]:
            got = fn(arg)
            want = ufunc(np.array([arg]))[0]
            assert type(got) is float
            assert got.hex() == float(want).hex()


@pytest.mark.parametrize("nu", [None, 5.0, 0.7], ids=["gaussian", "t5", "t0.7"])
@settings(max_examples=300, deadline=None)
@given(data=st.data(), numpy_scalars=st.booleans())
def test_elliptical_conditional_on_floats_equals_its_array_path(nu, data, numpy_scalars):
    # a Gibbs chain's list of levels (np.float64 on the copula route) takes
    # level_law and score_law, cython_special on floats; an array takes the
    # ufuncs; the two give the same bits, and NaN passes through both
    cop = GaussianCopula(R3) if nu is None else StudentTCopula(nu, R3)
    level = st.one_of(LEVEL, st.just(math.nan))
    j = data.draw(st.integers(0, 2))
    u_rest = data.draw(st.lists(level, min_size=2, max_size=2))
    uj, p = data.draw(level), data.draw(level)
    if numpy_scalars:
        u_rest = [np.float64(u) for u in u_rest]
    cdf, ppf = cop.conditional(j, u_rest)
    cdf_a, ppf_a = cop.conditional(j, np.array(u_rest, dtype=float))
    for got, want in [(cdf(uj), cdf_a(np.array([uj]))[0]), (ppf(p), ppf_a(np.array([p]))[0])]:
        assert float(got).hex() == float(want).hex()
    # and each pair at the other's arguments
    assert float(cdf_a(uj)).hex() == float(cdf(uj)).hex()
    assert float(ppf(np.array([p]))[0]).hex() == float(ppf(p)).hex()


CONCRETE_COPULAS = [Independence, Clayton, SurvivalClayton, GaussianCopula, StudentTCopula]


@pytest.mark.parametrize("cls", CONCRETE_COPULAS, ids=[c.__name__ for c in CONCRETE_COPULAS])
def test_every_copula_binds_the_one_hfun_pair(cls):
    # one body each, on Copula; the class's own binding is what a tracer
    # that wraps only the methods a class defines finds
    assert vars(cls)["hfun"] is Copula.hfun
    assert vars(cls)["hfun_inv"] is Copula.hfun_inv


@pytest.mark.parametrize("cop", ALL_COPULAS, ids=IDS)
def test_conditional_rejects_a_misshapen_u_rest(cop):
    # a (d-1, 1) or (1, d-1) array has the right number of entries, or the
    # right length, but not the shape (d-1,)
    j, d = 0, cop.dim
    for u_rest in (np.full((d - 1, 1), 0.5), np.full((1, d - 1), 0.5), 0.5):
        for call in (lambda: cop.conditional(j, u_rest), lambda: cop.hfun(j, 0.5, u_rest),
                     lambda: cop.hfun_inv(j, 0.5, u_rest)):
            with pytest.raises(ValueError, match=f"u_rest must have length {d - 1}"):
                call()


# the clamp's and the quantile check's edges, and any float at all
EDGE_FLOAT = st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, U_EPS, 1.0 - U_EPS, 1.0, -1.0, math.inf, -math.inf]),
    st.floats(0.0, 1.0),
    st.floats(),
)


@settings(max_examples=500, deadline=None)
@given(u=EDGE_FLOAT, numpy_scalar=st.booleans())
def test_float_fast_paths_equal_the_array_paths(u, numpy_scalar):
    # clip01 and the marginals' quantile check take a float (an np.float64
    # too) without a ufunc; each gives the bits, the type and the error of
    # its array path on the 0-d array, and passes NaN through
    if numpy_scalar:
        u = np.float64(u)
    got, want = copulas.clip01(u), copulas.clip01(np.array(u))
    assert type(got) is type(want) is np.float64
    assert got.hex() == want.hex()
    check = GPD(0.3, 1.0)._check_quantile_arg

    def outcome(arg):
        try:
            out = check(arg)
        except ValueError as err:
            return "raised", str(err)
        return "returned", float(out).hex()

    assert outcome(u) == outcome(np.array(u))
    if outcome(u)[0] == "returned":
        assert type(check(u)) is np.float64
    if math.isnan(u):
        assert math.isnan(copulas.clip01(u)) and math.isnan(check(u))


@pytest.mark.parametrize("cop", ALL_COPULAS, ids=IDS)
def test_hfun_nondecreasing_in_uj(cop):
    rng = np.random.default_rng(23)
    grid = np.linspace(0.01, 0.99, 50)
    for j in range(cop.dim):
        u_rest = rng.uniform(0.05, 0.95, size=cop.dim - 1)
        vals = cop.hfun(j, grid, u_rest)
        assert np.all(np.diff(vals) >= -1e-12)
        assert np.all((vals >= 0.0) & (vals <= 1.0))


@pytest.mark.parametrize("cop", ALL_COPULAS, ids=IDS)
def test_hfun_derivative_equals_density_ratio(cop):
    # d/du_j C_{j|-j}(u_j|u_-j) = c(u) / c_rest(u_-j); ties h to the density
    if isinstance(cop, Independence):
        return
    rng = np.random.default_rng(29)
    if cop.dim == 2:
        def rest_logdensity(u_rest):
            return 0.0
    elif isinstance(cop, (Clayton, SurvivalClayton)):
        sub = type(cop)(cop.theta, cop.dim - 1)

        def rest_logdensity(u_rest):
            return sub.logdensity(u_rest)
    else:
        return  # elliptical d=3 handled via the separate slicing test below

    j = cop.dim - 1
    for _ in range(10):
        u = rand_u(rng, cop.dim)[0]
        rest = np.delete(u, j)
        step = 1e-6
        fd = (cop.hfun(j, u[j] + step, rest) - cop.hfun(j, u[j] - step, rest)) / (2.0 * step)
        ratio = math.exp(cop.logdensity(u) - rest_logdensity(rest))
        assert fd == pytest.approx(ratio, rel=1e-4)


@pytest.mark.parametrize("cop", [GaussianCopula(R3), StudentTCopula(5.0, R3)],
                         ids=["gaussian", "studentt"])
def test_elliptical_hfun_derivative_equals_density_ratio(cop):
    # same identity; the margin copula of the rest is the elliptical sub-copula
    rest_idx = [0, 1]
    if isinstance(cop, StudentTCopula):
        sub = StudentTCopula(cop.nu, cop.corr[np.ix_(rest_idx, rest_idx)])
    else:
        sub = GaussianCopula(cop.corr[np.ix_(rest_idx, rest_idx)])
    rng = np.random.default_rng(31)
    j = 2
    for _ in range(10):
        u = rand_u(rng, 3)[0]
        rest = u[rest_idx]
        step = 1e-6
        fd = (cop.hfun(j, u[j] + step, rest) - cop.hfun(j, u[j] - step, rest)) / (2.0 * step)
        ratio = math.exp(cop.logdensity(u) - sub.logdensity(rest))
        assert fd == pytest.approx(ratio, rel=1e-4)


def test_gaussian_identity_correlation_reduces_to_independence():
    cop = GaussianCopula(np.eye(3))
    u = np.array([0.2, 0.6, 0.9])
    assert cop.density(u) == pytest.approx(1.0, rel=1e-12)
    assert np.allclose(cop.grad_logdensity(u), 0.0, atol=1e-9)
    assert cop.hfun(0, 0.3, u[1:]) == pytest.approx(0.3, abs=1e-12)
    assert cop.hfun_inv(0, 0.3, u[1:]) == pytest.approx(0.3, abs=1e-10)


@pytest.mark.parametrize("cop", ALL_COPULAS, ids=IDS)
def test_sample_margins_uniform(cop):
    rng = np.random.default_rng(5)
    u = cop.sample(20_000, rng)
    assert u.shape == (20_000, cop.dim)
    for j in range(cop.dim):
        ks = stats.kstest(u[:, j], "uniform").statistic
        assert ks < 0.015


def test_sample_kendall_tau_values():
    rng = np.random.default_rng(41)
    n = 100_000

    u = SurvivalClayton(2.0, 3).sample(n, rng)
    # Kendall's tau of Clayton-family copulas: theta/(theta+2) = 0.5
    tau = stats.kendalltau(u[:20_000, 0], u[:20_000, 1]).statistic
    assert tau == pytest.approx(0.5, abs=0.02)

    u = Independence(2).sample(n, rng)
    tau = stats.kendalltau(u[:20_000, 0], u[:20_000, 1]).statistic
    assert tau == pytest.approx(0.0, abs=0.02)

    u = StudentTCopula(5.0, R3).sample(n, rng)
    # elliptical: tau = (2/pi) arcsin(rho)
    tau = stats.kendalltau(u[:20_000, 0], u[:20_000, 2]).statistic
    assert tau == pytest.approx(2.0 / math.pi * math.asin(2.0 / 3.0), abs=0.02)


@pytest.mark.parametrize(
    "n", [1, SCORE_BLOCK - 1, SCORE_BLOCK, SCORE_BLOCK + 1, 2 * SCORE_BLOCK + 1, 10**5, 2**17]
)
@pytest.mark.parametrize("cop", [GaussianCopula(R3), StudentTCopula(5.0, R3)], ids=["gauss", "t"])
def test_sample_scores_equal_the_one_shot_product(cop, n):
    # the reference draws all n rows of normals at once; the blockwise draw
    # must give the same bits and leave the generator in the same state.
    # Several seeds: a row multiplied alone can differ in its last bit, on
    # about half the rows
    for seed in range(8):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        want = ref_rng.standard_normal((n, cop.dim)) @ cop._chol.T
        if isinstance(cop, StudentTCopula):
            want = want / np.sqrt(ref_rng.chisquare(cop.nu, n) / cop.nu)[:, None]
        got = cop.sample_scores(n, rng)
        assert got.shape == want.shape and np.array_equal(got, want), seed
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_score_route_sample_peaks_below_one_and_a_half_outputs():
    model, rng = preset("M2"), np.random.default_rng(0)
    model.sample(100, rng)
    tracemalloc.start()
    try:
        x = model.sample(10**5, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * x.nbytes


def test_copula_route_sample_peaks_below_1_7_outputs():
    model, rng = preset("M1"), np.random.default_rng(0)
    model.sample(100, rng)
    tracemalloc.start()
    try:
        x = model.sample(10**5, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.7 * x.nbytes


@pytest.mark.parametrize("cop", [Clayton(2.0, 3), SurvivalClayton(0.512, 2)], ids=["clayton", "survival"])
def test_clayton_sample_in_place_equals_the_formula(cop):
    # the reference builds (1 + E/V)^(-1/theta), its clamp and the mirror as
    # new arrays; the sampler computes them inside E, to the same bits
    rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
    theta = cop.theta
    v = ref_rng.gamma(1.0 / theta, 1.0, size=1000)
    e = ref_rng.exponential(size=(1000, cop.dim))
    want = np.clip((1.0 + e / v[:, None]) ** (-1.0 / theta), U_EPS, 1.0 - U_EPS)
    if isinstance(cop, SurvivalClayton):
        want = 1.0 - want
    assert np.array_equal(cop.sample(1000, rng), want)


def test_boundary_arguments_rejected():
    cop = Clayton(2.0, 2)
    with pytest.raises(ValueError):
        cop.logdensity(np.array([0.0, 0.5]))
    with pytest.raises(ValueError):
        cop.grad_logdensity(np.array([0.5, 1.0]))


def test_parameter_validation():
    with pytest.raises(ValueError):
        Clayton(0.0, 2)
    with pytest.raises(ValueError):
        Clayton(2.0, 1)
    with pytest.raises(ValueError):
        GaussianCopula(np.array([[1.0, 0.5], [0.4, 1.0]]))
    with pytest.raises(ValueError):
        GaussianCopula(np.array([[1.0, 1.2], [1.2, 1.0]]))
    with pytest.raises(ValueError):
        StudentTCopula(-1.0, np.eye(2))


def test_copula_from_dict():
    def copula(cfg):
        gpd3 = [{"kind": "gpd", "params": [0.3, 1.0]}] * 3
        return model_from_dict({"marginals": gpd3, "copula": cfg}).copula

    c = copula({"kind": "SurvivalClayton", "theta": 2.0})
    assert isinstance(c, SurvivalClayton) and c.dim == 3 and c.theta == 2.0
    c = copula({"kind": "studentt", "nu": 5.0, "corr": R3.tolist()})
    assert isinstance(c, StudentTCopula) and c.nu == 5.0 and np.array_equal(c.corr, R3)
    assert isinstance(copula({"kind": "independence"}), Independence)
    with pytest.raises(ValueError, match=r"^unknown copula kind 'vine'; expected one of \['clayton', "):
        copula({"kind": "vine"})

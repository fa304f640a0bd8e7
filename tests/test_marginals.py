import numpy as np
import pytest

from riskalloc.marginals import GPD, Normal, Pareto, StudentT
from riskalloc.models import model_from_dict


def bisect_quantile(cdf, u, lo, hi, tol=1e-12):
    """Independent quantile oracle: bisection of a monotone cdf."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if cdf(mid) >= u:
            hi = mid
        else:
            lo = mid
        if hi - lo < tol * max(1.0, abs(hi)):
            break
    return 0.5 * (lo + hi)


def test_gpd_cdf_at_lower_endpoint_is_zero():
    assert GPD(0.3, 1.0).cdf(0.0) == 0.0


def test_gpd_quantile_closed_form_and_bisection():
    m = GPD(0.3, 1.0)
    q = m.quantile(0.99)
    # (beta/xi)*((1-u)^(-xi)-1) at u=0.99
    assert q == pytest.approx((1.0 / 0.3) * (0.01 ** -0.3 - 1.0), rel=1e-12)
    assert q == pytest.approx(9.9369, abs=5e-5)
    assert q == pytest.approx(bisect_quantile(m.cdf, 0.99, 0.0, 100.0), rel=1e-9)


def test_pareto_quantile_closed_form_and_bisection():
    m = Pareto(14036.0, 1.122)
    q = m.quantile(0.99)
    assert q == pytest.approx(14036.0 * (0.01 ** (-1.0 / 1.122) - 1.0), rel=1e-12)
    assert q == pytest.approx(8.369e5, rel=1e-3)
    assert q == pytest.approx(bisect_quantile(m.cdf, 0.99, 0.0, 1e8), rel=1e-9)


ALL_MARGINALS = [
    GPD(0.3, 1.0),
    GPD(0.0, 2.0),
    Pareto(14036.0, 1.122),
    Pareto(14219.0, 2.118),
    StudentT(5.0),
    StudentT(6.0, 1.0, 2.0),
    Normal(0.0, 1.0),
    Normal(-1.0, 0.5),
]


@pytest.mark.parametrize("m", ALL_MARGINALS, ids=lambda m: type(m).__name__ + repr(vars(m)))
def test_quantile_cdf_roundtrip(m):
    u = np.linspace(0.001, 0.999, 41)
    assert np.allclose(m.cdf(m.quantile(u)), u, atol=1e-10)


@pytest.mark.parametrize("m", ALL_MARGINALS, ids=lambda m: type(m).__name__ + repr(vars(m)))
def test_dlogpdf_matches_finite_differences(m):
    rng = np.random.default_rng(7)
    x = m.quantile(rng.uniform(0.05, 0.95, size=25))
    h = 1e-6 * np.maximum(1.0, np.abs(x))
    fd = (m.logpdf(x + h) - m.logpdf(x - h)) / (2.0 * h)
    assert np.allclose(m.dlogpdf(x), fd, rtol=1e-5, atol=1e-8)


@pytest.mark.parametrize("m", ALL_MARGINALS, ids=lambda m: type(m).__name__ + repr(vars(m)))
def test_pdf_integrates_to_one(m):
    # quadrature nodes spaced by equal probability so heavy tails are resolved
    x = m.quantile(np.linspace(1e-6, 1.0 - 1e-6, 400_001))
    total = np.trapezoid(m.pdf(x), x)
    assert total == pytest.approx(1.0, abs=2e-4)


def test_out_of_support_behaviour():
    m = GPD(0.3, 1.0)
    assert m.logpdf(-1.0) == -np.inf
    assert m.pdf(-0.5) == 0.0
    assert m.cdf(-3.0) == 0.0
    with pytest.raises(ValueError):
        m.dlogpdf(-1.0)
    with pytest.raises(ValueError):
        m.quantile(0.0)
    with pytest.raises(ValueError):
        m.quantile(1.0)


def test_parameter_validation():
    with pytest.raises(ValueError):
        GPD(-0.1, 1.0)
    with pytest.raises(ValueError):
        GPD(0.3, 0.0)
    with pytest.raises(ValueError):
        Pareto(0.0, 1.0)
    with pytest.raises(ValueError):
        Pareto(1.0, -2.0)
    with pytest.raises(ValueError):
        StudentT(0.0)
    with pytest.raises(ValueError):
        Normal(0.0, 0.0)


def test_exponential_special_case_of_gpd():
    m = GPD(0.0, 2.0)
    x = np.array([0.0, 0.5, 1.0, 4.0])
    assert np.allclose(m.cdf(x), 1.0 - np.exp(-x / 2.0))
    assert np.allclose(m.quantile(0.5), 2.0 * np.log(2.0))


def test_marginal_from_dict():
    def marginal(cfg):
        return model_from_dict({"marginals": [cfg] * 2, "copula": {"kind": "independence"}}).marginals[0]

    m = marginal({"kind": "GPD", "params": [0.3, 1.0]})
    assert isinstance(m, GPD) and m.xi == 0.3 and m.beta == 1.0
    m = marginal({"kind": "studentt", "params": [5.0, 0.0, 1.0]})
    assert isinstance(m, StudentT)
    # the constructor's defaults fill the params left out
    m = marginal({"kind": "studentt", "params": [5.0]})
    assert (m.nu, m.mu, m.sigma) == (5.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="unknown marginal kind 'uniform'"):
        marginal({"kind": "uniform", "params": [0, 1]})

"""Acceptance suite: ten go/no-go checks, one test and one printed verdict each.

Heavy sampler runs are shared through module-scoped fixtures; every check
pins its seeds, so reruns are exact. Run with -s to see the verdict lines.
"""

import time
from collections import namedtuple

import numpy as np
import pytest
from scipy import stats

from riskalloc.copulas import Independence
from riskalloc.events import CrisisEventSpec, EventTarget, HalfSpaces, estimate_event
from riskalloc.gibbs import (
    GibbsParams,
    rsgs_sample,
    select_probs,
    thin_interval,
)
from riskalloc.harness import RunConfig, run
from riskalloc.hmc import HmcParams, hmc_sample, leapfrog_reflect
from riskalloc.marginals import GPD
from riskalloc.models import JointLossModel, equicorrelation, preset, student_t_model
from riskalloc.oracle import elliptical_oracle

Timed = namedtuple("Timed", ["report", "seconds"])

VAR99 = CrisisEventSpec("var", (0.99,), delta=0.001)
RVAR_TAIL = CrisisEventSpec("rvar", (0.975, 0.99))
ES99 = CrisisEventSpec("es", (0.99,))


def _timed_run(config) -> Timed:
    t0 = time.perf_counter()
    rep = run(config)
    return Timed(rep, time.perf_counter() - t0)


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _pairwise_gap_ok(rep) -> tuple:
    worst = 0.0
    ok = True
    for i in range(rep.d):
        for j in range(i + 1, rep.d):
            gap = abs(rep.estimates[i] - rep.estimates[j])
            budget = 3.0 * (rep.ses[i] + rep.ses[j])
            worst = max(worst, gap / budget)
            ok = ok and gap <= budget
    return ok, worst


@pytest.fixture(scope="module")
def m1_var_hmc():
    return _timed_run(RunConfig("M1", VAR99, "hmc", n_mc=100_000, n_mcmc=10_000, seed=0))


@pytest.fixture(scope="module")
def m1_rvar_hmc():
    return _timed_run(RunConfig("M1", RVAR_TAIL, "hmc", n_mc=100_000, n_mcmc=10_000, seed=0))


def test_criterion_01_full_allocation_identity(m1_var_hmc):
    rep, secs = m1_var_hmc
    v_star = rep.event.thresholds["v_star"]
    rel = abs(rep.sum_estimate() - v_star) / abs(v_star)
    ok = rel <= 1e-9 and secs < 120.0
    _verdict(1, ok, f"sum vs v* relative error {rel:.2e} (budget 1e-9), {secs:.0f}s of 120s")


def test_criterion_02_exchangeable_contributions(m1_var_hmc, m1_rvar_hmc):
    var_rep, var_secs = m1_var_hmc
    rvar_rep, rvar_secs = m1_rvar_hmc
    var_ok, var_worst = _pairwise_gap_ok(var_rep)
    rvar_ok, rvar_worst = _pairwise_gap_ok(rvar_rep)
    in_var = bool(np.all((var_rep.estimates >= 9.0) & (var_rep.estimates <= 10.2)))
    in_rvar = bool(np.all((rvar_rep.estimates >= 7.4) & (rvar_rep.estimates <= 8.2)))
    ok = (
        var_ok and rvar_ok and in_var and in_rvar
        and var_secs < 180.0 and rvar_secs < 180.0
    )
    _verdict(
        2,
        ok,
        f"var estimates {np.round(var_rep.estimates, 3).tolist()} in [9.0, 10.2]: {in_var}, "
        f"rvar estimates {np.round(rvar_rep.estimates, 3).tolist()} in [7.4, 8.2]: {in_rvar}, "
        f"worst pairwise gap / 3(SEi+SEj) = {max(var_worst, rvar_worst):.2f}",
    )


def test_criterion_03_elliptical_oracle_coverage():
    t0 = time.perf_counter()
    model = student_t_model(6.0, equicorrelation(5, 1.0 / 12.0))
    oracle = elliptical_oracle(model, "es", (0.99,))
    hits = 0
    for seed in range(10):
        rep = run(RunConfig(model, ES99, "gibbs", n_mc=100_000, n_mcmc=10_000, seed=seed))
        hits += int(np.sum(np.abs(rep.estimates - oracle) <= 3.0 * rep.ses))
    secs = time.perf_counter() - t0
    ok = hits >= 45 and secs < 600.0
    _verdict(3, ok, f"{hits}/50 coordinate checks within 3 SEs (need 45), {secs:.0f}s of 600s")


def test_criterion_04_variance_advantage(m1_var_hmc):
    hmc_rep, hmc_secs = m1_var_hmc
    mc = _timed_run(RunConfig("M1", VAR99, "mc", n_mc=100_000, seed=0))
    ratios = mc.report.ses / hmc_rep.ses
    secs = hmc_secs + mc.seconds
    ok = bool(np.all(ratios >= 5.0)) and secs < 300.0
    _verdict(4, ok, f"MC/HMC SE ratios {np.round(ratios, 1).tolist()} (need >= 5 each), {secs:.0f}s of 300s")


def test_criterion_05_tuned_acceptance_rate(m1_rvar_hmc):
    rep, secs = m1_rvar_hmc
    acr = rep.engine_details["acr"]
    ok = rep.engine_details["tuned"] and acr >= 0.95 and secs < 180.0
    _verdict(5, ok, f"tuned ACR {acr:.4f} over 10^4 proposals (need 0.95), {secs:.0f}s of 180s")


class _StdNormal3:
    dim = 3
    constraints = HalfSpaces(np.empty((0, 3)), [])

    def feasible(self, x):
        return True

    def logpdf(self, x):
        return -0.5 * float(np.dot(x, x))

    def grad_logpdf(self, x):
        return -np.asarray(x, dtype=float)


def test_criterion_06_energy_error_scaling():
    t0 = time.perf_counter()
    eps_grid = (0.4, 0.2, 0.1)
    means = []
    for eps in eps_grid:
        T = round(2.0 / eps)  # fixed eps*T = 2
        _, diag = hmc_sample(_StdNormal3(), HmcParams(eps, T), np.zeros(3), 2000, 0)
        means.append(float(np.abs(diag.hamiltonian_errors).mean()))
    slope = float(np.polyfit(np.log(eps_grid), np.log(means), 1)[0])
    secs = time.perf_counter() - t0
    ok = 1.7 <= slope <= 2.3 and secs < 60.0
    _verdict(6, ok, f"log mean|dH| vs log eps slope {slope:.3f} (need [1.7, 2.3]), {secs:.0f}s of 60s")


def test_criterion_07_integrator_reversibility():
    t0 = time.perf_counter()
    model = preset("M1")
    rng = np.random.default_rng(0)
    draws = model.sample(200_000, rng)
    event = estimate_event(RVAR_TAIL, draws, model.nonnegative)
    target = EventTarget(model, event)
    pool = draws[event.contains_rows(draws)]
    pool = pool[(target.constraints.slack(pool) > 1e-9).all(axis=1)]

    def grad_u(z):
        return -target.grad_logpdf(z)

    kept = 0
    worst = 0.0
    while kept < 1000:
        x0 = pool[rng.integers(len(pool))]
        p0 = rng.standard_normal(3)
        eps = rng.uniform(0.01, 0.3)
        T = int(rng.integers(1, 21))
        x, p, n_ref = x0, p0, 0
        feasible_case = True
        for _ in range(T):
            try:
                x, p, k = leapfrog_reflect(x, p, eps, grad_u, target.constraints)
            except RuntimeError:
                feasible_case = False
                break
            n_ref += k
        if not feasible_case or n_ref > 3:
            continue
        kept += 1
        xb, pb = x, -p
        for _ in range(T):
            xb, pb, _ = leapfrog_reflect(xb, pb, eps, grad_u, target.constraints)
        err = max(float(np.max(np.abs(xb - x0))), float(np.max(np.abs(-pb - p0))))
        worst = max(worst, err)
    secs = time.perf_counter() - t0
    ok = worst <= 1e-8 and secs < 60.0
    _verdict(7, ok, f"worst round trip over 1000 cases {worst:.2e} (budget 1e-8), {secs:.0f}s of 60s")


def test_criterion_08_gibbs_stationarity():
    t0 = time.perf_counter()
    model = JointLossModel([GPD(0.3, 1.0), GPD(0.3, 1.0)], Independence(2))
    spec = CrisisEventSpec("rvar", (0.5, 0.9))
    passed = 0
    worst_p = 1.0
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        draws = model.sample(60_000, rng)
        event = estimate_event(spec, draws, model.nonnegative)
        cond = draws[event.contains_rows(draws)]
        mc_rows = cond[:10_000]
        p = select_probs(np.atleast_2d(np.cov(cond, rowvar=False)))
        pre_path, _ = rsgs_sample(model, event, GibbsParams(p, 1), cond.mean(axis=0), 100, seed)
        thin = thin_interval(pre_path, 0.15)
        path, _ = rsgs_sample(
            model, event, GibbsParams(p, thin.interval), pre_path[-1], 10_000, 10_000 + seed
        )
        pvals = [stats.ks_2samp(path[:, j], mc_rows[:, j]).pvalue for j in range(2)]
        worst_p = min(worst_p, *pvals)
        passed += int(all(pv > 0.01 for pv in pvals))
    secs = time.perf_counter() - t0
    ok = passed >= 19 and secs < 300.0
    _verdict(8, ok, f"{passed}/20 seeds pass both-margin KS at 1% (need 19), worst p {worst_p:.4f}, {secs:.0f}s of 300s")


def test_criterion_09_hfunction_and_gradient_suites():
    t0 = time.perf_counter()
    worst_rt = 0.0
    worst_grad = 0.0
    for name in ("M1", "M2", "M3"):
        model = preset(name)
        cop = model.copula
        d = cop.dim
        rng = np.random.default_rng(42)
        grid = np.linspace(0.02, 0.98, 25)
        for _ in range(40):
            u = rng.uniform(0.03, 0.97, size=d)
            for j in range(d):
                u_rest = np.delete(u, j)
                back = np.array(
                    [cop.hfun_inv(j, pv, u_rest) for pv in np.atleast_1d(cop.hfun(j, grid, u_rest))]
                )
                worst_rt = max(worst_rt, float(np.max(np.abs(back - grid))))
        for x in model.sample(100, np.random.default_rng(7)):
            g = model.grad_logpdf(x)
            fd = np.empty(d)
            for j in range(d):
                h = 1e-6 * max(1.0, abs(x[j]))
                e = np.zeros(d)
                e[j] = h
                fd[j] = (model.logpdf(x + e) - model.logpdf(x - e)) / (2.0 * h)
            rel = float(np.linalg.norm(fd - g) / max(1.0, np.linalg.norm(g)))
            worst_grad = max(worst_grad, rel)
    secs = time.perf_counter() - t0
    ok = worst_rt <= 1e-8 and worst_grad <= 1e-5 and secs < 60.0
    _verdict(
        9,
        ok,
        f"h roundtrip worst {worst_rt:.2e} (budget 1e-8), "
        f"gradient vs central differences worst {worst_grad:.2e} (budget 1e-5), {secs:.0f}s of 60s",
    )


def test_criterion_10_m2_es_desk_reproduction():
    t0 = time.perf_counter()
    rep = run(RunConfig("M2", ES99, "gibbs", n_mc=100_000, n_mcmc=10_000, seed=0))
    published = np.array([3.735, 3.126, 3.738])
    oracle = elliptical_oracle(preset("M2"), "es", (0.99,))
    gap_pub = np.abs(rep.estimates - published) / (3.0 * rep.ses)
    gap_orc = np.abs(rep.estimates - oracle) / (3.0 * rep.ses)
    secs = time.perf_counter() - t0
    ok = bool(np.all(gap_pub <= 1.0) and np.all(gap_orc <= 1.0)) and secs < 180.0
    _verdict(
        10,
        ok,
        f"estimates {np.round(rep.estimates, 3).tolist()}: max |gap|/3SE vs published {gap_pub.max():.2f}, "
        f"vs oracle {gap_orc.max():.2f} (need <= 1), {secs:.0f}s of 180s",
    )

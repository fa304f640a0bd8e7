"""Closed-loop runs of one workload: timing, correctness checks, metrics.

One caller: each `run(RunConfig)` starts only after the previous one has
returned.  End-to-end metrics come from untraced calls; the traced run
pairs every traced call with an untraced call of the same run seed.
"""

from __future__ import annotations

import math
import resource
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ess import DISAGREEMENT_FACTOR, batch_means_ess, disagree, geyer_ess
from tracer import Tracer
from workloads import ACR_FLOOR, Z_BOUND

LAYERS = ("models", "copulas", "marginals", "events", "mc", "hmc", "gibbs", "measures", "harness")
# traced run_s may differ from the sum of the layers' self times by this
# share; the two differ only by the root wrapper's own bookkeeping
SELF_TIME_SLACK = 0.01
# fresh-interpreter set-up timings per untraced run, besides the workload's own
SETUP_PROBES = 6


@dataclass
class Call:
    seed: int
    wall: float
    report: object = None
    report_bytes: bytes = b""
    ess: np.ndarray | None = None
    ess_flags: int = 0
    problems: list = field(default_factory=list)

    @property
    def min_ess(self) -> float:
        return float(self.ess.min()) if self.ess is not None else math.nan

    @property
    def details(self) -> dict:
        return self.report.engine_details if self.report is not None else {}


def _check_outputs(call: Call, cfg, workload, oracle) -> None:
    out = Path(cfg.output_dir)
    rep = call.report
    call.report_bytes = (out / "report.json").read_bytes()
    if rep.event_spec != cfg.event or rep.widening_log:
        call.problems.append(f"estimand changed: {rep.event_spec} for {cfg.event}")
    est, ses = rep.estimates, rep.ses
    if not (np.all(np.isfinite(est)) and np.all(np.isfinite(ses)) and np.all(ses > 0.0)):
        call.problems.append(f"non-finite estimate or se: {est} {ses}")
        return
    sample = np.loadtxt(out / "samples.csv", delimiter=",", skiprows=1, ndmin=2)
    want = rep.engine_details["k_conditional"] if workload.engine == "mc" else workload.n_mcmc
    if sample.shape != (want, len(est)):
        call.problems.append(f"samples.csv has shape {sample.shape}, want ({want}, {len(est)})")
        return
    try:
        call.ess = np.array([geyer_ess(sample[:, j]) for j in range(sample.shape[1])])
    except ValueError as err:
        call.problems.append(f"ess: {err}")
        return
    bm = np.array([batch_means_ess(sample[:, j], ses[j]) for j in range(sample.shape[1])])
    call.ess_flags = int(sum(disagree(a, b) for a, b in zip(call.ess, bm)))
    if oracle is not None:
        z = (est - oracle) / ses
        if np.any(np.abs(z) > Z_BOUND):
            call.problems.append(f"|z| vs oracle {np.round(z, 2).tolist()} exceeds {Z_BOUND}")


def do_call(ra, cfg, workload, oracle) -> Call:
    """One closed-loop call: run(), then check what it returned and wrote."""
    out = Path(cfg.output_dir)
    shutil.rmtree(out, ignore_errors=True)
    t0 = time.perf_counter()
    try:
        report = ra.harness.run(cfg)
    except Exception:  # a failed run is counted, not fatal to the benchmark
        wall = time.perf_counter() - t0
        return Call(cfg.seed, wall, problems=["run raised: " + traceback.format_exc(limit=3)])
    call = Call(cfg.seed, time.perf_counter() - t0, report=report)
    try:
        _check_outputs(call, cfg, workload, oracle)
    except OSError as err:
        call.problems.append(f"artifacts unreadable: {err}")
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return call


def tuned(call: Call) -> str:
    d = call.details
    if "eps" in d:
        return f"eps={d['eps']:.5g} T={d['T']} halvings={d['tuning']['n_halvings']} acr={d['acr']:.3f}"
    if "thin_T" in d:
        return f"thin_T={d['thin_T']}"
    return f"k_conditional={d.get('k_conditional')}"


def describe(call: Call, tag: str = "") -> str:
    ok = "ok" if not call.problems else "FAIL " + "; ".join(call.problems)
    return (
        f"  {tag}seed {call.seed:>10}: {call.wall:8.3f} s  min ESS {call.min_ess:9.1f}  "
        f"{tuned(call) if call.report is not None else ''}  {ok}"
    )


def _pooled_acr_check(calls, workload) -> str | None:
    """Acceptance over all proposals of the run against the criterion-05 floor."""
    if workload.engine != "hmc":
        return None
    done = [c for c in calls if c.report is not None]
    accepted = sum(round(c.details["acr"] * workload.n_mcmc) for c in done)
    proposals = workload.n_mcmc * len(done)
    if proposals and accepted / proposals < ACR_FLOOR:
        return f"pooled acr {accepted}/{proposals} below {ACR_FLOOR}"
    return None


# -- untraced run: end-to-end metrics -----------------------------------------


def untraced(ra, workload, configs, oracle, seconds, setup_samples, setup_probe, echo):
    """Full passes over the run seeds while another pass fits in `seconds`.

    After each of the first SETUP_PROBES calls, a fresh interpreter times
    the set-up once more, so the set-up samples spread over the run.
    """
    t_begin = time.perf_counter()
    timed, first = [], {}
    while True:
        t_pass = time.perf_counter()
        for cfg in configs:
            call = do_call(ra, cfg, workload, oracle)
            ref = first.setdefault(cfg.seed, call.report_bytes)
            if call.report_bytes and ref and call.report_bytes != ref:
                call.problems.append("report.json differs from this seed's first run")
            timed.append(call)
            echo(describe(call))
            if len(setup_samples) <= SETUP_PROBES:
                setup_samples.append(setup_probe())
        now = time.perf_counter()
        if now - t_begin + (now - t_pass) > seconds:
            break
    extra = []
    if len(timed) == len(configs):
        # no seed ran twice: repeat the first for the byte-identity check;
        # the repeat is checked but kept out of the timing statistics
        call = do_call(ra, configs[0], workload, oracle)
        if call.report_bytes != first[configs[0].seed]:
            call.problems.append("report.json differs from this seed's first run")
        extra.append(call)
        echo(describe(call, "repeat "))
    calls = timed + extra
    pooled = _pooled_acr_check(calls, workload)
    if pooled:
        for c in calls:
            c.problems.append(pooled)
        echo("  FAIL " + pooled)
    # Both rates are pooled over the run seeds as ratios of totals.  The
    # call times of a pool cluster by tuned parameters (thin_T 6-15 on
    # gibbs, four step sizes on hmc), and a median of them jumps between
    # clusters from one run to the next; a median of per-call ESS rates
    # (1.9-26 per second over the hmc pool) rests on two calls.
    walls = [c.wall for c in timed]
    rated = [c for c in timed if c.ess is not None]
    ess_per_s = (
        sum(c.min_ess for c in rated) / sum(c.wall for c in rated) if rated else 0.0
    )
    failed = sum(bool(c.problems) for c in calls)
    flags = sum(c.ess_flags for c in calls)
    metrics = {
        "run_s": (statistics.fmean(walls), "s"),
        "ess_per_s": (ess_per_s, "1/s"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {
        "run_s": f"mean of {len(walls)} calls; median {statistics.median(walls):.4f} s" + _tail(walls),
        "ess_per_s": "sum over calls of min-coordinate ESS / sum of full run() walls",
        "setup_s": f"median of {len(setup_samples)} set-ups",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    summary = [f"{k:<12} {v:10.4f} {u:<4} {notes[k]}" for k, (v, u) in metrics.items()]
    summary += [
        f"fail_rate    {failed / len(calls):10.4f}      {failed} of {len(calls)} calls",
        f"ess check    {flags} coordinate(s) where Geyer and batch-means ESS differ by "
        f"more than {DISAGREEMENT_FACTOR:g}x",
    ]
    return calls, failed, metrics, summary


def _tail(walls) -> str:
    """The highest of p90/p99 with at least ten samples beyond it, if any."""
    for p in (99, 90):
        if len(walls) * (100 - p) / 100.0 >= 10:
            q = statistics.quantiles(walls, n=100)[p - 1]
            return f", p{p} {q:.4f} s"
    return " (too few calls for a tail percentile)"


# -- traced run: per-layer metrics --------------------------------------------


def traced(ra, workload, configs, oracle, seconds, echo):
    """Pairs of (untraced, traced) calls per run seed while a pair fits."""
    tracer = Tracer(ra.__name__, LAYERS)
    pairs = []
    t_begin = time.perf_counter()
    for cfg in configs:
        t_pair = time.perf_counter()
        plain = do_call(ra, cfg, workload, oracle)
        tracer.install()
        try:
            seen = len(tracer.start)
            call = do_call(ra, cfg, workload, oracle)
        finally:
            tracer.restore()
        if call.report_bytes != plain.report_bytes:
            call.problems.append("traced report.json differs from the untraced one")
        pairs.append((plain, call, seen))
        echo(describe(plain, "untraced "))
        echo(describe(call, "traced   "))
        now = time.perf_counter()
        if now - t_begin + (now - t_pair) > seconds:
            break
    problems = []
    if not tracer.restored():
        problems.append("tracer left a patched attribute behind")
    spans = tracer.spans()
    bounds = [seen for _, _, seen in pairs] + [spans.name_id.size]
    metrics = layer_metrics(spans, tracer.items, pairs, bounds, workload, problems)
    calls = [c for pair in pairs for c in pair[:2]]
    for msg in problems:
        echo("  FAIL " + msg)
    if problems:
        for c in calls:
            c.problems.extend(problems)
    failed = sum(bool(c.problems) for c in calls)
    return calls, failed, metrics


def layer_metrics(spans, items, pairs, bounds, workload, problems) -> dict:
    n = len(pairs)
    dur = spans.duration
    self_t = spans.self_time()
    span_layer = np.array([name.split(".", 1)[0] for name in spans.names])[spans.name_id]

    sel = spans.select

    def exact(name):
        return lambda s: s == name

    def method(layer, meth):
        return lambda s: s.startswith(layer + ".") and s.endswith("." + meth)

    def per_call(x):
        return float(x) / n if n else 0.0

    def us_per(idx):
        return float(dur[idx].sum()) / idx.size * 1e6 if idx.size else 0.0

    grad = sel(exact("models.JointLossModel.grad_logpdf"))
    leap = sel(exact("hmc.leapfrog_reflect"))
    tune = sel(exact("hmc.tune"))
    hsample = sel(exact("hmc.hmc_sample"))
    reflect = sel(exact("events.reflect"))
    rsgs = sel(exact("gibbs.rsgs_sample"))
    gibbs_setup = sel(lambda s: s in ("gibbs.select_probs", "gibbs.thin_interval"))

    # per traced call: checks on what the counters saw
    ess_per_grad, updates, main_s, prerun_s = [], 0, 0.0, 0.0
    for k, (_, call, _) in enumerate(pairs):
        lo, hi = bounds[k], bounds[k + 1]

        def part(idx):
            return idx[(idx >= lo) & (idx < hi)]

        roots = lo + np.flatnonzero(spans.parent[lo:hi] == -1)
        if roots.size != 1 or spans.names[spans.name_id[roots[0]]] != "harness.run":
            problems.append(f"seed {call.seed}: trace has {roots.size} root spans, want one harness.run")
            continue
        if call.report is None:
            continue
        total_self = float(self_t[lo:hi].sum())
        if abs(total_self - call.wall) > SELF_TIME_SLACK * call.wall:
            problems.append(
                f"seed {call.seed}: layer self times sum to {total_self:.4f} s, "
                f"traced run_s is {call.wall:.4f} s"
            )
        d = call.details
        if workload.engine == "hmc":
            g = part(grad)
            g_tune = spans.within(g, part(tune)).size
            want = g_tune + 2 * d["T"] * workload.n_mcmc
            if g.size != want:
                problems.append(
                    f"seed {call.seed}: {g.size} grad_logpdf calls, want tune's {g_tune} "
                    f"+ 2 x {d['T']} x {workload.n_mcmc} = {want}"
                )
            refl = spans.within(part(reflect), part(hsample)).size
            if abs(refl / workload.n_mcmc - d["mean_reflections"]) > 1e-12:
                problems.append(
                    f"seed {call.seed}: {refl} reflections traced in the chain, "
                    f"report says {d['mean_reflections']} per proposal"
                )
            ess_per_grad.append(call.min_ess / g.size)
        if workload.engine == "gibbs":
            # the last rsgs_sample call of a run is the main chain, any before it the prerun
            r = part(rsgs)
            main_s += float(dur[r[-1]])
            prerun_s += float(dur[r[:-1]].sum()) + float(dur[part(gibbs_setup)].sum())
            updates += workload.n_mcmc * d["thin_T"]

    reports = [c.details for _, c, _ in pairs if c.report is not None]

    def mean_detail(fn):
        vals = [fn(d) for d in reports]
        return float(np.mean(vals)) if vals else 0.0

    presample = sel(exact("mc.mc_presample"))
    cop_sample = spans.outermost(sel(method("copulas", "sample")))
    quantile = sel(method("marginals", "quantile"))

    def us_per_row(idx):
        rows = sum(items.get(i, 0) for i in idx.tolist())
        return float(dur[idx].sum()) / rows * 1e6 if rows else 0.0

    hfun_inv = spans.outermost(sel(method("copulas", "hfun_inv")))
    hfun = spans.outermost(sel(method("copulas", "hfun")))
    overhead = [c.wall / p.wall for p, c, _ in pairs]
    m = {
        "models.grad_logpdf.calls": (per_call(grad.size), "count"),
        "models.grad_logpdf.us_per_call": (us_per(grad), "us"),
        "models.logpdf.us_per_call": (us_per(sel(exact("models.JointLossModel.logpdf"))), "us"),
        "hmc.grad_per_step": (spans.within(grad, leap).size / leap.size if leap.size else 0.0, "count"),
        "hmc.leapfrog.us_per_step": (us_per(leap), "us"),
        "hmc.sample.s": (per_call(dur[hsample].sum()), "s"),
        "hmc.tune.s": (per_call(dur[tune].sum()), "s"),
        "hmc.tune.grad_calls": (per_call(spans.within(grad, tune).size), "count"),
        "hmc.tune.halvings": (mean_detail(lambda d: d.get("tuning", {}).get("n_halvings", 0)), "count"),
        "hmc.ess_per_grad": (float(np.mean(ess_per_grad)) if ess_per_grad else 0.0, "1/grad"),
        "hmc.acr": (mean_detail(lambda d: d["acr"]) if workload.engine == "hmc" else 0.0, "ratio"),
        "hmc.reflections_per_proposal": (
            per_call(spans.within(reflect, hsample).size) / workload.n_mcmc, "count"
        ),
        "events.reflect.calls": (per_call(reflect.size), "count"),
        "events.hit_time.calls": (per_call(sel(exact("events.hit_time")).size), "count"),
        "gibbs.us_per_update": (main_s / updates * 1e6 if updates else 0.0, "us"),
        "gibbs.sample.s": (per_call(main_s), "s"),
        "gibbs.prerun.s": (per_call(prerun_s), "s"),
        "gibbs.updates_per_state": (mean_detail(lambda d: d.get("thin_T", 0)), "count"),
        "gibbs.degenerate_ratio": (
            mean_detail(lambda d: d["n_degenerate_redraws"] / (workload.n_mcmc * d["thin_T"]))
            if workload.engine == "gibbs" else 0.0,
            "ratio",
        ),
        "copulas.hfun_inv.us_per_call": (us_per(hfun_inv), "us"),
        "copulas.hfun.us_per_call": (us_per(hfun), "us"),
        "marginals.cdf.calls": (per_call(sel(method("marginals", "cdf")).size), "count"),
        "mc.presample.us_per_row": (us_per_row(presample), "us"),
        "copulas.sample.us_per_row": (us_per_row(cop_sample), "us"),
        "marginals.quantile.us_per_row": (us_per_row(quantile), "us"),
        "mc.useful_ratio": (mean_detail(lambda d: d["k_conditional"] / workload.n_mc), "ratio"),
        "events.estimate_event.s": (per_call(dur[sel(exact("events.estimate_event"))].sum()), "s"),
        "events.contains_rows.s": (
            per_call(dur[sel(exact("events.ConcreteCrisisEvent.contains_rows"))].sum()), "s"
        ),
        "measures.batch_means_se.s": (per_call(dur[sel(exact("measures.batch_means_se"))].sum()), "s"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (per_call(self_t[span_layer == layer].sum()), "s")
    m["harness.uncharged_s"] = (
        float(np.mean([p.wall - p.report.runtime_seconds for p, _, _ in pairs if p.report is not None]))
        if any(p.report is not None for p, _, _ in pairs) else 0.0,
        "s",
    )
    m["trace.overhead_ratio"] = (float(statistics.median(overhead)) if overhead else 0.0, "ratio")
    return m

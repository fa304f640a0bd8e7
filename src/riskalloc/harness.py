"""Run orchestration: config in, allocation report and artifact files out.

A run is one (model, event, engine) combination.  prepare() takes it from
the presample through event estimation (with the mc widening rule) and
the conditional rows to the engine's target and tuned parameters; run()
adds the main chain and the per-coordinate measure + standard error, and
`riskalloc tune` prints what prepare() tuned.  Reports are deterministic
given (config, seed); wall-clock timings (the run's total and its
per-phase split) and the engines' work counters live in the manifest, never
in the report, so the report file is byte-identical across repeat runs.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import astuple, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .events import (
    ConcreteCrisisEvent,
    CrisisEventSpec,
    PURE_LOSSES_ONLY,
    EventTarget,
    ReducedVarTarget,
    band_levels,
    count,
    estimate_event,
)
from .gibbs import N_PRERUN, GibbsParams, rsgs_sample, select_probs, thin_interval
from .hmc import HmcParams, StandardizedTarget, hmc_sample, tune
from .mc import ConditionalCountError, mc_presample
from .measures import MarginalRiskMeasure, batch_means_se
from .models import json_count, json_field, json_numbers, load_model
from .oracle import elliptical_oracle


# -- configuration ---------------------------------------------------------------

# each count a run is configured with, and its least value (events.count)
COUNTS = {"n_mc": 100, "n_mcmc": 100, "seed": 0, "min_conditional": 2}


@dataclass(frozen=True)
class RunConfig:
    model: object  # preset name, config dict, or JointLossModel
    event: CrisisEventSpec
    engine: str
    measures: tuple = None
    n_mc: int = 100_000
    n_mcmc: int = 10_000
    seed: int = 0
    output_dir: object = None
    overrides: object = None
    min_conditional: int = 100

    def __post_init__(self):
        if self.engine not in tuple(ENGINES):
            raise ValueError(f"engine must be one of {tuple(ENGINES)}, got {self.engine!r}")
        if not isinstance(self.event, CrisisEventSpec):
            raise TypeError("event must be a CrisisEventSpec")
        for name, least in COUNTS.items():
            object.__setattr__(self, name, count(name, getattr(self, name), least))
        if self.measures is not None:
            object.__setattr__(self, "measures", tuple(self.measures))
            for m in self.measures:
                if not isinstance(m, MarginalRiskMeasure):
                    raise TypeError("measures must be MarginalRiskMeasure instances")
        if self.overrides is not None:
            want = ENGINES[self.engine].overrides
            if want is None:
                raise ValueError(f"the {self.engine} engine takes no parameter overrides")
            if not isinstance(self.overrides, want):
                raise TypeError(
                    f"{self.engine} overrides must be {want.__name__}, "
                    f"got {type(self.overrides).__name__}"
                )

    def to_json_dict(self) -> dict:
        model = self.model if isinstance(self.model, (str, dict)) else "<in-memory model>"
        return {
            "model": model,
            "event": self.event.to_json_dict(),
            "engine": self.engine,
            "measures": None
            if self.measures is None
            else [{"kind": m.kind, "levels": list(m.levels)} for m in self.measures],
            "n_mc": self.n_mc,
            "n_mcmc": self.n_mcmc,
            "seed": self.seed,
            "output_dir": None if self.output_dir is None else str(self.output_dir),
            "overrides": None
            if self.overrides is None
            else {k: np.asarray(v).tolist() for k, v in vars(self.overrides).items()},
            "min_conditional": self.min_conditional,
        }


def run_config_from_dict(cfg: dict) -> RunConfig:
    """Build a RunConfig from the JSON config-file schema, naming any missing
    key, any field of another type and any unknown override key."""
    if not isinstance(cfg, dict):
        raise ValueError(f"the config must be an object, got {type(cfg).__name__}")
    cfg = dict(cfg)
    try:
        model = json_field(cfg.pop("model"), "model", "a preset name or an object", "config")
        event = json_field(cfg.pop("event"), "event", "an object", "config")
        levels = json_numbers(event["levels"], "levels", "config")
        delta = json_field(event.get("delta", 0.0), "delta", "a number", "config")
        spec = CrisisEventSpec(event["kind"], levels, delta=delta)
        measures = cfg.pop("measures", None)
        if measures is not None:
            items, measures = json_field(measures, "measures", "a list", "config"), []
            for i, m in enumerate(items):
                m = json_field(m, f"measures[{i}]", "an object", "config")
                levels = json_numbers(m.get("levels", ()), f"measures[{i}].levels", "config")
                measures.append(MarginalRiskMeasure(m["kind"], levels))
        overrides = cfg.pop("overrides", None)
        engine = cfg.setdefault("engine", "mc")
        want = ENGINES[engine].overrides if engine in tuple(ENGINES) else None
        if overrides is not None and want is not None:
            overrides = json_field(overrides, "overrides", "an object", "config")
            unknown = sorted(set(overrides) - {f.name for f in fields(want)})
            if unknown:
                raise ValueError(f"the config field 'overrides' has unknown keys {unknown}")
            for key, value in overrides.items():  # a number or a list of numbers
                json_numbers(value if isinstance(value, (list, tuple)) else [value], key, "config")
            overrides = want(**{f.name: json_count(overrides[f.name]) for f in fields(want)})
    except KeyError as err:
        raise ValueError(f"the config is missing the key {err.args[0]!r}") from None
    extra = set(cfg) - {"engine", "output_dir", *COUNTS}
    if extra:
        raise ValueError(f"unknown config keys: {sorted(extra)}")
    for name in COUNTS:
        if name in cfg:
            cfg[name] = json_count(cfg[name])
    return RunConfig(model=model, event=spec, measures=measures, overrides=overrides, **cfg)


# -- report types ----------------------------------------------------------------


@dataclass(frozen=True)
class CoordinateAllocation:
    coordinate: int  # 1-based
    kind: str
    levels: tuple
    estimate: float
    se: float
    few_batches: bool

    def to_json_dict(self) -> dict:
        return {
            "coordinate": self.coordinate,
            "measure": self.kind,
            "levels": list(self.levels),
            "estimate": self.estimate,
            "se": self.se,
            "few_batches": self.few_batches,
        }


@dataclass(frozen=True, eq=False)
class AllocationReport:
    engine: str
    model_name: str
    seed: int
    n: int
    requested_event: CrisisEventSpec
    event: ConcreteCrisisEvent
    allocations: tuple
    engine_details: dict
    runtime_seconds: float
    widening_log: tuple = ()
    phase_seconds: dict = field(default_factory=dict)
    work: dict = field(default_factory=dict)

    @property
    def event_spec(self) -> CrisisEventSpec:
        """The event the estimates condition on (see PreparedRun)."""
        return self.event.spec

    @property
    def d(self) -> int:
        return len(self.allocations)

    @property
    def estimates(self) -> np.ndarray:
        return np.array([a.estimate for a in self.allocations])

    @property
    def ses(self) -> np.ndarray:
        return np.array([a.se for a in self.allocations])

    def sum_estimate(self) -> float:
        return float(self.estimates.sum())

    def to_json_dict(self) -> dict:
        # deliberately excludes wall-clock runtime: the report must be
        # byte-identical across repeat runs of the same config and seed
        return {
            "engine": self.engine,
            "model": self.model_name,
            "seed": self.seed,
            "n": self.n,
            "requested_event": self.requested_event.to_json_dict(),
            "event_spec": self.event_spec.to_json_dict(),
            "event": self.event.to_json_dict(),
            "allocations": [a.to_json_dict() for a in self.allocations],
            "sum_of_estimates": self.sum_estimate(),
            "engine_details": self.engine_details,
            "widening_log": list(self.widening_log),
        }


# -- engine/event rules ----------------------------------------------------------


def _event_form(spec: CrisisEventSpec) -> str:
    if spec.kind != "var":
        return spec.kind
    return "var band" if spec.delta > 0.0 else "exact var"


def _check_supported(engine: str, spec: CrisisEventSpec, nonnegative: bool) -> None:
    allowed, message = ENGINES[engine].rules.get(_event_form(spec), ((False, True), None))
    if nonnegative not in allowed:
        raise ValueError(message)


# -- the run pipeline ------------------------------------------------------------


def _model_name(spec) -> str:
    return spec if isinstance(spec, str) else "inline"


def _widened(spec: CrisisEventSpec) -> CrisisEventSpec:
    """Lower the event's band lower level by 0.01; None when that is
    impossible.  A var band widens into the rvar band of its edges."""
    lo, hi = band_levels(spec)
    lo -= 0.01
    if lo <= 0.0:
        return None
    return CrisisEventSpec("es", (lo,)) if spec.kind == "es" else CrisisEventSpec("rvar", (lo, hi))


def _bands(config: RunConfig) -> list:
    """The bands the run may estimate, in the order prepare() tries them:
    the requested band, then on mc each _widened band while the band
    before it has fewer than min_conditional ranks among the n_mc sums.  A
    band holds at least the rows of its ranks (ties only add rows), so the
    walk never needs a band past the last."""
    n, bands = config.n_mc, [config.event]
    while ENGINES[config.engine].iid:
        lo, hi = band_levels(bands[-1])
        wider = _widened(bands[-1])
        if math.ceil(n * hi) - math.ceil(n * lo) + 1 >= config.min_conditional or wider is None:
            break
        bands.append(wider)
    return bands


def _lowest_rank(config: RunConfig) -> int:
    """The lowest rank, among the n_mc presample sums, of an order statistic
    the run can read: the lower level of its last band."""
    return max(math.ceil(config.n_mc * band_levels(_bands(config)[-1])[0]), 1)


@dataclass(frozen=True, eq=False)
class PreparedRun:
    """A run up to its main chain.

    event, with its spec, is what the run estimates: the requested event,
    unless the mc widening rule lowered its lower level (widening_log says
    how), or hmc runs on a var band, where the chain samples the hyperplane
    {1.x = v*} and the band only supplied the conditional rows.  cond holds
    the presample rows inside the estimated band.  details holds the
    engine_details known before the chain, among them (hmc and gibbs)
    whether the parameters were tuned and the tuned or overridden
    parameters.  work holds the engine's work counters (see each
    _prepare_<engine>) and, on every engine, presample_kept_rows: the
    presample rows kept past the cut at the lowest rank the run can read
    (mc_presample).  chain() runs the main chain, adds to details and work
    in place, and returns (sample, n, diagnostics): diagnostics is None
    (mc) or (the middle column's name, the rows), and the rows are an
    iterator that can be read only once.  started is the perf_counter
    reading before the presample and phase_seconds the wall time of each
    phase so far.
    """

    measures: tuple
    event: ConcreteCrisisEvent
    cond: np.ndarray
    widening_log: tuple
    details: dict
    chain: object
    started: float
    phase_seconds: dict
    work: dict


def prepare(config: RunConfig) -> PreparedRun:
    """Everything before the main chain: presample, event, conditional rows,
    and the engine's target and tuned (or overridden) parameters."""
    model = load_model(config.model)
    measures = config.measures
    if measures is None:
        measures = tuple(MarginalRiskMeasure("mean") for _ in range(model.d))
    if len(measures) != model.d:
        raise ValueError(
            f"need one measure per coordinate: got {len(measures)} for d={model.d}"
        )
    _check_supported(config.engine, config.event, model.nonnegative)
    seeds = np.random.SeedSequence(config.seed).spawn(3)
    started = time.perf_counter()
    presample = mc_presample(model, config.n_mc, seeds[0], rank=_lowest_rank(config))
    presampled = time.perf_counter()
    bands, log = _bands(config), []
    for spec, wider in zip(bands, bands[1:] + [None]):
        event = estimate_event(spec, presample, model.nonnegative)
        cond = presample.rows[event.contains_rows(presample.rows)]
        if len(cond) >= config.min_conditional:
            break
        if wider is None:
            raise ConditionalCountError(len(cond), config.min_conditional, spec)
        log.append(
            f"only {len(cond)} conditional rows (need {config.min_conditional}); lowered "
            f"the lower level: {spec.kind}{spec.levels} -> {wider.kind}{wider.levels}"
        )
    estimated = time.perf_counter()
    details = {"k_conditional": int(len(cond))}
    if ENGINES[config.engine].overrides is not None:
        details["tuned"] = config.overrides is None
    work = {"presample_kept_rows": len(presample.rows)}
    event, chain = ENGINES[config.engine].prepare(
        model, event, cond, config, seeds, details, work
    )
    return PreparedRun(
        measures=measures,
        event=event,
        cond=cond,
        widening_log=tuple(log),
        details=details,
        chain=chain,
        started=started,
        work=work,
        phase_seconds={
            "presample": presampled - started,
            "event": estimated - presampled,
            "prepare": time.perf_counter() - estimated,
        },
    )


def _prepare_mc(model, event, cond, config, seeds, details, work):
    """mc's sample is the conditional rows themselves, n_mc its n.  work:
    presample_rows (n_mc) and conditional_rows (the rows in the event)."""
    details["acr"] = 1.0
    work.update(presample_rows=int(config.n_mc), conditional_rows=int(len(cond)))
    return event, lambda: (cond, config.n_mc, None)


def _prepare_hmc(model, event, cond, config, seeds, details, work):
    """On a var band, hmc samples the exact var event {1.x = v*} through the
    reduced target; that event is returned in the band's place, with the
    band's thresholds (v_star, v_lo, v_hi) on record.  work: tune_steps
    (lockstep steps of the tuning scans), tune_trajectory_steps (trajectory
    steps within them), tune_capped (tuning trajectories stopped at t_max
    before a U-turn; 0 with overrides) and chain_grad_evals (2 T n_mcmc);
    the chain adds chain_reflections, its proposals' reflections."""
    if event.spec.kind == "var":
        v_star = event.thresholds["v_star"]
        target = ReducedVarTarget(model, v_star)
        pts = cond[:, :-1]
        pts = pts[(target.constraints.slack(pts) > 0.0).all(axis=-1)]
        if len(pts) < 2:
            raise ConditionalCountError(len(pts), 2, event.spec)
        event = replace(event, spec=replace(event.spec, delta=0.0), v1=v_star, v2=v_star)
    else:
        target = EventTarget(model, event)
        pts = cond
    std_target = StandardizedTarget(target, pts)
    y_pts = std_target.to_y(pts)
    work.update(tune_steps=0, tune_trajectory_steps=0, tune_capped=0)
    params = config.overrides
    if params is None:
        tuning = tune(std_target, y_pts, seed=seeds[1])
        params = tuning.params
        details["tuning"] = {
            "alpha_bar": tuning.alpha_bar,
            "n_trajectories": tuning.n_trajectories,
            "n_capped": tuning.n_capped,
            "n_halvings": tuning.n_halvings,
        }
        work.update(
            tune_steps=tuning.n_steps,
            tune_trajectory_steps=tuning.n_trajectory_steps,
            tune_capped=tuning.n_capped,
        )
    details.update(eps=params.eps, T=params.T, standardization_jittered=std_target.jittered)
    work["chain_grad_evals"] = 2 * params.T * config.n_mcmc
    start, n = y_pts.mean(axis=0), config.n_mcmc

    def chain():
        path_y, diag = hmc_sample(std_target, params, start, n, seeds[2])
        path_x = std_target.to_x(path_y)
        sample = path_x if event.sum_equality is None else target.lift(path_x)
        details.update(
            acr=diag.acr,
            n_nonfinite=diag.n_nonfinite,
            mean_reflections=float(diag.reflections_per_proposal.mean()),
        )
        work["chain_reflections"] = int(diag.reflections_per_proposal.sum())
        rows = zip(
            range(1, n + 1), diag.hamiltonian_errors.tolist(), diag.accepted.astype(int).tolist()
        )
        return sample, n, ("delta_H", rows)

    return event, chain


def _prepare_gibbs(model, event, cond, config, seeds, details, work):
    """work: prerun_updates, chain_updates (n_mcmc thin_T) and
    degenerate_redraws (the prerun's; the chain adds its own)."""
    x0 = cond.mean(axis=0)
    work.update(prerun_updates=0, degenerate_redraws=0)
    params = config.overrides
    if params is None:
        p = select_probs(np.atleast_2d(np.cov(cond, rowvar=False)))
        pre_path, pre_diag = rsgs_sample(model, event, GibbsParams(p, 1), x0, N_PRERUN, seeds[1])
        thin = thin_interval(pre_path)
        params = GibbsParams(p, thin.interval)
        x0 = pre_path[-1]
        details.update(thin_capped=thin.capped, n_pre=N_PRERUN)
        work.update(
            prerun_updates=int(pre_diag.coordinates_updated.size),
            degenerate_redraws=pre_diag.n_degenerate_redraws,
        )
    details.update(p=[float(v) for v in params.p], thin_T=params.thin_T)
    work["chain_updates"] = config.n_mcmc * params.thin_T

    def chain():
        path, diag = rsgs_sample(model, event, params, x0, config.n_mcmc, seeds[2])
        details.update(acr=1.0, n_degenerate_redraws=diag.n_degenerate_redraws)
        work["degenerate_redraws"] += diag.n_degenerate_redraws
        coords = diag.coordinates_updated
        rows = zip(range(1, coords.size + 1), (coords + 1).tolist(), [1] * coords.size)
        return path, config.n_mcmc, ("coordinate_updated", rows)

    return event, chain


@dataclass(frozen=True)
class _Engine:
    """overrides is the parameter type an engine takes (None: none) and iid
    whether its sample is the i.i.d. conditional presample rows: then
    _bands widens its thin event and compare() scales its variance to the
    budget of the first other engine.  rules maps an event form to
    (the nonnegative flags the pair runs on, the message that rejects any
    other); a form not listed runs on every model.  prepare fills
    PreparedRun's details and work in place and returns its (event, chain);
    a chain looks its sampler up in this module when it runs, so it calls
    what a tracer bound there."""

    overrides: type
    iid: bool
    rules: dict
    prepare: object


ENGINES = {
    "mc": _Engine(None, True, {
        "exact var": ((), "plain Monte Carlo cannot hit the zero-probability "
                      "exact var event; use a positive delta band"),
    }, _prepare_mc),
    "hmc": _Engine(HmcParams, False, {
        "exact var": ((), "hmc on the exact var event still needs conditional "
                      "presample points for standardization and tuning, which "
                      "only the delta band provides; use a positive delta"),
        # hmc samples the var hyperplane through the reduced simplex target
        "var band": ((True,), PURE_LOSSES_ONLY),
    }, _prepare_hmc),
    "gibbs": _Engine(GibbsParams, False, {
        "exact var": ((), "the gibbs engine needs a band event and the exact var "
                      "event has zero width; use a positive delta band or the "
                      "hmc engine"),
    }, _prepare_gibbs),
}


def _allocations(sample, measures) -> tuple:
    out = []
    for j, m in enumerate(measures):
        e = batch_means_se(sample[:, j], m)
        out.append(
            CoordinateAllocation(j + 1, m.kind, m.levels, e.point, e.se, e.few_batches)
        )
    return tuple(out)


def run(config: RunConfig) -> AllocationReport:
    """Execute one allocation run and write artifacts if requested.

    runtime_seconds is what compare charges, the same for every engine: the
    wall time from the presample to the end of the measures.  phase_seconds
    splits it into presample, event, prepare (standardize and tune, or the
    gibbs prerun), chain and measures.
    """
    prep = prepare(config)
    chain_started = time.perf_counter()
    sample, n, diagnostics = prep.chain()
    chained = time.perf_counter()
    allocations = _allocations(sample, prep.measures)
    finished = time.perf_counter()
    phases = dict(prep.phase_seconds, chain=chained - chain_started, measures=finished - chained)
    report = AllocationReport(
        engine=config.engine,
        model_name=_model_name(config.model),
        seed=config.seed,
        n=n,
        requested_event=config.event,
        event=prep.event,
        allocations=allocations,
        engine_details=prep.details,
        runtime_seconds=finished - prep.started,
        widening_log=prep.widening_log,
        phase_seconds=phases,
        work=prep.work,
    )
    if config.output_dir is not None:
        _write_artifacts(report, sample, diagnostics, config)
    return report


# -- artifacts -------------------------------------------------------------------


def _write_artifacts(report, sample, diagnostics, config):
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "report.json", "w", encoding="utf-8") as f:
        json.dump(report.to_json_dict(), f, indent=2, sort_keys=True)
        f.write("\n")
    header = [f"X{j + 1}" for j in range(sample.shape[1])]
    _write_csv(out / "samples.csv", header, map(np.ndarray.tolist, sample))
    if diagnostics is not None:
        middle, rows = diagnostics
        _write_csv(out / "diagnostics.csv", ["iteration", middle, "accepted"], rows)
    manifest = {
        "version": __version__,
        "config": config.to_json_dict(),
        "engine_details": report.engine_details,
        "event": report.event.to_json_dict(),
        "widening_log": list(report.widening_log),
        "runtime_seconds": report.runtime_seconds,
        "phase_seconds": report.phase_seconds,
        "work": report.work,
        "artifacts": ["report.json", "samples.csv"]
        + (["diagnostics.csv"] if diagnostics is not None else []),
    }
    with open(out / "manifest.json", "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


def _write_csv(path, header, rows):
    """The bytes of csv.writer (excel dialect) for a header of plain names
    and rows of Python ints, floats and plain names: each value's str (a
    number's str is its repr), comma separated, each line ended by CRLF; no
    such value needs quoting.  Streamed row by row, with no joined file."""
    line = ",".join(["%s"] * len(header)) + "\r\n"
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(",".join(header) + "\r\n")
        f.writelines(line % tuple(row) for row in rows)


# -- comparison ------------------------------------------------------------------


@dataclass(frozen=True)
class ComparisonRow:
    engine: str
    coordinate: int
    estimate: float
    bias: object  # float, or None when no oracle is available
    se: float
    time_adjusted_mse: float
    runtime: float


def time_adjusted_mse(bias: float, sigma2: float, n: int, runtime_ratio: float) -> float:
    """bias^2 + sigma^2 / (runtime_ratio * n)."""
    if sigma2 < 0.0 or n < 1 or runtime_ratio <= 0.0:
        raise ValueError("need sigma2 >= 0, n >= 1, runtime_ratio > 0")
    return bias * bias + sigma2 / (runtime_ratio * n)


def compare(reports, oracle=None) -> list:
    """Bias/SE/time-adjusted-MSE rows for completed runs.

    The first MCMC run (if any) is the time reference: the variance of an
    iid engine's (mc's) row is scaled to the sample size it could afford in
    that run's wall-clock budget.  MCMC rows use their own budget (ratio
    1).  Every budget is the run's runtime_seconds, presample through
    measures, so the samplers pay for their presample, tuning and prerun
    as mc pays for its presample.
    With no oracle the bias column is absent and the MSE is the variance
    term alone.
    """
    reports = list(reports)
    reference = next((r for r in reports if not ENGINES[r.engine].iid), None)
    rows = []
    for rep in reports:
        ratio = 1.0
        if ENGINES[rep.engine].iid and reference is not None:
            if rep.runtime_seconds > 0.0 and reference.runtime_seconds > 0.0:
                ratio = reference.runtime_seconds / rep.runtime_seconds
        for a in rep.allocations:
            bias = None
            if oracle is not None:
                bias = float(a.estimate - np.asarray(oracle, dtype=float)[a.coordinate - 1])
            rows.append(
                ComparisonRow(
                    engine=rep.engine,
                    coordinate=a.coordinate,
                    estimate=a.estimate,
                    bias=bias,
                    se=a.se,
                    time_adjusted_mse=time_adjusted_mse(
                        bias if bias is not None else 0.0,
                        a.se * a.se * rep.n,
                        rep.n,
                        ratio,
                    ),
                    runtime=rep.runtime_seconds,
                )
            )
    return rows


def write_comparison_csv(rows, path) -> None:
    """One line per ComparisonRow, its fields in order; a missing bias is blank."""
    header = [f.name for f in fields(ComparisonRow)]
    _write_csv(path, header, (["" if v is None else v for v in astuple(r)] for r in rows))


def oracle_for(model_spec, event: CrisisEventSpec):
    """The closed-form allocation when the model is elliptical, else None."""
    model = load_model(model_spec)
    try:
        return elliptical_oracle(model, event.kind, event.levels)
    except ValueError:
        return None

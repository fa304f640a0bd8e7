"""Orchestration-level tests: config handling, artifacts, comparison math."""

import csv
import dataclasses
import json
import re
import time
from pathlib import Path

import numpy as np
import pytest

import riskalloc
from riskalloc import harness
from riskalloc.events import EQUALITY_RTOL, CrisisEventSpec
from riskalloc.gibbs import GibbsParams
from riskalloc.harness import (
    AllocationReport,
    RunConfig,
    compare,
    oracle_for,
    run,
    run_config_from_dict,
    time_adjusted_mse,
    write_comparison_csv,
)
from riskalloc.hmc import HmcParams
from riskalloc.mc import ConditionalCountError
from riskalloc.measures import MarginalRiskMeasure

ES99 = CrisisEventSpec("es", (0.99,))
ES90 = CrisisEventSpec("es", (0.9,))
RVAR = CrisisEventSpec("rvar", (0.8, 0.9))


# -- config validation -------------------------------------------------------


def test_config_rejects_bad_fields():
    with pytest.raises(ValueError, match="engine"):
        RunConfig("M1", ES90, "metropolis")
    with pytest.raises(TypeError, match="CrisisEventSpec"):
        RunConfig("M1", ("es", 0.9), "mc")
    with pytest.raises(ValueError, match="n_mc"):
        RunConfig("M1", ES90, "mc", n_mc=50)
    with pytest.raises(ValueError, match="n_mcmc"):
        RunConfig("M1", ES90, "gibbs", n_mcmc=50)
    with pytest.raises(ValueError, match="min_conditional"):
        RunConfig("M1", ES90, "mc", min_conditional=1)
    # a count is an int, as HmcParams(0.1, 3.0) requires; np.integer is one
    for bad in (200.0, True, np.bool_(True), "200"):
        with pytest.raises(ValueError, match="n_mcmc must be an integer of at least 100"):
            RunConfig("M1", ES90, "gibbs", n_mcmc=bad)
    n_mc = RunConfig("M1", ES90, "mc", n_mc=np.int64(5000)).n_mc
    assert n_mc == 5000 and type(n_mc) is int
    # the seed is a count too: report.json writes it as a JSON integer
    for bad in (True, 2.5, "1", -1):
        with pytest.raises(ValueError, match="seed must be an integer of at least 0"):
            RunConfig("M1", ES90, "mc", seed=bad)
    seed = RunConfig("M1", ES90, "mc", seed=np.int64(3)).seed
    assert seed == 3 and type(seed) is int
    with pytest.raises(TypeError, match="MarginalRiskMeasure"):
        RunConfig("M1", ES90, "mc", measures=("mean", "mean", "mean"))


def test_config_rejects_mismatched_overrides():
    with pytest.raises(ValueError, match="no parameter overrides"):
        RunConfig("M1", ES90, "mc", overrides=HmcParams(0.1, 5))
    with pytest.raises(TypeError, match="HmcParams"):
        RunConfig("M1", ES90, "hmc", overrides=GibbsParams(np.full(3, 1 / 3), 2))
    with pytest.raises(TypeError, match="GibbsParams"):
        RunConfig("M1", ES90, "gibbs", overrides=HmcParams(0.1, 5))


def test_measure_count_must_match_dimension():
    two = (MarginalRiskMeasure("mean"),) * 2
    with pytest.raises(ValueError, match="one measure per coordinate"):
        run(RunConfig("M1", ES90, "mc", measures=two))
    # no measures is not the default measures
    with pytest.raises(ValueError, match="^need one measure per coordinate: got 0 for d=3$"):
        run(RunConfig("M1", ES90, "mc", measures=()))


def test_config_from_dict_roundtrip():
    cfg = RunConfig(
        "M2",
        CrisisEventSpec("var", (0.99,), delta=0.001),
        "hmc",
        measures=(MarginalRiskMeasure("es", (0.9,)),) * 3,
        n_mc=5000,
        n_mcmc=200,
        seed=3,
        overrides=HmcParams(0.05, 7),
    )
    again = run_config_from_dict(cfg.to_json_dict())
    assert again == cfg

    plain = run_config_from_dict({"model": "M1", "event": {"kind": "es", "levels": [0.9]}})
    assert plain.engine == "mc" and plain.event == ES90 and plain.measures is None


@pytest.mark.parametrize(
    "engine, overrides, echo",
    [
        ("hmc", {"eps": 1, "T": 3.0}, {"eps": 1.0, "T": 3}),
        ("gibbs", {"p": [0.25, 0.25, 0.5], "thin_T": 2.0}, {"p": [0.25, 0.25, 0.5], "thin_T": 2}),
    ],
    ids=["hmc", "gibbs"],
)
def test_config_to_json_dict_echoes_json_overrides(engine, overrides, echo):
    # the manifest's config record, as the override records wrote it when
    # each carried its own JSON writer
    d = {"model": "M2", "event": {"kind": "es", "levels": [0.99]}, "engine": engine}
    got = run_config_from_dict({**d, "overrides": overrides}).to_json_dict()
    assert got == {
        "model": "M2",
        "event": {"kind": "es", "levels": [0.99], "delta": 0.0},
        "engine": engine,
        "measures": None,
        "n_mc": 100000,
        "n_mcmc": 10000,
        "seed": 0,
        "output_dir": None,
        "overrides": echo,
        "min_conditional": 100,
    }
    assert json.dumps(got["overrides"]) == json.dumps(echo)


def test_config_from_dict_gibbs_overrides_and_unknown_keys():
    d = {
        "model": "M1",
        "event": {"kind": "es", "levels": [0.9]},
        "engine": "gibbs",
        "overrides": {"p": [0.2, 0.3, 0.5], "thin_T": 4},
    }
    cfg = run_config_from_dict(d)
    assert isinstance(cfg.overrides, GibbsParams)
    assert np.allclose(cfg.overrides.p, [0.2, 0.3, 0.5])
    assert cfg.overrides.thin_T == 4
    with pytest.raises(ValueError, match="unknown config keys.*n_iter"):
        run_config_from_dict({"model": "M1", "event": {"kind": "es", "levels": [0.9]}, "n_iter": 5})
    with pytest.raises(ValueError, match="no parameter overrides"):
        run_config_from_dict(
            {"model": "M1", "event": {"kind": "es", "levels": [0.9]}, "overrides": {"eps": 0.1, "T": 2}}
        )
    # an engine that is no name, with or without overrides
    for extra in ({}, {"overrides": {"eps": 0.1, "T": 2}}):
        with pytest.raises(ValueError, match="engine must be one of"):
            run_config_from_dict(
                {"model": "M1", "event": {"kind": "es", "levels": [0.9]}, "engine": ["hmc"], **extra}
            )


# -- engine/event compatibility ----------------------------------------------


def test_exact_var_event_rejected_per_engine():
    exact = CrisisEventSpec("var", (0.99,))
    with pytest.raises(ValueError, match="zero-probability"):
        run(RunConfig("M1", exact, "mc"))
    with pytest.raises(ValueError, match="band event"):
        run(RunConfig("M1", exact, "gibbs"))
    with pytest.raises(ValueError, match="positive delta"):
        run(RunConfig("M1", exact, "hmc"))


def test_var_reduction_needs_nonnegative_losses():
    band = CrisisEventSpec("var", (0.99,), delta=0.001)
    with pytest.raises(ValueError, match="nonnegative"):
        run(RunConfig("M2", band, "hmc"))


RULE_EVENTS = {
    "es": ES90,
    "rvar": CrisisEventSpec("rvar", (0.9, 0.99)),
    "var band": CrisisEventSpec("var", (0.99,), delta=0.001),
    "exact var": CrisisEventSpec("var", (0.99,)),
}
EXACT_VAR_REFUSALS = {
    "mc": "plain Monte Carlo cannot hit the zero-probability exact var event; "
    "use a positive delta band",
    "hmc": "hmc on the exact var event still needs conditional presample points "
    "for standardization and tuning, which only the delta band provides; use a positive delta",
    "gibbs": "the gibbs engine needs a band event and the exact var event has zero "
    "width; use a positive delta band or the hmc engine",
}


@pytest.mark.parametrize("nonnegative", [True, False])
@pytest.mark.parametrize("form", list(RULE_EVENTS))
@pytest.mark.parametrize("engine", ["mc", "hmc", "gibbs"])
def test_engine_event_rule_matrix(engine, form, nonnegative):
    # every pair runs on every model but these: exact var on any engine, and
    # hmc's reduced target on a var band, which needs nonnegative losses
    refusal = None
    if form == "exact var":
        refusal = EXACT_VAR_REFUSALS[engine]
    elif (engine, form, nonnegative) == ("hmc", "var band", False):
        refusal = (
            "var dimension reduction requires a model with nonnegative losses; "
            "profit-and-loss models are not supported"
        )
    if refusal is None:
        harness._check_supported(engine, RULE_EVENTS[form], nonnegative)
    else:
        with pytest.raises(ValueError) as err:
            harness._check_supported(engine, RULE_EVENTS[form], nonnegative)
        assert str(err.value) == refusal


# -- determinism and artifacts -----------------------------------------------


def _read(path):
    with open(path, "rb") as f:
        return f.read()


def test_same_config_same_seed_byte_identical_report(tmp_path):
    def cfg(out):
        return RunConfig("M1", ES90, "gibbs", n_mc=4000, n_mcmc=200, seed=9, output_dir=out)

    run(cfg(tmp_path / "a"))
    run(cfg(tmp_path / "b"))
    assert _read(tmp_path / "a" / "report.json") == _read(tmp_path / "b" / "report.json")
    assert _read(tmp_path / "a" / "samples.csv") == _read(tmp_path / "b" / "samples.csv")
    assert _read(tmp_path / "a" / "diagnostics.csv") == _read(tmp_path / "b" / "diagnostics.csv")


def test_report_json_schema_and_runtime_placement(tmp_path):
    rep = run(
        RunConfig("M1", ES90, "gibbs", n_mc=4000, n_mcmc=200, seed=9, output_dir=tmp_path)
    )
    doc = json.loads(_read(tmp_path / "report.json"))
    assert set(doc) == {
        "engine",
        "model",
        "seed",
        "n",
        "requested_event",
        "event_spec",
        "event",
        "allocations",
        "sum_of_estimates",
        "engine_details",
        "widening_log",
    }
    assert doc["engine"] == "gibbs" and doc["model"] == "M1" and doc["n"] == 200
    assert len(doc["allocations"]) == 3
    assert set(doc["allocations"][0]) == {
        "coordinate",
        "measure",
        "levels",
        "estimate",
        "se",
        "few_batches",
    }
    # wall clock lives in the manifest, never in the report
    manifest = json.loads(_read(tmp_path / "manifest.json"))
    assert manifest["runtime_seconds"] > 0.0
    assert manifest["config"]["seed"] == 9
    assert manifest["artifacts"] == ["report.json", "samples.csv", "diagnostics.csv"]
    assert rep.runtime_seconds > 0.0


def test_gibbs_artifact_csv_shapes(tmp_path):
    rep = run(
        RunConfig("M1", ES90, "gibbs", n_mc=4000, n_mcmc=150, seed=2, output_dir=tmp_path)
    )
    samples = (tmp_path / "samples.csv").read_text().splitlines()
    assert samples[0] == "X1,X2,X3"
    assert len(samples) == 1 + 150
    diag = (tmp_path / "diagnostics.csv").read_text().splitlines()
    assert diag[0] == "iteration,coordinate_updated,accepted"
    assert len(diag) == 1 + 150 * rep.engine_details["thin_T"]
    assert all(line.endswith(",1") for line in diag[1:])


def test_hmc_artifact_csv_shapes(tmp_path):
    rep = run(
        RunConfig(
            "M1",
            RVAR,
            "hmc",
            n_mc=4000,
            n_mcmc=150,
            seed=2,
            output_dir=tmp_path,
            overrides=HmcParams(0.05, 10),
        )
    )
    diag = (tmp_path / "diagnostics.csv").read_text().splitlines()
    assert diag[0] == "iteration,delta_H,accepted"
    assert len(diag) == 1 + 150
    accepted = sum(int(line.split(",")[2]) for line in diag[1:])
    assert accepted == round(rep.engine_details["acr"] * 150)


def _csv_writer_bytes(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)
    return path.read_bytes()


def test_streamed_csv_equals_the_csv_module(tmp_path):
    rng = np.random.default_rng(0)
    # the rows the chains and the sample give: hmc (iteration, delta_H,
    # accepted) with non-finite and extreme delta_H, gibbs (iteration,
    # coordinate, 1) and sample rows of floats
    delta_h = np.concatenate([
        rng.standard_normal(200) * 10.0 ** rng.integers(-300, 300, 200),
        [np.inf, -np.inf, np.nan, -0.0, 0.0, 5e-324, 1.7976931348623157e308],
    ])
    accepted = rng.random(delta_h.size) < 0.7
    hmc_rows = list(zip(
        range(1, delta_h.size + 1), delta_h.tolist(), accepted.astype(int).tolist()
    ))
    coords = rng.integers(0, 3, 300)
    gibbs_rows = list(zip(range(1, coords.size + 1), (coords + 1).tolist(), [1] * coords.size))
    sample = rng.standard_normal((50, 3)) * 1e3
    # comparison rows: engine names, a blank bias (no oracle) and non-finite values
    comparison_rows = [
        ["mc", 1, 1.5, "", 0.25, np.inf, 0.125],
        ["hmc", 2, np.nan, -0.0, 5e-324, 1e300, 3.0],
        ["gibbs", 3, -2.0, 0.1, 0.0, np.nan, 1e-7],
    ]
    cases = {
        "hmc": (["iteration", "delta_H", "accepted"], hmc_rows, hmc_rows),
        "gibbs": (["iteration", "coordinate_updated", "accepted"], gibbs_rows, gibbs_rows),
        "sample": (["X1", "X2", "X3"], map(np.ndarray.tolist, sample), sample.tolist()),
        "comparison": (
            ["engine", "coordinate", "estimate", "bias", "se", "time_adjusted_mse", "runtime"],
            comparison_rows, comparison_rows,
        ),
    }
    for name, (header, rows, want_rows) in cases.items():
        harness._write_csv(tmp_path / f"{name}.csv", header, rows)
        want = _csv_writer_bytes(tmp_path / f"{name}-csv-module.csv", header, want_rows)
        assert (tmp_path / f"{name}.csv").read_bytes() == want, name


def test_mc_run_writes_no_diagnostics(tmp_path):
    run(RunConfig("M1", ES90, "mc", n_mc=4000, seed=2, output_dir=tmp_path))
    assert not (tmp_path / "diagnostics.csv").exists()
    manifest = json.loads(_read(tmp_path / "manifest.json"))
    assert manifest["artifacts"] == ["report.json", "samples.csv"]


def test_manifest_version_is_the_package_version(tmp_path):
    run(RunConfig("M1", ES90, "mc", n_mc=4000, seed=2, output_dir=tmp_path))
    manifest = json.loads(_read(tmp_path / "manifest.json"))
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    declared = re.search(r'^version = "(.+)"$', pyproject, re.MULTILINE).group(1)
    assert manifest["version"] == riskalloc.__version__ == declared


def test_rvar_sample_sums_stay_in_band(tmp_path):
    for engine in ("gibbs", "hmc"):
        out = tmp_path / engine
        rep = run(RunConfig("M1", RVAR, engine, n_mc=4000, n_mcmc=200, seed=4, output_dir=out))
        rows = np.loadtxt(out / "samples.csv", delimiter=",", skiprows=1)
        sums = rows.sum(axis=1)
        v1, v2 = rep.event.thresholds["v1"], rep.event.thresholds["v2"]
        assert sums.min() >= v1 - 1e-9 and sums.max() <= v2 + 1e-9
        assert v1 <= rep.sum_estimate() <= v2


def test_hmc_on_a_var_band_reports_the_hyperplane_it_samples(tmp_path):
    band = CrisisEventSpec("var", (0.99,), delta=0.001)
    rep = run(
        RunConfig("M1", band, "hmc", n_mc=20_000, n_mcmc=100, min_conditional=20,
                  seed=0, output_dir=tmp_path)
    )
    v_star = rep.event.thresholds["v_star"]
    assert rep.event.sum_equality == v_star
    assert rep.event.v1 == rep.event.v2 == v_star
    assert set(rep.event.thresholds) == {"v_star", "v_lo", "v_hi"}
    assert rep.requested_event == band
    assert rep.event_spec == CrisisEventSpec("var", (0.99,), delta=0.0)
    doc = json.loads(_read(tmp_path / "report.json"))
    assert doc["event"]["sum_equality"] == v_star and doc["event_spec"]["delta"] == 0.0
    assert doc["requested_event"]["delta"] == 0.001
    # the hyperplane's only half-spaces are x_j >= 0
    assert [c["v"] for c in doc["event"]["constraints"]] == [0.0, 0.0, 0.0]
    rows = np.loadtxt(tmp_path / "samples.csv", delimiter=",", skiprows=1)
    tol = EQUALITY_RTOL * max(1.0, abs(v_star))
    assert np.all(np.abs(rows.sum(axis=1) - v_star) <= tol)
    assert rep.event.contains_rows(rows).all()


@pytest.mark.parametrize("engine", ["mc", "gibbs", "hmc"])
def test_manifest_splits_the_runtime_into_phases(engine, tmp_path):
    extra = {"overrides": HmcParams(0.05, 5)} if engine == "hmc" else {}
    rep = run(RunConfig("M1", ES90, engine, n_mc=2000, n_mcmc=100, seed=1,
                        output_dir=tmp_path, **extra))
    manifest = json.loads(_read(tmp_path / "manifest.json"))
    phases = manifest["phase_seconds"]
    assert set(phases) == {"presample", "event", "prepare", "chain", "measures"}
    assert all(v >= 0.0 for v in phases.values())
    assert sum(phases.values()) <= manifest["runtime_seconds"]
    assert phases == rep.phase_seconds
    assert manifest["runtime_seconds"] == rep.runtime_seconds
    # the report stays free of timings
    assert "phase_seconds" not in json.loads(_read(tmp_path / "report.json"))


def test_manifest_records_hmc_work_counters(tmp_path):
    rep = run(RunConfig("M1", ES90, "hmc", n_mc=2000, n_mcmc=100, seed=1, output_dir=tmp_path))
    manifest = json.loads(_read(tmp_path / "manifest.json"))
    work = manifest["work"]
    assert set(work) == {
        "tune_steps", "tune_trajectory_steps", "tune_capped", "chain_grad_evals", "chain_reflections",
        "presample_kept_rows",
    }
    assert work["chain_grad_evals"] == 2 * rep.engine_details["T"] * 100
    assert 0 < work["tune_steps"] <= work["tune_trajectory_steps"]
    assert work["tune_capped"] == rep.engine_details["tuning"]["n_capped"]
    assert work["chain_reflections"] == round(rep.engine_details["mean_reflections"] * 100)
    assert work == rep.work
    # the report stays free of work counters
    report = _read(tmp_path / "report.json").decode()
    assert "tune_steps" not in report and "chain_reflections" not in report


@pytest.mark.parametrize("engine", ["mc", "gibbs", "hmc"])
def test_manifest_work_without_tuning(engine, tmp_path):
    extra = {"overrides": HmcParams(0.05, 5)} if engine == "hmc" else {}
    run(RunConfig("M1", ES90, engine, n_mc=2000, n_mcmc=100, seed=1, output_dir=tmp_path, **extra))
    work = json.loads(_read(tmp_path / "manifest.json"))["work"]
    if engine == "hmc":
        assert work == {
            "tune_steps": 0, "tune_trajectory_steps": 0, "tune_capped": 0,
            "chain_grad_evals": 1000, "chain_reflections": 19, "presample_kept_rows": 201,
        }
    elif engine == "gibbs":
        # the prerun's n_pre updates; thin_T is 25, the cap n_pre / 4
        assert work == {
            "prerun_updates": 100, "chain_updates": 100 * 25, "degenerate_redraws": 0,
            "presample_kept_rows": 201,
        }
    else:
        assert work == {"presample_rows": 2000, "presample_kept_rows": 201, "conditional_rows": 201}


@pytest.mark.parametrize(
    "engine, overrides, want",
    [
        ("hmc", None, {"tune": 1, "hmc_sample": 1, "rsgs_sample": 0}),
        # the prerun and the main chain
        ("gibbs", None, {"tune": 0, "hmc_sample": 0, "rsgs_sample": 2}),
        ("gibbs", GibbsParams(np.full(3, 1 / 3), 2), {"tune": 0, "hmc_sample": 0, "rsgs_sample": 1}),
    ],
)
def test_engines_call_the_samplers_harness_binds_when_they_run(engine, overrides, want, monkeypatch):
    # perfbench's tracer replaces these module bindings after import; an
    # engine that held its own reference would run untraced
    calls = dict.fromkeys(want, 0)
    for name in want:
        def counted(*args, _name=name, _original=getattr(harness, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(harness, name, counted)
    run(RunConfig("M1", ES90, engine, n_mc=2000, n_mcmc=100, seed=1, overrides=overrides))
    assert calls == want


def test_samplers_are_charged_from_the_presample(monkeypatch):
    # a slow presample shows in every engine's runtime, not only in mc's
    presample = harness.mc_presample

    def slow(model, n, seed, rank=1):
        time.sleep(0.2)
        return presample(model, n, seed, rank)

    monkeypatch.setattr(harness, "mc_presample", slow)
    for engine in ("mc", "gibbs", "hmc"):
        extra = {"overrides": HmcParams(0.05, 5)} if engine == "hmc" else {}
        rep = run(RunConfig("M1", ES90, engine, n_mc=2000, n_mcmc=100, seed=1, **extra))
        assert rep.runtime_seconds >= 0.2
        assert rep.phase_seconds["presample"] >= 0.2


# -- the widening rule --------------------------------------------------------


def test_mc_widening_logged_and_applied():
    rep = run(RunConfig("M1", CrisisEventSpec("es", (0.999,)), "mc", n_mc=20000, seed=0))
    assert rep.requested_event.levels == (0.999,)
    assert rep.event_spec.levels[0] == pytest.approx(0.989)
    assert len(rep.widening_log) == 1
    assert "lowered the lower level" in rep.widening_log[0]
    assert rep.engine_details["k_conditional"] >= 100


def test_mc_widening_draws_the_presample_once(monkeypatch):
    calls = []
    presample = harness.mc_presample

    def counted(model, n, seed, rank=1):
        calls.append(n)
        return presample(model, n, seed, rank)

    monkeypatch.setattr(harness, "mc_presample", counted)
    rep = run(RunConfig("M1", CrisisEventSpec("es", (0.9999,)), "mc", seed=0))
    assert rep.widening_log and calls == [100_000]
    # widening the one presample equals asking for the widened event outright
    direct = run(RunConfig("M1", rep.event_spec, "mc", seed=0))
    assert rep.allocations == direct.allocations
    assert rep.event.to_json_dict() == direct.event.to_json_dict()


def test_widening_gives_up_below_zero():
    narrow = CrisisEventSpec("rvar", (0.005, 0.01))
    with pytest.raises(ConditionalCountError, match="widen the event"):
        run(RunConfig("M1", narrow, "mc", n_mc=100, seed=0))


def test_mcmc_paths_do_not_widen():
    with pytest.raises(ConditionalCountError):
        run(RunConfig("M1", CrisisEventSpec("es", (0.999,)), "gibbs", n_mc=20000, seed=0))


# -- comparison math -----------------------------------------------------------


def test_time_adjusted_mse_formula():
    assert time_adjusted_mse(0.1, 4.0, 10**4, 10.0) == pytest.approx(0.01004, rel=1e-12)
    assert time_adjusted_mse(0.0, 2.0, 100, 1.0) == pytest.approx(0.02)
    with pytest.raises(ValueError):
        time_adjusted_mse(0.1, -1.0, 100, 1.0)
    with pytest.raises(ValueError):
        time_adjusted_mse(0.1, 1.0, 0, 1.0)
    with pytest.raises(ValueError):
        time_adjusted_mse(0.1, 1.0, 100, 0.0)


def _tiny_pair(seed=3):
    ev = CrisisEventSpec("es", (0.95,))
    mc = run(RunConfig("M2", ev, "mc", n_mc=5000, seed=seed))
    gs = run(RunConfig("M2", ev, "gibbs", n_mc=5000, n_mcmc=300, seed=seed))
    return mc, gs


def test_compare_scales_mc_variance_by_runtime_ratio():
    mc, gs = _tiny_pair()
    mc = dataclasses.replace(mc, runtime_seconds=2.0)
    gs = dataclasses.replace(gs, runtime_seconds=1.0)
    rows = compare([mc, gs])
    assert [r.engine for r in rows] == ["mc"] * 3 + ["gibbs"] * 3
    for r, a in zip(rows[:3], mc.allocations):
        assert r.bias is None
        # ratio = 1.0 / 2.0, so the variance term doubles
        assert r.time_adjusted_mse == pytest.approx(2.0 * a.se**2)
    for r, a in zip(rows[3:], gs.allocations):
        assert r.time_adjusted_mse == pytest.approx(a.se**2)


def test_compare_bias_against_oracle_and_floor():
    mc, gs = _tiny_pair()
    oracle = oracle_for("M2", CrisisEventSpec("es", (0.95,)))
    rows = compare([mc, gs], oracle=oracle)
    for r in rows:
        rep = mc if r.engine == "mc" else gs
        assert r.bias == pytest.approx(rep.allocations[r.coordinate - 1].estimate - oracle[r.coordinate - 1])
        assert r.time_adjusted_mse >= r.bias**2


def test_compare_without_mcmc_reference_uses_unit_ratio():
    mc, _ = _tiny_pair()
    mc = dataclasses.replace(mc, runtime_seconds=5.0)
    rows = compare([mc])
    for r, a in zip(rows, mc.allocations):
        assert r.time_adjusted_mse == pytest.approx(a.se**2)


def test_identical_runs_give_identical_rows():
    a, _ = _tiny_pair(seed=6)
    b, _ = _tiny_pair(seed=6)
    b = dataclasses.replace(b, runtime_seconds=a.runtime_seconds)
    assert compare([a]) == compare([b])


def test_comparison_csv_layout(tmp_path):
    mc, gs = _tiny_pair()
    path = tmp_path / "comparison.csv"
    write_comparison_csv(compare([mc, gs]), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "engine,coordinate,estimate,bias,se,time_adjusted_mse,runtime"
    assert len(lines) == 1 + 6
    assert lines[1].split(",")[3] == ""  # no oracle, blank bias


def test_oracle_for_elliptical_models_only():
    vec = oracle_for("M2", ES99)
    assert vec.shape == (3,)
    assert oracle_for("M1", ES99) is None


# -- the documented end-to-end examples ---------------------------------------


def test_m1_gibbs_es_allocation_matches_known_levels():
    rep = run(RunConfig("M1", ES99, "gibbs", n_mc=100_000, n_mcmc=10_000, seed=11))
    assert rep.d == 3
    # exchangeable model conditioned on the 99% tail: all three near 15.2
    assert np.all(np.abs(rep.estimates - 15.2) < 1.0)
    assert np.all((rep.ses > 0.05) & (rep.ses < 0.8))
    assert rep.engine_details["acr"] == 1.0


def test_m2_gibbs_beats_mc_bias_in_aggregate():
    # per-run oracle bias magnitude, averaged over 10 seeds: the chain spends
    # every draw inside the event, so its per-run deviations should be smaller
    # than plain MC's (which keeps only ~1% of its draws) in most coordinates
    ev = ES99
    oracle = oracle_for("M2", ev)
    abias = {"mc": np.zeros(3), "gibbs": np.zeros(3)}
    for seed in range(10):
        for engine in abias:
            rep = run(RunConfig("M2", ev, engine, n_mc=100_000, n_mcmc=10_000, seed=seed))
            abias[engine] += np.abs(rep.estimates - oracle) / 10.0
    assert (abias["gibbs"] < abias["mc"]).sum() >= 2

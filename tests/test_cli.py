"""CLI tests, driven in-process through main()."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from riskalloc import harness
from riskalloc.cli import main

TINY = ["--n-mc", "4000", "--n", "200", "--seed", "3"]


def test_presets_lists_models(capsys):
    assert main(["presets"]) == 0
    out = capsys.readouterr().out
    assert "M1: d=3 copula=SurvivalClayton marginals=[GPD, GPD, GPD]" in out
    assert "M2" in out and "StudentTCopula" in out
    assert "M3: d=2" in out and "Pareto" in out


def test_allocate_gibbs_writes_artifacts(tmp_path, capsys):
    rc = main(
        ["allocate", "--model", "M1", "--event", "es", "--levels", "0.9",
         "--engine", "gibbs", *TINY, "--out", str(tmp_path)]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "engine=gibbs model=M1 event=es(0.9,) n=200 seed=3" in out
    assert out.count("  X") == 3 and "sum" in out
    for name in ("report.json", "samples.csv", "diagnostics.csv", "manifest.json"):
        assert (tmp_path / name).exists()


def test_allocate_measure_flag(tmp_path):
    rc = main(
        ["allocate", "--model", "M1", "--event", "es", "--levels", "0.9",
         "--measure", "es:0.9", *TINY, "--out", str(tmp_path)]
    )
    assert rc == 0
    doc = json.loads((tmp_path / "report.json").read_text())
    assert [a["measure"] for a in doc["allocations"]] == ["es"] * 3
    assert all(a["levels"] == [0.9] for a in doc["allocations"])


def test_allocate_from_config_file(tmp_path, capsys):
    cfg = {
        "model": "M2",
        "event": {"kind": "es", "levels": [0.9]},
        "engine": "mc",
        "n_mc": 4000,
        "seed": 1,
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    rc = main(["allocate", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 0
    assert "engine=mc model=M2" in capsys.readouterr().out
    doc = json.loads((tmp_path / "out" / "report.json").read_text())
    assert doc["engine"] == "mc" and doc["seed"] == 1


def _allocate_from_config(tmp_path, name, **fields):
    cfg = {"model": "M2", "event": {"kind": "es", "levels": [0.9]}, "n_mc": 4000, "seed": 1}
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({**cfg, **fields}))
    return main(["allocate", "--config", str(path), "--out", str(tmp_path / name)])


def test_config_file_counts_read_integral_floats_and_name_a_bad_field(tmp_path, capsys):
    # json writes the floats 1e5 and 1.0 as 100000.0 and 1.0
    assert _allocate_from_config(tmp_path, "ints", n_mc=100_000) == 0
    assert _allocate_from_config(tmp_path, "floats", n_mc=1e5, seed=1.0) == 0
    report = "report.json"
    assert (tmp_path / "floats" / report).read_bytes() == (tmp_path / "ints" / report).read_bytes()
    assert _allocate_from_config(tmp_path, "gibbs", engine="gibbs", n_mcmc=200.0) == 0
    assert json.loads((tmp_path / "gibbs" / report).read_text())["n"] == 200
    capsys.readouterr()
    for field in ("n_mc", "n_mcmc", "min_conditional"):
        for bad in (2.5, True, "100"):
            assert _allocate_from_config(tmp_path, "bad", **{field: bad}) == 2
            assert f"error: {field} must be an integer of at least" in capsys.readouterr().err
    for bad in (True, 2.5):
        assert _allocate_from_config(tmp_path, "bad", seed=bad) == 2
        assert "error: seed must be an integer of at least 0" in capsys.readouterr().err


ES = {"kind": "es", "levels": [0.9]}


@pytest.mark.parametrize(
    "key, cfg",
    [
        ("event", {"model": "M2"}),
        ("kind", {"model": "M2", "event": {"levels": [0.9]}}),
        ("levels", {"model": "M2", "event": {"kind": "es"}}),
        ("kind", {"model": "M2", "event": ES, "measures": [{"levels": [0.9]}] * 3}),
        ("eps", {"model": "M2", "event": ES, "engine": "hmc", "overrides": {"T": 5}}),
        ("thin_T", {"model": "M2", "event": ES, "engine": "gibbs", "overrides": {"p": [0.2, 0.3, 0.5]}}),
    ],
    ids=["event", "event-kind", "event-levels", "measure-kind", "hmc-eps", "gibbs-thin_T"],
)
def test_config_file_missing_a_key_exits_2_and_names_it(key, cfg, tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    assert main(["allocate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and repr(key) in err


@pytest.mark.parametrize(
    "field, cfg",
    [
        ("event", {"model": "M2", "event": "es"}),
        ("measures", {"model": "M2", "event": ES, "measures": {"kind": "mean"}}),
        ("levels", {"model": "M2", "event": {"kind": "es", "levels": 0.9}}),
        ("overrides", {"model": "M2", "event": ES, "engine": "hmc", "overrides": [1, 2]}),
        ("model", {"event": ES}),
        ("delta", {"model": "M2", "event": {"kind": "var", "levels": [0.9], "delta": "x"}}),
        ("delta", {"model": "M2", "event": {"kind": "var", "levels": [0.9], "delta": True}}),
        ("levels", {"model": "M2", "event": {"kind": "es", "levels": ["a"]}}),
        ("measures[0].levels", {"model": "M2", "event": ES, "measures": [{"kind": "es", "levels": ["q"]}] * 3}),
        ("eps", {"model": "M2", "event": ES, "engine": "hmc", "overrides": {"eps": "a", "T": 5}}),
        ("p", {"model": "M2", "event": ES, "engine": "gibbs", "overrides": {"p": ["a", 0.5, 0.5], "thin_T": 2}}),
        ("model", {"model": 5, "event": ES}),
        ("epsilon", {"model": "M2", "event": ES, "engine": "hmc", "overrides": {"eps": 0.1, "T": 3, "epsilon": 9}}),
        ("thin", {"model": "M2", "event": ES, "engine": "gibbs", "overrides": {"p": [0.5, 0.25, 0.25], "thin_T": 2, "thin": 1}}),
    ],
    ids=["event", "measures", "levels", "hmc-overrides", "no-model", "delta", "delta-bool",
         "level", "measure-level", "hmc-eps", "gibbs-p", "model", "hmc-unknown-key",
         "gibbs-unknown-key"],
)
def test_config_file_field_of_a_wrong_type_exits_2_and_names_it(field, cfg, tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    assert main(["allocate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the config") and repr(field) in err


def test_python_m_riskalloc_runs_the_cli_from_a_checkout():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-m", "riskalloc", "presets"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == ["M1", "M2", "M3"]


def test_allocate_model_file(tmp_path):
    spec = {
        "marginals": [
            {"kind": "gpd", "params": [0.2, 1.0]},
            {"kind": "gpd", "params": [0.2, 1.0]},
        ],
        "copula": {"kind": "independence"},
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(spec))
    rc = main(
        ["allocate", "--model-file", str(path), "--event", "rvar",
         "--levels", "0.5,0.9", "--engine", "mc", "--n-mc", "4000"]
    )
    assert rc == 0


GPD2 = [{"kind": "gpd", "params": [0.2, 1.0]}] * 2


@pytest.mark.parametrize(
    "key, spec",
    [
        ("copula", {"marginals": GPD2}),
        ("marginals", {"copula": {"kind": "independence"}}),
        ("theta", {"marginals": GPD2, "copula": {"kind": "clayton"}}),
        ("kind", {"marginals": [{"params": [0.2, 1.0]}] * 2, "copula": {"kind": "independence"}}),
        ("params", {"marginals": [{"kind": "gpd"}] * 2, "copula": {"kind": "independence"}}),
    ],
    ids=["copula", "marginals", "copula-theta", "marginal-kind", "marginal-params"],
)
def test_model_spec_missing_a_key_exits_2_and_names_it(key, spec, tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(spec))
    argv = ["--event", "es", "--levels", "0.9", "--n-mc", "4000"]
    assert main(["allocate", "--model-file", str(path), *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the model spec") and repr(key) in err
    # the same spec inline in a run config
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"model": spec, "event": ES, "n_mc": 4000}))
    assert main(["allocate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the model spec") and repr(key) in err


@pytest.mark.parametrize(
    "key, where, spec",
    [
        ("copulaa", "the model spec has", {"marginals": GPD2, "copulaa": {"kind": "independence"}}),
        ("beta", "the model spec field 'marginals[0]'",
         {"marginals": [{"kind": "gpd", "params": [0.2, 1.0], "beta": 1.0}] * 2,
          "copula": {"kind": "independence"}}),
        ("thetta", "the model spec field 'copula'",
         {"marginals": GPD2, "copula": {"kind": "clayton", "theta": 2.0, "thetta": 5}}),
        ("corr", "the model spec field 'copula'",
         {"marginals": GPD2, "copula": {"kind": "independence", "corr": [[1.0, 0.0], [0.0, 1.0]]}}),
    ],
    ids=["top-level", "marginal", "clayton", "independence"],
)
def test_model_file_with_an_unknown_key_exits_2_and_names_it(key, where, spec, tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(spec))
    argv = ["--event", "es", "--levels", "0.9", "--n-mc", "4000"]
    assert main(["allocate", "--model-file", str(path), *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {where}") and f"unknown keys [{key!r}]" in err


@pytest.mark.parametrize(
    "field, spec",
    [
        ("marginals", {"marginals": {"kind": "gpd"}, "copula": {"kind": "independence"}}),
        ("marginals[0]", {"marginals": ["gpd", "gpd"], "copula": {"kind": "independence"}}),
        ("copula", {"marginals": GPD2, "copula": "clayton"}),
        ("corr", {"marginals": GPD2, "copula": {"kind": "gaussian", "corr": "abc"}}),
        ("params", {"marginals": [{"kind": "gpd", "params": ["0.2", 1.0]}] * 2,
                    "copula": {"kind": "independence"}}),
        ("params", {"marginals": [{"kind": "gpd", "params": [0.2, True]}] * 2,
                    "copula": {"kind": "independence"}}),
        ("theta", {"marginals": GPD2, "copula": {"kind": "clayton", "theta": "2"}}),
    ],
    ids=["marginals", "marginal", "copula", "corr", "params-string", "params-bool", "theta"],
)
def test_model_spec_field_of_a_wrong_type_exits_2_and_names_it(field, spec, tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(spec))
    argv = ["--event", "es", "--levels", "0.9", "--n-mc", "4000"]
    assert main(["allocate", "--model-file", str(path), *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the model spec field") and repr(field) in err
    # the same spec inline in a run config
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"model": spec, "event": ES, "n_mc": 4000}))
    assert main(["allocate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the model spec field") and repr(field) in err


@pytest.mark.parametrize(
    "marginal, message",
    [
        ({"kind": "gpd", "params": [0.3]}, "of a gpd marginal takes (xi, beta), got 1 number"),
        ({"kind": "gpd", "params": [0.3, 1.0, 7.0]}, "of a gpd marginal takes (xi, beta), got 3 numbers"),
        ({"kind": "studentt", "params": []}, "of a studentt marginal takes (nu, mu, sigma), got 0 numbers"),
        ({"kind": "Normal", "params": [0.0, 1.0, 2.0]}, "of a normal marginal takes (mu, sigma), got 3 numbers"),
    ],
    ids=["gpd-too-few", "gpd-too-many", "studentt-none", "normal-too-many"],
)
def test_model_spec_params_of_a_wrong_length_exit_2_and_name_the_parameters(marginal, message, tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"marginals": [marginal] * 2, "copula": {"kind": "independence"}}))
    argv = ["--event", "es", "--levels", "0.9", "--n-mc", "4000"]
    assert main(["allocate", "--model-file", str(path), *argv]) == 2
    assert capsys.readouterr().err == f"error: the model spec field 'params' {message}\n"


@pytest.mark.parametrize(
    "spec, message",
    [
        ({"marginals": GPD2, "copula": {"kind": "clayton", "theta": math.inf}}, "Clayton theta must be finite and > 0"),
        ({"marginals": [{"kind": "gpd", "params": [0.2, math.inf]}] * 2, "copula": {"kind": "independence"}},
         "GPD scale beta must be finite and > 0"),
        ({"marginals": [{"kind": "normal", "params": [math.nan, 1.0]}] * 2, "copula": {"kind": "independence"}},
         "Normal location mu must be finite"),
    ],
    ids=["clayton-theta", "gpd-beta", "normal-mu"],
)
def test_model_spec_with_an_infinite_or_nan_parameter_exits_2_and_names_it(spec, message, tmp_path, capsys):
    # json writes and reads Infinity and NaN; before the finite checks the
    # Clayton case ran to estimates with se 0 and the others failed only at
    # an empty presample tail
    path = tmp_path / "model.json"
    path.write_text(json.dumps(spec))
    assert "Infinity" in path.read_text() or "NaN" in path.read_text()
    argv = ["--event", "es", "--levels", "0.99", "--n-mc", "20000"]
    assert main(["allocate", "--model-file", str(path), *argv]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_config_with_an_empty_measure_list_exits_2(tmp_path, capsys):
    # an empty list is one measure for none of the coordinates, not the default
    assert _allocate_from_config(tmp_path, "empty", measures=[]) == 2
    assert capsys.readouterr().err == "error: need one measure per coordinate: got 0 for d=3\n"


@pytest.mark.parametrize("engine", ["mc", "hmc", "gibbs"])
def test_var_band_past_the_unit_interval_exits_2_before_the_presample(engine, monkeypatch, capsys):
    def no_presample(*args, **kwargs):
        raise AssertionError("the presample ran for an event that cannot be built")

    monkeypatch.setattr(harness, "mc_presample", no_presample)
    argv = ["allocate", "--model", "M1", "--event", "var", "--levels", "0.995",
            "--delta", "0.01", "--engine", engine, *TINY]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: band levels 0.995 +/- 0.01 fall outside (0, 1)\n"


NAN_GPD2 = [{"kind": "gpd", "params": [math.nan, 1.0]}] * 2


@pytest.mark.parametrize(
    "message, cfg",
    [
        ("selection probabilities must be positive",
         {"model": "M2", "event": ES, "engine": "gibbs", "overrides": {"p": [math.nan, 0.5, 0.5], "thin_T": 2}}),
        ("GPD shape xi must be finite and >= 0", {"model": {"marginals": NAN_GPD2, "copula": {"kind": "independence"}}, "event": ES}),
    ],
    ids=["gibbs-p", "gpd-xi"],
)
def test_config_with_a_nan_exits_2_and_names_it(message, cfg, tmp_path, capsys):
    # json writes and reads NaN; a NaN is named where it is checked, not run
    # through (an all-NaN p normalized) or first seen as an empty presample tail
    path = tmp_path / "run.json"
    path.write_text(json.dumps({**cfg, "n_mc": 4000, "n_mcmc": 200, "seed": 3}))
    assert main(["allocate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_allocate_nan_delta_exits_2(tmp_path, capsys):
    # not run and written out as "delta": NaN, which strict JSON rejects
    argv = ["allocate", "--model", "M2", "--event", "es", "--levels", "0.99",
            "--delta", "nan", *TINY, "--out", str(tmp_path)]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: delta must be nonnegative\n"


def test_allocate_incompatible_run_exits_2(capsys):
    rc = main(["allocate", "--model", "M1", "--event", "var", "--levels", "0.99", "--engine", "mc", *TINY])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def test_allocate_missing_event_exits(capsys):
    for argv, flag in [
        (["--model", "M1"], "--event"),
        (["--model", "M1", "--event", "es"], "--levels"),
        (["--event", "es", "--levels", "0.9"], "--model"),
    ]:
        assert main(["allocate", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and flag in err


def test_allocate_bad_measure_exits(capsys):
    assert main(["allocate", "--model", "M1", "--event", "es", "--levels", "0.9",
                 "--measure", "median", *TINY]) == 2
    assert capsys.readouterr().err.startswith("error: unknown measure kind 'median'")


def test_allocate_bad_measure_level_exits(capsys):
    assert main(["allocate", "--model", "M2", "--event", "es", "--levels", "0.99",
                 "--measure", "var:abc", *TINY]) == 2
    assert capsys.readouterr().err == (
        "error: --measure levels must be numbers separated by ';', got 'var:abc'\n"
    )


def test_tune_hmc_emits_params(tmp_path, capsys):
    rc = main(
        ["tune", "--model", "M1", "--event", "rvar", "--levels", "0.8,0.9",
         "--n-mc", "4000", "--seed", "1", "--out", str(tmp_path)]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["engine"] == "hmc"
    assert payload["eps"] > 0 and payload["T"] >= 1
    assert 0.0 <= payload["alpha_bar"] <= 1.0
    on_disk = json.loads((tmp_path / "tuned.json").read_text())
    assert on_disk == payload


def test_tune_gibbs_emits_params(capsys):
    rc = main(
        ["tune", "--engine", "gibbs", "--model", "M1", "--event", "es",
         "--levels", "0.9", "--n-mc", "4000", "--seed", "1"]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["engine"] == "gibbs"
    assert len(payload["p"]) == 3 and sum(payload["p"]) == pytest.approx(1.0)
    assert payload["thin_T"] >= 1


def test_compare_prints_table_and_csv(tmp_path, capsys):
    rc = main(
        ["compare", "--model", "M2", "--event", "es", "--levels", "0.9",
         "--engines", "mc,gibbs", *TINY, "--out", str(tmp_path)]
    )
    assert rc == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0].split() == ["engine", "coord", "estimate", "bias", "se", "mse", "runtime"]
    assert sum(1 for ln in lines if ln.startswith("mc")) == 3
    assert sum(1 for ln in lines if ln.startswith("gibbs")) == 3
    csv_lines = (tmp_path / "comparison.csv").read_text().splitlines()
    assert csv_lines[0] == "engine,coordinate,estimate,bias,se,time_adjusted_mse,runtime"
    assert len(csv_lines) == 7
    # M2 is elliptical, so the bias column is populated
    assert csv_lines[1].split(",")[3] != ""


def test_n_mc_takes_an_integral_float_and_rejects_a_fraction(tmp_path, capsys):
    flags = ["--model", "M2", "--event", "es", "--levels", "0.9", "--seed", "3"]
    assert main(["allocate", *flags, "--n-mc", "4e3", "--out", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "manifest.json").read_text())["config"]["n_mc"] == 4000
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["allocate", *flags, "--n-mc", "1.5"])
    assert exc.value.code == 2
    assert "expected a whole number such as 1e7, got '1.5'" in capsys.readouterr().err


def test_n_takes_an_integral_float_and_rejects_a_fraction(tmp_path, capsys):
    flags = ["--model", "M2", "--event", "es", "--levels", "0.9", "--n-mc", "4000", "--seed", "3"]
    assert main(["allocate", *flags, "--engine", "gibbs", "--n", "2e2", "--out", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "report.json").read_text())["n"] == 200
    assert main(["compare", *flags, "--engines", "gibbs", "--n", "2e2"]) == 0
    capsys.readouterr()
    for command in ("allocate", "compare"):
        with pytest.raises(SystemExit) as exc:
            main([command, *flags, "--n", "1.5"])
        assert exc.value.code == 2
        assert "expected a whole number such as 1e7, got '1.5'" in capsys.readouterr().err


def _tuned_and_used(flags, tmp_path, capsys):
    """What `tune` prints and the engine_details `allocate` reports, same flags."""
    assert main(["tune", *flags]) == 0
    tuned = json.loads(capsys.readouterr().out)
    assert main(["allocate", *flags, "--n", "100", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    return tuned, json.loads((tmp_path / "report.json").read_text())["engine_details"]


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_tune_prints_the_gibbs_parameters_allocate_uses(seed, tmp_path, capsys):
    flags = ["--model", "M2", "--event", "es", "--levels", "0.99", "--engine", "gibbs",
             "--seed", str(seed)]
    tuned, used = _tuned_and_used(flags, tmp_path, capsys)
    assert tuned == {"engine": "gibbs", "p": used["p"], "thin_T": used["thin_T"],
                     "thin_capped": used["thin_capped"]}


def test_tune_prints_the_hmc_parameters_allocate_uses(tmp_path, capsys):
    flags = ["--model", "M1", "--event", "rvar", "--levels", "0.975,0.99", "--engine", "hmc",
             "--n-mc", "10000", "--seed", "1"]
    tuned, used = _tuned_and_used(flags, tmp_path, capsys)
    assert tuned == {"engine": "hmc", "eps": used["eps"], "T": used["T"], **used["tuning"]}


def test_tune_rejects_an_incompatible_pair_like_allocate(capsys):
    flags = ["--model", "M1", "--event", "var", "--levels", "0.99", "--engine", "hmc",
             "--n-mc", "4000"]
    assert main(["allocate", *flags]) == 2
    refused = capsys.readouterr().err
    assert "positive delta" in refused
    assert main(["tune", *flags]) == 2
    assert capsys.readouterr().err == refused

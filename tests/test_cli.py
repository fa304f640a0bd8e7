"""CLI tests, driven in-process through main()."""

import json

import pytest

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


def test_allocate_incompatible_run_exits_2(capsys):
    rc = main(["allocate", "--model", "M1", "--event", "var", "--levels", "0.99", "--engine", "mc", *TINY])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def test_allocate_missing_event_exits():
    with pytest.raises(SystemExit, match="--event"):
        main(["allocate", "--model", "M1"])
    with pytest.raises(SystemExit, match="--levels"):
        main(["allocate", "--model", "M1", "--event", "es"])
    with pytest.raises(SystemExit, match="--model"):
        main(["allocate", "--event", "es", "--levels", "0.9"])


def test_allocate_bad_measure_exits():
    with pytest.raises(SystemExit, match="measure"):
        main(["allocate", "--model", "M1", "--event", "es", "--levels", "0.9",
              "--measure", "median", *TINY])


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

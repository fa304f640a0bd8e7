"""Command line entry points: allocate, tune, compare, presets."""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

from .events import EVENT_KINDS, CrisisEventSpec
from .harness import (
    ENGINES,
    RunConfig,
    compare,
    oracle_for,
    prepare,
    run,
    run_config_from_dict,
    write_comparison_csv,
)
from .measures import MarginalRiskMeasure
from .models import PRESET_NAMES, load_model, preset


def _parse_levels(text: str) -> tuple:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"levels must be comma-separated numbers, got {text!r}")


def _whole_number(text: str) -> int:
    """A count written as an int (100000) or as an integral float (1e7)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not value.is_integer():
        raise argparse.ArgumentTypeError(f"expected a whole number such as 1e7, got {text!r}")
    return int(value)


def _event_from_args(args) -> CrisisEventSpec:
    if args.event is None:
        raise ValueError("an event kind is required (--event var|rvar|es)")
    if args.levels is None:
        raise ValueError("event levels are required (--levels, e.g. 0.99 or 0.975,0.99)")
    return CrisisEventSpec(args.event, args.levels, delta=args.delta)


def _model_spec(args):
    path = getattr(args, "model_file", None)
    if path:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    if args.model is None:
        raise ValueError("a model is required (--model M1|M2|M3 or --model-file spec.json)")
    return args.model


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", help=f"preset name ({', '.join(PRESET_NAMES)})")
    p.add_argument("--model-file", help="JSON file with an inline model spec")
    p.add_argument("--event", choices=EVENT_KINDS, help="crisis event kind")
    p.add_argument("--levels", type=_parse_levels, help="event levels, comma separated")
    p.add_argument("--delta", type=float, default=0.0, help="half-width of the var band")
    p.add_argument(
        "--n-mc", type=_whole_number, default=100_000, help="presample / MC size (1e7 allowed)"
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output directory for artifacts")


def _measures_from_args(args, d: int):
    if not args.measure:
        return None
    kinds = args.measure.split(",")
    if len(kinds) == 1:
        kinds = kinds * d
    if len(kinds) != d:
        raise ValueError(f"need one measure or one per coordinate, got {len(kinds)} for d={d}")
    out = []
    for item in kinds:
        name, _, lv = item.partition(":")
        try:
            levels = tuple(float(v) for v in lv.split(";")) if lv else ()
        except ValueError:
            raise ValueError(
                f"--measure levels must be numbers separated by ';', got {item!r}"
            ) from None
        out.append(MarginalRiskMeasure(name, levels))
    return tuple(out)


def _run_config(args, model, engine: str, d: int = None, **fields) -> RunConfig:
    """The run the common flags give on model (a spec) and engine, with the
    command's own fields.  The event is checked before the measures, which
    --measure gives when d, the model's dimension, is passed."""
    event = _event_from_args(args)
    if d is not None:
        fields["measures"] = _measures_from_args(args, d)
    return RunConfig(
        model=model, event=event, engine=engine, n_mc=args.n_mc, seed=args.seed, **fields
    )


def _cmd_allocate(args) -> int:
    if args.config:
        with open(args.config, encoding="utf-8") as f:
            config = run_config_from_dict(json.load(f))
        if args.out:
            config = dataclasses.replace(config, output_dir=args.out)
    else:
        model = _model_spec(args)
        config = _run_config(
            args, model, args.engine, d=load_model(model).d, n_mcmc=args.n, output_dir=args.out
        )
    report = run(config)
    spec = report.event_spec
    print(
        f"engine={report.engine} model={report.model_name} "
        f"event={spec.kind}{spec.levels} n={report.n} seed={report.seed}"
    )
    for a in report.allocations:
        label = a.kind if not a.levels else f"{a.kind}{a.levels}"
        print(f"  X{a.coordinate}  {label:<18} {a.estimate: .6f}  se {a.se:.6f}")
    print(f"  sum {report.sum_estimate():.6f}")
    for line in report.widening_log:
        print(f"  note: {line}")
    if config.output_dir is not None:
        print(f"  artifacts in {config.output_dir}")
    return 0


def _cmd_tune(args) -> int:
    details = prepare(_run_config(args, _model_spec(args), args.engine)).details
    if args.engine == "gibbs":
        payload = {"engine": "gibbs", **{k: details[k] for k in ("p", "thin_T", "thin_capped")}}
    else:
        payload = {"engine": "hmc", "eps": details["eps"], "T": details["T"], **details["tuning"]}
    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "tuned.json").write_text(text + "\n", encoding="utf-8")
    return 0


def _cmd_compare(args) -> int:
    model = _model_spec(args)
    reports = [
        run(_run_config(args, model, engine.strip(), n_mcmc=args.n))
        for engine in args.engines.split(",")
    ]
    rows = compare(reports, oracle=oracle_for(model, reports[0].requested_event))
    header = f"{'engine':<6} {'coord':>5} {'estimate':>12} {'bias':>10} {'se':>10} {'mse':>12} {'runtime':>9}"
    print(header)
    for r in rows:
        bias = "" if r.bias is None else f"{r.bias:.4f}"
        print(
            f"{r.engine:<6} {r.coordinate:>5} {r.estimate:>12.6f} {bias:>10} "
            f"{r.se:>10.6f} {r.time_adjusted_mse:>12.3e} {r.runtime:>9.3f}"
        )
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_comparison_csv(rows, out / "comparison.csv")
        print(f"wrote {out / 'comparison.csv'}")
    return 0


def _cmd_presets(_args) -> int:
    for name in PRESET_NAMES:
        m = preset(name)
        margs = ", ".join(type(x).__name__ for x in m.marginals)
        print(f"{name}: d={m.d} copula={type(m.copula).__name__} marginals=[{margs}]")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riskalloc",
        description="Systemic risk allocations by plain Monte Carlo, "
        "reflection HMC, and random-scan Gibbs sampling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("allocate", help="run one allocation and report estimates")
    _add_common(p)
    p.add_argument("--engine", choices=tuple(ENGINES), default="mc")
    p.add_argument("--n", type=_whole_number, default=10_000, help="MCMC sample size (1e4 allowed)")
    p.add_argument(
        "--measure",
        help="per-coordinate measure: kind or comma list, levels after ':' "
        "separated by ';' (e.g. mean or es:0.99)",
    )
    p.add_argument("--config", help="JSON run-config file; flags other than --out are ignored")
    p.set_defaults(func=_cmd_allocate)

    p = sub.add_parser("tune", help="emit tuned sampler parameters only")
    _add_common(p)
    tunable = tuple(name for name, engine in ENGINES.items() if engine.overrides is not None)
    p.add_argument("--engine", choices=tunable, default="hmc")
    p.set_defaults(func=_cmd_tune)

    p = sub.add_parser("compare", help="run several engines and tabulate bias/SE/MSE")
    _add_common(p)
    p.add_argument("--engines", default="mc,hmc", help="comma list of engines")
    p.add_argument("--n", type=_whole_number, default=10_000, help="MCMC sample size (1e4 allowed)")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("presets", help="list built-in models")
    p.set_defaults(func=_cmd_presets)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, TypeError, OSError, RuntimeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

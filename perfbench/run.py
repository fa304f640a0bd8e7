"""riskalloc benchmark: closed-loop `run(RunConfig)` calls, one workload per process.

    python3 perfbench/run.py --workload hmc-es-tail --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one process each

`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
metrics of a traced run.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  See README.md.
"""

from __future__ import annotations

import os

# single-threaded BLAS in this process and every process it starts
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import shutil
import signal
import subprocess
import sys

from workloads import ROOT, WORKLOADS, setup

WORK = ROOT / ".perfbench_work"


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _provenance() -> str:
    import numpy
    import scipy

    return (
        f"nproc {os.cpu_count()}  python {platform.python_version()}  numpy {numpy.__version__}"
        f"  scipy {scipy.__version__}  riskalloc commit {_git_commit()}  threads pinned to 1"
    )


def _setup_probe(name: str, seed: int) -> float:
    """Time the set-up in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, __file__, "--setup-probe", "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def run_workload(args) -> int:
    wl = WORKLOADS[args.workload]
    work = WORK / f"{wl.name}-{os.getpid()}"
    try:
        ra, model, configs, setup_s = setup(wl, args.seed, work)
        if args.setup_probe:
            print(repr(setup_s))
            return 0
        import bench

        print(
            f"workload {wl.name}: {wl.model} es({wl.level}) engine {wl.engine}, n_mc={wl.n_mc}, "
            f"n_mcmc={wl.n_mcmc}; closed loop, 1 caller; run seeds {[c.seed for c in configs]}"
        )
        print("  " + _provenance())
        oracle = ra.oracle_for(model, configs[0].event) if wl.oracle else None
        if args.trace:
            calls, failed, metrics = bench.traced(
                ra, wl, configs, oracle, args.seconds, print
            )
            width = max(len(k) for k in metrics)
            for k, (v, unit) in metrics.items():
                print(f"{k:<{width}}  {v:14.6g} {unit}")
        else:
            calls, failed, metrics, summary = bench.untraced(
                ra, wl, configs, oracle, args.seconds, [setup_s],
                lambda: _setup_probe(wl.name, args.seed), print,
            )
            print("\n".join(summary))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    result = {
        "correct": failed == 0,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        out = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900,
        )
        lines = out.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]))
        if out.returncode != 0 or not lines:
            print(f"workload {name} exited with code {out.returncode}", file=sys.stderr)
            return 1
        res = json.loads(lines[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            merged["metrics"][f"{name}.{k}"] = v
        print()
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    # on SIGTERM, unwind through the `finally` that removes the work directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

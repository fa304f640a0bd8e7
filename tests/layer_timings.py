"""Per-layer timings of the hmc engine, untraced: µs per model point gradient,
per standardized-target point gradient, per leapfrog step and per model
point logpdf, on the M1 and M2 es 0.99 conditional rows (n_mc 10^4, seed 0).

Each number is the best of 7 passes over those rows, one call per row; a
leapfrog step starts at the row, whitened, with a standard-normal momentum
(seed 1) and the stepsize in EPS, the tuned stepsizes of the n_mc 10^5 runs.
BLAS runs on one thread.  pytest does not collect this file; run it against
the riskalloc on PYTHONPATH:
    PYTHONPATH=src python tests/layer_timings.py
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import time

import numpy as np

from riskalloc.events import CrisisEventSpec, EventTarget
from riskalloc.harness import RunConfig, prepare
from riskalloc.hmc import StandardizedTarget, leapfrog_reflect
from riskalloc.models import preset

EPS = {"M1": 0.0119, "M2": 0.047}
PASSES = 7


def best_us_per_call(fn, args) -> float:
    """The fastest of PASSES passes of fn over args, in µs per call."""
    best = np.inf
    for _ in range(PASSES):
        t0 = time.perf_counter()
        for a in args:
            fn(*a)
        best = min(best, time.perf_counter() - t0)
    return 1e6 * best / len(args)


def timings(name: str) -> dict:
    """The four layer timings of preset name, in µs."""
    config = RunConfig(name, CrisisEventSpec("es", (0.99,)), "mc", n_mc=10**4, seed=0)
    run = prepare(config)
    model, rows = preset(name), run.cond
    target = StandardizedTarget(EventTarget(model, run.event), rows)
    ys = target.to_y(rows)
    momenta = np.random.default_rng(1).standard_normal(ys.shape)
    walls, eps = target.constraints, EPS[name]

    def grad_u(z):
        return -target.grad_logpdf(z)

    return {
        "rows": len(rows),
        "model grad_logpdf": best_us_per_call(model.grad_logpdf, [(x,) for x in rows]),
        "target grad_logpdf": best_us_per_call(target.grad_logpdf, [(y,) for y in ys]),
        f"leapfrog step (eps {eps})": best_us_per_call(
            leapfrog_reflect, [(y, p, eps, grad_u, walls) for y, p in zip(ys, momenta)]
        ),
        "model logpdf": best_us_per_call(model.logpdf, [(x,) for x in rows]),
    }


def main():
    for name in EPS:
        t = timings(name)
        print(f"{name} es 0.99, {t.pop('rows')} conditional rows, best of {PASSES}:")
        for layer, us in t.items():
            print(f"  {layer:30s} {us:7.2f} us")


if __name__ == "__main__":
    main()

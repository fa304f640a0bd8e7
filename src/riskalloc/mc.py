"""The unconditional presample and plain Monte Carlo's failure mode.

Every run starts from i.i.d. draws of the loss vector: plain Monte Carlo
keeps the rows that fall in the crisis event as its conditional sample,
and the samplers take their event thresholds, start points and tuning
heuristics from the same rows.
"""

from __future__ import annotations

import numpy as np

from .events import CrisisEventSpec


def mc_presample(model, n: int, seed) -> np.ndarray:
    """n i.i.d. draws of the loss vector as an n x d matrix."""
    if n < 100:
        raise ValueError(f"presample size must be at least 100, got {n}")
    return model.sample(int(n), np.random.default_rng(seed))


class ConditionalCountError(RuntimeError):
    """Too few presample rows landed in the event to estimate anything."""

    def __init__(self, k: int, needed: int, spec: CrisisEventSpec):
        self.k = k
        self.needed = needed
        self.spec = spec
        super().__init__(
            f"only {k} of the sampled rows fall in the {spec.kind} event "
            f"(need {needed}); widen the event, e.g. lower its lower level "
            f"by 0.01, or increase n"
        )

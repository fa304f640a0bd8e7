"""The unconditional presample and plain Monte Carlo's failure mode.

Every run starts from n i.i.d. draws of the loss vector: plain Monte Carlo
keeps the rows that fall in the crisis event as its conditional sample,
and the samplers take their event thresholds, start points and tuning
heuristics from the same rows.

The n rows are drawn PRESAMPLE_CHUNK at a time, each chunk one
model.sample call on the run's one generator, and only the rows a run can
read are kept: those whose sum reaches the lowest order statistic any band
of the run may sit on, less the event tolerance below it (the exact var
hyperplane's), in draw order and with their sums.  For a lowest level
a_low the memory is O(chunk·d + n(1 - a_low)·d), not O(n·d).  A presample
of at most PRESAMPLE_CHUNK rows is one chunk: the draws of one
model.sample(n, rng) call.
"""

from __future__ import annotations

import numpy as np

from .events import EQUALITY_RTOL, CrisisEventSpec, Presample, _row_sums

PRESAMPLE_CHUNK = 2**17


def mc_presample(model, n: int, seed, rank: int = 1) -> Presample:
    """n i.i.d. draws of the loss vector, of which the rows whose sum is at
    least the rank-th smallest of all n sums, less EQUALITY_RTOL relative
    to it, are kept; rank 1 keeps every row."""
    if n < 100:
        raise ValueError(f"presample size must be at least 100, got {n}")
    n = int(n)
    if not 1 <= rank <= n:
        raise ValueError(f"rank must lie in [1, {n}], got {rank}")
    top = n - rank + 1  # the sums at ranks rank..n
    rng = np.random.default_rng(seed)
    pieces, held, cut = [], 0, None
    for start in range(0, n, PRESAMPLE_CHUNK):
        x = model.sample(min(PRESAMPLE_CHUNK, n - start), rng)
        s = _row_sums(x)
        if cut is not None:
            # the top-th largest sum so far only rises as chunks come in,
            # so a row below it now is below the final one too
            x, s = _at_least(x, s, cut)
        pieces.append((x, s))
        held += len(s)
        # cut once the rows held pass twice the rows kept, and at the end:
        # each row is then copied a bounded number of times
        if held > 2 * top or start + PRESAMPLE_CHUNK >= n:
            s = np.concatenate([s for _, s in pieces])
            if len(s) > top:
                cut = float(np.partition(s, len(s) - top)[len(s) - top])
                pieces = [_at_least(x, s, cut) for x, s in pieces]
            x, s = (np.concatenate(blocks) for blocks in zip(*pieces))
            pieces, held = [(x, s)], len(s)
    return Presample(n, x, s)


def _at_least(rows, sums, cut):
    """The rows, with their sums, whose sum is at least cut less the event
    tolerance at cut: those an exact var hyperplane at cut or above may
    hold."""
    i = np.flatnonzero(sums - cut >= -EQUALITY_RTOL * max(1.0, abs(cut)))
    return rows[i], sums[i]


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

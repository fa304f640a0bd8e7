"""Golden outputs: the artifact files of a small run matrix, pinned byte for byte.

Each case runs `run()` with artifacts on and compares the sha256 of
report.json, samples.csv and diagnostics.csv (None when the engine writes
no diagnostics) with the digests below.  A refactor of the run pipeline
must leave every digest unchanged; a deliberate change of output updates
them.  The digests depend on the RNG streams and on the float arithmetic
of the installed numpy/scipy build.

Run this file as a script to print the cases whose digests moved, each
as its old and its new triple (a re-record commit shows both); it exits 1
when any digest moved, 0 when none did, so a byte-identity check can be
scripted:
    PYTHONPATH=src python tests/test_golden.py

With --pools it prints instead the digests of every run seed of the three
benchmark workloads' configs (POOLS, written out below): one line per
run, for the riskalloc on PYTHONPATH.  Two checkouts compare with one
command, this script running against each one's src:
    diff <(PYTHONPATH=a/src python tests/test_golden.py --pools) \
         <(PYTHONPATH=b/src python tests/test_golden.py --pools)
"""

import dataclasses
import hashlib
from pathlib import Path

import numpy as np
import pytest

from riskalloc.events import CrisisEventSpec
from riskalloc.gibbs import GibbsParams
from riskalloc.harness import RunConfig, run
from riskalloc.hmc import HmcParams

ES90 = CrisisEventSpec("es", (0.9,))
RVAR = CrisisEventSpec("rvar", (0.975, 0.99))
VAR_BAND = CrisisEventSpec("var", (0.99,), delta=0.001)
FILES = ("report.json", "samples.csv", "diagnostics.csv")

# HMC tuning runs one trajectory per conditional presample row, so the hmc
# cases keep that pool small (about 30 rows) to stay within seconds
SMALL_HMC = dict(n_mc=300, n_mcmc=100, min_conditional=20)
GIBBS = dict(n_mc=2000, n_mcmc=100)

CASES = {
    "M1-es-mc": RunConfig("M1", ES90, "mc", n_mc=2000),
    "M2-es-mc": RunConfig("M2", ES90, "mc", n_mc=2000),
    "M3-es-mc": RunConfig("M3", ES90, "mc", n_mc=2000),
    "M1-es-gibbs": RunConfig("M1", ES90, "gibbs", **GIBBS),
    "M2-es-gibbs": RunConfig("M2", ES90, "gibbs", **GIBBS),
    "M3-es-gibbs": RunConfig("M3", ES90, "gibbs", **GIBBS),
    "M1-es-hmc": RunConfig("M1", ES90, "hmc", **SMALL_HMC),
    "M2-es-hmc": RunConfig("M2", ES90, "hmc", **SMALL_HMC),
    "M3-es-hmc": RunConfig("M3", ES90, "hmc", **SMALL_HMC),
    "M1-rvar-gibbs": RunConfig("M1", RVAR, "gibbs", n_mc=10_000, n_mcmc=100),
    "M1-rvar-hmc": RunConfig("M1", RVAR, "hmc", n_mc=2000, n_mcmc=100, min_conditional=20),
    "M1-var-band-hmc": RunConfig(
        "M1", VAR_BAND, "hmc", n_mc=20_000, n_mcmc=100, min_conditional=20
    ),
    "M1-es-mc-widened": RunConfig("M1", CrisisEventSpec("es", (0.999,)), "mc", n_mc=20_000),
    "M3-es-hmc-overrides": RunConfig(
        "M3", ES90, "hmc", overrides=HmcParams(0.01, 10), **SMALL_HMC
    ),
    "M2-es-gibbs-overrides": RunConfig(
        "M2", ES90, "gibbs", overrides=GibbsParams(np.array([0.5, 0.3, 0.2]), 3), **GIBBS
    ),
}

DIGESTS = {
    'M1-es-gibbs': ('a76d1f50cf0cb532617464f7c531b34ecadf824fcc032bc9142a7ac25e12eded', '75035bc5d93f0cb2b111ec7f602334ae7e76fd2aebd7cad0f9fb4bebdea5e463', '4ece3aeda882ef0110b3805bcfe9caddee06fece2e9d3d2ba9f6a36c87f3b713'),
    'M1-es-hmc': ('8345fa3017216fcb77942331451f34280478e965a0adddd8f476958909b41c4e', 'ec9215b30312507609366c1a2e3ba4a2a0dce2410fcb33c7d547f7ff98abbf3c', '40fd685a93d68143bdc9b0671118988460609a12071e8c784fd063095098de4d'),
    'M1-es-mc': ('d0a5faa99d66f97c85caa387b2c0cd90e935fd7f80f9d41b4322b448a4560042', 'b716e730a0462da9a5f220bd6acfcc4d9373d5f7b4b71ec9a46ec53011051367', None),
    'M1-es-mc-widened': ('9731f0a20a7d4ae18171217de6f999820f977a3fab1ae5f8c6cfb2d3073d004b', '524a3987f298857eaa73ed7c1151816261fb411fade97ec3ead6ee857a31f7b2', None),
    'M1-rvar-gibbs': ('ff8299d23bc3dd59e5df267f63fbeafa6e429b50e4afc6c031b6a810b90a5c05', '0084540ed60b4c47ffddaa68416ab2b3c95bb7cbf9aa2ba68eb8471db77a3808', 'db284454e326734d868b732e837a641a7a5a64fde7f2c340af8bae0213b1f1f1'),
    'M1-rvar-hmc': ('aebd92d6e9ff9082df4622ff4d8a31098024b9f2c3db4f2f45f93aa892eecbd4', '69b073f82aaf55ccf91cc4a7992526424089f3e75ebbbb59a91e710f28f82f74', 'ce0f672fd38f9f42c3ec655c0e96281c574c3b35dd0cc45c93e86e60313bd275'),
    'M1-var-band-hmc': ('ecb8e120cc56cb5be3976a9762d21ca1900a91712f4ea5d97973fc596348ab47', '552e54a190bc1992850835b9ec42b4be878a2a7e75878690c841fd8cf831e165', '56aac0561fd95feba8b9a1704cf2585252626e4ebb30a26e98633c25a424279d'),
    'M2-es-gibbs': ('f5e972f3c5980d758b735ef34013989e4240def3a93bbd173ab186a25f1cdc09', 'a2fd2c6a03ae1159ed5e0f00e94572c47dc20d58770af0ed6018d9a438c6c912', 'cda1a2c44ea8d22e41ddf7f3911485fbb9c931a6ec7b12e5721a627d96154493'),
    'M2-es-gibbs-overrides': ('e61f6cf4b96a405ca2f7f5f3b36623dd6899474aa7ff9f9f355e4ab6c81f4646', '43b4bea3663449789f6fda3868a9204a8a0c9d8097d3bb0c5493a9ba0ad4764f', 'd256b6996d6a035096653118c9d0e0c13c472300602fd09d9fdc77c070f54201'),
    'M2-es-hmc': ('647b04ff047ee6977aa6bb62e0effbfb9b1fdaaca1f7d848e83ea752da9c5d67', 'a3fc5431a23df3acdc21398fad640de83176e5ea820b372ade4f3e4c8e17145d', '26c1d331033f286f842ba3aa5c4cdf1b3df4d0f139c29d861ae14ef54df0365a'),
    'M2-es-mc': ('13fd70352b4f39b1ccad7ce7a53bb047b1e158872aa60060b5a159a8b08ad2ec', 'c70ec9882b8ca4ffcd21ed6a94933f1f64660124bb0ad376ada204003852b64a', None),
    'M3-es-gibbs': ('778f01eeac207a5d9da61b36dad2a5c8b664ee6e884adb643cab54a254bf5c7f', '313a753b79679223a913b0be16f50d1bbabbe75d80ec2165bf5869bec3c947cd', '844aa17577e94ccc0e626871cdcd96206d68db47d7eda5db3944e202d4d4a3ee'),
    'M3-es-hmc': ('557f85a55644709478373d2840b6d26727b09a5ee61bf74296a5df2d73dfdfa6', 'd37960130c2496ef51d640e1d295994ae52042976d42240f3038c7ab8108c3b3', '0fb01144e86deb5c3b05ea9d613ce05d2ffb4208b177697136f24f53b7d146c7'),
    'M3-es-hmc-overrides': ('a1495ad6749886a6da34595f84bb99af5c181413d03cbbcaed04d027289d1ae1', 'fa9618156f5d755c3c042c47e5ad650c62ef814bd410b57b13aa3d3e2df47285', '48f5b2b11ac4cf0c87cd4812517584449c141c74af851952e1e207f840f3410a'),
    'M3-es-mc': ('27485b05b9d404da69564270652a734b3e81e8aff241b7f0551032c1d7beda25', 'f056cf7af2852a3412fa498fd7318d1650525272896ae7717945ebf11b6ae709', None),
}


# perfbench's workloads as RunConfigs: the hmc and gibbs pools in full, and
# two of the mc workload's drawn run seeds (the first two of --seed 0)
ES99, ES999 = CrisisEventSpec("es", (0.99,)), CrisisEventSpec("es", (0.999,))
HMC_ES_TAIL = dict(model="M1", event=ES99, engine="hmc", n_mc=10_000, n_mcmc=200)
GIBBS_ES_TAIL = dict(model="M2", event=ES99, engine="gibbs", n_mc=100_000, n_mcmc=2_000)
MC_FAR_TAIL = dict(model="M2", event=ES999, engine="mc", n_mc=1_000_000, n_mcmc=100)
POOLS = {
    **{f"hmc-es-tail seed {s}": RunConfig(**HMC_ES_TAIL, seed=s) for s in range(6)},
    **{f"gibbs-es-tail seed {s}": RunConfig(**GIBBS_ES_TAIL, seed=s) for s in range(10)},
    **{f"mc-far-tail seed {s}": RunConfig(**MC_FAR_TAIL, seed=s) for s in (1750292642, 1582608165)},
}


def digests(config: RunConfig, out: Path) -> tuple:
    run(dataclasses.replace(config, output_dir=out))
    return tuple(
        hashlib.sha256((out / name).read_bytes()).hexdigest()
        if (out / name).exists() else None
        for name in FILES
    )


@pytest.mark.parametrize("name", sorted(CASES))
def test_artifacts_match_golden_digests(name, tmp_path):
    assert digests(CASES[name], tmp_path) == DIGESTS[name]


if __name__ == "__main__":
    import sys
    import tempfile

    if sys.argv[1:] == ["--pools"]:
        with tempfile.TemporaryDirectory() as tmp:
            for name, config in POOLS.items():
                print(name, *digests(config, Path(tmp) / name.replace(" ", "-")))
        raise SystemExit(0)
    if sys.argv[1:]:
        raise SystemExit("usage: python tests/test_golden.py [--pools]")
    moved = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CASES):
            new = digests(CASES[name], Path(tmp) / name)
            if new != DIGESTS[name]:
                moved += 1
                print(f"{name}\n  old {DIGESTS[name]!r}\n  new {new!r}")
    print(f"{moved} of {len(CASES)} digests moved")
    raise SystemExit(1 if moved else 0)

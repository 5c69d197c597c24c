"""The benchmark's workloads and the config each seed gives them.

Every workload is a fixed sequence of CLI invocations on one config.  Seed
0 runs the committed config under ``configs/`` unchanged.  Other seeds
perturb it in a way that keeps every verdict known in advance:

* the verify workloads append one extra generator c * x^a * w, with c a
  small nonzero integer, x^a = x_i x_j a product of two distinct
  variables, and w one of the two 3-cycles of S3.  The element is a
  product of order elements, so it lies in the order and a counterexample
  is always a wrong answer.  Because w is not the identity the element is
  never in the lattice, so it always adds exactly one
  ``max-commutative-probe`` check.  Relabelling the variables (for
  Cherednik) or the diagram symmetry (for GKV A2) carries every choice of
  (x^a, w) to every other.  So, apart from the size of c, all seeds do
  the same work, up to the order of the checks that stop early.  Other
  shapes cost more or less: x_i^2 costs up to 1.5 times as much as
  x_i x_j on ``verify-gkv-a2``;
* ``point-rd-z3`` draws the signs of its point (+-1, +-2).  Every such
  point has a free Z3-orbit.  The sizes stay those of seed 0, because the
  point's sizes set the size of the exact coefficients: points with
  |x1| = 2 took 10-20 % longer than points with |x1| = 1;
* ``spherical-rd-s2`` ignores the seed: a sixth generator would enlarge
  the Morita system from 961 to 1,849 products, which would make its cost
  depend on the seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
CONFIG_DIR = BENCH_DIR / "configs"
EXPECTED_DIR = BENCH_DIR / "expected"
GOLDEN_DIR = BENCH_DIR / "golden"

SMALL_NONZERO = (-3, -2, -1, 1, 2, 3)
# s1*s2 and s2*s1 in the catalog's S3 element order
# (e, s1, s2, s1*s2, s2*s1, s1*s2*s1)
S3_ROTATIONS = (3, 4)
EXTRA_NAME = "Y"


@dataclass(frozen=True)
class Workload:
    name: str
    # each invocation is a subcommand plus its flags; the config path and
    # ``--out`` are added per run
    invocations: tuple
    seeding: str  # "extra-generator", "point" or "none"
    nvars: int
    # group elements the extra generator draws w from, by index
    extra_group: tuple = ()

    @property
    def config_path(self):
        return CONFIG_DIR / (self.name + ".json")

    @property
    def expected_path(self):
        return EXPECTED_DIR / (self.name + ".json")

    def golden_path(self, index):
        return GOLDEN_DIR / ("%s.%d.json" % (self.name, index))


WORKLOADS = {w.name: w for w in (
    Workload("verify-cherednik-s3",
             (("verify",),), "extra-generator", nvars=3,
             extra_group=S3_ROTATIONS),
    Workload("verify-gkv-a2",
             (("verify",),), "extra-generator", nvars=2,
             extra_group=S3_ROTATIONS),
    Workload("spherical-rd-s2",
             (("spherical",),), "none", nvars=2),
    Workload("point-rd-z3",
             (("module", "--jet-order", "3", "--word-length", "3",
               "--allow-truncation"), ("stabilizer",)),
             "point", nvars=2),
)}


def base_config(workload):
    with open(workload.config_path) as fh:
        return json.load(fh)


def extra_generator(rng, nvars, group):
    """c * x_i * x_j * w with i != j and w drawn from ``group``, as a
    config entry."""
    exps = [0] * nvars
    for i in rng.sample(range(nvars), 2):
        exps[i] = 1
    term = {"scalar": str(rng.choice(SMALL_NONZERO)), "num_exps": exps,
            "group": rng.choice(group)}
    return {"name": EXTRA_NAME, "terms": [term]}


def make_config(workload, seed):
    """The config the program receives for this workload and seed."""
    config = base_config(workload)
    if seed == 0 or workload.seeding == "none":
        return config
    rng = random.Random("%s/%d" % (workload.name, seed))
    if workload.seeding == "extra-generator":
        config.setdefault("extra_generators", []).append(
            extra_generator(rng, workload.nvars, workload.extra_group))
    elif workload.seeding == "point":
        config["point"] = [str(rng.choice((-1, 1)) * int(c))
                           for c in config["point"]]
    else:
        raise ValueError("unknown seeding %r" % workload.seeding)
    return config


def load_expected(workload):
    with open(workload.expected_path) as fh:
        return json.load(fh)

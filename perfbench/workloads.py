"""Seeded workload definitions for the migsched benchmark.

A workload is a fixed list of instances, made from the seed, and the
algorithms run on each. The instance text is written here directly in the
documented v1 instance format, not through the library's generators, so a
change to those generators cannot change the benchmark's inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

MINMS_ALGORITHMS = ("lpt", "pam", "wraparound")
MINTPT_ALGORITHMS = ("estf", "lbm")


@dataclass(frozen=True)
class Instance:
    """One generated instance and the facts the certificate checks need."""

    name: str
    kind: str  # "minms" or "mintpt"
    text: str
    jobs: int
    param: int  # machine count (minms) or slot capacity (mintpt)
    longest: Fraction | int  # longest process time (minms) or interval (mintpt)
    rational: bool  # some process time has a denominator other than 1
    placements: int  # sum of interval lengths (mintpt), 0 for minms
    algorithms: tuple[str, ...]


def minms_instance(name, rng, n, m, den_max, algorithms) -> Instance:
    times = [Fraction(rng.randint(1, 100), rng.randint(1, den_max)) for _ in range(n)]
    lines = ["minms 1", f"machines {m}"] + [f"job {i} {t}" for i, t in enumerate(times)]
    return Instance(
        name=name,
        kind="minms",
        text="\n".join(lines) + "\n",
        jobs=n,
        param=m,
        longest=max(times),
        rational=any(t.denominator != 1 for t in times),
        placements=0,
        algorithms=algorithms,
    )


def mintpt_instance(name, rng, n, horizon, g, algorithms) -> Instance:
    intervals = []
    for _ in range(n):
        start = rng.randint(0, horizon - 1)
        intervals.append((start, rng.randint(start + 1, horizon)))
    lines = ["mintpt 1", f"capacity {g}"]
    lines += [f"job {i} {s} {e} 1" for i, (s, e) in enumerate(intervals)]
    lengths = [e - s for s, e in intervals]
    return Instance(
        name=name,
        kind="mintpt",
        text="\n".join(lines) + "\n",
        jobs=n,
        param=g,
        longest=max(lengths),
        rational=False,
        placements=sum(lengths),
        algorithms=algorithms,
    )


@dataclass(frozen=True)
class Workload:
    """A named instance mix. Sizes are fields so a test can shrink them."""

    name: str
    minms_count: int = 0
    minms_n: tuple[int, int] = (0, 0)
    minms_m: tuple[int, int] = (0, 0)
    minms_den_max: int = 1
    mintpt_count: int = 0
    mintpt_n: tuple[int, int] = (0, 0)
    mintpt_horizon: int = 0
    mintpt_g: int = 1
    with_exact: bool = False
    oracle_limit: int | None = None

    def instances(self, seed: int) -> list[Instance]:
        """The workload's instances for this seed, minms and mintpt interleaved."""
        rng = random.Random(f"{self.name}:{seed}")
        minms_algs = MINMS_ALGORITHMS + (("exact",) if self.with_exact else ())
        mintpt_algs = MINTPT_ALGORITHMS + (("exact",) if self.with_exact else ())
        out = []
        for k in range(max(self.minms_count, self.mintpt_count)):
            if k < self.minms_count:
                out.append(
                    minms_instance(
                        f"minms-{k}",
                        rng,
                        rng.randint(*self.minms_n),
                        rng.randint(*self.minms_m),
                        self.minms_den_max,
                        minms_algs,
                    )
                )
            if k < self.mintpt_count:
                out.append(
                    mintpt_instance(
                        f"mintpt-{k}",
                        rng,
                        rng.randint(*self.mintpt_n),
                        self.mintpt_horizon,
                        self.mintpt_g,
                        mintpt_algs,
                    )
                )
        return out


# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="minms-balance",
            minms_count=12,
            minms_n=(1000, 1000),
            minms_m=(10, 10),
            minms_den_max=6,
        ),
        Workload(
            name="mintpt-sweep",
            mintpt_count=14,
            mintpt_n=(300, 300),
            mintpt_horizon=150,
            mintpt_g=4,
        ),
        Workload(
            name="oracle-sweep",
            minms_count=120,
            minms_n=(18, 18),
            minms_m=(2, 2),
            mintpt_count=40,
            mintpt_n=(9, 11),
            mintpt_horizon=12,
            mintpt_g=2,
            with_exact=True,
            oracle_limit=18,
        ),
    )
}

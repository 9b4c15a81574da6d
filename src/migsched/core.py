"""Shared data model: exact time arithmetic, jobs, instances, and
segment-level schedules for load balancing across identical machines.

All continuous quantities (process times, loads, makespans) are exact
rationals, never floats, so "load equals the balanced optimum" can be
asserted as a true equality with no tolerance. The API speaks `Fraction`;
the arithmetic runs on Python ints. Each instance has one cached `TickView`:
one tick is 1/(lcm of the process-time denominators x machine count), so
every process time and the balanced load W/m are whole numbers of ticks.
Schedule checks and loads add every amount as ticks: an amount on that grid
is an int count, and one off it (a dump's 1/7 where the instance's times are
halves) is a `Fraction` of a tick, added into the same sums. The construction
check of a `MigrationSchedule` converts each amount to ticks once and the
schedule keeps them, so its loads convert nothing again; a segment that holds
a job's own process-time object takes the job's size in ticks unconverted.
A failing check raises one InvariantError that carries every problem in `args`.
The check runs on public construction and in `verify`; a solver builds its
schedule through `MigrationSchedule._trusted` from its own bookkeeping, with
the ticks it has already counted, and the check does not run again on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Iterable, NamedTuple

__all__ = [
    "InstanceTooLargeError",
    "InvariantError",
    "as_time",
    "Job",
    "MinMsInstance",
    "TickView",
    "JobSegment",
    "MigrationSchedule",
    "segment_violations",
]

class InvariantError(ValueError):
    """A structural invariant of an instance or schedule is violated.

    Each problem is one element of `args`, and `str()` joins them with "; ",
    so a failed schedule check's whole problem list can be read from `args`.
    """

    def __str__(self) -> str:
        return "; ".join(self.args)


class InstanceTooLargeError(ValueError):
    """A solver or oracle refused an instance above its size gate."""


MAX_MACHINES = 1_000_000  # for what takes one entry per machine: pam, machine_loads()
# For TickView: every job's tick count carries the whole tick unit, so its
# memory is about jobs x bits of the unit. 2**24 bits are 2 MiB of tick counts.
MAX_TICK_BITS = 2**24


def as_time(value: int | str | Fraction) -> Fraction:
    """Coerce an int, exact string ("7" or "7/2"), or Fraction to an exact time.

    The one time grammar, for instance files and schedule dumps: a string is
    "n" or "n/d" in decimal digits (any Unicode decimal digit, as `int` reads
    them) with d != 0: no sign, space, point or exponent, so the value's size
    is bounded by the string's. The denominator is converted first. Floats
    are rejected outright: a float that has already drifted cannot be
    recovered, and exact-equality guarantees downstream depend on never
    letting one in. A bool is no time either, though Python counts it an int.
    """
    if isinstance(value, str):
        num, slash, den = value.partition("/")
        if num.isdecimal():
            if not slash:
                return Fraction(int(num))
            if den.isdecimal() and (d := int(den)):
                return Fraction(int(num), d)
        raise ValueError(f"time must be n or num/den with a nonzero denominator, got {value!r}")
    if isinstance(value, float):
        raise TypeError(f"refusing inexact float time value {value!r}")
    if type(value) is bool:
        raise TypeError(f"expected a time, got {value!r}")
    tv = value if type(value) is Fraction else Fraction(value)
    if tv.numerator < 0:
        raise ValueError(f"time values must be non-negative, got {tv}")
    return tv


def _check_unique_ids(jobs: Iterable) -> None:
    """Raise InvariantError naming the first job id that repeats (either instance kind)."""
    seen: set[int] = set()
    for job in jobs:
        if job.id in seen:
            raise InvariantError(f"duplicate job id {job.id}")
        seen.add(job.id)


@dataclass(frozen=True)
class Job:
    """A request with a positive processing time."""

    id: int
    process_time: Fraction

    def __post_init__(self) -> None:
        if type(self.id) is not int or self.id < 0:  # a bool is no id
            raise InvariantError(f"job id must be a non-negative integer, got {self.id!r}")
        object.__setattr__(self, "process_time", as_time(self.process_time))
        if self.process_time.numerator <= 0:
            raise InvariantError(f"job {self.id}: process time must be positive")


class TickView:
    """An instance's process times as whole numbers of ticks.

    `unit` is the number of ticks per time unit: the lcm of the process-time
    denominators times the machine count, so that the total `total` is a
    multiple of the machine count and W/m is `total // machine_count` ticks.
    `sizes` maps each job id to its process time in ticks, in instance order,
    and `times` maps it to the job's own `process_time` object.

    When the job count times the bits of the lcm and of the machine count
    passes MAX_TICK_BITS, the view raises InstanceTooLargeError while the lcm
    is built, before any tick count exists: the lcm of distinct denominators
    grows with each one.
    """

    __slots__ = ("unit", "sizes", "times", "total")

    def __init__(self, jobs: tuple[Job, ...], machine_count: int) -> None:
        n, machine_bits = len(jobs), machine_count.bit_length()
        lcm = 1
        for den in {job.process_time.denominator for job in jobs}:
            lcm = math.lcm(lcm, den)
            if n * (lcm.bit_length() + machine_bits) > MAX_TICK_BITS:
                raise InstanceTooLargeError(
                    f"the tick counts of {n} jobs exceed the budget of "
                    f"{MAX_TICK_BITS} bits (jobs x bits of the tick unit)"
                )
        unit = lcm * machine_count
        self.unit = unit
        self.sizes = {
            job.id: job.process_time.numerator * (unit // job.process_time.denominator)
            for job in jobs
        }
        self.times = {job.id: job.process_time for job in jobs}
        self.total = sum(self.sizes.values())

    def of(self, amount: int | Fraction) -> int | Fraction:
        """`amount` in ticks: an int on the tick grid, a Fraction of a tick off it.
        An int is its own numerator over denominator 1."""
        den = amount.denominator
        if self.unit % den:
            return amount * self.unit
        return amount.numerator * (self.unit // den)

    def time(self, ticks: int | Fraction) -> Fraction:
        """A tick count as a time value. A Fraction count is divided by the unit:
        `Fraction(ticks, unit)` would take a gcd of its own (maybe huge) terms."""
        if isinstance(ticks, int):
            return Fraction(ticks, self.unit)
        return ticks / self.unit


@dataclass(frozen=True)
class MinMsInstance:
    """Sized jobs to be placed on a fixed number of identical machines.

    Machines are dense 0-based indices 0..machine_count-1. Job ids are
    unique; the job tuple order is the canonical instance order used by
    serialization and by the wrap-around scheduler.
    """

    jobs: tuple[Job, ...]
    machine_count: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "jobs", tuple(self.jobs))
        self._check_shape(self.jobs, self.machine_count)
        _check_unique_ids(self.jobs)

    @staticmethod
    def _check_shape(jobs, count) -> None:
        """At least one job and a positive machine count. A reader that builds
        no instance passes the ids it has read as `jobs`."""
        if not jobs:
            raise InvariantError("instance needs at least one job")
        if type(count) is not int or count < 1:  # a bool is no count
            raise InvariantError(f"machine count must be a positive integer, got {count!r}")

    @classmethod
    def _trusted(cls, times: Iterable[tuple[int, Fraction]], machine_count: int) -> MinMsInstance:
        """The instance of `(job id, process time)` pairs that a reader has
        already checked: unique non-negative int ids and positive `Fraction`
        times. `Job`'s checks and the duplicate scan are skipped; the shape
        checks (at least one job, a positive machine count) still run."""
        new, store = object.__new__, object.__setattr__
        jobs = []
        for job_id, time in times:
            # Stored as the dataclass's own __init__ stores them, past the
            # frozen __setattr__: reaching for __dict__ instead gives every job
            # a dict of its own, and later checked jobs lose the shared keys too.
            job = new(Job)
            store(job, "id", job_id)
            store(job, "process_time", time)
            jobs.append(job)
        instance = new(cls)
        store(instance, "jobs", tuple(jobs))
        store(instance, "machine_count", machine_count)
        instance._check_shape(instance.jobs, machine_count)
        return instance

    @cached_property
    def ticks(self) -> TickView:
        """The integer view of the process times, computed on first use."""
        return TickView(self.jobs, self.machine_count)


class JobSegment(NamedTuple):
    """A portion of one job's load on one machine; checked by MigrationSchedule."""

    job_id: int
    machine_id: int
    amount: Fraction


def segment_violations(
    instance: MinMsInstance,
    segments: Iterable[tuple[int, int, Fraction]],
    *,
    ticks: list[int | Fraction] | None = None,
) -> list[str]:
    """Check raw (job_id, machine_id, amount) triples against an instance.

    Returns a list of human-readable violations (empty when consistent):
    job ids that are not ints or not in the instance, machine ids that are
    not ints or out of range, amounts that are not a positive int or
    Fraction, and per-job conservation failures (segment amounts must sum to
    the process time).

    `ticks`, if given, is an output list: each segment's amount in ticks is
    appended to it in segment order, so when no violation is found it holds
    one entry per segment. An amount that is its job's own process-time
    object takes the job's size in ticks unconverted; that object is a
    positive Fraction of exactly that size, so every check keeps its meaning.
    Other amounts are converted, and equal counts share one object: `pam`
    on many machines deals the same piece to each empty one.
    """
    problems: list[str] = []
    view = instance.ticks
    sizes, times = view.sizes, view.times
    totals: dict[int, int | Fraction] = dict.fromkeys(sizes, 0)  # per job, in ticks
    out = [] if ticks is None else ticks
    shared: dict[int | Fraction, int | Fraction] = {}
    # Ids are exactly int: a bool is an int to isinstance, and True a key of `totals`.
    for job_id, machine_id, amount in segments:
        if type(job_id) is not int or job_id not in totals:
            problems.append(f"segment references unknown job {job_id!r}")
            continue
        if type(machine_id) is not int or not 0 <= machine_id < instance.machine_count:
            problems.append(
                f"job {job_id}: machine id {machine_id!r} is not an int in "
                f"0..{instance.machine_count - 1}"
            )
        if amount is times[job_id]:
            t = sizes[job_id]
        else:
            if type(amount) is not int and not isinstance(amount, Fraction):
                problems.append(f"job {job_id}: segment amount {amount!r} is not an int or Fraction")
                continue
            t = view.of(amount)
            t = shared.setdefault(t, t)
            if t <= 0:
                problems.append(f"job {job_id}: non-positive segment amount {amount}")
        totals[job_id] += t
        out.append(t)
    if totals != sizes:  # both keyed in instance order; walked only to word the failures
        for job in instance.jobs:
            if totals[job.id] != sizes[job.id]:
                problems.append(
                    f"conservation: job {job.id} segments sum to {view.time(totals[job.id])}, "
                    f"process time is {job.process_time}"
                )
    return problems


def _pairwise_sum(amounts: list[Fraction]) -> Fraction:
    """The exact sum of `amounts`, added as a balanced tree.

    Adding one amount at a time to a running sum makes every addition carry
    the denominator of all amounts so far; pairing neighbours keeps the
    operands of each addition about the same size.
    """
    while len(amounts) > 1:
        pairs = [a + b for a, b in zip(amounts[::2], amounts[1::2])]
        if len(amounts) % 2:
            pairs.append(amounts[-1])
        amounts = pairs
    return amounts[0]


@dataclass(frozen=True)
class MigrationSchedule:
    """Per-machine placement of job load, allowing jobs to be split.

    Invariants (checked at public construction):
      - every referenced job exists in the instance,
      - machine ids are ints in [0, machine_count),
      - amounts are positive ints or Fractions,
      - per job, segment amounts sum exactly to its process time.

    The check converts each amount to ticks once, and the schedule keeps
    those ticks (`_ticks`, one per segment) for its loads and timelines. A
    failing check raises InvariantError(*segment_violations(...)). A solver's
    output is built by `_trusted` and is not checked: `verify` checks every
    dump from outside.

    A job split into k segments accounts for k-1 migrations; a schedule that
    keeps every job whole has zero migrations. Segment tuple order is
    meaningful: within one machine it is execution order for schedules that
    are read as timetables (see minms.timeline_ticks).
    """

    instance: MinMsInstance
    segments: tuple[JobSegment, ...]
    _ticks: tuple[int | Fraction, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "segments", tuple(self.segments))
        ticks: list[int | Fraction] = []
        problems = segment_violations(self.instance, self.segments, ticks=ticks)
        if problems:
            raise InvariantError(*problems)
        object.__setattr__(self, "_ticks", tuple(ticks))

    @classmethod
    def _trusted(
        cls,
        instance: MinMsInstance,
        segments: Iterable[JobSegment],
        ticks: Iterable[int | Fraction],
    ) -> MigrationSchedule:
        """The schedule of `segments` that a solver built from its own
        bookkeeping, with `ticks` each segment's amount in ticks, as the
        construction check would count it. segment_violations is skipped."""
        schedule, store = object.__new__(cls), object.__setattr__
        store(schedule, "instance", instance)
        store(schedule, "segments", tuple(segments))
        store(schedule, "_ticks", tuple(ticks))
        return schedule

    @property
    def migrations(self) -> int:
        """Count of segments beyond one per job."""
        return len(self.segments) - len(self.instance.jobs)

    def _loads(self) -> dict[int, int | Fraction]:
        """Per loaded machine, its load in ticks: the sum of its int ticks plus
        the pairwise sum of its off-grid (Fraction) ticks."""
        loads: dict[int, int | Fraction] = {}
        off_grid: dict[int, list[Fraction]] = {}
        for (_, machine, _), t in zip(self.segments, self._ticks):
            if type(t) is int:
                loads[machine] = loads.get(machine, 0) + t
            else:
                off_grid.setdefault(machine, []).append(t)
        for machine, amounts in off_grid.items():
            loads[machine] = loads.get(machine, 0) + _pairwise_sum(amounts)
        return loads

    def machine_loads(self) -> tuple[Fraction, ...]:
        """Exact load per machine, indexed 0..machine_count-1. It has one entry
        per machine, so more than MAX_MACHINES machines raise
        InstanceTooLargeError before anything is allocated."""
        m = self.instance.machine_count
        if m > MAX_MACHINES:
            raise InstanceTooLargeError(f"{m} machines exceed the machine_loads limit of {MAX_MACHINES}")
        time = self.instance.ticks.time
        loads = [Fraction(0)] * m
        for machine, t in self._loads().items():
            loads[machine] = time(t)
        return tuple(loads)

    def makespan(self) -> Fraction:
        """Maximum machine load, taken over the machines that hold a segment."""
        return self.instance.ticks.time(max(self._loads().values()))

"""Shared data model: exact time arithmetic, jobs, instances, and
segment-level schedules for load balancing across identical machines.

All continuous quantities (process times, loads, makespans) are exact
rationals, never floats, so "load equals the balanced optimum" can be
asserted as a true equality with no tolerance. The API speaks `Fraction`;
the arithmetic runs on Python ints. Each instance has one `TickView`:
one tick is 1/(lcm of the process-time denominators x machine count), so
every process time and the balanced load W/m are whole numbers of ticks. The
view keeps tick counts only: every time value an instance or schedule hands
out is made from ticks by `TickView.time` when asked for, equal to (not the
same object as) the job's own. An instance read from text gets its view from
the reader's int pairs, and builds no `Job` until asked. Checks and loads
add every amount as ticks: an int on that grid, a `Fraction` of a tick off it
(a dump's 1/7 where the times are halves). A `MigrationSchedule` keeps only
three columns, one entry per segment: job, machine, ticks. The check,
`segment_violations`, takes raw segments as three columns too: public
construction transposes its segments once, and `verify` hands a dump's
columns to `MigrationSchedule._checked`, so no segment tuple is made. A
failing check raises one InvariantError that carries every problem in
`args`. A solver hands its columns to `MigrationSchedule._trusted`,
unchecked. A segment given with the private marker `_WHOLE` as its amount
holds its whole job, so a dump's short record or an oracle's witness needs
no time value, and no `JobSegment` exists until something asks for
`segments`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

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
MAX_SLOTS = 1_000_000  # for what takes one entry per slot: slot_profile, machines_per_slot()
# For TickView: every job's tick count carries the whole tick unit, so its
# memory is about jobs x bits of the unit. 2**24 bits are 2 MiB of tick counts.
MAX_TICK_BITS = 2**24
_WHOLE = object()  # a segment amount: its job's whole process time


def _time_terms(text: str) -> tuple[int, int]:
    """A time string's reduced (numerator, denominator), by the one time
    grammar of instance files and dumps: "n" or "n/d" in decimal digits (any
    Unicode decimal digit, as `int` reads them), d != 0, the denominator
    converted first; no sign, space, point or exponent, so the value's size
    is bounded by the string's."""
    num, slash, den = text.partition("/")
    if num.isdecimal():
        if not slash:
            return int(num), 1
        if den.isdecimal() and (d := int(den)):
            g = math.gcd(n := int(num), d)
            return n // g, d // g
    raise ValueError(f"time must be n or num/den with a nonzero denominator, got {text!r}")


def as_time(value: int | str | Fraction) -> Fraction:
    """Coerce an int, exact string ("7" or "7/2", see _time_terms), or Fraction
    to an exact time. Floats are rejected outright: a float that has already
    drifted cannot be recovered, and exact-equality guarantees downstream
    depend on never letting one in. A bool is no time either."""
    if isinstance(value, str):
        return Fraction(*_time_terms(value))
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
    """An instance's process times as whole numbers of ticks, built from a
    dictionary-encoded column: job `ids[i]` has the time `table[keys[i]]`,
    a reduced (numerator, denominator) int pair, and the lcm and the tick
    counts are computed once per table entry. The view keeps neither column:
    it holds `unit`, `sizes` and `total`, and `time` makes a time value from
    a tick count.

    `unit` is the number of ticks per time unit: the lcm of the process-time
    denominators times the machine count, so that the total `total` is a
    multiple of the machine count and W/m is `total // machine_count` ticks.
    `sizes` maps each job id to its process time in ticks, in instance order.

    When the job count times the bits of the lcm and of the machine count
    passes MAX_TICK_BITS, the view raises InstanceTooLargeError while the lcm
    is built, before any tick count exists: the lcm of distinct denominators
    grows with each one.
    """

    def __init__(self, ids: Sequence[int], keys: Sequence, table: dict, machine_count: int) -> None:
        n, machine_bits = len(ids), machine_count.bit_length()
        lcm = 1
        for den in {den for _, den in table.values()}:
            lcm = math.lcm(lcm, den)
            if n * (lcm.bit_length() + machine_bits) > MAX_TICK_BITS:
                raise InstanceTooLargeError(
                    f"the tick counts of {n} jobs exceed the budget of "
                    f"{MAX_TICK_BITS} bits (jobs x bits of the tick unit)"
                )
        self.unit = unit = lcm * machine_count
        counts = {key: num * (unit // den) for key, (num, den) in table.items()}
        self.sizes = dict(zip(ids, map(counts.__getitem__, keys)))
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
    serialization and by the wrap-around scheduler. An instance read from
    text (`_trusted`) builds its `jobs` only when something asks for them.
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
    def _trusted(cls, ids: Sequence, keys: Sequence, table: dict, machine_count: int) -> MinMsInstance:
        """The instance of a reader's checked columns (see TickView): its ids,
        time tokens and token memo, with unique non-negative int ids and
        positive reduced int pairs. `Job`'s checks and the duplicate scan are
        skipped; the shape checks still run. The view is built here, so the
        tick budget is checked while the file is read."""
        cls._check_shape(ids, machine_count)
        instance, store = object.__new__(cls), object.__setattr__
        store(instance, "machine_count", machine_count)
        store(instance, "ticks", TickView(ids, keys, table, machine_count))
        return instance

    def __getattr__(self, name: str):
        """A `_trusted` instance's `jobs`, built from its view and kept. Without
        a view (a half-built object, as while unpickling) it is missing too."""
        view = vars(self).get("ticks") if name == "jobs" else None
        if view is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        # `Job` keeps a Fraction time as it is: jobs of one size share one object.
        times = map(cache(view.time), view.sizes.values())
        object.__setattr__(self, "jobs", tuple(map(Job, view.sizes, times)))
        return self.jobs

    @cached_property
    def ticks(self) -> TickView:
        """The integer view of the process times, computed on first use."""
        times = {job.id: job.process_time for job in self.jobs}
        ids, pairs = list(times), {i: (t.numerator, t.denominator) for i, t in times.items()}
        return TickView(ids, ids, pairs, self.machine_count)


class JobSegment(NamedTuple):
    """A portion of one job's load on one machine; checked by MigrationSchedule."""

    job_id: int
    machine_id: int
    amount: Fraction


def segment_violations(
    instance: MinMsInstance,
    jobs: Sequence,
    machines: Sequence,
    amounts: Sequence,
    *,
    ticks: list[int | Fraction] | None = None,
) -> list[str]:
    """Check raw segments, given as three columns (per segment its job id,
    machine id and amount, walked together), against an instance.

    Returns a list of human-readable violations (empty when consistent):
    job ids that are not ints or not in the instance, machine ids that are
    not ints or out of range, amounts that are not a positive int or
    Fraction, and per-job conservation failures (segment amounts must sum to
    the process time). The columns are walked as `zip` walks them, up to the
    shortest.

    `ticks`, if given, is an output list: each segment's amount in ticks is
    appended to it in segment order, so when no violation is found it holds
    one entry per segment. The private amount `_WHOLE` takes its job's size
    in ticks, a positive count, so every check keeps its meaning. Other
    amounts are converted, and equal counts share one object: `pam` on many
    machines deals the same piece to each empty one. A conservation failure
    words the sums and process times as values made from their tick counts.
    """
    problems: list[str] = []
    view = instance.ticks
    sizes = view.sizes
    totals: dict[int, int | Fraction] = dict.fromkeys(sizes, 0)  # per job, in ticks
    out = [] if ticks is None else ticks
    shared: dict[int | Fraction, int | Fraction] = {}
    m = instance.machine_count
    # Ids are exactly int: a bool is an int to isinstance, and True a key of `totals`.
    for job_id, machine_id, amount in zip(jobs, machines, amounts):
        if type(job_id) is not int or job_id not in totals:
            problems.append(f"segment references unknown job {job_id!r}")
            continue
        if type(machine_id) is not int or not 0 <= machine_id < m:
            problems.append(f"job {job_id}: machine id {machine_id!r} is not an int in 0..{m - 1}")
        if amount is _WHOLE:
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
        for job_id, size in sizes.items():
            if totals[job_id] != size:
                problems.append(
                    f"conservation: job {job_id} segments sum to {view.time(totals[job_id])}, "
                    f"process time is {view.time(size)}"
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

    The schedule keeps only three columns, one entry per segment: `_jobs`,
    `_machines` and `_ticks` (amounts in ticks), read by its migrations,
    loads, timelines and dump. Public construction transposes the given
    segments into columns once, checks them in one walk and drops the tuple;
    `_checked` runs the same check on columns as they are given (`verify`
    reads a dump's records as columns), so no segment tuple is made. A
    failing check raises InvariantError(*segment_violations(...)). A
    solver's columns go through `_trusted` unchecked (`verify` checks every
    dump from outside). Either way `segments` is built from the columns on
    first access, equal to what was given (a `_WHOLE` amount reads as its
    job's process time): each amount is made from its tick count, one
    `Fraction` per distinct count, equal to but not the same object as the
    job's own time.

    A job split into k segments accounts for k-1 migrations; a schedule that
    keeps every job whole has zero migrations. Segment tuple order is
    meaningful: within one machine it is execution order for schedules that
    are read as timetables (see minms.timeline_ticks).
    """

    instance: MinMsInstance
    segments: tuple[JobSegment, ...]

    def __post_init__(self) -> None:
        # One transpose: segments of another width raise ValueError, and no
        # segments are three empty columns, which fail conservation.
        jobs, machines, amounts = tuple(zip(*self.segments, strict=True)) or ((), (), ())
        del vars(self)["segments"]  # built again from the columns when asked for
        vars(self).update(vars(self._checked(self.instance, jobs, machines, amounts)))

    @classmethod
    def _checked(
        cls, instance: MinMsInstance, jobs: Sequence, machines: Sequence, amounts: Sequence
    ) -> MigrationSchedule:
        """The schedule of raw columns, as the public constructor checks its
        segments: it keeps the job and machine columns and the check's ticks."""
        ticks: list[int | Fraction] = []
        problems = segment_violations(instance, jobs, machines, amounts, ticks=ticks)
        if problems:
            raise InvariantError(*problems)
        return cls._trusted(instance, jobs, machines, ticks)

    @classmethod
    def _trusted(
        cls, instance: MinMsInstance, jobs: Iterable[int], machines: Iterable[int], ticks: Iterable[int]
    ) -> MigrationSchedule:
        """The schedule of given columns: per segment its job, machine and
        amount in ticks (a solver's an int, at most the job's size; a checked
        amount off the tick grid a Fraction). Unchecked."""
        schedule = object.__new__(cls)
        columns = {"_jobs": tuple(jobs), "_machines": tuple(machines), "_ticks": tuple(ticks)}
        vars(schedule).update(instance=instance, **columns)
        return schedule

    def __getattr__(self, name: str):
        """`segments`, built from the columns and kept. Missing on a half-built
        object (as while unpickling), as other names are."""
        state = vars(self)
        if name != "segments" or "_ticks" not in state:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        amounts = map(cache(state["instance"].ticks.time), state["_ticks"])
        state["segments"] = tuple(map(JobSegment, state["_jobs"], state["_machines"], amounts))
        return self.segments

    @property
    def migrations(self) -> int:
        """Count of segments beyond one per job."""
        return len(self._ticks) - len(self.instance.ticks.sizes)

    def _loads(self) -> dict[int, int | Fraction]:
        """Per loaded machine, its load in ticks: the sum of its int ticks plus
        the pairwise sum of its off-grid (Fraction) ticks."""
        loads: dict[int, int | Fraction] = {}
        off_grid: dict[int, list[Fraction]] = {}
        for machine, t in zip(self._machines, self._ticks):
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

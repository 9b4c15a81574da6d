"""Shared data model: exact time arithmetic, jobs, instances, and
segment-level schedules for load balancing across identical machines.

All continuous quantities (process times, loads, makespans) are exact
rationals, never floats, so "load equals the balanced optimum" can be
asserted as a true equality with no tolerance. The API speaks `Fraction`;
the arithmetic runs on Python ints. Each instance has one cached `TickView`:
one tick is 1/(lcm of the process-time denominators x machine count), so
every process time and the balanced load W/m are whole numbers of ticks.
Schedule checks and loads add amounts as ticks, and only an amount off that
grid (a dump's 1/7 where the instance's times are halves) is added as a
`Fraction`, per job or per machine.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterable, NamedTuple

__all__ = [
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
    """A structural invariant of an instance or schedule is violated."""


_RATIONAL = re.compile(r"(\d+)(?:/(\d+))?")


def as_time(value: int | str | Fraction) -> Fraction:
    """Coerce an int, exact string ("7" or "7/2"), or Fraction to an exact time.

    The one time grammar, for instance files and schedule dumps: a string is
    "n" or "n/d" in digits with d != 0 (no sign, space, point or exponent, so
    the value's size is bounded by the string's). Floats are rejected
    outright: a float that has already drifted cannot be recovered, and
    exact-equality guarantees downstream depend on never letting one in.
    """
    if isinstance(value, str):
        match = _RATIONAL.fullmatch(value)
        if match is None or match[2] and int(match[2]) == 0:
            raise ValueError(f"time must be n or num/den with a nonzero denominator, got {value!r}")
        return Fraction(int(match[1]), int(match[2] or 1))
    if isinstance(value, float):
        raise TypeError(f"refusing inexact float time value {value!r}")
    tv = Fraction(value)
    if tv < 0:
        raise ValueError(f"time values must be non-negative, got {tv}")
    return tv


@dataclass(frozen=True)
class Job:
    """A request with a positive processing time."""

    id: int
    process_time: Fraction

    def __post_init__(self) -> None:
        if not isinstance(self.id, int) or self.id < 0:
            raise InvariantError(f"job id must be a non-negative integer, got {self.id!r}")
        object.__setattr__(self, "process_time", as_time(self.process_time))
        if self.process_time <= 0:
            raise InvariantError(f"job {self.id}: process time must be positive")


class TickView:
    """An instance's process times as whole numbers of ticks.

    `unit` is the number of ticks per time unit: the lcm of the process-time
    denominators times the machine count, so that the total `total` is a
    multiple of the machine count and W/m is `total // machine_count` ticks.
    `sizes` maps each job id to its process time in ticks, in instance order.
    """

    __slots__ = ("unit", "sizes", "total")

    def __init__(self, jobs: tuple[Job, ...], machine_count: int) -> None:
        unit = math.lcm(*(job.process_time.denominator for job in jobs)) * machine_count
        self.unit = unit
        self.sizes = {
            job.id: job.process_time.numerator * (unit // job.process_time.denominator)
            for job in jobs
        }
        self.total = sum(self.sizes.values())

    def of(self, amount: int | Fraction) -> int | None:
        """`amount` in ticks, or None when it is not a whole number of ticks."""
        if isinstance(amount, int):
            return amount * self.unit
        den = amount.denominator
        if self.unit % den:
            return None
        return amount.numerator * (self.unit // den)

    def time(self, ticks: int) -> Fraction:
        """A tick count as a time value."""
        return Fraction(ticks, self.unit)


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
        if not self.jobs:
            raise InvariantError("instance needs at least one job")
        if not isinstance(self.machine_count, int) or self.machine_count < 1:
            raise InvariantError(f"machine count must be a positive integer, got {self.machine_count!r}")
        seen: set[int] = set()
        for job in self.jobs:
            if job.id in seen:
                raise InvariantError(f"duplicate job id {job.id}")
            seen.add(job.id)

    @cached_property
    def ticks(self) -> TickView:
        """The integer view of the process times, computed on first use."""
        return TickView(self.jobs, self.machine_count)

    def total_load(self) -> Fraction:
        """Exact sum of all process times."""
        return self.ticks.time(self.ticks.total)


class JobSegment(NamedTuple):
    """A portion of one job's load on one machine; checked by MigrationSchedule."""

    job_id: int
    machine_id: int
    amount: Fraction


def segment_violations(
    instance: MinMsInstance,
    segments: Iterable[tuple[int, int, Fraction]],
) -> list[str]:
    """Check raw (job_id, machine_id, amount) triples against an instance.

    Returns a list of human-readable violations (empty when consistent):
    job ids that are not ints or not in the instance, machine ids that are
    not ints or out of range, amounts that are not a positive int or
    Fraction, and per-job conservation failures (segment amounts must sum to
    the process time).
    """
    problems: list[str] = []
    view = instance.ticks
    totals = dict.fromkeys(view.sizes, 0)  # per job, its amounts on the tick grid
    off_grid: dict[int, Fraction] = {}  # per job, the sum of its other amounts
    for job_id, machine_id, amount in segments:
        if not isinstance(job_id, int) or job_id not in totals:
            problems.append(f"segment references unknown job {job_id!r}")
            continue
        if not isinstance(machine_id, int) or not 0 <= machine_id < instance.machine_count:
            problems.append(
                f"job {job_id}: machine {machine_id!r} out of range 0..{instance.machine_count - 1}"
            )
        if not isinstance(amount, (int, Fraction)):
            problems.append(f"job {job_id}: segment amount {amount!r} is not an int or Fraction")
            continue
        ticks = view.of(amount)
        if ticks is None:
            off_grid[job_id] = off_grid.get(job_id, 0) + amount
            positive = amount > 0
        else:
            totals[job_id] += ticks
            positive = ticks > 0
        if not positive:
            problems.append(f"job {job_id}: non-positive segment amount {amount}")
    for job in instance.jobs:
        if job.id not in off_grid and totals[job.id] == view.sizes[job.id]:
            continue
        total = view.time(totals[job.id]) + off_grid.get(job.id, 0)
        if total != job.process_time:
            problems.append(
                f"conservation: job {job.id} segments sum to {total}, "
                f"process time is {job.process_time}"
            )
    return problems


@dataclass(frozen=True)
class MigrationSchedule:
    """Per-machine placement of job load, allowing jobs to be split.

    Invariants (checked at construction):
      - every referenced job exists in the instance,
      - machine ids are ints in [0, machine_count),
      - amounts are positive ints or Fractions,
      - per job, segment amounts sum exactly to its process time.

    A job split into k segments accounts for k-1 migrations; a schedule that
    keeps every job whole has zero migrations. Segment tuple order is
    meaningful: within one machine it is execution order for schedules that
    are read as timetables (see minms.timeline).
    """

    instance: MinMsInstance
    segments: tuple[JobSegment, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "segments", tuple(self.segments))
        problems = segment_violations(self.instance, self.segments)
        if problems:
            raise InvariantError("; ".join(problems))

    @property
    def migrations(self) -> int:
        """Count of segments beyond one per job."""
        return len(self.segments) - len(self.instance.jobs)

    def _loads(self) -> tuple[dict[int, int], dict[int, Fraction]]:
        """Per loaded machine: its amounts on the tick grid, summed in ticks,
        and the sum of its other amounts."""
        view = self.instance.ticks
        ticks: dict[int, int] = {}
        off_grid: dict[int, Fraction] = {}
        for _, machine, amount in self.segments:
            t = view.of(amount)
            if t is None:
                off_grid[machine] = off_grid.get(machine, 0) + amount
            else:
                ticks[machine] = ticks.get(machine, 0) + t
        return ticks, off_grid

    def machine_loads(self) -> tuple[Fraction, ...]:
        """Exact load per machine, indexed 0..machine_count-1."""
        ticks, off_grid = self._loads()
        time = self.instance.ticks.time
        loads = [Fraction(0)] * self.instance.machine_count
        for machine, t in ticks.items():
            loads[machine] = time(t)
        for machine, amount in off_grid.items():
            loads[machine] += amount
        return tuple(loads)

    def makespan(self) -> Fraction:
        """Maximum machine load, taken over the machines that hold a segment."""
        ticks, off_grid = self._loads()
        time = self.instance.ticks.time
        if not off_grid:
            return time(max(ticks.values()))
        return max(
            time(ticks.get(i, 0)) + off_grid.get(i, 0) for i in ticks.keys() | off_grid.keys()
        )

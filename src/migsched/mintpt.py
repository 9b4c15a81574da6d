"""Slotted-interval scheduling that minimizes total machine power-on time.

Time is discrete: unit-length slots 0..S-1. Each job occupies one machine in
every slot of its fixed interval [start_slot, end_slot) and demands one unit
of a machine's capacity g. A machine is powered on in exactly the slots where
it hosts at least one job; its power-on time is the count of such slots, and
the objective is the total over all machines. The machine count is an output,
not an input.

Per-slot arithmetic gives a hard floor: slot i with L_i active jobs needs at
least ceil(L_i / g) machines, so no schedule can beat the sum of those minima
(mintpt_lower_bound). estf_schedule is the no-migration baseline; it can
strictly exceed the floor. lbm_schedule reaches the floor on every instance
by letting jobs migrate between machines at slot boundaries.

A schedule is run-length: each (job, machine, start, end) stint places a job
on one machine for the slots [start, end). The floor, both solvers and the
schedule's checks and totals work from the sorted start and end events, so
their cost does not grow with the horizon; only the per-slot views
(slot_profile, machines_per_slot) walk every slot.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Iterable

from .core import InvariantError

__all__ = [
    "IntervalJob",
    "IntervalInstance",
    "SlotProfile",
    "IntervalSchedule",
    "interval_length",
    "interval_span",
    "slot_profile",
    "mintpt_lower_bound",
    "estf_schedule",
    "lbm_schedule",
    "placement_violations",
]


@dataclass(frozen=True)
class IntervalJob:
    """A unit-demand job with a fixed processing interval [start_slot, end_slot)."""

    id: int
    start_slot: int
    end_slot: int
    demand: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.id, int) or self.id < 0:
            raise InvariantError(f"job id must be a non-negative integer, got {self.id!r}")
        if not isinstance(self.start_slot, int) or self.start_slot < 0:
            raise InvariantError(f"job {self.id}: start slot must be a non-negative integer")
        if not isinstance(self.end_slot, int) or self.end_slot <= self.start_slot:
            raise InvariantError(
                f"job {self.id}: end slot must exceed start slot, "
                f"got [{self.start_slot}, {self.end_slot})"
            )
        if self.demand != 1:
            raise InvariantError(f"job {self.id}: only unit demand is supported")

    @property
    def interval(self) -> tuple[int, int]:
        return (self.start_slot, self.end_slot)


@dataclass(frozen=True)
class IntervalInstance:
    """Unit-demand interval jobs plus the per-machine slot capacity g >= 1.

    The slot horizon is derived: the largest end slot over all jobs (0 when
    empty). Every job therefore lies within [0, horizon).
    """

    jobs: tuple[IntervalJob, ...]
    capacity: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "jobs", tuple(self.jobs))
        if not isinstance(self.capacity, int) or self.capacity < 1:
            raise InvariantError(f"capacity must be a positive integer, got {self.capacity!r}")
        seen: set[int] = set()
        for job in self.jobs:
            if job.id in seen:
                raise InvariantError(f"duplicate job id {job.id}")
            seen.add(job.id)

    @property
    def horizon(self) -> int:
        return max((j.end_slot for j in self.jobs), default=0)

    def jobs_by_id(self) -> dict[int, IntervalJob]:
        return {j.id: j for j in self.jobs}


@dataclass(frozen=True)
class SlotProfile:
    """Per-slot aggregate load and the machine-count floor ceil(load / g)."""

    loads: tuple[int, ...]
    min_machines: tuple[int, ...]


def interval_length(intervals: Iterable[tuple[int, int]]) -> int:
    """Sum of individual interval lengths, overlaps counted multiply."""
    total = 0
    for s, t in intervals:
        if t <= s:
            raise InvariantError(f"interval [{s}, {t}) has non-positive length")
        total += t - s
    return total


def interval_span(intervals: Iterable[tuple[int, int]]) -> int:
    """Measure of the union of the intervals, overlaps counted once.

    Always <= interval_length, with equality exactly when no two intervals
    overlap (sharing an endpoint is not an overlap).
    """
    ordered = sorted(intervals)
    total = 0
    current_end: int | None = None
    for s, t in ordered:
        if t <= s:
            raise InvariantError(f"interval [{s}, {t}) has non-positive length")
        if current_end is None or s > current_end:
            total += t - s
            current_end = t
        elif t > current_end:
            total += t - current_end
            current_end = t
    return total


def _runs(intervals: Iterable[tuple[int, int]]) -> list[tuple[int, int, int]]:
    """Maximal runs (start, end, active count) of a constant active set.

    The intervals' start and end slots, sorted, cut time into runs; inside a
    run no interval starts or ends. A run may have count 0 (a gap) or the
    same count as its neighbour (one interval ends where another starts).
    """
    delta: dict[int, int] = {}
    for s, t in intervals:
        delta[s] = delta.get(s, 0) + 1
        delta[t] = delta.get(t, 0) - 1
    times = sorted(delta)
    runs = []
    count = 0
    for s, t in zip(times, times[1:]):
        count += delta[s]
        runs.append((s, t, count))
    return runs


def slot_profile(instance: IntervalInstance) -> SlotProfile:
    """Count active jobs per slot and the resulting machine-count floor."""
    loads = [0] * instance.horizon
    for s, t, count in _runs(job.interval for job in instance.jobs):
        loads[s:t] = [count] * (t - s)
    g = instance.capacity
    min_machines = tuple(-(-load // g) for load in loads)
    return SlotProfile(tuple(loads), min_machines)


def mintpt_lower_bound(instance: IntervalInstance) -> int:
    """Sum over slots of the per-slot machine-count floor.

    No schedule, migratory or not, can power on fewer machine-slots.
    """
    g = instance.capacity
    return sum(-(-count // g) * (t - s) for s, t, count in _runs(j.interval for j in instance.jobs))


def placement_violations(
    instance: IntervalInstance,
    stints: Iterable[tuple[int, int, int, int]],
) -> list[str]:
    """Check raw (job_id, machine_id, start, end) stints against an instance.

    A stint places a job on one machine in slots [start, end). Verifies that
    job ids are known, machine ids are non-negative ints, start < end are
    ints, each job's stints cover its interval exactly (no gap, no slot twice,
    nothing outside), and no machine hosts more than g jobs in any slot.
    Returns violations (empty when valid).
    """
    problems: list[str] = []
    by_id = instance.jobs_by_id()
    covered: dict[int, list[tuple[int, int]]] = {jid: [] for jid in by_id}
    per_machine: dict[int, list[tuple[int, int]]] = {}
    for job_id, machine_id, start, end in stints:
        if not isinstance(job_id, int) or job_id not in by_id:
            problems.append(f"stint references unknown job {job_id!r}")
            continue
        if not isinstance(machine_id, int) or machine_id < 0:
            problems.append(f"job {job_id}: machine id {machine_id!r} invalid")
            continue
        if not isinstance(start, int) or not isinstance(end, int) or start >= end:
            problems.append(f"job {job_id}: stint [{start!r}, {end!r}) is not a slot range")
            continue
        covered[job_id].append((start, end))
        per_machine.setdefault(machine_id, []).append((start, end))
    for job in instance.jobs:
        cursor = job.start_slot
        for start, end in sorted(covered[job.id]):
            if start < job.start_slot or end > job.end_slot:
                problems.append(
                    f"job {job.id}: stint [{start}, {end}) outside its interval "
                    f"[{job.start_slot}, {job.end_slot})"
                )
                start, end = max(start, job.start_slot), min(end, job.end_slot)
                if start >= end:
                    continue
            if start > cursor:
                problems.append(f"job {job.id}: no placement for slots [{cursor}, {start})")
            elif start < cursor:
                twice = f"[{start}, {min(end, cursor)})"
                problems.append(f"job {job.id}: placed twice in slots {twice}")
            cursor = max(cursor, end)
        if cursor < job.end_slot:
            problems.append(f"job {job.id}: no placement for slots [{cursor}, {job.end_slot})")
    for machine_id, intervals in sorted(per_machine.items()):
        for start, end, count in _runs(intervals):
            if count > instance.capacity:
                problems.append(
                    f"machine {machine_id}, slots [{start}, {end}): {count} jobs exceed "
                    f"capacity {instance.capacity}"
                )
    return problems


@dataclass(frozen=True)
class IntervalSchedule:
    """Run-length machine assignment: (job_id, machine_id, start, end) stints.

    A stint places a job on one machine in slots [start, end), end exclusive.
    Stints are validated at construction (each job's interval covered
    exactly, capacity respected in every slot of every machine) and then
    kept in canonical (job_id, start) order. A migration is a boundary inside
    a job where its machine changes.
    """

    instance: IntervalInstance
    stints: tuple[tuple[int, int, int, int], ...]

    def __post_init__(self) -> None:
        stints = tuple(self.stints)
        # Checked before sorting: a malformed id may not compare with the others.
        problems = placement_violations(self.instance, stints)
        if problems:
            raise InvariantError("; ".join(problems))
        object.__setattr__(self, "stints", tuple(sorted(stints, key=lambda p: (p[0], p[2]))))

    @property
    def machines_used(self) -> int:
        return len({machine for _, machine, _, _ in self.stints})

    @property
    def migrations(self) -> int:
        # Canonical order puts a job's stints side by side, each ending where the next starts.
        return sum(a[0] == b[0] and a[1] != b[1] for a, b in zip(self.stints, self.stints[1:]))

    def _machine_intervals(self) -> dict[int, list[tuple[int, int]]]:
        out: dict[int, list[tuple[int, int]]] = {}
        for _, machine_id, start, end in self.stints:
            out.setdefault(machine_id, []).append((start, end))
        return out

    def machines_per_slot(self) -> tuple[int, ...]:
        """Distinct machines powered on in each slot of the horizon."""
        change = [0] * (self.instance.horizon + 1)
        for intervals in self._machine_intervals().values():
            for start, end, jobs in _runs(intervals):
                if jobs:
                    change[start] += 1
                    change[end] -= 1
        return tuple(itertools.accumulate(change[:-1]))

    def total_power_on_time(self) -> int:
        """Total busy machine-slots: slots where a machine hosts >= 1 job."""
        return sum(interval_span(intervals) for intervals in self._machine_intervals().values())


def _allocation_order(instance: IntervalInstance) -> list[IntervalJob]:
    # Earliest start first, ties by job id.
    return sorted(instance.jobs, key=lambda j: (j.start_slot, j.id))


def estf_schedule(instance: IntervalInstance) -> IntervalSchedule:
    """Earliest-start-time-first baseline without migration.

    Each job, in non-decreasing start order, goes wholly to the lowest-indexed
    machine with spare capacity in all of its slots; a new machine is opened
    when none fits. Every job keeps one machine for its whole interval.

    Jobs arrive in start order, so a machine's busiest slot within a new job's
    interval is the job's first: the machine fits the job exactly when fewer
    than g of its jobs end after that start. Each machine keeps a min-heap of
    its jobs' end slots to count them.
    """
    g = instance.capacity
    ends: list[list[int]] = []  # per machine: min-heap of its jobs' end slots
    stints: list[tuple[int, int, int, int]] = []
    for job in _allocation_order(instance):
        for machine, heap in enumerate(ends):
            while heap and heap[0] <= job.start_slot:
                heapq.heappop(heap)
            if len(heap) < g:
                break
        else:
            machine, heap = len(ends), []
            ends.append(heap)
        heapq.heappush(heap, job.end_slot)
        stints.append((job.id, machine, job.start_slot, job.end_slot))
    return IntervalSchedule(instance, tuple(stints))


def lbm_schedule(instance: IntervalInstance) -> IntervalSchedule:
    """Reach the power-on floor by migrating jobs at slot boundaries.

    Sweep: in slot i only machines 0..l_i-1 may host, where l_i is the
    per-slot machine floor. A job keeps its previous machine whenever that
    machine is still allowed (capacity then always suffices); newly started
    jobs go to the lowest-indexed machine with spare capacity; jobs stranded
    on a no-longer-allowed machine are migrated, most recently allocated on
    the highest-indexed machine first, to the lowest-indexed machine with
    spare capacity. Per-slot machine usage is then exactly l_i everywhere, so
    the total power-on time equals the lower bound.

    Inside a run of slots where no job starts or ends, the active set and the
    floor do not change, so every job keeps its machine: the step above runs
    once per run, and each placement becomes a stint that lasts until its job
    ends or is stranded.
    """
    g = instance.capacity
    order = _allocation_order(instance)
    rank = {job.id: k for k, job in enumerate(order)}
    starts: dict[int, list[int]] = {}
    ends: dict[int, list[int]] = {}
    for job in order:
        starts.setdefault(job.start_slot, []).append(job.id)
        ends.setdefault(job.end_slot, []).append(job.id)

    stints: list[tuple[int, int, int, int]] = []
    hosted: list[set[int]] = []  # per allowed machine: the job ids on it
    placed: dict[int, tuple[int, int]] = {}  # job id -> (machine, stint start)
    for slot, _, count in _runs(job.interval for job in order):
        for job_id in ends.get(slot, ()):
            machine, since = placed.pop(job_id)
            hosted[machine].discard(job_id)
            stints.append((job_id, machine, since, slot))
        allowed = -(-count // g)
        stranded: list[int] = []
        while len(hosted) > allowed:
            machine = len(hosted) - 1
            for job_id in sorted(hosted.pop(), key=rank.__getitem__, reverse=True):
                stints.append((job_id, machine, placed[job_id][1], slot))
                stranded.append(job_id)
        hosted.extend(set() for _ in range(allowed - len(hosted)))
        for job_id in starts.get(slot, []) + stranded:
            machine = next(k for k in range(allowed) if len(hosted[k]) < g)
            hosted[machine].add(job_id)
            placed[job_id] = (machine, slot)
    # Every job still placed ends at the last event, the horizon.
    for job_id, (machine, since) in placed.items():
        stints.append((job_id, machine, since, instance.horizon))
    return IntervalSchedule(instance, tuple(stints))

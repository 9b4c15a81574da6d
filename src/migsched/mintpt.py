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
"""

from __future__ import annotations

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
    def slots(self) -> range:
        return range(self.start_slot, self.end_slot)

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


def slot_profile(instance: IntervalInstance) -> SlotProfile:
    """Count active jobs per slot and the resulting machine-count floor."""
    loads = [0] * instance.horizon
    for job in instance.jobs:
        for s in job.slots:
            loads[s] += 1
    g = instance.capacity
    min_machines = tuple(-(-load // g) for load in loads)
    return SlotProfile(tuple(loads), min_machines)


def mintpt_lower_bound(instance: IntervalInstance) -> int:
    """Sum over slots of the per-slot machine-count floor.

    No schedule, migratory or not, can power on fewer machine-slots.
    """
    return sum(slot_profile(instance).min_machines)


def placement_violations(
    instance: IntervalInstance,
    placements: Iterable[tuple[int, int, int]],
) -> list[str]:
    """Check raw (job_id, machine_id, slot) triples against an instance.

    Verifies that every job is placed exactly once in each of its active
    slots and nowhere else, machine ids are non-negative, and no machine
    hosts more than g jobs in any slot. Returns violations (empty when valid).
    """
    problems: list[str] = []
    by_id = instance.jobs_by_id()
    seen: dict[int, dict[int, int]] = {jid: {} for jid in by_id}
    per_machine_slot: dict[tuple[int, int], int] = {}
    for job_id, machine_id, slot in placements:
        if job_id not in by_id:
            problems.append(f"placement references unknown job {job_id}")
            continue
        if not isinstance(machine_id, int) or machine_id < 0:
            problems.append(f"job {job_id}: machine id {machine_id!r} invalid")
            continue
        job = by_id[job_id]
        if not job.start_slot <= slot < job.end_slot:
            problems.append(
                f"job {job_id}: placed in slot {slot} outside its interval "
                f"[{job.start_slot}, {job.end_slot})"
            )
        elif slot in seen[job_id]:
            problems.append(f"job {job_id}: placed twice in slot {slot}")
        else:
            seen[job_id][slot] = machine_id
        key = (machine_id, slot)
        per_machine_slot[key] = per_machine_slot.get(key, 0) + 1
    for job in instance.jobs:
        missing = [s for s in job.slots if s not in seen[job.id]]
        if missing:
            problems.append(f"job {job.id}: no placement for slots {missing}")
    for (machine_id, slot), count in sorted(per_machine_slot.items()):
        if count > instance.capacity:
            problems.append(
                f"machine {machine_id}, slot {slot}: {count} jobs exceed capacity "
                f"{instance.capacity}"
            )
    return problems


@dataclass(frozen=True)
class IntervalSchedule:
    """Slot-granular machine assignment for every job.

    Placements are canonicalized to (job_id, slot) order at construction and
    validated: one placement per active slot per job, capacity respected in
    every (machine, slot). A migration is a slot boundary where a job's
    machine differs from the previous slot's.
    """

    instance: IntervalInstance
    placements: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        canonical = tuple(sorted(self.placements, key=lambda p: (p[0], p[2])))
        object.__setattr__(self, "placements", canonical)
        problems = placement_violations(self.instance, canonical)
        if problems:
            raise InvariantError("; ".join(problems))

    @property
    def machines_used(self) -> int:
        return len({machine for _, machine, _ in self.placements})

    @property
    def migrations(self) -> int:
        count = 0
        previous: tuple[int, int, int] | None = None
        for job_id, machine_id, slot in self.placements:
            if previous is not None and previous[0] == job_id:
                if previous[2] == slot - 1 and previous[1] != machine_id:
                    count += 1
            previous = (job_id, machine_id, slot)
        return count

    def machine_assignment(self) -> dict[int, dict[int, int]]:
        """Per job: slot -> machine mapping."""
        out: dict[int, dict[int, int]] = {}
        for job_id, machine_id, slot in self.placements:
            out.setdefault(job_id, {})[slot] = machine_id
        return out

    def machines_per_slot(self) -> tuple[int, ...]:
        """Distinct machines powered on in each slot of the horizon."""
        active: dict[int, set[int]] = {}
        for _, machine_id, slot in self.placements:
            active.setdefault(slot, set()).add(machine_id)
        return tuple(len(active.get(s, ())) for s in range(self.instance.horizon))

    def total_power_on_time(self) -> int:
        """Total busy machine-slots: slots where a machine hosts >= 1 job."""
        return len({(machine, slot) for _, machine, slot in self.placements})


def _allocation_order(instance: IntervalInstance) -> list[IntervalJob]:
    # Earliest start first, ties by job id.
    return sorted(instance.jobs, key=lambda j: (j.start_slot, j.id))


def estf_schedule(instance: IntervalInstance) -> IntervalSchedule:
    """Earliest-start-time-first baseline without migration.

    Each job, in non-decreasing start order, goes wholly to the lowest-indexed
    machine with spare capacity in all of its slots; a new machine is opened
    when none fits. Every job keeps one machine for its whole interval.
    """
    g = instance.capacity
    occupancy: dict[tuple[int, int], int] = {}
    placements: list[tuple[int, int, int]] = []
    for job in _allocation_order(instance):
        machine = 0
        while any(occupancy.get((machine, s), 0) >= g for s in job.slots):
            machine += 1
        for s in job.slots:
            occupancy[(machine, s)] = occupancy.get((machine, s), 0) + 1
            placements.append((job.id, machine, s))
    return IntervalSchedule(instance, tuple(placements))


def lbm_schedule(instance: IntervalInstance) -> IntervalSchedule:
    """Reach the power-on floor by migrating jobs at slot boundaries.

    Slot sweep: in slot i only machines 0..l_i-1 may host, where l_i is the
    per-slot machine floor. A job keeps its previous machine whenever that
    machine is still allowed (capacity then always suffices); newly started
    jobs go to the lowest-indexed machine with spare capacity; jobs stranded
    on a no-longer-allowed machine are migrated, most recently allocated on
    the highest-indexed machine first, to the lowest-indexed machine with
    spare capacity. Per-slot machine usage is then exactly l_i everywhere, so
    the total power-on time equals the lower bound.
    """
    g = instance.capacity
    profile = slot_profile(instance)
    order = _allocation_order(instance)
    rank = {job.id: k for k, job in enumerate(order)}
    starts: dict[int, list[IntervalJob]] = {}
    for job in order:
        starts.setdefault(job.start_slot, []).append(job)

    placements: list[tuple[int, int, int]] = []
    active: list[IntervalJob] = []  # allocation order; carried across slots
    previous: dict[int, int] = {}  # job id -> machine in the previous slot
    for slot in range(instance.horizon):
        allowed = profile.min_machines[slot]
        # carried jobs all started earlier, so appending the newly started
        # ones keeps allocation order
        active = [job for job in active if job.end_slot > slot]
        active.extend(starts.get(slot, ()))
        counts = [0] * allowed
        current: dict[int, int] = {}

        fresh: list[IntervalJob] = []
        stranded: list[IntervalJob] = []
        for job in active:
            prev = previous.get(job.id)
            if prev is not None and prev < allowed:
                current[job.id] = prev
                counts[prev] += 1
            elif prev is None:
                fresh.append(job)
            else:
                stranded.append(job)

        stranded.sort(key=lambda j: (-previous[j.id], -rank[j.id]))
        for job in fresh + stranded:
            machine = next(k for k in range(allowed) if counts[k] < g)
            current[job.id] = machine
            counts[machine] += 1

        for job_id, machine in current.items():
            placements.append((job_id, machine, slot))
        previous = current

    return IntervalSchedule(instance, tuple(placements))

"""Makespan solvers for identical machines.

Four routes, from classical to exact:

  - opt_balance: the ideal per-machine load, total work / machine count.
  - lpt_schedule: longest-processing-time-first greedy, whole jobs only.
  - pam_schedule: lpt followed by a partition-and-migrate pass that splits
    load above the ideal and moves it to machines below it, so every machine
    ends at exactly the ideal. This treats load as divisible: it is a load
    balance, not a timetable.
  - wraparound_schedule: the time-feasible counterpart. Splitting a job can
    push a machine's load below the longest single job, and a split job must
    never run on two machines at once; laying jobs end-to-end and wrapping at
    max(longest job, ideal load) yields a preemptive timetable that respects
    both.

All of them, and timeline, compute on the instance's integer ticks
(core.TickView) and make a Fraction only for what they return; a segment
that holds a whole job carries the job's own process time. Apart from pam,
whose output has a segment per machine, their cost does not grow with the
machine count beyond the job count.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction

from .core import Job, JobSegment, MigrationSchedule, MinMsInstance

__all__ = [
    "PamTrace",
    "opt_balance",
    "lpt_schedule",
    "pam_schedule",
    "wraparound_schedule",
    "lpt_ratio",
    "timeline",
]


def opt_balance(instance: MinMsInstance) -> Fraction:
    """Ideal balanced load: total process time spread evenly over machines."""
    ticks = instance.ticks
    return ticks.time(ticks.total // instance.machine_count)


def _lpt_greedy(instance: MinMsInstance) -> list[tuple[Job, int, int]]:
    """The greedy of lpt_schedule: (job, machine, size in ticks) in allocation order.

    The heap holds min(n, m) machines: an idle machine beats every loaded
    one and ties go to the lowest index, so machines n.. never take a job.
    """
    sizes = instance.ticks.sizes
    order = sorted(instance.jobs, key=lambda j: (-sizes[j.id], j.id))
    heap = [(0, i) for i in range(min(len(order), instance.machine_count))]
    placed = []
    for job in order:
        load, i = heap[0]
        size = sizes[job.id]
        placed.append((job, i, size))
        heapq.heapreplace(heap, (load + size, i))
    return placed


def lpt_schedule(instance: MinMsInstance) -> MigrationSchedule:
    """Assign whole jobs, largest first, to the currently least-loaded machine.

    The machine pool is a priority queue keyed on (load, machine index), so
    each assignment costs O(log m) and ties go to the lowest machine index;
    equal process times are ordered by job id. No job is split, so the result
    has zero migrations.
    """
    segments = tuple(JobSegment(job.id, i, job.process_time) for job, i, _ in _lpt_greedy(instance))
    return MigrationSchedule(instance, segments)


@dataclass(frozen=True)
class PamTrace:
    """Record of the balance-to-optimum pass.

    lpt_loads are the machine loads after the greedy phase; excess and
    deficit list (machine, amount) pairs above/below the balanced optimum in
    the order the transfer walked them. Excess and deficit amounts always sum
    to the same value, and every machine load in `schedule` equals the
    balanced optimum exactly.
    """

    lpt_loads: tuple[Fraction, ...]
    excess: tuple[tuple[int, Fraction], ...]
    deficit: tuple[tuple[int, Fraction], ...]
    schedule: MigrationSchedule


def _piece(instance: MinMsInstance, job: Job, ticks: int) -> Fraction:
    """The amount of `ticks` of `job`: its own process time when it is whole."""
    if ticks == instance.ticks.sizes[job.id]:
        return job.process_time
    return instance.ticks.time(ticks)


def pam_schedule(instance: MinMsInstance) -> PamTrace:
    """Balance every machine to exactly the ideal load by splitting jobs.

    Phase 1 is the lpt greedy. Phase 2 sorts overloaded machines by load
    non-increasing and underloaded machines by load non-decreasing, then
    repeatedly moves min(current excess, current deficit) from the most
    loaded machine to the least loaded one, splitting the most recently
    allocated jobs on the source machine first. Always feasible: load is
    treated as divisible. Its cost grows with the machine count, since every
    machine ends with at least one segment.
    """
    ticks = instance.ticks
    m = instance.machine_count
    opt = ticks.total // m

    # Per-machine [job, ticks] entries in allocation order; the transfer
    # carves from the tail (most recently allocated first).
    stacks: list[list[list]] = [[] for _ in range(m)]
    loads = [0] * m
    for job, machine, size in _lpt_greedy(instance):
        stacks[machine].append([job, size])
        loads[machine] += size
    received: list[list[tuple[Job, int]]] = [[] for _ in range(m)]

    over = sorted((i for i in range(m) if loads[i] > opt), key=lambda i: (-loads[i], i))
    under = sorted((i for i in range(m) if loads[i] < opt), key=lambda i: (loads[i], i))
    excess = [(i, loads[i] - opt) for i in over]
    deficit = [(i, opt - loads[i]) for i in under]

    ex_rem = [amount for _, amount in excess]
    de_rem = [amount for _, amount in deficit]
    ei = di = 0
    while ei < len(excess) and di < len(deficit):
        src = excess[ei][0]
        dst = deficit[di][0]
        move = min(ex_rem[ei], de_rem[di])
        remaining = move
        while remaining > 0:
            job, amount = stacks[src][-1]
            take = amount if amount <= remaining else remaining
            if take == amount:
                stacks[src].pop()
            else:
                stacks[src][-1][1] = amount - take
            received[dst].append((job, take))
            remaining -= take
        ex_rem[ei] -= move
        de_rem[di] -= move
        if ex_rem[ei] == 0:
            ei += 1
        if de_rem[di] == 0:
            di += 1

    segments = []
    for i in range(m):
        for job, amount in stacks[i]:
            segments.append(JobSegment(job.id, i, _piece(instance, job, amount)))
        for job, amount in received[i]:
            segments.append(JobSegment(job.id, i, _piece(instance, job, amount)))
    schedule = MigrationSchedule(instance, tuple(segments))
    time = ticks.time
    return PamTrace(
        tuple(time(load) for load in loads),
        tuple((i, time(amount)) for i, amount in excess),
        tuple((i, time(amount)) for i, amount in deficit),
        schedule,
    )


def wraparound_schedule(instance: MinMsInstance) -> tuple[MigrationSchedule, Fraction]:
    """Preemptive timetable with makespan exactly max(longest job, ideal load).

    Jobs are laid end-to-end in instance order on machine 0's timeline and
    cut at the bound, resuming on the next machine at time 0 (McNaughton's
    wrap rule). Because no job exceeds the bound, the two pieces of a wrapped
    job never overlap in time. Returns (schedule, makespan bound).
    """
    ticks = instance.ticks
    bound = max(max(ticks.sizes.values()), ticks.total // instance.machine_count)
    segments = []
    machine = clock = 0
    for job in instance.jobs:
        remaining = ticks.sizes[job.id]
        while remaining > 0:
            take = min(remaining, bound - clock)
            segments.append(JobSegment(job.id, machine, _piece(instance, job, take)))
            clock += take
            remaining -= take
            if clock == bound:
                machine += 1
                clock = 0
    return MigrationSchedule(instance, tuple(segments)), ticks.time(bound)


def lpt_ratio(instance: MinMsInstance) -> Fraction:
    """Exact ratio of the greedy makespan to the balanced optimum."""
    return lpt_schedule(instance).makespan() / opt_balance(instance)


def timeline(schedule: MigrationSchedule) -> list[tuple[int, int, Fraction, Fraction]]:
    """Read a schedule as a timetable: back-to-back execution from time 0.

    Segments run consecutively on each machine in segment tuple order.
    Returns (job_id, machine_id, start, end) per segment. Only meaningful
    for schedules built with that convention (wraparound_schedule).
    """
    ticks = schedule.instance.ticks
    # Per machine: its clock in ticks (None once an amount off the tick grid
    # has run there) and as a time value.
    clocks: dict[int, tuple[int | None, Fraction]] = {}
    idle = (0, Fraction(0))
    out = []
    for job_id, machine, amount in schedule.segments:
        clock, start = clocks.get(machine, idle)
        step = ticks.of(amount)
        if clock is None or step is None:
            clock, end = None, start + amount
        else:
            clock += step
            end = ticks.time(clock)
        out.append((job_id, machine, start, end))
        clocks[machine] = (clock, end)
    return out

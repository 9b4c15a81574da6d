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
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction

from .core import JobSegment, MigrationSchedule, MinMsInstance, TimeValue

__all__ = [
    "PamTrace",
    "opt_balance",
    "lpt_schedule",
    "pam_schedule",
    "wraparound_schedule",
    "lpt_ratio",
    "timeline",
]


def opt_balance(instance: MinMsInstance) -> TimeValue:
    """Ideal balanced load: total process time spread evenly over machines."""
    return instance.total_load() / instance.machine_count


def _lpt_greedy(instance: MinMsInstance) -> list[tuple[int, int, TimeValue]]:
    """The greedy of lpt_schedule: (job_id, machine, amount) in allocation order."""
    order = sorted(instance.jobs, key=lambda j: (-j.process_time, j.id))
    heap: list[tuple[Fraction, int]] = [
        (Fraction(0), i) for i in range(instance.machine_count)
    ]
    placed = []
    for job in order:
        load, i = heapq.heappop(heap)
        placed.append((job.id, i, job.process_time))
        heapq.heappush(heap, (load + job.process_time, i))
    return placed


def lpt_schedule(instance: MinMsInstance) -> MigrationSchedule:
    """Assign whole jobs, largest first, to the currently least-loaded machine.

    The machine pool is a priority queue keyed on (load, machine index), so
    each assignment costs O(log m) and ties go to the lowest machine index;
    equal process times are ordered by job id. No job is split, so the result
    has zero migrations.
    """
    segments = tuple(JobSegment(*p) for p in _lpt_greedy(instance))
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

    lpt_loads: tuple[TimeValue, ...]
    excess: tuple[tuple[int, TimeValue], ...]
    deficit: tuple[tuple[int, TimeValue], ...]
    schedule: MigrationSchedule


def pam_schedule(instance: MinMsInstance) -> PamTrace:
    """Balance every machine to exactly the ideal load by splitting jobs.

    Phase 1 is the lpt greedy. Phase 2 sorts overloaded machines by load
    non-increasing and underloaded machines by load non-decreasing, then
    repeatedly moves min(current excess, current deficit) from the most
    loaded machine to the least loaded one, splitting the most recently
    allocated jobs on the source machine first. Always feasible: load is
    treated as divisible.
    """
    opt = opt_balance(instance)
    m = instance.machine_count

    # Per-machine [job_id, amount] entries in allocation order; the transfer
    # carves from the tail (most recently allocated first).
    stacks: list[list[list]] = [[] for _ in range(m)]
    for job_id, machine, amount in _lpt_greedy(instance):
        stacks[machine].append([job_id, amount])
    lpt_loads = tuple(sum((amount for _, amount in stack), Fraction(0)) for stack in stacks)
    received: list[list[tuple[int, Fraction]]] = [[] for _ in range(m)]

    over = sorted(
        ((i, load) for i, load in enumerate(lpt_loads) if load > opt),
        key=lambda t: (-t[1], t[0]),
    )
    under = sorted(
        ((i, load) for i, load in enumerate(lpt_loads) if load < opt),
        key=lambda t: (t[1], t[0]),
    )
    excess = [(i, load - opt) for i, load in over]
    deficit = [(i, opt - load) for i, load in under]

    ex_rem = [amount for _, amount in excess]
    de_rem = [amount for _, amount in deficit]
    ei = di = 0
    while ei < len(excess) and di < len(deficit):
        src = excess[ei][0]
        dst = deficit[di][0]
        move = min(ex_rem[ei], de_rem[di])
        remaining = move
        while remaining > 0:
            job_id, amount = stacks[src][-1]
            take = amount if amount <= remaining else remaining
            if take == amount:
                stacks[src].pop()
            else:
                stacks[src][-1][1] = amount - take
            received[dst].append((job_id, take))
            remaining -= take
        ex_rem[ei] -= move
        de_rem[di] -= move
        if ex_rem[ei] == 0:
            ei += 1
        if de_rem[di] == 0:
            di += 1

    segments = []
    for i in range(m):
        for job_id, amount in stacks[i]:
            segments.append(JobSegment(job_id, i, amount))
        for job_id, amount in received[i]:
            segments.append(JobSegment(job_id, i, amount))
    schedule = MigrationSchedule(instance, tuple(segments))
    return PamTrace(lpt_loads, tuple(excess), tuple(deficit), schedule)


def wraparound_schedule(instance: MinMsInstance) -> tuple[MigrationSchedule, TimeValue]:
    """Preemptive timetable with makespan exactly max(longest job, ideal load).

    Jobs are laid end-to-end in instance order on machine 0's timeline and
    cut at the bound, resuming on the next machine at time 0. Because no job
    exceeds the bound, the two pieces of a wrapped job never overlap in time.
    Returns (schedule, makespan bound).
    """
    bound = max(
        max(j.process_time for j in instance.jobs),
        opt_balance(instance),
    )
    segments = []
    machine = 0
    clock = Fraction(0)
    for job in instance.jobs:
        remaining = job.process_time
        while remaining > 0:
            take = min(remaining, bound - clock)
            segments.append(JobSegment(job.id, machine, take))
            clock += take
            remaining -= take
            if clock == bound:
                machine += 1
                clock = Fraction(0)
    return MigrationSchedule(instance, tuple(segments)), bound


def lpt_ratio(instance: MinMsInstance) -> TimeValue:
    """Exact ratio of the greedy makespan to the balanced optimum."""
    return lpt_schedule(instance).makespan() / opt_balance(instance)


def timeline(schedule: MigrationSchedule) -> list[tuple[int, int, TimeValue, TimeValue]]:
    """Read a schedule as a timetable: back-to-back execution from time 0.

    Segments run consecutively on each machine in segment tuple order.
    Returns (job_id, machine_id, start, end) per segment. Only meaningful
    for schedules built with that convention (wraparound_schedule).
    """
    clocks: dict[int, Fraction] = {}
    out = []
    for seg in schedule.segments:
        start = clocks.get(seg.machine_id, Fraction(0))
        end = start + seg.amount
        out.append((seg.job_id, seg.machine_id, start, end))
        clocks[seg.machine_id] = end
    return out

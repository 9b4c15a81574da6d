"""Makespan solvers for identical machines.

Four routes, from classical to exact:

  - opt_balance: the ideal per-machine load, total work / machine count.
  - lpt_schedule: longest-processing-time-first greedy, whole jobs only.
  - pam_schedule: lpt followed by a partition-and-migrate pass that cuts
    the load above the ideal off each overloaded machine's last job and
    deals it to machines below it, in at most m - 1 pieces, so every machine
    ends at exactly the ideal. This treats load as divisible: it is a load
    balance, not a timetable.
  - wraparound_schedule: the time-feasible counterpart. Splitting a job can
    push a machine's load below the longest single job, and a split job must
    never run on two machines at once; laying jobs end-to-end and wrapping at
    max(longest job, ideal load) yields a preemptive timetable that respects
    both.

All of them, and timeline_ticks, compute on the instance's integer ticks
(core.TickView). Each solver returns its schedule (pam inside its PamTrace)
as the job, machine and tick columns of its own bookkeeping, with no
`JobSegment` and no `Fraction` per segment (core.MigrationSchedule._trusted);
the construction check does not run on it again, and `verify` checks a dump
of it from outside. Apart from pam, whose output has a segment per machine, their
cost does not grow with the machine count beyond the job count. certificate
checks each solver's claim on a schedule, such as one read back from a dump.
"""

from __future__ import annotations

import collections
import functools
import heapq
import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction

from .core import MAX_MACHINES, InstanceTooLargeError, MigrationSchedule, MinMsInstance

__all__ = [
    "PamTrace",
    "opt_balance",
    "lpt_schedule",
    "pam_schedule",
    "wraparound_schedule",
    "lpt_ratio",
    "timeline_ticks",
    "certificate",
]


def opt_balance(instance: MinMsInstance) -> Fraction:
    """Ideal balanced load: total process time spread evenly over machines."""
    ticks = instance.ticks
    return ticks.time(ticks.total // instance.machine_count)


def _lpt_greedy(instance: MinMsInstance) -> tuple[list[int], list[int], list[int]]:
    """The greedy of lpt_schedule: job, machine and tick columns in allocation order.

    Jobs go largest first, equal sizes by id: the ids are sorted, then sorted
    again by size with `reverse=True`, which keeps equal sizes in id order, so
    no Python key function runs per job. The heap holds min(n, m) machines: an
    idle machine beats every loaded one and ties go to the lowest index, so
    machines n.. never take a job.
    """
    sizes = instance.ticks.sizes
    order = sorted(sorted(sizes), key=sizes.__getitem__, reverse=True)
    ticks = list(map(sizes.__getitem__, order))
    heap = [(0, i) for i in range(min(len(order), instance.machine_count))]
    machines = []
    for size in ticks:
        load, i = heap[0]
        machines.append(i)
        heapq.heapreplace(heap, (load + size, i))
    return order, machines, ticks


def lpt_schedule(instance: MinMsInstance) -> MigrationSchedule:
    """Assign whole jobs, largest first, to the currently least-loaded machine.

    The machine pool is a priority queue keyed on (load, machine index), so
    each assignment costs O(log m) and ties go to the lowest machine index;
    equal process times are ordered by job id. No job is split, so the result
    has zero migrations.
    """
    return MigrationSchedule._trusted(instance, *_lpt_greedy(instance))


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


def pam_schedule(instance: MinMsInstance) -> PamTrace:
    """Balance every machine to exactly the ideal load by splitting jobs.

    Phase 1 is the lpt greedy. Phase 2 sorts overloaded machines by load
    non-increasing and underloaded machines by load non-decreasing, then
    cuts each overloaded machine's excess off its last job and deals it to
    the underloaded machines in order; the greedy gave that job to a machine
    below the ideal, so it is always larger than the excess. Each piece
    ends an excess or fills a deficit, so there are at most m - 1 pieces.
    Always feasible: load is treated as divisible. Its cost grows with the
    machine count, since every machine ends with at least one segment, so
    more than core.MAX_MACHINES machines raise InstanceTooLargeError before
    anything is allocated. Equal dealt pieces share one int among the
    schedule's ticks, and equal tick counts one Fraction in the trace, so the
    m near-equal loads, deficits and pieces take a few objects, not one each.
    """
    ticks = instance.ticks
    m = instance.machine_count
    if m > MAX_MACHINES:
        raise InstanceTooLargeError(f"{m} machines exceed the pam limit of {MAX_MACHINES}")
    opt = ticks.total // m

    # Per machine, its job ids and their ticks, in allocation order.
    job_stacks: list[list[int]] = [[] for _ in range(m)]
    tick_stacks: list[list[int]] = [[] for _ in range(m)]
    for job_id, machine, size in zip(*_lpt_greedy(instance)):
        job_stacks[machine].append(job_id)
        tick_stacks[machine].append(size)
    loads = list(map(sum, tick_stacks))

    over = sorted((i for i in range(m) if loads[i] > opt), key=lambda i: (-loads[i], i))
    under = sorted((i for i in range(m) if loads[i] < opt), key=lambda i: (loads[i], i))
    excess = [(i, loads[i] - opt) for i in over]
    deficit = [(i, opt - loads[i]) for i in under]

    # One cut per source: its last job went to a least-loaded machine, below
    # opt while that job was unplaced, so the job is larger than the excess.
    # No machine is both over and under opt, so a piece dealt to one never
    # becomes a source's last entry.
    room = [amount for _, amount in deficit]
    shared: dict[int, int] = {}
    di = 0
    for src, rest in excess:
        job_id = job_stacks[src][-1]
        tick_stacks[src][-1] -= rest
        while rest:
            take = min(rest, room[di])
            job_stacks[deficit[di][0]].append(job_id)
            tick_stacks[deficit[di][0]].append(shared.setdefault(take, take))
            rest -= take
            room[di] -= take
            if room[di] == 0:
                di += 1

    flat = itertools.chain.from_iterable
    machines = flat(itertools.repeat(i, len(stack)) for i, stack in enumerate(job_stacks))
    schedule = MigrationSchedule._trusted(instance, flat(job_stacks), machines, flat(tick_stacks))
    time = functools.cache(ticks.time)
    return PamTrace(
        tuple(map(time, loads)),
        tuple((i, time(amount)) for i, amount in excess),
        tuple((i, time(amount)) for i, amount in deficit),
        schedule,
    )


def _wrap_bound_ticks(instance: MinMsInstance) -> int:
    """max(longest job, ideal load) in ticks: the makespan of wraparound_schedule."""
    ticks = instance.ticks
    return max(max(ticks.sizes.values()), ticks.total // instance.machine_count)


def wraparound_schedule(instance: MinMsInstance) -> MigrationSchedule:
    """Preemptive timetable with makespan exactly max(longest job, ideal load).

    Jobs are laid end-to-end in instance order on machine 0's timeline and
    cut at the bound, resuming on the next machine at time 0 (McNaughton's
    wrap rule). Because no job exceeds the bound, the two pieces of a wrapped
    job never overlap in time; certificate checks both facts on a schedule.
    """
    bound = _wrap_bound_ticks(instance)
    jobs, machines, kept = [], [], []
    machine = clock = 0
    for job_id, size in instance.ticks.sizes.items():
        take = min(size, bound - clock)
        jobs.append(job_id)
        machines.append(machine)
        kept.append(take)
        clock += take
        if clock == bound:
            machine += 1
            clock = size - take
            if clock:  # the rest of a wrapped job, from time 0 on the next machine
                jobs.append(job_id)
                machines.append(machine)
                kept.append(clock)
    return MigrationSchedule._trusted(instance, jobs, machines, kept)


def lpt_ratio(instance: MinMsInstance) -> Fraction:
    """Exact ratio of the greedy makespan to the balanced optimum."""
    return lpt_schedule(instance).makespan() / opt_balance(instance)


def timeline_ticks(
    schedule: MigrationSchedule,
) -> list[tuple[int, int, int | Fraction, int | Fraction]]:
    """Read a schedule as a timetable in ticks: back-to-back execution from 0.

    Segments run consecutively on each machine in segment tuple order.
    Returns (job_id, machine_id, start, end) per segment, as tick clocks: an
    int while every amount on the machine so far is on the tick grid, a
    Fraction of a tick once one is off it. Only meaningful for schedules
    built with that convention (wraparound_schedule). It reads the schedule's
    columns, with the ticks kept from its construction check or from its
    solver, so nothing is converted again and no segment is built.
    """
    clocks: dict[int, int | Fraction] = {}
    out = []
    for job_id, machine, t in zip(schedule._jobs, schedule._machines, schedule._ticks):
        start = clocks.get(machine, 0)
        clocks[machine] = end = start + t
        out.append((job_id, machine, start, end))
    return out


def certificate(schedule: MigrationSchedule, algorithm: str) -> tuple[list[str], list[str]]:
    """Check on `schedule` what `algorithm` guarantees: (issues, notes), one
    line per claim, a note when it holds and an issue when it fails. Any
    other name has no certificate here and gives ([], []).

    The wraparound claims take one clock walk over the schedule's columns,
    read as timeline_ticks reads them: the latest clock is the makespan, and
    only the jobs with more than one segment keep their (job, start, end)
    windows, which are sorted and compared with their neighbours."""
    instance = schedule.instance
    if algorithm == "pam":
        # Conservation holds, so the loads sum to m x opt: they all equal opt
        # exactly when the largest does, and no per-machine list is needed.
        opt, makespan = opt_balance(instance), schedule.makespan()
        if makespan != opt:
            return [f"makespan {makespan} exceeds the balanced optimum {opt}"], []
        return [], [f"all loads = {opt}"]
    if algorithm == "lpt":
        # Conservation holds, so every job has a segment: each extra one splits a job.
        if migrations := schedule.migrations:
            return [f"{migrations} split jobs in a whole-job schedule"], []
        return [], ["every job is whole on one machine"]
    if algorithm != "wraparound":
        return [], []
    issues, notes = [], []
    # A job with one segment cannot overlap itself, so only split jobs keep windows.
    jobs = schedule._jobs
    split = {job for job, count in collections.Counter(jobs).items() if count > 1}
    clocks: dict[int, int | Fraction] = {}
    windows = []
    for job, machine, t in zip(jobs, schedule._machines, schedule._ticks):
        start = clocks.get(machine, 0)
        clocks[machine] = end = start + t
        if job in split:
            windows.append((job, start, end))
    bound = _wrap_bound_ticks(instance)
    makespan = max(clocks.values())
    time = instance.ticks.time
    if makespan != bound:
        issues.append(f"makespan {time(makespan)} differs from wrap bound {time(bound)}")
    else:
        notes.append(f"makespan = {time(bound)} (wrap bound)")
    # Sorted by job and start, a job's windows overlap only if two neighbours do.
    pairs = itertools.pairwise(sorted(windows, key=operator.itemgetter(0, 1)))
    overlapping = sorted({a[0] for a, b in pairs if a[0] == b[0] and a[2] > b[1]})
    if overlapping:
        issues.append(f"jobs {overlapping} overlap themselves in time")
    else:
        notes.append("no job overlaps itself in time")
    return issues, notes

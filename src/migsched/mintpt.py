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
(slot_profile, machines_per_slot) walk every slot, up to core.MAX_SLOTS.
Both solvers find the lowest-indexed machine with room through a min-heap,
not a scan of the machines, so each job costs O(log machines). The schedule
check tests each machine's capacity on its sorted stint starts and ends, and
the schedule keeps the power-on time that the same lists give. A failing
check raises one InvariantError that carries every problem in `args`. The
check runs on public construction and in `verify`; each solver builds its
schedule from its own bookkeeping (IntervalSchedule._trusted), with the busy
slots and the machine count it has counted on the stints it placed, and the
check does not run again on it. certificate checks each solver's claim on a
schedule, such as one read back from a dump.
"""

from __future__ import annotations

import heapq
import itertools
import operator
from dataclasses import dataclass
from typing import Iterable

from .core import MAX_SLOTS, InstanceTooLargeError, InvariantError, _check_unique_ids

__all__ = [
    "IntervalJob",
    "IntervalInstance",
    "SlotProfile",
    "IntervalSchedule",
    "interval_span",
    "slot_profile",
    "mintpt_lower_bound",
    "estf_schedule",
    "lbm_schedule",
    "placement_violations",
    "certificate",
]


@dataclass(frozen=True)
class IntervalJob:
    """A unit-demand job with a fixed processing interval [start_slot, end_slot)."""

    id: int
    start_slot: int
    end_slot: int
    demand: int = 1

    def __post_init__(self) -> None:
        # Exactly int: a bool is an int to isinstance, but never an id, slot or demand.
        if type(self.id) is not int or self.id < 0:
            raise InvariantError(f"job id must be a non-negative integer, got {self.id!r}")
        if type(self.start_slot) is not int or self.start_slot < 0:
            raise InvariantError(f"job {self.id}: start slot must be a non-negative integer")
        if type(self.end_slot) is not int or self.end_slot <= self.start_slot:
            raise InvariantError(
                f"job {self.id}: end slot must exceed start slot, "
                f"got [{self.start_slot}, {self.end_slot})"
            )
        if type(self.demand) is not int or self.demand != 1:
            raise InvariantError(f"job {self.id}: only unit demand is supported")

    @property
    def interval(self) -> tuple[int, int]:
        return (self.start_slot, self.end_slot)


@dataclass(frozen=True)
class IntervalInstance:
    """Unit-demand interval jobs plus the per-machine slot capacity g >= 1.

    The slot horizon is derived: the largest end slot over all jobs (0 when
    empty). Every job therefore lies within [0, horizon). `rows` holds each
    job's (id, start slot, end slot) in instance order, and every reader of
    the job fields reads it. An instance read from text (`_trusted`) keeps
    the reader's rows and builds its `jobs` only when something asks for them.
    """

    jobs: tuple[IntervalJob, ...]
    capacity: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "jobs", tuple(self.jobs))
        self._check_capacity(self.capacity)
        _check_unique_ids(self.jobs)
        object.__setattr__(self, "rows", tuple((job.id, *job.interval) for job in self.jobs))

    @staticmethod
    def _check_capacity(capacity) -> None:
        if type(capacity) is not int or capacity < 1:  # a bool is no capacity
            raise InvariantError(f"capacity must be a positive integer, got {capacity!r}")

    @classmethod
    def _trusted(cls, rows: tuple[tuple[int, int, int], ...], capacity: int) -> IntervalInstance:
        """The instance of a reader's checked `(job id, start slot, end slot)`
        rows of unit-demand jobs: unique non-negative int ids and int slots
        with 0 <= start < end. The rows are kept as they are, and no job is
        built; the capacity check still runs."""
        cls._check_capacity(capacity)
        instance, store = object.__new__(cls), object.__setattr__
        store(instance, "capacity", capacity)
        store(instance, "rows", rows)
        return instance

    def __getattr__(self, name: str):
        """A `_trusted` instance's `jobs`, built from its rows and kept. Without
        rows (a half-built object, as while unpickling) it is missing too."""
        rows = vars(self).get("rows") if name == "jobs" else None
        if rows is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        object.__setattr__(self, "jobs", tuple(IntervalJob(*row) for row in rows))
        return self.jobs

    @property
    def horizon(self) -> int:
        return max(map(operator.itemgetter(2), self.rows), default=0)


@dataclass(frozen=True)
class SlotProfile:
    """Per-slot aggregate load and the machine-count floor ceil(load / g)."""

    loads: tuple[int, ...]
    min_machines: tuple[int, ...]


def interval_span(intervals: Iterable[tuple[int, int]]) -> int:
    """Measure of the union of the intervals, overlaps counted once.

    Always <= the sum of their lengths, with equality exactly when no two
    intervals overlap (sharing an endpoint is not an overlap). An interval
    [s, t) with t <= s raises InvariantError, the first in sorted order.
    """
    ordered = sorted(intervals)
    for s, t in ordered:
        if t <= s:
            raise InvariantError(f"interval [{s}, {t}) has non-positive length")
    return sum(t - s for s, t, count in _runs(ordered) if count)


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


def _slots(instance: IntervalInstance, name: str) -> int:
    """The horizon, for `name`'s one entry per slot: more than MAX_SLOTS slots
    raise InstanceTooLargeError before anything is allocated."""
    if (horizon := instance.horizon) > MAX_SLOTS:
        raise InstanceTooLargeError(f"{horizon} slots exceed the {name} limit of {MAX_SLOTS}")
    return horizon


def _per_slot(runs: Iterable[tuple[int, int, int]], horizon: int) -> tuple[int, ...]:
    """Each run's count in every slot of [0, horizon) it covers; 0 elsewhere."""
    counts = [0] * horizon
    for s, t, count in runs:
        counts[s:t] = [count] * (t - s)
    return tuple(counts)


def slot_profile(instance: IntervalInstance) -> SlotProfile:
    """Count active jobs per slot and the resulting machine-count floor."""
    horizon = _slots(instance, "slot_profile")
    loads = _per_slot(_runs(row[1:] for row in instance.rows), horizon)
    g = instance.capacity
    return SlotProfile(loads, tuple(-(-load // g) for load in loads))


def mintpt_lower_bound(instance: IntervalInstance) -> int:
    """Sum over slots of the per-slot machine-count floor.

    No schedule, migratory or not, can power on fewer machine-slots.
    """
    g = instance.capacity
    return sum(-(-count // g) * (t - s) for s, t, count in _runs(row[1:] for row in instance.rows))


def placement_violations(
    instance: IntervalInstance,
    stints: Iterable[tuple[int, int, int, int]],
    *,
    power_on: list[int] | None = None,
) -> list[str]:
    """Check raw (job_id, machine_id, start, end) stints against an instance.

    A stint places a job on one machine in slots [start, end). Verifies that
    job ids are known, machine ids are non-negative ints, start < end are
    ints, each job's stints cover its interval exactly (no gap, no slot twice,
    nothing outside), and no machine hosts more than g jobs in any slot.
    Returns violations (empty when valid). A job whose one stint is its
    whole interval is covered exactly, with no sort and no cover walk.

    Capacity is tested per machine on its stints' starts and ends, each sorted:
    more than g of them share a slot exactly when some start[i + g] comes
    before end[i]. Only a machine that fails this test is walked run by run
    to word its messages. When `power_on` is given, it receives each
    machine's busy slots in machine order, from the same sorted lists: the
    span from the first start to the last end less the gaps where end[i]
    comes before start[i + 1].
    """
    problems: list[str] = []
    covered: dict[int, list[tuple[int, int]]] = {job_id: [] for job_id, _, _ in instance.rows}
    per_machine: dict[int, list[tuple[int, int]]] = {}
    for job_id, machine_id, start, end in stints:
        if type(job_id) is not int or job_id not in covered:
            problems.append(f"stint references unknown job {job_id!r}")
            continue
        if type(machine_id) is not int or machine_id < 0:
            problems.append(f"job {job_id}: machine id {machine_id!r} is not a non-negative int")
            continue
        if type(start) is not int or type(end) is not int or start >= end:
            problems.append(f"job {job_id}: stint [{start!r}, {end!r}) is not a slot range")
            continue
        covered[job_id].append((start, end))
        per_machine.setdefault(machine_id, []).append((start, end))
    for job_id, first, last in instance.rows:
        spans = covered[job_id]
        if len(spans) == 1 and spans[0] == (first, last):
            continue  # one stint on its whole interval: nothing to walk
        cursor = first
        if len(spans) > 1:
            spans.sort()
        for start, end in spans:
            if start < first or end > last:
                problems.append(
                    f"job {job_id}: stint [{start}, {end}) outside its interval [{first}, {last})"
                )
                start, end = max(start, first), min(end, last)
                if start >= end:
                    continue
            if start > cursor:
                problems.append(f"job {job_id}: no placement for slots [{cursor}, {start})")
            elif start < cursor:
                twice = f"[{start}, {min(end, cursor)})"
                problems.append(f"job {job_id}: placed twice in slots {twice}")
            cursor = max(cursor, end)
        if cursor < last:
            problems.append(f"job {job_id}: no placement for slots [{cursor}, {last})")
    g = instance.capacity
    for machine_id, intervals in sorted(per_machine.items()):
        starts, ends = map(sorted, zip(*intervals))
        if any(map(operator.lt, starts[g:], ends)):
            for start, end, count in _runs(intervals):
                if count > g:
                    problems.append(
                        f"machine {machine_id}, slots [{start}, {end}): {count} jobs exceed "
                        f"capacity {g}"
                    )
        if power_on is not None:
            gaps = sum(map(max, map(operator.sub, starts[1:], ends), itertools.repeat(0)))
            power_on.append(ends[-1] - starts[0] - gaps)
    return problems


@dataclass(frozen=True)
class IntervalSchedule:
    """Run-length machine assignment: (job_id, machine_id, start, end) stints.

    A stint places a job on one machine in slots [start, end), end exclusive.
    Stints are validated at public construction (each job's interval covered
    exactly, capacity respected in every slot of every machine) and then
    kept in canonical (job_id, start) order. A migration is a boundary inside
    a job where its machine changes.

    The construction check also counts each machine's busy slots, one count
    per machine it hosts, and the schedule keeps their sum as its total
    power-on time and their number as `machines_used`. A failing check
    raises InvariantError(*placement_violations(...)). A solver's output is
    built by `_trusted` from the solver's own counts and is not checked:
    `verify` checks every dump from outside.
    """

    instance: IntervalInstance
    stints: tuple[tuple[int, int, int, int], ...]

    def __post_init__(self) -> None:
        stints = tuple(self.stints)
        power_on: list[int] = []
        # Checked before sorting: a malformed id may not compare with the others.
        problems = placement_violations(self.instance, stints, power_on=power_on)
        if problems:
            raise InvariantError(*problems)
        self._keep(stints, sum(power_on), len(power_on))

    @classmethod
    def _trusted(
        cls,
        instance: IntervalInstance,
        stints: Iterable[tuple[int, int, int, int]],
        power_on: int,
        machines_used: int,
    ) -> IntervalSchedule:
        """The schedule of `stints` that a solver built from its own
        bookkeeping, with the total busy slots and the number of machines
        that host a stint as it counted them. placement_violations is skipped."""
        schedule = object.__new__(cls)
        object.__setattr__(schedule, "instance", instance)
        schedule._keep(stints, power_on, machines_used)
        return schedule

    def _keep(
        self, stints: Iterable[tuple[int, int, int, int]], power_on: int, machines_used: int
    ) -> None:
        """Store the stints in canonical order with their migration count, and the two counts."""
        store = object.__setattr__
        store(self, "_power_on", power_on)
        store(self, "_machines_used", machines_used)
        stints = tuple(sorted(stints, key=operator.itemgetter(0, 2)))
        store(self, "stints", stints)
        # Canonical order puts a job's stints side by side, each ending where the next starts.
        migrations = sum(a[0] == b[0] and a[1] != b[1] for a, b in zip(stints, stints[1:]))
        store(self, "_migrations", migrations)

    @property
    def machines_used(self) -> int:
        return self._machines_used

    @property
    def migrations(self) -> int:
        return self._migrations

    def machines_per_slot(self) -> tuple[int, ...]:
        """Distinct machines powered on in each slot of the horizon (see slot_profile)."""
        horizon = _slots(self.instance, "machines_per_slot")
        per_machine: dict[int, list[tuple[int, int]]] = {}
        for _, machine_id, start, end in self.stints:
            per_machine.setdefault(machine_id, []).append((start, end))
        busy = (
            (start, end)
            for intervals in per_machine.values()
            for start, end, jobs in _runs(intervals)
            if jobs
        )
        return _per_slot(_runs(busy), horizon)

    def total_power_on_time(self) -> int:
        """Total busy machine-slots: slots where a machine hosts >= 1 job."""
        return self._power_on


def _allocation_order(instance: IntervalInstance) -> list[tuple[int, int, int]]:
    # The (id, start, end) rows, earliest start first, ties by job id.
    return sorted(instance.rows, key=operator.itemgetter(1, 0))


def estf_schedule(instance: IntervalInstance) -> IntervalSchedule:
    """Earliest-start-time-first baseline without migration.

    Each job, in non-decreasing start order, goes wholly to the lowest-indexed
    machine with spare capacity in all of its slots; a new machine is opened
    when none fits. Every job keeps one machine for its whole interval.

    Jobs arrive in start order, so a machine's busiest slot within a new job's
    interval is the job's first: the machine fits the job exactly when fewer
    than g of its jobs end after that start. One min-heap of (end slot,
    machine) retires the jobs that ended by that start, and a min-heap of the
    machines with fewer than g live jobs holds the lowest such index at its
    top: a machine is pushed when it is opened or its count drops to g - 1,
    and popped when it fills, so each job costs O(log machines).

    The schedule's power-on time is counted as the jobs are placed: each
    machine keeps its reach, the latest end of its jobs so far, and a job
    that ends past it adds its slots beyond max(its start, the reach); the
    jobs come in start order, so no slot is counted twice.
    """
    g = instance.capacity
    live: list[int] = []  # per machine: its jobs that end after the current start
    reach: list[int] = []  # per machine: the latest end slot of its jobs so far
    room: list[int] = []  # min-heap of the machines with fewer than g live jobs
    running: list[tuple[int, int]] = []  # min-heap of (end slot, machine) of live jobs
    stints: list[tuple[int, int, int, int]] = []
    power_on = 0
    for job_id, start, end in _allocation_order(instance):
        while running and running[0][0] <= start:
            machine = heapq.heappop(running)[1]
            live[machine] -= 1
            if live[machine] == g - 1:
                heapq.heappush(room, machine)
        if not room:
            heapq.heappush(room, len(live))
            live.append(0)
            reach.append(start)
        machine = room[0]
        live[machine] += 1
        if live[machine] == g:
            heapq.heappop(room)
        if end > reach[machine]:
            power_on += end - max(start, reach[machine])
            reach[machine] = end
        heapq.heappush(running, (end, machine))
        stints.append((job_id, machine, start, end))
    return IntervalSchedule._trusted(instance, stints, power_on, len(live))


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

    Between two slots where some job starts or ends, the active set and the
    floor do not change, so every job keeps its machine: the step above runs
    once per such event slot, and each placement becomes a stint that lasts
    until its job ends or is stranded. The last event slot is the horizon,
    where every remaining job ends.

    The lowest allowed machine with room is the top of a min-heap of machine
    indices, so each placement costs O(log machines) amortised. A machine is
    pushed when it is opened and when a job leaves it full, and its entry is
    popped when it reaches the top full. So every allowed machine with room
    keeps an entry. A closed machine's entry stays behind: it is stale, but
    it sorts above every allowed machine, and some allowed machine has room
    whenever a job is placed, so it never reaches the top while it is stale.

    The schedule's counts are taken from the stints the sweep emitted, not
    from the floor it aims at. Each stint is emitted at its end slot, so the
    list runs in end order; walked backwards, every stint already seen on a
    machine ends no earlier than the current one, so the machine's busy slots
    seen below the current end are [its lowest start so far, end), and the
    stint adds only its slots under that start.
    """
    g = instance.capacity
    order = _allocation_order(instance)
    rank = {job_id: k for k, (job_id, _, _) in enumerate(order)}
    starts: dict[int, list[int]] = {}
    ends: dict[int, list[int]] = {}
    for job_id, start, end in order:
        starts.setdefault(start, []).append(job_id)
        ends.setdefault(end, []).append(job_id)

    stints: list[tuple[int, int, int, int]] = []
    hosted: list[set[int]] = []  # per allowed machine: the job ids on it
    room: list[int] = []  # min-heap of machines that may have room; see above
    placed: dict[int, tuple[int, int]] = {}  # job id -> (machine, stint start)
    count = 0  # jobs active from this slot on
    for slot in sorted(starts.keys() | ends.keys()):
        starting, ending = starts.get(slot, []), ends.get(slot, ())
        for job_id in ending:
            machine, since = placed.pop(job_id)
            jobs = hosted[machine]
            if len(jobs) == g:
                heapq.heappush(room, machine)
            jobs.discard(job_id)
            stints.append((job_id, machine, since, slot))
        count += len(starting) - len(ending)
        allowed = -(-count // g)
        stranded: list[int] = []
        while len(hosted) > allowed:
            machine = len(hosted) - 1
            for job_id in sorted(hosted.pop(), key=rank.__getitem__, reverse=True):
                stints.append((job_id, machine, placed[job_id][1], slot))
                stranded.append(job_id)
        for machine in range(len(hosted), allowed):
            hosted.append(set())
            heapq.heappush(room, machine)
        for job_id in starting + stranded:
            while len(hosted[room[0]]) == g:
                heapq.heappop(room)
            machine = room[0]
            hosted[machine].add(job_id)
            placed[job_id] = (machine, slot)
    power_on = 0
    low: dict[int, int] = {}  # per machine: the lowest start of its stints walked so far
    for _, machine, start, end in reversed(stints):
        below = low.get(machine, end)
        if start < below:
            power_on += min(end, below) - start
            low[machine] = start
    return IntervalSchedule._trusted(instance, stints, power_on, len(low))


def certificate(schedule: IntervalSchedule, algorithm: str) -> tuple[list[str], list[str]]:
    """Check on `schedule` what `algorithm` guarantees: (issues, notes), one
    line per claim, a note when it holds and an issue when it fails. Any
    other name has no certificate here and gives ([], [])."""
    if algorithm == "lbm":
        # A valid schedule (a solver's, or one that passed the construction check)
        # uses at least its floor of machines in every slot, so equal totals mean
        # every slot is at its floor.
        total, floor = schedule.total_power_on_time(), mintpt_lower_bound(schedule.instance)
        if total != floor:
            return [f"power-on time {total} exceeds the floor {floor}"], []
        return [], [f"power-on time {total} = floor {floor}"]
    if algorithm == "estf":
        if schedule.migrations:
            return ["migrations present in a no-migration schedule"], []
        return [], ["no migrations, each job keeps one machine"]
    return [], []

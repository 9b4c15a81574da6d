"""Slotted-interval scheduling: span algebra, bounds, baseline, migration."""

import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from migsched import (
    IntervalInstance,
    IntervalJob,
    IntervalSchedule,
    InvariantError,
    estf_schedule,
    gen_random_mintpt,
    interval_span,
    lbm_schedule,
    mintpt,
    mintpt_lower_bound,
    slot_profile,
)
from migsched.mintpt import placement_violations

intervals_strategy = st.lists(
    st.tuples(st.integers(0, 20), st.integers(1, 10)).map(lambda t: (t[0], t[0] + t[1])),
    max_size=8,
)


def four_job_instance():
    """Four unit jobs on capacity 3: the slot floor is [1, 2, 1]."""
    return IntervalInstance(
        (IntervalJob(0, 0, 3), IntervalJob(1, 0, 2), IntervalJob(2, 1, 3), IntervalJob(3, 0, 3)),
        3,
    )


def interval_length(intervals):
    """Sum of the intervals' lengths, overlaps counted multiply."""
    return sum(t - s for s, t in intervals)


def overlaps(intervals):
    ordered = sorted(intervals)
    return any(b_start < a_end for (_, a_end), (b_start, _) in zip(ordered, ordered[1:]))


def machine_assignment(schedule):
    """Per job: slot -> machine, expanded from the schedule's stints."""
    out = {}
    for job_id, machine_id, start, end in schedule.stints:
        out.setdefault(job_id, {}).update(dict.fromkeys(range(start, end), machine_id))
    return out


def reference_estf(instance):
    """Per-slot estf: (job, machine, slot) placements, one per active slot."""
    g = instance.capacity
    occupancy = {}
    placements = []
    for job in sorted(instance.jobs, key=lambda j: (j.start_slot, j.id)):
        machine = 0
        while any(occupancy.get((machine, s), 0) >= g for s in range(*job.interval)):
            machine += 1
        for s in range(*job.interval):
            occupancy[(machine, s)] = occupancy.get((machine, s), 0) + 1
            placements.append((job.id, machine, s))
    return placements


def reference_lbm(instance):
    """Per-slot lbm: the keep / fresh / stranded step in every slot."""
    g = instance.capacity
    order = sorted(instance.jobs, key=lambda j: (j.start_slot, j.id))
    rank = {job.id: k for k, job in enumerate(order)}
    placements = []
    previous = {}
    for slot in range(instance.horizon):
        active = [job for job in order if job.start_slot <= slot < job.end_slot]
        allowed = -(-len(active) // g)
        counts = [0] * allowed
        current = {}
        fresh, stranded = [], []
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
        placements.extend((job_id, machine, slot) for job_id, machine in current.items())
        previous = current
    return placements


def reference_queries(placements):
    """(machine assignment, migrations, power-on time) of per-slot placements."""
    assignment = {}
    for job_id, machine, slot in placements:
        assignment.setdefault(job_id, {})[slot] = machine
    migrations = sum(
        slots[s] != slots[s - 1] for slots in assignment.values() for s in slots if s - 1 in slots
    )
    power_on = len({(machine, slot) for _, machine, slot in placements})
    return assignment, migrations, power_on


def reference_placement_violations(instance, stints):
    """placement_violations as an event walk: every machine's runs are walked."""
    problems = []
    covered = {job.id: [] for job in instance.jobs}
    per_machine = {}
    for job_id, machine_id, start, end in stints:
        if type(job_id) is not int or job_id not in covered:
            problems.append(f"stint references unknown job {job_id!r}")
            continue
        if type(machine_id) is not int or machine_id < 0:
            problems.append(f"job {job_id}: machine id {machine_id!r} invalid")
            continue
        if type(start) is not int or type(end) is not int or start >= end:
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
        delta = {}
        for s, t in intervals:
            delta[s] = delta.get(s, 0) + 1
            delta[t] = delta.get(t, 0) - 1
        times = sorted(delta)
        count = 0
        for start, end in zip(times, times[1:]):
            count += delta[start]
            if count > instance.capacity:
                problems.append(
                    f"machine {machine_id}, slots [{start}, {end}): {count} jobs exceed "
                    f"capacity {instance.capacity}"
                )
    return problems


def span_per_machine(stints):
    """Sum over machines of interval_span of the machine's stints."""
    per_machine = {}
    for _, machine, start, end in stints:
        per_machine.setdefault(machine, []).append((start, end))
    return sum(interval_span(intervals) for intervals in per_machine.values())


@st.composite
def interval_instances(draw):
    horizon = draw(st.integers(1, 30))
    jobs = []
    for i in range(draw(st.integers(0, 25))):
        start = draw(st.integers(0, horizon - 1))
        jobs.append(IntervalJob(i, start, draw(st.integers(start + 1, horizon))))
    ids = draw(st.permutations(range(len(jobs))))
    jobs = [IntervalJob(k, j.start_slot, j.end_slot) for k, j in zip(ids, jobs)]
    return IntervalInstance(tuple(jobs), draw(st.integers(1, 5)))


@st.composite
def stint_lists(draw):
    """An instance and stints that may break every rule: a solver's output or
    nothing, plus stints of known and unknown jobs on a few machines at any
    slots (so overfull machines and stints outside their intervals), a stint
    repeated on its own machine, and malformed ones; in any order."""
    inst = draw(interval_instances())
    solver = draw(st.sampled_from([None, estf_schedule, lbm_schedule]))
    stints = list(solver(inst).stints) if solver else []
    slot = st.integers(0, inst.horizon + 2)
    stints += draw(
        st.lists(
            st.tuples(st.integers(0, len(inst.jobs)), st.integers(0, 2), slot, slot),
            max_size=12,
        )
    )
    if stints and draw(st.booleans()):
        stints.append(draw(st.sampled_from(stints)))  # the same job twice on one machine
    stints += draw(
        st.lists(st.sampled_from([([0], 0, 0, 1), (0, -1, 0, 1), (0, 0, 1, 1), (0, 0, 0, 1.0)]))
    )
    return inst, draw(st.permutations(stints))


class TestStintsMatchPerSlotReference:
    @settings(max_examples=300, deadline=None)
    @given(interval_instances())
    def test_estf_and_lbm_match_the_per_slot_sweeps(self, inst):
        for solver, reference in ((estf_schedule, reference_estf), (lbm_schedule, reference_lbm)):
            sched = solver(inst)
            got = (machine_assignment(sched), sched.migrations, sched.total_power_on_time())
            assert got == reference_queries(reference(inst))

    @settings(max_examples=200, deadline=None)
    @given(interval_instances())
    def test_solver_output_has_no_placement_violations(self, inst):
        for solver in (estf_schedule, lbm_schedule):
            assert placement_violations(inst, solver(inst).stints) == []

    @settings(max_examples=300, deadline=None)
    @given(stint_lists())
    @example((four_job_instance(), [(0, 0, 0, 3), (1, 0, 0, 2), (2, 0, 1, 3), (3, 0, 0, 3)]))
    @example((four_job_instance(), [(0, 0, 0, 3), (0, 0, 0, 3), (1, 1, 0, 4), (7, 0, 0, 1)]))
    def test_placement_violations_match_the_event_walk(self, case):
        inst, stints = case
        assert placement_violations(inst, stints) == reference_placement_violations(inst, stints)
        # The schedule raises exactly when the check finds a problem, with
        # each problem as one argument of its error, in the check's order.
        problems = placement_violations(inst, stints)
        if problems:
            with pytest.raises(InvariantError) as raised:
                IntervalSchedule(inst, tuple(stints))
            assert raised.value.args == tuple(problems)
            assert str(raised.value) == "; ".join(problems)
        else:
            IntervalSchedule(inst, tuple(stints))

    @settings(max_examples=200, deadline=None)
    @given(interval_instances(), st.randoms(use_true_random=False))
    def test_power_on_time_is_the_span_per_machine(self, inst, rng):
        for solver in (estf_schedule, lbm_schedule):
            sched = solver(inst)
            stints = sched.stints
            assert sched.total_power_on_time() == span_per_machine(stints)
            # Still valid: split a stint on its machine, relabel the machines.
            split = []
            for job_id, machine, start, end in stints:
                if end - start > 1 and rng.random() < 0.5:
                    cut = rng.randrange(start + 1, end)
                    split += [(job_id, machine, start, cut), (job_id, machine, cut, end)]
                else:
                    split.append((job_id, machine, start, end))
            machines = sorted({machine for _, machine, _, _ in split})
            labels = dict(zip(machines, rng.sample(range(3 * len(machines) + 1), len(machines))))
            relabelled = [(j, labels[m], s, e) for j, m, s, e in split]
            for variant in (split, relabelled):
                sched = IntervalSchedule(inst, tuple(variant))
                assert sched.total_power_on_time() == span_per_machine(variant)

    @settings(max_examples=100, deadline=None)
    @given(interval_instances())
    def test_lower_bound_and_machines_per_slot_match_slot_counts(self, inst):
        loads = [0] * inst.horizon
        for job in inst.jobs:
            for s in range(*job.interval):
                loads[s] += 1
        assert slot_profile(inst).loads == tuple(loads)
        assert mintpt_lower_bound(inst) == sum(-(-load // inst.capacity) for load in loads)
        for solver, reference in ((lbm_schedule, reference_lbm), (estf_schedule, reference_estf)):
            per_slot = [set() for _ in range(inst.horizon)]
            for _, machine, slot in reference(inst):
                per_slot[slot].add(machine)
            assert solver(inst).machines_per_slot() == tuple(len(m) for m in per_slot)


class TestIntervalAlgebra:
    def test_length_of_mixed_set(self):
        assert interval_length([(1, 4), (2, 4), (5, 6)]) == 6

    def test_length_empty(self):
        assert interval_length([]) == 0

    def test_length_single(self):
        assert interval_length([(0, 3)]) == 3

    def test_span_of_mixed_set(self):
        assert interval_span([(1, 4), (2, 4), (5, 6)]) == 4

    def test_span_abutting_intervals_union(self):
        assert interval_span([(0, 2), (2, 4)]) == 4

    def test_span_equals_length_without_overlap(self):
        disjoint = [(0, 2), (3, 5), (7, 8)]
        assert interval_span(disjoint) == interval_length(disjoint)

    def test_degenerate_interval_rejected(self):
        with pytest.raises(InvariantError):
            interval_span([(3, 3)])
        with pytest.raises(InvariantError):
            interval_span([(4, 2)])
        # The first bad interval in sorted order is the one named.
        with pytest.raises(InvariantError, match=r"^interval \[3, 3\) has non-positive length$"):
            interval_span([(5, 9), (4, 2), (3, 3)])

    @given(intervals_strategy)
    def test_span_at_most_length(self, intervals):
        assert interval_span(intervals) <= interval_length(intervals)

    @given(intervals_strategy)
    def test_span_equals_length_iff_no_overlap(self, intervals):
        equal = interval_span(intervals) == interval_length(intervals)
        assert equal == (not overlaps(intervals))

    @given(intervals_strategy)
    def test_span_counts_each_covered_slot_once(self, intervals):
        assert interval_span(intervals) == len({slot for s, t in intervals for slot in range(s, t)})


class TestSlotProfile:
    def test_four_job_instance(self):
        profile = slot_profile(four_job_instance())
        assert profile.loads == (3, 4, 3)
        assert profile.min_machines == (1, 2, 1)

    def test_empty_instance(self):
        profile = slot_profile(IntervalInstance((), 3))
        assert profile.loads == ()
        assert profile.min_machines == ()

    def test_ceiling_arithmetic(self):
        jobs = tuple(IntervalJob(i, 0, 1) for i in range(5))
        profile = slot_profile(IntervalInstance(jobs, 2))
        assert profile.min_machines == (3,)

    def test_lower_bound_four_jobs(self):
        assert mintpt_lower_bound(four_job_instance()) == 4

    def test_lower_bound_single_job(self):
        for g in (1, 2, 7):
            assert mintpt_lower_bound(IntervalInstance((IntervalJob(0, 0, 3),), g)) == 3

    def test_lower_bound_empty(self):
        assert mintpt_lower_bound(IntervalInstance((), 1)) == 0


class TestEstf:
    def test_four_job_instance_power_on(self):
        sched = estf_schedule(four_job_instance())
        assert sched.total_power_on_time() == 5
        assert sched.migrations == 0

    def test_four_job_instance_assignment(self):
        # earliest starts first: jobs 0, 1, 3 fill machine 0; job 2 opens machine 1
        assignment = machine_assignment(estf_schedule(four_job_instance()))
        assert set(assignment[0].values()) == {0}
        assert set(assignment[1].values()) == {0}
        assert set(assignment[3].values()) == {0}
        assert set(assignment[2].values()) == {1}

    def test_single_job(self):
        sched = estf_schedule(IntervalInstance((IntervalJob(0, 2, 6),), 4))
        assert sched.total_power_on_time() == 4

    def test_capacity_exactly_filled(self):
        jobs = tuple(IntervalJob(i, 0, 2) for i in range(3))
        sched = estf_schedule(IntervalInstance(jobs, 3))
        assert sched.machines_used == 1
        assert sched.total_power_on_time() == 2

    def test_jobs_never_migrate(self):
        inst = gen_random_mintpt(25, 20, 2, seed=5)
        sched = estf_schedule(inst)
        assert sched.migrations == 0
        for slots in machine_assignment(sched).values():
            assert len(set(slots.values())) == 1


class TestLbm:
    def test_four_job_instance_reaches_bound(self):
        sched = lbm_schedule(four_job_instance())
        assert sched.total_power_on_time() == 4
        assert sched.machines_per_slot() == (1, 2, 1)
        assert sched.migrations == 1

    def test_four_job_instance_migration_path(self):
        # the late starter runs on machine 1 in slot 1, then moves to machine 0
        assignment = machine_assignment(lbm_schedule(four_job_instance()))
        assert assignment[2] == {1: 1, 2: 0}

    def test_non_overlapping_jobs_share_one_machine(self):
        jobs = (IntervalJob(0, 0, 2), IntervalJob(1, 2, 5), IntervalJob(2, 6, 7))
        sched = lbm_schedule(IntervalInstance(jobs, 1))
        assert sched.total_power_on_time() == 2 + 3 + 1
        assert sched.migrations == 0

    def test_empty_instance(self):
        sched = lbm_schedule(IntervalInstance((), 2))
        assert sched.total_power_on_time() == 0
        assert sched.machines_used == 0

    def test_random_instances_reach_bound(self):
        for seed in range(120):
            rng = random.Random(seed)
            inst = gen_random_mintpt(
                rng.randint(1, 18), rng.randint(1, 15), rng.randint(1, 4), seed=seed
            )
            sched = lbm_schedule(inst)
            assert sched.total_power_on_time() == mintpt_lower_bound(inst)
            assert sched.machines_per_slot() == slot_profile(inst).min_machines

    def test_horizon_is_read_once(self, monkeypatch):
        # The horizon scans every job, so reading it per job still placed after
        # the sweep makes lbm quadratic in the jobs that end at the horizon.
        reads = []
        horizon = IntervalInstance.horizon

        def counted(instance):
            reads.append(1)
            return horizon.fget(instance)

        monkeypatch.setattr(IntervalInstance, "horizon", property(counted))
        n = 2000
        inst = IntervalInstance(tuple(IntervalJob(i, i, n + 1) for i in range(n)), n)
        sched = lbm_schedule(inst)
        assert len(reads) <= 1
        assert sched.stints == tuple((i, 0, i, n + 1) for i in range(n))

    def test_first_fit_scales_with_the_jobs(self):
        # 16,000 jobs [i, n + 1) all overlap at the end: first fit by a scan
        # over the machines took 2-3 s per solver, by heaps under 0.1 s (2 vCPUs).
        n = 16000
        inst = IntervalInstance(tuple(IntervalJob(i, i, n + 1) for i in range(n)), 4)
        for solver in (estf_schedule, lbm_schedule):
            began = time.process_time()
            sched = solver(inst)
            assert time.process_time() - began < 1.0, solver.__name__
            if solver is lbm_schedule:
                assert sched.total_power_on_time() == mintpt_lower_bound(inst)
            else:
                assert sched.machines_used == n // 4

    def test_estf_never_beats_lbm(self):
        for seed in range(60):
            inst = gen_random_mintpt(12, 12, 2, seed=seed)
            assert (
                estf_schedule(inst).total_power_on_time()
                >= lbm_schedule(inst).total_power_on_time()
            )


class TestIntervalScheduleValidation:
    def test_missing_slot_rejected(self):
        inst = IntervalInstance((IntervalJob(0, 0, 3),), 1)
        with pytest.raises(InvariantError, match=r"no placement for slots \[1, 2\)"):
            IntervalSchedule(inst, ((0, 0, 0, 1), (0, 0, 2, 3)))

    def test_capacity_violation_rejected(self):
        inst = IntervalInstance((IntervalJob(0, 0, 2), IntervalJob(1, 1, 3)), 1)
        with pytest.raises(InvariantError, match=r"slots \[1, 2\): 2 jobs exceed capacity"):
            IntervalSchedule(inst, ((0, 0, 0, 2), (1, 0, 1, 3)))

    def test_placement_outside_interval_rejected(self):
        inst = IntervalInstance((IntervalJob(0, 0, 1),), 1)
        with pytest.raises(InvariantError, match="outside"):
            IntervalSchedule(inst, ((0, 0, 0, 2),))

    def test_duplicate_placement_rejected(self):
        inst = IntervalInstance((IntervalJob(0, 0, 2),), 2)
        with pytest.raises(InvariantError, match=r"twice in slots \[0, 1\)"):
            IntervalSchedule(inst, ((0, 0, 0, 1), (0, 1, 0, 2)))

    def test_unknown_job_rejected(self):
        inst = IntervalInstance((IntervalJob(0, 0, 1),), 1)
        with pytest.raises(InvariantError, match="unknown job 7"):
            IntervalSchedule(inst, ((0, 0, 0, 1), (7, 0, 0, 1)))

    @pytest.mark.parametrize(
        "stint", [([0], 0, 0, 2), (0.0, 0, 0, 2), (0, -1, 0, 2), (0, 0, 1, 1), (0, 0, 0, 2.0)]
    )
    def test_malformed_stint_is_a_violation(self, stint):
        # A job id that is not an int (even one that cannot be hashed), a
        # negative machine, an empty or non-int slot range.
        inst = IntervalInstance((IntervalJob(0, 0, 2), IntervalJob(1, 0, 2)), 2)
        with pytest.raises(InvariantError):
            IntervalSchedule(inst, ((1, 0, 0, 2), stint))

    def test_stints_kept_in_canonical_order(self):
        inst = IntervalInstance((IntervalJob(0, 0, 2), IntervalJob(1, 0, 3)), 2)
        sched = IntervalSchedule(inst, ((1, 1, 1, 3), (0, 0, 0, 2), (1, 0, 0, 1)))
        assert sched.stints == ((0, 0, 0, 2), (1, 0, 0, 1), (1, 1, 1, 3))
        assert sched.migrations == 1
        assert sched.machines_per_slot() == (1, 2, 1)
        assert sched.total_power_on_time() == 4

    def test_split_stint_on_one_machine_is_no_migration(self):
        inst = IntervalInstance((IntervalJob(0, 0, 4),), 1)
        sched = IntervalSchedule(inst, ((0, 0, 2, 4), (0, 0, 0, 2)))
        assert sched.migrations == 0
        assert sched.total_power_on_time() == 4

    def test_job_invariants(self):
        with pytest.raises(InvariantError):
            IntervalJob(0, 3, 3)
        with pytest.raises(InvariantError):
            IntervalJob(0, 2, 1)
        with pytest.raises(InvariantError):
            IntervalJob(0, 0, 2, demand=2)

    @pytest.mark.parametrize(
        "stints",
        [
            ((0, 0, 0, 2), (True, 0, 0, 1)),
            ((0, 0, 0, 2), (1, True, 0, 1)),
            ((0, 0, False, 2), (1, 0, 0, 1)),
            ((0, 0, 0, 2), (1, 0, 0, True)),
        ],
        ids=["job", "machine", "start", "end"],
    )
    def test_bool_in_a_stint_is_a_violation(self, stints):
        # Each stint set is valid with the bool read as 0 or 1.
        inst = IntervalInstance((IntervalJob(0, 0, 2), IntervalJob(1, 0, 1)), 2)
        with pytest.raises(InvariantError):
            IntervalSchedule(inst, stints)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ((True, 0, 1), "job id must be a non-negative integer, got True"),
            ((0, False, 1), "job 0: start slot must be a non-negative integer"),
            ((0, 0, True), r"job 0: end slot must exceed start slot, got \[0, True\)"),
            ((0, 0, 1, True), "job 0: only unit demand is supported"),
        ],
        ids=["id", "start", "end", "demand"],
    )
    def test_bools_are_not_job_fields(self, fields, message):
        with pytest.raises(InvariantError, match=f"^{message}$"):
            IntervalJob(*fields)

    def test_bool_is_not_a_capacity(self):
        with pytest.raises(InvariantError, match="^capacity must be a positive integer, got True$"):
            IntervalInstance((IntervalJob(0, 0, 1),), True)

    def test_instance_invariants(self):
        with pytest.raises(InvariantError):
            IntervalInstance((IntervalJob(0, 0, 1),), 0)
        with pytest.raises(InvariantError):
            IntervalInstance((IntervalJob(0, 0, 1), IntervalJob(0, 1, 2)), 1)


class TestCertificate:
    @settings(max_examples=200, deadline=None)
    @given(interval_instances())
    def test_every_solver_meets_its_certificate(self, inst):
        floor = mintpt_lower_bound(inst)
        lbm = mintpt.certificate(lbm_schedule(inst), "lbm")
        assert lbm == ([], [f"power-on time {floor} = floor {floor}"])
        estf = mintpt.certificate(estf_schedule(inst), "estf")
        assert estf == ([], ["no migrations, each job keeps one machine"])

    def test_lbm_above_the_floor(self):
        # One machine would do in both slots; two give power-on time 3.
        inst = IntervalInstance((IntervalJob(0, 0, 2), IntervalJob(1, 0, 1)), 2)
        sched = IntervalSchedule(inst, ((0, 0, 0, 2), (1, 1, 0, 1)))
        assert mintpt.certificate(sched, "lbm") == (["power-on time 3 exceeds the floor 2"], [])

    def test_estf_with_a_migration(self):
        inst = IntervalInstance((IntervalJob(0, 0, 2),), 1)
        sched = IntervalSchedule(inst, ((0, 0, 0, 1), (0, 1, 1, 2)))
        assert mintpt.certificate(sched, "estf") == (
            ["migrations present in a no-migration schedule"],
            [],
        )

    @pytest.mark.parametrize("name", ["exact", "pam", "bogus", ""])
    def test_other_names_have_no_certificate(self, name):
        assert mintpt.certificate(lbm_schedule(four_job_instance()), name) == ([], [])

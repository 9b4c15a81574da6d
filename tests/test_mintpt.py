"""Slotted-interval scheduling: span algebra, bounds, baseline, migration."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from migsched import (
    IntervalInstance,
    IntervalJob,
    IntervalSchedule,
    InvariantError,
    estf_schedule,
    gen_random_mintpt,
    interval_length,
    interval_span,
    lbm_schedule,
    mintpt_lower_bound,
    slot_profile,
)

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


class TestStintsMatchPerSlotReference:
    @settings(max_examples=300, deadline=None)
    @given(interval_instances())
    def test_estf_and_lbm_match_the_per_slot_sweeps(self, inst):
        for solver, reference in ((estf_schedule, reference_estf), (lbm_schedule, reference_lbm)):
            sched = solver(inst)
            got = (machine_assignment(sched), sched.migrations, sched.total_power_on_time())
            assert got == reference_queries(reference(inst))

    @settings(max_examples=100, deadline=None)
    @given(interval_instances())
    def test_lower_bound_and_machines_per_slot_match_slot_counts(self, inst):
        loads = [0] * inst.horizon
        for job in inst.jobs:
            for s in range(*job.interval):
                loads[s] += 1
        assert slot_profile(inst).loads == tuple(loads)
        assert mintpt_lower_bound(inst) == sum(-(-load // inst.capacity) for load in loads)
        placements = reference_lbm(inst)
        per_slot = [set() for _ in range(inst.horizon)]
        for _, machine, slot in placements:
            per_slot[slot].add(machine)
        assert lbm_schedule(inst).machines_per_slot() == tuple(len(m) for m in per_slot)


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
            interval_length([(4, 2)])

    @given(intervals_strategy)
    def test_span_at_most_length(self, intervals):
        assert interval_span(intervals) <= interval_length(intervals)

    @given(intervals_strategy)
    def test_span_equals_length_iff_no_overlap(self, intervals):
        equal = interval_span(intervals) == interval_length(intervals)
        assert equal == (not overlaps(intervals))


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

    def test_instance_invariants(self):
        with pytest.raises(InvariantError):
            IntervalInstance((IntervalJob(0, 0, 1),), 0)
        with pytest.raises(InvariantError):
            IntervalInstance((IntervalJob(0, 0, 1), IntervalJob(0, 1, 2)), 1)

"""Exhaustive oracles and the sandwich / approximation-bound cross-checks."""

import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from migsched import (
    InstanceTooLargeError,
    IntervalInstance,
    IntervalJob,
    IntervalSchedule,
    MigrationSchedule,
    estf_schedule,
    exact_minms,
    exact_mintpt,
    gen_random_minms,
    gen_random_mintpt,
    lbm_schedule,
    lpt_schedule,
    mintpt_lower_bound,
    opt_balance,
)
from migsched.oracles import SEARCH_MAX_JOBS

from helpers import four_job_instance, make_instance


def naive_minms(instance):
    """Independent oracle: plain enumeration of all machine assignments."""
    sizes = [j.process_time for j in instance.jobs]
    m = instance.machine_count
    best = None
    for assignment in itertools.product(range(m), repeat=len(sizes)):
        loads = [Fraction(0)] * m
        for size, machine in zip(sizes, assignment):
            loads[machine] += size
        peak = max(loads)
        if best is None or peak < best:
            best = peak
    return best


def naive_mintpt(instance):
    """Independent oracle: enumerate assignments, reject capacity breaches."""
    jobs = instance.jobs
    g = instance.capacity
    if not jobs:
        return 0
    best = None
    for assignment in itertools.product(range(len(jobs)), repeat=len(jobs)):
        per_slot: dict[tuple[int, int], int] = {}
        feasible = True
        for job, machine in zip(jobs, assignment):
            for s in range(*job.interval):
                key = (machine, s)
                per_slot[key] = per_slot.get(key, 0) + 1
                if per_slot[key] > g:
                    feasible = False
                    break
            if not feasible:
                break
        if not feasible:
            continue
        busy: dict[int, set[int]] = {}
        for job, machine in zip(jobs, assignment):
            busy.setdefault(machine, set()).update(range(job.start_slot, job.end_slot))
        total = sum(len(slots) for slots in busy.values())
        if best is None or total < best:
            best = total
    return best


def partition_mintpt(instance):
    """Independent oracle: every partition of the jobs into machines, Bell(n)
    of them, each part checked slot by slot against the capacity."""
    jobs, g = instance.jobs, instance.capacity
    best = None

    def assign(k, parts):
        nonlocal best
        if k == len(jobs):
            total = sum(len(set().union(*(range(*j.interval) for j in part))) for part in parts)
            best = total if best is None else min(best, total)
            return
        job = jobs[k]
        for part in parts:
            if all(sum(o.start_slot <= s < o.end_slot for o in part) < g for s in range(*job.interval)):
                part.append(job)
                assign(k + 1, parts)
                part.pop()
        parts.append([job])
        assign(k + 1, parts)
        parts.pop()

    assign(0, [])
    return best


class TestExactMinMs:
    def test_perfect_split(self):
        assert exact_minms(make_instance([2, 2, 3, 3], 2)).makespan() == 5

    def test_adversarial_sizes_m2(self):
        inst = make_instance([3, 3, 2, 2, 2], 2)
        assert naive_minms(inst) == 6  # 2^5 assignments, frozen
        assert exact_minms(inst).makespan() == 6

    def test_single_job(self):
        assert exact_minms(make_instance([9], 3)).makespan() == 9

    def test_rational_process_times(self):
        inst = make_instance([Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)], 2)
        assert exact_minms(inst).makespan() == naive_minms(inst)

    def test_matches_naive_enumeration(self):
        for seed in range(40):
            rng = random.Random(seed)
            inst = gen_random_minms(rng.randint(1, 7), rng.randint(1, 3), (1, 12), seed=seed)
            assert exact_minms(inst).makespan() == naive_minms(inst)
        # More machines than jobs: only min(m, n) machines are searched.
        for seed in range(40):
            rng = random.Random(500 + seed)
            n = rng.randint(1, 4)
            inst = gen_random_minms(n, rng.randint(1, n + 3), (1, 12), seed=seed)
            assert exact_minms(inst).makespan() == naive_minms(inst)

    def test_too_many_jobs_refused(self):
        inst = gen_random_minms(11, 2, (1, 5), seed=0)
        with pytest.raises(InstanceTooLargeError):
            exact_minms(inst)

    def test_machine_count_is_not_gated(self):
        # More machines than jobs: every job gets a machine of its own.
        assert exact_minms(make_instance([5, Fraction(7, 2), 1], 10**12)).makespan() == 5

    def test_job_gate_is_an_int(self):
        many_jobs = gen_random_minms(11, 2, (1, 5), seed=0)
        assert exact_minms(many_jobs, 11).makespan() == naive_minms(many_jobs)
        with pytest.raises(InstanceTooLargeError, match="11 jobs exceed the oracle limit of 10"):
            exact_minms(many_jobs, max_jobs=10)
        with pytest.raises(InstanceTooLargeError):
            exact_minms(make_instance([1], 2), max_jobs=0)


class TestExactMinTpt:
    def test_four_job_instance_without_migration(self):
        assert exact_mintpt(four_job_instance()).total_power_on_time() == 5

    def test_single_job(self):
        inst = IntervalInstance((IntervalJob(0, 0, 4),), 2)
        assert exact_mintpt(inst).total_power_on_time() == 4

    def test_two_disjoint_jobs_share_a_machine(self):
        inst = IntervalInstance((IntervalJob(0, 0, 2), IntervalJob(1, 2, 4)), 1)
        assert naive_mintpt(inst) == 4  # frozen from enumeration
        assert exact_mintpt(inst).total_power_on_time() == 4

    def test_matches_naive_enumeration(self):
        for seed in range(30):
            rng = random.Random(1000 + seed)
            inst = gen_random_mintpt(
                rng.randint(1, 5), rng.randint(1, 8), rng.randint(1, 3), seed=seed
            )
            assert exact_mintpt(inst).total_power_on_time() == naive_mintpt(inst)
            # Every slot times 7: pieces wider than one slot, 7 times the cost.
            wide = IntervalInstance(
                tuple(IntervalJob(j.id, 7 * j.start_slot, 7 * j.end_slot) for j in inst.jobs),
                inst.capacity,
            )
            assert exact_mintpt(wide).total_power_on_time() == 7 * naive_mintpt(inst)

    def test_too_many_jobs_refused(self):
        inst = gen_random_mintpt(9, 10, 2, seed=0)
        with pytest.raises(InstanceTooLargeError):
            exact_mintpt(inst)

    def test_empty_instance(self):
        assert exact_mintpt(IntervalInstance((), 1)).total_power_on_time() == 0

    def test_floor_stop_ends_a_search_of_ties(self):
        # Fourteen unit jobs in a row on capacity 1: first fit reaches the
        # floor 14 at the first leaf. Without the floor stop every other
        # leaf ties with it and is walked, for about a minute.
        chain = IntervalInstance(tuple(IntervalJob(i, i, i + 1) for i in range(14)), 1)
        start = time.perf_counter()
        assert exact_mintpt(chain, max_jobs=14).total_power_on_time() == 14
        assert time.perf_counter() - start < 1.0

    def test_job_gate_is_an_int(self):
        # Nine unit jobs in a row on capacity 1: one machine, on for 9 slots.
        chain = IntervalInstance(tuple(IntervalJob(i, i, i + 1) for i in range(9)), 1)
        assert exact_mintpt(chain, max_jobs=9).total_power_on_time() == 9
        with pytest.raises(InstanceTooLargeError, match="9 jobs exceed the oracle limit of 8"):
            exact_mintpt(chain)
        with pytest.raises(InstanceTooLargeError):
            exact_mintpt(four_job_instance(), max_jobs=3)


class TestSearchDepthGate:
    """Both searches recurse once per job, so a raised gate stops at SEARCH_MAX_JOBS."""

    def test_minms(self):
        # One machine: the search walks one branch as deep as the job count.
        limit = SEARCH_MAX_JOBS
        assert exact_minms(make_instance([1] * limit, 1), max_jobs=10**6).makespan() == limit
        with pytest.raises(
            InstanceTooLargeError, match=f"^{limit + 1} jobs exceed the oracle limit of {limit}$"
        ):
            exact_minms(make_instance([1] * (limit + 1), 1), max_jobs=10**6)

    def test_mintpt(self):
        # One slot at capacity 1: each job opens a machine, so the one branch
        # is as deep as the job count.
        def stack(n):
            return IntervalInstance(tuple(IntervalJob(i, 0, 1) for i in range(n)), 1)

        limit = SEARCH_MAX_JOBS
        assert exact_mintpt(stack(limit), max_jobs=10**6).total_power_on_time() == limit
        with pytest.raises(
            InstanceTooLargeError, match=f"^{limit + 1} jobs exceed the oracle limit of {limit}$"
        ):
            exact_mintpt(stack(limit + 1), max_jobs=10**6)


class TestSandwiches:
    def test_minms_sandwich_and_greedy_bound(self):
        for seed in range(60):
            rng = random.Random(seed)
            m = rng.randint(1, 4)
            inst = gen_random_minms(rng.randint(1, 9), m, (1, 20), seed=seed)
            ideal = opt_balance(inst)
            exact = exact_minms(inst).makespan()
            greedy = lpt_schedule(inst).makespan()
            assert ideal <= exact <= greedy
            assert greedy <= (Fraction(4, 3) - Fraction(1, 3 * m)) * exact

    @settings(max_examples=200, deadline=None)
    @example([Fraction(2), Fraction(2), Fraction(2), Fraction(3), Fraction(3)], 2)  # lpt's worst case
    @given(
        st.lists(
            st.builds(Fraction, st.integers(1, 30), st.integers(1, 6)), min_size=1, max_size=9
        ),
        st.integers(1, 4),
    )
    def test_minms_sandwich_and_greedy_bound_property(self, sizes, m):
        # W/m <= exact <= lpt <= (4m-1)/(3m) x exact (Graham 1969), and the
        # two whole-job oracles agree where plain enumeration is cheap.
        inst = make_instance(sizes, m)
        exact = exact_minms(inst).makespan()
        greedy = lpt_schedule(inst).makespan()
        assert opt_balance(inst) <= exact <= greedy <= Fraction(4 * m - 1, 3 * m) * exact
        if len(sizes) <= 7 and m <= 3:
            assert exact == naive_minms(inst)

    def test_mintpt_sandwich(self):
        for seed in range(60):
            rng = random.Random(seed)
            inst = gen_random_mintpt(
                rng.randint(1, 7), rng.randint(1, 10), rng.randint(1, 3), seed=seed
            )
            bound = mintpt_lower_bound(inst)
            exact = exact_mintpt(inst).total_power_on_time()
            baseline = estf_schedule(inst).total_power_on_time()
            assert bound <= exact <= baseline

    @settings(max_examples=200, deadline=None)
    @example([(5, 2), (7, 3), (1, 5), (5, 2), (8, 1)], 2)  # first fit ends one above the floor
    @given(
        st.lists(st.tuples(st.integers(0, 9), st.integers(1, 5)), max_size=8),
        st.integers(1, 3),
    )
    def test_mintpt_sandwich_property(self, intervals, capacity):
        # floor <= exact <= estf, and lbm sits on the floor. The oracle's
        # floor stop must not end above the optimum, which the partition
        # enumeration checks.
        inst = IntervalInstance(
            tuple(IntervalJob(i, s, s + length) for i, (s, length) in enumerate(intervals)),
            capacity,
        )
        floor = mintpt_lower_bound(inst)
        exact = exact_mintpt(inst).total_power_on_time()
        assert floor <= exact <= estf_schedule(inst).total_power_on_time()
        # Checked on the public rebuild of lbm's stints.
        assert IntervalSchedule(inst, lbm_schedule(inst).stints).total_power_on_time() == floor
        assert exact == partition_mintpt(inst)

    def test_migration_strictly_beats_exact_non_migratory(self):
        inst = four_job_instance()
        migratory = IntervalSchedule(inst, lbm_schedule(inst).stints).total_power_on_time()
        assert migratory == mintpt_lower_bound(inst) == 4
        assert exact_mintpt(inst).total_power_on_time() == 5
        assert migratory < exact_mintpt(inst).total_power_on_time()

    def test_oracles_are_deterministic(self):
        inst = gen_random_minms(8, 3, (1, 15), seed=42)
        assert exact_minms(inst) == exact_minms(inst)
        iv = gen_random_mintpt(7, 9, 2, seed=42)
        assert exact_mintpt(iv) == exact_mintpt(iv)


class TestWitness:
    """Each oracle returns a whole-job schedule that its public rebuild
    reproduces, and its measured objective is the optimum that an independent
    enumeration finds."""

    @settings(max_examples=200, deadline=None)
    @example([Fraction(3), Fraction(3), Fraction(2), Fraction(2), Fraction(2)], 2)  # greedy ends at 7
    @given(
        st.lists(
            st.builds(Fraction, st.integers(1, 30), st.integers(1, 6)), min_size=1, max_size=8
        ),
        st.integers(1, 4),
    )
    def test_minms(self, sizes, m):
        inst = make_instance(sizes, m)
        witness = exact_minms(inst)
        assert MigrationSchedule(inst, witness.segments) == witness
        # One segment per job, holding the job's process time.
        times = {job.id: job.process_time for job in inst.jobs}
        assert sorted(segment.job_id for segment in witness.segments) == sorted(times)
        assert all(segment.amount == times[segment.job_id] for segment in witness.segments)
        assert witness.migrations == 0
        if len(sizes) <= 7 and m <= 3:
            assert witness.makespan() == naive_minms(inst)

    @settings(max_examples=200, deadline=None)
    @example([(5, 2), (7, 3), (1, 5), (5, 2), (8, 1)], 2)  # three jobs share slot 5
    @given(
        st.lists(st.tuples(st.integers(0, 9), st.integers(1, 5)), max_size=8),
        st.integers(1, 3),
    )
    def test_mintpt(self, intervals, capacity):
        inst = IntervalInstance(
            tuple(IntervalJob(i, s, s + length) for i, (s, length) in enumerate(intervals)),
            capacity,
        )
        witness = exact_mintpt(inst)
        assert IntervalSchedule(inst, witness.stints) == witness
        # One stint per job, covering the job's whole interval.
        assert sorted((job, start, end) for job, _, start, end in witness.stints) == sorted(
            (job.id, *job.interval) for job in inst.jobs
        )
        assert witness.migrations == 0
        assert witness.total_power_on_time() == partition_mintpt(inst)

"""Exhaustive oracles and the sandwich / approximation-bound cross-checks."""

import itertools
import random
from fractions import Fraction

import pytest

from migsched import (
    InstanceTooLargeError,
    IntervalInstance,
    IntervalJob,
    Job,
    MinMsInstance,
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


def make_instance(sizes, m):
    return MinMsInstance(tuple(Job(i, p) for i, p in enumerate(sizes)), m)


def four_job_instance():
    return IntervalInstance(
        (IntervalJob(0, 0, 3), IntervalJob(1, 0, 2), IntervalJob(2, 1, 3), IntervalJob(3, 0, 3)),
        3,
    )


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


class TestExactMinMs:
    def test_perfect_split(self):
        assert exact_minms(make_instance([2, 2, 3, 3], 2)) == 5

    def test_adversarial_sizes_m2(self):
        inst = make_instance([3, 3, 2, 2, 2], 2)
        assert naive_minms(inst) == 6  # 2^5 assignments, frozen
        assert exact_minms(inst) == 6

    def test_single_job(self):
        assert exact_minms(make_instance([9], 3)) == 9

    def test_rational_process_times(self):
        inst = make_instance([Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)], 2)
        assert exact_minms(inst) == naive_minms(inst)

    def test_matches_naive_enumeration(self):
        for seed in range(40):
            rng = random.Random(seed)
            inst = gen_random_minms(rng.randint(1, 7), rng.randint(1, 3), (1, 12), seed=seed)
            assert exact_minms(inst) == naive_minms(inst)
        # More machines than jobs: only min(m, n) machines are searched.
        for seed in range(40):
            rng = random.Random(500 + seed)
            n = rng.randint(1, 4)
            inst = gen_random_minms(n, rng.randint(1, n + 3), (1, 12), seed=seed)
            assert exact_minms(inst) == naive_minms(inst)

    def test_too_many_jobs_refused(self):
        inst = gen_random_minms(11, 2, (1, 5), seed=0)
        with pytest.raises(InstanceTooLargeError):
            exact_minms(inst)

    def test_machine_count_is_not_gated(self):
        # More machines than jobs: every job gets a machine of its own.
        assert exact_minms(make_instance([5, Fraction(7, 2), 1], 10**12)) == 5

    def test_job_gate_is_an_int(self):
        many_jobs = gen_random_minms(11, 2, (1, 5), seed=0)
        assert exact_minms(many_jobs, 11) == naive_minms(many_jobs)
        with pytest.raises(InstanceTooLargeError, match="11 jobs exceed the oracle limit of 10"):
            exact_minms(many_jobs, max_jobs=10)
        with pytest.raises(InstanceTooLargeError):
            exact_minms(make_instance([1], 2), max_jobs=0)


class TestExactMinTpt:
    def test_four_job_instance_without_migration(self):
        assert exact_mintpt(four_job_instance()) == 5

    def test_single_job(self):
        assert exact_mintpt(IntervalInstance((IntervalJob(0, 0, 4),), 2)) == 4

    def test_two_disjoint_jobs_share_a_machine(self):
        inst = IntervalInstance((IntervalJob(0, 0, 2), IntervalJob(1, 2, 4)), 1)
        assert naive_mintpt(inst) == 4  # frozen from enumeration
        assert exact_mintpt(inst) == 4

    def test_matches_naive_enumeration(self):
        for seed in range(30):
            rng = random.Random(1000 + seed)
            inst = gen_random_mintpt(
                rng.randint(1, 5), rng.randint(1, 8), rng.randint(1, 3), seed=seed
            )
            assert exact_mintpt(inst) == naive_mintpt(inst)
            # Every slot times 7: pieces wider than one slot, 7 times the cost.
            wide = IntervalInstance(
                tuple(IntervalJob(j.id, 7 * j.start_slot, 7 * j.end_slot) for j in inst.jobs),
                inst.capacity,
            )
            assert exact_mintpt(wide) == 7 * naive_mintpt(inst)

    def test_too_many_jobs_refused(self):
        inst = gen_random_mintpt(9, 10, 2, seed=0)
        with pytest.raises(InstanceTooLargeError):
            exact_mintpt(inst)

    def test_empty_instance(self):
        assert exact_mintpt(IntervalInstance((), 1)) == 0

    def test_job_gate_is_an_int(self):
        # Nine unit jobs in a row on capacity 1: one machine, on for 9 slots.
        chain = IntervalInstance(tuple(IntervalJob(i, i, i + 1) for i in range(9)), 1)
        assert exact_mintpt(chain, max_jobs=9) == 9
        with pytest.raises(InstanceTooLargeError, match="9 jobs exceed the oracle limit of 8"):
            exact_mintpt(chain)
        with pytest.raises(InstanceTooLargeError):
            exact_mintpt(four_job_instance(), max_jobs=3)


class TestSandwiches:
    def test_minms_sandwich_and_greedy_bound(self):
        for seed in range(60):
            rng = random.Random(seed)
            m = rng.randint(1, 4)
            inst = gen_random_minms(rng.randint(1, 9), m, (1, 20), seed=seed)
            ideal = opt_balance(inst)
            exact = exact_minms(inst)
            greedy = lpt_schedule(inst).makespan()
            assert ideal <= exact <= greedy
            assert greedy <= (Fraction(4, 3) - Fraction(1, 3 * m)) * exact

    def test_mintpt_sandwich(self):
        for seed in range(60):
            rng = random.Random(seed)
            inst = gen_random_mintpt(
                rng.randint(1, 7), rng.randint(1, 10), rng.randint(1, 3), seed=seed
            )
            bound = mintpt_lower_bound(inst)
            exact = exact_mintpt(inst)
            baseline = estf_schedule(inst).total_power_on_time()
            assert bound <= exact <= baseline

    def test_migration_strictly_beats_exact_non_migratory(self):
        inst = four_job_instance()
        migratory = lbm_schedule(inst).total_power_on_time()
        assert migratory == mintpt_lower_bound(inst) == 4
        assert exact_mintpt(inst) == 5
        assert migratory < exact_mintpt(inst)

    def test_oracles_are_deterministic(self):
        inst = gen_random_minms(8, 3, (1, 15), seed=42)
        assert exact_minms(inst) == exact_minms(inst)
        iv = gen_random_mintpt(7, 9, 2, seed=42)
        assert exact_mintpt(iv) == exact_mintpt(iv)

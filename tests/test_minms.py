"""Makespan solvers: greedy, exact balancing via splits, wrap-around."""

import heapq
import itertools
import json
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from migsched import (
    Job,
    JobSegment,
    MigrationSchedule,
    MinMsInstance,
    as_time,
    gen_graham_worst_case,
    lpt_schedule,
    opt_balance,
    pam_schedule,
    parse_instance,
    serialize_instance,
    wraparound_schedule,
)
from migsched import cli, core, minms, oracles
from migsched.core import segment_violations

from helpers import VIEW_STATE, make_instance

job_sizes = st.lists(st.integers(min_value=1, max_value=60), min_size=1, max_size=24)
rational_sizes = st.lists(
    st.fractions(min_value=Fraction(1, 9), max_value=40), min_size=1, max_size=16
)


# The solvers as they were on Fractions, kept to check the integer-tick ones.


def reference_lpt(instance):
    """Fraction lpt: (job_id, machine, amount) triples in allocation order."""
    order = sorted(instance.jobs, key=lambda j: (-j.process_time, j.id))
    heap = [(Fraction(0), i) for i in range(instance.machine_count)]
    placed = []
    for job in order:
        load, i = heapq.heappop(heap)
        placed.append(JobSegment(job.id, i, job.process_time))
        heapq.heappush(heap, (load + job.process_time, i))
    return placed


def reference_pam(instance):
    """Fraction pam: (lpt_loads, excess, deficit, segments)."""
    m = instance.machine_count
    opt = sum(j.process_time for j in instance.jobs) / Fraction(m)
    stacks = [[] for _ in range(m)]
    for job_id, machine, amount in reference_lpt(instance):
        stacks[machine].append([job_id, amount])
    lpt_loads = tuple(sum((a for _, a in stack), Fraction(0)) for stack in stacks)
    received = [[] for _ in range(m)]
    over = sorted(((i, x) for i, x in enumerate(lpt_loads) if x > opt), key=lambda t: (-t[1], t[0]))
    under = sorted(((i, x) for i, x in enumerate(lpt_loads) if x < opt), key=lambda t: (t[1], t[0]))
    excess = [(i, x - opt) for i, x in over]
    deficit = [(i, opt - x) for i, x in under]
    ex_rem = [a for _, a in excess]
    de_rem = [a for _, a in deficit]
    ei = di = 0
    while ei < len(excess) and di < len(deficit):
        src, dst = excess[ei][0], deficit[di][0]
        move = min(ex_rem[ei], de_rem[di])
        remaining = move
        while remaining > 0:
            job_id, amount = stacks[src][-1]
            take = min(amount, remaining)
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
    segments = [
        JobSegment(job_id, i, amount)
        for i in range(m)
        for job_id, amount in stacks[i] + received[i]
    ]
    return lpt_loads, tuple(excess), tuple(deficit), tuple(segments)


def reference_wraparound(instance):
    """Fraction wraparound: (segments, bound)."""
    bound = max(
        max(j.process_time for j in instance.jobs),
        sum(j.process_time for j in instance.jobs) / Fraction(instance.machine_count),
    )
    segments = []
    machine, clock = 0, Fraction(0)
    for job in instance.jobs:
        remaining = job.process_time
        while remaining > 0:
            take = min(remaining, bound - clock)
            segments.append(JobSegment(job.id, machine, take))
            clock += take
            remaining -= take
            if clock == bound:
                machine, clock = machine + 1, Fraction(0)
    return tuple(segments), bound


def reference_timeline(segments):
    """Fraction timeline: (job_id, machine_id, start, end) per segment."""
    clocks = {}
    out = []
    for job_id, machine, amount in segments:
        start = clocks.get(machine, Fraction(0))
        out.append((job_id, machine, start, start + amount))
        clocks[machine] = start + amount
    return out


def reference_wrap_certificate(instance, segments):
    """The wraparound certificate of `segments`, read off their Fraction
    timeline: its makespan against the Fraction wrap bound, then the jobs
    with two windows that overlap, every pair of windows compared."""
    timeline = reference_timeline(segments)
    makespan, bound = max(end for *_, end in timeline), reference_wraparound(instance)[1]
    windows = {}
    for job_id, _, start, end in timeline:
        windows.setdefault(job_id, []).append((start, end))
    overlapping = sorted(
        job_id
        for job_id, spans in windows.items()
        if any(a < d and c < b for (a, b), (c, d) in itertools.combinations(spans, 2))
    )
    issues, notes = [], []
    if makespan == bound:
        notes.append(f"makespan = {bound} (wrap bound)")
    else:
        issues.append(f"makespan {makespan} differs from wrap bound {bound}")
    if overlapping:
        issues.append(f"jobs {overlapping} overlap themselves in time")
    else:
        notes.append("no job overlaps itself in time")
    return issues, notes


# Coprime denominators, so the tick unit's lcm has several prime factors.
coprime_sizes = st.lists(
    st.builds(Fraction, st.integers(1, 60), st.sampled_from([1, 2, 3, 5, 7, 11, 13, 30])),
    min_size=1,
    max_size=16,
)


class TestOptBalance:
    def test_adversarial_family_m2(self):
        assert opt_balance(gen_graham_worst_case(2)) == 6

    def test_adversarial_family_m10(self):
        assert opt_balance(gen_graham_worst_case(10)) == 30

    def test_single_job_three_machines(self):
        assert opt_balance(make_instance([1], 3)) == Fraction(1, 3)


class TestLpt:
    def test_adversarial_family_m2(self):
        sched = lpt_schedule(gen_graham_worst_case(2))
        assert sched.makespan() == 7
        assert sorted(sched.machine_loads()) == [5, 7]

    def test_adversarial_family_m10(self):
        assert lpt_schedule(gen_graham_worst_case(10)).makespan() == 39

    def test_adversarial_family_other_machines_nearly_full(self):
        loads = sorted(lpt_schedule(gen_graham_worst_case(10)).machine_loads())
        assert loads == [29] * 9 + [39]

    def test_one_job_per_machine(self):
        assert lpt_schedule(make_instance([5, 5], 2)).makespan() == 5

    def test_whole_jobs_no_migrations(self):
        sched = lpt_schedule(gen_graham_worst_case(4))
        assert sched.migrations == 0
        assert len(sched.segments) == len(sched.instance.jobs)

    def test_machine_loads_refuse_more_machines_than_the_gate(self):
        # Two jobs on 10^12 machines: lpt and its makespan touch only the
        # loaded machines, but a load per machine would end in a MemoryError,
        # so machine_loads() refuses before it allocates anything per machine.
        tracemalloc.start()
        try:
            schedule = lpt_schedule(make_instance([5, Fraction(7, 2)], 10**12))
            with pytest.raises(
                core.InstanceTooLargeError,
                match=f"^1000000000000 machines exceed the machine_loads limit of {core.MAX_MACHINES}$",
            ):
                schedule.machine_loads()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert schedule.makespan() == 5
        assert peak < 2**20
        at_gate = lpt_schedule(make_instance([5, 1], core.MAX_MACHINES))
        assert at_gate.machine_loads()[:3] == (5, 1, 0)

    def test_deterministic_tie_breaks(self):
        # equal sizes: job order by id, machine ties by lowest index
        sched = lpt_schedule(make_instance([2, 2, 2], 3))
        assert [(s.job_id, s.machine_id) for s in sched.segments] == [(0, 0), (1, 1), (2, 2)]

    @given(job_sizes, st.integers(min_value=1, max_value=8))
    def test_dominates_balanced_optimum(self, sizes, m):
        inst = make_instance(sizes, m)
        assert lpt_schedule(inst).makespan() >= opt_balance(inst)


class TestPam:
    def test_adversarial_family_reaches_optimum(self):
        trace = pam_schedule(gen_graham_worst_case(10))
        assert set(trace.schedule.machine_loads()) == {30}

    def test_adversarial_family_sheds_from_peak(self):
        trace = pam_schedule(gen_graham_worst_case(10))
        assert trace.excess == ((trace.excess[0][0], 9),)
        assert trace.lpt_loads[trace.excess[0][0]] == 39

    def test_adversarial_family_migration_budget(self):
        for m in range(2, 21):
            trace = pam_schedule(gen_graham_worst_case(m))
            assert trace.schedule.migrations <= m - 1

    def test_refuses_more_machines_than_its_gate(self):
        # One error class for every size gate; oracles still exports it.
        assert oracles.InstanceTooLargeError is core.InstanceTooLargeError
        with pytest.raises(core.InstanceTooLargeError, match="pam limit"):
            pam_schedule(make_instance([5, 1], core.MAX_MACHINES + 1))

    def test_already_balanced_zero_migrations(self):
        trace = pam_schedule(make_instance([6, 6], 2))
        assert trace.excess == ()
        assert trace.deficit == ()
        assert trace.schedule.migrations == 0

    def test_hand_traced_transfer(self):
        # greedy puts 4 alone and both 1s together: loads [4, 2], optimum 3,
        # one unit moves as a single split segment
        trace = pam_schedule(make_instance([4, 1, 1], 2))
        assert trace.lpt_loads == (4, 2)
        assert trace.schedule.machine_loads() == (3, 3)
        assert trace.schedule.migrations == 1

    def test_more_machines_than_jobs(self):
        trace = pam_schedule(make_instance([1], 3))
        assert trace.schedule.machine_loads() == (
            Fraction(1, 3),
            Fraction(1, 3),
            Fraction(1, 3),
        )

    @given(job_sizes, st.integers(min_value=1, max_value=8))
    def test_every_load_equals_optimum(self, sizes, m):
        inst = make_instance(sizes, m)
        trace = pam_schedule(inst)
        opt = opt_balance(inst)
        assert all(load == opt for load in trace.schedule.machine_loads())
        assert trace.schedule.migrations <= m - 1

    @given(rational_sizes, st.integers(min_value=1, max_value=6))
    def test_every_load_equals_optimum_rational_sizes(self, sizes, m):
        inst = make_instance(sizes, m)
        trace = pam_schedule(inst)
        opt = opt_balance(inst)
        assert all(load == opt for load in trace.schedule.machine_loads())
        assert trace.schedule.migrations <= m - 1

    @given(job_sizes, st.integers(min_value=1, max_value=8))
    def test_excess_matches_deficit(self, sizes, m):
        trace = pam_schedule(make_instance(sizes, m))
        assert sum(a for _, a in trace.excess) == sum(a for _, a in trace.deficit)

    def test_excess_sorted_by_load_non_increasing(self):
        trace = pam_schedule(make_instance([9, 7, 5, 1, 1, 1], 3))
        excess_loads = [trace.lpt_loads[i] for i, _ in trace.excess]
        assert excess_loads == sorted(excess_loads, reverse=True)
        deficit_loads = [trace.lpt_loads[i] for i, _ in trace.deficit]
        assert deficit_loads == sorted(deficit_loads)

    @given(
        st.lists(
            st.builds(Fraction, st.integers(min_value=1, max_value=60), st.integers(1, 6)),
            min_size=1,
            max_size=30,
        ),
        st.integers(min_value=1, max_value=12),
    )
    def test_splits_only_the_last_job_of_each_overloaded_machine(self, sizes, m):
        inst = make_instance(sizes, m)
        loads, last = {}, {}
        for job_id, machine, amount in lpt_schedule(inst).segments:
            loads[machine] = loads.get(machine, 0) + amount
            last[machine] = job_id
        cut = {last[i]: i for i, load in loads.items() if load > opt_balance(inst)}
        trace = pam_schedule(inst)
        pieces = {}
        for job_id, machine, amount in trace.schedule.segments:
            pieces.setdefault(job_id, []).append((machine, amount))
        assert {job_id for job_id, got in pieces.items() if len(got) > 1} == set(cut)
        for job_id, machine in cut.items():
            assert any(i == machine and amount > 0 for i, amount in pieces[job_id])
        assert len(trace.excess) == len(cut)


class TestWraparound:
    def test_longest_job_dominates(self):
        sched = wraparound_schedule(make_instance([5, 1], 2))
        assert sched.makespan() == 5

    def test_adversarial_family_m10(self):
        inst = gen_graham_worst_case(10)
        assert max(j.process_time for j in inst.jobs) == 19
        sched = wraparound_schedule(inst)
        assert sched.makespan() == 30  # max(19, 300/10)

    def test_equality_case(self):
        assert wraparound_schedule(make_instance([6, 6], 2)).makespan() == 6

    @staticmethod
    def assert_no_self_overlap(sched):
        windows = {}
        for job_id, _, start, end in reference_timeline(sched.segments):
            windows.setdefault(job_id, []).append((start, end))
        for spans in windows.values():
            spans.sort()
            for (_, end), (start, _) in zip(spans, spans[1:]):
                assert end <= start
        assert "no job overlaps itself in time" in minms.certificate(sched, "wraparound")[1]

    def test_no_self_overlap_on_family(self):
        sched = wraparound_schedule(gen_graham_worst_case(10))
        self.assert_no_self_overlap(sched)

    @given(job_sizes, st.integers(min_value=1, max_value=8))
    def test_makespan_formula_and_no_overlap(self, sizes, m):
        inst = make_instance(sizes, m)
        sched = wraparound_schedule(inst)
        assert sched.makespan() == max(max(sizes), Fraction(sum(sizes), m))
        assert sched.migrations <= m - 1  # McNaughton: at most one wrap per machine boundary
        self.assert_no_self_overlap(sched)
        # Every wraparound piece is a whole number of ticks, so the walk's clocks are ints.
        assert all(type(t) is int for t in sched._ticks)


class TestLptRatio:
    """The report's ratio column for lpt: its makespan over the balanced optimum."""

    def test_adversarial_family_m2(self):
        inst = gen_graham_worst_case(2)
        assert lpt_schedule(inst).makespan() / opt_balance(inst) == Fraction(7, 6)

    def test_adversarial_family_m10(self):
        inst = gen_graham_worst_case(10)
        assert lpt_schedule(inst).makespan() / opt_balance(inst) == Fraction(13, 10)

    def test_balanced_instance(self):
        inst = make_instance([6, 6], 2)
        assert lpt_schedule(inst).makespan() / opt_balance(inst) == 1


def all_fractions(values):
    return all(type(v) is Fraction for v in values)


class TestTicksMatchFractionReference:
    @settings(max_examples=300, deadline=None)
    @given(coprime_sizes | rational_sizes, st.integers(min_value=1, max_value=8))
    def test_solvers_match_the_fraction_solvers(self, sizes, m):
        inst = make_instance(sizes, m)
        assert opt_balance(inst) == sum(sizes, Fraction(0)) / m

        lpt = lpt_schedule(inst)
        assert lpt.segments == tuple(reference_lpt(inst))
        assert lpt.makespan() == max(reference_pam(inst)[0])

        trace = pam_schedule(inst)
        got = (trace.lpt_loads, trace.excess, trace.deficit, trace.schedule.segments)
        assert got == reference_pam(inst)
        assert all_fractions(trace.lpt_loads)
        assert all_fractions(a for _, a in trace.excess + trace.deficit)

        sched = wraparound_schedule(inst)
        ref_segments, ref_bound = reference_wraparound(inst)
        assert (sched.segments, sched.makespan()) == (ref_segments, ref_bound)
        wrap = minms.certificate(sched, "wraparound")
        assert wrap == reference_wrap_certificate(inst, ref_segments)

        for schedule in (lpt, trace.schedule, sched):
            assert all_fractions(s.amount for s in schedule.segments)
            assert all_fractions(schedule.machine_loads() + (schedule.makespan(),))

    @settings(max_examples=150, deadline=None)
    @given(coprime_sizes | rational_sizes, st.integers(min_value=1, max_value=8), st.data())
    def test_read_instances_with_ids_out_of_order_match_the_references(self, sizes, m, data):
        # A read instance holds its job order in its tick view alone; the
        # solvers take it from there and build no jobs.
        ids = data.draw(st.permutations(range(len(sizes))))
        text = "".join(f"job {i} {p}\n" for i, p in zip(ids, sizes))
        inst = parse_instance(f"minms 1\nmachines {m}\n" + text)
        schedules = lpt_schedule(inst), pam_schedule(inst), wraparound_schedule(inst)
        assert "jobs" not in vars(inst)
        lpt, trace, wrap = schedules
        assert lpt.segments == tuple(reference_lpt(inst))
        assert (trace.lpt_loads, trace.excess, trace.deficit, trace.schedule.segments) == (
            reference_pam(inst)
        )
        assert (wrap.segments, wrap.makespan()) == reference_wraparound(inst)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=16),
        st.permutations(range(16)),
        st.integers(min_value=1, max_value=8),
    )
    # Ids against instance order: 2 and 0 tie, and id 0 goes first.
    @example([3, 3, 1], [2, 0, 1], 2)
    def test_equal_sizes_go_in_id_order_not_instance_order(self, sizes, ids, m):
        # make_instance numbers ids in instance order, so the test above cannot
        # tell the two orders apart. Here the ids are shuffled and sizes repeat.
        inst = MinMsInstance(tuple(map(Job, ids, sizes)), m)
        assert lpt_schedule(inst).segments == tuple(reference_lpt(inst))
        trace = pam_schedule(inst)
        got = (trace.lpt_loads, trace.excess, trace.deficit, trace.schedule.segments)
        assert got == reference_pam(inst)

    @settings(max_examples=100, deadline=None)
    @given(coprime_sizes, st.integers(min_value=1, max_value=8), st.randoms(use_true_random=False))
    # One machine whose whole load 1 is reached only through off-grid thirds.
    @example([Fraction(1)], 1, random.Random(0))
    def test_timeline_of_amounts_off_the_tick_grid(self, sizes, m, rng):
        # A caller's job.process_time / 3 need not be a whole number of ticks.
        inst = make_instance(sizes, m)
        segments = []
        for job in inst.jobs:
            for _ in range(3):
                segments.append(JobSegment(job.id, rng.randrange(m), job.process_time / 3))
        sched = MigrationSchedule(inst, tuple(segments))
        assert minms.certificate(sched, "wraparound") == reference_wrap_certificate(inst, segments)
        assert all_fractions(sched.machine_loads() + (sched.makespan(),))


def reference_tick_loads(schedule):
    """Per-machine loads in ticks, each amount converted by `TickView.of`."""
    of = schedule.instance.ticks.of
    loads = {}
    for _, machine, amount in schedule.segments:
        loads[machine] = loads.get(machine, 0) + of(amount)
    return loads


class TestKeptTicks:
    @settings(max_examples=200, deadline=None)
    @given(coprime_sizes | rational_sizes, st.integers(min_value=1, max_value=8))
    def test_kept_ticks_give_the_loads_and_timelines_of_converting_again(self, sizes, m):
        inst = make_instance(sizes, m)
        view = inst.ticks
        own = {job.id: job.process_time for job in inst.jobs}
        for sched in (lpt_schedule(inst), pam_schedule(inst).schedule, wraparound_schedule(inst)):
            # The same amounts as fresh objects, which no job's time is.
            given = tuple(JobSegment(j, i, as_time(str(a))) for j, i, a in sched.segments)
            assert not any(a is own[j] for j, _, a in given)
            fresh = MigrationSchedule(inst, given)
            for schedule in (sched, fresh):
                assert schedule._ticks == tuple(view.of(s.amount) for s in schedule.segments)
                loads = reference_tick_loads(schedule)
                assert schedule.makespan() == view.time(max(loads.values()))
                assert schedule.machine_loads() == tuple(
                    view.time(loads.get(i, 0)) for i in range(m)
                )

    def test_equal_pieces_share_one_tick_count(self):
        # Two jobs on 1000 machines: pam deals W/m (1802 ticks, past the
        # small-int cache) to each empty machine, as a Fraction of its own.
        inst = make_instance([Fraction(1801, 2), Fraction(1, 2)], 1000)
        sched = pam_schedule(inst).schedule
        assert len(sched.segments) == 1001
        assert len({id(t) for t in sched._ticks}) <= 4


@settings(max_examples=200, deadline=None)
@given(job_sizes | coprime_sizes | rational_sizes, st.integers(min_value=1, max_value=8))
def test_solver_output_has_no_segment_violations(sizes, m):
    built = make_instance(sizes, m)
    # Also on the instance read back, whose view is built from the reader's
    # (numerator, denominator) pairs.
    for inst in (built, parse_instance(serialize_instance(built))):
        times = {job.id: job.process_time for job in inst.jobs}
        for algorithm in ("lpt", "pam", "wraparound"):
            sched = cli.ALGORITHMS[algorithm][1](inst)
            assert "segments" not in vars(sched)
            assert segment_violations(inst, *zip(*sched.segments)) == []
            # A solver's schedule skips the construction check, keeps its own
            # columns and builds its segments from them: they must be the ones
            # of the public rebuild of those segments.
            rebuilt = MigrationSchedule(inst, sched.segments)
            assert sched.segments == rebuilt.segments
            assert (sched._jobs, sched._machines, sched._ticks) == (
                rebuilt._jobs, rebuilt._machines, rebuilt._ticks
            )
            # A whole job's segment holds its job's time, and no other does.
            sizes_of = inst.ticks.sizes
            for (job, _, amount), t in zip(sched.segments, sched._ticks):
                assert (amount == times[job]) == (t == sizes_of[job])
            assert cli._dump_text(sched, algorithm) == cli._dump_text(rebuilt, algorithm)


COLUMNS = ["_jobs", "_machines", "_ticks", "instance"]


@settings(max_examples=100, deadline=None)
@given(job_sizes | coprime_sizes | rational_sizes, st.integers(min_value=1, max_value=8))
def test_every_path_keeps_three_columns_and_builds_equal_segments(sizes, m):
    # A schedule from a solver, from the public constructor with fresh amounts
    # or with the jobs' own time objects, from verify's rebuild of a dump, or
    # the oracle's witness keeps only its columns, and builds segments equal
    # to the ones it was given, each whole job holding its job's time.
    built = make_instance(sizes, m)
    for inst in (built, parse_instance(serialize_instance(built))):
        view = inst.ticks
        times = {job.id: job.process_time for job in inst.jobs}
        paths = []
        for algorithm in ("lpt", "pam", "wraparound"):
            solved = cli.ALGORITHMS[algorithm][1](inst)
            assert sorted(vars(solved)) == COLUMNS
            given = solved.segments
            fresh = tuple(JobSegment(j, i, as_time(str(a))) for j, i, a in given)
            dump = json.loads(cli._dump_text(solved, algorithm))
            issues = []
            built_here = [
                (MigrationSchedule(inst, fresh), fresh),
                (MigrationSchedule(inst, given), given),
                (cli._verify_minms(inst, dump, issues, []), given),
            ]
            assert issues == []
            for schedule, _ in built_here:
                assert sorted(vars(schedule)) == COLUMNS
            paths.append([(solved, given)] + built_here)
        if len(sizes) <= oracles.MINMS_MAX_JOBS:
            witness = oracles.exact_minms(inst)
            assert sorted(vars(witness)) == COLUMNS
            # Each job whole on its machine, holding its job's time.
            jobs = witness._jobs
            given = tuple(map(JobSegment, jobs, witness._machines, map(times.get, jobs)))
            paths.append([(witness, given), (MigrationSchedule(inst, given), given)])
        for same in paths:
            first = same[0][0]
            for schedule, given in same:
                assert schedule.segments == given
                for (job, _, amount), t in zip(schedule.segments, schedule._ticks):
                    assert amount is not core._WHOLE
                    assert (amount == times[job]) == (t == view.sizes[job])
                assert schedule == first and hash(schedule) == hash(first)


@pytest.mark.parametrize("read", [False, True], ids=["public", "read"])
@pytest.mark.parametrize(
    "text",
    [
        "minms 1\nmachines 2\njob 3 4\njob 0 3\njob 1 4\njob 2 5\n",
        "minms 1\nmachines 3\njob 4 7/2\njob 0 3\njob 2 5/3\njob 1 1/2\n",
    ],
    ids=["integer", "rational"],
)
def test_the_tick_view_keeps_tick_counts_only(monkeypatch, text, read):
    # Every time value a minms instance or schedule hands out is made from
    # tick counts when asked for, so no path leaves a time object in the view.
    times = {int(i): as_time(t) for _, i, t in map(str.split, text.splitlines()[2:])}
    inst = parse_instance(text)
    if not read:
        inst = MinMsInstance(tuple(Job(i, t) for i, t in times.items()), inst.machine_count)
    assert {job.id: job.process_time for job in inst.jobs} == times
    sched = pam_schedule(inst).schedule
    assert segment_violations(inst, *zip(*sched.segments)) == []
    first = next(iter(times))
    halved = [t / 2 if j == first else t for j, t in times.items()]
    assert segment_violations(inst, list(times), [0] * len(times), halved) == [
        f"conservation: job {first} segments sum to {times[first] / 2}, "
        f"process time is {times[first]}"
    ]
    witness = oracles.exact_minms(inst)
    assert sorted((j, t) for j, _, t in witness.segments) == sorted(times.items())
    # An edited record equal to its job's time is written short.
    payload = cli._dump_payload(sched, "pam")
    job, machine, _ = sched.segments[0]
    payload["segments"][0]["amount"] = times[job]
    monkeypatch.setattr(cli, "_dump_payload", lambda *_: payload)
    assert json.loads(cli._dump_text(sched, "pam"))["segments"][0] == [job, machine]
    assert sorted(vars(inst.ticks)) == VIEW_STATE


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=10**6))
def test_solvers_are_pure_functions(seed):
    rng = random.Random(seed)
    sizes = [rng.randint(1, 30) for _ in range(rng.randint(1, 12))]
    m = rng.randint(1, 5)
    inst = make_instance(sizes, m)
    assert pam_schedule(inst) == pam_schedule(inst)
    assert lpt_schedule(inst) == lpt_schedule(inst)
    assert wraparound_schedule(inst) == wraparound_schedule(inst)


class TestCertificate:
    @settings(max_examples=200, deadline=None)
    @given(job_sizes | coprime_sizes | rational_sizes, st.integers(min_value=1, max_value=8))
    # A job as long as the bound wraps, and its two windows touch at time 1.
    @example([1, 2], 2)
    def test_every_solver_meets_its_certificate(self, sizes, m):
        inst = make_instance(sizes, m)
        lpt = minms.certificate(lpt_schedule(inst), "lpt")
        assert lpt == ([], ["every job is whole on one machine"])
        pam = minms.certificate(pam_schedule(inst).schedule, "pam")
        assert pam == ([], [f"all loads = {opt_balance(inst)}"])
        bound = reference_wraparound(inst)[1]
        wrap = minms.certificate(wraparound_schedule(inst), "wraparound")
        assert wrap == ([], [f"makespan = {bound} (wrap bound)", "no job overlaps itself in time"])

    def test_pam_unbalanced(self):
        sched = lpt_schedule(gen_graham_worst_case(10))
        assert minms.certificate(sched, "pam") == (
            ["makespan 39 exceeds the balanced optimum 30"],
            [],
        )

    def test_lpt_split(self):
        # Loads [4, 2] balance to [3, 3] by one split of the job of size 4.
        sched = pam_schedule(make_instance([4, 1, 1], 2)).schedule
        assert minms.certificate(sched, "lpt") == (["1 split jobs in a whole-job schedule"], [])

    def test_wrap_bound_exceeded(self):
        sched = lpt_schedule(gen_graham_worst_case(10))
        assert minms.certificate(sched, "wraparound") == (
            ["makespan 39 differs from wrap bound 30"],
            ["no job overlaps itself in time"],
        )

    def test_wrap_self_overlap(self):
        # Both jobs run [0, 1) on machine 0 and on machine 1 at once.
        inst = make_instance([2, 2], 2)
        sched = MigrationSchedule(
            inst, tuple(JobSegment(j, i, 1) for i in range(2) for j in range(2))
        )
        assert minms.certificate(sched, "wraparound") == (
            ["jobs [0, 1] overlap themselves in time"],
            ["makespan = 2 (wrap bound)"],
        )

    def test_wrap_job_repeated_whole_overlaps_itself(self):
        # An unchecked schedule may hold one job whole twice: job 0 runs
        # [0, 2) on both machines. Each segment's ticks are the job's size,
        # yet the job has two segments, so its windows are compared.
        inst = make_instance([2, 2], 2)
        size = inst.ticks.sizes[0]
        sched = MigrationSchedule._trusted(inst, [0, 0], [0, 1], [size, size])
        assert minms.certificate(sched, "wraparound") == (
            ["jobs [0] overlap themselves in time"],
            ["makespan = 2 (wrap bound)"],
        )

    def test_wrap_below_the_bound_and_overlapping(self):
        # pam ends both machines at 3, under the job of size 5, by running it twice at once.
        sched = pam_schedule(make_instance([5, 1], 2)).schedule
        assert minms.certificate(sched, "wraparound") == (
            ["makespan 3 differs from wrap bound 5", "jobs [0] overlap themselves in time"],
            [],
        )

    @pytest.mark.parametrize("name", ["exact", "lbm", "bogus", ""])
    def test_other_names_have_no_certificate(self, name):
        assert minms.certificate(pam_schedule(gen_graham_worst_case(2)).schedule, name) == ([], [])

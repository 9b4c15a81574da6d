"""Core data model: exact arithmetic, instances, segments, load metrics."""

import math
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from migsched import (
    InvariantError,
    Job,
    JobSegment,
    MigrationSchedule,
    MinMsInstance,
    as_time,
    parse_instance,
)
from migsched.core import _WHOLE, MAX_TICK_BITS, InstanceTooLargeError, segment_violations

from helpers import make_instance, total_load

nonneg_rationals = st.fractions(min_value=0, max_value=10**6)


# The time grammar as a regex: the reference that as_time's string path must
# agree with. `\d` in a str pattern is any Unicode decimal digit (category Nd).
REFERENCE_TIME = re.compile(r"(\d+)(?:/(\d+))?")
# Digits and the separator; a sign, point, space, exponent and newline; two
# non-ASCII decimal digits (Arabic-Indic three, fullwidth three), which are
# accepted; and superscript two, a digit that is not decimal, which is not.
GRAMMAR_ALPHABET = "0123456789/+-. e\n" + "\u0663\uff13\u00b2"


def reference_time(text):
    """The value the regex grammar reads from `text`, or None when it rejects it.

    The denominator is converted first, so of two numbers too long for `int`
    the denominator's is the one reported.
    """
    match = REFERENCE_TIME.fullmatch(text)
    if match is None:
        return None
    den = int(match[2] or 1)
    return Fraction(int(match[1]), den) if den else None


@st.composite
def segment_lists(draw):
    """An instance and (job, machine, amount) triples that may break every
    rule: each job whole or halved on machines in range, or left out (broken
    conservation), plus segments of known and unknown jobs on machines in and
    out of range with int or Fraction amounts that may be non-positive or off
    the tick grid; in any order."""
    sizes = draw(
        st.lists(st.fractions(min_value=Fraction(1, 4), max_value=10, max_denominator=4),
                 min_size=1, max_size=5)
    )
    m = draw(st.integers(1, 4))
    inst = make_instance(sizes, m)
    machine = st.integers(0, m - 1)
    segments = []
    for job in inst.jobs:
        parts = draw(st.sampled_from([0, 1, 1, 2]))
        segments += [(job.id, draw(machine), job.process_time / parts) for _ in range(parts)]
    amounts = st.one_of(
        st.integers(-2, 6), st.fractions(min_value=-2, max_value=6, max_denominator=14)
    )
    segments += draw(
        st.lists(st.tuples(st.integers(0, len(sizes) + 1), st.integers(-1, m), amounts), max_size=6)
    )
    return inst, tuple(draw(st.permutations(segments)))


# Values that are no id, machine or amount: bools (ints to isinstance), a
# float, strings, an unhashable list and None.
MALFORMED = st.sampled_from([True, False, 0.0, 1.5, "0", "1/2", [0], None])


@st.composite
def raw_rows(draw):
    """An instance and raw (job, machine, amount) rows of any field types: the
    rows of segment_lists, which may conserve, plus rows of unknown ids,
    machines out of range, zero, negative and off-grid amounts, malformed
    values and the whole-job marker, and whole-job markers of known jobs;
    in any order."""
    inst, segments = draw(segment_lists())
    m, ids = inst.machine_count, list(inst.ticks.sizes)
    amount = st.one_of(
        st.integers(-2, 6), st.fractions(-2, 6, max_denominator=14), MALFORMED, st.just(_WHOLE)
    )
    rows = list(segments)
    rows += draw(st.lists(st.tuples(st.integers(0, len(ids) + 1) | MALFORMED,
                                    st.integers(-1, m) | MALFORMED, amount), max_size=6))
    rows += [(job, draw(st.integers(0, m - 1)), _WHOLE)
             for job in draw(st.lists(st.sampled_from(ids), max_size=2))]
    return inst, tuple(draw(st.permutations(rows)))


def reference_segment_violations(instance, rows, ticks):
    """segment_violations as it walked (job_id, machine_id, amount) rows,
    kept to check the column walk: same problems, same order, same ticks."""
    problems = []
    view = instance.ticks
    sizes = view.sizes
    totals = dict.fromkeys(sizes, 0)
    shared = {}
    m = instance.machine_count
    for job_id, machine_id, amount in rows:
        if type(job_id) is not int or job_id not in totals:
            problems.append(f"segment references unknown job {job_id!r}")
            continue
        if type(machine_id) is not int or not 0 <= machine_id < m:
            problems.append(f"job {job_id}: machine id {machine_id!r} is not an int in 0..{m - 1}")
        if amount is _WHOLE:
            t = sizes[job_id]
        else:
            if type(amount) is not int and not isinstance(amount, Fraction):
                problems.append(f"job {job_id}: segment amount {amount!r} is not an int or Fraction")
                continue
            t = view.of(amount)
            t = shared.setdefault(t, t)
            if t <= 0:
                problems.append(f"job {job_id}: non-positive segment amount {amount}")
        totals[job_id] += t
        ticks.append(t)
    for job_id, size in sizes.items():
        if totals[job_id] != size:
            problems.append(
                f"conservation: job {job_id} segments sum to {view.time(totals[job_id])}, "
                f"process time is {view.time(size)}"
            )
    return problems


def columns_of(rows):
    """Rows as the job, machine and amount columns; no rows, three empty ones."""
    return tuple(zip(*rows)) or ((), (), ())


class TestTimeValue:
    def test_accepts_int_string_fraction(self):
        assert as_time(3) == 3
        assert as_time("7/2") == Fraction(7, 2)
        assert as_time("14/4") == Fraction(7, 2)
        assert as_time(Fraction(6, 4)) == Fraction(3, 2)

    def test_canonical_reduced_form(self):
        tv = as_time(Fraction(6, 4))
        assert (tv.numerator, tv.denominator) == (3, 2)

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            as_time(1.5)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            as_time(-1)

    def test_rejects_negative_fraction(self):
        with pytest.raises(ValueError, match="time values must be non-negative, got -1/2"):
            as_time(Fraction(-1, 2))

    @pytest.mark.parametrize("value", [True, False])
    def test_rejects_bools(self, value):
        # isinstance(True, int) holds, so a bool once read as the time 1 or 0.
        with pytest.raises(TypeError, match=f"^expected a time, got {value}$"):
            as_time(value)

    def test_keeps_a_fraction(self):
        value = Fraction(7, 2)
        assert as_time(value) is value

    @pytest.mark.parametrize("text", ["1e3", "1.5", " 2", "-1", "3/0", "2\n", "+2", "", "1/2/3"])
    def test_rejects_other_strings(self, text):
        with pytest.raises(ValueError):
            as_time(text)

    @settings(max_examples=500, deadline=None)
    @example("1" * 5000 + "/" + "7" * 4400)
    @example("\u0663/\uff13")
    @given(
        st.text(alphabet=GRAMMAR_ALPHABET, max_size=12)
        | st.from_regex(r"[0-9\u0663\uff13]{1,6}(/[0-9\u0663\uff13]{1,6})?", fullmatch=True)
    )
    def test_string_grammar_matches_the_reference_regex(self, text):
        try:
            expected = reference_time(text)
        except ValueError as exc:  # more digits than int converts
            with pytest.raises(ValueError) as err:
                as_time(text)
            assert str(err.value) == str(exc)
            return
        if expected is None:
            with pytest.raises(ValueError, match="time must be n or num/den"):
                as_time(text)
        else:
            assert as_time(text) == expected

    @given(nonneg_rationals, nonneg_rationals)
    def test_addition_round_trip_is_exact(self, a, b):
        assert (a + b) - b == a

    @given(nonneg_rationals, nonneg_rationals)
    def test_sums_stay_reduced(self, a, b):
        import math

        total = a + b
        assert math.gcd(total.numerator, total.denominator) == 1
        assert total.denominator > 0


class TestJobAndInstance:
    def test_zero_process_time_rejected(self):
        with pytest.raises(InvariantError):
            Job(0, 0)

    @pytest.mark.parametrize("process_time", ["0", "0/5", Fraction(0)])
    def test_zero_process_time_message(self, process_time):
        with pytest.raises(InvariantError, match="^job 3: process time must be positive$"):
            Job(3, process_time)

    @pytest.mark.parametrize("process_time", [True, False])
    def test_bool_process_time_rejected(self, process_time):
        with pytest.raises(TypeError, match=f"^expected a time, got {process_time}$"):
            Job(0, process_time)

    def test_negative_id_rejected(self):
        with pytest.raises(InvariantError):
            Job(-1, 3)

    def test_instance_needs_jobs(self):
        with pytest.raises(InvariantError):
            MinMsInstance((), 2)

    def test_instance_needs_machines(self):
        with pytest.raises(InvariantError):
            make_instance([1], 0)

    def test_bools_are_not_ids_or_counts(self):
        # isinstance(True, int) holds, so a bool once passed as job 1 or one machine.
        with pytest.raises(InvariantError, match="^job id must be a non-negative integer, got True"):
            Job(True, 3)
        with pytest.raises(
            InvariantError, match="^machine count must be a positive integer, got True$"
        ):
            MinMsInstance((Job(0, 3),), True)

    def test_duplicate_job_ids_rejected(self):
        with pytest.raises(InvariantError):
            MinMsInstance((Job(0, 1), Job(0, 2)), 2)

    def test_total_load_integers(self):
        assert total_load(make_instance([3, 3, 2, 2, 2], 2)) == 12

    def test_total_load_single(self):
        assert total_load(make_instance([7], 1)) == 7

    def test_total_load_exact_rationals(self):
        inst = make_instance([Fraction(1, 2), Fraction(1, 3)], 1)
        assert total_load(inst) == Fraction(5, 6)

    def test_tick_view_refuses_past_its_bit_budget(self):
        # Every tick count carries the lcm of the denominators times the
        # machine count, so n jobs x the bits of both may reach the budget,
        # and one bit more is refused before any tick count exists.
        quarter = MAX_TICK_BITS // 4
        sizes = [1, 1, 1, Fraction(1, 2)]
        assert make_instance(sizes, 2 ** (quarter - 3)).ticks.unit == 2 ** (quarter - 2)
        with pytest.raises(
            InstanceTooLargeError,
            match=rf"^the tick counts of 4 jobs exceed the budget of {MAX_TICK_BITS} bits ",
        ):
            make_instance(sizes, 2 ** (quarter - 2)).ticks


class TestMigrationSchedule:
    def test_single_job_loads(self):
        inst = make_instance([5], 1)
        inst = MinMsInstance(inst.jobs, 2)
        sched = MigrationSchedule(inst, (JobSegment(0, 0, 5),))
        assert sched.machine_loads() == (5, 0)

    def test_split_job_loads(self):
        inst = MinMsInstance((Job(0, 3),), 2)
        sched = MigrationSchedule(
            inst, (JobSegment(0, 0, Fraction(3, 2)), JobSegment(0, 1, Fraction(3, 2)))
        )
        assert sched.machine_loads() == (Fraction(3, 2), Fraction(3, 2))
        assert sched.migrations == 1

    def test_adversarial_m2_greedy_loads(self):
        # whole-job greedy outcome for sizes 3,3,2,2,2 on two machines
        inst = make_instance([3, 3, 2, 2, 2], 2)
        segments = (
            JobSegment(0, 0, 3),
            JobSegment(1, 1, 3),
            JobSegment(2, 0, 2),
            JobSegment(3, 1, 2),
            JobSegment(4, 0, 2),
        )
        sched = MigrationSchedule(inst, segments)
        assert sched.machine_loads() == (7, 5)
        assert sched.makespan() == 7

    def test_makespan_all_equal(self):
        inst = make_instance([6, 6], 2)
        sched = MigrationSchedule(inst, (JobSegment(0, 0, 6), JobSegment(1, 1, 6)))
        assert sched.makespan() == 6

    def test_makespan_single_nonzero_machine(self):
        inst = MinMsInstance((Job(0, 4),), 6)
        sched = MigrationSchedule(inst, (JobSegment(0, 3, 4),))
        assert sched.machine_loads() == (0, 0, 0, 4, 0, 0)
        assert sched.makespan() == 4

    def test_conservation_violation_rejected(self):
        inst = make_instance([5], 1)
        with pytest.raises(InvariantError, match="conservation"):
            MigrationSchedule(inst, (JobSegment(0, 0, 4),))

    def test_unknown_job_rejected(self):
        inst = make_instance([5], 1)
        with pytest.raises(InvariantError, match="unknown job"):
            MigrationSchedule(inst, (JobSegment(0, 0, 5), JobSegment(9, 0, 1)))

    @pytest.mark.parametrize("job_id", [[0], 0.0, "0", None, False])
    def test_job_id_not_an_int_rejected(self, job_id):
        # Even an id that cannot be hashed is a violation, not a TypeError.
        inst = make_instance([5], 1)
        with pytest.raises(InvariantError, match="unknown job"):
            MigrationSchedule(inst, (JobSegment(job_id, 0, 5),))

    def test_machine_out_of_range_rejected(self):
        inst = make_instance([5], 1)
        with pytest.raises(InvariantError, match=r"machine id 1 is not an int in 0\.\.0"):
            MigrationSchedule(inst, (JobSegment(0, 1, 5),))

    @pytest.mark.parametrize(
        "fields",
        [(0, 0, 5.0), (0, 0, "5"), (0, 0, 0), (0, -1, 5), (0, "0", 5), (0, 0.0, 5), (0, False, 5)],
    )
    def test_malformed_segment_rejected(self, fields):
        # JobSegment is a plain triple; the schedule checks it.
        with pytest.raises(InvariantError):
            MigrationSchedule(make_instance([5], 1), (JobSegment(*fields),))

    @pytest.mark.parametrize(
        "segments", [[(0, 0)], [(0, 0, 5, 0)], [(0, 0, 5), (0, 0)], [(0, 0), (0, 0, 5)]]
    )
    def test_segment_of_another_width_is_no_triple(self, segments):
        # The constructor transposes its segments once: a pair or a quadruple
        # anywhere is a ValueError, as unpacking it is, not a problem list.
        with pytest.raises(ValueError) as raised:
            MigrationSchedule(make_instance([5], 1), segments)
        assert type(raised.value) is ValueError

    def test_bool_job_id_is_not_job_one(self):
        inst = make_instance([3, 2], 2)
        segments = (JobSegment(0, 0, 3), JobSegment(True, 1, 2))
        with pytest.raises(InvariantError, match="^segment references unknown job True; "):
            MigrationSchedule(inst, segments)

    def test_bool_machine_and_amount_are_violations(self):
        inst = make_instance([1, 1], 2)
        assert segment_violations(inst, [0, 1], [True, 0], [1, True]) == [
            "job 0: machine id True is not an int in 0..1",
            "job 1: segment amount True is not an int or Fraction",
            "conservation: job 1 segments sum to 0, process time is 1",
        ]

    def test_every_conservation_failure_is_reported_in_instance_order(self):
        # Jobs 9 and 5 fail, met in that order in the segments; the lines
        # follow the instance order, 5 before 9, and job 1 conserves.
        inst = MinMsInstance((Job(5, 2), Job(1, 3), Job(9, 4)), 2)
        jobs, machines, amounts = [9, 1, 5, 9], [0, 1, 0, 1], [1, 3, 1, Fraction(1, 2)]
        assert segment_violations(inst, jobs, machines, amounts) == [
            "conservation: job 5 segments sum to 1, process time is 2",
            "conservation: job 9 segments sum to 3/2, process time is 4",
        ]

    def test_conservation_failures_follow_the_instance_order_not_the_ids(self):
        # Job 9 comes first in the instance and job 5 last; the segments meet
        # 5 first. A read instance words them from its view, as a checked one.
        jobs = (Job(9, 4), Job(1, 3), Job(5, 2))
        read = parse_instance("minms 1\nmachines 2\njob 9 4\njob 1 3\njob 5 2\n")
        columns = [5, 1, 9, 9], [0, 1, 0, 1], [1, 3, 1, Fraction(1, 2)]
        for inst in (MinMsInstance(jobs, 2), read):
            assert segment_violations(inst, *columns) == [
                "conservation: job 9 segments sum to 3/2, process time is 4",
                "conservation: job 5 segments sum to 1, process time is 2",
            ]
        assert "jobs" not in vars(read)

    def test_job_placed_twice_with_its_own_time_objects(self):
        # The first segment is job 0's own time object, the second an equal
        # Fraction of its own: both count, whichever path converts them.
        inst = make_instance([3, 2], 2)
        t0, t1 = (job.process_time for job in inst.jobs)
        for second in (t0, Fraction(3)):
            assert segment_violations(inst, [0, 0, 1], [0, 1, 1], [t0, second, t1]) == [
                "conservation: job 0 segments sum to 6, process time is 3"
            ]

    def test_another_jobs_time_object_is_converted(self):
        inst = make_instance([3, 2], 2)
        t0 = inst.jobs[0].process_time
        assert segment_violations(inst, [0, 1], [0, 1], [t0, t0]) == [
            "conservation: job 1 segments sum to 3, process time is 2"
        ]

    def test_an_equal_amount_of_another_type_conserves(self):
        inst = make_instance([3, 2], 2)
        ticks = []
        amounts = [3, inst.jobs[1].process_time]
        assert segment_violations(inst, [0, 1], [0, 1], amounts, ticks=ticks) == []
        assert ticks == [inst.ticks.of(3), inst.ticks.sizes[1]]

    def test_own_time_object_still_checks_the_machine(self):
        inst = make_instance([3, 2], 2)
        t0, t1 = (job.process_time for job in inst.jobs)
        assert segment_violations(inst, [0, 1], [5, True], [t0, t1]) == [
            "job 0: machine id 5 is not an int in 0..1",
            "job 1: machine id True is not an int in 0..1",
        ]

    def test_schedule_keeps_one_tick_count_per_segment(self):
        # Job 0 whole (602 ticks, past the small-int cache), and job 1 in two
        # thirds off the quarter-tick grid.
        inst = make_instance([Fraction(301, 2), 2], 2)
        segments = (
            JobSegment(0, 0, inst.jobs[0].process_time),
            JobSegment(1, 1, Fraction(1, 3)),
            JobSegment(1, 0, Fraction(5, 3)),
        )
        sched = MigrationSchedule(inst, segments)
        view = inst.ticks
        assert sched._ticks == tuple(view.of(amount) for _, _, amount in segments)
        # The job's own time object is converted like any amount, to an equal
        # count; the whole-job marker takes the job's size itself.
        assert sched._ticks[0] == view.sizes[0]
        marked = MigrationSchedule(inst, ((0, 0, _WHOLE),) + segments[1:])
        assert marked._ticks[0] is view.sizes[0]
        assert marked == sched
        # An int amount is its own numerator over denominator 1.
        assert [view.of(3), view.of(0)] == [3 * view.unit, 0]
        assert type(view.of(3)) is int
        assert sched == MigrationSchedule(inst, segments)
        assert "_ticks" not in repr(sched)

    def test_negative_off_grid_amount_is_its_only_violation(self):
        # -1/7 + 36/7 = 5 conserves the job, so the sign is the one problem.
        inst = make_instance([5], 1)
        amounts = [Fraction(-1, 7), Fraction(36, 7)]
        problems = segment_violations(inst, [0, 0], [0, 0], amounts)
        assert problems == ["job 0: non-positive segment amount -1/7"]

    def test_off_grid_loads_equal_a_plain_sum(self):
        # Integer sizes on 2 machines (half ticks): every amount but job 3's
        # is off that grid. Machine 0 holds two of them and machine 1 five,
        # so the pairwise sum carries an odd amount over two levels.
        inst = make_instance([3, 3, 3, 3], 2)
        segments = (
            JobSegment(0, 0, Fraction(1, 7)),
            JobSegment(0, 1, Fraction(2, 11)),
            JobSegment(0, 1, Fraction(206, 77)),
            JobSegment(1, 1, Fraction(3, 13)),
            JobSegment(1, 0, Fraction(36, 13)),
            JobSegment(2, 1, Fraction(1, 11)),
            JobSegment(2, 1, Fraction(32, 11)),
            JobSegment(3, 0, Fraction(3)),
        )
        sched = MigrationSchedule(inst, segments)
        loads = [Fraction(0)] * 2
        for _, machine, amount in segments:
            loads[machine] += amount
        assert sched.machine_loads() == tuple(loads) == (Fraction(538, 91), Fraction(554, 91))
        assert sched.makespan() == Fraction(554, 91)

    @settings(max_examples=300, deadline=None)
    @given(segment_lists())
    @example((make_instance([5], 1), ((0, 0, 4), (3, 0, 1), (0, 1, Fraction(-1, 7)))))
    def test_error_carries_the_problems_of_the_check(self, case):
        # The schedule raises exactly when the check finds a problem, and its
        # error holds each problem as one argument, in the check's order.
        inst, segments = case
        problems = segment_violations(inst, *columns_of(segments))
        if not problems:
            assert MigrationSchedule(inst, segments).segments == segments
            return
        with pytest.raises(InvariantError) as raised:
            MigrationSchedule(inst, segments)
        assert raised.value.args == tuple(problems)
        assert str(raised.value) == "; ".join(problems)

    @settings(max_examples=500, deadline=None)
    @given(raw_rows())
    @example((make_instance([5], 1), ((0, 0, _WHOLE), (True, 0, 1), (0, 1.5, _WHOLE))))
    @example((make_instance([3, 2], 2), ()))
    def test_column_check_matches_the_row_walk(self, case):
        # The check walks three columns; the row walk it replaced is the
        # reference: the same problems in the same order, and the same ticks,
        # value and type. The column entry and the public constructor agree.
        inst, rows = case
        expected_ticks, ticks = [], []
        expected = reference_segment_violations(inst, rows, expected_ticks)
        columns = columns_of(rows)
        assert segment_violations(inst, *columns, ticks=ticks) == expected
        assert list(map(type, ticks)) == list(map(type, expected_ticks))
        assert ticks == expected_ticks
        if expected:
            for build in (MigrationSchedule._checked, lambda i, *_: MigrationSchedule(i, rows)):
                with pytest.raises(InvariantError) as raised:
                    build(inst, *columns)
                assert raised.value.args == tuple(expected)
            return
        checked = MigrationSchedule._checked(inst, *columns)
        assert checked._ticks == tuple(ticks)
        assert (checked._jobs, checked._machines) == columns[:2]
        assert checked == MigrationSchedule(inst, rows)

    def test_segment_is_a_named_triple(self):
        segment = JobSegment(3, 1, Fraction(1, 2))
        assert segment == (3, 1, Fraction(1, 2))
        assert (segment.job_id, segment.machine_id, segment.amount) == segment

    @given(
        st.lists(st.fractions(min_value=Fraction(1, 7), max_value=50), min_size=1, max_size=12),
        st.integers(min_value=1, max_value=5),
        st.randoms(use_true_random=False),
    )
    def test_makespan_dominates_average(self, sizes, m, rng):
        # any conserving split of the jobs keeps makespan >= total/m
        inst = make_instance(sizes, m)
        segments = []
        for job in inst.jobs:
            parts = rng.randint(1, 4)
            for _ in range(parts):
                segments.append(JobSegment(job.id, rng.randrange(m), job.process_time / parts))
        sched = MigrationSchedule(inst, tuple(segments))
        assert sched.makespan() >= total_load(inst) / m
        loads = [Fraction(0)] * m
        for _, machine, amount in segments:
            loads[machine] += amount
        assert sched.machine_loads() == tuple(loads)
        assert sched.makespan() == max(loads)

        # Moving one amount by an epsilon whose denominator divides no tick
        # unit of this instance breaks conservation for that job alone.
        unit = math.lcm(*(j.process_time.denominator for j in inst.jobs)) * m
        epsilon = Fraction(1, unit + 1)
        k = rng.randrange(len(segments))
        job_id, machine, amount = segments[k]
        segments[k] = JobSegment(job_id, machine, amount + epsilon)
        process_time = inst.jobs[job_id].process_time
        with pytest.raises(InvariantError) as excinfo:
            MigrationSchedule(inst, tuple(segments))
        assert str(excinfo.value) == (
            f"conservation: job {job_id} segments sum to {process_time + epsilon}, "
            f"process time is {process_time}"
        )

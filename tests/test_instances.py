"""Generators and the instance file format."""

import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import migsched
from migsched import (
    InstanceFormatError,
    IntervalInstance,
    IntervalJob,
    InvariantError,
    Job,
    MinMsInstance,
    gen_graham_worst_case,
    gen_random_minms,
    gen_random_mintpt,
    parse_instance,
    serialize_instance,
)
from migsched.instances import _parse_int, load_instance


def total_load(instance):
    """The exact sum of an instance's process times, read from its ticks."""
    return instance.ticks.time(instance.ticks.total)


class TestGrahamFamily:
    def test_m2_multiset(self):
        inst = gen_graham_worst_case(2)
        assert [j.process_time for j in inst.jobs] == [2, 2, 2, 3, 3]
        assert total_load(inst) == 12

    def test_m3_multiset(self):
        inst = gen_graham_worst_case(3)
        assert [j.process_time for j in inst.jobs] == [3, 3, 3, 4, 4, 5, 5]
        assert total_load(inst) == 27

    def test_m10_shape(self):
        inst = gen_graham_worst_case(10)
        assert len(inst.jobs) == 21
        assert total_load(inst) == 300
        assert max(j.process_time for j in inst.jobs) == 19

    def test_family_totals(self):
        for m in range(2, 51):
            inst = gen_graham_worst_case(m)
            assert len(inst.jobs) == 2 * m + 1
            assert total_load(inst) == 3 * m * m

    def test_degenerate_m_rejected(self):
        with pytest.raises(ValueError):
            gen_graham_worst_case(1)


class TestRandomGenerators:
    def test_minms_determinism(self):
        a = gen_random_minms(5, 2, (1, 9), seed=7)
        b = gen_random_minms(5, 2, (1, 9), seed=7)
        assert a == b

    def test_minms_degenerate(self):
        inst = gen_random_minms(1, 1, (5, 5), seed=123)
        assert inst.jobs[0].process_time == 5

    def test_minms_empty_range_rejected(self):
        with pytest.raises(ValueError):
            gen_random_minms(3, 2, (9, 4), seed=0)
        with pytest.raises(ValueError):
            gen_random_minms(3, 2, (0, 4), seed=0)

    def test_mintpt_determinism(self):
        assert gen_random_mintpt(6, 10, 3, seed=11) == gen_random_mintpt(6, 10, 3, seed=11)

    def test_mintpt_single_job(self):
        inst = gen_random_mintpt(1, 8, 2, seed=3)
        (job,) = inst.jobs
        assert 0 <= job.start_slot < job.end_slot <= 8

    def test_mintpt_jobs_within_horizon(self):
        inst = gen_random_mintpt(40, 12, 2, seed=9)
        assert all(0 <= j.start_slot < j.end_slot <= 12 for j in inst.jobs)

    def test_different_seeds_differ(self):
        assert gen_random_minms(8, 3, (1, 50), seed=1) != gen_random_minms(8, 3, (1, 50), seed=2)


class TestFileFormat:
    def test_minms_round_trip(self):
        inst = MinMsInstance((Job(0, 3), Job(1, Fraction(7, 2))), 2)
        text = serialize_instance(inst)
        assert text == "minms 1\nmachines 2\njob 0 3\njob 1 7/2\n"
        assert parse_instance(text) == inst
        assert serialize_instance(parse_instance(text)) == text

    def test_mintpt_round_trip(self):
        inst = IntervalInstance((IntervalJob(0, 0, 3), IntervalJob(1, 2, 5)), 4)
        text = serialize_instance(inst)
        assert text == "mintpt 1\ncapacity 4\njob 0 0 3 1\njob 1 2 5 1\n"
        assert parse_instance(text) == inst

    def test_fixture_files_are_canonical(self, fixtures_dir):
        for name in ("graham_m2.inst", "graham_m10.inst", "intervals_g3.inst"):
            text = (fixtures_dir / name).read_text()
            assert serialize_instance(parse_instance(text)) == text

    def test_interval_fixture_contents(self, fixtures_dir):
        inst = load_instance(fixtures_dir / "intervals_g3.inst")
        assert isinstance(inst, IntervalInstance)
        assert inst.capacity == 3
        assert [j.interval for j in inst.jobs] == [(0, 3), (0, 2), (1, 3), (0, 3)]

    def test_graham_fixture_matches_generator(self, fixtures_dir):
        assert load_instance(fixtures_dir / "graham_m10.inst") == gen_graham_worst_case(10)

    def test_comments_and_blank_lines_accepted(self):
        text = "# demo\n\nminms 1\nmachines 1\n# jobs\njob 0 4\n"
        inst = parse_instance(text)
        assert inst.jobs[0].process_time == 4

    def test_rational_parsing_is_exact(self):
        inst = parse_instance("minms 1\nmachines 1\njob 0 1/3\n")
        assert inst.jobs[0].process_time == Fraction(1, 3)

    def test_generator_output_round_trips(self):
        for inst in (gen_random_minms(6, 2, (1, 30), seed=4), gen_random_mintpt(6, 9, 2, seed=4)):
            assert parse_instance(serialize_instance(inst)) == inst

    def test_serializing_a_non_instance_is_a_type_error(self):
        with pytest.raises(TypeError, match="cannot serialize Job"):
            serialize_instance(Job(0, 3))


class TestParseErrors:
    def test_end_before_start_reports_line(self):
        with pytest.raises(InstanceFormatError) as err:
            parse_instance("mintpt 1\ncapacity 2\njob 0 3 1 1\n")
        assert err.value.line == 3
        assert "end slot" in str(err.value)

    def test_float_process_time_rejected(self):
        with pytest.raises(InstanceFormatError, match="num/den"):
            parse_instance("minms 1\nmachines 1\njob 0 1.5\n")

    def test_zero_process_time_rejected(self):
        with pytest.raises(InstanceFormatError, match="positive"):
            parse_instance("minms 1\nmachines 1\njob 0 0\n")

    def test_bad_header(self):
        with pytest.raises(InstanceFormatError):
            parse_instance("widgets 1\nmachines 1\njob 0 1\n")

    def test_bad_version(self):
        with pytest.raises(InstanceFormatError, match="version"):
            parse_instance("minms 9\nmachines 1\njob 0 1\n")

    def test_empty_document(self):
        with pytest.raises(InstanceFormatError):
            parse_instance("\n\n")

    def test_duplicate_job_ids_report_line(self):
        with pytest.raises(InstanceFormatError) as err:
            parse_instance("minms 1\nmachines 1\njob 0 1\njob 0 2\n")
        assert err.value.line == 4

    def test_malformed_job_line(self):
        with pytest.raises(InstanceFormatError, match="job"):
            parse_instance("minms 1\nmachines 1\njob zero 1\n")

    def test_zero_denominator(self):
        with pytest.raises(InstanceFormatError, match="denominator"):
            parse_instance("minms 1\nmachines 1\njob 0 3/0\n")

    def test_missing_parameter_line(self):
        with pytest.raises(InstanceFormatError):
            parse_instance("minms 1\n")


# The integer grammar as a regex, the reference for _parse_int: one or more
# Unicode decimal digits. (With `match` and `$`, a trailing newline also got
# through; no token from str.split() carries one.)
REFERENCE_INTEGER = re.compile(r"^\d+$")


class TestIntegerGrammar:
    @settings(max_examples=500, deadline=None)
    @example("1" * 5000)
    @example("\u0663\uff13")
    @given(st.text(alphabet="0123456789/+-. e\n" + "\u0663\uff13\u00b2", max_size=12))
    def test_parse_int_matches_the_reference_regex(self, token):
        if REFERENCE_INTEGER.fullmatch(token) is None:
            with pytest.raises(InstanceFormatError, match="must be a non-negative integer"):
                _parse_int(token, "job id", 3)
            return
        try:
            expected = int(token)
        except ValueError as exc:  # more digits than int converts
            with pytest.raises(InstanceFormatError) as err:
                _parse_int(token, "job id", 3)
            assert str(err.value) == f"line 3: job id: {exc}"
            return
        assert _parse_int(token, "job id", 3) == expected


def checked_minms(machines, times):
    """The minms parser's result by the checked path: every job through Job and
    the instance through MinMsInstance, each error tagged with its job's line."""
    jobs = []
    for line, (job_id, token) in enumerate(times, 3):
        try:
            jobs.append(Job(job_id, token))
        except ValueError as exc:
            raise InstanceFormatError(str(exc), line) from exc
    try:
        return MinMsInstance(tuple(jobs), machines)
    except InvariantError as exc:
        raise InstanceFormatError(str(exc)) from exc


time_tokens = st.one_of(
    st.sampled_from(
        ["3", "7/2", "14/4", "0", "0/5", "3/0", "+3", "-3", "3/-2", "1.5", "\u0663/2", "\u00b2"]
        + ["9" * 5000, "1/" + "7" * 5000]
    ),
    st.text(alphabet="0123456789/+-", min_size=1, max_size=6),
)


class TestParserMatchesTheCheckedPath:
    """The parser reads each distinct time token once and builds jobs without
    Job's checks; its instances and errors are those of the checked path."""

    @settings(max_examples=300, deadline=None)
    @example(2, [(0, "3"), (1, "3"), (2, "0")])  # a repeated token, then a zero time
    @example(0, [(0, "7/2")])  # the machine count is checked after the jobs
    @given(
        st.integers(0, 4),
        st.lists(time_tokens, max_size=8).flatmap(
            lambda tokens: st.permutations(range(len(tokens))).map(
                lambda ids: list(zip(ids, tokens))
            )
        ),
    )
    def test_same_instance_or_same_error(self, machines, times):
        text = f"minms 1\nmachines {machines}\n" + "".join(f"job {i} {t}\n" for i, t in times)
        try:
            expected = checked_minms(machines, times)
        except InstanceFormatError as exc:
            with pytest.raises(InstanceFormatError) as err:
                parse_instance(text)
            assert (str(err.value), err.value.line) == (str(exc), exc.line)
            return
        got = parse_instance(text)
        assert got == expected
        assert all(type(job.process_time) is Fraction for job in got.jobs)
        assert got.ticks.sizes == expected.ticks.sizes


def checked_mintpt(capacity, lines):
    """The mintpt parser's result by the checked path: each line's tokens read
    in order, a duplicate id right after the id, every job through IntervalJob
    and the instance through IntervalInstance, each error with its line."""
    jobs, seen = [], set()
    for line, (id_token, start_token, end_token, demand_token) in enumerate(lines, 3):
        job_id = _parse_int(id_token, "job id", line)
        if job_id in seen:
            raise InstanceFormatError(f"duplicate job id {job_id}", line)
        seen.add(job_id)
        start = _parse_int(start_token, "start slot", line)
        end = _parse_int(end_token, "end slot", line)
        demand = _parse_int(demand_token, "demand", line)
        try:
            jobs.append(IntervalJob(job_id, start, end, demand))
        except InvariantError as exc:
            raise InstanceFormatError(str(exc), line) from exc
    try:
        return IntervalInstance(tuple(jobs), capacity)
    except InvariantError as exc:
        raise InstanceFormatError(str(exc)) from exc


@st.composite
def interval_lines(draw):
    """(id, start, end, demand) tokens of mintpt job lines: permuted ids with
    now and then a duplicate, intervals with start == end and end < start,
    and now and then an odd token in any field."""
    ids = draw(st.permutations(range(draw(st.integers(0, 8)))))
    odd_tokens = {
        "id": ["0", "01", "+1", "-1", "1" * 5000],
        "slot": ["0", "01", "+1", "-1", "1.5", "9" * 5000],
        "demand": ["0", "2", "01", "+1", "1" * 5000],
    }
    lines = []
    for k, job_id in enumerate(ids):
        if k and draw(st.integers(0, 9)) == 0:
            job_id = ids[draw(st.integers(0, k - 1))]
        start = draw(st.integers(0, 5))
        end = start + draw(st.sampled_from([0, -1] + [1, 2, 3] * 5))
        tokens = [str(job_id), str(start), str(end), "1"]
        for i, kind in enumerate(("id", "slot", "slot", "demand")):
            if draw(st.integers(0, 11)) == 0:
                tokens[i] = draw(st.sampled_from(odd_tokens[kind]))
        lines.append(tokens)
    return lines


class TestIntervalParserMatchesTheCheckedPath:
    """The mintpt parser checks each job line once and builds the jobs without
    IntervalJob's checks; its instances and errors are those of the checked path."""

    @settings(max_examples=400, deadline=None)
    @example(0, [["0", "0", "3", "1"]])  # the capacity is checked after the jobs
    @example(0, [["0", "3", "3", "1"]])  # a line error comes before the capacity's
    @example(2, [["1", "0", "3", "1"], ["1", "+1", "9" * 5000, "0"]])  # duplicate id first
    @example(2, [["0", "0", "9" * 5000, "1"]])  # a 5000-digit end slot
    @example(2, [["01", "0", "01", "01"], ["2", "2", "1", "2"]])  # end < start before demand
    @example(1, [["0", "0", "1", "01"], ["1", "\u0663", "\u0664", "1"]])  # odd, valid tokens
    @given(st.integers(0, 4), interval_lines())
    def test_same_instance_or_same_error(self, capacity, lines):
        text = f"mintpt 1\ncapacity {capacity}\n" + "".join(
            f"job {' '.join(tokens)}\n" for tokens in lines
        )
        try:
            expected = checked_mintpt(capacity, lines)
        except InstanceFormatError as exc:
            with pytest.raises(InstanceFormatError) as err:
                parse_instance(text)
            assert (str(err.value), err.value.line) == (str(exc), exc.line)
            return
        got = parse_instance(text)
        assert got == expected
        assert all(type(job) is IntervalJob and job.demand == 1 for job in got.jobs)
        assert got.horizon == expected.horizon


def test_parsed_interval_jobs_take_no_more_memory_than_checked_ones():
    # The reader's jobs skip IntervalJob's checks but are stored as its
    # __init__ stores them; a __dict__ of their own would cost about 65 more
    # bytes per job. Slots 0 and 1 are cached small ints on both sides.
    n = 20000
    text = "mintpt 1\ncapacity 2\n" + "".join(f"job {i} 0 1 1\n" for i in range(n))

    def retained(build):
        tracemalloc.start()
        try:
            kept = build()  # held while the memory is read
            return tracemalloc.get_traced_memory()[0] if kept else 0
        finally:
            tracemalloc.stop()

    checked = retained(lambda: IntervalInstance(tuple(IntervalJob(i, 0, 1) for i in range(n)), 2))
    assert retained(lambda: parse_instance(text)) < checked * 1.1


# Run in a fresh interpreter: how much a Job keeps depends on which Jobs the
# process built first, so the parse must come before any checked Job.
JOB_MEMORY = """
import sys, tracemalloc
from fractions import Fraction
from migsched import Job, MinMsInstance, parse_instance

n = 20000
one = Fraction(1)  # one shared time on both sides, as the parser's memo shares it

def retained(build):
    tracemalloc.start()
    try:
        kept = build()  # held while the memory is read
        return tracemalloc.get_traced_memory()[0] if kept else 0
    finally:
        tracemalloc.stop()

if sys.argv[1] == "parse":
    text = "minms 1\\nmachines 2\\n" + "".join(f"job {i} 1\\n" for i in range(n))
    print(retained(lambda: parse_instance(text)))
print(retained(lambda: MinMsInstance(tuple(Job(i, one) for i in range(n)), 2)))
"""


def test_parsed_minms_jobs_take_no_more_memory_than_checked_ones():
    # The reader's jobs skip Job's checks but are stored as its __init__
    # stores them; filled through __dict__ instead, each parsed job kept a
    # dict of its own, and every checked Job built after them grew as well.
    env = dict(os.environ, PYTHONPATH=str(Path(migsched.__file__).parents[1]))

    def run(mode):
        out = subprocess.run(
            [sys.executable, "-c", JOB_MEMORY, mode], env=env, capture_output=True, text=True, check=True
        )
        return [int(value) for value in out.stdout.split()]

    (alone,) = run("checked")
    parsed, checked_after = run("parse")
    assert parsed < alone * 1.1
    assert checked_after < alone * 1.1


VALID_DOCUMENTS = (
    "minms 1\nmachines 3\njob 0 3\njob 1 7/2\njob 2 5\n",
    "mintpt 1\ncapacity 2\njob 0 0 3 1\njob 1 1 4 1\njob 2 2 5 1\n",
)

replacement_tokens = st.one_of(
    st.text(max_size=8),
    st.text(alphabet="0123456789/", min_size=1, max_size=12),
    st.sampled_from(
        ["1e3", "1.5", "-1", "+2", "3/0", "0", "0/5", "7/2", "minms", "1" * 5000, "4" * 5000 + "/3"]
    ),
)


@st.composite
def mutated_documents(draw):
    """A valid document with tokens replaced and lines dropped, repeated or inserted."""
    lines = [line.split() for line in draw(st.sampled_from(VALID_DOCUMENTS)).splitlines()]
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(["token", "drop", "repeat", "insert"])) if lines else "insert"
        i = draw(st.integers(0, max(len(lines) - 1, 0)))
        if op == "token" and lines[i]:
            lines[i][draw(st.integers(0, len(lines[i]) - 1))] = draw(replacement_tokens)
        elif op == "drop":
            del lines[i]
        elif op == "repeat":
            lines.insert(i, list(lines[i]))
        else:
            lines.insert(i, [draw(st.text(max_size=20))])
    return "\n".join(" ".join(tokens) for tokens in lines) + "\n"


class TestParseFuzz:
    """parse_instance returns an instance or raises InstanceFormatError, nothing else.

    Fuzzed instances are only parsed, never solved: their horizons can be huge.
    """

    @settings(max_examples=300, deadline=None)
    @example("minms 1\nmachines 1\njob " + "1" * 5000 + " 3\n")
    @given(mutated_documents())
    def test_mutated_documents_parse_or_raise_format_error(self, text):
        try:
            result = parse_instance(text)
        except InstanceFormatError:
            return
        assert isinstance(result, (MinMsInstance, IntervalInstance))

    @pytest.mark.parametrize(
        "text",
        [
            "minms 1\nmachines " + "2" * 5000 + "\njob 0 3\n",
            "mintpt 1\ncapacity " + "2" * 5000 + "\njob 0 0 3 1\n",
            "minms 1\nmachines 1\njob 0 " + "3" * 5000 + "\n",
        ],
        ids=["machines", "capacity", "process-time"],
    )
    def test_long_numbers_report_their_line(self, text):
        with pytest.raises(InstanceFormatError, match="digits") as err:
            parse_instance(text)
        assert err.value.line in (2, 3)

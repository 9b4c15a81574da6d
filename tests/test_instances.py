"""Generators and the instance file format."""

import copy
import importlib.util
import os
import pickle
import random
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

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
from migsched import core, instances
from migsched.core import InstanceTooLargeError, as_time
from migsched.instances import _parse_int, load_instance

from helpers import first_primes, total_load


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
    # The reader keeps its rows, and the jobs it builds from them when asked
    # are IntervalJob's own, so with its jobs a parsed instance keeps what a
    # checked one keeps: the jobs and their rows. Jobs filled through a
    # __dict__ of their own cost about 65 more bytes each. Slots 0 and 1 are
    # cached small ints on both sides.
    n = 20000
    text = "mintpt 1\ncapacity 2\n" + "".join(f"job {i} 0 1 1\n" for i in range(n))

    def retained(build):
        tracemalloc.start()
        try:
            kept = build()  # held while the memory is read
            return tracemalloc.get_traced_memory()[0] if kept else 0
        finally:
            tracemalloc.stop()

    def parsed():
        instance = parse_instance(text)
        assert instance.jobs
        return instance

    checked = retained(lambda: IntervalInstance(tuple(IntervalJob(i, 0, 1) for i in range(n)), 2))
    assert retained(parsed) < checked * 1.1


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
    # The reader builds no Job, and its deferred jobs come from Job itself.
    # Jobs once filled through __dict__ kept a dict each, and every checked
    # Job built after them grew as well.
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


def reference_parse(text):
    """The line walk that read every document before the stride pass: each
    stripped, non-comment line checked in turn, and the instance built from
    the checked values. Kept as the oracle for parse_instance."""
    rows = [
        (i, row)
        for i, line in enumerate(text.splitlines(), 1)
        if (row := line.strip()) and not row.startswith("#")
    ]
    if not rows:
        raise InstanceFormatError("empty document")

    line, header = rows[0]
    tokens = header.split()
    if len(tokens) != 2 or tokens[0] not in ("minms", "mintpt"):
        raise InstanceFormatError("expected 'minms 1' or 'mintpt 1' header", line)
    if tokens[1] != "1":
        raise InstanceFormatError(f"unsupported format version {tokens[1]!r}", line)
    kind = tokens[0]

    if len(rows) < 2:
        raise InstanceFormatError("missing parameter line after header", line)
    line, param = rows[1]
    ptokens = param.split()
    expected = "machines" if kind == "minms" else "capacity"
    if len(ptokens) != 2 or ptokens[0] != expected:
        raise InstanceFormatError(f"expected '{expected} <int>', got {param!r}", line)
    param_value = _parse_int(ptokens[1], expected, line)

    minms = kind == "minms"
    usage = "job <id> <time>" if minms else "job <id> <start> <end> <demand>"
    size = len(usage.split())
    seen, memo, jobs, tokens_of = set(), {}, [], []
    for line, row in rows[2:]:
        tokens = row.split()
        if len(tokens) != size or tokens[0] != "job":
            raise InstanceFormatError(f"expected '{usage}', got {row!r}", line)
        job_id = _parse_int(tokens[1], "job id", line)
        if job_id in seen:
            raise InstanceFormatError(f"duplicate job id {job_id}", line)
        seen.add(job_id)
        if minms:
            token = tokens[2]
            time = memo.get(token)
            if time is None:
                try:
                    time = as_time(token)
                except ValueError as exc:
                    raise InstanceFormatError(str(exc), line) from exc
                if not time:
                    raise InstanceFormatError(f"job {job_id}: process time must be positive", line)
                memo[token] = time.numerator, time.denominator
            jobs.append(job_id)
            tokens_of.append(token)
        else:
            start = _parse_int(tokens[2], "start slot", line)
            end = _parse_int(tokens[3], "end slot", line)
            if tokens[4] != "1" or end <= start:
                try:
                    IntervalJob(job_id, start, end, _parse_int(tokens[4], "demand", line))
                except InvariantError as exc:
                    raise InstanceFormatError(str(exc), line) from exc
            jobs.append((job_id, start, end))
    try:
        if minms:  # the id column, the time-token column and the token memo of reduced pairs
            return MinMsInstance._trusted(jobs, tokens_of, memo, param_value)
        return IntervalInstance._trusted(jobs, param_value)
    except InvariantError as exc:
        raise InstanceFormatError(str(exc)) from exc


def assert_reads_as_the_reference(text):
    try:
        expected = reference_parse(text)
    except InstanceFormatError as exc:
        with pytest.raises(InstanceFormatError) as err:
            parse_instance(text)
        assert (str(err.value), err.value.line) == (str(exc), exc.line)
        return
    got = parse_instance(text)
    assert got == expected
    if isinstance(got, MinMsInstance):
        assert all(type(job.process_time) is Fraction for job in got.jobs)
    else:
        assert all(type(job) is IntervalJob and job.demand == 1 for job in got.jobs)


# Every line boundary of str.splitlines() but "\n". str.split() splits at
# each of them too, so a reader of tokens must not take them for spaces.
LINE_BREAKS = ("\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
# Whitespace that is no line boundary: "\x1f" and "\xa0" split tokens and are
# stripped, as a space is.
SPACES = (" ", " ", "  ", "\t", "\x1f", "\xa0")


@st.composite
def hostile_documents(draw):
    """An instance document, valid or nearly so, in the layouts a person or
    another tool may write: comment and blank lines, indentation, tabs and
    other whitespace, any line break, a record split across lines or two on
    one line, a stray or misspelt `job` token, and odd tokens in the fields."""
    minms = draw(st.booleans())
    param = draw(st.sampled_from(["1", "2", "3", "0", "02", "\u0663"]))
    lines = [["minms" if minms else "mintpt", "1"], ["machines" if minms else "capacity", param]]
    ids = draw(st.permutations(range(draw(st.integers(0, 6)))))
    odd_ints = ["01", "+1", "-1", "\u0663", "\u0661", "1" * 5000, "job"]
    odd_times = ["0", "0/4", "3/0", "1.5", "\u0663/2", "01", "+1", "9" * 5000, "job"]
    for k, job_id in enumerate(ids):
        if k and draw(st.integers(0, 11)) == 0:
            job_id = ids[draw(st.integers(0, k - 1))]
        if minms:
            fields = [str(job_id), draw(st.sampled_from(["3", "7/2", "14/4", "1", "5"]))]
        else:
            start = draw(st.integers(0, 4))
            end = start + draw(st.sampled_from([1, 2, 3] * 3 + [0, -1]))
            fields = [str(job_id), str(start), str(end), "1"]
        if draw(st.integers(0, 11)) == 0:
            i = draw(st.integers(0, len(fields) - 1))
            fields[i] = draw(st.sampled_from(odd_times if minms and i == 1 else odd_ints))
        keyword = "job" if draw(st.integers(0, 11)) else draw(st.sampled_from(["jobs", "Job", "jo"]))
        lines.append([keyword, *fields])
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):  # faults of the line layout
        i = draw(st.integers(0, len(lines) - 1))
        trap = draw(st.sampled_from(["split", "merge", "job last", "end comment"]))
        if trap == "split" and len(lines[i]) > 1:
            cut = draw(st.integers(1, len(lines[i]) - 1))
            lines[i : i + 1] = [lines[i][:cut], lines[i][cut:]]
        elif trap == "merge" and i + 1 < len(lines):
            lines[i : i + 2] = [lines[i] + lines[i + 1]]
        elif trap == "job last":
            lines[i] = lines[i] + ["job"]
        elif trap == "end comment":
            lines[i] = lines[i] + ["#note"]
    for _ in range(draw(st.integers(0, 3))):  # lines the rows leave out
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from([[], ["#", "note"]])))
    odd = draw(st.sampled_from(LINE_BREAKS))
    breaks = draw(st.sampled_from([("\n",), ("\n",), ("\n",) * 3 + (odd,), (odd,)]))
    margins = draw(st.sampled_from([("",), ("",), ("", "", " ", "\t", "\x1f", "\xa0")]))
    text = ""
    for tokens in lines:
        text += draw(st.sampled_from(margins))
        for k, token in enumerate(tokens):
            text += (draw(st.sampled_from(SPACES)) if k else "") + token
        text += draw(st.sampled_from(margins)) + draw(st.sampled_from(breaks))
    if draw(st.integers(0, 3)) == 0:
        text = text.rstrip("".join(LINE_BREAKS) + "\n")
    return text


class TestStrideReaderMatchesTheLineWalk:
    """parse_instance reads by column, on the raw text or on its stripped
    rows; its instances and errors, with their lines, are the line walk's."""

    @settings(max_examples=500, deadline=None)
    @example("# demo\n\nminms 1\nmachines 2\n  job 0 3\r\njob\t1 7/2 \n")  # valid, read by rows
    @example("minms 1\nmachines 2\njob 0 3 # three\n")  # '#' inside a row
    @example("minms\x1c1\nmachines 1\njob 0 3\n")  # str.split() reads one line, splitlines two
    @example("minms 1\x85machines 1\x85job 0 3\x85")  # valid, split by "\x85" alone
    @example("minms 1\nmachines 1\njob 0\n3 job 1 4\n")  # a record across two lines
    @example("minms 1\nmachines 1\njob 0 3\njob\n1 4\n")  # a record across two lines
    @example("minms 1\nmachines 1\njob 0\n 3\njob 1 4\n")  # an indented line inside a record
    @example("minms 1\nmachines 1\njob 0 3 job\njobs 4\n")  # `job` as a line's last token
    @example("minms 1\nmachines 1\njob 0 3 job 1 4\n")  # two records on one line
    @example("minms 1\nmachines 1\n\njob 0 3 job 1 4\njob 2 5\n")  # ... after a blank line
    @example("minms 1\nmachines 1\njob 0 3\njob 1 4 job\n")  # `job` as the last token
    @example("minms 1\nmachines 1 job 0 3\n")  # a record on the parameter line
    @example("minms 1\nmachines 1\njob 0 3\njobs 1 4\n")  # a misspelt `job`
    @example("minms 1\nmachines 2\njob 0 3\njob 0 4\n")  # a repeated id
    @example("minms 1\nmachines 2\njob 0 3\njob 1 0/7\n")  # a zero time
    @example("minms 1\nmachines 2\njob 0 3\njob 1 1.5\n")  # a malformed time
    @example("mintpt 1\ncapacity 2\njob 0 3 3 1\n")  # end <= start
    @example("minms 1\nmachines 0\njob 0 3\n")  # zero machines, after the jobs
    @example("mintpt 1\ncapacity 0\njob 0 0 3 1\n")  # zero capacity, after the jobs
    @example("minms 1\nmachines 1\n")  # no minms job
    @example("minms 1\nmachines 1\njob " + "1" * 5000 + " 3\n")  # past the digit limit
    @example("mintpt 1\ncapacity 2\njob 0 0 3 01\njob 1 1 2 \u0661\n")  # demands 01 and \u0661
    @example("minms 1\nmachines \u0663\njob \u0663 \u0663/2\n")  # \u0663 digits in every number
    @example("mintpt 1\ncapacity 2\n")  # zero mintpt jobs
    @example("mintpt 1\ncapacity 2")  # zero mintpt jobs, no final line break
    @given(hostile_documents())
    def test_same_instance_or_same_error(self, text):
        assert_reads_as_the_reference(text)

    @pytest.mark.parametrize("brk", LINE_BREAKS, ids=[b.encode("unicode_escape").decode() for b in LINE_BREAKS])
    def test_every_line_break_reads_as_the_line_walk_reads_it(self, brk):
        for text in (
            f"minms{brk}1\nmachines 1\njob 0 3\n",
            f"minms 1{brk}machines 1{brk}job 0 3{brk}job 1 7/2{brk}",
            f"mintpt 1\ncapacity 2\njob 0 0{brk}3 1\n",
        ):
            assert_reads_as_the_reference(text)


@pytest.fixture(scope="module")
def perfbench_workloads():
    """perfbench's workload definitions, loaded from its source file."""
    path = Path(__file__).parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(sys.modules, {spec.name: module}):  # dataclasses look their module up
        spec.loader.exec_module(module)
    return module.WORKLOADS


canonical_instances = st.one_of(
    st.builds(
        gen_random_minms,
        st.integers(1, 60),
        st.integers(1, 12),
        st.tuples(st.integers(1, 5), st.integers(5, 10**6)),
        st.integers(0, 2**32),
    ),
    st.builds(gen_random_mintpt, st.integers(1, 60), st.integers(1, 10**6), st.integers(1, 5), st.integers(0, 2**32)),
    st.builds(gen_graham_worst_case, st.integers(2, 40)),
    st.builds(
        lambda times, m: MinMsInstance(tuple(Job(i, t) for i, t in enumerate(times)), m),
        st.lists(st.fractions(min_value=Fraction(1, 10**9), max_denominator=10**9), min_size=1, max_size=30),
        st.integers(1, 12),
    ),
)


class TestCanonicalDocumentsNeverReachTheWalk:
    """A stride pass that declines a document costs the rows and a second
    pass, which no correctness test sees: canonical documents are read by
    the first pass, on the raw text."""

    @staticmethod
    def read_by_the_first_pass(text):
        walk = mock.patch.object(instances, "_raise_first_error", side_effect=AssertionError("walk reached"))
        with walk, mock.patch.object(instances, "_stride", wraps=instances._stride) as stride:
            instance = parse_instance(text)
        assert stride.call_count == 1
        return instance

    @settings(max_examples=150, deadline=None)
    @given(canonical_instances)
    def test_serialized_instances(self, instance):
        assert self.read_by_the_first_pass(serialize_instance(instance)) == instance

    @pytest.mark.parametrize("workload", ["minms-balance", "mintpt-sweep", "oracle-sweep"])
    def test_perfbench_documents(self, workload, perfbench_workloads):
        first_of_each_kind = {}
        for instance in perfbench_workloads[workload].instances(seed=1):
            first_of_each_kind.setdefault(instance.kind, instance.text)
        for text in first_of_each_kind.values():
            assert self.read_by_the_first_pass(text) == reference_parse(text)


@pytest.mark.parametrize("kind", ["minms", "mintpt"])
def test_stride_reader_peaks_within_the_line_walk(kind):
    # The stride pass holds every token of the file at once; the line walk
    # held every row. Rational times, as perfbench writes them.
    rng = random.Random(5)
    if kind == "minms":
        times = [Fraction(rng.randint(1, 100), rng.randint(1, 6)) for _ in range(50_000)]
        instance = MinMsInstance(tuple(Job(i, t) for i, t in enumerate(times)), 10)
    else:
        instance = gen_random_mintpt(50_000, 150, 4, seed=5)
    text = serialize_instance(instance)

    def peak(read):
        tracemalloc.start()
        try:
            read(text)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(parse_instance) < 1.15 * peak(reference_parse)


# Time tokens the stride pass reads: repeats, equal values written apart
# ("1/2" and "2/4", "3" and "03", "1" and Arabic-Indic "1"), and numbers past
# float range.
TIME_TOKENS = (
    "1", "3", "03", "\u0661", "\u0663/\u0666", "1/2", "2/4", "7/2", "14/4",
    "9" * 400, "1" + "0" * 400 + "/3", "5/" + "7" * 300,
)


@st.composite
def stride_documents(draw):
    """A minms document the stride pass reads (the second pass when it has a
    comment line), with its machine count, job ids and time tokens."""
    ids = draw(st.permutations(range(draw(st.integers(1, 8)))))
    tokens = [draw(st.sampled_from(TIME_TOKENS)) for _ in ids]
    machines = draw(st.integers(1, 5))
    lines = ["minms 1", f"machines {machines}"] + [f"job {i} {t}" for i, t in zip(ids, tokens)]
    if draw(st.booleans()):
        lines.insert(draw(st.integers(1, len(lines))), "# a comment")
    return "\n".join(lines) + "\n", machines, list(ids), tokens


@settings(max_examples=200, deadline=None)
@given(stride_documents())
def test_a_read_instance_is_the_checked_one_with_one_time_object_per_token(document):
    text, machines, ids, tokens = document
    got = parse_instance(text)
    assert "jobs" not in vars(got)
    view = got.ticks
    checked = MinMsInstance(tuple(Job(i, as_time(t)) for i, t in zip(ids, tokens)), machines)
    expected = checked.ticks
    assert (view.unit, view.total) == (expected.unit, expected.total)
    assert list(view.sizes.items()) == list(expected.sizes.items())
    assert list(view.times.items()) == list(expected.times.items())
    # The memo's one object per token: jobs of a token share it, and no two
    # tokens do, also where their values are equal.
    of_token = {}
    for job_id, token in zip(ids, tokens):
        assert of_token.setdefault(token, view.times[job_id]) is view.times[job_id]
    assert len(set(map(id, of_token.values()))) == len(of_token)
    assert "jobs" not in vars(got)
    assert (got, hash(got), repr(got)) == (checked, hash(checked), repr(checked))
    assert got.jobs is got.jobs  # built once, then kept
    assert [job.process_time for job in got.jobs] == [view.times[i] for i in ids]
    assert serialize_instance(got) == serialize_instance(checked)


def test_the_jobs_of_a_read_instance_are_built_from_its_view_alone():
    # The view of a minms instance, the rows of a mintpt one.
    for text, kind, source in (
        ("minms 1\nmachines 2\njob 3 7/2\njob 1 3\njob 2 7/2\n", MinMsInstance, "ticks"),
        ("mintpt 1\ncapacity 2\njob 3 1 4 1\njob 1 0 2 1\njob 2 1 4 1\n", IntervalInstance, "rows"),
    ):
        got = parse_instance(text)
        # Pickled before its jobs exist, it builds them after unpickling.
        assert pickle.loads(pickle.dumps(got)) == got
        assert copy.deepcopy(got) == got
        assert [job.id for job in got.jobs] == [3, 1, 2]
        bare = object.__new__(kind)  # no jobs and no view: no recursion
        for name in ("jobs", source, "__setstate__"):
            with pytest.raises(AttributeError):
                getattr(bare, name)


# Ways to write an id or slot the stride pass reads as its int: plain, with a
# leading zero, and in Arabic-Indic digits.
ARABIC_INDIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))
SLOT_SPELLINGS = (str, "0{}".format, lambda n: str(n).translate(ARABIC_INDIC))


@st.composite
def interval_stride_documents(draw):
    """A mintpt document the stride pass reads (the second pass when it has a
    comment line), with its capacity and (id, start, end) rows."""
    rows = []
    for job_id in draw(st.permutations(range(draw(st.integers(0, 8))))):
        start = draw(st.integers(0, 12))
        rows.append((job_id, start, start + draw(st.integers(1, 6))))
    capacity = draw(st.integers(1, 4))
    lines = ["mintpt 1", f"capacity {capacity}"]
    for row in rows:
        lines.append("job " + " ".join(draw(st.sampled_from(SLOT_SPELLINGS))(n) for n in row) + " 1")
    if draw(st.booleans()):
        lines.insert(draw(st.integers(1, len(lines))), "# a comment")
    return "\n".join(lines) + "\n", capacity, rows


@settings(max_examples=200, deadline=None)
@given(interval_stride_documents())
def test_a_read_interval_instance_keeps_its_rows_and_builds_the_checked_jobs(document):
    text, capacity, rows = document
    got = parse_instance(text)
    assert "jobs" not in vars(got)
    checked = IntervalInstance(tuple(IntervalJob(*row) for row in rows), capacity)
    assert got.rows == checked.rows == tuple(rows)
    assert all(type(value) is int for row in got.rows for value in row)
    assert (got.horizon, got.capacity) == (checked.horizon, checked.capacity)
    assert "jobs" not in vars(got)
    assert (got, hash(got), repr(got)) == (checked, hash(checked), repr(checked))
    assert got.jobs is got.jobs  # built once, then kept
    assert serialize_instance(got) == serialize_instance(checked)


@pytest.mark.parametrize("comment", ["", "# a comment\n"], ids=["first-pass", "second-pass"])
def test_a_file_past_the_tick_budget_is_refused_while_it_is_read(comment):
    # The document of the CLI's budget test: 10,000 jobs of 1/p, one distinct
    # prime each. Whichever pass reads it, the view's refusal is the error.
    text = "minms 1\nmachines 2\n" + comment
    text += "".join(f"job {i} 1/{p}\n" for i, p in enumerate(first_primes(10_000)))
    message = (
        f"the tick counts of 10000 jobs exceed the budget of {core.MAX_TICK_BITS} bits "
        "(jobs x bits of the tick unit)"
    )
    with pytest.raises(InstanceTooLargeError) as err:
        parse_instance(text)
    assert str(err.value) == message

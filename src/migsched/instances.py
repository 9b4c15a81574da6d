"""Instance generators and the line-based instance file format.

The file format is a plain UTF-8, line-delimited document with a leading
format tag, human-diffable and exact (rationals are "num/den" strings, never
floats). Canonical form round-trips byte-identically:

    minms 1                     mintpt 1
    machines 2                  capacity 3
    job 0 3                     job 0 0 3 1
    job 1 7/2                   job 1 0 2 1

Blank lines and '#' comment lines are accepted on input and never emitted.

Documents are read by one stride pass, which splits them into tokens once and
reads the tokens by column (see parse_instance).
"""

from __future__ import annotations

import operator
import random
from pathlib import Path
from typing import NoReturn

from .core import InvariantError, Job, MinMsInstance, _time_terms
from .mintpt import IntervalInstance, IntervalJob

__all__ = [
    "FORMAT_VERSION",
    "InstanceFormatError",
    "gen_graham_worst_case",
    "gen_random_minms",
    "gen_random_mintpt",
    "parse_instance",
    "serialize_instance",
    "load_instance",
]

FORMAT_VERSION = 1


class InstanceFormatError(ValueError):
    """Malformed instance document; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


def gen_graham_worst_case(m: int) -> MinMsInstance:
    """Adversarial family for the longest-first greedy on m >= 2 machines.

    2m+1 jobs: three of size m, then pairs of sizes m+1 .. 2m-1. Total load
    3m^2, so the balanced optimum is 3m, while the greedy ends at 4m-1.
    """
    if not isinstance(m, int) or m < 2:
        raise ValueError(f"the adversarial family needs m >= 2, got {m!r}")
    sizes = [m, m, m]
    for k in range(1, m):
        sizes += [m + k, m + k]
    return MinMsInstance(tuple(Job(i, p) for i, p in enumerate(sizes)), m)


def gen_random_minms(
    n: int, m: int, p_range: tuple[int, int] = (1, 20), seed: int = 0
) -> MinMsInstance:
    """Reproducible instance with integer process times uniform in p_range."""
    if n < 1 or m < 1:
        raise ValueError("need at least one job and one machine")
    lo, hi = p_range
    if lo < 1 or lo > hi:
        raise ValueError(f"empty or invalid process-time range {p_range!r}")
    rng = random.Random(seed)
    jobs = tuple(Job(i, rng.randint(lo, hi)) for i in range(n))
    return MinMsInstance(jobs, m)


def gen_random_mintpt(n: int, horizon: int, capacity: int, seed: int = 0) -> IntervalInstance:
    """Reproducible unit-demand interval jobs with 0 <= start < end <= horizon."""
    if n < 1 or horizon < 1:
        raise ValueError("need at least one job and one slot")
    rng = random.Random(seed)
    jobs = []
    for i in range(n):
        start = rng.randint(0, horizon - 1)
        end = rng.randint(start + 1, horizon)
        jobs.append(IntervalJob(i, start, end))
    return IntervalInstance(tuple(jobs), capacity)


def _parse_int(token: str, what: str, line: int) -> int:
    if not token.isdecimal():
        raise InstanceFormatError(f"{what} must be a non-negative integer, got {token!r}", line)
    try:
        return int(token)
    except ValueError as exc:  # more digits than int() converts
        raise InstanceFormatError(f"{what}: {exc}", line) from exc


def parse_instance(text: str) -> MinMsInstance | IntervalInstance:
    """Parse an instance document; raises InstanceFormatError with the line.

    One reader, the stride pass, builds every instance. It runs on the raw
    text, which is enough for a document written one record per line with no
    comment, such as every serialized instance. If it declines, it runs again
    on the document's rows, each line stripped, with blank and comment lines
    dropped, joined by "\n": that reads indented, commented, blank-line and
    CRLF files. A document that both passes decline is malformed, and the
    walk over its rows raises the first error, with its line. A `minms`
    file past the tick budget raises InstanceTooLargeError while it is read.
    """
    instance = _stride(text)
    if instance is None:
        # The rows are built again for the walk, not held through the pass.
        instance = _stride("\n".join(row for _, row in _rows(text)))
        if instance is None:
            _raise_first_error(_rows(text))
    return instance


def _rows(text: str) -> list[tuple[int, str]]:
    """(line number, stripped line) of each line that is not blank or a comment."""
    return [
        (i, row)
        for i, line in enumerate(text.splitlines(), 1)
        if (row := line.strip()) and not row.startswith("#")
    ]


# The comment mark and every line boundary of str.splitlines() but "\n". The
# stride pass declines text holding any of them: str.split() reads
# "minms\x1c1" as two tokens of one line, while the rows are two lines.
_DECLINE = ("#", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


def _stride(text: str) -> MinMsInstance | IntervalInstance | None:
    """The instance of `text`, or None where the document's rows must be read.

    The header and the parameter line are the first two lines. The body after
    them is split into tokens once, and record k is the w tokens from 4 + k*w
    (w is 3 for minms, 5 for mintpt), read by column. The records are the
    body's lines when every w-th token is "job", the body starts with "job",
    and it holds one "\n" per record, the last record's optional, each one
    but a final one followed by "job": no field token that passes its check
    starts with "j", so the tokens that start those lines are the records'.

    It declines, rather than guess, on any mark of _DECLINE, on any other
    layout, and on any value the walk refuses: a repeated id, a zero or
    malformed time, end <= start, a demand other than 1 (`01` and `١` are 1),
    a zero machine count or capacity, no minms job, or an int past the digit
    limit. Each distinct time token is converted once, to the reduced
    (numerator, denominator) pair of `as_time`'s grammar; no `Fraction` is made.
    """
    if any(mark in text for mark in _DECLINE):
        return None
    end1 = text.find("\n")
    if end1 < 0:
        return None
    end2 = text.find("\n", end1 + 1)
    if end2 < 0:
        end2 = len(text)
    header, param = text[:end1].split(), text[end1 + 1 : end2].split()
    if len(header) != 2 or header[1] != str(FORMAT_VERSION) or len(param) != 2:
        return None
    minms = header[0] == "minms"
    if not minms and header[0] != "mintpt":
        return None
    w = 3 if minms else 5
    if param[0] != ("machines" if minms else "capacity") or not param[1].isdecimal():
        return None
    tokens = text.split()
    rows, extra = divmod(len(tokens) - 4, w)
    body = end2 + 1
    if extra or tokens[4::w].count("job") != rows or (minms and not rows):
        return None
    if rows and not (
        text.startswith("job", body)
        and text.count("\n", body) == rows - 1 + text.endswith("\n")
        and text.count("\njob", body) == rows - 1
    ):
        return None
    ids = tokens[5::w]
    if not all(map(str.isdecimal, ids)):
        return None
    try:
        count = int(param[1])
        ids = list(map(int, ids))
        if minms:
            times = tokens[6::3]
            del tokens  # the view reads the time column and its memo, and keeps neither
            memo = {token: _time_terms(token) for token in set(times)}
        else:
            starts, ends, demands = tokens[6::5], tokens[7::5], tokens[8::5]
            del tokens
            if not (all(map(str.isdecimal, starts)) and all(map(str.isdecimal, ends))):
                return None
            starts, ends = list(map(int, starts)), list(map(int, ends))
            if demands.count("1") != rows and not all(d.isdecimal() and int(d) == 1 for d in demands):
                return None
    except ValueError:  # a malformed time, or more digits than int() converts
        return None
    if not count or len(set(ids)) != rows:
        return None
    if minms:
        if not all(num for num, _ in memo.values()):
            return None
        # Past the handler: the tick budget's error is a ValueError to raise.
        return MinMsInstance._trusted(ids, times, memo, count)
    if not all(map(operator.lt, starts, ends)):
        return None
    return IntervalInstance._trusted(tuple(zip(ids, starts, ends)), count)


def _raise_first_error(rows: list[tuple[int, str]]) -> NoReturn:
    """Raise the first error of the rows of a document the stride pass
    declined, with its line: the header, the parameter line, then each job
    row's shape, id, duplicate id and its kind's fields, in that order, and
    last the instance's shape, which has no line. Builds no instance."""
    if not rows:
        raise InstanceFormatError("empty document")

    line, header = rows[0]
    tokens = header.split()
    if len(tokens) != 2 or tokens[0] not in ("minms", "mintpt"):
        raise InstanceFormatError(f"expected 'minms {FORMAT_VERSION}' or 'mintpt {FORMAT_VERSION}' header", line)
    if tokens[1] != str(FORMAT_VERSION):
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
    seen: set[int] = set()
    for line, row in rows[2:]:
        tokens = row.split()
        if len(tokens) != size or tokens[0] != "job":
            raise InstanceFormatError(f"expected '{usage}', got {row!r}", line)
        job_id = _parse_int(tokens[1], "job id", line)
        if job_id in seen:
            raise InstanceFormatError(f"duplicate job id {job_id}", line)
        seen.add(job_id)
        if minms:
            try:
                Job(job_id, tokens[2])
            except ValueError as exc:  # InvariantError included
                raise InstanceFormatError(str(exc), line) from exc
        else:
            start = _parse_int(tokens[2], "start slot", line)
            end = _parse_int(tokens[3], "end slot", line)
            try:
                IntervalJob(job_id, start, end, _parse_int(tokens[4], "demand", line))
            except InvariantError as exc:
                raise InstanceFormatError(str(exc), line) from exc
    try:
        if minms:
            MinMsInstance._check_shape(seen, param_value)
        else:
            IntervalInstance._check_capacity(param_value)
    except InvariantError as exc:
        raise InstanceFormatError(str(exc)) from exc
    raise AssertionError("the stride pass declined a valid instance document")


def serialize_instance(instance: MinMsInstance | IntervalInstance) -> str:
    """Canonical text form; parse(serialize(x)) == x and bytes round-trip."""
    if isinstance(instance, MinMsInstance):
        lines = [f"minms {FORMAT_VERSION}", f"machines {instance.machine_count}"]
        lines += [f"job {j.id} {j.process_time}" for j in instance.jobs]
    elif isinstance(instance, IntervalInstance):
        lines = [f"mintpt {FORMAT_VERSION}", f"capacity {instance.capacity}"]
        lines += [f"job {i} {s} {e} 1" for i, s, e in instance.rows]  # every demand is 1
    else:
        raise TypeError(f"cannot serialize {type(instance).__name__}")
    return "\n".join(lines) + "\n"


def load_instance(path: str | Path) -> MinMsInstance | IntervalInstance:
    """parse_instance of the UTF-8 file at `path`, with its errors."""
    return parse_instance(Path(path).read_text(encoding="utf-8"))

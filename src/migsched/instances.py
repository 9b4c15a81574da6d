"""Instance generators and the line-based instance file format.

The file format is a plain UTF-8, line-delimited document with a leading
format tag, human-diffable and exact (rationals are "num/den" strings, never
floats). Canonical form round-trips byte-identically:

    minms 1                     mintpt 1
    machines 2                  capacity 3
    job 0 3                     job 0 0 3 1
    job 1 7/2                   job 1 0 2 1

Blank lines and '#' comment lines are accepted on input and never emitted.
"""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

from .core import InvariantError, Job, MinMsInstance, as_time
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
    """Parse an instance document; raises InstanceFormatError with the line."""
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

    # One loop for both kinds: shape, id, duplicate id, then the kind's fields.
    # Each distinct `minms` time token is read once, so a memo hit is a positive
    # time; a `mintpt` line that is not unit demand with end > start gets its
    # error from `IntervalJob`. `_trusted` then skips the checks made here.
    minms = kind == "minms"
    usage = "job <id> <time>" if minms else "job <id> <start> <end> <demand>"
    size = len(usage.split())
    seen: set[int] = set()
    memo: dict[str, Fraction] = {}
    jobs: list[tuple] = []
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
                memo[token] = time
            jobs.append((job_id, time))
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
        return (MinMsInstance if minms else IntervalInstance)._trusted(jobs, param_value)
    except InvariantError as exc:
        raise InstanceFormatError(str(exc)) from exc


def serialize_instance(instance: MinMsInstance | IntervalInstance) -> str:
    """Canonical text form; parse(serialize(x)) == x and bytes round-trip."""
    if isinstance(instance, MinMsInstance):
        lines = [f"minms {FORMAT_VERSION}", f"machines {instance.machine_count}"]
        lines += [f"job {j.id} {j.process_time}" for j in instance.jobs]
    elif isinstance(instance, IntervalInstance):
        lines = [f"mintpt {FORMAT_VERSION}", f"capacity {instance.capacity}"]
        lines += [f"job {j.id} {j.start_slot} {j.end_slot} {j.demand}" for j in instance.jobs]
    else:
        raise TypeError(f"cannot serialize {type(instance).__name__}")
    return "\n".join(lines) + "\n"


def load_instance(path: str | Path) -> MinMsInstance | IntervalInstance:
    return parse_instance(Path(path).read_text(encoding="utf-8"))

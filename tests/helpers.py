"""Helpers shared by several test modules."""

from migsched import IntervalInstance, IntervalJob, Job, MinMsInstance

# The whole state of a minms tick view: tick counts, no time objects.
VIEW_STATE = ["sizes", "total", "unit"]


def total_load(instance):
    """The exact sum of an instance's process times, read from its ticks."""
    return instance.ticks.time(instance.ticks.total)


def make_instance(sizes, m):
    return MinMsInstance(tuple(Job(i, p) for i, p in enumerate(sizes)), m)


def first_primes(n):
    """The first n primes (n up to 11,300)."""
    sieve = bytearray([1]) * 120_000
    sieve[:2] = b"\0\0"
    for i in range(2, 347):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(sieve[i * i::i]))
    return [p for p in range(len(sieve)) if sieve[p]][:n]


def interval_length(intervals):
    """Sum of the intervals' lengths, overlaps counted multiply."""
    return sum(t - s for s, t in intervals)


def four_job_instance():
    """Four unit jobs on capacity 3: the slot floor is [1, 2, 1]."""
    return IntervalInstance(
        (IntervalJob(0, 0, 3), IntervalJob(1, 0, 2), IntervalJob(2, 1, 3), IntervalJob(3, 0, 3)),
        3,
    )

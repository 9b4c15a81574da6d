"""Helpers shared by several test modules."""

from migsched import IntervalInstance, IntervalJob, Job, MinMsInstance


def total_load(instance):
    """The exact sum of an instance's process times, read from its ticks."""
    return instance.ticks.time(instance.ticks.total)


def make_instance(sizes, m):
    return MinMsInstance(tuple(Job(i, p) for i, p in enumerate(sizes)), m)


def interval_length(intervals):
    """Sum of the intervals' lengths, overlaps counted multiply."""
    return sum(t - s for s, t in intervals)


def four_job_instance():
    """Four unit jobs on capacity 3: the slot floor is [1, 2, 1]."""
    return IntervalInstance(
        (IntervalJob(0, 0, 3), IntervalJob(1, 0, 2), IntervalJob(2, 1, 3), IntervalJob(3, 0, 3)),
        3,
    )

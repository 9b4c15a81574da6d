"""Exhaustive exact solvers on small instances.

These are the ground truth that the approximation and optimality claims are
measured against. Both searches are deterministic, refuse instances with
more jobs than their gate (`max_jobs`; their cost grows with the job count
alone) or than SEARCH_MAX_JOBS (their recursion depth is the job count),
and are written independently of the production solvers, so a bug in a
solver cannot leak into the oracle that checks it: exact_minms seeds
its bound with its own greedy, and exact_mintpt has no separate seed, since
its first leaf is already first fit by start time; it stops at a floor that
it computes from its own interval pieces, not from mintpt_lower_bound.
exact_minms searches the instance's integer tick sizes (core.TickView), the
same view the solvers read; it has no scaling of its own.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction

from .core import InstanceTooLargeError, MinMsInstance
from .mintpt import IntervalInstance

__all__ = [
    "InstanceTooLargeError",
    "MINMS_MAX_JOBS",
    "MINTPT_MAX_JOBS",
    "SEARCH_MAX_JOBS",
    "exact_minms",
    "exact_mintpt",
]

# Default job gates.
MINMS_MAX_JOBS = 10
MINTPT_MAX_JOBS = 8
# Both searches recurse once per job, so above this many jobs they refuse
# whatever their gate: a raised gate must not reach the interpreter's
# recursion limit (1000 frames by default).
SEARCH_MAX_JOBS = 500


def _refuse_above(n: int, max_jobs: int) -> None:
    limit = min(max_jobs, SEARCH_MAX_JOBS)
    if n > limit:
        raise InstanceTooLargeError(f"{n} jobs exceed the oracle limit of {limit}")


def exact_minms(instance: MinMsInstance, max_jobs: int = MINMS_MAX_JOBS) -> Fraction:
    """Minimum makespan over all whole-job assignments, by branch and bound.

    Jobs are placed in non-increasing size order; identical intermediate
    loads are explored once (machine symmetry), and branches that already
    match the best known makespan are cut. Only min(m, n) machines are
    searched: n jobs load at most n identical machines, so the optimum is the
    same and nothing grows with the machine count. The search runs on the
    instance's integer tick sizes, so all comparisons stay exact.
    """
    n = len(instance.jobs)
    _refuse_above(n, max_jobs)
    m = min(instance.machine_count, n)

    sizes = sorted(instance.ticks.sizes.values(), reverse=True)

    # Self-contained greedy (largest job to least-loaded machine) seeds the
    # upper bound with an achievable makespan.
    heap = [(0, i) for i in range(m)]
    for size in sizes:
        load, i = heapq.heappop(heap)
        heapq.heappush(heap, (load + size, i))
    best = max(load for load, _ in heap)

    loads = [0] * m

    def place(k: int) -> None:
        nonlocal best
        if k == n:
            best = min(best, max(loads))
            return
        size = sizes[k]
        for i in range(m):
            load = loads[i]
            # An earlier machine of equal load was tried, or cut (best never rises).
            if load + size >= best or loads.index(load) < i:
                continue
            loads[i] = load + size
            place(k + 1)
            loads[i] = load

    place(0)
    return instance.ticks.time(best)


def exact_mintpt(instance: IntervalInstance, max_jobs: int = MINTPT_MAX_JOBS) -> int:
    """Minimum total power-on time over all non-migratory assignments.

    Enumerates job-to-machine assignments (each job keeps one machine for its
    whole interval), jobs in start order, with machine-index symmetry
    breaking: a job may only open the next unused machine. The jobs' start
    and end slots cut time into at most 2n-1 pieces; each machine keeps a job
    count per piece, capacity g holds per piece, and a job costs the widths
    of its pieces where its machine is idle. Branches at or above the best
    total are cut; the first leaf reached is first fit by start time. The
    search stops at the first leaf that equals the floor, the sum over pieces
    of ceil(jobs in the piece / g) x width, computed here from the same
    pieces.
    """
    n = len(instance.jobs)
    _refuse_above(n, max_jobs)

    g = instance.capacity
    jobs = sorted(instance.jobs, key=lambda j: (j.start_slot, j.id))
    cuts = sorted({slot for job in jobs for slot in job.interval})
    widths = [t - s for s, t in zip(cuts, cuts[1:])]
    piece = {slot: p for p, slot in enumerate(cuts)}
    spans = [range(piece[job.start_slot], piece[job.end_slot]) for job in jobs]
    counts = [[0] * len(widths) for _ in range(n)]
    # The floor: a piece with L jobs keeps at least ceil(L / g) machines on.
    # No assignment costs less, so a leaf that reaches it ends the search.
    active = [0] * len(widths)
    for span in spans:
        for p in span:
            active[p] += 1
    floor = sum(-(-a // g) * width for a, width in zip(active, widths))
    # No seed: the first leaf is always reached (at once when n is 0) and replaces it.
    best = math.inf

    def place(k: int, used: int, cost: int) -> None:
        nonlocal best
        if k == n:
            best = cost  # a leaf is reached only below the best so far
            return
        span = spans[k]
        for i in range(used + 1):
            count = counts[i]
            total = cost
            for p in span:
                if count[p] >= g:
                    break
                if not count[p]:
                    total += widths[p]
            else:  # machine i has room in every piece of the job
                if total < best:
                    for p in span:
                        count[p] += 1
                    place(k + 1, max(used, i + 1), total)
                    for p in span:
                        count[p] -= 1
                    if best == floor:
                        return

    place(0, 0, 0)
    return best

"""Exhaustive exact solvers on small instances.

These are the ground truth that the approximation and optimality claims are
measured against. Each returns an optimal witness built through the public
schedule constructor, one whole segment or stint per job, so its objective
is measured, not restated. Both searches are deterministic, refuse
instances with more jobs than their gate (`max_jobs`; their cost grows with
the job count alone) or than SEARCH_MAX_JOBS (their recursion depth is the
job count), and are written independently of the production solvers, so a
bug in a solver cannot leak into the oracle that checks it: exact_minms
seeds its bound and witness with its own greedy, and exact_mintpt has no
separate seed, since its first leaf is already first fit by start time; it
stops at a floor that it computes from its own interval pieces, not from
mintpt_lower_bound. exact_minms searches the instance's integer tick sizes
(core.TickView), the same view the solvers read; it has no scaling of its own,
and its witness gives each job the private whole-job amount `core._WHOLE`,
so the construction check still runs and no time object is built.
"""

from __future__ import annotations

import heapq
import math
import operator

from .core import _WHOLE, InstanceTooLargeError, MigrationSchedule, MinMsInstance
from .mintpt import IntervalInstance, IntervalSchedule

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


def exact_minms(instance: MinMsInstance, max_jobs: int = MINMS_MAX_JOBS) -> MigrationSchedule:
    """A minimum-makespan whole-job assignment, by branch and bound.

    Jobs are placed in non-increasing size order, ties in instance order;
    identical intermediate loads are explored once (machine symmetry), and
    branches that already match the best known makespan are cut. Only
    min(m, n) machines are searched: n jobs load at most n identical
    machines, so the optimum is the same and nothing grows with the machine
    count. The search runs on the instance's integer tick sizes, so all
    comparisons stay exact. Each job's segment holds its whole process time.
    """
    view = instance.ticks
    n = len(view.sizes)
    _refuse_above(n, max_jobs)
    m = min(instance.machine_count, n)

    order, sizes = zip(*sorted(view.sizes.items(), key=lambda item: -item[1]))

    # Self-contained greedy (largest job to least-loaded machine) seeds the
    # upper bound and the witness with an achievable assignment.
    heap = [(0, i) for i in range(m)]
    machine = []  # per job in search order: its machine on the current branch
    for size in sizes:
        load, i = heapq.heappop(heap)
        heapq.heappush(heap, (load + size, i))
        machine.append(i)
    best, witness = max(load for load, _ in heap), machine[:]

    loads = [0] * m

    def place(k: int) -> None:
        nonlocal best, witness
        if k == n:
            if (peak := max(loads)) < best:
                best, witness = peak, machine[:]
            return
        size = sizes[k]
        for i in range(m):
            load = loads[i]
            # An earlier machine of equal load was tried, or cut (best never rises).
            if load + size >= best or loads.index(load) < i:
                continue
            loads[i] = load + size
            machine[k] = i
            place(k + 1)
            loads[i] = load

    place(0)
    return MigrationSchedule(instance, [(j, i, _WHOLE) for j, i in zip(order, witness)])


def exact_mintpt(instance: IntervalInstance, max_jobs: int = MINTPT_MAX_JOBS) -> IntervalSchedule:
    """A non-migratory assignment of minimum total power-on time.

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
    n = len(instance.rows)
    _refuse_above(n, max_jobs)

    g = instance.capacity
    jobs = sorted(instance.rows, key=operator.itemgetter(1, 0))
    cuts = sorted({slot for _, start, end in jobs for slot in (start, end)})
    widths = [t - s for s, t in zip(cuts, cuts[1:])]
    piece = {slot: p for p, slot in enumerate(cuts)}
    spans = [range(piece[start], piece[end]) for _, start, end in jobs]
    counts = [[0] * len(widths) for _ in range(n)]
    # The floor: a piece with L jobs keeps at least ceil(L / g) machines on.
    # No assignment costs less, so a leaf that reaches it ends the search.
    active = [0] * len(widths)
    for span in spans:
        for p in span:
            active[p] += 1
    floor = sum(-(-a // g) * width for a, width in zip(active, widths))
    # No seed: the first leaf is always reached (at once when n is 0) and replaces both.
    best, witness = math.inf, []
    machine = [0] * n  # per job in `jobs` order: its machine on the current branch

    def place(k: int, used: int, cost: int) -> None:
        nonlocal best, witness
        if k == n:
            best, witness = cost, machine[:]  # a leaf is reached only below the best so far
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
                    machine[k] = i
                    place(k + 1, max(used, i + 1), total)
                    for p in span:
                        count[p] -= 1
                    if best == floor:
                        return

    place(0, 0, 0)
    stints = [(job_id, i, start, end) for (job_id, start, end), i in zip(jobs, witness)]
    return IntervalSchedule(instance, stints)

"""Migration-based scheduling.

Two problems, one idea: compute the ideal objective value up front, then let
load (or jobs) migrate between machines until the schedule meets it exactly.

  - Load balancing on identical machines: the balanced optimum is total work
    divided by machine count; splitting jobs and migrating the pieces reaches
    it exactly (pam_schedule), while the classical whole-job greedy
    (lpt_schedule) can be a factor (4m-1)/(3m) away.
  - Busy-time minimization for fixed slotted intervals: the per-slot machine
    floor sums to a power-on lower bound; migrating jobs at slot boundaries
    attains it exactly (lbm_schedule), while the no-migration baseline
    (estf_schedule) can exceed it.

Brute-force oracles (exact_minms, exact_mintpt) provide ground truth on small
instances, and the migsched CLI benchmarks everything side by side.
"""

from .core import (
    InvariantError,
    Job,
    JobSegment,
    MigrationSchedule,
    MinMsInstance,
    as_time,
)
from .instances import (
    InstanceFormatError,
    gen_graham_worst_case,
    gen_random_minms,
    gen_random_mintpt,
    load_instance,
    parse_instance,
    serialize_instance,
)
from .minms import (
    PamTrace,
    lpt_ratio,
    lpt_schedule,
    opt_balance,
    pam_schedule,
    wraparound_schedule,
)
from .mintpt import (
    IntervalInstance,
    IntervalJob,
    IntervalSchedule,
    SlotProfile,
    estf_schedule,
    interval_span,
    lbm_schedule,
    mintpt_lower_bound,
    slot_profile,
)
from .oracles import (
    MINMS_MAX_JOBS,
    MINTPT_MAX_JOBS,
    InstanceTooLargeError,
    exact_minms,
    exact_mintpt,
)

__all__ = [
    "InvariantError",
    "as_time",
    "Job",
    "MinMsInstance",
    "JobSegment",
    "MigrationSchedule",
    "PamTrace",
    "opt_balance",
    "lpt_schedule",
    "pam_schedule",
    "wraparound_schedule",
    "lpt_ratio",
    "IntervalJob",
    "IntervalInstance",
    "IntervalSchedule",
    "SlotProfile",
    "interval_span",
    "slot_profile",
    "mintpt_lower_bound",
    "estf_schedule",
    "lbm_schedule",
    "InstanceTooLargeError",
    "MINMS_MAX_JOBS",
    "MINTPT_MAX_JOBS",
    "exact_minms",
    "exact_mintpt",
    "InstanceFormatError",
    "gen_graham_worst_case",
    "gen_random_minms",
    "gen_random_mintpt",
    "parse_instance",
    "serialize_instance",
    "load_instance",
]

__version__ = "0.1.0"

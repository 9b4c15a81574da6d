"""Span tracing of migsched's layers, installed from outside the program.

`Tracer.install()` replaces the public functions of each module (and the
copies that `migsched.cli` binds by name) with wrappers that record a span
per call: name, start, end, parent span and op id. An op is one CLI command;
a span opened with no span open starts a new op. Counts come from what the
wrapped calls take and return. `uninstall()` puts the originals back, so
untraced runs execute the program unchanged.

The work of computing counts (for instance a schedule's migrations) is
recorded as a `trace.count` span under the caller, so it is not billed to
the caller's self time.
"""

from __future__ import annotations

import inspect
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "instances", "core", "minms", "mintpt", "oracles", "report")


def _schedule_of(result):
    """The schedule a minms solver returned: pam gives a PamTrace, wraparound
    a (schedule, bound) pair, lpt the schedule itself."""
    if isinstance(result, tuple):
        return result[0]
    return getattr(result, "schedule", result)


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int | None, int, str, float, float]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._next_id = 0
        self._op = 0
        self._patches: list[tuple[object, str, object]] = []

    def install(self, modules: dict) -> None:
        """Wrap `modules`, which maps "cli", "core", ... to the imported modules."""
        m = modules
        refused = m["oracles"].InstanceTooLargeError
        interval_schedule = m["mintpt"].IntervalSchedule
        # The unwrapped property, so counting does not record spans of its own.
        interval_migrations = inspect.getattr_static(interval_schedule, "migrations").fget

        def minms_counts(args, result):
            schedule = _schedule_of(result)
            return {"minms.segments": len(schedule.segments), "minms.migrations": schedule.migrations}

        table = [
            # (span name, owners whose attribute is replaced, attribute, counter)
            ("cli.main", [m["cli"]], "main", None),
            ("cli.solve", [m["cli"]], "cmd_solve", None),
            ("cli.verify", [m["cli"]], "cmd_verify", None),
            ("instances.parse", [m["instances"], m["cli"]], "load_instance",
             lambda a, r: {"instances.jobs_parsed": len(r.jobs)}),
            ("core.validate", [m["core"], m["cli"]], "segment_violations",
             lambda a, r: {"core.segments_checked": len(a[1])}),
            ("core.schedule", [m["core"].MigrationSchedule], "__post_init__", None),
            ("core.loads", [m["core"].MigrationSchedule], "machine_loads", None),
            ("minms.opt_balance", [m["minms"]], "opt_balance", None),
            ("minms.lpt", [m["minms"]], "lpt_schedule", minms_counts),
            ("minms.pam", [m["minms"]], "pam_schedule", minms_counts),
            ("minms.wraparound", [m["minms"]], "wraparound_schedule", minms_counts),
            ("mintpt.slot_profile", [m["mintpt"]], "slot_profile", None),
            ("mintpt.lower_bound", [m["mintpt"]], "mintpt_lower_bound", None),
            ("mintpt.estf", [m["mintpt"]], "estf_schedule",
             lambda a, r: {"mintpt.migrations": interval_migrations(r)}),
            ("mintpt.lbm", [m["mintpt"]], "lbm_schedule",
             lambda a, r: {"mintpt.migrations": interval_migrations(r)}),
            ("mintpt.validate", [m["mintpt"], m["cli"]], "placement_violations",
             lambda a, r: {"mintpt.placements_checked": len(a[1])}),
            ("mintpt.schedule", [interval_schedule], "__post_init__", None),
            ("mintpt.schedule_query", [interval_schedule], "migrations", None),
            ("mintpt.schedule_query", [interval_schedule], "machines_used", None),
            ("mintpt.schedule_query", [interval_schedule], "machines_per_slot", None),
            ("mintpt.schedule_query", [interval_schedule], "total_power_on_time", None),
            ("oracles.exact_minms", [m["oracles"], m["cli"]], "exact_minms", None),
            ("oracles.exact_mintpt", [m["oracles"], m["cli"]], "exact_mintpt", None),
        ]
        for render in ("render_csv", "render_json", "render_markdown"):
            table.append(
                ("report.render", [m["report"], m["cli"]], render,
                 lambda a, r: {"report.rows": len(a[0])})
            )
        for name, owners, attr, counter in table:
            for owner in owners:
                original = inspect.getattr_static(owner, attr)
                if isinstance(original, property):
                    wrapped = property(self._wrap(name, original.fget, counter, refused))
                else:
                    wrapped = self._wrap(name, original, counter, refused)
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, fn, counter, refused):
        clock = time.perf_counter
        spans = self.spans
        stack = self._stack
        counts = self.counts
        oracle = name.startswith("oracles.")

        def wrapper(*args, **kwargs):
            if not stack:
                self._op += 1
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            stack.append(sid)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except refused:
                if oracle:
                    counts["oracles.refused"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, self._op, name, start, end))
                counts[name + "_calls"] += 1
            if counter is not None:
                for key, value in counter(args, result).items():
                    counts[key] += value
                spans.append((self._next_id, parent, self._op, "trace.count", end, clock()))
                self._next_id += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus child span durations."""
        child = defaultdict(float)
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for sid, _, _, name, start, end in self.spans:
            out[name] += end - start - child[sid]
        return out

    def root_time(self) -> float:
        """Total duration of the spans that start an op (whole CLI commands)."""
        return sum(end - start for _, parent, _, name, start, end in self.spans if parent is None)

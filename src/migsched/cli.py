"""Command-line interface.

Subcommands: solve one instance, bench a sweep of instances, gen instance
files, verify a schedule dump against its instance. Exit codes: 0 success,
1 verification failure, 2 usage or input error. All output is deterministic
for fixed inputs and seeds; wall-clock timing is only emitted under
--timings, which is inherently not reproducible.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import operator
import sys
import time
from collections.abc import Callable, Iterator, Sequence
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import minms, mintpt
from .core import (
    _WHOLE,
    InvariantError,
    MigrationSchedule,
    MinMsInstance,
    as_time,
    segment_violations,  # unused here: perfbench's tracer wraps cli's binding of each check
)
from .instances import (
    InstanceFormatError,
    gen_graham_worst_case,
    gen_random_minms,
    gen_random_mintpt,
    load_instance,
    serialize_instance,
)
from .mintpt import IntervalInstance, IntervalSchedule, placement_violations  # as above
from .oracles import InstanceTooLargeError, exact_minms, exact_mintpt
from .report import ReportRow, render_csv, render_json, render_markdown

DUMP_FORMAT = "migsched-dump"
DUMP_VERSION = 4


class CliError(Exception):
    """Usage or input error; reported on stderr with exit code 2."""


# Algorithm name -> (instance kind it applies to, None for both; solver
# returning its schedule, whose objective `_report` measures). Solvers are
# looked up through their module at call time, so a wrapped module function
# (as perfbench's tracer installs) is the one the CLI runs. "exact" has no
# solver here: its row's schedule is the oracle's witness.
ALGORITHMS = {
    "lpt": ("minms", lambda i: minms.lpt_schedule(i)),
    "pam": ("minms", lambda i: minms.pam_schedule(i).schedule),
    "wraparound": ("minms", lambda i: minms.wraparound_schedule(i)),
    "estf": ("mintpt", lambda i: mintpt.estf_schedule(i)),
    "lbm": ("mintpt", lambda i: mintpt.lbm_schedule(i)),
    "exact": (None, None),
}


def _parse_int_list(text: str) -> list[range]:
    """Parse "2:20", "2,3,5", "7", or "" (no ranges). Ranges are inclusive,
    and each stays a `range`, so a long one costs nothing until it is walked."""
    items: list[range] = []
    text = text.strip()
    if not text:
        return items
    for part in text.split(","):
        part = part.strip()
        lo, colon, hi = part.partition(":")
        try:
            items.append(range(int(lo), int(hi if colon else lo) + 1))
        except ValueError as exc:
            raise CliError(f"bad integer list {text!r}: {exc}") from exc
    return items


def _load(path: str) -> MinMsInstance | IntervalInstance:
    try:
        return load_instance(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc


def _kind(instance) -> str:
    return "minms" if isinstance(instance, MinMsInstance) else "mintpt"


def _report(args, name: str, instance, algorithms: list[str]) -> list[tuple]:
    """One (ReportRow, schedule) per algorithm name, for one instance.

    The kind check, `param`, `optimum` and the oracle run once per instance.
    The oracle's witness schedule is the schedule of an "exact" row, which
    raises the oracle's refusal when there is no witness, and the witness's
    objective, measured once, fills the oracle column of every row. Every
    row's objective and migrations are measured on its schedule. `ms` is the
    solver's own time, or the oracle's for an "exact" row.
    """
    limit = args.oracle_limit
    kind = _kind(instance)
    for algorithm in algorithms:
        if ALGORITHMS[algorithm][0] not in (None, kind):
            raise CliError(f"algorithm {algorithm!r} does not apply to {kind} instances")
    if kind == "minms":
        param, optimum = instance.machine_count, minms.opt_balance(instance)
        oracle, measure, n = exact_minms, "makespan", len(instance.ticks.sizes)
    else:
        param, optimum = instance.capacity, mintpt.mintpt_lower_bound(instance)
        oracle, measure, n = exact_mintpt, "total_power_on_time", len(instance.rows)

    witness, oracle_ms = None, None
    refusal = "exact solve requested but the oracle is disabled"
    if limit != 0:
        started = time.perf_counter()
        try:
            # Without --oracle-limit the oracle applies its own default gate.
            witness = oracle(instance) if limit is None else oracle(instance, limit)
        except InstanceTooLargeError as exc:
            refusal = str(exc)
        oracle_ms = (time.perf_counter() - started) * 1000.0
    oracle_value = None if witness is None else getattr(witness, measure)()

    rows = []
    for algorithm in algorithms:
        solver = ALGORITHMS[algorithm][1]
        if solver is None:
            if witness is None:
                raise CliError(refusal)
            schedule, ms = witness, oracle_ms
        else:
            started = time.perf_counter()
            schedule = solver(instance)
            ms = (time.perf_counter() - started) * 1000.0
        objective = getattr(schedule, measure)()
        row = ReportRow(
            instance=name,
            kind=kind,
            n=n,
            param=param,
            optimum=optimum,
            algorithm=algorithm,
            objective=objective,
            ratio=Fraction(objective) / Fraction(optimum) if optimum > 0 else None,
            migrations=schedule.migrations,
            oracle=oracle_value,
            ms=ms if args.timings else None,
        )
        rows.append((row, schedule))
    return rows


# One record of each kind as its dump line, `"    " + json.dumps(list(record))`:
# ids, machines and slots are ints (`%d`). A segment's amount is written only
# when it is not its job's whole process time: its `%s` takes `, "amount"`,
# the amount's string escaped as `json` does, or "" for a whole job. A dump's
# whole record list is one `%` call over its template repeated once per
# record, fed every record's fields as one flat tuple.
_SEGMENT = "    [%d, %d%s]"
_STINT = "    [%d, %d, %d, %d]"
_FIELDS = {"segments": ("job", "machine", "amount"), "stints": ("job", "machine", "start", "end")}


class _Records(dict):
    """A dump's `count` records, the schedule's rows, which `rows` builds when
    first called. `records[i]` is record i as a dict keyed by field name,
    built on first use and kept; the writer formats each kept dict's values,
    in field order, in place of its row, so a record can be changed before the
    dump is written (perfbench's smoke test corrupts a `pam` dump this way)."""

    def __init__(self, fields: tuple[str, ...], count: int, rows: Callable[[], Sequence]) -> None:
        super().__init__()
        self.fields, self.count, self.rows = fields, count, rows

    def __missing__(self, i: int) -> dict:
        i = range(self.count)[i]  # a negative index counts from the end
        return self.setdefault(i, dict(zip(self.fields, self.rows()[i])))


def _dump_payload(schedule, algorithm: str) -> dict:
    """The dump's header fields, then its records last."""
    header = {"format": DUMP_FORMAT, "version": DUMP_VERSION}
    if isinstance(schedule, MigrationSchedule):
        return header | {
            "kind": "minms",
            "algorithm": algorithm,
            "machine_count": schedule.instance.machine_count,
            "migrations": schedule.migrations,
            "segments": _Records(_FIELDS["segments"], len(schedule._ticks), lambda: schedule.segments),
        }
    return header | {
        "kind": "mintpt",
        "algorithm": algorithm,
        "machines_used": schedule.machines_used,
        "migrations": schedule.migrations,
        "stints": _Records(_FIELDS["stints"], len(schedule.stints), lambda: schedule.stints),
    }


def _segment_fields(schedule: MigrationSchedule) -> list:
    """The flat (job, machine, amount text) fields of the schedule's columns:
    "" for a segment whose ticks are its job's size, else its amount's text,
    made once per distinct tick count (`pam` deals one piece to many machines)."""
    view, jobs, ticks = schedule.instance.ticks, schedule._jobs, schedule._ticks
    sizes = map(view.sizes.__getitem__, jobs)
    pieces = list(itertools.compress(range(len(ticks)), map(operator.ne, ticks, sizes)))
    made = {t: ", " + encode_basestring_ascii(str(view.time(t))) for t in {ticks[i] for i in pieces}}
    texts = [""] * len(ticks)
    for i in pieces:
        texts[i] = made[ticks[i]]
    return list(itertools.chain.from_iterable(zip(jobs, schedule._machines, texts)))


def _dump_text(schedule, algorithm: str) -> str:
    """The dump file's text: the header as `json.dumps(header, indent=2)` lays
    it out, and each record as a line `"    " + json.dumps(list(record))`.

    Only the header goes through `json.dumps`; with `indent` set that is the
    stdlib's pure-Python encoder, too slow for thousands of records, so the
    record list is formatted from its template instead, straight from the
    schedule's columns. A `minms` segment whose ticks equal its job's size is
    written `[job, machine]`; a record taken from the payload is compared by
    value with its job's time, so the bytes depend only on values.
    """
    *header, (key, records) = _dump_payload(schedule, algorithm).items()
    head = json.dumps(dict(header), indent=2)[:-2]  # without its closing "\n}"
    if not records.count:
        return f'{head},\n  "{key}": []\n}}\n'
    width = len(records.fields)
    if key == "segments":
        template, fields = _SEGMENT, _segment_fields(schedule)
        view = schedule.instance.ticks
        for i, record in records.items():
            job, machine, amount = map(record.__getitem__, records.fields)
            whole = job in view.sizes and amount == view.time(view.sizes[job])
            text = "" if whole else ", " + encode_basestring_ascii(str(amount))
            fields[width * i : width * i + width] = job, machine, text
    else:
        template, fields = _STINT, list(itertools.chain.from_iterable(records.rows()))
        for i, record in records.items():
            fields[width * i : width * i + width] = map(record.__getitem__, records.fields)
    fields = tuple(fields)  # `%` needs a tuple; the list is freed before the text exists
    body = ",\n".join([template] * records.count) % fields
    return f'{head},\n  "{key}": [\n{body}\n  ]\n}}\n'


def _render(rows, fmt: str, single: bool = False) -> str:
    if fmt == "csv":
        return render_csv(rows)
    if fmt == "md":
        return render_markdown(rows)
    return render_json(rows, single=single)


def _write(text: str, out: str | None) -> None:
    if not out:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot write {out}: {exc}") from exc


def _check_oracle_limit(args) -> None:
    """Refuse a negative --oracle-limit before any instance is read."""
    if args.oracle_limit is not None and args.oracle_limit < 0:
        raise CliError("--oracle-limit must be >= 0")


def cmd_solve(args) -> int:
    if args.dump and ALGORITHMS[args.algorithm][1] is None:
        raise CliError("--dump writes a solver's schedule; the exact oracle's witness is not dumped")
    _check_oracle_limit(args)
    [(row, schedule)] = _report(args, args.instance, _load(args.instance), [args.algorithm])
    _write(_render([row], args.format, single=True), args.out)
    if args.dump:
        _write(_dump_text(schedule, args.algorithm), args.dump)
    return 0


def _generate(args, m: int, seed: int) -> MinMsInstance | IntervalInstance:
    """One instance of args.family; bad generator parameters are a CliError."""
    try:
        if args.family == "graham":
            return gen_graham_worst_case(m)
        if args.family == "random-minms":
            return gen_random_minms(args.n, m, (args.p_min, args.p_max), seed)
        return gen_random_mintpt(args.n, args.horizon, args.g, seed)
    except ValueError as exc:  # InvariantError included
        raise CliError(str(exc)) from exc


def _bench_instances(args) -> Iterator[tuple[str, MinMsInstance | IntervalInstance]]:
    """(name, instance) for each value of the family's list, generated one at
    a time, so a long range never exists all at once."""
    if args.family == "graham":
        for m in itertools.chain.from_iterable(_parse_int_list(args.m)):
            yield f"graham-m{m}", _generate(args, m, 0)
    elif args.family == "random-minms":
        seeds = _parse_int_list(args.seeds)
        if any(seeds):
            try:
                m = int(args.m)
            except ValueError as exc:
                raise CliError(f"--m must be a single machine count here, got {args.m!r}") from exc
            for seed in itertools.chain.from_iterable(seeds):
                yield f"minms-n{args.n}-m{m}-s{seed}", _generate(args, m, seed)
    else:
        for seed in itertools.chain.from_iterable(_parse_int_list(args.seeds)):
            yield f"mintpt-n{args.n}-h{args.horizon}-g{args.g}-s{seed}", _generate(args, 0, seed)


def cmd_bench(args) -> int:
    algorithms = [a.strip() for a in args.algorithms.split(",") if a.strip()]
    if not algorithms:
        raise CliError("no algorithms given")
    for algorithm in algorithms:
        if algorithm not in ALGORITHMS:
            raise CliError(f"unknown algorithm {algorithm!r}")
    _check_oracle_limit(args)

    rows = []
    for name, instance in _bench_instances(args):
        rows.extend(row for row, _ in _report(args, name, instance, algorithms))
    _write(_render(rows, args.format), args.out)
    return 0


def cmd_gen(args) -> int:
    _write(serialize_instance(_generate(args, args.m, args.seed)), args.out)
    return 0


def _same_int(value, expected: int) -> bool:
    """A dump header field holds `expected` as a JSON integer: `false` and
    `2.0` compare equal to 0 and 2 but are not integers."""
    return type(value) is int and value == expected


def _columns(dump: dict, key: str, widths: tuple[int, ...], issues: list[str]) -> list[tuple]:
    """The dump's records under `key`, JSON arrays of one of `widths` values,
    as columns of the widest. A record one value short is a segment that
    holds its whole job: its amount is `core._WHOLE`, which the schedule
    check takes as the job's size. Each distinct amount string of the other
    segments is decoded once. The shape is checked in bulk; only when a
    record is not an array of an allowed width, or its amount string fails,
    are the records walked, to word one malformed issue per such record and
    keep the rest. Other values stay as written, for the schedule check."""
    width = widths[-1]
    records = dump.get(key, [])
    if not isinstance(records, list):
        issues.append(f"{key} malformed: expected a list, got {type(records).__name__}")
        return [()] * width
    shaped = set(map(type, records)) <= {list} and set(map(len, records)) <= set(widths)
    memo, failed = {}, {}  # amount string -> its value, or its error
    if key == "segments":
        long = [r[-1] for r in records if type(r) is list and len(r) == width]
        for text in {a for a in long if type(a) is str}:
            try:
                memo[text] = as_time(text)
            except ValueError as exc:
                failed[text] = str(exc)
    kept = records
    if not shaped or failed:
        kept = []
        expected = f"expected a list of {' or '.join(map(str, widths))} values"
        for i, record in enumerate(records):
            if type(record) is not list or len(record) not in widths:
                found = f"a list of {len(record)}" if type(record) is list else type(record).__name__
                issues.append(f"{key[:-1]} {i} malformed: {expected}, got {found}")
            elif len(record) == width and type(record[-1]) is str and record[-1] in failed:
                issues.append(f"{key[:-1]} {i} malformed: {failed[record[-1]]}")
            else:
                kept.append(record)
    columns = list(itertools.zip_longest(*kept, fillvalue=_WHOLE))
    columns += [(_WHOLE,) * len(kept)] * (width - len(columns))
    if memo:
        columns[-1] = [memo[a] if type(a) is str else a for a in columns[-1]]
    return columns


def _rebuild(build: Callable, issues: list, *decoded):
    """The kind's schedule that `build` makes of the decoded records, or None,
    with each problem its construction check found (the InvariantError's
    `args`) as an issue."""
    try:
        return build(*decoded)
    except InvariantError as exc:
        issues.extend(exc.args)
        return None


def _check_recorded(
    dump: dict, key: str, value: int, issues: list, notes: list | None = None
) -> None:
    """Compare the dump's header count under `key` with the rebuilt schedule's
    `value`: a mismatch is an issue, and a match a note when `notes` is given."""
    if not _same_int(dump.get(key), value):
        issues.append(f"{key} recorded as {dump.get(key)!r}, recomputed {value}")
    elif notes is not None:
        notes.append(f"{key} = {value} as recorded")


def _verify_minms(
    instance: MinMsInstance, dump: dict, issues: list, notes: list
) -> MigrationSchedule | None:
    """The dump's own checks: its schedule, or None when that fails its check."""
    if not _same_int(dump.get("machine_count"), instance.machine_count):
        issues.append(
            f"machine_count {dump.get('machine_count')!r} does not match instance "
            f"{instance.machine_count}"
        )
    columns = _columns(dump, "segments", (2, 3), issues)
    schedule = _rebuild(MigrationSchedule._checked, issues, instance, *columns)
    if schedule is not None:
        notes.append(
            f"per-job conservation holds ({len(instance.ticks.sizes)} jobs, "
            f"{len(columns[0])} segments)"
        )
        _check_recorded(dump, "migrations", schedule.migrations, issues, notes)
    return schedule


def _verify_mintpt(
    instance: IntervalInstance, dump: dict, issues: list, notes: list
) -> IntervalSchedule | None:
    """The dump's own checks: its schedule, or None when that fails its check."""
    raw = tuple(zip(*_columns(dump, "stints", (4,), issues)))
    schedule = _rebuild(IntervalSchedule, issues, instance, raw)
    if schedule is not None:
        notes.append(
            f"every job placed in all its slots within capacity {instance.capacity}"
        )
        _check_recorded(dump, "machines_used", schedule.machines_used, issues)
        _check_recorded(dump, "migrations", schedule.migrations, issues, notes)
    return schedule


def cmd_verify(args) -> int:
    instance = _load(args.instance)
    try:
        dump = json.loads(Path(args.dump).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:  # bad JSON, UTF-8, int digits or nesting
        raise CliError(f"cannot read dump {args.dump}: {exc}") from exc
    if not isinstance(dump, dict) or dump.get("format") != DUMP_FORMAT:
        raise CliError("not a schedule dump")
    if not _same_int(dump.get("version"), DUMP_VERSION):
        raise CliError(
            f"dump version {dump.get('version')!r} is not supported; "
            f"this verify reads version {DUMP_VERSION}"
        )

    kind = _kind(instance)
    if dump.get("kind") != kind:
        raise CliError(f"dump kind {dump.get('kind')!r} does not match instance kind {kind!r}")
    algorithm = dump.get("algorithm")
    if not isinstance(algorithm, str) or ALGORITHMS.get(algorithm, (None,))[0] != kind:
        raise CliError(f"dump algorithm {algorithm!r} is not a {kind} solver")

    issues: list[str] = []
    notes: list[str] = []
    verifier, module = (_verify_minms, minms) if kind == "minms" else (_verify_mintpt, mintpt)
    schedule = verifier(instance, dump, issues, notes)
    if schedule is not None:
        claim_issues, claim_notes = module.certificate(schedule, algorithm)
        issues += claim_issues
        notes += claim_notes

    for note in notes:
        print(f"ok: {note}")
    for issue in issues:
        print(f"FAIL: {issue}")
    if issues:
        print(f"verification failed ({len(issues)} issue(s))")
        return 1
    print("verification passed")
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built once per process. Commands are looked up by name at call time, so
    # a wrapped command (as perfbench's tracer installs) is the one that runs.
    parser = argparse.ArgumentParser(
        prog="migsched",
        description="Migration-based scheduling: solvers, benchmarks, and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Options shared by solve and bench (report) and by bench and gen (generator).
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--format", choices=("csv", "md", "json"), default="csv")
    report.add_argument("--out", help="write the report here instead of stdout")
    report.add_argument("--oracle-limit", type=int, help="max jobs for the oracle column (0 disables)")
    report.add_argument("--timings", action="store_true", help="fill the ms column (not reproducible)")
    generator = argparse.ArgumentParser(add_help=False)
    generator.add_argument("--family", required=True, choices=("graham", "random-minms", "random-mintpt"))
    generator.add_argument("--n", type=int, default=8, help="job count for random families")
    generator.add_argument("--g", type=int, default=3, help="slot capacity for random-mintpt")
    generator.add_argument("--horizon", type=int, default=10, help="slot horizon for random-mintpt")
    generator.add_argument("--p-min", type=int, default=1)
    generator.add_argument("--p-max", type=int, default=20)

    solve = sub.add_parser("solve", parents=[report], help="run one algorithm on one instance file")
    solve.add_argument("instance", help="instance file path")
    solve.add_argument("--algorithm", required=True, choices=tuple(ALGORITHMS))
    solve.add_argument("--dump", help="write the schedule dump (JSON) here")
    solve.set_defaults(func=lambda args: cmd_solve(args))

    bench = sub.add_parser("bench", parents=[generator, report], help="run a sweep and emit a report")
    bench.add_argument("--algorithms", required=True, help="comma-separated algorithm names")
    bench.add_argument("--m", default="2:10", help="machine count (int or range for graham)")
    bench.add_argument("--seeds", default="0:9", help='seed list, e.g. "1:5" or "1,7"; "" for none')
    bench.set_defaults(func=lambda args: cmd_bench(args))

    gen = sub.add_parser("gen", parents=[generator], help="generate an instance file")
    gen.add_argument("--m", type=int, default=2, help="machine count")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", help="write the instance here instead of stdout")
    gen.set_defaults(func=lambda args: cmd_gen(args))

    verify = sub.add_parser("verify", help="re-check a schedule dump against its instance")
    verify.add_argument("instance", help="instance file path")
    verify.add_argument("dump", help="schedule dump path")
    verify.set_defaults(func=lambda args: cmd_verify(args))

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliError, InstanceFormatError, InstanceTooLargeError) as exc:
        message = str(exc)
    except ValueError as exc:
        # Python's int-to-string digit limit. The reader keeps every number in
        # a file within it, but a derived value (an lcm of denominators, a
        # power-on total, a sum of dump amounts) can exceed it when printed.
        if "integer string conversion" not in str(exc):
            raise
        limit = sys.get_int_max_str_digits()
        message = f"a result has more than {limit} digits and cannot be printed"
    print(f"error: {message}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())

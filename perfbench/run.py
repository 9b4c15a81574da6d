"""migsched benchmark: seeded workloads driven through the CLI in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a source checkout: the benchmark imports migsched from `src/` next
to this directory and refuses to run without it. One client in one process
issues commands in a closed loop, with no threads: for every instance of the
workload and every algorithm of its kind, a `solve --dump` command and then a
`verify` of that dump (`exact` yields a value, not a schedule, so it gets
`solve` alone). One pass over the workload is its command sequence; passes
repeat until `--seconds` have gone by, MIN_PASSES passes and MIN_SOLVES
solves ran. End-to-end times are scaled for the machine's speed (see
PROBE_SHARE).

Every command is checked (exit code, the certificate of its algorithm, the
dump's migrations against the report's), and every pass must give the same
result digest, also across runs of the same sources and seed. The last line
of stdout is one JSON object: `correct`, `attempted`, `failed` and `metrics`,
the end-to-end metrics with `--trace 0` and the per-layer metrics with
`--trace 1`. Lines before it give the environment, input properties, sample
counts and every metric by name and unit. See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from spans import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, Instance, Workload  # noqa: E402

MIN_PASSES = 4
MIN_SOLVES = 100
# On a shared machine the processor's speed changes by half or more over
# minutes, longer than a run. So between commands the client runs probe
# slices, a fixed task independent of migsched, for PROBE_SHARE of the time
# the commands took. The commands of each window of about WINDOW_S are scaled
# by PROBE_REFERENCE_S over the window's mean slice time. Changes of machine
# speed cancel; changes of the program remain. PROBE_REFERENCE_S is the slice
# time on a 2-vCPU Intel Xeon VM under Python 3.11 in its fast spells, so the
# scaled times read as times on that machine.
PROBE_SHARE = 0.1
WINDOW_S = 0.5
PROBE_REFERENCE_S = 0.002
DIGEST_FIELDS = ("optimum", "objective", "ratio", "migrations", "oracle")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "solve_ms.p50": "ms",
    "solve_ms.p90": "ms",
    "verify_ms.p50": "ms",
    "verify_ms.p90": "ms",
    "peak_rss_mb": "MB",
    "dump_mb": "MB",
    "ops_ok_ratio": "ratio",
}


def setup(workload: Workload, seed: int, workdir: Path):
    """Import migsched afresh, generate the seeded instances, write their files.

    Returns (seconds, layer modules, instances, instance paths).
    """
    for name in [n for n in sys.modules if n == "migsched" or n.startswith("migsched.")]:
        del sys.modules[name]
    start = time.perf_counter()
    importlib.import_module("migsched.cli")
    instances = workload.instances(seed)
    paths = []
    for inst in instances:
        path = workdir / f"{inst.name}.inst"
        path.write_text(inst.text, encoding="utf-8")
        paths.append(path)
    elapsed = time.perf_counter() - start
    modules = {layer: sys.modules[f"migsched.{layer}"] for layer in LAYERS}
    if not Path(modules["cli"].__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"migsched was imported from {modules['cli'].__file__}, not {SRC}")
    return elapsed, modules, instances, paths


def probe_slice() -> float:
    """Seconds for a fixed pure-Python task: Fraction sums, dict updates,
    sorting and JSON, the kinds of work migsched does, but none of its code."""
    start = time.perf_counter()
    total = Fraction(0)
    counts: dict[int, int] = {}
    for i in range(1, 200):
        total += Fraction(i % 97 + 1, i % 7 + 1)
        counts[i % 50] = counts.get(i % 50, 0) + 1
    sorted(((i * 7919) % 10007, str(i)) for i in range(1000))
    json.loads(json.dumps([[i, i + 1, str(i)] for i in range(400)]))
    return time.perf_counter() - start


def certificate(inst: Instance, algorithm: str, row: dict) -> list[str]:
    """What the paper guarantees for this algorithm's report row, if broken."""
    optimum = Fraction(row["optimum"])
    objective = Fraction(row["objective"])
    oracle = None if row["oracle"] is None else Fraction(row["oracle"])
    problems = []
    if algorithm in ("pam", "lbm") and objective != optimum:
        problems.append(f"objective {objective} != optimum {optimum}")
    if algorithm == "wraparound" and objective != max(inst.longest, optimum):
        problems.append(f"objective {objective} != max(longest job, optimum)")
    if algorithm in ("lpt", "estf") and objective < optimum:
        problems.append(f"objective {objective} < optimum {optimum}")
    if algorithm == "exact" and objective != oracle:
        problems.append(f"exact {objective} != oracle column {oracle}")
    if algorithm == "lpt" and oracle is not None:
        m = inst.param
        if objective > Fraction(4 * m - 1, 3 * m) * oracle:
            problems.append(f"lpt {objective} above (4m-1)/(3m) x oracle {oracle}")
    return problems


class Window:
    """About WINDOW_S of commands and the probe slices run among them."""

    def __init__(self):
        self.solve_ms: list[float] = []
        self.verify_ms: list[float] = []
        self.seconds = 0.0
        self.probe_s = 0.0
        self.probe_slices = 0

    @property
    def scale(self) -> float:
        return PROBE_REFERENCE_S * self.probe_slices / self.probe_s


class Pass:
    """Samples and outcomes of one pass over the workload's commands."""

    def __init__(self):
        self.windows = [Window()]
        self.attempted = 0
        self.failures: list[str] = []
        self.dump_bytes = 0
        self.results: list[tuple[Instance, str, dict | None]] = []  # row None: failed
        self.setup_s = 0.0

    def seconds(self, scaled: bool = True) -> float:
        """Time of the pass's commands and checks, without the probe slices."""
        return sum(w.seconds * (w.scale if scaled else 1.0) for w in self.windows)

    def latencies(self, kind: str, scaled: bool = True) -> list[float]:
        """The pass's "solve_ms" or "verify_ms" samples."""
        return [x * (w.scale if scaled else 1.0) for w in self.windows for x in getattr(w, kind)]

    def digest(self) -> str:
        """Hash of every report row's exact results, in command order."""
        h = hashlib.sha256()
        for _, algorithm, row in self.results:
            fields = [algorithm] + ([str(row[k]) for k in DIGEST_FIELDS] if row else ["failed"])
            h.update("|".join(fields).encode() + b"\n")
        return h.hexdigest()


class Client:
    """Issues the workload's commands through `migsched.cli.main` and checks them."""

    def __init__(self, modules, workload: Workload, instances, paths, workdir: Path):
        self.cli = modules["cli"]
        self.workload = workload
        self.jobs = list(zip(instances, paths))
        self.dump = workdir / "dump.json"

    def command(self, argv: list[str]) -> tuple[object, float, str, str]:
        """Run one CLI command; returns (exit status or exception, ms, stdout, stderr)."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                status = self.cli.main(argv)
            except SystemExit as exc:
                status = exc.code
            except Exception as exc:  # a traceback is a failed command, not a crash
                status = exc
            ms = (time.perf_counter() - start) * 1000.0
        return status, ms, out.getvalue(), err.getvalue()

    def step(self, p: Pass, inst: Instance, path: Path, algorithm: str) -> None:
        argv = ["solve", str(path), "--algorithm", algorithm, "--format", "json"]
        if self.workload.oracle_limit is not None:
            argv += ["--oracle-limit", str(self.workload.oracle_limit)]
        dumps = algorithm != "exact"
        if dumps:
            argv += ["--dump", str(self.dump)]
        status, ms, out, err = self.command(argv)
        p.windows[-1].solve_ms.append(ms)
        p.attempted += 1
        where = f"{inst.name} {algorithm}"
        if status != 0:
            p.failures.append(f"{where}: solve exited {status!r} {err.strip()}")
            p.results.append((inst, algorithm, None))
            return
        row = json.loads(out)
        p.results.append((inst, algorithm, row))
        problems = certificate(inst, algorithm, row)
        if dumps:
            try:
                p.dump_bytes += self.dump.stat().st_size
                migrations = json.loads(self.dump.read_text(encoding="utf-8")).get("migrations")
            except (OSError, ValueError, AttributeError) as exc:
                migrations = f"unreadable ({exc})"
            if migrations != row["migrations"]:
                problems.append(f"dump migrations {migrations!r} != report {row['migrations']}")
        if problems:
            p.failures.append(f"{where}: " + "; ".join(problems))
        if not dumps:
            return
        status, ms, out, err = self.command(["verify", str(path), str(self.dump)])
        p.windows[-1].verify_ms.append(ms)
        p.attempted += 1
        if status != 0:
            p.failures.append(f"{where}: verify exited {status!r} {(out + err).strip()[-300:]}")
        self.dump.unlink(missing_ok=True)

    def run_pass(self) -> Pass:
        p = Pass()
        for inst, path in self.jobs:
            for algorithm in inst.algorithms:
                window = p.windows[-1]
                if window.seconds >= WINDOW_S:
                    window = Window()
                    p.windows.append(window)
                start = time.perf_counter()
                self.step(p, inst, path, algorithm)
                window.seconds += time.perf_counter() - start
                while window.probe_s < PROBE_SHARE * window.seconds or not window.probe_slices:
                    window.probe_s += probe_slice()
                    window.probe_slices += 1
        return p


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100)[q - 1]


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "migsched").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def check_digest_store(store: Path, key: str, digest: str) -> str | None:
    """Record this run's digest; a problem message if an earlier run differs."""
    known = json.loads(store.read_text(encoding="utf-8")) if store.exists() else {}
    if known.get(key, digest) != digest:
        return f"digest {digest[:16]} differs from an earlier run's {known[key][:16]}"
    known[key] = digest
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    os.replace(tmp, store)
    return None


def environment(seed: int) -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "seed": seed,
    }


def input_properties(instances: list[Instance], p: Pass) -> dict:
    """Properties a later change may depend on, so it can quote their share."""
    rows = [(inst, row) for inst, _, row in p.results if row]
    segments = [inst.jobs + row["migrations"] for inst, row in rows
                if inst.kind == "minms" and row["algorithm"] != "exact"]
    mintpt = [i.placements for i in instances if i.kind == "mintpt"]
    return {
        "instances": len(instances),
        "jobs_per_instance": statistics.mean(i.jobs for i in instances),
        "segments_per_minms_dump": statistics.mean(segments) if segments else 0,
        "placements_per_mintpt_instance": statistics.mean(mintpt) if mintpt else 0,
        "rational_instance_share": sum(i.rational for i in instances) / len(instances),
        "oracle_filled_share": sum(row["oracle"] is not None for _, row in rows) / len(rows),
    }


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def layer_metrics(tracer: Tracer, traced: list[Pass], untraced: list[Pass]) -> dict[str, float]:
    """Per-layer metrics per traced pass; `_s` metrics are self times."""
    k = len(traced)
    self_s = tracer.self_times()
    counts = tracer.counts

    def s(name):
        return self_s.get(name, 0.0) / k

    def n(key):
        return counts.get(key, 0) / k

    oracle_calls = n("oracles.exact_minms_calls") + n("oracles.exact_mintpt_calls")
    metrics = {
        "instances.parse_s": s("instances.parse"),
        "instances.parse_calls": n("instances.parse_calls"),
        "instances.jobs_parsed": n("instances.jobs_parsed"),
        "core.validate_s": s("core.validate"),
        "core.validate_calls": n("core.validate_calls"),
        "core.segments_checked": n("core.segments_checked"),
        "core.schedule_s": s("core.schedule"),
        "core.loads_s": s("core.loads"),
        "minms.opt_balance_s": s("minms.opt_balance"),
        "minms.lpt_s": s("minms.lpt"),
        "minms.lpt_calls": n("minms.lpt_calls"),
        "minms.pam_s": s("minms.pam"),
        "minms.wraparound_s": s("minms.wraparound"),
        "minms.segments": n("minms.segments"),
        "minms.migrations": n("minms.migrations"),
        "mintpt.slot_profile_s": s("mintpt.slot_profile"),
        "mintpt.slot_profile_calls": n("mintpt.slot_profile_calls"),
        "mintpt.lower_bound_s": s("mintpt.lower_bound"),
        "mintpt.estf_s": s("mintpt.estf"),
        "mintpt.lbm_s": s("mintpt.lbm"),
        "mintpt.validate_s": s("mintpt.validate"),
        "mintpt.validate_calls": n("mintpt.validate_calls"),
        "mintpt.placements_checked": n("mintpt.placements_checked"),
        "mintpt.migrations": n("mintpt.migrations"),
        "mintpt.schedule_s": s("mintpt.schedule"),
        "mintpt.schedule_query_s": s("mintpt.schedule_query"),
        "cli.main_self_s": s("cli.main"),
        "cli.solve_self_s": s("cli.solve"),
        "cli.verify_self_s": s("cli.verify"),
        "oracles.exact_minms_s": s("oracles.exact_minms"),
        "oracles.exact_mintpt_s": s("oracles.exact_mintpt"),
        "oracles.calls": oracle_calls,
        "oracles.refused": n("oracles.refused"),
        "oracles.filled_ratio": (
            (oracle_calls - n("oracles.refused")) / oracle_calls if oracle_calls else 0.0
        ),
        "report.render_s": s("report.render"),
        "report.rows": n("report.rows"),
    }
    for layer in LAYERS:
        metrics[f"layer.{layer}_s"] = sum(
            v for name, v in self_s.items() if name.startswith(layer + ".")
        ) / k
    metrics["commands_s"] = tracer.root_time() / k
    metrics["trace.count_s"] = s("trace.count")
    metrics["trace.overhead_s"] = statistics.median(
        p.seconds(scaled=False) for p in traced
    ) - statistics.median(p.seconds(scaled=False) for p in untraced)
    return metrics


def benchmark(workload: Workload, seed: int, seconds: float, trace: bool, state: Path):
    """Run one workload; returns (result object, report of everything else)."""
    state.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="tmp-", dir=state) as tmp:
        workdir = Path(tmp)
        tracer = Tracer() if trace else None
        passes: list[tuple[bool, Pass]] = []
        start = time.perf_counter()
        while True:
            # A set-up before every pass spreads the set-up samples over the run.
            setup_s, modules, instances, paths = setup(workload, seed, workdir)
            client = Client(modules, workload, instances, paths, workdir)
            traced = trace and len(passes) % 2 == 1
            if traced:
                tracer.install(modules)
            try:
                p = client.run_pass()
            finally:
                if traced:
                    tracer.uninstall()
            p.setup_s = setup_s
            passes.append((traced, p))
            untraced = [q for t, q in passes if not t]
            done = time.perf_counter() - start >= seconds and len(passes) >= MIN_PASSES
            if trace:
                done = done and len(passes) % 2 == 0
            else:
                done = done and sum(len(q.latencies("solve_ms")) for q in untraced) >= MIN_SOLVES
            if done:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    all_passes = [q for _, q in passes]
    attempted = sum(q.attempted for q in all_passes)
    failures = [f for q in all_passes for f in q.failures]
    digests = {q.digest() for q in all_passes}
    problems = []
    if len(digests) > 1:
        problems.append(f"passes of one seed gave {len(digests)} different digests")
    if len({q.dump_bytes for q in all_passes}) > 1:
        problems.append("passes of one seed wrote different dump bytes")
    digest = all_passes[0].digest()
    stored = check_digest_store(
        state / "digests.json", f"{source_digest()}:{workload!r}:{seed}", digest
    )
    if stored:
        problems.append(stored)

    untraced = [q for t, q in passes if not t]
    solve_ms = [x for q in untraced for x in q.latencies("solve_ms")]
    verify_ms = [x for q in untraced for x in q.latencies("verify_ms")]
    report = {
        "workload": workload.name,
        "environment": environment(seed),
        "inputs": input_properties(instances, all_passes[0]),
        "samples": {
            "setups": len(all_passes),
            "passes": len(untraced),
            "pass_s": [round(q.seconds(scaled=False), 3) for q in untraced],
            "traced_passes": len(all_passes) - len(untraced),
            "solves": len(solve_ms),
            "verifies": len(verify_ms),
        },
        "digest": digest,
        "failures": failures[:20],
        "problems": problems,
        "ops_failed_ratio": len(failures) / attempted,
    }
    if trace:
        traced_passes = [q for t, q in passes if t]
        metrics = layer_metrics(tracer, traced_passes, untraced)
        units = {name: layer_unit(name) for name in metrics}
        total = metrics["commands_s"]
        report["layer_share"] = {
            layer: metrics[f"layer.{layer}_s"] / total if total else 0.0 for layer in LAYERS
        }
        spans_file = state / f"spans-{workload.name}-s{seed}.jsonl"
        with spans_file.open("w", encoding="utf-8") as f:
            for span in tracer.spans:
                f.write(json.dumps(span) + "\n")
        report["spans_file"] = str(spans_file)
    else:
        metrics = {
            "setup_s": statistics.median(q.setup_s * q.windows[0].scale for q in all_passes),
            "wall_s": statistics.median(q.seconds() for q in untraced),
            "solve_ms.p50": statistics.median(solve_ms),
            "solve_ms.p90": percentile(solve_ms, 90),
            "verify_ms.p50": statistics.median(verify_ms),
            "verify_ms.p90": percentile(verify_ms, 90),
            "peak_rss_mb": peak_rss_mb,
            "dump_mb": all_passes[0].dump_bytes / 1e6,
            "ops_ok_ratio": (attempted - len(failures)) / attempted,
        }
        units = END_TO_END_UNITS
        report["unscaled"] = {
            "setup_s": statistics.median(q.setup_s for q in all_passes),
            "wall_s": statistics.median(q.seconds(scaled=False) for q in untraced),
            "solve_ms.p50": statistics.median(
                x for q in untraced for x in q.latencies("solve_ms", scaled=False)
            ),
            "verify_ms.p50": statistics.median(
                x for q in untraced for x in q.latencies("verify_ms", scaled=False)
            ),
        }
    result = {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return result, report


def print_report(report: dict, result: dict) -> None:
    print(f"workload {report['workload']}")
    for section in ("environment", "inputs", "samples"):
        print(f"{section}: " + " ".join(f"{k}={v}" for k, v in report[section].items()))
    print(f"digest: {report['digest']}")
    for line in report["failures"] + report["problems"]:
        print(f"FAIL: {line}")
    if "unscaled" in report:
        print("unscaled: " + " ".join(f"{k}={v:.6g}" for k, v in report["unscaled"].items()))
    if "layer_share" in report:
        print("layer share of command time: " + " ".join(
            f"{k}={v:.3f}" for k, v in report["layer_share"].items()
        ))
        print(f"spans written to {report['spans_file']}")
    for name, metric in result["metrics"].items():
        print(f"metric {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"metric ops_failed_ratio = {report['ops_failed_ratio']:.6g} ratio "
          f"({result['failed']} of {result['attempted']} commands)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="migsched benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "migsched" / "__init__.py").is_file():
        print(f"perfbench: no migsched sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result, report = benchmark(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), STATE
    )
    print_report(report, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

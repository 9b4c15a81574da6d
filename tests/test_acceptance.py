"""Acceptance suite: one test per release criterion, exact tolerances.

Every numeric claim is asserted with exact arithmetic (no float tolerance
anywhere); the stated runtime budgets are asserted with a wall clock. Run
with `pytest -s tests/test_acceptance.py` to see one PASS line per criterion.
"""

import csv
import io
import json
import random
import time
from fractions import Fraction

from migsched import (
    IntervalSchedule,
    estf_schedule,
    exact_minms,
    exact_mintpt,
    gen_graham_worst_case,
    gen_random_minms,
    gen_random_mintpt,
    interval_span,
    lbm_schedule,
    lpt_ratio,
    lpt_schedule,
    mintpt_lower_bound,
    opt_balance,
    pam_schedule,
    slot_profile,
    wraparound_schedule,
)
from migsched.cli import main
from migsched.instances import load_instance

from helpers import interval_length


def test_a1_adversarial_family_reproduction():
    """Greedy hits 4m-1 while split-and-migrate balancing hits 3m exactly."""
    started = time.perf_counter()
    for m in (2, 3, 5, 10, 20):
        inst = gen_graham_worst_case(m)
        assert lpt_schedule(inst).makespan() == 4 * m - 1
        assert opt_balance(inst) == 3 * m
        trace = pam_schedule(inst)
        assert all(load == 3 * m for load in trace.schedule.machine_loads())
        assert lpt_ratio(inst) == Fraction(4 * m - 1, 3 * m)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS - adversarial family exact for m in 2,3,5,10,20 ({elapsed:.2f}s)")


def test_a2_balancing_is_exact_on_random_instances():
    """1000 seeded instances: every load equals the optimum, jobs conserved."""
    started = time.perf_counter()
    for seed in range(1000):
        rng = random.Random(seed)
        inst = gen_random_minms(
            rng.randint(1, 50), rng.randint(1, 10), (1, 100), seed=seed
        )
        trace = pam_schedule(inst)
        opt = opt_balance(inst)
        assert all(load == opt for load in trace.schedule.machine_loads())
        totals = {job.id: Fraction(0) for job in inst.jobs}
        for seg in trace.schedule.segments:
            totals[seg.job_id] += seg.amount
        assert all(totals[job.id] == job.process_time for job in inst.jobs)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(f"ACCEPTANCE 2 PASS - 1000 instances balanced exactly ({elapsed:.2f}s)")


def test_a3_greedy_bound_against_oracle():
    """200 small instances: optimum sandwich and the (4/3 - 1/(3m)) bound."""
    started = time.perf_counter()
    for seed in range(200):
        rng = random.Random(10_000 + seed)
        m = rng.randint(1, 4)
        inst = gen_random_minms(rng.randint(1, 10), m, (1, 20), seed=seed)
        ideal = opt_balance(inst)
        exact = exact_minms(inst).makespan()
        greedy = lpt_schedule(inst).makespan()
        assert ideal <= exact <= greedy
        assert greedy <= (Fraction(4, 3) - Fraction(1, 3 * m)) * exact
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(f"ACCEPTANCE 3 PASS - greedy bound holds on 200 oracle instances ({elapsed:.2f}s)")


def test_a4_wraparound_feasibility_and_divisible_load_caveat():
    """500 instances: wrap makespan formula, no self-overlap, caveat visible."""
    started = time.perf_counter()
    caveat_cases = 0
    for seed in range(500):
        rng = random.Random(20_000 + seed)
        m = rng.randint(1, 6)
        inst = gen_random_minms(rng.randint(1, 12), m, (1, 30), seed=seed)
        schedule = wraparound_schedule(inst)
        makespan = schedule.makespan()
        longest = max(job.process_time for job in inst.jobs)
        ideal = opt_balance(inst)
        assert makespan == max(longest, ideal)

        clocks = {}
        windows = {}
        for seg in schedule.segments:
            begin = clocks.get(seg.machine_id, Fraction(0))
            clocks[seg.machine_id] = begin + seg.amount
            windows.setdefault(seg.job_id, []).append((begin, begin + seg.amount))
        for spans in windows.values():
            spans.sort()
            assert all(a_end <= b_begin for (_, a_end), (b_begin, _) in zip(spans, spans[1:]))

        if longest > ideal:
            caveat_cases += 1
            assert opt_balance(inst) < makespan
    elapsed = time.perf_counter() - started
    assert caveat_cases > 0
    print(
        f"ACCEPTANCE 4 PASS - wrap-around feasible on 500 instances, "
        f"{caveat_cases} show the divisible-load caveat ({elapsed:.2f}s)"
    )


def test_a5_span_length_algebra():
    """Pinned span/length values plus the equality-iff-disjoint property."""
    assert interval_span([(1, 4), (2, 4), (5, 6)]) == 4
    assert interval_length([(1, 4), (2, 4), (5, 6)]) == 6
    rng = random.Random(99)
    for _ in range(1000):
        count = rng.randint(0, 6)
        intervals = []
        for _ in range(count):
            s = rng.randint(0, 15)
            intervals.append((s, s + rng.randint(1, 6)))
        span = interval_span(intervals)
        length = interval_length(intervals)
        assert span <= length
        ordered = sorted(intervals)
        overlapping = any(
            b_start < a_end for (_, a_end), (b_start, _) in zip(ordered, ordered[1:])
        )
        assert (span == length) == (not overlapping)
    print("ACCEPTANCE 5 PASS - span/length algebra over 1000 random interval sets")


def test_a6_interval_fixture_reproduction(fixtures_dir):
    """The 4-job capacity-3 fixture: 5 without migration, 4 with, floor 4."""
    inst = load_instance(fixtures_dir / "intervals_g3.inst")
    profile = slot_profile(inst)
    assert profile.loads == (3, 4, 3)
    assert profile.min_machines == (1, 2, 1)
    assert mintpt_lower_bound(inst) == 4
    assert estf_schedule(inst).total_power_on_time() == 5
    migratory = lbm_schedule(inst)
    assert migratory.total_power_on_time() == 4
    assert migratory.machines_per_slot() == (1, 2, 1)
    assert exact_mintpt(inst).total_power_on_time() == 5
    print("ACCEPTANCE 6 PASS - interval fixture: floor 4, baseline 5, migration 4, oracle 5")


def test_a7_migration_reaches_power_on_floor():
    """500 seeded interval instances: migratory schedule equals the floor."""
    started = time.perf_counter()
    oracle_checked = 0
    for seed in range(500):
        rng = random.Random(30_000 + seed)
        inst = gen_random_mintpt(
            rng.randint(1, 40), rng.randint(1, 30), rng.randint(1, 5), seed=seed
        )
        bound = mintpt_lower_bound(inst)
        # Counted by the public construction check on lbm's own stints, which
        # also proves them a valid placement.
        assert IntervalSchedule(inst, lbm_schedule(inst).stints).total_power_on_time() == bound
        if len(inst.jobs) <= 8:
            exact = exact_mintpt(inst).total_power_on_time()
            baseline = estf_schedule(inst).total_power_on_time()
            assert bound <= exact <= baseline
            oracle_checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    assert oracle_checked > 0
    print(
        f"ACCEPTANCE 7 PASS - floor reached on 500 instances, "
        f"{oracle_checked} oracle-checked ({elapsed:.2f}s)"
    )


def test_a8_cli_outputs_are_byte_identical(fixtures_dir, tmp_path, capsys):
    """Re-running every command with the same inputs reproduces every byte."""
    graham = str(fixtures_dir / "graham_m10.inst")
    intervals = str(fixtures_dir / "intervals_g3.inst")
    snapshots = []
    for tag in ("first", "second"):
        base = tmp_path / tag
        base.mkdir()
        blobs = []

        assert main(["gen", "--family", "random-mintpt", "--n", "7", "--horizon", "9",
                     "--g", "2", "--seed", "3", "--out", str(base / "gen.inst")]) == 0
        blobs.append((base / "gen.inst").read_bytes())

        assert main(["solve", graham, "--algorithm", "pam", "--format", "csv",
                     "--out", str(base / "pam.csv"), "--dump", str(base / "pam.json")]) == 0
        blobs.append((base / "pam.csv").read_bytes())
        blobs.append((base / "pam.json").read_bytes())

        assert main(["solve", intervals, "--algorithm", "lbm", "--format", "json",
                     "--out", str(base / "lbm.txt"), "--dump", str(base / "lbm.json")]) == 0
        blobs.append((base / "lbm.txt").read_bytes())
        blobs.append((base / "lbm.json").read_bytes())

        for fmt in ("csv", "md"):
            assert main(["bench", "--family", "graham", "--m", "2:8",
                         "--algorithms", "lpt,pam,wraparound", "--format", fmt,
                         "--out", str(base / f"bench.{fmt}")]) == 0
            blobs.append((base / f"bench.{fmt}").read_bytes())

        assert main(["bench", "--family", "random-mintpt", "--seeds", "0:6", "--n", "6",
                     "--horizon", "8", "--g", "2", "--algorithms", "estf,lbm,exact",
                     "--format", "csv", "--out", str(base / "sweep.csv")]) == 0
        blobs.append((base / "sweep.csv").read_bytes())

        main(["verify", graham, str(base / "pam.json")])
        blobs.append(capsys.readouterr().out.encode())
        snapshots.append(blobs)

    assert snapshots[0] == snapshots[1]
    print("ACCEPTANCE 8 PASS - CLI outputs byte-identical across re-runs")


def test_acceptance_summary_artifacts(fixtures_dir, capsys):
    """The benchmark sweep reproduces the exact greedy-vs-optimum curve."""
    assert main(["bench", "--family", "graham", "--m", "2:20",
                 "--algorithms", "lpt,pam"]) == 0
    out = capsys.readouterr().out
    rows = list(csv.reader(io.StringIO(out)))[1:]
    by_alg = {}
    for row in rows:
        by_alg.setdefault(row[5], []).append(row)
    assert all(Fraction(row[7]) == Fraction(4 * int(row[3]) - 1, 3 * int(row[3]))
               for row in by_alg["lpt"])
    assert all(row[7] == "1" for row in by_alg["pam"])
    print("ACCEPTANCE summary - greedy ratio curve (4m-1)/(3m) reproduced for m=2..20")

"""CLI behavior: solve, bench, gen, verify, exit codes, determinism."""

import contextlib
import copy
import csv
import functools
import io
import itertools
import json
import random
import re
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from migsched import (
    Job, JobSegment, MigrationSchedule, MinMsInstance, cli, core, minms, mintpt, oracles
)
from migsched.cli import main
from migsched.instances import gen_random_mintpt, load_instance, serialize_instance
from migsched.mintpt import IntervalInstance, IntervalJob, IntervalSchedule
from migsched.report import CSV_COLUMNS

from helpers import VIEW_STATE, first_primes, total_load


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == CSV_COLUMNS
    return [dict(zip(rows[0], row)) for row in rows[1:]]


@pytest.fixture
def graham10(fixtures_dir):
    return str(fixtures_dir / "graham_m10.inst")


@pytest.fixture
def intervals(fixtures_dir):
    return str(fixtures_dir / "intervals_g3.inst")


# A dump record's fields by position: [job, machine, amount] for a segment,
# [job, machine, start, end] for a stint.
JOB, MACHINE, AMOUNT, START, END = 0, 1, 2, 2, 3
FIELD = {"job": JOB, "machine": MACHINE, "amount": AMOUNT, "start": START, "end": END}


def _long_form(segments, instance):
    """Dump segments as [job, machine, "amount"] lists. A short record, which
    holds its whole job, takes the job's process time in the instance file."""
    view = load_instance(instance).ticks
    return [[*s, str(view.time(view.sizes[s[JOB]]))] if len(s) == 2 else list(s) for s in segments]


class TestSolve:
    def test_lpt_row(self, capsys, graham10):
        code, out, _ = run(capsys, "solve", graham10, "--algorithm", "lpt")
        assert code == 0
        (row,) = parse_csv(out)
        assert row["kind"] == "minms"
        assert row["n"] == "21"
        assert row["param"] == "10"
        assert row["optimum"] == "30"
        assert row["objective"] == "39"
        assert row["ratio"] == "13/10"
        assert row["migrations"] == "0"

    def test_pam_row(self, capsys, graham10):
        code, out, _ = run(capsys, "solve", graham10, "--algorithm", "pam")
        assert code == 0
        (row,) = parse_csv(out)
        assert row["objective"] == "30"
        assert row["ratio"] == "1"
        assert row["migrations"] == "9"

    def test_lbm_row(self, capsys, intervals):
        code, out, _ = run(capsys, "solve", intervals, "--algorithm", "lbm")
        assert code == 0
        (row,) = parse_csv(out)
        assert row["kind"] == "mintpt"
        assert row["optimum"] == "4"
        assert row["objective"] == "4"
        assert row["migrations"] == "1"
        assert row["oracle"] == "5"

    def test_estf_row(self, capsys, intervals):
        _, out, _ = run(capsys, "solve", intervals, "--algorithm", "estf")
        (row,) = parse_csv(out)
        assert row["objective"] == "5"
        assert row["ratio"] == "5/4"

    def test_exact_row(self, capsys, intervals):
        _, out, _ = run(capsys, "solve", intervals, "--algorithm", "exact")
        (row,) = parse_csv(out)
        assert row["objective"] == "5"
        assert row["oracle"] == "5"

    def test_timings_fill_ms_for_exact_and_solver_rows(self, capsys, intervals, monkeypatch):
        # The exact row's ms is the oracle's own time; a solver row's is the
        # solver's alone, without the oracle that fills its column.
        oracle = cli.exact_mintpt

        def slow_oracle(instance, max_jobs=oracles.MINTPT_MAX_JOBS):
            time.sleep(0.1)
            return oracle(instance, max_jobs)

        monkeypatch.setattr(cli, "exact_mintpt", slow_oracle)
        ms = {}
        for algorithm in ("exact", "lbm"):
            code, out, _ = run(capsys, "solve", intervals, "--algorithm", algorithm, "--timings")
            assert code == 0
            (row,) = parse_csv(out)
            ms[algorithm] = float(row["ms"])
        assert ms["exact"] >= 100
        assert 0 <= ms["lbm"] < 100

    def test_ratio_parses_back_exactly(self, capsys, graham10):
        _, out, _ = run(capsys, "solve", graham10, "--algorithm", "lpt")
        (row,) = parse_csv(out)
        assert Fraction(row["ratio"]) == Fraction(39, 30)

    def test_json_format_carries_approx_fields(self, capsys, graham10):
        _, out, _ = run(capsys, "solve", graham10, "--algorithm", "lpt", "--format", "json")
        payload = json.loads(out)
        assert payload["ratio"] == "13/10"
        assert payload["ratio_approx"] == 1.3
        assert payload["ms"] is None

    def test_md_format(self, capsys, graham10):
        _, out, _ = run(capsys, "solve", graham10, "--algorithm", "lpt", "--format", "md")
        lines = out.splitlines()
        assert lines[0] == "| " + " | ".join(CSV_COLUMNS) + " |"
        assert "| 39 | 13/10 |" in lines[2]

    def test_md_escapes_a_pipe_in_a_cell(self, capsys, graham10, tmp_path, monkeypatch):
        # An instance name is written as given; its "|" must not open a cell.
        monkeypatch.chdir(tmp_path)
        Path("a|b.inst").write_text(Path(graham10).read_text())
        _, out, _ = run(capsys, "solve", "a|b.inst", "--algorithm", "lpt", "--format", "md")
        header, _, row = out.splitlines()
        cells = re.split(r"(?<!\\)\|", row)[1:-1]
        assert len(cells) == len(CSV_COLUMNS) == header.count("|") - 1
        assert cells[0] == r" a\|b.inst "

    def test_kind_algorithm_mismatch(self, capsys, graham10):
        code, _, err = run(capsys, "solve", graham10, "--algorithm", "estf")
        assert code == 2
        assert "does not apply" in err

    def test_unknown_algorithm_is_usage_error(self, graham10):
        with pytest.raises(SystemExit) as exc:
            main(["solve", graham10, "--algorithm", "bogus"])
        assert exc.value.code == 2

    def test_exact_beyond_limits(self, capsys, graham10):
        code, _, err = run(capsys, "solve", graham10, "--algorithm", "exact")
        assert code == 2
        assert "exceed" in err

    def test_exact_with_raised_limit(self, capsys, fixtures_dir):
        code, out, _ = run(
            capsys,
            "solve",
            str(fixtures_dir / "graham_m2.inst"),
            "--algorithm",
            "exact",
            "--oracle-limit",
            "5",
        )
        assert code == 0
        (row,) = parse_csv(out)
        assert row["objective"] == "6"

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "solve", str(tmp_path / "nope.inst"), "--algorithm", "lpt")
        assert code == 2
        assert "cannot read" in err

    def test_malformed_instance(self, capsys, tmp_path):
        bad = tmp_path / "bad.inst"
        bad.write_text("mintpt 1\ncapacity 2\njob 0 5 1 1\n")
        code, _, err = run(capsys, "solve", str(bad), "--algorithm", "estf")
        assert code == 2
        assert "line 3" in err

    def test_dump_for_exact_is_an_error(self, capsys, intervals, tmp_path):
        # Refused before the instance is read or solved: no report reaches stdout.
        code, out, err = run(
            capsys, "solve", intervals, "--algorithm", "exact",
            "--dump", str(tmp_path / "d.json"),
        )
        assert code == 2
        assert out == ""
        assert "dump" in err


class TestVerify:
    def test_pam_dump_passes(self, capsys, graham10, tmp_path):
        dump = tmp_path / "pam.json"
        run(capsys, "solve", graham10, "--algorithm", "pam", "--dump", str(dump))
        code, out, _ = run(capsys, "verify", graham10, str(dump))
        assert code == 0
        assert "all loads = 30" in out
        assert "verification passed" in out

    def test_tampered_dump_fails_conservation(self, capsys, graham10, tmp_path):
        dump = tmp_path / "pam.json"
        run(capsys, "solve", graham10, "--algorithm", "pam", "--dump", str(dump))
        payload = json.loads(dump.read_text())
        segment = payload["segments"][0] = _long_form(payload["segments"][:1], graham10)[0]
        segment[AMOUNT] = str(Fraction(segment[AMOUNT]) + 1)
        dump.write_text(json.dumps(payload, indent=2) + "\n")
        code, out, _ = run(capsys, "verify", graham10, str(dump))
        assert code == 1
        assert "conservation" in out

    def test_lbm_dump_passes_with_slot_usage(self, capsys, intervals, tmp_path):
        dump = tmp_path / "lbm.json"
        run(capsys, "solve", intervals, "--algorithm", "lbm", "--dump", str(dump))
        code, out, _ = run(capsys, "verify", intervals, str(dump))
        assert code == 0
        assert "ok: power-on time 4 = floor 4" in out

    def test_moved_placement_fails(self, capsys, intervals, tmp_path):
        dump = tmp_path / "lbm.json"
        run(capsys, "solve", intervals, "--algorithm", "lbm", "--dump", str(dump))
        payload = json.loads(dump.read_text())
        stint = payload["stints"][0]
        stint[START], stint[END] = stint[START] + 9, stint[END] + 9
        dump.write_text(json.dumps(payload, indent=2) + "\n")
        code, out, _ = run(capsys, "verify", intervals, str(dump))
        assert code == 1
        assert "FAIL" in out

    @pytest.mark.parametrize(
        "algorithm, module, check",
        [("pam", core, "segment_violations"), ("lbm", mintpt, "placement_violations")],
    )
    def test_failing_dump_is_checked_once(
        self, capsys, monkeypatch, fixtures_dir, tmp_path, algorithm, module, check
    ):
        # The schedule's error carries the problem list, so verify reports it
        # without running the check a second time. Both bindings are counted:
        # the library's, which the schedule calls, and cli's own.
        name = "graham_m10.inst" if algorithm == "pam" else "intervals_g3.inst"
        instance, dump = str(fixtures_dir / name), tmp_path / "d.json"
        run(capsys, "solve", instance, "--algorithm", algorithm, "--dump", str(dump))
        payload = json.loads(dump.read_text())
        if algorithm == "pam":
            payload["segments"] = _long_form(payload["segments"], instance)
            first, second = payload["segments"][:2]
            first[AMOUNT] = str(Fraction(first[AMOUNT]) + 1)
            second[MACHINE] = 99
            # The segment check takes the job, machine and amount columns.
            columns = list(zip(*((j, m, Fraction(a)) for j, m, a in payload["segments"])))
        else:
            first, second = payload["stints"][:2]
            first[START], first[END] = first[START] + 9, first[END] + 9
            second[JOB] = 99
            # The placement check takes the job, machine, start and end columns.
            columns = list(zip(*payload["stints"]))
        dump.write_text(json.dumps(payload))
        original = getattr(module, check)
        problems = original(load_instance(instance), *columns)
        assert len(problems) > 1
        calls = []

        def counted(*args, **kwargs):
            calls.append(check)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, check, counted)
        monkeypatch.setattr(cli, check, counted)
        code, out, _ = run(capsys, "verify", instance, str(dump))
        assert code == 1
        assert len(calls) == 1
        fails = [line for line in out.splitlines() if line.startswith("FAIL: ")]
        assert fails == [f"FAIL: {p}" for p in problems]

    def test_amounts_off_the_tick_grid_pass(self, capsys, graham10, tmp_path):
        # The instance's times are whole, so a tick is 1/10 here; sevenths are
        # off that grid and are added as fractions, per job.
        dump = tmp_path / "pam.json"
        run(capsys, "solve", graham10, "--algorithm", "pam", "--dump", str(dump))
        payload = json.loads(dump.read_text())
        segments = payload["segments"]
        jobs = [s[JOB] for s in segments]
        k = next(k for k, job in enumerate(jobs) if jobs.count(job) == 1)
        [(job, machine, whole)] = _long_form(segments[k : k + 1], graham10)
        segments[k : k + 1] = [
            [job, machine, str(Fraction(whole) / 7)],
            [job, machine, str(Fraction(whole) * 6 / 7)],
        ]
        payload["migrations"] += 1
        dump.write_text(json.dumps(payload, indent=2) + "\n")
        code, out, _ = run(capsys, "verify", graham10, str(dump))
        assert code == 0, out
        assert "ok: all loads = 30" in out
        assert "(21 jobs, 31 segments)" in out

    @pytest.mark.parametrize("algorithm", ["lpt", "pam", "wraparound"])
    def test_non_reduced_amounts_verify_as_their_reduced_forms(self, capsys, tmp_path, algorithm):
        # Halves on 2 machines: a tick is 1/4. 6/4, 2/2 and 4/2 are on that
        # grid, and 2/6 and 4/6 (a third, two thirds) are off it.
        text = "minms 1\nmachines 2\njob 0 3/2\njob 1 2\njob 2 1\njob 3 5/2\n"
        instance = _put(tmp_path / "h.inst", text)
        dump = tmp_path / "d.json"
        run(capsys, "solve", instance, "--algorithm", algorithm, "--dump", str(dump))
        payload = json.loads(dump.read_text())
        segments = payload["segments"]
        segments[:] = _long_form(segments, instance)
        # Split the first segment into a third and two thirds on its machine.
        job, machine, first = segments[0]
        segments[0:1] = [
            [job, machine, str(Fraction(first) / 3)],
            [job, machine, str(Fraction(first) * 2 / 3)],
        ]
        payload["migrations"] += 1
        reduced = json.dumps(payload)
        spellings = {"3/2": "6/4", "1": "2/2", "2": "4/2", "1/3": "2/6", "2/3": "4/6"}
        for segment in segments:
            segment[AMOUNT] = spellings.get(segment[AMOUNT], segment[AMOUNT])
        assert {s[AMOUNT] for s in segments} & {"6/4", "2/2", "2/6"}
        outputs = []
        for text in (reduced, json.dumps(payload)):
            dump.write_text(text)
            outputs.append(run(capsys, "verify", instance, str(dump)))
        assert outputs[0] == outputs[1]
        ticks = load_instance(instance).ticks
        assert [type(ticks.of(Fraction(a))) for a in ("6/4", "2/2", "4/2", "2/6", "4/6")] == [
            int, int, int, Fraction, Fraction
        ]

    def test_non_canonical_whole_job_amount_verifies(self, capsys, tmp_path):
        # A long record whose amount equals its job's time, "6/2" for job 0's
        # 3: it is decoded and converted as any other amount.
        instance = _put(tmp_path / "t.inst", "minms 1\nmachines 2\njob 0 3\njob 1 2\n")
        dump = _put(tmp_path / "d.json", json.dumps({
            "format": "migsched-dump", "version": 4, "kind": "minms", "algorithm": "lpt",
            "machine_count": 2, "migrations": 0,
            "segments": [[0, 0, "6/2"], [1, 1, "2"]],
        }))
        code, out, _ = run(capsys, "verify", instance, dump)
        assert code == 0, out
        assert "ok: per-job conservation holds (2 jobs, 2 segments)" in out.splitlines()

    def test_each_record_with_a_repeated_bad_amount_fails(self, capsys, tmp_path):
        # Amount strings are read once per verify: a good string repeats
        # around bad ones, and each bad record is its own FAIL line. A float
        # equal to an earlier good int amount is still refused, by the
        # schedule check, which takes every amount that is not a string.
        jobs = "".join(f"job {i} 1\n" for i in range(6))
        instance = _put(tmp_path / "ones.inst", "minms 1\nmachines 1\n" + jobs)
        amounts = ["1", "1/0", "1", "1/0", 1, 1.0]
        dump = _put(tmp_path / "d.json", json.dumps({
            "format": "migsched-dump", "version": 4, "kind": "minms", "algorithm": "lpt",
            "machine_count": 1, "migrations": 0,
            "segments": [[i, 0, a] for i, a in enumerate(amounts)],
        }))
        code, out, _ = run(capsys, "verify", instance, dump)
        assert code == 1
        malformed = [line for line in out.splitlines() if "malformed" in line]
        bad = "time must be n or num/den with a nonzero denominator, got '1/0'"
        assert malformed == [f"FAIL: segment {i} malformed: {bad}" for i in (1, 3)]
        assert "FAIL: job 5: segment amount 1.0 is not an int or Fraction" in out.splitlines()

    @pytest.mark.parametrize(
        "amount, code, line",
        [
            (True, 1, "FAIL: job 0: segment amount True is not an int or Fraction"),
            (1, 0, "verification passed"),
            ("1", 0, "verification passed"),
        ],
    )
    def test_boolean_amount_is_malformed(self, capsys, tmp_path, amount, code, line):
        # Python counts a JSON true as the int 1, which would conserve this job.
        instance = _put(tmp_path / "one.inst", "minms 1\nmachines 1\njob 0 1\n")
        dump = _put(tmp_path / "d.json", json.dumps({
            "format": "migsched-dump", "version": 4, "kind": "minms", "algorithm": "lpt",
            "machine_count": 1, "migrations": 0,
            "segments": [[0, 0, amount]],
        }))
        got, out, _ = run(capsys, "verify", instance, dump)
        assert got == code
        assert line in out.splitlines()

    def test_wraparound_windows_that_overlap_fail(self, capsys, tmp_path):
        # Both jobs split across the two machines at the same clock times.
        instance = _put(tmp_path / "two.inst", "minms 1\nmachines 2\njob 0 2\njob 1 2\n")
        segments = [[0, 0, "1"], [0, 1, "1"], [1, 0, "1"], [1, 1, "1"]]
        dump = _put(tmp_path / "d.json", json.dumps({
            "format": "migsched-dump", "version": 4, "kind": "minms", "algorithm": "wraparound",
            "machine_count": 2, "migrations": 2, "segments": segments,
        }))
        code, out, _ = run(capsys, "verify", instance, dump)
        assert code == 1
        assert "ok: makespan = 2 (wrap bound)" in out.splitlines()
        assert "FAIL: jobs [0, 1] overlap themselves in time" in out.splitlines()

    def test_wraparound_dump_passes(self, capsys, graham10, tmp_path):
        dump = tmp_path / "wrap.json"
        run(capsys, "solve", graham10, "--algorithm", "wraparound", "--dump", str(dump))
        code, out, _ = run(capsys, "verify", graham10, str(dump))
        assert code == 0
        assert "no job overlaps itself" in out

    def test_estf_dump_passes(self, capsys, intervals, tmp_path):
        dump = tmp_path / "estf.json"
        run(capsys, "solve", intervals, "--algorithm", "estf", "--dump", str(dump))
        code, out, _ = run(capsys, "verify", intervals, str(dump))
        assert code == 0

    def test_shuffled_lbm_dump_passes_with_its_migrations(self, capsys, tmp_path):
        # verify checks the records in the order written: a dump whose stints
        # are shuffled passes with the same lines, migrations included.
        text = serialize_instance(gen_random_mintpt(40, 12, 3, seed=5))
        instance = _put(tmp_path / "i.inst", text)
        dump = tmp_path / "lbm.json"
        run(capsys, "solve", instance, "--algorithm", "lbm", "--dump", str(dump))
        code, out, _ = run(capsys, "verify", instance, str(dump))
        payload = json.loads(dump.read_text())
        assert code == 0 and payload["migrations"] > 0
        assert f"ok: migrations = {payload['migrations']} as recorded" in out.splitlines()
        random.Random(0).shuffle(payload["stints"])
        dump.write_text(json.dumps(payload))
        assert run(capsys, "verify", instance, str(dump)) == (0, out, "")

    def test_a_job_split_on_one_machine_has_no_migration(self, capsys, tmp_path):
        instance = _put(tmp_path / "i.inst", "mintpt 1\ncapacity 1\njob 0 0 3 1\n")
        payload = {
            "format": "migsched-dump", "version": 4, "kind": "mintpt", "algorithm": "estf",
            "machines_used": 1, "migrations": 0, "stints": [[0, 0, 0, 2], [0, 0, 2, 3]],
        }
        dump = _put(tmp_path / "estf.json", json.dumps(payload))
        code, out, _ = run(capsys, "verify", instance, dump)
        assert code == 0
        assert out.splitlines() == [
            "ok: every job placed in all its slots within capacity 1",
            "ok: migrations = 0 as recorded",
            "ok: no migrations, each job keeps one machine",
            "verification passed",
        ]

    def test_kind_mismatch_rejected(self, capsys, graham10, intervals, tmp_path):
        dump = tmp_path / "lbm.json"
        run(capsys, "solve", intervals, "--algorithm", "lbm", "--dump", str(dump))
        code, _, err = run(capsys, "verify", graham10, str(dump))
        assert code == 2
        assert "does not match" in err

    @pytest.mark.parametrize(
        "fixture, algorithm, field, value, code, line",
        [
            ("graham_m2.inst", "lpt", "machine_count", 2.0, 1,
             "FAIL: machine_count 2.0 does not match instance 2"),
            ("graham_m2.inst", "lpt", "migrations", False, 1,
             "FAIL: migrations recorded as False, recomputed 0"),
            ("intervals_g3.inst", "estf", "migrations", 0.0, 1,
             "FAIL: migrations recorded as 0.0, recomputed 0"),
            ("intervals_g3.inst", "estf", "machines_used", 2.0, 1,
             "FAIL: machines_used recorded as 2.0, recomputed 2"),
            ("graham_m2.inst", "lpt", "version", 4.0, 2,
             "error: dump version 4.0 is not supported; this verify reads version 4"),
        ],
        ids=["machine_count", "minms-migrations", "mintpt-migrations", "machines_used", "version"],
    )
    def test_header_integers_must_be_json_integers(
        self, capsys, fixtures_dir, tmp_path, fixture, algorithm, field, value, code, line
    ):
        # false == 0 and 2.0 == 2 in Python; a dump writes these fields as integers.
        instance, dump = str(fixtures_dir / fixture), tmp_path / "d.json"
        run(capsys, "solve", instance, "--algorithm", algorithm, "--dump", str(dump))
        payload = json.loads(dump.read_text())
        assert payload[field] == value and type(payload[field]) is int
        payload[field] = value
        dump.write_text(json.dumps(payload))
        got, out, err = run(capsys, "verify", instance, str(dump))
        assert got == code
        assert line in (out + err).splitlines()

    def test_counts_of_a_dump_that_fails_its_check_are_not_compared(
        self, capsys, intervals, tmp_path
    ):
        # machines_used and migrations are counts of the rebuilt schedule; a
        # dump whose stints fail the check has none, so only its problems print.
        dump = tmp_path / "lbm.json"
        run(capsys, "solve", intervals, "--algorithm", "lbm", "--dump", str(dump))
        payload = json.loads(dump.read_text())
        payload["stints"][0][START] = 9
        payload["machines_used"] = payload["migrations"] = 7
        dump.write_text(json.dumps(payload))
        code, out, _ = run(capsys, "verify", intervals, str(dump))
        assert code == 1
        assert out.splitlines() == [
            "FAIL: job 0: stint [9, 3) is not a slot range",
            "FAIL: job 0: no placement for slots [0, 3)",
            "verification failed (2 issue(s))",
        ]

    def test_minms_migrations_of_a_dump_that_fails_its_check_are_not_compared(
        self, capsys, graham10, tmp_path
    ):
        # migrations is a count of the rebuilt schedule, as for mintpt: a dump
        # whose segments fail conservation has none, so only its problems print.
        dump = tmp_path / "pam.json"
        run(capsys, "solve", graham10, "--algorithm", "pam", "--dump", str(dump))
        payload = json.loads(dump.read_text())
        payload["segments"][0] = [*payload["segments"][0], "999"]
        payload["migrations"] = 7
        dump.write_text(json.dumps(payload))
        code, out, _ = run(capsys, "verify", graham10, str(dump))
        assert code == 1
        assert out.splitlines() == [
            "FAIL: conservation: job 19 segments sum to 999, process time is 19",
            "verification failed (1 issue(s))",
        ]

    @pytest.mark.parametrize("version", [1, 2, 3, None, "4", 5])
    def test_other_dump_versions_are_input_errors(self, capsys, intervals, tmp_path, version):
        dump = tmp_path / "lbm.json"
        run(capsys, "solve", intervals, "--algorithm", "lbm", "--dump", str(dump))
        payload = json.loads(dump.read_text())
        assert payload["version"] == 4
        payload["version"] = version
        if version == 1:  # the v1 layout: one record per active slot
            payload["placements"] = [
                {"job": j, "machine": m, "slot": slot}
                for j, m, start, end in payload.pop("stints")
                for slot in range(start, end)
            ]
        dump.write_text(json.dumps(payload, indent=2) + "\n")
        code, out, err = run(capsys, "verify", intervals, str(dump))
        assert code == 2
        assert out == ""
        assert err.startswith("error: dump version ")

    def test_a_version_2_dump_is_refused(self, capsys, tmp_path):
        # The v2 layout, five lines and three keys per record; solve writes v4.
        instance = _put(tmp_path / "two.inst", "minms 1\nmachines 2\njob 0 3\njob 1 2\n")
        dump = _put(tmp_path / "d.json", """{
  "format": "migsched-dump",
  "version": 2,
  "kind": "minms",
  "algorithm": "lpt",
  "machine_count": 2,
  "migrations": 0,
  "segments": [
    {
      "job": 0,
      "machine": 0,
      "amount": "3"
    },
    {
      "job": 1,
      "machine": 1,
      "amount": "2"
    }
  ]
}
""")
        assert run(capsys, "verify", instance, dump) == (
            2, "", "error: dump version 2 is not supported; this verify reads version 4\n"
        )

    def test_a_version_3_dump_is_refused(self, capsys, tmp_path):
        # The v3 layout, which wrote every amount; solve writes v4.
        instance = _put(tmp_path / "two.inst", "minms 1\nmachines 2\njob 0 3\njob 1 2\n")
        dump = _put(tmp_path / "d.json", """{
  "format": "migsched-dump",
  "version": 3,
  "kind": "minms",
  "algorithm": "lpt",
  "machine_count": 2,
  "migrations": 0,
  "segments": [
    [0, 0, "3"],
    [1, 1, "2"]
  ]
}
""")
        assert run(capsys, "verify", instance, dump) == (
            2, "", "error: dump version 3 is not supported; this verify reads version 4\n"
        )

    @pytest.mark.parametrize(
        "algorithm", [None, "pam", "bogus", "exact", 3, ["lbm"], "missing"]
    )
    def test_algorithm_without_a_certificate_is_an_input_error(
        self, capsys, intervals, tmp_path, algorithm
    ):
        dump = tmp_path / "lbm.json"
        run(capsys, "solve", intervals, "--algorithm", "lbm", "--dump", str(dump))
        payload = json.loads(dump.read_text())
        if algorithm == "missing":
            del payload["algorithm"]
        else:
            payload["algorithm"] = algorithm
        dump.write_text(json.dumps(payload, indent=2) + "\n")
        code, out, err = run(capsys, "verify", intervals, str(dump))
        assert code == 2
        assert out == ""
        assert err.startswith("error: dump algorithm ")

    def test_not_a_dump(self, capsys, graham10, tmp_path):
        bogus = tmp_path / "x.json"
        bogus.write_text("{}")
        code, _, err = run(capsys, "verify", graham10, str(bogus))
        assert code == 2


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=4)
    | st.sampled_from(["1/0", "0", "-1", "7/2", "inf", "x", "1e3", "19.0"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
# A record field: mostly the kind of value a dump holds, sometimes anything.
record_fields = st.integers(-1, 5) | st.sampled_from(["1", "2", "1/2", "1/0"]) | json_values


@pytest.fixture(scope="module")
def valid_dumps(tmp_path_factory):
    """Algorithm -> (instance path, a valid dump of that algorithm on it)."""
    fixtures = Path(__file__).parent / "fixtures"
    tmp = tmp_path_factory.mktemp("dumps")
    dumps = {}
    for name, algorithms in (
        ("graham_m2.inst", ("lpt", "pam", "wraparound")),
        ("intervals_g3.inst", ("estf", "lbm")),
    ):
        instance = str(fixtures / name)
        for algorithm in algorithms:
            path = tmp / f"{algorithm}.json"
            argv = ["solve", instance, "--algorithm", algorithm, "--out", str(tmp / "r.csv")]
            assert main(argv + ["--dump", str(path)]) == 0
            dumps[algorithm] = (instance, json.loads(path.read_text()))
    return tmp, dumps


class TestVerifyMalformedDumps:
    """verify ends every dump in ok/FAIL lines or an error line, never a traceback."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_replaced_values_never_raise(self, valid_dumps, data):
        tmp, dumps = valid_dumps
        instance, dump = copy.deepcopy(dumps[data.draw(st.sampled_from(sorted(dumps)))])
        records_key = "segments" if "segments" in dump else "stints"
        for _ in range(data.draw(st.integers(1, 3))):
            records = dump.get(records_key)
            target = data.draw(st.sampled_from(["field", "record", "records", "top"]))
            value = data.draw(json_values)
            if target == "records":
                dump[records_key] = value
            elif target == "top" or not isinstance(records, list) or not records:
                dump[data.draw(st.sampled_from(sorted(dump)))] = value
            else:
                i = data.draw(st.integers(0, len(records) - 1))
                if target == "field" and isinstance(records[i], list) and records[i]:
                    records[i][data.draw(st.integers(0, len(records[i]) - 1))] = value
                else:
                    records[i] = value
        path = tmp / "tampered.json"
        path.write_text(json.dumps(dump))

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["verify", instance, str(path)])
        assert code in (0, 1, 2)
        for line in out.getvalue().splitlines():
            assert line.startswith(("ok: ", "FAIL: ", "verification ")), line
        for line in err.getvalue().splitlines():
            assert line.startswith("error: "), line

    @settings(max_examples=200, deadline=None)
    @given(algorithm=st.sampled_from(["lpt", "pam", "wraparound", "estf", "lbm"]), records=st.lists(
        json_values | st.lists(record_fields, max_size=5) | st.sampled_from(["abc", "abcd"]),
        max_size=6,
    ))
    @example(algorithm="pam", records=["abc"])  # unpacks into three characters
    @example(algorithm="lbm", records=["abcd", [0, 0, 0, 3], [0, 0, 0], True])
    @example(algorithm="pam", records=[[3, 0, "1/0"], [3, 0, [3]], 3.0, [1, 1, "1/0", 0]])
    @example(algorithm="pam", records=[[[3], 0], [3], [True, 1], [3, 1], [{}, 0, "1"], []])
    def test_any_records_end_in_ok_or_fail_lines(self, valid_dumps, algorithm, records):
        # A v4 dump whose records are any JSON values: each one that is not a
        # list of one of the kind's widths gets its own malformed line, and
        # the dump ends in exit 0 or 1 with ok/FAIL lines, never an error line.
        tmp, dumps = valid_dumps
        instance, dump = copy.deepcopy(dumps[algorithm])
        key, widths = ("segments", (2, 3)) if "segments" in dump else ("stints", (4,))
        dump[key] = records
        path = tmp / "tampered.json"
        path.write_text(json.dumps(dump))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["verify", instance, str(path)])
        assert (code in (0, 1), err.getvalue()) == (True, "")
        lines = out.getvalue().splitlines()
        assert all(line.startswith(("ok: ", "FAIL: ", "verification ")) for line in lines)
        shape = f"malformed: expected a list of {' or '.join(map(str, widths))} values, got "
        assert [line.split()[2] for line in lines if shape in line] == [
            str(i) for i, r in enumerate(records) if type(r) is not list or len(r) not in widths
        ]

    # The line for each record field replaced below. Decoding reads only an
    # amount string; every other field value reaches the kind's schedule
    # check as written, and the check's line names the value.
    FIELD_LINES = {
        ("pam", 2, "amount"): "FAIL: segment 2 malformed: time must be n or num/den with a "
        "nonzero denominator, got '1/0'",
        ("lbm", 0, "machine"): "FAIL: job 0: machine id 0.9 is not a non-negative int",
        ("lbm", 0, "start"): "FAIL: job 0: stint [' 0 ', 3) is not a slot range",
        ("lbm", 0, "end"): "FAIL: job 0: stint [0, 3.0) is not a slot range",
        ("lbm", 0, "job"): "FAIL: stint references unknown job True",
        ("estf", 1, "machine"): "FAIL: job 1: machine id '0' is not a non-negative int",
        ("pam", 0, "machine"): "FAIL: job 3: machine id 0.9 is not an int in 0..1",
        ("pam", 0, "job"): "FAIL: segment references unknown job ' 0 '",
        ("pam", 1, "job"): "FAIL: segment references unknown job True",
    }

    @pytest.mark.parametrize(
        "algorithm, keys, value",
        [
            ("pam", ("segments", 2, "amount"), "1/0"),
            ("pam", ("segments",), 5),
            ("lbm", ("stints",), None),
            ("lbm", ("stints", 0, "machine"), 0.9),
            ("lbm", ("stints", 0, "start"), " 0 "),
            ("lbm", ("stints", 0, "end"), 3.0),
            ("lbm", ("stints", 0, "job"), True),
            ("estf", ("stints", 1, "machine"), "0"),
            ("pam", ("segments", 0, "machine"), 0.9),
            ("pam", ("segments", 0, "job"), " 0 "),
            ("pam", ("segments", 1, "job"), True),
        ],
    )
    def test_known_malformed_values_fail(self, capsys, valid_dumps, algorithm, keys, value):
        tmp, dumps = valid_dumps
        instance, dump = copy.deepcopy(dumps[algorithm])
        target = dump
        for k in keys[:-1]:
            target = target[k]
        target[FIELD[keys[-1]] if len(keys) == 3 else keys[-1]] = value
        path = tmp / "tampered.json"
        path.write_text(json.dumps(dump))
        code, out, _ = run(capsys, "verify", instance, str(path))
        assert code == 1
        if len(keys) == 3:  # one field of one record
            assert self.FIELD_LINES[algorithm, keys[1], keys[2]] in out.splitlines()
        else:
            assert f"FAIL: {keys[0]} malformed" in out

    @pytest.mark.parametrize(
        "algorithm, record, line",
        [
            ("pam", [0], "FAIL: segment 0 malformed: expected a list of 2 or 3 values, "
             "got a list of 1"),
            ("pam", [3, 0, "3", 0], "FAIL: segment 0 malformed: expected a list of 2 or 3 "
             "values, got a list of 4"),
            ("lbm", [0, 0, 0], "FAIL: stint 0 malformed: expected a list of 4 values, "
             "got a list of 3"),
            ("pam", {"job": 3, "machine": 0, "amount": "3"}, "FAIL: segment 0 malformed: "
             "expected a list of 2 or 3 values, got dict"),
            ("lbm", 7, "FAIL: stint 0 malformed: expected a list of 4 values, got int"),
        ],
    )
    def test_missing_field_or_non_object_record_is_malformed(
        self, capsys, valid_dumps, algorithm, record, line
    ):
        tmp, dumps = valid_dumps
        instance, dump = copy.deepcopy(dumps[algorithm])
        dump["segments" if "segments" in dump else "stints"][0] = record
        path = tmp / "tampered.json"
        path.write_text(json.dumps(dump))
        code, out, _ = run(capsys, "verify", instance, str(path))
        assert code == 1
        assert line in out.splitlines()

    @pytest.mark.parametrize("job", [99, True, 3.0, "3", None, [3], {"3": 3}])
    def test_a_short_record_of_a_bad_job_fails_as_a_long_one(self, capsys, valid_dumps, job):
        # A short record reads its job's time only for the schedule check,
        # which names an unknown, non-int or unhashable job before its amount.
        tmp, dumps = valid_dumps
        instance, dump = copy.deepcopy(dumps["pam"])
        assert dump["segments"][0] == [3, 0]
        outputs = []
        for record in ([job, 0], [job, 0, "3"]):
            dump["segments"][0] = record
            path = tmp / "tampered.json"
            path.write_text(json.dumps(dump))
            outputs.append(run(capsys, "verify", instance, str(path)))
        code, out, _ = outputs[0]
        assert code == 1
        assert out.splitlines()[:2] == [
            f"FAIL: segment references unknown job {job!r}",
            "FAIL: conservation: job 3 segments sum to 0, process time is 3",
        ]
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "algorithm, changes, line",
        [
            (
                "pam",
                {"job": 0.9, "machine": 0.9},
                "FAIL: segment references unknown job 0.9",
            ),
            (
                "lbm",
                {"start": "1", "end": None},
                "FAIL: job 0: stint ['1', None) is not a slot range",
            ),
        ],
        ids=["segment-job-then-machine", "stint-start-then-end"],
    )
    def test_first_bad_field_in_record_order_is_reported(
        self, capsys, valid_dumps, algorithm, changes, line
    ):
        # The schedule check reports a record once, at its first bad field: a
        # segment of an unknown job says nothing of its machine, and a stint's
        # start and end are read as one slot range.
        tmp, dumps = valid_dumps
        instance, dump = copy.deepcopy(dumps[algorithm])
        record = dump["segments" if "segments" in dump else "stints"][0]
        for field, value in changes.items():
            record[FIELD[field]] = value
        path = tmp / "tampered.json"
        path.write_text(json.dumps(dump))
        code, out, _ = run(capsys, "verify", instance, str(path))
        assert code == 1
        named = [x for x in out.splitlines() if any(repr(v) in x for v in changes.values())]
        assert named == [line]

    @pytest.mark.parametrize("amount", ["1e10000000", "19.0", 19.5])
    def test_amount_outside_the_time_grammar_is_malformed(
        self, capsys, valid_dumps, amount
    ):
        tmp, dumps = valid_dumps
        instance, dump = copy.deepcopy(dumps["pam"])
        dump["segments"][2][AMOUNT] = amount
        path = tmp / "tampered.json"
        path.write_text(json.dumps(dump))
        code, out, _ = run(capsys, "verify", instance, str(path))
        assert code == 1
        if isinstance(amount, str):  # decoded by the time grammar
            assert "FAIL: segment 2 malformed" in out
        else:  # judged as written by the schedule check
            assert f"segment amount {amount!r} is not an int or Fraction" in out


def _put(path, data):
    if isinstance(data, bytes):
        path.write_bytes(data)
    else:
        path.write_text(data)
    return str(path)


# Case -> argv builder taking (tmp_path, fixtures_dir).
FILE_AND_NUMBER_ERRORS = {
    "solve-directory": lambda tmp, fx: ["solve", str(tmp), "--algorithm", "lpt"],
    "solve-non-utf8-instance": lambda tmp, fx: [
        "solve", _put(tmp / "x.inst", b"minms 1\nmachines 2\njob 0 \xff\n"), "--algorithm", "lpt"
    ],
    "verify-non-utf8-dump": lambda tmp, fx: [
        "verify", str(fx / "graham_m2.inst"), _put(tmp / "d.json", b'{"format": "\xff"}')
    ],
    "verify-long-json-integer": lambda tmp, fx: [
        "verify",
        str(fx / "graham_m2.inst"),
        _put(
            tmp / "d.json",
            '{"format": "migsched-dump", "kind": "minms", "machine_count": ' + "2" * 5000 + "}",
        ),
    ],
    "solve-long-job-id": lambda tmp, fx: [
        "solve", _put(tmp / "x.inst", "minms 1\nmachines 2\njob " + "1" * 5000 + " 3\n"),
        "--algorithm", "lpt",
    ],
    "solve-long-machines": lambda tmp, fx: [
        "solve", _put(tmp / "x.inst", "minms 1\nmachines " + "2" * 5000 + "\njob 0 3\n"),
        "--algorithm", "lpt",
    ],
    "solve-long-capacity": lambda tmp, fx: [
        "solve", _put(tmp / "x.inst", "mintpt 1\ncapacity " + "2" * 5000 + "\njob 0 0 3 1\n"),
        "--algorithm", "estf",
    ],
    "solve-out-missing-directory": lambda tmp, fx: [
        "solve", str(fx / "graham_m2.inst"), "--algorithm", "lpt",
        "--out", str(tmp / "no" / "r.csv"),
    ],
    "solve-dump-missing-directory": lambda tmp, fx: [
        "solve", str(fx / "graham_m2.inst"), "--algorithm", "lpt",
        "--dump", str(tmp / "no" / "d.json"),
    ],
    "gen-out-missing-directory": lambda tmp, fx: [
        "gen", "--family", "graham", "--out", str(tmp / "no" / "g.inst")
    ],
    "bench-out-missing-directory": lambda tmp, fx: [
        "bench", "--family", "graham", "--m", "2", "--algorithms", "lpt",
        "--out", str(tmp / "no" / "b.csv"),
    ],
}


@pytest.mark.parametrize("case", sorted(FILE_AND_NUMBER_ERRORS))
def test_file_and_number_errors_are_input_errors(capsys, tmp_path, fixtures_dir, case):
    code, _, err = run(capsys, *FILE_AND_NUMBER_ERRORS[case](tmp_path, fixtures_dir))
    assert code == 2
    assert err.startswith("error: "), err


def test_a_deeply_nested_dump_is_an_input_error(capsys, tmp_path, intervals):
    # json.loads refuses nesting past the recursion limit with a
    # RecursionError, not a ValueError; verify words it as any unreadable dump.
    dump = _put(tmp_path / "d.json", "[" * 200_000)
    code, out, err = run(capsys, "verify", intervals, dump)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read dump {dump}: "), err


@pytest.mark.parametrize("algorithm", ["estf", "lbm"])
def test_solve_does_not_scale_with_the_horizon(capsys, tmp_path, algorithm):
    # One job a million or ten billion slots long: a schedule of stints holds
    # one record, the oracle one piece, and verify compares totals, where one
    # entry per slot would take megabytes or terabytes.
    for end, oracle_limit in ((1000000, ["--oracle-limit", "0"]), (10000000000, [])):
        instance = _put(tmp_path / "long.inst", f"mintpt 1\ncapacity 1\njob 0 0 {end} 1\n")
        dump = tmp_path / "d.json"
        tracemalloc.start()
        try:
            argv = ["solve", instance, "--algorithm", algorithm, *oracle_limit]
            solved = main(argv + ["--dump", str(dump)])
            report = capsys.readouterr().out
            verified = main(["verify", instance, str(dump)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (solved, verified) == (0, 0)
        assert capsys.readouterr().out.endswith("verification passed\n")
        (row,) = parse_csv(report)
        assert (row["optimum"], row["objective"], row["ratio"]) == (str(end), str(end), "1")
        assert (row["migrations"], row["oracle"]) == ("0", str(end) if not oracle_limit else "")
        assert json.loads(dump.read_text())["stints"] == [[0, 0, 0, end]]
        assert peak < 5 * 2**20


@pytest.mark.parametrize("algorithm", ["lpt", "wraparound", "exact"])
def test_solve_does_not_scale_with_the_machine_count(capsys, tmp_path, algorithm):
    # Two jobs on 10^12 machines: the greedy heap holds min(n, m) machines,
    # the makespan is taken over loaded machines, and the oracle searches
    # min(n, m) machines, so nothing is allocated per machine.
    instance = _put(tmp_path / "wide.inst", "minms 1\nmachines 1000000000000\njob 0 5\njob 1 7/2\n")
    dump = tmp_path / "d.json"
    dump_argv = [] if algorithm == "exact" else ["--dump", str(dump)]
    tracemalloc.start()
    try:
        solved = main(["solve", instance, "--algorithm", algorithm, *dump_argv])
        report = capsys.readouterr().out
        verified = main(["verify", instance, str(dump)]) if dump_argv else 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (solved, verified) == (0, 0)
    (row,) = parse_csv(report)
    assert (row["optimum"], row["objective"], row["oracle"]) == ("17/2000000000000", "5", "5")
    if dump_argv:
        assert capsys.readouterr().out.endswith("verification passed\n")
        assert json.loads(dump.read_text())["segments"] == [[0, 0], [1, 1]]
    assert peak < 5 * 2**20


def test_solve_pam_refuses_more_machines_than_its_gate(capsys, tmp_path):
    # pam ends with a segment on every machine, so above its gate it refuses
    # with one error line before allocating anything per machine.
    instance = _put(tmp_path / "wide.inst", "minms 1\nmachines 1000000000000\njob 0 5\njob 1 7/2\n")
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "solve", instance, "--algorithm", "pam")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert err == (
        f"error: 1000000000000 machines exceed the pam limit of {core.MAX_MACHINES}\n"
    )
    assert peak < 5 * 2**20


@pytest.mark.parametrize(
    "job_line, algorithm",
    [("job {i} 1", "lpt"), ("job {i} 0 2 1", "lbm")],
    ids=["minms", "mintpt"],
)
def test_oracle_refuses_jobs_past_its_search_depth(capsys, tmp_path, job_line, algorithm):
    # The oracles recurse once per job: with the gate raised to 5000, 1500
    # jobs are refused (an empty oracle column, or an error line for exact),
    # never a RecursionError traceback.
    header = "minms 1\nmachines 2\n" if algorithm == "lpt" else "mintpt 1\ncapacity 2\n"
    lines = "".join(job_line.format(i=i) + "\n" for i in range(1500))
    instance = _put(tmp_path / "many.inst", header + lines)
    raised = ("--oracle-limit", "5000")
    code, out, _ = run(capsys, "solve", instance, "--algorithm", algorithm, *raised)
    assert code == 0
    (row,) = parse_csv(out)
    assert row["oracle"] == ""
    code, out, err = run(capsys, "solve", instance, "--algorithm", "exact", *raised)
    assert (code, out) == (2, "")
    assert err == "error: 1500 jobs exceed the oracle limit of 500\n"


@pytest.mark.parametrize("machines", [1000000, 1000000000000])
def test_verify_pam_does_not_scale_with_the_machine_count(capsys, tmp_path, machines):
    # One segment on a million or 10^12 machines: the pam certificate
    # compares the makespan with W/m, where a load per machine would take
    # megabytes or end in a MemoryError.
    instance = _put(tmp_path / "wide.inst", f"minms 1\nmachines {machines}\njob 0 5\n")
    dump = tmp_path / "d.json"
    dump.write_text(json.dumps({
        "format": "migsched-dump", "version": 4, "kind": "minms", "algorithm": "pam",
        "machine_count": machines, "migrations": 0, "segments": [[0, 0, "5"]],
    }))
    tracemalloc.start()
    try:
        code = main(["verify", instance, str(dump)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = capsys.readouterr().out
    assert code == 1
    fails = [line for line in out.splitlines() if line.startswith("FAIL:")]
    assert fails == [f"FAIL: makespan 5 exceeds the balanced optimum 1/{machines // 5}"]
    assert peak < 5 * 2**20


class TestBench:
    def test_graham_sweep_ratio_column(self, capsys):
        code, out, _ = run(
            capsys, "bench", "--family", "graham", "--m", "2:20",
            "--algorithms", "lpt,pam",
        )
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 19 * 2
        for row in rows:
            m = int(row["param"])
            if row["algorithm"] == "lpt":
                assert Fraction(row["ratio"]) == Fraction(4 * m - 1, 3 * m)
            else:
                assert row["ratio"] == "1"
                assert row["objective"] == str(3 * m)

    def test_random_mintpt_with_oracle(self, capsys):
        code, out, _ = run(
            capsys, "bench", "--family", "random-mintpt", "--n", "6",
            "--horizon", "8", "--g", "2", "--seeds", "0:9",
            "--algorithms", "estf,lbm,exact",
        )
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 30
        for row in rows:
            if row["algorithm"] == "lbm":
                assert row["objective"] == row["optimum"]
            assert row["oracle"] != ""
            assert int(row["optimum"]) <= int(row["oracle"])
            if row["algorithm"] == "estf":
                assert int(row["objective"]) >= int(row["oracle"])

    def test_random_minms_sweep(self, capsys):
        code, out, _ = run(
            capsys, "bench", "--family", "random-minms", "--n", "6", "--m", "3",
            "--p-max", "9", "--seeds", "1,2,3", "--algorithms", "lpt,pam,exact",
        )
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 9
        for row in rows:
            if row["algorithm"] == "pam":
                assert row["ratio"] == "1"

    @pytest.mark.parametrize(
        "oracle, argv",
        [
            ("exact_minms", ("--family", "random-minms", "--n", "6", "--m", "3",
                             "--seeds", "1:4", "--algorithms", "lpt,exact,pam")),
            ("exact_mintpt", ("--family", "random-mintpt", "--n", "6", "--horizon", "8",
                              "--g", "2", "--seeds", "0:9", "--algorithms", "exact,estf,lbm")),
        ],
    )
    def test_oracle_runs_once_per_instance(self, capsys, monkeypatch, oracle, argv):
        # The exact row takes the value that fills the oracle column.
        calls = {"exact_minms": 0, "exact_mintpt": 0}

        def counting(name):
            wrapped = getattr(cli, name)

            def count(*args, **kwargs):
                calls[name] += 1
                return wrapped(*args, **kwargs)

            return count

        for name in calls:
            monkeypatch.setattr(cli, name, counting(name))
        code, out, _ = run(capsys, "bench", *argv)
        assert code == 0
        rows = parse_csv(out)
        instances = len(rows) // 3
        assert instances == len({row["instance"] for row in rows})
        assert calls == {name: instances if name == oracle else 0 for name in calls}
        for row in rows:
            assert row["oracle"] != ""
            if row["algorithm"] == "exact":
                assert row["objective"] == row["oracle"]

    def test_empty_seed_list_yields_header_only(self, capsys):
        code, out, _ = run(
            capsys, "bench", "--family", "random-minms", "--seeds", "",
            "--algorithms", "lpt",
        )
        assert code == 0
        assert out == ",".join(CSV_COLUMNS) + "\n"

    def test_unknown_algorithm(self, capsys):
        code, _, err = run(
            capsys, "bench", "--family", "graham", "--algorithms", "lpt,nope"
        )
        assert code == 2
        assert "unknown algorithm" in err

    def test_family_algorithm_mismatch(self, capsys):
        code, _, err = run(
            capsys, "bench", "--family", "graham", "--m", "2:3", "--algorithms", "estf"
        )
        assert code == 2

    def test_bad_range(self, capsys):
        code, _, err = run(
            capsys, "bench", "--family", "graham", "--m", "2:x", "--algorithms", "lpt"
        )
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("--family", "random-mintpt", "--g", "0", "--algorithms", "lbm"),
            ("--family", "random-minms", "--n", "0", "--m", "3", "--algorithms", "lpt"),
        ],
    )
    def test_bad_generator_parameters_are_input_errors(self, capsys, argv):
        code, out, err = run(capsys, "bench", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--family", "graham", "--m", "1:1000000000000", "--algorithms", "lpt"),
             "the adversarial family needs m >= 2, got 1"),
            (("--family", "random-minms", "--m", "3", "--p-min", "0",
              "--seeds", "0:1000000000000", "--algorithms", "lpt"),
             "empty or invalid process-time range (0, 20)"),
        ],
        ids=["graham-m", "random-minms-seeds"],
    )
    def test_long_range_is_generated_one_instance_at_a_time(self, capsys, argv, message):
        # A range of 10^12 values stays a range: the first instance's bad
        # parameters end the sweep with one error line, where expanding the
        # range first would need terabytes and end in a MemoryError.
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "bench", *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert peak < 5 * 2**20


@pytest.mark.parametrize(
    "argv",
    [
        ("bench", "--family", "graham", "--m", "", "--algorithms", "lpt"),
        ("bench", "--family", "graham", "--m", "2", "--algorithms", "lpt"),
        ("bench", "--family", "graham", "--m", "1", "--algorithms", "lpt"),
        ("bench", "--family", "random-mintpt", "--seeds", "", "--algorithms", "lbm"),
        ("solve", "nope.inst", "--algorithm", "lpt"),
    ],
    ids=["bench-no-instances", "bench", "bench-bad-generator", "bench-no-seeds", "solve-missing"],
)
def test_negative_oracle_limit_is_refused_before_any_instance(capsys, argv):
    # Once per command, before an instance is read or generated: a sweep with
    # no instances, or none that could be made, still refuses it.
    code, out, err = run(capsys, *argv, "--oracle-limit", "-1")
    assert (code, out, err) == (2, "", "error: --oracle-limit must be >= 0\n")


class TestGen:
    def test_graham_file_round_trips(self, capsys, tmp_path):
        out_path = tmp_path / "g.inst"
        code, _, _ = run(capsys, "gen", "--family", "graham", "--m", "4", "--out", str(out_path))
        assert code == 0
        inst = load_instance(out_path)
        assert len(inst.jobs) == 9
        assert total_load(inst) == 48

    def test_random_mintpt_to_stdout(self, capsys):
        code, out, _ = run(
            capsys, "gen", "--family", "random-mintpt", "--n", "3", "--horizon", "6",
            "--g", "2", "--seed", "5",
        )
        assert code == 0
        assert out.startswith("mintpt 1\ncapacity 2\n")

    def test_degenerate_family_parameter(self, capsys):
        code, _, err = run(capsys, "gen", "--family", "graham", "--m", "1")
        assert code == 2


class TestDeterminism:
    def test_solve_and_dump_bytes(self, capsys, graham10, tmp_path):
        outputs = []
        for tag in ("a", "b"):
            report = tmp_path / f"{tag}.csv"
            dump = tmp_path / f"{tag}.json"
            code, _, _ = run(
                capsys, "solve", graham10, "--algorithm", "pam",
                "--out", str(report), "--dump", str(dump),
            )
            assert code == 0
            outputs.append((report.read_bytes(), dump.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_bench_bytes(self, capsys, tmp_path):
        blobs = []
        for tag in ("a", "b"):
            for fmt in ("csv", "md"):
                path = tmp_path / f"{tag}.{fmt}"
                code, _, _ = run(
                    capsys, "bench", "--family", "random-mintpt", "--seeds", "0:4",
                    "--n", "6", "--horizon", "8", "--g", "2",
                    "--algorithms", "estf,lbm", "--format", fmt, "--out", str(path),
                )
                assert code == 0
            blobs.append(
                ((tmp_path / f"{tag}.csv").read_bytes(), (tmp_path / f"{tag}.md").read_bytes())
            )
        assert blobs[0] == blobs[1]

    def test_gen_bytes(self, capsys, tmp_path):
        paths = [tmp_path / "a.inst", tmp_path / "b.inst"]
        for path in paths:
            run(
                capsys, "gen", "--family", "random-minms", "--n", "7", "--m", "3",
                "--seed", "13", "--out", str(path),
            )
        assert paths[0].read_bytes() == paths[1].read_bytes()


@st.composite
def solver_cases(draw):
    """(instance, algorithm): a solver and a drawn instance of its kind."""
    if draw(st.booleans()):
        sizes = draw(
            st.lists(st.fractions(min_value=Fraction(1, 9), max_value=40), min_size=1, max_size=16)
        )
        ids = draw(
            st.lists(st.integers(0, 10**20), min_size=len(sizes), max_size=len(sizes), unique=True)
        )
        instance = MinMsInstance(tuple(map(Job, ids, sizes)), draw(st.integers(1, 6)))
        algorithm = draw(st.sampled_from(["lpt", "pam", "wraparound"]))
    else:
        jobs = []
        for i in range(draw(st.integers(0, 20))):
            start = draw(st.integers(0, 30))
            jobs.append(IntervalJob(i, start, draw(st.integers(start + 1, 40))))
        instance = IntervalInstance(tuple(jobs), draw(st.integers(1, 5)))
        algorithm = draw(st.sampled_from(["estf", "lbm"]))
    return instance, algorithm


def _solved(case):
    """(builder of the solver's schedule, algorithm) for an (instance, algorithm) case."""
    instance, algorithm = case
    return functools.partial(cli.ALGORITHMS[algorithm][1], instance), algorithm


def _pam_with_off_grid_amounts():
    """A pam schedule of halves whose first segment is cut into 1/7 and the rest."""
    instance = MinMsInstance(tuple(Job(i, Fraction(p, 2)) for i, p in enumerate((9, 7, 5, 3))), 3)
    segments = list(minms.pam_schedule(instance).schedule.segments)
    job, machine, amount = segments[0]
    segments[:1] = [
        JobSegment(job, machine, Fraction(1, 7)),
        JobSegment(job, machine, amount - Fraction(1, 7)),
    ]
    return MigrationSchedule(instance, tuple(segments))


def reference_payload(schedule, algorithm):
    """The dump as JSON data, one list per record: [job, machine] for a
    segment whose amount equals its job's process time, and `str()` of every
    other amount. The writer's text must be `reference_text` of it."""
    header = {"format": cli.DUMP_FORMAT, "version": cli.DUMP_VERSION}
    if isinstance(schedule, MigrationSchedule):
        times = {job.id: job.process_time for job in schedule.instance.jobs}
        return header | {
            "kind": "minms",
            "algorithm": algorithm,
            "machine_count": schedule.instance.machine_count,
            "migrations": schedule.migrations,
            "segments": [
                [j, m] if a == times[j] else [j, m, str(a)] for j, m, a in schedule.segments
            ],
        }
    return header | {
        "kind": "mintpt",
        "algorithm": algorithm,
        "machines_used": schedule.machines_used,
        "migrations": schedule.migrations,
        "stints": [list(s) for s in schedule.stints],
    }


def reference_text(payload):
    """The documented layout: the header as `json.dumps(header, indent=2)`
    lays it out, and in place of the record list one `json.dumps(list(record))`
    line per record, indented by four spaces."""
    *header, (key, records) = payload.items()
    lines = ",\n".join("    " + json.dumps(list(record)) for record in records)
    layout = json.dumps(dict(header, **{key: "@records"}), indent=2) + "\n"
    return layout.replace('"@records"', f"[\n{lines}\n  ]" if records else "[]")


def _one_amount_object_many_times():
    """Eighteen segments of one job, all holding the same 1/3 object."""
    third = Fraction(1, 3)
    segments = tuple(JobSegment(0, i % 4, third) for i in range(18))
    return MigrationSchedule(MinMsInstance((Job(0, 6),), 4), segments)


def _equal_amounts_in_distinct_objects():
    """Halves that are equal but distinct objects, between other amounts."""
    instance = MinMsInstance((Job(0, 3), Job(1, Fraction(5, 2))), 3)
    segments = (
        JobSegment(0, 0, Fraction(1, 2)),
        JobSegment(1, 0, Fraction(3, 2)),
        JobSegment(0, 1, Fraction(1, 2)),
        JobSegment(1, 2, Fraction(2, 2)),
        JobSegment(0, 2, Fraction(4, 2)),
    )
    return MigrationSchedule(instance, segments)


def _int_amounts():
    """A schedule built through the library with int amounts, not Fractions."""
    instance = MinMsInstance((Job(0, 5), Job(1, 3)), 2)
    segments = (JobSegment(0, 0, 2), JobSegment(1, 1, 3), JobSegment(0, 1, 3))
    return MigrationSchedule(instance, segments)


# Cases hold builders, not schedules, so a solver defect fails the cases that
# build with it instead of the collection of this module.
@settings(max_examples=300, deadline=None)
@given(solver_cases().map(_solved))
@example((lambda: mintpt.lbm_schedule(IntervalInstance((), 1)), "lbm"))
@example((_pam_with_off_grid_amounts, "pam"))
@example((_one_amount_object_many_times, "pam"))
@example((_equal_amounts_in_distinct_objects, "pam"))
@example((_int_amounts, "wraparound"))
def test_dump_writer_matches_json_dumps(case):
    build, algorithm = case
    schedule = build()
    payload = reference_payload(schedule, algorithm)
    text = cli._dump_text(schedule, algorithm)
    assert text == reference_text(payload)
    assert json.loads(text) == payload


@pytest.mark.parametrize(
    "case, key, field, value",
    [
        ((_equal_amounts_in_distinct_objects, "pam"), "segments", "amount", "7/2"),
        ((lambda: mintpt.lbm_schedule(IntervalInstance((IntervalJob(0, 0, 3),), 1)), "lbm"),
         "stints", "end", 9),
    ],
    ids=["segment", "stint"],
)
def test_an_edited_payload_record_is_written_in_place_of_its_row(
    monkeypatch, case, key, field, value
):
    # A record taken from the payload and changed before writing is written
    # as changed, and every other record as the schedule holds it.
    build, algorithm = case
    schedule = build()
    payload = cli._dump_payload(schedule, algorithm)
    expected = reference_payload(schedule, algorithm)
    payload[key][0][field] = expected[key][0][FIELD[field]] = value
    monkeypatch.setattr(cli, "_dump_payload", lambda *_: payload)
    text = cli._dump_text(schedule, algorithm)
    assert text == reference_text(expected)
    assert json.loads(text) == expected


def test_an_edited_amount_above_its_job_is_written_long(monkeypatch):
    # Only an amount equal to its job's time is written short: one larger
    # than the job (a corrupted record) keeps its amount.
    schedule = minms.lpt_schedule(MinMsInstance((Job(0, Fraction(5, 2)), Job(1, 1)), 2))
    payload = cli._dump_payload(schedule, "lpt")
    expected = reference_payload(schedule, "lpt")
    job, machine, amount = schedule.segments[0]
    payload["segments"][0]["amount"] = amount + 1
    expected["segments"][0] = [job, machine, str(amount + 1)]
    monkeypatch.setattr(cli, "_dump_payload", lambda *_: payload)
    assert cli._dump_text(schedule, "lpt") == reference_text(expected)


def test_a_segment_above_its_job_is_written_long_for_verify_to_refuse(capsys, tmp_path):
    # A faulty solver's segment longer than its job is no whole job: the
    # writer keeps its amount, so verify sees the conservation failure.
    instance = MinMsInstance((Job(0, 2), Job(1, 1)), 2)
    view = instance.ticks
    ticks = [view.sizes[0] + view.unit, view.sizes[1]]
    schedule = MigrationSchedule._trusted(instance, [0, 1], [0, 1], ticks)
    text = cli._dump_text(schedule, "lpt")
    assert json.loads(text)["segments"] == [[0, 0, "3"], [1, 1]]
    path = _put(tmp_path / "i.inst", serialize_instance(instance))
    code, out, _ = run(capsys, "verify", path, _put(tmp_path / "d.json", text))
    assert code == 1
    assert "FAIL: conservation: job 0 segments sum to 3, process time is 2\n" in out


@settings(max_examples=150, deadline=None)
@given(case=solver_cases())
def test_reported_objective_is_measured_on_the_dumped_schedule(tmp_path_factory, case):
    # The report's objective is the makespan or power-on time of the public
    # rebuild of the dump solve writes, not a value the solver aimed at.
    instance, algorithm = case
    tmp = tmp_path_factory.getbasetemp()
    path = _put(tmp / "objective.inst", serialize_instance(instance))
    dump = tmp / "objective.json"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        argv = ["solve", path, "--algorithm", algorithm, "--format", "json", "--dump", str(dump)]
        assert main(argv + ["--oracle-limit", "0"]) == 0
    objective = Fraction(json.loads(out.getvalue())["objective"])
    payload, loaded = json.loads(dump.read_text()), load_instance(path)
    if payload["kind"] == "minms":
        records = _long_form(payload["segments"], path)
        segments = [JobSegment(j, m, core.as_time(a)) for j, m, a in records]
        assert objective == MigrationSchedule(loaded, tuple(segments)).makespan()
    else:
        stints = list(map(tuple, payload["stints"]))
        assert objective == IntervalSchedule(loaded, tuple(stints)).total_power_on_time()


# A prime above every tick count in `minms_dump_cases`: a time of at most 40,
# with denominators of at most 12, on at most 5 machines is at most
# 40 x lcm(1..12) x 5 ticks, so a cut at k/OFF_GRID_PRIME is never a whole tick.
OFF_GRID_PRIME = 2**31 - 1


@st.composite
def minms_dump_cases(draw):
    """(builder of a schedule, algorithm, index of a job): a minms solver's
    schedule of a drawn instance, or, half the time, that schedule built in
    public with one segment cut at k/OFF_GRID_PRIME of its amount, which is
    off the tick grid."""
    sizes = draw(st.lists(
        st.fractions(Fraction(1, 9), 40, max_denominator=12), min_size=1, max_size=10
    ))
    instance = MinMsInstance(tuple(Job(i, p) for i, p in enumerate(sizes)), draw(st.integers(1, 5)))
    algorithm = draw(st.sampled_from(["lpt", "pam", "wraparound"]))
    cut = draw(st.none() | st.tuples(st.integers(0, 99), st.integers(1, OFF_GRID_PRIME - 1)))

    def build():
        schedule = cli.ALGORITHMS[algorithm][1](instance)
        if cut is None:
            return schedule
        segments = list(schedule.segments)
        k = cut[0] % len(segments)
        job, machine, amount = segments[k]
        piece = amount * Fraction(cut[1], OFF_GRID_PRIME)
        segments[k : k + 1] = [
            JobSegment(job, machine, piece), JobSegment(job, machine, amount - piece)
        ]
        return MigrationSchedule(instance, tuple(segments))

    return build, algorithm, draw(st.integers(0, len(sizes) - 1))


def _verify_text(tmp, instance_path, payload):
    """verify's exit code and stdout on `payload` written as a dump."""
    dump = _put(tmp / "whole.json", json.dumps(payload))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify", instance_path, dump])
    return code, out.getvalue()


@settings(max_examples=150, deadline=None)
@given(case=minms_dump_cases())
@example(case=(_pam_with_off_grid_amounts, "pam", 0))
@example(case=(_equal_amounts_in_distinct_objects, "pam", 1))
@example(case=(_int_amounts, "wraparound", 1))
def test_a_whole_job_record_is_short_by_value_and_reads_as_its_long_form(
    tmp_path_factory, case
):
    build, algorithm, extra = case
    schedule = build()
    instance = schedule.instance
    tmp = tmp_path_factory.getbasetemp()
    path = _put(tmp / "whole.inst", serialize_instance(instance))
    text = cli._dump_text(schedule, algorithm)

    # The same values in other objects write the same bytes.
    def copy_of(value):
        return Fraction(value.numerator, value.denominator)

    copied = MinMsInstance(
        tuple(Job(job.id, copy_of(job.process_time)) for job in instance.jobs),
        instance.machine_count,
    )
    segments = tuple(JobSegment(j, m, copy_of(a)) for j, m, a in schedule.segments)
    assert cli._dump_text(MigrationSchedule(copied, segments), algorithm) == text

    # Every short record written long gives the same verdict, line for line.
    payload = json.loads(text)
    assert _verify_text(tmp, path, payload) == _verify_text(tmp, path, payload | {
        "segments": _long_form(payload["segments"], path)
    })

    # A second record of a job, written short, adds its whole time again.
    job = instance.jobs[extra]
    payload["segments"].append([job.id, 0])
    assert _verify_text(tmp, path, payload) == (1, (
        f"FAIL: conservation: job {job.id} segments sum to {2 * job.process_time}, "
        f"process time is {job.process_time}\nverification failed (1 issue(s))\n"
    ))


def test_pam_dump_text_on_many_machines_peaks_near_its_length():
    # Two jobs on 10^5 machines: a segment per machine. Writing the dump
    # builds the template, the flat field tuple and the text, with no dict
    # and no string per record, so its peak stays within a few times the
    # text's length.
    schedule = minms.pam_schedule(MinMsInstance((Job(0, 7), Job(1, 3)), 100_000)).schedule
    tracemalloc.start()
    try:
        text = cli._dump_text(schedule, "pam")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(schedule.segments) == 100_000
    assert peak < 5 * len(text)


def test_empty_mintpt_instance_solves_and_verifies(capsys, tmp_path):
    # No jobs: every objective is 0, the ratio to a floor of 0 is undefined,
    # and a dump with no stints passes verify.
    instance = _put(tmp_path / "empty.inst", "mintpt 1\ncapacity 2\n")
    for algorithm in ("estf", "lbm", "exact"):
        dump = [] if algorithm == "exact" else ["--dump", str(tmp_path / f"{algorithm}.json")]
        argv = ["solve", instance, "--algorithm", algorithm, "--format", "json", *dump]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        row = json.loads(out)
        assert (row["optimum"], row["objective"], row["oracle"]) == ("0", "0", "0")
        assert (row["ratio"], row["ratio_approx"]) == (None, None)
        if dump:
            assert json.loads(Path(dump[1]).read_text())["stints"] == []
            code, out, _ = run(capsys, "verify", instance, dump[1])
            assert (code, out.splitlines()[-1]) == (0, "verification passed")


# Case -> argv builder taking tmp_path. Every number written in the files is
# within Python's int-to-string limit (4,300 digits); a value derived from
# them is not, and printing it raises a plain ValueError.
DERIVED_DIGIT_LIMIT = {
    # The optimum, 1/7 over machines of 4,300 nines, has a 4,301-digit denominator.
    "solve-lpt-optimum": lambda tmp: [
        "solve", _put(tmp / "x.inst", "minms 1\nmachines " + "9" * 4300 + "\njob 0 1/7\n"),
        "--algorithm", "lpt",
    ],
    # Two jobs of 10^4300 - 1 slots on capacity 1: a 4,301-digit power-on total.
    "solve-estf-power-on": lambda tmp: [
        "solve",
        _put(tmp / "x.inst", "mintpt 1\ncapacity 1\n" + f"job 0 0 {'9' * 4300} 1\n"
             + f"job 1 0 {'9' * 4300} 1\n"),
        "--algorithm", "estf", "--oracle-limit", "0",
    ],
    # The conservation FAIL line prints the sum of two amounts whose
    # denominators have 4,300 digits each.
    "verify-conservation-sum": lambda tmp: [
        "verify",
        _put(tmp / "x.inst", "minms 1\nmachines 1\njob 0 1\n"),
        _put(tmp / "d.json", json.dumps({
            "format": "migsched-dump", "version": 4, "kind": "minms", "algorithm": "lpt",
            "machine_count": 1, "migrations": 1,
            "segments": [[0, 0, f"1/{10**4299 + 7}"], [0, 0, f"1/{10**4299 + 9}"]],
        })),
    ],
}


@pytest.mark.parametrize("case", sorted(DERIVED_DIGIT_LIMIT))
def test_derived_values_past_the_digit_limit_are_input_errors(capsys, tmp_path, case):
    code, out, err = run(capsys, *DERIVED_DIGIT_LIMIT[case](tmp_path))
    assert (code, out) == (2, "")
    assert err == "error: a result has more than 4300 digits and cannot be printed\n"


def test_other_value_errors_are_not_input_errors(monkeypatch, graham10):
    # Only the digit limit's ValueError becomes an error line: any other is a bug.
    def broken(args):
        raise ValueError("boom")

    monkeypatch.setattr(cli, "cmd_solve", broken)
    with pytest.raises(ValueError, match="boom"):
        main(["solve", graham10, "--algorithm", "lpt"])


NINES = "9" * 400
BIG_TIME = f"minms 1\nmachines 2\njob 0 {NINES}\n"
BIG_MACHINES = f"minms 1\nmachines {NINES}\njob 0 1\n"
BIG_SLOTS = f"mintpt 1\ncapacity 2\njob 0 0 {NINES} 1\n"


@pytest.mark.parametrize(
    "text, algorithm, approx",
    [
        (BIG_TIME, "lpt", (None, None, 2.0)),
        (BIG_TIME, "pam", (None, None, 1.0)),
        (BIG_TIME, "wraparound", (None, None, 2.0)),
        (BIG_TIME, "exact", (None, None, 2.0)),
        (BIG_MACHINES, "lpt", (0.0, 1.0, None)),
        (BIG_SLOTS, "estf", (None, None, 1.0)),
        (BIG_SLOTS, "lbm", (None, None, 1.0)),
        (BIG_SLOTS, "exact", (None, None, 1.0)),
    ],
    ids=[
        "time-lpt", "time-pam", "time-wraparound", "time-exact", "machines-lpt",
        "slots-estf", "slots-lbm", "slots-exact",
    ],
)
def test_json_approx_past_float_range_is_null(capsys, tmp_path, text, algorithm, approx):
    # A float stops near 1.8e308, so an approximation of a 400-digit value
    # (or of a ratio that large) is null; the exact field still holds it.
    instance = _put(tmp_path / "big.inst", text)
    code, out, err = run(capsys, "solve", instance, "--algorithm", algorithm, "--format", "json")
    assert (code, err) == (0, "")
    row = json.loads(out)
    assert (row["optimum_approx"], row["objective_approx"], row["ratio_approx"]) == approx
    (exact,) = parse_csv(run(capsys, "solve", instance, "--algorithm", algorithm)[1])
    for field in ("optimum", "objective", "ratio"):
        assert row[field] == exact[field]


def test_bench_json_approx_past_float_range_is_null(capsys):
    code, out, err = run(
        capsys, "bench", "--family", "random-minms", "--n", "2", "--m", "2",
        "--p-min", NINES, "--p-max", NINES, "--seeds", "0", "--algorithms", "lpt,exact",
        "--format", "json",
    )
    assert (code, err) == (0, "")
    rows = json.loads(out)
    assert [(r["optimum_approx"], r["objective_approx"], r["ratio_approx"]) for r in rows] == [
        (None, None, 1.0), (None, None, 1.0)
    ]
    assert [r["objective"] for r in rows] == [NINES, NINES]


def test_commands_on_a_read_instance_build_no_jobs(capsys, tmp_path, monkeypatch, fixtures_dir):
    # solve in every format, the oracle column included, and verify of each
    # solver's dump read the job count and order from the tick view of a
    # minms instance and from the rows of a mintpt one; so does exact. The
    # view holds tick counts only, whatever a command asks of it.
    read = []

    def load(path):
        read.append(load_instance(path))
        return read[-1]

    monkeypatch.setattr(cli, "load_instance", load)
    rational = _put(tmp_path / "r.inst", "minms 1\nmachines 3\njob 4 7/2\njob 0 3\njob 2 5/3\njob 1 1\n")
    shuffled = _put(
        tmp_path / "s.inst", "mintpt 1\ncapacity 2\njob 3 1 4 1\njob 0 0 2 1\njob 5 2 3 1\njob 1 0 5 1\n"
    )
    minms_files = (str(fixtures_dir / "graham_m2.inst"), rational)
    mintpt_files = (str(fixtures_dir / "intervals_g3.inst"), shuffled)
    cases = [(path, ("lpt", "pam", "wraparound")) for path in minms_files]
    cases += [(path, ("estf", "lbm")) for path in mintpt_files]
    for path, algorithms in cases:
        for algorithm in algorithms:
            dump = str(tmp_path / f"{algorithm}.json")
            for fmt in ("csv", "md", "json"):
                argv = ["solve", path, "--algorithm", algorithm, "--format", fmt, "--dump", dump]
                assert run(capsys, *argv)[0] == 0
            assert run(capsys, "verify", path, dump)[0] == 0
        assert run(capsys, "solve", path, "--algorithm", "exact")[0] == 0
    assert [sorted(vars(instance)) for instance in read] == (
        [["machine_count", "ticks"]] * 26 + [["capacity", "rows"]] * 18
    )
    assert all(sorted(vars(instance.ticks)) == VIEW_STATE for instance in read[:26])

    # Without the oracle's witness, a minms solve builds no object per job
    # either: the schedule's segments stay unbuilt, and the report and the
    # dump are made from the tick columns.
    dumped = []

    def dump_text(schedule, algorithm):
        dumped.append(schedule)
        return dump_text.original(schedule, algorithm)

    dump_text.original = cli._dump_text
    monkeypatch.setattr(cli, "_dump_text", dump_text)
    for path in minms_files:
        for algorithm in ("lpt", "pam", "wraparound"):
            dump = str(tmp_path / f"{algorithm}.json")
            for fmt in ("csv", "md", "json"):
                argv = ["solve", path, "--algorithm", algorithm, "--format", fmt, "--dump", dump]
                assert run(capsys, *argv, "--oracle-limit", "0")[0] == 0
                assert sorted(vars(read[-1].ticks)) == VIEW_STATE
                assert "segments" not in vars(dumped[-1])
                assert dumped[-1].instance is read[-1]
    assert len(dumped) == 18


def test_tick_counts_past_their_budget_are_input_errors(capsys, tmp_path):
    # 10,000 jobs of 1/p, one distinct prime each: every tick count would
    # carry the lcm's 150,000 bits, about 200 MB in all. The reader refuses
    # while it builds the tick view's lcm, so only the file's columns are held.
    jobs = "".join(f"job {i} 1/{p}\n" for i, p in enumerate(first_primes(10_000)))
    instance = _put(tmp_path / "primes.inst", "minms 1\nmachines 2\n" + jobs)
    dump = _put(tmp_path / "d.json", json.dumps({
        "format": "migsched-dump", "version": 4, "kind": "minms", "algorithm": "lpt",
        "machine_count": 2, "migrations": 0, "segments": [],
    }))
    message = (
        f"error: the tick counts of 10000 jobs exceed the budget of {core.MAX_TICK_BITS} bits "
        "(jobs x bits of the tick unit)\n"
    )
    for argv in (["solve", instance, "--algorithm", "lpt"], ["verify", instance, dump]):
        tracemalloc.start()
        try:
            code, out, err = run(capsys, *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out, err) == (2, "", message)
        assert peak < 20 * 2**20


# Numbers of up to 400 digits: within the reader's 4,300-digit limit and
# past float range.
huge_numbers = st.one_of(st.integers(1, 9), st.integers(10**99, 10**400))


@st.composite
def extreme_instance_files(draw):
    """(kind, text) of an instance file of one to three jobs whose times,
    machine count, capacity or slots may run to hundreds of digits."""
    jobs = range(draw(st.integers(1, 3)))
    if draw(st.booleans()):
        lines = [f"minms 1\nmachines {draw(huge_numbers)}\n"]
        for i in jobs:
            den = draw(st.one_of(st.none(), huge_numbers))
            lines.append(f"job {i} {draw(huge_numbers)}{'' if den is None else f'/{den}'}\n")
        return "minms", "".join(lines)
    lines = [f"mintpt 1\ncapacity {draw(huge_numbers)}\n"]
    for i in jobs:
        start = draw(st.one_of(st.integers(0, 3), huge_numbers))
        lines.append(f"job {i} {start} {start + draw(huge_numbers)} 1\n")
    return "mintpt", "".join(lines)


@settings(max_examples=100, deadline=None)
@given(case=extreme_instance_files())
@example(case=("minms", BIG_TIME))
@example(case=("minms", BIG_MACHINES))
@example(case=("mintpt", BIG_SLOTS))
def test_extreme_numbers_end_in_a_report_or_an_error_line(tmp_path_factory, case):
    # Every applicable algorithm in every format: exit 0 with a report, or
    # exit 2 with one error line, never an exception out of main; and every
    # dump that solve writes verifies.
    kind, text = case
    tmp = tmp_path_factory.getbasetemp()
    instance = _put(tmp / "extreme.inst", text)
    dump = tmp / "extreme.json"
    for algorithm, (applies, _) in cli.ALGORITHMS.items():
        if applies not in (None, kind):
            continue
        for fmt in ("csv", "md", "json"):
            argv = ["solve", instance, "--algorithm", algorithm, "--format", fmt]
            if algorithm != "exact":
                argv += ["--dump", str(dump)]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            if code == 2:
                assert out.getvalue() == ""
                assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
                continue
            assert (code, err.getvalue()) == (0, "")
            assert out.getvalue()
            if algorithm != "exact":
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = main(["verify", instance, str(dump)])
                assert (code, out.getvalue().splitlines()[-1]) == (0, "verification passed")


@st.composite
def split_minms_dumps(draw):
    """(process times, machine count, segments): each job cut into up to three
    pieces on drawn machines, the segments in a drawn order."""
    times = draw(st.lists(st.integers(1, 12), min_size=1, max_size=8))
    m = draw(st.integers(1, 4))
    segments = []
    for job, time in enumerate(times):
        cuts = sorted(draw(st.sets(st.integers(1, time - 1), max_size=2))) if time > 1 else []
        bounds = [0, *cuts, time]
        segments += [(job, draw(st.integers(0, m - 1)), b - a) for a, b in zip(bounds, bounds[1:])]
    return times, m, draw(st.permutations(segments))


@settings(max_examples=200, deadline=None)
@given(case=split_minms_dumps())
@example(case=([2, 2], 2, [(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1)]))
@example(case=([3, 2], 2, [(1, 0, 2), (0, 0, 1), (0, 1, 2)]))
def test_wraparound_overlap_verdict_matches_all_pairs(tmp_path_factory, case):
    # verify sorts the timetable's windows and compares neighbours; the
    # reference here compares every pair of windows of a job.
    times, m, segments = case
    clocks = [0] * m
    windows = []
    for job, machine, amount in segments:
        windows.append((job, clocks[machine], clocks[machine] + amount))
        clocks[machine] += amount
    overlapping = sorted({
        a[0] for a, b in itertools.combinations(windows, 2)
        if a[0] == b[0] and max(a[1], b[1]) < min(a[2], b[2])
    })

    tmp = tmp_path_factory.getbasetemp()
    instance = _put(
        tmp / "wrap.inst",
        f"minms 1\nmachines {m}\n" + "".join(f"job {j} {t}\n" for j, t in enumerate(times)),
    )
    dump = _put(tmp / "wrap.json", json.dumps({
        "format": "migsched-dump", "version": 4, "kind": "minms", "algorithm": "wraparound",
        "machine_count": m, "migrations": len(segments) - len(times),
        "segments": [[j, k, str(a)] for j, k, a in segments],
    }))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(["verify", instance, dump])
    lines = out.getvalue().splitlines()
    if overlapping:
        assert f"FAIL: jobs {overlapping} overlap themselves in time" in lines
    else:
        assert "ok: no job overlaps itself in time" in lines

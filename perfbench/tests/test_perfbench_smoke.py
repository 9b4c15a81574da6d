"""Tiny-size smoke test of the benchmark itself.

    python3 -m pytest perfbench/tests -q

It checks that every metric BENCHMARK.json declares is emitted with its unit,
that a corrupted schedule dump is counted as a failed command, and that the
benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = {
    "minms-balance": dict(minms_count=2, minms_n=(12, 12), minms_m=(3, 3)),
    "mintpt-sweep": dict(mintpt_count=2, mintpt_n=(10, 10), mintpt_horizon=8),
    "oracle-sweep": dict(minms_count=2, minms_n=(5, 6), mintpt_count=2, mintpt_n=(4, 5)),
}


def tiny(name):
    return dataclasses.replace(WORKLOADS[name], **TINY[name])


def declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_workloads_match_the_declaration():
    assert sorted(w["name"] for w in declared()["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_declared_metric_is_emitted_with_its_unit(name, trace, tmp_path):
    result, report = run.benchmark(tiny(name), seed=3, seconds=0, trace=trace, state=tmp_path)
    assert result["correct"], report["failures"] + report["problems"]
    assert result["failed"] == 0 and report["ops_failed_ratio"] == 0
    spec = declared()["per_layer" if trace else "end_to_end"]
    emitted = {metric: value["unit"] for metric, value in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in spec}
    if not trace:
        assert report["samples"]["solves"] >= run.MIN_SOLVES


def test_digest_must_match_an_earlier_run_of_the_same_seed(tmp_path):
    workload = tiny("oracle-sweep")
    first, _ = run.benchmark(workload, seed=5, seconds=0, trace=False, state=tmp_path)
    assert first["correct"]
    store = tmp_path / "digests.json"
    known = json.loads(store.read_text(encoding="utf-8"))
    assert len(known) == 1
    store.write_text(json.dumps({key: "0" * 64 for key in known}), encoding="utf-8")
    second, report = run.benchmark(workload, seed=5, seconds=0, trace=True, state=tmp_path)
    assert not second["correct"]
    assert any("differs from an earlier run" in p for p in report["problems"])


def test_corrupted_pam_dump_counts_as_a_failed_command(monkeypatch, tmp_path):
    original_setup = run.setup

    def corrupting_setup(*args):
        elapsed, modules, instances, paths = original_setup(*args)
        cli = modules["cli"]
        payload = cli._dump_payload

        def corrupt(schedule, algorithm):
            out = payload(schedule, algorithm)
            if algorithm == "pam":
                segment = out["segments"][0]
                segment["amount"] = str(Fraction(segment["amount"]) + 1)
            return out

        monkeypatch.setattr(cli, "_dump_payload", corrupt)
        return elapsed, modules, instances, paths

    monkeypatch.setattr(run, "setup", corrupting_setup)
    workload = tiny("minms-balance")
    result, report = run.benchmark(workload, seed=3, seconds=0, trace=False, state=tmp_path)
    pam_verifies = report["samples"]["passes"] * workload.minms_count
    assert result["failed"] == pam_verifies > 0
    assert not result["correct"]
    assert all("pam: verify exited 1" in f for f in report["failures"])
    assert report["ops_failed_ratio"] == pam_verifies / result["attempted"]
    assert result["metrics"]["ops_ok_ratio"]["value"] == pytest.approx(
        1 - report["ops_failed_ratio"]
    )


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    command = declared()["command"]
    args = ["--workload", "oracle-sweep", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(
        [sys.executable, *command[1:], *args], cwd=tmp_path, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""

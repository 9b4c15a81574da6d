"""Golden bytes of the CLI.

Every report, dump, instance file, `verify` line, `error:` line and exit code
of the cases below must equal the bytes recorded in
`tests/fixtures/cli_golden.json`. The other CLI tests compare a run with
another run of the same code; this one pins the output itself, so a refactor
of the CLI cannot change a byte unnoticed.

Each case runs in a fresh directory holding copies of the fixture instances,
with relative paths, so the recorded bytes do not depend on where the
repository lives. To re-record after a deliberate output change, run

    PYTHONPATH=src python tests/test_cli_golden.py

and review the diff of the fixture.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import tempfile
from pathlib import Path

import pytest

from migsched.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "cli_golden.json"
INSTANCES = {
    "graham_m2.inst": ("lpt", "pam", "wraparound", "exact"),
    "graham_m10.inst": ("lpt", "pam", "wraparound", "exact"),
    "intervals_g3.inst": ("estf", "lbm", "exact"),
}
OUTPUT_FLAGS = ("--out", "--dump")


def _solve_cases() -> dict[str, list]:
    cases = {}
    for inst, algorithms in INSTANCES.items():
        for algorithm in algorithms:
            for fmt in ("csv", "json"):
                solve = ["solve", inst, "--algorithm", algorithm, "--format", fmt]
                if algorithm == "exact":
                    cases[f"solve-{inst}-{algorithm}-{fmt}"] = [solve]
                else:
                    cases[f"solve-{inst}-{algorithm}-{fmt}"] = [
                        solve + ["--dump", "d.json"],
                        ["verify", inst, "d.json"],
                    ]
    return cases


def _tamper(inst, algorithm, path, value):
    """Solve with a dump, replace one value of the dump, verify it."""
    return [
        ["solve", inst, "--algorithm", algorithm, "--dump", "d.json"],
        ("edit", "d.json", path, value),
        ["verify", inst, "d.json"],
    ]


CASES: dict[str, list] = {
    **_solve_cases(),
    "solve-md-out": [["solve", "graham_m10.inst", "--algorithm", "lpt", "--format", "md", "--out", "r.md"]],
    "solve-oracle-disabled": [["solve", "intervals_g3.inst", "--algorithm", "lbm", "--oracle-limit", "0"]],
    "solve-oracle-raised": [["solve", "graham_m2.inst", "--algorithm", "exact", "--oracle-limit", "5"]],
    "bench-graham": [
        ["bench", "--family", "graham", "--m", "2:4", "--algorithms", "lpt,pam,wraparound,exact"]
    ],
    "bench-graham-wide": [
        ["bench", "--family", "graham", "--m", "2:12", "--algorithms", "wraparound,pam,lpt"]
    ],
    "bench-random-minms": [
        ["bench", "--family", "random-minms", "--n", "6", "--m", "3", "--p-max", "9",
         "--seeds", "1:3", "--algorithms", "lpt,pam,wraparound,exact", "--format", "md"]
    ],
    "bench-random-mintpt": [
        ["bench", "--family", "random-mintpt", "--n", "6", "--horizon", "8", "--g", "2",
         "--seeds", "0:4", "--algorithms", "estf,lbm,exact", "--format", "json", "--out", "b.json"]
    ],
    "bench-empty-seeds": [["bench", "--family", "random-minms", "--seeds", "", "--algorithms", "lpt"]],
    "gen-graham": [["gen", "--family", "graham", "--m", "4"]],
    "gen-random-minms": [
        ["gen", "--family", "random-minms", "--n", "7", "--m", "3", "--seed", "13", "--out", "g.inst"]
    ],
    "gen-random-mintpt": [
        ["gen", "--family", "random-mintpt", "--n", "3", "--horizon", "6", "--g", "2", "--seed", "5"]
    ],
    "error-solve-kind-mismatch": [["solve", "graham_m10.inst", "--algorithm", "estf"]],
    "error-solve-unknown-algorithm": [["solve", "graham_m10.inst", "--algorithm", "bogus"]],
    "error-solve-oracle-disabled-exact": [
        ["solve", "graham_m2.inst", "--algorithm", "exact", "--oracle-limit", "0"]
    ],
    "error-solve-negative-oracle-limit": [
        ["solve", "graham_m2.inst", "--algorithm", "lpt", "--oracle-limit", "-1"]
    ],
    "error-solve-missing-file": [["solve", "nope.inst", "--algorithm", "lpt"]],
    "error-solve-malformed-instance": [
        ("write", "bad.inst", "mintpt 1\ncapacity 2\njob 0 5 1 1\n"),
        ["solve", "bad.inst", "--algorithm", "estf"],
    ],
    "error-solve-dump-exact": [
        ["solve", "intervals_g3.inst", "--algorithm", "exact", "--dump", "d.json"]
    ],
    "error-verify-kind-mismatch": [
        ["solve", "intervals_g3.inst", "--algorithm", "lbm", "--dump", "d.json"],
        ["verify", "graham_m10.inst", "d.json"],
    ],
    "error-verify-not-a-dump": [("write", "x.json", "{}"), ["verify", "graham_m10.inst", "x.json"]],
    "error-verify-missing-dump": [["verify", "graham_m10.inst", "missing.json"]],
    "fail-verify-amount": _tamper("graham_m10.inst", "pam", ["segments", 0, 2], "999"),
    "fail-verify-segment-malformed": _tamper("graham_m10.inst", "pam", ["segments", 1], "oops"),
    "fail-verify-machine-count": _tamper("graham_m10.inst", "lpt", ["machine_count"], 3),
    "fail-verify-migrations": _tamper("graham_m10.inst", "wraparound", ["migrations"], 0),
    "fail-verify-lpt-split": _tamper("graham_m10.inst", "pam", ["algorithm"], "lpt"),
    "fail-verify-pam-unbalanced": _tamper("graham_m10.inst", "lpt", ["algorithm"], "pam"),
    "fail-verify-wrap-bound": _tamper("graham_m10.inst", "lpt", ["algorithm"], "wraparound"),
    "fail-verify-wrap-overlap": _tamper("graham_m10.inst", "pam", ["algorithm"], "wraparound"),
    "fail-verify-placement-moved": _tamper(
        "intervals_g3.inst", "lbm", ["stints", 0, 2], 9
    ),
    "fail-verify-placement-malformed": _tamper(
        "intervals_g3.inst", "lbm", ["stints", 0], {"job": 0}
    ),
    "fail-verify-machines-used": _tamper("intervals_g3.inst", "estf", ["machines_used"], 7),
    "fail-verify-estf-migrations": _tamper("intervals_g3.inst", "lbm", ["algorithm"], "estf"),
    "fail-verify-lbm-floor": _tamper("intervals_g3.inst", "estf", ["algorithm"], "lbm"),
    "error-bench-unknown-algorithm": [["bench", "--family", "graham", "--algorithms", "lpt,nope"]],
    "error-bench-exact-beyond-limits": [
        ["bench", "--family", "graham", "--m", "2:6", "--algorithms", "lpt,exact"]
    ],
    "error-bench-no-algorithms": [["bench", "--family", "graham", "--algorithms", ","]],
    "error-bench-family-mismatch": [
        ["bench", "--family", "graham", "--m", "2:3", "--algorithms", "estf"]
    ],
    "error-bench-bad-range": [["bench", "--family", "graham", "--m", "2:x", "--algorithms", "lpt"]],
    "error-bench-graham-m1": [["bench", "--family", "graham", "--m", "1:3", "--algorithms", "lpt"]],
    "error-bench-minms-m-range": [
        ["bench", "--family", "random-minms", "--m", "2:3", "--seeds", "1", "--algorithms", "lpt"]
    ],
    "error-bench-missing-algorithms": [["bench", "--family", "graham"]],
    "error-gen-graham-m1": [["gen", "--family", "graham", "--m", "1"]],
    "error-gen-minms-n0": [["gen", "--family", "random-minms", "--n", "0"]],
    "error-gen-mintpt-g0": [["gen", "--family", "random-mintpt", "--g", "0"]],
    "error-gen-unknown-family": [["gen", "--family", "nope"]],
    "error-gen-mintpt-n0": [["gen", "--family", "random-mintpt", "--n", "0"]],
    "error-gen-mintpt-horizon0": [["gen", "--family", "random-mintpt", "--horizon", "0"]],
    "error-bench-mintpt-n0": [
        ["bench", "--family", "random-mintpt", "--n", "0", "--algorithms", "lbm"]
    ],
    "error-bench-mintpt-horizon0": [
        ["bench", "--family", "random-mintpt", "--horizon", "0", "--algorithms", "lbm"]
    ],
}


def _layout(payload: dict) -> str:
    """A dump's text as `solve` lays it out: the header as `json.dumps(...,
    indent=2)` writes it, then one line `"    " + json.dumps(record)` per
    record of the last key's list (never empty in the cases below)."""
    *header, (key, records) = payload.items()
    head = json.dumps(dict(header), indent=2)[:-2]  # without its closing "\n}"
    body = ",\n".join("    " + json.dumps(record) for record in records)
    return f'{head},\n  "{key}": [\n{body}\n  ]\n}}\n'


def _edit(path: Path, keys: list, value) -> None:
    text = path.read_text(encoding="utf-8")
    payload = json.loads(text)
    assert _layout(payload) == text  # the tampered dump keeps solve's layout
    target = payload
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    path.write_text(_layout(payload), encoding="utf-8")


def _run(argv: list[str]) -> dict:
    """One command's exit code, stdout, stderr and the files it wrote.

    An argparse usage error records only its last stderr line: the usage
    line above it lists the options in parser order, which is layout, not
    output.
    """
    out, err = io.StringIO(), io.StringIO()
    usage_error = False
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code, usage_error = exc.code, True
    stderr = err.getvalue()
    if usage_error:
        stderr = stderr.splitlines()[-1]
    files = {}
    for flag, value in zip(argv, argv[1:]):
        if flag in OUTPUT_FLAGS and Path(value).exists():
            files[value] = Path(value).read_text(encoding="utf-8")
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": stderr, "files": files}


def run_case(steps: list, workdir: Path) -> list[dict]:
    workdir.mkdir(parents=True)
    for name in INSTANCES:
        shutil.copy(FIXTURES / name, workdir / name)
    results = []
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        for step in steps:
            if isinstance(step, list):
                results.append(_run(step))
            elif step[0] == "write":
                Path(step[1]).write_text(step[2], encoding="utf-8")
            else:
                _edit(Path(step[1]), step[2], step[3])
    finally:
        os.chdir(previous)
    return results


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_reproduces_golden_bytes(name, golden, tmp_path):
    assert run_case(CASES[name], tmp_path / "case") == golden[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        recorded = {name: run_case(steps, Path(tmp) / name) for name, steps in CASES.items()}
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")

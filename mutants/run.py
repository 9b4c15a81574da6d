"""Run the mutant catalog: every mutant must fail the tests named for it.

    python3 mutants/run.py                 # every mutant in mutants/catalog.json
    python3 mutants/run.py NAME [NAME ...] # only these

Run it from anywhere; it reads the checkout it lives in. For each catalog
entry, the checkout (without `.git` and caches) is copied to a temporary
directory, the entry's `old` text in its `file` is replaced by `new`, and its
`tests` run there with `pytest -x` and a fixed hypothesis seed. A mutant whose
tests pass survives. The exit status is 1 if any mutant survives or cannot be
applied, else 0. One mutant at a time, in one process: this is not part of
the tier-1 suite, which only checks that each `old` text occurs exactly once.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CATALOG = ROOT / "mutants" / "catalog.json"
SKIP = shutil.ignore_patterns(".git", ".hypothesis", ".pytest_cache", ".perfbench", "__pycache__")


def apply(checkout: Path, mutant: dict) -> None:
    path = checkout / mutant["file"]
    text = path.read_text(encoding="utf-8")
    if text.count(mutant["old"]) != 1:
        raise ValueError(f"{mutant['file']}: the old text occurs {text.count(mutant['old'])} times")
    path.write_text(text.replace(mutant["old"], mutant["new"]), encoding="utf-8")


def killed(mutant: dict) -> bool:
    """Whether the mutant's tests fail on a mutated copy of the checkout."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        checkout = Path(tmp) / "checkout"
        shutil.copytree(ROOT, checkout, ignore=SKIP)
        apply(checkout, mutant)
        command = [
            sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
            "--hypothesis-seed=0", *mutant["tests"],
        ]
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        done = subprocess.run(command, cwd=checkout, env=env, capture_output=True, text=True)
        return done.returncode != 0


def main(names: list[str]) -> int:
    catalog = json.loads(CATALOG.read_text(encoding="utf-8"))
    unknown = set(names) - {mutant["name"] for mutant in catalog}
    if unknown:
        print(f"unknown mutant(s): {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    bad = []
    for mutant in catalog:
        if names and mutant["name"] not in names:
            continue
        started = time.perf_counter()
        try:
            verdict = "killed" if killed(mutant) else "SURVIVED"
        except ValueError as exc:
            verdict = f"NOT APPLIED ({exc})"
        seconds = time.perf_counter() - started
        print(f"{verdict:<9} {mutant['name']:<28} {seconds:6.1f} s  {' '.join(mutant['tests'])}", flush=True)
        if verdict != "killed":
            bad.append(mutant["name"])
    print(f"{len(bad)} mutant(s) not killed" + (f": {', '.join(bad)}" if bad else ""))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

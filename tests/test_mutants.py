"""The mutant catalog stays applicable: a refactor that moves or rewrites a
mutated line must update `mutants/catalog.json`, or this fails, and every
mutated module still compiles. The mutants themselves run outside this suite
(`python3 mutants/run.py`)."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CATALOG = json.loads((ROOT / "mutants" / "catalog.json").read_text(encoding="utf-8"))


def test_mutant_names_are_unique():
    names = [mutant["name"] for mutant in CATALOG]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("mutant", CATALOG, ids=[mutant["name"] for mutant in CATALOG])
def test_each_mutant_applies_to_exactly_one_place(mutant):
    text = (ROOT / mutant["file"]).read_text(encoding="utf-8")
    assert text.count(mutant["old"]) == 1
    assert mutant["new"] != mutant["old"]
    # A mutant that does not compile fails every test at import: its "kill"
    # would show nothing about the tests.
    compile(text.replace(mutant["old"], mutant["new"]), mutant["file"], "exec")
    assert mutant["tests"] and all((ROOT / test).is_file() for test in mutant["tests"])

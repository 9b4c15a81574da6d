"""The mutant catalog stays applicable: a refactor that moves or rewrites a
mutated line must update `mutants/catalog.json`, or this fails, and every
mutated module still compiles. The mutants themselves run outside this suite
(`python3 mutants/run.py`)."""

import json
import re
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
    assert mutant["tests"] and all(map(_names_a_test, mutant["tests"]))


def _names_a_test(test: str) -> bool:
    """A node in a test file (`file::test` or `file::Class::test`), not a
    whole file, so a run takes only the test that kills the mutant: the file
    exists and defines each named class and function."""
    path, *names = test.split("::")
    if not names or not (ROOT / path).is_file():
        return False
    text = (ROOT / path).read_text(encoding="utf-8")
    return all(re.search(rf"^\s*(class|def) {re.escape(name)}\b", text, re.M) for name in names)

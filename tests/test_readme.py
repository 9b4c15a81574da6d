"""README's code runs: the library example gives its documented results,
every `migsched` line of the CLI example exits 0, and the schedule dump
example is the dump `solve` writes."""

import ast
import shlex
from pathlib import Path

from migsched.cli import main

README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")


def _block(section: str, language: str) -> str:
    """The first fenced `language` block after the `## section` heading."""
    _, found, rest = README.partition(f"\n## {section}\n")
    assert found, section
    _, found, rest = rest.partition(f"```{language}\n")
    assert found, (section, language)
    return rest.partition("```")[0]


def test_library_example_gives_its_documented_results():
    # Run the block statement by statement, keeping the value of each bare
    # expression: those are the lines whose results the comments state.
    namespace: dict = {}
    values = []
    for node in ast.parse(_block("Library", "python")).body:
        if isinstance(node, ast.Expr):
            values.append(eval(compile(ast.Expression(node.value), "README", "eval"), namespace))
        else:
            exec(compile(ast.Module([node], []), "README", "exec"), namespace)
    makespan, optimum, loads, at_floor, lpt_claim, estf_claim = values
    assert (makespan, optimum) == (39, 30)
    assert list(loads) == [30] * 10
    assert at_floor is True
    assert lpt_claim == (["makespan 39 exceeds the balanced optimum 30"], [])
    assert estf_claim == (["power-on time 14 exceeds the floor 11"], [])


def test_cli_example_lines_exit_0(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    text = _block("CLI", "sh").replace("\\\n", " ")
    commands = [shlex.split(line) for line in text.splitlines() if line.startswith("migsched ")]
    assert len(commands) == 8
    for argv in commands:
        assert main(argv[1:]) == 0, argv
        capsys.readouterr()


def test_dump_example_is_what_solve_writes(capsys, tmp_path, monkeypatch):
    # The example's instance is the fixture it names, and `solve --dump`
    # writes the example byte for byte.
    instance = _block("Schedule dumps", "text")
    fixture = Path(__file__).parent / "fixtures" / "graham_m2.inst"
    assert instance == fixture.read_text(encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    Path("graham_m2.inst").write_text(instance, encoding="utf-8")
    assert main(["solve", "graham_m2.inst", "--algorithm", "pam", "--dump", "d.json"]) == 0
    capsys.readouterr()
    assert Path("d.json").read_text(encoding="utf-8") == _block("Schedule dumps", "json")

"""The benchmark's tracer still finds every name it wraps.

perfbench/spans.py patches module functions and the copies that
migsched.cli binds by name. A refactor that drops or stops calling one of
those names breaks the traced benchmark run; this test notices it in the
main suite.
"""

import importlib
import importlib.util
import json
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_every_layer(tmp_path, fixtures_dir, capsys):
    spans = _load_spans()
    modules = {layer: importlib.import_module(f"migsched.{layer}") for layer in spans.LAYERS}
    cli = modules["cli"]
    # An untraced command first, as perfbench's passes run: the parser it
    # builds must still dispatch to the commands the tracer wraps.
    assert cli.main(["gen", "--family", "graham", "--out", str(tmp_path / "g.inst")]) == 0
    tracer = spans.Tracer()
    tracer.install(modules)
    try:
        for fixture, algorithm in (
            ("graham_m2.inst", "pam"),
            ("graham_m10.inst", "wraparound"),
            ("intervals_g3.inst", "lbm"),
        ):
            instance = str(fixtures_dir / fixture)
            dump = str(tmp_path / f"{algorithm}.json")
            argv = ["solve", instance, "--algorithm", algorithm, "--format", "json"]
            assert cli.main(argv + ["--dump", dump]) == 0
            assert cli.main(["verify", instance, dump]) == 0
        # An exact row of each kind: its schedule is the oracle's witness.
        for fixture in ("graham_m2.inst", "intervals_g3.inst"):
            argv = ["solve", str(fixtures_dir / fixture), "--algorithm", "exact"]
            assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()

    for name in (
        "cli.main",
        "cli.solve",
        "cli.verify",
        "instances.parse",
        "core.validate",
        "core.schedule",
        "minms.pam",
        "minms.wraparound",
        "mintpt.lbm",
        "mintpt.lower_bound",
        "mintpt.validate",
        "mintpt.schedule",
        "mintpt.schedule_query",
        "oracles.exact_minms",
        "oracles.exact_mintpt",
        "report.render",
    ):
        assert tracer.counts[name + "_calls"] > 0, name
    # Counted off each returned schedule, so every minms solver must return
    # one that the tracer can read.
    assert tracer.counts["minms.segments"] > 0
    # The modules as imported now: perfbench's setup re-imports migsched.
    assert cli.render_csv is modules["report"].render_csv
    assert cli.segment_violations is modules["core"].segment_violations


def test_verify_counts_the_segments_of_its_dumps(tmp_path, fixtures_dir, capsys):
    # The tracer counts `core.segments_checked` as the length of the check's
    # second argument, the job column. Every minms verify must open one
    # `core.validate` span, and the count must be the dumps' segments.
    spans = _load_spans()
    modules = {layer: importlib.import_module(f"migsched.{layer}") for layer in spans.LAYERS}
    cli = modules["cli"]
    dumps = []
    for fixture, algorithm in (
        ("graham_m2.inst", "lpt"),
        ("graham_m10.inst", "pam"),
        ("graham_m10.inst", "wraparound"),
    ):
        instance, dump = str(fixtures_dir / fixture), tmp_path / f"{algorithm}.json"
        assert cli.main(["solve", instance, "--algorithm", algorithm, "--dump", str(dump)]) == 0
        dumps.append((instance, dump))
    tracer = spans.Tracer()
    tracer.install(modules)
    try:
        for instance, dump in dumps:
            assert cli.main(["verify", instance, str(dump)]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()

    segments = sum(len(json.loads(dump.read_text())["segments"]) for _, dump in dumps)
    assert segments > len(dumps)
    assert tracer.counts["core.validate_calls"] == len(dumps)
    assert tracer.counts["core.segments_checked"] == segments
    ops = {name: sorted(op for _, _, op, kind, _, _ in tracer.spans if kind == name)
           for name in ("cli.verify", "core.validate")}
    assert ops["core.validate"] == ops["cli.verify"] == [1, 2, 3]

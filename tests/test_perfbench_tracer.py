"""The benchmark's tracer still finds every name it wraps.

perfbench/spans.py patches module functions and the copies that
migsched.cli binds by name. A refactor that drops or stops calling one of
those names breaks the traced benchmark run; this test notices it in the
main suite.
"""

import importlib
import importlib.util
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
        "report.render",
    ):
        assert tracer.counts[name + "_calls"] > 0, name
    # Counted off each returned schedule, so every minms solver must return
    # one that the tracer can read.
    assert tracer.counts["minms.segments"] > 0
    # The modules as imported now: perfbench's setup re-imports migsched.
    assert cli.render_csv is modules["report"].render_csv
    assert cli.segment_violations is modules["core"].segment_violations

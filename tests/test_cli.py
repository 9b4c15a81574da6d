"""CLI behavior: solve, bench, gen, verify, exit codes, determinism."""

import contextlib
import copy
import csv
import io
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from migsched.cli import main
from migsched.instances import load_instance
from migsched.report import CSV_COLUMNS


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
        code, _, err = run(
            capsys, "solve", intervals, "--algorithm", "exact",
            "--dump", str(tmp_path / "d.json"),
        )
        assert code == 2
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
        segment = payload["segments"][0]
        segment["amount"] = str(Fraction(segment["amount"]) + 1)
        dump.write_text(json.dumps(payload, indent=2) + "\n")
        code, out, _ = run(capsys, "verify", graham10, str(dump))
        assert code == 1
        assert "conservation" in out

    def test_lbm_dump_passes_with_slot_usage(self, capsys, intervals, tmp_path):
        dump = tmp_path / "lbm.json"
        run(capsys, "solve", intervals, "--algorithm", "lbm", "--dump", str(dump))
        code, out, _ = run(capsys, "verify", intervals, str(dump))
        assert code == 0
        assert "per-slot machines = [1, 2, 1]" in out

    def test_moved_placement_fails(self, capsys, intervals, tmp_path):
        dump = tmp_path / "lbm.json"
        run(capsys, "solve", intervals, "--algorithm", "lbm", "--dump", str(dump))
        payload = json.loads(dump.read_text())
        payload["placements"][0]["slot"] = 9
        dump.write_text(json.dumps(payload, indent=2) + "\n")
        code, out, _ = run(capsys, "verify", intervals, str(dump))
        assert code == 1
        assert "FAIL" in out

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

    def test_kind_mismatch_rejected(self, capsys, graham10, intervals, tmp_path):
        dump = tmp_path / "lbm.json"
        run(capsys, "solve", intervals, "--algorithm", "lbm", "--dump", str(dump))
        code, _, err = run(capsys, "verify", graham10, str(dump))
        assert code == 2
        assert "does not match" in err

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
    | st.sampled_from(["1/0", "0", "-1", "7/2", "inf", "x"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


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
        records_key = "segments" if "segments" in dump else "placements"
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
                if target == "field" and isinstance(records[i], dict) and records[i]:
                    records[i][data.draw(st.sampled_from(sorted(records[i])))] = value
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

    @pytest.mark.parametrize(
        "algorithm, keys, value",
        [
            ("pam", ("segments", 0, "amount"), "1/0"),
            ("pam", ("segments",), 5),
            ("lbm", ("placements",), None),
        ],
    )
    def test_known_malformed_values_fail(self, capsys, valid_dumps, algorithm, keys, value):
        tmp, dumps = valid_dumps
        instance, dump = copy.deepcopy(dumps[algorithm])
        target = dump
        for k in keys[:-1]:
            target = target[k]
        target[keys[-1]] = value
        path = tmp / "tampered.json"
        path.write_text(json.dumps(dump))
        code, out, _ = run(capsys, "verify", instance, str(path))
        assert code == 1
        assert "FAIL: " in out


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


class TestGen:
    def test_graham_file_round_trips(self, capsys, tmp_path):
        out_path = tmp_path / "g.inst"
        code, _, _ = run(capsys, "gen", "--family", "graham", "--m", "4", "--out", str(out_path))
        assert code == 0
        inst = load_instance(out_path)
        assert len(inst.jobs) == 9
        assert inst.total_load() == 48

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

"""Command-line surface: JSON payloads, frames and conventions,
determinism, and exit codes."""

import json
import os
import subprocess
import sys

import pytest

import quivertangle
from quivertangle import cli
from quivertangle.verify import VerificationReport


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    return json.loads(out)


def run_python(*args, optimized=False):
    """Run a fresh interpreter on the package under test, with -O (which
    strips assert statements) when optimized; output is kept as bytes."""
    src = os.path.dirname(os.path.dirname(quivertangle.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    flags = ["-O"] if optimized else []
    return subprocess.run([sys.executable, *flags, *args], env=env,
                          capture_output=True, timeout=60)


class TestCompute:
    def test_trefoil_golden(self, capsys):
        data = run_json(capsys, "compute", "3/1")
        assert data["p"] == 3 and data["q"] == 1
        assert data["cf"] == [3]
        assert data["pipeline"] == "knot"
        assert data["vertices"] == 3
        assert data["convention"] == "symmetric"
        assert data["Q"] == [[0, 1, 1], [1, 2, 2], [1, 2, 3]]
        assert data["q_vec"] == [-2, 0, -3]
        assert data["a_vec"] == [2, 2, 4]
        assert data["delta"] == [-2, -2, -2]
        assert data["signature"] == -2
        assert sorted(map(tuple, data["homology"])) == [
            (-1, -2, -3), (-1, 2, -1), (1, 0, 0)]

    def test_cf_input(self, capsys):
        data = run_json(capsys, "compute", "[1,2,4]")
        assert data["vertices"] == 13
        assert data["p"] == 13 and data["q"] == 3
        assert data["signature"] == -4
        same = run_json(capsys, "compute", "--cf", "[1,2,4]")
        assert same == data

    def test_canonical_frame_non_negative(self, capsys):
        for slope in ("3/1", "5/2", "13/3", "3/2", "9/5"):
            data = run_json(capsys, "compute", slope)
            entries = [x for row in data["Q"] for x in row]
            assert min(entries) == 0, slope

    def test_raw_and_integer_frames(self, capsys):
        raw = run_json(capsys, "compute", "3/1", "--frame", "raw",
                       "--convention", "anti")
        assert raw["framing"] == 3
        zero = run_json(capsys, "compute", "3/1", "--frame", "0",
                        "--convention", "anti")
        assert zero["framing"] == 0
        assert zero["Q"] == [[0, -2, -2], [-2, -2, -3], [-2, -3, -3]]
        assert zero["q_vec"] == [2, 0, 3]

    def test_link_pipeline(self, capsys):
        data = run_json(capsys, "compute", "4/1")
        assert data["pipeline"] == "link"
        assert data["vertices"] == 10  # 2(p + q) indices for links
        assert "signature" not in data  # knot-only gradings omitted

    def test_verified_compute(self, capsys):
        data = run_json(capsys, "compute", "3/1", "--order", "2")
        assert data["verified_order"] == 2

    def test_mismatch_exit_code(self, capsys, monkeypatch):
        bad = VerificationReport("3/1", "knot", 1, [True, False], 0.0,
                                 1, "q^2")
        monkeypatch.setattr(cli, "verify_knot", lambda s, n: bad)
        code, out, err = run(capsys, "compute", "3/1", "--order", "1")
        assert code == 1
        assert not out
        assert json.loads(err)["ok"] is False

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "q.json"
        code, out, _ = run(capsys, "compute", "3/1", "--out", str(path))
        assert code == 0 and not out
        assert json.loads(path.read_text())["p"] == 3


class TestOracle:
    def test_canonical_text_form(self, capsys):
        data = run_json(capsys, "oracle", "3/1", "--colors", "0..2")
        assert data["colors"]["0"] == "1"
        assert data["colors"]["1"] == "q^-2*a^2 + q^2*a^2 - a^4"
        assert data["frame"] == "zero"

    def test_jones(self, capsys):
        data = run_json(capsys, "oracle", "3/1", "--colors", "1..1",
                        "--jones")
        assert data["jones"] is True
        assert data["colors"]["1"] == "q^2 + q^6 - q^8"

    def test_link_denominators(self, capsys):
        data = run_json(capsys, "oracle", "2/1", "--colors", "2..2")
        val = data["colors"]["2"]
        assert isinstance(val, dict) and "num" in val and "den" in val


class TestVerifyCommand:
    def test_knot_runs_both_pipelines(self, capsys):
        code, out, _ = run(capsys, "verify", "3/1", "--order", "1")
        assert code == 0
        lines = [json.loads(x) for x in out.splitlines()]
        assert [r["pipeline"] for r in lines] == ["knot", "link"]
        assert all(r["ok"] for r in lines)

    def test_link_single_pipeline(self, capsys):
        code, out, _ = run(capsys, "verify", "2/1", "--order", "1")
        lines = [json.loads(x) for x in out.splitlines()]
        assert [r["pipeline"] for r in lines] == ["link"]


class TestEnumerate:
    def test_small_corpus(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--max-crossings", "5")
        rows = [json.loads(x) for x in out.splitlines()]
        assert code == 0
        assert [r["slope"] for r in rows] == ["3/1", "5/1", "5/2", "7/2"]
        assert all(r["crossings"] <= 5 for r in rows)


class TestBatchAndDeterminism:
    def test_byte_identical_repeat(self, capsys):
        _, first, _ = run(capsys, "compute", "13/3")
        _, second, _ = run(capsys, "compute", "13/3")
        assert first == second
        _, first, _ = run(capsys, "verify", "3/1", "--order", "1")
        _, second, _ = run(capsys, "verify", "3/1", "--order", "1")
        assert first == second
        _, a, _ = run(capsys, "enumerate", "--max-crossings", "6")
        _, b, _ = run(capsys, "enumerate", "--max-crossings", "6")
        assert a == b

    def test_optimized_mode_prints_the_same_bytes(self):
        # stdout must not depend on whether assert statements run
        for argv in (["compute", "13/3"], ["compute", "8/3"],
                     ["compute", "3/2"], ["verify", "5/2", "--order", "2"],
                     ["oracle", "7/3", "--colors", "0..2"]):
            plain, optimized = (
                run_python("-m", "quivertangle.cli", *argv, optimized=flag)
                for flag in (False, True))
            assert plain.returncode == optimized.returncode == 0, argv
            assert plain.stdout == optimized.stdout, argv

    def test_batch_jobs_agree(self, capsys, tmp_path):
        one = tmp_path / "one.jsonl"
        two = tmp_path / "two.jsonl"
        assert cli.main(["batch", "--max-crossings", "5", "--jobs", "1",
                         "--out", str(one)]) == 0
        assert cli.main(["batch", "--max-crossings", "5", "--jobs", "2",
                         "--out", str(two)]) == 0
        capsys.readouterr()
        assert one.read_bytes() == two.read_bytes()
        rows = [json.loads(x) for x in one.read_text().splitlines()]
        assert [f"{r['p']}/{r['q']}" for r in rows] \
            == ["3/1", "5/1", "5/2", "7/2"]


class TestExitCodes:
    @pytest.mark.parametrize("argv", [
        ["compute", "3/0"],
        ["compute", "abc"],
        ["compute"],
        ["compute", "3/1", "--slope", "3/1"],
        ["compute", "[2,2]"],
        ["oracle", "3/1", "--colors", "5..2"],
        ["compute", "3/1", "--frame", "wide"],
        ["compute", "3/1", "--order", "-1"],
        ["verify", "3/1", "--order", "-2"],
        ["enumerate", "--max-crossings", "2"],
        ["batch", "--max-crossings", "2"],
        ["batch", "--max-crossings", "3", "--jobs", "-3"],
    ])
    def test_parse_errors_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2

    def test_knot_pipeline_on_link_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["compute", "4/1", "--pipeline", "knot"])
        assert exc.value.code == 2

    def test_validation_survives_optimized_mode(self):
        # python -O strips assert statements; input checks must not rely
        # on them
        for argv in (["compute", "[1,2]"],
                     ["oracle", "3/1", "--colors", "3..1"]):
            proc = run_python("-m", "quivertangle.cli", *argv,
                              optimized=True)
            assert proc.returncode == 2, (argv, proc.stderr)
        # each call must raise a ValueError naming its rule: an
        # asymmetric Q; an even-length CF, refused up front rather than
        # later as an unclosable state; and tangles ending on RI, which
        # do not close North-South
        cases = [
            ("QuiverData(((0, 1), (2, 0)), (0, 0), (0, 0), 0, "
             "'antisymmetric')", "symmetric"),
            ("knot_quiver([1, 2])", "odd-length"),
            ("link_quiver([1, 1, 1])", "North-South"),
            ("link_quiver([2, 1, 1])", "North-South"),
        ]
        proc = run_python("-c", (
            "from quivertangle.knotpipeline import knot_quiver\n"
            "from quivertangle.quiverstate import QuiverData, link_quiver\n"
            f"for call, rule in {cases!r}:\n"
            "    try:\n"
            "        eval(call)\n"
            "    except ValueError as exc:\n"
            "        if rule not in str(exc):\n"
            "            raise SystemExit(f'{call}: {exc}')\n"
            "    else:\n"
            "        raise SystemExit(f'{call} was accepted')\n"),
            optimized=True)
        assert proc.returncode == 0, proc.stderr

"""Command-line surface: JSON payloads, frames and conventions,
determinism, and exit codes."""

import concurrent.futures
import errno
import hashlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from array import array
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import quivertangle
from quivertangle import (cli, knotpipeline, qseries, quiverstate, skein,
                          tangles, verify)
from quivertangle.knotpipeline import KNOT_ROUTE, knot_quiver
from quivertangle.qseries import QFraction, q_pow
from quivertangle.quiverstate import (LINK_ROUTE, MAX_VERTICES, framing_shift,
                                      link_quiver, q_invert, route_size)
from quivertangle.skein import MAX_ORACLE_COLOR, MAX_ORACLE_TWISTS
from quivertangle.tangles import Slope, enumerate_rational_knots
from quivertangle.verify import MAX_DIM_VECTORS

from conftest import (distinct_slopes, framing_shift_reference,
                      q_invert_reference, quiver_rows)


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
        # an oracle wrong at color 1 makes the real check of the printed
        # state fail: exit 1, nothing on stdout, the report on stderr
        oracle = verify.oracle_homfly
        monkeypatch.setattr(verify, "oracle_homfly", lambda s, colors: [
            value if j == 0 else QFraction(q_pow(2))
            for j, value in zip(colors, oracle(s, colors))])
        code, out, err = run(capsys, "compute", "3/1", "--order", "1")
        assert code == 1
        assert not out
        report = json.loads(err)
        assert report["ok"] is False and report["first_mismatch"] == 1

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "q.json"
        code, out, _ = run(capsys, "compute", "3/1", "--out", str(path))
        assert code == 0 and not out
        assert json.loads(path.read_text())["p"] == 3

    def test_one_flat_export_per_compute(self, capsys, monkeypatch):
        # the route returns its closed packed state and export decodes
        # its rows once into the byte planes of one flat buffer, and
        # checks those planes once: one pass of each per compute on
        # both routes, in both conventions and every kind of frame, and
        # when entries pass a signed byte (129/1), so both planes are
        # checked
        calls = []
        for name in ("_flat", "_check_symmetric"):
            def counted(rows, n, step=getattr(quiverstate, name),
                        name=name):
                calls.append((name, n))
                return step(rows, n)

            monkeypatch.setattr(quiverstate, name, counted)
        for slope, pipeline, n in (("13/3", "knot", 13), ("13/3", "link", 32),
                                   ("8/3", "link", 22),
                                   ("129/1", "knot", 129)):
            for convention in ("anti", "sym"):
                for frame in ("canonical", "raw", "-3"):
                    data = run_json(capsys, "compute", slope, "--pipeline",
                                    pipeline, "--convention", convention,
                                    "--frame", frame)
                    assert len(data["Q"]) == n
                    assert calls == [("_flat", n), ("_check_symmetric", n)], (
                        slope, pipeline, convention, frame)
                    calls.clear()

    def test_order_checks_the_printed_state(self, capsys, monkeypatch):
        # compute --order builds the route once: the four builders it
        # could reach (cli. and verify. knot_quiver and link_quiver) see
        # one call in all, and it prints the bytes of the plain compute
        # plus verified_order, on both routes, in both conventions and
        # every kind of frame
        calls = []
        for owner in (cli, verify):
            for name in ("knot_quiver", "link_quiver"):
                def counted(slope, build=getattr(owner, name),
                            site=f"{owner.__name__}.{name}"):
                    calls.append(site)
                    return build(slope)

                monkeypatch.setattr(owner, name, counted)
        for slope, pipeline in (("13/3", "knot"), ("13/3", "link"),
                                ("8/3", "link")):
            for convention in ("anti", "sym"):
                for frame in ("canonical", "raw", "-3"):
                    argv = ["compute", slope, "--pipeline", pipeline,
                            "--convention", convention, "--frame", frame]
                    _, plain, _ = run(capsys, *argv)
                    calls.clear()
                    code, out, _ = run(capsys, *argv, "--order", "1")
                    assert code == 0
                    assert calls == [f"quivertangle.cli.{pipeline}_quiver"]
                    assert out == plain[:-2] + ', "verified_order": 1}\n'

    def test_out_of_range_frame_is_refused_before_the_route(self, capsys):
        # an integer frame whose entries could leave the 16-bit slots of
        # the export is refused from the writhe and the entry bound,
        # naming both, with exit 2 and no route run, also under -O
        script = ("import sys\n"
                  "from quivertangle import cli\n"
                  "def route(slope):\n"
                  "    raise SystemExit('the route ran')\n"
                  "cli.knot_quiver = cli.link_quiver = route\n"
                  "sys.exit(cli.main(sys.argv[1:]))\n")
        for argv, route in ((["3/1"], KNOT_ROUTE),
                            (["3/1", "--convention", "anti"], KNOT_ROUTE),
                            (["4/1"], LINK_ROUTE),
                            (["3/2", "--pipeline", "link"], LINK_ROUTE)):
            plan = route_size(cli._parse_input(argv[0])[0], route)
            framing, bound = plan.framing, plan.bound
            lo, hi = self.frame_range(argv, framing, bound)
            for frame in (hi + 1, lo - 1):
                for optimized in (False, True):
                    proc = run_python("-c", script, "compute", *argv,
                                      "--frame", str(frame),
                                      optimized=optimized)
                    assert proc.returncode == 2, (argv, proc.stderr)
                    assert proc.stdout == b""
                    err = proc.stderr.decode()
                    assert f"frame {frame} is out of range" in err, err
                    assert f"bounded by {bound} in frame {framing}" in err
                    assert f"frames {lo} to {hi}" in err, err

    @staticmethod
    def frame_range(argv, framing, bound):
        # entries sigma (x + f) + c + e [i = l], |x| <= bound, within
        # +-(2^15 - 1): (sigma, c, e) is (1, 0, 0) antisymmetric and
        # (-1, -1, 1) symmetric
        if "anti" in argv:
            slack = (1 << 15) - 1 - bound
            return framing - slack, framing + slack
        slack = (1 << 15) - 2 - bound
        return framing - 1 - slack, framing - 1 + slack

    def test_edge_frames_keep_the_reference_bytes(self, capsys):
        # the largest and smallest accepted frames decode exactly what
        # the maps on decoded data give
        for slope, route in (("3/1", knot_quiver), ("4/1", link_quiver),
                             ("3/2", link_quiver)):
            state = route(cli._parse_input(slope)[0])
            raw, bound = framing_shift(state, "raw"), state.bound
            for convention in ("anti", "sym"):
                lo, hi = self.frame_range([convention], raw.framing, bound)
                for frame in (lo, hi):
                    data = run_json(capsys, "compute", slope, "--pipeline",
                                    "knot" if route is knot_quiver else
                                    "link", "--convention", convention,
                                    "--frame", str(frame))
                    f = frame - raw.framing
                    ref = (q_invert_reference(raw, f) if convention == "sym"
                           else framing_shift_reference(raw, f))
                    assert data["framing"] == ref.framing == frame
                    assert data["Q"] == [list(row)
                                         for row in quiver_rows(ref)]
                    assert data["a_vec"] == list(ref.a_vec)
                    assert data["q_vec"] == list(ref.q_vec)

    @staticmethod
    def peak_kb(*argv):
        # argv computed in a fresh process that prints its own peak
        # resident memory (KB)
        script = ("import contextlib, os, resource, sys\n"
                  "from quivertangle import cli\n"
                  "with open(os.devnull, 'w') as fh, "
                  "contextlib.redirect_stdout(fh):\n"
                  "    code = cli.main(sys.argv[1:])\n"
                  "print(code, resource.getrusage(resource.RUSAGE_SELF)"
                  ".ru_maxrss)\n")
        proc = run_python("-c", script, *argv)
        assert proc.returncode == 0, proc.stderr
        code, peak_kb = map(int, proc.stdout.split())
        assert code == 0
        return peak_kb

    def test_largest_computes_peak_under_250_mb(self):
        # each of the largest admitted quivers of both routes
        for argv in (["compute", "2047/2"],
                     ["compute", "1023/1", "--pipeline", "link"]):
            assert self.peak_kb(*argv) < 250 * 1024, argv

    def test_largest_checks_peak_under_200_mb(self):
        # compute --order writes its line, and drops the decoded Q,
        # before the check decodes the quiver again at frame 0; the
        # check's expansion reads that flat buffer, no copy of its rows
        for argv in (["compute", "2047/2", "--order", "1"],
                     ["verify", "1023/1", "--pipeline", "link",
                      "--order", "1"]):
            assert self.peak_kb(*argv) < 200 * 1024, argv


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

    def test_oversized_requests_are_refused_first(self, capsys,
                                                  monkeypatch):
        # a top color or a twist count (CF term sum) over its bound
        # exits 2, naming the count and the bound, before any color is
        # evaluated
        def evaluated(*args):
            raise RuntimeError("the oracle ran")

        monkeypatch.setattr(cli, "oracle_homfly", evaluated)
        for argv, count, bound in [
                (["7/3", "--colors", "0..13"], 13, MAX_ORACLE_COLOR),
                (["7/3", "--colors", "20..20"], 20, MAX_ORACLE_COLOR),
                (["100001/3", "--colors", "2..2"], 33336, MAX_ORACLE_TWISTS),
                (["[13]", "--colors", "0..0"], 13, MAX_ORACLE_TWISTS)]:
            with pytest.raises(SystemExit) as exc:
                cli.main(["oracle", *argv])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert f" {count}, more than the bound {bound}" in err, argv

    def test_bounds_admit_their_edge(self, capsys):
        # the top color and the most twists themselves still run
        top = MAX_ORACLE_COLOR
        data = run_json(capsys, "oracle", f"[{MAX_ORACLE_TWISTS}]",
                        "--colors", f"{top}..{top}")
        assert list(data["colors"]) == [str(top)]

    @pytest.mark.parametrize("flags, digest", [
        ((), "03001a245f66c35baa3beac4b3b8fb54"
             "383caa1c8d04bdf3613d19f2fd27f45a"),
        (("--jones",), "88a0e974f319f278fcc9882d715ddb8c"
                       "fe3caef879cc62ad1e3330fd1d22e341"),
    ])
    def test_sweep_bytes_are_pinned(self, capsys, flags, digest):
        # sha256 of the stdout of `oracle p/q --colors 0..4`, one slope
        # after another, over every slope with CF term sum <= 6
        sha = hashlib.sha256()
        for s in distinct_slopes(6):
            code, out, _ = run(capsys, "oracle", f"{s.p}/{s.q}",
                               "--colors", "0..4", *flags)
            assert code == 0
            sha.update(out.encode())
        assert sha.hexdigest() == digest

    @pytest.mark.parametrize("flags, digest", [
        ((), "67ee2ee8f1fad8c97620a2cbaa3d81f3"
             "e7bd2203b92d3fec098a6c0fdf664f2b"),
        (("--jones",), "de0244beca3b77a2f6252cc86621f06d"
                       "3aef1528543e7ca3cd5db8c2f441750e"),
    ])
    def test_high_color_bytes_are_pinned(self, capsys, flags, digest):
        # sha256 of the stdout of `oracle p/q --colors 5..6`, one slope
        # after another, over every slope with CF term sum <= 5
        sha = hashlib.sha256()
        for s in distinct_slopes(5):
            code, out, _ = run(capsys, "oracle", f"{s.p}/{s.q}",
                               "--colors", "5..6", *flags)
            assert code == 0
            sha.update(out.encode())
        assert sha.hexdigest() == digest


def compute_sweep_digest(capsys, frames):
    """sha256 of the stdout of `compute p/q --convention C --frame F`
    over every link slope with even p <= 16, then every knot up to 9
    crossings, for each convention and frame in turn."""
    slopes = [Slope(p, q) for p in range(2, 17, 2) for q in range(1, p)
              if gcd(p, q) == 1] + enumerate_rational_knots(9)
    sha = hashlib.sha256()
    for convention in ("anti", "sym"):
        for frame in frames:
            for s in slopes:
                code, out, _ = run(capsys, "compute", f"{s.p}/{s.q}",
                                   "--convention", convention,
                                   "--frame", frame)
                assert code == 0
                sha.update(out.encode())
    return sha.hexdigest()


class TestComputeBytes:
    def test_sweep_bytes_are_pinned(self, capsys):
        assert compute_sweep_digest(capsys, ("canonical", "raw")) == (
            "e2a02cd9cd2a8ffc074f9f491d2b3af2"
            "c554da6f40c15fb16326452ef7a57078")

    def test_integer_frame_bytes_are_pinned(self, capsys):
        assert compute_sweep_digest(capsys, ("-3", "4")) == (
            "8ea5b9151e55e6bbc58cca32f47068bc"
            "d4352b200c1af6dfe138c289894b6c16")


class TestLargeComputeBytes:
    # sha256 of the stdout of each command: the knot route on 1023/2
    # (mirrored, entries up to 513) and 987/610 (13 CF terms, mirrored),
    # the link route on 610/377 (1,974 vertices) and on 511/1 in the raw
    # frame and the antisymmetric convention
    @pytest.mark.parametrize("argv, digest", [
        (["compute", "1023/2"],
         "3fe166aac9dfcce3c8434a499a3fca1c5b683e259f10934783d182a01c5b1d18"),
        (["compute", "987/610"],
         "e68de7ea49123e83a36496131271e0ee1f6cc2d95287a55aa31a0700c61ac90e"),
        (["compute", "610/377"],
         "0e6ffc6559cc06935f4b895c901664cf130f55750f3ea0ac869f6154fe45349e"),
        (["compute", "511/1", "--convention", "anti", "--frame", "raw"],
         "fbf47124150f67e4434d4e7433f757814f7c677bd32f501a41721e979685ea6c"),
    ], ids=["1023/2", "987/610", "610/377", "511/1-anti-raw"])
    def test_bytes_are_pinned(self, capsys, argv, digest):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestPayloadWriter:
    def test_stdout_is_json_dumps_of_the_payload(self, capsys):
        # the digit-table writer prints exactly json.dumps of the payload
        # compute_payload builds, on both routes, in both conventions,
        # at fixed frames and at the two extreme frames export_range
        # admits for each case.  The payload's Q is the flat buffer: the
        # reference writes the rows of that buffer as tuples, so the byte
        # and table writers are both checked against it
        for slope, pipeline in (("13/3", "knot"), ("55/21", "knot"),
                                ("13/3", "link"), ("55/21", "link"),
                                ("8/3", "link"), ("34/13", "link")):
            s, terms = cli._parse_input(slope)
            route = KNOT_ROUTE if pipeline == "knot" else LINK_ROUTE
            plan = route_size(s, route)
            framing, bound = plan.framing, plan.bound
            for convention in ("anti", "sym"):
                export = q_invert if convention == "sym" else framing_shift
                lo, hi = TestCompute.frame_range([convention], framing,
                                                 bound)
                for frame in ("canonical", "raw", 0, -3, 20000, lo, hi):
                    state, payload = cli.compute_payload(plan, terms, frame,
                                                         convention)
                    payload["Q"] = quiver_rows(export(state, frame))
                    code, out, _ = run(capsys, "compute", slope,
                                       "--pipeline", pipeline,
                                       "--convention", convention,
                                       "--frame", str(frame))
                    assert code == 0
                    assert out == json.dumps(payload) + "\n", (
                        slope, pipeline, convention, frame)

    def test_batch_lines_are_their_computes(self, capsys):
        # every line written, and counted in the summary on stderr
        for flags in ((), ("--frame", "-3", "--convention", "anti")):
            code, out, err = run(capsys, "batch", "--max-crossings", "8",
                                 "--jobs", "1", *flags)
            assert code == 0
            lines = out.splitlines(keepends=True)
            assert len(lines) == len(enumerate_rational_knots(8)) == 26
            assert err.startswith("batch: 26 knots in "), err
            for line in lines:
                data = json.loads(line)
                _, plain, _ = run(capsys, "compute",
                                  f"{data['p']}/{data['q']}", *flags)
                assert line == plain

    @staticmethod
    def flat(rows, typecode="h"):
        return array(typecode, [x for row in rows for x in row])

    @staticmethod
    def text(flat, n, entries):
        return "[[" + cli._q_text(flat, n, entries) + "]]"

    @staticmethod
    def symmetric(upper):
        """The symmetric matrix whose rows from the diagonal on are
        upper."""
        n = len(upper)
        return [[upper[min(i, l)][abs(l - i)] for l in range(n)]
                for i in range(n)]

    @classmethod
    def typecodes(cls, rows):
        """The typecodes of the arrays that hold every entry of rows."""
        found = []
        for typecode in "bBhH":
            try:
                cls.flat(rows, typecode)
            except OverflowError:
                continue
            found.append(typecode)
        return found

    def test_entry_outside_the_proven_range_raises(self, monkeypatch):
        # the writer prints only entries in the range export proved: an
        # entry past it, above or below (no wraparound of a negative
        # entry or of a byte), raises KeyError, never another number, on
        # both paths: a byte array's bytes and the digit table of a
        # 16-bit array
        monkeypatch.setattr(cli, "_DIGITS", {})
        payload = {"p": 1, "vertices": 2, "Q": None, "a_vec": [0, 0]}
        for rows, entries in ((((0, 4), (4, 3)), (0, 4)),
                              (((-7, 5), (5, 7)), (-7, 7)),
                              (((0, 130), (130, 3)), (0, 200))):
            for typecode in self.typecodes(rows):
                line = cli._payload_line(
                    {**payload, "Q": self.flat(rows, typecode)}, entries)
                assert line == json.dumps({**payload, "Q": rows}) + "\n"
        # every 16-bit array went to the table, each with its range
        assert set(cli._DIGITS) == set(range(-7, 201))
        cli._DIGITS.clear()
        for rows, entries in ((((0, 5), (5, 3)), (0, 4)),
                              (((0, -1), (-1, 3)), (0, 4)),
                              (((0, 256), (256, 3)), (0, 4)),
                              (((0, 201), (201, 3)), (0, 200)),
                              (((0, -201), (-201, 3)), (-200, 200))):
            for typecode in self.typecodes(rows):
                with pytest.raises(KeyError):
                    cli._payload_line(
                        {**payload, "Q": self.flat(rows, typecode)},
                        entries)
        # an array is read by its typecode's signedness, even where the
        # proven range holds entries of the other reading: unsigned,
        # 65535 is not -1, nor 65529 -7, nor are 255 and 249 in a byte
        # array; signed, the bytes of -1 and -7 are not 255 and 249
        for x, typecode, ranges in ((65535, "H", ((0, 4), (-7, 7))),
                                    (65529, "H", ((0, 4), (-7, 7))),
                                    (255, "B", ((0, 4), (-7, 7))),
                                    (249, "B", ((0, 4), (-7, 7))),
                                    (-1, "b", ((0, 255),)),
                                    (-7, "b", ((0, 255),))):
            for entries in ranges:
                with pytest.raises(KeyError):
                    cli._payload_line({**payload, "Q": self.flat(
                        ((0, x), (x, 3)), typecode)}, entries)

    @pytest.mark.parametrize("x", [0, 9, 10, 99, 100, 127, -1, -9, -10,
                                   -99, -100, -128, 128, -129])
    def test_byte_path_edges(self, monkeypatch, x):
        # each digit count and sign at the edges of a signed byte, alone
        # (n = 1) and among entries of other widths, is the text
        # json.dumps writes, from every array that holds the entries: a
        # byte array by its bytes, never through the digit table, and a
        # 16-bit one, byte-sized entries included, through the table
        monkeypatch.setattr(cli, "_DIGITS", {})
        for rows in ([[x]], self.symmetric([[x, -1, 100], [x, 7], [0]]),
                     self.symmetric([[5, x], [x]])):
            n = len(rows)
            for typecode in self.typecodes(rows):
                cli._DIGITS.clear()
                flat = self.flat(rows, typecode)
                entries = (-300, 300) if typecode.islower() else (0, 300)
                assert self.text(flat, n, entries) == json.dumps(rows)
                assert bool(cli._DIGITS) == (flat.itemsize == 2)

    def test_byte_buffer_is_read_unsigned_on_the_byte_path(self,
                                                           monkeypatch):
        # a byte buffer's entries 128..255 are written by the byte
        # columns keyed by the byte itself, as json.dumps writes them,
        # never through the digit table: the canonical Q of links 127/1
        # and 129/1 (entries up to 129 and 131) in both conventions, and
        # synthetic byte buffers: every byte value in one 16 x 16 buffer
        # and alone, and each width's edges among entries of others
        monkeypatch.setattr(cli, "_DIGITS", {})
        for p in (127, 129):
            state = link_quiver(Slope(p, 1))
            for symmetric in (False, True):
                export = q_invert if symmetric else framing_shift
                qd = export(state, "canonical")
                assert qd.flat.typecode == "B" and max(qd.flat) > 127
                entries = quiverstate.export_range(state, "canonical",
                                                   symmetric)
                assert self.text(qd.flat, qd.n, entries) == json.dumps(
                    quiver_rows(qd))
        values = list(range(256))
        for n, entries in ((16, (0, 255)), (16, (0, 600)), (1, (0, 255))):
            for start in range(0, 256, n * n):
                rows = [values[start + i * n:start + (i + 1) * n]
                        for i in range(n)]
                assert self.text(self.flat(rows, "B"), n, entries) == (
                    json.dumps(rows))
        for x in (0, 9, 10, 99, 100, 127, 128, 129, 199, 200, 254, 255):
            rows = self.symmetric([[x, 0, 255], [100, x], [9]])
            assert self.text(self.flat(rows, "B"), 3, (0, 255)) == (
                json.dumps(rows))
        assert not cli._DIGITS

    @settings(max_examples=200, deadline=None)
    @given(hs.tuples(hs.integers(1, 12), hs.sampled_from([9, 99, 128, 300]))
           .flatmap(lambda nr: hs.tuples(*(
               hs.lists(hs.integers(-nr[1], nr[1]), min_size=nr[0] - i,
                        max_size=nr[0] - i)
               for i in range(nr[0])))))
    def test_text_is_json_dumps_of_the_rows(self, upper):
        # entries in [-300, 300], bounded by 9, 99 or 128 to reach both
        # widths of the byte path as often as the digit table
        rows = self.symmetric(upper)
        n = len(rows)
        for typecode in self.typecodes(rows):
            assert self.text(self.flat(rows, typecode), n, (-300, 300)) == (
                json.dumps(rows))
        # as in the canonical frame: the least entry 0, read unsigned
        least = min(map(min, rows))
        shifted = [[x - least for x in row] for row in rows]
        for typecode in self.typecodes(shifted):
            assert self.text(self.flat(shifted, typecode), n,
                             (0, 600)) == json.dumps(shifted)


class TestVerifyCommand:
    def test_knot_runs_both_pipelines(self, capsys):
        code, out, _ = run(capsys, "verify", "3/1", "--order", "1")
        assert code == 0
        lines = [json.loads(x) for x in out.splitlines()]
        assert [r["pipeline"] for r in lines] == ["knot", "link"]
        assert all(r["ok"] for r in lines)

    def test_each_oracle_color_is_evaluated_once(self, capsys,
                                                 monkeypatch):
        # both routes of 13/3 check colors 0..2 and the knot route also
        # color 3: four closures, not the seven of one fetch per route,
        # from one oracle call, and every report still matches
        closed = []
        raw_closure = skein.raw_closure

        def counted(word, j, *frame):
            closed.append(j)
            return raw_closure(word, j, *frame)

        monkeypatch.setattr(skein, "raw_closure", counted)
        code, out, _ = run(capsys, "verify", "13/3")
        assert code == 0
        reports = [json.loads(x) for x in out.splitlines()]
        assert [(r["pipeline"], r["order_checked"], r["ok"])
                for r in reports] == [("knot", 3, True), ("link", 2, True)]
        assert closed == [0, 1, 2, 3]

    def test_link_single_pipeline(self, capsys):
        code, out, _ = run(capsys, "verify", "2/1", "--order", "1")
        lines = [json.loads(x) for x in out.splitlines()]
        assert [r["pipeline"] for r in lines] == ["link"]

    def test_oversized_expansion_is_refused(self):
        # binom(55 + 6, 6) = 55525372 dimension vectors on the 55-vertex
        # knot-route quiver of 55/21 (152 vertices on the link route):
        # refused before the walk, with the count and the bound named,
        # also under python -O
        for argv in (["verify", "55/21", "--order", "6"],
                     ["compute", "55/21", "--order", "6"],
                     ["verify", "55/21", "--pipeline", "link",
                      "--order", "6"]):
            for optimized in (False, True):
                proc = run_python("-m", "quivertangle.cli", *argv,
                                  optimized=optimized)
                assert proc.returncode == 2, (argv, proc.stderr)
                assert proc.stdout == b""
                err = proc.stderr.decode()
                assert str(MAX_DIM_VECTORS) in err, err
                if "link" not in argv:
                    assert "dimension vectors 55525372" in err, err

    def test_oversized_expansion_is_refused_before_either_route(self):
        # verify [301] --order 3 runs the knot route (301 vertices,
        # 4,637,100 dimension vectors) and then the link route (604
        # vertices, 37,090,735): both counts come from the vertex counts
        # before either route runs, so neither check is called, also
        # under -O
        script = ("import sys\n"
                  "from quivertangle import cli\n"
                  "def ran(*args):\n"
                  "    raise SystemExit('a route or a check ran')\n"
                  "cli.verify_knot = cli.verify_link = ran\n"
                  "cli.knot_quiver = cli.link_quiver = ran\n"
                  "sys.exit(cli.main(sys.argv[1:]))\n")
        for argv in (["verify", "[301]", "--order", "3"],
                     ["compute", "[301]", "--pipeline", "link",
                      "--order", "3"]):
            for optimized in (False, True):
                proc = run_python("-c", script, *argv, optimized=optimized)
                assert proc.returncode == 2, (argv, proc.stderr)
                assert proc.stdout == b""
                err = proc.stderr.decode()
                assert "on 604 vertices" in err, err
                assert "dimension vectors 37090735" in err, err
                assert str(MAX_DIM_VECTORS) in err, err

    def test_order_is_bounded_by_the_oracle_color(self):
        # --order N runs the oracle at colors 0..N: an order over
        # MAX_ORACLE_COLOR is refused by its handler, naming the order
        # and the bound, with the usage line of its command and the
        # oracle never called, also under -O; the bound itself is
        # admitted
        script = ("import sys\n"
                  "from quivertangle import cli, verify\n"
                  "def oracle_homfly(slope, colors):\n"
                  "    raise SystemExit('the oracle ran')\n"
                  "cli.oracle_homfly = verify.oracle_homfly = oracle_homfly\n"
                  "sys.exit(cli.main(sys.argv[1:]))\n")
        for argv in (["verify", "1/1", "--order", "13"],
                     ["compute", "3/1", "--order", "13"]):
            for optimized in (False, True):
                proc = run_python("-c", script, *argv, optimized=optimized)
                assert proc.returncode == 2, (argv, proc.stderr)
                assert proc.stdout == b""
                err = proc.stderr.decode()
                assert err.startswith(f"usage: quivertangle {argv[0]} "), err
                assert (f"order 13, more than the bound {MAX_ORACLE_COLOR}"
                        in err), err
        assert MAX_ORACLE_COLOR == 12
        for command in ("compute", "verify"):
            args = cli.build_parser().parse_args(
                [command, "3/1", "--order", "12"])
            assert args.order == 12
        proc = run_python("-m", "quivertangle.cli", "verify", "1/1",
                          "--order", "12")
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout.splitlines()[0])
        assert report["order_checked"] == 12 and report["ok"]

    def test_oversized_quiver_is_refused(self):
        # the link route on 1024/1 would build 2(1024 + 1) vertices and
        # the knot route on 2049/2 would build p = 2049: refused before
        # building, with the count and the bound named, also under -O
        for argv, count in ((["compute", "1024/1"], 2050),
                            (["verify", "1024/1"], 2050),
                            (["compute", "2049/2"], 2049),
                            (["compute", "[2049]", "--pipeline", "link"],
                             4100),
                            (["verify", "2049/2"], 2049)):
            for optimized in (False, True):
                proc = run_python("-m", "quivertangle.cli", *argv,
                                  optimized=optimized)
                assert proc.returncode == 2, (argv, proc.stderr)
                assert proc.stdout == b""
                err = proc.stderr.decode()
                assert (f" {count}, more than the bound {MAX_VERTICES}"
                        in err), err


class TestOnePlanPerRequest:
    @pytest.mark.parametrize("argv, resolved, represented", [
        (["compute", "13/3", "--order", "2", "--frame", "-3"], 1, 2),
        (["verify", "13/3"], 2, 3),
        (["compute", "8/3"], 1, 1),
    ])
    def test_each_route_resolves_once(self, capsys, monkeypatch, argv,
                                      resolved, represented):
        # a request resolves its diagram once per route it takes, and
        # the oracle finds its own representative once: resolve_terms
        # and good_representative are counted wherever they are bound
        counts = {}
        for fn in (tangles.resolve_terms, tangles.good_representative):
            def counted(*args, fn=fn):
                counts[fn.__name__] += 1
                return fn(*args)

            counts[fn.__name__] = 0
            for module in (cli, knotpipeline, qseries, quiverstate, skein,
                           tangles, verify):
                for attr in [a for a, v in vars(module).items() if v is fn]:
                    monkeypatch.setattr(module, attr, counted)
        code, _, _ = run(capsys, *argv)
        assert code == 0
        assert counts == {"resolve_terms": resolved,
                          "good_representative": represented}


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

    def test_batch_refuses_an_oversized_knot_first(self, capsys,
                                                   monkeypatch):
        # with the bound at 6 vertices, 7/2 (5 crossings) would not fit:
        # budget 5 is refused with exit 2 by its handler, naming the
        # derived bound 4 (F(5) = 5 <= 6 < F(6) = 8), before
        # any knot of the corpus is computed
        monkeypatch.setattr(quiverstate, "MAX_VERTICES", 6)
        computed = []
        monkeypatch.setattr(cli, "_batch_worker", computed.append)
        with pytest.raises(SystemExit) as exc:
            cli.main(["batch", "--max-crossings", "5", "--jobs", "1"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and computed == []
        assert "crossing budget 5, more than the bound 4" in err, err

    def test_batch_jobs_are_capped(self, capsys, monkeypatch):
        # the pool starts every requested worker at once: no more than
        # the CPUs and the 4 tasks may be asked for (a recording fake
        # runs the tasks in-process, so no process starts)
        asked = []

        class RecordingPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            RecordingPool)
        code, one, _ = run(capsys, "batch", "--max-crossings", "5",
                           "--jobs", "1")
        assert code == 0
        code, many, err = run(capsys, "batch", "--max-crossings", "5",
                              "--jobs", "64")
        assert code == 0 and many == one
        workers = min(4, os.cpu_count() or 1)
        assert asked == ([workers] if workers > 1 else [])
        assert f"({workers} worker" in err


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
        ["compute", "1/3"],
        ["oracle", "2/5"],
        ["verify", "1/2"],
        ["compute", "[true]"],
        ["compute", "[3,true,1]"],
    ])
    def test_parse_errors_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2

    def test_main_reuses_one_parser(self, capsys, monkeypatch):
        # main() parses with the parser built at import: with
        # build_parser broken, each call still matches a fresh process
        argvs = (["compute", "3/1"], ["compute", "3/1", "--order", "-1"],
                 ["oracle", "3/1"], ["verify", "3/1", "--order", "1"])
        fresh = [run_python("-m", "quivertangle.cli", *argv)
                 for argv in argvs]

        def rebuilt():
            raise RuntimeError("parser rebuilt")

        monkeypatch.setattr(cli, "build_parser", rebuilt)
        for argv, proc in zip(argvs, fresh):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            out = capsys.readouterr().out
            assert (code, out.encode()) == (proc.returncode,
                                            proc.stdout), argv
        assert fresh[1].returncode == 2

    @pytest.mark.parametrize("text", ["3", "1/2/3", "3/x", "1_3/3",
                                      " +13/ 3", "\uff11\uff13/3"])
    def test_malformed_slopes_name_their_form(self, text, capsys):
        # refused by the form they miss, not by Python's unpack or int():
        # each side is an optional minus and ASCII digits, not one of the
        # other literal forms int() takes (an underscore, a plus, spaces,
        # full-width digits)
        with pytest.raises(SystemExit) as exc:
            cli.main(["compute", text])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert (f"error: argument input: bad slope {text!r}: expected p/q, "
                "two integers\n") in err, err

    @pytest.mark.parametrize("argv, size", [
        (["enumerate", "--max-crossings", "16"], None),
        (["batch", "--max-crossings", "12", "--jobs", "2"], None),
        (["compute", "2047/2"], 100),
    ])
    def test_a_closed_stdout_ends_quietly(self, argv, size):
        # a reader that takes one line, or 100 bytes, and closes the
        # pipe: the command stops writing and returns its own code
        env = dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(quivertangle.__file__)))
        proc = subprocess.Popen(
            [sys.executable, "-m", "quivertangle.cli", *argv], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        head = (proc.stdout.readline() if size is None
                else proc.stdout.read(size))
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert head.startswith(b"{"), head
        assert (proc.returncode, b"Traceback" in err) == (0, False), err
        if argv[0] == "batch":
            # its summary counts the lines handed to stdout before the
            # reader left, fewer than its 362 knots: the 11 MB of output
            # cannot all pass the pipe before the reader closes it
            written = int(err.split(b"batch: ")[1].split()[0])
            assert 1 <= written < 362, err

    def test_knot_pipeline_on_link_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["compute", "4/1", "--pipeline", "knot"])
        assert exc.value.code == 2

    def test_knot_route_on_a_link_names_the_link_route(self, capsys):
        # one message, from the knot route itself, on every command
        for argv in (["compute", "4/1", "--pipeline", "knot"],
                     ["verify", "4/1", "--pipeline", "knot"],
                     ["compute", "[2,1,2]", "--pipeline", "knot"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 2, argv
            err = capsys.readouterr().err
            slope = "4/1" if argv[1] == "4/1" else "8/3"
            assert (f"{argv[0]}: error: {slope} is a two-component link: "
                    "the knot route needs an odd p; use --pipeline link"
                    in err), err
        with pytest.raises(ValueError, match="4/1 is a two-component link"):
            cli.verify_knot(Slope(4, 1), 1)

    def test_refusals_print_their_command_usage(self):
        # a refusal raised inside a command's handler prints that
        # command's usage line, not the top-level one, also under -O
        for argv in (["oracle", "7/3", "--colors", "20..20"],
                     ["compute", "4/1", "--pipeline", "knot"],
                     ["verify", "3/1", "--order", "400"]):
            for optimized in (False, True):
                proc = run_python("-m", "quivertangle.cli", *argv,
                                  optimized=optimized)
                assert proc.returncode == 2, (argv, proc.stderr)
                assert proc.stdout == b""
                err = proc.stderr.decode()
                assert err.startswith(f"usage: quivertangle {argv[0]} "), err
                assert f"quivertangle {argv[0]}: error: " in err, err

    def test_crossing_budget_is_bounded(self):
        # a budget over the bound is refused before any work, naming the
        # budget and the bound, also under -O: MAX_CROSSINGS for
        # enumerate, and for batch the 16 crossings whose every knot
        # fits MAX_VERTICES; each bound is admitted
        assert cli.MAX_CROSSINGS == 18 and cli._batch_crossings() == 16
        for command, bound in (("enumerate", 18), ("batch", 16)):
            args = cli.build_parser().parse_args(
                [command, "--max-crossings", str(bound)])
            assert args.max_crossings == bound
        # the fresh interpreter exits 1, not 2, if it enumerates
        script = ("import sys\n"
                  "from quivertangle import cli\n"
                  "def enumerate_rational_knots(budget):\n"
                  "    raise SystemExit('enumerated over the bound')\n"
                  "cli.enumerate_rational_knots = enumerate_rational_knots\n"
                  "sys.exit(cli.main(sys.argv[1:]))\n")
        for argv, bound in (
                (["enumerate", "--max-crossings", "19"], 18),
                (["batch", "--max-crossings", "17", "--jobs", "1"], 16),
                (["batch", "--max-crossings", "30", "--jobs", "1"], 16)):
            for optimized in (False, True):
                proc = run_python("-c", script, *argv, optimized=optimized)
                assert proc.returncode == 2, (argv, proc.stderr)
                assert proc.stdout == b""
                assert (f"crossing budget {argv[2]}, more than the bound "
                        f"{bound}" in proc.stderr.decode()), proc.stderr

    def test_unwritable_out_is_a_usage_error(self, capsys, tmp_path,
                                             monkeypatch):
        # on every command, an --out in a missing directory or naming a
        # directory exits 2, naming the path and the OS error, not 1
        # (a mismatch), before any work; also under -O
        def work(*args):
            raise AssertionError("worked before checking --out")

        for name in ("enumerate_rational_knots", "compute_payload",
                     "verify_knot", "oracle_homfly"):
            monkeypatch.setattr(cli, name, work)
        missing = str(tmp_path / "missing" / "x.json")
        for argv, path in ((["compute", "3/1"], missing),
                           (["oracle", "3/1"], missing),
                           (["verify", "3/1", "--order", "1"], missing),
                           (["enumerate", "--max-crossings", "5"],
                            str(tmp_path)),
                           (["batch", "--max-crossings", "3", "--jobs", "1"],
                            str(tmp_path))):
            with pytest.raises(SystemExit) as exc:
                cli.main([*argv, "--out", path])
            assert exc.value.code == 2, argv
            err = capsys.readouterr().err
            assert f"cannot write --out {path}: " in err, err
        for argv, path, reason in (
                (["compute", "3/1"], missing, "No such file or directory"),
                (["enumerate", "--max-crossings", "5"], str(tmp_path),
                 "Is a directory")):
            proc = run_python("-m", "quivertangle.cli", *argv, "--out", path,
                              optimized=True)
            assert proc.returncode == 2, (argv, proc.stderr)
            assert proc.stdout == b""
            err = proc.stderr.decode()
            assert err.startswith(f"usage: quivertangle {argv[0]} "), err
            assert f"cannot write --out {path}: {reason}" in err, err
        # a path below a regular file names the error open() would meet
        notes = tmp_path / "notes.txt"
        notes.write_bytes(b"")
        with pytest.raises(SystemExit) as exc:
            cli.main(["compute", "3/1", "--out", str(notes / "x.json")])
        assert exc.value.code == 2
        assert "Not a directory" in capsys.readouterr().err
        # in a directory that cannot be written, a new file is refused
        # the same way, but an existing writable file is still written
        # (as /dev/null is): it needs its own permission, not the folder's
        real_access = os.access

        def refuse_folders(path, mode):
            return not os.path.isdir(path) and real_access(path, mode)

        monkeypatch.setattr(os, "access", refuse_folders)
        with pytest.raises(SystemExit) as exc:
            cli.main(["compute", "3/1", "--out", str(tmp_path / "x.json")])
        assert exc.value.code == 2
        assert "Permission denied" in capsys.readouterr().err
        monkeypatch.undo()
        monkeypatch.setattr(os, "access", refuse_folders)
        for path in (notes, "/dev/null"):
            assert cli.main(["compute", "3/1", "--out", str(path)]) == 0
        assert json.loads(notes.read_text())["p"] == 3
        monkeypatch.undo()
        # the check neither creates nor truncates the file: a refusal
        # after it leaves an existing file as it was and a new one absent
        kept, new = tmp_path / "kept.json", tmp_path / "new.json"
        kept.write_bytes(b"kept\n")
        for argv in (["compute", "4/1", "--pipeline", "knot"],
                     ["oracle", "7/3", "--colors", "20..20"]):
            for path in (kept, new):
                with pytest.raises(SystemExit) as exc:
                    cli.main([*argv, "--out", str(path)])
                assert exc.value.code == 2, argv
        assert kept.read_bytes() == b"kept\n" and not new.exists()

    def test_oversized_slopes_are_refused_before_a_representative(self):
        # every representative of p/q has p, and a route builds at least
        # p vertices: a p over the bound is refused by route_size before
        # resolve_terms seeks a closable representative, with exit 2,
        # also under -O; the knot route's count p is exact, the link
        # route's 2(p + 1) a least count
        cf = "[" + ",".join(["1"] * 60001) + "]"
        script = ("import sys\n"
                  "from quivertangle import cli, quiverstate\n"
                  "def resolve(slope_or_terms):\n"
                  "    raise SystemExit('resolve_terms ran')\n"
                  "quiverstate.resolve_terms = resolve\n"
                  "sys.exit(cli.main(sys.argv[1:]))\n")
        for argv, count in (
                (["compute", cf], "vertex count at least 10^12537"),
                (["verify", cf], "vertex count at least 10^12537"),
                (["compute", "2049/2"], "vertex count 2049,"),
                (["compute", "2049/2", "--frame", "3"], "vertex count 2049,"),
                (["verify", "2049/2", "--pipeline", "link"],
                 "vertex count at least 4100"),
                (["compute", "4096/1"], "vertex count at least 8194"),
                (["compute", "3/1", "--order", "1"], None)):
            for optimized in (False, True):
                proc = run_python("-c", script, *argv, optimized=optimized)
                err = proc.stderr.decode()
                if count is None:  # p within the bound: it resolves
                    assert proc.returncode == 1, err
                    assert "resolve_terms ran" in err
                    continue
                assert proc.returncode == 2, (argv, err)
                assert proc.stdout == b""
                assert count in err and f"the bound {MAX_VERTICES}" in err

    def test_refusals_of_huge_inputs_print(self):
        # a CF of 60,001 ones fits one argv string, but the numerator of
        # its slope has about 12,500 digits, more than str() converts:
        # each refusal names its bound and a size that prints, with exit
        # 2, also under -O
        cf = "[" + ",".join(["1"] * 60001) + "]"
        for command, size, bound in (
                ("compute", "vertex count at least 10^12537", MAX_VERTICES),
                ("verify", "vertex count at least 10^12537", MAX_VERTICES),
                ("oracle", "twist count (CF term sum) 60001",
                 MAX_ORACLE_TWISTS)):
            for optimized in (False, True):
                proc = run_python("-m", "quivertangle.cli", command, cf,
                                  optimized=optimized)
                assert proc.returncode == 2, (command, proc.stderr)
                assert proc.stdout == b""
                err = proc.stderr.decode()
                assert f"{command}: error: " in err, err
                assert size in err and f"the bound {bound}" in err, err

    def test_validation_survives_optimized_mode(self):
        # python -O strips assert statements; input checks must not rely
        # on them
        for argv in (["compute", "[1,2]"], ["compute", "1/3"],
                     ["oracle", "3/1", "--colors", "3..1"],
                     ["oracle", "7/3", "--colors", "20..20"],
                     ["oracle", "100001/3", "--colors", "2..2"]):
            proc = run_python("-m", "quivertangle.cli", *argv,
                              optimized=True)
            assert proc.returncode == 2, (argv, proc.stderr)
        # each call must raise a ValueError naming its rule: the export
        # of a closed state whose Q is not symmetric (one off-diagonal
        # slot of its first packed row bumped); an even-length CF,
        # refused up front rather than later as an unclosable state;
        # tangles ending on RI, which do not close North-South; and a
        # template on a state without the bookkeeping type it needs
        cases = [
            ("framing_shift(asymmetric, 0)", "symmetric"),
            ("knot_quiver([1, 2])", "odd-length"),
            ("link_quiver([1, 1, 1])", "North-South"),
            ("link_quiver([2, 1, 1])", "North-South"),
            ("_apply_template(flagged, 'TT')", "needs k-type bookkeeping"),
        ]
        proc = run_python("-c", (
            "from quivertangle.knotpipeline import (_apply_template,\n"
            "                                       knot_quiver)\n"
            "from quivertangle.quiverstate import (W, _Thawed, _pack,\n"
            "                                      framing_shift,\n"
            "                                      link_quiver)\n"
            "asymmetric = link_quiver([3])\n"
            "asymmetric.rows[0] += 1 << W\n"
            "flagged = _Thawed('UP', [(False, 1, 0, 0)], [_pack((0,))], 8)\n"
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


class TestOneRefusalShape:
    # every count-over-bound refusal: `<what> <count>, more than the
    # bound <B>`, raised by its command's handler with exit 2
    SHAPE = re.compile(r"error: (.+) (\S+), more than the bound (\d+)\n\Z")

    @pytest.mark.parametrize("argv, what, count, bound", [
        (["compute", "2049/2"], "vertex count", "2049", MAX_VERTICES),
        (["compute", "4096/1"], "vertex count at least", "8194",
         MAX_VERTICES),
        (["verify", "55/21", "--order", "6"],
         "expansion to order 6 on 55 vertices: dimension vectors",
         "55525372", MAX_DIM_VECTORS),
        (["oracle", "7/3", "--colors", "0..13"], "color", "13",
         MAX_ORACLE_COLOR),
        (["oracle", "[13]", "--colors", "0..1"],
         "twist count (CF term sum)", "13", MAX_ORACLE_TWISTS),
        (["compute", "3/1", "--order", "13"], "order", "13",
         MAX_ORACLE_COLOR),
        (["enumerate", "--max-crossings", "19"], "crossing budget", "19",
         cli.MAX_CROSSINGS),
        (["batch", "--max-crossings", "17", "--jobs", "1"],
         "crossing budget", "17", 16),
    ])
    def test_each_refusal_has_the_one_shape(self, capsys, argv, what,
                                            count, bound):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"usage: quivertangle {argv[0]} ")
        assert self.SHAPE.search(err).groups() == (what, count, str(bound))

    def test_no_argument_type_has_an_upper_bound(self, capsys):
        # an order over the oracle's color bound and a crossing budget
        # over MAX_CROSSINGS parse; the handler refuses them
        parser = cli.build_parser()
        for argv, option, value, bound in (
                (["verify", "3/1", "--order", "13"], "order", 13,
                 MAX_ORACLE_COLOR),
                (["enumerate", "--max-crossings", "19"], "max_crossings", 19,
                 cli.MAX_CROSSINGS)):
            assert getattr(parser.parse_args(argv), option) == value
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 2
            assert f"more than the bound {bound}" in capsys.readouterr().err

    def test_out_keeps_the_lines_written_before_a_failure(self, tmp_path):
        # each line is written as it arrives; the work that makes the
        # lines is not an --out usage error, even when it raises OSError
        out = tmp_path / "out.jsonl"

        def lines():
            yield "first\n"
            raise OSError(errno.EIO, "the work failed")

        with pytest.raises(OSError, match="the work failed"):
            cli._emit(lines(), str(out))
        assert out.read_text() == "first\n"


BENCH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench")


def load_bench_spans():
    spec = importlib.util.spec_from_file_location(
        "bench_spans", os.path.join(BENCH, "spans.py"))
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


class TestBenchDigests:
    def test_compute_workloads_match_the_stored_digests(self, capsys):
        # every compute request of the corpus12 and links50 workloads,
        # replayed through cli.main: the short sha256 of each stdout is
        # the one bench/expected.json stores, which is only read here
        spec = importlib.util.spec_from_file_location(
            "bench_workloads", os.path.join(BENCH, "workloads.py"))
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        with open(os.path.join(BENCH, "expected.json")) as fh:
            stored = json.load(fh)
        for name in ("corpus12", "links50"):
            outputs = stored[name]["outputs"]
            argvs = workloads.requests(name, enumerate_rational_knots)
            assert len(argvs) == len(outputs) == workloads.SIZES[name]
            for argv in argvs:
                code, out, _ = run(capsys, *argv)
                assert code == 0, argv
                digest = hashlib.sha256(out.encode()).hexdigest()[:16]
                assert digest == outputs[" ".join(argv)], argv


class TestBenchBindings:
    def test_traced_call_sites_resolve(self):
        # the traced benchmark wraps each (owner, attribute) binding of
        # bench/spans.py; a renamed or deleted call site breaks it
        spans = load_bench_spans()
        bindings = spans.bindings(cli, verify, qseries, tangles)
        assert bindings
        for owner, attr, name, _ in bindings:
            assert callable(getattr(owner, attr, None)), (name, attr)

    def test_oracle_spans_are_written(self, capsys, monkeypatch, tmp_path):
        # the oracle takes its colors as a list, which the traced
        # benchmark records in the span info and writes as JSON: one
        # span per oracle or verify request
        spans = load_bench_spans()
        tracer = spans.Tracer()
        for owner, attr, name, info in spans.bindings(cli, verify, qseries,
                                                      tangles):
            if name == "skein.oracle":
                monkeypatch.setattr(owner, attr, tracer.wrap(
                    name, getattr(owner, attr), info))
        run_json(capsys, "oracle", "7/3", "--colors", "1..3")
        run(capsys, "verify", "7/3", "--order", "2")
        taken = tracer.take()
        assert [s[spans.INFO] for s in taken] == [{"j": [1, 2, 3]},
                                                 {"j": [0, 1, 2]}]
        spans.write_spans(tmp_path / "spans.jsonl", [taken])

    @staticmethod
    def traced(monkeypatch):
        """The bench spans module and a tracer wrapping every binding
        of bench/spans.py, as the traced benchmark wraps them."""
        spans = load_bench_spans()
        tracer = spans.Tracer()
        for owner, attr, name, info in spans.bindings(cli, verify, qseries,
                                                      tangles):
            monkeypatch.setattr(owner, attr, tracer.wrap(
                name, getattr(owner, attr), info))
        return spans, tracer

    def test_one_export_call_per_compute(self, capsys, monkeypatch):
        # with every binding wrapped, a compute gives exactly its route's
        # spans: on the knot route compute_payload, knot_quiver, the 3
        # gradings and export, on the link route link_quiver and export;
        # export is one pass whatever the convention, frame or route
        spans, tracer = self.traced(monkeypatch)
        knot = ["knotpipeline.knot_quiver"] + ["knotpipeline.gradings"] * 3
        for slope, pipeline, route in (
                ("13/3", "knot", knot),
                ("13/3", "link", ["quiverstate.link_quiver"]),
                ("8/3", "link", ["quiverstate.link_quiver"])):
            for convention in ("anti", "sym"):
                for frame in ("canonical", "raw", "-3"):
                    run_json(capsys, "compute", slope, "--pipeline",
                             pipeline, "--convention", convention,
                             "--frame", frame)
                    names = [s[spans.NAME] for s in tracer.take()]
                    assert names == ["cli.main", "cli.compute_payload",
                                     *route, "quiverstate.export"], (
                        slope, pipeline, convention, frame, names)

    def test_verify_spans(self, capsys, monkeypatch):
        # verify 13/3 gives 2 checks, each building its route and
        # expanding its quiver, and one oracle span for both
        spans, tracer = self.traced(monkeypatch)
        code, _, _ = run(capsys, "verify", "13/3")
        assert code == 0
        assert [s[spans.NAME] for s in tracer.take()] == [
            "cli.main",
            "verify.check", "knotpipeline.knot_quiver", "verify.expand",
            "skein.oracle",
            "verify.check", "quiverstate.link_quiver", "verify.expand"]

    def test_bench_selftest_passes(self):
        proc = subprocess.run([sys.executable,
                               os.path.join(BENCH, "selftest.py")],
                              cwd=os.path.dirname(BENCH),
                              capture_output=True, timeout=60)
        assert proc.returncode == 0, proc.stderr.decode()

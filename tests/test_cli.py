import contextlib
import hashlib
import io
import json
import os
import random
import re
import runpy
import shlex
import subprocess
import sys
import tracemalloc
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raagsplit import (
    GoGVertex,
    GraphError,
    GraphOfGroups,
    NonSplitCover,
    SplitReport,
    build_j0,
    collapse_to_j,
    jsj,
    parse_graph,
    splits_over_z,
)
from raagsplit.cli import _CHUNK, _emit, main, parse_args
from raagsplit.serialize import (
    _gog_dot,
    _gog_json,
    _payload_json,
    gog_to_dict,
    gog_to_dot,
    parse_graph6,
    report_to_dict,
    witness_to_dict,
)

from conftest import frozen_build_parser, graphs, hand_built_gogs, oracle_is_biconnected, scale_graph

STAR = "c l1\nc l2\nc l3\n"
TWO_TRIANGLES = "a b\na c\nb c\nc d\nd e\nd f\ne f\n"
TRIANGLE = "a b\nb c\na c\n"
SRC = Path(__file__).resolve().parents[1] / "src"
DEMO = SRC.parent / "scripts" / "demo_decompositions.py"


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        # a text stream over bytes, as real stdin is: the CLI reads its .buffer
        data = stdin if isinstance(stdin, bytes) else stdin.encode("utf-8")
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def record_writes(monkeypatch):
    """A list that every later write to stdout is appended to, one item per write.

    Called in a test's body: pytest sets its own ``sys.stdout`` once fixtures are set up.
    """
    recorded = []
    monkeypatch.setattr(sys, "stdout", io.StringIO())
    monkeypatch.setattr(sys.stdout, "write", recorded.append)
    return recorded


def assert_chunked(writes, whole, longest):
    """``writes`` spell ``whole``, each write but the last at least 64 KB and short of 64 KB plus the longest piece."""
    assert "".join(writes) == whole
    assert len(writes) >= 2
    assert all(_CHUNK <= len(chunk) < _CHUNK + longest for chunk in writes[:-1])


@pytest.fixture
def star_file(tmp_path):
    p = tmp_path / "star.txt"
    p.write_text(STAR)
    return str(p)


@pytest.fixture
def two_triangles_file(tmp_path):
    p = tmp_path / "gamma2.txt"
    p.write_text(TWO_TRIANGLES)
    return str(p)


class TestSplit:
    def test_star(self, capsys, star_file):
        code, out, err = run(capsys, ["split", star_file])
        assert code == 0
        payload = json.loads(out)
        assert payload["free_split"] is False
        assert payload["z_split"] == "yes"
        assert payload["witness"] == {
            "kind": "amalgam",
            "side1": ["c", "l1"],
            "side2": ["c", "l2", "l3"],
            "vertex": "c",
        }

    def test_triangle_cover(self, capsys, tmp_path):
        p = tmp_path / "t.txt"
        p.write_text(TRIANGLE)
        code, out, _ = run(capsys, ["split", str(p)])
        assert code == 0
        payload = json.loads(out)
        assert payload["z_split"] == "no"
        assert len(payload["witness"]["cover"]) == 3

    def test_k2(self, capsys, monkeypatch):
        code, out, _ = run(capsys, ["split", "-"], stdin="a b\n", monkeypatch=monkeypatch)
        assert code == 0
        payload = json.loads(out)
        assert payload["z_split"] == "hnn_small_case"
        assert payload["witness"]["tag"] == "Z^2"

    def test_parse_error_exit_2(self, capsys, monkeypatch):
        code, out, err = run(capsys, ["split", "-"], stdin="a a\n", monkeypatch=monkeypatch)
        assert code == 2 and out == "" and "line 1" in err

    def test_empty_graph_exit_3(self, capsys, monkeypatch):
        code, out, err = run(capsys, ["split", "-"], stdin="# nothing\n", monkeypatch=monkeypatch)
        assert code == 3 and out == ""

    def test_stdout_is_byte_stable(self, capsys, star_file):
        _, out1, _ = run(capsys, ["split", star_file])
        _, out2, _ = run(capsys, ["split", star_file])
        assert out1 == out2 and out1.endswith("\n")


class TestJsj:
    def test_two_triangles_collapsed(self, capsys, two_triangles_file):
        code, out, _ = run(capsys, ["jsj", two_triangles_file, "--stage=j"])
        assert code == 0
        payload = json.loads(out)
        assert [v["group"] for v in payload["vertices"]] == [
            {"kind": "raag", "vertices": ["a", "b", "c"]},
            {"kind": "raag", "vertices": ["c", "d"]},
            {"kind": "raag", "vertices": ["d", "e", "f"]},
        ]
        assert [e["group_vertex"] for e in payload["edges"]] == ["c", "d"]
        assert all(not e["loop"] for e in payload["edges"])

    def test_star_j0(self, capsys, star_file):
        code, out, _ = run(capsys, ["jsj", star_file, "--stage=j0"])
        payload = json.loads(out)
        assert code == 0
        assert len(payload["vertices"]) == 4
        loops = [e for e in payload["edges"] if e["loop"]]
        assert sorted(e["stable_letter"] for e in loops) == ["l1", "l2", "l3"]
        assert len(payload["edges"]) == 6

    def test_k2_exit_4(self, capsys, monkeypatch):
        code, out, err = run(capsys, ["jsj", "-"], stdin="a b\n", monkeypatch=monkeypatch)
        assert code == 4 and out == ""
        assert "three vertices" in err

    def test_disconnected_exit_4(self, capsys, monkeypatch):
        code, _, err = run(capsys, ["jsj", "-"], stdin="a b\nc d\n", monkeypatch=monkeypatch)
        assert code == 4
        assert err == "error: decomposition needs a connected graph with at least three vertices\n"

    @pytest.mark.parametrize("stage", ["j0", "j"])
    @pytest.mark.parametrize("fmt", ["json", "dot"])
    @pytest.mark.parametrize("text", ["", "# nothing\n"])
    def test_empty_graph_exit_3(self, capsys, monkeypatch, stage, fmt, text):
        argv = ["jsj", "-", f"--stage={stage}", f"--format={fmt}"]
        code, out, err = run(capsys, argv, stdin=text, monkeypatch=monkeypatch)
        assert (code, out, err) == (3, "", "error: empty graph\n")

    def test_dot_output(self, capsys, star_file):
        code, out, _ = run(capsys, ["jsj", star_file, "--format=dot", "--stage=j0"])
        assert code == 0
        assert out.startswith("graph decomposition {")
        assert '"blk0" -- "blk0" [label="l1"];' in out
        assert 'fillcolor=black' in out and 'fillcolor=white' in out


class TestWitness:
    def test_square_cover(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys, ["witness", "-"], stdin="a b\nb c\nc d\na d\n", monkeypatch=monkeypatch
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["verified"] is True
        assert len(payload["witness"]["cover"]) == 4

    def test_two_triangles_amalgam(self, capsys, two_triangles_file):
        code, out, _ = run(capsys, ["witness", two_triangles_file])
        payload = json.loads(out)
        assert code == 0 and payload["verified"] is True
        assert payload["witness"]["vertex"] == "c"

    def test_path3(self, capsys, monkeypatch):
        code, out, _ = run(capsys, ["witness", "-"], stdin="a b\nb c\n", monkeypatch=monkeypatch)
        payload = json.loads(out)
        assert code == 0 and payload["witness"]["vertex"] == "b"

    def test_small_graph_exit_4(self, capsys, monkeypatch):
        code, _, _ = run(capsys, ["witness", "-"], stdin="a b\n", monkeypatch=monkeypatch)
        assert code == 4

    @pytest.mark.parametrize("text", ["", "# nothing\n"])
    def test_empty_graph_exit_3(self, capsys, monkeypatch, text):
        code, out, err = run(capsys, ["witness", "-"], stdin=text, monkeypatch=monkeypatch)
        assert (code, out, err) == (3, "", "error: empty graph\n")

    @pytest.mark.parametrize("text", ["a b\nb c\nc d\na d\n", "a b\nb c\nc d\n"], ids=["cover", "amalgam"])
    def test_verified_witness_writes_no_stderr(self, capsys, monkeypatch, text):
        code, _, err = run(capsys, ["witness", "-"], stdin=text, monkeypatch=monkeypatch)
        assert (code, err) == (0, "")

    @staticmethod
    def run_with_broken_witness(capsys, monkeypatch, text, spoil):
        """``raag witness`` on ``text`` when the producer's witness passes through ``spoil`` first."""
        import raagsplit.splitting

        real = raagsplit.splitting.splits_over_z

        def producer(g):
            report = real(g)
            return report._replace(witness=spoil(report.witness))

        monkeypatch.setattr(raagsplit.splitting, "splits_over_z", producer)
        code, out, err = run(capsys, ["witness", "-"], stdin=text, monkeypatch=monkeypatch)
        report = producer(parse_graph(text))
        fields = {"z_split": report.z_split, "witness": report.witness, "verified": False}
        assert (code, out) == (1, "".join(_payload_json(fields)) + "\n")  # the bytes a failed witness always wrote
        return err

    def test_cover_missing_an_entry_names_the_segment(self, capsys, monkeypatch):
        def drop_first(cover):
            return cover._replace(entries={k: v for k, v in cover.entries.items() if k != ("a", "b", "c")})

        err = self.run_with_broken_witness(capsys, monkeypatch, "a b\nb c\nc d\na d\n", drop_first)
        assert err == "error: witness missing segment ('a', 'b', 'c')\n"

    def test_amalgam_with_a_wrong_side_names_its_flaw(self, capsys, monkeypatch):
        # the path a-b-c-d splits at b; a second side without d leaves d on neither side
        def shrink(amalgam):
            assert (amalgam.vertex, amalgam.side2) == ("b", ("b", "c", "d"))
            return amalgam._replace(side2=("b", "c"))

        err = self.run_with_broken_witness(capsys, monkeypatch, "a b\nb c\nc d\n", shrink)
        assert err == "error: witness sides do not cover exactly the graph's vertices\n"


class TestCheck:
    def test_two_triangles_all_pass(self, capsys, two_triangles_file):
        code, out, _ = run(capsys, ["check", two_triangles_file])
        assert code == 0
        lines = out.strip().splitlines()
        assert [ln.split()[0] for ln in lines] == [
            "reduced",
            "euler",
            "coverage",
            "abelianization",
        ]
        assert all("pass" in ln for ln in lines)

    def test_star_reports_rank(self, capsys, star_file):
        code, out, _ = run(capsys, ["check", star_file])
        assert code == 0
        assert "abelianization pass rank=4 torsion=[]" in out

    def test_triangle_trivial(self, capsys, monkeypatch):
        code, out, _ = run(capsys, ["check", "-"], stdin=TRIANGLE, monkeypatch=monkeypatch)
        assert code == 0 and out.count("pass") == 4

    @pytest.mark.parametrize("text", ["", "# nothing\n"])
    def test_empty_graph_exit_3(self, capsys, monkeypatch, text):
        code, out, err = run(capsys, ["check", "-"], stdin=text, monkeypatch=monkeypatch)
        assert (code, out, err) == (3, "", "error: empty graph\n")


class TestCensus:
    def test_n3_row(self, capsys):
        code, out, _ = run(capsys, ["census", "--n", "3"])
        assert code == 0
        rows = json.loads(out)
        assert rows == [
            {
                "n": 3,
                "connected": 4,
                "splits_over_Z": 3,
                "biconnected": 1,
                "jsj_edge_histogram": {"0": 1, "3": 3},
            }
        ]

    def test_default_range_digest(self, capsys):
        # n = 3..6, pinned while the counts still came from each graph's full splitting verdict
        code, out, _ = run(capsys, ["census"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "53fffab35beee9ef229187f2da003bad23fdd5f1eadd29db35a18cca96700c27"
        )

    def test_range_error_exit_5(self, capsys):
        code, _, err = run(capsys, ["census", "--n", "2"])
        assert code == 5 and "census" in err

    @pytest.mark.parametrize("argv", [["--n", "-3"], ["--n=-3"], ["--max-n", "-1"]])
    def test_negative_count_is_a_value_and_a_range_error(self, capsys, argv):
        code, out, err = run(capsys, ["census", *argv])
        assert (code, out, err) == (5, "", "error: census enumerates 3 <= n <= 6 vertices\n")

    # "--max-n 6" gives the option the value census uses when none is given, and is a source all the same
    @pytest.mark.parametrize(
        "options", [["--n", "5", "FILE"], ["--n", "4", "--max-n", "5"], ["--n", "4", "--max-n", "6"]]
    )
    def test_one_source_of_graphs(self, capsys, tmp_path, options):
        path = tmp_path / "stream.g6"
        path.write_text("Bw\n")
        with pytest.raises(SystemExit) as exc:
            main(["census", *(str(path) if o == "FILE" else o for o in options)])
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "") and "not allowed with" in err

    def test_stream_disconnected_only(self, capsys, tmp_path, monkeypatch):
        # 3-vertex graph with a single edge: disconnected, counts stay zero
        stream = tmp_path / "g6.txt"
        stream.write_text(encode_graph6(3, [(0, 1)]) + "\n")
        code, out, _ = run(capsys, ["census", str(stream)])
        rows = json.loads(out)
        assert code == 0
        assert rows == [
            {
                "n": 3,
                "connected": 0,
                "splits_over_Z": 0,
                "biconnected": 0,
                "jsj_edge_histogram": {},
            }
        ]

    def test_stream_parse_error_names_its_line(self, capsys, tmp_path):
        stream = tmp_path / "bad.g6"
        stream.write_text("Bw\nA_\nB!\n")
        code, out, err = run(capsys, ["census", str(stream)])
        assert (code, out, err) == (2, "", "error: graph6 stream line 3: bad graph6 character '!'\n")

    def test_stream_matches_enumeration(self, capsys, tmp_path):
        lines = []
        names = ["v00", "v01", "v02", "v03"]
        pairs = list(combinations(range(4), 2))
        for mask in range(1 << 6):
            lines.append(encode_graph6(4, [p for i, p in enumerate(pairs) if mask >> i & 1]))
        stream = tmp_path / "all4.g6"
        stream.write_text("\n".join(lines) + "\n")
        code, out, _ = run(capsys, ["census", str(stream)])
        rows = json.loads(out)
        assert code == 0
        assert rows[0]["connected"] == 38
        assert rows[0]["biconnected"] == 10
        assert rows[0]["splits_over_Z"] == 28

    def test_stream_blank_lines_are_skipped(self, capsys, tmp_path):
        pairs = list(combinations(range(4), 2))
        lines = [encode_graph6(4, [p for i, p in enumerate(pairs) if mask >> i & 1]) for mask in range(1 << 6)]
        outputs = []
        for name, separator in [("plain.g6", "\n"), ("spaced.g6", "\n\n  \n")]:
            stream = tmp_path / name
            stream.write_text(separator.join(lines) + "\n")
            outputs.append(run(capsys, ["census", str(stream)]))
        assert outputs[0] == outputs[1] and outputs[0][0] == 0

    def test_two_lowpoint_scans_per_connected_graph(self, monkeypatch):
        # one in is_biconnected, one in jsj; the splitting count is connected less biconnected
        import raagsplit.blocks
        import raagsplit.splitting
        from raagsplit.cli import census_rows, labeled_graphs

        scan = raagsplit.blocks._lowpoint_scan
        scans = []

        def counted(g):
            scans.append(g)
            return scan(g)

        monkeypatch.setattr(raagsplit.splitting, "_lowpoint_scan", counted)
        monkeypatch.setattr(raagsplit.blocks, "_lowpoint_scan", counted)
        [row] = census_rows({5: labeled_graphs(5)})
        assert row["connected"] == 728
        assert len(scans) == 2 * 728

    def test_oracle_matches_the_removal_definition(self):
        # disconnected graphs too, so skipping the whole-graph connectivity test shows
        from raagsplit.cli import labeled_graphs, oracle_biconnected

        for n in range(1, 6):
            for g in labeled_graphs(n):
                assert oracle_biconnected(g) == oracle_is_biconnected(g), g


class TestUnreadableInput:
    @pytest.fixture(params=["missing", "directory", "invalid utf-8"])
    def unreadable(self, request, tmp_path):
        path = tmp_path / "input.txt"
        if request.param == "directory":
            path.mkdir()
        elif request.param == "invalid utf-8":
            path.write_bytes(b"a b\n\xff\xfe c\n")
        return str(path)

    @pytest.mark.parametrize(
        "argv", [["split"], ["witness"], ["jsj"], ["check"], ["export-dot"], ["census"], ["split", "--g6"]]
    )
    def test_one_error_line_and_exit_2(self, capsys, unreadable, argv):
        code, out, err = run(capsys, [argv[0], unreadable, *argv[1:]])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read {unreadable}: ") and err.count("\n") == 1

    def test_invalid_utf8_on_stdin(self, capsys, monkeypatch):
        code, out, err = run(capsys, ["split", "-"], stdin=b"\xff a\n", monkeypatch=monkeypatch)
        assert (code, out) == (2, "") and err.startswith("error: cannot read -: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("env", [{"LC_ALL": "C"}, {"PYTHONIOENCODING": "utf-8"}])
    def test_invalid_utf8_on_stdin_in_any_environment(self, env):
        # the C locale turns on UTF-8 mode, whose text stdin decodes 0xff to a lone surrogate
        keep = {k: v for k, v in os.environ.items() if not k.startswith(("LC_", "LANG", "PYTHONIO", "PYTHONUTF8"))}
        code = "import sys; sys.path.insert(0, sys.argv.pop(1)); from raagsplit.cli import entry; entry()"
        result = subprocess.run(
            [sys.executable, "-S", "-c", code, str(SRC), "split", "-"],
            input=b"\xff a\n",
            capture_output=True,
            env={**keep, **env},
        )
        assert (result.returncode, result.stdout) == (2, b"")
        assert result.stderr.startswith(b"error: cannot read -: 'utf-8' codec can't decode byte 0xff ")
        assert result.stderr.count(b"\n") == 1

    @pytest.mark.parametrize("text", ["a b\r\nb c\r\nc a\r\n", "a b\r\n\r\nb b\r\n"], ids=["triangle", "self-loop"])
    def test_crlf_file_and_stdin_read_alike(self, capsys, monkeypatch, tmp_path, text):
        path = tmp_path / "crlf.txt"
        path.write_bytes(text.encode("utf-8"))
        for command in ("split", "jsj"):
            from_file = run(capsys, [command, str(path)])
            assert run(capsys, [command, "-"], stdin=text, monkeypatch=monkeypatch) == from_file

    @pytest.mark.parametrize("argv", [["split", "-"], ["census", "-"]])
    def test_closed_stdin(self, argv):
        # a process started with descriptor 0 closed has no sys.stdin at all
        code = "import sys; sys.path.insert(0, sys.argv.pop(1)); from raagsplit.cli import entry; entry()"
        result = subprocess.run(
            ["sh", "-c", 'exec 0<&-; exec "$@"', "sh", sys.executable, "-S", "-c", code, str(SRC), *argv],
            capture_output=True,
        )
        assert (result.returncode, result.stdout) == (2, b"")
        assert result.stderr.startswith(b"error: cannot read -: ") and result.stderr.count(b"\n") == 1

    def test_byte_order_mark_is_skipped(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "triangle.txt"
        path.write_text(TRIANGLE)
        plain = run(capsys, ["split", str(path)])
        path.write_bytes(b"\xef\xbb\xbf" + TRIANGLE.encode())
        assert plain[0] == 0 and run(capsys, ["split", str(path)]) == plain
        assert run(capsys, ["split", "-"], path.read_bytes(), monkeypatch) == plain


class TestEmit:
    def test_strings_are_written_whole_and_chunks_as_they_come(self, monkeypatch, star_file):
        writes = record_writes(monkeypatch)
        # a short payload is one write, its newline included
        _emit("check pass")
        _emit("ends in a newline\n")
        _emit(iter(['{"a": ', "true}"]))
        _emit(iter([]))
        assert writes == ["check pass\n", "ends in a newline\n", '{"a": true}\n', "\n"]
        writes.clear()
        assert main(["check", star_file]) == 0
        assert [w.split()[0] for w in writes] == ["reduced", "euler", "coverage", "abelianization"]
        assert all(w.endswith("\n") for w in writes)
        # pieces are joined until they reach 64 KB, and written once the next piece comes
        writes.clear()
        _emit(iter(["x" * 1000] * 200))
        assert [len(w) for w in writes] == [66000, 66000, 66000, 2001]

    def test_nothing_is_written_before_a_bad_record_raises(self, monkeypatch):
        writes = record_writes(monkeypatch)
        with pytest.raises(GraphError, match="^unknown witness"):
            _emit(_payload_json({"z_split": "no", "witness": ("a", "b")}))
        # the bad group sits on the last vertex of J, hundreds of kilobytes into either text
        j = jsj(scale_graph("path", 2000, 1))
        gog = j._replace(vertices=(*j.vertices[:-1], j.vertices[-1]._replace(group=("a",))))
        for write in (_gog_json, _gog_dot):
            with pytest.raises(GraphError, match="^unknown group descriptor"):
                _emit(write(gog))
        assert writes == []


class TestClosedPipe:
    @staticmethod
    def run_and_close(tmp_path, cmd, edges):
        """Exit code and stderr of ``raag cmd`` on ``edges`` once its reader takes 100 bytes and leaves."""
        path = tmp_path / "graph.txt"
        path.write_text("".join(f"{u} {v}\n" for u, v in edges))
        code = "import sys; sys.path.insert(0, sys.argv.pop(1)); from raagsplit.cli import entry; entry()"
        with subprocess.Popen(
            [sys.executable, "-S", "-c", code, str(SRC), cmd, str(path)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        ) as proc:
            assert len(proc.stdout.read(100)) == 100
            proc.stdout.close()
            err = proc.stderr.read()
        return proc.returncode, err

    def test_reader_closing_stdout_exits_141_quietly(self, tmp_path):
        # J of a 10^4-vertex path is far more than a pipe holds, so the write fails once the
        # reader is gone; a shell reports a process killed by SIGPIPE as 141
        edges = [(f"v{i}", f"v{i + 1}") for i in range(9999)]
        assert self.run_and_close(tmp_path, "jsj", edges) == (141, b"")

    def test_reader_closing_stdout_of_a_chunked_cover_exits_141_quietly(self, tmp_path):
        # a 600-cycle's cover payload is 6.5 MB, written in chunks of about 64 KB: a later
        # chunk's write fails once the reader is gone
        edges = [(f"v{i}", f"v{(i + 1) % 600}") for i in range(600)]
        assert self.run_and_close(tmp_path, "split", edges) == (141, b"")


class TestExportDot:
    def test_plain_graph(self, capsys, monkeypatch):
        code, out, _ = run(capsys, ["export-dot", "-"], stdin="a b\n", monkeypatch=monkeypatch)
        assert code == 0
        assert out.startswith("graph defining_graph {")
        assert '"a" -- "b";' in out

    def test_decomposition_stage(self, capsys, star_file):
        code, out, _ = run(capsys, ["export-dot", star_file, "--stage=j"])
        assert code == 0 and out.startswith("graph decomposition {")

    def test_stage_precondition(self, capsys, monkeypatch):
        code, _, _ = run(
            capsys, ["export-dot", "-", "--stage=j0"], stdin="a b\n", monkeypatch=monkeypatch
        )
        assert code == 4

    @pytest.mark.parametrize("stage", ["j0", "j"])
    def test_empty_graph_exit_3(self, capsys, monkeypatch, stage):
        argv = ["export-dot", "-", f"--stage={stage}"]
        code, out, err = run(capsys, argv, stdin="# nothing\n", monkeypatch=monkeypatch)
        assert (code, out, err) == (3, "", "error: empty graph\n")

    def test_empty_graph_stage_graph(self, capsys, monkeypatch):
        code, out, err = run(capsys, ["export-dot", "-"], stdin="", monkeypatch=monkeypatch)
        assert (code, out, err) == (0, "graph defining_graph {\n}\n", "")

    @pytest.mark.parametrize("stage", ["j", "j0"])
    @pytest.mark.parametrize(
        "name", ["path", "random-tree", "k4-chain", "cactus", "empty", "disconnected", "unreadable"]
    )
    def test_same_as_jsj_dot(self, capsys, tmp_path, name, stage):
        path = tmp_path / f"{name}.txt"
        if name == "empty":
            path.write_text("")
        elif name == "disconnected":
            path.write_text("a b\nc d\n")
        elif name != "unreadable":
            path.write_text("".join(f"{u} {v}\n" for u, v in scale_graph(name, 300, 1).edges))
        exported = run(capsys, ["export-dot", str(path), f"--stage={stage}"])
        assert exported == run(capsys, ["jsj", str(path), f"--stage={stage}", "--format=dot"])
        expected_code = {"empty": 3, "disconnected": 4, "unreadable": 2}.get(name, 0)
        assert exported[0] == expected_code


class TestGoldenAtScale:
    """Pinned output bytes on seeded 300-vertex graphs and two cut-free disconnected ones.

    The J0 and J digests, on a path, a random tree, a K4 chain and a cactus
    whose blocks hold up to four cut vertices, fix the ``e<i>`` numbering
    around blocks with several cut vertices, which the small fixtures never
    exercise, and which whites absorb the collapsed cut vertices.  The cover
    digests fix the Hamiltonian cover of a cycle, a grid and an ear graph;
    the amalgam digests fix the sides of the amalgam witness on a path, a
    random tree, a K4 chain and a cactus.
    """

    JSJ_DIGESTS = {
        ("path", "j", "json"): "a6e2f424b8c90c33f58ef793898ea91fddc749a2775636f5950165ee34902179",
        ("path", "j", "dot"): "4f1b41cf67f833fa428e78e73e2b7ae798649604d8652ab22bda9208ac56e659",
        ("path", "j0", "json"): "04b7edb02bf0c4ee8773fbd0c2741a7bdf5427c586245f9375f4d2b7fbedd16c",
        ("random-tree", "j", "json"): "c4c5b6c11fba8e10f117a8efe66dfaaeb705baf1912e5ba9e2fbc78b04492fcc",
        ("random-tree", "j", "dot"): "901b6c55f857dfb47f4e7d105fa416dfe6a35b0b524201960894a4f056106d64",
        ("random-tree", "j0", "json"): "d83dea52770c0465723ef87d54dd47f63d2d754362a067719c56edaa0f4f440f",
        ("k4-chain", "j", "json"): "8d7775db41c6362ef4409c278eef89ad127144028adbbf402426940c401d0019",
        ("k4-chain", "j", "dot"): "cca21a2f8b5476cb8bd4d0e23f10392af95384ece8e1a61160d02d53452b0308",
        ("k4-chain", "j0", "json"): "35290e1274377b16b605b14ed71f7fd8228312fcbe6c4824ae28c68eeb8d2840",
        ("cactus", "j", "json"): "10a9ec4bcc8227cac02de38fff4b6a5b6e3081ad7e1f647026f1d2bc8392ec67",
        ("cactus", "j", "dot"): "cf15c011b6d8e197771d070dc26fc287a61898da924863e859cadae9dbe780b2",
        ("cactus", "j0", "json"): "c1890558bdb220afec13dc704cbb4628a0f57f5b1d19a4e991cf4baa1ccb556b",
        ("cactus", "j0", "dot"): "ccf91e53a7abe1bf6cbe4c020cc47d8664caf6c03fd99c49333ade3c9c514a77",
    }

    @pytest.mark.parametrize("fmt", ["json", "dot"])
    def test_j0_digest(self, capsys, tmp_path, fmt):
        digest = self.digest(capsys, tmp_path, "cactus", "jsj", "--stage=j0", f"--format={fmt}")
        assert digest == self.JSJ_DIGESTS[("cactus", "j0", fmt)]

    @pytest.mark.parametrize(
        "family, stage, fmt", [key for key in JSJ_DIGESTS if key[:2] != ("cactus", "j0")]
    )
    def test_jsj_digest(self, capsys, tmp_path, family, stage, fmt):
        digest = self.digest(capsys, tmp_path, family, "jsj", f"--stage={stage}", f"--format={fmt}")
        assert digest == self.JSJ_DIGESTS[(family, stage, fmt)]

    COVER_DIGESTS = {
        ("cycle", "split"): "397efc0ea03b0ad4aef6936561163886d82eca73a77790c70eb64884a47fddc0",
        ("cycle", "witness"): "ebf93f92b190b2d6e137d12b826ea1d978f47d9cf9156851f99ae7893c3957c6",
        ("grid", "split"): "44417383dd4e5f217d3582ea02718f690aba5fa30d8b95ec59d42fb63ee8cb4d",
        ("grid", "witness"): "3fdde5c8217aaab9a0cb7e4caa6d809d76809e4631fd934451f4fc58b3e83eca",
        ("ear", "split"): "b33864f3916e05844aee29c589c5fb823b6f244a690b794b6b38108a638b8f7b",
        ("ear", "witness"): "42671a9a7ec9ffda3812e6ae64a1715ff78fa469ab10e637656ef69b594a2d87",
    }

    AMALGAM_DIGESTS = {
        ("path", "split"): "d2c5e62ae480477c334f265f22eceb54cb013dd959651270ac31847eff9a8919",
        ("path", "witness"): "f25884d3683d17f6d599fc55b39b58966c32f57d81d53d2dc16e4b08c9a8f941",
        ("random-tree", "split"): "c9de8090235ed60786f870f68b89fc43c6f3d6b8437f58d865059b07151724dd",
        ("random-tree", "witness"): "a69dce842f62b705fa23f8ad04564cb1e38bdde605bde49f6fc922db563918f3",
        ("k4-chain", "split"): "7b63b5e540251c3f632ace76c4661641a5bce61119b3903fd66ae574addae9c0",
        ("k4-chain", "witness"): "accbc8b57f041d33e241506f2e2d374676e30a3c2459896bfb6c0738699e30c4",
        ("cactus", "split"): "9a04ed165c6cb859d44770b7b6163a42b0fe079aed232b716e53c1b4bb04e2e3",
        ("cactus", "witness"): "223b3d1984f8ba06ecc942408628f5218ccf27787eca792451697e4f54576dc4",
    }

    @pytest.mark.parametrize("family, cmd", sorted(COVER_DIGESTS))
    def test_cover_digest(self, capsys, tmp_path, family, cmd):
        assert self.digest(capsys, tmp_path, family, cmd) == self.COVER_DIGESTS[(family, cmd)]

    @pytest.mark.parametrize("family, cmd", sorted(AMALGAM_DIGESTS))
    def test_amalgam_digest(self, capsys, tmp_path, family, cmd):
        assert self.digest(capsys, tmp_path, family, cmd) == self.AMALGAM_DIGESTS[(family, cmd)]

    # disconnected without cut vertices, on 10^3 vertices: the two amalgam rules that no
    # seeded family reaches, several vertices outside the least component and one alone
    CUT_FREE = {
        "two-cycles": "".join(f"{c}{i} {c}{(i + 1) % 500}\n" for c in "ab" for i in range(500)),
        "cycle-and-vertex": "".join(f"v{i} v{(i + 1) % 1000}\n" for i in range(1000)) + "z\n",
    }
    CUT_FREE_DIGESTS = {
        ("two-cycles", "split"): "5035d03ccf9359511a9803d456037b985fc777d6837b1d4a081d7497bb95f405",
        ("two-cycles", "witness"): "f933476d7237b0354f19c75109f62e845a2177e6d02ee1a6e3c79c9515ee9250",
        ("cycle-and-vertex", "split"): "24bca4e1ffb70d3fd3f47de2e236b2009a9181e8d0a3e139562dbb81fa83027e",
        ("cycle-and-vertex", "witness"): "97cc9624ce65e20b5e9b4f85bfe77956860766fea135541ffb9aed158a6ea108",
    }

    @pytest.mark.parametrize("family, cmd", sorted(CUT_FREE_DIGESTS))
    def test_cut_free_amalgam_digest(self, capsys, tmp_path, family, cmd):
        path = tmp_path / f"{family}.txt"
        path.write_text(self.CUT_FREE[family])
        assert main([cmd, str(path)]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == self.CUT_FREE_DIGESTS[(family, cmd)]

    @staticmethod
    def digest(capsys, tmp_path, family, cmd, *options):
        g = scale_graph(family, 300, 1)
        path = tmp_path / f"{family}.txt"
        path.write_text("".join(f"{u} {v}\n" for u, v in g.edges))
        assert main([cmd, str(path), *options]) == 0
        return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


class TestPayloadRenderer:
    """The split and witness payloads are the bytes ``json.dumps`` writes from the dict forms."""

    @staticmethod
    def assert_same_bytes(report):
        assert "".join(_payload_json(report._asdict())) == json.dumps(report_to_dict(report))
        for verified in (True, False):
            fields = {"z_split": report.z_split, "witness": report.witness, "verified": verified}
            expected = dict(fields, witness=witness_to_dict(report.witness))
            assert "".join(_payload_json(fields)) == json.dumps(expected)

    @given(graphs(min_vertices=3, max_vertices=7, connected=True))
    @settings(max_examples=200)
    def test_small_connected_graphs(self, g):
        self.assert_same_bytes(splits_over_z(g))

    @pytest.mark.parametrize("family", ["cycle", "grid", "ear"])
    def test_covers_at_scale(self, family):
        self.assert_same_bytes(splits_over_z(scale_graph(family, 300, 1)))

    @pytest.mark.parametrize("text", ["a", "a b", "a\nb", STAR, "a b\nc"])
    def test_small_case_and_amalgam_witnesses(self, text):
        self.assert_same_bytes(splits_over_z(parse_graph(text)))

    def test_equal_spans_that_are_separate_objects(self):
        whole = ("a", "b", "c", "d")
        copy = tuple(list(whole))
        assert copy == whole and copy is not whole
        entries = {
            ("b", "c", "d"): (list(whole), ["c", "b", "a", "d"]),
            ("a", "d", "c"): (copy, ("d", "a", "b", "c")),
            ("a", "b", "c"): (whole, ("b", "a", "d", "c")),
            ("b", "a", "d"): (("a", "b", "d"), ()),
            ("a", "c", "d"): (whole, ("c", "d", "a", "b")),
        }
        self.assert_same_bytes(SplitReport(False, "no", NonSplitCover(entries=entries)))

    def test_payload_of_many_chunks(self, monkeypatch, tmp_path):
        # a 600-cycle's cover holds 600 spans and cycles of 600 names each: 6.5 MB of JSON
        path = tmp_path / "cycle.txt"
        path.write_text("".join(f"{u} {v}\n" for u, v in scale_graph("cycle", 600, 1).edges))
        report = splits_over_z(parse_graph(path.read_text()))
        checked = {"z_split": report.z_split, "witness": report.witness, "verified": True}
        writes = record_writes(monkeypatch)
        for cmd, fields in (("split", report._asdict()), ("witness", checked)):
            writes.clear()
            assert main([cmd, str(path)]) == 0
            whole = json.dumps(dict(fields, witness=witness_to_dict(report.witness))) + "\n"
            assert_chunked(writes, whole, max(map(len, _payload_json(fields))))
            assert len(writes) > 50

    def test_unknown_witness_rejected_as_by_the_dict_form(self):
        for write in (
            witness_to_dict,
            lambda w: "".join(_payload_json({"z_split": "no", "witness": w})),
        ):
            with pytest.raises(GraphError, match="^unknown witness"):
                write(("a", "b"))


class TestGogRenderer:
    """``raag jsj``'s JSON, joined from its chunks, is the bytes ``json.dumps`` writes from ``gog_to_dict``."""

    @staticmethod
    def assert_same_bytes(gog):
        assert "".join(_gog_json(gog)) == json.dumps(gog_to_dict(gog))

    @given(graphs(min_vertices=3, max_vertices=7, connected=True))
    @settings(max_examples=200)
    def test_small_connected_graphs(self, g):
        j0 = build_j0(g)
        self.assert_same_bytes(j0)
        self.assert_same_bytes(collapse_to_j(j0))

    @pytest.mark.parametrize("family", ["path", "random-tree", "k4-chain", "cactus", "grid"])
    def test_scale_families(self, family):
        j0 = build_j0(scale_graph(family, 300, 1))
        self.assert_same_bytes(j0)
        self.assert_same_bytes(collapse_to_j(j0))

    @pytest.mark.parametrize("name", sorted(hand_built_gogs()))
    def test_hand_built(self, name):
        gog = hand_built_gogs()[name]
        self.assert_same_bytes(gog)
        self.assert_same_bytes(collapse_to_j(gog))

    def test_unknown_group_descriptor(self):
        gog = GraphOfGroups((GoGVertex("w", "white", ("a",)),), (), parse_graph("a"))
        for write in (lambda gog: next(_gog_json(gog)), gog_to_dict):
            with pytest.raises(GraphError, match="^unknown group descriptor"):
                write(gog)

    def test_unknown_group_descriptor_raises_before_the_first_chunk(self):
        # the bad group sits on the last vertex, several chunks into either text
        j = jsj(scale_graph("path", 2000, 1))
        gog = j._replace(vertices=(*j.vertices[:-1], j.vertices[-1]._replace(group=("a",))))
        for write in (_gog_json, _gog_dot):
            with pytest.raises(GraphError, match="^unknown group descriptor"):
                next(write(gog))
        with pytest.raises(GraphError, match="^unknown group descriptor"):
            gog_to_dot(gog)

    @pytest.mark.parametrize("form", ["json", "dot"])
    def test_chunks_of_a_long_path(self, monkeypatch, tmp_path, form):
        # J of a 2,000-vertex path is about 480 KB of JSON and 270 KB of DOT, J0 more, and the path's own DOT 90 KB
        path = tmp_path / "path.txt"
        path.write_text("".join(f"{u} {v}\n" for u, v in scale_graph("path", 2000, 1).edges))
        g = parse_graph(path.read_text())
        j, j0 = jsj(g), build_j0(g)
        if form == "json":
            runs = [
                (["jsj"], _gog_json(j), json.dumps(gog_to_dict(j)) + "\n"),
                (["jsj", "--stage=j0"], _gog_json(j0), json.dumps(gog_to_dict(j0)) + "\n"),
            ]
        else:
            lines = [f'  "{v}" [shape=circle];\n' for v in g.vertices] + [f'  "{u}" -- "{v}";\n' for u, v in g.edges]
            runs = [
                (["jsj", "--format=dot"], _gog_dot(j), gog_to_dot(j)),
                (["export-dot"], lines, "graph defining_graph {\n" + "".join(lines) + "}\n"),
            ]
        writes = record_writes(monkeypatch)
        for argv, pieces, whole in runs:
            writes.clear()
            assert main([*argv, str(path)]) == 0
            assert_chunked(writes, whole, max(map(len, pieces)))

    def test_chunks_are_written_as_they_are_read(self):
        # J of a 10^4-vertex path is 2.4 MB of JSON; reading it holds about one chunk at a time
        j = jsj(scale_graph("path", 10**4, 1))
        size = 0
        tracemalloc.start()
        try:
            for chunk in _gog_json(j):
                size += len(chunk)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert size > 2 * 10**6
        assert peak < size / 4


class TestMetamorphic:
    """Line order and the orientation of each edge line change no output but the defining graph's DOT."""

    COMMANDS = [
        ["split"],
        ["witness"],
        ["jsj"],
        ["jsj", "--format=dot"],
        ["jsj", "--stage=j0"],
        ["jsj", "--stage=j0", "--format=dot"],
        ["check"],
    ]

    @pytest.mark.parametrize("family", ["random-tree", "k4-chain", "cactus", "grid"])
    def test_shuffled_and_flipped_lines(self, capsys, tmp_path, family):
        g = scale_graph(family, 300, 1)
        lines = [f"{v} {u}\n" for u, v in g.edges]
        random.Random(family).shuffle(lines)
        plain, moved = tmp_path / "plain.txt", tmp_path / "moved.txt"
        plain.write_text("".join(f"{u} {v}\n" for u, v in g.edges))
        moved.write_text("".join(lines))
        assert parse_graph(plain.read_text()).vertices != parse_graph(moved.read_text()).vertices
        for cmd in self.COMMANDS:
            outputs = []
            for path in (plain, moved):
                code = main([cmd[0], str(path), *cmd[1:]])
                outputs.append((code, capsys.readouterr().out))
            assert outputs[0] == outputs[1], cmd
            assert outputs[0][0] == 0 and outputs[0][1], cmd


# ------------------------------------------------------------------- graph6


def encode_graph6(n, edges):
    """Independent graph6 encoder used as the parser's oracle."""
    bits = []
    for j in range(1, n):
        for i in range(j):
            bits.append(1 if ((i, j) in edges or (j, i) in edges) else 0)
    while len(bits) % 6:
        bits.append(0)
    chars = [chr(n + 63)]
    for k in range(0, len(bits), 6):
        val = 0
        for b in bits[k : k + 6]:
            val = val * 2 + b
        chars.append(chr(val + 63))
    return "".join(chars)


class TestGraph6:
    def test_known_k4(self):
        g = parse_graph6("C~")
        assert len(g.vertices) == 4 and len(g.edges) == 6

    def test_known_k2(self):
        g = parse_graph6("A_")
        assert g.vertices == ("v00", "v01") and g.edges == (("v00", "v01"),)

    def test_known_triangle(self):
        g = parse_graph6("Bw")
        assert len(g.edges) == 3

    def test_header_accepted(self):
        assert parse_graph6(">>graph6<<A_").edges == (("v00", "v01"),)

    def test_empty_graph6(self):
        g = parse_graph6("?")
        assert g.vertices == () and g.edges == ()

    def test_oversize_rejected(self):
        from raagsplit import ParseError

        with pytest.raises(ParseError):
            parse_graph6("~??")

    def test_truncated_rejected(self):
        from raagsplit import ParseError

        with pytest.raises(ParseError):
            parse_graph6("C")

    @pytest.mark.parametrize(
        "line, message",
        [
            (">>graph6<<", "empty graph6 line"),
            ("!", "bad graph6 size byte '!'"),
            ("\x7f", "bad graph6 size byte '\\x7f'"),
        ],
    )
    def test_malformed_line_names_its_flaw(self, line, message):
        from raagsplit import ParseError

        with pytest.raises(ParseError, match=f"^line 4: {re.escape(message)}$"):
            parse_graph6(line, 4)

    @given(graphs(max_vertices=8))
    @settings(max_examples=60)
    def test_round_trip_via_independent_encoder(self, g):
        index = {v: i for i, v in enumerate(sorted(g.vertices))}
        edges = {(index[u], index[v]) for u, v in g.edges}
        line = encode_graph6(len(g.vertices), edges)
        parsed = parse_graph6(line)
        assert len(parsed.vertices) == len(g.vertices)
        back = {(int(u[1:]), int(v[1:])) for u, v in parsed.edges}
        normalized = {(min(a, b), max(a, b)) for a, b in edges}
        assert back == normalized

    def test_parse_error_names_its_line(self, capsys, monkeypatch):
        code, out, err = run(capsys, ["split", "-", "--g6"], stdin="\n\nB!\n", monkeypatch=monkeypatch)
        assert (code, out, err) == (2, "", "error: line 3: bad graph6 character '!'\n")

    def test_two_lines_exit_2(self, capsys, monkeypatch):
        code, out, err = run(capsys, ["split", "-", "--g6"], stdin="Bw\n\nA_\n", monkeypatch=monkeypatch)
        assert (code, out, err) == (2, "", "error: line 1: expected exactly one graph6 line, got 2\n")

    def test_command_level_g6(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys, ["split", "-", "--g6"], stdin="Bw\n", monkeypatch=monkeypatch
        )
        assert code == 0
        assert json.loads(out)["z_split"] == "no"


def parsed(parse, argv):
    """The fields ``parse`` reads from ``argv``, without the handler, or the code it exits with."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            fields = vars(parse(argv))
        except SystemExit as exc:
            return exc.code
    fields.pop("func", None)
    return fields


class TestParser:
    """``parse_args`` reads each command line as the argparse parser it replaced did.

    A valid line gives the same fields, an invalid one exits 2 from both, and
    help exits 0 from both.  The one difference is that no option is abbreviated.
    """

    FROZEN = frozen_build_parser().parse_args

    VALID = [
        "split", "split -", "split g.txt", "split g.txt --g6", "split --g6 g.txt", "split --g6 --g6 -",
        "split -- -x", "split --g6 -- -", "split -3", "split -.5", "split -1.5", "split ''",
        "jsj", "jsj g.txt --stage j0", "jsj --stage=j0 g.txt", "jsj --format dot --stage j0 -",
        "jsj g.txt --format=dot", "jsj --stage j0 --stage j g.txt", "jsj --stage=j0 --stage=j0 --g6",
        "witness g.txt", "witness --g6 -", "check", "check g.txt --g6",
        "census", "census --n 4", "census --n=4", "census --max-n 5", "census --max-n=5", "census s.g6",
        "census -", "census --n -3", "census --n=-3", "census --n 3 --n 4", "census --max-n 6", "census --n ' 7 '",
        "export-dot", "export-dot g.txt", "export-dot --stage j g.txt", "export-dot g.txt --stage=j0",
        "export-dot --stage graph --g6 -",
    ]
    INVALID = [
        "", "nosuch", "-x", "--g6 split", "-- split", "-x split", "-3",
        "split --bogus", "split -x", "split a b", "split --g6=x", "split --g6=", "split --stage j",
        "split --help=x", "split -hx", "jsj - -", "check --stage j",
        "jsj --stage x", "jsj --stage=x", "jsj --stage=", "jsj --format", "jsj --stage", "jsj --stage --format dot",
        "jsj --stage -h", "export-dot --stage dot", "export-dot --format dot",
        "census --n", "census --n x", "census --n=3.5", "census --max-n four", "census a.g6 b.g6",
        "census --n 3 --max-n 4", "census --n 3 s.g6", "census s.g6 --max-n 4", "census --max-n 6 --n 3",
    ]
    HELP = ["-h", "--help", "-x -h", "split -h", "census --help", "split a b -h", "split --bogus -h", "jsj --stage j0 -h"]

    @pytest.mark.parametrize("line", VALID)
    def test_valid_lines_give_the_same_fields(self, line):
        fields = parsed(parse_args, shlex.split(line))
        assert isinstance(fields, dict) and fields == parsed(self.FROZEN, shlex.split(line))

    @pytest.mark.parametrize("line", INVALID)
    def test_invalid_lines_exit_2_with_usage(self, capsys, line):
        assert parsed(self.FROZEN, shlex.split(line)) == 2
        with pytest.raises(SystemExit) as exc:
            parse_args(shlex.split(line))
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert err.startswith("usage: raag") and err.count("\nraag: error: ") == 1 and err.endswith("\n")

    @pytest.mark.parametrize("line", HELP)
    def test_help_exits_0(self, capsys, line):
        assert parsed(self.FROZEN, shlex.split(line)) == 0
        with pytest.raises(SystemExit) as exc:
            parse_args(shlex.split(line))
        out, err = capsys.readouterr()
        assert (exc.value.code, err) == (0, "") and out.startswith("usage: raag")

    def test_help_comes_from_the_table(self, capsys):
        from raagsplit.cli import COMMANDS

        def help_of(*argv):
            with pytest.raises(SystemExit):
                parse_args(list(argv))
            return capsys.readouterr().out

        top = help_of("-h")
        assert top.startswith("usage: raag [-h] {split,jsj,witness,check,census,export-dot} ...\n")
        for name, (_, _, _, line) in COMMANDS.items():
            assert line in top
            assert help_of(name, "--help").startswith(f"usage: raag {name} [-h] [") and line in help_of(name, "-h")
        assert help_of("jsj", "-h").startswith("usage: raag jsj [-h] [--g6] [--stage {j0,j}] [--format {json,dot}] [file]\n")
        assert help_of("census", "-h").startswith("usage: raag census [-h] [--n N | --max-n N | file]\n")

    @pytest.mark.parametrize("line", ["jsj --st j0", "jsj --for=dot", "census --max 4", "split --g", "--he"])
    def test_abbreviations_are_not_read(self, line):
        # argparse read each as a longer option's abbreviation, --he as --help
        assert parsed(self.FROZEN, shlex.split(line)) != parsed(parse_args, shlex.split(line)) == 2

    # "--" appears only in the fixed lines above
    TOKENS = [
        "split", "jsj", "census", "export-dot", "g.txt", "-", "-3", "-.5", "x", "--g6", "--g6=x", "--stage",
        "--stage=j0", "j0", "j", "graph", "--format", "dot", "--format=json", "--n", "--n=4", "--max-n", "5",
        "--bogus", "-x", "-h", "--help", "",
    ]

    @given(st.lists(st.sampled_from(TOKENS), max_size=6))
    @settings(max_examples=400)
    def test_random_lines(self, argv):
        assert parsed(parse_args, argv) == parsed(self.FROZEN, argv)


class TestImportSet:
    """Each command loads only the modules it runs; a new top-level import would undo that."""

    CORE = [
        "raagsplit", "raagsplit.blocks", "raagsplit.cli", "raagsplit.decompositions", "raagsplit.graphs",
    ]
    # the verdict commands write no decomposition and their payload without json, and the
    # decomposition commands no verdict; only witness and check run a checker, so only they
    # load certify
    VERDICT = [
        "raagsplit", "raagsplit.blocks", "raagsplit.cli", "raagsplit.graphs",
        "raagsplit.serialize", "raagsplit.splitting",
    ]

    # the command line is read without argparse, which loads gettext and locale; getopt is its kin
    PARSERS = ["argparse", "getopt", "gettext", "locale"]

    @pytest.mark.parametrize(
        "argv, loaded",
        [
            ("--help", ["raagsplit", "raagsplit.cli"]),
            ("no-such-command", ["raagsplit", "raagsplit.cli"]),
            ("split FILE", VERDICT),
            ("witness FILE", [*VERDICT, "raagsplit.certify"]),
            ("jsj FILE", [*CORE, "raagsplit.serialize"]),
            ("jsj FILE --format=dot", [*CORE, "raagsplit.serialize"]),
            ("export-dot FILE --stage=j", [*CORE, "raagsplit.serialize"]),
            ("check FILE", [*CORE, "raagsplit.certify", "raagsplit.presentations"]),
            # the census counts splittings as connected less biconnected, so builds no witness
            ("census --n 3", [*CORE, "json"]),
            # help and a usage error load none of the library either
            ("split --help", ["raagsplit", "raagsplit.cli"]),
            ("jsj --stage=x FILE", ["raagsplit", "raagsplit.cli"]),
        ],
    )
    def test_modules_loaded(self, tmp_path, argv, loaded):
        graph = tmp_path / "two_triangles.txt"
        graph.write_text(TWO_TRIANGLES)
        code = (
            "import sys; sys.path.insert(0, sys.argv[1])\n"
            "from raagsplit.cli import main\n"
            "try:\n    main(sys.argv[2:])\nexcept SystemExit:\n    pass\n"
            f"print(*sorted(m for m in sys.modules if m in {['json', *self.PARSERS]!r}"
            " or m.partition('.')[0] == 'raagsplit'), file=sys.stderr)"
        )
        args = [str(graph) if arg == "FILE" else arg for arg in argv.split()]
        result = subprocess.run(
            [sys.executable, "-S", "-c", code, str(SRC), *args], capture_output=True, text=True
        )
        reported = result.stderr.splitlines()[-1].split()
        assert not set(self.PARSERS) & set(reported)
        assert reported == sorted(loaded)


class TestDemoScript:
    """The demo prints, before each command's own bytes, a ``$ raag`` line, and exits as ``raag`` does."""

    COMMANDS = [["split"], ["jsj", "--stage", "j0"], ["jsj"], ["check"], ["jsj", "--format", "dot"]]

    @staticmethod
    def run_demo(capsys):
        with pytest.raises(SystemExit) as exc:
            runpy.run_path(str(DEMO), run_name="__main__")
        return exc.value.code, capsys.readouterr().out

    def test_each_section_is_what_raag_writes(self, capsys, tmp_path):
        code, out = self.run_demo(capsys)
        heads = re.findall(r"^\$ raag .*$", out, flags=re.M)
        sections = re.split(r"^\$ raag .*\n", out, flags=re.M)
        expected_heads, expected_sections = [], [""]
        for name, text in runpy.run_path(str(DEMO))["FIXTURES"].items():  # not __main__, so it runs nothing
            graph = tmp_path / f"{name}.txt"
            graph.write_text(text)
            for command in self.COMMANDS:
                expected_heads.append(f"$ raag {' '.join(command)} '{graph.name}'")
                status, section, _ = run(capsys, [*command, str(graph)])
                assert status == 0
                expected_sections.append(section)
        assert code == 0
        assert (heads, sections) == (expected_heads, expected_sections)

    def test_a_failed_check_fails_the_demo(self, capsys, monkeypatch):
        import raagsplit.certify

        monkeypatch.setattr(raagsplit.certify, "is_reduced", lambda gog: False)
        code, out = self.run_demo(capsys)
        assert code == 1 and out.count("reduced fail\n") == 2

import dataclasses
import errno
import io
import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import cambrian.cli
from cambrian.cli import Build, main, quiver_to_dot, quiver_to_json, run_all_checks
from cambrian.laurent import _exchange
from cambrian.mutation import frame_mutate, mutate_columns, mutate_matrix
from cambrian.quivers import QuiverEdge
from cambrian.rootsys import CoxeterElement, cartan_matrix

from conftest import (
    RANK_LE_4,
    cambrian_of,
    ccluster_of,
    coxeter_words,
    dict_document_json,
    exchange_of,
    per_vertex_dot,
    spec_of,
    tautilt_of,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestBuildCommands:
    def test_exchange_a2_json(self, capsys):
        code, out, _ = run(capsys, "exchange", "--type", "A", "--rank", "2", "--coxeter", "2,1")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["vertices"]) == 5
        assert len(doc["edges"]) == 5
        payload = doc["vertices"][0]["payload"]
        assert set(payload) == {"variables", "c_vectors", "g_vectors"}

    def test_deterministic_output(self, capsys):
        args = ("cclusters", "--type", "B", "--rank", "2", "--coxeter", "2,1")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_cambrian_a1_dot(self, capsys):
        code, out, _ = run(
            capsys, "cambrian", "--type", "A", "--rank", "1", "--coxeter", "1", "--format", "dot"
        )
        assert code == 0
        assert out.startswith("digraph cambrian {")
        assert out.count("[label=") == 2
        assert out.count("->") == 1

    def test_tautilt_a3(self, capsys):
        code, out, _ = run(capsys, "tautilt", "--type", "A", "--rank", "3", "--coxeter", "1,2,3")
        assert code == 0
        assert len(json.loads(out)["vertices"]) == 14

    def test_verbose_polynomials(self, capsys):
        _, out, _ = run(
            capsys, "exchange", "--type", "A", "--rank", "2", "--coxeter", "2,1", "--verbose"
        )
        doc = json.loads(out)
        polys = {v["poly"] for vert in doc["vertices"] for v in vert["payload"]["variables"]}
        assert "x1" in polys

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "q.json"
        code, out, _ = run(
            capsys, "exchange", "--type", "A", "--rank", "1", "--coxeter", "1",
            "--output", str(path),
        )
        assert code == 0 and out == ""
        assert len(json.loads(path.read_text())["vertices"]) == 2


def write_json(q, rank, verbose=False):
    buf = io.StringIO()
    quiver_to_json(q, rank, buf, verbose)
    return buf.getvalue()


BUILDERS = {"exchange": exchange_of, "ccluster": ccluster_of, "tautilt": tautilt_of, "cambrian": cambrian_of}
# Every type of rank at most 4 with the Coxeter elements 1..n and n..1 (one for A1).
ORACLE_CASES = [
    (t, n, order) for t, n in RANK_LE_4 for order in sorted({tuple(range(1, n + 1)), tuple(range(n, 0, -1))})
]


class TestWriters:
    @pytest.mark.parametrize("t, n, order", ORACLE_CASES)
    def test_bytes_match_the_dict_document(self, t, n, order):
        for kind, build in BUILDERS.items():
            q = build(t, n, order)
            assert write_json(q, n) == dict_document_json(q, n), kind
            assert quiver_to_dot(q, n) == per_vertex_dot(q, n), kind
        q = exchange_of(t, n, order)
        assert write_json(q, n, verbose=True) == dict_document_json(q, n, verbose=True)

    def test_a1_prints_empty_lists(self):
        text = write_json(tautilt_of("A", 1, (1,)), 1) + write_json(cambrian_of("A", 1, (1,)), 1)
        for key in ("module_part", "projective_part", "word", "blocks"):
            assert f'"{key}": []' in text

    def test_verbose_command_matches_the_dict_document(self, capsys):
        code, out, _ = run(capsys, "exchange", "--type", "G", "--rank", "2", "--coxeter", "1,2", "--verbose")
        assert code == 0
        assert out == dict_document_json(exchange_of("G", 2, (1, 2)), 2, verbose=True)

    def test_writes_in_bounded_batches(self):
        writes = []
        out = io.StringIO()
        out.write = writes.append
        q = cambrian_of("F", 4, (1, 2, 3, 4))
        quiver_to_json(q, 4, out)
        objects = [chunk.count("\n    {") for chunk in writes]
        assert sum(objects) == q.n_vertices + len(q.edges)
        assert max(objects) == cambrian.cli._BATCH
        assert "".join(writes) == dict_document_json(q, 4)


@pytest.mark.slow
@pytest.mark.parametrize("kind", ["tautilt", "cambrian"])
def test_e8_writers_match_the_dict_document(kind):
    q = BUILDERS[kind]("E", 8, tuple(range(1, 9)))
    assert write_json(q, 8) == dict_document_json(q, 8)
    assert quiver_to_dot(q, 8) == per_vertex_dot(q, 8)


class TestVerifyCommands:
    def test_verify_all_a2(self, capsys):
        code, out, _ = run(capsys, "verify-all", "--type", "A", "--rank", "2", "--coxeter", "2,1")
        assert code == 0
        lines = out.strip().splitlines()
        assert all(line.startswith("PASS") for line in lines)
        assert any("arrow-flip" in line and "1 flipped" in line for line in lines)

    def test_verify_flip_a1(self, capsys):
        code, out, _ = run(capsys, "verify-flip", "--type", "A", "--rank", "1", "--coxeter", "1")
        assert code == 0
        assert "0 flipped" in out

    def test_verify_all_g2(self, capsys):
        code, out, _ = run(capsys, "verify-all", "--type", "G", "--rank", "2", "--coxeter", "1,2")
        assert code == 0
        assert "8 vertices" in out

    def test_verify_all_builds_each_quiver_once(self, capsys, monkeypatch):
        calls = {}
        for name in ("build_exchange_quiver", "build_c_cluster_quiver", "build_cambrian_hasse"):
            original = getattr(cambrian.cli, name)

            def counted(*args, name=name, original=original, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return original(*args, **kwargs)

            monkeypatch.setattr(cambrian.cli, name, counted)
        code, _, _ = run(capsys, "verify-all", "--type", "A", "--rank", "3", "--coxeter", "1,2,3")
        assert code == 0
        assert calls == {
            "build_exchange_quiver": 2,
            "build_c_cluster_quiver": 1,
            "build_cambrian_hasse": 1,
        }

    @staticmethod
    def count_exchanges(capsys, monkeypatch, *argv):
        """Exact exchanges (_exchange), frame_mutate, column steps
        (mutate_columns) and B steps (mutate_matrix, which no command
        calls) of one passing verify-all."""
        calls = {"_exchange": 0, "frame_mutate": 0, "mutate_columns": 0, "mutate_matrix": 0}
        for original in (_exchange, frame_mutate, mutate_columns, mutate_matrix):

            def counted(*args, name=original.__name__, original=original, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            for module_name, module in list(sys.modules.items()):
                if module_name.startswith("cambrian") and getattr(module, original.__name__, None) is original:
                    monkeypatch.setattr(module, original.__name__, counted)
        code, _, _ = run(capsys, "verify-all", *argv)
        assert code == 0
        return calls

    def test_verify_all_mutation_count(self, capsys, monkeypatch):
        # A3: n = 3, m = 14 clusters, 15 exchange pairs {x, x'} (the pairs of
        # crossing diagonals of a hexagon, C(6, 4)) and m·n/2 = 21 edges.
        # The two BFS runs share one VariableTable: the plus build makes one
        # exact exchange per pair and the minus build reads all 15 from the
        # table, so _exchange runs 15 times.  Each BFS steps across each
        # edge once, from the end it reaches first, and takes the column
        # step there: 21 per build.  That step gives column k of B and the
        # next frame, so a new cluster's frame costs nothing more and no
        # frame takes a B step: mutate_matrix runs 0 times.  The tau walk
        # advances (m−1)+n = 16 frames by frame_mutate, one column step
        # each, and reads its variables from the plus build.  So
        # mutate_columns runs 2·21 + 16 = 58 times and frame_mutate 16; a
        # step back across an edge or a replay of any witness path from the
        # root would add more.
        calls = self.count_exchanges(capsys, monkeypatch, "--type", "A", "--rank", "3", "--coxeter", "1,2,3")
        assert calls == {"_exchange": 15, "frame_mutate": 16, "mutate_columns": 58, "mutate_matrix": 0}

    def test_verify_all_e6_exact_exchanges(self, capsys, monkeypatch):
        # E6 has m = 833 clusters, m·n/2 = 2,499 edges and 385 exchange
        # pairs: one exact exchange each, all made by the plus build, none
        # by the minus build or the tau walk.  The column steps are one per
        # edge per build and the (m−1)+n = 838 frames of the tau walk:
        # 2·2,499 + 838 = 5,836.  No frame holds B, so no step mutates it:
        # mutate_matrix runs 0 times.
        calls = self.count_exchanges(capsys, monkeypatch, "--type", "E", "--rank", "6", "--coxeter", "1,2,3,4,5,6")
        assert (calls["_exchange"], calls["mutate_columns"], calls["mutate_matrix"]) == (385, 5836, 0)

    @pytest.mark.parametrize("command,per_cluster", [("verify-signs", 2), ("verify-all", 3)])
    def test_check_frame_runs_once_per_stored_frame(self, capsys, monkeypatch, command, per_cluster):
        # A3 has m = 14 clusters.  Each exchange build asserts check_frame on
        # the m frames it stores and the tau walk on its m frames; the sign
        # report asserts nothing again: 2m = 28 under verify-signs and 3m =
        # 42 under verify-all.
        calls = []
        original = cambrian.quivers.check_frame
        monkeypatch.setattr(cambrian.quivers, "check_frame", lambda f: calls.append(f) or original(f))
        code, _, _ = run(capsys, command, "--type", "A", "--rank", "3", "--coxeter", "1,2,3")
        assert code == 0
        assert len(calls) == per_cluster * 14

    def test_build_raises_on_a_bad_stored_frame(self, capsys, monkeypatch):
        # Negate one C-column entry of each column step the BFS takes.
        # check_frame fails on the first frame it keeps, the plus build's
        # mutation at 1, as it is stored, before a later step can trip over
        # it, so the command exits 3 with the duality error naming that
        # frame's witness path and prints no report.
        original = cambrian.quivers.mutate_columns

        def corrupted(frame, k):
            column, new = original(frame, k)
            first, *rest = new.c_vectors
            return column, dataclasses.replace(new, c_vectors=((-first[0],) + first[1:], *rest))

        monkeypatch.setattr(cambrian.quivers, "mutate_columns", corrupted)
        code, out, err = run(capsys, "verify-signs", "--type", "A", "--rank", "3", "--coxeter", "1,2,3")
        assert code == 3 and out == ""
        assert err == "internal error: witness path (1,): C/G duality identity failed\n"

    def test_a_non_cover_edge_in_a_build_is_an_internal_error(self, capsys, monkeypatch):
        # No command reads a quiver from outside: a build whose Hasse quiver
        # has an edge a -> c beside a -> b -> c is a fault in the program,
        # so verify-lattice exits 3 and prints no report.
        original = cambrian.cli.build_c_cluster_quiver

        def with_shortcut(*args, **kwargs):
            q = original(*args, **kwargs)
            e, f = next((e, f) for e in q.edges for f in q.edges if e.dst == f.src)
            return dataclasses.replace(q, edges=q.edges + (QuiverEdge(e.src, f.dst, None, None),))

        monkeypatch.setattr(cambrian.cli, "build_c_cluster_quiver", with_shortcut)
        code, out, err = run(capsys, "verify-lattice", "--type", "A", "--rank", "2", "--coxeter", "1,2")
        assert code == 3 and out == ""
        assert err == "internal error: edge 3->0 is not a cover (via 1)\n"

    def test_tau_c_failure_when_minus_cluster_missing(self, capsys, monkeypatch):
        build = Build(cartan_matrix("A", 3), CoxeterElement((1, 2, 3)), None)
        dropped = build.minus.vertices[-1]
        (plus,) = [p for p in build.plus.vertices if p.key() == dropped.key()]
        build.__dict__["minus"] = dataclasses.replace(build.minus, vertices=build.minus.vertices[:-1])
        monkeypatch.setattr(cambrian.cli, "Build", lambda *args: build)
        code, out, _ = run(capsys, "verify-all", "--type", "A", "--rank", "3", "--coxeter", "1,2,3")
        assert code == 1
        assert out.splitlines()[-1] == (
            "FAIL tau-c-matrix: cluster of A(B^c) missing from A(-B^c)"
            f" [counterexample: witness path {plus.witness_path}]"
        )

    def test_verify_json(self, capsys):
        args = ("verify-all", "--type", "A", "--rank", "2", "--coxeter", "2,1")
        code, text, _ = run(capsys, *args)
        code_json, out, _ = run(capsys, *args, "--format", "json")
        assert code == code_json == 0
        checks = json.loads(out)["checks"]
        assert out == json.dumps({"checks": checks}, indent=2, sort_keys=True) + "\n"
        assert [(c["name"], c["ok"]) for c in checks] == [
            (line.split(":")[0].split(" ", 1)[1], True) for line in text.splitlines()
        ]
        for check in checks:
            assert set(check) == {"name", "ok", "details", "counterexample", "stats"}
        flip = next(c for c in checks if c["name"] == "arrow-flip")
        assert flip["details"] == ["5 edges checked, 1 flipped"]
        assert flip["stats"] == {"flipped_edges": 1, "edges": 5}
        assert flip["counterexample"] is None

    def test_verify_json_keeps_failure_exit_code(self, capsys, monkeypatch):
        failed = cambrian.cli.CheckReport("arrow-flip", False, ("edge sets differ",), "e")
        monkeypatch.setitem(cambrian.cli.VERIFY_COMMANDS, "verify-flip", lambda build: [failed])
        args = ("verify-flip", "--type", "A", "--rank", "1", "--coxeter", "1")
        code, out, _ = run(capsys, *args, "--format", "json")
        assert code == 1
        assert json.loads(out)["checks"] == [
            {"name": "arrow-flip", "ok": False, "details": ["edge sets differ"],
             "counterexample": "e", "stats": {}}
        ]
        code, out, _ = run(capsys, *args)
        assert code == 1
        assert out == "FAIL arrow-flip: edge sets differ [counterexample: e]\n"

    def test_verify_rejects_dot(self, capsys):
        for cmd in ("verify-all", "verify-iso", "verify-lattice", "verify-signs", "verify-flip"):
            code, out, err = run(
                capsys, cmd, "--type", "A", "--rank", "2", "--coxeter", "1,2", "--format", "dot"
            )
            assert code == 2 and out == ""
            assert "--format dot" in err

    def test_verify_iso_and_lattice(self, capsys):
        for cmd in ("verify-iso", "verify-lattice", "verify-signs"):
            code, out, _ = run(capsys, cmd, "--type", "B", "--rank", "2", "--coxeter", "1,2")
            assert code == 0
            assert "FAIL" not in out


class TestErrors:
    def test_bad_type(self, capsys):
        code, _, err = run(capsys, "exchange", "--type", "Z", "--rank", "2", "--coxeter", "1,2")
        assert code == 2 and "error" in err

    def test_bad_coxeter(self, capsys):
        code, _, _ = run(capsys, "exchange", "--type", "A", "--rank", "2", "--coxeter", "1,1")
        assert code == 2

    def test_coxeter_length_mismatch(self, capsys):
        code, _, _ = run(capsys, "exchange", "--type", "A", "--rank", "2", "--coxeter", "1")
        assert code == 2

    def test_cap_flag(self, capsys):
        code, _, _ = run(
            capsys, "exchange", "--type", "A", "--rank", "3", "--coxeter", "1,2,3",
            "--vertex-cap", "5",
        )
        assert code == 2

    @pytest.mark.parametrize(
        "command",
        ["exchange", "tautilt", "verify-iso", "verify-lattice", "verify-signs", "verify-flip", "verify-all"],
    )
    def test_cap_flag_every_exchange_command(self, capsys, command):
        # A3 has 14 clusters, so a cap of 5 must stop every exchange BFS.
        code, out, err = run(
            capsys, command, "--type", "A", "--rank", "3", "--coxeter", "1,2,3", "--vertex-cap", "5"
        )
        assert code == 2 and out == ""
        assert "vertex cap exceeded" in err

    @pytest.mark.parametrize("command", ["cclusters", "cambrian"])
    def test_cap_flag_c_cluster_and_cambrian_builds(self, capsys, command):
        # They run no exchange BFS, but A3's 14 c-clusters and 14 sortables
        # exceed a cap of 3; a cap of 14 stops neither.
        args = (command, "--type", "A", "--rank", "3", "--coxeter", "1,2,3", "--vertex-cap")
        code, out, err = run(capsys, *args, "3")
        assert code == 2 and out == ""
        assert err == "error: vertex cap exceeded: not finite type or bad input\n"
        code, out, _ = run(capsys, *args, "14")
        assert code == 0 and len(json.loads(out)["vertices"]) == 14

    def test_cap_below_one(self, capsys):
        # cclusters and cambrian build no exchange quiver but still check the cap.
        for command in ("exchange", "cclusters", "cambrian"):
            args = (command, "--type", "A", "--rank", "2", "--coxeter", "1,2")
            code, out, err = run(capsys, *args, "--vertex-cap", "0")
            assert code == 2 and out == ""
            assert "vertex cap must be at least 1" in err

    @pytest.mark.parametrize("command", ["exchange", "verify-all"])
    def test_unwritable_output(self, capsys, monkeypatch, tmp_path, command):
        # Exit 2 before anything is built, not a traceback after the build.
        def unexpected(*args, **kwargs):
            raise AssertionError("a quiver was built")

        monkeypatch.setattr(cambrian.cli, "build_exchange_quiver", unexpected)
        for path in (tmp_path / "missing" / "x", tmp_path):
            code, out, err = run(
                capsys, command, "--type", "A", "--rank", "2", "--coxeter", "1,2", "--output", str(path)
            )
            assert code == 2 and out == ""
            assert err.startswith(f"error: cannot write {path}: ")

    @pytest.mark.parametrize(
        "command",
        ["cclusters", "cambrian", "tautilt", "verify-iso", "verify-lattice", "verify-signs", "verify-flip", "verify-all"],
    )
    def test_verbose_only_on_exchange(self, capsys, command):
        # Only exchange JSON has polynomials to print, so only exchange takes --verbose.
        code, out, err = run(capsys, command, "--type", "A", "--rank", "2", "--coxeter", "1,2", "--verbose")
        assert code == 2 and out == ""
        assert "unrecognized arguments: --verbose" in err

    def test_verbose_rejects_dot(self, capsys):
        code, out, err = run(
            capsys, "exchange", "--type", "A", "--rank", "2", "--coxeter", "1,2", "--format", "dot", "--verbose"
        )
        assert code == 2 and out == ""
        assert err == "error: --verbose adds polynomials to JSON output, not to --format dot\n"

    @pytest.mark.parametrize("t,n", [("A", 141), ("D", 101)])
    def test_rank_past_the_root_cap(self, capsys, t, n):
        # A141 has 10,011 and D101 10,100 positive roots, past the 10,000 the
        # root saturation allows: exit 2 at once, before anything is built.
        start = time.perf_counter()
        code, out, err = run(capsys, "cclusters", "--type", t, "--rank", str(n),
                             "--coxeter", ",".join(map(str, range(1, n + 1))))
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert err == f"error: invalid finite type ({t}, {n})\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("command", ["cclusters", "verify-all"])
    def test_output_write_error(self, capsys, command):
        # /dev/full opens but refuses every write: exit 2, not a traceback.
        args = (command, "--type", "A", "--rank", "2", "--coxeter", "1,2", "--output", "/dev/full")
        code, out, err = run(capsys, *args)
        assert code == 2 and out == ""
        assert err == f"error: cannot write /dev/full: {os.strerror(errno.ENOSPC)}\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("sink", ["/dev/full", "closed pipe"])
    @pytest.mark.parametrize("command", ["exchange", "verify-all"])
    def test_stdout_write_error(self, command, sink):
        # A stdout that refuses writes exits 2 with one line on stderr: no
        # traceback, and no "Exception ignored" from the interpreter's last
        # flush of stdout.
        argv = [sys.executable, "-m", "cambrian", command, "--type", "A", "--rank", "3", "--coxeter", "1,2,3"]
        if sink == "/dev/full":
            stdout, reason = os.open("/dev/full", os.O_WRONLY), os.strerror(errno.ENOSPC)
        else:
            read, stdout = os.pipe()
            os.close(read)
            reason = os.strerror(errno.EPIPE)
        try:
            proc = subprocess.run(argv, stdout=stdout, stderr=subprocess.PIPE, text=True, env=_cli_env())
        finally:
            os.close(stdout)
        assert (proc.returncode, proc.stderr) == (2, f"error: cannot write stdout: {reason}\n")

    def test_unknown_command(self, capsys):
        code = main(["frobnicate", "--type", "A", "--rank", "2", "--coxeter", "1,2"])
        capsys.readouterr()
        assert code == 2


def _cli_env():
    """The environment of a child interpreter that imports this cambrian."""
    src = str(Path(cambrian.cli.__file__).parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_networkx_is_not_loaded():
    # A command run imports nothing outside the standard library.
    script = (
        "import contextlib, io, sys\n"
        "import cambrian.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cambrian.cli.main(['verify-all', '--type', 'A', '--rank', '3', '--coxeter', '1,2,3'])\n"
        "print(code, 'networkx' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=_cli_env(), check=True)
    assert proc.stdout.split() == ["0", "False"]


@pytest.mark.slow
@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc")
def test_e8_verify_signs_peak_rss():
    # The two E8 exchange builds store 2 × 25,080 frames; a frame holds no
    # B.  The child reads its own high-water RSS (VmHWM) after main
    # returns; its ru_maxrss can carry the high-water RSS of the pytest
    # process, from before the exec that started the child.
    script = (
        "import contextlib, io\n"
        "import cambrian.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cambrian.cli.main(['verify-signs', '--type', 'E', '--rank', '8', '--coxeter', '1,2,3,4,5,6,7,8'])\n"
        "with open('/proc/self/status') as f:\n"
        "    print(code, next(line.split()[1] for line in f if line.startswith('VmHWM:')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=_cli_env(), check=True)
    code, hwm_kb = proc.stdout.split()
    assert code == "0"
    assert int(hwm_kb) / 1024 < 190


@pytest.mark.parametrize("t,n", RANK_LE_4)
def test_coxeter_words_name_each_element_once(t, n):
    # A Coxeter element is the orientation of the Dynkin edges it induces.
    spec = spec_of(t, n)

    def orientation(word):
        at = {s: k for k, s in enumerate(word)}
        return frozenset((i, j) for i in at for j in at if i != j and spec.cartan[i - 1][j - 1] and at[i] < at[j])

    words = coxeter_words(spec)
    every = {orientation(p) for p in itertools.permutations(range(1, n + 1))}
    assert len(words) == len(every) == 2 ** (n - 1)
    assert {orientation(w) for w in words} == every


@pytest.mark.slow
@pytest.mark.parametrize("t,n", [("A", 6), ("B", 5), ("C", 5), ("D", 6), ("F", 4), ("G", 2), ("E", 6), ("E", 7)])
def test_verify_all_on_every_coxeter_element(t, n):
    spec = spec_of(t, n)
    for word in coxeter_words(spec):
        failed = [rep for rep in run_all_checks(Build(spec, CoxeterElement(word), None)) if not rep.ok]
        assert not failed, (word, failed)

import argparse
import contextlib
import errno
import hashlib
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
from cambrian.cli import (
    BUILD_COMMANDS,
    VERIFY_COMMANDS,
    Build,
    build_parser,
    main,
    quiver_to_dot,
    quiver_to_json,
    run_all_checks,
)
from cambrian.laurent import VariableTable, _exchange
from cambrian.mutation import FrameTable, mutate_columns
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


def out_of_print_order(q):
    """The vertices of an exchange quiver whose positions do not hold their
    variables in print order (by terms), which the writers must sort."""
    return [v for v in q.vertices if list(v.variables) != sorted(v.variables, key=lambda x: x.terms)]


class TestWriters:
    @pytest.mark.parametrize("t, n, order", ORACLE_CASES)
    def test_bytes_match_the_dict_document(self, t, n, order):
        for kind, build in BUILDERS.items():
            q = build(t, n, order)
            assert write_json(q, n) == dict_document_json(q, n), kind
            assert quiver_to_dot(q, n) == per_vertex_dot(q, n), kind
        q = exchange_of(t, n, order)
        assert write_json(q, n, verbose=True) == dict_document_json(q, n, verbose=True)
        # A cluster of one variable has one order.
        assert n == 1 or out_of_print_order(q)

    def test_a1_prints_empty_lists(self):
        text = write_json(tautilt_of("A", 1, (1,)), 1) + write_json(cambrian_of("A", 1, (1,)), 1)
        for key in ("module_part", "projective_part", "word", "blocks"):
            assert f'"{key}": []' in text

    def test_verbose_command_matches_the_dict_document(self, capsys):
        code, out, _ = run(capsys, "exchange", "--type", "G", "--rank", "2", "--coxeter", "1,2", "--verbose")
        assert code == 0
        q = exchange_of("G", 2, (1, 2))
        assert out == dict_document_json(q, 2, verbose=True)
        assert out_of_print_order(q)

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
    def count_exchanges(monkeypatch, *argv):
        """Exact divisions (_exchange), product checks
        (VariableTable._exchange_holds), memoised column steps
        (FrameTable.step) and vector column steps (mutate_columns, which no
        command calls) of one passing command."""
        calls = {"_exchange": 0, "_exchange_holds": 0, "step": 0, "mutate_columns": 0}

        def counting(original):
            def counted(*args, **kwargs):
                calls[original.__name__] += 1
                return original(*args, **kwargs)

            return counted

        for original in (_exchange, mutate_columns):
            for module_name, module in list(sys.modules.items()):
                if module_name.startswith("cambrian") and getattr(module, original.__name__, None) is original:
                    monkeypatch.setattr(module, original.__name__, counting(original))
        monkeypatch.setattr(FrameTable, "step", counting(FrameTable.step))
        monkeypatch.setattr(VariableTable, "_exchange_holds", counting(VariableTable._exchange_holds))
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(list(argv)) == 0
        return calls

    def test_verify_all_mutation_count(self, monkeypatch):
        # A3: n = 3, m = 14 clusters, N + n = 9 cluster variables, 15
        # exchange pairs {x, x'} (the pairs of crossing diagonals of a
        # hexagon, C(6, 4)) and m·n/2 = 21 edges.  The two BFS runs share
        # one VariableTable: the plus build computes one exchange per pair
        # and the minus build reads all 15 from the table.  Of the plus
        # build's 15, the 6 that first meet a non-initial variable divide
        # (_exchange); the other 9 meet a g-vector the build already holds
        # and check the product instead (_exchange_holds).  Each BFS steps
        # across each edge once, from the end it reaches first, and takes
        # the column step there: 21 per build.  That step gives column k of
        # B and the next frame, so a new cluster's frame costs nothing more.
        # The tau walk advances (m−1)+n = 16 frames, one column step each,
        # and reads its variables from the plus build.  So FrameTable.step
        # runs 2·21 + 16 = 58 times, and the vector step mutate_columns
        # never; a step back across an edge or a replay of any witness path
        # from the root would add more.
        calls = self.count_exchanges(monkeypatch, "verify-all", "--type", "A", "--rank", "3", "--coxeter", "1,2,3")
        assert calls == {"_exchange": 6, "_exchange_holds": 9, "step": 58, "mutate_columns": 0}

    def test_verify_all_e6_exact_exchanges(self, monkeypatch):
        # E6 has m = 833 clusters, m·n/2 = 2,499 edges, 36 + 6 cluster
        # variables and 385 exchange pairs: one exchange each, all made by
        # the plus build, none by the minus build or the tau walk.  Of
        # those, 36 meet a new variable and divide; 349 meet a known one
        # and check the product.  The column steps are one per edge per
        # build and the (m−1)+n = 838 frames of the tau walk: 2·2,499 + 838
        # = 5,836, all on the FrameTable memos.
        calls = self.count_exchanges(monkeypatch, "verify-all", "--type", "E", "--rank", "6", "--coxeter", "1,2,3,4,5,6")
        assert calls == {"_exchange": 36, "_exchange_holds": 349, "step": 5836, "mutate_columns": 0}

    def test_exchange_e6_divisions_and_product_checks(self, monkeypatch):
        # The exchange command builds the plus quiver alone: the same 36
        # divisions and 349 product checks, in one column step per edge.
        argv = ("exchange", "--type", "E", "--rank", "6", "--coxeter", "1,2,3,4,5,6", "--format", "json")
        calls = self.count_exchanges(monkeypatch, *argv)
        assert calls == {"_exchange": 36, "_exchange_holds": 349, "step": 2499, "mutate_columns": 0}

    @pytest.mark.parametrize("command,per_cluster", [("verify-signs", 2), ("verify-all", 3)])
    def test_check_frame_runs_once_per_stored_frame(self, capsys, monkeypatch, command, per_cluster):
        # A3 has m = 14 clusters.  Each exchange build checks duality on the
        # m frames it stores and the tau walk on its m frames; the sign
        # report asserts nothing again: 2m = 28 under verify-signs and 3m =
        # 42 under verify-all.
        calls = []
        original = FrameTable.check_duality
        monkeypatch.setattr(FrameTable, "check_duality", lambda *args: calls.append(args) or original(*args))
        code, _, _ = run(capsys, command, "--type", "A", "--rank", "3", "--coxeter", "1,2,3")
        assert code == 0
        assert len(calls) == per_cluster * 14

    def test_build_raises_on_a_bad_stored_frame(self, capsys, monkeypatch):
        # Negate one C-column entry of each column step the BFS takes.
        # The duality check fails on the first frame it keeps, the plus
        # build's mutation at 1, as it is stored, before a later step can
        # trip over it, so the command exits 3 with the duality error naming
        # that frame's witness path and prints no report.
        original = FrameTable.step

        def corrupted(self, cids, gids, k0, path):
            column, (first, *rest), new_gids = original(self, cids, gids, k0, path)
            c = self.c_vectors[first]
            bad = self.c_id((-c[0],) + c[1:], self.s[0], path + (k0 + 1,))
            return column, (bad, *rest), new_gids

        monkeypatch.setattr(FrameTable, "step", corrupted)
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
            return q._replace(edges=q.edges + (QuiverEdge(e.src, f.dst, None, None),))

        monkeypatch.setattr(cambrian.cli, "build_c_cluster_quiver", with_shortcut)
        code, out, err = run(capsys, "verify-lattice", "--type", "A", "--rank", "2", "--coxeter", "1,2")
        assert code == 3 and out == ""
        assert err == "internal error: edge 3->0 is not a cover (via 1)\n"

    def test_tau_c_failure_when_minus_cluster_missing(self, capsys, monkeypatch):
        build = Build(cartan_matrix("A", 3), CoxeterElement((1, 2, 3)), None)
        dropped = build.minus.vertices[-1]
        (plus,) = [p for p in build.plus.vertices if p.key() == dropped.key()]
        build.__dict__["minus"] = build.minus._replace(vertices=build.minus.vertices[:-1])
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
        # A3 has 14 clusters, so caps of 5 and 3 stop every command before
        # its exchange BFS, and a cap of 14 stops none.
        args = (command, "--type", "A", "--rank", "3", "--coxeter", "1,2,3", "--vertex-cap")
        for cap in ("5", "3"):
            code, out, err = run(capsys, *args, cap)
            assert code == 2 and out == ""
            assert err == f"error: A3 has 14 clusters, more than the vertex cap {cap}\n"
        code, out, _ = run(capsys, *args, "14")
        assert code == 0
        if command in BUILD_COMMANDS:
            assert len(json.loads(out)["vertices"]) == 14

    @pytest.mark.parametrize("command", ["cclusters", "cambrian"])
    def test_cap_flag_c_cluster_and_cambrian_builds(self, capsys, command):
        # They run no exchange BFS, but A3's 14 c-clusters and 14 sortables
        # exceed a cap of 3; a cap of 14 stops neither.
        args = (command, "--type", "A", "--rank", "3", "--coxeter", "1,2,3", "--vertex-cap")
        code, out, err = run(capsys, *args, "3")
        assert code == 2 and out == ""
        assert err == "error: A3 has 14 clusters, more than the vertex cap 3\n"
        code, out, _ = run(capsys, *args, "14")
        assert code == 0 and len(json.loads(out)["vertices"]) == 14

    def test_cap_below_one(self, capsys):
        # Every type has at least 2 clusters, so a cap below 1 stops every
        # command, cclusters and cambrian included.
        for command in (*BUILD_COMMANDS, *VERIFY_COMMANDS):
            for cap in ("0", "-1"):
                args = (command, "--type", "A", "--rank", "3", "--coxeter", "1,2,3", "--vertex-cap", cap)
                code, out, err = run(capsys, *args)
                assert code == 2 and out == ""
                assert err == f"error: A3 has 14 clusters, more than the vertex cap {cap}\n"

    @pytest.mark.parametrize(
        "command,t,n,count",
        [("cclusters", "A", 13, 2674440), ("verify-all", "B", 40, 107507208733336176461620)],
    )
    def test_type_past_the_vertex_cap(self, capsys, command, t, n, count):
        # More clusters than the default cap of 10^6: exit 2 at once, before
        # anything is built.
        start = time.perf_counter()
        code, out, err = run(capsys, command, "--type", t, "--rank", str(n),
                             "--coxeter", ",".join(map(str, range(1, n + 1))))
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert err == f"error: {t}{n} has {count} clusters, more than the vertex cap 1000000\n"

    def test_cap_leaves_output_untouched(self, capsys, tmp_path):
        # The cap is checked before --output is opened (and truncated).
        path = tmp_path / "out.json"
        path.write_bytes(b"kept\n")
        code, out, err = run(capsys, "exchange", "--type", "A", "--rank", "3", "--coxeter", "1,2,3",
                             "--vertex-cap", "5", "--output", str(path))
        assert code == 2 and out == ""
        assert err == "error: A3 has 14 clusters, more than the vertex cap 5\n"
        assert path.read_bytes() == b"kept\n"

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
        assert err == f"error: --verbose adds polynomials to exchange JSON, not to {command}\n"

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


class TestParser:
    @pytest.mark.parametrize("argv", [["--help"], ["verify-all", "--help"]])
    def test_help(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        usage = out.split("\n\n")[0]
        assert usage.startswith("usage: cambrian ")
        assert all(command in usage for command in (*BUILD_COMMANDS, *VERIFY_COMMANDS))

    @pytest.mark.parametrize(
        "argv",
        [[], ["verify-all", "--rank", "2", "--coxeter", "1,2"], ["verify-all", "--type", "A", "--rank", "x", "--coxeter", "1"]],
    )
    def test_unparsable(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("usage: cambrian ")

    @pytest.mark.parametrize(
        "argv",
        ["verify-all --type B --rank 3 --coxeter 2,3,1", "exchange --type A --rank 3 --coxeter 2,1,3 --format json"],
    )
    def test_options_in_any_order(self, capsys, argv):
        # The recorded argv, then the same options before the command.
        digests = json.loads((Path(__file__).parents[1] / "perfbench" / "digests.json").read_text())
        command, *options = argv.split()
        outs = []
        for args in ([command, *options], [*options, command]):
            code, out, _ = run(capsys, *args)
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]
        assert hashlib.sha256(outs[1].encode()).hexdigest() == digests[argv]

    def test_one_parser_per_call(self, capsys, monkeypatch):
        # The parser is built once per process: two calls of main, the
        # second with a bad option, construct one ArgumentParser.
        made = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            made.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        build_parser.cache_clear()
        code, _, _ = run(capsys, "verify-all", "--type", "A", "--rank", "1", "--coxeter", "1")
        assert code == 0
        code, _, _ = run(capsys, "verify-all", "--type", "A", "--rank", "1", "--coxeter", "1", "--bogus")
        assert code == 2 and len(made) == 1


def _cli_env():
    """The environment of a child interpreter that imports this cambrian."""
    src = str(Path(cambrian.cli.__file__).parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_networkx_is_not_loaded():
    # A command run imports nothing outside the standard library: every
    # top-level module it adds is cambrian or a standard one.  Nor does it
    # import dataclasses (with inspect, ast and dis behind it) or fractions,
    # which would add to the start-up of every process.
    script = (
        "import contextlib, io, sys\n"
        "before = set(sys.modules)\n"
        "import cambrian.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cambrian.cli.main(['verify-all', '--type', 'A', '--rank', '3', '--coxeter', '1,2,3'])\n"
        "    code += cambrian.cli.main(['exchange', '--type', 'A', '--rank', '3', '--coxeter', '1,2,3', '--format', 'json'])\n"
        "print(code, *sorted({m.split('.')[0] for m in set(sys.modules) - before}))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=_cli_env(), check=True)
    code, *added = proc.stdout.split()
    assert code == "0" and "cambrian" in added
    assert [m for m in added if m != "cambrian" and m not in sys.stdlib_module_names] == []
    assert {"dataclasses", "inspect", "fractions"}.isdisjoint(added)


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


def test_recorded_outputs_are_byte_identical():
    # Every argv whose stdout perfbench/digests.json records prints it again,
    # replayed in-process with its exit code.
    digests = json.loads((Path(__file__).parents[1] / "perfbench" / "digests.json").read_text())
    differ = []
    for argv, want in sorted(digests.items()):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv.split())
        if code != 0 or hashlib.sha256(out.getvalue().encode()).hexdigest() != want:
            differ.append((argv, code))
    assert digests and differ == []


# sha256 of the verify-all JSON report, whose bytes perfbench/digests.json does not pin.
VERIFY_JSON_DIGESTS = {
    ("A", "2", "2,1"): "39eea2edd0f3119cdfa263b3c2de5b86459117a6c933eb8a521eb83515527bbb",
    ("B", "3", "2,3,1"): "d2a87ad17b0592a8cba5b1e88c0f87541a9e8d567de0e6934c9dfe82b31c3ac1",
    ("G", "2", "1,2"): "eac36f2fd63164e650f3cec458dbd66ed07cae05ae40fbca005b4e457aab3cd7",
}


@pytest.mark.parametrize("t,n,order", VERIFY_JSON_DIGESTS)
def test_verify_json_report_is_byte_identical(capsys, t, n, order):
    code, out, _ = run(capsys, "verify-all", "--type", t, "--rank", n, "--coxeter", order, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_JSON_DIGESTS[t, n, order]


# sha256 of exchange DOT and --verbose JSON, which perfbench/digests.json does
# not pin either: both writers order each cluster's variables by terms.
EXCHANGE_WRITER_DIGESTS = {
    "exchange --type A --rank 3 --coxeter 2,3,1 --format dot":
        "29a32acd2030598168bd9596adf493fff6cfbaabb72aae8c3279f0956f04bb4e",
    "exchange --type B --rank 4 --coxeter 4,2,1,3 --format dot":
        "07b246852c1c4f22c64d5e79e66c0c4f33e5c0b5ceefd1b5749018a6ca7ca525",
    "exchange --type E --rank 6 --coxeter 1,2,3,4,5,6 --format dot":
        "0223498ffa230409fd57070e91014e60aa458b5a2daf4a3c1e41b3e49c372798",
    "exchange --type D --rank 5 --coxeter 5,1,3,2,4 --format json --verbose":
        "2603f68a0affc5d964bc20f2245cee4169742b9018318590ed06455f37bf23f7",
    "exchange --type F --rank 4 --coxeter 3,4,1,2 --format json --verbose":
        "57f33d0e606744d93376375f72169617460ddd38587e3ede9c4a9bf6f054277f",
}


@pytest.mark.parametrize("argv", EXCHANGE_WRITER_DIGESTS)
def test_exchange_writers_are_byte_identical(capsys, argv):
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == EXCHANGE_WRITER_DIGESTS[argv]


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
def test_verify_all_a9():
    # The classical-scale guard: 16,796 clusters and 75,582 edges in each
    # exchange build, every step on the memos of 2N = 90 c-vectors, which
    # the tau walk shares with the plus build.
    build = Build(spec_of("A", 9), CoxeterElement(tuple(range(1, 10))), None)
    assert [rep.name for rep in run_all_checks(build) if not rep.ok] == []
    assert (build.plus.n_vertices, len(build.plus.edges)) == (16796, 75582)
    assert len(build.plus.steps.c_vectors) == len(build.minus.steps.c_vectors) == 90


@pytest.mark.slow
@pytest.mark.parametrize("t,n", [("A", 6), ("B", 5), ("C", 5), ("D", 6), ("F", 4), ("G", 2), ("E", 6), ("E", 7)])
def test_verify_all_on_every_coxeter_element(t, n):
    spec = spec_of(t, n)
    for word in coxeter_words(spec):
        failed = [rep for rep in run_all_checks(Build(spec, CoxeterElement(word), None)) if not rep.ok]
        assert not failed, (word, failed)

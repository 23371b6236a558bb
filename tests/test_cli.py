import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cambrian.cli
from cambrian.cli import Build, main, run_sign_checks
from cambrian.laurent import frame_mutate, mutate_seed
from cambrian.rootsys import CoxeterElement, cartan_matrix


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

    def test_verify_all_mutation_count(self, capsys, monkeypatch):
        # A3: n = 3, m = 14 clusters, 15 exchange pairs {x, x'} (the pairs of
        # crossing diagonals of a hexagon, C(6, 4)).  Each BFS computes one
        # exact exchange per pair and advances a frame on each of its n·m
        # directed edges; the tau walk advances (m−1)+n frames and reads its
        # variables from the plus build.  So mutate_seed runs 2·15 = 30 times
        # and frame_mutate 2·n·m + (m−1)+n = 84 + 16 = 100 times; a replay of
        # any witness path from the root would add more.
        calls = {"mutate_seed": 0, "frame_mutate": 0}
        for original in (mutate_seed, frame_mutate):

            def counted(*args, name=original.__name__, original=original, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            for module_name, module in list(sys.modules.items()):
                if module_name.startswith("cambrian") and getattr(module, original.__name__, None) is original:
                    monkeypatch.setattr(module, original.__name__, counted)
        code, _, _ = run(capsys, "verify-all", "--type", "A", "--rank", "3", "--coxeter", "1,2,3")
        assert code == 0
        assert calls == {"mutate_seed": 30, "frame_mutate": 100}

    def test_sign_check_failure_names_witness_path(self, capsys, monkeypatch):
        build = Build(cartan_matrix("A", 3), CoxeterElement((1, 2, 3)), None)
        vertices = list(build.plus.vertices)
        bad = vertices[-1]
        assert bad.witness_path
        vertices[-1] = dataclasses.replace(
            bad, c_vectors=tuple(tuple(-x for x in v) for v in bad.c_vectors)
        )
        build.__dict__["plus"] = dataclasses.replace(build.plus, vertices=tuple(vertices))
        reports = run_sign_checks(build)
        assert [(r.name, r.ok) for r in reports] == [("signs plus", False), ("signs minus", True)]
        assert reports[0].details == ("C-set mismatch",)
        assert reports[0].counterexample == f"witness path {bad.witness_path}"
        monkeypatch.setattr(cambrian.cli, "Build", lambda *args: build)
        code, out, _ = run(capsys, "verify-signs", "--type", "A", "--rank", "3", "--coxeter", "1,2,3")
        assert code == 1
        assert out.splitlines()[0] == (
            f"FAIL signs plus: C-set mismatch [counterexample: witness path {bad.witness_path}]"
        )

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

    def test_unknown_command(self, capsys):
        code = main(["frobnicate", "--type", "A", "--rank", "2", "--coxeter", "1,2"])
        capsys.readouterr()
        assert code == 2


def test_networkx_is_not_loaded():
    # A command run imports nothing outside the standard library.
    script = (
        "import contextlib, io, sys\n"
        "import cambrian.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cambrian.cli.main(['verify-all', '--type', 'A', '--rank', '3', '--coxeter', '1,2,3'])\n"
        "print(code, 'networkx' in sys.modules)\n"
    )
    src = str(Path(cambrian.cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.split() == ["0", "False"]

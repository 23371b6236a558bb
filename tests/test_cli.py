import json

import pytest

import cambrian.cli
from cambrian.cli import main


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

    def test_env_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("CAMBRIAN_VERTEX_CAP", "2")
        code, _, err = run(capsys, "exchange", "--type", "A", "--rank", "2", "--coxeter", "1,2")
        assert code == 2
        assert "cap" in err

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

    def test_cap_below_one(self, capsys, monkeypatch):
        args = ("exchange", "--type", "A", "--rank", "2", "--coxeter", "1,2")
        code, _, err = run(capsys, *args, "--vertex-cap", "0")
        assert code == 2
        assert "vertex cap must be at least 1" in err
        monkeypatch.setenv("CAMBRIAN_VERTEX_CAP", "0")
        code, _, err = run(capsys, *args)
        assert code == 2
        assert "vertex cap must be at least 1" in err

    def test_unknown_command(self, capsys):
        code = main(["frobnicate", "--type", "A", "--rank", "2", "--coxeter", "1,2"])
        capsys.readouterr()
        assert code == 2

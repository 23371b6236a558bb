import argparse
import contextlib
import errno
import functools
import gc
import hashlib
import io
import itertools
import json
import operator
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import cambrian.cli
from cambrian.cli import (
    BUILD_COMMANDS,
    DEFAULT_VERTEX_CAP,
    VERIFY_COMMANDS,
    Build,
    build_parser,
    main,
    run_all_checks,
)
from cambrian.errors import InputError, InternalError
from cambrian.laurent import LaurentPolynomial, VariableTable, _divide, denominator_vector, poly_hash
from cambrian.mutation import FrameTable
from cambrian.oracles import mutate_columns
from cambrian.quivers import QuiverEdge, euler_tables, theta_vertex_map
from cambrian.rootsys import CoxeterElement, almost_positive_roots, cartan_matrix, r_degree
from cambrian.writers import _BATCH, quiver_to_dot, quiver_to_json

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


def write_json(q, verbose=False):
    buf = io.StringIO()
    quiver_to_json(q, buf, verbose)
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
            assert write_json(q) == dict_document_json(q), kind
            assert quiver_to_dot(q) == per_vertex_dot(q), kind
        q = exchange_of(t, n, order)
        assert write_json(q, verbose=True) == dict_document_json(q, verbose=True)
        # A cluster of one variable has one order.
        assert n == 1 or out_of_print_order(q)

    def test_a1_prints_empty_lists(self):
        text = write_json(tautilt_of("A", 1, (1,))) + write_json(cambrian_of("A", 1, (1,)))
        for key in ("module_part", "projective_part", "word", "blocks"):
            assert f'"{key}": []' in text

    def test_verbose_command_matches_the_dict_document(self, capsys):
        code, out, _ = run(capsys, "exchange", "--type", "G", "--rank", "2", "--coxeter", "1,2", "--verbose")
        assert code == 0
        q = exchange_of("G", 2, (1, 2))
        assert out == dict_document_json(q, verbose=True)
        assert out_of_print_order(q)

    def test_writes_in_bounded_batches(self):
        writes = []
        out = io.StringIO()
        out.write = writes.append
        q = cambrian_of("F", 4, (1, 2, 3, 4))
        quiver_to_json(q, out)
        objects = [chunk.count("\n    {") for chunk in writes]
        assert sum(objects) == q.n_vertices + len(q.edges)
        assert max(objects) == _BATCH
        assert "".join(writes) == dict_document_json(q)

    def test_an_unknown_quiver_kind_is_an_internal_error(self):
        q = ccluster_of("A", 2, (1, 2))._replace(kind="other")
        for write in (write_json, quiver_to_dot):
            with pytest.raises(InternalError, match="^unknown quiver kind 'other'$"):
                write(q)


@pytest.mark.slow
@pytest.mark.parametrize("kind", ["tautilt", "cambrian"])
def test_e8_writers_match_the_dict_document(kind):
    q = BUILDERS[kind]("E", 8, tuple(range(1, 9)))
    assert write_json(q) == dict_document_json(q)
    assert quiver_to_dot(q) == per_vertex_dot(q)


def printed_arrows(q):
    """Each arrow of q as quiver_to_json prints it, (src, dst, out, in), with
    each label mapped back to the cluster variable or the root it names, once
    the out label is checked to lie in src alone and the in label in dst alone."""
    if q.kind == "exchange":
        members = [v.variables for v in q.vertices]
        variables = {x for xs in members for x in xs}
        named = {f"d=[{','.join(map(str, denominator_vector(x)))}]#{poly_hash(x)}": x for x in variables}.get
    else:
        members, named = list(q.vertices), lambda label: tuple(json.loads(label))
    arrows = []
    for e in json.loads(write_json(q))["edges"]:
        s, d, out, into = e["src"], e["dst"], named(e["out"]), named(e["in"])
        assert out in members[s] and out not in members[d] and into in members[d] and into not in members[s], e
        arrows.append((s, d, out, into))
    return arrows


# Every type of rank at most 4 with c = 1..n and n..1, and E6 on the two words the benchmark runs.
LABEL_CASES = ORACLE_CASES + [("E", 6, (1, 2, 3, 4, 5, 6)), ("E", 6, (2, 5, 1, 6, 3, 4))]


class TestPrintedLabels:
    """The out and in labels that quiver_to_json reads off each arrow's ends
    obey the rule by which the builder oriented the arrow."""

    @pytest.mark.parametrize("t, n, order", LABEL_CASES)
    def test_exchange_out_variable_is_green_in_src(self, t, n, order):
        for sign in ("plus", "minus"):
            q = exchange_of(t, n, order, sign)
            for s, _, out, _ in printed_arrows(q):
                v = q.vertices[s]
                assert min(v.c_vectors[v.variables.index(out)]) >= 0, (sign, v.witness_path)

    @pytest.mark.parametrize("t, n, order", LABEL_CASES)
    def test_ccluster_out_root_has_the_larger_r_degree(self, t, n, order):
        spec, c = spec_of(t, n), CoxeterElement(order)
        for _, _, out, into in printed_arrows(ccluster_of(t, n, order)):
            assert r_degree(spec, c, out) > r_degree(spec, c, into), (out, into)

    @pytest.mark.parametrize("t, n, order", LABEL_CASES)
    def test_tautilt_out_root_leaves_the_torsion_class(self, t, n, order):
        # The out root is a positive root of T_src minus T_dst, T a pair's
        # torsion class as the AND of its roots' torsion masks.
        spec, c, q = spec_of(t, n), CoxeterElement(order), tautilt_of(t, n, order)
        torsion, at = euler_tables(spec, c)[0], {r: k for k, r in enumerate(almost_positive_roots(spec))}
        classes = [functools.reduce(operator.and_, (torsion[at[r]] for r in v)) for v in q.vertices]
        for s, d, out, _ in printed_arrows(q):
            assert min(out) >= 0 and (classes[s] & ~classes[d]) >> at[out] - n & 1, (s, d, out)


# Every word of every type of rank at most 3, of D4 and of F4, and the two E6 words the benchmark runs.
EVERY_WORD_CASES = [
    (t, n, order)
    for t, n in (("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3), ("G", 2), ("D", 4), ("F", 4))
    for order in itertools.permutations(range(1, n + 1))
] + [("E", 6, (1, 2, 3, 4, 5, 6)), ("E", 6, (2, 5, 1, 6, 3, 4))]


def _label(member):
    """The printed label of an exchange variable (its d-vector and hash) or of a root."""
    if isinstance(member, LaurentPolynomial):
        return f"d={_label(denominator_vector(member))}#{poly_hash(member)}"
    return f"[{','.join(map(str, member))}]"


def set_difference_labels(q):
    """Each edge of q as a JSON edge object, its labels by the rule of the
    writer that kept one frozenset per vertex: out is the one member of
    members[src] - members[dst] and in the one member of members[dst] -
    members[src], over variables, cluster or the roots themselves."""
    kind = q.kind
    members = [frozenset(v.variables if kind == "exchange" else v.cluster if kind == "cambrian" else v)
               for v in q.vertices]
    edges = []
    for s, d in q.edges:
        (out,), (into,) = members[s] - members[d], members[d] - members[s]
        edges.append({"dst": d, "in": _label(into), "out": _label(out), "src": s})
    return edges


@pytest.mark.parametrize("t, n, order", EVERY_WORD_CASES)
def test_printed_labels_are_the_set_differences_of_the_ends(t, n, order):
    # The mask rule of quiver_to_json against the frozenset rule, on every
    # kind, both exchange signs, and the verbose exchange document.
    quivers = [exchange_of(t, n, order, "plus"), exchange_of(t, n, order, "minus"),
               ccluster_of(t, n, order), tautilt_of(t, n, order), cambrian_of(t, n, order)]
    for q in quivers:
        for verbose in (False, True) if q.kind == "exchange" else (False,):
            assert json.loads(write_json(q, verbose))["edges"] == set_difference_labels(q), (q.kind, verbose)


@pytest.mark.parametrize("t, n, order", [("A", 3, (1, 2, 3)), ("D", 4, (1, 2, 3, 4))])
def test_writing_an_exchange_quiver_hashes_no_polynomial(monkeypatch, t, n, order):
    # Built first, as the build hashes its variables into its table; then
    # every writer runs with LaurentPolynomial.__hash__ raising, and prints
    # the bytes it printed before.
    q = exchange_of(t, n, order)
    before = write_json(q), write_json(q, verbose=True), quiver_to_dot(q)

    def unhashable(self):
        raise AssertionError("a writer hashed a LaurentPolynomial")

    monkeypatch.setattr(LaurentPolynomial, "__hash__", unhashable)
    with pytest.raises(AssertionError):
        hash(q.vertices[0].variables[0])
    assert (write_json(q), write_json(q, verbose=True), quiver_to_dot(q)) == before


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
        """Exact divisions (laurent._divide), product checks (the new
        relations of VariableTable.exchange less its divisions), memoised
        column steps (FrameTable.step) and vector column steps
        (mutate_columns, which no command calls) of one passing command."""
        calls = {"_divide": 0, "relations": 0, "step": 0, "mutate_columns": 0}

        def counting(original):
            def counted(*args, **kwargs):
                calls[original.__name__] += 1
                return original(*args, **kwargs)

            return counted

        table_exchange = VariableTable.exchange

        def exchange(table, *args):
            relations = len(table.relations)
            new_id = table_exchange(table, *args)
            calls["relations"] += len(table.relations) > relations
            return new_id

        for original in (_divide, mutate_columns):
            for module_name, module in list(sys.modules.items()):
                if module_name.startswith("cambrian") and getattr(module, original.__name__, None) is original:
                    monkeypatch.setattr(module, original.__name__, counting(original))
        monkeypatch.setattr(FrameTable, "step", counting(FrameTable.step))
        monkeypatch.setattr(VariableTable, "exchange", exchange)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(list(argv)) == 0
        calls["product_checks"] = calls.pop("relations") - calls["_divide"]
        return calls

    def test_verify_all_mutation_count(self, monkeypatch):
        # A3: n = 3, m = 14 clusters, N + n = 9 cluster variables, 15
        # exchange pairs {x, x'} (the pairs of crossing diagonals of a
        # hexagon, C(6, 4)) and m·n/2 = 21 edges.  The two BFS runs share
        # one VariableTable: the plus build computes one exchange per pair
        # and the minus build reads all 15 from the table.  Of the plus
        # build's 15, the 6 that first meet a non-initial variable divide
        # (_divide); the other 9 meet a g-vector the build already holds
        # and check the product instead.  Each BFS steps
        # across each edge once, from the end it reaches first, and takes
        # the column step there: 21 per build.  That step gives column k of
        # B and the next frame, so a new cluster's frame costs nothing more.
        # The tau walk advances (m−1)+n = 16 frames, one column step each,
        # and reads its variables from the plus build.  So FrameTable.step
        # runs 2·21 + 16 = 58 times, and the vector step mutate_columns
        # never; a step back across an edge or a replay of any witness path
        # from the root would add more.
        calls = self.count_exchanges(monkeypatch, "verify-all", "--type", "A", "--rank", "3", "--coxeter", "1,2,3")
        assert calls == {"_divide": 6, "product_checks": 9, "step": 58, "mutate_columns": 0}

    def test_verify_all_e6_exact_exchanges(self, monkeypatch):
        # E6 has m = 833 clusters, m·n/2 = 2,499 edges, 36 + 6 cluster
        # variables and 385 exchange pairs: one exchange each, all made by
        # the plus build, none by the minus build or the tau walk.  Of
        # those, 36 meet a new variable and divide; 349 meet a known one
        # and check the product.  The column steps are one per edge per
        # build and the (m−1)+n = 838 frames of the tau walk: 2·2,499 + 838
        # = 5,836, all on the FrameTable memos.
        calls = self.count_exchanges(monkeypatch, "verify-all", "--type", "E", "--rank", "6", "--coxeter", "1,2,3,4,5,6")
        assert calls == {"_divide": 36, "product_checks": 349, "step": 5836, "mutate_columns": 0}

    def test_exchange_e6_divisions_and_product_checks(self, monkeypatch):
        # The exchange command builds the plus quiver alone: the same 36
        # divisions and 349 product checks, in one column step per edge.
        argv = ("exchange", "--type", "E", "--rank", "6", "--coxeter", "1,2,3,4,5,6", "--format", "json")
        calls = self.count_exchanges(monkeypatch, *argv)
        assert calls == {"_divide": 36, "product_checks": 349, "step": 2499, "mutate_columns": 0}

    @pytest.mark.parametrize("command,per_cluster", [("verify-signs", 2), ("verify-all", 3)])
    def test_check_frame_runs_once_per_stored_frame(self, capsys, monkeypatch, command, per_cluster):
        # A3 has m = 14 clusters.  Each exchange build checks duality on the
        # m frames it stores and the tau walk on its m frames, per_cluster *
        # m in all; the sign report checks each of the 2m stored frames once
        # more, as its vertex prints it: 4m = 56 under verify-signs and 5m =
        # 70 under verify-all.
        calls = []
        original = FrameTable.check_duality
        monkeypatch.setattr(FrameTable, "check_duality", lambda *args: calls.append(args) or original(*args))
        code, _, _ = run(capsys, command, "--type", "A", "--rank", "3", "--coxeter", "1,2,3")
        assert code == 0
        assert len(calls) == (per_cluster + 2) * 14

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
            return q._replace(edges=q.edges + (QuiverEdge(e.src, f.dst),))

        monkeypatch.setattr(cambrian.cli, "build_c_cluster_quiver", with_shortcut)
        code, out, err = run(capsys, "verify-lattice", "--type", "A", "--rank", "2", "--coxeter", "1,2")
        assert code == 3 and out == ""
        assert err == "internal error: edge 3->0 is not a cover (via 1)\n"

    @pytest.mark.parametrize(
        "builder,attr",
        [("build_exchange_quiver", "plus"), ("build_c_cluster_quiver", "ccluster"),
         ("build_tau_tilting_quiver", "tautilt"), ("build_cambrian_hasse", "cambrian")],
    )
    def test_a_repeated_arrow_in_a_build_fails_every_check(self, capsys, monkeypatch, builder, attr):
        # A quiver with its first arrow drawn twice is no Hasse quiver, and no
        # vertex map is a bijection on its arrows: verify-lattice exits 3
        # naming the arrow, each quiver map from or to it fails, and
        # verify-all never exits 0.
        argv = ("--type", "A", "--rank", "3", "--coxeter", "1,2,3")
        e = getattr(Build(cartan_matrix("A", 3), CoxeterElement((1, 2, 3)), DEFAULT_VERTEX_CAP), attr).edges[0]
        original = getattr(cambrian.cli, builder)

        def repeated(*args):
            q = original(*args)
            return q._replace(edges=q.edges + q.edges[:1])

        monkeypatch.setattr(cambrian.cli, builder, repeated)
        code, out, err = run(capsys, "verify-lattice", *argv)
        assert code == 3 and out == ""
        assert err == f"internal error: edge {e.src}->{e.dst} is repeated\n"
        code, out, _ = run(capsys, "verify-iso", *argv)
        kind = "exchange" if attr == "plus" else attr
        assert code == 1
        assert [line.startswith("FAIL") for line in out.splitlines()] == [
            kind in line.split(":")[0] for line in out.splitlines()
        ]
        assert run(capsys, "verify-all", *argv)[0] != 0

    @pytest.mark.parametrize(
        "replace,message",
        [(lambda cv: (2, 1, 0), "c-vector (2, 1, 0) is not a signed root of A3"),
         (lambda cv: cv[0], "12 c-vectors, 11 distinct, not the 12 signed roots")],
        ids=["off the roots", "a root twice"],
    )
    def test_c_vectors_other_than_the_signed_roots_are_an_internal_error(self, capsys, monkeypatch, replace, message):
        # The c-vectors of an acyclic B are the 2N signed roots (Speyer-
        # Thomas): a build whose steps hold another set is a fault in the
        # program, so exchange exits 3 with a message and writes no quiver.
        original = cambrian.cli.build_exchange_quiver

        def corrupted(*args):
            q = original(*args)
            q.steps.c_vectors[-1] = replace(q.steps.c_vectors)
            return q

        monkeypatch.setattr(cambrian.cli, "build_exchange_quiver", corrupted)
        code, out, err = run(capsys, "exchange", "--type", "A", "--rank", "3", "--coxeter", "1,2,3")
        assert code == 3 and out == ""
        assert err == f"internal error: {message}\n"

    def test_tau_c_failure_when_minus_cluster_missing(self, capsys, monkeypatch):
        build = Build(cartan_matrix("A", 3), CoxeterElement((1, 2, 3)), DEFAULT_VERTEX_CAP)
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

    def test_non_integer_coxeter(self, capsys):
        code, out, err = run(capsys, "cclusters", "--type", "A", "--rank", "2", "--coxeter", "1,x")
        assert (code, out, err) == (2, "", "error: coxeter must be comma-separated integers, got '1,x'\n")

    def test_coxeter_length_mismatch(self, capsys):
        code, _, _ = run(capsys, "exchange", "--type", "A", "--rank", "2", "--coxeter", "1")
        assert code == 2

    @pytest.mark.parametrize("order", [(1, 2), (1, 2, 3, 4)])
    def test_build_refuses_a_coxeter_element_of_another_rank(self, order):
        # The command's own text, raised before the vertex cap is read: a
        # cap of 1 would refuse A3 too.
        with pytest.raises(InputError, match=f"^coxeter word length {len(order)} does not match rank 3$"):
            Build(cartan_matrix("A", 3), CoxeterElement(order), 1)

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
        [("cclusters", "A", 13, 2674440), ("verify-all", "B", 40, 107507208733336176461620),
         ("exchange", "A", 140, 2597771382055171036438595264488592497806939617029730903644099765561619037129981240),
         ("tautilt", "B", 100, 90548514656103281165404177077484163874504589675413336841320),
         ("cambrian", "C", 100, 90548514656103281165404177077484163874504589675413336841320),
         ("verify-all", "D", 100, 67797631576680346199222223037915278478900421415259232107320)],
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


def test_verify_text_run_loads_neither_hashlib_nor_json():
    # hashlib (with OpenSSL behind it) and json load where they are used:
    # in the exchange writers' hash and in JSON reports.  The writers load
    # on a build's first write, and no command loads the oracles.  Modules
    # that site loaded before cambrian was imported do not count.
    script = (
        "import contextlib, io, sys\n"
        "before = set(sys.modules)\n"
        "import cambrian.cli\n"
        "def added():\n"
        "    new = set(sys.modules) - before\n"
        "    return {m.split('.')[0] for m in new} & {'hashlib', 'json'} | new & {'cambrian.writers', 'cambrian.oracles'}\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cambrian.cli.main(['verify-all', '--type', 'D', '--rank', '4', '--coxeter', '1,2,3,4'])\n"
        "    text = added()\n"
        "    code += cambrian.cli.main(['exchange', '--type', 'A', '--rank', '2', '--coxeter', '1,2', '--format', 'json'])\n"
        "    exchange = added()\n"
        "    code += cambrian.cli.main(['verify-all', '--type', 'A', '--rank', '3', '--coxeter', '1,2,3', '--format', 'json'])\n"
        "print(code, sorted(text), sorted(exchange - text), sorted(added() - exchange), sorted({'hashlib'} - before), sep='|')\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=_cli_env(), check=True)
    code, text, exchange, report, absent = proc.stdout.rstrip("\n").split("|")
    assert (code, text, report) == ("0", "[]", "['json']")
    # An exchange JSON run loads the writers, and hashlib if it was not loaded already, and never json.
    assert exchange == ("['cambrian.writers']" if absent == "[]" else "['cambrian.writers', 'hashlib']")


def test_exchange_dot_run_loads_neither_hashlib_nor_json():
    # DOT labels an exchange variable by its d-vector, so it neither hashes
    # the variables nor renders them through the JSON writers' tables; it
    # loads the writers but not the oracles.
    script = (
        "import contextlib, io, sys\n"
        "before = set(sys.modules)\n"
        "import cambrian.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "    code = cambrian.cli.main(['exchange', '--type', 'A', '--rank', '3', '--coxeter', '1,2,3', '--format', 'dot'])\n"
        "new = set(sys.modules) - before\n"
        "added = {m.split('.')[0] for m in new} & {'hashlib', 'json'} | new & {'cambrian.writers', 'cambrian.oracles'}\n"
        "print(code, out.getvalue().count(' -> '), sorted(added), sep='|')\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=_cli_env(), check=True)
    assert proc.stdout == "0|21|['cambrian.writers']\n"


def test_build_json_runs_do_not_load_json():
    # The build JSON writers quote their strings themselves (writers.quiver_to_json),
    # so only a verify JSON report loads json.  The writers load, the oracles
    # do not.
    script = (
        "import contextlib, io, sys\n"
        "before = set(sys.modules)\n"
        "import cambrian.cli\n"
        "common = ['--type', 'A', '--rank', '3', '--coxeter', '1,2,3', '--format', 'json']\n"
        "argvs = [['cambrian'], ['cclusters'], ['tautilt'], ['exchange', '--verbose']]\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "    codes = [cambrian.cli.main(argv + common) for argv in argvs]\n"
        "new = set(sys.modules) - before\n"
        "print(codes, out.getvalue().count('\"edges\"'), 'json' in {m.split('.')[0] for m in new},\n"
        "      sorted(new & {'cambrian.writers', 'cambrian.oracles'}))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=_cli_env(), check=True)
    assert proc.stdout == "[0, 0, 0, 0] 4 False ['cambrian.writers']\n"


# Old module -> (the module its names moved to, the names an old path is
# still read by: tests/test_acceptance.py and perfbench's tracer).  The
# writers and the acceptance-only reference code live where no verify
# command imports them, and each old module forwards exactly these names.
FORWARDED = {
    "cli": ("writers", ("quiver_to_json", "quiver_to_dot")),
    "laurent": ("oracles", ("initial_seed", "mutate_seed", "var_degree")),
    "mutation": ("oracles", ("check_duality", "frame_is_unimodular")),
    "sortables": ("oracles", ("weyl_group_elements", "greedy_sorting_word", "is_decreasing_chain")),
}


def test_old_modules_forward_only_the_names_still_read_through_them():
    # In a fresh interpreter, so that a forwarded read is what loads the new
    # module: importing cli loads the four old modules and neither new one.
    # Every forwarded name read through its old module is the new module's
    # object; no other name of the new module resolves there unless the old
    # module holds it itself; and an unknown name raises the usual
    # AttributeError naming the old module.
    script = (
        "import importlib, json, sys\n"
        "import cambrian.cli\n"
        "forwarded_names, out = json.loads(sys.argv[1]), {}\n"
        "unloaded = 'cambrian.writers' not in sys.modules and 'cambrian.oracles' not in sys.modules\n"
        "for old_name, (new_name, names) in forwarded_names.items():\n"
        "    old = importlib.import_module('cambrian.' + old_name)\n"
        "    values = [getattr(old, name) for name in names]\n"
        "    new = sys.modules['cambrian.' + new_name]\n"
        "    same = all(value is getattr(new, name) for value, name in zip(values, names))\n"
        "    forwarded = sorted(n for n in vars(new) if n not in vars(old) and hasattr(old, n))\n"
        "    try:\n"
        "        getattr(old, 'no_such_name')\n"
        "        error = None\n"
        "    except AttributeError as exc:\n"
        "        error = str(exc)\n"
        "    out[old_name] = [same, forwarded, error]\n"
        "print(json.dumps([unloaded, out]))\n"
    )
    argv = [sys.executable, "-c", script, json.dumps(FORWARDED)]
    proc = subprocess.run(argv, capture_output=True, text=True, env=_cli_env(), check=True)
    assert json.loads(proc.stdout) == [True, {
        old: [True, sorted(names), f"module 'cambrian.{old}' has no attribute 'no_such_name'"]
        for old, (_, names) in FORWARDED.items()
    }]


class TestCollector:
    """main runs with the cyclic collector off: every object a run makes is
    freed by its reference count, so the collector has nothing to find."""

    @pytest.fixture
    def collector_off(self):
        enabled = gc.isenabled()
        gc.disable()
        try:
            yield
        finally:
            if enabled:
                gc.enable()

    A3 = ("--type", "A", "--rank", "3", "--coxeter", "1,2,3")

    @pytest.mark.parametrize(
        "argv",
        [*([command] for command in BUILD_COMMANDS), *([command, "--format", "dot"] for command in BUILD_COMMANDS),
         ["exchange", "--verbose"], *([command] for command in VERIFY_COMMANDS)],
        ids=" ".join,
    )
    def test_a_run_leaves_no_cyclic_garbage(self, capsys, collector_off, argv):
        # The parser, cached and built once per process, is argparse's only
        # cycle: one warm-up call builds it.
        run(capsys, "verify-flip", "--type", "A", "--rank", "1", "--coxeter", "1")
        gc.collect()
        code, out, _ = run(capsys, *argv, *self.A3)
        assert code == 0 and out
        assert gc.collect() == 0

    @pytest.mark.parametrize("command", VERIFY_COMMANDS)
    def test_a_json_report_leaves_only_json_encoder_cycles(self, capsys, collector_off, command):
        # json.dumps(indent=...) encodes through the standard library's
        # mutually recursive closures (json.encoder._make_iterencode), a cycle
        # per call; the run leaves no other.
        run(capsys, "verify-flip", "--type", "A", "--rank", "1", "--coxeter", "1", "--format", "json")
        gc.collect()
        code, _, _ = run(capsys, command, *self.A3, "--format", "json")
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            gc.collect()
            garbage = gc.garbage[:]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        functions = [g for g in garbage if type(g).__name__ in ("function", "method")]
        assert code == 0
        assert {f.__module__ for f in functions} <= {"json.encoder"}
        assert {type(g).__module__ for g in garbage} <= {"builtins", "json.encoder"}

    @pytest.mark.parametrize("enabled", [True, False], ids=["collector on", "collector off"])
    @pytest.mark.parametrize(
        "argv,want",
        [(("cclusters", *A3), 0), (("cclusters", "--type", "A", "--rank", "0", "--coxeter", "1"), 2),
         (("cclusters", "--type", "A", "--rank", "2", "--coxeter", "1,2"), 3)],
        ids=["exit 0", "exit 2", "exit 3"],
    )
    def test_main_restores_the_collector_state(self, capsys, monkeypatch, enabled, argv, want):
        # Off during the run, then as main found it: on exit 0, on exit 2
        # (invalid input) and on exit 3 (an InternalError from a builder).
        seen = []
        build = cambrian.cli.build_c_cluster_quiver

        def builder(spec, c):
            seen.append(gc.isenabled())
            if spec.rank == 2:
                raise InternalError("builder fails")
            return build(spec, c)

        monkeypatch.setattr(cambrian.cli, "build_c_cluster_quiver", builder)
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            code, _, _ = run(capsys, *argv)
            after = gc.isenabled()
        finally:
            (gc.enable if was else gc.disable)()
        assert (code, after) == (want, enabled)
        assert seen == ([] if want == 2 else [False])

    @pytest.mark.parametrize("argv,want", [(("verify-flip", "--type", "A", "--rank", "2", "--coxeter", "1,2"), 0),
                                           (("verify-flip", "--type", "A", "--rank", "0", "--coxeter", "1"), 2)],
                             ids=["exit 0", "exit 2"])
    def test_entry_freezes_the_heap_and_exits_normally(self, capsys, argv, want):
        # The console entry exits with main's code after gc.freeze(), through
        # sys.exit: atexit handlers still run.
        script = (
            "import atexit, gc, sys\n"
            "from cambrian.cli import entry\n"
            "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0, file=sys.stderr))\n"
            f"sys.argv[1:] = {list(argv)!r}\n"
            "entry()\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=_cli_env())
        assert proc.stderr.endswith("frozen True\n")
        assert (proc.returncode, proc.stdout) == (want, run(capsys, *argv)[1])


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


# sha256 of the verify-iso and verify-all JSON reports, put together from the
# vertex maps and checks of one Build, on one word of each type but C.
VERIFY_REPORT_DIGESTS = {
    "verify-iso --type A --rank 3 --coxeter 1,2,3 --format json":
        "9d64b7513e78ef8570093d82cc317feb96869a5f92c9698c3983313ea19ff01a",
    "verify-iso --type B --rank 3 --coxeter 1,2,3 --format json":
        "1c7f1bbd4824d1d744a77c6dcafabbb64be814db4a0e4d4aef47554836fe9379",
    "verify-iso --type D --rank 4 --coxeter 4,2,1,3 --format json":
        "7b81035c1b2b61e7b8909e063d8a6c44427aad212b0b383613d591c94f1eb5b3",
    "verify-iso --type F --rank 4 --coxeter 1,2,3,4 --format json":
        "0ed3b943d1ce692a27e0cd35a13543c0cb248fcb9c8dfaa061ab0651360847f6",
    "verify-iso --type G --rank 2 --coxeter 2,1 --format json":
        "ed6633a9098e940b53bc49020d8c8446b280b61f276595dad0567313ec81ae4c",
    "verify-iso --type E --rank 6 --coxeter 2,5,1,6,3,4 --format json":
        "4efe9c656c71b5d773c21816c9fe84b8481f9bc9a29d0d8c9c5dd7568da11c40",
    "verify-all --type A --rank 3 --coxeter 1,2,3 --format json":
        "4dd682dc23661c1a3760c87f5d1ad9ad9c273baf5cd2e84a4077ad4081322d86",
    "verify-all --type B --rank 3 --coxeter 1,2,3 --format json":
        "d2a87ad17b0592a8cba5b1e88c0f87541a9e8d567de0e6934c9dfe82b31c3ac1",
    "verify-all --type D --rank 4 --coxeter 4,2,1,3 --format json":
        "2ebf80bd02e3d950b20f35d3ab0b0998844fa547af090dab79aa5cad999a6f84",
    "verify-all --type F --rank 4 --coxeter 1,2,3,4 --format json":
        "d12d9ba3f2cabc0f74fa2f4d6c692fadac23e0fffae46237cd292533d62cca4b",
    "verify-all --type G --rank 2 --coxeter 2,1 --format json":
        "eac36f2fd63164e650f3cec458dbd66ed07cae05ae40fbca005b4e457aab3cd7",
    "verify-all --type E --rank 6 --coxeter 2,5,1,6,3,4 --format json":
        "b016d8ba91901b8f77a41b07f7402e04cf7972a5b6b8f9d484b4fc29b278e8a8",
}


@pytest.mark.parametrize("argv", VERIFY_REPORT_DIGESTS)
def test_verify_reports_are_byte_identical(capsys, argv):
    code, out, err = run(capsys, *argv.split())
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_REPORT_DIGESTS[argv]


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


# sha256 of the JSON builds of the non-simply-laced types, which no digest in
# perfbench/digests.json covers: B and C differ only by a transposed Cartan
# entry, and a swap of their type data changes each B and C digest here.
NON_SIMPLY_LACED_DIGESTS = {
    "exchange --type B --rank 3 --coxeter 1,2,3 --format json":
        "e9bef41a18bb63fc1c2699413b14f4aab2237a1a8f171229d31017eae424dfb6",
    "exchange --type C --rank 3 --coxeter 1,2,3 --format json":
        "7bae47096fa52372a96fa1c34c6d3d5a53d875e2fbd6af46aaa13aa5cdb6a4ef",
    "exchange --type B --rank 4 --coxeter 1,2,3,4 --format json":
        "925fb73a71ba32a9cd6f2fab9905d67779c99b5ffdf5a5e59c11b7f0db9f1530",
    "exchange --type C --rank 4 --coxeter 1,2,3,4 --format json":
        "65e31ef863ab48770ca124ab21c8cd2c82ccf636a3a744dcef0c9199322343fd",
    "exchange --type F --rank 4 --coxeter 1,2,3,4 --format json":
        "c898fc949aa2dfe8066f06b3a388806a6ea6a61de562049c73e855c1b9d5f71f",
    "exchange --type G --rank 2 --coxeter 1,2 --format json":
        "bf19538324b7b0a6b31cd2eb515451249815fa61a7fde72f4cb8a2ae2ff4887c",
    "cclusters --type B --rank 3 --coxeter 1,2,3 --format json":
        "cbf2698202156406444713e16da18b18af4e6e5d9cb395a166318c7810263606",
    "cclusters --type C --rank 3 --coxeter 1,2,3 --format json":
        "d01a5a48043afdaef4ed934f8e6994f7f1d292d888eacf28d22fb499f830c877",
    "cclusters --type B --rank 4 --coxeter 1,2,3,4 --format json":
        "30192924a8d192e74acac93b3e397302cacfba709e3612ac54394f38d9baf4d5",
    "cclusters --type C --rank 4 --coxeter 1,2,3,4 --format json":
        "a93be8d8a2fa385cef26b637dc2f3210670f5fad4abbee40906cf229986db88f",
    "cclusters --type F --rank 4 --coxeter 1,2,3,4 --format json":
        "03d5ab54e7e5552982036d2dd692095f0b78838e77fec885e59b4559cd5411ca",
    "cclusters --type G --rank 2 --coxeter 1,2 --format json":
        "e8f2539d2845bec39569dc1f470fe2575b188369e66d7e4e99054a4c883a6f47",
    "tautilt --type B --rank 3 --coxeter 1,2,3 --format json":
        "17bc0ed05aea9b2642f7e3b8500866b7f3b2fed19fa84c155160e663b7e16cd7",
    "tautilt --type C --rank 3 --coxeter 1,2,3 --format json":
        "3dced3db295ed3974565cefeed6fd41434b5c1bc2aee342947086463e617ca65",
    "tautilt --type B --rank 4 --coxeter 1,2,3,4 --format json":
        "2a34b9d5016a0aae846b5552a139de3777f2d1c3737ec96ea92444a11d06fc4b",
    "tautilt --type C --rank 4 --coxeter 1,2,3,4 --format json":
        "739e86c3e7682d749344d9fd36f7184169928701cfec1883e2f10ffe8c2fc9e6",
    "tautilt --type F --rank 4 --coxeter 1,2,3,4 --format json":
        "ef85c6bbc98543f119827fa969aee882c37e5589ff105a83886a39d4e3b72e98",
    "tautilt --type G --rank 2 --coxeter 1,2 --format json":
        "1f1536456c37546f729f04f560bd1a2fbd552131083415b7fa526fc0b301c969",
    "cambrian --type B --rank 3 --coxeter 1,2,3 --format json":
        "d1f7d76dd0ffb8a90a4436bf5a37fd25a78f1913f4de50ab7d92470350e82fe8",
    "cambrian --type C --rank 3 --coxeter 1,2,3 --format json":
        "2e7feae0c0571ec5b2ccc3d69d39a42c00cca889af593d0b0f131acb37dac2b8",
    "cambrian --type B --rank 4 --coxeter 1,2,3,4 --format json":
        "18134ef85647cfc464a3648d5367ab69fb7f4993812e2b49d289429bf9191fa6",
    "cambrian --type C --rank 4 --coxeter 1,2,3,4 --format json":
        "3ccedad50f03b8f99325889a09196f36eaaad049d3f544bc3f9bb69c1d9e3c8d",
    "cambrian --type F --rank 4 --coxeter 1,2,3,4 --format json":
        "9b0f5643797c3916266dce7c3459d62f4c0f3c4630e28975d5259246f8a1198d",
    "cambrian --type G --rank 2 --coxeter 1,2 --format json":
        "62ce6a390422c6e5c96d46ebdf4b8c4773933ff3099c528cb30e29729f1ce865",
}


@pytest.mark.parametrize("argv", NON_SIMPLY_LACED_DIGESTS)
def test_non_simply_laced_builds_are_byte_identical(capsys, argv):
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == NON_SIMPLY_LACED_DIGESTS[argv]


# sha256 of the tau-tilting writers' (M, P) labels beyond the pins above and
# in perfbench/digests.json: DOT on every type, and JSON on A1, whose pairs
# hold an empty M and an empty P, and on a D4 word that is not 1, ..., n.
TAUTILT_WRITER_DIGESTS = {
    "tautilt --type A --rank 1 --coxeter 1 --format dot":
        "67f20df03463c38521aecabe0000d8612de72e0459b62c80033b454887bc8512",
    "tautilt --type A --rank 3 --coxeter 1,2,3 --format dot":
        "d6e710870496cdb07467dd28df6ee6504fe8124a3568238974abb10de6147393",
    "tautilt --type B --rank 3 --coxeter 1,2,3 --format dot":
        "c09ad9b172a5fa0843549e6759372c3f91bce9960058cca57aa34d2c5dd49d80",
    "tautilt --type C --rank 4 --coxeter 1,2,3,4 --format dot":
        "2334b6bdb4e94666c83c195ba86cfa65cf150d78c2b4d3266ccee93c7a7f21d7",
    "tautilt --type D --rank 4 --coxeter 4,2,1,3 --format dot":
        "5c146498214830873d827d0b2ba0de7cd71f47f2326ffddd0e1e4d9b47b2c371",
    "tautilt --type F --rank 4 --coxeter 1,2,3,4 --format dot":
        "35e9458efcbd4cec00c9dcc18f499679c700fb7cea3cf47998b6b6aa9a8a1cab",
    "tautilt --type G --rank 2 --coxeter 1,2 --format dot":
        "c1dcaf21b3ed7a631540b567dc4dc066ad6f6917040e1268ae9c0ab5424a171b",
    "tautilt --type E --rank 6 --coxeter 2,5,1,6,3,4 --format dot":
        "b1bfd83020c1b3a70f72c35357040c35175d05f7cfaabcd02bc581b679f34dbb",
    "tautilt --type A --rank 1 --coxeter 1 --format json":
        "3e6779ab8b07a36bb6f45653dbf181557fb9efd5cfb166d4b2402efce0879c05",
    "tautilt --type D --rank 4 --coxeter 4,2,1,3 --format json":
        "0270493ae49224464037254737709748e61149b4b68716312e17c93f15d8b4c4",
}


@pytest.mark.parametrize("argv", TAUTILT_WRITER_DIGESTS)
def test_tautilt_writers_are_byte_identical(capsys, argv):
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TAUTILT_WRITER_DIGESTS[argv]


def _reversed_arrow(q):
    e = q.edges[0]
    return q._replace(edges=(QuiverEdge(e.dst, e.src), *q.edges[1:]))


def _with_vertex_3(q, **fields):
    v = q.vertices
    return q._replace(vertices=(*v[:3], v[3]._replace(**fields), *v[4:]))


def _orphan_path(q):
    # The first vertex past the initial one takes a path whose prefix (0,) no cluster has.
    v = q.vertices
    k = next(k for k, p in enumerate(v) if p.witness_path)
    return q._replace(vertices=(*v[:k], v[k]._replace(witness_path=(0, 0)), *v[k + 1:]))


PLANTED_DEFECTS = {
    "reversed arrow 0": _reversed_arrow,
    "dropped arrow 0": lambda q: q._replace(edges=q.edges[1:]),
    "swapped vertices 0 and 1": lambda q: q._replace(vertices=(q.vertices[1], q.vertices[0], *q.vertices[2:])),
    "swapped g-vectors 1 and 2 of vertex 3": lambda q: _with_vertex_3(
        q, g_vectors=(q.vertices[3].g_vectors[1], q.vertices[3].g_vectors[0], *q.vertices[3].g_vectors[2:])),
    "negated c-vector 1 of vertex 3": lambda q: _with_vertex_3(
        q, c_vectors=(tuple(-x for x in q.vertices[3].c_vectors[0]), *q.vertices[3].c_vectors[1:])),
    "swapped variables 1 and 2 of vertex 3": lambda q: _with_vertex_3(
        q, variables=(q.vertices[3].variables[1], q.vertices[3].variables[0], *q.vertices[3].variables[2:])),
    "swapped ids 1 and 2 of vertex 3": lambda q: _with_vertex_3(
        q, ids=(q.vertices[3].ids[1], q.vertices[3].ids[0], *q.vertices[3].ids[2:])),
    "bit 0 of the mask of vertex 3 flipped": lambda q: _with_vertex_3(q, mask=q.vertices[3].mask ^ 1),
    "orphan witness path": _orphan_path,
}
THETA, PHI, PSI, CL = ("theta exchange->ccluster anti", "phi tautilt->ccluster iso",
                       "psi tautilt->exchange anti", "cl cambrian->ccluster iso")

# What verify-all makes, on A3 with c = 1,2,3, of one defect planted in one
# quiver of the Build: the set of failing reports, or InternalError.
PLANTED_OUTCOMES = [
    *((attr, "reversed arrow 0", InternalError) for attr in ("plus", "ccluster", "tautilt", "cambrian")),
    ("minus", "reversed arrow 0", {"arrow-flip"}),
    ("plus", "dropped arrow 0", {THETA, PSI, "arrow-flip"}),
    ("minus", "dropped arrow 0", {"arrow-flip"}),
    ("ccluster", "dropped arrow 0", {THETA, PHI, CL, "lattice ccluster"}),
    ("tautilt", "dropped arrow 0", {PHI, PSI, "lattice tautilt"}),
    ("cambrian", "dropped arrow 0", {CL, "lattice cambrian"}),
    ("plus", "swapped vertices 0 and 1", {THETA, PSI, "arrow-flip"}),
    ("minus", "swapped vertices 0 and 1", {"arrow-flip"}),
    ("ccluster", "swapped vertices 0 and 1", {THETA, PHI, CL}),
    ("tautilt", "swapped vertices 0 and 1", {PHI, PSI}),
    ("cambrian", "swapped vertices 0 and 1", {CL}),
    *((attr, "swapped g-vectors 1 and 2 of vertex 3", InternalError) for attr in ("plus", "minus")),
    *((attr, "negated c-vector 1 of vertex 3", InternalError) for attr in ("plus", "minus")),
    *((attr, "swapped variables 1 and 2 of vertex 3", InternalError) for attr in ("plus", "minus")),
    *((attr, "swapped ids 1 and 2 of vertex 3", InternalError) for attr in ("plus", "minus")),
    *((attr, "bit 0 of the mask of vertex 3 flipped", InternalError) for attr in ("plus", "minus")),
    ("plus", "orphan witness path", InternalError),
]


@pytest.mark.parametrize("attr,defect,outcome", PLANTED_OUTCOMES, ids=[f"{a}: {d}" for a, d, _ in PLANTED_OUTCOMES])
def test_verify_all_catches_a_planted_defect(attr, defect, outcome):
    build = Build(cartan_matrix("A", 3), CoxeterElement((1, 2, 3)), DEFAULT_VERTEX_CAP)
    build.__dict__[attr] = PLANTED_DEFECTS[defect](getattr(build, attr))
    if outcome is InternalError:
        with pytest.raises(InternalError):
            run_all_checks(build)
    else:
        assert {rep.name for rep in run_all_checks(build) if not rep.ok} == outcome


@pytest.mark.parametrize("attr", ["plus", "minus"])
@pytest.mark.parametrize("defect", ["swapped g-vectors 1 and 2 of vertex 3", "negated c-vector 1 of vertex 3",
                                    "swapped variables 1 and 2 of vertex 3", "swapped ids 1 and 2 of vertex 3",
                                    "bit 0 of the mask of vertex 3 flipped"])
def test_a_vertex_that_misprints_its_frame_is_an_internal_error(capsys, monkeypatch, attr, defect):
    # verify-all exits 3 with no report, naming the vertex's witness path.
    build = Build(cartan_matrix("A", 3), CoxeterElement((1, 2, 3)), DEFAULT_VERTEX_CAP)
    build.__dict__[attr] = PLANTED_DEFECTS[defect](getattr(build, attr))
    monkeypatch.setattr(cambrian.cli, "Build", lambda *args: build)
    code, out, err = run(capsys, "verify-all", "--type", "A", "--rank", "3", "--coxeter", "1,2,3")
    assert (code, out) == (3, "")
    assert err.startswith(f"internal error: witness path {getattr(build, attr).vertices[3].witness_path}: ")


def test_a_dropped_exchange_vertex_is_an_internal_error(capsys, monkeypatch):
    # Without vertex 0 theta stays injective, but no exchange vertex maps to
    # the c-cluster vertex 0 held: psi finds no preimage for it and exits 3.
    build = Build(cartan_matrix("A", 3), CoxeterElement((1, 2, 3)), DEFAULT_VERTEX_CAP)
    q = build.plus
    missing = build.ccluster.vertices[theta_vertex_map(build.spec, build.c, q, build.ccluster)[0]]
    edges = tuple(e._replace(src=e.src - 1, dst=e.dst - 1) for e in q.edges if 0 not in (e.src, e.dst))
    build.__dict__["plus"] = q._replace(vertices=q.vertices[1:], edges=edges)
    monkeypatch.setattr(cambrian.cli, "Build", lambda *args: build)
    code, out, err = run(capsys, "verify-iso", "--type", "A", "--rank", "3", "--coxeter", "1,2,3")
    assert (code, out) == (3, "")
    assert err == f"internal error: c-cluster {missing} has no theta preimage\n"


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
    build = Build(spec_of("A", 9), CoxeterElement(tuple(range(1, 10))), DEFAULT_VERTEX_CAP)
    assert [rep.name for rep in run_all_checks(build) if not rep.ok] == []
    assert (build.plus.n_vertices, len(build.plus.edges)) == (16796, 75582)
    assert len(build.plus.steps.c_vectors) == len(build.minus.steps.c_vectors) == 90


@pytest.mark.slow
@pytest.mark.parametrize("t,n", [("A", 6), ("B", 5), ("C", 5), ("D", 6), ("F", 4), ("G", 2), ("E", 6), ("E", 7)])
def test_verify_all_on_every_coxeter_element(t, n):
    spec = spec_of(t, n)
    for word in coxeter_words(spec):
        failed = [rep for rep in run_all_checks(Build(spec, CoxeterElement(word), DEFAULT_VERTEX_CAP)) if not rep.ok]
        assert not failed, (word, failed)

"""The mask-keyed frame BFS of build_exchange_quiver against the
polynomial-keyed Laurent BFS it replaced, the VariableTable that the builds
of B and -B share, and the checks the BFS makes."""

import dataclasses
import re
from functools import reduce
from operator import or_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cambrian.laurent
import cambrian.quivers
from cambrian.errors import InternalError
from cambrian.lattice import verify_quiver_map
from cambrian.laurent import initial_seed, mutate_seed
from cambrian.mutation import build_bc
from cambrian.quivers import VariableTable, build_exchange_quiver, theta_vertex_map
from cambrian.rootsys import CoxeterElement

from conftest import (
    RANK_LE_4,
    assert_exchange_relations,
    ccluster_of,
    exchange_of,
    polynomial_keyed_exchange_quiver,
    spec_of,
)


def assert_matches_oracle(t, n, c, sign):
    spec = spec_of(t, n)
    q = build_exchange_quiver(spec, c, sign)
    oracle = polynomial_keyed_exchange_quiver(spec, c, sign)
    # Payloads with their labeled seeds (frames and witness paths), and edges.
    assert q.vertices == oracle.vertices
    assert q.edges == oracle.edges


@st.composite
def type_c_and_sign(draw):
    t, n = draw(st.sampled_from(RANK_LE_4))
    c = CoxeterElement(tuple(draw(st.permutations(range(1, n + 1)))))
    return t, n, c, draw(st.sampled_from(("plus", "minus")))


@settings(deadline=None, max_examples=40)
@given(type_c_and_sign())
def test_matches_polynomial_keyed_bfs(case):
    assert_matches_oracle(*case)


@pytest.mark.parametrize(
    "t,n,order,sign",
    [("A", 5, (1, 2, 3, 4, 5), "plus"), ("A", 5, (3, 1, 5, 2, 4), "minus"),
     ("D", 5, (1, 2, 3, 4, 5), "plus"), ("D", 5, (5, 3, 1, 4, 2), "minus")],
)
def test_matches_polynomial_keyed_bfs_rank_5(t, n, order, sign):
    assert_matches_oracle(t, n, CoxeterElement(order), sign)


def test_e6_exchange_theta_anti_iso():
    order = (1, 2, 3, 4, 5, 6)
    spec, c = spec_of("E", 6), CoxeterElement(order)
    exq, ccq = exchange_of("E", 6, order), ccluster_of("E", 6, order)
    assert (exq.n_vertices, len(exq.edges)) == (833, 2499)
    rep = verify_quiver_map(exq, ccq, theta_vertex_map(spec, c, exq, ccq), "anti")
    assert rep.ok, rep.counterexample


def shared_table_builds(t, n, c):
    """The plus and minus exchange quivers built with one VariableTable, the
    minus one checked against a minus build with a fresh table: payloads
    (variables, c- and g-vectors, frames and masks) and edges.  Each mask
    must be the OR of its variables' ids in the shared table.  Returns the
    quivers and the number of exact exchanges (laurent._exchange calls) of
    the shared minus build."""
    spec, table = spec_of(t, n), VariableTable(n)
    plus = build_exchange_quiver(spec, c, "plus", table=table)
    calls = []
    original = cambrian.quivers._exchange

    def counted(pos, neg, divisor):
        calls.append(divisor)
        return original(pos, neg, divisor)

    cambrian.quivers._exchange = counted
    try:
        minus = build_exchange_quiver(spec, c, "minus", table=table)
    finally:
        cambrian.quivers._exchange = original
    fresh = build_exchange_quiver(spec, c, "minus")
    assert minus.vertices == fresh.vertices
    assert minus.edges == fresh.edges
    for q in (plus, minus):
        for p in q.vertices:
            assert p.mask == reduce(or_, (1 << table.ids[x] for x in p.variables))
            assert bin(p.mask).count("1") == n
    return plus, minus, len(calls)


@st.composite
def type_and_c(draw):
    t, n = draw(st.sampled_from(RANK_LE_4))
    return t, n, CoxeterElement(tuple(draw(st.permutations(range(1, n + 1)))))


@settings(deadline=None, max_examples=30)
@given(type_and_c())
def test_shared_table_minus_build_matches_fresh(case):
    _, minus, calls = shared_table_builds(*case)
    assert calls == 0
    assert_exchange_relations(minus)


@pytest.mark.parametrize("order", [(1, 2, 3, 4, 5, 6), (2, 5, 1, 6, 3, 4)])
def test_e6_exchange_relations_multiply_out(order):
    # The minus build reads each of the plus build's 385 exact exchanges
    # from the table and makes none.  The table divides on packed
    # exponents and reuses its quotients; tuple multiplication
    # checks every relation of both quivers, each read from both its ends.
    plus, minus, calls = shared_table_builds("E", 6, CoxeterElement(order))
    assert calls == 0
    assert assert_exchange_relations(plus) == assert_exchange_relations(minus) == 2 * 385


@pytest.mark.slow
def test_e7_exchange_builds():
    plus, minus, calls = shared_table_builds("E", 7, CoxeterElement(tuple(range(1, 8))))
    assert calls == 0
    for q in (plus, minus):
        assert (q.n_vertices, len(q.edges)) == (4160, 14560)
        assert_exchange_relations(q)


@pytest.mark.slow
def test_e8_exchange_build():
    q = build_exchange_quiver(spec_of("E", 8), CoxeterElement(tuple(range(1, 9))))
    assert (q.n_vertices, len(q.edges)) == (25080, 100320)


def _patch_frame_mutate(monkeypatch, corrupt):
    original = cambrian.quivers.frame_mutate

    def patched(frame, k, *columns):
        return corrupt(original(frame, k, *columns))

    for module in (cambrian.quivers, cambrian.laurent):
        monkeypatch.setattr(module, "frame_mutate", patched)


def test_frame_reaching_a_stored_cluster_must_match(monkeypatch):
    # A2 with c = 1,2 is a pentagon: the BFS stores the clusters at paths
    # (1, 2) and (2, 1) as new ones, and the edge between them is the one
    # it steps across to a stored cluster, through the column step alone.
    # The other steps from depth 2 go back along tree edges, which the BFS
    # skips.  Swap two of the C-columns of that step so its (g, c) pairs no
    # longer match the stored ones.
    original = cambrian.quivers.mutate_columns

    def corrupted(frame, k):
        cs, gs = original(frame, k)
        return ((cs[1], cs[0]) + cs[2:], gs) if len(frame.path) == 2 else (cs, gs)

    monkeypatch.setattr(cambrian.quivers, "mutate_columns", corrupted)
    with pytest.raises(InternalError, match="reaches a stored cluster with other columns"):
        build_exchange_quiver(spec_of("A", 2), CoxeterElement((1, 2)))


def test_stored_frames_are_checked(monkeypatch):
    # A G-matrix off by a sign breaks duality on the first stored frame.
    def corrupt(frame):
        return dataclasses.replace(frame, g_vectors=tuple(tuple(-x for x in g) for g in frame.g_vectors))

    _patch_frame_mutate(monkeypatch, corrupt)
    with pytest.raises(InternalError, match="duality"):
        build_exchange_quiver(spec_of("A", 2), CoxeterElement((1, 2)))


def _patch_first_exchange(monkeypatch, wrong_variable):
    """The table's first exact exchange returns wrong_variable(x_k, x_k')."""
    original = cambrian.quivers._exchange
    calls = []

    def patched(pos, neg, divisor):
        out = original(pos, neg, divisor)
        calls.append(out)
        return wrong_variable(divisor, out) if len(calls) == 1 else out

    monkeypatch.setattr(cambrian.quivers, "_exchange", patched)


def test_g_vector_with_two_polynomials(monkeypatch):
    # The first exchange returns 2 x_1'; the exchange at path (1, 2) takes it
    # into a wrong variable, and the right one meets its g-vector at (2, 1).
    def doubled(xk, x):
        return dataclasses.replace(x, terms=tuple((e, 2 * a) for e, a in x.terms))

    _patch_first_exchange(monkeypatch, doubled)
    message = "witness path (2, 1): g-vector (-1, 0, 1) belongs to two cluster variables"
    with pytest.raises(InternalError, match=re.escape(message)):
        build_exchange_quiver(spec_of("A", 3), CoxeterElement((1, 2, 3)))


def test_polynomial_with_two_g_vectors(monkeypatch):
    # The first exchange returns x_k itself, under the g-vector of x_k'.
    _patch_first_exchange(monkeypatch, lambda xk, x: xk)
    message = "witness path (1,): a cluster variable has two g-vectors, (1, 0, 0) and (-1, 1, 0)"
    with pytest.raises(InternalError, match=re.escape(message)):
        build_exchange_quiver(spec_of("A", 3), CoxeterElement((1, 2, 3)))


def test_exchange_key_keeps_b():
    # The initial seeds of A3 for c = 1,2,3 and c = 1,3,2 share x_2 and its
    # neighbours x_1, x_3 with the same |b_i2|, but b_32 has opposite signs:
    # the exchanges give (x_1 + x_3)/x_2 and (x_1 x_3 + 1)/x_2, so the table
    # must not read the second from the memo of the first.
    spec = spec_of("A", 3)
    seeds = [initial_seed(build_bc(spec, CoxeterElement(order))) for order in ((1, 2, 3), (1, 3, 2))]
    columns = [[row[1] for row in s.frame.b.entries] for s in seeds]
    assert columns == [[1, 0, -1], [1, 0, 1]]
    table = VariableTable(3)
    new = [table.exchange((0, 1, 2), column, 1) for column in columns]
    assert new == [3, 4]
    assert [table.polys[i] for i in new] == [mutate_seed(s, 2).vars[1] for s in seeds]


@settings(deadline=None, max_examples=20)
@given(type_c_and_sign(), st.data())
def test_relation_key_is_unchanged_when_b_is_negated(case, data):
    # The sharing rests on this: a seed of A(-B) reached by a mutation path
    # has -B where the seed of A(B) on that path has B, and the same
    # variables, and the exchange x_k x_k' = M+ + M- is symmetric in M+, M-.
    # So after the exchange at column k of B, the one at column k of -B is
    # read from the memo: the same id, and no new relation.
    t, n, c, sign = case
    b = build_bc(spec_of(t, n), c)
    b = b.negated() if sign == "minus" else b
    seeds = [initial_seed(b), initial_seed(b.negated())]
    for k in data.draw(st.lists(st.integers(1, n), max_size=6)):
        seeds = [mutate_seed(seed, k) for seed in seeds]
    assert seeds[0].vars == seeds[1].vars
    ids = tuple(range(n))
    for k in range(1, n + 1):
        columns = [[row[k - 1] for row in seed.frame.b.entries] for seed in seeds]
        assert columns[1] == [-x for x in columns[0]]
        table = VariableTable(n)
        new_id = table.exchange(ids, columns[0], k - 1)
        relations = dict(table.relations)
        assert table.exchange(ids, columns[1], k - 1) == new_id
        assert table.relations == relations

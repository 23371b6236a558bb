import dataclasses
import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cambrian.cli import Build, run_sign_checks
from cambrian.errors import InputError, InternalError
from cambrian.laurent import LaurentPolynomial, initial_seed, mutate_seed
from cambrian.mutation import build_bc
from cambrian.quivers import (
    build_exchange_quiver,
    check_arrow_flip,
    check_tau_c_matrix,
    exchange_vertex_root_cluster,
    shadow_of_cluster,
)
from cambrian.rootsys import CoxeterElement, cartan_matrix, enumerate_c_clusters, is_c_compatible, almost_positive_roots

from conftest import SMALL_MATRIX, ccluster_of, exchange_of, spec_of, tautilt_of

A2 = cartan_matrix("A", 2)
C21 = CoxeterElement((2, 1))


def lp(d):
    return LaurentPolynomial.from_dict(2, d)


X1 = lp({(1, 0): 1})
X2 = lp({(0, 1): 1})
U = lp({(-1, 1): 1, (-1, 0): 1})  # (x2+1)/x1
V = lp({(1, -1): 1, (0, -1): 1})  # (x1+1)/x2
TOP = lp({(0, -1): 1, (-1, 0): 1, (-1, -1): 1})  # (x1+x2+1)/(x1*x2)


class TestExchangeA2:
    def quiver(self):
        return exchange_of("A", 2, (2, 1))

    def test_variable_set(self):
        q = self.quiver()
        variables = {v for p in q.vertices for v in p.variables}
        assert variables == {X1, X2, U, V, TOP}

    def test_golden_c_sets(self):
        q = self.quiver()
        expected = {
            frozenset({X1, X2}): {(1, 0), (0, 1)},
            frozenset({X1, V}): {(1, 1), (0, -1)},
            frozenset({U, X2}): {(-1, 0), (0, 1)},
            frozenset({V, TOP}): {(1, 0), (-1, -1)},
            frozenset({U, TOP}): {(-1, 0), (0, -1)},
        }
        assert len(q.vertices) == 5
        for p in q.vertices:
            assert set(p.c_vectors) == expected[p.key()]

    def test_golden_arrows(self):
        q = self.quiver()
        key = {p.key(): i for i, p in enumerate(q.vertices)}
        expected = {
            (key[frozenset({X1, X2})], key[frozenset({U, X2})]),
            (key[frozenset({X1, X2})], key[frozenset({X1, V})]),
            (key[frozenset({X1, V})], key[frozenset({V, TOP})]),
            (key[frozenset({V, TOP})], key[frozenset({U, TOP})]),
            (key[frozenset({U, X2})], key[frozenset({U, TOP})]),
        }
        assert {(e.src, e.dst) for e in q.edges} == expected

    def test_a1(self):
        q = exchange_of("A", 1, (1,))
        assert q.n_vertices == 2 and len(q.edges) == 1
        e = q.edges[0]
        assert q.vertices[e.src].variables == (LaurentPolynomial.generator(1, 0),)

    def test_a3(self):
        q = exchange_of("A", 3, (1, 2, 3))
        assert q.n_vertices == 14
        indeg = [0] * 14
        outdeg = [0] * 14
        for e in q.edges:
            indeg[e.dst] += 1
            outdeg[e.src] += 1
        sources = [i for i in range(14) if indeg[i] == 0]
        sinks = [i for i in range(14) if outdeg[i] == 0]
        assert len(sources) == 1 and len(sinks) == 1
        gens = {LaurentPolynomial.generator(3, i) for i in range(3)}
        assert set(q.vertices[sources[0]].variables) == gens

    def test_degree_regularity(self):
        # Every vertex meets exactly n edges counting both directions.
        for t, n, order in SMALL_MATRIX:
            q = exchange_of(t, n, order)
            deg = [0] * q.n_vertices
            for e in q.edges:
                deg[e.src] += 1
                deg[e.dst] += 1
            assert all(d == n for d in deg)

    def test_vertex_cap(self):
        with pytest.raises(InputError):
            build_exchange_quiver(A2, C21, vertex_cap=3)

    def test_bad_sign(self):
        with pytest.raises(InputError):
            build_exchange_quiver(A2, C21, sign="negative")


class TestCClusterQuiver:
    def test_a2_golden(self):
        q = ccluster_of("A", 2, (2, 1))
        idx = {q.vertices[i]: i for i in range(q.n_vertices)}
        a1, a2, a12 = (1, 0), (0, 1), (1, 1)
        n1, n2 = (-1, 0), (0, -1)
        def v(*roots):
            return idx[tuple(sorted(roots))]
        expected = {
            (v(a1, a12), v(a2, a12)),
            (v(a1, a12), v(a1, n2)),
            (v(a2, a12), v(n1, a2)),
            (v(a1, n2), v(n1, n2)),
            (v(n1, a2), v(n1, n2)),
        }
        assert {(e.src, e.dst) for e in q.edges} == expected

    def test_a1(self):
        q = ccluster_of("A", 1, (1,))
        assert q.n_vertices == 2
        e = q.edges[0]
        assert q.vertices[e.src] == ((1,),) and q.vertices[e.dst] == ((-1,),)

    def test_set_difference_matches_unique_completion(self):
        # Independent adjacency oracle: complete each n-1 subset over all of
        # Phi_{>=-1} and keep the unique second completion.
        for t, n, order in SMALL_MATRIX:
            spec = spec_of(t, n)
            c = CoxeterElement(order)
            q = ccluster_of(t, n, order)
            clusters = list(q.vertices)
            cluster_set = set(clusters)
            idx = {cl: i for i, cl in enumerate(clusters)}
            oracle_edges = set()
            for cl in clusters:
                for alpha in cl:
                    rest = [r for r in cl if r != alpha]
                    for beta in almost_positive_roots(spec):
                        if beta == alpha:
                            continue
                        cand = tuple(sorted(rest + [beta]))
                        if cand in cluster_set and all(
                            is_c_compatible(spec, c, beta, r) for r in rest
                        ):
                            oracle_edges.add(frozenset((idx[cl], idx[cand])))
            assert {frozenset((e.src, e.dst)) for e in q.edges} == oracle_edges


class TestTauTiltingQuiver:
    def test_a2_shape(self):
        q = tautilt_of("A", 2, (2, 1))
        assert q.n_vertices == 5
        indeg = [0] * 5
        outdeg = [0] * 5
        for e in q.edges:
            indeg[e.dst] += 1
            outdeg[e.src] += 1
        (source,) = [i for i in range(5) if indeg[i] == 0]
        (sink,) = [i for i in range(5) if outdeg[i] == 0]
        top = q.vertices[source]
        bottom = q.vertices[sink]
        assert top.m_size == 2 and top.projective_part == ()
        assert set(top.module_part) == {(1, 0), (1, 1)}
        assert bottom.module_part == () and bottom.projective_part == (1, 2)
        for v in q.vertices:
            assert v.m_size + len(v.projective_part) == 2

    def test_a3_source(self):
        q = tautilt_of("A", 3, (1, 2, 3))
        assert q.n_vertices == 14
        indeg = [0] * 14
        for e in q.edges:
            indeg[e.dst] += 1
        (source,) = [i for i in range(14) if indeg[i] == 0]
        assert q.vertices[source].projective_part == ()

    def test_both_positive_flags(self):
        for t, n, order in [("A", 2, (2, 1)), ("A", 3, (1, 2, 3)), ("B", 2, (1, 2))]:
            q = tautilt_of(t, n, order)
            for e in q.edges:
                expect = min(e.out_label) >= 0 and min(e.in_label) >= 0
                assert e.both_positive == expect

    def test_shadow_of_cluster(self):
        s = shadow_of_cluster(A2, ((1, 1), (0, -1)))
        assert s.module_part == ((1, 1),) and s.projective_part == (2,)


class TestArrowFlip:
    def test_a2_one_red_arrow(self):
        rep = check_arrow_flip(exchange_of("A", 2, (2, 1), "plus"), exchange_of("A", 2, (2, 1), "minus"))
        assert rep.ok
        assert rep.stat("flipped_edges") == 1

    def test_a1(self):
        rep = check_arrow_flip(exchange_of("A", 1, (1,), "plus"), exchange_of("A", 1, (1,), "minus"))
        assert rep.ok and rep.stat("flipped_edges") == 0

    def test_a3_flip_count_is_positive_pairs(self):
        for order in itertools.permutations((1, 2, 3)):
            rep = check_arrow_flip(exchange_of("A", 3, order, "plus"), exchange_of("A", 3, order, "minus"))
            assert rep.ok
            q = tautilt_of("A", 3, order)
            both_pos = sum(1 for e in q.edges if e.both_positive)
            assert rep.stat("flipped_edges") == both_pos


class TestTauCMatrix:
    @pytest.mark.parametrize(
        "t,n,order",
        [("A", 1, (1,)), ("A", 2, (2, 1)), ("B", 2, (1, 2)), ("B", 2, (2, 1))],
    )
    def test_passes(self, t, n, order):
        rep = check_tau_c_matrix(
            spec_of(t, n), CoxeterElement(order), exchange_of(t, n, order, "plus"), exchange_of(t, n, order, "minus")
        )
        assert rep.ok, rep.counterexample

    def test_failure_names_witness_path(self):
        qp, qm = exchange_of("A", 3, (1, 2, 3), "plus"), exchange_of("A", 3, (1, 2, 3), "minus")
        vertices = list(qm.vertices)
        bad = vertices[-1]
        vertices[-1] = dataclasses.replace(
            bad, c_vectors=tuple(tuple(-x for x in v) for v in bad.c_vectors)
        )
        rep = check_tau_c_matrix(
            spec_of("A", 3), CoxeterElement((1, 2, 3)), qp, dataclasses.replace(qm, vertices=tuple(vertices))
        )
        assert not rep.ok
        (plus,) = [p for p in qp.vertices if p.key() == bad.key()]
        assert rep.counterexample.startswith(f"witness path {plus.witness_path}: ")

    def test_swapped_variables_break_theta_intertwining(self):
        # Swap the g-vectors of two variables in every cluster of A(B^c):
        # C-sets are untouched, but the image variables read by g-vector are
        # no longer tau_c^-1 of the originals under theta.
        qp, qm = exchange_of("A", 3, (1, 2, 3), "plus"), exchange_of("A", 3, (1, 2, 3), "minus")
        x, y = qp.vertices[0].g_vectors[:2]
        swap = {x: y, y: x}
        vertices = tuple(
            dataclasses.replace(p, g_vectors=tuple(swap.get(g, g) for g in p.g_vectors)) for p in qp.vertices
        )
        rep = check_tau_c_matrix(spec_of("A", 3), CoxeterElement((1, 2, 3)), dataclasses.replace(qp, vertices=vertices), qm)
        assert not rep.ok
        assert rep.details == ("theta does not intertwine tau_c^-1 with the mutation model",)
        assert rep.counterexample.startswith("witness path (")

    def test_missing_g_vector_names_witness_path(self):
        # Move one non-initial variable to a g-vector no frame reaches: the
        # tau walk still reaches its true g-vector, which is now unknown.
        qp, qm = exchange_of("A", 3, (1, 2, 3), "plus"), exchange_of("A", 3, (1, 2, 3), "minus")
        initials = {LaurentPolynomial.generator(3, i) for i in range(3)}
        x, g_x = next(
            (v, g) for p in qp.vertices for v, g in zip(p.variables, p.g_vectors) if v not in initials
        )
        vertices = tuple(
            dataclasses.replace(p, g_vectors=tuple((9, 9, 9) if v == x else g for v, g in zip(p.variables, p.g_vectors)))
            for p in qp.vertices
        )
        with pytest.raises(InternalError, match=re.escape(f"no cluster variable of A(B^c) has g-vector {g_x}")) as info:
            check_tau_c_matrix(spec_of("A", 3), CoxeterElement((1, 2, 3)), dataclasses.replace(qp, vertices=vertices), qm)
        assert str(info.value).startswith("witness path (")


SMALL_TYPES = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3), ("G", 2)]


@st.composite
def small_type_and_c(draw):
    t, n = draw(st.sampled_from(SMALL_TYPES))
    return t, n, CoxeterElement(tuple(draw(st.permutations(range(1, n + 1)))))


@settings(deadline=None, max_examples=25)
@given(small_type_and_c())
def test_stored_seeds_are_witness_path_replays(case):
    # The old replay is the oracle: each stored frame, with the variables at
    # its G-columns, is the initial seed mutated along its witness path, and
    # the paths are prefix-closed.
    t, n, c = case
    build = Build(spec_of(t, n), c, None)
    for q in (build.plus, build.minus):
        b = build_bc(build.spec, c)
        seed0 = initial_seed(b if q is build.plus else b.negated(), "trivial")
        paths = {p.witness_path for p in q.vertices}
        for payload in q.vertices:
            seed = seed0
            for k in payload.witness_path:
                seed = mutate_seed(seed, k)
            assert payload.frame == seed.frame
            at_g = dict(zip(payload.g_vectors, payload.variables))
            assert tuple(at_g[g] for g in zip(*payload.frame.g_matrix)) == seed.vars
            assert not payload.witness_path or payload.witness_path[:-1] in paths
    assert check_tau_c_matrix(build.spec, c, build.plus, build.minus).ok
    assert all(rep.ok for rep in run_sign_checks(build))


class TestThetaImage:
    def test_vertex_clusters_match_enumeration(self):
        for t, n, order in [("A", 2, (2, 1)), ("B", 2, (2, 1)), ("G", 2, (1, 2))]:
            spec = spec_of(t, n)
            c = CoxeterElement(order)
            q = exchange_of(t, n, order)
            clusters = {exchange_vertex_root_cluster(spec, c, p) for p in q.vertices}
            assert clusters == set(enumerate_c_clusters(spec, c))

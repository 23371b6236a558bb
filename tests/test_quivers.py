import itertools

import pytest

from cambrian.errors import InputError
from cambrian.laurent import LaurentPolynomial
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

    def test_env_cap(self, monkeypatch):
        monkeypatch.setenv("CAMBRIAN_VERTEX_CAP", "2")
        with pytest.raises(InputError):
            build_exchange_quiver(spec_of("A", 2), CoxeterElement((1, 2)))

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


class TestThetaImage:
    def test_vertex_clusters_match_enumeration(self):
        for t, n, order in [("A", 2, (2, 1)), ("B", 2, (2, 1)), ("G", 2, (1, 2))]:
            spec = spec_of(t, n)
            c = CoxeterElement(order)
            q = exchange_of(t, n, order)
            clusters = {exchange_vertex_root_cluster(spec, c, p) for p in q.vertices}
            assert clusters == set(enumerate_c_clusters(spec, c))

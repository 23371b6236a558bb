import itertools
import re
import sys
from functools import reduce
from operator import and_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cambrian.laurent
import cambrian.quivers
from cambrian.cli import DEFAULT_VERTEX_CAP, Build, main, run_sign_checks
from cambrian.errors import InputError, InternalError
from cambrian.lattice import verify_quiver_map
from cambrian.laurent import LaurentPolynomial, initial_seed, mutate_seed, theta
from cambrian.mutation import build_bc
from cambrian.quivers import (
    QuiverEdge,
    build_exchange_quiver,
    build_tau_tilting_quiver,
    check_arrow_flip,
    check_tau_c_matrix,
    euler_tables,
    phi_vertex_map,
    shadow_of_cluster,
    theta_vertex_map,
)
from cambrian.rootsys import (
    CoxeterElement,
    _compatibility_table,
    almost_positive_roots,
    cartan_matrix,
    cluster_count,
    enumerate_c_clusters,
    is_c_compatible,
    positive_roots,
)

from conftest import (
    RANK_LE_4,
    SMALL_MATRIX,
    TEST_MATRIX,
    cambrian_of,
    ccluster_of,
    exchange_of,
    per_position_tau_tilting,
    sortables_of,
    spec_of,
    stored_frame,
    tautilt_of,
)

A2 = cartan_matrix("A", 2)
C21 = CoxeterElement((2, 1))
E6_PANEL = [(1, 2, 3, 4, 5, 6), (2, 5, 1, 6, 3, 4)]


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
        # A2 has 5 clusters: Build refuses a cap of 3 before the BFS runs.
        with pytest.raises(InputError, match="A2 has 5 clusters, more than the vertex cap 3"):
            Build(A2, C21, 3)
        assert Build(A2, C21, 5).plus.n_vertices == 5

    def test_bad_sign(self):
        # No command chooses the sign: a bad one is a fault in the program.
        with pytest.raises(InternalError, match="sign must be 'plus' or 'minus'"):
            build_exchange_quiver(A2, C21, sign="negative")


class TestClusterCount:
    def test_every_quiver_has_cluster_count_vertices(self):
        for t, n, order in TEST_MATRIX:
            count = cluster_count(spec_of(t, n))
            for build in (exchange_of, ccluster_of, tautilt_of, cambrian_of):
                assert build(t, n, order).n_vertices == count, (t, n, order, build.__name__)

    def test_exceptional_counts_and_default_cap_boundary(self):
        assert [cluster_count(spec_of("E", n)) for n in (6, 7, 8)] == [833, 4160, 25080]
        below = {("A", 12): 742900, ("B", 11): 705432, ("C", 11): 705432, ("D", 11): 520676}
        assert {tn: cluster_count(spec_of(*tn)) for tn in below} == below
        assert all(cluster_count(spec_of(*tn)) <= DEFAULT_VERTEX_CAP for tn in below)
        above = (("A", 13), ("B", 12), ("C", 12), ("D", 12))
        assert all(cluster_count(spec_of(*tn)) > DEFAULT_VERTEX_CAP for tn in above)


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
            idx = {cluster: i for i, cluster in enumerate(clusters)}
            oracle_edges = set()
            for cluster in clusters:
                for alpha in cluster:
                    rest = [r for r in cluster if r != alpha]
                    for beta in almost_positive_roots(spec):
                        if beta == alpha:
                            continue
                        cand = tuple(sorted(rest + [beta]))
                        if cand in cluster_set and all(
                            is_c_compatible(spec, c, beta, r) for r in rest
                        ):
                            oracle_edges.add(frozenset((idx[cluster], idx[cand])))
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

    def test_vertex_cap(self):
        spec, c = spec_of("A", 3), CoxeterElement((1, 2, 3))
        assert Build(spec, c, 14).tautilt.n_vertices == 14
        with pytest.raises(InputError, match="A3 has 14 clusters, more than the vertex cap 13"):
            Build(spec, c, 13)

    @pytest.mark.parametrize(
        "corrupt,message",
        [
            # Every root compatible with every other: one set of all 5 roots.
            (lambda t, nb: (t, tuple(31 ^ 1 << a for a in range(5))), "maximal compatible set of size 5 != rank 2"),
            # -alpha_1 and -alpha_2 incompatible: the facets {-alpha_1} and
            # {-alpha_2} each lie in one pair.
            (lambda t, nb: (t, (nb[0] & ~2, nb[1] & ~1) + nb[2:]), "lies in 1 clusters, not 2"),
            # Every torsion class empty: no two neighbours are nested.
            (lambda t, nb: ((0,) * len(t), nb), "are not nested"),
        ],
    )
    def test_invariants_raise(self, monkeypatch, corrupt, message):
        original = cambrian.quivers.euler_tables
        monkeypatch.setattr(cambrian.quivers, "euler_tables", lambda spec, c: corrupt(*original(spec, c)))
        with pytest.raises(InternalError, match=message):
            build_tau_tilting_quiver(A2, C21)

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

    @staticmethod
    def a3():
        return exchange_of("A", 3, (1, 2, 3), "plus"), exchange_of("A", 3, (1, 2, 3), "minus")

    @staticmethod
    def plus_edge(qp, qm, e):
        """The edge of qp between the clusters that the edge e of qm joins."""
        pair = {qm.vertices[e.src].mask, qm.vertices[e.dst].mask}
        return next(f for f in qp.edges if {qp.vertices[f.src].mask, qp.vertices[f.dst].mask} == pair)

    def test_fails_when_vertex_sets_differ(self):
        qp, qm = self.a3()
        rep = check_arrow_flip(qp, qm._replace(vertices=qm.vertices[:-1]))
        assert (rep.ok, rep.details) == (False, ("vertex sets of B^c and -B^c differ",))

    def test_fails_when_edge_sets_differ(self):
        qp, qm = self.a3()
        f = self.plus_edge(qp, qm, qm.edges[0])
        rep = check_arrow_flip(qp, qm._replace(edges=qm.edges[1:]))
        assert (rep.ok, rep.details, rep.counterexample) == (False, ("edge sets differ",), f"edge {f.src} -> {f.dst} of B^c")

    def test_fails_on_an_extra_edge_of_minus(self):
        # Every edge of B^c is in -B^c, but -B^c has one more.
        qp, qm = self.a3()
        rep = check_arrow_flip(qp, qm._replace(edges=qm.edges + (QuiverEdge(0, 13, None, None),)))
        assert (rep.ok, rep.details, rep.counterexample) == (False, ("edge sets differ",), "21 edges of B^c, 22 of -B^c")

    def test_fails_when_the_facet_sets_differ(self):
        # 22 edges each, and every edge of B^c is in -B^c, but B^c repeats a
        # facet where -B^c has one that B^c lacks.
        qp, qm = self.a3()
        rep = check_arrow_flip(qp._replace(edges=qp.edges + qp.edges[:1]),
                               qm._replace(edges=qm.edges + (QuiverEdge(0, 13, None, None),)))
        assert (rep.ok, rep.details, rep.counterexample) == (False, ("edge sets differ",), "22 edges of B^c, 22 of -B^c")

    def test_fails_when_an_edge_breaks_the_flip_rule(self):
        qp, qm = self.a3()
        e, f = qm.edges[0], self.plus_edge(qp, qm, qm.edges[0])
        edges = (QuiverEdge(e.dst, e.src, e.in_label, e.out_label),) + qm.edges[1:]
        rep = check_arrow_flip(qp, qm._replace(edges=edges))
        assert (rep.ok, rep.details, rep.counterexample) == (
            False, ("edge direction contradicts the flip rule",), f"edge {f.src} -> {f.dst} of B^c"
        )

    def test_fails_on_a_negative_c_vector_at_an_initial_variable(self):
        qp, qm = self.a3()
        v, p = next((v, p) for v, p in enumerate(qm.vertices) if p.mask & 0b111)
        j = next(j for j, g in enumerate(p.g_vectors) if sorted(g) == [0, 0, 1])
        bad = tuple(-x for x in p.c_vectors[j])
        tampered = p._replace(c_vectors=p.c_vectors[:j] + (bad,) + p.c_vectors[j + 1:])
        rep = check_arrow_flip(qp, qm._replace(vertices=qm.vertices[:v] + (tampered,) + qm.vertices[v + 1:]))
        where = f"vertex {v} of -B^c, witness path {p.witness_path}: {bad}"
        assert (rep.ok, rep.details, rep.counterexample) == (False, ("initial variable with negative c-vector",), where)

    def test_a3_flip_count_is_positive_pairs(self):
        for order in itertools.permutations((1, 2, 3)):
            rep = check_arrow_flip(exchange_of("A", 3, order, "plus"), exchange_of("A", 3, order, "minus"))
            assert rep.ok
            q = tautilt_of("A", 3, order)
            both_pos = sum(1 for e in q.edges if min(e.out_label) >= 0 and min(e.in_label) >= 0)
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
        vertices[-1] = bad._replace(c_vectors=tuple(tuple(-x for x in v) for v in bad.c_vectors))
        rep = check_tau_c_matrix(
            spec_of("A", 3), CoxeterElement((1, 2, 3)), qp, qm._replace(vertices=tuple(vertices))
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
            p._replace(g_vectors=tuple(swap.get(g, g) for g in p.g_vectors)) for p in qp.vertices
        )
        rep = check_tau_c_matrix(spec_of("A", 3), CoxeterElement((1, 2, 3)), qp._replace(vertices=vertices), qm)
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
            p._replace(g_vectors=tuple((9, 9, 9) if v == x else g for v, g in zip(p.variables, p.g_vectors)))
            for p in qp.vertices
        )
        with pytest.raises(InternalError, match=re.escape(f"no cluster variable of A(B^c) has g-vector {g_x}")) as info:
            check_tau_c_matrix(spec_of("A", 3), CoxeterElement((1, 2, 3)), qp._replace(vertices=vertices), qm)
        assert str(info.value).startswith("witness path (")


SMALL_TYPES = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3), ("G", 2)]


@st.composite
def small_type_and_c(draw):
    t, n = draw(st.sampled_from(SMALL_TYPES))
    return t, n, CoxeterElement(tuple(draw(st.permutations(range(1, n + 1)))))


@settings(deadline=None, max_examples=25)
@given(small_type_and_c())
def test_stored_seeds_are_witness_path_replays(case):
    # The old replay is the oracle: each stored seed, variables and frame in
    # position order, is the initial seed mutated along its witness path,
    # and the paths are prefix-closed.
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
            assert stored_frame(q, payload) == seed.frame
            assert payload.variables == seed.vars
            assert not payload.witness_path or payload.witness_path[:-1] in paths
    assert check_tau_c_matrix(build.spec, c, build.plus, build.minus).ok
    assert all(rep.ok for rep in run_sign_checks(build))


class TestThetaImage:
    def test_vertex_clusters_match_enumeration(self):
        for t, n, order in [("A", 2, (2, 1)), ("B", 2, (2, 1)), ("G", 2, (1, 2))]:
            spec = spec_of(t, n)
            c = CoxeterElement(order)
            q = exchange_of(t, n, order)
            roots = {x: theta(spec, c, x) for p in q.vertices for x in p.variables}
            clusters = {tuple(sorted(roots[x] for x in p.variables)) for p in q.vertices}
            assert clusters == set(enumerate_c_clusters(spec, c))


@st.composite
def type_and_c(draw):
    t, n = draw(st.sampled_from(RANK_LE_4))
    return t, n, tuple(draw(st.permutations(range(1, n + 1))))


def assert_matches_theta_shadow(t, n, order):
    spec, c = spec_of(t, n), CoxeterElement(order)
    exq, ccq = exchange_of(t, n, order), ccluster_of(t, n, order)
    tautilt, theta_map = per_position_tau_tilting(spec, c, exq, ccq)
    q = tautilt_of(t, n, order)
    assert q.vertices == tautilt.vertices
    assert q.edges == tautilt.edges
    assert theta_vertex_map(spec, c, exq, ccq) == theta_map


@settings(deadline=None, max_examples=40)
@given(type_and_c())
def test_theta_table_matches_per_position_theta(case):
    # The Euler-form build against the theta shadow of the exchange quiver.
    assert_matches_theta_shadow(*case)


@pytest.mark.parametrize("order", E6_PANEL)
def test_e6_tau_tilting_matches_theta_shadow(order):
    assert_matches_theta_shadow("E", 6, order)


@pytest.mark.slow
def test_e7_tau_tilting_matches_theta_shadow():
    assert_matches_theta_shadow("E", 7, tuple(range(1, 8)))


def assert_ext_compatibility_is_c_compatibility(t, n, order):
    spec, c = spec_of(t, n), CoxeterElement(order)
    table, (_, nbrs) = _compatibility_table(spec, c), euler_tables(spec, c)
    m = len(table)
    for a in range(m):
        zeros = sum(1 << b for b in range(m) if b != a and table[a][b] == table[b][a] == 0)
        assert nbrs[a] == zeros, almost_positive_roots(spec)[a]


def assert_torsion_classes_are_inversion_sets(t, n, order):
    # T(cl_c(w)) = N(w) for every c-sortable w (Ingalls-Thomas).
    spec, c = spec_of(t, n), CoxeterElement(order)
    (masks, _), index = euler_tables(spec, c), {r: k for k, r in enumerate(almost_positive_roots(spec))}
    full = (1 << len(positive_roots(spec))) - 1
    for s in sortables_of(t, n, order):
        assert reduce(and_, (masks[index[r]] for r in s.cluster), full) == s.inversions, s.word


@settings(deadline=None, max_examples=40)
@given(type_and_c())
def test_ext_compatibility_is_c_compatibility(case):
    assert_ext_compatibility_is_c_compatibility(*case)


@settings(deadline=None, max_examples=40)
@given(type_and_c())
def test_torsion_classes_are_inversion_sets(case):
    assert_torsion_classes_are_inversion_sets(*case)


@pytest.mark.parametrize("order", E6_PANEL)
def test_e6_ext_compatibility_and_torsion_classes(order):
    assert_ext_compatibility_is_c_compatibility("E", 6, order)
    assert_torsion_classes_are_inversion_sets("E", 6, order)


@pytest.mark.slow
@pytest.mark.parametrize("n", [7, 8])
def test_e7_e8_ext_compatibility_and_torsion_classes(n):
    order = tuple(range(1, n + 1))
    assert_ext_compatibility_is_c_compatibility("E", n, order)
    assert_torsion_classes_are_inversion_sets("E", n, order)


@pytest.mark.slow
def test_e8_phi_iso():
    order = tuple(range(1, 9))
    ttq, ccq = tautilt_of("E", 8, order), ccluster_of("E", 8, order)
    assert (ttq.n_vertices, len(ttq.edges)) == (25080, 100320)
    rep = verify_quiver_map(ttq, ccq, phi_vertex_map(spec_of("E", 8), ttq, ccq), "iso")
    assert rep.ok, rep.counterexample


def test_tautilt_command_runs_no_exchange(monkeypatch, capsys):
    # The tau-tilting quiver comes from the Euler form alone: no Laurent
    # exchange, no frame mutation, no theta and no exchange BFS.
    def forbid(name):
        def forbidden(*args, **kwargs):
            raise AssertionError(f"tautilt called {name}")

        return forbidden

    names = ("theta", "mutate_seed", "_exchange", "mutate_columns", "FrameTable", "build_exchange_quiver")
    for module in [m for key, m in sys.modules.items() if key.split(".")[0] == "cambrian"]:
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbid(name))
    monkeypatch.setattr(cambrian.laurent.VariableTable, "_exchange_holds", forbid("_exchange_holds"))
    assert main(["tautilt", "--type", "D", "--rank", "4", "--coxeter", "2,1,4,3"]) == 0
    assert capsys.readouterr().out.startswith("{")

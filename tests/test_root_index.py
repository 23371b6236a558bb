"""Oracles for the root-indexed c-dynamics: the compatibility table, the
root-index reflection tables behind cl and inversion sets, the facet-indexed
c-cluster edges and the bitmask clique search, each against the direct
definition or the library routine it replaces."""

from itertools import combinations

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from cambrian.lattice import verify_quiver_map
from cambrian.oracles import WeylElement
from cambrian.quivers import build_c_cluster_quiver
from cambrian.rootsys import (
    CoxeterElement,
    almost_positive_roots,
    enumerate_c_clusters,
    is_c_compatible,
    negative_simple,
    tau,
)
from cambrian.sortables import build_cambrian_hasse, cambrian_vertex_map, enumerate_sortables

from conftest import RANK_LE_4, compatibility_degree, end_labels, mask_roots, matrix_inversion_set, spec_of


def _orbit_r_degree(spec, c, root):
    steps, c_inverse = 0, CoxeterElement(c.order[::-1])
    while min(root) >= 0:
        root = tau(spec, c_inverse, root)
        steps += 1
    return steps


def _orbit_degree(spec, c, alpha, beta):
    # (alpha ||_c beta): move both roots by tau_c^-1 until alpha is -alpha_i,
    # then read the alpha_i coefficient of beta.
    c_inverse = CoxeterElement(c.order[::-1])
    for _ in range(_orbit_r_degree(spec, c, alpha)):
        alpha = tau(spec, c_inverse, alpha)
        beta = tau(spec, c_inverse, beta)
    return max(0, beta[alpha.index(-1)])


def _matrix_cl(spec, s):
    # The rightmost occurrence of letter i contributes the prefix matrix
    # applied to alpha_i; unused letters contribute -alpha_i.
    n = spec.rank
    out = []
    for i in range(1, n + 1):
        positions = [j for j, a in enumerate(s.word) if a == i]
        if not positions:
            out.append(negative_simple(spec, i))
            continue
        w = WeylElement.identity(n)
        for letter in s.word[: positions[-1]]:
            w = w.times_reflection(spec, letter)
        out.append(w.root_image(tuple(1 if j == i - 1 else 0 for j in range(n))))
    return tuple(sorted(out))


def _pair_scan_edges(spec, c):
    clusters = enumerate_c_clusters(spec, c)
    edges = set()
    for i in range(len(clusters)):
        for j in range(i + 1, len(clusters)):
            si, sj = set(clusters[i]), set(clusters[j])
            if len(si - sj) != 1:
                continue
            (a,), (b,) = si - sj, sj - si
            if _orbit_r_degree(spec, c, a) > _orbit_r_degree(spec, c, b):
                edges.add((i, j, a, b))
            else:
                edges.add((j, i, b, a))
    return edges


def _networkx_c_clusters(spec, c):
    roots = almost_positive_roots(spec)
    g = nx.Graph()
    g.add_nodes_from(roots)
    g.add_edges_from((a, b) for a, b in combinations(roots, 2) if is_c_compatible(spec, c, a, b))
    return tuple(sorted(tuple(sorted(clique)) for clique in nx.find_cliques(g)))


@st.composite
def type_and_coxeter(draw):
    dynkin_type, rank = draw(st.sampled_from(RANK_LE_4))
    return spec_of(dynkin_type, rank), CoxeterElement(tuple(draw(st.permutations(range(1, rank + 1)))))


@settings(max_examples=40, deadline=None)
@given(type_and_coxeter())
def test_indexed_paths_match_their_definitions(case):
    spec, c = case
    roots = almost_positive_roots(spec)
    for alpha in roots:
        for beta in roots:
            assert compatibility_degree(spec, c, alpha, beta) == _orbit_degree(spec, c, alpha, beta)
    for s in enumerate_sortables(spec, c):
        assert mask_roots(spec, s.inversions) == matrix_inversion_set(spec, s.element)
        assert s.cluster == _matrix_cl(spec, s)
    q = build_c_cluster_quiver(spec, c)
    edges = set(end_labels(q))
    assert len(edges) == len(q.edges)
    assert edges == _pair_scan_edges(spec, c)


@settings(max_examples=40, deadline=None)
@given(type_and_coxeter())
def test_c_clusters_are_the_networkx_cliques(case):
    assert enumerate_c_clusters(*case) == _networkx_c_clusters(*case)


def test_e6_c_clusters_are_the_networkx_cliques():
    for order in [(1, 2, 3, 4, 5, 6), (2, 5, 1, 6, 3, 4)]:
        spec, c = spec_of("E", 6), CoxeterElement(order)
        clusters = enumerate_c_clusters(spec, c)
        assert len(clusters) == 833 and clusters == _networkx_c_clusters(spec, c)


def test_e6_cambrian_iso_ccluster():
    spec, c = spec_of("E", 6), CoxeterElement((1, 2, 3, 4, 5, 6))
    cambrian = build_cambrian_hasse(spec, c)
    ccluster = build_c_cluster_quiver(spec, c)
    for q in (cambrian, ccluster):
        assert (q.n_vertices, len(q.edges)) == (833, 2499)
    rep = verify_quiver_map(cambrian, ccluster, cambrian_vertex_map(spec, c, cambrian, ccluster), "iso")
    assert rep.ok, rep.details

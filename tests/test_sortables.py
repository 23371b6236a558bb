import pytest

from cambrian.lattice import poset_from_hasse, verify_lattice, verify_quiver_map
from cambrian.rootsys import CoxeterElement, cartan_matrix
from cambrian.sortables import (
    WeylElement,
    cambrian_vertex_map,
    cl,
    greedy_sorting_word,
    inversion_set,
    is_decreasing_chain,
    weyl_group_elements,
)

from conftest import cambrian_of, ccluster_of, matrix_inversion_set, sortables_of, spec_of

A2 = cartan_matrix("A", 2)
C21 = CoxeterElement((2, 1))


def by_word(sortables):
    return {s.word: s for s in sortables}


class TestEnumerateSortables:
    def test_a2(self):
        words = {s.word for s in sortables_of("A", 2, (2, 1))}
        assert words == {(), (1,), (2,), (2, 1), (2, 1, 2)}
        assert (1, 2) not in words

    def test_a1(self):
        assert {s.word for s in sortables_of("A", 1, (1,))} == {(), (1,)}

    def test_blocks_weakly_decreasing(self):
        for t, n, order in [("A", 3, (2, 1, 3)), ("B", 3, (1, 2, 3)), ("G", 2, (2, 1))]:
            for s in sortables_of(t, n, order):
                assert is_decreasing_chain(s.blocks)
                assert sum(len(b) for b in s.blocks) == len(s.word)

    def test_reduced(self):
        for t, n, order in [("A", 2, (1, 2)), ("B", 2, (2, 1)), ("A", 3, (1, 2, 3))]:
            spec = spec_of(t, n)
            for s in sortables_of(t, n, order):
                assert len(inversion_set(spec, s.word)) == s.length


class TestGreedyOracle:
    def test_rank_le_3_agreement(self):
        # The DFS enumeration must match the full-group greedy filter.
        cases = [
            ("A", 2, (1, 2)), ("A", 2, (2, 1)),
            ("B", 2, (1, 2)), ("B", 2, (2, 1)),
            ("G", 2, (1, 2)), ("G", 2, (2, 1)),
            ("A", 3, (1, 2, 3)), ("A", 3, (2, 1, 3)), ("A", 3, (3, 2, 1)),
            ("B", 3, (1, 2, 3)), ("C", 3, (1, 2, 3)),
        ]
        for t, n, order in cases:
            spec = spec_of(t, n)
            c = CoxeterElement(order)
            oracle = {}
            for w in weyl_group_elements(spec):
                blocks = greedy_sorting_word(spec, c, w)
                if is_decreasing_chain(blocks):
                    oracle[w.matrix] = tuple(x for b in blocks for x in b)
            mine = {s.element.matrix: s.word for s in sortables_of(t, n, order)}
            assert mine == oracle

    def test_group_orders(self):
        assert len(weyl_group_elements(A2)) == 6
        assert len(weyl_group_elements(spec_of("B", 2))) == 8
        assert len(weyl_group_elements(spec_of("G", 2))) == 12
        assert len(weyl_group_elements(spec_of("A", 3))) == 24
        assert len(weyl_group_elements(spec_of("B", 3))) == 48


class TestInversionSets:
    def test_a2_examples(self):
        s = by_word(sortables_of("A", 2, (2, 1)))
        assert inversion_set(A2, s[()].word) == frozenset()
        assert inversion_set(A2, s[(1,)].word) == {(1, 0)}
        assert inversion_set(A2, s[(2,)].word) == {(0, 1)}
        assert inversion_set(A2, s[(2, 1)].word) == {(0, 1), (1, 1)}
        assert inversion_set(A2, s[(2, 1, 2)].word) == {(1, 0), (0, 1), (1, 1)}

    def test_identity(self):
        assert inversion_set(A2, ()) == frozenset()
        assert matrix_inversion_set(A2, WeylElement.identity(2)) == frozenset()


class TestCl:
    def test_a2_examples(self):
        s = by_word(sortables_of("A", 2, (2, 1)))
        assert cl(A2, C21, s[()]) == ((-1, 0), (0, -1))
        assert cl(A2, C21, s[(2, 1)]) == ((0, 1), (1, 1))
        assert cl(A2, C21, s[(2, 1, 2)]) == ((1, 0), (1, 1))

    def test_bijection_onto_clusters(self):
        for t, n, order in [("A", 2, (2, 1)), ("B", 2, (1, 2)), ("A", 3, (1, 3, 2)), ("G", 2, (2, 1))]:
            spec = spec_of(t, n)
            c = CoxeterElement(order)
            images = {cl(spec, c, s) for s in sortables_of(t, n, order)}
            assert images == set(ccluster_of(t, n, order).vertices)


class TestCambrianHasse:
    def test_a2_shape(self):
        q = cambrian_of("A", 2, (2, 1))
        assert q.n_vertices == 5
        idx = {q.vertices[i].word: i for i in range(5)}
        expected = {
            (idx[(2, 1, 2)], idx[(2, 1)]),
            (idx[(2, 1, 2)], idx[(1,)]),
            (idx[(2, 1)], idx[(2,)]),
            (idx[(1,)], idx[()]),
            (idx[(2,)], idx[()]),
        }
        assert {(e.src, e.dst) for e in q.edges} == expected

    def test_a1(self):
        q = cambrian_of("A", 1, (1,))
        assert q.n_vertices == 2
        e = q.edges[0]
        assert q.vertices[e.src].word == (1,) and q.vertices[e.dst].word == ()

    def test_b2_edge_count(self):
        q = cambrian_of("B", 2, (1, 2))
        assert q.n_vertices == 6
        assert len(q.edges) == len(ccluster_of("B", 2, (1, 2)).edges)

    def test_vertex_map(self):
        q = cambrian_of("A", 2, (2, 1))
        cc = ccluster_of("A", 2, (2, 1))
        m = cambrian_vertex_map(A2, C21, q, cc)
        assert sorted(m) == list(range(5))


@pytest.mark.slow
def test_e7_cambrian_quiver():
    order = tuple(range(1, 8))
    q, cc = cambrian_of("E", 7, order), ccluster_of("E", 7, order)
    assert (q.n_vertices, len(q.edges)) == (4160, 14560)
    assert verify_lattice(poset_from_hasse(q)).ok
    m = cambrian_vertex_map(spec_of("E", 7), CoxeterElement(order), q, cc)
    assert verify_quiver_map(q, cc, m, "iso").ok

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cambrian.sortables
from cambrian.errors import InternalError
from cambrian.lattice import poset_from_hasse, verify_lattice, verify_quiver_map
from cambrian.oracles import WeylElement, greedy_sorting_word, is_decreasing_chain, weyl_group_elements
from cambrian.rootsys import CoxeterElement, almost_positive_roots, cartan_matrix, positive_roots
from cambrian.sortables import _pi_down, _root_tables, build_cambrian_hasse, cambrian_vertex_map, enumerate_sortables

from conftest import (
    RANK_LE_4,
    cambrian_of,
    ccluster_of,
    end_labels,
    mask_roots,
    matrix_inversion_set,
    pair_scan_cambrian_hasse,
    prefix_image_cl,
    prefix_images,
    sortables_of,
    spec_of,
    weyl_group_of,
)

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
                inversions = mask_roots(spec, s.inversions)
                assert inversions == matrix_inversion_set(spec, s.element)
                assert len(inversions) == s.length


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
        assert mask_roots(A2, s[()].inversions) == frozenset()
        assert mask_roots(A2, s[(1,)].inversions) == {(1, 0)}
        assert mask_roots(A2, s[(2,)].inversions) == {(0, 1)}
        assert mask_roots(A2, s[(2, 1)].inversions) == {(0, 1), (1, 1)}
        assert mask_roots(A2, s[(2, 1, 2)].inversions) == {(1, 0), (0, 1), (1, 1)}
        for w in s.values():
            assert mask_roots(A2, w.inversions) == matrix_inversion_set(A2, w.element)

    def test_identity(self):
        assert by_word(sortables_of("A", 2, (2, 1)))[()].inversions == 0
        assert matrix_inversion_set(A2, WeylElement.identity(2)) == frozenset()


class TestCl:
    def test_a2_examples(self):
        s = by_word(sortables_of("A", 2, (2, 1)))
        assert s[()].cluster == ((-1, 0), (0, -1))
        assert s[(2, 1)].cluster == ((0, 1), (1, 1))
        assert s[(2, 1, 2)].cluster == ((1, 0), (1, 1))

    def test_bijection_onto_clusters(self):
        for t, n, order in [("A", 2, (2, 1)), ("B", 2, (1, 2)), ("A", 3, (1, 3, 2)), ("G", 2, (2, 1))]:
            images = {s.cluster for s in sortables_of(t, n, order)}
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


def raises_internal(message):
    return pytest.raises(InternalError, match=f"^{re.escape(message)}$")


class TestInternalErrors:
    """Each invariant the sortables layer checks, broken through one input
    or one patched helper, raises its own InternalError."""

    C12 = CoxeterElement((1, 2))

    def test_two_words_for_one_element(self, monkeypatch):
        # A step that forgets its letter gives (1,) and (1, 1) one inversion set.
        monkeypatch.setattr(cambrian.sortables, "_times", lambda t, img, a: img[:])
        with raises_internal("one element reached by two distinct sorting words"):
            enumerate_sortables(A2, self.C12)

    def test_cl_with_a_repeated_root(self, monkeypatch):
        monkeypatch.setattr(
            cambrian.sortables, "_root_index", lambda spec: dict.fromkeys(almost_positive_roots(spec), 0)
        )
        with raises_internal("cl image has repeated roots: ((-1, 0), (0, -1))"):
            enumerate_sortables(A2, self.C12)

    def test_cl_that_is_no_c_cluster(self, monkeypatch):
        ones = [[1] * 5] * 5
        monkeypatch.setattr(cambrian.sortables, "_c_dynamics", lambda spec, c: ((), ones))
        with raises_internal("cl image is not a c-cluster: ((-1, 0), (0, -1))"):
            enumerate_sortables(A2, self.C12)

    def test_greedy_scan_that_does_not_end(self):
        # w^-1 sends every simple root to a negative vector, and w never
        # reaches the identity: 2I is no Weyl group element.
        w = WeylElement(((2, 0), (0, 2)), ((1, -3), (-3, 1)))
        with raises_internal("sorting-word scan did not terminate"):
            greedy_sorting_word(A2, self.C12, w)

    def test_greedy_scan_without_a_descent(self):
        w = WeylElement(((2, 0), (0, 2)), ((2, 0), (0, 2)))
        with raises_internal("no descent found for a non-identity element"):
            greedy_sorting_word(A2, self.C12, w)

    def test_replay_reading_another_word(self, monkeypatch):
        monkeypatch.setattr(cambrian.sortables, "_pi_down", lambda *args: ())
        with raises_internal("the c-sorting of (1,) reads another word"):
            build_cambrian_hasse(A2, self.C12)

    def test_cover_that_is_no_sortable(self, monkeypatch):
        # Without the identity, (1,) has no sortable below it.
        monkeypatch.setattr(cambrian.sortables, "enumerate_sortables", lambda spec, c: enumerate_sortables(spec, c)[1:])
        with raises_internal("pi_down of (1,) without a cover root is no sortable below it: ()"):
            build_cambrian_hasse(A2, self.C12)

    def test_cover_exchanging_no_root(self, monkeypatch):
        # The identity given the cl of (1,), one of its upper covers.
        def same_cl_below(spec, c):
            e, s1, *rest = enumerate_sortables(spec, c)
            return (e._replace(cluster=s1.cluster), s1, *rest)

        monkeypatch.setattr(cambrian.sortables, "enumerate_sortables", same_cl_below)
        with raises_internal("cover does not exchange exactly one cl-root: set() / set()"):
            build_cambrian_hasse(A2, self.C12)


class TestGuardDisjuncts:
    """Each side of the three two-sided sortables guards, broken alone,
    raises: a guard that asked for both sides would let these through."""

    C12 = CoxeterElement((1, 2))

    @pytest.mark.parametrize("entry", [(0, 1), (1, 0)])
    def test_cl_incompatible_one_way(self, monkeypatch, entry):
        # One nonzero degree, (-alpha_1 ||_c -alpha_2) or its transpose:
        # the identity's cl, -alpha_1 and -alpha_2, fails on that side only.
        table = [[0] * 5 for _ in range(5)]
        table[entry[0]][entry[1]] = 1
        monkeypatch.setattr(cambrian.sortables, "_c_dynamics", lambda spec, c: ((), table))
        with pytest.raises(InternalError):
            enumerate_sortables(A2, self.C12)

    @staticmethod
    def plant_cover_of_s1(monkeypatch, planted):
        # The replay of (1,) finds the word planted where the identity, its
        # lower cover, is; the replays of the other sortables are kept.
        def pi_down(t, inversions, img, queue, kept, word, branch=0, found=None):
            out = _pi_down(t, inversions, img, queue, kept, word, branch, found)
            if out == (1,) and found is not None:
                found[:] = [(bit, planted) for bit, _ in found]
            return out

        monkeypatch.setattr(cambrian.sortables, "_pi_down", pi_down)

    def test_cover_missing_from_the_index(self, monkeypatch):
        # With the identity listed last, the sortable that a negative index
        # would read lies below (1,), so only the index miss raises.
        def identity_last(spec, c):
            e, *rest = enumerate_sortables(spec, c)
            return (*rest, e)

        monkeypatch.setattr(cambrian.sortables, "enumerate_sortables", identity_last)
        self.plant_cover_of_s1(monkeypatch, (3,))
        with pytest.raises(InternalError):
            build_cambrian_hasse(A2, self.C12)

    def test_cover_that_is_not_below(self, monkeypatch):
        # (1, 2), an upper cover of (1,): a sortable, whose cl exchanges one
        # root with that of (1,), but not below it.
        self.plant_cover_of_s1(monkeypatch, (1, 2))
        with pytest.raises(InternalError):
            build_cambrian_hasse(A2, self.C12)

    @pytest.mark.parametrize("upper", [True, False])
    def test_cover_exchanging_two_roots_on_one_side(self, monkeypatch, upper):
        # Both cls hold n distinct roots once the repeated-root guard has
        # passed, so the two sides are of equal size; a root planted in the
        # cl of (1,), or of the identity below it, breaks only that side.
        def planted(spec, c):
            e, s1, *rest = enumerate_sortables(spec, c)
            if upper:
                return (e, s1._replace(cluster=s1.cluster + ((9, 9),)), *rest)
            return (e._replace(cluster=e.cluster + ((9, 9),)), s1, *rest)

        monkeypatch.setattr(cambrian.sortables, "enumerate_sortables", planted)
        with pytest.raises(InternalError):
            build_cambrian_hasse(A2, self.C12)


@st.composite
def type_and_coxeter(draw):
    dynkin_type, rank = draw(st.sampled_from(RANK_LE_4))
    return dynkin_type, rank, tuple(draw(st.permutations(range(1, rank + 1))))


def greedy_sortable_blocks(dynkin_type, rank, order):
    """The sorting blocks of the c-sortable elements of the full group, by
    the greedy filter, in (length, word) order."""
    spec, c = spec_of(dynkin_type, rank), CoxeterElement(order)
    blocks = [greedy_sorting_word(spec, c, w) for w in weyl_group_of(dynkin_type, rank)]
    words = [(sum(len(b) for b in bs), tuple(a for b in bs for a in b), bs) for bs in blocks if is_decreasing_chain(bs)]
    return [bs for _, _, bs in sorted(words)]


@settings(max_examples=30, deadline=None)
@given(type_and_coxeter())
def test_covers_match_pair_scan(case):
    # Same vertices in the same order, with the same inversion sets and
    # c-clusters, and the same labeled edges as the pair scan.
    spec, c = spec_of(*case[:2]), CoxeterElement(case[2])
    q, (oracle, labeled) = build_cambrian_hasse(spec, c), pair_scan_cambrian_hasse(spec, c)
    assert [s.blocks for s in q.vertices] == greedy_sortable_blocks(*case)
    for s in q.vertices:
        assert mask_roots(spec, s.inversions) == {image for _, image in prefix_images(spec, s.word)}
        assert s.cluster == prefix_image_cl(spec, s.word)
    assert q.edges == oracle.edges
    assert end_labels(q) == labeled


@pytest.mark.parametrize("order", [(1, 2, 3, 4, 5, 6), (2, 5, 1, 6, 3, 4)])
def test_e6_covers_match_pair_scan(order):
    q = cambrian_of("E", 6, order)
    oracle, labeled = pair_scan_cambrian_hasse(spec_of("E", 6), CoxeterElement(order))
    assert q.edges == oracle.edges
    assert end_labels(q) == labeled


@settings(max_examples=40, deadline=None)
@given(type_and_coxeter())
def test_pi_down_is_the_largest_sortable_below(case):
    # For every w, pi_down^c(w) is a sortable whose inversion set lies in
    # N(w) and contains that of every other such sortable.
    spec, c = spec_of(*case[:2]), CoxeterElement(case[2])
    t, index = _root_tables(spec), {r: k for k, r in enumerate(positive_roots(spec))}
    sortables = sortables_of(*case)
    by_word = {s.word: s.inversions for s in sortables}
    for w in weyl_group_of(*case[:2]):
        n_w = sum(1 << index[r] for r in matrix_inversion_set(spec, w))
        top = by_word[_pi_down(t, n_w, list(t.start), list(c.order), [], [])]
        below = [s.inversions for s in sortables if not s.inversions & ~n_w]
        assert top in below and all(not x & ~top for x in below)


def test_e7_cambrian_quiver():
    order = tuple(range(1, 8))
    q, cc = cambrian_of("E", 7, order), ccluster_of("E", 7, order)
    assert (q.n_vertices, len(q.edges)) == (4160, 14560)
    assert verify_lattice(poset_from_hasse(q)).ok
    m = cambrian_vertex_map(spec_of("E", 7), CoxeterElement(order), q, cc)
    assert verify_quiver_map(q, cc, m, "iso").ok


@pytest.mark.slow
def test_e8_cambrian_quiver():
    order = tuple(range(1, 9))
    q, cc = cambrian_of("E", 8, order), ccluster_of("E", 8, order)
    assert (q.n_vertices, len(q.edges)) == (25080, 100320)
    assert verify_lattice(poset_from_hasse(q)).ok
    m = cambrian_vertex_map(spec_of("E", 8), CoxeterElement(order), q, cc)
    assert verify_quiver_map(q, cc, m, "iso").ok

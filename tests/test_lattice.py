import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cambrian.errors import InternalError
from cambrian.lattice import (
    FinitePoset,
    poset_from_hasse,
    verify_lattice,
    verify_quiver_map,
)
from cambrian.quivers import ClusterQuiver, QuiverEdge, phi_vertex_map, theta_vertex_map
from cambrian.rootsys import CoxeterElement

from conftest import (
    RANK_LE_4,
    cambrian_of,
    ccluster_of,
    exchange_of,
    missing_bound,
    pair_scan_is_lattice,
    spec_of,
    tautilt_of,
)


def leq(p, x, y):
    """x <= y in the poset p: the up-set of x holds that of y."""
    return p.up[x] & p.up[y] == p.up[y]


def quiver(n, edges, kind="ccluster"):
    return ClusterQuiver(
        kind,
        tuple(((i,),) for i in range(n)),
        tuple(QuiverEdge(s, d, None, None) for s, d in edges),
    )


class TestPosetFromHasse:
    def test_a2_exchange(self):
        p = poset_from_hasse(exchange_of("A", 2, (2, 1)))
        tops = [v for v in range(p.n) if all(leq(p, u, v) for u in range(p.n))]
        bottoms = [v for v in range(p.n) if all(leq(p, v, u) for u in range(p.n))]
        assert len(tops) == 1 and len(bottoms) == 1

    def test_single_vertex(self):
        p = poset_from_hasse(quiver(1, []))
        assert p.n == 1 and leq(p, 0, 0)

    def test_incomparable_mids(self):
        # Diamond: 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3; the mids are incomparable.
        p = poset_from_hasse(quiver(4, [(0, 1), (0, 2), (1, 3), (2, 3)]))
        assert not leq(p, 1, 2) and not leq(p, 2, 1)
        assert leq(p, 3, 1) and leq(p, 1, 0)

    def test_cycle_rejected(self):
        with pytest.raises(InternalError, match="directed cycle"):
            poset_from_hasse(quiver(2, [(0, 1), (1, 0)]))

    def test_non_cover_edge_rejected(self):
        with pytest.raises(InternalError, match=r"edge 0->2 is not a cover \(via 1\)"):
            poset_from_hasse(quiver(3, [(0, 1), (1, 2), (0, 2)]))


class TestVerifyLattice:
    def test_a2(self):
        rep = verify_lattice(poset_from_hasse(exchange_of("A", 2, (2, 1))))
        assert rep.ok

    def test_chain(self):
        rep = verify_lattice(poset_from_hasse(quiver(4, [(0, 1), (1, 2), (2, 3)])))
        assert rep.ok

    def test_bowtie_fails(self):
        # Six-element non-lattice: two middle elements on each side.
        edges = [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5)]
        rep = verify_lattice(poset_from_hasse(quiver(6, edges)))
        assert not rep.ok
        assert rep.details == ("pair without a join",)
        assert rep.counterexample == "(3, 4), upper covers of 5"

    def test_two_minima_fail(self):
        rep = verify_lattice(poset_from_hasse(quiver(3, [(0, 1), (0, 2)])))
        assert (rep.ok, rep.details, rep.counterexample) == (
            False, ("pair without a meet",), "(1, 2), both minimal"
        )

    def test_two_maxima_fail(self):
        rep = verify_lattice(poset_from_hasse(quiver(3, [(0, 2), (1, 2)])))
        assert (rep.ok, rep.details, rep.counterexample) == (
            False, ("pair without a join",), "(0, 1), both maximal"
        )


def assert_matches_pair_scan(q):
    """verify_lattice agrees with the pair scan, and a FAIL names a pair that
    really lacks the meet or join it says is missing."""
    rep = verify_lattice(poset_from_hasse(q))
    assert rep.ok == pair_scan_is_lattice(q)
    if not rep.ok:
        x, y, why = re.fullmatch(r"\((\d+), (\d+)\), (.*)", rep.counterexample).groups()
        x, y = int(x), int(y)
        assert rep.details[0].split()[-1] in missing_bound(q, x, y)
        cover = re.fullmatch(r"upper covers of (\d+)", why)
        if cover:
            arrows = {(e.src, e.dst) for e in q.edges}
            assert {(x, int(cover[1])), (y, int(cover[1]))} <= arrows
        else:
            side = 0 if why == "both minimal" else 1  # a minimal x is no src
            ends = {(e.src, e.dst)[side] for e in q.edges}
            assert why in ("both minimal", "both maximal") and not {x, y} & ends


@st.composite
def hasse_diagrams(draw):
    """The Hasse quiver of a random poset on at most 9 elements: elements on
    random levels, a random relation i > j between elements of different
    levels, bounded or not, closed transitively, reduced to its covers,
    relabelled and listed in random order."""
    n, rng = draw(st.integers(1, 9)), draw(st.randoms(use_true_random=False))
    level, density = sorted(rng.randrange(n) for _ in range(n)), rng.choice((0.3, 0.5, 0.7))
    above = [1 << i for i in range(n)]  # above[j]: the i >= j
    for i in range(n):
        for j in range(i):
            if level[i] > level[j] and rng.random() < density:
                above[j] |= 1 << i
    if rng.random() < 0.75:  # bounded: 0 is the bottom and n - 1 the top
        above = [(1 << n) - 1] + [mask | 1 << (n - 1) for mask in above[1:]]
    for j in reversed(range(n)):
        for i in range(j + 1, n):
            if above[j] >> i & 1:
                above[j] |= above[i]
    covers = [
        (i, j)
        for j in range(n)
        for i in range(j + 1, n)
        if above[j] >> i & 1
        and not any(above[j] >> k & 1 and above[k] >> i & 1 for k in range(j + 1, i))
    ]
    label = list(range(n))
    rng.shuffle(label)
    edges = [(label[i], label[j]) for i, j in covers]
    rng.shuffle(edges)
    return quiver(n, edges)


@settings(max_examples=400, deadline=None)
@given(hasse_diagrams())
def test_random_posets_match_pair_scan(q):
    assert_matches_pair_scan(q)


@st.composite
def built_quivers(draw):
    """One of the four quivers for a random type of rank at most 4 and a
    random c, as built or with one arrow removed (still a Hasse quiver, of a
    poset that may not be a lattice)."""
    t, n = draw(st.sampled_from(RANK_LE_4))
    order = tuple(draw(st.permutations(range(1, n + 1))))
    build = draw(st.sampled_from((exchange_of, ccluster_of, tautilt_of, cambrian_of)))
    q = build(t, n, order)
    if q.edges and draw(st.booleans()):
        drop = draw(st.integers(0, len(q.edges) - 1))
        q = ClusterQuiver(q.kind, q.vertices, q.edges[:drop] + q.edges[drop + 1 :])
    return q


@settings(max_examples=60, deadline=None)
@given(built_quivers())
def test_built_quivers_match_pair_scan(q):
    assert_matches_pair_scan(q)


@pytest.mark.parametrize("rank,clusters,edges", [(7, 4160, 14560), (8, 25080, 100320)])
def test_type_e_ccluster_lattice(rank, clusters, edges):
    q = ccluster_of("E", rank, tuple(range(1, rank + 1)))
    assert (q.n_vertices, len(q.edges)) == (clusters, edges)
    rep = verify_lattice(poset_from_hasse(q))
    assert rep.ok and rep.details == (f"{clusters} elements, all meets and joins exist",)


class TestVerifyQuiverMap:
    def test_identity(self):
        q = ccluster_of("A", 2, (2, 1))
        rep = verify_quiver_map(q, q, tuple(range(q.n_vertices)), "iso")
        assert rep.ok

    def test_theta_anti(self):
        spec = spec_of("A", 2)
        c = CoxeterElement((2, 1))
        exq = exchange_of("A", 2, (2, 1))
        ccq = ccluster_of("A", 2, (2, 1))
        rep = verify_quiver_map(exq, ccq, theta_vertex_map(spec, c, exq, ccq), "anti")
        assert rep.ok

    def test_phi_iso(self):
        spec = spec_of("A", 2)
        ttq = tautilt_of("A", 2, (2, 1))
        ccq = ccluster_of("A", 2, (2, 1))
        rep = verify_quiver_map(ttq, ccq, phi_vertex_map(spec, ttq, ccq), "iso")
        assert rep.ok

    def test_wrong_map_fails(self):
        q = ccluster_of("A", 2, (2, 1))
        n = q.n_vertices
        shifted = tuple((i + 1) % n for i in range(n))
        rep = verify_quiver_map(q, q, shifted, "iso")
        assert not rep.ok

    def test_wrong_mode_fails(self):
        q = ccluster_of("A", 2, (2, 1))
        rep = verify_quiver_map(q, q, tuple(range(q.n_vertices)), "anti")
        assert not rep.ok

    def test_short_vertex_map(self):
        q = ccluster_of("A", 2, (2, 1))
        with pytest.raises(InternalError, match="vertex map does not cover the source quiver"):
            verify_quiver_map(q, q, tuple(range(q.n_vertices - 1)), "iso")

    def test_invalid_mode(self):
        # No command chooses the mode: a bad one is a fault in the program.
        q = ccluster_of("A", 2, (2, 1))
        with pytest.raises(InternalError, match="mode must be 'iso' or 'anti'"):
            verify_quiver_map(q, q, tuple(range(q.n_vertices)), "dual")


class TestQuiversAreLattices:
    def test_all_small_quivers(self):
        for t, n, order in [("A", 2, (1, 2)), ("B", 2, (2, 1)), ("A", 3, (2, 3, 1)), ("G", 2, (1, 2))]:
            for q in (
                exchange_of(t, n, order),
                ccluster_of(t, n, order),
                tautilt_of(t, n, order),
                cambrian_of(t, n, order),
            ):
                rep = verify_lattice(poset_from_hasse(q))
                assert rep.ok, (t, n, order, q.kind)

import pytest

from cambrian.errors import InputError
from cambrian.lattice import (
    FinitePoset,
    poset_from_hasse,
    verify_lattice,
    verify_quiver_map,
)
from cambrian.quivers import ClusterQuiver, QuiverEdge, phi_vertex_map, theta_vertex_map
from cambrian.rootsys import CoxeterElement

from conftest import cambrian_of, ccluster_of, exchange_of, spec_of, tautilt_of


def quiver(n, edges, kind="ccluster"):
    return ClusterQuiver(
        kind,
        tuple(((i,),) for i in range(n)),
        tuple(QuiverEdge(s, d, None, None) for s, d in edges),
    )


class TestPosetFromHasse:
    def test_a2_exchange(self):
        p = poset_from_hasse(exchange_of("A", 2, (2, 1)))
        tops = [v for v in range(p.n) if p.up[v] == 1 << v]
        bottoms = [v for v in range(p.n) if p.down[v] == 1 << v]
        assert len(tops) == 1 and len(bottoms) == 1

    def test_single_vertex(self):
        p = poset_from_hasse(quiver(1, []))
        assert p.n == 1 and p.leq(0, 0)

    def test_incomparable_mids(self):
        # Diamond: 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3; the mids are incomparable.
        p = poset_from_hasse(quiver(4, [(0, 1), (0, 2), (1, 3), (2, 3)]))
        assert not p.leq(1, 2) and not p.leq(2, 1)
        assert p.leq(3, 1) and p.leq(1, 0)

    def test_cycle_rejected(self):
        with pytest.raises(InputError):
            poset_from_hasse(quiver(2, [(0, 1), (1, 0)]))

    def test_non_cover_edge_rejected(self):
        with pytest.raises(InputError):
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
        assert rep.counterexample is not None


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

    def test_invalid_mode(self):
        q = ccluster_of("A", 2, (2, 1))
        with pytest.raises(InputError):
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

from collections import Counter
from fractions import Fraction
from itertools import permutations
from math import gcd, lcm

import pytest
import sympy

import cambrian.rootsys
from cambrian.cli import main
from cambrian.errors import InputError, InternalError
from cambrian.oracles import weyl_group_elements
from cambrian.rootsys import (
    CartanSpec,
    CoxeterElement,
    almost_positive_roots,
    cartan_matrix,
    cluster_count,
    enumerate_c_clusters,
    is_c_compatible,
    negative_simple,
    positive_roots,
    r_degree,
    reflect,
    reflection_matrix,
    sigma,
    tau,
)

from conftest import RANK_LE_4, SMALL_MATRIX, compatibility_degree, coxeter_words, spec_of, tau_c_period

A2 = cartan_matrix("A", 2)
B2 = cartan_matrix("B", 2)
G2 = cartan_matrix("G", 2)
C12 = CoxeterElement((1, 2))  # C21^-1
C21 = CoxeterElement((2, 1))


# Each type's minimal symmetrizer, written next to its Cartan entries.
SYMMETRIZERS = {
    ("A", 1): (1,), ("A", 5): (1,) * 5,
    ("B", 2): (2, 1), ("B", 3): (2, 2, 1), ("B", 5): (2, 2, 2, 2, 1),
    ("C", 3): (1, 1, 2), ("C", 5): (1, 1, 1, 1, 2),
    ("D", 4): (1,) * 4, ("D", 6): (1,) * 6,
    ("E", 6): (1,) * 6, ("E", 7): (1,) * 7, ("E", 8): (1,) * 8,
    ("F", 4): (2, 2, 1, 1), ("G", 2): (3, 1),
}


class TestCartanMatrix:
    def test_a2(self):
        assert A2.cartan == ((2, -1), (-1, 2))
        assert A2.symmetrizer == (1, 1)

    def test_a1(self):
        a1 = cartan_matrix("A", 1)
        assert a1.cartan == ((2,),)

    def test_g2(self):
        assert G2.cartan == ((2, -1), (-3, 2))

    def test_b2(self):
        assert B2.cartan == ((2, -1), (-2, 2))

    @pytest.mark.parametrize("t,n", SYMMETRIZERS)
    def test_symmetrizer(self, t, n):
        # d_i C_ij = d_j C_ji, and the diagram is connected, so every
        # symmetrizer is a multiple of d: gcd(d) = 1 makes d the minimal one.
        spec, d = cartan_matrix(t, n), SYMMETRIZERS[t, n]
        assert spec.symmetrizer == d
        assert all(d[i] * spec.cartan[i][j] == d[j] * spec.cartan[j][i] for i in range(n) for j in range(n))
        assert gcd(*d) == 1

    @pytest.mark.parametrize(
        "t,n",
        [("A", 0), ("B", 1), ("C", 2), ("D", 3), ("E", 5), ("E", 9), ("F", 3), ("F", 5), ("G", 1), ("G", 3),
         ("H", 2), ("A", 141), ("B", 101), ("C", 101), ("D", 101)],
    )
    def test_invalid(self, t, n):
        with pytest.raises(InputError):
            cartan_matrix(t, n)

    @pytest.mark.parametrize("t,n", [("A", 140), ("B", 100), ("C", 100), ("D", 100)])
    def test_largest_classical_ranks(self, t, n):
        # The largest ranks whose positive roots fit the root saturation's cap.
        assert cartan_matrix(t, n).rank == n

    @pytest.mark.parametrize(
        "t,n",
        [(t, n) for t, lowest in (("A", 1), ("B", 2), ("C", 3), ("D", 4)) for n in range(lowest, 13)]
        + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)],
    )
    def test_type_table_against_its_roots(self, t, n):
        # The numbers of positive roots of each height form the partition
        # dual to the exponents of W (Kostant, Amer. J. Math. 81), so the
        # exponents, the Coxeter number and the Catalan count follow from
        # the roots alone; det C is the index of the root lattice in the
        # weight lattice.
        spec = cartan_matrix(t, n)
        roots = positive_roots(spec)
        per_height = Counter(sum(root) for root in roots).values()
        exponents = [sum(1 for m in per_height if m >= j) for j in range(1, n + 1)]
        h = max(exponents) + 1
        assert h * n == 2 * len(roots)
        catalan = Fraction(1)
        for e in exponents:
            catalan *= Fraction(e + h + 1, e + 1)
        assert cluster_count(spec) == catalan
        det = {"A": n + 1, "B": 2, "C": 2, "D": 4, "E": 9 - n, "F": 1, "G": 1}[t]
        assert sympy.Matrix(spec.cartan).det() == det


class TestPositiveRoots:
    def test_a2(self):
        assert set(positive_roots(A2)) == {(1, 0), (0, 1), (1, 1)}
        assert set(almost_positive_roots(A2)) == {
            (1, 0), (0, 1), (1, 1), (-1, 0), (0, -1)
        }

    def test_a1(self):
        assert positive_roots(cartan_matrix("A", 1)) == ((1,),)

    @pytest.mark.parametrize(
        "t,n",
        [(t, n) for t, lowest in (("A", 1), ("B", 2), ("C", 3), ("D", 4)) for n in range(lowest, 13)]
        + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)],
    )
    def test_almost_positive_layout(self, t, n):
        # The c-dynamics and the Euler-form tables read -alpha_i at index
        # i - 1 and positive root k at index n + k: the sorted order.
        spec = spec_of(t, n)
        roots = almost_positive_roots(spec)
        assert roots == tuple(sorted(roots))
        assert roots == tuple(negative_simple(spec, i) for i in range(1, n + 1)) + positive_roots(spec)

    def test_b2(self):
        assert set(positive_roots(B2)) == {(1, 0), (0, 1), (1, 1), (1, 2)}

    def test_saturation_cap(self):
        # tuple.__new__ skips CartanSpec's check: the affine matrix of A1^(1)
        # has infinitely many roots, and the saturation stops at its cap.
        affine = tuple.__new__(CartanSpec, ("A", 2, ((2, -2), (-2, 2)), (1, 1)))
        with pytest.raises(InternalError, match="^positive root saturation exceeded safety cap$"):
            positive_roots(affine)

    def test_saturation_cap_admits_exactly_the_cap(self, monkeypatch):
        # B100, the largest B rank, has n^2 = _ROOT_CAP positive roots: a
        # saturation that reaches the cap passes, and one root more raises.
        # Shown on A3's 6 roots with the cap lowered to 6, then to 5.
        assert cambrian.rootsys._ROOT_CAP == 100**2
        a3 = cartan_matrix("A", 3)
        monkeypatch.setattr(cambrian.rootsys, "_ROOT_CAP", 6)
        assert len(positive_roots.__wrapped__(a3)) == 6
        monkeypatch.setattr(cambrian.rootsys, "_ROOT_CAP", 5)
        with pytest.raises(InternalError, match="^positive root saturation exceeded safety cap$"):
            positive_roots.__wrapped__(a3)

    def test_counts_vs_orbit_oracle(self):
        # Independent oracle: the W-orbit of the simple roots is all of Phi.
        expected = {
            ("A", 1): 1, ("A", 2): 3, ("A", 3): 6, ("A", 4): 10,
            ("B", 2): 4, ("B", 3): 9, ("C", 3): 9, ("D", 4): 12,
            ("F", 4): 24, ("G", 2): 6,
        }
        for (t, n), count in expected.items():
            spec = spec_of(t, n)
            group = weyl_group_elements(spec)
            orbit = set()
            for i in range(1, n + 1):
                simple = tuple(1 if j == i - 1 else 0 for j in range(n))
                for w in group:
                    orbit.add(w.root_image(simple))
            positives = {r for r in orbit if min(r) >= 0}
            assert len(positives) == count
            assert set(positive_roots(spec)) == positives


class TestReflections:
    def test_reflect_simple(self):
        assert reflect(A2, 1, (0, 1)) == (1, 1)
        assert reflect(A2, 1, (1, 0)) == (-1, 0)
        assert reflect(B2, 2, (1, 0)) == (1, 2)

    def test_reflection_index_range(self):
        with pytest.raises(InputError, match="reflection index 0 out of range"):
            reflection_matrix(A2, 0)

    @pytest.mark.parametrize("i", [0, -1, 4])
    @pytest.mark.parametrize("root", [(0, 0, 1), (1, 0, 0), (-1, 0, 0)])
    def test_reflect_and_sigma_refuse_an_index_outside_1_to_n(self, i, root):
        # Row i - 1 of the Cartan matrix drives s_i: i = 0 or -1 would read a
        # row from the end and act as another reflection.
        a3 = cartan_matrix("A", 3)
        for f in (reflect, sigma):
            with pytest.raises(InputError, match=f"^reflection index {i} out of range$"):
                f(a3, i, root)

    def test_sigma_fixes_other_negatives(self):
        assert sigma(A2, 1, (0, -1)) == (0, -1)
        assert sigma(A2, 1, (-1, 0)) == (1, 0)
        assert sigma(A2, 1, (0, 1)) == (1, 1)

    def test_sigma_requires_almost_positive(self):
        with pytest.raises(InputError):
            sigma(A2, 1, (2, 0))

    def test_sigma_involution(self):
        for spec in (A2, B2, G2):
            for i in (1, 2):
                for root in almost_positive_roots(spec):
                    assert sigma(spec, i, sigma(spec, i, root)) == root


class TestTau:
    def test_a2_orbit(self):
        # The single tau_c^-1 orbit for c = (2,1):
        # -a1 -> a1 -> a2 -> -a2 -> a1+a2 -> -a1.
        chain = [(-1, 0), (1, 0), (0, 1), (0, -1), (1, 1), (-1, 0)]
        for a, b in zip(chain, chain[1:]):
            assert tau(A2, C12, a) == b
        assert tau(A2, C21, (1, 0)) == (-1, 0)

    def test_round_trip(self):
        # tau_c^-1 is tau of the reversed word c^-1, for every word c.
        for t, n in RANK_LE_4:
            spec = spec_of(t, n)
            for order in permutations(range(1, n + 1)):
                c, c_inverse = CoxeterElement(order), CoxeterElement(order[::-1])
                for root in almost_positive_roots(spec):
                    assert tau(spec, c_inverse, tau(spec, c, root)) == root

    def test_r_degree(self):
        assert r_degree(A2, C21, (-1, 0)) == 0
        assert r_degree(A2, C21, (0, 1)) == 1
        assert r_degree(A2, C21, (1, 0)) == 2
        assert r_degree(A2, C21, (1, 1)) == 1
        with pytest.raises(InputError, match="not an almost positive root"):
            r_degree(A2, C21, (1, -1))


def permutation_order(perm):
    """The lcm of the cycle lengths of perm, a permutation of range(len(perm))."""
    assert sorted(perm) == list(range(len(perm)))
    order, seen = 1, set()
    for a in range(len(perm)):
        length = 0
        while a not in seen:
            seen.add(a)
            a, length = perm[a], length + 1
        order = lcm(order, length or 1)
    return order


def assert_tau_c_period(t, n):
    # The third field of the c-dynamics table is tau_c^-1 on root indices,
    # and its order is the closed-form period, on every Coxeter element.
    spec = spec_of(t, n)
    roots = almost_positive_roots(spec)
    for order in coxeter_words(spec):
        perm, c_inverse = cambrian.rootsys._c_dynamics(spec, CoxeterElement(order))[2], CoxeterElement(order[::-1])
        assert [roots[b] for b in perm] == [tau(spec, c_inverse, root) for root in roots]
        assert permutation_order(perm) == tau_c_period(spec), order


class TestTauPeriod:
    @pytest.mark.parametrize("t,n", RANK_LE_4 + [("E", 6)])
    def test_order_of_tau_c(self, t, n):
        assert_tau_c_period(t, n)

    @pytest.mark.slow
    @pytest.mark.parametrize("t,n", [("E", 7), ("E", 8)])
    def test_order_of_tau_c_e7_e8(self, t, n):
        assert_tau_c_period(t, n)


@pytest.fixture
def tau_fixes_every_root(monkeypatch):
    # A tau that moves nothing: no positive root's orbit reaches a negative
    # simple root.  The cache is cleared so no table built with the real tau
    # is read, and again so none built with this one outlives the test.
    cambrian.rootsys._c_dynamics.cache_clear()
    monkeypatch.setattr(cambrian.rootsys, "tau", lambda spec, c, root: root)
    yield
    cambrian.rootsys._c_dynamics.cache_clear()


class TestOrbitGuard:
    def test_r_degree_and_clusters_raise(self, tau_fixes_every_root):
        for call in (lambda: r_degree(A2, C21, (1, 0)), lambda: enumerate_c_clusters(A2, C21)):
            with pytest.raises(InternalError, match="tau_c orbit did not reach a negative simple root"):
                call()

    def test_cclusters_exits_3(self, capsys, tau_fixes_every_root):
        assert main(["cclusters", "--type", "A", "--rank", "2", "--coxeter", "2,1"]) == 3
        out = capsys.readouterr()
        assert out.out == "" and "tau_c orbit did not reach a negative simple root" in out.err


class TestCompatibility:
    def test_negative_simple_rule(self):
        assert compatibility_degree(A2, C21, (-1, 0), (1, 1)) == 1
        assert compatibility_degree(A2, C21, (-1, 0), (0, -1)) == 0

    def test_reduction_order_agreement(self):
        # Reducing until the second argument is a negative simple and reading
        # the first argument's coefficient computes the swapped degree.
        for spec in (A2, B2, G2):
            for order in ((1, 2), (2, 1)):
                c = CoxeterElement(order)
                for a in almost_positive_roots(spec):
                    for b in almost_positive_roots(spec):
                        assert compatibility_degree(spec, c, b, a) == _reduce_by_beta(
                            spec, c, a, b
                        )

    def test_symmetric_when_simply_laced(self):
        for spec in (A2, spec_of("A", 3)):
            n = spec.rank
            c = CoxeterElement(tuple(range(1, n + 1)))
            for a in almost_positive_roots(spec):
                for b in almost_positive_roots(spec):
                    assert compatibility_degree(spec, c, a, b) == compatibility_degree(
                        spec, c, b, a
                    )

    def test_tau_invariance(self):
        for spec in (B2, G2, spec_of("A", 3)):
            n = spec.rank
            c = CoxeterElement(tuple(range(1, n + 1)))
            for a in almost_positive_roots(spec):
                for b in almost_positive_roots(spec):
                    ta = tau(spec, c, a)
                    tb = tau(spec, c, b)
                    assert compatibility_degree(spec, c, a, b) == compatibility_degree(
                        spec, c, ta, tb
                    )


def _reduce_by_beta(spec, c, alpha, beta):
    c_inverse = CoxeterElement(c.order[::-1])
    for _ in range(r_degree(spec, c, beta)):
        alpha = tau(spec, c_inverse, alpha)
        beta = tau(spec, c_inverse, beta)
    i0 = beta.index(-1)
    return max(0, alpha[i0])


class TestClusters:
    def test_a2(self):
        clusters = enumerate_c_clusters(A2, C21)
        expected = {
            ((1, 0), (1, 1)),
            ((0, 1), (1, 1)),
            ((-1, 0), (0, 1)),
            ((0, -1), (1, 0)),
            ((-1, 0), (0, -1)),
        }
        assert {tuple(sorted(c)) for c in clusters} == expected

    def test_a1(self):
        a1 = cartan_matrix("A", 1)
        assert set(enumerate_c_clusters(a1, CoxeterElement((1,)))) == {((1,),), ((-1,),)}

    def test_maximal_set_of_wrong_size_raises(self, monkeypatch):
        # With no two roots compatible, every maximal compatible set is a
        # single root, which is not a cluster of A2.
        m = len(almost_positive_roots(A2))
        monkeypatch.setattr(cambrian.rootsys, "_c_dynamics", lambda spec, c: ((0,) * m, ((1,) * m,) * m))
        with pytest.raises(InternalError, match="maximal compatible set of size 1 != rank 2"):
            enumerate_c_clusters(A2, C21)

    def test_a3_count(self):
        a3 = spec_of("A", 3)
        assert len(enumerate_c_clusters(a3, CoxeterElement((1, 2, 3)))) == 14

    def test_unique_completion(self):
        # Removing one root from a cluster leaves exactly one other completion.
        for t, n, order in SMALL_MATRIX:
            spec = spec_of(t, n)
            c = CoxeterElement(order)
            clusters = set(enumerate_c_clusters(spec, c))
            roots = almost_positive_roots(spec)
            for cluster in clusters:
                for alpha in cluster:
                    rest = [r for r in cluster if r != alpha]
                    completions = {
                        beta
                        for beta in roots
                        if beta != alpha
                        and all(is_c_compatible(spec, c, beta, r) for r in rest)
                        and tuple(sorted(rest + [beta])) in clusters
                    }
                    assert len(completions) == 1

    def test_per_coxeter_caches_stay_bounded(self):
        # A sweep over all 24 Coxeter words of A4 keeps a fixed number of
        # (spec, c) entries in the one per-element cache, not one per word.
        # The clusters themselves are not cached: each Build enumerates once.
        a4 = spec_of("A", 4)
        bounded = [f for f in vars(cambrian.rootsys).values() if hasattr(f, "cache_info") and f.cache_info().maxsize]
        assert bounded == [cambrian.rootsys._c_dynamics]
        assert not hasattr(enumerate_c_clusters, "cache_info")
        for order in permutations(range(1, 5)):
            assert len(enumerate_c_clusters(a4, CoxeterElement(order))) == 42
        info = cambrian.rootsys._c_dynamics.cache_info()
        assert info.maxsize < 24 and info.currsize <= info.maxsize

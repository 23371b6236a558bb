import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cambrian.errors import InputError
from cambrian.mutation import (
    ExchangeMatrix,
    build_bc,
    check_duality,
    frame_is_unimodular,
    frame_mutate,
    identity_frame,
    mutate_matrix,
)
from cambrian.rootsys import CoxeterElement, cartan_matrix

from conftest import spec_of

A2 = cartan_matrix("A", 2)
C21 = CoxeterElement((2, 1))


class TestExchangeMatrix:
    def test_skew_check(self):
        with pytest.raises(InputError):
            ExchangeMatrix(((0, 1), (1, 0)), (1, 1))
        with pytest.raises(InputError):
            ExchangeMatrix(((0, -1), (1, 0)), (1, 0))

    def test_negated(self):
        m = ExchangeMatrix(((0, -1), (1, 0)), (1, 1))
        assert m.negated().entries == ((0, 1), (-1, 0))


class TestBuildBc:
    def test_a2_both(self):
        assert build_bc(A2, C21).entries == ((0, -1), (1, 0))
        assert build_bc(A2, CoxeterElement((1, 2))).entries == ((0, 1), (-1, 0))

    def test_a1(self):
        assert build_bc(cartan_matrix("A", 1), CoxeterElement((1,))).entries == ((0,),)

    def test_inverse_negates(self):
        for t, n in [("A", 3), ("B", 3), ("G", 2), ("D", 4), ("F", 4)]:
            spec = spec_of(t, n)
            c = CoxeterElement(tuple(range(1, n + 1)))
            assert build_bc(spec, c).negated().entries == build_bc(spec, c.inverse()).entries

    def test_symmetrizer_is_cartan_symmetrizer(self):
        b = build_bc(spec_of("B", 3), CoxeterElement((1, 2, 3)))
        assert b.skew_symmetrizer == (2, 2, 1)


class TestMutateMatrix:
    def test_rank2(self):
        assert mutate_matrix(((0, -1), (1, 0)), 1) == ((0, 1), (-1, 0))

    def test_rank3(self):
        assert mutate_matrix(((0, 1, 0), (-1, 0, 1), (0, -1, 0)), 2) == (
            (0, -1, 1),
            (1, 0, -1),
            (-1, 1, 0),
        )

    def test_extended(self):
        # Extended matrix for A2 with the identity C-block below; after one
        # mutation in direction 2 the C-columns read {(1,1), (0,-1)}, the
        # C-matrix set of the cluster {x1, (x1+1)/x2}.
        ext = ((0, -1), (1, 0), (1, 0), (0, 1))
        out = mutate_matrix(ext, 2, ncols=2)
        assert out[:2] == ((0, 1), (-1, 0))
        assert out[2:] == ((1, 0), (1, -1))
        cols = {tuple(row[j] for row in out[2:]) for j in range(2)}
        assert cols == {(1, 1), (0, -1)}

    def test_out_of_range(self):
        with pytest.raises(InputError):
            mutate_matrix(((0, -1), (1, 0)), 3)

    def test_involution(self):
        for t, n in [("A", 3), ("B", 3), ("C", 3), ("G", 2), ("F", 4)]:
            m = build_bc(spec_of(t, n), CoxeterElement(tuple(range(1, n + 1)))).entries
            for k in range(1, n + 1):
                assert mutate_matrix(mutate_matrix(m, k), k) == m


class TestFrames:
    def test_initial(self):
        f = identity_frame(build_bc(A2, C21))
        eye = ((1, 0), (0, 1))
        assert f.c_matrix == eye and f.g_matrix == eye and f.path == ()

    def test_single_mutation(self):
        f = frame_mutate(identity_frame(build_bc(A2, C21)), 1)
        assert {f.c_column(1), f.c_column(2)} == {(-1, 0), (0, 1)}
        assert {f.g_column(1), f.g_column(2)} == {(-1, 0), (0, 1)}

    def test_involution(self):
        f0 = identity_frame(build_bc(A2, C21))
        f = frame_mutate(frame_mutate(f0, 2), 2)
        assert (f.b.entries, f.c_matrix, f.g_matrix) == (f0.b.entries, f0.c_matrix, f0.g_matrix)
        assert f.path == (2, 2)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([("A", 3), ("B", 3), ("C", 3), ("G", 2)]),
        st.lists(st.integers(min_value=1, max_value=2), min_size=0, max_size=8),
    )
    def test_random_paths_keep_invariants(self, typ, path):
        spec = spec_of(*typ)
        f = identity_frame(build_bc(spec, CoxeterElement(tuple(range(1, spec.rank + 1)))))
        for k in path:
            f = frame_mutate(f, k)
        check_duality(f)
        assert frame_is_unimodular(f)


class TestTauInverseFrame:
    """The tau_c^-1 image of the initial cluster: the sink sweep c_n, ..., c_1."""

    @staticmethod
    def sink_sweep(spec, c):
        f = identity_frame(build_bc(spec, c))
        for k in reversed(c.order):
            f = frame_mutate(f, k)
        return f

    def test_a2_initial(self):
        f = self.sink_sweep(A2, C21)
        assert f.c_matrix == ((-1, 0), (0, -1))
        # B is restored by the full sink-mutation sweep.
        assert f.b.entries == build_bc(A2, C21).entries

    def test_a1(self):
        a1 = cartan_matrix("A", 1)
        f = self.sink_sweep(a1, CoxeterElement((1,)))
        assert f.c_matrix == ((-1,),)

    def test_b_restored(self):
        for t, n in [("B", 3), ("G", 2), ("A", 3)]:
            spec = spec_of(t, n)
            c = CoxeterElement(tuple(range(1, n + 1)))
            f = self.sink_sweep(spec, c)
            assert f.c_matrix == tuple(tuple(-1 if i == j else 0 for j in range(n)) for i in range(n))
            assert f.b.entries == build_bc(spec, c).entries

import re
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from cambrian.errors import InputError, InternalError
from cambrian.mutation import ExchangeMatrix, _det, build_bc, check_duality, frame_is_unimodular, identity_frame
from cambrian.rootsys import CoxeterElement, cartan_matrix

from conftest import (
    RANK_LE_4,
    derived_b,
    exchange_of,
    frame_mutate,
    mutate_matrix,
    row_major_frame_mutate,
    spec_of,
    stored_frame,
)

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
            assert build_bc(spec, c).negated().entries == build_bc(spec, CoxeterElement(c.order[::-1])).entries

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
        out = mutate_matrix(ext, 2)
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


@st.composite
def integer_matrices(draw):
    # Small bounds give many zero pivots and singular matrices, large ones
    # big intermediate Bareiss entries.
    n = draw(st.integers(min_value=0, max_value=8))
    bound = draw(st.sampled_from((1, 3, 10**6)))
    entry = st.integers(min_value=-bound, max_value=bound)
    return tuple(tuple(draw(entry) for _ in range(n)) for _ in range(n))


class TestDeterminant:
    @settings(max_examples=300, deadline=None)
    @given(integer_matrices())
    def test_matches_sympy(self, m):
        assert _det(m) == sympy.Matrix(len(m), len(m), [x for row in m for x in row]).det()

    def test_inexact_step_raises(self):
        with pytest.raises(InternalError):
            _det(((Fraction(1, 2), 1), (1, 1)))


class TestFrames:
    def test_initial(self):
        f = identity_frame(build_bc(A2, C21))
        eye = ((1, 0), (0, 1))
        assert f.c_vectors == eye and f.g_vectors == eye and f.path == ()

    def test_single_mutation(self):
        f = frame_mutate(identity_frame(build_bc(A2, C21)), 1)
        assert {f.c_column(1), f.c_column(2)} == {(-1, 0), (0, 1)}
        assert {f.g_column(1), f.g_column(2)} == {(-1, 0), (0, 1)}

    def test_involution(self):
        f0 = identity_frame(build_bc(A2, C21))
        f = frame_mutate(frame_mutate(f0, 2), 2)
        assert (derived_b(f), f.c_vectors, f.g_vectors) == (build_bc(A2, C21).entries, f0.c_vectors, f0.g_vectors)
        assert f.path == (2, 2)

    def test_non_integral_b_names_the_witness_path(self):
        # S B_t = C^T (S B_0) C is integral, but B_t is integral only for a
        # frame that mutation reached.  In C3 (S = (1, 1, 2)) the c-vector
        # (0, 1, 0) at position 3 of the frame at path (1,) gives s_3 b_31 = 1.
        f = frame_mutate(identity_frame(build_bc(spec_of("C", 3), CoxeterElement((1, 2, 3)))), 1)
        bad = f._replace(c_vectors=f.c_vectors[:2] + ((0, 1, 0),))
        message = "witness path (1,): S^-1 C^T S B_0 C is not integral at (3, 1)"
        with pytest.raises(InternalError, match=re.escape(message)):
            frame_mutate(bad, 1)

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


@st.composite
def coxeter_paths(draw):
    t, n = draw(st.sampled_from(RANK_LE_4))
    c = CoxeterElement(tuple(draw(st.permutations(range(1, n + 1)))))
    return spec_of(t, n), c, draw(st.lists(st.integers(min_value=1, max_value=n), max_size=10))


@settings(max_examples=60, deadline=None)
@given(coxeter_paths())
def test_column_step_matches_row_major_oracle(case):
    spec, c, path = case
    f = identity_frame(build_bc(spec, c))
    eye = tuple(tuple(int(i == j) for j in range(spec.rank)) for i in range(spec.rank))
    b, cm, gm = build_bc(spec, c).entries, eye, eye
    for k in path:
        f = frame_mutate(f, k)
        b, cm, gm = row_major_frame_mutate(b, cm, gm, k)
        assert derived_b(f) == b
        ExchangeMatrix(b, f.skew_symmetrizer)  # still skew-symmetric
        assert f.c_vectors == tuple(zip(*cm)) and f.g_vectors == tuple(zip(*gm))
    assert f.path == tuple(path)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(RANK_LE_4), st.data())
def test_stored_frames_are_unimodular(typ, data):
    # The builds take no determinant: duality G^T S C = S implies
    # |det C| = 1.  Assert it on every frame both exchange builds store.
    order = tuple(data.draw(st.permutations(range(1, typ[1] + 1))))
    for sign in ("plus", "minus"):
        q = exchange_of(*typ, order, sign)
        assert all(frame_is_unimodular(stored_frame(q, p)) for p in q.vertices)


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
        assert f.c_vectors == ((-1, 0), (0, -1))
        # B is restored by the full sink-mutation sweep.
        assert derived_b(f) == build_bc(A2, C21).entries

    def test_a1(self):
        a1 = cartan_matrix("A", 1)
        f = self.sink_sweep(a1, CoxeterElement((1,)))
        assert f.c_vectors == ((-1,),)

    def test_b_restored(self):
        for t, n in [("B", 3), ("G", 2), ("A", 3)]:
            spec = spec_of(t, n)
            c = CoxeterElement(tuple(range(1, n + 1)))
            f = self.sink_sweep(spec, c)
            assert f.c_vectors == tuple(tuple(-1 if i == j else 0 for j in range(n)) for i in range(n))
            assert derived_b(f) == build_bc(spec, c).entries

import pytest

from cambrian.errors import InputError, InternalError
from cambrian.laurent import (
    LaurentPolynomial,
    TropicalElement,
    denominator_vector,
    initial_seed,
    mutate_seed,
    poly_str,
    theta,
    var_degree,
)
from cambrian.mutation import build_bc
from cambrian.rootsys import CoxeterElement, almost_positive_roots, cartan_matrix

from conftest import exchange_of, spec_of

A2 = cartan_matrix("A", 2)
C21 = CoxeterElement((2, 1))


def lp(nvars, d):
    return LaurentPolynomial.from_dict(nvars, d)


class TestArithmetic:
    def test_add_mul(self):
        x1 = LaurentPolynomial.generator(2, 0)
        x2 = LaurentPolynomial.generator(2, 1)
        s = x1 + x2 + LaurentPolynomial.one(2)
        assert s.terms == (((1, 0), 1), ((0, 1), 1), ((0, 0), 1))
        assert (x1 * x2).terms == (((1, 1), 1),)
        assert (s + (-s)).is_zero()

    def test_pow(self):
        x1 = LaurentPolynomial.generator(1, 0)
        assert ((x1 + LaurentPolynomial.one(1)) ** 2).terms == (
            ((2,), 1),
            ((1,), 2),
            ((0,), 1),
        )
        with pytest.raises(InputError):
            x1 ** -1

    def test_exact_div(self):
        x1 = LaurentPolynomial.generator(2, 0)
        x2 = LaurentPolynomial.generator(2, 1)
        num = x1 * x2 + x2
        assert num.exact_div(x2).terms == (((1, 0), 1), ((0, 0), 1))
        assert num.exact_div(x1 + LaurentPolynomial.one(2)) == x2

    def test_division_by_monomial_is_laurent(self):
        x1 = LaurentPolynomial.generator(2, 0)
        x2 = LaurentPolynomial.generator(2, 1)
        q = (x1 + LaurentPolynomial.one(2)).exact_div(x2)
        assert q.terms == (((1, -1), 1), ((0, -1), 1))

    def test_inexact_coefficient(self):
        three = lp(1, {(1,): 3})
        two = lp(1, {(1,): 2})
        with pytest.raises(InternalError):
            three.exact_div(two)

    def test_zero_divisor(self):
        with pytest.raises(InputError):
            LaurentPolynomial.one(1).exact_div(LaurentPolynomial.zero(1))

    def test_poly_str(self):
        p = lp(2, {(1, 0): 1, (0, -1): -2, (0, 0): 1})
        assert poly_str(p) == "x1 + 1 - 2*x2^-1"


class TestTropical:
    def test_ops(self):
        a = TropicalElement((1, -2))
        b = TropicalElement((0, 3))
        assert (a * b).exponents == (1, 1)
        assert a.inverse().exponents == (-1, 2)
        assert a.oplus(b).exponents == (0, -2)
        assert a.oplus_one().exponents == (0, -2)
        assert (a ** 3).exponents == (3, -6)


class TestTrivialMutation:
    def test_a2_first_steps(self):
        seed = initial_seed(build_bc(A2, C21))
        s1 = mutate_seed(seed, 2)
        assert s1.vars[1].terms == (((1, -1), 1), ((0, -1), 1))  # (x1+1)/x2
        s2 = mutate_seed(s1, 1)
        assert s2.vars[0].terms == (
            ((0, -1), 1),
            ((-1, 0), 1),
            ((-1, -1), 1),
        )  # (x1+x2+1)/(x1*x2)

    def test_five_step_period(self):
        # The A2 pentagon: after mutations 2,1,2,1,2 the cluster is (x2, x1).
        seed = initial_seed(build_bc(A2, C21))
        for k in (2, 1, 2, 1, 2):
            seed = mutate_seed(seed, k)
        x1 = LaurentPolynomial.generator(2, 0)
        x2 = LaurentPolynomial.generator(2, 1)
        assert seed.vars == (x2, x1)

    def test_direction_range(self):
        seed = initial_seed(build_bc(A2, C21))
        with pytest.raises(InputError):
            mutate_seed(seed, 0)


class TestPrincipalTable:
    """Tropical specialization of the full A2 coefficient table.

    Seeds t0..t5 sit along the path 2,1,2,1,2 from the initial seed of
    B = [[0,-1],[1,0]].  Variable exponents are (x1, x2, y1, y2).
    """

    # (y1 exponents, y2 exponents) per row.
    Y_ROWS = [
        (((1, 0)), (0, 1)),
        ((1, 1), (0, -1)),
        ((-1, -1), (1, 0)),
        ((0, -1), (-1, 0)),
        ((0, 1), (-1, 0)),
        ((0, 1), (1, 0)),
    ]
    X1 = (((1, 0, 0, 0), 1),)
    X2 = (((0, 1, 0, 0), 1),)
    # (x1 + y2)/x2 after dropping y2+1 to its tropical monomial (= 1).
    X_T1 = (((1, -1, 0, 0), 1), ((0, -1, 0, 1), 1))
    # (x2*y1*y2 + y2 + x1)/(x1*x2).
    X_T2 = (((-1, 0, 1, 1), 1), ((0, -1, 0, 0), 1), ((-1, -1, 0, 1), 1))
    # (x2*y1 + 1)/x1.
    X_T3 = (((-1, 1, 1, 0), 1), ((-1, 0, 0, 0), 1))
    X_ROWS = [
        (X1, X2),
        (X1, X_T1),
        (X_T2, X_T1),
        (X_T2, X_T3),
        (X2, X_T3),
        (X2, X1),
    ]

    def test_table(self):
        seed = initial_seed(build_bc(A2, C21), "principal")
        rows = [seed]
        for k in (2, 1, 2, 1, 2):
            seed = mutate_seed(seed, k)
            rows.append(seed)
        for t, row in enumerate(rows):
            y1, y2 = self.Y_ROWS[t]
            assert row.coeffs[0].exponents == tuple(y1), f"row {t}"
            assert row.coeffs[1].exponents == tuple(y2), f"row {t}"
            x1, x2 = self.X_ROWS[t]
            assert set(row.vars[0].terms) == set(x1), f"row {t}"
            assert set(row.vars[1].terms) == set(x2), f"row {t}"

    def test_tropical_matches_c_matrix(self):
        seed = initial_seed(build_bc(A2, C21), "principal")
        for k in (2, 1, 2, 1, 2):
            seed = mutate_seed(seed, k)
            for j in range(2):
                assert seed.coeffs[j].exponents == seed.frame.c_column(j + 1)

    def test_g_vector_readback(self):
        # Principal-mode variables are homogeneous and their degrees are the
        # G-matrix columns, at every seed of several small types.
        for t, n, order in [("A", 2, (2, 1)), ("B", 2, (1, 2)), ("G", 2, (2, 1)), ("A", 3, (1, 2, 3))]:
            spec = spec_of(t, n)
            b = build_bc(spec, CoxeterElement(order))
            quiver = exchange_of(t, n, order)
            for payload in quiver.vertices:
                seed = initial_seed(b, "principal")
                for k in payload.witness_path:
                    seed = mutate_seed(seed, k)
                for j in range(n):
                    assert var_degree(seed.vars[j], b) == seed.frame.g_column(j + 1)


class TestDenominatorTheta:
    def test_examples(self):
        x1 = LaurentPolynomial.generator(2, 0)
        assert denominator_vector(x1) == (-1, 0)
        top = lp(2, {(0, -1): 1, (-1, 0): 1, (-1, -1): 1})
        assert denominator_vector(top) == (1, 1)
        mid = lp(2, {(-1, 1): 1, (-1, 0): 1})
        assert denominator_vector(mid) == (1, 0)
        assert theta(A2, C21, top) == (1, 1)
        assert theta(A2, C21, mid) == (1, 0)
        x2 = LaurentPolynomial.generator(2, 1)
        assert theta(A2, C21, x2) == (0, -1)

    def test_zero(self):
        with pytest.raises(InputError):
            denominator_vector(LaurentPolynomial.zero(2))

    def test_theta_bijective(self):
        for t, n, order in [("A", 2, (2, 1)), ("B", 2, (1, 2)), ("A", 3, (2, 1, 3))]:
            spec = spec_of(t, n)
            c = CoxeterElement(order)
            quiver = exchange_of(t, n, order)
            variables = set()
            for payload in quiver.vertices:
                variables.update(payload.variables)
            images = {theta(spec, c, v) for v in variables}
            assert len(images) == len(variables)
            assert images == set(almost_positive_roots(spec))

    def test_same_variables_from_negated_matrix(self):
        # The cluster-variable sets of B and -B coincide.
        for t, n, order in [("A", 2, (2, 1)), ("B", 2, (1, 2)), ("A", 3, (1, 2, 3))]:
            plus = exchange_of(t, n, order, "plus")
            minus = exchange_of(t, n, order, "minus")
            vp = {v for p in plus.vertices for v in p.variables}
            vm = {v for p in minus.vertices for v in p.variables}
            assert vp == vm

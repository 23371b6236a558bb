import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cambrian.errors import InputError, InternalError
from cambrian.laurent import (
    LaurentPolynomial,
    VariableTable,
    _pack,
    _place_values,
    _product,
    denominator_vector,
    poly_str,
    theta,
)
from cambrian.mutation import build_bc
from cambrian.oracles import TropicalElement, initial_seed, mutate_seed, var_degree
from cambrian.rootsys import CoxeterElement, almost_positive_roots, cartan_matrix

from conftest import exact_div, exchange_of, lp_pow, spec_of

A2 = cartan_matrix("A", 2)
C21 = CoxeterElement((2, 1))


def lp(nvars, d):
    return LaurentPolynomial.from_dict(nvars, d)


class TestArithmetic:
    def test_add_mul(self):
        x1 = LaurentPolynomial.generator(2, 0)
        x2 = LaurentPolynomial.generator(2, 1)
        s = x1 + x2 + lp(2, {(0, 0): 1})
        assert s.terms == (((1, 0), 1), ((0, 1), 1), ((0, 0), 1))
        assert (x1 * x2).terms == (((1, 1), 1),)
        assert (s + lp(2, {e: -c for e, c in s.terms})).is_zero()

    def test_pow(self):
        x1 = LaurentPolynomial.generator(1, 0)
        assert lp_pow(x1 + lp(1, {(0,): 1}), 2).terms == (
            ((2,), 1),
            ((1,), 2),
            ((0,), 1),
        )
        with pytest.raises(InputError):
            lp_pow(x1, -1)

    def test_exact_div(self):
        x1 = LaurentPolynomial.generator(2, 0)
        x2 = LaurentPolynomial.generator(2, 1)
        num = x1 * x2 + x2
        assert exact_div(num, x2).terms == (((1, 0), 1), ((0, 0), 1))
        assert exact_div(num, x1 + lp(2, {(0, 0): 1})) == x2

    def test_division_by_monomial_is_laurent(self):
        x1 = LaurentPolynomial.generator(2, 0)
        x2 = LaurentPolynomial.generator(2, 1)
        q = exact_div(x1 + lp(2, {(0, 0): 1}), x2)
        assert q.terms == (((1, -1), 1), ((0, -1), 1))

    def test_inexact_coefficient(self):
        three = lp(1, {(1,): 3})
        two = lp(1, {(1,): 2})
        with pytest.raises(InternalError):
            exact_div(three, two)

    def test_zero_divisor(self):
        with pytest.raises(InputError):
            exact_div(lp(1, {(0,): 1}), LaurentPolynomial(1, ()))

    @pytest.mark.parametrize(
        "num,den",
        [
            ({(1, 0): 1, (0, 1): 1}, {(1, 0): 1, (0, 1): -1}),  # (x1+x2)/(x1-x2)
            ({(0, 0): 1}, {(1, 0): 1, (0, 0): 1}),  # 1/(1+x1)
            ({(2, 0): 1, (0, 1): 1}, {(1, 0): 1, (0, 1): 1}),  # (x1^2+x2)/(x1+x2)
        ],
    )
    def test_inexact_division_fails_at_once(self, num, den):
        # Each quotient exponent must stay in the box [lo_num - lo_den,
        # hi_num - hi_den]; these leave it within a few steps.
        with pytest.raises(InternalError, match="inexact division"):
            exact_div(lp(2, num), lp(2, den))

    def test_zero_numerator(self):
        assert exact_div(LaurentPolynomial(2, ()), lp(2, {(1, 0): 1, (0, 1): 1})).is_zero()

    def test_monomial_divisor(self):
        num = lp(3, {(2, -1, 0): 3, (0, 1, 1): -6, (-1, 0, 0): 9})
        assert exact_div(num, lp(3, {(1, -2, 1): -3})) == lp(3, {(1, 1, -1): -1, (-1, 3, 0): 2, (-2, 2, -1): -3})
        with pytest.raises(InternalError, match="inexact division"):
            exact_div(num, lp(3, {(1, 0, 0): 2}))

    def test_hash_is_taken_once_and_follows_the_terms(self):
        # Equal polynomials built apart hash alike, and a polynomial with
        # other terms gets its own hash.
        x1, x2 = LaurentPolynomial.generator(2, 0), LaurentPolynomial.generator(2, 1)
        a, b = x1 * x2 + x1, lp(2, {(1, 0): 1, (1, 1): 1})
        assert a is not b and a == b and hash(a) == hash(b)
        assert {a: 1}[b] == 1
        doubled = LaurentPolynomial(a.nvars, tuple((e, 2 * c) for e, c in a.terms))
        assert doubled != a and hash(doubled) == hash((2, doubled.terms)) != hash(a)
        assert a != LaurentPolynomial(3, a.terms)
        assert repr(b) == "LaurentPolynomial(nvars=2, terms=(((1, 1), 1), ((1, 0), 1)))"

    def test_poly_str(self):
        p = lp(2, {(1, 0): 1, (0, -1): -2, (0, 0): 1})
        assert poly_str(p) == "x1 + 1 - 2*x2^-1"

    def test_poly_str_zero_and_signs(self):
        assert poly_str(LaurentPolynomial(2, ())) == "0"
        assert poly_str(lp(2, {(1, 0): -1, (0, 1): 2})) == "-x1 + 2*x2"
        assert poly_str(lp(2, {(1, 0): 1, (0, 1): -1})) == "x1 - x2"


class TestProduct:
    """_product against tuple-exponent __mul__ (lp_pow), on a radix that
    holds every product here: keys of a box from x^-9 to x^9 per variable."""

    WEIGHTS = _place_values((-9, -9), (9, 9))
    U, W = lp(2, {(1, 0): 1, (0, -1): 2, (0, 0): -1}), lp(2, {(1, 1): 3, (-1, 0): -1})

    def packed_product(self, factors):
        return _product([(_pack(p.terms, self.WEIGHTS), m) for p, m in factors])

    def expected(self, factors):
        out = lp(2, {(0, 0): 1})
        for p, m in factors:
            out = out * lp_pow(p, m)
        return dict(_pack(out.terms, self.WEIGHTS))

    @pytest.mark.parametrize("powers", [(), ((0, 1),), ((0, 3),), ((0, 2), (1, 1)), ((1, 1), (0, 1), (1, 2))],
                             ids=["none", "one factor", "a power", "two factors", "three factors"])
    def test_matches_tuple_multiplication(self, powers):
        # No factor is the unit {0: 1}, the empty M+ or M- of a source or a sink.
        factors = [((self.U, self.W)[i], m) for i, m in powers]
        got = self.packed_product(factors)
        assert {k: c for k, c in got.items() if c} == self.expected(factors)
        assert powers or got == {0: 1}

    def test_adding_into_a_product_leaves_the_packed_terms(self):
        # VariableTable.exchange adds M- into the dict of M+ in place; M+ of
        # one factor to the first power starts as a copy of its packed terms.
        table = VariableTable(2)
        u, w = table.add(self.U), table.add(self.W)
        before = [list(p) for p in table.packed]
        num = _product([(table.packed[u], 1)])
        for key, c in _product([(table.packed[w], 1)]).items():
            num[key] = num.get(key, 0) + c
        assert table.packed == before
        summed = {}
        for key, c in (*before[u], *before[w]):
            summed[key] = summed.get(key, 0) + c
        assert num == summed


@st.composite
def polynomial(draw, nvars, max_terms=5):
    exponents = st.tuples(*[st.integers(-3, 3)] * nvars)
    coefficients = st.integers(-4, 4).filter(bool)
    return lp(nvars, draw(st.dictionaries(exponents, coefficients, min_size=1, max_size=max_terms)))


@st.composite
def quotient_and_divisor(draw):
    nvars = draw(st.integers(2, 4))
    return draw(polynomial(nvars)), draw(polynomial(nvars)), nvars


def packings(data, nvars):
    """The margins of the two packings exact_div divides on: None, the
    numerator's box, and a drawn margin per coordinate, 0 (the box again)
    included, a radix wider than the box as a VariableTable's is."""
    return None, data.draw(st.tuples(*[st.integers(0, 3)] * nvars))


class TestDivisionProperties:
    """The packed division of the exchanges (exact_div) against the tuple
    arithmetic of __mul__ and __add__, on both packings."""

    @settings(deadline=None, max_examples=100)
    @given(quotient_and_divisor(), st.data())
    def test_multiple_divides_back(self, case, data):
        q, d, nvars = case
        for margins in packings(data, nvars):
            assert exact_div(q * d, d, margins) == q

    @settings(deadline=None, max_examples=100)
    @given(quotient_and_divisor(), st.data())
    def test_non_multiple_raises(self, case, data):
        # A divisor with two or more terms has no monomial multiple (the
        # Newton polytope of a product is the Minkowski sum of its factors'),
        # so q*d plus a monomial is never a multiple of d.
        q, d, nvars = case
        assume(len(d.terms) >= 2)
        extra = data.draw(polynomial(nvars, max_terms=1))
        for margins in packings(data, nvars):
            with pytest.raises(InternalError, match="inexact division"):
                exact_div(q * d + extra, d, margins)

    @settings(deadline=None, max_examples=100)
    @given(quotient_and_divisor(), st.data())
    def test_quotient_multiplies_back_or_raises(self, case, data):
        _, d, nvars = case
        num = data.draw(polynomial(nvars))
        for margins in packings(data, nvars):
            try:
                q = exact_div(num, d, margins)
            except InternalError as exc:
                assert "inexact division" in str(exc)
            else:
                assert q * d == num


class TestTropical:
    def test_ops(self):
        a = TropicalElement((1, -2))
        b = TropicalElement((0, 3))
        assert (a * b).exponents == (1, 1)
        assert a.inverse().exponents == (-1, 2)
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

    def test_unknown_coefficient_mode(self):
        with pytest.raises(InputError, match="unknown coefficient mode 'other'"):
            initial_seed(build_bc(A2, C21), "other")

    def test_var_degree_refusals(self):
        # The grading is of principal-mode variables (x1, x2, y1, y2) only,
        # and x1 + y1 has two degrees.
        b = build_bc(A2, C21)
        with pytest.raises(InputError, match="principal-mode"):
            var_degree(LaurentPolynomial.generator(2, 0), b)
        with pytest.raises(InternalError, match="variable is not homogeneous under the principal grading"):
            var_degree(lp(4, {(1, 0, 0, 0): 1, (0, 0, 1, 0): 1}), b)

    def test_coefficients_must_match_c_matrix(self):
        # Reversed, the coefficients are y2, y1: mutating at 1 gives them
        # exponents other than the columns of the frame's C-matrix.
        seed = initial_seed(build_bc(A2, C21), "principal")
        with pytest.raises(InternalError, match="tropical coefficients disagree with the C-matrix"):
            mutate_seed(seed._replace(coeffs=seed.coeffs[::-1]), 1)

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
        assert theta(A2, top) == (1, 1)
        assert theta(A2, mid) == (1, 0)
        x2 = LaurentPolynomial.generator(2, 1)
        assert theta(A2, x2) == (0, -1)

    def test_zero(self):
        with pytest.raises(InputError):
            denominator_vector(LaurentPolynomial(2, ()))

    def test_theta_refuses_other_denominators(self):
        with pytest.raises(InternalError, match=re.escape("denominator vector (2, 0) is not an almost positive root")):
            theta(A2, lp(2, {(-2, 0): 1}))

    def test_box_is_the_newton_box(self):
        # The box is computed once, with the polynomial: the lowest and
        # highest exponent of each variable, whose negated lower corner is
        # the denominator vector.  The zero polynomial's box is empty.
        p = lp(3, {(1, -2, 0): 3, (-1, 3, 0): 2, (0, 0, 1): -1})
        assert p.box == ((-1, -2, 0), (1, 3, 1))
        assert denominator_vector(p) == (1, 2, 0)
        assert LaurentPolynomial(2, ()).box == ((), ())
        with pytest.raises(AttributeError):
            p.box = ((0, 0, 0), (0, 0, 0))

    def test_theta_bijective(self):
        for t, n, order in [("A", 2, (2, 1)), ("B", 2, (1, 2)), ("A", 3, (2, 1, 3))]:
            spec = spec_of(t, n)
            quiver = exchange_of(t, n, order)
            variables = set()
            for payload in quiver.vertices:
                variables.update(payload.variables)
            images = {theta(spec, v) for v in variables}
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

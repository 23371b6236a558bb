"""Reference code that no command runs, the independent oracles of the tests:
principal-coefficient seeds (a variable of one lives in 2n variables, the
last n the tropical generators), vector frames and the full Weyl group.
"""

from __future__ import annotations

from operator import mul
from typing import NamedTuple

from .errors import InputError, InternalError
from .laurent import Exponent, Factors, LaurentPolynomial, _divide, _hull, _pack, _place_values, _product
from .mutation import ExchangeMatrix, MatrixFrame, _pair, column_sign, identity_frame
from .rootsys import CartanSpec, CoxeterElement, Matrix, Root, _identity, _matmul, positive_roots, reflection_matrix


class TropicalElement(NamedTuple):
    """A monomial in the tropical semifield, as its exponent vector."""

    exponents: Exponent

    def __mul__(self, other: "TropicalElement") -> "TropicalElement":
        return TropicalElement(tuple(a + b for a, b in zip(self.exponents, other.exponents)))

    def inverse(self) -> "TropicalElement":
        return TropicalElement(tuple(-a for a in self.exponents))

    def oplus_one(self) -> "TropicalElement":
        return TropicalElement(tuple(min(a, 0) for a in self.exponents))

    def __pow__(self, k: int) -> "TropicalElement":
        return TropicalElement(tuple(k * a for a in self.exponents))


class LabeledSeed(NamedTuple):
    """Cluster variables, tropical coefficients (principal mode) and a frame."""

    vars: tuple[LaurentPolynomial, ...]
    coeffs: tuple[TropicalElement, ...] | None
    frame: MatrixFrame


def initial_seed(b: ExchangeMatrix, coefficient_mode: str = "trivial") -> LabeledSeed:
    n = b.rank
    frame = identity_frame(b)
    if coefficient_mode == "trivial":
        xs = tuple(LaurentPolynomial.generator(n, i) for i in range(n))
        return LabeledSeed(xs, None, frame)
    if coefficient_mode == "principal":
        xs = tuple(LaurentPolynomial.generator(2 * n, i) for i in range(n))
        return LabeledSeed(xs, tuple(map(TropicalElement, _identity(n))), frame)
    raise InputError(f"unknown coefficient mode {coefficient_mode!r}")


def _y_monomial(n: int, exps: Exponent) -> LaurentPolynomial:
    return LaurentPolynomial.monomial(2 * n, (0,) * n + tuple(exps))


def _exchange(pos: Factors, neg: Factors, divisor: LaurentPolynomial) -> LaurentPolynomial:
    """(prod p^m over pos + prod p^m over neg) / divisor, packed over the hull of the two products' boxes."""
    lo, hi = _hull((pos, neg), divisor.nvars)
    weights = _place_values(lo, hi)
    num, minus = (_product([(_pack(p.terms, weights), m) for p, m in factors]) for factors in (pos, neg))
    for key, c in minus.items():
        num[key] = num.get(key, 0) + c
    return _divide(num, divisor, _pack(divisor.terms, weights), lo, hi, weights)


def mutate_seed(s: LabeledSeed, k: int) -> LabeledSeed:
    """Seed mutation in direction k (1-based), advancing the frame alongside;
    the seed's own coefficient mode decides the exchange relation.  Column k
    of B is the column step's, and row k follows from it: s_k b_kj = -s_j b_jk."""
    n, k0, sym = len(s.vars), k - 1, s.frame.skew_symmetrizer
    column, new_frame = mutate_columns(s.frame, k)  # raises InputError for k out of range
    pos = [(s.vars[i], b) for i, b in enumerate(column) if b > 0]
    neg = [(s.vars[i], -b) for i, b in enumerate(column) if b < 0]
    if s.coeffs is None:  # trivial coefficients
        new_xk = _exchange(pos, neg, s.vars[k0])
        new_coeffs = None
    else:
        yk = s.coeffs[k0]
        pos.append((_y_monomial(n, yk.exponents), 1))
        denom = _y_monomial(n, yk.oplus_one().exponents) * s.vars[k0]
        new_xk = _exchange(pos, neg, denom)
        row = (-sym[j] * b // sym[k0] for j, b in enumerate(column))  # b_kj
        new_coeffs = tuple(yk.inverse() if j == k0 else y * yk ** max(bkj, 0) * yk.oplus_one() ** -bkj
                           for j, (y, bkj) in enumerate(zip(s.coeffs, row)))
        if tuple(y.exponents for y in new_coeffs) != new_frame.c_vectors:
            raise InternalError("tropical coefficients disagree with the C-matrix")

    new_vars = tuple(new_xk if i == k0 else s.vars[i] for i in range(n))
    return LabeledSeed(new_vars, new_coeffs, new_frame)


def var_degree(x: LaurentPolynomial, initial_b: ExchangeMatrix) -> tuple[int, ...]:
    """Multidegree of a principal-mode variable under deg x_i = e_i, deg y_i = -b_i.

    Raises InternalError if the polynomial is not homogeneous.
    """
    n = initial_b.rank
    if x.nvars != 2 * n:
        raise InputError("degree grading applies to principal-mode variables")
    b = initial_b.entries
    deg = None
    for e, _ in x.terms:
        d = [e[i] - sum(e[n + j] * b[i][j] for j in range(n)) for i in range(n)]
        if deg is None:
            deg = d
        elif deg != d:
            raise InternalError("variable is not homogeneous under the principal grading")
    return tuple(deg)


def _det(m: Matrix) -> int:
    """Determinant by fraction-free (Bareiss) elimination: every division of
    the integer entries is exact, and a remainder raises InternalError."""
    n = len(m)
    a = [list(row) for row in m]
    sign, prev = 1, 1
    for k in range(n - 1):
        pivot = next((r for r in range(k, n) if a[r][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                q, r = divmod(a[i][j] * a[k][k] - a[i][k] * a[k][j], prev)
                if r:
                    raise InternalError(f"inexact Bareiss step in the determinant of {m}")
                a[i][j] = q
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1


def check_duality(frame: MatrixFrame) -> None:
    """Verify (G^T)^-1 = S C S^-1, in the integral form G^T S C = S: entry
    (i, j) is the S-weighted dot product of g_i and c_j."""
    s = frame.skew_symmetrizer
    for i, g in enumerate(frame.g_vectors):
        gs = tuple(map(mul, g, s))
        for j, c in enumerate(frame.c_vectors):
            if sum(map(mul, gs, c)) != (s[i] if i == j else 0):
                raise InternalError("C/G duality identity failed")


def mutate_columns(frame: MatrixFrame, k: int) -> tuple[tuple[int, ...], MatrixFrame]:
    """Column k (1-based) of the frame's B_t and the frame one mutation in
    direction k away (eps the sign of c_k, c'_k = -c_k), in O(n^2)."""
    k0, cs, gs, s = k - 1, frame.c_vectors, frame.g_vectors, frame.skew_symmetrizer
    if not 0 <= k0 < len(cs):
        raise InputError(f"mutation direction {k} out of range 1..{len(cs)}")
    ck, v = cs[k0], [sum(map(mul, row, cs[k0])) for row in frame.sb0]
    column, new_cs, gk, eps = [], list(cs), [-x for x in gs[k0]], column_sign(ck, frame.path)
    for j, (cj, gj, sj) in enumerate(zip(cs, gs, s)):
        b, new_cs[j], coef = _pair(cj, sj, ck, s[k0], v, eps, (frame.path, j + 1, k))
        column.append(b)
        if coef:
            gk = [x + coef * y for x, y in zip(gk, gj)]
    new_cs[k0] = tuple(-x for x in ck)
    return tuple(column), MatrixFrame(tuple(new_cs), gs[:k0] + (tuple(gk),) + gs[k:], frame.path + (k,), frame.sb0, s)


def frame_is_unimodular(frame: MatrixFrame) -> bool:
    return abs(_det(frame.c_vectors)) == 1  # the rows of C^T, and det C^T = det C


class WeylElement(NamedTuple):
    """A Weyl group element acting on root coefficient vectors.

    matrix is the action of w, inv_matrix the action of w^-1; both are kept so
    inversion and descent tests need no matrix inversion.
    """

    matrix: Matrix
    inv_matrix: Matrix

    @classmethod
    def identity(cls, n: int) -> "WeylElement":
        eye = _identity(n)
        return cls(eye, eye)

    def times_reflection(self, spec: CartanSpec, i: int) -> "WeylElement":
        """Right multiplication w * s_i."""
        r = reflection_matrix(spec, i)
        return WeylElement(_matmul(self.matrix, r), _matmul(r, self.inv_matrix))

    def root_image(self, v: Root) -> Root:
        return tuple(sum(map(mul, row, v)) for row in self.matrix)

    def inv_root_image(self, v: Root) -> Root:
        return tuple(sum(map(mul, row, v)) for row in self.inv_matrix)


def weyl_group_elements(spec: CartanSpec) -> tuple[WeylElement, ...]:
    """The full Weyl group, by closure under right multiplication (oracle use)."""
    n = spec.rank
    e = WeylElement.identity(n)
    seen: dict[Matrix, WeylElement] = {e.matrix: e}
    frontier = [e]
    while frontier:
        nxt = []
        for w in frontier:
            for i in range(1, n + 1):
                w2 = w.times_reflection(spec, i)
                if w2.matrix not in seen:
                    seen[w2.matrix] = w2
                    nxt.append(w2)
        frontier = nxt
    return tuple(seen.values())


def greedy_sorting_word(
    spec: CartanSpec, c: CoxeterElement, w: WeylElement
) -> tuple[tuple[int, ...], ...]:
    """The c-sorting word of w as subset blocks: scan c^infinity, taking a
    letter whenever it is a left descent of the remainder."""
    eye, remainder, blocks = _identity(spec.rank), w, []
    while remainder.matrix != eye:
        if len(blocks) > 4 * len(positive_roots(spec)):
            raise InternalError("sorting-word scan did not terminate")
        block = []
        for i in c.order:
            # s_i is a left descent of v iff v^-1(alpha_i) is negative.
            if min(remainder.inv_root_image(eye[i - 1])) < 0:
                block.append(i)
                r = reflection_matrix(spec, i)
                remainder = WeylElement(_matmul(r, remainder.matrix), _matmul(remainder.inv_matrix, r))
        if not block:
            raise InternalError("no descent found for a non-identity element")
        blocks.append(tuple(block))
    return tuple(blocks)


def is_decreasing_chain(blocks: tuple[tuple[int, ...], ...]) -> bool:
    sets = [set(b) for b in blocks]
    return all(sets[i + 1] <= sets[i] for i in range(len(sets) - 1))

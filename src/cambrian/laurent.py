"""Exact Laurent-polynomial seeds, tropical coefficients, and the root map.

Cluster variables are kept fully expanded in the initial variables, so each
exchange (_exchange: per mutate_seed, and per relation of the exchange builds
of B and -B together through quivers.VariableTable) is one exact division;
an inexact division is a hard internal error, never a recoverable condition.
The exchange runs on packed exponents with a heap-ordered division (_divide),
which exact_div shares; __mul__, __add__ and __pow__ are the plain
tuple-exponent arithmetic.  Sign coherence, duality and unimodularity are
asserted on the frames that are kept (mutation.check_frame).  In
principal-coefficient mode a variable lives in 2n variables: the first n
exponents are the initial cluster variables, the last n the tropical
generators.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from operator import mul

from .errors import InputError, InternalError
from .mutation import ExchangeMatrix, MatrixFrame, identity_frame, mutate_columns
from .rootsys import CartanSpec, CoxeterElement, Root, is_almost_positive

Exponent = tuple[int, ...]


@dataclass(frozen=True)
class LaurentPolynomial:
    """Integer Laurent polynomial, terms sorted descending-lex by exponent, hashed once (it keys many tables)."""

    nvars: int
    terms: tuple[tuple[Exponent, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.nvars, self.terms)))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def from_dict(cls, nvars: int, d: dict[Exponent, int]) -> "LaurentPolynomial":
        items = tuple(sorted(((e, c) for e, c in d.items() if c != 0), reverse=True))
        return cls(nvars, items)

    @classmethod
    def zero(cls, nvars: int) -> "LaurentPolynomial":
        return cls(nvars, ())

    @classmethod
    def monomial(cls, nvars: int, exps: Exponent, coeff: int = 1) -> "LaurentPolynomial":
        if coeff == 0:
            return cls.zero(nvars)
        return cls(nvars, ((tuple(exps), coeff),))

    @classmethod
    def generator(cls, nvars: int, i: int) -> "LaurentPolynomial":
        """The variable x_{i+1} (0-based index i)."""
        return cls.monomial(nvars, tuple(1 if j == i else 0 for j in range(nvars)))

    @classmethod
    def one(cls, nvars: int) -> "LaurentPolynomial":
        return cls.monomial(nvars, (0,) * nvars)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        d = dict(self.terms)
        for e, c in other.terms:
            d[e] = d.get(e, 0) + c
        return LaurentPolynomial.from_dict(self.nvars, d)

    def __neg__(self) -> "LaurentPolynomial":
        return LaurentPolynomial(self.nvars, tuple((e, -c) for e, c in self.terms))

    def __mul__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        d: dict[Exponent, int] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = tuple(a + b for a, b in zip(e1, e2))
                d[e] = d.get(e, 0) + c1 * c2
        return LaurentPolynomial.from_dict(self.nvars, d)

    def __pow__(self, k: int) -> "LaurentPolynomial":
        if k < 0:
            raise InputError("negative powers are not defined for polynomials")
        out = LaurentPolynomial.one(self.nvars)
        for _ in range(k):
            out = out * self
        return out

    def exact_div(self, divisor: "LaurentPolynomial") -> "LaurentPolynomial":
        """Exact division; raises InternalError if the quotient is not Laurent."""
        if divisor.is_zero():
            raise InputError("division by the zero polynomial")
        if self.is_zero():
            return self
        lo, hi = _box(self.terms)
        weights = _place_values(lo, hi)
        return _divide(dict(_pack(self.terms, weights)), divisor, lo, hi, weights)


# The exact-division kernel shared by exact_div and _exchange.  An exponent e
# inside a box [lo, hi] packs to the integer sum(e_j * w_j), where the place
# values w are the mixed radix of the box with the first coordinate most
# significant.  Packing is additive, so a product of terms is a sum of keys,
# and on any box no wider than [lo, hi] it is injective and keeps the
# descending-lex order of LaurentPolynomial.terms.


def _box(terms: Sequence[tuple[Exponent, int]]) -> tuple[Exponent, Exponent]:
    """Lowest and highest exponent of each variable over the terms."""
    columns = tuple(zip(*(e for e, _ in terms)))
    return tuple(map(min, columns)), tuple(map(max, columns))


def _place_values(lo: Exponent, hi: Exponent) -> tuple[int, ...]:
    weights = [1] * len(lo)
    for j in range(len(lo) - 1, 0, -1):
        weights[j - 1] = weights[j] * (hi[j] - lo[j] + 1)
    return tuple(weights)


def _pack(terms: Sequence[tuple[Exponent, int]], weights: tuple[int, ...]) -> list[tuple[int, int]]:
    return [(sum(map(mul, e, weights)), c) for e, c in terms]


def _mul_packed(a: dict[int, int], b: list[tuple[int, int]]) -> dict[int, int]:
    out: dict[int, int] = {}
    get = out.get
    for ka, ca in a.items():
        for kb, cb in b:
            k = ka + kb
            out[k] = get(k, 0) + ca * cb
    return out


def _divide(
    num: dict[int, int],
    divisor: LaurentPolynomial,
    lo: Exponent,
    hi: Exponent,
    weights: tuple[int, ...],
) -> LaurentPolynomial:
    """num / divisor, num packed over the box [lo, hi] that holds its terms.

    The remainder's terms stay in [lo, hi] and sit in a max-heap of keys; each
    step divides its lead term by the divisor's.  An exact quotient lies in
    the box [lo - lo_div, hi - hi_div], so a quotient exponent outside it, or
    a coefficient that does not divide, proves the division inexact.  The
    exponent is checked on the digits of the lead term, decoded from its key.
    The lead term strictly decreases inside the finite box, so the loop ends.
    """
    (lead_e, lead_c), *rest = divisor.terms
    lead_k = sum(map(mul, lead_e, weights))
    rest = _pack(rest, weights)
    dlo, dhi = _box(divisor.terms)
    # (radix, lowest digit, highest digit, digit-to-quotient-exponent offset),
    # least significant coordinate first.
    digits = tuple(
        (h - l + 1, e - dl, h - l - (dh - e), l - e)
        for l, h, e, dl, dh in reversed(tuple(zip(lo, hi, lead_e, dlo, dhi)))
    )
    base = sum(map(mul, lo, weights))
    heap = [-k for k in num]
    heapify(heap)
    rem = num
    quot: dict[Exponent, int] = {}
    while rem:
        k = -heappop(heap)
        c = rem.pop(k, 0)
        if not c:
            continue
        u = k - base
        qe = []
        for radix, low, high, offset in digits:
            u, d = divmod(u, radix)
            if not low <= d <= high:
                raise InternalError("Laurent phenomenon violated (inexact division)")
            qe.append(d + offset)
        qc, r = divmod(c, lead_c)
        if r:
            raise InternalError("Laurent phenomenon violated (inexact division)")
        quot[tuple(reversed(qe))] = qc
        qk = k - lead_k
        for dk, dc in rest:
            key = qk + dk
            old = rem.get(key)
            if old is None:
                rem[key] = -qc * dc
                heappush(heap, -key)
            elif old == qc * dc:
                del rem[key]
            else:
                rem[key] = old - qc * dc
    return LaurentPolynomial.from_dict(divisor.nvars, quot)


def poly_str(p: LaurentPolynomial, names: tuple[str, ...] | None = None) -> str:
    if p.is_zero():
        return "0"
    if names is None:
        names = tuple(f"x{i + 1}" for i in range(p.nvars))
    parts = []
    for e, c in p.terms:
        factors = [f"{names[i]}^{k}" if k != 1 else names[i] for i, k in enumerate(e) if k]
        if not factors:
            parts.append(str(c))
        elif c == 1:
            parts.append("*".join(factors))
        elif c == -1:
            parts.append("-" + "*".join(factors))
        else:
            parts.append(f"{c}*" + "*".join(factors))
    s = " + ".join(parts)
    return s.replace("+ -", "- ")


def poly_hash(p: LaurentPolynomial) -> str:
    """Stable content hash used for compact serialization."""
    h = hashlib.sha256(repr((p.nvars, p.terms)).encode()).hexdigest()
    return h[:12]


@dataclass(frozen=True)
class TropicalElement:
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


@dataclass(frozen=True)
class LabeledSeed:
    """Cluster variables, tropical coefficients (principal mode) and a frame."""

    vars: tuple[LaurentPolynomial, ...]
    coeffs: tuple[TropicalElement, ...] | None
    frame: MatrixFrame

    @property
    def rank(self) -> int:
        return len(self.vars)

    @property
    def mode(self) -> str:
        return "trivial" if self.coeffs is None else "principal"


def initial_seed(b: ExchangeMatrix, coefficient_mode: str = "trivial") -> LabeledSeed:
    n = b.rank
    frame = identity_frame(b)
    if coefficient_mode == "trivial":
        xs = tuple(LaurentPolynomial.generator(n, i) for i in range(n))
        return LabeledSeed(xs, None, frame)
    if coefficient_mode == "principal":
        xs = tuple(LaurentPolynomial.generator(2 * n, i) for i in range(n))
        ys = tuple(
            TropicalElement(tuple(1 if j == i else 0 for j in range(n)))
            for i in range(n)
        )
        return LabeledSeed(xs, ys, frame)
    raise InputError(f"unknown coefficient mode {coefficient_mode!r}")


def _y_monomial(n: int, exps: Exponent) -> LaurentPolynomial:
    return LaurentPolynomial.monomial(2 * n, (0,) * n + tuple(exps))


def mutate_seed(s: LabeledSeed, k: int) -> LabeledSeed:
    """Seed mutation in direction k (1-based), advancing the frame alongside;
    the seed's own coefficient mode decides the exchange relation.  Column k
    of B is the column step's, and row k follows from it: s_k b_kj = -s_j b_jk."""
    n, k0, sym = s.rank, k - 1, s.frame.skew_symmetrizer
    column, new_frame = mutate_columns(s.frame, k)  # raises InputError for k out of range
    pos = [(s.vars[i], b) for i, b in enumerate(column) if b > 0]
    neg = [(s.vars[i], -b) for i, b in enumerate(column) if b < 0]
    if s.mode == "trivial":
        new_xk = _exchange(pos, neg, s.vars[k0])
        new_coeffs = None
    else:
        yk = s.coeffs[k0]
        pos.append((_y_monomial(n, yk.exponents), 1))
        denom = _y_monomial(n, yk.oplus_one().exponents) * s.vars[k0]
        new_xk = _exchange(pos, neg, denom)
        new_list = []
        for j in range(n):
            if j == k0:
                new_list.append(yk.inverse())
            else:
                bkj = -sym[j] * column[j] // sym[k0]
                yj = s.coeffs[j] * yk ** max(bkj, 0) * (yk.oplus_one() ** (-bkj))
                new_list.append(yj)
        new_coeffs = tuple(new_list)
        if tuple(y.exponents for y in new_coeffs) != new_frame.c_vectors:
            raise InternalError("tropical coefficients disagree with the C-matrix")

    new_vars = tuple(new_xk if i == k0 else s.vars[i] for i in range(n))
    return LabeledSeed(new_vars, new_coeffs, new_frame)


Factors = list[tuple[LaurentPolynomial, int]]  # (polynomial, power) pairs


def _exchange(pos: Factors, neg: Factors, divisor: LaurentPolynomial) -> LaurentPolynomial:
    """(prod p^m over pos + prod p^m over neg) / divisor, packed over the box
    of the numerator: a product's box is the sum of its factors' boxes."""
    nvars = divisor.nvars
    boxes = []
    for factors in (pos, neg):
        lo, hi = [0] * nvars, [0] * nvars
        for p, m in factors:
            plo, phi = _box(p.terms)
            lo = [a + m * x for a, x in zip(lo, plo)]
            hi = [a + m * x for a, x in zip(hi, phi)]
        boxes.append((lo, hi))
    (plo, phi), (nlo, nhi) = boxes
    lo, hi = tuple(map(min, plo, nlo)), tuple(map(max, phi, nhi))
    weights = _place_values(lo, hi)
    num = _product(pos, weights)
    for key, c in _product(neg, weights).items():
        num[key] = num.get(key, 0) + c
    return _divide({key: c for key, c in num.items() if c}, divisor, lo, hi, weights)


def _product(factors: Factors, weights: tuple[int, ...]) -> dict[int, int]:
    out = {0: 1}
    for p, m in factors:
        packed = _pack(p.terms, weights)
        for _ in range(m):
            out = _mul_packed(out, packed)
    return out


def denominator_vector(x: LaurentPolynomial, nx_vars: int | None = None) -> tuple[int, ...]:
    """d_i = -(minimal exponent of x_i); restricted to the first nx_vars variables."""
    if x.is_zero():
        raise InputError("denominator vector of the zero polynomial")
    n = nx_vars if nx_vars is not None else x.nvars
    return tuple(-min(e[i] for e, _ in x.terms) for i in range(n))


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


def theta(spec: CartanSpec, c: CoxeterElement, x: LaurentPolynomial) -> Root:
    """Denominator-vector root of a cluster variable; lands in Phi_{>=-1}."""
    d = denominator_vector(x, spec.rank)
    if not is_almost_positive(spec, d):
        raise InternalError(f"denominator vector {d} is not an almost positive root")
    return d

"""Exact Laurent polynomials, the builds' table of variables, the root map.

Cluster variables are kept fully expanded in the initial variables.  An
exchange is an exact division (_exchange), or, where the quotient is known,
a product check (VariableTable._exchange_holds), as strong since the
Laurent ring is a domain; either runs on packed exponents, and failing is a
hard internal error, never a recoverable condition.
__mul__ and __add__ are the plain tuple-exponent arithmetic.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from heapq import heapify, heappop, heappush
from operator import mul, sub

from .errors import InputError, InternalError
from .rootsys import CartanSpec, Root, is_almost_positive

Exponent = tuple[int, ...]


class LaurentPolynomial(namedtuple("LaurentPolynomial", "nvars terms box hash")):
    """Integer Laurent polynomial, terms sorted descending-lex by exponent, hashed once (it keys many
    tables) and boxed once: box is its Newton box (_box)."""

    __slots__ = ()

    def __new__(cls, nvars: int, terms: tuple[tuple[Exponent, int], ...]):
        return super().__new__(cls, nvars, terms, _box(terms), hash((nvars, terms)))

    def __getnewargs__(self):
        return self.nvars, self.terms

    @classmethod
    def _make(cls, iterable):
        nvars, terms, _, _ = iterable
        return cls(nvars, terms)

    def __hash__(self) -> int:
        return self.hash

    def __repr__(self) -> str:
        return f"LaurentPolynomial(nvars={self.nvars!r}, terms={self.terms!r})"

    @classmethod
    def from_dict(cls, nvars: int, d: dict[Exponent, int]) -> "LaurentPolynomial":
        items = tuple(sorted(((e, c) for e, c in d.items() if c != 0), reverse=True))
        return cls(nvars, items)

    @classmethod
    def monomial(cls, nvars: int, exps: Exponent) -> "LaurentPolynomial":
        return cls(nvars, ((tuple(exps), 1),))

    @classmethod
    def generator(cls, nvars: int, i: int) -> "LaurentPolynomial":
        """The variable x_{i+1} (0-based index i)."""
        return cls.monomial(nvars, tuple(1 if j == i else 0 for j in range(nvars)))

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        d = dict(self.terms)
        for e, c in other.terms:
            d[e] = d.get(e, 0) + c
        return LaurentPolynomial.from_dict(self.nvars, d)

    def __mul__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        d: dict[Exponent, int] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = tuple(a + b for a, b in zip(e1, e2))
                d[e] = d.get(e, 0) + c1 * c2
        return LaurentPolynomial.from_dict(self.nvars, d)


# The packed arithmetic of _exchange and of the product check.  An exponent e
# packs to the integer sum(e_j * w_j), where the place values w are the mixed
# radix of a box [lo, hi] with the first coordinate most significant.
# Packing is additive, so a product of terms is a sum of keys, and on any box
# no wider than [lo, hi] it is injective and keeps the descending-lex order
# of LaurentPolynomial.terms.  _exchange packs over the box of its
# numerator; VariableTable packs each variable once, on one radix that it
# widens to hold every product its checks form.


def _box(terms: tuple[tuple[Exponent, int], ...]) -> tuple[Exponent, Exponent]:
    """The Newton box (lo, hi) of terms: lowest and highest exponent of each variable, ((), ()) for none."""
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


def _divide(num: dict[int, int], divisor: LaurentPolynomial, lo: Exponent, hi: Exponent,
            weights: tuple[int, ...]) -> LaurentPolynomial:
    """num / divisor, num packed over the box [lo, hi] holding its terms.

    The remainder's terms stay in [lo, hi] and sit in a max-heap of keys; each
    step divides its lead term by the divisor's.  An exact quotient lies in
    the box [lo - lo_div, hi - hi_div], so a quotient exponent outside it, or
    a coefficient that does not divide, proves the division inexact.  The
    exponent is checked on the digits of the lead term, decoded from its key.
    The lead term strictly decreases inside the finite box, so the loop ends.
    """
    (lead_e, lead_c), *rest = divisor.terms
    lead_k = sum(map(mul, lead_e, weights))
    rest, (dlo, dhi) = _pack(rest, weights), divisor.box
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


def poly_str(p: LaurentPolynomial) -> str:
    if p.is_zero():
        return "0"
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
    import hashlib  # here: only the exchange writers hash, and hashlib loads OpenSSL

    h = hashlib.sha256(repr((p.nvars, p.terms)).encode()).hexdigest()
    return h[:12]


Factors = list[tuple[LaurentPolynomial, int]]  # (polynomial, power) pairs
Packed = list[tuple[int, int]]  # (key, coefficient) pairs, as _pack gives them
PackedFactors = list[tuple[Packed, int]]


def _hull(groups: Sequence[Factors], nvars: int) -> tuple[Exponent, Exponent]:
    """The hull [lo, hi] of the boxes of the products of p^m over each group.
    A product's box is the sum of its factors' boxes, and the box of
    every partial product lies in a box no wider, so packing over [lo, hi]
    keeps every product of the groups injective."""
    los, his = [], []
    for factors in groups:
        lo, hi = [0] * nvars, [0] * nvars
        for p, m in factors:
            plo, phi = p.box
            lo = [a + m * x for a, x in zip(lo, plo)]
            hi = [a + m * x for a, x in zip(hi, phi)]
        los.append(lo)
        his.append(hi)
    return tuple(map(min, *los)), tuple(map(max, *his))


def _sum(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    for key, c in b.items():
        a[key] = a.get(key, 0) + c
    return {key: c for key, c in a.items() if c}


def _exchange(pos: Factors, neg: Factors, divisor: LaurentPolynomial) -> LaurentPolynomial:
    """(prod p^m over pos + prod p^m over neg) / divisor, packed over the
    hull of the two products' boxes."""
    lo, hi = _hull((pos, neg), divisor.nvars)
    weights = _place_values(lo, hi)
    plus, minus = ([(_pack(p.terms, weights), m) for p, m in factors] for factors in (pos, neg))
    return _divide(_sum(_product(plus), _product(minus)), divisor, lo, hi, weights)


def _product(factors: PackedFactors) -> dict[int, int]:
    out = {0: 1}
    for packed, m in factors:
        for _ in range(m):
            out = _mul_packed(out, packed)
    return out


class VariableTable:
    """Cluster variables as small ids (x_1, ..., x_n are 0, ..., n-1, the
    others numbered as first met) with their packed terms,
    and one memo of exchange relations: x_k' = (M+ + M-) / x_k, keyed by (id
    of x_k, {M+, M-}) with M+ and M- the sets of (id_i, |b_ik|) over b_ik > 0
    and b_ik < 0.  Both ends of an exchange, and B and -B (mu_k(-B) =
    -mu_k(B) only swaps M+ and M-), give one key: the builds of A(B) and
    A(-B) share a table, and the second computes nothing.

    Every variable is packed once on one radix (_pack): coordinate j has
    width widths_j + 1, where widths_j is the widest range of exponents in
    coordinate j over the checks so far, each the hull of the boxes of its
    M+, M- and x_k x' (_hull).  A product's box is the sum of its factors'
    boxes, so no two exponents of a product a check forms, or of the
    products it compares, share a key.  A check that needs more repacks
    every variable."""

    def __init__(self, n: int):
        self.polys = [LaurentPolynomial.generator(n, i) for i in range(n)]
        self.ids = {x: i for i, x in enumerate(self.polys)}
        self.relations: dict[tuple, int] = {}
        self.widths = (0,) * n  # no check yet
        self._repack()

    def _repack(self) -> None:
        self.weights = _place_values((0,) * len(self.widths), self.widths)
        self.packed = [_pack(x.terms, self.weights) for x in self.polys]

    def add(self, x: LaurentPolynomial) -> int:
        """The id of x, numbered and packed if it is new."""
        if x.is_zero():  # its box is empty, and no cluster variable is 0
            raise InternalError("the zero polynomial is not a cluster variable")
        new_id = self.ids.setdefault(x, len(self.polys))
        if new_id == len(self.polys):
            self.polys.append(x)
            self.packed.append(_pack(x.terms, self.weights))
        return new_id

    def _exchange_holds(self, pos: list[tuple[int, int]], neg: list[tuple[int, int]], k: int, x: int) -> bool:
        """Whether x_k * x = M+ + M-, M+ and M- given as (id, power) pairs, on
        the packed terms, after a repack if the check spans more than the
        radix.  The Laurent ring is a domain, so for a known quotient x of
        the exchange this check is as strong as the division."""
        polys = self.polys
        groups = [[(polys[i], m) for i, m in factors] for factors in (pos, neg, [(k, 1), (x, 1)])]
        lo, hi = _hull(groups, len(self.widths))
        widths = tuple(map(max, map(sub, hi, lo), self.widths))
        if widths != self.widths:
            self.widths = widths
            self._repack()
        packed = self.packed
        plus, minus = ([(packed[i], m) for i, m in factors] for factors in (pos, neg))
        num, product = _product(plus), _mul_packed(dict(packed[k]), packed[x])
        for key, c in _product(minus).items():
            num[key] = num.get(key, 0) + c
        # Equal dicts are equal polynomials; unequal ones are compared again
        # without their zero coefficients.  Copying every pair instead took
        # about 5% of the E8 plus build.
        return num == product or _sum(num, {}) == _sum(product, {})

    def exchange(self, ids: tuple[int, ...], column: tuple[int, ...], k0: int, known: int | None = None) -> int:
        """The id of x_k' for the seed with variable ids and column k0 of its
        B, kept from both ends.  A new relation is one exact division
        (_exchange), or, where the build holds a variable known at x_k''s
        g-vector, the product check x_k * known = M+ + M- (_exchange_holds);
        if that fails, the division gives a second variable there."""
        pos, neg = [], []
        for i, m in zip(ids, column):
            if m > 0:
                pos.append((i, m))
            elif m < 0:
                neg.append((i, -m))
        key = ids[k0], frozenset((frozenset(pos), frozenset(neg)))
        new_id = self.relations.get(key)
        if new_id is None:
            if known is not None and self._exchange_holds(pos, neg, ids[k0], known):
                new_id = known
            else:
                polys = self.polys
                x = _exchange([(polys[i], m) for i, m in pos], [(polys[i], m) for i, m in neg], polys[ids[k0]])
                new_id = self.add(x)
            self.relations[key], self.relations[new_id, key[1]] = new_id, ids[k0]
        return new_id


def denominator_vector(x: LaurentPolynomial) -> tuple[int, ...]:
    """d_i = -(minimal exponent of x_i), over the variables of x: its negated lower Newton corner."""
    if x.is_zero():
        raise InputError("denominator vector of the zero polynomial")
    return tuple(-e for e in x.box[0])


def theta(spec: CartanSpec, x: LaurentPolynomial) -> Root:
    """Denominator-vector root of a cluster variable; lands in Phi_{>=-1}."""
    d = denominator_vector(x)
    if not is_almost_positive(spec, d):
        raise InternalError(f"denominator vector {d} is not an almost positive root")
    return d


def __getattr__(name: str):  # the old paths test_acceptance and perfbench's tracer read; the seeds live in oracles
    if name in ("initial_seed", "mutate_seed", "var_degree"):
        from . import oracles
        return getattr(oracles, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

"""Exact Laurent polynomials, the builds' table of variables, the root map.

Cluster variables are kept fully expanded in the initial variables.  An
exchange (VariableTable.exchange) is a product check where the quotient is
known, as strong since the Laurent ring is a domain, or else an exact
division (_divide), both on the table's packed exponents; an inexact
division is a hard internal error, never a recoverable condition.
__mul__ and __add__ are the plain tuple-exponent arithmetic.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from functools import reduce
from heapq import heapify, heappop, heappush
from operator import floordiv, mul, sub

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


# The packed arithmetic of the exchanges.  An exponent e packs to the integer
# sum(e_j * w_j), where the place values w are the mixed radix of a box [lo,
# hi] with the first coordinate most significant.  Packing is additive, so a
# product of terms is a sum of keys, and on any box no wider than [lo, hi] it
# is injective and keeps the descending-lex order of LaurentPolynomial.terms.
# VariableTable packs each variable once, on one radix that it widens to hold
# every product its exchanges form; oracles._exchange packs over its numerator's box.


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


def _divide(num: dict[int, int], divisor: LaurentPolynomial, packed: Packed, lo: Exponent, hi: Exponent,
            weights: tuple[int, ...]) -> LaurentPolynomial:
    """num / divisor, both packed by weights, whose radix in coordinate j > 0,
    weights[j - 1] // weights[j], is at least hi_j - lo_j + 1 on a box [lo, hi] holding num.

    The remainder's terms stay in [lo, hi] and sit in a max-heap of keys; each
    step divides its lead term by the divisor's.  An exact quotient lies in
    the box [lo - lo_div, hi - hi_div], so a quotient exponent outside it, or
    a coefficient that does not divide, proves the division inexact.  The
    exponent is checked on the digits of the lead term, decoded from its key.
    The lead term strictly decreases inside the finite box, so the loop ends.
    """
    (lead_e, lead_c), (lead_k, _), rest, (dlo, dhi) = divisor.terms[0], packed[0], packed[1:], divisor.box
    # (radix, lowest digit, highest digit, digit-to-quotient-exponent offset),
    # least significant coordinate first.
    radices = (hi[0] - lo[0] + 1, *map(floordiv, weights, weights[1:]))
    digits = tuple(
        (radix, e - dl, h - l - (dh - e), l - e)
        for radix, l, h, e, dl, dh in reversed(tuple(zip(radices, lo, hi, lead_e, dlo, dhi)))
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


def _nonzero(a: dict[int, int]) -> dict[int, int]:
    return {key: c for key, c in a.items() if c}


def _product(factors: PackedFactors) -> dict[int, int]:
    """The product of p^m over factors, {0: 1} for none, as a new dict that the caller may add into."""
    powers = [packed for packed, m in factors for _ in range(m)]
    return reduce(_mul_packed, powers[1:], dict(powers[0])) if powers else {0: 1}


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
    coordinate j over the relations so far, each the hull of the boxes of
    its M+, M- and, where it is checked, x_k x' (_hull).  A product's box is
    the sum of its factors' boxes, so no two exponents of a product a
    relation forms, or of the products it compares, share a key.  A relation
    that needs more repacks every variable."""

    def __init__(self, n: int):
        self.polys = [LaurentPolynomial.generator(n, i) for i in range(n)]
        self.ids = {x: i for i, x in enumerate(self.polys)}
        self.relations: dict[tuple, int] = {}
        self.widths = (0,) * n  # no relation yet
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

    def exchange(self, ids: tuple[int, ...], column: tuple[int, ...], k0: int, known: int | None = None) -> int:
        """The id of x_k' for the seed with variable ids and column k0 of its
        B, kept from both ends.  A new relation forms M+ + M- once, on the
        radix widened to its hull, and checks x_k * known = M+ + M- where the
        build holds a variable known at x_k''s g-vector; otherwise, or if
        that fails, it divides by x_k (_divide), and a failed check gives a
        second variable there."""
        pos, neg = [], []
        for i, m in zip(ids, column):
            if m > 0:
                pos.append((i, m))
            elif m < 0:
                neg.append((i, -m))
        k = ids[k0]
        relation = k, frozenset((frozenset(pos), frozenset(neg)))
        new_id = self.relations.get(relation)
        if new_id is None:
            polys = self.polys
            groups = (pos, neg) if known is None else (pos, neg, [(k, 1), (known, 1)])
            lo, hi = _hull([[(polys[i], m) for i, m in factors] for factors in groups], len(self.widths))
            widths = tuple(map(max, map(sub, hi, lo), self.widths))
            if widths != self.widths:
                self.widths = widths
                self._repack()
            packed = self.packed
            num = _product([(packed[i], m) for i, m in pos])
            for key, c in _product([(packed[i], m) for i, m in neg]).items():
                num[key] = num.get(key, 0) + c
            # Equal dicts are equal polynomials; unequal ones are compared again
            # without their zero coefficients.  Copying every pair instead took
            # about 5% of the E8 plus build.
            if known is not None and (num == (product := _mul_packed(dict(packed[k]), packed[known]))
                                      or _nonzero(num) == _nonzero(product)):
                new_id = known
            else:
                new_id = self.add(_divide(num, polys[k], packed[k], lo, hi, self.weights))
            self.relations[relation], self.relations[new_id, relation[1]] = new_id, k
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

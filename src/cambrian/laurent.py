"""Exact Laurent-polynomial seeds, tropical coefficients, and the root map.

Cluster variables are kept fully expanded in the initial variables, so every
mutation performs one exact multivariate division; an inexact division is a
hard internal error, never a recoverable condition.  In principal-coefficient
mode a variable lives in 2n variables: the first n exponents are the initial
cluster variables, the last n the tropical generators.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .errors import InputError, InternalError
from .mutation import ExchangeMatrix, MatrixFrame, frame_mutate, identity_frame
from .rootsys import CartanSpec, CoxeterElement, Root, is_almost_positive

Exponent = tuple[int, ...]

_DIV_STEP_CAP = 200_000


@dataclass(frozen=True)
class LaurentPolynomial:
    """Integer Laurent polynomial, terms sorted descending-lex by exponent."""

    nvars: int
    terms: tuple[tuple[Exponent, int], ...]

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
        lead_e, lead_c = divisor.terms[0]
        rem = dict(self.terms)
        quot: dict[Exponent, int] = {}
        steps = 0
        while rem:
            steps += 1
            if steps > _DIV_STEP_CAP:
                raise InternalError("Laurent phenomenon violated (division diverges)")
            re = max(rem)
            rc = rem[re]
            if rc % lead_c != 0:
                raise InternalError("Laurent phenomenon violated (inexact division)")
            qe = tuple(a - b for a, b in zip(re, lead_e))
            qc = rc // lead_c
            quot[qe] = quot.get(qe, 0) + qc
            for e, c in divisor.terms:
                key = tuple(a + b for a, b in zip(qe, e))
                nc = rem.get(key, 0) - qc * c
                if nc:
                    rem[key] = nc
                else:
                    rem.pop(key, None)
        return LaurentPolynomial.from_dict(self.nvars, quot)


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

    def oplus(self, other: "TropicalElement") -> "TropicalElement":
        return TropicalElement(tuple(min(a, b) for a, b in zip(self.exponents, other.exponents)))

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
        return self.frame.b.rank

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
    the seed's own coefficient mode decides the exchange relation."""
    n = s.rank
    if not 1 <= k <= n:
        raise InputError(f"mutation direction {k} out of range 1..{n}")
    k0 = k - 1
    b = s.frame.b.entries
    nv = s.vars[0].nvars
    pos = LaurentPolynomial.one(nv)
    neg = LaurentPolynomial.one(nv)
    for i in range(n):
        bik = b[i][k0]
        if bik > 0:
            pos = pos * s.vars[i] ** bik
        elif bik < 0:
            neg = neg * s.vars[i] ** (-bik)

    new_frame = frame_mutate(s.frame, k)

    if s.mode == "trivial":
        num = pos + neg
        new_xk = num.exact_div(s.vars[k0])
        new_coeffs = None
    else:
        yk = s.coeffs[k0]
        num = _y_monomial(n, yk.exponents) * pos + neg
        denom = _y_monomial(n, yk.oplus_one().exponents) * s.vars[k0]
        new_xk = num.exact_div(denom)
        new_list = []
        for j in range(n):
            if j == k0:
                new_list.append(yk.inverse())
            else:
                bkj = b[k0][j]
                yj = s.coeffs[j] * yk ** max(bkj, 0) * (yk.oplus_one() ** (-bkj))
                new_list.append(yj)
        new_coeffs = tuple(new_list)
        for j in range(n):
            if new_coeffs[j].exponents != new_frame.c_column(j + 1):
                raise InternalError("tropical coefficients disagree with the C-matrix")

    new_vars = tuple(new_xk if i == k0 else s.vars[i] for i in range(n))
    return LabeledSeed(new_vars, new_coeffs, new_frame)


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

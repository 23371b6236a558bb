"""Skew-symmetrizable exchange matrices and tracked C-/G-matrix frames.

A MatrixFrame holds the c-vectors and g-vectors of its positions relative to
its root vertex, column tuples in position order, and no exchange matrix:
G_t B_t = B_0 C_t (Nakanishi-Zelevinsky, Contemp. Math. 565) and G_t^T S C_t
= S give S B_t = C_t^T (S B_0) C_t, so the frames of a build share one S B_0
and S.  The mutation step reads column k of B_t off C_t, one entry per pair
(c_j, c_k) (_pair): FrameTable.step, on c ids and variable ids and memoised,
for the exchange builds and the tau walk, each of whose frames
FrameTable.check_duality checks.
"""

from __future__ import annotations

from collections import namedtuple
from operator import mul
from typing import NamedTuple

from .errors import InputError, InternalError
from .rootsys import CartanSpec, CoxeterElement, Matrix, _identity, _Validated


class ExchangeMatrix(_Validated, namedtuple("ExchangeMatrix", "entries skew_symmetrizer")):
    __slots__ = ()

    def __new__(cls, entries: Matrix, skew_symmetrizer: tuple[int, ...]):
        b, s = entries, skew_symmetrizer
        if len(s) != len(b) or any(x <= 0 for x in s):
            raise InputError("skew-symmetrizer must consist of n positive integers")
        if any(s[i] * x != -s[j] * b[j][i] for i, row in enumerate(b) for j, x in enumerate(row)):
            raise InputError("SB is not skew-symmetric")
        return super().__new__(cls, entries, skew_symmetrizer)

    @property
    def rank(self) -> int:
        return len(self.entries)

    def negated(self) -> "ExchangeMatrix":
        return ExchangeMatrix(tuple(tuple(-x for x in row) for row in self.entries), self.skew_symmetrizer)


def build_bc(spec: CartanSpec, c: CoxeterElement) -> ExchangeMatrix:
    """The signed-Cartan exchange matrix attached to a Coxeter element.

    b_ij = C_ij when s_j precedes s_i in c, and -C_ij when s_i precedes s_j;
    the skew-symmetrizer is the Cartan symmetrizer.
    """
    n, a, pos = spec.rank, spec.cartan, {i: k for k, i in enumerate(c.order)}
    b = [[0 if i == j else a[i][j] if pos[j + 1] < pos[i + 1] else -a[i][j] for j in range(n)] for i in range(n)]
    return ExchangeMatrix(tuple(map(tuple, b)), spec.symmetrizer)


class MatrixFrame(NamedTuple):
    """The c-vector and g-vector of each position (column tuples in position
    order), the mutation path from the root, and S B_0 and S, the same
    objects for every frame of a build."""

    c_vectors: tuple[tuple[int, ...], ...]
    g_vectors: tuple[tuple[int, ...], ...]
    path: tuple[int, ...]
    sb0: Matrix
    skew_symmetrizer: tuple[int, ...]

    def c_column(self, k: int) -> tuple[int, ...]:
        return self.c_vectors[k - 1]

    def g_column(self, k: int) -> tuple[int, ...]:
        return self.g_vectors[k - 1]


def identity_frame(b: ExchangeMatrix) -> MatrixFrame:
    eye, s = _identity(b.rank), b.skew_symmetrizer
    return MatrixFrame(eye, eye, (), tuple(tuple(si * x for x in row) for si, row in zip(s, b.entries)), s)


def column_sign(col: tuple[int, ...], path: tuple[int, ...]) -> int:
    """+1 for a nonzero non-negative vector, -1 for non-positive, else an
    InternalError naming the witness path of the frame that holds col."""
    lo, hi = min(col), max(col)
    if lo >= 0 and hi > 0:
        return 1
    if hi <= 0 and lo < 0:
        return -1
    raise InternalError(f"witness path {path}: sign coherence violated: {col}")


def _pair(cj: tuple[int, ...], sj: int, ck: tuple[int, ...], sk: int, v: list[int], eps: int, where: tuple):
    """Entry j of the column step at k: w = c_j . v, v = S B_0 c_k, is s_j
    b_jk = -s_k b_kj.  Returns b_jk, c'_j = c_j + [eps b_kj]_+ c_k and g_j's
    coefficient [-eps b_jk]_+ in g'_k; a w not in s_j Z and s_k Z is an
    InternalError naming where, (witness path, j, k) 1-based."""
    w = sum(map(mul, cj, v))
    if w % sj or w % sk:
        raise InternalError(f"witness path {where[0]}: S^-1 C^T S B_0 C is not integral at {where[1:]}")
    if eps * w >= 0:
        return w // sj, cj, 0
    return w // sj, tuple(x - eps * w // sk * y for x, y in zip(cj, ck)), -eps * w // sj


class FrameTable:
    """A build's frames as tuples of c ids and variable ids: its c-vectors
    numbered as first met, a c-vector with the symmetrizer s_j of its
    position, and checked for sign coherence once, as it is numbered; each
    variable's g-vector recorded under its id in the build's VariableTable.
    Each c id keeps S B_0 c and each variable id its S-weighted g.  Each
    value of a column step depends on a pair of c ids, and each entry of the
    duality check on a pair (variable id, c id): both are memoised, filled
    lazily.  A finite type has 2N c-vectors, for acyclic B the signed real
    roots (Speyer-Thomas, Acyclic cluster algebras revisited)."""

    def __init__(self, b: ExchangeMatrix):
        frame0 = identity_frame(b)
        self.sb0, self.s = frame0.sb0, frame0.skew_symmetrizer
        # Per c id: vector, sign, S B_0 c, {c_j id: (b_jk, c'_j id, g_j's coefficient in g'_k)};
        # per variable id: g-vector, g with entries scaled by S, {c id: g.S c}.
        self.c_vectors, self.signs, self.sbc, self.pairs, self.c_ids = [], [], [], [], {}
        self.g_vectors, self.gs, self.duals, self.var_of = {}, {}, {}, {}  # var_of: g-vector -> variable id
        for i, g in enumerate(frame0.g_vectors):  # e_i is the g-vector of x_i, id i - 1 in a VariableTable
            self.bind(g, i, ())
        self.initial = tuple(self.c_id(c, sj, ()) for c, sj in zip(frame0.c_vectors, self.s)), tuple(range(b.rank))

    def c_id(self, c: tuple[int, ...], sj: int, path: tuple[int, ...]) -> int:
        """The id of c at a position of symmetrizer sj, met at path."""
        if (sj, c) not in self.c_ids:
            self.signs.append(column_sign(c, path))
            self.c_ids[sj, c] = len(self.c_vectors)
            self.c_vectors.append(c)
            self.sbc.append([sum(map(mul, row, c)) for row in self.sb0])
            self.pairs.append({})
        return self.c_ids[sj, c]

    def bind(self, g: tuple[int, ...], x: int, path: tuple[int, ...]) -> None:
        """Record g as the g-vector of variable id x, met at path; a second
        id for g or a second g-vector for x raises InternalError."""
        if self.var_of.setdefault(g, x) != x:
            raise InternalError(f"witness path {path}: g-vector {g} belongs to two cluster variables")
        if x not in self.g_vectors:
            self.g_vectors[x], self.gs[x], self.duals[x] = g, tuple(map(mul, g, self.s)), {}
        elif self.g_vectors[x] != g:
            raise InternalError(f"witness path {path}: a cluster variable has two g-vectors, {self.g_vectors[x]} and {g}")

    def _entry(self, cj: int, ck: int, j: int, k0: int, path: tuple[int, ...]) -> tuple[int, int, int]:
        """The entry of the pair (cj, ck) met at positions j and k0.  (ck, ck)
        holds c'_k = -c_k: a checked frame has no two equal c-vectors."""
        c, sj, new_path = self.c_vectors[ck], self.s[j], path + (k0 + 1,)
        if j == k0:
            return 0, self.c_id(tuple(-x for x in c), sj, new_path), 0
        b, cj_new, coef = _pair(self.c_vectors[cj], sj, c, self.s[k0], self.sbc[ck], self.signs[ck],
                                (path, j + 1, k0 + 1))
        return b, self.c_id(cj_new, sj, new_path) if coef else cj, coef

    def step(self, cids: tuple[int, ...], ids: tuple[int, ...], k0: int, path: tuple[int, ...]):
        """oracles.mutate_columns at position k0 (0-based) of the frame (cids, ids)
        reached by path: (column k0 + 1 of B_t, new c ids, new g-vector g'_k)."""
        ck, gv = cids[k0], self.g_vectors
        memo, column, new, gk = self.pairs[ck], [], [], [-x for x in gv[ids[k0]]]
        for j, (cj, x) in enumerate(zip(cids, ids)):
            b, c, coef = memo.get(cj) or memo.setdefault(cj, self._entry(cj, ck, j, k0, path))
            column.append(b)
            new.append(c)
            if coef:
                gk = [a + coef * y for a, y in zip(gk, gv[x])]
        return tuple(column), tuple(new), tuple(gk)

    def check_duality(self, cids: tuple[int, ...], ids: tuple[int, ...], path: tuple[int, ...]) -> None:
        """oracles.check_duality by n^2 memo lookups; InternalError names path."""
        s, cv = self.s, self.c_vectors
        for i, x in enumerate(ids):
            gs, memo = self.gs[x], self.duals[x]
            for j, cj in enumerate(cids):
                if cj not in memo:
                    memo[cj] = sum(map(mul, gs, cv[cj]))
                if memo[cj] != (s[i] if i == j else 0):
                    raise InternalError(f"witness path {path}: C/G duality identity failed")


def __getattr__(name: str):  # the old paths test_acceptance and perfbench's tracer read; the checks live in oracles
    if name in ("check_duality", "frame_is_unimodular"):
        from . import oracles
        return getattr(oracles, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

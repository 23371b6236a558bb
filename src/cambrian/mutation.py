"""Skew-symmetrizable exchange matrices and tracked C-/G-matrix frames.

A MatrixFrame holds the c-vectors and g-vectors of its positions relative to
its root vertex, column tuples in position order, and no exchange matrix:
G_t B_t = B_0 C_t (Nakanishi-Zelevinsky, Contemp. Math. 565) and G_t^T S C_t
= S give S B_t = C_t^T (S B_0) C_t, so the frames of a build share one S B_0
and S.  The mutation step reads column k of B_t off C_t, one entry per pair
(c_j, c_k) (_pair): mutate_columns on vectors, for mutate_seed and the
tests, and FrameTable.step on ids, memoised, for the exchange builds and the
tau walk, whose every frame FrameTable.check_duality checks.
"""

from __future__ import annotations

from collections import namedtuple
from operator import mul
from typing import NamedTuple

from .errors import InputError, InternalError
from .rootsys import CartanSpec, CoxeterElement, Matrix, _identity


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


class ExchangeMatrix(namedtuple("ExchangeMatrix", "entries skew_symmetrizer")):
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


def check_duality(frame: MatrixFrame) -> None:
    """Verify (G^T)^-1 = S C S^-1, in the integral form G^T S C = S: entry
    (i, j) is the S-weighted dot product of g_i and c_j."""
    s = frame.skew_symmetrizer
    for i, g in enumerate(frame.g_vectors):
        gs = tuple(map(mul, g, s))
        for j, c in enumerate(frame.c_vectors):
            if sum(map(mul, gs, c)) != (s[i] if i == j else 0):
                raise InternalError("C/G duality identity failed")


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


class FrameTable:
    """A build's frames as tuples of c ids and g ids: its c- and g-vectors
    numbered as first met, a c-vector with the symmetrizer s_j of its
    position, and checked for sign coherence once, as it is numbered.  Each
    c id keeps S B_0 c and each g id its S-weighted g.  Each value of a
    column step depends on a pair of c ids, and each entry of the duality
    check on a pair (g id, c id): both are memoised, filled lazily.  A finite
    type has 2N c-vectors, for acyclic B the signed real roots (Speyer-Thomas,
    Acyclic cluster algebras revisited)."""

    def __init__(self, b: ExchangeMatrix):
        frame0 = identity_frame(b)
        self.sb0, self.s = frame0.sb0, frame0.skew_symmetrizer
        # Per c id: vector, sign, S B_0 c, {c_j id: (b_jk, c'_j id, g_j's coefficient in g'_k)};
        # per g id: vector, g with entries scaled by S, {c id: g.S c}.
        self.c_vectors, self.signs, self.sbc, self.pairs, self.c_ids = [], [], [], [], {}
        self.g_vectors, self.gs, self.duals, self.g_ids = [], [], [], {}
        self.initial = (tuple(self.c_id(c, sj, ()) for c, sj in zip(frame0.c_vectors, self.s)),
                        tuple(map(self.g_id, frame0.g_vectors)))

    def c_id(self, c: tuple[int, ...], sj: int, path: tuple[int, ...]) -> int:
        """The id of c at a position of symmetrizer sj, met at path."""
        if (sj, c) not in self.c_ids:
            self.signs.append(column_sign(c, path))
            self.c_ids[sj, c] = len(self.c_vectors)
            self.c_vectors.append(c)
            self.sbc.append([sum(map(mul, row, c)) for row in self.sb0])
            self.pairs.append({})
        return self.c_ids[sj, c]

    def g_id(self, g: tuple[int, ...]) -> int:
        if g not in self.g_ids:
            self.g_ids[g] = len(self.g_vectors)
            self.g_vectors.append(g)
            self.gs.append(tuple(map(mul, g, self.s)))
            self.duals.append({})
        return self.g_ids[g]

    def _entry(self, cj: int, ck: int, j: int, k0: int, path: tuple[int, ...]) -> tuple[int, int, int]:
        """The entry of the pair (cj, ck) met at positions j and k0.  (ck, ck)
        holds c'_k = -c_k: a checked frame has no two equal c-vectors."""
        c, sj, new_path = self.c_vectors[ck], self.s[j], path + (k0 + 1,)
        if j == k0:
            return 0, self.c_id(tuple(-x for x in c), sj, new_path), 0
        b, cj_new, coef = _pair(self.c_vectors[cj], sj, c, self.s[k0], self.sbc[ck], self.signs[ck],
                                (path, j + 1, k0 + 1))
        return b, self.c_id(cj_new, sj, new_path) if coef else cj, coef

    def step(self, cids: tuple[int, ...], gids: tuple[int, ...], k0: int, path: tuple[int, ...]):
        """mutate_columns at position k0 (0-based) of the frame (cids, gids)
        reached by path: (column k0 + 1 of B_t, new c ids, new g ids)."""
        ck, gv = cids[k0], self.g_vectors
        memo, column, new, gk = self.pairs[ck], [], [], [-x for x in gv[gids[k0]]]
        for j, (cj, g) in enumerate(zip(cids, gids)):
            b, c, coef = memo.get(cj) or memo.setdefault(cj, self._entry(cj, ck, j, k0, path))
            column.append(b)
            new.append(c)
            if coef:
                gk = [x + coef * y for x, y in zip(gk, gv[g])]
        return tuple(column), tuple(new), gids[:k0] + (self.g_id(tuple(gk)),) + gids[k0 + 1 :]

    def check_duality(self, cids: tuple[int, ...], gids: tuple[int, ...], path: tuple[int, ...]) -> None:
        """check_duality by n^2 memo lookups; InternalError names path."""
        s, cv = self.s, self.c_vectors
        for i, gi in enumerate(gids):
            gs, memo = self.gs[gi], self.duals[gi]
            for j, cj in enumerate(cids):
                if cj not in memo:
                    memo[cj] = sum(map(mul, gs, cv[cj]))
                if memo[cj] != (s[i] if i == j else 0):
                    raise InternalError(f"witness path {path}: C/G duality identity failed")

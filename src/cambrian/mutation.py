"""Skew-symmetrizable matrix mutation and tracked C-/G-matrix frames.

A MatrixFrame holds the c-vectors and g-vectors of its positions relative to
its root vertex, column tuples in position order that no other module reads
by layout, and no exchange matrix: G_t B_t = B_0 C_t (Nakanishi-Zelevinsky,
Contemp. Math. 565) and G_t^T S C_t = S give S B_t = C_t^T (S B_0) C_t, so
the frames of a build share one S B_0 and S.  The one mutation step,
mutate_columns, reads column k of B_t off C_t and makes the next frame.  check_frame asserts sign
coherence and the duality G^T S C = S, which implies unimodularity, once per
frame the exchange BFS stores (the verify-signs report is these assertions)
and per frame of the tau-C check's tau walk.  mutate_matrix is the tests'
reference for the derived B.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

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


@dataclass(frozen=True)
class ExchangeMatrix:
    entries: Matrix
    skew_symmetrizer: tuple[int, ...]

    def __post_init__(self) -> None:
        s = self.skew_symmetrizer
        if len(s) != len(self.entries) or any(x <= 0 for x in s):
            raise InputError("skew-symmetrizer must consist of n positive integers")
        b = self.entries
        if any(s[i] * x != -s[j] * b[j][i] for i, row in enumerate(b) for j, x in enumerate(row)):
            raise InputError("SB is not skew-symmetric")

    @property
    def rank(self) -> int:
        return len(self.entries)

    def negated(self) -> "ExchangeMatrix":
        return ExchangeMatrix(
            tuple(tuple(-x for x in row) for row in self.entries),
            self.skew_symmetrizer,
        )


def build_bc(spec: CartanSpec, c: CoxeterElement) -> ExchangeMatrix:
    """The signed-Cartan exchange matrix attached to a Coxeter element.

    b_ij = C_ij when s_j precedes s_i in c, and -C_ij when s_i precedes s_j;
    the skew-symmetrizer is the Cartan symmetrizer.
    """
    n = spec.rank
    pos = {i: k for k, i in enumerate(c.order)}
    b = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if pos[j + 1] < pos[i + 1]:
                b[i][j] = spec.cartan[i][j]
            else:
                b[i][j] = -spec.cartan[i][j]
    return ExchangeMatrix(tuple(tuple(row) for row in b), spec.symmetrizer)


def mutate_matrix(m: Matrix, k: int) -> Matrix:
    """Matrix mutation in direction k (1-based) of an m x n matrix, m >= n."""
    n = len(m[0])
    if not 1 <= k <= n:
        raise InputError(f"mutation direction {k} out of range 1..{n}")
    k0 = k - 1
    # m'_ij = m_ij + [m_ik]_+ m_kj + m_ik [-m_kj]_+, which is m_ij + m_ik [m_kj]_+
    # for m_ik > 0 and m_ij + m_ik [-m_kj]_+ for m_ik < 0; row and column k negate.
    plus = tuple(max(x, 0) for x in m[k0])
    minus = tuple(max(-x, 0) for x in m[k0])
    out = []
    for i, row in enumerate(m):
        a = row[k0]
        if i == k0:
            out.append(tuple(-x for x in row))
            continue
        if a:
            row = tuple(x + a * y for x, y in zip(row, plus if a > 0 else minus))
        out.append(row[:k0] + (-a,) + row[k0 + 1 :])
    return tuple(out)


@dataclass(frozen=True)
class MatrixFrame:
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


def column_sign(col: tuple[int, ...]) -> int:
    """+1 for a nonzero non-negative vector, -1 for non-positive, else raises."""
    lo, hi = min(col), max(col)
    if lo >= 0 and hi > 0:
        return 1
    if hi <= 0 and lo < 0:
        return -1
    raise InternalError(f"sign coherence violated: {col}")


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
    direction k away, in O(n^2).  With v = S B_0 c_k, w_j = c_j . v =
    s_j b_jk = -s_k b_kj, and both updates fire where eps * w_j < 0 (eps the
    sign of c_k, the one c-vector checked); a w_j not in s_j Z and s_k Z is
    an InternalError naming the witness path."""
    k0, cs, gs, s = k - 1, frame.c_vectors, frame.g_vectors, frame.skew_symmetrizer
    if not 0 <= k0 < len(cs):
        raise InputError(f"mutation direction {k} out of range 1..{len(cs)}")
    ck, sk, eps = cs[k0], s[k0], column_sign(cs[k0])
    v = [sum(map(mul, row, ck)) for row in frame.sb0]
    column, new_cs, gk = [], list(cs), [-x for x in gs[k0]]
    for j, (cj, gj, sj) in enumerate(zip(cs, gs, s)):
        w = sum(map(mul, cj, v))
        if w % sj or w % sk:
            raise InternalError(f"witness path {frame.path}: S^-1 C^T S B_0 C is not integral at ({j + 1}, {k})")
        column.append(w // sj)
        if eps * w < 0:
            # c'_j = c_j + [eps * b_kj]_+ c_k and g'_k = -g_k + sum_j [-eps * b_jk]_+ g_j.
            new_cs[j] = tuple(x - eps * w // sk * y for x, y in zip(cj, ck))
            gk = [x - eps * w // sj * y for x, y in zip(gk, gj)]
    new_cs[k0] = tuple(-x for x in ck)
    return tuple(column), MatrixFrame(tuple(new_cs), gs[:k0] + (tuple(gk),) + gs[k:], frame.path + (k,), frame.sb0, s)


def frame_mutate(frame: MatrixFrame, k: int) -> MatrixFrame:
    """The frame one mutation in direction k (1-based) away, by the column
    step; check_frame asserts the invariants of a frame that is kept."""
    return mutate_columns(frame, k)[1]


def frame_is_unimodular(frame: MatrixFrame) -> bool:
    return abs(_det(frame.c_vectors)) == 1  # the rows of C^T, and det C^T = det C


def check_frame(frame: MatrixFrame) -> None:
    """Assert sign coherence of every C-column, C/G duality and with it
    unimodularity: G^T S C = S for integer G and C gives det G * det C = 1,
    so det C = +-1 with no determinant taken.  S B_t = C^T (S B_0) C is
    skew-symmetric by construction.  Each InternalError names the path."""
    try:
        for c in frame.c_vectors:
            column_sign(c)
        check_duality(frame)
    except InternalError as exc:
        raise InternalError(f"witness path {frame.path}: {exc}") from None

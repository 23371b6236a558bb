"""Skew-symmetrizable matrix mutation and tracked C-/G-matrix frames.

A MatrixFrame carries the exchange matrix with the c-vectors and g-vectors of
its positions relative to the frame's root vertex, each a column tuple in
position order; no other module knows this layout.  A mutation step is a
column step (mutate_columns), which checks only the sign of the c-vector it
mutates at, and a B step; the exchange BFS takes the B step (frame_mutate,
handed the columns) only for a frame it keeps.  check_frame asserts that SB
is skew-symmetric, sign coherence of every c-vector and the duality
G^T * S * C = S, which implies unimodularity, on a kept frame, once each:
each frame the exchange BFS stores (the verify-signs report is these
assertions) and each frame of the tau-C check's tau walk.
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


def _sb_is_skew(m: ExchangeMatrix) -> bool:
    b, s = m.entries, m.skew_symmetrizer
    return all(s[i] * x == -s[j] * b[j][i] for i, row in enumerate(b) for j, x in enumerate(row))


@dataclass(frozen=True)
class ExchangeMatrix:
    entries: Matrix
    skew_symmetrizer: tuple[int, ...]

    def __post_init__(self) -> None:
        s = self.skew_symmetrizer
        if len(s) != len(self.entries) or any(x <= 0 for x in s):
            raise InputError("skew-symmetrizer must consist of n positive integers")
        if not _sb_is_skew(self):
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
    """Exchange matrix, the c-vector and g-vector of each position (column
    tuples in position order) and the mutation path from the root."""

    b: ExchangeMatrix
    c_vectors: tuple[tuple[int, ...], ...]
    g_vectors: tuple[tuple[int, ...], ...]
    path: tuple[int, ...]

    def c_column(self, k: int) -> tuple[int, ...]:
        return self.c_vectors[k - 1]

    def g_column(self, k: int) -> tuple[int, ...]:
        return self.g_vectors[k - 1]


def identity_frame(b: ExchangeMatrix) -> MatrixFrame:
    eye = _identity(b.rank)
    return MatrixFrame(b, eye, eye, ())


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
    s = frame.b.skew_symmetrizer
    for i, g in enumerate(frame.g_vectors):
        gs = tuple(map(mul, g, s))
        for j, c in enumerate(frame.c_vectors):
            if sum(map(mul, gs, c)) != (s[i] if i == j else 0):
                raise InternalError("C/G duality identity failed")


def mutate_columns(frame: MatrixFrame, k: int) -> tuple[Matrix, Matrix]:
    """The c- and g-vectors of frame_mutate(frame, k), in O(n^2) and without
    B.  Only c_k is checked for sign coherence, since the step needs its sign."""
    b = frame.b.entries
    k0 = k - 1
    ck = frame.c_vectors[k0]
    eps = column_sign(ck)
    # c'_k = -c_k and c'_j = c_j + [eps * b_kj]_+ c_k.
    cs = list(frame.c_vectors)
    for j, a in enumerate(b[k0]):
        if eps * a > 0:
            cs[j] = tuple(x + eps * a * y for x, y in zip(cs[j], ck))
    cs[k0] = tuple(-x for x in ck)
    # Only g_k changes: g'_k = -g_k + sum_j [-eps * b_jk]_+ g_j.
    gk = tuple(-x for x in frame.g_vectors[k0])
    for row, g in zip(b, frame.g_vectors):
        if eps * row[k0] < 0:
            gk = tuple(x - eps * row[k0] * y for x, y in zip(gk, g))
    return tuple(cs), frame.g_vectors[:k0] + (gk,) + frame.g_vectors[k:]


def frame_mutate(frame: MatrixFrame, k: int, columns: tuple[Matrix, Matrix] | None = None) -> MatrixFrame:
    """Advance B, C and G by one mutation in direction k (1-based), in O(n^2):
    the B step and the column step, whose result the caller may pass as
    columns.  check_frame asserts the invariants of a frame that is kept."""
    new_b = mutate_matrix(frame.b.entries, k)  # raises InputError for k out of range
    # Mutation keeps SB skew-symmetric: skip __post_init__ (check_frame asserts it).
    new = object.__new__(ExchangeMatrix)
    object.__setattr__(new, "entries", new_b)
    object.__setattr__(new, "skew_symmetrizer", frame.b.skew_symmetrizer)
    return MatrixFrame(new, *(columns or mutate_columns(frame, k)), frame.path + (k,))


def frame_is_unimodular(frame: MatrixFrame) -> bool:
    return abs(_det(frame.c_vectors)) == 1  # the rows of C^T, and det C^T = det C


def check_frame(frame: MatrixFrame) -> None:
    """Assert that SB is skew-symmetric, sign coherence of every C-column,
    C/G duality and with it unimodularity: G^T S C = S for integer G and C
    gives det G * det C = 1, so det C = +-1 with no determinant taken.  Each
    InternalError names the frame's witness path."""
    try:
        if not _sb_is_skew(frame.b):
            raise InternalError("SB is not skew-symmetric")
        for c in frame.c_vectors:
            column_sign(c)
        check_duality(frame)
    except InternalError as exc:
        raise InternalError(f"witness path {frame.path}: {exc}") from None

"""Skew-symmetrizable matrix mutation and tracked C-/G-matrix frames.

A MatrixFrame carries the exchange matrix together with the C- and G-matrices
relative to the frame's root vertex.  A mutation step checks only the sign of
the c-vector it mutates at.  check_frame asserts sign coherence of every
C-column, the duality G^T * S * C = S and unimodularity on a kept frame: each
frame the exchange BFS stores (verify-signs asserts it once more on each) and
each frame of the tau-C check's tau walk.  That walk moves by frame_mutate
alone and reads its cluster variables from the exchange quiver by g-vector.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError, InternalError
from .rootsys import CartanSpec, CoxeterElement, Matrix


def _identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m))


def _matmul(a: Matrix, b: Matrix) -> Matrix:
    bt = list(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


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
        n = len(self.entries)
        b, s = self.entries, self.skew_symmetrizer
        if len(s) != n or any(x <= 0 for x in s):
            raise InputError("skew-symmetrizer must consist of n positive integers")
        for i in range(n):
            for j in range(n):
                if s[i] * b[i][j] != -s[j] * b[j][i]:
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


def mutate_matrix(m: Matrix, k: int, ncols: int | None = None) -> Matrix:
    """Matrix mutation in direction k (1-based) of an m x n matrix, n = ncols."""
    n = ncols if ncols is not None else len(m[0])
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
    """Exchange matrix with C-/G-matrices and the mutation path from the root."""

    b: ExchangeMatrix
    c_matrix: Matrix
    g_matrix: Matrix
    path: tuple[int, ...]

    def c_column(self, k: int) -> tuple[int, ...]:
        return tuple(row[k - 1] for row in self.c_matrix)

    def g_column(self, k: int) -> tuple[int, ...]:
        return tuple(row[k - 1] for row in self.g_matrix)


def identity_frame(b: ExchangeMatrix) -> MatrixFrame:
    eye = _identity(b.rank)
    return MatrixFrame(b, eye, eye, ())


def column_sign(col: tuple[int, ...]) -> int:
    """+1 for a nonzero non-negative vector, -1 for non-positive, else raises."""
    if all(x >= 0 for x in col) and any(x > 0 for x in col):
        return 1
    if all(x <= 0 for x in col) and any(x < 0 for x in col):
        return -1
    raise InternalError(f"sign coherence violated: {col}")


def check_duality(frame: MatrixFrame) -> None:
    """Verify (G^T)^-1 = S C S^-1, in the integral form G^T S C = S."""
    s = frame.b.skew_symmetrizer
    n = frame.b.rank
    sc = tuple(tuple(s[i] * frame.c_matrix[i][j] for j in range(n)) for i in range(n))
    lhs = _matmul(_transpose(frame.g_matrix), sc)
    want = tuple(tuple(s[i] if i == j else 0 for j in range(n)) for i in range(n))
    if lhs != want:
        raise InternalError("C/G duality identity failed")


def frame_mutate(frame: MatrixFrame, k: int) -> MatrixFrame:
    """Advance B, C and G by one mutation in direction k (1-based), in O(n^2).

    Only c_k is checked for sign coherence, since the G-step needs its sign;
    check_frame asserts the invariants of a frame that is kept."""
    n = frame.b.rank
    if not 1 <= k <= n:
        raise InputError(f"mutation direction {k} out of range 1..{n}")
    k0 = k - 1
    b = frame.b.entries
    eps = column_sign(frame.c_column(k))
    # B and C mutate together as the extended matrix with C below B.
    ext = mutate_matrix(b + frame.c_matrix, k, ncols=n)
    # G changes in column k only: g'_k = -g_k + sum_j [-eps * b_jk]_+ g_j.
    coef = [max(-eps * b[j][k0], 0) for j in range(n)]
    new_g = tuple(
        row[:k0] + (sum(x * y for x, y in zip(coef, row)) - row[k0],) + row[k:]
        for row in frame.g_matrix
    )
    return MatrixFrame(
        ExchangeMatrix(ext[:n], frame.b.skew_symmetrizer), ext[n:], new_g, frame.path + (k,)
    )


def frame_is_unimodular(frame: MatrixFrame) -> bool:
    return abs(_det(frame.c_matrix)) == 1


def check_frame(frame: MatrixFrame) -> None:
    """Assert sign coherence of every C-column, C/G duality and unimodularity."""
    for j in range(1, frame.b.rank + 1):
        column_sign(frame.c_column(j))
    check_duality(frame)
    if not frame_is_unimodular(frame):
        raise InternalError("C-matrix is not unimodular")

"""Skew-symmetrizable matrix mutation and tracked C-/G-matrix frames.

A MatrixFrame carries the exchange matrix together with the C- and G-matrices
relative to the frame's root vertex.  Sign coherence and the duality identity
G^T * S * C = S are enforced on every mutation step, so a frame that exists is
a frame whose invariants hold.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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
    # Fraction-based Gaussian elimination; exact for the small ranks used here.
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            factor = a[r][col] * inv
            if factor:
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    if det.denominator != 1:
        raise InternalError(f"determinant of an integer matrix is not an integer: {det}")
    return int(det)


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
    rows = len(m)
    out = []
    for i in range(rows):
        row = []
        for j in range(len(m[i])):
            if i == k0 or j == k0:
                row.append(-m[i][j])
            else:
                row.append(
                    m[i][j]
                    + max(m[i][k0], 0) * m[k0][j]
                    + m[i][k0] * max(-m[k0][j], 0)
                )
        out.append(tuple(row))
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
    """Advance B, C and G by one mutation in direction k (1-based)."""
    n = frame.b.rank
    if not 1 <= k <= n:
        raise InputError(f"mutation direction {k} out of range 1..{n}")
    k0 = k - 1
    b = frame.b.entries
    eps = column_sign(frame.c_column(k))

    new_b = ExchangeMatrix(mutate_matrix(b, k), frame.b.skew_symmetrizer)

    # c-recursion: c'_k = -c_k, c'_j = c_j + [b_kj]_+ c_k + b_kj [-c_k]_+.
    c_cols = [frame.c_column(j) for j in range(1, n + 1)]
    ck = c_cols[k0]
    neg_ck_plus = tuple(max(-x, 0) for x in ck)
    new_cols = []
    for j in range(n):
        if j == k0:
            new_cols.append(tuple(-x for x in ck))
        else:
            bkj = b[k0][j]
            new_cols.append(
                tuple(
                    c_cols[j][i] + max(bkj, 0) * ck[i] + bkj * neg_ck_plus[i]
                    for i in range(n)
                )
            )
    new_c = tuple(tuple(new_cols[j][i] for j in range(n)) for i in range(n))

    # G advances by the elementary matrix determined by the sign of c_k.
    jmat = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for j in range(n):
        jmat[j][k0] = max(-eps * b[j][k0], 0)
    jmat[k0][k0] = -1
    new_g = _matmul(frame.g_matrix, tuple(tuple(row) for row in jmat))

    out = MatrixFrame(new_b, new_c, new_g, frame.path + (k,))
    for j in range(1, n + 1):
        column_sign(out.c_column(j))
    check_duality(out)
    return out


def frame_is_unimodular(frame: MatrixFrame) -> bool:
    return abs(_det(frame.c_matrix)) == 1


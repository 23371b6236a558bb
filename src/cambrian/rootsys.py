"""Finite-type Cartan data, root systems, and the almost-positive-root dynamics.

Roots are integer coefficient vectors in the simple-root basis, stored as
tuples.  The reflection convention is s_i(alpha_j) = alpha_j - C_ij * alpha_i,
i.e. row i of the Cartan matrix drives the reflection s_i.  All simple-root /
mutation-direction indices in the public API are 1-based, matching the usual
mathematical labelling of Dynkin diagrams.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import prod

from .errors import InputError, InternalError

Root = tuple[int, ...]
Matrix = tuple[tuple[int, ...], ...]

_ROOT_CAP = 10_000
# The classical ranks stop where the positive roots, n(n+1)/2 in type A, n^2
# in B and C and n(n-1) in D, would pass _ROOT_CAP.
_VALID_RANKS = {"A": range(1, 141), "B": range(2, 101), "C": range(3, 101), "D": range(4, 101),
                "E": range(6, 9), "F": range(4, 5), "G": range(2, 3)}


class _Validated:
    """First base of the records that check their input in __new__ beside a
    namedtuple (a typing.NamedTuple class cannot define __new__): _make, and
    so _replace, goes through __new__ too, as copy and pickle do."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class CartanSpec(_Validated, namedtuple("CartanSpec", "dynkin_type rank cartan symmetrizer")):
    """A finite type's letter and rank, with the Cartan matrix and minimal
    symmetrizer that cartan_matrix reads off its row of _type_row: no other
    fields are accepted."""

    __slots__ = ()

    def __new__(cls, dynkin_type: str, rank: int, cartan: Matrix, symmetrizer: tuple[int, ...]):
        fields = (dynkin_type, rank, cartan, symmetrizer)
        if fields != _type_data(dynkin_type, rank):
            raise InputError(f"not the Cartan matrix and symmetrizer of {dynkin_type}{rank}")
        return super().__new__(cls, *fields)


class CoxeterElement(_Validated, namedtuple("CoxeterElement", "order")):
    """A Coxeter element, given as the order (c_1, ..., c_n) of simple reflections."""

    __slots__ = ()

    def __new__(cls, order: tuple[int, ...]):
        if sorted(order) != list(range(1, len(order) + 1)):
            raise InputError("Coxeter order must be a permutation of 1..n")
        return super().__new__(cls, order)


def cartan_matrix(dynkin_type: str, rank: int) -> CartanSpec:
    """Standard Cartan matrix of the given finite type, with minimal symmetrizer."""
    return CartanSpec(*_type_data(dynkin_type, rank))


def _type_row(t: str, n: int) -> tuple[list[tuple[int, int]], list[int], tuple[int, ...]]:
    """The row of type t, rank n (admitted): the edges (i, j) of its Dynkin
    diagram, 1-based, its minimal symmetrizer d and the exponents of W."""
    chain = [(i, i + 1) for i in range(1, n)]
    if t == "A":
        return chain, [1] * n, tuple(range(1, n + 1))
    if t == "B":  # alpha_n short
        return chain, [2] * (n - 1) + [1], tuple(range(1, 2 * n, 2))
    if t == "C":  # alpha_n long
        return chain, [1] * (n - 1) + [2], tuple(range(1, 2 * n, 2))
    if t == "D":
        return chain[:-1] + [(n - 2, n)], [1] * n, (*range(1, 2 * n - 2, 2), n - 1)
    if t == "E":
        edges = [(1, 3), (3, 4), (4, 5), (2, 4)] + [(i, i + 1) for i in range(5, n)]
        exponents = {6: (1, 4, 5, 7, 8, 11), 7: (1, 5, 7, 9, 11, 13, 17), 8: (1, 7, 11, 13, 17, 19, 23, 29)}
        return edges, [1] * n, exponents[n]
    if t == "F":  # alpha_3, alpha_4 short
        return chain, [2, 2, 1, 1], (1, 5, 7, 11)
    return chain, [3, 1], (1, 5)  # G


def _type_data(dynkin_type: str, rank: int) -> tuple[str, int, Matrix, tuple[int, ...]]:
    """The fields of the CartanSpec of a finite type, any letter case: C_ii =
    2, C_ij = -max(1, d_j // d_i) when alpha_i and alpha_j are joined, so
    that d_i C_ij = -max(d_i, d_j), and C_ij = 0 otherwise."""
    t = dynkin_type.upper()
    if rank not in _VALID_RANKS.get(t, ()):
        raise InputError(f"invalid finite type ({dynkin_type}, {rank})")
    edges, d, _ = _type_row(t, rank)
    c = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i, j in edges:
        c[i - 1][j - 1] = -max(1, d[j - 1] // d[i - 1])
        c[j - 1][i - 1] = -max(1, d[i - 1] // d[j - 1])
    return t, rank, tuple(map(tuple, c)), tuple(d)


def cluster_count(spec: CartanSpec) -> int:
    """The number of clusters, the vertices of every quiver of a command: the
    generalized Catalan number prod (e + h + 1)/(e + 1) over the exponents e
    of W, h = max e + 1 the Coxeter number (Fomin-Zelevinsky, Ann. Math. 158)."""
    exponents = _type_row(spec.dynkin_type, spec.rank)[2]
    h = max(exponents) + 1
    return prod(e + h + 1 for e in exponents) // prod(e + 1 for e in exponents)


def _identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _matmul(a: Matrix, b: Matrix) -> Matrix:
    bt = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def _simple_index(spec: CartanSpec, i: int) -> int:
    """i - 1 for the simple reflection s_i, refusing an i outside 1..n."""
    if not 1 <= i <= spec.rank:
        raise InputError(f"reflection index {i} out of range")
    return i - 1


def reflection_matrix(spec: CartanSpec, i: int) -> Matrix:
    """Matrix of s_i acting on root coefficient vectors (columns), 1-based i."""
    i0, rows = _simple_index(spec, i), list(_identity(spec.rank))
    rows[i0] = tuple(x - a for x, a in zip(rows[i0], spec.cartan[i0]))
    return tuple(rows)


def reflect(spec: CartanSpec, i: int, root: Root) -> Root:
    """Apply the simple reflection s_i to a coefficient vector."""
    i0 = _simple_index(spec, i)
    shift = sum(spec.cartan[i0][j] * root[j] for j in range(spec.rank))
    out = list(root)
    out[i0] -= shift
    return tuple(out)


# (spec, c) entries kept by the per-Coxeter-element cache, so a sweep over
# many elements holds a few elements' tables, not all of them.
_PER_C_CACHE = 8


@lru_cache(maxsize=None)
def positive_roots(spec: CartanSpec) -> tuple[Root, ...]:
    """All positive roots, by saturating the simples under simple reflections."""
    n = spec.rank
    simples = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    seen: set[Root] = set(simples)
    frontier = list(simples)
    while frontier:
        nxt = []
        for root in frontier:
            for i in range(1, n + 1):
                image = reflect(spec, i, root)
                if all(x >= 0 for x in image) and image not in seen:
                    seen.add(image)
                    nxt.append(image)
        frontier = nxt
        if len(seen) > _ROOT_CAP:
            raise InternalError("positive root saturation exceeded safety cap")
    return tuple(sorted(seen))


def negative_simple(spec: CartanSpec, i: int) -> Root:
    return tuple(-1 if j == i - 1 else 0 for j in range(spec.rank))


@lru_cache(maxsize=None)
def almost_positive_roots(spec: CartanSpec) -> tuple[Root, ...]:
    """-alpha_1, ..., -alpha_n, then positive_roots(spec): their sorted order,
    so the root at index i < n is -alpha_{i+1}."""
    return tuple(negative_simple(spec, i) for i in range(1, spec.rank + 1)) + positive_roots(spec)


@lru_cache(maxsize=None)
def _root_index(spec: CartanSpec) -> dict[Root, int]:
    return {r: k for k, r in enumerate(almost_positive_roots(spec))}


def is_almost_positive(spec: CartanSpec, root: Root) -> bool:
    return root in _root_index(spec)


def _check_apr(spec: CartanSpec, root: Root) -> int:
    k = _root_index(spec).get(root)
    if k is None:
        raise InputError(f"{root} is not an almost positive root")
    return k


def sigma(spec: CartanSpec, i: int, root: Root) -> Root:
    """The involution sigma_i: fixes -alpha_j for j != i, reflects everything else."""
    _check_apr(spec, root)
    if min(root) < 0 and root[_simple_index(spec, i)] == 0:  # -alpha_j, j != i
        return root
    return reflect(spec, i, root)


def tau(spec: CartanSpec, c: CoxeterElement, root: Root) -> Root:
    """The bijection tau_c = sigma_{c_1} o ... o sigma_{c_n}.  Each sigma_i is
    an involution, so tau_c^-1 is tau of c^-1 = CoxeterElement(c.order[::-1])."""
    for i in reversed(c.order):
        root = sigma(spec, i, root)
    return root


@lru_cache(maxsize=_PER_C_CACHE)
def _c_dynamics(spec: CartanSpec, c: CoxeterElement) -> tuple[tuple[int, ...], Matrix, tuple[int, ...]]:
    """(degree, table, perm) over root indices: perm[a] is the index of
    tau_c^-1(alpha_a), degree[a] is the R_c degree of alpha_a, its number of
    tau_c^-1 steps to a negative simple -alpha_i, and table[a][b] = (alpha_a
    ||_c alpha_b).  The degree is tau_c-invariant, so step every root's image
    at once and, at the step where alpha_a lands on -alpha_i, at index i - 1
    < n, read off the alpha_i coefficient of each beta's image."""
    roots, index, n = almost_positive_roots(spec), _root_index(spec), spec.rank
    c_inverse = CoxeterElement(c.order[::-1])
    perm = tuple(index[tau(spec, c_inverse, r)] for r in roots)
    m = len(roots)
    degree, table, images = [-1] * m, [()] * m, list(range(m))
    for step in range(m + 1):
        for a in range(m):
            if degree[a] < 0 and images[a] < n:
                degree[a], table[a] = step, tuple(max(0, roots[b][images[a]]) for b in images)
        if min(degree) >= 0:
            return tuple(degree), tuple(table), perm
        images = [perm[b] for b in images]
    raise InternalError("tau_c orbit did not reach a negative simple root")


def r_degree(spec: CartanSpec, c: CoxeterElement, root: Root) -> int:
    """Number of inverse tau_c steps needed to reach a negative simple root."""
    return _c_dynamics(spec, c)[0][_check_apr(spec, root)]


def is_c_compatible(spec: CartanSpec, c: CoxeterElement, alpha: Root, beta: Root) -> bool:
    table, a, b = _c_dynamics(spec, c)[1], _check_apr(spec, alpha), _check_apr(spec, beta)
    return table[a][b] == table[b][a] == 0


def _bits(mask: int):
    """The indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def maximal_compatible_sets(nbrs: list[int], size: int):
    """Yield every maximal set of pairwise neighbours, as a sorted tuple of
    vertex indices, by Bron-Kerbosch with pivoting over the neighbour
    bitmasks nbrs.  In finite type each one has size elements (a cluster);
    any other size raises InternalError."""
    yield from _expand(nbrs, size, (), (1 << len(nbrs)) - 1, 0)


def _expand(nbrs: list[int], size: int, clique: tuple[int, ...], cand: int, excl: int):
    """The maximal sets that extend clique by candidates in cand and by no
    vertex in excl: a module function, as a closure calling itself would be a
    reference cycle."""
    if not cand | excl:
        if len(clique) != size:
            raise InternalError(f"maximal compatible set of size {len(clique)} != rank {size}")
        yield tuple(sorted(clique))
        return
    pivot = max(_bits(cand | excl), key=lambda u: (cand & nbrs[u]).bit_count())
    for a in _bits(cand & ~nbrs[pivot]):
        yield from _expand(nbrs, size, clique + (a,), cand & nbrs[a], excl & nbrs[a])
        cand &= ~(1 << a)
        excl |= 1 << a


def enumerate_c_clusters(spec: CartanSpec, c: CoxeterElement) -> tuple[tuple[Root, ...], ...]:
    """All c-clusters, as lexicographically sorted root tuples, in canonical
    order: the maximal compatible sets of root indices."""
    roots, table = almost_positive_roots(spec), _c_dynamics(spec, c)[1]
    m = len(roots)
    nbrs = [sum(1 << b for b in range(m) if b != a and table[a][b] == table[b][a] == 0) for a in range(m)]
    return tuple(sorted(tuple(roots[a] for a in clique) for clique in maximal_compatible_sets(nbrs, spec.rank)))

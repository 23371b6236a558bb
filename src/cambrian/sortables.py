"""c-sortable Weyl group elements, inversion sets, and the Cambrian Hasse quiver.

Sortable elements are generated directly as weakly decreasing subset chains;
the full-group greedy sorting-word algorithm is kept alongside as an
independent oracle for small ranks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalError
from .mutation import _identity, _matmul
from .quivers import ClusterQuiver, QuiverEdge
from .rootsys import (
    CartanSpec,
    CoxeterElement,
    Matrix,
    Root,
    is_c_compatible,
    negative_simple,
    positive_roots,
    reflection_matrix,
)

_GROUP_CAP = 1_000_000


def _apply(m: Matrix, v: Root) -> Root:
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in m)


@dataclass(frozen=True)
class WeylElement:
    """A Weyl group element acting on root coefficient vectors.

    matrix is the action of w, inv_matrix the action of w^-1; both are kept so
    inversion and descent tests need no matrix inversion.
    """

    matrix: Matrix
    inv_matrix: Matrix

    @classmethod
    def identity(cls, n: int) -> "WeylElement":
        eye = _identity(n)
        return cls(eye, eye)

    def times_reflection(self, spec: CartanSpec, i: int) -> "WeylElement":
        """Right multiplication w * s_i."""
        r = reflection_matrix(spec, i)
        return WeylElement(_matmul(self.matrix, r), _matmul(r, self.inv_matrix))

    def root_image(self, v: Root) -> Root:
        return _apply(self.matrix, v)

    def inv_root_image(self, v: Root) -> Root:
        return _apply(self.inv_matrix, v)


@dataclass(frozen=True)
class SortableElement:
    """A c-sortable element with its decreasing-subset sorting word."""

    element: WeylElement
    blocks: tuple[tuple[int, ...], ...]
    word: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.word)


def _simple_root(n: int, i: int) -> Root:
    return tuple(1 if j == i - 1 else 0 for j in range(n))


def enumerate_sortables(spec: CartanSpec, c: CoxeterElement) -> tuple[SortableElement, ...]:
    """All c-sortable elements, by DFS over weakly decreasing subset chains.

    A letter s may be appended exactly when the current element sends alpha_s
    to a positive root (the word stays reduced).
    """
    n = spec.rank
    results: dict[Matrix, SortableElement] = {}
    root_el = SortableElement(WeylElement.identity(n), (), ())
    stack = [(root_el, tuple(c.order))]
    results[root_el.element.matrix] = root_el
    while stack:
        s, allowed = stack.pop()
        # Next block: any nonempty subset of the previous block's letters,
        # applied in c-order; prune as soon as a letter fails the length test.
        def extend(prefix: tuple[int, ...], w: WeylElement, rest: tuple[int, ...]) -> None:
            for idx in range(len(rest)):
                letter = rest[idx]
                if min(w.root_image(_simple_root(n, letter))) < 0:
                    continue
                w2 = w.times_reflection(spec, letter)
                block = prefix + (letter,)
                s2 = SortableElement(w2, s.blocks + (block,), s.word + block)
                prev = results.get(w2.matrix)
                if prev is not None:
                    if prev.word != s2.word:
                        raise InternalError(
                            "one element reached by two distinct sorting words"
                        )
                else:
                    results[w2.matrix] = s2
                    stack.append((s2, block))
                extend(block, w2, rest[idx + 1 :])

        extend((), s.element, allowed)
    ordered = sorted(results.values(), key=lambda s: (s.length, s.word))
    return tuple(ordered)


def weyl_group_elements(spec: CartanSpec) -> tuple[WeylElement, ...]:
    """The full Weyl group, by closure under right multiplication (oracle use)."""
    n = spec.rank
    e = WeylElement.identity(n)
    seen: dict[Matrix, WeylElement] = {e.matrix: e}
    frontier = [e]
    while frontier:
        nxt = []
        for w in frontier:
            for i in range(1, n + 1):
                w2 = w.times_reflection(spec, i)
                if w2.matrix not in seen:
                    if len(seen) >= _GROUP_CAP:
                        raise InternalError("Weyl group enumeration exceeded cap")
                    seen[w2.matrix] = w2
                    nxt.append(w2)
        frontier = nxt
    return tuple(seen.values())


def greedy_sorting_word(
    spec: CartanSpec, c: CoxeterElement, w: WeylElement
) -> tuple[tuple[int, ...], ...]:
    """The c-sorting word of w as subset blocks: scan c^infinity, taking a
    letter whenever it is a left descent of the remainder."""
    n = spec.rank
    remainder = w
    eye = _identity(n)
    blocks = []
    guard = 0
    while remainder.matrix != eye:
        guard += 1
        if guard > 4 * len(positive_roots(spec)) + 1:
            raise InternalError("sorting-word scan did not terminate")
        block = []
        for i in c.order:
            # s_i is a left descent of v iff v^-1(alpha_i) is negative.
            if min(remainder.inv_root_image(_simple_root(n, i))) < 0:
                block.append(i)
                r = reflection_matrix(spec, i)
                remainder = WeylElement(
                    _matmul(r, remainder.matrix), _matmul(remainder.inv_matrix, r)
                )
        if not block:
            raise InternalError("no descent found for a non-identity element")
        blocks.append(tuple(block))
    return tuple(blocks)


def is_decreasing_chain(blocks: tuple[tuple[int, ...], ...]) -> bool:
    sets = [set(b) for b in blocks]
    return all(sets[i + 1] <= sets[i] for i in range(len(sets) - 1))


def inversion_set(spec: CartanSpec, w: WeylElement) -> frozenset[Root]:
    """{alpha in Phi^+ : w^-1(alpha) is a negative root}."""
    # Root images are roots, so negativity is just "some coordinate < 0".
    return frozenset(
        a for a in positive_roots(spec) if min(w.inv_root_image(a)) < 0
    )


def cl(spec: CartanSpec, c: CoxeterElement, s: SortableElement) -> tuple[Root, ...]:
    """The c-cluster of a sortable element.

    The rightmost occurrence of each letter i contributes the prefix image of
    alpha_i; unused letters contribute -alpha_i.
    """
    n = spec.rank
    out = []
    for i in range(1, n + 1):
        positions = [j for j, a in enumerate(s.word) if a == i]
        if not positions:
            out.append(negative_simple(spec, i))
            continue
        j = positions[-1]
        w = WeylElement.identity(n)
        for letter in s.word[:j]:
            w = w.times_reflection(spec, letter)
        out.append(w.root_image(_simple_root(n, i)))
    cluster = tuple(sorted(out))
    if len(set(cluster)) != n:
        raise InternalError(f"cl image has repeated roots: {cluster}")
    for a in range(n):
        for b in range(a + 1, n):
            if not is_c_compatible(spec, c, cluster[a], cluster[b]):
                raise InternalError(f"cl image is not a c-cluster: {cluster}")
    return cluster


def build_cambrian_hasse(spec: CartanSpec, c: CoxeterElement) -> ClusterQuiver:
    """Hasse quiver of sortables ordered by inversion-set inclusion.

    Arrows run from the greater element to the lesser; edge labels are the
    cl-roots exchanged across the cover.
    """
    sortables = enumerate_sortables(spec, c)
    inv = [inversion_set(spec, s.element) for s in sortables]
    m = len(sortables)
    # Strict-order bitmasks: down[j] = elements below j, up[i] = elements above i.
    down = [0] * m
    up = [0] * m
    for i in range(m):
        for j in range(m):
            if i != j and inv[i] < inv[j]:
                down[j] |= 1 << i
                up[i] |= 1 << j
    edges = []
    clusters = [cl(spec, c, s) for s in sortables]
    for j in range(m):
        rest = down[j]
        while rest:
            low = rest & -rest
            rest ^= low
            i = low.bit_length() - 1
            if down[j] & up[i]:
                continue
            # Cover j > i: arrow j -> i, labeled by the exchanged cl-roots.
            hi, lo = set(clusters[j]), set(clusters[i])
            out_roots = sorted(hi - lo)
            in_roots = sorted(lo - hi)
            if len(out_roots) != 1 or len(in_roots) != 1:
                raise InternalError(
                    f"cover does not exchange exactly one cl-root: {out_roots} / {in_roots}"
                )
            edges.append(QuiverEdge(j, i, out_roots[0], in_roots[0]))
    edges.sort(key=lambda e: (e.src, e.dst))
    return ClusterQuiver("cambrian", sortables, tuple(edges))


def cambrian_vertex_map(
    spec: CartanSpec,
    c: CoxeterElement,
    cambrian: ClusterQuiver,
    ccluster: ClusterQuiver,
) -> tuple[int, ...]:
    """cl_c as a vertex map from the Cambrian quiver to the c-cluster quiver."""
    index = {ccluster.vertices[i]: i for i in range(ccluster.n_vertices)}
    out = []
    for s in cambrian.vertices:
        cluster = cl(spec, c, s)
        if cluster not in index:
            raise InternalError(f"cl image {cluster} is not an enumerated c-cluster")
        out.append(index[cluster])
    return tuple(out)

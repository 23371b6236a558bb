"""c-sortable Weyl group elements, inversion sets, and the Cambrian Hasse quiver.

Roots are indexed as in positive_roots(spec), -positive_roots[i] at m + i, and
an element u is held as the indices of u(alpha_1), ..., u(alpha_n).  One DFS
over the weakly decreasing subset chains gives each sortable element its
inversion set as a bitmask and its c-cluster; its lower covers in the Cambrian
lattice are read off its right descents by the projection pi_down^c.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from operator import mul
from typing import NamedTuple

from .errors import InternalError
from .quivers import ClusterQuiver, QuiverEdge, ccluster_indices
from .rootsys import CartanSpec, CoxeterElement, Root, _c_dynamics, _identity, _root_index, positive_roots


class SortableElement(NamedTuple):
    """A c-sortable element with its decreasing-subset sorting word, its
    inversion set as a bitmask over positive_roots(spec), its c-cluster cl_c
    and its cover roots: the mask of -w(alpha_s) over its right descents s."""

    blocks: tuple[tuple[int, ...], ...]
    word: tuple[int, ...]
    inversions: int
    cluster: tuple[Root, ...]
    cover_roots: int
    spec: CartanSpec

    @property
    def length(self) -> int:
        return len(self.word)

    @property
    def element(self):
        """The matrices of w and w^-1, an oracles.WeylElement, as products along the word."""
        from .oracles import WeylElement  # here: no command reads it

        w = WeylElement.identity(self.spec.rank)
        for a in self.word:
            w = w.times_reflection(self.spec, a)
        return w


class _RootTables(NamedTuple):
    roots: tuple[Root, ...]  # the positive roots, then their negatives
    start: tuple[int, ...]  # start[a] is alpha_a (start[0] is unused)
    reflect: tuple[tuple[int, ...], ...]  # reflect[g][h]: roots[h] reflected in roots[g] > 0
    linked: tuple[tuple[int, ...], ...]  # linked[a]: the letters b with C_ab != 0


@lru_cache(maxsize=None)
def _root_tables(spec: CartanSpec) -> _RootTables:
    n, pos = spec.rank, positive_roots(spec)
    roots = pos + tuple(tuple(-x for x in r) for r in pos)
    index = {r: k for k, r in enumerate(roots)}
    # (x, y) = sum_ij x_i d_i C_ij y_j is W-invariant, and the reflection in g
    # sends r to r - <r, g^vee> g with <r, g^vee> = 2 (g, r) / (g, g).
    form = [[d * x for x in row] for d, row in zip(spec.symmetrizer, spec.cartan)]
    reflect = []
    for g in pos:
        gf = [sum(map(mul, g, col)) for col in zip(*form)]
        norm = sum(map(mul, gf, g))
        row = []
        for h, r in enumerate(roots):
            k = 2 * sum(map(mul, gf, r)) // norm
            row.append(index[tuple(x - k * y for x, y in zip(r, g))] if k else h)
        reflect.append(tuple(row))
    start = (-1,) + tuple(index[r] for r in _identity(n))
    linked = ((),) + tuple(tuple(b + 1 for b in range(n) if row[b]) for row in spec.cartan)
    return _RootTables(roots, start, tuple(reflect), linked)


def _times(t: _RootTables, img: list[int], a: int) -> list[int]:
    """The images of the simple roots under u * s_a, from those under u."""
    img = img[:]
    row = t.reflect[img[a]]
    for b in t.linked[a]:
        img[b] = row[img[b]]
    return img


def enumerate_sortables(spec: CartanSpec, c: CoxeterElement) -> tuple[SortableElement, ...]:
    """All c-sortable elements, by DFS over weakly decreasing subset chains: a
    child extends the last block by a later letter of the block before it (of
    c, for the first block) or opens a new block with a letter of the last
    block.  A letter s is appended exactly when the element sends alpha_s to
    a positive root (the word stays reduced); that root is then an inversion,
    and cl_c takes it for the rightmost s.  Each cl_c is checked to be n
    distinct pairwise c-compatible roots.
    """
    n, t = spec.rank, _root_tables(spec)
    m = len(t.reflect)
    compat, apr = _c_dynamics(spec, c)[1], [_root_index(spec).get(r) for r in t.roots]
    found: dict[int, SortableElement] = {}
    # An explicit stack, not a recursive closure: a closure that calls itself
    # is a reference cycle, and would keep found alive until a collection.
    stack = [((), (), 0, list(t.start), [-1] + [g + m for g in t.start[1:]], c.order)]
    while stack:
        blocks, word, inv, img, last, rest = stack.pop()
        if inv in found:
            raise InternalError("one element reached by two distinct sorting words")
        ks, cluster = [apr[g] for g in last[1:]], tuple(sorted(t.roots[g] for g in last[1:]))
        if len(set(ks)) != n:
            raise InternalError(f"cl image has repeated roots: {cluster}")
        if any(compat[a][b] or compat[b][a] for a, b in combinations(ks, 2)):
            raise InternalError(f"cl image is not a c-cluster: {cluster}")
        cover_roots = sum(1 << g - m for g in img[1:] if g >= m)
        found[inv] = SortableElement(blocks, word, inv, cluster, cover_roots, spec)
        block = blocks[-1] if blocks else ()
        for p, a in enumerate(rest + block):
            g = img[a]
            if g < m:
                img2, last2 = _times(t, img, a), last[:]
                last2[a] = g
                if p < len(rest):
                    stack.append((blocks[:-1] + (block + (a,),), word + (a,), inv | 1 << g, img2, last2, rest[p + 1 :]))
                else:
                    stack.append((blocks + ((a,),), word + (a,), inv | 1 << g, img2, last2, block[p - len(rest) + 1 :]))
    return tuple(sorted(found.values(), key=lambda s: (s.length, s.word)))


def _pi_down(t: _RootTables, inversions: int, img: list[int], queue: list[int], kept: list[int],
             word: list[int], branch: int = 0, found: list | None = None) -> tuple[int, ...]:
    """The c-sorting word of pi_down^c(N), the largest c-sortable element
    whose inversion set lies in the mask N = `inversions`, by Reading's
    recursion on the first letter s of c: take s if alpha_s is in N and go on
    with s(N - alpha_s) and c rotated, else drop s and go on in W_{S - s}.

    The state is the prefix u taken so far (img) and its word, and the
    letters left in this pass through c (queue) and taken in it (kept).
    alpha_s is in the current N exactly when u(alpha_s) is in `inversions`.
    Where a letter is taken at a root of the mask `branch`, the projection of
    `inversions` without that root, which drops the letter there, is appended
    to `found` with the root's bit.
    """
    while queue or kept:
        for p, s in enumerate(queue):
            g = img[s]
            if not inversions >> g & 1:
                continue
            if branch >> g & 1:
                bit = 1 << g
                found.append((bit, _pi_down(t, inversions ^ bit, img, queue[p + 1 :], kept[:], word[:])))
            img = _times(t, img, s)
            kept.append(s)
            word.append(s)
        queue, kept = kept, []
    return tuple(word)


def build_cambrian_hasse(spec: CartanSpec, c: CoxeterElement) -> ClusterQuiver:
    """Hasse quiver of sortables ordered by inversion-set inclusion.

    Arrows run from the greater element to the lesser, and each cover
    exchanges one cl-root for another.  The lower covers of w are the
    projections pi_down^c(w s) over the right descents s: one replay of w's
    own sorting word by _pi_down, branching where it takes each cover root
    -w(alpha_s), the inversion that w s lacks.
    """
    sortables = enumerate_sortables(spec, c)
    t = _root_tables(spec)
    index = {s.word: i for i, s in enumerate(sortables)}
    cls, edges = [frozenset(s.cluster) for s in sortables], []
    for j, w in enumerate(sortables):
        found: list = []
        if _pi_down(t, w.inversions, list(t.start), list(c.order), [], [], w.cover_roots, found) != w.word:
            raise InternalError(f"the c-sorting of {w.word} reads another word")
        covers = [index.get(word, -1) for _, word in found]
        for (bit, word), i in zip(found, covers):
            if i < 0 or sortables[i].inversions & ~(w.inversions ^ bit):
                raise InternalError(f"pi_down of {w.word} without a cover root is no sortable below it: {word}")
        for i in sorted(covers):
            out_roots, in_roots = cls[j] - cls[i], cls[i] - cls[j]  # cover j > i: arrow j -> i
            if len(out_roots) != 1 or len(in_roots) != 1:
                raise InternalError(f"cover does not exchange exactly one cl-root: {set(out_roots)} / {set(in_roots)}")
            edges.append(QuiverEdge(j, i))
    return ClusterQuiver("cambrian", sortables, tuple(edges))


def cambrian_vertex_map(
    spec: CartanSpec, c: CoxeterElement, cambrian: ClusterQuiver, ccluster: ClusterQuiver
) -> tuple[int, ...]:
    """cl_c as a vertex map from the Cambrian quiver to the c-cluster quiver."""
    return ccluster_indices(ccluster, (s.cluster for s in cambrian.vertices), "cl")


def __getattr__(name: str):  # the old paths test_acceptance reads; the Weyl group oracles live in oracles
    if name in ("weyl_group_elements", "greedy_sorting_word", "is_decreasing_chain"):
        from . import oracles
        return getattr(oracles, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

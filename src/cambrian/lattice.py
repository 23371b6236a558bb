"""Poset construction from Hasse quivers, lattice checks, and quiver maps.

Arrow convention is downward: an edge src -> dst means src covers dst, so
x <= y iff there is a directed path from y to x.  Up-sets are integer bitmasks;
the lattice check looks at pairs of upper covers, never at all pairs.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InternalError
from .quivers import CheckReport, ClusterQuiver


class FinitePoset(NamedTuple):
    """Reflexive up-set bitmasks and upper covers, indexed by vertex.  Bit i of
    a mask stands for order[i], a linear extension listed bottom first, so the
    lowest set bit of an up-closed mask is a minimal element of it."""

    n: int
    order: tuple[int, ...]
    up: tuple[int, ...]
    parents: tuple[tuple[int, ...], ...]


def poset_from_hasse(q: ClusterQuiver) -> FinitePoset:
    """The poset of q, whose edges must be its covers, each once: a cycle, repeat or non-cover raises InternalError."""
    n = q.n_vertices
    children: list[list[int]] = [[] for _ in range(n)]
    parents: list[list[int]] = [[] for _ in range(n)]
    for e in q.edges:
        children[e.src].append(e.dst)
        parents[e.dst].append(e.src)
    # Topological order, sinks first (Kahn on the reversed graph).
    outdeg = [len(children[v]) for v in range(n)]
    order = [v for v in range(n) if outdeg[v] == 0]
    for v in order:
        for p in parents[v]:
            outdeg[p] -= 1
            if outdeg[p] == 0:
                order.append(p)
    if len(order) != n:
        raise InternalError("Hasse quiver contains a directed cycle")
    up = [0] * n
    for i in reversed(range(n)):
        mask = 1 << i
        for p in parents[order[i]]:
            mask |= up[p]
        up[order[i]] = mask
    for e in q.edges:
        if children[e.src].count(e.dst) > 1:
            raise InternalError(f"edge {e.src}->{e.dst} is repeated")
        for ch in children[e.src]:
            if ch != e.dst and up[e.dst] & up[ch] == up[ch]:
                raise InternalError(f"edge {e.src}->{e.dst} is not a cover (via {ch})")
    return FinitePoset(n, tuple(order), tuple(up), tuple(tuple(p) for p in parents))


def verify_lattice(p: FinitePoset) -> CheckReport:
    """Check that p has one minimum, one maximum, and a join for every two
    upper covers of a common element.  By Lemma 2.1 of Björner, Edelman and
    Ziegler, Hyperplane arrangements with a lattice of regions (Discrete
    Comput. Geom. 5, 1990), that makes p a lattice.  The join of a and b, if
    it exists, is the lowest element of up[a] & up[b] in p.order."""
    if p.n and p.up[p.order[0]] != (1 << p.n) - 1:
        # The lowest element not above order[0] has nothing below it.
        others = ~p.up[p.order[0]]
        x, y = sorted((p.order[0], p.order[(others & -others).bit_length() - 1]))
        return CheckReport("lattice", False, ("pair without a meet",), f"({x}, {y}), both minimal")
    tops = [v for v in range(p.n) if not p.parents[v]]
    if len(tops) > 1:
        return CheckReport("lattice", False, ("pair without a join",), f"({tops[0]}, {tops[1]}), both maximal")
    for v, covers in enumerate(p.parents):
        for i, a in enumerate(covers):
            for b in covers[i + 1 :]:
                common = p.up[a] & p.up[b]
                if p.up[p.order[(common & -common).bit_length() - 1]] != common:
                    return CheckReport(
                        "lattice", False, ("pair without a join",), f"({a}, {b}), upper covers of {v}"
                    )
    return CheckReport(
        "lattice",
        True,
        (f"{p.n} elements, all meets and joins exist",),
        stats=(("elements", p.n),),
    )


def verify_quiver_map(q1: ClusterQuiver, q2: ClusterQuiver, vertex_map: tuple[int, ...], mode: str) -> CheckReport:
    """Certify vertex_map as a quiver isomorphism (iso) or anti-isomorphism
    (anti).  No command chooses the mode, so another raises InternalError."""
    if mode not in ("iso", "anti"):
        raise InternalError(f"mode must be 'iso' or 'anti', got {mode!r}")
    name = f"quiver-{mode}"
    if len(vertex_map) != q1.n_vertices:
        raise InternalError("vertex map does not cover the source quiver")
    if q1.n_vertices != q2.n_vertices or len(set(vertex_map)) != len(vertex_map):
        return CheckReport(name, False, ("vertex map is not a bijection",))
    # Counted as given, q2's arrows outnumber the distinct images of q1's if either quiver repeats one.
    e2, images = {(e.src, e.dst) for e in q2.edges}, set()
    if len(q1.edges) != len(q2.edges):
        return CheckReport(name, False, (f"edge counts differ: {len(q1.edges)} vs {len(q2.edges)}",))
    for e in q1.edges:
        image = (vertex_map[e.src], vertex_map[e.dst])
        if mode == "anti":
            image = (image[1], image[0])
        if image not in e2:
            where = f"{e.src}->{e.dst} maps to {image[0]}->{image[1]}"
            return CheckReport(name, False, ("arrow image is missing",), where)
        if image in images:
            return CheckReport(name, False, ("arrow is repeated",), f"{e.src}->{e.dst}")
        images.add(image)
    details = (f"{q1.n_vertices} vertices, {len(q1.edges)} arrows",)
    return CheckReport(name, True, details, stats=(("vertices", q1.n_vertices), ("arrows", len(q1.edges))))

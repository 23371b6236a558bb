"""Poset construction from Hasse quivers, lattice checks, and quiver maps.

Arrow convention is downward: an edge src -> dst means src covers dst, so
x <= y iff there is a directed path from y to x.  Order relations are stored
as integer bitmasks; all checks are exhaustive pair scans.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError
from .quivers import CheckReport, ClusterQuiver


@dataclass(frozen=True)
class FinitePoset:
    """Reflexive down-/up-set bitmasks plus the defining Hasse adjacency."""

    n: int
    down: tuple[int, ...]
    up: tuple[int, ...]
    children: tuple[tuple[int, ...], ...]

    def leq(self, x: int, y: int) -> bool:
        return bool(self.down[y] >> x & 1)


def poset_from_hasse(q: ClusterQuiver) -> FinitePoset:
    """Build the poset and verify the quiver is its own transitive reduction."""
    n = q.n_vertices
    children: list[list[int]] = [[] for _ in range(n)]
    parents: list[list[int]] = [[] for _ in range(n)]
    for e in q.edges:
        children[e.src].append(e.dst)
        parents[e.dst].append(e.src)
    # Topological order, sinks first (Kahn on the reversed graph).
    outdeg = [len(children[v]) for v in range(n)]
    order = [v for v in range(n) if outdeg[v] == 0]
    head = 0
    while head < len(order):
        v = order[head]
        head += 1
        for p in parents[v]:
            outdeg[p] -= 1
            if outdeg[p] == 0:
                order.append(p)
    if len(order) != n:
        raise InputError("Hasse quiver contains a directed cycle")
    down = [0] * n
    for v in order:
        mask = 1 << v
        for ch in children[v]:
            mask |= down[ch]
        down[v] = mask
    for e in q.edges:
        for ch in children[e.src]:
            if ch != e.dst and down[ch] >> e.dst & 1:
                raise InputError(
                    f"edge {e.src}->{e.dst} is not a cover (via {ch})"
                )
    up = [0] * n
    for v in range(n):
        m = down[v]
        while m:
            low = m & -m
            m ^= low
            up[low.bit_length() - 1] |= 1 << v
    return FinitePoset(n, tuple(down), tuple(up), tuple(tuple(c) for c in children))


def _bounded(masks: tuple[int, ...], x: int, y: int) -> int | None:
    """The unique extremal element of masks[x] & masks[y], if it exists."""
    common = masks[x] & masks[y]
    m = common
    while m:
        low = m & -m
        m ^= low
        v = low.bit_length() - 1
        if masks[v] == common:
            return v
    return None


def verify_lattice(p: FinitePoset) -> CheckReport:
    """Check that every pair has a meet and a join."""
    for x in range(p.n):
        for y in range(x + 1, p.n):
            if _bounded(p.down, x, y) is None:
                return CheckReport(
                    "lattice", False, ("pair without a meet",), f"({x}, {y})"
                )
            if _bounded(p.up, x, y) is None:
                return CheckReport(
                    "lattice", False, ("pair without a join",), f"({x}, {y})"
                )
    return CheckReport(
        "lattice",
        True,
        (f"{p.n} elements, all meets and joins exist",),
        stats=(("elements", p.n),),
    )


def verify_quiver_map(
    q1: ClusterQuiver,
    q2: ClusterQuiver,
    vertex_map: tuple[int, ...],
    mode: str,
) -> CheckReport:
    """Certify vertex_map as a quiver isomorphism (iso) or anti-isomorphism."""
    if mode not in ("iso", "anti"):
        raise InputError(f"mode must be 'iso' or 'anti', got {mode!r}")
    name = f"quiver-{mode}"
    if len(vertex_map) != q1.n_vertices:
        raise InputError("vertex map does not cover the source quiver")
    if q1.n_vertices != q2.n_vertices or len(set(vertex_map)) != len(vertex_map):
        return CheckReport(name, False, ("vertex map is not a bijection",))
    e2 = {(e.src, e.dst) for e in q2.edges}
    if len(q1.edges) != len(e2):
        return CheckReport(
            name,
            False,
            (f"edge counts differ: {len(q1.edges)} vs {len(e2)}",),
        )
    for e in q1.edges:
        image = (vertex_map[e.src], vertex_map[e.dst])
        if mode == "anti":
            image = (image[1], image[0])
        if image not in e2:
            return CheckReport(
                name,
                False,
                ("arrow image is missing",),
                f"{e.src}->{e.dst} maps to {image[0]}->{image[1]}",
            )
    return CheckReport(
        name,
        True,
        (f"{q1.n_vertices} vertices, {len(q1.edges)} arrows",),
        stats=(("vertices", q1.n_vertices), ("arrows", len(q1.edges))),
    )

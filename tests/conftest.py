"""Shared caches so every test file reuses the same built quivers, and the
oracles the tests compare against."""

from functools import lru_cache

from cambrian.errors import InternalError
from cambrian.laurent import initial_seed, mutate_seed
from cambrian.mutation import build_bc, column_sign, frame_is_unimodular
from cambrian.quivers import (
    ClusterQuiver,
    ClusterVertexPayload,
    QuiverEdge,
    build_c_cluster_quiver,
    build_exchange_quiver,
    build_tau_tilting_quiver,
)
from cambrian.rootsys import CoxeterElement, cartan_matrix, positive_roots
from cambrian.sortables import build_cambrian_hasse, enumerate_sortables

# Desk-scale test matrix: (type, rank, coxeter orders to cover).
TEST_MATRIX = [
    ("A", 1, (1,)),
    ("A", 2, (1, 2)),
    ("A", 2, (2, 1)),
    ("A", 3, (1, 2, 3)),
    ("A", 3, (1, 3, 2)),
    ("A", 3, (2, 1, 3)),
    ("A", 3, (2, 3, 1)),
    ("A", 3, (3, 1, 2)),
    ("A", 3, (3, 2, 1)),
    ("B", 2, (1, 2)),
    ("B", 2, (2, 1)),
    ("B", 3, (1, 2, 3)),
    ("C", 3, (1, 2, 3)),
    ("D", 4, (1, 2, 3, 4)),
    ("F", 4, (1, 2, 3, 4)),
    ("G", 2, (1, 2)),
    ("G", 2, (2, 1)),
    ("A", 4, (1, 2, 3, 4)),
    ("A", 5, (1, 2, 3, 4, 5)),
]

SMALL_MATRIX = [e for e in TEST_MATRIX if e[1] <= 3]

# Every finite type of rank at most 4, for the hypothesis properties.
RANK_LE_4 = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4),
    ("B", 2), ("B", 3), ("B", 4),
    ("C", 3), ("C", 4),
    ("D", 4), ("F", 4), ("G", 2),
]


@lru_cache(maxsize=None)
def spec_of(dynkin_type, rank):
    return cartan_matrix(dynkin_type, rank)


@lru_cache(maxsize=None)
def exchange_of(dynkin_type, rank, order, sign="plus"):
    return build_exchange_quiver(
        spec_of(dynkin_type, rank), CoxeterElement(order), sign
    )


@lru_cache(maxsize=None)
def ccluster_of(dynkin_type, rank, order):
    return build_c_cluster_quiver(spec_of(dynkin_type, rank), CoxeterElement(order))


@lru_cache(maxsize=None)
def tautilt_of(dynkin_type, rank, order):
    return build_tau_tilting_quiver(
        spec_of(dynkin_type, rank),
        CoxeterElement(order),
        exchange=exchange_of(dynkin_type, rank, order),
    )


@lru_cache(maxsize=None)
def cambrian_of(dynkin_type, rank, order):
    return build_cambrian_hasse(spec_of(dynkin_type, rank), CoxeterElement(order))


@lru_cache(maxsize=None)
def sortables_of(dynkin_type, rank, order):
    return enumerate_sortables(spec_of(dynkin_type, rank), CoxeterElement(order))


def _bounded(masks, x, y):
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


def order_masks(q):
    """Reflexive down- and up-set bitmasks of a Hasse quiver, bit v standing
    for vertex v, by relaxing every arrow until nothing changes."""
    n = q.n_vertices
    down = [1 << v for v in range(n)]
    changed = True
    while changed:
        changed = False
        for e in q.edges:
            if down[e.src] | down[e.dst] != down[e.src]:
                down[e.src] |= down[e.dst]
                changed = True
    up = [0] * n
    for v in range(n):
        for u in range(n):
            if down[v] >> u & 1:
                up[u] |= 1 << v
    return down, up


def missing_bound(q, x, y):
    """Which of the meet and the join of x and y do not exist."""
    down, up = order_masks(q)
    return {name for name, masks in (("meet", down), ("join", up)) if _bounded(masks, x, y) is None}


def pair_scan_is_lattice(q):
    """Every pair of vertices has a meet and a join: the oracle for the local
    lattice check of verify_lattice."""
    down, up = order_masks(q)
    return all(
        _bounded(down, x, y) is not None and _bounded(up, x, y) is not None
        for x in range(q.n_vertices)
        for y in range(x + 1, q.n_vertices)
    )


def matrix_inversion_set(spec, w):
    """{alpha in Phi^+ : w^-1(alpha) < 0} from the matrix of w^-1: the oracle
    for the prefix-image inversion sets."""
    return frozenset(a for a in positive_roots(spec) if min(w.inv_root_image(a)) < 0)


def polynomial_keyed_exchange_quiver(spec, c, sign="plus"):
    """The exchange BFS on full Laurent seeds, a cluster keyed by its set of
    polynomials, each edge mutated from both ends: the oracle for the
    g-vector-keyed frame BFS of build_exchange_quiver."""
    b = build_bc(spec, c)
    if sign == "minus":
        b = b.negated()
    n = b.rank
    seed0 = initial_seed(b, "trivial")
    key0 = frozenset(seed0.vars)
    seeds = {key0: seed0}
    edge_map = {}
    frontier = [seed0]
    while frontier:
        nxt = []
        for seed in frontier:
            skey = frozenset(seed.vars)
            for k in range(1, n + 1):
                green = column_sign(seed.frame.c_column(k)) > 0
                mutated = mutate_seed(seed, k)
                mkey = frozenset(mutated.vars)
                if mkey not in seeds:
                    seeds[mkey] = mutated
                    nxt.append(mutated)
                out_var, in_var = seed.vars[k - 1], mutated.vars[k - 1]
                directed = (skey, mkey, out_var, in_var) if green else (mkey, skey, in_var, out_var)
                if edge_map.setdefault(frozenset((skey, mkey)), directed) != directed:
                    raise InternalError("inconsistent edge orientation in BFS")
        frontier = nxt

    ordered = sorted(seeds, key=lambda key: tuple(sorted(v.terms for v in key)))
    index = {key: i for i, key in enumerate(ordered)}
    payloads = []
    for key in ordered:
        seed = seeds[key]
        if not frame_is_unimodular(seed.frame):
            raise InternalError("C-matrix is not unimodular")
        triples = sorted(
            (
                (seed.vars[j], seed.frame.c_column(j + 1), seed.frame.g_column(j + 1))
                for j in range(n)
            ),
            key=lambda t: t[0].terms,
        )
        payloads.append(ClusterVertexPayload(*(tuple(t[i] for t in triples) for i in range(3)), seed.frame))
    edges = sorted(
        (QuiverEdge(index[s], index[d], ov, iv) for s, d, ov, iv in edge_map.values()),
        key=lambda e: (e.src, e.dst),
    )
    return ClusterQuiver("exchange", tuple(payloads), tuple(edges))


def laurent_tau_walk(spec, c, qp):
    """The tau_c^-1 image of every cluster of qp, the exchange quiver of B^c,
    as a labeled Laurent seed keyed by the cluster's witness path: the
    initial seed mutated at the sinks c_n, ..., c_1 and then along the
    witness path, each image one exact mutate_seed from its parent's.  The
    oracle for the frame walk of check_tau_c_matrix."""
    seed = initial_seed(build_bc(spec, c), "trivial")
    for k in reversed(c.order):
        seed = mutate_seed(seed, k)
    seeds = {(): seed}
    for path in sorted((p.witness_path for p in qp.vertices), key=len):
        if path:
            seeds[path] = mutate_seed(seeds[path[:-1]], path[-1])
    return seeds

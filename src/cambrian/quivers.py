"""Exchange quiver, quiver of c-clusters, and the support tau-tilting quiver.

All four kinds of quiver, the Cambrian Hasse quiver of sortables included,
share the ClusterQuiver container: vertices carry typed payloads, and an edge
is its two ends, whose clusters differ in the exchanged pair.  A support
tau-tilting pair (M, P) is held, like a c-cluster, as the sorted tuple of its
roots, those of M + P[1].  Vertex and edge order is canonical, so identical
inputs always produce identical quivers.  The records are immutable but for an
exchange quiver's steps, its build's FrameTable, whose memos grow when
check_tau_c_matrix steps on it.
"""

from __future__ import annotations

from functools import reduce
from operator import and_, mul
from typing import NamedTuple

from .errors import InternalError
from .laurent import LaurentPolynomial, VariableTable, theta
from .mutation import ExchangeMatrix, FrameTable
from .rootsys import CartanSpec, CoxeterElement, Root, _c_dynamics, _identity, _root_index, almost_positive_roots
from .rootsys import enumerate_c_clusters, maximal_compatible_sets, positive_roots, r_degree


class QuiverEdge(NamedTuple):
    src: int
    dst: int


class ClusterVertexPayload(NamedTuple):
    """A non-labeled cluster as the seed the BFS first reached it with: each position's variable, c-vector,
    g-vector and id in the VariableTable, in position order, the witness path, and mask, bit i set for id i."""

    variables: tuple[LaurentPolynomial, ...]
    c_vectors: tuple[tuple[int, ...], ...]
    g_vectors: tuple[tuple[int, ...], ...]
    ids: tuple[int, ...]
    witness_path: tuple[int, ...]
    mask: int

    def key(self) -> frozenset:
        return frozenset(self.variables)


class ClusterQuiver(NamedTuple):
    kind: str
    vertices: tuple
    edges: tuple[QuiverEdge, ...]
    steps: FrameTable | None = None  # an exchange build's, for its tau walk

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)


class CheckReport(NamedTuple):
    name: str
    ok: bool
    details: tuple[str, ...] = ()
    counterexample: str | None = None
    stats: tuple[tuple[str, int], ...] = ()

    def stat(self, key: str) -> int:
        return dict(self.stats)[key]


def build_exchange_quiver(b: ExchangeMatrix, table: VariableTable) -> ClusterQuiver:
    """BFS over non-labeled clusters of A(b); the commands pass b = B^c and -B^c.

    Arrows are green mutations: the edge points away from the cluster in which
    the exchanged variable's c-vector is non-negative.

    The BFS moves frames as c ids and variable ids: c ids of a FrameTable
    (the quiver's steps), variable ids of table, which keys a cluster by the
    bitmask of its variables' ids.  It fills table, which makes each
    exchange x_k x_k' = prod x_i^[b_ik]_+ + prod x_i^[-b_ik]_+ once per
    relation for all the builds that share it, and the steps record each
    variable's g-vector under its id, raising InternalError if g-vectors and
    ids are not in bijection within the build.  Any n - 1 variables of a
    cluster lie in exactly two clusters (Fomin-Zelevinsky, Invent. Math.
    154), so an edge is keyed by the mask of this facet and mutated across
    once, from the end reached first: one column step gives column k of B
    for the exchange and the next frame, which a new cluster stores (it must
    pass check_duality) and a stored cluster's frame must match.
    """
    n, polys, steps = b.rank, table.polys, FrameTable(b)
    steps.check_duality(*steps.initial, ())
    frames = {}  # mask -> (c ids, variable ids) of each stored seed but the initial one, which no step reaches
    edge_map: dict[int, tuple[int, int]] = {}  # facet -> (src mask, dst mask)
    queue = [((1 << n) - 1, *steps.initial, ())]  # BFS order: appended to while it is read
    for mask, cids, ids, path in queue:
        for k0 in range(n):
            facet = mask ^ 1 << ids[k0]
            if facet in edge_map:
                continue
            column, new_cids, g = steps.step(cids, ids, k0, path)
            new_path = path + (k0 + 1,)
            new_id = table.exchange(ids, column, k0, steps.var_of.get(g))
            steps.bind(g, new_id, new_path)
            mkey, new_ids = facet | 1 << new_id, ids[:k0] + (new_id,) + ids[k0 + 1 :]
            if mkey not in frames:
                frames[mkey] = new_cids, new_ids
                steps.check_duality(new_cids, new_ids, new_path)
                queue.append((mkey, new_cids, new_ids, new_path))
            elif {*zip(*frames[mkey])} != {*zip(new_cids, new_ids)}:
                raise InternalError(f"mutation path {new_path} reaches a stored cluster with other columns")
            edge_map[facet] = (mask, mkey) if steps.signs[cids[k0]] > 0 else (mkey, mask)  # green

    # Canonical order: the stored seeds by their variables, each sorted by terms.
    gv, cv = steps.g_vectors, steps.c_vectors
    rank = {x: r for r, x in enumerate(sorted(gv, key=lambda x: polys[x].terms))}
    queue.sort(key=lambda seed: sorted(map(rank.get, seed[2])))
    index = {seed[0]: v for v, seed in enumerate(queue)}
    payloads = tuple(ClusterVertexPayload(tuple(map(polys.__getitem__, ids)), tuple(map(cv.__getitem__, cids)),
                                          tuple(map(gv.__getitem__, ids)), ids, p, m) for m, cids, ids, p in queue)
    edges = sorted(QuiverEdge(index[s], index[d]) for s, d in edge_map.values())
    return ClusterQuiver("exchange", payloads, tuple(edges), steps)


def _facet_pairs(clusters):
    """Adjacent clusters share a facet (all their roots but one), and each
    facet lies in exactly two: yield ((i, a), (j, b)) for each facet, where
    clusters i and j hold it and a and b are the roots they exchange."""
    facets: dict[tuple[Root, ...], list[tuple[int, Root]]] = {}
    for i, cluster in enumerate(clusters):
        for k, root in enumerate(cluster):
            facets.setdefault(cluster[:k] + cluster[k + 1 :], []).append((i, root))
    for facet, members in facets.items():
        if len(members) != 2:
            raise InternalError(f"facet {facet} lies in {len(members)} clusters, not 2")
        yield members


def build_c_cluster_quiver(spec: CartanSpec, c: CoxeterElement) -> ClusterQuiver:
    """Quiver on c-clusters; arrows run from the larger-R_c exchanged root."""
    clusters = enumerate_c_clusters(spec, c)
    rdeg = {root: r_degree(spec, c, root) for root in set().union(*clusters)}
    edges = []
    for (i, a), (j, b) in _facet_pairs(clusters):
        if rdeg[a] == rdeg[b]:
            raise InternalError(f"R_c tie between exchanged roots {a}, {b}")
        edges.append(QuiverEdge(j, i) if rdeg[a] < rdeg[b] else QuiverEdge(i, j))
    return ClusterQuiver("ccluster", clusters, tuple(sorted(edges)))


def shadow_of_cluster(cluster: tuple[Root, ...]) -> tuple[tuple[Root, ...], tuple[int, ...]]:
    """The pair (M, P) whose roots are cluster, in any order: M's positive roots and P's i of -alpha_i, sorted."""
    module = tuple(sorted(r for r in cluster if min(r) >= 0))
    proj = tuple(sorted(r.index(-1) + 1 for r in cluster if min(r) < 0))
    return module, proj


def euler_tables(spec: CartanSpec, c: CoxeterElement) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(torsion, compatible), indexed like almost_positive_roots.  torsion[a]
    is the mask of positive roots y (bit k for positive_roots(spec)[k]) with
    Ext^1(a, y) = 0, i.e. <a, y> >= 0, for positive a, and with y_i = 0 for
    a = -alpha_i.  Bit b of compatible[a] is set when roots a != b are
    compatible: Ext^1 vanishes both ways between positive roots, -alpha_i
    goes with beta when beta_i = 0, and negative simples go together."""
    n, d, cartan = spec.rank, spec.symmetrizer, spec.cartan
    at = {i - 1: k for k, i in enumerate(c.order)}  # position in c
    form = [[d[i] if i == j else d[i] * cartan[i][j] if at[i] < at[j] else 0 for j in range(n)] for i in range(n)]
    roots, positives = almost_positive_roots(spec), positive_roots(spec)
    torsion = []
    for k, a in enumerate(roots):
        if k < n:  # a = -alpha_{k+1}
            vanish = (y[k] == 0 for y in positives)
        else:
            row = [sum(a[i] * form[i][j] for i in range(n)) for j in range(n)]
            vanish = (sum(map(mul, row, y)) >= 0 for y in positives)
        torsion.append(sum(1 << k for k, ok in enumerate(vanish) if ok))
    # contains[a]: the roots b with Ext^1(a, b) = 0, every negative simple
    # included; positive root k is almost positive root n + k.
    contains = [t << n | (1 << n) - 1 for t in torsion]
    compatible = [sum(1 << b for b in range(len(roots)) if b != a and contains[b] >> a & 1) & contains[a]
                  for a in range(len(roots))]
    return tuple(torsion), tuple(compatible)


def build_tau_tilting_quiver(spec: CartanSpec, c: CoxeterElement) -> ClusterQuiver:
    """Support tau-tilting quiver of the path algebra of the Dynkin diagram
    with i -> j when s_i comes before s_j in c, from the Euler form <x, y> =
    sum_i d_i x_i y_i + sum_{i->j} d_i C_ij x_i y_j (d the symmetrizer).  The
    indecomposables are the positive roots (Gabriel) and at most one of Hom
    and Ext^1 between them is nonzero (Ringel, LNM 1099), so Ext^1(x, y) != 0
    iff <x, y> < 0.  Vertices are the maximal compatible sets of
    euler_tables, which is c-compatibility (Marsh-Reineke-Zelevinsky, Trans.
    AMS 355): each pair (M, P), in (M, P) order, is held as its c-cluster, the
    roots of M + P[1].  The torsion class Fac M = perp(tau M) cap P-perp of a
    pair (Adachi-Iyama-Reiten, Compos. Math. 150) is the AND of its roots'
    torsion masks, the inversion set of w at cl_c(w) (Ingalls-Thomas, Compos.
    Math. 145).  Pairs sharing a facet get an arrow from the larger torsion
    class to the smaller.  In types B, C, F, G the form is that of the rank
    vectors of GLS tau-locally free modules (Geiss-Leclerc-Schroer, Invent.
    Math. 209); no Hom/Ext^1 dichotomy for those is cited here, so there this
    is a combinatorial model of the GLS side.  A maximal set of size other
    than n, a facet in other than two pairs or unnested neighbouring torsion
    classes raise InternalError."""
    roots, (torsion, compatible) = almost_positive_roots(spec), euler_tables(spec, c)
    n, full = spec.rank, (1 << len(positive_roots(spec))) - 1
    # Index order is root order and -alpha_i is index i - 1: a clique is P then M, and equal Ms leave P to compare.
    cliques = sorted(maximal_compatible_sets(compatible, n), key=lambda q: (q[sum(a < n for a in q):], q))
    clusters = [tuple(roots[a] for a in clique) for clique in cliques]
    classes = [reduce(and_, (torsion[a] for a in clique), full) for clique in cliques]
    edges = []
    for (i, a), (j, b) in _facet_pairs(clusters):
        ti, tj = classes[i], classes[j]
        if ti & tj == ti:
            (i, a, ti), (j, b, tj) = (j, b, tj), (i, a, ti)
        if ti & tj != tj or ti == tj:
            raise InternalError(f"torsion classes of the pairs exchanging {a} and {b} are not nested")
        edges.append(QuiverEdge(i, j))
    return ClusterQuiver("tautilt", tuple(clusters), tuple(sorted(edges)))


def ccluster_indices(ccluster: ClusterQuiver, clusters, image: str) -> tuple[int, ...]:
    """The vertex of ccluster holding each of clusters, as a vertex map into
    the c-cluster quiver; a cluster it lacks raises InternalError, which
    calls it the image of the map named by image."""
    index = {cluster: i for i, cluster in enumerate(ccluster.vertices)}
    out = []
    for cluster in clusters:
        if cluster not in index:
            raise InternalError(f"{image} image {cluster} is not an enumerated c-cluster")
        out.append(index[cluster])
    return tuple(out)


def theta_vertex_map(
    spec: CartanSpec, c: CoxeterElement, exchange: ClusterQuiver, ccluster: ClusterQuiver
) -> tuple[int, ...]:
    """Variable-wise theta as a vertex map, exchange quiver -> c-cluster
    quiver, taking theta once per cluster variable."""
    roots = {x: theta(spec, x) for x in {x for payload in exchange.vertices for x in payload.variables}}
    clusters = (tuple(sorted(roots[x] for x in payload.variables)) for payload in exchange.vertices)
    return ccluster_indices(ccluster, clusters, "theta")


def phi_vertex_map(spec: CartanSpec, tautilt: ClusterQuiver, ccluster: ClusterQuiver) -> tuple[int, ...]:
    """Pair-to-cluster vertex map, tau-tilting quiver -> c-cluster quiver: a
    pair (M, P) is held as the c-cluster of the roots of M + P[1]."""
    return ccluster_indices(ccluster, tautilt.vertices, "shadow")


def psi_vertex_map(
    spec: CartanSpec, c: CoxeterElement, tautilt: ClusterQuiver, exchange: ClusterQuiver, ccluster: ClusterQuiver
) -> tuple[int, ...]:
    """Tau-tilting quiver -> exchange quiver, as theta-inverse after phi: a
    pair is held as its c-cluster, so it is looked up among theta's images."""
    inverse = {ccluster.vertices[j]: i for i, j in enumerate(theta_vertex_map(spec, c, exchange, ccluster))}
    if len(inverse) != exchange.n_vertices:
        raise InternalError("theta vertex map is not injective")
    for pair in tautilt.vertices:
        if pair not in inverse:
            raise InternalError(f"c-cluster {pair} has no theta preimage")
    return tuple(inverse[pair] for pair in tautilt.vertices)


def check_arrow_flip(qp: ClusterQuiver, qm: ClusterQuiver) -> CheckReport:
    """Compare arrow directions of the exchange quivers qp of B^c and qm of -B^c.

    The two edge sets must have the same size and facets.  Edges whose
    exchanged variables are both non-initial must flip; edges touching an
    initial variable must keep their direction.  Also checks that
    every mutation removing an initial variable is green in both quivers.
    Clusters are compared by mask and edges by facet, the mask of the
    variables both ends share: qp and qm share a VariableTable, or have a
    fresh one each, which numbers the variables alike for B^c and -B^c.
    x_i is the variable with id i - 1 and g-vector e_i.
    """

    def fail(detail: str, counterexample: str | None = None) -> CheckReport:
        return CheckReport("arrow-flip", False, (detail,), counterexample)

    n = len(qp.vertices[0].variables)
    initial, units = (1 << n) - 1, set(_identity(n))
    if {p.mask for p in qp.vertices} != {p.mask for p in qm.vertices}:
        return fail("vertex sets of B^c and -B^c differ")
    minus_edges = {}
    for e in qm.edges:
        sk, dk = qm.vertices[e.src].mask, qm.vertices[e.dst].mask
        minus_edges[sk & dk] = (sk, dk)
    flipped, plus_facets = 0, set()
    for e in qp.edges:
        sk, dk = qp.vertices[e.src].mask, qp.vertices[e.dst].mask
        plus_facets.add(sk & dk)
        pair = minus_edges.get(sk & dk)
        if pair not in ((sk, dk), (dk, sk)):
            return fail("edge sets differ", f"edge {e.src} -> {e.dst} of B^c")
        same_direction = pair == (sk, dk)
        if bool((sk ^ dk) & initial) != same_direction:
            return fail("edge direction contradicts the flip rule", f"edge {e.src} -> {e.dst} of B^c")
        flipped += not same_direction
    if len(qp.edges) != len(qm.edges) or plus_facets != minus_edges.keys():
        return fail("edge sets differ", f"{len(qp.edges)} edges of B^c, {len(qm.edges)} of -B^c")
    # Green-initial: a cluster containing an initial variable always has a
    # non-negative c-vector at that variable.
    for name, q in (("B^c", qp), ("-B^c", qm)):
        for v, payload in enumerate(q.vertices):
            for g, cvec in zip(payload.g_vectors, payload.c_vectors):
                if g in units and min(cvec) < 0:
                    where = f"vertex {v} of {name}, witness path {payload.witness_path}: {cvec}"
                    return fail("initial variable with negative c-vector", where)
    stats = (("flipped_edges", flipped), ("edges", len(qp.edges)))
    return CheckReport("arrow-flip", True, (f"{len(qp.edges)} edges checked, {flipped} flipped",), stats=stats)


def check_tau_c_matrix(spec: CartanSpec, c: CoxeterElement, qp: ClusterQuiver, qm: ClusterQuiver) -> CheckReport:
    """Exhaustive check of the C-matrix identity under tau_c^-1.

    qp and qm are the exchange quivers of B^c and -B^c that
    build_exchange_quiver makes.  For every cluster [x] of A(B^c): the
    C-matrix set of the tau_c^-1 image equals the negated C-matrix set of [x]
    in A(-B^c); and theta of the image variables equals tau_c^-1 of theta of
    the originals, position by position.  The image is [x] with the sink
    mutations c_n, ..., c_1 prepended to its witness path, which is
    prefix-closed, so each image frame is one column step from the image of
    the cluster's BFS parent.  The image frames are frames of A(B^c) relative
    to the initial seed of qp: the walk steps on qp's FrameTable (qp.steps),
    numbers each image variable by the variable id that qp bound to its
    g-vector, checks duality on each frame, and takes theta once per variable
    and tau_c^-1 of it from the root permutation of _c_dynamics.  A cluster of
    qp missing from qm fails the check; an image g-vector that no variable of
    qp has raises InternalError naming the witness path.
    """

    def fail(detail: str, counterexample: str) -> CheckReport:
        return CheckReport("tau-c-matrix", False, (detail,), counterexample)

    def step(frame: tuple, k: int, walked: tuple[int, ...], path: tuple[int, ...]) -> tuple:
        _, cids, g = steps.step(*frame, k - 1, walked)  # walked reaches the image of the cluster at path
        if g not in steps.var_of or g not in theta_at:
            raise InternalError(f"witness path {path}: no cluster variable of A(B^c) has g-vector {g}")
        return cids, frame[1][: k - 1] + (steps.var_of[g],) + frame[1][k:]

    negated_csets = {p.mask: frozenset(tuple(-x for x in v) for v in p.c_vectors) for p in qm.vertices}
    polys = {g: x for p in qp.vertices for g, x in zip(p.g_vectors, p.variables)}
    theta_at = {g: theta(spec, x) for g, x in polys.items()}
    roots, index, tau_inverse = almost_positive_roots(spec), _root_index(spec), _c_dynamics(spec, c)[2]
    tau_theta_at = {g: roots[tau_inverse[index[root]]] for g, root in theta_at.items()}
    steps, sweep = qp.steps, c.order[::-1]
    frame = steps.initial
    for i, k in enumerate(sweep):
        frame = step(frame, k, sweep[:i], ())
    tau_frames = {(): frame}
    for payload in sorted(qp.vertices, key=lambda p: len(p.witness_path)):
        path = payload.witness_path
        if path:
            if path[:-1] not in tau_frames:
                raise InternalError(f"witness path {path} has no parent cluster")
            tau_frames[path] = step(tau_frames[path[:-1]], path[-1], sweep + path[:-1], path)
        cids, ids = tau_frames[path]
        steps.check_duality(cids, ids, sweep + path)
        if payload.mask not in negated_csets:
            return fail("cluster of A(B^c) missing from A(-B^c)", f"witness path {path}")
        tau_cset = frozenset(steps.c_vectors[i] for i in cids)
        if tau_cset != negated_csets[payload.mask]:
            where = f"witness path {path}: {sorted(tau_cset)}"
            return fail("C-matrix set of the tau-image differs from -C in A(-B^c)", where)
        # step has guarded each image variable: the sweep steps every position, each path one more.
        for j, (g_tau, g) in enumerate(zip((steps.g_vectors[x] for x in ids), payload.g_vectors)):
            lhs, rhs = theta_at[g_tau], tau_theta_at[g]
            if lhs != rhs:
                where = f"witness path {path}, position {j + 1}: {lhs} != {rhs}"
                return fail("theta does not intertwine tau_c^-1 with the mutation model", where)
    checked = qp.n_vertices
    return CheckReport("tau-c-matrix", True, (f"{checked} clusters checked",), stats=(("clusters", checked),))

"""Exchange quiver, quiver of c-clusters, and the tau-tilting shadow quiver.

All three quivers share the ClusterQuiver container: vertices carry typed
payloads, edges record the exchanged pair.  Vertex and edge order is canonical
(payload-sorted), so identical inputs always produce identical quivers.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .errors import InputError, InternalError
from .laurent import LabeledSeed, LaurentPolynomial, initial_seed, mutate_seed, theta
from .mutation import build_bc, column_sign, frame_is_unimodular
from .rootsys import CartanSpec, CoxeterElement, Root, enumerate_c_clusters, r_degree, tau

DEFAULT_VERTEX_CAP = 10**6


def vertex_cap_from_env(override: int | None = None) -> int:
    cap = override
    if cap is None:
        raw = os.environ.get("CAMBRIAN_VERTEX_CAP")
        if raw is None:
            return DEFAULT_VERTEX_CAP
        try:
            cap = int(raw)
        except ValueError as exc:
            raise InputError(f"CAMBRIAN_VERTEX_CAP must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise InputError(f"vertex cap must be at least 1, got {cap}")
    return cap


@dataclass(frozen=True)
class QuiverEdge:
    src: int
    dst: int
    out_label: object
    in_label: object
    both_positive: bool | None = None


@dataclass(frozen=True)
class ClusterVertexPayload:
    """A non-labeled cluster: sorted variables with aligned c-/g-vectors."""

    variables: tuple[LaurentPolynomial, ...]
    c_vectors: tuple[tuple[int, ...], ...]
    g_vectors: tuple[tuple[int, ...], ...]
    witness_path: tuple[int, ...]

    def key(self) -> frozenset:
        return frozenset(self.variables)


@dataclass(frozen=True)
class TauTiltingShadow:
    """Combinatorial shadow of a support tau-tilting pair."""

    module_part: tuple[Root, ...]
    projective_part: tuple[int, ...]

    @property
    def m_size(self) -> int:
        return len(self.module_part)


@dataclass(frozen=True)
class ClusterQuiver:
    kind: str
    vertices: tuple
    edges: tuple[QuiverEdge, ...]

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True)
class CheckReport:
    name: str
    ok: bool
    details: tuple[str, ...] = ()
    counterexample: str | None = None
    stats: tuple[tuple[str, int], ...] = ()

    def stat(self, key: str) -> int:
        return dict(self.stats)[key]


def _var_key(p: LaurentPolynomial):
    return p.terms


def build_exchange_quiver(
    spec: CartanSpec,
    c: CoxeterElement,
    sign: str = "plus",
    vertex_cap: int | None = None,
) -> ClusterQuiver:
    """BFS over non-labeled clusters of A(B^c) (or A(-B^c) for sign="minus").

    Arrows are green mutations: the edge points away from the cluster in which
    the exchanged variable's c-vector is non-negative.
    """
    if sign not in ("plus", "minus"):
        raise InputError(f"sign must be 'plus' or 'minus', got {sign!r}")
    cap = vertex_cap_from_env(vertex_cap)
    b = build_bc(spec, c)
    if sign == "minus":
        b = b.negated()
    n = b.rank
    seed0 = initial_seed(b, "trivial")
    key0 = frozenset(seed0.vars)
    seeds: dict[frozenset, LabeledSeed] = {key0: seed0}
    order: list[frozenset] = [key0]
    edge_map: dict[frozenset, tuple] = {}
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
                    if len(seeds) >= cap:
                        raise InputError(
                            "vertex cap exceeded: not finite type or bad input"
                        )
                    seeds[mkey] = mutated
                    order.append(mkey)
                    nxt.append(mutated)
                out_var = seed.vars[k - 1]
                in_var = mutated.vars[k - 1]
                directed = (
                    (skey, mkey, out_var, in_var)
                    if green
                    else (mkey, skey, in_var, out_var)
                )
                pair = frozenset((skey, mkey))
                if pair in edge_map:
                    if edge_map[pair] != directed:
                        raise InternalError("inconsistent edge orientation in BFS")
                else:
                    edge_map[pair] = directed
        frontier = nxt

    # Canonical vertex order: by the sorted variable keys of each cluster.
    def cluster_key(key: frozenset):
        return tuple(sorted(_var_key(v) for v in key))

    ordered = sorted(seeds, key=cluster_key)
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
            key=lambda t: _var_key(t[0]),
        )
        payloads.append(
            ClusterVertexPayload(
                tuple(t[0] for t in triples),
                tuple(t[1] for t in triples),
                tuple(t[2] for t in triples),
                seed.frame.path,
            )
        )
    edges = sorted(
        (
            QuiverEdge(index[s], index[d], ov, iv)
            for s, d, ov, iv in edge_map.values()
        ),
        key=lambda e: (e.src, e.dst),
    )
    return ClusterQuiver("exchange", tuple(payloads), tuple(edges))


def build_c_cluster_quiver(spec: CartanSpec, c: CoxeterElement) -> ClusterQuiver:
    """Quiver on c-clusters; arrows run from the larger-R_c exchanged root."""
    clusters = enumerate_c_clusters(spec, c)
    rdeg = {}
    for cl in clusters:
        for root in cl:
            if root not in rdeg:
                rdeg[root] = r_degree(spec, c, root)
    edges = []
    for i in range(len(clusters)):
        si = set(clusters[i])
        for j in range(i + 1, len(clusters)):
            sj = set(clusters[j])
            diff = si - sj
            if len(diff) != 1:
                continue
            (a,) = diff
            (b,) = sj - si
            if rdeg[a] == rdeg[b]:
                raise InternalError(f"R_c tie between exchanged roots {a}, {b}")
            if rdeg[a] > rdeg[b]:
                edges.append(QuiverEdge(i, j, a, b))
            else:
                edges.append(QuiverEdge(j, i, b, a))
    edges.sort(key=lambda e: (e.src, e.dst))
    return ClusterQuiver("ccluster", clusters, tuple(edges))


def shadow_of_cluster(spec: CartanSpec, cluster: tuple[Root, ...]) -> TauTiltingShadow:
    module = tuple(sorted(r for r in cluster if min(r) >= 0))
    proj = tuple(sorted(r.index(-1) + 1 for r in cluster if min(r) < 0))
    return TauTiltingShadow(module, proj)


def exchange_vertex_root_cluster(
    spec: CartanSpec, c: CoxeterElement, payload: ClusterVertexPayload
) -> tuple[Root, ...]:
    return tuple(sorted(theta(spec, c, v) for v in payload.variables))


def build_tau_tilting_quiver(
    spec: CartanSpec,
    c: CoxeterElement,
    exchange: ClusterQuiver,
) -> ClusterQuiver:
    """Shadow tau-tilting quiver: the vertices of the exchange quiver of B^c
    through theta, arrows reversed."""
    shadows = []
    for payload in exchange.vertices:
        cluster = exchange_vertex_root_cluster(spec, c, payload)
        shadows.append(shadow_of_cluster(spec, cluster))
    ordered = sorted(range(len(shadows)), key=lambda i: (shadows[i].module_part, shadows[i].projective_part))
    index = {old: new for new, old in enumerate(ordered)}
    edges = []
    for e in exchange.edges:
        out_root = theta(spec, c, e.in_label)
        in_root = theta(spec, c, e.out_label)
        edges.append(
            QuiverEdge(
                index[e.dst],
                index[e.src],
                out_root,
                in_root,
                both_positive=min(out_root) >= 0 and min(in_root) >= 0,
            )
        )
    edges.sort(key=lambda e: (e.src, e.dst))
    return ClusterQuiver(
        "tautilt", tuple(shadows[i] for i in ordered), tuple(edges)
    )


def theta_vertex_map(
    spec: CartanSpec,
    c: CoxeterElement,
    exchange: ClusterQuiver,
    ccluster: ClusterQuiver,
) -> tuple[int, ...]:
    """Variable-wise theta as a vertex map, exchange quiver -> c-cluster quiver."""
    index = {ccluster.vertices[i]: i for i in range(ccluster.n_vertices)}
    out = []
    for payload in exchange.vertices:
        cluster = exchange_vertex_root_cluster(spec, c, payload)
        if cluster not in index:
            raise InternalError(f"theta image {cluster} is not an enumerated c-cluster")
        out.append(index[cluster])
    return tuple(out)


def phi_vertex_map(
    spec: CartanSpec, tautilt: ClusterQuiver, ccluster: ClusterQuiver
) -> tuple[int, ...]:
    """Shadow-to-cluster vertex map, tau-tilting quiver -> c-cluster quiver."""
    index = {ccluster.vertices[i]: i for i in range(ccluster.n_vertices)}
    out = []
    for shadow in tautilt.vertices:
        cluster = tuple(
            sorted(
                shadow.module_part
                + tuple(
                    tuple(-1 if j == i - 1 else 0 for j in range(spec.rank))
                    for i in shadow.projective_part
                )
            )
        )
        if cluster not in index:
            raise InternalError(f"shadow cluster {cluster} is not enumerated")
        out.append(index[cluster])
    return tuple(out)


def psi_vertex_map(
    spec: CartanSpec,
    c: CoxeterElement,
    tautilt: ClusterQuiver,
    exchange: ClusterQuiver,
    ccluster: ClusterQuiver,
) -> tuple[int, ...]:
    """Tau-tilting quiver -> exchange quiver, as theta-inverse after phi."""
    phi = phi_vertex_map(spec, tautilt, ccluster)
    theta_map = theta_vertex_map(spec, c, exchange, ccluster)
    inv = {img: i for i, img in enumerate(theta_map)}
    if len(inv) != len(theta_map):
        raise InternalError("theta vertex map is not injective")
    return tuple(inv[phi[i]] for i in range(tautilt.n_vertices))


def _initial_variable_set(q: ClusterQuiver) -> frozenset:
    n = q.vertices[0].variables[0].nvars
    return frozenset(LaurentPolynomial.generator(n, i) for i in range(n))


def check_arrow_flip(qp: ClusterQuiver, qm: ClusterQuiver) -> CheckReport:
    """Compare arrow directions of the exchange quivers qp of B^c and qm of -B^c.

    Edges whose exchanged variables are both non-initial must flip; edges
    touching an initial variable must keep their direction.  Also checks that
    every mutation removing an initial variable is green in both quivers.
    """
    initials = _initial_variable_set(qp)
    kp = {qp.vertices[i].key(): i for i in range(qp.n_vertices)}
    km = {qm.vertices[i].key(): i for i in range(qm.n_vertices)}
    if set(kp) != set(km):
        return CheckReport(
            "arrow-flip", False, ("vertex sets of B^c and -B^c differ",)
        )
    minus_edges = {}
    for e in qm.edges:
        sk = qm.vertices[e.src].key()
        dk = qm.vertices[e.dst].key()
        minus_edges[frozenset((sk, dk))] = (sk, dk)
    flipped = 0
    for e in qp.edges:
        sk = qp.vertices[e.src].key()
        dk = qp.vertices[e.dst].key()
        pair = frozenset((sk, dk))
        if pair not in minus_edges:
            return CheckReport(
                "arrow-flip", False, ("edge sets differ",), counterexample=str(pair)
            )
        same_direction = minus_edges[pair] == (sk, dk)
        non_initial = e.out_label not in initials and e.in_label not in initials
        if non_initial == same_direction:
            return CheckReport(
                "arrow-flip",
                False,
                ("edge direction contradicts the flip rule",),
                counterexample=f"out={e.out_label.terms} in={e.in_label.terms}",
            )
        if not same_direction:
            flipped += 1
    # Green-initial: a cluster containing an initial variable always has a
    # non-negative c-vector at that variable.
    for q in (qp, qm):
        for payload in q.vertices:
            for var, cvec in zip(payload.variables, payload.c_vectors):
                if var in initials and any(x < 0 for x in cvec):
                    return CheckReport(
                        "arrow-flip",
                        False,
                        ("initial variable with negative c-vector",),
                        counterexample=str(cvec),
                    )
    return CheckReport(
        "arrow-flip",
        True,
        (f"{len(qp.edges)} edges checked, {flipped} flipped",),
        stats=(("flipped_edges", flipped), ("edges", len(qp.edges))),
    )


def _replay(seed: LabeledSeed, path: tuple[int, ...]) -> LabeledSeed:
    for k in path:
        seed = mutate_seed(seed, k)
    return seed


def check_tau_c_matrix(
    spec: CartanSpec, c: CoxeterElement, qp: ClusterQuiver, qm: ClusterQuiver
) -> CheckReport:
    """Exhaustive check of the C-matrix identity under tau_c^-1.

    qp and qm are the exchange quivers of B^c and -B^c.  For every cluster
    [x] of A(B^c): the C-matrix set of the tau_c^-1 image equals the negated
    C-matrix set of [x] in A(-B^c); and theta of the image variables equals
    tau_c^-1 of theta of the originals, position by position.  The image is
    [x] with the sink mutations c_n, ..., c_1 prepended to its witness path.
    """
    minus_csets = {
        qm.vertices[i].key(): frozenset(qm.vertices[i].c_vectors)
        for i in range(qm.n_vertices)
    }
    seed0 = initial_seed(build_bc(spec, c), "trivial")
    sink0 = _replay(seed0, tuple(reversed(c.order)))
    checked = 0
    for payload in qp.vertices:
        seed_mu = _replay(seed0, payload.witness_path)
        seed_tau = _replay(sink0, payload.witness_path)
        tau_cset = frozenset(seed_tau.frame.c_column(j + 1) for j in range(spec.rank))
        want = frozenset(tuple(-x for x in v) for v in minus_csets[payload.key()])
        if tau_cset != want:
            return CheckReport(
                "tau-c-matrix",
                False,
                ("C-matrix set of the tau-image differs from -C in A(-B^c)",),
                counterexample=str(sorted(tau_cset)),
            )
        for j in range(spec.rank):
            lhs = theta(spec, c, seed_tau.vars[j])
            rhs = tau(spec, c, theta(spec, c, seed_mu.vars[j]), "inverse")
            if lhs != rhs:
                return CheckReport(
                    "tau-c-matrix",
                    False,
                    ("theta does not intertwine tau_c^-1 with the mutation model",),
                    counterexample=f"position {j + 1}: {lhs} != {rhs}",
                )
        checked += 1
    return CheckReport(
        "tau-c-matrix",
        True,
        (f"{checked} clusters checked",),
        stats=(("clusters", checked),),
    )

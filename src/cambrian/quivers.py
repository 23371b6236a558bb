"""Exchange quiver, quiver of c-clusters, and the tau-tilting shadow quiver.

All three quivers share the ClusterQuiver container: vertices carry typed
payloads, edges record the exchanged pair.  Vertex and edge order is canonical
(payload-sorted), so identical inputs always produce identical quivers.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError, InternalError
from .laurent import LabeledSeed, LaurentPolynomial, initial_seed, mutate_seed, theta
from .mutation import MatrixFrame, build_bc, check_frame, column_sign, frame_mutate, identity_frame
from .rootsys import CartanSpec, CoxeterElement, Root, enumerate_c_clusters, r_degree, tau

DEFAULT_VERTEX_CAP = 10**6


@dataclass(frozen=True)
class QuiverEdge:
    src: int
    dst: int
    out_label: object
    in_label: object
    both_positive: bool | None = None


@dataclass(frozen=True)
class ClusterVertexPayload:
    """A non-labeled cluster: sorted variables with aligned c-/g-vectors, and
    the frame the BFS first reached it with.  The variable at position j of
    the frame is the one whose g-vector is the frame's j-th G-column."""

    variables: tuple[LaurentPolynomial, ...]
    c_vectors: tuple[tuple[int, ...], ...]
    g_vectors: tuple[tuple[int, ...], ...]
    frame: MatrixFrame

    @property
    def witness_path(self) -> tuple[int, ...]:
        return self.frame.path

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


def _columns(frame: MatrixFrame) -> tuple:
    """(g-vector, c-vector, symmetrizer entry) at each position of a frame.
    Two frames with equal sets of these differ by a permutation of positions
    that fixes S, so check_frame passes on both or on neither."""
    return tuple(zip(zip(*frame.g_matrix), zip(*frame.c_matrix), frame.b.skew_symmetrizer))


def _exchange_key(frame: MatrixFrame, k: int) -> tuple:
    """x_k and the pairs (x_i, b_ik) with b_ik != 0, each variable as its
    g-vector: the exchange relation at k is a function of this key."""
    gs = tuple(zip(*frame.g_matrix))
    column = (row[k - 1] for row in frame.b.entries)
    return gs[k - 1], frozenset((g, bik) for g, bik in zip(gs, column) if bik)


def build_exchange_quiver(
    spec: CartanSpec,
    c: CoxeterElement,
    sign: str = "plus",
    vertex_cap: int = DEFAULT_VERTEX_CAP,
) -> ClusterQuiver:
    """BFS over non-labeled clusters of A(B^c) (or A(-B^c) for sign="minus").

    Arrows are green mutations: the edge points away from the cluster in which
    the exchanged variable's c-vector is non-negative.

    The BFS moves integer B/C/G frames and keys a cluster by its set of
    g-vectors, which in finite type determine the cluster variables; it raises
    InternalError if g-vectors and Laurent polynomials are not in bijection.
    The exact exchange x_k x_k' = prod x_i^[b_ik]_+ + prod x_i^[-b_ik]_+ is
    computed by mutate_seed once per distinct relation (_exchange_key) and
    looked up, from either end, for every later edge with that relation.
    Every stored frame passes check_frame, and a frame that reaches a stored
    cluster must carry the same _columns as the stored one.
    """
    if sign not in ("plus", "minus"):
        raise InputError(f"sign must be 'plus' or 'minus', got {sign!r}")
    b = build_bc(spec, c)
    if sign == "minus":
        b = b.negated()
    n = b.rank
    seed0 = initial_seed(b, "trivial")
    polys: dict[tuple[int, ...], LaurentPolynomial] = {}
    gvecs: dict[LaurentPolynomial, tuple[int, ...]] = {}

    def bind(g: tuple[int, ...], x: LaurentPolynomial) -> None:
        if polys.setdefault(g, x) != x:
            raise InternalError(f"g-vector {g} belongs to two cluster variables")
        if gvecs.setdefault(x, g) != g:
            raise InternalError(f"a cluster variable has two g-vectors, {gvecs[x]} and {g}")

    frame0 = seed0.frame
    for g, x in zip(zip(*frame0.g_matrix), seed0.vars):
        bind(g, x)
    check_frame(frame0)
    frames: dict[frozenset, MatrixFrame] = {frozenset(polys): frame0}
    relations: dict[tuple, LaurentPolynomial] = {}
    edge_map: dict[frozenset, tuple] = {}
    frontier = [frame0]
    while frontier:
        nxt = []
        for frame in frontier:
            gs = tuple(zip(*frame.g_matrix))
            skey = frozenset(gs)
            for k in range(1, n + 1):
                green = column_sign(frame.c_column(k)) > 0
                relation = _exchange_key(frame, k)
                new_var = relations.get(relation)
                if new_var is None:
                    mutated_seed = mutate_seed(LabeledSeed(tuple(polys[g] for g in gs), None, frame), k)
                    mutated, new_var = mutated_seed.frame, mutated_seed.vars[k - 1]
                    relations[relation] = new_var
                    # The same relation read from the mutated seed: exchanging
                    # x_k' there gives x_k back.
                    relations[_exchange_key(mutated, k)] = polys[gs[k - 1]]
                else:
                    mutated = frame_mutate(frame, k)
                g_new = mutated.g_column(k)
                bind(g_new, new_var)
                mkey = frozenset(gs[: k - 1] + (g_new,) + gs[k:])
                if mkey not in frames:
                    if len(frames) >= vertex_cap:
                        raise InputError("vertex cap exceeded: not finite type or bad input")
                    check_frame(mutated)
                    frames[mkey] = mutated
                    nxt.append(mutated)
                elif frozenset(_columns(frames[mkey])) != frozenset(_columns(mutated)):
                    raise InternalError(
                        f"mutation path {mutated.path} reaches a stored cluster with other columns"
                    )
                directed = (skey, mkey, gs[k - 1], g_new) if green else (mkey, skey, g_new, gs[k - 1])
                if edge_map.setdefault(frozenset((skey, mkey)), directed) != directed:
                    raise InternalError("inconsistent edge orientation in BFS")
        frontier = nxt

    # Canonical vertex order: by the sorted variable keys of each cluster.
    def cluster_key(key: frozenset):
        return tuple(sorted(_var_key(polys[g]) for g in key))

    ordered = sorted(frames, key=cluster_key)
    index = {key: i for i, key in enumerate(ordered)}
    payloads = []
    for key in ordered:
        frame = frames[key]
        # Variables sorted, with their c- and g-vectors aligned.
        columns = ((polys[g], cv, g) for cv, g in zip(zip(*frame.c_matrix), zip(*frame.g_matrix)))
        columns = sorted(columns, key=lambda t: _var_key(t[0]))
        payloads.append(ClusterVertexPayload(*zip(*columns), frame))
    edges = sorted(
        (QuiverEdge(index[s], index[d], polys[go], polys[gi]) for s, d, go, gi in edge_map.values()),
        key=lambda e: (e.src, e.dst),
    )
    return ClusterQuiver("exchange", tuple(payloads), tuple(edges))


def build_c_cluster_quiver(spec: CartanSpec, c: CoxeterElement) -> ClusterQuiver:
    """Quiver on c-clusters; arrows run from the larger-R_c exchanged root."""
    clusters = enumerate_c_clusters(spec, c)
    rdeg = {root: r_degree(spec, c, root) for root in set().union(*clusters)}
    # Adjacent clusters share a facet (n-1 roots); each facet lies in exactly two.
    facets: dict[tuple[Root, ...], list[tuple[int, Root]]] = {}
    for i, cluster in enumerate(clusters):
        for k, root in enumerate(cluster):
            facets.setdefault(cluster[:k] + cluster[k + 1 :], []).append((i, root))
    edges = []
    for facet, members in facets.items():
        if len(members) != 2:
            raise InternalError(f"facet {facet} lies in {len(members)} c-clusters, not 2")
        (i, a), (j, b) = members
        if rdeg[a] == rdeg[b]:
            raise InternalError(f"R_c tie between exchanged roots {a}, {b}")
        if rdeg[a] < rdeg[b]:
            (i, a), (j, b) = (j, b), (i, a)
        edges.append(QuiverEdge(i, j, a, b))
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


def check_tau_c_matrix(
    spec: CartanSpec, c: CoxeterElement, qp: ClusterQuiver, qm: ClusterQuiver
) -> CheckReport:
    """Exhaustive check of the C-matrix identity under tau_c^-1.

    qp and qm are the exchange quivers of B^c and -B^c.  For every cluster
    [x] of A(B^c): the C-matrix set of the tau_c^-1 image equals the negated
    C-matrix set of [x] in A(-B^c); and theta of the image variables equals
    tau_c^-1 of theta of the originals, position by position.  The image is
    [x] with the sink mutations c_n, ..., c_1 prepended to its witness path.
    Witness paths are prefix-closed, so each image frame is one frame_mutate
    from the image of the cluster's BFS parent; every frame of this tau walk
    passes check_frame.  The image frames are frames of A(B^c) relative to
    the initial seed of qp, so each image variable is read from qp by its
    g-vector, and theta and tau_c^-1 of theta are taken once per variable.
    A cluster of qp missing from qm fails the check; an image g-vector that
    no variable of qp has raises InternalError naming the witness path.
    """
    minus_csets = {p.key(): frozenset(p.c_vectors) for p in qm.vertices}
    polys = {g: x for p in qp.vertices for g, x in zip(p.g_vectors, p.variables)}
    theta_at = {g: theta(spec, c, x) for g, x in polys.items()}
    tau_theta_at = {g: tau(spec, c, root, "inverse") for g, root in theta_at.items()}
    sink0 = identity_frame(build_bc(spec, c))
    for k in reversed(c.order):
        sink0 = frame_mutate(sink0, k)
    tau_frames = {(): sink0}
    checked = 0
    for payload in sorted(qp.vertices, key=lambda p: len(p.witness_path)):
        path = payload.witness_path
        if path:
            if path[:-1] not in tau_frames:
                raise InternalError(f"witness path {path} has no parent cluster")
            tau_frames[path] = frame_mutate(tau_frames[path[:-1]], path[-1])
        frame_tau = tau_frames[path]
        check_frame(frame_tau)
        key = payload.key()
        if key not in minus_csets:
            return CheckReport(
                "tau-c-matrix",
                False,
                ("cluster of A(B^c) missing from A(-B^c)",),
                counterexample=f"witness path {path}",
            )
        tau_cset = frozenset(zip(*frame_tau.c_matrix))
        want = frozenset(tuple(-x for x in v) for v in minus_csets[key])
        if tau_cset != want:
            return CheckReport(
                "tau-c-matrix",
                False,
                ("C-matrix set of the tau-image differs from -C in A(-B^c)",),
                counterexample=f"witness path {path}: {sorted(tau_cset)}",
            )
        for j, (g_tau, g) in enumerate(zip(zip(*frame_tau.g_matrix), zip(*payload.frame.g_matrix))):
            try:
                lhs, rhs = theta_at[g_tau], tau_theta_at[g]
            except KeyError as exc:
                raise InternalError(
                    f"witness path {path}: no cluster variable of A(B^c) has g-vector {exc.args[0]}"
                ) from None
            if lhs != rhs:
                return CheckReport(
                    "tau-c-matrix",
                    False,
                    ("theta does not intertwine tau_c^-1 with the mutation model",),
                    counterexample=f"witness path {path}, position {j + 1}: {lhs} != {rhs}",
                )
        checked += 1
    return CheckReport(
        "tau-c-matrix",
        True,
        (f"{checked} clusters checked",),
        stats=(("clusters", checked),),
    )

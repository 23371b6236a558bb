"""Shared caches so every test file reuses the same built quivers, and the
oracles the tests compare against."""

import json
from functools import lru_cache

from cambrian.errors import InputError, InternalError
from cambrian.laurent import (
    LaurentPolynomial,
    VariableTable,
    _divide,
    _pack,
    _place_values,
    denominator_vector,
    poly_hash,
    poly_str,
    theta,
)
from cambrian.mutation import MatrixFrame, build_bc, column_sign
from cambrian.oracles import check_duality, frame_is_unimodular, initial_seed, mutate_columns, mutate_seed, weyl_group_elements
from cambrian.quivers import (
    ClusterQuiver,
    ClusterVertexPayload,
    QuiverEdge,
    build_c_cluster_quiver,
    build_exchange_quiver,
    build_tau_tilting_quiver,
)
from cambrian.rootsys import (
    CoxeterElement,
    _c_dynamics,
    _check_apr,
    _type_row,
    cartan_matrix,
    negative_simple,
    positive_roots,
)
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


def compatibility_degree(spec, c, alpha, beta):
    """The c-compatibility degree (alpha ||_c beta), read from the table of
    enumerate_c_clusters."""
    return _c_dynamics(spec, c)[1][_check_apr(spec, alpha)][_check_apr(spec, beta)]


@lru_cache(maxsize=None)
def spec_of(dynkin_type, rank):
    return cartan_matrix(dynkin_type, rank)


def coxeter_words(spec):
    """One word for each Coxeter element of spec.  An element is an acyclic
    orientation of the Dynkin diagram, s_i before s_j for each arrow i -> j
    (2^(n-1) of them on a tree of n nodes), and its word is the linear
    extension that takes the smallest available source first."""
    n = spec.rank
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if spec.cartan[i][j]]
    words = []
    for bits in range(1 << len(edges)):
        before = [set() for _ in range(n)]  # before[v]: the neighbours of v that precede it
        for b, (i, j) in enumerate(edges):
            first, then = (j, i) if bits >> b & 1 else (i, j)
            before[then].add(first)
        word, left = [], set(range(n))
        while left:
            v = min(v for v in left if not before[v] & left)
            word.append(v + 1)
            left.remove(v)
        words.append(tuple(word))
    return words


def tau_c_period(spec):
    """The order of tau_c as a permutation of the almost positive roots, for
    every Coxeter element c: (h + 2) / 2 when w_0 = -1 and h + 2 otherwise,
    h the Coxeter number (Fomin-Zelevinsky, Ann. Math. 158).  w_0 = -1 in
    every finite type but A_n for n >= 2, D_n for odd n, and E6."""
    t, n = spec.dynkin_type, spec.rank
    h = max(_type_row(t, n)[2]) + 1
    w0_is_minus_one = not (t == "A" and n >= 2 or t == "D" and n % 2 or t == "E" and n == 6)
    return (h + 2) // 2 if w0_is_minus_one else h + 2


def signed_bc(spec, c, sign="plus"):
    """B^c, or -B^c for sign="minus": the exchange matrices of a command's
    two exchange builds."""
    b = build_bc(spec, c)
    return b.negated() if sign == "minus" else b


@lru_cache(maxsize=None)
def exchange_of(dynkin_type, rank, order, sign="plus"):
    b = signed_bc(spec_of(dynkin_type, rank), CoxeterElement(order), sign)
    return build_exchange_quiver(b, VariableTable(rank))


@lru_cache(maxsize=None)
def ccluster_of(dynkin_type, rank, order):
    return build_c_cluster_quiver(spec_of(dynkin_type, rank), CoxeterElement(order))


@lru_cache(maxsize=None)
def tautilt_of(dynkin_type, rank, order):
    return build_tau_tilting_quiver(spec_of(dynkin_type, rank), CoxeterElement(order))


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


def mask_roots(spec, mask):
    """The positive roots named by the bits of a mask over positive_roots(spec)."""
    return frozenset(r for k, r in enumerate(positive_roots(spec)) if mask >> k & 1)


@lru_cache(maxsize=None)
def weyl_group_of(dynkin_type, rank):
    return weyl_group_elements(spec_of(dynkin_type, rank))


def prefix_images(spec, word):
    """(a_j, w_{<j}(alpha_{a_j})) for each letter a_j of a reduced word, in one
    pass over the coefficient columns w(alpha_1), ..., w(alpha_n) of the
    prefix w: right multiplication by s_a subtracts C_aj * w(alpha_a) from
    column j.  The oracle for the root-index tables of cambrian.sortables."""
    n = spec.rank
    cols = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    out = []
    for a in word:
        col_a = cols[a - 1]
        assert min(col_a) >= 0, f"{word} is not reduced"
        out.append((a, col_a))
        for j, x in enumerate(spec.cartan[a - 1]):
            if x:
                cols[j] = tuple(u - x * v for u, v in zip(cols[j], col_a))
    return out


def prefix_image_cl(spec, word):
    """cl_c from the prefix images of a sorting word: the rightmost occurrence
    of each letter i gives its prefix image, an unused letter -alpha_i."""
    last = dict(prefix_images(spec, word))
    return tuple(sorted(last.get(i, negative_simple(spec, i)) for i in range(1, spec.rank + 1)))


def pair_scan_cambrian_hasse(spec, c):
    """The Cambrian Hasse quiver by comparing every pair of inversion sets,
    and its edges as (src, dst, out, in), out and in the prefix-image
    cl-roots exchanged across the cover: the oracle for the covers that
    build_cambrian_hasse reads off by pi_down."""
    sortables = enumerate_sortables(spec, c)
    inv = [frozenset(image for _, image in prefix_images(spec, s.word)) for s in sortables]
    m = len(sortables)
    # Strict-order bitmasks: down[j] = elements below j, up[i] = elements above i.
    down = [0] * m
    up = [0] * m
    for i in range(m):
        for j in range(m):
            if i != j and inv[i] < inv[j]:
                down[j] |= 1 << i
                up[i] |= 1 << j
    clusters = [set(prefix_image_cl(spec, s.word)) for s in sortables]
    labeled = []
    for j in range(m):
        for i in range(m):
            if down[j] >> i & 1 and not down[j] & up[i]:
                (out_root,), (in_root,) = clusters[j] - clusters[i], clusters[i] - clusters[j]
                labeled.append((j, i, out_root, in_root))
    edges = tuple(QuiverEdge(j, i) for j, i, _, _ in labeled)
    return ClusterQuiver("cambrian", sortables, edges), tuple(labeled)


def mutate_matrix(m, k):
    """Matrix mutation in direction k (1-based) of an m x n matrix, m >= n:
    the reference for the B_t that the column step derives."""
    n = len(m[0])
    if not 1 <= k <= n:
        raise InputError(f"mutation direction {k} out of range 1..{n}")
    k0 = k - 1
    # m'_ij = m_ij + [m_ik]_+ m_kj + m_ik [-m_kj]_+, which is m_ij + m_ik [m_kj]_+
    # for m_ik > 0 and m_ij + m_ik [-m_kj]_+ for m_ik < 0; row and column k negate.
    plus = tuple(max(x, 0) for x in m[k0])
    minus = tuple(max(-x, 0) for x in m[k0])
    out = []
    for i, row in enumerate(m):
        a = row[k0]
        if i == k0:
            out.append(tuple(-x for x in row))
            continue
        if a:
            row = tuple(x + a * y for x, y in zip(row, plus if a > 0 else minus))
        out.append(row[:k0] + (-a,) + row[k0 + 1 :])
    return tuple(out)


def frame_mutate(frame, k):
    """The frame one mutation in direction k (1-based) away, by the vector
    column step."""
    return mutate_columns(frame, k)[1]


def ids_frame(steps, cids, ids, path) -> MatrixFrame:
    """The vector frame of the c ids and variable ids of a FrameTable,
    reached by path, with the table's S B_0 and S."""
    cs, gs = tuple(steps.c_vectors[i] for i in cids), tuple(steps.g_vectors[x] for x in ids)
    return MatrixFrame(cs, gs, path, steps.sb0, steps.s)


def stored_frame(q, payload) -> MatrixFrame:
    """The vector frame of the seed that a vertex of the exchange quiver q
    stores, with the S B_0 and S of q's FrameTable (q.steps)."""
    return MatrixFrame(payload.c_vectors, payload.g_vectors, payload.witness_path, q.steps.sb0, q.steps.s)


def check_frame(frame: MatrixFrame) -> None:
    """Sign coherence of every C-column and the duality G^T S C = S on a
    vector frame, each InternalError naming its path: the oracle for the
    checks a FrameTable makes on ids."""
    for c in frame.c_vectors:
        column_sign(c, frame.path)
    try:
        check_duality(frame)
    except InternalError as exc:
        raise InternalError(f"witness path {frame.path}: {exc}") from None


def lp_pow(p, k):
    """p to the power k >= 0 by repeated tuple multiplication."""
    if k < 0:
        raise InputError("negative powers are not defined for polynomials")
    out = LaurentPolynomial.monomial(p.nvars, (0,) * p.nvars)
    for _ in range(k):
        out = out * p
    return out


def exact_div(num, divisor, margins=None):
    """num / divisor by the packed heap division of the exchanges; raises
    InternalError if the quotient is not Laurent.  It packs over the Newton
    box of num, each coordinate's radix widened by its margin if given, as
    on the radix of a VariableTable."""
    if divisor.is_zero():
        raise InputError("division by the zero polynomial")
    if num.is_zero():
        return num
    lo, hi = num.box
    weights = _place_values(lo, hi if margins is None else tuple(h + m for h, m in zip(hi, margins)))
    return _divide(dict(_pack(num.terms, weights)), divisor, _pack(divisor.terms, weights), lo, hi, weights)


def row_major_frame_mutate(b, c, g, k):
    """One mutation in direction k (1-based) of row-major B, C and G matrices:
    B and C together as the extended matrix [B; C], and G in column k only,
    g'_k = -g_k + sum_j [-eps * b_jk]_+ g_j with eps the sign of c_k.  The
    oracle for the column step of mutate_columns."""
    n, k0 = len(b), k - 1
    eps = column_sign(tuple(row[k0] for row in c), ())
    ext = mutate_matrix(b + c, k)
    coef = [max(-eps * b[j][k0], 0) for j in range(n)]
    new_g = tuple(row[:k0] + (sum(x * y for x, y in zip(coef, row)) - row[k0],) + row[k:] for row in g)
    return ext[:n], ext[n:], new_g


def derived_b(frame):
    """The frame's B_t, row-major, column k read off the column step at k."""
    return tuple(zip(*(mutate_columns(frame, k)[0] for k in range(1, len(frame.c_vectors) + 1))))


def b_along_path(b, path):
    """mutate_matrix applied to the row-major matrix b along path: the
    reference for the B_t that a frame reached by path derives."""
    for k in path:
        b = mutate_matrix(b, k)
    return b


def polynomial_keyed_exchange_quiver(spec, c, sign="plus"):
    """The exchange BFS on full Laurent seeds, a cluster keyed by its set of
    polynomials, each edge mutated from both ends, and its edges as (src,
    dst, out, in), out the variable that the green mutation from src
    exchanges and in the one it brings: the oracle for the g-vector-keyed
    frame BFS of build_exchange_quiver."""
    b = signed_bc(spec, c, sign)
    n = b.rank
    seed0 = initial_seed(b, "trivial")
    key0 = frozenset(seed0.vars)
    seeds = {key0: seed0}
    # Variable ids in the order the BFS first meets the variables.
    ids = {x: i for i, x in enumerate(seed0.vars)}
    edge_map = {}
    frontier = [seed0]
    while frontier:
        nxt = []
        for seed in frontier:
            skey = frozenset(seed.vars)
            for k in range(1, n + 1):
                green = column_sign(seed.frame.c_column(k), seed.frame.path) > 0
                mutated = mutate_seed(seed, k)
                mkey = frozenset(mutated.vars)
                if mkey not in seeds:
                    seeds[mkey] = mutated
                    nxt.append(mutated)
                out_var, in_var = seed.vars[k - 1], mutated.vars[k - 1]
                ids.setdefault(in_var, len(ids))
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
        mask = sum(1 << ids[x] for x in key)
        f = seed.frame
        payloads.append(ClusterVertexPayload(seed.vars, f.c_vectors, f.g_vectors, tuple(ids[x] for x in seed.vars),
                                             f.path, mask))
    labeled = tuple(sorted(((index[s], index[d], ov, iv) for s, d, ov, iv in edge_map.values()),
                           key=lambda e: e[:2]))
    edges = tuple(QuiverEdge(s, d) for s, d, _, _ in labeled)
    return ClusterQuiver("exchange", tuple(payloads), edges), labeled


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


def g_vector_exchange_key(frame, k):
    """x_k and the pairs (x_i, b_ik) with b_ik != 0, each variable as its
    g-vector: within one exchange quiver the exchange relation at k is a
    function of this key, which needs no VariableTable."""
    gs = frame.g_vectors
    return gs[k - 1], frozenset((g, bik) for g, bik in zip(gs, mutate_columns(frame, k)[0]) if bik)


def assert_exchange_relations(q):
    """Every distinct exchange relation of the exchange quiver q multiplies
    out: x_k' x_k == prod x_i^[b_ik]_+ + prod x_i^[-b_ik]_+, in the tuple
    arithmetic of LaurentPolynomial, at the frame each vertex stores.  The
    independent check of the packed division of mutate_seed.  Returns the
    number of relations checked."""
    polys = {g: x for p in q.vertices for g, x in zip(p.g_vectors, p.variables)}
    nvars = q.vertices[0].variables[0].nvars
    one = LaurentPolynomial.monomial(nvars, (0,) * nvars)
    seen = set()
    for payload in q.vertices:
        frame = stored_frame(q, payload)
        xs = [polys[g] for g in payload.g_vectors]
        for k in range(1, len(xs) + 1):
            key = g_vector_exchange_key(frame, k)
            if key in seen:
                continue
            mutated = frame_mutate(frame, k)
            seen.update((key, g_vector_exchange_key(mutated, k)))
            pos, neg = one, one
            for x, bik in zip(xs, mutate_columns(frame, k)[0]):
                if bik > 0:
                    pos = pos * lp_pow(x, bik)
                elif bik < 0:
                    neg = neg * lp_pow(x, -bik)
            x_new = polys[mutated.g_column(k)]
            assert x_new * xs[k - 1] == pos + neg, f"relation at {frame.path}, k={k}"
    return len(seen)


def per_position_tau_tilting(spec, exchange, ccluster):
    """The theta shadow of the exchange quiver of B^c, arrows reversed, its
    edges as (src, dst, out, in), and the theta vertex map, with theta taken
    at every position of every cluster and at both labels of every edge
    (end_labels).  The oracle for the Euler-form build_tau_tilting_quiver,
    which uses neither Laurent polynomials nor theta, and for
    theta_vertex_map, which takes theta once per variable."""
    clusters = [tuple(sorted(theta(spec, x) for x in p.variables)) for p in exchange.vertices]
    ordered = sorted(range(len(clusters)), key=lambda i: _pair(clusters[i]))
    index = {old: new for new, old in enumerate(ordered)}
    labeled = sorted((index[d], index[s], theta(spec, x_in), theta(spec, x_out))
                     for s, d, x_out, x_in in end_labels(exchange))
    edges = tuple(QuiverEdge(s, d) for s, d, _, _ in labeled)
    tautilt = ClusterQuiver("tautilt", tuple(clusters[i] for i in ordered), edges)
    ccluster_index = {cluster: i for i, cluster in enumerate(ccluster.vertices)}
    return tautilt, tuple(labeled), tuple(ccluster_index[cluster] for cluster in clusters)


def _root_str(r):
    return "[" + ",".join(str(x) for x in r) + "]"


def _pair(cluster):
    """(M, P) of a tau-tilting vertex, a sorted root tuple: its positive
    roots, and the i of each -alpha_i, which sort first in i order."""
    return [r for r in cluster if min(r) >= 0], [r.index(-1) + 1 for r in cluster if min(r) < 0]


def _var_payloads(q, verbose=False):
    """The payload dict of each distinct cluster variable of an exchange quiver."""
    if q.kind != "exchange":
        return {}
    payloads = {}
    for x in {x for payload in q.vertices for x in payload.variables}:
        payloads[x] = {"d": _root_str(denominator_vector(x)), "hash": poly_hash(x)}
        if verbose:
            payloads[x]["poly"] = poly_str(x)
    return payloads


def _vertex_payload(q, v, var_payloads):
    if q.kind == "exchange":
        at = sorted(range(len(v.variables)), key=lambda j: v.variables[j].terms)
        return {
            "variables": [var_payloads[v.variables[j]] for j in at],
            "c_vectors": [list(v.c_vectors[j]) for j in at],
            "g_vectors": [list(v.g_vectors[j]) for j in at],
        }
    if q.kind == "ccluster":
        return {"roots": [_root_str(r) for r in v]}
    if q.kind == "tautilt":
        module, proj = _pair(v)
        return {"module_part": [_root_str(r) for r in module], "projective_part": proj, "m_size": len(module)}
    return {"word": list(v.word), "blocks": [list(b) for b in v.blocks], "length": v.length}


def _edge_label(label, var_payloads):
    if isinstance(label, LaurentPolynomial):
        return "d={d}#{hash}".format(**var_payloads[label])
    return _root_str(label)


def _members(q, v):
    """The cluster variables or roots of a vertex of q, in position order."""
    return v.variables if q.kind == "exchange" else v.cluster if q.kind == "cambrian" else v


def end_labels(q):
    """Each edge of q as (src, dst, out, in), its labels read off its two
    ends by scanning each end's members in position order: out is the member
    of src that dst lacks, and in the member of dst that src lacks."""
    labeled = []
    for e in q.edges:
        src, dst = _members(q, q.vertices[e.src]), _members(q, q.vertices[e.dst])
        (out,) = [x for x in src if x not in dst]
        (into,) = [x for x in dst if x not in src]
        labeled.append((e.src, e.dst, out, into))
    return tuple(labeled)


def dict_document_json(q, verbose=False):
    """q as a document of nested dicts, encoded by json.dumps(indent=2,
    sort_keys=True), each edge labelled by end_labels: the oracle for the
    streaming writer quiver_to_json."""
    var_payloads = _var_payloads(q, verbose)
    doc = {
        "vertices": [{"id": i, "payload": _vertex_payload(q, v, var_payloads)} for i, v in enumerate(q.vertices)],
        "edges": [
            {"src": s, "dst": d, "out": _edge_label(out, var_payloads), "in": _edge_label(into, var_payloads)}
            for s, d, out, into in end_labels(q)
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _vertex_label(q, v, var_payloads):
    if q.kind == "exchange":
        return "{" + ",".join(var_payloads[x]["d"] for x in sorted(v.variables, key=lambda x: x.terms)) + "}"
    if q.kind == "ccluster":
        return "{" + ",".join(_root_str(r) for r in v) + "}"
    if q.kind == "tautilt":
        module, proj = _pair(v)
        mods = ",".join(_root_str(r) for r in module)
        projs = ",".join(str(i) for i in proj)
        return f"M=[{mods}] P=[{projs}]"
    return "s" + ".".join(str(a) for a in v.word) if v.word else "e"


def per_vertex_dot(q):
    """q in DOT, each label built from its vertex and escaped: the oracle for
    quiver_to_dot."""
    var_payloads = _var_payloads(q)
    lines = [f"digraph {q.kind} {{"]
    for i, v in enumerate(q.vertices):
        label = _vertex_label(q, v, var_payloads).replace('"', '\\"')
        lines.append(f'  v{i} [label="{label}"];')
    for e in q.edges:
        lines.append(f"  v{e.src} -> v{e.dst};")
    lines.append("}")
    return "\n".join(lines) + "\n"

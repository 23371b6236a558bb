"""The mask-keyed frame BFS of build_exchange_quiver against the
polynomial-keyed Laurent BFS it replaced, the VariableTable that the builds
of B and -B share, and the checks the BFS makes."""

import re
from functools import reduce
from operator import add, mul, or_

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import cambrian.laurent
from cambrian.errors import InternalError
from cambrian.lattice import verify_quiver_map
from cambrian.laurent import LaurentPolynomial, VariableTable, _box, _exchange, _pack, initial_seed, mutate_seed
from cambrian.mutation import FrameTable, build_bc, mutate_columns
from cambrian.quivers import build_exchange_quiver, theta_vertex_map
from cambrian.rootsys import CoxeterElement, positive_roots

from conftest import (
    RANK_LE_4,
    TEST_MATRIX,
    assert_exchange_relations,
    b_along_path,
    ccluster_of,
    check_frame,
    exchange_of,
    ids_frame,
    polynomial_keyed_exchange_quiver,
    spec_of,
    stored_frame,
)


def assert_matches_oracle(t, n, c, sign):
    spec = spec_of(t, n)
    q = build_exchange_quiver(spec, c, sign)
    oracle = polynomial_keyed_exchange_quiver(spec, c, sign)
    # Payloads (seeds in position order, witness paths, masks) and edges.
    assert q.vertices == oracle.vertices
    assert q.edges == oracle.edges


@st.composite
def type_c_and_sign(draw):
    t, n = draw(st.sampled_from(RANK_LE_4))
    c = CoxeterElement(tuple(draw(st.permutations(range(1, n + 1)))))
    return t, n, c, draw(st.sampled_from(("plus", "minus")))


@settings(deadline=None, max_examples=40)
@given(type_c_and_sign())
def test_matches_polynomial_keyed_bfs(case):
    assert_matches_oracle(*case)


@pytest.mark.parametrize(
    "t,n,order,sign",
    [("A", 5, (1, 2, 3, 4, 5), "plus"), ("A", 5, (3, 1, 5, 2, 4), "minus"),
     ("D", 5, (1, 2, 3, 4, 5), "plus"), ("D", 5, (5, 3, 1, 4, 2), "minus")],
)
def test_matches_polynomial_keyed_bfs_rank_5(t, n, order, sign):
    assert_matches_oracle(t, n, CoxeterElement(order), sign)


def test_e6_exchange_theta_anti_iso():
    order = (1, 2, 3, 4, 5, 6)
    spec, c = spec_of("E", 6), CoxeterElement(order)
    exq, ccq = exchange_of("E", 6, order), ccluster_of("E", 6, order)
    assert (exq.n_vertices, len(exq.edges)) == (833, 2499)
    rep = verify_quiver_map(exq, ccq, theta_vertex_map(spec, c, exq, ccq), "anti")
    assert rep.ok, rep.counterexample


def shared_table_builds(t, n, c):
    """The plus and minus exchange quivers built with one VariableTable, the
    minus one checked against a minus build with a fresh table: payloads
    (seeds in position order, witness paths and masks) and edges.  Each mask
    must be the OR of its variables' ids in the shared table.  Returns the
    quivers and the number of exact exchanges (laurent._exchange calls) of
    the shared minus build."""
    spec, table = spec_of(t, n), VariableTable(n)
    plus = build_exchange_quiver(spec, c, "plus", table=table)
    calls = []
    original = cambrian.laurent._exchange

    def counted(pos, neg, divisor, *box):
        calls.append(divisor)
        return original(pos, neg, divisor, *box)

    cambrian.laurent._exchange = counted
    try:
        minus = build_exchange_quiver(spec, c, "minus", table=table)
    finally:
        cambrian.laurent._exchange = original
    fresh = build_exchange_quiver(spec, c, "minus")
    assert minus.vertices == fresh.vertices
    assert minus.edges == fresh.edges
    for q in (plus, minus):
        for p in q.vertices:
            assert p.mask == reduce(or_, (1 << table.ids[x] for x in p.variables))
            assert bin(p.mask).count("1") == n
    return plus, minus, len(calls)


@st.composite
def type_and_c(draw):
    t, n = draw(st.sampled_from(RANK_LE_4))
    return t, n, CoxeterElement(tuple(draw(st.permutations(range(1, n + 1)))))


@settings(deadline=None, max_examples=30)
@given(type_and_c())
def test_shared_table_minus_build_matches_fresh(case):
    _, minus, calls = shared_table_builds(*case)
    assert calls == 0
    assert_exchange_relations(minus)


@pytest.mark.parametrize("order", [(1, 2, 3, 4, 5, 6), (2, 5, 1, 6, 3, 4)])
def test_e6_exchange_relations_multiply_out(order):
    # The minus build reads each of the plus build's 385 exact exchanges
    # from the table and makes none.  The table divides on packed
    # exponents and reuses its quotients; tuple multiplication
    # checks every relation of both quivers, each read from both its ends.
    plus, minus, calls = shared_table_builds("E", 6, CoxeterElement(order))
    assert calls == 0
    assert assert_exchange_relations(plus) == assert_exchange_relations(minus) == 2 * 385


@pytest.mark.slow
def test_e7_exchange_builds():
    plus, minus, calls = shared_table_builds("E", 7, CoxeterElement(tuple(range(1, 8))))
    assert calls == 0
    for q in (plus, minus):
        assert (q.n_vertices, len(q.edges)) == (4160, 14560)
        assert_exchange_relations(q)


@pytest.mark.slow
def test_e8_exchange_build():
    q = build_exchange_quiver(spec_of("E", 8), CoxeterElement(tuple(range(1, 9))))
    assert (q.n_vertices, len(q.edges)) == (25080, 100320)


def test_frame_reaching_a_stored_cluster_must_match(monkeypatch):
    # A2 with c = 1,2 is a pentagon: the BFS stores the clusters at paths
    # (1, 2) and (2, 1) as new ones, and the edge between them is the one
    # it steps across to a stored cluster, through the column step alone.
    # The other steps from depth 2 go back along tree edges, which the BFS
    # skips.  Swap two of the C-columns of that step so its (g, c) pairs no
    # longer match the stored ones.
    original = FrameTable.step

    def corrupted(self, cids, gids, k0, path):
        column, new_cids, new_gids = original(self, cids, gids, k0, path)
        return column, (new_cids[1], new_cids[0]) + new_cids[2:] if len(path) == 2 else new_cids, new_gids

    monkeypatch.setattr(FrameTable, "step", corrupted)
    message = "mutation path (1, 2, 1) reaches a stored cluster with other columns"
    with pytest.raises(InternalError, match=re.escape(message)):
        build_exchange_quiver(spec_of("A", 2), CoxeterElement((1, 2)))


def test_stored_frames_are_checked(monkeypatch):
    # A G-matrix off by a sign breaks duality on the first stored frame.
    original = FrameTable.step

    def corrupted(self, cids, gids, k0, path):
        column, new_cids, new_gids = original(self, cids, gids, k0, path)
        return column, new_cids, tuple(self.g_id(tuple(-x for x in self.g_vectors[g])) for g in new_gids)

    monkeypatch.setattr(FrameTable, "step", corrupted)
    with pytest.raises(InternalError, match=re.escape("witness path (1,): C/G duality identity failed")):
        build_exchange_quiver(spec_of("A", 2), CoxeterElement((1, 2)))


def test_non_coherent_c_vector_is_refused_when_numbered():
    # A FrameTable checks each c-vector for sign coherence once, as it
    # numbers it, and names the path that met it.
    table = FrameTable(build_bc(spec_of("A", 2), CoxeterElement((1, 2))))
    with pytest.raises(InternalError, match=re.escape("witness path (2, 1): sign coherence violated: (1, -1)")):
        table.c_id((1, -1), 1, (2, 1))
    assert len(table.c_vectors) == 2


def frame_ids(steps, frame):
    """The c ids and g ids of a vector frame of the build of steps."""
    return (tuple(steps.c_ids[sj, c] for c, sj in zip(frame.c_vectors, steps.s)),
            tuple(steps.g_ids[g] for g in frame.g_vectors))


@pytest.mark.parametrize("t,n,order", TEST_MATRIX)
@pytest.mark.parametrize("sign", ["plus", "minus"])
def test_memoised_step_matches_mutate_columns(t, n, order, sign):
    # On every stored frame and in every direction, the memoised step on
    # ids gives the column and the next frame of the vector step.  The
    # memoised duality check fails like the vector check_frame on the frame
    # with its first two g-vectors swapped.
    q = build_exchange_quiver(spec_of(t, n), CoxeterElement(order), sign)
    steps = q.steps
    for payload in q.vertices:
        frame = stored_frame(q, payload)
        cids, gids = frame_ids(steps, frame)
        for k in range(1, n + 1):
            column, new = mutate_columns(frame, k)
            got = steps.step(cids, gids, k - 1, payload.witness_path)
            assert got[0] == column
            assert ids_frame(steps, *got[1:], new.path) == new
        if n > 1:
            swapped, message = (gids[1], gids[0], *gids[2:]), f"witness path {payload.witness_path}: C/G duality"
            with pytest.raises(InternalError, match=re.escape(message)):
                check_frame(ids_frame(steps, cids, swapped, payload.witness_path))
            with pytest.raises(InternalError, match=re.escape(message)):
                steps.check_duality(cids, swapped, payload.witness_path)


@pytest.mark.parametrize("t,n,order", TEST_MATRIX)
@pytest.mark.parametrize("sign", ["plus", "minus"])
def test_each_build_numbers_the_signed_roots(t, n, order, sign):
    # A build meets 2N c-vectors, N the number of positive roots, and N + n
    # g-vectors, one per cluster variable.  In these types the c-vectors
    # are the signed roots, each at positions of one symmetrizer.
    spec = spec_of(t, n)
    steps = build_exchange_quiver(spec, CoxeterElement(order), sign).steps
    roots = positive_roots(spec)
    assert len(steps.c_vectors) == 2 * len(roots)
    assert set(steps.c_vectors) == {*roots, *(tuple(-x for x in r) for r in roots)}
    assert len(steps.g_vectors) == len(roots) + n


@pytest.mark.parametrize("t,n,order", TEST_MATRIX)
@pytest.mark.parametrize("sign", ["plus", "minus"])
def test_stored_frames_derive_the_mutated_b(t, n, order, sign):
    # A frame holds no B: column k of B_t is the column step's, and row k
    # follows from it by s_k b_kj = -s_j b_jk.  Both must equal B^c (or
    # -B^c) mutated along the witness path by mutate_matrix.
    b = build_bc(spec_of(t, n), CoxeterElement(order))
    b = b.negated() if sign == "minus" else b
    s = b.skew_symmetrizer
    q = exchange_of(t, n, order, sign)
    for payload in q.vertices:
        want = b_along_path(b.entries, payload.witness_path)
        for k0 in range(n):
            column = mutate_columns(stored_frame(q, payload), k0 + 1)[0]
            assert column == tuple(row[k0] for row in want), (payload.witness_path, k0 + 1)
            assert tuple(-s[j] * x for j, x in enumerate(column)) == tuple(s[k0] * x for x in want[k0])


def _patch_first_exchange(monkeypatch, wrong_variable):
    """The table's first exact division returns wrong_variable(x_k, x_k')."""
    original = cambrian.laurent._exchange
    calls = []

    def patched(pos, neg, divisor, *box):
        out = original(pos, neg, divisor, *box)
        calls.append(out)
        return wrong_variable(divisor, out) if len(calls) == 1 else out

    monkeypatch.setattr(cambrian.laurent, "_exchange", patched)


def test_g_vector_with_two_polynomials(monkeypatch):
    # The first division returns 2 x_1'; the division at path (1, 2) takes it
    # into a wrong variable.  At (2, 1) the build already holds that
    # g-vector, so the product check with the wrong variable fails and the
    # division gives the right one: a second variable at that g-vector.
    def doubled(xk, x):
        return LaurentPolynomial(x.nvars, tuple((e, 2 * a) for e, a in x.terms))

    _patch_first_exchange(monkeypatch, doubled)
    message = "witness path (2, 1): g-vector (-1, 0, 1) belongs to two cluster variables"
    with pytest.raises(InternalError, match=re.escape(message)):
        build_exchange_quiver(spec_of("A", 3), CoxeterElement((1, 2, 3)))


def test_wrong_known_variable_fails_the_product_check(monkeypatch):
    # Store 2 x in place of the variable x with id 6, which A3 with c =
    # 1,2,3 first divides out at path (1, 2), with g-vector (-1, 0, 1): as
    # a polynomial and in the packed terms that the product check reads.
    # At (2, 1) the build already holds that g-vector, so it checks x_k * 2x
    # against M+ + M- instead of dividing: the check fails, and the
    # division it falls back on gives x, a second variable there.
    table, checks = VariableTable(3), []
    original, holds = table.exchange, table._exchange_holds

    def corrupting(ids, column, k0, known=None):
        new_id = original(ids, column, k0, known)
        if new_id == 6 and len(table.polys) == 7:
            x = table.polys[6]
            wrong = LaurentPolynomial(x.nvars, tuple((e, 2 * a) for e, a in x.terms))
            table.polys[6], table.boxes[wrong] = wrong, table.boxes.pop(x)
            table.packed[6] = [(key, 2 * a) for key, a in table.packed[6]]
            del table.ids[x]
            table.ids[wrong] = 6
        return new_id

    def checked(pos, neg, k, x):
        checks.append((holds(pos, neg, k, x), table.packed[x], _pack(table.polys[6].terms, table.weights)))
        return checks[-1][0]

    monkeypatch.setattr(table, "exchange", corrupting)
    monkeypatch.setattr(table, "_exchange_holds", checked)
    message = "witness path (2, 1): g-vector (-1, 0, 1) belongs to two cluster variables"
    with pytest.raises(InternalError, match=re.escape(message)):
        build_exchange_quiver(spec_of("A", 3), CoxeterElement((1, 2, 3)), table=table)
    # One check, and its known quotient was 2x, packed on the radix of the moment.
    [(ok, known, wrong)] = checks
    assert not ok and known == wrong


def _product_exponents(factors, nvars):
    """The exponents of each product that the packed check forms on the way
    to prod p^m over factors ((polynomial, power) pairs), one factor at a
    time, the last the whole product: tuple arithmetic on all term
    combinations."""
    products = [{(0,) * nvars}]
    for p, m in factors:
        for _ in range(m):
            products.append({tuple(map(add, e, f)) for e in products[-1] for f, _ in p.terms})
    return products


def _tuple_product(nvars, factors):
    out = LaurentPolynomial.monomial(nvars, (0,) * nvars)
    for p, m in factors:
        for _ in range(m):
            out = out * p
    return out


def laurent_polys(n):
    exponents = st.tuples(*[st.integers(-3, 3)] * n)
    terms = st.dictionaries(exponents, st.integers(-3, 3).filter(bool), min_size=1, max_size=4)
    return terms.map(lambda d: LaurentPolynomial.from_dict(n, d))


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_packed_check_against_tuple_arithmetic(data):
    # Random polynomials in 2-4 variables: M+ a product of up to two of them
    # to powers up to 3, x_k and x random, and M- = x_k x - M+ one more
    # variable, so that x_k x = M+ + M- holds; x plus a monomial makes it
    # fail.  The packed check agrees with LaurentPolynomial arithmetic, and
    # no two exponents of any product it forms share a key.
    n = data.draw(st.integers(2, 4))
    polys, table = laurent_polys(n), VariableTable(n)
    plus = [(data.draw(polys), data.draw(st.integers(1, 3))) for _ in range(data.draw(st.integers(0, 2)))]
    xk, x, extra = data.draw(polys), data.draw(polys), data.draw(polys.filter(lambda p: len(p.terms) == 1))
    m_plus = _tuple_product(n, plus)
    m_minus = xk * x + LaurentPolynomial(n, tuple((e, -c) for e, c in m_plus.terms))
    wrong = x + extra
    assume(not m_minus.is_zero() and not wrong.is_zero())
    ids = {p: table.add(p) for p in (*(p for p, _ in plus), xk, x, m_minus, wrong)}
    pos, neg = [(ids[p], m) for p, m in plus], [(ids[m_minus], 1)]
    for quotient in (x, wrong):
        assert table._exchange_holds(pos, neg, ids[xk], ids[quotient]) == (xk * quotient == m_plus + m_minus)
        products = [_product_exponents(factors, n) for factors in (plus, [(m_minus, 1)], [(xk, 1), (quotient, 1)])]
        # Each product it forms, and the union of the three it compares.
        for exponents in (*(e for steps in products for e in steps), set().union(*(p[-1] for p in products))):
            assert len({sum(map(mul, e, table.weights)) for e in exponents}) == len(exponents)
    assert table._exchange_holds(pos, neg, ids[xk], ids[x]) and not table._exchange_holds(pos, neg, ids[xk], ids[wrong])


def test_table_widens_its_radix():
    # u = x1 + x2, w = x1^-2 u and x = u^2 + x1^-2 satisfy u x = u^3 + w.
    # Adding them packs each on the table's first radix, widths (0, 0).  The
    # check takes the hull of the boxes of u^3, w and u x, which span x1^-2
    # to x1^3 and x2^0 to x2^3: widths (5, 3), and the table repacks every
    # variable first.
    x1, x2 = LaurentPolynomial.generator(2, 0), LaurentPolynomial.generator(2, 1)
    u, x1_inv2 = x1 + x2, LaurentPolynomial.monomial(2, (-2, 0))
    w, x = x1_inv2 * u, u * u + x1_inv2
    table = VariableTable(2)
    ids = [table.add(p) for p in (u, w, x)]
    assert (table.widths, table.weights) == ((0, 0), (1, 1))
    assert table._exchange_holds([(ids[0], 3)], [(ids[1], 1)], ids[0], ids[2])
    assert (table.widths, table.weights) == ((5, 3), (4, 1))
    assert table.packed == [_pack(p.terms, table.weights) for p in table.polys]
    assert not table._exchange_holds([(ids[0], 3)], [(ids[1], 1)], ids[0], ids[0])
    # The hull takes in x_k x' too.  x1 y = x2^3 + x1 holds for y = 1 +
    # x1^-1 x2^3 and not for y = x2^-1 + x1 x2^-4, though x1 y = x1 x2^-1 +
    # x1^2 x2^-4 has the keys of x2^3 + x1 on the radix (4, 1) that the
    # boxes of x2^3 and x1 alone would give.
    table = VariableTable(2)
    right, wrong = (table.add(LaurentPolynomial.from_dict(2, d))
                    for d in ({(0, 0): 1, (-1, 3): 1}, {(0, -1): 1, (1, -4): 1}))
    assert not table._exchange_holds([(1, 3)], [(0, 1)], 0, wrong)
    assert table.weights == (8, 1)
    assert table._exchange_holds([(1, 3)], [(0, 1)], 0, right)
    # A check of products of single variables spans their hull too: x2 (1 +
    # x2^2) = x2 + x2^3 against x2 + x1 spans x1^0..1 x2^0..3, radix (4, 1).
    # On (3, 1) it would pass, as x2^3 and x1 would share a key.
    table = VariableTable(2)
    y = table.add(LaurentPolynomial.from_dict(2, {(0, 0): 1, (0, 2): 1}))
    assert not table._exchange_holds([(1, 1)], [(0, 1)], 1, y)
    assert table.weights == (4, 1)
    # 0 has no Newton box to widen the hull with.
    with pytest.raises(InternalError, match="zero polynomial"):
        table.add(LaurentPolynomial(2, ()))
    assert len(table.polys) == len(table.packed) == 3


def test_newton_box_once_per_variable(monkeypatch):
    # The table keeps each variable's Newton box: 6 + 36 boxes for the 42
    # variables of E6, however many of the 385 relations read them.
    calls = []
    monkeypatch.setattr(cambrian.laurent, "_box", lambda p: calls.append(p) or _box(p))
    table = VariableTable(6)
    build_exchange_quiver(spec_of("E", 6), CoxeterElement((1, 2, 3, 4, 5, 6)), table=table)
    assert len(calls) == len(table.polys) == 42


def test_product_check_against_division():
    # On the relations at 40 clusters of the E6 plus build, the product
    # check holds for the quotient the division gives and fails for each
    # of the build's 41 other variables.
    order = (1, 2, 3, 4, 5, 6)
    table = VariableTable(6)
    q = build_exchange_quiver(spec_of("E", 6), CoxeterElement(order), table=table)
    box = table.boxes.__getitem__
    for payload in q.vertices[:40]:
        ids = tuple(table.ids[x] for x in payload.variables)
        for k in range(1, 7):
            column = mutate_columns(stored_frame(q, payload), k)[0]
            pos = [(i, m) for i, m in zip(ids, column) if m > 0]
            neg = [(i, -m) for i, m in zip(ids, column) if m < 0]
            xk = table.polys[ids[k - 1]]
            x = _exchange([(table.polys[i], m) for i, m in pos], [(table.polys[i], m) for i, m in neg], xk, box)
            assert table._exchange_holds(pos, neg, ids[k - 1], table.ids[x])
            assert not any(table._exchange_holds(pos, neg, ids[k - 1], y) for y in range(len(table.polys)) if y != table.ids[x])


def test_polynomial_with_two_g_vectors(monkeypatch):
    # The first exchange returns x_k itself, under the g-vector of x_k'.
    _patch_first_exchange(monkeypatch, lambda xk, x: xk)
    message = "witness path (1,): a cluster variable has two g-vectors, (1, 0, 0) and (-1, 1, 0)"
    with pytest.raises(InternalError, match=re.escape(message)):
        build_exchange_quiver(spec_of("A", 3), CoxeterElement((1, 2, 3)))


def test_exchange_key_keeps_b():
    # The initial seeds of A3 for c = 1,2,3 and c = 1,3,2 share x_2 and its
    # neighbours x_1, x_3 with the same |b_i2|, but b_32 has opposite signs:
    # the exchanges give (x_1 + x_3)/x_2 and (x_1 x_3 + 1)/x_2, so the table
    # must not read the second from the memo of the first.
    spec = spec_of("A", 3)
    seeds = [initial_seed(build_bc(spec, CoxeterElement(order))) for order in ((1, 2, 3), (1, 3, 2))]
    columns = [mutate_columns(s.frame, 2)[0] for s in seeds]
    assert columns == [(1, 0, -1), (1, 0, 1)]
    table = VariableTable(3)
    new = [table.exchange((0, 1, 2), column, 1) for column in columns]
    assert new == [3, 4]
    assert [table.polys[i] for i in new] == [mutate_seed(s, 2).vars[1] for s in seeds]


@settings(deadline=None, max_examples=20)
@given(type_c_and_sign(), st.data())
def test_relation_key_is_unchanged_when_b_is_negated(case, data):
    # The sharing rests on this: a seed of A(-B) reached by a mutation path
    # has -B where the seed of A(B) on that path has B, and the same
    # variables, and the exchange x_k x_k' = M+ + M- is symmetric in M+, M-.
    # So after the exchange at column k of B, the one at column k of -B is
    # read from the memo: the same id, and no new relation.
    t, n, c, sign = case
    b = build_bc(spec_of(t, n), c)
    b = b.negated() if sign == "minus" else b
    seeds = [initial_seed(b), initial_seed(b.negated())]
    path = data.draw(st.lists(st.integers(1, n), max_size=6))
    for k in path:
        seeds = [mutate_seed(seed, k) for seed in seeds]
    assert seeds[0].vars == seeds[1].vars
    ids, b_t = tuple(range(n)), b_along_path(b.entries, path)
    for k in range(1, n + 1):
        columns = [mutate_columns(seed.frame, k)[0] for seed in seeds]
        assert columns[0] == tuple(row[k - 1] for row in b_t)
        assert columns[1] == tuple(-x for x in columns[0])
        table = VariableTable(n)
        new_id = table.exchange(ids, columns[0], k - 1)
        relations = dict(table.relations)
        assert table.exchange(ids, columns[1], k - 1) == new_id
        assert table.relations == relations

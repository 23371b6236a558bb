"""The frame tau walk of check_tau_c_matrix against the Laurent tau walk it
replaced: every image variable is the plus build's variable at the image
frame's g-vector, and no exact exchange is made outside the two builds."""

import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cambrian.laurent import mutate_seed
from cambrian.mutation import FrameTable
from cambrian.quivers import build_exchange_quiver, check_tau_c_matrix
from cambrian.rootsys import CoxeterElement, positive_roots

from conftest import RANK_LE_4, exchange_of, ids_frame, laurent_tau_walk, spec_of


def assert_matches_laurent_walk(t, n, c):
    spec = spec_of(t, n)
    qp, qm = exchange_of(t, n, c.order, "plus"), exchange_of(t, n, c.order, "minus")
    polys = {g: x for p in qp.vertices for g, x in zip(p.g_vectors, p.variables)}
    minus_csets = {p.key(): frozenset(p.c_vectors) for p in qm.vertices}
    seeds = laurent_tau_walk(spec, c, qp)
    walk = sorted(qp.vertices, key=lambda p: len(p.witness_path))
    for payload in walk:
        seed = seeds[payload.witness_path]
        assert seed.vars == tuple(polys[g] for g in seed.frame.g_vectors)
        negated = frozenset(tuple(-x for x in v) for v in minus_csets[payload.key()])
        assert frozenset(seed.frame.c_vectors) == negated
    # The check asserts duality on exactly the oracle's frames, stepping on
    # the plus build's FrameTable; the walk meets no c-vector that the
    # build has not numbered (and checked for sign coherence).
    checked = []
    original = FrameTable.check_duality

    def recorded(steps, cids, gids, path):
        checked.append(ids_frame(steps, cids, gids, path))
        return original(steps, cids, gids, path)

    with mock.patch.object(FrameTable, "check_duality", recorded):
        rep = check_tau_c_matrix(spec, c, qp, qm)
    assert rep.ok, rep.counterexample
    assert rep.stat("clusters") == qp.n_vertices
    assert checked == [seeds[p.witness_path].frame for p in walk]
    assert len(qp.steps.c_vectors) == 2 * len(positive_roots(spec))


@st.composite
def type_and_c(draw):
    t, n = draw(st.sampled_from(RANK_LE_4))
    return t, n, CoxeterElement(tuple(draw(st.permutations(range(1, n + 1)))))


@settings(deadline=None, max_examples=40)
@given(type_and_c())
def test_matches_laurent_walk(case):
    assert_matches_laurent_walk(*case)


@pytest.mark.parametrize("order", [(1, 2, 3, 4, 5, 6), (2, 5, 1, 6, 3, 4)])
def test_matches_laurent_walk_e6(order):
    assert_matches_laurent_walk("E", 6, CoxeterElement(order))


@pytest.mark.slow
def test_e7_tau_c_makes_no_exact_exchange(monkeypatch):
    spec, c = spec_of("E", 7), CoxeterElement(tuple(range(1, 8)))
    qp, qm = build_exchange_quiver(spec, c, "plus"), build_exchange_quiver(spec, c, "minus")

    def forbidden(*args, **kwargs):
        raise AssertionError("mutate_seed called outside the exchange builds")

    for name, module in list(sys.modules.items()):
        if name.startswith("cambrian") and getattr(module, "mutate_seed", None) is mutate_seed:
            monkeypatch.setattr(module, "mutate_seed", forbidden)
    rep = check_tau_c_matrix(spec, c, qp, qm)
    assert rep.ok, rep.counterexample
    assert rep.stat("clusters") == 4160

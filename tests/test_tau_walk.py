"""The frame tau walk of check_tau_c_matrix against the Laurent tau walk it
replaced: every image variable is the plus build's variable at the image
frame's g-vector, and no exact exchange is made outside the two builds."""

import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cambrian.laurent import VariableTable
from cambrian.mutation import FrameTable
from cambrian.oracles import mutate_seed
from cambrian.quivers import build_exchange_quiver, check_tau_c_matrix
from cambrian.rootsys import CoxeterElement, positive_roots

from conftest import (
    RANK_LE_4,
    coxeter_words,
    exchange_of,
    ids_frame,
    laurent_tau_walk,
    signed_bc,
    spec_of,
    tau_c_period,
)


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


def assert_sink_sweeps_return_at_the_period(spec, order, steps):
    # The sweeps mu_{c_n}, ..., mu_{c_1} of the walk's first frames, from
    # the initial frame of a plus build's FrameTable, steps: the c ids and
    # variable ids come back, position by position, after ord(tau_c)
    # sweeps and not before.
    cids, ids = steps.initial
    period = tau_c_period(spec)
    for sweep in range(1, period + 1):
        for k in order[::-1]:
            _, cids, g = steps.step(cids, ids, k - 1, ())
            ids = ids[: k - 1] + (steps.var_of[g],) + ids[k:]
        assert ((cids, ids) == steps.initial) == (sweep == period), (order, sweep)


@pytest.mark.parametrize("t,n", RANK_LE_4)
def test_sink_sweeps_return_at_the_period(t, n):
    for order in coxeter_words(spec_of(t, n)):
        assert_sink_sweeps_return_at_the_period(spec_of(t, n), order, exchange_of(t, n, order).steps)


@pytest.mark.parametrize("order", [(1, 2, 3, 4, 5, 6), (2, 5, 1, 6, 3, 4)])
def test_sink_sweeps_return_at_the_period_e6(order):
    assert_sink_sweeps_return_at_the_period(spec_of("E", 6), order, exchange_of("E", 6, order).steps)


@pytest.mark.slow
def test_sink_sweeps_return_at_the_period_e7():
    # Eight words, each built here and dropped, not kept by exchange_of.
    spec = spec_of("E", 7)
    for order in coxeter_words(spec)[::8]:
        steps = build_exchange_quiver(signed_bc(spec, CoxeterElement(order)), VariableTable(7)).steps
        assert_sink_sweeps_return_at_the_period(spec, order, steps)


@pytest.mark.slow
def test_e7_tau_c_makes_no_exact_exchange(monkeypatch):
    spec, c = spec_of("E", 7), CoxeterElement(tuple(range(1, 8)))
    qp = build_exchange_quiver(signed_bc(spec, c), VariableTable(7))
    qm = build_exchange_quiver(signed_bc(spec, c, "minus"), VariableTable(7))

    def forbidden(*args, **kwargs):
        raise AssertionError("mutate_seed called outside the exchange builds")

    for name, module in list(sys.modules.items()):
        if name.startswith("cambrian") and getattr(module, "mutate_seed", None) is mutate_seed:
            monkeypatch.setattr(module, "mutate_seed", forbidden)
    rep = check_tau_c_matrix(spec, c, qp, qm)
    assert rep.ok, rep.counterexample
    assert rep.stat("clusters") == 4160

"""Shared caches so every test file reuses the same built quivers."""

from functools import lru_cache

from cambrian.quivers import (
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


def matrix_inversion_set(spec, w):
    """{alpha in Phi^+ : w^-1(alpha) < 0} from the matrix of w^-1: the oracle
    for the prefix-image inversion sets."""
    return frozenset(a for a in positive_roots(spec) if min(w.inv_root_image(a)) < 0)

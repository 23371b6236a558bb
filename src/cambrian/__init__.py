"""Exact combinatorics of exchange quivers, c-clusters, Cambrian lattices and
tau-tilting shadows for finite-type root systems."""

from .errors import InputError, InternalError
from .rootsys import CartanSpec, CoxeterElement, cartan_matrix

__all__ = [
    "CartanSpec",
    "CoxeterElement",
    "InputError",
    "InternalError",
    "cartan_matrix",
]

__version__ = "0.1.0"

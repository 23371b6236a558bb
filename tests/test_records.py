"""The record types: immutable, and validated where they take input.  That
equal LaurentPolynomials hash alike is tested in test_laurent.py."""

import copy
import pickle

import pytest

from cambrian.cli import DEFAULT_VERTEX_CAP, Build
from cambrian.errors import InputError
from cambrian.lattice import poset_from_hasse, verify_lattice
from cambrian.laurent import LaurentPolynomial
from cambrian.mutation import ExchangeMatrix, build_bc, identity_frame
from cambrian.oracles import initial_seed
from cambrian.rootsys import CartanSpec, CoxeterElement, cartan_matrix


def _records():
    """One instance of each record type, named, with a field to assign to."""
    spec, c = cartan_matrix("A", 2), CoxeterElement((1, 2))
    b, build = build_bc(spec, c), Build(spec, c, DEFAULT_VERTEX_CAP)
    seed = initial_seed(b, "principal")
    sortable = build.cambrian.vertices[-1]
    poset = poset_from_hasse(build.plus)
    return {
        "CartanSpec": (spec, "rank"),
        "CoxeterElement": (c, "order"),
        "ExchangeMatrix": (b, "entries"),
        "MatrixFrame": (identity_frame(b), "path"),
        "LaurentPolynomial": (seed.vars[0], "terms"),
        "TropicalElement": (seed.coeffs[0], "exponents"),
        "LabeledSeed": (seed, "vars"),
        "QuiverEdge": (build.plus.edges[0], "src"),
        "ClusterVertexPayload": (build.plus.vertices[0], "mask"),
        "ClusterQuiver": (build.plus, "vertices"),
        "CheckReport": (verify_lattice(poset), "ok"),
        "FinitePoset": (poset, "up"),
        "WeylElement": (sortable.element, "matrix"),
        "SortableElement": (sortable, "word"),
    }


RECORDS = _records()


@pytest.mark.parametrize("name", RECORDS)
def test_fields_cannot_be_assigned(name):
    record, field = RECORDS[name]
    assert type(record).__name__ == name
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))


@pytest.mark.parametrize("name", RECORDS)
def test_copy_and_pickle_give_an_equal_record(name):
    record = RECORDS[name][0]
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record)
        if name == "ClusterQuiver":  # steps is a FrameTable, equal only to itself
            assert (twin.kind, twin.vertices, twin.edges) == (record.kind, record.vertices, record.edges)
        else:
            assert twin == record


@pytest.mark.parametrize(
    "name,fields,message",
    [("CartanSpec", {"cartan": ((2, -1), (-2, 2)), "symmetrizer": (2, 1)},
      "not the Cartan matrix and symmetrizer of A2"),
     ("CoxeterElement", {"order": (1, 1)}, "Coxeter order must be a permutation of 1..n"),
     ("ExchangeMatrix", {"entries": ((0, 1), (-2, 0))}, "SB is not skew-symmetric")],
)
def test_replace_is_validated(name, fields, message):
    # B2's data in A2's records, a repeated letter in a Coxeter element:
    # _replace goes through __new__, which refuses them.
    with pytest.raises(InputError, match=f"^{message}$"):
        RECORDS[name][0]._replace(**fields)


def test_replace_recomputes_box_and_hash():
    terms = (((1, 0, 0, 0), 1), ((0, -1, 1, 0), 2))
    replaced = RECORDS["LaurentPolynomial"][0]._replace(terms=terms)
    fresh = LaurentPolynomial(4, terms)
    assert replaced == fresh and replaced.box == fresh.box and hash(replaced) == hash(fresh)


class TestValidation:
    A2 = ((2, -1), (-1, 2))

    def test_cartan_diagonal(self):
        with pytest.raises(InputError, match="not the Cartan matrix and symmetrizer of A2"):
            CartanSpec("A", 2, ((2, -1), (-1, 1)), (1, 1))

    def test_cartan_symmetrizer(self):
        with pytest.raises(InputError, match="not the Cartan matrix and symmetrizer of B2"):
            CartanSpec("B", 2, ((2, -1), (-2, 2)), (1, 1))
        with pytest.raises(InputError, match="not the Cartan matrix and symmetrizer of A2"):
            CartanSpec("A", 2, self.A2, (1, 0))

    def test_cartan_shape_sign_and_zero_pattern(self):
        with pytest.raises(InputError, match="not the Cartan matrix and symmetrizer of A2"):
            CartanSpec("A", 2, ((2, -1),), (1, 1))
        with pytest.raises(InputError, match="not the Cartan matrix and symmetrizer of A2"):
            CartanSpec("A", 2, ((2, 1), (1, 2)), (1, 1))
        with pytest.raises(InputError, match="not the Cartan matrix and symmetrizer of A2"):
            CartanSpec("A", 2, ((2, 0), (-1, 2)), (1, 1))

    @pytest.mark.parametrize(
        "t,n",
        [(t, n) for t, lowest in (("A", 1), ("B", 2), ("C", 3), ("D", 4)) for n in range(lowest, 12)]
        + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)],
    )
    def test_cartan_spec_takes_its_types_data(self, t, n):
        spec = cartan_matrix(t, n)
        assert CartanSpec(*spec) == spec

    @pytest.mark.parametrize(
        "fields,message",
        [(("A", 2, ((2, -1), (-2, 2)), (2, 1)), "not the Cartan matrix and symmetrizer of A2"),
         (("A", 2, ((2, -2), (-2, 2)), (1, 1)), "not the Cartan matrix and symmetrizer of A2"),
         (("a", 2, A2, (1, 1)), "not the Cartan matrix and symmetrizer of a2"),
         (("A", 0, (), ()), r"invalid finite type \(A, 0\)")],
        ids=["B2 labelled A2", "affine A1 labelled A2", "lower-case letter", "rank 0"],
    )
    def test_cartan_spec_refuses_other_data(self, fields, message):
        # The count of clusters, hence Build's vertex cap, and the root
        # saturation read the type letter: only that type's matrix may pass.
        with pytest.raises(InputError, match=f"^{message}$"):
            CartanSpec(*fields)

    def test_coxeter_repeated_letter(self):
        with pytest.raises(InputError, match="permutation"):
            CoxeterElement((1, 1))

    def test_exchange_matrix(self):
        with pytest.raises(InputError, match="skew-symmetric"):
            ExchangeMatrix(((0, 1), (1, 0)), (1, 1))

    def test_valid_records_keep_their_fields(self):
        spec = CartanSpec("A", 2, self.A2, (1, 1))
        assert spec == cartan_matrix("A", 2) and spec.symmetrizer == (1, 1)
        assert CoxeterElement(order=(2, 1)).order == (2, 1)


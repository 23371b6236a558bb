"""The build commands' writers: a quiver as JSON, byte for byte as
json.dumps(indent=2, sort_keys=True) prints it, or as DOT.  cli imports this
module only to write a build, so a verify run never compiles it.
"""

from __future__ import annotations

from functools import cache
from typing import TextIO

from .errors import InternalError
from .laurent import LaurentPolynomial, denominator_vector, poly_hash, poly_str
from .quivers import ClusterQuiver, shadow_of_cluster

_BATCH = 32  # objects per write: bigger batches raise the peak RSS of a large quiver


def _array(items: list[str], indent: int) -> str:
    """A list of rendered items at indent, as json.dumps(indent=2) prints it."""
    if not items:
        return "[]"
    pad = "\n" + " " * (indent + 2)
    return "[" + pad + ("," + pad).join(items) + "\n" + " " * indent + "]"


def _bracketed(v: tuple[int, ...]) -> str:
    return "[" + ",".join(map(str, v)) + "]"


def _tables(verbose: bool) -> tuple:
    """The renderers of one quiver, each a functools.cache that renders a
    value once: a root as a JSON string, an integer vector as a list at
    indent 10, and an exchange variable as (its edge label, its object at
    indent 10).  Roots, hashes and poly_str are printable ASCII with no
    quote or backslash, which JSON writes as is in quotes: json stays out."""
    roots = cache(lambda r: f'"{_bracketed(r)}"')
    vectors = cache(lambda v: _array([*map(str, v)], 10))

    def variable(x: LaurentPolynomial) -> tuple[str, str]:
        d, h = roots(denominator_vector(x)), poly_hash(x)
        poly = f',\n            "poly": "{poly_str(x)}"' if verbose else ""
        obj = f'{{\n            "d": {d},\n            "hash": "{h}"{poly}\n          }}'
        return f'"d={d[1:-1]}#{h}"', obj

    return roots, vectors, cache(variable)


def _print_order(v) -> list[tuple]:
    """An exchange vertex's (variable, c-vector, g-vector) triples sorted by terms, the order both writers print."""
    return sorted(zip(v.variables, v.c_vectors, v.g_vectors), key=lambda xcg: xcg[0].terms)


def _write_items(out: TextIO, n: int, render) -> None:
    """Write the list of render(0), ..., render(n - 1) at indent 2, _BATCH items
    per write: fewer system calls when stdout is unbuffered, bounded memory."""
    for lo in range(0, n, _BATCH):
        out.write(("[\n" if lo == 0 else ",\n") + ",\n".join(map(render, range(lo, min(n, lo + _BATCH)))))
    out.write("\n  ]" if n else "[]")


def quiver_to_json(q: ClusterQuiver, out: TextIO, verbose: bool = False) -> None:
    """Write q to out as json.dumps(indent=2, sort_keys=True) prints its
    document {"edges": [...], "vertices": [...]}, streamed in that fixed
    shape: each edge and vertex object is one string with its keys in sorted
    order, and each root, integer vector and exchange variable is rendered
    once (_tables).  An arrow's out label is the member of its src that its
    dst lacks, and its in label the member of dst that src lacks."""
    roots, vectors, variables = _tables(verbose)
    label = (lambda x: variables(x)[0]) if q.kind == "exchange" else roots
    members = [frozenset(v.variables if q.kind == "exchange" else v.cluster if q.kind == "cambrian" else v)
               for v in q.vertices]

    def payload(v) -> tuple[str, ...]:
        if q.kind == "exchange":
            xs, cs, gs = zip(*_print_order(v))
            return (f'"c_vectors": {_array([*map(vectors, cs)], 8)}',
                    f'"g_vectors": {_array([*map(vectors, gs)], 8)}',
                    f'"variables": {_array([variables(x)[1] for x in xs], 8)}')
        if q.kind == "ccluster":
            return (f'"roots": {_array([*map(roots, v)], 8)}',)
        if q.kind == "tautilt":
            m, p = shadow_of_cluster(v)
            return (f'"m_size": {len(m)}', f'"module_part": {_array([*map(roots, m)], 8)}',
                    f'"projective_part": {_array([*map(str, p)], 8)}')
        if q.kind == "cambrian":
            return (f'"blocks": {_array([*map(vectors, v.blocks)], 8)}', f'"length": {v.length}',
                    f'"word": {_array([*map(str, v.word)], 8)}')
        raise InternalError(f"unknown quiver kind {q.kind!r}")

    def edge(i: int) -> str:
        s, d = q.edges[i]
        (x_out,), (x_in,) = members[s] - members[d], members[d] - members[s]
        return (f'    {{\n      "dst": {d},\n      "in": {label(x_in)},\n'
                f'      "out": {label(x_out)},\n      "src": {s}\n    }}')

    def vertex(i: int) -> str:
        fields = ",\n        ".join(payload(q.vertices[i]))
        return f'    {{\n      "id": {i},\n      "payload": {{\n        {fields}\n      }}\n    }}'

    out.write('{\n  "edges": ')
    _write_items(out, len(q.edges), edge)
    out.write(',\n  "vertices": ')
    _write_items(out, q.n_vertices, vertex)
    out.write("\n}\n")


def quiver_to_dot(q: ClusterQuiver) -> str:
    """q in DOT, each vertex labelled by its roots, or by its exchange
    variables' d-vectors, each vector rendered once as [a,b,...]: nothing is
    hashed, and json is not loaded."""
    vectors = cache(_bracketed)

    def label(v) -> str:
        if q.kind == "exchange":
            return "{" + ",".join(vectors(denominator_vector(x)) for x, _, _ in _print_order(v)) + "}"
        if q.kind == "ccluster":
            return "{" + ",".join(map(vectors, v)) + "}"
        if q.kind == "tautilt":
            m, p = shadow_of_cluster(v)
            return f"M=[{','.join(map(vectors, m))}] P=[{','.join(map(str, p))}]"
        if q.kind == "cambrian":
            return "s" + ".".join(map(str, v.word)) if v.word else "e"
        raise InternalError(f"unknown quiver kind {q.kind!r}")

    vertices = [f'  v{i} [label="{label(v)}"];' for i, v in enumerate(q.vertices)]
    edges = [f"  v{e.src} -> v{e.dst};" for e in q.edges]
    return "\n".join([f"digraph {q.kind} {{", *vertices, *edges, "}"]) + "\n"

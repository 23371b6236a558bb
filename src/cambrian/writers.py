"""The build commands' writers: a quiver as JSON, byte for byte as
json.dumps(indent=2, sort_keys=True) prints it, or as DOT.  cli imports this
module only to write a build, so a verify run never compiles it."""

from __future__ import annotations

from bisect import bisect
from functools import cache
from typing import TextIO

from .errors import InternalError
from .laurent import LaurentPolynomial, denominator_vector, poly_hash, poly_str
from .quivers import ClusterQuiver

_BATCH = 32  # objects per write: bigger batches raise the peak RSS of a large quiver
_PADS = {i: ("[\n" + " " * (i + 2), ",\n" + " " * (i + 2), "\n" + " " * i + "]") for i in (8, 10)}


def _array(items: list[str], indent: int) -> str:
    """A list of rendered items at indent 8 or 10 (_PADS), as json.dumps(indent=2) prints it."""
    start, sep, end = _PADS[indent]
    return start + sep.join(items) + end if items else "[]"


def _bracketed(v: tuple[int, ...]) -> str:
    return "[" + ",".join(map(str, v)) + "]"


def _variables(q: ClusterQuiver) -> tuple[dict[int, LaurentPolynomial], dict[int, str], dict[int, int]]:
    """Each variable id of an exchange quiver's build with its polynomial, its d-vector as [a,b,...]
    and its rank in print order (by terms), the order in which both writers print a vertex's variables."""
    polys = {x: q.vertices[0].tables[0][x] for x in q.steps.g_vectors}
    ds = {x: _bracketed(denominator_vector(p)) for x, p in polys.items()}
    return polys, ds, {x: r for r, x in enumerate(sorted(polys, key=lambda x: polys[x].terms))}


def _write_items(out: TextIO, n: int, render) -> None:
    """Write the list of render(0), ..., render(n - 1) at indent 2, _BATCH items
    per write: fewer system calls when stdout is unbuffered, bounded memory."""
    for lo in range(0, n, _BATCH):
        out.write(("[\n" if lo == 0 else ",\n") + ",\n".join(map(render, range(lo, min(n, lo + _BATCH)))))
    out.write("\n  ]" if n else "[]")


def quiver_to_json(q: ClusterQuiver, out: TextIO, verbose: bool = False) -> None:
    """Write q to out as json.dumps(indent=2, sort_keys=True) prints its document {"edges": [...],
    "vertices": [...]}, streamed in that shape, each object one string with its keys sorted.  A vertex
    is the mask of its members, its variable ids or its roots' bits as first met; an arrow's ends differ
    in one member each way, so its out and in labels are those of the single bits of mask[src] &
    ~mask[dst] and mask[dst] & ~mask[src].  Each label, variable and vector is rendered once, and no
    polynomial is hashed.  Roots, hashes and poly_str are printable ASCII with no quote or backslash,
    which JSON writes as is in quotes: json stays out."""
    vectors, projective = cache(lambda v: _array([*map(str, v)], 10)), cache(lambda r: str(r.index(-1) + 1))
    if q.kind == "exchange":
        polys, ds, rank = _variables(q)
        masks, labels, objects = [v.mask for v in q.vertices], {}, {}
        cs_text, gs_text = [*map(vectors, q.steps.c_vectors)], {x: vectors(g) for x, g in q.steps.g_vectors.items()}
        for x, p in polys.items():
            h, poly = poly_hash(p), (f',\n            "poly": "{poly_str(p)}"' if verbose else "")
            labels[1 << x] = f'"d={ds[x]}#{h}"'
            objects[x] = f'{{\n            "d": "{ds[x]}",\n            "hash": "{h}"{poly}\n          }}'
    else:
        bits: dict[tuple[int, ...], int] = {}
        masks = [sum(bits.setdefault(r, 1 << len(bits)) for r in (v.cluster if q.kind == "cambrian" else v))
                 for v in q.vertices]
        roots = {r: f'"{_bracketed(r)}"' for r in bits}
        labels = {bits[r]: text for r, text in roots.items()}

    def payload(v) -> tuple[str, ...]:
        if q.kind == "exchange":
            _, xs, cs = zip(*sorted(zip(map(rank.__getitem__, v.ids), v.ids, v.cids)))  # print order
            return (f'"c_vectors": {_array([*map(cs_text.__getitem__, cs)], 8)}',
                    f'"g_vectors": {_array([*map(gs_text.__getitem__, xs)], 8)}',
                    f'"variables": {_array([*map(objects.__getitem__, xs)], 8)}')
        if q.kind == "ccluster":
            return (f'"roots": {_array([*map(roots.__getitem__, v)], 8)}',)
        if q.kind == "tautilt":  # sorted: P's -alpha_i, in i order, before the zero vector, M's roots after
            k = bisect(v, (0,) * len(v[0]))
            return (f'"m_size": {len(v) - k}', f'"module_part": {_array([*map(roots.__getitem__, v[k:])], 8)}',
                    f'"projective_part": {_array([*map(projective, v[:k])], 8)}')
        if q.kind == "cambrian":
            return (f'"blocks": {_array([*map(vectors, v.blocks)], 8)}', f'"length": {v.length}',
                    f'"word": {_array([*map(str, v.word)], 8)}')
        raise InternalError(f"unknown quiver kind {q.kind!r}")

    def edge(i: int) -> str:
        s, d = q.edges[i]
        return (f'    {{\n      "dst": {d},\n      "in": {labels[masks[d] & ~masks[s]]},\n'
                f'      "out": {labels[masks[s] & ~masks[d]]},\n      "src": {s}\n    }}')

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
    variables' d-vectors in print order, each vector rendered once as
    [a,b,...]: nothing is hashed, and json is not loaded."""
    vectors, projective = cache(_bracketed), cache(lambda r: str(r.index(-1) + 1))
    if q.kind == "exchange":
        _, ds, rank = _variables(q)

    def label(v) -> str:
        if q.kind == "exchange":
            return "{" + ",".join(ds[x] for x in sorted(v.ids, key=rank.__getitem__)) + "}"
        if q.kind == "ccluster":
            return "{" + ",".join(map(vectors, v)) + "}"
        if q.kind == "tautilt":  # split as quiver_to_json splits it
            k = bisect(v, (0,) * len(v[0]))
            return f"M=[{','.join(map(vectors, v[k:]))}] P=[{','.join(map(projective, v[:k]))}]"
        if q.kind == "cambrian":
            return "s" + ".".join(map(str, v.word)) if v.word else "e"
        raise InternalError(f"unknown quiver kind {q.kind!r}")

    vertices = [f'  v{i} [label="{label(v)}"];' for i, v in enumerate(q.vertices)]
    edges = [f"  v{e.src} -> v{e.dst};" for e in q.edges]
    return "\n".join([f"digraph {q.kind} {{", *vertices, *edges, "}"]) + "\n"

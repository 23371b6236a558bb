"""Command-line frontend: build quivers, export DOT/JSON, run verifications.

Exit codes: 0 success, 1 a verification check failed, 2 invalid input or an
output that cannot be written, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from functools import cache, cached_property
from json.encoder import encode_basestring_ascii
from typing import TextIO

from .errors import InputError, InternalError
from .lattice import poset_from_hasse, verify_lattice, verify_quiver_map
from .laurent import LaurentPolynomial, VariableTable, denominator_vector, poly_hash, poly_str
from .quivers import (
    CheckReport,
    ClusterQuiver,
    build_c_cluster_quiver,
    build_exchange_quiver,
    build_tau_tilting_quiver,
    check_arrow_flip,
    check_tau_c_matrix,
    phi_vertex_map,
    psi_vertex_map,
    theta_vertex_map,
)
from .rootsys import CartanSpec, CoxeterElement, cartan_matrix, cluster_count
from .sortables import build_cambrian_hasse, cambrian_vertex_map

# Build command -> the Build attribute holding its quiver.
BUILD_COMMANDS = {"exchange": "plus", "cclusters": "ccluster", "cambrian": "cambrian", "tautilt": "tautilt"}
_BATCH = 32  # objects per write: bigger batches raise the peak RSS of a large quiver
DEFAULT_VERTEX_CAP = 10**6


class _Memo(dict):
    """A table that renders each key on its first lookup and keeps it."""

    def __init__(self, render):
        self.render = render

    def __missing__(self, key):
        self[key] = value = self.render(key)
        return value


def _array(items: list[str], indent: int) -> str:
    """A list of rendered items at indent, as json.dumps(indent=2) prints it."""
    if not items:
        return "[]"
    pad = "\n" + " " * (indent + 2)
    return "[" + pad + ("," + pad).join(items) + "\n" + " " * indent + "]"


def _tables(rank: int, verbose: bool = False) -> tuple[_Memo, _Memo, _Memo]:
    """The rendered values of one quiver, each made once: a root as a JSON
    string, an integer vector as a list at indent 10, and an exchange
    variable as (its d-vector, its edge label, its object at indent 10)."""
    roots = _Memo(lambda r: encode_basestring_ascii("[" + ",".join(map(str, r)) + "]"))
    vectors = _Memo(lambda v: _array([*map(str, v)], 10))

    def variable(x: LaurentPolynomial) -> tuple[str, str, str]:
        d, h = roots[denominator_vector(x, rank)], encode_basestring_ascii(poly_hash(x))
        poly = f',\n            "poly": {encode_basestring_ascii(poly_str(x))}' if verbose else ""
        obj = f'{{\n            "d": {d},\n            "hash": {h}{poly}\n          }}'
        return d[1:-1], encode_basestring_ascii(f"d={d[1:-1]}#{h[1:-1]}"), obj

    return roots, vectors, _Memo(variable)


def _print_order(v) -> list[tuple]:
    """An exchange vertex's (variable, c-vector, g-vector) triples sorted by terms, the order both writers print."""
    return sorted(zip(v.variables, v.c_vectors, v.g_vectors), key=lambda xcg: xcg[0].terms)


def _write_items(out: TextIO, n: int, render) -> None:
    """Write the list of render(0), ..., render(n - 1) at indent 2, _BATCH items
    per write: fewer system calls when stdout is unbuffered, bounded memory."""
    for lo in range(0, n, _BATCH):
        out.write(("[\n" if lo == 0 else ",\n") + ",\n".join(map(render, range(lo, min(n, lo + _BATCH)))))
    out.write("\n  ]" if n else "[]")


def quiver_to_json(q: ClusterQuiver, rank: int, out: TextIO, verbose: bool = False) -> None:
    """Write q to out as json.dumps(indent=2, sort_keys=True) prints its
    document {"edges": [...], "vertices": [...]}, streamed in that fixed
    shape: each edge and vertex object is one string with its keys in sorted
    order, and each root, integer vector and exchange variable is rendered
    once (_tables)."""
    roots, vectors, variables = _tables(rank, verbose)
    label = (lambda x: variables[x][1]) if q.kind == "exchange" else roots.__getitem__

    def payload(v) -> tuple[str, ...]:
        if q.kind == "exchange":
            xs, cs, gs = zip(*_print_order(v))
            return (f'"c_vectors": {_array([vectors[c] for c in cs], 8)}',
                    f'"g_vectors": {_array([vectors[g] for g in gs], 8)}',
                    f'"variables": {_array([variables[x][2] for x in xs], 8)}')
        if q.kind == "ccluster":
            return (f'"roots": {_array([roots[r] for r in v], 8)}',)
        if q.kind == "tautilt":
            return (f'"m_size": {v.m_size}', f'"module_part": {_array([roots[r] for r in v.module_part], 8)}',
                    f'"projective_part": {_array([*map(str, v.projective_part)], 8)}')
        if q.kind == "cambrian":
            return (f'"blocks": {_array([vectors[b] for b in v.blocks], 8)}', f'"length": {v.length}',
                    f'"word": {_array([*map(str, v.word)], 8)}')
        raise InternalError(f"unknown quiver kind {q.kind!r}")

    def edge(i: int) -> str:
        e = q.edges[i]
        return (f'    {{\n      "dst": {e.dst},\n      "in": {label(e.in_label)},\n'
                f'      "out": {label(e.out_label)},\n      "src": {e.src}\n    }}')

    def vertex(i: int) -> str:
        fields = ",\n        ".join(payload(q.vertices[i]))
        return f'    {{\n      "id": {i},\n      "payload": {{\n        {fields}\n      }}\n    }}'

    out.write('{\n  "edges": ')
    _write_items(out, len(q.edges), edge)
    out.write(',\n  "vertices": ')
    _write_items(out, q.n_vertices, vertex)
    out.write("\n}\n")


def quiver_to_dot(q: ClusterQuiver, rank: int) -> str:
    roots, _, variables = _tables(rank)

    def label(v) -> str:
        if q.kind == "exchange":
            return "{" + ",".join(variables[x][0] for x, _, _ in _print_order(v)) + "}"
        if q.kind == "ccluster":
            return "{" + ",".join(roots[r][1:-1] for r in v) + "}"
        if q.kind == "tautilt":
            mods = ",".join(roots[r][1:-1] for r in v.module_part)
            return f"M=[{mods}] P=[{','.join(map(str, v.projective_part))}]"
        if q.kind == "cambrian":
            return "s" + ".".join(map(str, v.word)) if v.word else "e"
        raise InternalError(f"unknown quiver kind {q.kind!r}")

    vertices = [f'  v{i} [label="{label(v)}"];' for i, v in enumerate(q.vertices)]
    edges = [f"  v{e.src} -> v{e.dst};" for e in q.edges]
    return "\n".join([f"digraph {q.kind} {{", *vertices, *edges, "}"]) + "\n"


def _parse_coxeter(raw: str, rank: int) -> CoxeterElement:
    try:
        order = tuple(int(x) for x in raw.split(","))
    except ValueError as exc:
        raise InputError(f"coxeter must be comma-separated integers, got {raw!r}") from exc
    if len(order) != rank:
        raise InputError(f"coxeter word length {len(order)} does not match rank {rank}")
    return CoxeterElement(order)


@cache
def build_parser() -> argparse.ArgumentParser:
    # One option set for every command; main refuses the options a command
    # cannot use.  Built once per process: parse_args leaves it unchanged,
    # and a warm process that calls main many times builds no second one.
    # perfbench/run.py calls this by name to time setup_s.
    parser = argparse.ArgumentParser(
        prog="cambrian",
        description="Exchange quivers, c-clusters, Cambrian lattices and their verifications.",
    )
    parser.add_argument("command", choices=[*BUILD_COMMANDS, *VERIFY_COMMANDS])
    parser.add_argument("--type", required=True, dest="dynkin_type", help="Dynkin type letter A-G")
    parser.add_argument("--rank", required=True, type=int)
    parser.add_argument("--coxeter", required=True, help="permutation of 1..rank, comma-separated")
    parser.add_argument("--format", choices=("json", "dot"), default=None)
    parser.add_argument("--output", default=None, help="output path (default stdout)")
    parser.add_argument("--vertex-cap", type=int, default=None)
    parser.add_argument("--verbose", action="store_true", help="full polynomials in JSON output")
    return parser


class Build:
    """The quivers of one (spec, c), built on first use and shared by every
    check of a command; the exchange builds share a VariableTable.  Each has
    the clusters as vertices: more of them than cap (None: the default) is
    invalid input, refused here before anything is built."""

    def __init__(self, spec: CartanSpec, c: CoxeterElement, cap: int | None):
        self.spec, self.c = spec, c
        cap, count = DEFAULT_VERTEX_CAP if cap is None else cap, cluster_count(spec)
        if count > cap:
            raise InputError(f"{spec.dynkin_type}{spec.rank} has {count} clusters, more than the vertex cap {cap}")
        self.table = VariableTable(spec.rank)

    @cached_property
    def plus(self) -> ClusterQuiver:
        return build_exchange_quiver(self.spec, self.c, "plus", self.table)

    @cached_property
    def minus(self) -> ClusterQuiver:
        return build_exchange_quiver(self.spec, self.c, "minus", self.table)

    @cached_property
    def ccluster(self) -> ClusterQuiver:
        return build_c_cluster_quiver(self.spec, self.c)

    @cached_property
    def tautilt(self) -> ClusterQuiver:
        return build_tau_tilting_quiver(self.spec, self.c)

    @cached_property
    def cambrian(self) -> ClusterQuiver:
        return build_cambrian_hasse(self.spec, self.c)


def run_iso_checks(build: Build) -> list[CheckReport]:
    spec, c = build.spec, build.c
    exq, ccq, ttq, caq = build.plus, build.ccluster, build.tautilt, build.cambrian
    theta_map = theta_vertex_map(spec, c, exq, ccq)
    phi_map = phi_vertex_map(spec, ttq, ccq)
    psi_map = psi_vertex_map(spec, c, ttq, exq, ccq, phi_map, theta_map)
    cl_map = cambrian_vertex_map(spec, c, caq, ccq)
    return [
        rep._replace(name=label)
        for label, rep in (
            ("theta exchange->ccluster anti", verify_quiver_map(exq, ccq, theta_map, "anti")),
            ("phi tautilt->ccluster iso", verify_quiver_map(ttq, ccq, phi_map, "iso")),
            ("psi tautilt->exchange anti", verify_quiver_map(ttq, exq, psi_map, "anti")),
            ("cl cambrian->ccluster iso", verify_quiver_map(caq, ccq, cl_map, "iso")),
        )
    ]


def run_lattice_checks(build: Build) -> list[CheckReport]:
    quivers = (build.plus, build.ccluster, build.tautilt, build.cambrian)
    return [verify_lattice(poset_from_hasse(q))._replace(name=f"lattice {q.kind}") for q in quivers]


def run_sign_checks(build: Build) -> list[CheckReport]:
    """Report what both exchange builds assert: a build that returns has
    checked sign coherence and duality, hence unimodularity, on every frame
    it stores, or it has raised InternalError naming the frame's path."""
    return [
        CheckReport(f"signs {sign}", True, (f"{q.n_vertices} clusters: sign-coherent, dual, unimodular",),
                    stats=(("clusters", q.n_vertices),))
        for sign, q in (("plus", build.plus), ("minus", build.minus))
    ]


def run_flip_checks(build: Build) -> list[CheckReport]:
    return [check_arrow_flip(build.plus, build.minus)]


def run_all_checks(build: Build) -> list[CheckReport]:
    reports = run_iso_checks(build)
    reports += run_lattice_checks(build)
    reports += run_sign_checks(build)
    reports += run_flip_checks(build)
    reports.append(check_tau_c_matrix(build.spec, build.c, build.plus, build.minus))
    return reports


VERIFY_COMMANDS = {
    "verify-iso": run_iso_checks,
    "verify-lattice": run_lattice_checks,
    "verify-signs": run_sign_checks,
    "verify-flip": run_flip_checks,
    "verify-all": run_all_checks,
}


def _report_text(reports: list[CheckReport]) -> str:
    lines = []
    for rep in reports:
        status = "PASS" if rep.ok else "FAIL"
        line = f"{status} {rep.name}: {'; '.join(rep.details)}"
        if rep.counterexample:
            line += f" [counterexample: {rep.counterexample}]"
        lines.append(line)
    return "\n".join(lines) + "\n"


def _report_json(reports: list[CheckReport]) -> str:
    checks = [{**rep._asdict(), "stats": dict(rep.stats)} for rep in reports]
    return json.dumps({"checks": checks}, indent=2, sort_keys=True) + "\n"


def _open_output(path: str | None):
    """The output stream, opened (and truncated) once the input, vertex cap
    included, has passed every check and before anything is built: invalid
    input leaves the file as it was, and an unwritable path is invalid input."""
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror}") from exc


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.verbose and args.command != "exchange":
            raise InputError(f"--verbose adds polynomials to exchange JSON, not to {args.command}")
        if args.command in VERIFY_COMMANDS and args.format == "dot":
            raise InputError(f"{args.command} prints text or JSON, not --format dot")
        if args.verbose and args.format == "dot":
            raise InputError("--verbose adds polynomials to JSON output, not to --format dot")
        spec = cartan_matrix(args.dynkin_type, args.rank)
        c = _parse_coxeter(args.coxeter, args.rank)
        build = Build(spec, c, args.vertex_cap)
        with _open_output(args.output) as out:
            if args.command in VERIFY_COMMANDS:
                reports = VERIFY_COMMANDS[args.command](build)
                out.write(_report_json(reports) if args.format == "json" else _report_text(reports))
            elif args.format != "dot":
                quiver_to_json(getattr(build, BUILD_COMMANDS[args.command]), spec.rank, out, args.verbose)
            else:
                out.write(quiver_to_dot(getattr(build, BUILD_COMMANDS[args.command]), spec.rank))
            out.flush()
        return 1 if args.command in VERIFY_COMMANDS and not all(rep.ok for rep in reports) else 0
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # only a write, flush or close of the output does I/O
        if args.output is None:  # stdout: let the interpreter's last flush succeed
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write {args.output or 'stdout'}: {exc.strerror}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line frontend: build quivers, export DOT/JSON, run verifications.

Exit codes: 0 success, 1 a verification check failed, 2 invalid input,
3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from dataclasses import asdict, replace
from functools import cached_property
from itertools import islice
from typing import TextIO

from .errors import InputError, InternalError
from .lattice import poset_from_hasse, verify_lattice, verify_quiver_map
from .laurent import LaurentPolynomial, denominator_vector, poly_hash, poly_str
from .mutation import check_frame
from .quivers import (
    DEFAULT_VERTEX_CAP,
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
from .rootsys import CartanSpec, CoxeterElement, Root, cartan_matrix
from .sortables import build_cambrian_hasse, cambrian_vertex_map

# Build command -> the Build attribute holding its quiver.
BUILD_COMMANDS = {
    "exchange": "plus",
    "cclusters": "ccluster",
    "cambrian": "cambrian",
    "tautilt": "tautilt",
}


def _root_str(r: Root) -> str:
    return "[" + ",".join(str(x) for x in r) + "]"


def _var_payload(v: LaurentPolynomial, rank: int, verbose: bool) -> dict:
    d = {"d": _root_str(denominator_vector(v, rank)), "hash": poly_hash(v)}
    if verbose:
        d["poly"] = poly_str(v)
    return d


def _var_payloads(q: ClusterQuiver, rank: int, verbose: bool = False) -> dict:
    """The payload of each distinct cluster variable of an exchange quiver,
    so a variable met at many vertices and edges is serialized once."""
    if q.kind != "exchange":
        return {}
    variables = {x for payload in q.vertices for x in payload.variables}
    return {x: _var_payload(x, rank, verbose) for x in variables}


def _vertex_payload(q: ClusterQuiver, i: int, var_payloads: dict) -> dict:
    v = q.vertices[i]
    if q.kind == "exchange":
        return {
            "variables": [var_payloads[x] for x in v.variables],
            "c_vectors": [list(c) for c in v.c_vectors],
            "g_vectors": [list(g) for g in v.g_vectors],
        }
    if q.kind == "ccluster":
        return {"roots": [_root_str(r) for r in v]}
    if q.kind == "tautilt":
        return {
            "module_part": [_root_str(r) for r in v.module_part],
            "projective_part": list(v.projective_part),
            "m_size": v.m_size,
        }
    if q.kind == "cambrian":
        return {
            "word": list(v.word),
            "blocks": [list(b) for b in v.blocks],
            "length": v.length,
        }
    raise InternalError(f"unknown quiver kind {q.kind!r}")


def _edge_label(label: object, var_payloads: dict) -> str:
    if isinstance(label, LaurentPolynomial):
        return "d={d}#{hash}".format(**var_payloads[label])
    if isinstance(label, tuple):
        return _root_str(label)
    return str(label)


def quiver_to_json(q: ClusterQuiver, rank: int, out: TextIO, verbose: bool = False) -> None:
    """Write q as JSON to out in batches of encoder chunks: one string doubles
    the peak memory, and each write is a system call when stdout is unbuffered."""
    var_payloads = _var_payloads(q, rank, verbose)
    doc = {
        "vertices": [{"id": i, "payload": _vertex_payload(q, i, var_payloads)} for i in range(q.n_vertices)],
        "edges": [
            {"src": e.src, "dst": e.dst, "out": _edge_label(e.out_label, var_payloads),
             "in": _edge_label(e.in_label, var_payloads)}
            for e in q.edges
        ],
    }
    chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(doc)
    while text := "".join(islice(chunks, 4096)):
        out.write(text)
    out.write("\n")


def _vertex_label(q: ClusterQuiver, i: int, var_payloads: dict) -> str:
    v = q.vertices[i]
    if q.kind == "exchange":
        return "{" + ",".join(var_payloads[x]["d"] for x in v.variables) + "}"
    if q.kind == "ccluster":
        return "{" + ",".join(_root_str(r) for r in v) + "}"
    if q.kind == "tautilt":
        mods = ",".join(_root_str(r) for r in v.module_part)
        projs = ",".join(str(i) for i in v.projective_part)
        return f"M=[{mods}] P=[{projs}]"
    if q.kind == "cambrian":
        return "s" + ".".join(str(a) for a in v.word) if v.word else "e"
    raise InternalError(f"unknown quiver kind {q.kind!r}")


def quiver_to_dot(q: ClusterQuiver, rank: int) -> str:
    var_payloads = _var_payloads(q, rank)
    lines = [f"digraph {q.kind} {{"]
    for i in range(q.n_vertices):
        label = _vertex_label(q, i, var_payloads).replace('"', '\\"')
        lines.append(f'  v{i} [label="{label}"];')
    for e in q.edges:
        lines.append(f"  v{e.src} -> v{e.dst};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _parse_coxeter(raw: str, rank: int) -> CoxeterElement:
    try:
        order = tuple(int(x) for x in raw.split(","))
    except ValueError as exc:
        raise InputError(f"coxeter must be comma-separated integers, got {raw!r}") from exc
    if len(order) != rank:
        raise InputError(f"coxeter word length {len(order)} does not match rank {rank}")
    return CoxeterElement(order)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cambrian",
        description="Exchange quivers, c-clusters, Cambrian lattices and their verifications.",
    )
    parser.set_defaults(verbose=False)  # --verbose is an option of exchange alone
    sub = parser.add_subparsers(dest="command", required=True)
    for name in [*BUILD_COMMANDS, *VERIFY_COMMANDS]:
        p = sub.add_parser(name)
        p.add_argument("--type", required=True, dest="dynkin_type", help="Dynkin type letter A-G")
        p.add_argument("--rank", required=True, type=int)
        p.add_argument("--coxeter", required=True, help="permutation of 1..rank, comma-separated")
        p.add_argument("--format", choices=("json", "dot"), default=None)
        p.add_argument("--output", default=None, help="output path (default stdout)")
        p.add_argument("--vertex-cap", type=int, default=None)
        if name == "exchange":
            p.add_argument("--verbose", action="store_true", help="full polynomials in JSON output")
    return parser


class Build:
    """The quivers of one (spec, c), each built on first use and then shared
    by every check of a command.  cap (None for the default) bounds each
    exchange BFS and the tau-tilting enumeration, and is checked here, so
    every command rejects a bad cap."""

    def __init__(self, spec: CartanSpec, c: CoxeterElement, cap: int | None):
        self.spec, self.c = spec, c
        self.cap = DEFAULT_VERTEX_CAP if cap is None else cap
        if self.cap < 1:
            raise InputError(f"vertex cap must be at least 1, got {cap}")

    @cached_property
    def plus(self) -> ClusterQuiver:
        return build_exchange_quiver(self.spec, self.c, "plus", vertex_cap=self.cap)

    @cached_property
    def minus(self) -> ClusterQuiver:
        return build_exchange_quiver(self.spec, self.c, "minus", vertex_cap=self.cap)

    @cached_property
    def ccluster(self) -> ClusterQuiver:
        return build_c_cluster_quiver(self.spec, self.c)

    @cached_property
    def tautilt(self) -> ClusterQuiver:
        return build_tau_tilting_quiver(self.spec, self.c, vertex_cap=self.cap)

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
        replace(rep, name=label)
        for label, rep in (
            ("theta exchange->ccluster anti", verify_quiver_map(exq, ccq, theta_map, "anti")),
            ("phi tautilt->ccluster iso", verify_quiver_map(ttq, ccq, phi_map, "iso")),
            ("psi tautilt->exchange anti", verify_quiver_map(ttq, exq, psi_map, "anti")),
            ("cl cambrian->ccluster iso", verify_quiver_map(caq, ccq, cl_map, "iso")),
        )
    ]


def run_lattice_checks(build: Build) -> list[CheckReport]:
    quivers = (build.plus, build.ccluster, build.tautilt, build.cambrian)
    return [replace(verify_lattice(poset_from_hasse(q)), name=f"lattice {q.kind}") for q in quivers]


def run_sign_checks(build: Build) -> list[CheckReport]:
    """Re-assert check_frame on the frame the BFS reached each cluster of both
    exchange quivers with, and that its C-columns are the stored c-vectors."""
    reports = []
    for sign, q in (("plus", build.plus), ("minus", build.minus)):
        for payload in q.vertices:
            check_frame(payload.frame)
            if frozenset(payload.frame.c_vectors) != frozenset(payload.c_vectors):
                where = f"witness path {payload.witness_path}"
                reports.append(CheckReport(f"signs {sign}", False, ("C-set mismatch",), where))
                break
        else:
            details = (f"{q.n_vertices} clusters: sign-coherent, dual, unimodular",)
            reports.append(CheckReport(f"signs {sign}", True, details, stats=(("clusters", q.n_vertices),)))
    return reports


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
    checks = [{**asdict(rep), "stats": dict(rep.stats)} for rep in reports]
    return json.dumps({"checks": checks}, indent=2, sort_keys=True) + "\n"


def _open_output(path: str | None):
    """The output stream, opened before anything is built so that an
    unwritable --output path is invalid input, not a late failure."""
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
        if args.command in VERIFY_COMMANDS and args.format == "dot":
            raise InputError(f"{args.command} prints text or JSON, not --format dot")
        if args.verbose and args.format == "dot":
            raise InputError("--verbose adds polynomials to JSON output, not to --format dot")
        spec = cartan_matrix(args.dynkin_type, args.rank)
        c = _parse_coxeter(args.coxeter, args.rank)
        build = Build(spec, c, args.vertex_cap)
        with _open_output(args.output) as out:
            if args.command not in BUILD_COMMANDS:
                reports = VERIFY_COMMANDS[args.command](build)
                out.write(_report_json(reports) if args.format == "json" else _report_text(reports))
                return 0 if all(rep.ok for rep in reports) else 1
            q = getattr(build, BUILD_COMMANDS[args.command])
            if args.format != "dot":
                quiver_to_json(q, spec.rank, out, args.verbose)
            else:
                out.write(quiver_to_dot(q, spec.rank))
        return 0
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

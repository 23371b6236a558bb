"""Command-line frontend: build quivers, export DOT/JSON, run verifications.

Exit codes: 0 success, 1 a verification check failed, 2 invalid input or an
output that cannot be written, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import os
import sys
from functools import cache, cached_property
from typing import NoReturn

from .errors import InputError, InternalError
from .lattice import poset_from_hasse, verify_lattice, verify_quiver_map
from .laurent import VariableTable
from .mutation import build_bc
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
from .rootsys import CartanSpec, CoxeterElement, cartan_matrix, cluster_count, positive_roots
from .sortables import build_cambrian_hasse, cambrian_vertex_map

# Build command -> the Build attribute holding its quiver.
BUILD_COMMANDS = {"exchange": "plus", "cclusters": "ccluster", "cambrian": "cambrian", "tautilt": "tautilt"}
DEFAULT_VERTEX_CAP = 10**6


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
    parser.add_argument("--vertex-cap", type=int, default=DEFAULT_VERTEX_CAP)
    parser.add_argument("--verbose", action="store_true", help="full polynomials in JSON output")
    return parser


class Build:
    """The quivers of one (spec, c), built on first use and shared by every
    check of a command; the exchange builds share a VariableTable.  Each has
    the clusters as vertices: more of them than cap, like a c of another
    rank, is invalid input, refused here before anything is built."""

    def __init__(self, spec: CartanSpec, c: CoxeterElement, cap: int):
        if len(c.order) != spec.rank:
            raise InputError(f"coxeter word length {len(c.order)} does not match rank {spec.rank}")
        self.spec, self.c, count = spec, c, cluster_count(spec)
        if count > cap:
            raise InputError(f"{spec.dynkin_type}{spec.rank} has {count} clusters, more than the vertex cap {cap}")
        self.table = VariableTable(spec.rank)

    @cached_property
    def plus(self) -> ClusterQuiver:
        return self._check_c_vectors(build_exchange_quiver(build_bc(self.spec, self.c), self.table))

    @cached_property
    def minus(self) -> ClusterQuiver:
        return self._check_c_vectors(build_exchange_quiver(build_bc(self.spec, self.c).negated(), self.table))

    def _check_c_vectors(self, q: ClusterQuiver) -> ClusterQuiver:
        """q, once its build's c-vectors are checked to be the 2N signed roots +-Phi+ (Speyer-Thomas,
        Acyclic cluster algebras revisited), by one lookup each."""
        roots = positive_roots(self.spec)
        signed, cv = {*roots, *(tuple(-x for x in r) for r in roots)}, q.steps.c_vectors
        for c in cv:
            if c not in signed:
                raise InternalError(f"c-vector {c} is not a signed root of {self.spec.dynkin_type}{self.spec.rank}")
        if len(cv) != len(signed) or len(set(cv)) != len(signed):
            raise InternalError(f"{len(cv)} c-vectors, {len(set(cv))} distinct, not the {len(signed)} signed roots")
        return q

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
    checks = (  # (report name, source, target, vertex map, mode), the maps made in this order
        ("theta exchange->ccluster anti", exq, ccq, theta_vertex_map(spec, c, exq, ccq), "anti"),
        ("phi tautilt->ccluster iso", ttq, ccq, phi_vertex_map(spec, ttq, ccq), "iso"),
        ("psi tautilt->exchange anti", ttq, exq, psi_vertex_map(spec, c, ttq, exq, ccq), "anti"),
        ("cl cambrian->ccluster iso", caq, ccq, cambrian_vertex_map(spec, c, caq, ccq), "iso"),
    )
    return [verify_quiver_map(src, dst, vmap, mode)._replace(name=name) for name, src, dst, vmap, mode in checks]


def run_lattice_checks(build: Build) -> list[CheckReport]:
    quivers = (build.plus, build.ccluster, build.tautilt, build.cambrian)
    return [verify_lattice(poset_from_hasse(q))._replace(name=f"lattice {q.kind}") for q in quivers]


def run_sign_checks(build: Build) -> list[CheckReport]:
    """Report what both exchange builds assert: a build that returns has
    checked sign coherence and duality, hence unimodularity, on every frame
    it stores, or it has raised InternalError naming the frame's path; and
    Build has checked that its c-vectors are the signed roots.  Each vertex
    must print that frame: its ids and mask those of its variables in the build's VariableTable,
    each id bound to the g-vector at its position, each c-vector a c id of the build's FrameTable,
    and the two dual, or InternalError names its path."""
    for q in (build.plus, build.minus):
        steps, ids_of = q.steps, build.table.ids
        for p in q.vertices:
            cids = tuple(steps.c_ids.get(key) for key in zip(steps.s, p.c_vectors))
            if (None in cids or tuple(map(ids_of.get, p.variables)) != p.ids or sum(1 << x for x in p.ids) != p.mask
                    or tuple(map(steps.g_vectors.get, p.ids)) != p.g_vectors):
                raise InternalError(f"witness path {p.witness_path}: the vertex does not print its build's frame")
            steps.check_duality(cids, p.ids, p.witness_path)
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
    import json  # here: a verify text run never loads json

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
    """Run one command (argv, or sys.argv[1:] if None) and return its exit
    code.  The cyclic collector is off for the run: the pipeline makes no
    reference cycles, so scanning the millions of objects a large build
    allocates would find none.  It comes back as main found it, on or off,
    once the run's objects, its Build included, are freed."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if enabled:
            gc.enable()


def entry() -> NoReturn:
    """The `cambrian` console script and `python -m cambrian`: run main,
    freeze the heap so that the collections at interpreter exit skip it,
    and exit with main's code.  The exit stays a normal one: atexit
    handlers run and open files are flushed."""
    code = main()
    gc.freeze()
    sys.exit(code)


def _run(argv: list[str] | None) -> int:
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
            else:
                from .writers import quiver_to_dot, quiver_to_json  # here: a verify run never compiles them

                q = getattr(build, BUILD_COMMANDS[args.command])
                if args.format != "dot":
                    quiver_to_json(q, out, args.verbose)
                else:
                    out.write(quiver_to_dot(q))
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


def __getattr__(name: str):  # the old paths perfbench's tracer reads; the writers live in writers
    if name in ("quiver_to_json", "quiver_to_dot"):
        from . import writers
        return getattr(writers, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

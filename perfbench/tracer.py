"""Span tracer for the cambrian layers, installed from outside the package.

``Tracer.installed()`` rebinds each function listed in SPANNED and COUNTED in
every loaded ``cambrian`` module that imported it (``exact_div`` on its
class), and restores the originals on exit.  A SPANNED call records one span
``(name, start, end, parent span, instance id)`` in memory; a COUNTED call
only bumps a counter, because a span per call of these hot helpers would
dominate the traced run, so their time falls to the span that called them.
``Tracer.record()`` is what a traced process writes out, ``merge()`` joins
the records of several processes, and ``layer_metrics()`` derives the
per-layer numbers from a record.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from contextlib import contextmanager

# (function inside the cambrian package, span name).  Functions that share a
# span name are reported together.
SPANNED = (
    ("rootsys.compatibility_graph", "rootsys.compatibility_graph"),
    ("rootsys.enumerate_c_clusters", "rootsys.enumerate_c_clusters"),
    ("rootsys.is_c_compatible", "rootsys.is_c_compatible"),
    ("rootsys.r_degree", "rootsys.r_degree"),
    ("laurent.mutate_seed", "laurent.mutate_seed"),
    ("laurent.LaurentPolynomial.exact_div", "laurent.exact_div"),
    ("laurent.theta", "laurent.theta"),
    ("mutation.frame_mutate", "mutation.frame_mutate"),
    ("mutation.frame_is_unimodular", "mutation.frame_is_unimodular"),
    ("mutation.check_duality", "mutation.check_duality"),
    ("quivers.build_exchange_quiver", "quivers.build_exchange_quiver"),
    ("quivers.build_c_cluster_quiver", "quivers.build_c_cluster_quiver"),
    ("quivers.build_tau_tilting_quiver", "quivers.build_tau_tilting_quiver"),
    ("quivers.theta_vertex_map", "quivers.vertex_maps"),
    ("quivers.phi_vertex_map", "quivers.vertex_maps"),
    ("quivers.psi_vertex_map", "quivers.vertex_maps"),
    ("quivers.check_arrow_flip", "quivers.check_arrow_flip"),
    ("quivers.check_tau_c_matrix", "quivers.check_tau_c_matrix"),
    ("sortables.enumerate_sortables", "sortables.enumerate_sortables"),
    ("sortables.build_cambrian_hasse", "sortables.build_cambrian_hasse"),
    ("sortables.cl", "sortables.cl"),
    ("sortables.inversion_set", "sortables.inversion_set"),
    ("lattice.poset_from_hasse", "lattice.poset_from_hasse"),
    ("lattice.verify_lattice", "lattice.verify_lattice"),
    ("lattice.verify_quiver_map", "lattice.verify_quiver_map"),
    ("cli.main", "cli.main"),
    ("cli.run_all_checks", "cli.run_all_checks"),
    ("cli.run_iso_checks", "cli.run_iso_checks"),
    ("cli.run_lattice_checks", "cli.run_lattice_checks"),
    ("cli.run_sign_checks", "cli.run_sign_checks"),
    ("cli.quiver_to_json", "cli.serialize"),
    ("cli.quiver_to_dot", "cli.serialize"),
)
COUNTED = (
    ("rootsys.tau", "rootsys.tau"),
    ("rootsys.is_almost_positive", "rootsys.is_almost_positive"),
    ("lattice._bounded", "lattice._bounded"),
)
LAYERS = ("rootsys", "laurent", "mutation", "quivers", "sortables", "lattice", "cli")
# Spans whose frame mutations are witness-path replays, not BFS steps.  Both
# also build exchange quivers; the mutations of a build nested in them are BFS
# steps, so a frame_mutate counts as a replay only when the nearest of these
# spans above it is a replay root.
REPLAY_ROOTS = ("quivers.check_tau_c_matrix", "cli.run_sign_checks")
BFS_ROOT = "quivers.build_exchange_quiver"


class Tracer:
    """Spans and counters of one process; see the module docstring."""

    def __init__(self) -> None:
        self.instance = 0
        self.names: list[str] = []
        self.spans: list = []
        self.counts: Counter = Counter()
        self.wrapped: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self._stack = [-1]
        self._max_terms = 0
        self._variables: set = set()
        self._builds: set = set()
        self._hasse_edges = 0

    @contextmanager
    def installed(self):
        importlib.import_module("cambrian.cli")
        self.wrapped.clear()
        self.missing.clear()
        try:
            for target, name in SPANNED:
                self._install(target, lambda fn, name=name: self._span_wrapper(fn, name))
            for target, name in COUNTED:
                self._install(target, lambda fn, name=name: self._count_wrapper(fn, name))
            yield self
        finally:
            for owner, attr, original in reversed(self.wrapped):
                setattr(owner, attr, original)

    def _install(self, target: str, make) -> None:
        module_name, *path = target.split(".")
        module = importlib.import_module("cambrian." + module_name)
        if len(path) == 2:  # a method: rebind it on its class
            cls = getattr(module, path[0], None)
            original = None if cls is None else cls.__dict__.get(path[1])
            owners = [(cls, path[1])] if original is not None else []
        else:
            original = getattr(module, path[0], None)
            owners = [
                (mod, attr)
                for mod_name, mod in list(sys.modules.items())
                if mod_name == "cambrian" or mod_name.startswith("cambrian.")
                for attr, value in list(vars(mod).items())
                if value is original
            ]
        if original is None:
            self.missing.append(target)
            return
        wrapper = make(original)
        for owner, attr in owners:
            self.wrapped.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def _count_wrapper(self, fn, name: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _span_wrapper(self, fn, name: str):
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = getattr(self, "_after_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[span_id] = (name_id, start, end, parent, self.instance)
            return result if hook is None else hook(args, kwargs, result)

        return wrapper

    # Hooks run after the span has closed and see the call's arguments and
    # result; they gather the counts that no single call holds.

    def _after_laurent_mutate_seed(self, args, kwargs, seed):
        k = args[1] if len(args) > 1 else kwargs["k"]
        new_var = seed.vars[k - 1]
        self._variables.add((self.instance, new_var))
        self._max_terms = max(self._max_terms, len(new_var.terms))
        return seed

    def _after_quivers_build_exchange_quiver(self, args, kwargs, quiver):
        sign = args[2] if len(args) > 2 else kwargs.get("sign", "plus")
        self._builds.add((self.instance, args[0], args[1], sign))
        return quiver

    def _after_sortables_inversion_set(self, args, kwargs, inversions):
        # The Cambrian cover scan compares inversion sets pairwise with "<";
        # a set that counts its own comparisons measures that scan.
        return _CountingSet(inversions, self.counts)

    def _after_sortables_build_cambrian_hasse(self, args, kwargs, quiver):
        self._hasse_edges += len(quiver.edges)
        return quiver

    def record(self) -> dict:
        """The process's spans and counters, as written out at the end."""
        return {
            "names": list(self.names),
            "spans": [list(s) for s in self.spans],
            "counts": dict(self.counts),
            "max_terms": self._max_terms,
            "variables": len(self._variables),
            "builds": len(self._builds),
            "hasse_edges": self._hasse_edges,
            "missing": list(self.missing),
        }


class _CountingSet(frozenset):
    __slots__ = ("_counts",)

    def __new__(cls, items, counts):
        obj = super().__new__(cls, items)
        obj._counts = counts
        return obj

    def __lt__(self, other):
        self._counts["sortables.cover_comparisons"] += 1
        return frozenset.__lt__(self, other)


def merge(records: list[dict]) -> dict:
    """Join per-process records; spans get global ids and instance numbers."""
    out = {"names": [], "spans": [], "counts": Counter(), "max_terms": 0,
           "variables": 0, "builds": 0, "hasse_edges": 0, "missing": []}
    first_instance = 0
    for rec in records:
        remap = []
        for name in rec["names"]:
            if name not in out["names"]:
                out["names"].append(name)
            remap.append(out["names"].index(name))
        base = len(out["spans"])
        for name_id, start, end, parent, instance in rec["spans"]:
            out["spans"].append([remap[name_id], start, end, parent + base if parent >= 0 else -1,
                                 first_instance + instance])
        first_instance += 1 + max((span[4] for span in rec["spans"]), default=0)
        out["counts"].update(rec["counts"])
        out["max_terms"] = max(out["max_terms"], rec["max_terms"])
        for key in ("variables", "builds", "hasse_edges"):
            out[key] += rec[key]
        out["missing"] = sorted(set(out["missing"]) | set(rec["missing"]))
    out["counts"] = dict(out["counts"])
    return out


def layer_metrics(rec: dict) -> dict[str, float]:
    """Per-layer self time, outermost time and calls per span name, and the
    counts and ratios that BENCHMARK.json names."""
    names, spans = rec["names"], rec["spans"]
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start

    def ancestors(parent):
        while parent >= 0:
            yield names[spans[parent][0]]
            parent = spans[parent][3]

    self_s = Counter({layer: 0.0 for layer in LAYERS})
    inclusive: Counter = Counter()
    calls = Counter(rec["counts"])
    replays = 0
    for idx, (name_id, start, end, parent, _) in enumerate(spans):
        name = names[name_id]
        calls[name] += 1
        self_s[name.split(".")[0]] += (end - start) - child_time[idx]
        up = list(ancestors(parent))
        if name not in up:  # nested calls of one name count once
            inclusive[name] += end - start
        if name == "mutation.frame_mutate":
            nearest = next((n for n in up if n == BFS_ROOT or n in REPLAY_ROOTS), None)
            replays += nearest in REPLAY_ROOTS

    def ratio(num, den):
        return num / den if den else 0.0

    spanned = {name for _, name in SPANNED}
    m = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
    m.update({f"{name}.s": inclusive[name] for name in spanned})
    m.update({f"{name}.calls": calls[name] for name in spanned | {name for _, name in COUNTED}})
    comparisons = calls["sortables.cover_comparisons"]
    m.update({
        "laurent.max_terms": rec["max_terms"],
        "laurent.divisions_per_variable": ratio(calls["laurent.exact_div"], rec["variables"]),
        "quivers.exchange_build_useful_ratio": ratio(rec["builds"], calls["quivers.build_exchange_quiver"]),
        "quivers.replay_frame_mutations": replays,
        "sortables.cover_pairs_scanned": comparisons,
        "sortables.cover_hit_ratio": ratio(rec["hasse_edges"], comparisons),
        "lattice.verify_lattice.pairs": calls["lattice._bounded"] // 2,
    })
    return m

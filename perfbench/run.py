"""Benchmark of the cambrian batch verifier.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  The working tree runs the way the
tier-1 tests run it: ``PYTHONPATH=src``, no install, ``CAMBRIAN_VERTEX_CAP``
unset.

--trace 0 times the program as its users run it: one fresh ``python3 -m
cambrian`` process per instance, one instance at a time (a closed loop with
one client).  The sweep workload is the exception: one process runs
``verify-all`` on every instance through ``cambrian.cli.main``.  The run makes
a fixed number of whole passes over the workload's panel, as many as fit in
--seconds at the workload's nominal pass time (at least one), and reports the
end-to-end metrics.  Every time is the CPU time of the process that did the
work, scaled by the speed of the CPU while it ran (speed.py): the speed of a
shared host drifts by up to 2x.

--trace 1 runs the first pass of the same seed, each instance untraced and
then traced right after it (tracer.py wraps the layers' public functions in
the worker process), and reports the per-layer metrics; the sum of the paired
(scaled) time differences is the tracing overhead.

Every instance goes through the correctness gate (``check_output``).  Stdout
gets a context line and, last, the result object; the full record, and for
--trace 1 the spans, go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import speed
import tracer

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
DEFAULT_SEED = 1
# Set-up samples taken before each instance (before each pass, for the sweep).
SETUP_SAMPLES = 2
SETUP_CODE = "import cambrian.cli as c; c.build_parser()"

# Number of clusters of each finite type (Fomin-Zelevinsky Catalan numbers).
# Every quiver the program builds or verifies has this many vertices and,
# being n-regular, rank * N / 2 edges.
CATALAN = {
    ("A", 1): 2, ("A", 2): 5, ("A", 3): 14, ("A", 4): 42, ("A", 5): 132,
    ("B", 2): 6, ("B", 3): 20, ("B", 4): 70, ("C", 3): 20, ("C", 4): 70,
    ("D", 4): 50, ("D", 5): 182, ("E", 6): 833, ("F", 4): 105, ("G", 2): 8,
}
VERIFY_ALL_CHECKS = (
    ("theta exchange->ccluster anti", "{N} vertices, {E} arrows"),
    ("phi tautilt->ccluster iso", "{N} vertices, {E} arrows"),
    ("psi tautilt->exchange anti", "{N} vertices, {E} arrows"),
    ("cl cambrian->ccluster iso", "{N} vertices, {E} arrows"),
    ("lattice exchange", "{N} elements, all meets and joins exist"),
    ("lattice ccluster", "{N} elements, all meets and joins exist"),
    ("lattice tautilt", "{N} elements, all meets and joins exist"),
    ("lattice cambrian", "{N} elements, all meets and joins exist"),
    ("signs plus", "{N} clusters: sign-coherent, dual, unimodular"),
    ("signs minus", "{N} clusters: sign-coherent, dual, unimodular"),
    ("arrow-flip", "{E} edges checked, "),
    ("tau-c-matrix", "{N} clusters checked"),
)


@dataclass(frozen=True)
class Instance:
    command: str
    dynkin_type: str
    rank: int
    order: str

    def argv(self) -> list[str]:
        args = [self.command, "--type", self.dynkin_type, "--rank", str(self.rank),
                "--coxeter", self.order]
        return args if self.command == "verify-all" else args + ["--format", "json"]

    def key(self) -> str:
        return " ".join(self.argv())

    @property
    def clusters(self) -> int:
        return CATALAN[(self.dynkin_type, self.rank)]


# A panel lists (command, type, rank, word, redraw).  Each pass runs every
# entry once.  With redraw, the seed draws a fresh word of the same Coxeter
# element (a random linear extension of the orientation of the Dynkin diagram
# that the word induces).  The load depends strongly on the element (E6
# `exchange` takes 2.4 s to 6.2 s across elements on a 2-core x86 box), so
# each pass covers the same elements and a run measures the code, not which
# elements a seed happened to draw; the seed still picks every argv.
def _every_order(dynkin_type: str, rank: int) -> list[tuple]:
    from itertools import permutations

    return [("verify-all", dynkin_type, rank, ",".join(map(str, p)), False)
            for p in permutations(range(1, rank + 1))]


# Two E6 Coxeter elements; the second makes `exchange` about 1.8 times slower.
E6_LINEAR, E6_OTHER = "1,2,3,4,5,6", "2,5,1,6,3,4"
WORKLOADS = {
    # The whole pipeline: every layer, 8 exchange builds per instance.
    "verify-mid": [
        ("verify-all", "D", 5, "1,2,3,4,5", True),
        ("verify-all", "F", 4, "1,3,2,4", True),
        ("verify-all", "A", 5, "1,3,5,2,4", True),
    ],
    # Exact Laurent mutation, frame mutation and 2 MB of JSON; no sortables,
    # lattice or compatibility graph.  Each pass covers both commands and both
    # elements in two instances, to keep a run short.
    "exchange-e6": [("exchange", "E", 6, E6_LINEAR, True), ("tautilt", "E", 6, E6_OTHER, True)],
    # rootsys (tau orbits, compatibility) and sortables (cl, cover scan);
    # never laurent or mutation.
    "cambrian-e6": [("cambrian", "E", 6, E6_OTHER, True), ("cclusters", "E", 6, E6_LINEAR, True)],
    # Many small instances in one warm process.
    "sweep-small": [
        entry
        for t, n in (("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3), ("G", 2))
        for entry in _every_order(t, n)
    ] + [("verify-all", t, 4, "1,2,3,4", True) for t in "ABCD"],
    # Tiny workloads for smoke.py only; BENCHMARK.json does not list them.
    "smoke-cli": [
        ("verify-all", "A", 3, "1,2,3", True),
        ("exchange", "A", 3, "2,1,3", True),
        ("tautilt", "A", 3, "1,3,2", True),
        ("cclusters", "A", 2, "2,1", True),
        ("cambrian", "A", 3, "3,2,1", True),
    ],
    "smoke-sweep": _every_order("A", 2) + [("verify-all", "A", 3, "1,2,3", True)],
}
IN_PROCESS = {"sweep-small", "smoke-sweep"}
# Wall seconds per pass, set-up samples included, on a 2-vCPU x86_64 host at
# the seed code.  A run makes int(--seconds / NOMINAL_PASS_S) passes: a count
# that does not depend on the speed of the moment keeps every statistic over
# the same samples on both sides of a comparison and across seeds (the tail
# percentile depends on the sample count), while the host's speed drifts by
# up to 2x.
NOMINAL_PASS_S = {"verify-mid": 11.0, "exchange-e6": 7.5, "cambrian-e6": 11.0,
                  "sweep-small": 9.0, "smoke-cli": 1.0, "smoke-sweep": 1.0}


def _dynkin_edges(dynkin_type: str, rank: int) -> list[tuple[int, int]]:
    from cambrian.rootsys import cartan_matrix

    cartan = cartan_matrix(dynkin_type, rank).cartan
    return [(i + 1, j + 1) for i in range(rank) for j in range(i + 1, rank) if cartan[i][j]]


def draw_word(dynkin_type: str, rank: int, word: str, rng: random.Random) -> str:
    """A seeded random word of the Coxeter element that ``word`` represents."""
    letters = [int(x) for x in word.split(",")]
    pos = {a: i for i, a in enumerate(letters)}
    before = {a: set() for a in letters}
    for i, j in _dynkin_edges(dynkin_type, rank):
        first, second = (i, j) if pos[i] < pos[j] else (j, i)
        before[second].add(first)
    out: list[int] = []
    while len(out) < rank:
        ready = sorted(a for a in letters if a not in out and before[a] <= set(out))
        out.append(rng.choice(ready))
    return ",".join(map(str, out))


def draw_pass(panel: list[tuple], rng: random.Random) -> list[Instance]:
    return [
        Instance(cmd, t, n, draw_word(t, n, w, rng) if redraw else w)
        for cmd, t, n, w, redraw in panel
    ]


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("CAMBRIAN_VERTEX_CAP", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


@dataclass
class Proc:
    returncode: int
    stdout: bytes
    stderr: str
    start: float  # time.monotonic()
    end: float
    cpu: float  # user + system seconds of the process
    rss_mb: float


def spawn(argv: list[str]) -> Proc:
    """Run one process to completion; its times and its own peak RSS."""
    with tempfile.TemporaryFile(dir=OUT_DIR) as err:
        start = time.monotonic()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=child_env(), cwd=ROOT)
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            end = time.monotonic()
        finally:
            proc.stdout.close()
            if proc.returncode is None and proc.poll() is None:
                proc.kill()
                proc.wait()
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    return Proc(proc.returncode, out, stderr, start, end, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024)


def load_digests() -> dict[str, str]:
    return json.loads((BENCH_DIR / "digests.json").read_text())


def check_output(inst: Instance, returncode: int, stdout: bytes, digests: dict[str, str]) -> str | None:
    """Correctness gate: None when the output is right, else the reason."""
    if returncode != 0:
        return f"exit code {returncode}"
    try:
        failure = _check_counts(inst, stdout)
    except (ValueError, KeyError, TypeError) as exc:  # not UTF-8, not JSON, wrong shape
        failure = f"unreadable output: {type(exc).__name__}: {exc}"
    if failure:
        return failure
    digest = digests.get(inst.key())
    if digest is not None and hashlib.sha256(stdout).hexdigest() != digest:
        return "stdout differs from the recorded digest"
    return None


def _check_counts(inst: Instance, stdout: bytes) -> str | None:
    n = inst.clusters
    e = inst.rank * n // 2
    if inst.command == "verify-all":
        lines = stdout.decode().splitlines()
        want = [f"PASS {name}: {detail.format(N=n, E=e)}" for name, detail in VERIFY_ALL_CHECKS]
        if len(lines) != len(want) or not all(a.startswith(b) for a, b in zip(lines, want)):
            return "verify-all lines differ from the expected PASS lines"
        return None
    doc = json.loads(stdout)
    if len(doc["vertices"]) != n or len(doc["edges"]) != e:
        return f"{len(doc['vertices'])} vertices / {len(doc['edges'])} edges, want {n} / {e}"
    return None


@dataclass
class Sample:
    instance: Instance
    latency: float  # scaled CPU seconds (speed.py)
    failure: str | None
    out_bytes: int
    wall: float  # unscaled wall seconds, for the record


@dataclass
class Pass:
    wall: float  # scaled seconds of the whole pass
    rss_mb: float
    samples: list[Sample]


def run_pass(workload: str, instances: list[Instance], digests: dict[str, str], probe: speed.Probe,
             spans_dir: Path | None = None, setup: list[float] | None = None) -> Pass:
    """Run one pass; with spans_dir, traced workers write spans there.

    With setup, set-up samples go there, taken between the instances (before
    the pass for the sweep) so that they spread over the whole run.  Times
    are scaled by the speed that probe saw.
    """
    child = str(BENCH_DIR / "child.py")
    if workload in IN_PROCESS:
        if setup is not None:
            setup.extend(setup_sample(probe) for _ in range(SETUP_SAMPLES))
        spans = str(spans_dir / "sweep.json") if spans_dir else "-"
        specs = [f"{i.dynkin_type}:{i.rank}:{i.order}" for i in instances]
        proc = spawn([sys.executable, child, "sweep", spans] + specs)
        try:
            if proc.returncode != 0:
                raise ValueError(f"exit code {proc.returncode}: {proc.stderr[-500:]}")
            results = json.loads(proc.stdout.splitlines()[-1])
            if len(results) != len(instances):
                raise ValueError(f"{len(results)} results for {len(instances)} instances")
            samples = []
            for inst, r in zip(instances, results):
                text = r["text"].encode()
                failure = check_output(inst, r["returncode"], text, digests)
                start, end = float(r["start"]), float(r["end"])
                latency = probe.scale(float(r["cpu"]), start, end)
                samples.append(Sample(inst, latency, failure, len(text), end - start))
        except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
            reason = f"sweep process: {type(exc).__name__}: {exc}"
            samples = [Sample(i, proc.end - proc.start, reason, 0, proc.end - proc.start) for i in instances]
        return Pass(probe.scale(proc.cpu, proc.start, proc.end), proc.rss_mb, samples)
    samples, rss = [], 0.0
    for k, inst in enumerate(instances):
        if setup is not None:
            setup.extend(setup_sample(probe) for _ in range(SETUP_SAMPLES))
        if spans_dir:
            argv = [sys.executable, child, "cli", str(spans_dir / f"{k}.json"), "--"]
        else:
            argv = [sys.executable, "-m", "cambrian"]
        proc = spawn(argv + inst.argv())
        failure = check_output(inst, proc.returncode, proc.stdout, digests)
        if failure and proc.stderr:
            failure += f": {proc.stderr[-500:]}"
        latency = probe.scale(proc.cpu, proc.start, proc.end)
        samples.append(Sample(inst, latency, failure, len(proc.stdout), proc.end - proc.start))
        rss = max(rss, proc.rss_mb)
    return Pass(sum(s.latency for s in samples), rss, samples)


def setup_sample(probe: speed.Probe | None = None) -> float:
    """Seconds from a fresh interpreter to cambrian.cli imported and its
    parser built, scaled by the speed that probe saw."""
    proc = spawn([sys.executable, "-c", SETUP_CODE])
    if proc.returncode != 0:
        raise SystemExit(f"cambrian.cli does not import: {proc.stderr}")
    return probe.scale(proc.cpu, proc.start, proc.end) if probe else proc.end - proc.start


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest integer percentile with at least 10 samples beyond it, and
    its value (nearest rank).  Below 20 samples: the maximum, p100."""
    ordered = sorted(latencies)
    n = len(ordered)
    pct = (100 * (n - 10)) // n
    if pct < 50:  # fewer than 20 samples: no tail percentile exists
        return 100.0, ordered[-1]
    rank = max(1, -(-pct * n // 100))
    return float(pct), ordered[rank - 1]


def end_to_end(passes: list[Pass], setup: list[float]) -> tuple[dict, dict]:
    samples = [s for p in passes for s in p.samples]
    latencies = [s.latency for s in samples]
    pct, tail_value = tail(latencies)
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p.wall for p in passes),
        "instance_s.p50": statistics.median(latencies),
        "instance_s.tail": tail_value,
        "clusters_per_s": sum(s.instance.clusters for s in samples) / sum(latencies),
        "peak_rss_mb": max(p.rss_mb for p in passes),
    }
    info = {
        "tail_percentile": pct,
        "samples": {"instances": len(samples), "passes": len(passes), "setup": len(setup)},
    }
    return values, info


def run_traced(workload: str, instances: list[Instance], digests: dict[str, str], probe: speed.Probe):
    """The passes run, the per-layer values, context and the merged spans.

    Each instance (the whole sweep process, for the sweep) runs untraced and
    then traced, back to back, so that the host's drift over the pass falls
    alike on both sides of each paired difference.
    """
    units = [instances] if workload in IN_PROCESS else [[inst] for inst in instances]
    spans_root = Path(tempfile.mkdtemp(dir=OUT_DIR))
    plain: list[Pass] = []
    traced: list[Pass] = []
    try:
        for k, unit in enumerate(units):
            spans_dir = spans_root / str(k)
            spans_dir.mkdir()
            plain.append(run_pass(workload, unit, digests, probe))
            traced.append(run_pass(workload, unit, digests, probe, spans_dir))
        records = [
            json.loads(f.read_text())
            for k in range(len(units))
            for f in sorted((spans_root / str(k)).glob("*.json"), key=lambda f: (len(f.stem), f.stem))
        ]
    finally:
        shutil.rmtree(spans_root)
    merged = tracer.merge(records)
    values = tracer.layer_metrics(merged)
    overheads = [t.wall - p.wall for p, t in zip(plain, traced)]
    values["trace.overhead_s"] = sum(overheads)
    values["cli.output_bytes"] = sum(s.out_bytes for t in traced for s in t.samples)
    info = {
        "untraced_wall_s": sum(p.wall for p in plain),
        "traced_wall_s": sum(t.wall for t in traced),
        "tracing_overhead_s": sum(overheads),
        "tracing_overhead_per_instance_s": overheads,
        "spans": len(merged["spans"]),
        "unwrapped": merged["missing"],
    }
    return plain + traced, values, info, merged


def context(workload: str, seed: int, seconds: float, trace: int, instances_run: list[Instance]) -> dict:
    commit = None  # a checkout without git: src_sha256 identifies the code
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True).stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "instances": [i.key() for i in instances_run],
    }


def bench(workload: str, seed: int, seconds: float, trace: int,
          digests: dict[str, str] | None = None) -> tuple[dict, dict]:
    """One benchmark run: its context and its result object."""
    defs = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))  # draw_word reads the Dynkin diagram
    OUT_DIR.mkdir(exist_ok=True)
    if digests is None:
        digests = load_digests()
    rng = random.Random(f"{workload}:{seed}")
    panel = WORKLOADS[workload]

    speed.pin()
    setup_sample()  # untimed warm-up: .pyc compilation stays out of setup_s
    with speed.Probe() as probe:
        if trace:
            passes, values, info, merged = run_traced(workload, draw_pass(panel, rng), digests, probe)
        else:
            setup: list[float] = []
            passes = [run_pass(workload, draw_pass(panel, rng), digests, probe, setup=setup)
                      for _ in range(max(1, int(seconds / NOMINAL_PASS_S[workload])))]
            values, info = end_to_end(passes, setup)
            info["setup_samples_s"] = setup
    speeds = [s for _, s in probe.samples]
    info["cpu_speed"] = {"cpus": sorted(os.sched_getaffinity(0)), "median": statistics.median(speeds),
                         "min": min(speeds), "max": max(speeds), "samples": len(speeds),
                         "reference_s": speed.REFERENCE_S}
    if trace:
        spans_file = OUT_DIR / f"spans-{workload}-seed{seed}.json"
        spans_file.write_text(json.dumps(merged))
        info["spans_file"] = str(spans_file.relative_to(ROOT))
        wanted = defs["per_layer"]
    else:
        wanted = defs["end_to_end"]
    samples = [s for p in passes for s in p.samples]
    failures = [f"{s.instance.key()}: {s.failure}" for s in samples if s.failure]
    result = {
        "correct": not failures,
        "attempted": len(samples),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    ctx = context(workload, seed, seconds, trace, [s.instance for s in samples])
    ctx.update(info)
    ctx["fail_ratio"] = len(failures) / len(samples)
    ctx["failures"] = failures
    record = {"context": ctx, "latencies": [[s.latency for s in p.samples] for p in passes],
              "wall_latencies": [[s.wall for s in p.samples] for p in passes], "result": result}
    (OUT_DIR / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1))
    return ctx, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that spawn() stops the worker it is waiting for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "cambrian" / "cli.py").is_file():
        print(f"error: {ROOT} holds no cambrian source tree (src/cambrian); "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    ctx, result = bench(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps({"context": ctx}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

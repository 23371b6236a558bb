"""Smoke test of the benchmark itself, on tiny instances (A2, A3).

    python3 perfbench/smoke.py

Run it from the root of a checkout.  It runs the untraced and the traced path
of run.py on the smoke workloads and checks that every metric of
BENCHMARK.json is reported with its unit, that the traced counts repeat
exactly across two runs, that a corrupted expected digest or unreadable
output fails every instance, that the tracer restores every function it
wrapped, and the tracer against known E6 counts.  It prints one line per
check and exits 1 on the first failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import speed
import tracer

E6 = ["exchange", "--type", "E", "--rank", "6", "--coxeter", "1,2,3,4,5,6", "--format", "json"]


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        raise SystemExit(1)


def check_metrics(result: dict, wanted: list[dict], what: str) -> None:
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    check(got == {m["name"]: m["unit"] for m in wanted}, f"{what}: every metric, with its unit")


def main() -> int:
    defs = json.loads((run.BENCH_DIR.parent / "BENCHMARK.json").read_text())
    seed = run.DEFAULT_SEED
    for workload in ("smoke-cli", "smoke-sweep"):
        _, plain = run.bench(workload, seed, 0, 0)
        check(plain["correct"] and plain["failed"] == 0, f"{workload} untraced: correct")
        check_metrics(plain, defs["end_to_end"], f"{workload} untraced")
        traced = [run.bench(workload, seed, 0, 1)[1] for _ in range(2)]
        check(all(r["correct"] for r in traced), f"{workload} traced: correct")
        check_metrics(traced[0], defs["per_layer"], f"{workload} traced")
        counts = [{m["name"]: r["metrics"][m["name"]]["value"]
                   for m in defs["per_layer"] if m["unit"] != "s"} for r in traced]
        check(counts[0] == counts[1], f"{workload} traced: counts repeat exactly")
        corrupt = {key: "0" * 64 for key in run.load_digests()}
        _, bad = run.bench(workload, seed, 0, 0, digests=corrupt)
        check(bad["failed"] == bad["attempted"] > 0, f"{workload}: corrupted digests fail every instance")

    # Unreadable output fails its instance instead of stopping the run.
    digests = run.load_digests()
    build, verify = run.Instance("exchange", "A", 2, "1,2"), run.Instance("verify-all", "A", 2, "1,2")
    garbage = (b"", b"\xff\xfe", b"[]", b"{}", b'{"vertices": 5}', b'"text"')
    check(all(isinstance(run.check_output(inst, 0, out, digests), str)
              for inst in (build, verify) for out in garbage), "unreadable output fails the gate")
    sweep = run.draw_pass(run.WORKLOADS["smoke-sweep"], random.Random(seed))
    spawn = run.spawn
    for out in (b"", b"[]\n", b'[{"latency": 0.1}]\n', b"\xff\n"):
        run.spawn = lambda argv, out=out: run.Proc(0, out, "", 0.0, 0.1, 0.1, 1.0)
        try:
            with speed.Probe() as probe:
                broken = run.run_pass("smoke-sweep", sweep, digests, probe)
        finally:
            run.spawn = spawn
        check(all(s.failure for s in broken.samples), f"sweep output {out!r} fails every instance")

    import cambrian.cli

    t = tracer.Tracer()
    with contextlib.redirect_stdout(io.StringIO()), t.installed():
        swapped = all(getattr(owner, attr) is not fn for owner, attr, fn in t.wrapped)
        rc = cambrian.cli.main(["verify-all", "--type", "A", "--rank", "2", "--coxeter", "1,2"])
    check(rc == 0 and swapped and t.wrapped and not t.missing, "tracer wraps every listed function")
    check(all(getattr(owner, attr) is fn for owner, attr, fn in t.wrapped),
          f"tracer restores all {len(t.wrapped)} wrapped attributes")

    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
        spans = Path(tmp) / "e6.json"
        proc = subprocess.run([sys.executable, str(run.BENCH_DIR / "child.py"), "cli", str(spans), "--"] + E6,
                              capture_output=True, env=run.child_env(), cwd=run.ROOT, check=True)
        doc = json.loads(proc.stdout)
        m = tracer.layer_metrics(json.loads(spans.read_text()))
    check((len(doc["vertices"]), len(doc["edges"])) == (833, 2499), "E6 exchange: 833 clusters, 2499 edges")
    check((m["quivers.build_exchange_quiver.calls"], m["laurent.mutate_seed.calls"], m["laurent.max_terms"])
          == (1, 4998, 57), "E6 exchange: 1 build, 4998 mutate_seed calls, max_terms 57")
    return 0


if __name__ == "__main__":
    sys.exit(main())

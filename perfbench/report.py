"""Summary and parent/change pair comparison of benchmark runs.

    python3 perfbench/report.py [--seed N]
        Runs every workload of BENCHMARK.json once on this checkout and
        prints each end-to-end metric, with its unit, and fail_ratio.

    python3 perfbench/report.py --parent DIR --change DIR [--seed N]
        Pair comparison: for each of 10 pairs (seed N, N+1, ...) runs this
        benchmark on both checkouts, every workload, alternating which side
        runs first, and prints per workload and end-to-end metric each
        side's median and quartiles, the change's share of pair wins and a
        verdict.  Every result goes to perfbench/out/pairs-<unix time>.jsonl.

Every run lasts BENCHMARK.json's run_seconds, the same on both sides.

Verdicts: "better" when the change wins at least 9/10 of the pairs (ties
count for neither side) and its median beats the parent's by more than the
parent's quartile spread; "worse" when the parent does; otherwise
"unresolved".  The "bound" column says whether the
change's median is within the metric's bound of the parent's: "yes", "no",
or "unresolved" when the parent's own spread exceeds the bound and not every
change run beats every parent run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
RUN = BENCH_DIR / "run.py"
PAIRS = 10


def benchmark() -> dict:
    return json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def run_once(checkout: Path, workload: str, seed: int) -> tuple[dict, dict]:
    """One untraced run of this benchmark on checkout: its context and result."""
    argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
            "--seconds", str(benchmark()["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} in {checkout} failed:\n{proc.stderr}")
    *_, context_line, result_line = proc.stdout.splitlines()
    return json.loads(context_line)["context"], json.loads(result_line)


def fail_ratio(result: dict) -> float:
    return result["failed"] / result["attempted"]


def summary(seed: int) -> None:
    defs = benchmark()
    for w in defs["workloads"]:
        context, result = run_once(BENCH_DIR.parent, w["name"], seed)
        print(f"{w['name']}  (seed {seed}, {result['attempted']} instances)")
        for m in defs["end_to_end"]:
            got = result["metrics"][m["name"]]
            note = f"  (p{context['tail_percentile']:.0f})" if m["name"] == "instance_s.tail" else ""
            print(f"  {m['name']:<16} {got['value']:>12.4f} {got['unit']}{note}")
        print(f"  {'fail_ratio':<16} {fail_ratio(result):>12.4f} ratio", flush=True)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdicts(parent: list[float], change: list[float], better: str, bound: float) -> tuple[float, str, str]:
    sign = 1 if better == "higher" else -1
    gain = [sign * (c - p) for p, c in zip(parent, change)]
    wins = sum(g > 0 for g in gain) / len(gain)
    losses = sum(g < 0 for g in gain) / len(gain)
    pq1, pmed, pq3 = quartiles(parent)
    cmed = statistics.median(change)
    spread = pq3 - pq1
    delta = sign * (cmed - pmed)  # > 0: the change is better
    if wins >= 0.9 and delta > spread:
        verdict = "better"
    elif losses >= 0.9 and -delta > spread:
        verdict = "worse"
    else:
        verdict = "unresolved"
    every_run_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if -delta > bound * abs(pmed):
        within = "no"
    elif spread <= bound * abs(pmed) or every_run_better:
        within = "yes"
    else:
        within = "unresolved"
    return wins, verdict, within


def pair_table(rows: list[dict]) -> None:
    defs = benchmark()
    def cell(q):
        return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"

    print(f"{'workload':<12} {'metric':<16} {'unit':<5} {'parent median [q1, q3]':<30} "
          f"{'change median [q1, q3]':<30} {'wins':>5}  {'verdict':<11} bound")
    for w in defs["workloads"]:
        pairs = {}
        for row in rows:
            if row["workload"] == w["name"]:
                pairs.setdefault(row["pair"], {})[row["side"]] = row["result"]
        pairs = [p for p in pairs.values() if len(p) == 2]
        if not pairs:
            continue
        for m in defs["end_to_end"]:
            p = [x["parent"]["metrics"][m["name"]]["value"] for x in pairs]
            c = [x["change"]["metrics"][m["name"]]["value"] for x in pairs]
            wins, verdict, within = verdicts(p, c, m["better"], m["bound"])
            print(f"{w['name']:<12} {m['name']:<16} {m['unit']:<5} {cell(quartiles(p)):<30} "
                  f"{cell(quartiles(c)):<30} {wins:>5.0%}  {verdict:<11} {within}")
        for side in ("parent", "change"):
            ratios = [fail_ratio(x[side]) for x in pairs]
            print(f"{w['name']:<12} fail_ratio ({side}): max {max(ratios):.4f} over {len(pairs)} runs")


def pairs_mode(args) -> None:
    sides = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    workloads = [w["name"] for w in benchmark()["workloads"]]
    (BENCH_DIR / "out").mkdir(exist_ok=True)
    out = BENCH_DIR / "out" / f"pairs-{int(time.time())}.jsonl"
    rows = []
    with out.open("w") as fh:
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for workload in workloads:
                for side in order:
                    _, result = run_once(sides[side], workload, args.seed + i)
                    row = {"pair": i, "side": side, "workload": workload, "seed": args.seed + i,
                           "result": result}
                    rows.append(row)
                    fh.write(json.dumps(row) + "\n")
                    fh.flush()
            print(f"pair {i + 1}/{PAIRS} done", file=sys.stderr, flush=True)
    print(f"results: {out}")
    pair_table(rows)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--parent")
    parser.add_argument("--change")
    args = parser.parse_args()
    if args.parent or args.change:
        if not (args.parent and args.change):
            parser.error("--parent and --change go together")
        pairs_mode(args)
    else:
        summary(args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())

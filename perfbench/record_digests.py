"""Record the sha256 of stdout of the default seed's instances.

    python3 perfbench/record_digests.py

Run it from the root of a checkout whose output is known to be right; it
adds missing entries to perfbench/digests.json and keeps existing ones.  The
correctness gate then requires byte-identical stdout for every recorded argv,
on any seed.  Sweep instances are recorded through ``cambrian verify-all``,
whose stdout is the report text the sweep checks.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys

import run

# Passes recorded per workload: more than a default-length run makes here.
PASSES = {"verify-mid": 4, "exchange-e6": 4, "cambrian-e6": 3, "sweep-small": 8,
          "smoke-cli": 2, "smoke-sweep": 2}


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    run.OUT_DIR.mkdir(exist_ok=True)
    path = run.BENCH_DIR / "digests.json"
    digests = json.loads(path.read_text())
    for workload, passes in PASSES.items():
        rng = random.Random(f"{workload}:{run.DEFAULT_SEED}")
        for _ in range(passes):
            for inst in run.draw_pass(run.WORKLOADS[workload], rng):
                if inst.key() in digests:
                    continue
                proc = run.spawn([sys.executable, "-m", "cambrian"] + inst.argv())
                failure = run.check_output(inst, proc.returncode, proc.stdout, {})
                if failure:
                    raise SystemExit(f"{inst.key()}: {failure}")
                digests[inst.key()] = hashlib.sha256(proc.stdout).hexdigest()
                print(inst.key(), flush=True)
        path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

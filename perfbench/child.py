"""Worker processes of the benchmark; run.py starts them, one at a time.

    python3 perfbench/child.py cli SPANS -- ARGV...
        Traced CLI instance: wraps the layers, calls cambrian.cli.main(ARGV)
        and writes the spans to SPANS.  Stdout is the program's own.
    python3 perfbench/child.py sweep SPANS|- TYPE:RANK:ORDER...
        One warm process that runs ``cambrian verify-all`` on each instance
        in turn, through cambrian.cli.main (traced unless SPANS is "-").
        Prints one JSON list: per instance its start and end on
        ``time.monotonic()``, the process's CPU time in between, the exit
        code and the text the command printed.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time

from tracer import Tracer


def _sweep(instances: list[str], tracer: Tracer | None) -> list[dict]:
    import cambrian.cli as cli

    out = []
    for i, spec_text in enumerate(instances):
        dynkin_type, rank, order = spec_text.split(":")
        if tracer is not None:
            tracer.instance = i
        argv = ["verify-all", "--type", dynkin_type, "--rank", rank, "--coxeter", order]
        text = io.StringIO()
        start, cpu = time.monotonic(), time.process_time()
        with contextlib.redirect_stdout(text):
            rc = cli.main(argv)
        cpu, end = time.process_time() - cpu, time.monotonic()
        out.append({"start": start, "end": end, "cpu": cpu, "returncode": rc, "text": text.getvalue()})
    return out


def main(argv: list[str]) -> int:
    mode, spans_path, *rest = argv
    if mode == "cli":
        if rest[:1] != ["--"]:
            raise SystemExit("usage: child.py cli SPANS -- ARGV...")
        tracer = Tracer()
        with tracer.installed():
            import cambrian.cli as cli

            rc = cli.main(rest[1:])
        sys.stdout.flush()
    elif mode == "sweep":
        tracer = Tracer() if spans_path != "-" else None
        with tracer.installed() if tracer else contextlib.nullcontext():
            results = _sweep(rest, tracer)
        print(json.dumps(results))
        rc = 0
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    if tracer is not None:
        with open(spans_path, "w") as fh:
            json.dump(tracer.record(), fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

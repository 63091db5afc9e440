"""Run one `trilinear` CLI invocation in this process and report timings.

Usage: python3 perfbench/child.py SPEC

SPEC is a JSON object with `argv` (the CLI arguments), `result` (where to
write the report), `src` (the package directory expected to be imported),
`trace` (wrap the layers) and `setup_only` (enter the runner and return at
once, to time interpreter start, `import trilinear` and config handling).

The report holds the perf_counter instants at which the subcommand's
runner was entered and left, ru_maxrss in MiB and, when tracing, the span
summary; the exit code is the CLI's. perf_counter reads CLOCK_MONOTONIC on
Linux, so the parent can subtract its own instant taken before spawning this
process.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path
from time import perf_counter


def main() -> int:
    spec = json.loads(sys.argv[1])
    import trilinear.cli as cli

    expected = Path(spec["src"]).resolve()
    if expected not in Path(cli.__file__).resolve().parents:
        print(f"imported {cli.__file__}, not the package under {expected}",
              file=sys.stderr)
        return 90

    tracer = None
    if spec["trace"]:
        from spans import RUNNER, Tracer

        tracer = Tracer()
        tracer.install()

    command = spec["argv"][0]
    runner = cli.RUNNERS[command]
    if tracer is not None:
        runner = tracer.wrap(RUNNER, runner)
    marks: dict[str, float] = {}

    def timed_runner(cfg, out):
        marks["enter"] = perf_counter()
        try:
            if not spec["setup_only"]:
                runner(cfg, out)
        finally:
            marks["exit"] = perf_counter()

    cli.RUNNERS[command] = timed_runner
    code = cli.main(spec["argv"])
    report = {
        "enter": marks.get("enter"),
        "exit": marks.get("exit"),
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "trace": tracer.summary() if tracer is not None else None,
    }
    Path(spec["result"]).write_text(json.dumps(report))
    return code


if __name__ == "__main__":
    sys.exit(main())

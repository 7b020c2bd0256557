"""Run one cliquerep CLI command under a Speedometer.

    python3 bench/cli_child.py TIMING_JSON [CLI_ARG...]

Behaves as `python3 -m cliquerep.cli CLI_ARG...` (same stdout, exit code and
uncaught tracebacks) and writes to TIMING_JSON the wall interval from just
before `import cliquerep.cli` to the return of `cli.run`, the probes' stall
time inside it, and the speed probes. The interpreter's own start-up is
outside the interval. With no CLI_ARG it only imports the package: the
set-up probe.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

from speed import Speedometer


def main() -> None:
    timing_path, argv = sys.argv[1], sys.argv[2:]
    meter = Speedometer().start()
    t0, stalled0 = perf_counter(), meter.stalled
    rc = 0
    try:
        from cliquerep import cli

        if argv:
            rc = cli.run(argv)
    finally:
        t1, stalled1 = perf_counter(), meter.stalled
        sys.stdout.flush()
        meter.stop()
        with open(timing_path, "w") as f:
            json.dump({"start": t0, "end": t1, "stalled": stalled1 - stalled0,
                       "samples": meter.samples}, f)
    sys.exit(rc)


if __name__ == "__main__":
    main()

"""Run one ``vortexlab`` command with the tracer or a substitution installed.

    python3 perfbench/traced_cli.py [--trace-out FILE --spawned T]
        [--substitute OLD=NEW ...] -- <vortexlab arguments>

``--trace-out`` writes the spans and counts of this process to FILE when the
command ends; ``--spawned`` is the parent's ``time.perf_counter()`` just
before it started this process (the same monotonic clock on Linux), so the
trace can account for interpreter start-up.  ``--substitute`` binds the
function named NEW wherever the function named OLD is bound, for example
``vortexlab.spectral.vorticity_nonlinearity=vortexlab.solver.zero_nonlinearity``.
The exit code is that of the command.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from tracer import Tracer, substitute


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace-out")
    parser.add_argument("--spawned", type=float)
    parser.add_argument("--substitute", action="append", default=[])
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    t0 = time.perf_counter()
    for spec in args.substitute:
        old, new = spec.split("=", 1)
        if not substitute(old, new):
            raise SystemExit(f"substitution {spec} rewrote no binding")
    tracer = None
    if args.trace_out:
        if os.environ.get("VORTEX_THREADS", "1") != "1":
            raise SystemExit("the tracer keeps one span stack; run it at VORTEX_THREADS=1")
        tracer = Tracer(run_id=os.path.basename(args.trace_out))
        tracer.install()
    from vortexlab import cli

    install_s = time.perf_counter() - t0
    start = time.perf_counter()
    try:
        code = cli.main(cli_args)
    finally:
        end = time.perf_counter()
        if tracer is not None:
            spawned = args.spawned if args.spawned is not None else start
            timing = {"start": start, "end": end, "install_s": install_s}
            tracer.write(args.trace_out, spawned=spawned, main=timing)
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Record ``reference.json``: what each workload instance must reproduce.

    python3 perfbench/record.py [WORKLOAD ...]

Runs every instance of the named workloads (all three by default) once with
the program in ``src/`` as it stands and stores, per instance, the exit
codes, the gate verdict, every verdict of ``verify_report.json``, the
refinement ladders (desk) and the trajectory facts of ``run.trajectory_facts``.
The stored reference is the correctness oracle of every later run, so record
only from a commit whose outputs are trusted, and say in the change that
re-records it why the outputs moved.
"""

from __future__ import annotations

import json
import shutil
import signal
import sys
import time
from pathlib import Path

import run


def record(root: Path, workload: str, instances) -> dict:
    table = {}
    for i in instances:
        work = root / ".perfbench" / f"record-{workload}-{i}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        ctx = run.Context(root, work, workload, i)
        out = work / "out"
        codes = []
        t0 = time.perf_counter()
        for args in run.sample_commands(workload, ctx.config, out):
            proc = run.spawn(ctx, run.cli_argv(args), ctx.next_name("record"))
            if run.TRACEBACK in proc.stderr:
                raise RuntimeError(f"{workload} instance {i}: {proc.stderr.decode(errors='replace')}")
            codes.append(proc.code)
        table[str(i)] = run.sample_facts(workload, out, codes)
        failing = sorted(k for k, v in table[str(i)].get("verify", {}).items() if not v)
        print(
            f"{workload} instance {i}: exit {codes}, {time.perf_counter() - t0:.1f} s"
            + (f", failing verdicts {failing}" if failing else ""),
            flush=True,
        )
        shutil.rmtree(work)
    return table


def main(argv) -> int:
    root = Path.cwd()
    signal.signal(signal.SIGALRM, run._alarm)
    path = run.BENCH_DIR / "reference.json"
    reference = json.loads(path.read_text()) if path.exists() else {}
    for workload in argv or run.WORKLOADS:
        if workload not in run.WORKLOADS:
            raise SystemExit(f"unknown workload {workload!r}")
        reference[workload] = record(root, workload, range(run.POOL))
        path.write_text(dump(reference))
    return 0


def dump(reference: dict) -> str:
    """JSON with one line per workload instance, so a re-recording diffs
    instance by instance."""
    blocks = []
    for workload in sorted(reference):
        rows = [
            f'  "{i}": {json.dumps(facts, sort_keys=True)}'
            for i, facts in sorted(reference[workload].items(), key=lambda kv: int(kv[0]))
        ]
        blocks.append(f' "{workload}": {{\n' + ",\n".join(rows) + "\n }")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

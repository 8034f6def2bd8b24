"""Command-line entry point.

Subcommands run individual stages or the whole pipeline from one JSON
config.  Exit codes: 0 success, 2 config error (or, for ``verify``, no
trajectory store), 3 gate fail, 4 no contraction, 5 verification fail.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .harness import (
    ConfigError,
    RunState,
    load_config,
    load_rough_store,
    run_pipeline,
    stage_enhance,
    stage_gate,
    stage_simulate,
    stage_verify,
    sweep,
)
from .solver import GateNotPassedError, MaxIterationsError, NonContractionError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_GATE = 3
EXIT_NO_CONTRACTION = 4
EXIT_VERIFY = 5


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vortexlab",
        description="Pathwise lab for the stochastic vorticity equation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", required=True, help="output directory")
        return p

    add("enhance", "sample the driving path and build its enhancement")
    add("gate", "evaluate the smallness gate for the configured data")
    p = add("simulate", "solve the transformed equation")
    p.add_argument("--rough-path", default=None, help="directory with a rough-path store")
    p = add("verify", "run the weak-formulation certification")
    p.add_argument("--traj", default=None, help="directory with a trajectory store")
    p.add_argument("--rough-path", default=None, help="directory with a rough-path store")
    add("pipeline", "run all configured stages in order")
    p = add("sweep", "refinement sweep along one axis")
    p.add_argument("--axis", required=True, choices=["solver-mesh", "grid"])
    p.add_argument("--levels", type=int, default=3)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        config = load_config(args.config)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return EXIT_CONFIG

    outdir = Path(args.out)
    state = RunState()
    try:
        if getattr(args, "rough_path", None):
            state.rough = load_rough_store(config, args.rough_path)
        if args.command == "enhance":
            stage_enhance(config, outdir, state)
        elif args.command == "gate":
            stage_gate(config, outdir, state)
            if not state.gate_report.passed:
                print(
                    f"gate failed: product {state.gate_report.product:.6g} "
                    f"> c_star {state.gate_report.c_star:.6g}",
                    file=sys.stderr,
                )
                return EXIT_GATE
        elif args.command == "simulate":
            stage_simulate(config, outdir, state)
        elif args.command == "verify":
            state.trajectory_dir = Path(args.traj) if args.traj else outdir / "trajectory"
            if not (state.trajectory_dir / "manifest.json").is_file():
                print(
                    f"no trajectory store at {state.trajectory_dir}: "
                    "run simulate first or pass --traj",
                    file=sys.stderr,
                )
                return EXIT_CONFIG
            stage_verify(config, outdir, state)
            report = json.loads((outdir / "verify_report.json").read_text())
            if not report["pass"]:
                print("verification failed; see verify_report.json", file=sys.stderr)
                return EXIT_VERIFY
        elif args.command == "pipeline":
            run_pipeline(config, outdir)
            gate_path = outdir / "gate_report.json"
            if gate_path.exists():
                gate = json.loads(gate_path.read_text())
                if not gate["pass"] and not config.force:
                    return EXIT_GATE
            report_path = outdir / "verify_report.json"
            if report_path.exists():
                report = json.loads(report_path.read_text())
                if not report["pass"]:
                    print("verification failed; see verify_report.json", file=sys.stderr)
                    return EXIT_VERIFY
        elif args.command == "sweep":
            sweep(config, args.axis, args.levels, outdir)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return EXIT_CONFIG
    except GateNotPassedError as exc:
        print(exc, file=sys.stderr)
        return EXIT_GATE
    except (NonContractionError, MaxIterationsError) as exc:
        print(exc, file=sys.stderr)
        return EXIT_NO_CONTRACTION
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point.

Subcommands run one stage of ``harness.STAGE_FUNCS``, the whole pipeline or
a sweep from one JSON config.  Exit codes: 0 success, 2 config error (among
them a verify stage with no trajectory store), 3 gate fail, 4 solver
failure (no contraction, no convergence, or a non-finite Duhamel integrand),
5 verification fail.  They follow the verdicts of the stages
this command ran, held in its ``RunState``; no report is read back from
``--out``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .harness import (
    STAGE_FUNCS,
    ConfigError,
    GateNotPassedError,
    SWEEP_AXES,
    RunState,
    load_config,
    load_rough_store,
    run_pipeline,
    sweep,
)
from .solver import MaxIterationsError, NonContractionError, NonFiniteIntegrandError

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
    p.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p.add_argument("--levels", type=int, default=3)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    outdir = Path(args.out)
    state = RunState()
    try:
        config = load_config(args.config)
        if getattr(args, "rough_path", None):
            state.rough = load_rough_store(config, args.rough_path)
        if getattr(args, "traj", None):
            state.trajectory_dir = Path(args.traj)
        if args.command == "pipeline":
            run_pipeline(config, outdir, state)
        elif args.command == "sweep":
            sweep(config, args.axis, args.levels, outdir)
        else:
            STAGE_FUNCS[args.command](config, outdir, state)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return EXIT_CONFIG
    except GateNotPassedError as exc:
        print(exc, file=sys.stderr)
        return EXIT_GATE
    except (NonContractionError, MaxIterationsError, NonFiniteIntegrandError) as exc:
        print(exc, file=sys.stderr)
        return EXIT_NO_CONTRACTION
    gate = state.gate_report
    if gate is not None and not gate.passed and (args.command == "gate" or not config.force):
        print(f"gate failed: product {gate.product:.6g} > c_star {gate.c_star:.6g}", file=sys.stderr)
        return EXIT_GATE
    if state.verify_report is not None and not state.verify_report["pass"]:
        print("verification failed; see verify_report.json", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

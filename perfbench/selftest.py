"""The benchmark's own test.  Run from the root of the checkout:

    python3 perfbench/selftest.py

It is a script, not a pytest module, so the repository's test suite does not
collect it; it takes about three minutes.  It checks:

- on a traced desk run, the closed-form counts: nonlinearity calls
  = (Picard iterations + 1) x 33 nodes + 2 phis x 1,281 window nodes = 2,628
  with one Picard iteration, 8 ``ifftn`` and 1 ``fftn`` per nonlinearity
  call, a drift reuse ratio of 1,281 / 2,562 = 0.5, and that the tracer
  rewrote the bindings whose loss would make these counts read zero;
- two Picard iterations on a traced mesh run;
- on each workload, that the harness partition sums to within 5% of the
  traced wall time, and that the tracing overhead is reported;
- that a solver whose nonlinearity is ``zero_nonlinearity``, injected through
  the tracer's binding mechanism, raises the fail rate above zero.
"""

from __future__ import annotations

import signal
import sys
from pathlib import Path

import run

DESK_NODES = 33
DESK_WINDOW_NODES = 1281
PHIS = 2
REQUIRED_BINDINGS = (
    "default:solver.picard_solve",
    "default:verifier.rough_weak_residual",
    "default:verifier.inverse_route_consistency",
    "default:harness.load_trajectory",
    "dict:harness._STAGE_FUNCS['verify']",
    "global:numpy.fft.fftn",
    "global:numpy.fft.ifftn",
    "method:transform.TransformProvider.at_index",
)
ZERO_NONLINEARITY = "vortexlab.spectral.vorticity_nonlinearity=vortexlab.solver.zero_nonlinearity"


def main() -> int:
    root = Path.cwd()
    signal.signal(signal.SIGALRM, run._alarm)
    failures = []

    def check(label, ok, detail=""):
        print(f"{'ok  ' if ok else 'FAIL'} {label}{': ' + str(detail) if detail else ''}", flush=True)
        if not ok:
            failures.append(label)

    layers = {}
    for workload in run.WORKLOADS:
        rec = run.run(workload, seed=0, seconds=1, traced=True, root=root)
        layers[workload] = m = rec["per_layer"]
        check(f"{workload}: traced run correct", rec["failed"] == 0, rec["problems"])
        check(f"{workload}: harness partition within 5% of traced wall_s", abs(m["harness.coverage"] - 1) <= 0.05,
              f"{m['harness.coverage']:.4f}")
        check(f"{workload}: tracing overhead reported", "trace.overhead_s" in m,
              f"{m['trace.overhead_s']:.3f} s ({m['trace.overhead_share']:.1%})")
        if workload == "desk":
            missing = [b for b in REQUIRED_BINDINGS if b not in rec["bindings"]]
            check("desk: every required binding rewritten", not missing, missing)

    desk = layers["desk"]
    iters = desk["solver.picard_iterations"]
    calls = desk["spectral.nonlinearity_calls"]
    check("desk: one Picard iteration", iters == 1, iters)
    check(
        "desk: nonlinearity calls = (iterations + 1) x 33 + 2 x 1281 = 2628",
        calls == (iters + 1) * DESK_NODES + PHIS * DESK_WINDOW_NODES == 2628,
        calls,
    )
    check("desk: 8 ifftn per nonlinearity call", desk["spectral.nonlinearity_ifftn_calls"] == 8 * calls,
          desk["spectral.nonlinearity_ifftn_calls"])
    check("desk: 1 fftn per nonlinearity call", desk["spectral.nonlinearity_fftn_calls"] == calls,
          desk["spectral.nonlinearity_fftn_calls"])
    check("desk: drift reuse ratio 1281 / 2562", desk["verifier.drift_reuse_ratio"] == 0.5,
          desk["verifier.drift_reuse_ratio"])
    check("mesh: two Picard iterations", layers["mesh"]["solver.picard_iterations"] == 2,
          layers["mesh"]["solver.picard_iterations"])
    check("path: store read and written", layers["path"]["roughpath.store_read_s"] > 0
          and layers["path"]["roughpath.store_bytes"] > 0)

    rec = run.run("desk", seed=0, seconds=1, traced=False, root=root, substitute=[ZERO_NONLINEARITY])
    check("desk with zero_nonlinearity: fail_rate > 0", rec["fail_rate"] > 0,
          f"{rec['failed']}/{rec['attempted']}: {rec['problems'][:3]}")

    print("selftest " + ("FAILED: " + "; ".join(failures) if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of the ``vortexlab`` command line on three workloads.

    python3 perfbench/run.py --workload desk|mesh|path --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/`` as it stands, nothing is installed.  Every repetition is a fresh
child process at ``VORTEX_THREADS=1``, one at a time.  Each repetition's
outputs are checked against the reference recorded per workload instance in
``reference.json`` (see README.md for the checks and their tolerances).

With ``--trace 0`` the last line of standard output carries the end-to-end
metrics; with ``--trace 1`` it carries the per-layer metrics of a traced run,
which alternates untraced and traced repetitions to report the tracing
overhead.  The exit code is 0 when the run completed (whether or not the
outputs were correct) and 2 when it could not run.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from tracer import combine, layer_metrics, read_trace  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("desk", "mesh", "path")
# Workload seed n runs instance n % POOL; references exist for each instance.
POOL = 16
MIN_SAMPLES = 2
SETUP_REPS = 3
# A run must end within 180 s; a child still running at the deadline is
# killed and the run aborts.
RUN_DEADLINE_S = 170.0
# Tolerances of the reference checks (README.md explains each).
Y0_RTOL = 1e-9
CORRECTION_RTOL = 1e-6
LADDER_RTOL = 1e-6
FUNCTIONALS = 3
MAX_REFERENCE_NODES = 40
TRACEBACK = b"Traceback (most recent call last)"

# The desk-scale config of the README, verbatim.
DESK = {
    "seed": 42,
    "box": {"modes": 16, "size": 32.0},
    "rough_path": {"channels": 2, "horizon": 1.0, "steps": 4096, "alpha": 0.4, "flavor": "ito"},
    "noise": {
        "lambda": [0.8, -0.9],
        "kernels": [
            {"type": "gaussian", "sigma": 2.0, "mass": 0.1},
            {"type": "gaussian", "sigma": 3.0, "mass": 0.1},
        ],
        "global_mode": True,
    },
    "gate": {"c_star": 0.01, "force": False},
    "initial_data": {"type": "random", "seed": 7, "decay": 2.0, "margin": 10.0},
    "solver": {"p": 1.8, "epsilon": 0.05, "num_nodes": 32, "tolerance": 1e-10, "max_iterations": 50},
    "verifier": {
        "phis": 2,
        "phi_seed": 5,
        "window": [0.25, 0.5625],
        "partition_levels": 6,
        "taylor_levels": 5,
    },
    "stages": ["enhance", "gate", "simulate", "verify"],
}


class ChildTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise ChildTimeout()


def config_for(workload: str, instance: int) -> dict:
    """The program's input for one workload instance; instance 0 is the README's."""
    cfg = copy.deepcopy(DESK)
    cfg["seed"] = 42 + instance
    cfg["initial_data"]["seed"] = 7 + instance
    cfg["verifier"]["phi_seed"] = 5 + instance
    if workload == "mesh":
        cfg["solver"].update(num_nodes=256, tolerance=1e-12)
        cfg["stages"] = ["enhance", "gate", "simulate"]
    elif workload == "path":
        cfg["rough_path"]["steps"] = 2 ** 18
    return cfg


def sample_commands(workload: str, config: Path, out: Path) -> list[list[str]]:
    if workload == "path":
        return [
            ["enhance", "--config", str(config), "--out", str(out / "A")],
            ["simulate", "--config", str(config), "--out", str(out / "B"), "--rough-path", str(out / "A")],
        ]
    return [["pipeline", "--config", str(config), "--out", str(out)]]


def result_dir(workload: str, out: Path) -> Path:
    """Directory holding the gate report and the trajectory of a sample."""
    return out / "B" if workload == "path" else out


# ---------------------------------------------------------------------------
# Child processes


class Context:
    """Paths and environment shared by the repetitions of one run."""

    def __init__(self, root: Path, work: Path, workload: str, instance: int):
        self.root = root
        self.work = work
        self.workload = workload
        self.instance = instance
        self.config = work / "config.json"
        self.config.write_text(json.dumps(config_for(workload, instance), indent=2) + "\n")
        src = str(root / "src")
        old = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + old if old else ""), VORTEX_THREADS="1")
        self.counter = 0
        self.deadline = time.perf_counter() + RUN_DEADLINE_S

    def next_name(self, label: str) -> str:
        self.counter += 1
        return f"{self.counter:03d}-{label}"


class Proc:
    def __init__(self, code: int, wall: float, rss_mb: float, stderr: bytes):
        self.code, self.wall, self.rss_mb, self.stderr = code, wall, rss_mb, stderr


def spawn(ctx: Context, argv_of, name: str, env: dict | None = None) -> Proc:
    """Run one child to completion and return its own resource usage.

    ``argv_of`` receives the ``time.perf_counter()`` value taken just before
    the child starts.  ``os.wait4`` gives the child's own peak RSS, not a
    maximum over every child this process has had.
    """
    logs = ctx.work / "logs"
    logs.mkdir(exist_ok=True)
    with open(logs / f"{name}.out", "wb") as out, open(logs / f"{name}.err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv_of(t0), env=env or ctx.env, stdout=out, stderr=err, cwd=ctx.root)
        signal.setitimer(signal.ITIMER_REAL, max(0.1, ctx.deadline - time.perf_counter()))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except ChildTimeout:
            proc.kill()
            os.waitpid(proc.pid, 0)
            proc.returncode = -9
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(
        proc.returncode,
        wall,
        usage.ru_maxrss * 1024 / 1e6,
        (logs / f"{name}.err").read_bytes(),
    )


def cli_argv(args: list[str], trace_out: Path | None = None, substitute=()):
    if trace_out is None and not substitute:
        return lambda t0: [sys.executable, "-m", "vortexlab.cli", *args]
    extra = [f"--substitute={s}" for s in substitute]

    def argv(t0):
        head = [sys.executable, str(BENCH_DIR / "traced_cli.py"), *extra]
        if trace_out is not None:
            head += ["--trace-out", str(trace_out), "--spawned", repr(t0)]
        return head + ["--", *args]

    return argv


def measure_setup(ctx: Context, warm_up: bool) -> list[float]:
    """Seconds from spawning an interpreter to a validated config with its
    noise model built, ``SETUP_REPS`` times after an optional unmeasured
    warm-up.  A run measures before and after its repetitions, so that the
    median spans the run rather than one moment of a shared machine."""
    times = []
    for rep in range(SETUP_REPS + warm_up):
        done = ctx.work / "setup_done.txt"
        proc = spawn(
            ctx,
            lambda t0: [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(ctx.config), str(done), repr(t0)],
            ctx.next_name("setup"),
        )
        if proc.code != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.decode(errors='replace')}")
        if rep or not warm_up:
            times.append(float(done.read_text()))
    return times


# ---------------------------------------------------------------------------
# Reading and checking outputs (numpy only, independent of vortexlab)


def _read_field(base: Path) -> tuple[np.ndarray, float]:
    header = json.loads(base.with_suffix(".json").read_text())
    n = int(header["modes"])
    flat = np.frombuffer(base.with_suffix(".bin").read_bytes(), dtype="<f8")
    coef = (flat[0::2] + 1j * flat[1::2]).reshape(3, n, n, n)
    return np.fft.ifftshift(coef, axes=(1, 2, 3)), float(header["box_size"])


def _lp(coef: np.ndarray, p: float, cell: float) -> float:
    phys = np.fft.ifftn(coef, axes=(1, 2, 3), norm="forward").real
    mag = np.sqrt(np.sum(phys * phys, axis=0))
    return float((np.sum(mag ** p) * cell) ** (1.0 / p))


def trajectory_facts(traj_dir: Path) -> dict:
    """Reference facts about a solved trajectory.

    The Picard correction of node m is y_m - exp(t_m lap) y_0, the part of
    the solution that the nonlinearity contributes.  Recorded: node times,
    fixed linear functionals of y_0 and of the correction at up to
    ``MAX_REFERENCE_NODES`` nodes, and the solver's weighted sup norm of the
    correction over all nodes.
    """
    manifest = json.loads((traj_dir / "manifest.json").read_text())
    times = [float(t) for t in manifest["times"]]
    p = float(manifest["solver"]["p"])
    y0, size = _read_field(traj_dir / manifest["fields"][0])
    n = y0.shape[1]
    k = np.fft.fftfreq(n, d=1.0 / n)
    scale = 2.0 * math.pi / size
    axes_k = [k.reshape(s) for s in ((n, 1, 1), (1, n, 1), (1, 1, n))]
    xi_sq = scale ** 2 * (axes_k[0] ** 2 + axes_k[1] ** 2 + axes_k[2] ** 2)
    deriv = [scale * np.where(ka == -n // 2, 0.0, ka) for ka in axes_k]
    cell = (size / n) ** 3
    rng = np.random.default_rng(20180304)
    psi = rng.standard_normal((FUNCTIONALS, 3, n, n, n)) + 1j * rng.standard_normal((FUNCTIONALS, 3, n, n, n))

    def functionals(coef):
        return [float(np.real(np.vdot(psi[r], coef))) for r in range(FUNCTIONALS)]

    count = len(times)
    keep = sorted({int(round(x)) for x in np.linspace(1, count - 1, min(count - 1, MAX_REFERENCE_NODES))})
    w1 = 1.0 - 3.0 / (2.0 * p)
    w2 = 1.5 * (1.0 - 1.0 / p)
    correction, norm = [], 0.0
    for j in range(1, count):
        yj, _ = _read_field(traj_dir / manifest["fields"][j])
        c = yj - np.exp(-xi_sq * times[j]) * y0
        if j in keep:
            correction.append(functionals(c))
        dmax = max(_lp(1j * d * c, p, cell) for d in deriv)
        norm = max(norm, times[j] ** w1 * _lp(c, p, cell) + times[j] ** w2 * dmax)
    return {
        "times": times,
        "y0": functionals(y0),
        "nodes": keep,
        "correction": correction,
        "correction_norm": norm,
    }


def verdicts(report, prefix: str = "") -> dict[str, bool]:
    """Every boolean in a report, keyed by its JSON path."""
    out = {}
    if isinstance(report, dict):
        for key, value in report.items():
            out.update(verdicts(value, f"{prefix}.{key}" if prefix else key))
    elif isinstance(report, list):
        for i, value in enumerate(report):
            out.update(verdicts(value, f"{prefix}[{i}]"))
    elif isinstance(report, bool):
        out[prefix] = report
    return out


def read_ladders(out: Path) -> list[list[float]]:
    rows = (out / "refinement.csv").read_text().splitlines()[1:]
    return [[float(x) for x in row.split(",")] for row in rows]


def sample_facts(workload: str, out: Path, codes: list[int]) -> dict:
    """What the reference records about one repetition."""
    res = result_dir(workload, out)
    facts = {
        "exit_codes": codes,
        "gate_pass": json.loads((res / "gate_report.json").read_text())["pass"],
        "trajectory": trajectory_facts(res / "trajectory"),
    }
    if workload == "desk":
        facts["verify"] = verdicts(json.loads((out / "verify_report.json").read_text()))
        facts["ladders"] = read_ladders(out)
    return facts


def _max_abs(rows) -> float:
    return max((abs(x) for row in rows for x in row), default=0.0)


def compare(workload: str, out: Path, codes: list[int], errs: list[bytes], ref: dict) -> list[str]:
    """Problems with one repetition's outputs, checked against the reference."""
    problems = []
    if codes != ref["exit_codes"]:
        problems.append(f"exit codes {codes}, reference {ref['exit_codes']}")
    if any(TRACEBACK in e for e in errs):
        problems.append("traceback on stderr")
    try:
        got = sample_facts(workload, out, codes)
    except (OSError, KeyError, ValueError) as exc:
        return problems + [f"unreadable outputs: {exc!r}"]
    if got["gate_pass"] != ref["gate_pass"]:
        problems.append(f"gate verdict {got['gate_pass']}, reference {ref['gate_pass']}")
    for key, want in ref.get("verify", {}).items():
        if got["verify"].get(key) != want:
            problems.append(f"verify verdict {key} = {got['verify'].get(key)}, reference {want}")
    if "ladders" in ref:
        a, b = got["ladders"], ref["ladders"]
        if len(a) != len(b) or any(
            ra[:2] != rb[:2] or abs(ra[2] - rb[2]) > LADDER_RTOL * abs(rb[2]) for ra, rb in zip(a, b)
        ):
            problems.append("refinement ladders differ from the reference")
    t, rt = got["trajectory"], ref["trajectory"]
    if t["times"] != rt["times"] or t["nodes"] != rt["nodes"]:
        problems.append("trajectory nodes differ from the reference")
    else:
        if _max_abs([np.subtract(t["y0"], rt["y0"])]) > Y0_RTOL * _max_abs([rt["y0"]]):
            problems.append("initial field differs from the reference")
        diff = _max_abs(np.subtract(t["correction"], rt["correction"]))
        scale = _max_abs(rt["correction"])
        if not diff <= CORRECTION_RTOL * scale:
            problems.append(f"Picard correction off by {diff:.3g} against its size {scale:.3g}")
        if not abs(t["correction_norm"] - rt["correction_norm"]) <= CORRECTION_RTOL * rt["correction_norm"]:
            problems.append(
                f"weighted norm of the Picard correction {t['correction_norm']:.6g}, "
                f"reference {rt['correction_norm']:.6g}"
            )
    return problems


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def artifact_digests(out: Path) -> dict[str, str]:
    """Artifact digests: those ``run_manifest.json`` records, or for commands
    that write no manifest the same sha256 over every file."""
    manifest = out / "run_manifest.json"
    if manifest.exists():
        digests = {}
        for stage in json.loads(manifest.read_text())["stages"]:
            digests.update(stage["artifacts"])
        return digests
    return {str(p.relative_to(out)): _sha256(p) for p in sorted(out.rglob("*")) if p.is_file()}


def sample_digests(workload: str, out: Path) -> dict[str, str]:
    if workload == "path":
        return {f"{d}/{k}": v for d in ("A", "B") for k, v in artifact_digests(out / d).items()}
    return artifact_digests(out)


def tree_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.rglob("*") if p.is_file())


# ---------------------------------------------------------------------------
# Repetitions


class Sample:
    def __init__(self):
        self.wall = 0.0
        self.rss_mb = 0.0
        self.bytes = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}
        self.layers: dict[str, float] | None = None
        self.bindings: list[str] = []


def run_sample(ctx: Context, ref: dict, traced: bool = False, substitute=()) -> Sample:
    """One repetition of the workload: its CLI calls, then every check."""
    name = ctx.next_name("traced" if traced else "sample")
    out = ctx.work / name
    sample = Sample()
    codes, errs, traces = [], [], []
    for i, args in enumerate(sample_commands(ctx.workload, ctx.config, out)):
        trace_out = ctx.work / f"{name}-{i}.trace.npz" if traced else None
        proc = spawn(ctx, cli_argv(args, trace_out, substitute), f"{name}-{i}")
        sample.wall += proc.wall
        sample.rss_mb = max(sample.rss_mb, proc.rss_mb)
        codes.append(proc.code)
        errs.append(proc.stderr)
        if traced:
            trace = read_trace(trace_out)
            traces.append(layer_metrics(trace))
            if i == 0:
                sample.bindings = trace["bindings"]
    sample.bytes = tree_bytes(out)
    sample.problems = compare(ctx.workload, out, codes, errs, ref)
    sample.digests = sample_digests(ctx.workload, out)
    if traced:
        sample.layers = combine(traces)
    shutil.rmtree(out)
    return sample


def determinism_rerun(ctx: Context, ref: dict, traced: bool) -> tuple[str, dict[str, str], list[str], float]:
    """The untimed rerun a run compares its repetitions with.

    path, every run: ``simulate`` without a rough-path store, the in-memory
    run whose trajectory digests the reloaded-store repetitions must
    reproduce.  desk, traced runs only (it costs a whole pipeline): the
    pipeline at VORTEX_THREADS=nproc, which must give the same bytes as the
    single-threaded repetitions.  mesh: none.
    """
    name = ctx.next_name("rerun")
    out = ctx.work / name
    if ctx.workload == "desk" and traced:
        threads = str(os.cpu_count() or 1)
        env = dict(ctx.env, VORTEX_THREADS=threads)
        args = ["pipeline", "--config", str(ctx.config), "--out", str(out)]
        proc = spawn(ctx, cli_argv(args), name, env=env)
        label = f"desk pipeline at VORTEX_THREADS={threads}"
        want_code = ref["exit_codes"][0]
        digests = artifact_digests(out)
    elif ctx.workload == "path":
        args = ["simulate", "--config", str(ctx.config), "--out", str(out / "B")]
        proc = spawn(ctx, cli_argv(args), name)
        label = "in-memory simulate"
        want_code = ref["exit_codes"][1]
        digests = {f"B/{k}": v for k, v in artifact_digests(out / "B").items()}
    else:
        return "", {}, [], 0.0
    problems = []
    if proc.code != want_code or TRACEBACK in proc.stderr:
        problems.append(f"{label} exited with {proc.code}, reference {want_code}")
    shutil.rmtree(out)
    return label, digests, problems, proc.wall


def compare_digests(want: dict[str, str], got: dict[str, str], against: str, subset: bool) -> list[str]:
    """Artifacts whose digests differ; with ``subset`` only those in ``want``."""
    keys = set(want) if subset else set(want) | set(got)
    bad = sorted(k for k in keys if want.get(k) != got.get(k))
    return [f"artifact digests differ from the {against}: {', '.join(bad[:5])}"] if bad else []


# ---------------------------------------------------------------------------
# Reporting


def median(values):
    return float(statistics.median(values))


def tail(values) -> tuple[float | None, float | None]:
    """Highest percentile with at least ten samples beyond it, and its value."""
    n = len(values)
    if n < 11:
        return None, None
    q = 100.0 * (1.0 - 10.0 / n)
    return q, float(np.percentile(values, q))


def environment(root: Path, workload: str, seed: int, instance: int, traced: bool) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    head = root / ".git" / "HEAD"
    if head.exists():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = root / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.exists() else None
    src = hashlib.sha256()
    for path in sorted((root / "src" / "vortexlab").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": commit,
        "source_sha256": src.hexdigest(),
        "workload": workload,
        "seed": seed,
        "instance": instance,
        "VORTEX_THREADS": "1",
        "traced": traced,
    }


E2E_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "artifact_mb": "MB",
    "pass_rate": "ratio",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes") or name.endswith("bytes_computed"):
        return "bytes"
    if name.endswith("flop_computed"):
        return "flop"
    if name.endswith("_ratio") or name.endswith("_share") or name.endswith("coverage"):
        return "ratio"
    return "count"


def run(workload: str, seed: int, seconds: float, traced: bool, root: Path, substitute=()) -> dict:
    """One benchmark run; returns the result record (metrics, counts, env)."""
    instance = seed % POOL
    reference = json.loads((BENCH_DIR / "reference.json").read_text())[workload][str(instance)]
    work = root / ".perfbench" / f"{workload}-seed{seed}-trace{int(traced)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ctx = Context(root, work, workload, instance)
    env = environment(root, workload, seed, instance, traced)

    setup = measure_setup(ctx, warm_up=True)
    label, rerun, problems, rerun_wall = determinism_rerun(ctx, reference, traced)
    first = None
    attempted = 1 if label else 0
    failed = 1 if problems else 0
    plain: list[Sample] = []
    traced_samples: list[Sample] = []
    start = time.perf_counter()
    while True:
        batch = [run_sample(ctx, reference, substitute=substitute)]
        if traced:
            batch.append(run_sample(ctx, reference, traced=True, substitute=substitute))
        for s in batch:
            first = first or s.digests
            s.problems += compare_digests(first, s.digests, "first repetition", subset=False)
            s.problems += compare_digests(rerun, s.digests, label, subset=True)
            attempted += 1
            failed += bool(s.problems)
            problems += s.problems
        plain.append(batch[0])
        traced_samples += batch[1:]
        elapsed = time.perf_counter() - start
        per_batch = elapsed / len(plain)
        if len(plain) >= (1 if traced else MIN_SAMPLES) and elapsed + per_batch > seconds:
            break
    setup += measure_setup(ctx, warm_up=False)

    walls = [s.wall for s in plain]
    e2e = {
        "wall_s": median(walls),
        "setup_s": median(setup),
        "peak_rss_mb": median([s.rss_mb for s in plain]),
        "artifact_mb": median([s.bytes for s in plain]) / 1e6,
        "pass_rate": (attempted - failed) / attempted,
    }
    q, tail_value = tail(walls)
    record = {
        "env": env,
        "samples": len(plain),
        "wall_samples_s": walls,
        "wall_tail": {"percentile": q, "value_s": tail_value},
        "setup_samples_s": setup,
        "determinism_rerun": label or None,
        "determinism_rerun_wall_s": rerun_wall,
        "attempted": attempted,
        "failed": failed,
        "fail_rate": failed / attempted,
        "problems": sorted(set(problems)),
        "end_to_end": e2e,
    }
    if traced:
        layers = {}
        for key in traced_samples[0].layers:
            layers[key] = median([s.layers[key] for s in traced_samples])
        traced_wall = median([s.wall for s in traced_samples])
        partition = ["startup", "load_config", "enhance", "gate", "simulate", "verify", "cli"]
        layers["harness.coverage"] = sum(layers[f"harness.{k}_s"] for k in partition) / traced_wall
        layers["trace.wall_s"] = traced_wall
        layers["trace.untraced_wall_s"] = median(walls)
        layers["trace.overhead_s"] = traced_wall - median(walls)
        layers["trace.overhead_share"] = layers["trace.overhead_s"] / median(walls)
        record["per_layer"] = layers
        record["bindings"] = traced_samples[0].bindings
    (work / "result.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return record


def report(record: dict) -> None:
    env = record["env"]
    print(
        f"perfbench {env['workload']}: seed {env['seed']} (instance {env['instance']}), "
        f"traced={env['traced']}, {record['samples']} untraced repetitions"
    )
    print("environment " + json.dumps(env, sort_keys=True))
    for name, value in record["end_to_end"].items():
        print(f"  {name:<14} {value:>14.6g} {E2E_UNITS[name]}")
    q = record["wall_tail"]["percentile"]
    if q is None:
        print(f"  wall_s.tail    n/a (needs 11 samples, have {record['samples']})")
    else:
        print(f"  wall_s.p{q:.0f}  {record['wall_tail']['value_s']:>14.6g} s")
    print(f"  fail_rate      {record['failed']}/{record['attempted']}")
    if record["determinism_rerun"]:
        print(f"  determinism    repetitions compared with the {record['determinism_rerun']}")
    for problem in record["problems"]:
        print(f"  FAILED: {problem}")
    for name, value in sorted(record.get("per_layer", {}).items()):
        print(f"  {name:<36} {value:>14.6g} {layer_unit(name)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "vortexlab" / "cli.py").is_file():
        print("perfbench: run from the root of a vortexlab checkout (no src/vortexlab here)", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _alarm)
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    except (ChildTimeout, RuntimeError, OSError) as exc:
        print(f"perfbench: run aborted: {exc!r}", file=sys.stderr)
        return 2
    report(record)
    if args.trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(record["per_layer"].items())}
    else:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in record["end_to_end"].items()}
    line = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())

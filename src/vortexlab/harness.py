"""Run orchestration: validated configs, pipeline stages, manifests, sweeps.

A single JSON config drives everything; no tunable lives on the command
line.  Every stage writes its artifacts under the output directory and the
run manifest records a content digest per file, so reruns with the same
config and seed are byte-comparable.  Wall-clock entries in the manifest are
informational and excluded from any determinism comparison.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from . import verifier as vf
from .roughpath import (
    FLAVORS,
    PrecisionError,
    RoughPath,
    TimeGrid,
    enhance,
    load_rough_path,
    sample_brownian,
    save_rough_path,
)
from .solver import (
    SolverConfig,
    Trajectory,
    heat_flow_with_band,
    picard_solve,
    solver_node_indices,
    weak_residual,
    weighted_norm_terms,
    weighted_sup_norm,
)
from .spectral import (
    BoxGrid,
    SpectralField,
    bump_fields,
    convolution_operator_from_kernel,
    gaussian_convolution_operator,
    load_field,
    lp_norm,
    project_divergence_free,
    random_field,
    resample,
    save_field,
    to_spectral,
)
from .transform import (
    GateReport,
    NoiseModel,
    TransformProvider,
    bound_series,
    dominance_margins,
    smallness_gate,
)

STAGES = ("enhance", "gate", "simulate", "verify")


class ConfigError(ValueError):
    """Invalid run configuration; carries the full list of diagnostics."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("invalid configuration:\n" + "\n".join(f"  - {p}" for p in self.problems))


class GateNotPassedError(RuntimeError):
    """Solving was requested after a failed gate without ``gate.force``."""


def _digest_file(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _digest_config(raw: dict) -> str:
    return hashlib.sha256(
        json.dumps(raw, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


_REQUIRED = object()


def _number(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"need a number, got {value!r}")
    # NaN fails the comparison, and an int beyond the float range never reaches float().
    if not abs(value) <= sys.float_info.max:
        raise ValueError(f"need a finite number, got {value!r}")
    return float(value)


def _integer(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"need an integer, got {value!r}")
    return value


def _positive(convert):
    def parse(value):
        x = convert(value)
        if not x > 0:
            raise ValueError(f"must be positive, got {value!r}")
        return x

    return parse


def _alpha(value) -> float:
    x = _number(value)
    if not 1.0 / 3.0 < x < 0.5:
        raise ValueError(f"must lie in (1/3, 1/2), got {x}")
    return x


def _flag(value) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"need true or false, got {value!r}")
    return value


def _text(value) -> str:
    if not isinstance(value, str) or not value:
        raise ValueError(f"need a non-empty string, got {value!r}")
    return value


def _object(value) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"need an object, got {value!r}")
    return value


def _one_of(*options):
    def parse(value):
        if isinstance(value, bool) or value not in options:
            raise ValueError(f"must be one of {options}, got {value!r}")
        return value

    return parse


def _list_of(convert, length: int | None = None):
    def parse(value):
        if not isinstance(value, list) or length not in (None, len(value)):
            raise ValueError(f"need a list of {length or 'any number of'} entries, got {value!r}")
        return tuple(convert(x) for x in value)

    return parse


@dataclass(frozen=True)
class KernelSpec:
    """One channel kernel: ``gaussian`` (sigma, mass), ``zero``, or a ``store`` path."""

    kind: str
    sigma: float = 0.0
    mass: float = 0.0
    path: str = ""


@dataclass(frozen=True)
class NoiseSpec:
    lambdas: tuple[float, ...]
    kernels: tuple[KernelSpec, ...]
    global_mode: bool


@dataclass(frozen=True)
class InitialSpec:
    """``random`` (seed, decay), ``single_mode`` (k, component) or ``store``
    (path) data, scaled to an absolute ``norm_target`` or to a gate
    ``margin``; the keys of the other kinds are not read and stay None."""

    kind: str
    seed: int | None
    decay: float | None
    k: tuple[int, ...] | None
    component: int | None
    path: str | None
    norm_target: float | None
    margin: float | None


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration (see ``validate_config`` for the schema).

    ``raw`` is kept only for the digest; every value the program uses is a
    typed field, the horizon that of ``time_grid``.
    """

    raw: dict
    seed: int
    box: BoxGrid
    time_grid: TimeGrid
    channels: int
    alpha: float
    flavor: str
    noise: NoiseSpec
    initial: InitialSpec
    solver: SolverConfig
    epsilon: float
    c_star: float
    force: bool
    phis: int
    phi_seed: int
    window: tuple[float, float]
    partition_levels: int
    taylor_levels: int
    stages: tuple[str, ...]
    memory_cap: int

    @property
    def digest(self) -> str:
        return _digest_config(self.raw)


def validate_config(raw) -> RunConfig:
    """Convert every value once and report all problems at once; bad or
    out-of-range values are never replaced by defaults, and a key that is
    never read is a problem too."""
    if not isinstance(raw, dict):
        raise ConfigError([f"config: need a JSON object, got {type(raw).__name__}"])
    problems: list[str] = []
    read: set[str] = set()

    def take(section: dict, where: str, convert, default=_REQUIRED):
        """``convert`` the value under the last key of ``where``; a missing or
        null value gives ``default``, a bad one a problem naming ``where``."""
        read.add(where)
        value = section.get(where.rsplit(".", 1)[-1])
        fallback = None if default is _REQUIRED else default
        if value is None:
            if default is _REQUIRED:
                problems.append(f"{where}: required")
            return fallback
        try:
            return convert(value)
        except ValueError as exc:
            problems.append(f"{where}: {exc}")
            return fallback

    def section(name: str) -> dict:
        return take(raw, name, _object, {})

    # After a problem, 0 stands in so that seed-derived defaults still parse.
    seed = take(raw, "seed", _integer) or 0

    box_sec = section("box")
    modes = take(box_sec, "box.modes", _integer, 16)
    size = take(box_sec, "box.size", _number, 32.0)
    box = None
    try:
        box = BoxGrid(size, modes)
    except ValueError as exc:
        problems.append(f"box: {exc}")

    rp = section("rough_path")
    channels = take(rp, "rough_path.channels", _positive(_integer), 2)
    horizon = take(rp, "rough_path.horizon", _number, 1.0)
    steps = take(rp, "rough_path.steps", _integer, 4096)
    alpha = take(rp, "rough_path.alpha", _alpha, 0.4)
    flavor = take(rp, "rough_path.flavor", _one_of(*FLAVORS), "ito")
    time_grid = None
    try:
        time_grid = TimeGrid(horizon, steps)
    except ValueError as exc:
        problems.append(f"rough_path: {exc}")

    noise_sec = section("noise")
    lambdas = take(noise_sec, "noise.lambda", _list_of(_number))
    if lambdas is not None and len(lambdas) != channels:
        problems.append("noise.lambda: need one drift constant per channel")
    kernel_secs = take(noise_sec, "noise.kernels", _list_of(_object))
    if kernel_secs is not None and len(kernel_secs) != channels:
        problems.append("noise.kernels: need one kernel spec per channel")
    kernels = []
    for i, k in enumerate(kernel_secs or ()):
        where = f"noise.kernels[{i}]"
        kind = take(k, f"{where}.type", _one_of("gaussian", "zero", "store"))
        if kind == "gaussian":
            sigma = take(k, f"{where}.sigma", _positive(_number))
            kernels.append(KernelSpec(kind, sigma=sigma, mass=take(k, f"{where}.mass", _number)))
        elif kind == "store":
            kernels.append(KernelSpec(kind, path=take(k, f"{where}.path", _text)))
        else:
            kernels.append(KernelSpec(kind))
    noise = NoiseSpec(lambdas, tuple(kernels), take(noise_sec, "noise.global_mode", _flag, False))

    gate = section("gate")
    c_star = take(gate, "gate.c_star", _positive(_number), 0.01)
    force = take(gate, "gate.force", _flag, False)

    init = section("initial_data")
    kind = take(init, "initial_data.type", _one_of("random", "single_mode", "store"))
    is_random, is_single = kind == "random", kind == "single_mode"
    initial = InitialSpec(
        kind=kind,
        seed=take(init, "initial_data.seed", _integer, seed) if is_random else None,
        decay=take(init, "initial_data.decay", _number, 2.0) if is_random else None,
        k=take(init, "initial_data.k", _list_of(_integer, 3)) if is_single else None,
        component=take(init, "initial_data.component", _one_of(0, 1, 2), 2) if is_single else None,
        path=take(init, "initial_data.path", _text) if kind == "store" else None,
        norm_target=take(init, "initial_data.norm_target", _positive(_number), None),
        margin=take(init, "initial_data.margin", _positive(_number), None),
    )
    if initial.norm_target is not None and initial.margin is not None:
        problems.append("initial_data: norm_target and margin are mutually exclusive")

    solver_sec = section("solver")
    settings = {
        key: take(solver_sec, f"solver.{key}", convert, getattr(SolverConfig, key))
        for key, convert in (
            ("p", _number),
            ("num_nodes", _integer),
            ("tolerance", _number),
            ("max_iterations", _integer),
        )
    }
    solver = None
    try:
        solver = SolverConfig(**settings)
    except ValueError as exc:
        problems.append(f"solver: {exc}")
    # Verify's time regularity of the Duhamel integrand, below 1/2 - 3/(4p).
    epsilon = take(solver_sec, "solver.epsilon", _number, 0.05)
    if solver is not None:
        cap = 0.5 - 3.0 / (4.0 * solver.p)
        if not 0.0 < epsilon < cap:
            problems.append(f"solver.epsilon: must lie strictly in (0, {cap}), got {epsilon}")

    ver = section("verifier")
    window = take(ver, "verifier.window", _list_of(_number, 2), (0.25, 0.75))
    # A horizon that builds no time grid is reported under rough_path alone.
    if not (0.0 < window[0] < window[1] <= (math.inf if time_grid is None else time_grid.horizon)):
        problems.append(f"verifier.window: need 0 < start < end <= horizon, got {list(window)}")
    elif solver is not None and time_grid is not None:
        # Verify's integrand continuity check pairs the solver nodes in the window.
        try:
            times = time_grid.times[solver_node_indices(solver, time_grid)]
        except ValueError:
            pass  # a mesh that collapses fails where the solver runs
        else:
            inside = int(np.count_nonzero((times >= window[0]) & (times <= window[1])))
            if inside < 2:
                problems.append(
                    f"verifier.window: {list(window)} holds {inside} of the {times.size} "
                    f"solver nodes (solver.num_nodes {solver.num_nodes}); verify needs two"
                )
    taylor_levels = take(ver, "verifier.taylor_levels", _positive(_integer), 5)
    # verifier.taylor_rate fits over a span of steps // 4 grid steps.
    if taylor_levels is not None and steps is not None and steps // 4 < 2 ** (taylor_levels - 1):
        problems.append(
            f"verifier.taylor_levels: {taylor_levels} dyadic levels need a span of "
            f"{2 ** (taylor_levels - 1)} steps, rough_path.steps // 4 is {steps // 4}"
        )

    config = RunConfig(
        raw=raw,
        seed=seed,
        box=box,
        time_grid=time_grid,
        channels=channels,
        alpha=alpha,
        flavor=flavor,
        noise=noise,
        initial=initial,
        solver=solver,
        epsilon=epsilon,
        c_star=c_star,
        force=force,
        phis=take(ver, "verifier.phis", _positive(_integer), 2),
        phi_seed=take(ver, "verifier.phi_seed", _integer, seed + 1),
        window=window,
        partition_levels=take(ver, "verifier.partition_levels", _positive(_integer), 6),
        taylor_levels=taylor_levels,
        stages=take(raw, "stages", _list_of(_one_of(*STAGES)), STAGES),
        memory_cap=take(raw, "memory_cap_bytes", _positive(_integer), 2 << 30),
    )

    def unknown_keys(value, where: str) -> None:
        if isinstance(value, list):
            for i, item in enumerate(value):
                unknown_keys(item, f"{where}[{i}]")
        elif isinstance(value, dict):
            for key, item in value.items():
                path = f"{where}.{key}" if where else key
                if path in read:
                    unknown_keys(item, path)
                else:
                    problems.append(f"{path}: unknown key")

    unknown_keys(raw, "")
    if problems:
        raise ConfigError(problems)
    return config


def load_config(path) -> RunConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError([f"cannot read config file {path}: {exc}"])
    return validate_config(raw)


def _load_store(where: str, path: str, box: BoxGrid) -> SpectralField:
    """Read a field store named in the config onto ``box``; failures name the field."""
    try:
        return load_field(path, box)
    except (OSError, ValueError) as exc:
        raise ConfigError([f"{where}: cannot read field store {path!r}: {exc}"]) from exc


def make_noise(config: RunConfig) -> NoiseModel:
    kernels = []
    for i, spec in enumerate(config.noise.kernels):
        if spec.kind == "zero":
            kernels.append(None)
        elif spec.kind == "gaussian":
            kernels.append(gaussian_convolution_operator(config.box, spec.sigma, spec.mass))
        else:
            stored = _load_store(f"noise.kernels[{i}].path", spec.path, config.box)
            kernels.append(
                convolution_operator_from_kernel(config.box, stored.to_physical()[0])
            )
    noise = NoiseModel(config.noise.lambdas, tuple(kernels))
    # Global-in-time bounds stand on every drift constant exceeding
    # DOMINANCE_CONSTANT times its kernel's mass.
    margins = dominance_margins(noise)
    if config.noise.global_mode and np.any(margins <= 0.0):
        raise ConfigError(
            [f"noise.global_mode: dominance margins must all be positive, got {margins.tolist()}"]
        )
    return noise


def make_initial_data(config: RunConfig, eta_sup: float) -> SpectralField:
    """Build, project (divergence-free, mean-zero) and scale the initial
    field; a ``margin`` scales it against the gate bound ``eta_sup``."""
    spec = config.initial
    if spec.kind == "random":
        u0 = random_field(config.box, spec.seed, decay=spec.decay)
    elif spec.kind == "single_mode":
        k = spec.k
        x = config.box.coordinates
        phase = (
            2.0
            * math.pi
            * (k[0] * x[0] + k[1] * x[1] + k[2] * x[2])
            / config.box.size
        )
        phys = np.zeros((3,) + phase.shape)
        phys[spec.component] = np.cos(phase)
        u0 = to_spectral(config.box, phys)
    else:
        u0 = _load_store("initial_data.path", spec.path, config.box)
    u0 = project_divergence_free(u0)
    norm_target = spec.norm_target
    if spec.margin is not None:
        norm_target = config.c_star / (spec.margin * eta_sup)
    if norm_target is not None:
        current = lp_norm(u0, 1.5)
        if current == 0.0:
            raise ConfigError(
                ["initial_data: the projected field is zero and cannot be scaled to a norm"]
            )
        u0 = u0 * (norm_target / current)
    return u0


@dataclass
class RunState:
    """In-memory artifacts and verdicts shared by consecutive stages.

    ``trajectory_dir`` names the store that ``stage_verify`` loads when no
    trajectory is in memory; it defaults to ``<outdir>/trajectory``.  The
    gate and verify reports are the verdicts of the stages this run ran.
    """

    rough: RoughPath | None = None
    noise: NoiseModel | None = None
    gate_report: GateReport | None = None
    u0: SpectralField | None = None
    trajectory: Trajectory | None = None
    trajectory_dir: Path | None = None
    verify_report: dict | None = None


# ---------------------------------------------------------------------------
# Trajectory store


def save_trajectory(
    traj: Trajectory, directory, config: RunConfig, seed: int | None, gate_forced: bool
) -> list[Path]:
    """Write the node fields and the manifest of a trajectory solved for
    ``config`` on the driving path of ``seed``; the manifest's ``solver``
    entry records the ``SolverConfig`` settings, the ones Picard reads."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    names = []
    for j, y in enumerate(traj.fields):
        name = f"node_{j:06d}"
        names.append(name)
        hp, bp = save_field(y, directory / name)
        written += [hp, bp]
    manifest = {
        "schema_version": 1,
        "node_indices": [int(x) for x in traj.node_indices],
        "times": [float(t) for t in traj.times],
        "fields": names,
        "iterations": traj.iterations,
        "distances": list(traj.distances),
        "ratios": list(traj.ratios),
        # Picard returns converged trajectories only; store schema 1 keeps the key.
        "converged": True,
        "gate_forced": gate_forced,
        "solver": asdict(config.solver),
        "seed": seed,
    }
    mp = directory / "manifest.json"
    mp.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    written.append(mp)
    return written


def load_trajectory(directory, config: RunConfig, seed: int | None) -> Trajectory:
    """Reload a store written by ``save_trajectory`` for a run of ``config``
    on the driving path of ``seed``.

    The trajectory keeps node 0's field as u0, each node's 2/3-rule band and
    the distances; the stored iterations, ratios and ``converged`` must
    follow from the distances.  A store that cannot be read (a missing or
    malformed manifest, a node field missing, of the wrong size or on
    another box than the config's, or one that Picard cannot have written:
    outside the band it differs from the heat flow of node 0 at its time) is
    a ConfigError naming the store and the file; so is one whose node mesh
    is not the config's solver mesh on its time grid (which covers the
    horizon), whose ``SolverConfig`` settings differ from the config's or
    whose path seed differs from ``seed``.  Nothing else in the ``solver``
    entry is compared: verify's exponents and the gate's ``c_star``, which
    older stores also record there, do not change the stored trajectory.
    """
    directory = Path(directory)
    where = directory / "manifest.json"
    try:
        mesh = solver_node_indices(config.solver, config.time_grid)
        # Every manifest key is read before the first node field, so an
        # error names the manifest or the node that caused it.
        manifest = json.loads(where.read_text())
        solver, stored_seed = dict(manifest["solver"]), manifest["seed"]
        record = [manifest[key] for key in ("iterations", "ratios", "converged")]
        node_indices = np.array(manifest["node_indices"], dtype=np.int64)
        times = np.array(manifest["times"])
        distances = tuple(manifest["distances"])
        names = manifest["fields"]
        if len(names) != times.size:
            raise ValueError(f"{len(names)} node fields for {times.size} node times")
        u0, bands = None, []
        for name, t in zip(names, times):
            where = directory / name
            coef = load_field(where, config.box).coef
            if u0 is None:
                u0 = SpectralField(config.box, coef)
            band = np.take(coef, config.box.band_index)
            if not np.array_equal(heat_flow_with_band(u0, float(t), band), coef):
                raise ValueError(
                    f"outside the 2/3-rule band the node differs from the heat flow of "
                    f"node 0 at t = {float(t)!r}, which Picard cannot have written"
                )
            bands.append(band)
        traj = Trajectory(config.solver, node_indices, times, u0, tuple(bands), distances)
        where = directory / "manifest.json"
        if record != [traj.iterations, list(traj.ratios), True]:
            raise ValueError("the stored iterations, ratios and converged do not follow from the distances")
    except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        raise ConfigError(
            [f"cannot read trajectory store {str(directory)!r} at {str(where)!r}: {exc}"]
        ) from exc
    problems = []
    grid = config.time_grid
    if not (np.array_equal(traj.node_indices, mesh) and np.array_equal(traj.times, grid.times[mesh])):
        problems.append(
            f"rough_path: the node mesh of the trajectory store {str(directory)!r} "
            f"(size {traj.times.size}) is not the config's solver mesh (size {mesh.size}, "
            f"solver.num_nodes {config.solver.num_nodes} on a grid of {grid.steps} "
            f"steps over horizon {grid.horizon!r})"
        )
    wanted = asdict(config.solver)
    differ = [k for k in wanted if solver.get(k) != wanted[k]]
    if differ:
        problems.append(
            f"solver: the trajectory store {str(directory)!r} was solved with "
            f"{', '.join(f'{k} {solver.get(k)!r}' for k in differ)}, the config has "
            f"{', '.join(f'{k} {wanted[k]!r}' for k in differ)}"
        )
    if stored_seed != seed:
        problems.append(
            f"seed: the trajectory store {str(directory)!r} was solved on the path of "
            f"seed {stored_seed!r}, this run's path has seed {seed!r}"
        )
    if problems:
        raise ConfigError(problems)
    return traj


# ---------------------------------------------------------------------------
# Stages


def _sample_rough(config: RunConfig) -> RoughPath:
    path = sample_brownian(config.seed, config.channels, config.time_grid)
    return enhance(path, config.flavor)


def load_rough_store(config: RunConfig, directory) -> RoughPath:
    """Reload the rough-path store in ``directory`` for a run of ``config``.

    The store is schema 4, the path's increments in lattice units as the
    narrowest integer type that holds them (see ``roughpath``).  A store that
    cannot be read (missing, another schema, among them the float64 values
    of schema 3, a malformed header, a binary block of the wrong size, data
    off the exact envelope) or whose channels, steps, horizon or flavor
    differ from the config is a ConfigError naming the store.  The seed is
    not compared: a stored path may be reused, and neither are verify's
    exponents, which the stored data does not depend on.
    """
    try:
        rough = load_rough_path(directory)
    except (OSError, ValueError, PrecisionError) as exc:
        raise ConfigError([f"cannot read rough-path store {str(directory)!r}: {exc}"]) from exc
    pairs = {
        "channels": (rough.channels, config.channels),
        "steps": (rough.grid.steps, config.time_grid.steps),
        "horizon": (rough.grid.horizon, config.time_grid.horizon),
        "flavor": (rough.flavor, config.flavor),
    }
    problems = [
        f"rough_path.{key}: the store {str(directory)!r} has {stored!r}, the config {wanted!r}"
        for key, (stored, wanted) in pairs.items()
        if stored != wanted
    ]
    if problems:
        raise ConfigError(problems)
    return rough


def _prepare(config: RunConfig, outdir: Path, state: RunState) -> RoughPath:
    """Create ``outdir``; load or sample the rough path and build the noise."""
    outdir.mkdir(parents=True, exist_ok=True)
    if state.rough is None:
        if (outdir / "rough_path.json").exists():
            state.rough = load_rough_store(config, outdir)
        else:
            state.rough = _sample_rough(config)
    state.noise = state.noise or make_noise(config)
    return state.rough


def _gate(config: RunConfig, state: RunState) -> GateReport:
    """Bound series along the path, initial data scaled to it (unless the
    state already holds it), smallness gate."""
    series = bound_series(state.noise, state.rough.path)
    if state.u0 is None:
        state.u0 = make_initial_data(config, eta_sup=series.sup)
    state.gate_report = smallness_gate(
        state.u0, series.sup, config.c_star, state.noise
    )
    return state.gate_report


def _solve(config: RunConfig, state: RunState) -> Trajectory:
    """Picard solve from the gated initial data, gating first when needed; a
    failed gate stops the run unless ``gate.force`` is set."""
    report = state.gate_report or _gate(config, state)
    if not report.passed and not config.force:
        raise GateNotPassedError(
            "smallness gate failed; set gate.force to true to record an override run"
        )
    provider = TransformProvider(state.noise, state.rough.path, config.box)
    state.trajectory = picard_solve(config.solver, state.u0, provider)
    return state.trajectory


def stage_enhance(config: RunConfig, outdir: Path, state: RunState) -> list[Path]:
    state.rough = _sample_rough(config)
    hp, vp = save_rough_path(state.rough, outdir)
    return [hp, vp]


def stage_gate(config: RunConfig, outdir: Path, state: RunState) -> list[Path]:
    _prepare(config, outdir, state)
    report = _gate(config, state)
    out = outdir / "gate_report.json"
    out.write_text(json.dumps(report.to_json_dict(), sort_keys=True, indent=2) + "\n")
    return [out]


def stage_simulate(config: RunConfig, outdir: Path, state: RunState) -> list[Path]:
    if state.gate_report is None:
        stage_gate(config, outdir, state)
    traj = _solve(config, state)
    forced = not state.gate_report.passed  # _solve went past a failed gate under gate.force
    written = save_trajectory(traj, outdir / "trajectory", config, state.rough.path.seed, forced)
    diag = outdir / "diagnostics.csv"
    with diag.open("w") as fh:
        fh.write("t,norm_p,weighted_norm,weighted_deriv_norm\n")
        for y, t in zip(traj.fields, traj.times):
            row = (float(t),) + weighted_norm_terms(y, float(t), traj.config.p)
            fh.write(",".join(repr(x) for x in row) + "\n")
    ratios = outdir / "contraction.csv"
    with ratios.open("w") as fh:
        fh.write("iteration,distance,ratio\n")
        for i, (d, r) in enumerate(zip(traj.distances, (None,) + traj.ratios), start=1):
            fh.write(f"{i},{d!r},{'' if r is None else repr(r)}\n")
    return written + [diag, ratios]


def stage_verify(config: RunConfig, outdir: Path, state: RunState) -> list[Path]:
    store = state.trajectory_dir or outdir / "trajectory"
    if state.trajectory is None and not (store / "manifest.json").is_file():
        raise ConfigError([f"no trajectory store at {store}: run simulate first or pass --traj"])
    rough = _prepare(config, outdir, state)
    if state.trajectory is None:
        state.trajectory = load_trajectory(store, config, rough.path.seed)
    traj, noise = state.trajectory, state.noise
    provider = TransformProvider(noise, rough.path, config.box)
    phis = bump_fields(config.box, config.phis, config.phi_seed)
    weak_form, ladders = vf.rough_weak_form(
        traj, rough, provider, phis, config.window, config.partition_levels, config.alpha
    )
    checks = {
        **vf.level2_identities(rough, config.seed + 2),
        "transform_identities": vf.transform_identities(provider, noise),
        "rough_weak_form": weak_form,
        "transform_taylor": vf.taylor_rate(provider, phis[0], config.taylor_levels),
        **vf.continuity_checks(traj, provider, phis[0], config.window, config.epsilon),
    }
    state.verify_report = report = {
        "schema_version": 1,
        "inputs_digest": config.digest,
        "window": list(config.window),
        "band_limited_surrogate": True,
        "checks": checks,
        "pass": all(c.get("pass", True) for c in checks.values()),
    }
    rp_path = outdir / "verify_report.json"
    rp_path.write_text(json.dumps(report, sort_keys=True, indent=2, default=float) + "\n")
    csv_path = outdir / "refinement.csv"
    with csv_path.open("w") as fh:
        fh.write("phi,mesh,residual\n")
        for i, mesh, res in ladders:
            fh.write(f"{i},{mesh!r},{res!r}\n")
    return [rp_path, csv_path]


STAGE_FUNCS = {
    "enhance": stage_enhance,
    "gate": stage_gate,
    "simulate": stage_simulate,
    "verify": stage_verify,
}


def run_pipeline(config: RunConfig, outdir, state: RunState) -> dict:
    """Execute the configured stages in order on ``state``, recording
    artifact digests; returns the run manifest.

    A stage failure still writes the manifest for the completed prefix, then
    re-raises; reruns with identical config and seed reproduce identical
    artifact digests.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    manifest = {"config_digest": config.digest, "tool_version": __version__, "stages": []}
    try:
        for name in config.stages:
            t0 = time.perf_counter()
            written = STAGE_FUNCS[name](config, outdir, state)
            elapsed = time.perf_counter() - t0
            manifest["stages"].append(
                {
                    "name": name,
                    "wall_clock_seconds": elapsed,
                    "artifacts": {
                        str(p.relative_to(outdir)): _digest_file(p) for p in written
                    },
                }
            )
    finally:
        (outdir / "run_manifest.json").write_text(
            json.dumps(manifest, sort_keys=True, indent=2) + "\n"
        )
    return manifest


# Whole fields of the level's modes that a sweep level holds beside its
# bands: u0, the grid's tables, the noise symbols, and Picard's transients or
# the candidates ``weighted_sup_norm`` holds.  The traced peaks of 2- and
# 3-level sweeps of 12 nodes from modes 8 needed 16 to 20.
_SWEEP_FIELDS = 24

SWEEP_AXES = ("solver-mesh", "grid")


def estimate_sweep_bytes(config: RunConfig, axis: str, levels: int) -> int:
    """Bytes a sweep holds at its largest level: the trajectory's nodes + 1
    bands of 3 K complex values, K = count_nonzero(dealias_keep), beside
    ``_SWEEP_FIELDS`` whole fields of three half spectra; the ``grid`` axis
    adds the previous level's trajectory, its nodes + 1 bands and its u0 on
    half the modes.  Only the refined axis grows; ``grid`` grows the modes,
    not the nodes."""
    top = 2 ** max(0, levels - 1)
    nodes = config.solver.num_nodes * (top if axis == "solver-mesh" else 1)
    modes = config.box.modes * (top if axis == "grid" else 1)

    def field_bytes(n: int) -> int:
        return 3 * n * n * (n // 2 + 1) * 16

    def band_bytes(n: int) -> int:
        # dealias_keep keeps |k| <= n // 3 on each axis, k3 >= 0 on the half one.
        return 3 * (2 * (n // 3) + 1) ** 2 * (n // 3 + 1) * 16

    held = (nodes + 1) * band_bytes(modes) + _SWEEP_FIELDS * field_bytes(modes)
    if axis == "grid" and levels > 1:
        held += (nodes + 1) * band_bytes(modes // 2) + field_bytes(modes // 2)
    return held


def sweep(config: RunConfig, axis: str, levels: int, outdir) -> Path:
    """Refinement sweep along one of ``SWEEP_AXES``, emitting a CSV of
    (level, residuals).

    ``solver-mesh`` halves the solver mesh per level, ``grid`` doubles the
    box resolution; the partition ladder of a fixed run is verify's
    ``refinement.csv``, ``verifier.partition_levels`` deep.  Every ``grid``
    level starts from level 0's ``u0`` carried to its modes, and its
    ``residual`` (from level 1) is the weighted sup norm of y^L - y^(L-1)
    at the shared solver nodes, taken on the level-(L-1) modes without their
    Nyquist planes; the rate is fitted to these differences.  The level-(L-1)
    trajectory is kept while level L is solved and its fields are formed as
    the difference reads them.
    A ``grid`` sweep past level 0 with a ``store`` kernel, whose samples lie
    on the config's box only, is refused with a ConfigError before anything
    is solved, and so is a sweep whose estimate exceeds ``memory_cap_bytes``.
    """
    if axis not in SWEEP_AXES:
        raise ConfigError([f"sweep axis must be {'|'.join(SWEEP_AXES)}, got {axis!r}"])
    if levels < 1:
        raise ConfigError([f"sweep needs at least one level, got {levels}"])
    if axis == "grid" and levels > 1:
        stored = [
            f"noise.kernels[{i}].path: a stored kernel holds samples on the config's box "
            f"({config.box.modes} modes) only, so the grid axis cannot refine it"
            for i, spec in enumerate(config.noise.kernels)
            if spec.kind == "store"
        ]
        if stored:
            raise ConfigError(stored)
    estimate, cap = estimate_sweep_bytes(config, axis, levels), config.memory_cap
    if estimate > cap:
        raise ConfigError([f"memory_cap_bytes: sweep estimate {estimate} bytes over the cap {cap}"])
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    rows: list[tuple] = []

    rough = _sample_rough(config)
    noise = make_noise(config)
    phi = bump_fields(config.box, 1, config.phi_seed)[0]
    base_nodes = config.solver.num_nodes

    def solve_with(num_nodes: int, box: BoxGrid, u0: SpectralField | None = None) -> Trajectory:
        level = replace(config, box=box, solver=replace(config.solver, num_nodes=num_nodes))
        level_noise = noise if box == config.box else make_noise(level)
        return _solve(level, RunState(rough=rough, noise=level_noise, u0=u0))

    provider = TransformProvider(noise, rough.path, config.box)
    u0 = prev = None
    for lvl in range(levels):
        # Free the last level's trajectory before this level's solve, so the
        # peak is one level's list of bands, which becomes that level's
        # trajectory, beside a few whole fields (estimate_sweep_bytes); the
        # grid axis keeps it as ``prev``, the level before on the coarser
        # modes, and frees the one before that.
        traj = None
        if axis == "solver-mesh":
            nodes = base_nodes * (2 ** lvl)
            traj = solve_with(nodes, config.box)
            res = weak_residual(traj, provider, [phi])[0]
            mesh = 1.0 / nodes
        else:
            box = BoxGrid(config.box.size, config.box.modes * (2 ** lvl))
            traj = solve_with(base_nodes, box, None if u0 is None else resample(u0, box))
            if u0 is None:
                u0 = traj.u0
            res = "" if prev is None else weighted_sup_norm(
                (resample(y, q.grid) - resample(q, q.grid) for y, q in zip(traj.fields, prev.fields)),
                traj.times,
                traj.config.p,
            )
            prev = traj
            mesh = 1.0 / box.modes
        norm = weighted_sup_norm(traj.fields, traj.times, traj.config.p)
        rows.append((lvl, mesh, res, norm))
    fit = [(mesh, res) for _, mesh, res, _ in rows if res != ""]
    if len(fit) >= 2 and all(res > 0 for _, res in fit):
        x, y = np.log(np.array(fit)).T
        rate = float(np.polyfit(x, y, 1)[0])
    else:
        rate = float("nan")
    path = outdir / "sweep.csv"
    with path.open("w") as fh:
        fh.write(f"# axis={axis} fitted_rate={rate!r}\n")
        fh.write("level,mesh,residual,weighted_norm\n")
        for row in rows:
            fh.write(",".join(repr(x) if x != "" else "" for x in row) + "\n")
    return path

"""Config validation, pipeline stages, manifests, stores and CLI exit codes."""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    artifact_digests,
    divergence_defect,
    outside_band_defect,
    reference_prefix,
    transform_at,
)
from vortexlab import cli
from vortexlab import harness as hz
from vortexlab import roughpath as rpm
from vortexlab import solver as sv
from vortexlab import spectral as sp
from vortexlab import transform as tr
from vortexlab import verifier as vf


def base_config(**overrides) -> dict:
    raw = {
        "seed": 42,
        "box": {"modes": 8, "size": 32.0},
        "rough_path": {
            "channels": 2,
            "horizon": 1.0,
            "steps": 256,
            "alpha": 0.4,
            "flavor": "ito",
        },
        "noise": {
            "lambda": [0.8, -0.9],
            "kernels": [
                {"type": "gaussian", "sigma": 5.0, "mass": 0.1},
                {"type": "gaussian", "sigma": 6.0, "mass": 0.1},
            ],
            "global_mode": True,
        },
        "gate": {"c_star": 0.01, "force": False},
        "initial_data": {"type": "random", "seed": 7, "decay": 2.0, "margin": 10.0},
        "solver": {
            "p": 1.8,
            "epsilon": 0.05,
            "num_nodes": 12,
            "tolerance": 1e-9,
            "max_iterations": 50,
        },
        "verifier": {
            "phis": 1,
            "phi_seed": 5,
            "window": [0.25, 0.5625],
            "partition_levels": 4,
            "taylor_levels": 4,
        },
        "stages": ["enhance", "gate", "simulate", "verify"],
    }
    raw.update(overrides)
    return raw


def three_channels(raw: dict) -> None:
    raw["rough_path"]["channels"] = 3
    raw["noise"]["lambda"].append(0.7)
    raw["noise"]["kernels"].append({"type": "gaussian", "sigma": 7.0, "mass": 0.1})


MALFORMED = [
    # (path into the raw config, bad value, field the problem must name)
    (("rough_path", "alpha"), "x", "rough_path.alpha"),
    (("rough_path", "horizon"), "abc", "rough_path.horizon"),
    (("verifier", "window"), ["a", "b"], "verifier.window"),
    (("memory_cap_bytes",), "big", "memory_cap_bytes"),
    (("solver",), [1], "solver"),
    (("initial_data", "margin"), "x", "initial_data.margin"),
    (("initial_data", "seed"), "x", "initial_data.seed"),
    (("noise", "lambda"), ["a", "b"], "noise.lambda"),
    (("noise", "kernels", 0, "sigma"), "x", "noise.kernels[0].sigma"),
    (("noise", "kernels", 0, "mass"), "x", "noise.kernels[0].mass"),
    ((), [base_config()], "config"),
    (("gate", "c_star"), True, "gate.c_star"),
    # Python's json reads NaN and Infinity; each is refused where it stands.
    pytest.param(("solver", "tolerance"), math.nan, "solver.tolerance", id="solver.tolerance-nan"),
    pytest.param(("solver", "tolerance"), math.inf, "solver.tolerance", id="solver.tolerance-inf"),
    pytest.param(("noise", "lambda"), [math.nan, -0.9], "noise.lambda", id="noise.lambda-nan"),
    pytest.param(("initial_data", "decay"), math.nan, "initial_data.decay", id="initial_data.decay-nan"),
    pytest.param(("noise", "kernels", 0, "mass"), math.nan, "noise.kernels[0].mass", id="noise.kernels[0].mass-nan"),
    pytest.param(("box", "size"), math.inf, "box.size", id="box.size-inf"),
    pytest.param(("box", "size"), 10**400, "box.size", id="box.size-beyond-float"),
]


def with_value(keys, value) -> dict | list:
    if not keys:
        return value
    raw = base_config()
    target = raw
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    return raw


class TestConfigValidation:
    def test_valid_config_accepted(self):
        cfg = hz.validate_config(base_config())
        assert cfg.seed == 42 and cfg.channels == 2

    def test_solver_defaults_are_solver_config_defaults(self):
        raw = base_config()
        del raw["solver"]
        cfg = hz.validate_config(raw)
        assert cfg.solver == sv.SolverConfig()
        assert (cfg.solver.num_nodes, cfg.solver.tolerance) == (32, 1e-10)

    @pytest.mark.parametrize(
        # A pytest.param's own id takes precedence over this list.
        "keys, value, field", MALFORMED, ids=[case[2] for case in MALFORMED]
    )
    def test_malformed_value_is_config_error(self, keys, value, field):
        with pytest.raises(hz.ConfigError, match=re.escape(field)):
            hz.validate_config(with_value(keys, value))

    def test_non_finite_number_message(self):
        with pytest.raises(hz.ConfigError) as err:
            hz.validate_config(with_value(("solver", "tolerance"), math.nan))
        assert err.value.problems == ["solver.tolerance: need a finite number, got nan"]

    @pytest.mark.parametrize("horizon", [-1, 0])
    def test_bad_horizon_reported_once(self, horizon):
        # The horizon is the time grid's alone: neither the solver nor the
        # verify window repeats its problem.
        with pytest.raises(hz.ConfigError) as err:
            hz.validate_config(with_value(("rough_path", "horizon"), horizon))
        assert err.value.problems == [f"rough_path: horizon must be positive, got {float(horizon)}"]

    def test_all_problems_reported_at_once(self):
        raw = base_config()
        raw["seed"] = "not-an-int"
        raw["box"]["modes"] = 15
        raw["rough_path"]["steps"] = 100
        raw["solver"]["p"] = 2.5
        raw["stages"] = ["enhance", "nonsense"]
        with pytest.raises(hz.ConfigError) as err:
            hz.validate_config(raw)
        text = str(err.value)
        for named in ("seed", "box", "rough_path", "solver", "stages"):
            assert named in text
        assert len(err.value.problems) >= 5

    def test_out_of_range_exponents_not_defaulted(self):
        raw = base_config()
        raw["solver"]["epsilon"] = 0.2
        with pytest.raises(hz.ConfigError, match="epsilon"):
            hz.validate_config(raw)

    def test_margin_and_norm_target_exclusive(self):
        raw = base_config()
        raw["initial_data"]["norm_target"] = 0.001
        with pytest.raises(hz.ConfigError, match="mutually exclusive"):
            hz.validate_config(raw)

    def test_unknown_kernel_kind(self):
        raw = base_config()
        raw["noise"]["kernels"][0] = {"type": "cauchy"}
        with pytest.raises(hz.ConfigError, match="kernels"):
            hz.validate_config(raw)

    def test_taylor_levels_must_fit_the_span(self):
        raw = base_config()
        raw["verifier"]["taylor_levels"] = 7  # span 256 // 4 = 64 holds 2 ** 6
        hz.validate_config(raw)
        raw["verifier"]["taylor_levels"] = 8
        with pytest.raises(hz.ConfigError, match="verifier.taylor_levels"):
            hz.validate_config(raw)

    def test_unknown_keys_refused(self):
        # A misspelt key used to be ignored, leaving its setting at the default.
        raw = base_config(verifer={"phis": 2})
        raw["solver"]["num_node"] = 8
        raw["noise"]["kernels"][1]["path"] = "k"  # read for store kernels only
        with pytest.raises(hz.ConfigError) as err:
            hz.validate_config(raw)
        assert err.value.problems == [
            "noise.kernels[1].path: unknown key",
            "solver.num_node: unknown key",
            "verifer: unknown key",
        ]
        # Each initial_data key is read for the kind that uses it only.
        raw = base_config()
        raw["initial_data"]["component"] = 1
        with pytest.raises(hz.ConfigError) as err:
            hz.validate_config(raw)
        assert err.value.problems == ["initial_data.component: unknown key"]
        raw["initial_data"] = {"type": "single_mode", "k": [2, 1, 0], "seed": 3, "decay": 2.0, "norm_target": 0.005}
        with pytest.raises(hz.ConfigError) as err:
            hz.validate_config(raw)
        assert err.value.problems == ["initial_data.seed: unknown key", "initial_data.decay: unknown key"]
        raw["initial_data"] = {"type": "store", "path": "f", "component": 0, "k": [1, 0, 0], "norm_target": 0.01}
        with pytest.raises(hz.ConfigError) as err:
            hz.validate_config(raw)
        assert err.value.problems == ["initial_data.component: unknown key", "initial_data.k: unknown key"]

    def test_out_of_range_alpha_reported_once(self):
        raw = base_config()
        raw["rough_path"]["alpha"] = 0.6
        with pytest.raises(hz.ConfigError) as err:
            hz.validate_config(raw)
        assert err.value.problems == ["rough_path.alpha: must lie in (1/3, 1/2), got 0.6"]

    def test_window_validation(self):
        raw = base_config()
        raw["verifier"]["window"] = [0.0, 0.5]
        with pytest.raises(hz.ConfigError, match="window"):
            hz.validate_config(raw)


class TestBuilders:
    def test_noise_and_initial_data(self):
        cfg = hz.validate_config(base_config())
        noise = hz.make_noise(cfg)
        assert noise.channels == 2 and np.all(tr.dominance_margins(noise) > 0.0)
        u0 = hz.make_initial_data(cfg, eta_sup=2.0)
        assert sp.lp_norm(u0, 1.5) == pytest.approx(0.01 / (10.0 * 2.0), rel=1e-10)
        assert divergence_defect(u0) < 1e-12

    def test_single_mode_initial_data(self):
        raw = base_config()
        raw["initial_data"] = {"type": "single_mode", "k": [2, 1, 0], "norm_target": 0.005}
        cfg = hz.validate_config(raw)
        u0 = hz.make_initial_data(cfg, eta_sup=2.0)
        assert sp.lp_norm(u0, 1.5) == pytest.approx(0.005, rel=1e-10)


class TestPipeline:
    def test_empty_stage_list(self, tmp_path):
        cfg = hz.validate_config(base_config(stages=[]))
        manifest = hz.run_pipeline(cfg, tmp_path, hz.RunState())
        assert manifest["stages"] == []
        assert (tmp_path / "run_manifest.json").exists()

    def test_enhance_only_deterministic(self, tmp_path):
        cfg = hz.validate_config(base_config(stages=["enhance"]))
        a = artifact_digests(hz.run_pipeline(cfg, tmp_path / "a", hz.RunState()))
        b = artifact_digests(hz.run_pipeline(cfg, tmp_path / "b", hz.RunState()))
        assert a == b and len(a) == 2

    def test_full_small_pipeline(self, tmp_path):
        cfg = hz.validate_config(base_config())
        manifest = hz.run_pipeline(cfg, tmp_path, hz.RunState())
        assert [s["name"] for s in manifest["stages"]] == [
            "enhance",
            "gate",
            "simulate",
            "verify",
        ]
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert report["checks"]["chen_relation"]["pass"]
        gate = json.loads((tmp_path / "gate_report.json").read_text())
        assert set(gate) == {"eta_sup", "u0_norm", "product", "c_star", "pass", "margins"}

    def test_debug_checks_every_field_plane(self, tmp_path, monkeypatch):
        # Every field a whole pipeline constructs is exactly Hermitian on its
        # self-conjugate planes.
        defects, construct = [], sp.SpectralField.__post_init__

        def recorded(field):
            construct(field)
            defects.append(sp._plane_defect(field.coef))

        monkeypatch.setattr(sp.SpectralField, "__post_init__", recorded)
        hz.run_pipeline(hz.validate_config(base_config()), tmp_path, hz.RunState())
        assert len(defects) > 500 and max(defects) == 0.0

    def test_iterate_is_heat_flow_outside_band(self):
        cfg = hz.validate_config(base_config())
        state = hz.RunState(rough=hz._sample_rough(cfg), noise=hz.make_noise(cfg))
        traj = hz._solve(cfg, state)
        assert traj.distances[0] > 0.0  # the Duhamel correction is not zero
        assert outside_band_defect(traj) == 0.0

    def test_trapezoid_flavor_pipeline(self, tmp_path):
        raw = base_config()
        raw["rough_path"]["flavor"] = "stratonovich"
        cfg = hz.validate_config(raw)
        hz.run_pipeline(cfg, tmp_path, hz.RunState())
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert report["checks"]["bracket_identities"]["pass"]

    def test_trajectory_store_roundtrip(self, tmp_path):
        cfg = hz.validate_config(base_config(stages=["enhance", "gate", "simulate"]))
        state = hz.RunState()
        hz.stage_enhance(cfg, tmp_path, state)
        hz.stage_gate(cfg, tmp_path, state)
        hz.stage_simulate(cfg, tmp_path, state)
        back = hz.load_trajectory(tmp_path / "trajectory", cfg, state.rough.path.seed)
        traj = state.trajectory
        assert len(back.fields) == len(traj.fields)
        for a, b in zip(back.fields, traj.fields):
            assert np.array_equal(a.coef, b.coef)
        assert np.array_equal(back.node_indices, traj.node_indices)
        assert np.array_equal(back.times, traj.times)
        assert back.config == traj.config
        assert (back.iterations, back.distances, back.ratios) == (traj.iterations, traj.distances, traj.ratios)

    def test_level2_table_built_only_by_verify(self, tmp_path, monkeypatch):
        built = {}
        level2_pass = rpm._level2_pass

        def counted(values, flavor, table=None):
            level2_pass(values, flavor, table)
            if table is not None:
                built.setdefault(flavor, []).append(table)

        monkeypatch.setattr(rpm, "_level2_pass", counted)
        cfg = hz.validate_config(base_config())
        hz.stage_enhance(cfg, tmp_path, hz.RunState())
        state = hz.RunState()
        hz.stage_simulate(cfg, tmp_path, state)  # reloads the store
        assert built == {} and "prefix" not in vars(state.rough)
        hz.stage_verify(cfg, tmp_path, state)
        assert sorted(built) == sorted(rpm.FLAVORS)
        for flavor, tables in built.items():
            assert len(tables) == 1
            assert tables[0].tobytes() == reference_prefix(state.rough.path, flavor).tobytes()

    def test_stage_creates_missing_outdir(self, tmp_path):
        cfg = hz.validate_config(base_config())
        outdir = tmp_path / "missing"
        hz.stage_simulate(cfg, outdir, hz.RunState())
        for name in ("gate_report.json", "diagnostics.csv", "trajectory/manifest.json"):
            assert (outdir / name).is_file()

    def test_partial_manifest_on_failure(self, tmp_path):
        raw = base_config(stages=["enhance", "gate", "simulate"])
        raw["initial_data"]["margin"] = 0.5  # gate fails, no force
        cfg = hz.validate_config(raw)
        with pytest.raises(hz.GateNotPassedError):
            hz.run_pipeline(cfg, tmp_path, hz.RunState())
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert [s["name"] for s in manifest["stages"]] == ["enhance", "gate"]


class TestGatePolicy:
    """simulate refuses a failed gate unless gate.force is set, and the
    trajectory store records a forced run."""

    def failed_gate_config(self, force: bool) -> hz.RunConfig:
        raw = base_config()
        raw["initial_data"]["margin"] = 0.5
        raw["gate"]["force"] = force
        return hz.validate_config(raw)

    def test_gate_not_passed_without_force(self, tmp_path):
        with pytest.raises(hz.GateNotPassedError, match="gate.force"):
            hz.stage_simulate(self.failed_gate_config(False), tmp_path, hz.RunState())
        assert (tmp_path / "gate_report.json").is_file()
        assert not (tmp_path / "trajectory").exists()

    def test_forced_run_is_flagged(self, tmp_path):
        hz.stage_simulate(self.failed_gate_config(True), tmp_path / "forced", hz.RunState())
        hz.stage_simulate(hz.validate_config(base_config()), tmp_path / "passed", hz.RunState())
        flags = [
            json.loads((tmp_path / run / "trajectory" / "manifest.json").read_text())["gate_forced"]
            for run in ("forced", "passed")
        ]
        assert flags == [True, False]


def count_flux_calls(monkeypatch) -> list:
    """Count evaluations of the rotational flux by the verifier and by the
    spectral functions (the nonlinearity among them); returns the call
    list."""
    calls = []
    real = sp.rotational_flux

    def counted(u):
        calls.append(1)
        return real(u)

    monkeypatch.setattr(vf, "rotational_flux", counted)
    monkeypatch.setattr(sp, "rotational_flux", counted)
    return calls


class TestVerifyPass:
    def test_one_provider_for_the_config_noise(self, tmp_path, monkeypatch):
        # Every check shares the stage's provider; only the transform
        # identities build a second one, for the channel-reversed model.
        cfg = hz.validate_config(base_config())
        state = hz.RunState()
        hz.stage_simulate(cfg, tmp_path, state)
        built = []

        class Recording(tr.TransformProvider):
            def __init__(self, noise, path, grid):
                built.append((noise, grid))
                super().__init__(noise, path, grid)

        monkeypatch.setattr(hz, "TransformProvider", Recording)
        monkeypatch.setattr(vf, "TransformProvider", Recording)
        hz.stage_verify(cfg, tmp_path, state)
        assert [(noise is state.noise, grid) for noise, grid in built] == [(True, cfg.box), (False, cfg.box)]
        assert built[1][0].lambdas == state.noise.lambdas[::-1]

    @pytest.mark.parametrize("phis", [1, 3])
    def test_one_nonlinearity_call_per_window_node(self, tmp_path, monkeypatch, phis):
        raw = base_config()
        raw["verifier"]["phis"] = phis
        cfg = hz.validate_config(raw)
        state = hz.RunState()
        hz.stage_simulate(cfg, tmp_path, state)
        calls = count_flux_calls(monkeypatch)
        formed = []
        real_fields = vf._fields_at_nodes

        def counted_fields(*args):
            fields = real_fields(*args)
            formed.append(len(fields))
            return fields

        monkeypatch.setattr(vf, "_fields_at_nodes", counted_fields)
        hz.stage_verify(cfg, tmp_path, state)
        # One flux evaluation per rough-grid node in the window (the
        # observable), plus one per solver node in it (the nonlinearity of
        # the integrand continuity check).
        rough_nodes = cfg.time_grid.window_indices(*cfg.window).size
        solver_nodes = state.trajectory.node_window(*cfg.window).size
        assert solver_nodes >= 2
        assert len(calls) == rough_nodes + solver_nodes
        # U is formed once per window node and once more at the window's two
        # ends (the increment), whatever the number of test fields.
        assert sum(formed) == rough_nodes + 2

    def test_window_solver_nodes_formed_a_few_times(self, tmp_path, monkeypatch):
        # A solver node's field is formed from its band when it is read.
        # Each window node is formed once for the observable (one chunk
        # here), once more at most for the increment's two ends, and once
        # each for the integrand and observable continuity checks: never once
        # per rough-grid node in its cells.
        cfg = hz.validate_config(base_config())
        state = hz.RunState()
        hz.stage_simulate(cfg, tmp_path, state)
        real, formed = sv.heat_flow_with_band, []

        def counted(u0, t, band):
            formed.append(t)
            return real(u0, t, band)

        monkeypatch.setattr(sv, "heat_flow_with_band", counted)
        hz.stage_verify(cfg, tmp_path, state)
        traj = state.trajectory
        window = [float(traj.times[j]) for j in traj.node_window(*cfg.window)]
        per_cell = cfg.time_grid.window_indices(*cfg.window).size / (len(window) - 1)
        assert len(window) >= 2 and per_cell > 20
        assert all(1 <= formed.count(t) <= 4 for t in window)
        assert all(formed.count(float(t)) == 1 for t in traj.times if float(t) not in window)

    def test_nonlinear_drift_reported_per_phi(self, tmp_path):
        raw = base_config()
        raw["verifier"]["phis"] = 2
        hz.run_pipeline(hz.validate_config(raw), tmp_path, hz.RunState())
        report = json.loads((tmp_path / "verify_report.json").read_text())
        for entry in report["checks"]["rough_weak_form"]["per_phi"]:
            assert entry["nonlinear_drift"] > 0.0
            resolved = entry["nonlinear_drift"] > entry["floor_residual"]
            assert entry["nonlinear_resolved"] is resolved

    def test_thresholds_reported_next_to_values(self, tmp_path):
        hz.run_pipeline(hz.validate_config(base_config()), tmp_path, hz.RunState())
        checks = json.loads((tmp_path / "verify_report.json").read_text())["checks"]
        ident = checks["transform_identities"]
        assert ident["threshold"] == vf.TRANSFORM_IDENTITY_THRESHOLD == 1e-12
        assert ident["pass"] is (
            max(ident["reciprocal_defect"], ident["commutation_defect"]) < ident["threshold"]
        )
        for entry in checks["rough_weak_form"]["per_phi"]:
            assert entry["rate_rms_max"] == vf.RATE_RMS_MAX == 0.5
            assert entry["quotient_growth_max"] == vf.QUOTIENT_GROWTH_MAX == 2.0
            assert entry["pass"] is (
                entry["rate_slope"] > 0.0
                and entry["rate_rms"] < entry["rate_rms_max"]
                and entry["quotient_stable"]
            )
        taylor = checks["transform_taylor"]
        assert taylor["exponent_min"] == vf.TAYLOR_EXPONENT_MIN == 1.0
        assert taylor["pass"] is (taylor["exponent"] > taylor["exponent_min"])

    @pytest.mark.parametrize("flavor", ["ito", "stratonovich"])
    def test_every_verdict_follows_from_its_values(self, tmp_path, flavor):
        # Every pass boolean of the report, recomputed from the values and
        # thresholds written beside it; only the per-window bracket
        # tolerances and the coarse quotient tables are not written.
        raw = base_config()
        raw["rough_path"]["flavor"] = flavor
        hz.run_pipeline(hz.validate_config(raw), tmp_path, hz.RunState())
        report = json.loads((tmp_path / "verify_report.json").read_text())
        checks = report["checks"]
        assert sorted(checks) == [
            "bracket_identities",
            "chen_relation",
            "integrand_continuity",
            "observable_continuity",
            "rough_weak_form",
            "transform_identities",
            "transform_taylor",
        ]
        assert checks["chen_relation"]["pass"] is (checks["chen_relation"]["max_defect"] == 0.0)
        bracket = checks["bracket_identities"]
        assert bracket["pass"] is (
            bracket["symmetric_defect"] == 0.0
            and bracket["covariation_defect"] == 0.0
            and bracket["diag_pass"]
        )
        ident = checks["transform_identities"]
        assert ident["pass"] is (
            ident["reciprocal_defect"] < ident["threshold"]
            and ident["commutation_defect"] < ident["threshold"]
        )
        weak = checks["rough_weak_form"]
        assert [e["phi"] for e in weak["per_phi"]] == [0]
        for e in weak["per_phi"]:
            assert e["pass"] is (
                e["rate_slope"] > 0.0 and e["rate_rms"] < e["rate_rms_max"] and e["quotient_stable"]
            )
            assert e["nonlinear_resolved"] is (e["nonlinear_drift"] > e["floor_residual"])
        assert weak["pass"] is all(e["pass"] for e in weak["per_phi"])
        taylor = checks["transform_taylor"]
        assert taylor["pass"] is (taylor["exponent"] > taylor["exponent_min"])
        cont = checks["integrand_continuity"]
        assert cont["pass"] is math.isfinite(cont["quotient"])
        assert checks["observable_continuity"]["pass"] is True
        assert report["pass"] is all(c["pass"] for c in checks.values())
        assert report["pass"]


    def test_transform_identities_equal_reversed_order_oracle(self, tmp_path):
        cfg = hz.validate_config(base_config())
        hz.run_pipeline(cfg, tmp_path, hz.RunState())
        ident = json.loads((tmp_path / "verify_report.json").read_text())["checks"]["transform_identities"]
        rough = hz.load_rough_store(cfg, tmp_path)
        mid = cfg.time_grid.steps // 2
        at = (hz.make_noise(cfg), cfg.box, rough.values[mid], float(rough.times[mid]))
        (forward, inverse), (rev, _) = transform_at(*at), transform_at(*at, order=[1, 0])
        assert ident["reciprocal_defect"] == float(np.max(np.abs(forward * inverse - 1.0)))
        assert ident["commutation_defect"] == float(
            np.max(np.abs(forward - rev)) / np.max(np.abs(forward))
        )


class TestSweep:
    def test_sweep_single_level(self, tmp_path):
        cfg = hz.validate_config(base_config())
        path = hz.sweep(cfg, "grid", 1, tmp_path)
        lines = path.read_text().splitlines()
        assert lines[1] == "level,mesh,residual,weighted_norm"
        assert len(lines) == 3
        assert lines[2].split(",")[:3] == ["0", "0.125", ""]

    def test_partition_axis_refused(self, tmp_path):
        # The partition ladder of a run is verify's refinement.csv.
        cfg = hz.validate_config(base_config())
        with pytest.raises(hz.ConfigError, match="solver-mesh|grid"):
            hz.sweep(cfg, "partition", 2, tmp_path)
        assert not (tmp_path / "sweep.csv").exists()

    def test_memory_guard(self, tmp_path):
        raw = base_config(memory_cap_bytes=1000)
        cfg = hz.validate_config(raw)
        with pytest.raises(hz.ConfigError, match="memory_cap_bytes"):
            hz.sweep(cfg, "solver-mesh", 3, tmp_path)
        assert not (tmp_path / "sweep.csv").exists()

    def test_memory_guard_models_the_largest_grid_level(self, tmp_path):
        # Level 2 of a 3-level grid sweep has 4x the modes, about 54x the field
        # bytes.  The estimate that took the base modes at every level,
        # levels * nodes * 2^(levels-1) * 3 * n^3 * 16 * 2 bytes, let a cap
        # between the two through.  The trajectory holds nodes + 1 bands of
        # the 2/3 rule beside 24 whole fields, and the level before is kept
        # as its trajectory: nodes + 1 bands and u0 on half the modes.
        cfg = hz.validate_config(base_config())
        n, nodes, levels = cfg.box.modes, cfg.solver.num_nodes, 3
        old = levels * nodes * 2 ** (levels - 1) * 3 * n**3 * 16 * 2
        new = hz.estimate_sweep_bytes(cfg, "grid", levels)
        top = 4 * n

        def band(modes):
            return 3 * np.count_nonzero(sp.BoxGrid(cfg.box.size, modes).dealias_keep) * 16

        def field(modes):
            return 3 * modes**2 * (modes // 2 + 1) * 16

        assert new == (nodes + 1) * band(top) + 24 * field(top) + (nodes + 1) * band(top // 2) + field(top // 2)
        cap = (old + new) // 2
        assert old < cap < new
        capped = hz.validate_config(base_config(memory_cap_bytes=cap))
        with pytest.raises(hz.ConfigError, match=f"estimate {new} bytes over the cap {cap}"):
            hz.sweep(capped, "grid", levels, tmp_path)
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("axis", ["solver-mesh", "grid"])
    def test_memory_guard_covers_the_traced_peak(self, tmp_path, axis):
        cfg = hz.validate_config(base_config())
        hz.sweep(cfg, axis, 1, tmp_path)  # any lazy import happens before tracing
        tracemalloc.start()
        try:
            hz.sweep(cfg, axis, 2, tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= hz.estimate_sweep_bytes(cfg, axis, 2)

    @pytest.mark.parametrize("axis", ["solver-mesh", "grid"])
    def test_previous_level_freed_before_next_solve(self, tmp_path, monkeypatch, axis):
        # The guard's estimate counts one level's bands, and on the grid axis
        # the level before on half the modes; a trajectory kept from any
        # other level would add to them.
        solve, refs, held = hz._solve, [], []

        def tracked(config, state):
            held.append([ref() is not None for ref in refs])
            traj = solve(config, state)
            refs.extend([weakref.ref(traj), weakref.ref(traj.bands[-1])])
            return traj

        monkeypatch.setattr(hz, "_solve", tracked)
        hz.sweep(hz.validate_config(base_config()), axis, 3, tmp_path)
        if axis == "grid":
            assert held == [[], [True, True], [False, False, True, True]]
        else:
            assert held == [[], [False, False], [False, False, False, False]]

    def test_grid_sweep_fits_level_differences(self, tmp_path, monkeypatch):
        solve, levels = hz._solve, []

        def kept(config, state):
            levels.append((solve(config, state), state.u0))
            return levels[-1][0]

        monkeypatch.setattr(hz, "_solve", kept)
        lines = hz.sweep(hz.validate_config(base_config()), "grid", 3, tmp_path).read_text().splitlines()
        rows = [line.split(",") for line in lines[2:]]
        assert rows[0][2] == ""
        mesh = [float(r[1]) for r in rows[1:]]
        diffs = [float(r[2]) for r in rows[1:]]
        assert 0.0 < diffs[1] < diffs[0]
        rate = float(lines[0].split("fitted_rate=")[1])
        assert rate == float(np.polyfit(np.log(mesh), np.log(diffs), 1)[0])
        # Each level starts from the base level's initial data, and the
        # difference is taken on the coarser level's modes.
        (y0, u0), *finer = levels
        for (traj, start), prev, diff in zip(finer, [y0] + [t for t, _ in finer], diffs):
            assert np.array_equal(start.coef, sp.resample(u0, start.grid).coef)
            coarse = prev.fields[0].grid
            want = sv.weighted_sup_norm(
                [sp.resample(a, coarse) - sp.resample(b, coarse) for a, b in zip(traj.fields, prev.fields)],
                traj.times,
                traj.config.p,
            )
            assert diff == want

    def test_grid_sweep_doubles_modes(self, tmp_path):
        cfg = hz.validate_config(base_config())
        lines = hz.sweep(cfg, "grid", 2, tmp_path).read_text().splitlines()
        assert [line.split(",")[1] for line in lines[2:]] == ["0.125", "0.0625"]

    def test_solver_mesh_residuals_are_numbers(self, tmp_path):
        cfg = hz.validate_config(base_config())
        lines = hz.sweep(cfg, "solver-mesh", 2, tmp_path).read_text().splitlines()
        cells = [line.split(",")[2] for line in lines[2:]]
        assert len(cells) == 2
        assert all(float(cell) > 0.0 for cell in cells)

    def test_bad_axis(self, tmp_path):
        cfg = hz.validate_config(base_config())
        with pytest.raises(hz.ConfigError, match="axis"):
            hz.sweep(cfg, "time", 2, tmp_path)


def run_cli(*args) -> subprocess.CompletedProcess:
    """Run ``vortexlab.cli`` with ``args`` in a separate process, so that an
    unmapped exception shows as a traceback on stderr."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "vortexlab.cli", *args], env=env, capture_output=True, text=True, timeout=300
    )


class TestCli:
    def write_config(self, tmp_path, raw) -> str:
        p = tmp_path / "config.json"
        p.write_text(json.dumps(raw))
        return str(p)

    def test_config_error_exit_code(self, tmp_path):
        raw = base_config()
        raw["solver"]["p"] = 3.0
        code = cli.main(
            ["gate", "--config", self.write_config(tmp_path, raw), "--out", str(tmp_path / "o")]
        )
        assert code == cli.EXIT_CONFIG

    @pytest.mark.parametrize("command", ["pipeline", "verify"])
    def test_window_needs_two_solver_nodes(self, tmp_path, capsys, command):
        # The window holds rough-grid nodes but a single solver node (t =
        # 0.25 of the graded mesh): refused before any stage runs, where it
        # used to stop verify with a traceback.
        raw = base_config()
        raw["verifier"]["window"] = [0.25, 0.3]
        out = tmp_path / "o"
        code = cli.main([command, "--config", self.write_config(tmp_path, raw), "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "verifier.window" in err and "holds 1 of the 13 solver nodes" in err
        assert not out.exists()
        raw["verifier"]["window"] = [0.25, 0.35]  # t = 0.25 and t = (7/12)^2
        hz.validate_config(raw)

    def test_gate_failure_exit_code(self, tmp_path, capsys):
        raw = base_config(stages=["enhance", "gate"])
        raw["initial_data"]["margin"] = 0.5
        cfgp = self.write_config(tmp_path, raw)
        for command in ("gate", "pipeline"):
            code = cli.main([command, "--config", cfgp, "--out", str(tmp_path / command)])
            assert code == cli.EXIT_GATE
            assert "gate failed: product" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, gate_pass, force, verify_pass, expected",
        [
            ("gate", True, False, None, cli.EXIT_OK),
            ("gate", True, True, None, cli.EXIT_OK),
            ("gate", False, False, None, cli.EXIT_GATE),
            ("gate", False, True, None, cli.EXIT_GATE),
            ("simulate", True, False, None, cli.EXIT_OK),
            ("simulate", True, True, None, cli.EXIT_OK),
            ("simulate", False, False, None, cli.EXIT_GATE),
            ("simulate", False, True, None, cli.EXIT_OK),
            ("pipeline", True, False, True, cli.EXIT_OK),
            ("pipeline", True, False, False, cli.EXIT_VERIFY),
            ("pipeline", True, True, True, cli.EXIT_OK),
            ("pipeline", True, True, False, cli.EXIT_VERIFY),
            ("pipeline", False, False, None, cli.EXIT_GATE),
            ("pipeline", False, True, True, cli.EXIT_OK),
            ("pipeline", False, True, False, cli.EXIT_VERIFY),
        ],
    )
    def test_exit_code_follows_the_verdicts(
        self, tmp_path, monkeypatch, command, gate_pass, force, verify_pass, expected
    ):
        # verify_pass None: verify does not run (the command has no verify
        # stage, or the failed gate stops the pipeline first).
        raw = base_config()
        raw["initial_data"]["margin"] = 10.0 if gate_pass else 0.5
        raw["gate"]["force"] = force
        if verify_pass is False:
            real = vf.transform_identities
            monkeypatch.setattr(vf, "transform_identities", lambda *a: {**real(*a), "pass": False})
        out = tmp_path / "o"
        assert cli.main([command, "--config", self.write_config(tmp_path, raw), "--out", str(out)]) == expected
        assert (out / "verify_report.json").exists() == (verify_pass is not None)

    def test_stale_gate_report_not_read(self, tmp_path):
        raw = base_config(stages=["enhance", "gate"])
        raw["initial_data"]["margin"] = 0.5
        out = str(tmp_path / "o")
        assert cli.main(["pipeline", "--config", self.write_config(tmp_path, raw), "--out", out]) == cli.EXIT_GATE
        raw["stages"] = ["enhance"]
        assert cli.main(["pipeline", "--config", self.write_config(tmp_path, raw), "--out", out]) == cli.EXIT_OK

    def test_stale_verify_report_not_read(self, tmp_path):
        out = tmp_path / "o"
        cfgp = self.write_config(tmp_path, base_config())
        assert cli.main(["pipeline", "--config", cfgp, "--out", str(out)]) == cli.EXIT_OK
        report = out / "verify_report.json"
        report.write_text(json.dumps({**json.loads(report.read_text()), "pass": False}))
        raw = base_config(stages=["enhance", "gate", "simulate"])
        assert cli.main(["pipeline", "--config", self.write_config(tmp_path, raw), "--out", str(out)]) == cli.EXIT_OK

    def test_enhance_and_gate_success(self, tmp_path):
        cfgp = self.write_config(tmp_path, base_config())
        assert cli.main(["enhance", "--config", cfgp, "--out", str(tmp_path / "o")]) == 0
        assert cli.main(["gate", "--config", cfgp, "--out", str(tmp_path / "o")]) == 0
        assert (tmp_path / "o" / "rough_path.bin").exists()
        assert (tmp_path / "o" / "gate_report.json").exists()

    def test_reloaded_rough_path_matches_in_memory(self, tmp_path):
        cfgp = self.write_config(tmp_path, base_config())
        store = str(tmp_path / "A")
        assert cli.main(["enhance", "--config", cfgp, "--out", store]) == 0
        assert cli.main(["simulate", "--config", cfgp, "--out", str(tmp_path / "B"), "--rough-path", store]) == 0
        assert cli.main(["simulate", "--config", cfgp, "--out", str(tmp_path / "C")]) == 0

        def digests(root):
            return {
                str(p.relative_to(root)): hz._digest_file(p) for p in sorted(root.rglob("*")) if p.is_file()
            }

        reloaded, in_memory = digests(tmp_path / "B"), digests(tmp_path / "C")
        assert "trajectory/manifest.json" in in_memory
        assert reloaded == in_memory

    @pytest.mark.parametrize("damage", ["missing", "schema-1", "truncated", "long"])
    def test_unreadable_rough_path_store(self, tmp_path, capsys, damage):
        cfgp = self.write_config(tmp_path, base_config())
        store = tmp_path / "A"
        if damage != "missing":
            assert cli.main(["enhance", "--config", cfgp, "--out", str(store)]) == 0
            header, block = store / "rough_path.json", store / "rough_path.bin"
            if damage == "schema-1":
                header.write_text(json.dumps({**json.loads(header.read_text()), "schema_version": 1}))
            elif damage == "truncated":
                block.write_bytes(block.read_bytes()[: 8 * 100])
            else:
                block.write_bytes(block.read_bytes() + bytes(8))
        args = ["--config", cfgp, "--out", str(tmp_path / "B"), "--rough-path", str(store)]
        assert cli.main(["simulate"] + args) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"cannot read rough-path store {str(store)!r}" in err
        if damage == "schema-1":
            assert "re-run `vortexlab enhance`" in err

    @pytest.mark.parametrize("damage", ["null-channels", "list", "null-modes"])
    def test_malformed_store_header_exit_code(self, tmp_path, damage):
        # Run as a separate process: a malformed header must end in exit 2
        # naming the store, not in a traceback.
        raw = base_config()
        if damage == "null-modes":
            base = tmp_path / "u0"
            header, _ = sp.save_field(sp.SpectralField.zero(sp.BoxGrid(32.0, 8)), base)
            header.write_text(json.dumps({**json.loads(header.read_text()), "modes": None}))
            raw["initial_data"] = {"type": "store", "path": str(base), "norm_target": 0.01}
            args = ["gate", "--config", self.write_config(tmp_path, raw), "--out", str(tmp_path / "B")]
            named = f"initial_data.path: cannot read field store {str(base)!r}"
        else:
            cfgp, store = self.write_config(tmp_path, raw), tmp_path / "A"
            assert cli.main(["enhance", "--config", cfgp, "--out", str(store)]) == 0
            header = store / "rough_path.json"
            fields = json.loads(header.read_text())
            header.write_text(json.dumps({**fields, "channels": None} if damage == "null-channels" else [fields]))
            args = ["simulate", "--config", cfgp, "--out", str(tmp_path / "B"), "--rough-path", str(store)]
            named = f"cannot read rough-path store {str(store)!r}"
        run = run_cli(*args)
        assert run.returncode == cli.EXIT_CONFIG, run.stderr
        assert "Traceback" not in run.stderr
        assert named in run.stderr

    @pytest.mark.parametrize(
        "mismatch, fields",
        [
            (lambda raw: raw["rough_path"].update(steps=512, flavor="stratonovich"), ["steps", "flavor"]),
            (three_channels, ["channels"]),
            (lambda raw: raw["rough_path"].update(horizon=2.0), ["horizon"]),
        ],
        ids=["steps-and-flavor", "channels", "horizon"],
    )
    def test_rough_path_store_must_match_config(self, tmp_path, capsys, mismatch, fields):
        store = str(tmp_path / "A")
        assert cli.main(["enhance", "--config", self.write_config(tmp_path, base_config()), "--out", store]) == 0
        raw = base_config(seed=43)
        mismatch(raw)
        cfgp = self.write_config(tmp_path, raw)
        code = cli.main(["simulate", "--config", cfgp, "--out", str(tmp_path / "B"), "--rough-path", store])
        assert code == cli.EXIT_CONFIG
        problems = [line for line in capsys.readouterr().err.splitlines() if line.startswith("  - ")]
        assert [p.split(":")[0] for p in problems] == [f"  - rough_path.{f}" for f in fields]
        assert all(repr(store) in p for p in problems)

    def test_rough_path_store_seed_not_compared(self, tmp_path):
        store = str(tmp_path / "A")
        assert cli.main(["enhance", "--config", self.write_config(tmp_path, base_config()), "--out", store]) == 0
        cfgp = self.write_config(tmp_path, base_config(seed=43))
        assert cli.main(["gate", "--config", cfgp, "--out", str(tmp_path / "B")]) == 0
        assert cli.main(["gate", "--config", cfgp, "--out", store]) == 0
        reused = json.loads((tmp_path / "A" / "gate_report.json").read_text())
        resampled = json.loads((tmp_path / "B" / "gate_report.json").read_text())
        assert reused != resampled

    def test_stage_reload_checks_store(self, tmp_path, capsys):
        out = str(tmp_path / "o")
        assert cli.main(["enhance", "--config", self.write_config(tmp_path, base_config()), "--out", out]) == 0
        raw = base_config()
        raw["rough_path"]["flavor"] = "stratonovich"
        code = cli.main(["gate", "--config", self.write_config(tmp_path, raw), "--out", out])
        assert code == cli.EXIT_CONFIG
        assert "rough_path.flavor" in capsys.readouterr().err

    def test_non_contraction_exit_code(self, tmp_path, monkeypatch):
        def boom(config, outdir, state):
            raise sv.NonContractionError((1.2, 1.5, 2.0))

        monkeypatch.setitem(hz.STAGE_FUNCS, "simulate", boom)
        raw = base_config(stages=["simulate"])
        code = cli.main(
            ["simulate", "--config", self.write_config(tmp_path, raw), "--out", str(tmp_path / "o")]
        )
        assert code == cli.EXIT_NO_CONTRACTION

    def test_non_finite_integrand_exit_code(self, tmp_path):
        # Run as a separate process.  Drift constants this large overflow the
        # transformation: exp(-e) is inf where exp(e) is 0, and their product
        # is NaN.  That used to end in a traceback blaming the 2/3 rule.
        raw = base_config()
        raw["noise"]["lambda"] = [40, -45]
        raw["gate"]["force"] = True
        run = run_cli("pipeline", "--config", self.write_config(tmp_path, raw), "--out", str(tmp_path / "o"))
        assert run.returncode == cli.EXIT_NO_CONTRACTION, run.stderr
        assert "Traceback" not in run.stderr
        assert "RuntimeWarning" not in run.stderr
        assert "Duhamel integrand at solver node 8 (t = 0.445312) is not finite" in run.stderr
        assert "2/3" not in run.stderr

    def test_sweep_command(self, tmp_path):
        cfgp = self.write_config(tmp_path, base_config())
        code = cli.main(
            ["sweep", "--config", cfgp, "--out", str(tmp_path / "s"), "--axis", "solver-mesh", "--levels", "2"]
        )
        assert code == 0
        assert (tmp_path / "s" / "sweep.csv").exists()

    def test_sweep_memory_cap_exit_code(self, tmp_path):
        cfgp = self.write_config(tmp_path, base_config(memory_cap_bytes=1000))
        out = tmp_path / "s"
        run = run_cli("sweep", "--config", cfgp, "--out", str(out), "--axis", "grid", "--levels", "2")
        assert run.returncode == cli.EXIT_CONFIG, run.stderr
        assert "Traceback" not in run.stderr
        assert "memory_cap_bytes: sweep estimate" in run.stderr
        assert not out.exists()

    @pytest.mark.parametrize("where", ["noise.kernels[0].path", "initial_data.path"])
    def test_field_store_on_another_box(self, tmp_path, capsys, where):
        # A modes-8 store under a modes-16 box: the kernel used to stop the
        # gate with a traceback, and the initial field was gated on its own
        # box before simulate refused it.
        base = tmp_path / "field"
        sp.save_field(sp.random_field(sp.BoxGrid(32.0, 8), 3, 2.0), base)
        raw = base_config()
        raw["box"]["modes"] = 16
        if where == "initial_data.path":
            raw["initial_data"] = {"type": "store", "path": str(base), "norm_target": 0.01}
        else:
            raw["noise"]["kernels"][0] = {"type": "store", "path": str(base)}
        cfgp = self.write_config(tmp_path, raw)
        assert cli.main(["gate", "--config", cfgp, "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"{where}: cannot read field store {str(base)!r}" in err
        assert "a field of 8 modes on size 32.0, the box has 16 modes on size 32.0" in err
        assert not (tmp_path / "o" / "gate_report.json").exists()

    def test_grid_sweep_with_stored_kernel_refused(self, tmp_path, capsys):
        # A stored kernel holds samples on the config's box only.  The grid
        # sweep used to solve level 0, then fail on level 1 with a message
        # about a 16-mode box.
        base = tmp_path / "kernel"
        sp.save_field(sp.SpectralField.zero(sp.BoxGrid(32.0, 8)), base)
        raw = base_config()
        raw["noise"]["kernels"][0] = {"type": "store", "path": str(base)}
        raw["noise"]["global_mode"] = False
        cfgp = self.write_config(tmp_path, raw)

        def sweep(axis, levels, out):
            args = ["--axis", axis, "--levels", str(levels)]
            return cli.main(["sweep", "--config", cfgp, "--out", str(tmp_path / out)] + args)

        assert sweep("grid", 2, "s") == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "noise.kernels[0].path: a stored kernel holds samples on the config's box (8 modes)" in err
        assert "grid axis" in err and "16 modes" not in err
        assert not (tmp_path / "s").exists()
        assert sweep("grid", 1, "one") == cli.EXIT_OK
        assert sweep("solver-mesh", 2, "mesh") == cli.EXIT_OK

    def test_sweep_partition_axis_exit_code(self, tmp_path, capsys):
        cfgp = self.write_config(tmp_path, base_config())
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "--config", cfgp, "--out", str(tmp_path / "s"), "--axis", "partition"])
        assert exc.value.code == cli.EXIT_CONFIG
        assert "invalid choice: 'partition'" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize(
        "keys, value, field",
        [
            (("noise", "lambda"), [0.1, -0.1], "noise.global_mode: dominance margins must all be positive, got ["),
            (("noise", "kernels", 0), {"type": "store", "path": "no-such-dir/field"}, "noise.kernels[0].path"),
            (("initial_data",), {"type": "store", "path": "no-such-dir/field", "norm_target": 0.01}, "initial_data.path"),
            (("initial_data",), {"type": "single_mode", "k": [0, 0, 0], "norm_target": 0.01}, "initial_data:"),
        ],
        ids=["dominance", "kernel-store", "initial-store", "zero-field"],
    )
    def test_builder_failure_exit_code(self, tmp_path, capsys, keys, value, field):
        raw = with_value(keys, value)
        cfgp = self.write_config(tmp_path, raw)
        assert cli.main(["gate", "--config", cfgp, "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG
        assert field in capsys.readouterr().err

    def test_thread_variable_changes_nothing(self, tmp_path, monkeypatch):
        # Verify runs on one thread whatever VORTEX_THREADS holds; a value that
        # is no thread count neither fails the run nor changes a byte.
        cfgp = self.write_config(tmp_path, base_config())
        digests = {}
        for value in (None, "abc"):
            if value is None:
                monkeypatch.delenv("VORTEX_THREADS", raising=False)
            else:
                monkeypatch.setenv("VORTEX_THREADS", value)
            out = tmp_path / str(value)
            assert cli.main(["pipeline", "--config", cfgp, "--out", str(out)]) == cli.EXIT_OK
            manifest = json.loads((out / "run_manifest.json").read_text())
            digests[value] = {
                name: d for stage in manifest["stages"] for name, d in stage["artifacts"].items()
            }
        assert digests["abc"] == digests[None] and len(digests[None]) > 0

    def test_unknown_key_exit_code(self, tmp_path, capsys):
        raw = base_config()
        raw["solver"]["num_node"] = 8
        cfgp = self.write_config(tmp_path, raw)
        assert cli.main(["pipeline", "--config", cfgp, "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG
        assert "solver.num_node: unknown key" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_malformed_config_exit_code(self, tmp_path, capsys):
        cfgp = self.write_config(tmp_path, [base_config()])
        assert cli.main(["gate", "--config", cfgp, "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG
        assert "need a JSON object" in capsys.readouterr().err

    def test_verify_without_trajectory_store(self, tmp_path, capsys):
        cfgp = self.write_config(tmp_path, base_config(stages=["verify"]))
        for command in ("verify", "pipeline"):
            out = tmp_path / command
            code = cli.main([command, "--config", cfgp, "--out", str(out)])
            assert code == cli.EXIT_CONFIG
            err = capsys.readouterr().err
            assert f"no trajectory store at {out / 'trajectory'}" in err
            assert not (out / "rough_path.json").exists()

    @pytest.mark.parametrize("flavor", ["ito", "stratonovich"])
    def test_simulate_then_verify_matches_pipeline(self, tmp_path, flavor):
        raw = base_config()
        raw["rough_path"]["flavor"] = flavor
        cfgp = self.write_config(tmp_path, raw)
        whole, split = tmp_path / "whole", tmp_path / "split"
        assert cli.main(["pipeline", "--config", cfgp, "--out", str(whole)]) == 0
        assert cli.main(["simulate", "--config", cfgp, "--out", str(split)]) == 0
        assert cli.main(["verify", "--config", cfgp, "--out", str(split)]) == 0
        for name in ("verify_report.json", "refinement.csv"):
            assert (split / name).read_bytes() == (whole / name).read_bytes()

    @pytest.mark.parametrize(
        "mismatch, field",
        [
            (lambda raw: raw["rough_path"].update(steps=512), "rough_path"),
            # The first node field is read onto the config's box and refused.
            (lambda raw: raw["box"].update(modes=12), "cannot read trajectory store"),
            (lambda raw: raw["solver"].update(tolerance=1e-8), "solver"),
            (lambda raw: raw["solver"].update(p=1.7), "solver"),
            (lambda raw: raw["solver"].update(max_iterations=40), "solver"),
            # The store was solved on the path of seed 42, verify samples 43's.
            (lambda raw: raw.update(seed=43), "seed"),
        ],
        ids=["steps", "modes", "tolerance", "p", "max_iterations", "seed"],
    )
    def test_trajectory_store_must_match_config(self, tmp_path, capsys, mismatch, field):
        out = tmp_path / "o"
        assert cli.main(["simulate", "--config", self.write_config(tmp_path, base_config()), "--out", str(out)]) == 0
        raw = base_config()
        mismatch(raw)
        cfgp = self.write_config(tmp_path, raw)
        store = str(out / "trajectory")
        code = cli.main(["verify", "--config", cfgp, "--out", str(tmp_path / "v"), "--traj", store])
        assert code == cli.EXIT_CONFIG
        problems = [line for line in capsys.readouterr().err.splitlines() if line.startswith("  - ")]
        assert len(problems) == 1 and re.match(rf"  - {re.escape(field)}[: ]", problems[0])
        assert repr(store) in problems[0]
        assert not (tmp_path / "v" / "verify_report.json").exists()

    def test_verify_reuses_stores_under_other_verify_exponents(self, tmp_path):
        # rough_path.alpha, solver.epsilon and gate.c_star change neither
        # stored path nor stored trajectory, so verify reads the stores of
        # another value and writes the report a fresh pipeline writes.
        stores = tmp_path / "stores"
        assert cli.main(["pipeline", "--config", self.write_config(tmp_path, base_config()), "--out", str(stores)]) == 0
        raw = base_config()
        raw["rough_path"]["alpha"] = 0.45
        raw["solver"]["epsilon"] = 0.04
        cfgp = self.write_config(tmp_path, raw)
        fresh, reused = tmp_path / "fresh", tmp_path / "reused"
        assert cli.main(["pipeline", "--config", cfgp, "--out", str(fresh)]) == 0
        args = ["--traj", str(stores / "trajectory"), "--rough-path", str(stores)]
        assert cli.main(["verify", "--config", cfgp, "--out", str(reused), *args]) == 0
        for name in ("verify_report.json", "refinement.csv"):
            assert (reused / name).read_bytes() == (fresh / name).read_bytes()
        # The exponents do change the report: its quotients are taken at them.
        checks = [json.loads((d / "verify_report.json").read_text())["checks"] for d in (fresh, stores)]
        assert checks[0]["integrand_continuity"] != checks[1]["integrand_continuity"]
        assert checks[0]["rough_weak_form"] != checks[1]["rough_weak_form"]
        raw = base_config()
        raw["gate"]["c_star"] = 0.02
        cfgp = self.write_config(tmp_path, raw)
        assert cli.main(["verify", "--config", cfgp, "--out", str(tmp_path / "c"), *args]) == 0
        assert (tmp_path / "c" / "refinement.csv").read_bytes() == (stores / "refinement.csv").read_bytes()

    def test_stores_with_older_header_keys_still_load(self, tmp_path):
        # Stores written while the rough path carried alpha and the solver
        # record carried alpha, horizon, c_star, epsilon and q hold those
        # keys besides the current ones; verify reads past them.
        cfgp = self.write_config(tmp_path, base_config())
        stores = tmp_path / "stores"
        assert cli.main(["pipeline", "--config", cfgp, "--out", str(stores)]) == 0
        header = stores / "rough_path.json"
        header.write_text(json.dumps({**json.loads(header.read_text()), "alpha": 0.4}))
        manifest = stores / "trajectory" / "manifest.json"
        stored = json.loads(manifest.read_text())
        assert stored["solver"] == {"p": 1.8, "num_nodes": 12, "tolerance": 1e-9, "max_iterations": 50}
        stored["solver"].update(alpha=0.4, horizon=1.0, c_star=0.01, epsilon=0.05, q=9.0 / 7.0)
        manifest.write_text(json.dumps(stored))
        args = ["--traj", str(stores / "trajectory"), "--rough-path", str(stores)]
        assert cli.main(["verify", "--config", cfgp, "--out", str(tmp_path / "v"), *args]) == 0
        assert (tmp_path / "v" / "verify_report.json").read_bytes() == (stores / "verify_report.json").read_bytes()

    def test_store_solved_at_another_tolerance_refused(self, tmp_path, capsys):
        cfgp = self.write_config(tmp_path, base_config())
        out = tmp_path / "o"
        assert cli.main(["simulate", "--config", cfgp, "--out", str(out)]) == 0
        manifest = out / "trajectory" / "manifest.json"
        stored = json.loads(manifest.read_text())
        stored["solver"]["tolerance"] = 1e-8
        manifest.write_text(json.dumps(stored))
        assert cli.main(["verify", "--config", cfgp, "--out", str(out)]) == cli.EXIT_CONFIG
        problems = [line for line in capsys.readouterr().err.splitlines() if line.startswith("  - ")]
        assert len(problems) == 1 and problems[0].startswith("  - solver: ")
        assert "tolerance 1e-08" in problems[0]
        assert not (out / "verify_report.json").exists()

    @pytest.mark.parametrize(
        "key", ["iterations", "node_indices", "times", "distances", "ratios", "converged"]
    )
    def test_trajectory_manifest_key_missing(self, tmp_path, capsys, key):
        cfgp = self.write_config(tmp_path, base_config())
        out = tmp_path / "o"
        assert cli.main(["simulate", "--config", cfgp, "--out", str(out)]) == 0
        manifest = out / "trajectory" / "manifest.json"
        stored = json.loads(manifest.read_text())
        del stored[key]
        manifest.write_text(json.dumps(stored))
        assert cli.main(["verify", "--config", cfgp, "--out", str(out)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"at {str(manifest)!r}: {key!r}" in err
        assert "node_0" not in err

    def test_trajectory_node_off_the_heat_flow_refused(self, tmp_path):
        # Outside the 2/3-rule band Picard leaves every node at the heat flow
        # of u0, so a stored node that differs there (here at k = (0, 0, 3)
        # and its conjugate mirror, a real field still) cannot come from it.
        cfgp = self.write_config(tmp_path, base_config())
        out = tmp_path / "o"
        assert cli.main(["simulate", "--config", cfgp, "--out", str(out)]) == 0
        store = out / "trajectory"
        node = store / "node_000005.bin"
        n = 8
        coef = np.frombuffer(node.read_bytes(), dtype="<c16").reshape(3, n, n, n).copy()
        delta = 1e-3 * np.abs(coef).max() * (1 + 1j)
        coef[0, n // 2, n // 2, n // 2 + 3] += delta  # fftshifted full spectrum
        coef[0, n // 2, n // 2, n // 2 - 3] += np.conj(delta)
        node.write_bytes(coef.tobytes())
        run = run_cli("verify", "--config", cfgp, "--out", str(tmp_path / "v"), "--traj", str(store))
        assert run.returncode == cli.EXIT_CONFIG, run.stderr
        assert "Traceback" not in run.stderr
        assert f"cannot read trajectory store {str(store)!r} at {str(store / 'node_000005')!r}" in run.stderr
        assert "outside the 2/3-rule band" in run.stderr
        assert not (tmp_path / "v" / "verify_report.json").exists()

    def test_trajectory_store_cut_to_one_node_refused(self, tmp_path):
        # Run as a separate process.  A manifest cut to node 0 used to pass
        # the loader, and verify then stopped with a traceback from
        # Trajectory.coef_at: the node mesh comes from the config.
        cfgp = self.write_config(tmp_path, base_config())
        out = tmp_path / "o"
        assert cli.main(["simulate", "--config", cfgp, "--out", str(out)]) == 0
        store = out / "trajectory"
        manifest = store / "manifest.json"
        stored = json.loads(manifest.read_text())
        for key in ("node_indices", "times", "fields"):
            stored[key] = stored[key][:1]
        manifest.write_text(json.dumps(stored))
        run = run_cli("verify", "--config", cfgp, "--out", str(tmp_path / "v"), "--traj", str(store))
        assert run.returncode == cli.EXIT_CONFIG, run.stderr
        assert "Traceback" not in run.stderr
        assert f"rough_path: the node mesh of the trajectory store {str(store)!r} (size 1)" in run.stderr
        assert not (tmp_path / "v" / "verify_report.json").exists()

    @pytest.mark.parametrize(
        "key, value, reason",
        [
            ("iterations", 3, "the stored iterations, ratios and converged do not follow"),
            ("ratios", [0.5], "the stored iterations, ratios and converged do not follow"),
            ("converged", False, "the stored iterations, ratios and converged do not follow"),
            ("distances", [0.0, 1e-12], "float division by zero"),
        ],
        ids=["iterations", "ratios", "converged", "zero-distance"],
    )
    def test_trajectory_record_must_follow_from_distances(self, tmp_path, capsys, key, value, reason):
        # The trajectory keeps the distances only; the rest of the stored
        # record must follow from them.
        cfgp = self.write_config(tmp_path, base_config())
        out = tmp_path / "o"
        assert cli.main(["simulate", "--config", cfgp, "--out", str(out)]) == 0
        manifest = out / "trajectory" / "manifest.json"
        stored = json.loads(manifest.read_text())
        assert stored[key] != value
        stored[key] = value
        manifest.write_text(json.dumps(stored))
        assert cli.main(["verify", "--config", cfgp, "--out", str(out)]) == cli.EXIT_CONFIG
        assert f"at {str(manifest)!r}: {reason}" in capsys.readouterr().err

    @pytest.mark.parametrize("damage", ["missing", "truncated", "non-hermitian"])
    def test_unreadable_trajectory_store(self, tmp_path, capsys, damage):
        cfgp = self.write_config(tmp_path, base_config())
        out = tmp_path / "o"
        assert cli.main(["simulate", "--config", cfgp, "--out", str(out)]) == 0
        node = out / "trajectory" / "node_000003.bin"
        if damage == "missing":
            node.unlink()
        elif damage == "truncated":
            node.write_bytes(node.read_bytes()[:-8])
        else:
            flat = np.frombuffer(node.read_bytes(), dtype="<f8").copy()
            flat[2 * 100 + 1] += 1e-6 * np.abs(flat).max()  # one coefficient
            node.write_bytes(flat.tobytes())
        assert cli.main(["verify", "--config", cfgp, "--out", str(out)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"cannot read trajectory store {str(out / 'trajectory')!r}" in err
        assert "node_000003" in err

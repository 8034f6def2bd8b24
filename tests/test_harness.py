"""Config validation, pipeline stages, manifests, stores and CLI exit codes."""

from __future__ import annotations

import json
import re
import weakref

import numpy as np
import pytest

from conftest import artifact_digests, divergence_defect, outside_band_defect, reference_prefix
from vortexlab import cli
from vortexlab import harness as hz
from vortexlab import roughpath as rpm
from vortexlab import solver as sv
from vortexlab import spectral as sp
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
        "keys, value, field", MALFORMED, ids=[case[2] for case in MALFORMED]
    )
    def test_malformed_value_is_config_error(self, keys, value, field):
        with pytest.raises(hz.ConfigError, match=re.escape(field)):
            hz.validate_config(with_value(keys, value))

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

    def test_window_validation(self):
        raw = base_config()
        raw["verifier"]["window"] = [0.0, 0.5]
        with pytest.raises(hz.ConfigError, match="window"):
            hz.validate_config(raw)


class TestBuilders:
    def test_noise_and_initial_data(self):
        cfg = hz.validate_config(base_config())
        noise = hz.make_noise(cfg)
        assert noise.channels == 2 and noise.require_dominance
        u0 = hz.make_initial_data(cfg, eta_sup=2.0)
        assert sp.lp_norm(u0, 1.5) == pytest.approx(0.01 / (10.0 * 2.0), rel=1e-10)
        assert divergence_defect(u0) < 1e-12

    def test_single_mode_initial_data(self):
        raw = base_config()
        raw["initial_data"] = {"type": "single_mode", "k": [2, 1, 0], "norm_target": 0.005}
        cfg = hz.validate_config(raw)
        u0 = hz.make_initial_data(cfg)
        assert sp.lp_norm(u0, 1.5) == pytest.approx(0.005, rel=1e-10)

    def test_margin_requires_eta(self):
        cfg = hz.validate_config(base_config())
        with pytest.raises(ValueError, match="gate bound"):
            hz.make_initial_data(cfg)


class TestPipeline:
    def test_empty_stage_list(self, tmp_path):
        cfg = hz.validate_config(base_config(stages=[]))
        manifest = hz.run_pipeline(cfg, tmp_path)
        assert manifest.stages == []
        assert (tmp_path / "run_manifest.json").exists()

    def test_enhance_only_deterministic(self, tmp_path):
        cfg = hz.validate_config(base_config(stages=["enhance"]))
        a = artifact_digests(hz.run_pipeline(cfg, tmp_path / "a"))
        b = artifact_digests(hz.run_pipeline(cfg, tmp_path / "b"))
        assert a == b and len(a) == 2

    def test_full_small_pipeline(self, tmp_path):
        cfg = hz.validate_config(base_config())
        manifest = hz.run_pipeline(cfg, tmp_path)
        assert [s["name"] for s in manifest.stages] == [
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
        defects, check = [], sp.SpectralField.hermitian_defect

        def recorded(field):
            defects.append(check(field))
            return defects[-1]

        monkeypatch.setattr(sp, "_DEBUG", True)
        monkeypatch.setattr(sp.SpectralField, "hermitian_defect", recorded)
        hz.run_pipeline(hz.validate_config(base_config()), tmp_path)
        assert len(defects) > 500 and max(defects) == 0.0
        bad = np.zeros((3, 8, 8, 5), complex)
        bad[0, 1, 2, -1] = 1.0
        with pytest.raises(AssertionError, match="Hermitian"):
            sp.SpectralField(sp.BoxGrid(32.0, 8), bad)

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
        hz.run_pipeline(cfg, tmp_path)
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert report["checks"]["bracket_identities"]["pass"]

    def test_trajectory_store_roundtrip(self, tmp_path):
        cfg = hz.validate_config(base_config(stages=["enhance", "gate", "simulate"]))
        state = hz.RunState()
        hz.stage_enhance(cfg, tmp_path, state)
        hz.stage_gate(cfg, tmp_path, state)
        hz.stage_simulate(cfg, tmp_path, state)
        back = hz.load_trajectory(tmp_path / "trajectory", cfg.time_grid)
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
        assert built == {} and "prefix" not in vars(state.rough.enhancement)
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
        with pytest.raises(sv.GateNotPassedError):
            hz.run_pipeline(cfg, tmp_path)
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert [s["name"] for s in manifest["stages"]] == ["enhance", "gate"]


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
    @pytest.mark.parametrize("phis", [1, 3])
    def test_one_nonlinearity_call_per_window_node(self, tmp_path, monkeypatch, phis):
        raw = base_config()
        raw["verifier"]["phis"] = phis
        cfg = hz.validate_config(raw)
        state = hz.RunState()
        hz.stage_simulate(cfg, tmp_path, state)
        calls = count_flux_calls(monkeypatch)
        hz.stage_verify(cfg, tmp_path, state)
        # One flux evaluation per rough-grid node in the window (the
        # observable), plus one per solver node in it (the nonlinearity of
        # the integrand continuity check).
        rough_nodes = cfg.time_grid.window_indices(*cfg.window).size
        solver_nodes = state.trajectory.node_window(*cfg.window).size
        assert solver_nodes >= 2
        assert len(calls) == rough_nodes + solver_nodes

    def test_nonlinear_drift_reported_per_phi(self, tmp_path):
        raw = base_config()
        raw["verifier"]["phis"] = 2
        hz.run_pipeline(hz.validate_config(raw), tmp_path)
        report = json.loads((tmp_path / "verify_report.json").read_text())
        for entry in report["checks"]["rough_weak_form"]["per_phi"]:
            assert entry["nonlinear_drift"] > 0.0
            resolved = entry["nonlinear_drift"] > entry["floor_residual"]
            assert entry["nonlinear_resolved"] is resolved

    def test_thresholds_reported_next_to_values(self, tmp_path):
        hz.run_pipeline(hz.validate_config(base_config()), tmp_path)
        checks = json.loads((tmp_path / "verify_report.json").read_text())["checks"]
        ident = checks["transform_identities"]
        assert ident["threshold"] == hz.TRANSFORM_IDENTITY_THRESHOLD == 1e-12
        assert ident["pass"] is (
            max(ident["reciprocal_defect"], ident["commutation_defect"]) < ident["threshold"]
        )
        for entry in checks["rough_weak_form"]["per_phi"]:
            assert entry["rate_rms_max"] == hz.RATE_RMS_MAX == 0.5
            assert entry["quotient_growth_max"] == hz.QUOTIENT_GROWTH_MAX == 2.0
            assert entry["pass"] is (
                entry["rate_slope"] > 0.0
                and entry["rate_rms"] < entry["rate_rms_max"]
                and entry["quotient_stable"]
            )
        taylor = checks["transform_taylor"]
        assert taylor["exponent_min"] == hz.TAYLOR_EXPONENT_MIN == 1.0
        assert taylor["pass"] is (taylor["exponent"] > taylor["exponent_min"])


class TestSweep:
    def test_partition_sweep_single_level(self, tmp_path):
        cfg = hz.validate_config(base_config())
        path = hz.sweep(cfg, "partition", 1, tmp_path)
        lines = path.read_text().splitlines()
        assert lines[1] == "level,mesh,residual,weighted_norm"
        assert len(lines) == 3

    def test_memory_guard(self, tmp_path):
        raw = base_config(memory_cap_bytes=1000)
        cfg = hz.validate_config(raw)
        with pytest.raises(MemoryError, match="cap"):
            hz.sweep(cfg, "solver-mesh", 3, tmp_path)

    def test_memory_guard_models_the_largest_grid_level(self, tmp_path):
        # Level 2 of a 3-level grid sweep has 4x the modes, about 54x the field
        # bytes.  The estimate that took the base modes at every level,
        # levels * nodes * 2^(levels-1) * 3 * n^3 * 16 * 2 bytes, let a cap
        # between the two through.  Picard holds one list of half spectra and
        # one of their 2/3-rule bands.
        cfg = hz.validate_config(base_config())
        n, nodes, levels = cfg.box.modes, cfg.solver.num_nodes, 3
        old = levels * nodes * 2 ** (levels - 1) * 3 * n**3 * 16 * 2
        new = hz.estimate_sweep_bytes(cfg, "grid", levels)
        top, cut = 4 * n, (4 * n) // 3
        assert new == (nodes + 1) * (top**2 * (top // 2 + 1) + (2 * cut + 1) ** 2 * (cut + 1)) * 48
        cap = (old + new) // 2
        assert old < cap < new
        capped = hz.validate_config(base_config(memory_cap_bytes=cap))
        with pytest.raises(MemoryError, match="cap"):
            hz.sweep(capped, "grid", levels, tmp_path)
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("axis", ["solver-mesh", "grid"])
    def test_previous_level_freed_before_next_solve(self, tmp_path, monkeypatch, axis):
        # The guard's estimate counts one level's Picard lists; a trajectory
        # kept from the level before would add three quarters of them again.
        solve, refs, held = hz._solve, [], []

        def tracked(config, state):
            held.append([ref() is not None for ref in refs])
            traj = solve(config, state)
            refs.extend([weakref.ref(traj), weakref.ref(traj.fields[-1].coef)])
            return traj

        monkeypatch.setattr(hz, "_solve", tracked)
        hz.sweep(hz.validate_config(base_config()), axis, 3, tmp_path)
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

    def test_gate_failure_exit_code(self, tmp_path):
        raw = base_config()
        raw["initial_data"]["margin"] = 0.5
        code = cli.main(
            ["gate", "--config", self.write_config(tmp_path, raw), "--out", str(tmp_path / "o")]
        )
        assert code == cli.EXIT_GATE

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

    @pytest.mark.parametrize(
        "mismatch, fields",
        [
            (lambda raw: raw["rough_path"].update(steps=512, flavor="stratonovich"), ["steps", "flavor"]),
            (three_channels, ["channels"]),
        ],
        ids=["steps-and-flavor", "channels"],
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
        raw["rough_path"]["alpha"] = 0.45
        code = cli.main(["gate", "--config", self.write_config(tmp_path, raw), "--out", out])
        assert code == cli.EXIT_CONFIG
        assert "rough_path.alpha" in capsys.readouterr().err

    def test_non_contraction_exit_code(self, tmp_path, monkeypatch):
        def boom(config, outdir, state):
            raise sv.NonContractionError((1.2, 1.5, 2.0))

        monkeypatch.setitem(cli.__dict__, "stage_simulate", boom)
        raw = base_config(stages=["simulate"])
        code = cli.main(
            ["simulate", "--config", self.write_config(tmp_path, raw), "--out", str(tmp_path / "o")]
        )
        assert code == cli.EXIT_NO_CONTRACTION

    def test_sweep_command(self, tmp_path):
        cfgp = self.write_config(tmp_path, base_config())
        code = cli.main(
            ["sweep", "--config", cfgp, "--out", str(tmp_path / "s"), "--axis", "partition", "--levels", "2"]
        )
        assert code == 0
        assert (tmp_path / "s" / "sweep.csv").exists()

    @pytest.mark.parametrize(
        "keys, value, field",
        [
            (("noise", "lambda"), [0.1, -0.1], "noise.global_mode"),
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

    def test_malformed_config_exit_code(self, tmp_path, capsys):
        cfgp = self.write_config(tmp_path, [base_config()])
        assert cli.main(["gate", "--config", cfgp, "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG
        assert "need a JSON object" in capsys.readouterr().err

    def test_verify_without_trajectory_store(self, tmp_path, capsys):
        cfgp = self.write_config(tmp_path, base_config())
        code = cli.main(["verify", "--config", cfgp, "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_CONFIG
        assert str(tmp_path / "o" / "trajectory") in capsys.readouterr().err

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

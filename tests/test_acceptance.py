"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Desk scale throughout: 16^3 box of side 32, two driving channels, 4096 fine
time steps over a unit horizon.  Every tolerance is pinned here; a failure
prints its criterion line as FAIL before the assert fires.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    artifact_digests,
    deterministic_exponents,
    full_spectrum,
    linear_part,
    norm_product_bound,
    pair_tensor,
    provider_through,
    refinement_rate,
    solenoidal_field,
    subsample,
    transform_at,
    weak_form_entry,
)
from vortexlab import harness as hz
from vortexlab import roughpath as rpm
from vortexlab import solver as sv
from vortexlab import spectral as sp
from vortexlab import transform as tr
from vortexlab import verifier as vf



def desk_config() -> dict:
    """The README desk config: the path, box and noise of the session
    fixtures ``rp_ito``, ``box16`` and ``noise_pair``."""
    return {
        "seed": 42,
        "box": {"modes": 16, "size": 32.0},
        "rough_path": {
            "channels": 2,
            "horizon": 1.0,
            "steps": 4096,
            "alpha": 0.4,
            "flavor": "ito",
        },
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
        "solver": {
            "p": 1.8,
            "epsilon": 0.05,
            "num_nodes": 32,
            "tolerance": 1e-10,
            "max_iterations": 50,
        },
        "verifier": {
            "phis": 2,
            "phi_seed": 5,
            "window": [0.25, 0.5625],
            "partition_levels": 6,
            "taylor_levels": 5,
        },
        "stages": ["enhance", "gate", "simulate", "verify"],
    }


def report(number: int, name: str, ok: bool, detail: str, started: float) -> None:
    status = "PASS" if ok else "FAIL"
    elapsed = time.time() - started
    print(f"ACCEPTANCE {number:2d} [{status}] {name}: {detail} ({elapsed:.1f}s)")
    assert ok, f"criterion {number} ({name}): {detail}"


@pytest.fixture(scope="module")
def pair_provider(noise_pair, brownian, box16):
    return tr.TransformProvider(noise_pair, brownian, box16)


@pytest.fixture(scope="module")
def solve_small(small_u0, pair_provider):
    made = {}

    def get(num_nodes: int) -> sv.Trajectory:
        if num_nodes not in made:
            cfg = sv.SolverConfig(num_nodes=num_nodes, tolerance=1e-12)
            made[num_nodes] = sv.picard_solve(cfg, small_u0, pair_provider)
        return made[num_nodes]

    return get


def test_criterion_1_chen_relation(rp_ito):
    started = time.time()
    grid64 = rpm.TimeGrid(1.0, 64)
    rp64 = rpm.enhance(rpm.sample_brownian(7, 2, grid64), rpm.ITO)
    triples = np.array(list(itertools.combinations(range(65), 3)), dtype=np.int64)
    defect64 = rpm.chen_defect(rp64, triples[:, 0], triples[:, 1], triples[:, 2])
    rng = np.random.default_rng(0)
    tri = np.sort([rng.choice(rp_ito.times.size, 3, replace=False) for _ in range(100)], axis=1)
    d = rpm.chen_defect(rp_ito, tri[:, 0], tri[:, 1], tri[:, 2])
    worst = max(float(np.abs(defect64).max()), float(np.abs(d).max()))
    elapsed = time.time() - started
    ok = worst == 0.0 and elapsed < 1.0
    report(
        1,
        "Chen relation",
        ok,
        f"max defect {worst!r} over {triples.shape[0]} exhaustive + 100 random triples",
        started,
    )


def test_criterion_2_flavor_identities(brownian, rp_ito, rp_strat):
    started = time.time()
    steps = brownian.grid.steps
    sym_worst = 0.0
    for u in range(steps):
        vs = np.arange(u + 1, steps + 1)
        tensors = rp_strat.levy_area_pairs(np.full(vs.shape, u), vs)
        db = rp_strat.values[vs] - rp_strat.values[u]
        defect = 0.5 * (tensors + np.transpose(tensors, (0, 2, 1))) - 0.5 * db[
            :, :, None
        ] * db[:, None, :]
        sym_worst = max(sym_worst, float(np.abs(defect).max()))
    inc = brownian.increments
    rng = np.random.default_rng(1)
    diag_ok = True
    worst_ratio = 0.0
    for _ in range(20):
        u, v = np.sort(rng.choice(steps + 1, 2, replace=False))
        while v - u < 16:
            u, v = np.sort(rng.choice(steps + 1, 2, replace=False))
        length = float(brownian.grid.times[v] - brownian.grid.times[u])
        qv = np.sum(inc[u:v] ** 2, axis=0)
        tol = 5.0 * math.sqrt(2.0 * length * length / (v - u))
        dev = float(np.abs(qv - length).max())
        worst_ratio = max(worst_ratio, dev / tol)
        diag_ok = diag_ok and dev < tol
    elapsed = time.time() - started
    ok = sym_worst == 0.0 and diag_ok and elapsed < 5.0
    report(
        2,
        "flavor identities",
        ok,
        f"symmetric-part defect {sym_worst!r} on all pairs, "
        f"worst diagonal deviation at {worst_ratio:.2f} of tolerance",
        started,
    )


def test_criterion_3_compensated_sum_exactness(rp_ito):
    started = time.time()
    idx = np.arange(1024, 3073)
    times = rp_ito.times[idx]
    K = idx.size
    const = rpm.ControlledPath(idx, times, np.ones((K, 1)), np.zeros((K, 1, 2)))
    ident = rpm.ControlledPath(
        idx, times, rp_ito.values[idx], np.tile(np.eye(2)[None], (K, 1, 1))
    )
    rng = np.random.default_rng(2)
    exact = True
    target_const = rp_ito.values[3072] - rp_ito.values[1024]
    target_ident = (
        rp_ito.values[1024][:, None] * (rp_ito.values[3072] - rp_ito.values[1024])[None, :]
        + pair_tensor(rp_ito, 1024, 3072)
    )
    for _ in range(10):
        interior = np.sort(rng.choice(np.arange(1025, 3072), 41, replace=False))
        part = np.concatenate([[1024], interior, [3072]])
        exact &= np.array_equal(rpm.rough_integral(const, rp_ito, part)[0], target_const)
        exact &= np.array_equal(rpm.rough_integral(ident, rp_ito, part), target_ident)
    b1 = rp_ito.values[idx, :1]
    deriv = np.zeros((K, 1, 2))
    deriv[:, 0, 0] = np.cos(b1[:, 0])
    smooth = rpm.ControlledPath(idx, times, np.sin(b1), deriv)
    fit = refinement_rate(smooth, rp_ito, levels=5)
    elapsed = time.time() - started
    ok = exact and fit.slope >= 0.2 and fit.rms_residual < 0.5 and elapsed < 10.0
    report(
        3,
        "compensated-sum exactness",
        ok,
        f"exact cases {'bit-equal' if exact else 'DIFFER'}, smooth slope "
        f"{fit.slope:.2f} (>= 0.2), fit rms {fit.rms_residual:.2f} (< 0.5)",
        started,
    )


def test_criterion_4_spectral_calculus(box16):
    started = time.time()
    worst_identity = 0.0
    for grid in (box16, sp.BoxGrid(32.0, 32)):
        u = solenoidal_field(grid, 6)
        back = sp.curl(sp.biot_savart(u))
        worst_identity = max(
            worst_identity,
            float(np.abs(back.coef - u.coef).max() / np.abs(u.coef).max()),
        )
    g = box16
    L = g.size
    x = g.coordinates
    phys = np.zeros((3, 16, 16, 16))
    phys[2] = np.cos(2 * math.pi * x[0] / L)
    mode = sp.to_spectral(g, phys)
    spectral = sp.biot_savart(mode).to_physical()
    pts = g.coordinates.reshape(3, -1).T
    uv = phys.reshape(3, -1).T
    oracle = np.zeros_like(pts)
    for i in range(pts.shape[0]):
        r = pts[i][None, :] - pts
        r = (r + L / 2) % L - L / 2
        d2 = np.sum(r * r, axis=1)
        keep = (d2 > 0) & (d2 <= (L / 2) ** 2)
        w = np.zeros_like(d2)
        w[keep] = d2[keep] ** -1.5
        oracle[i] = -np.sum(w[:, None] * np.cross(r, uv), axis=0) / (4 * math.pi)
    oracle = oracle.T.reshape(spectral.shape) * g.cell_volume
    kernel_rel = float(
        np.sqrt(np.sum((spectral - oracle) ** 2) / np.sum(spectral ** 2))
    )
    u = sp.random_field(box16, 12, 2.0)
    parseval_rel = abs(
        sp.lp_norm(u, 2) - math.sqrt(np.sum(np.abs(full_spectrum(u.coef)) ** 2) * box16.volume)
    ) / sp.lp_norm(u, 2)
    w_field = solenoidal_field(box16, 10)
    m1 = sp.vorticity_nonlinearity(w_field)
    m2 = sp.vorticity_nonlinearity(2.0 * w_field)
    homogeneity = float(np.abs(m2.coef - 4.0 * m1.coef).max() / np.abs(m1.coef).max())
    elapsed = time.time() - started
    ok = (
        worst_identity < 1e-12
        and kernel_rel < 0.1
        and parseval_rel < 1e-10
        and homogeneity < 1e-12
        and elapsed < 30.0
    )
    report(
        4,
        "spectral calculus",
        ok,
        f"curl-inverse {worst_identity:.1e}, kernel oracle {kernel_rel:.3f} (< 0.1), "
        f"Parseval {parseval_rel:.1e}, homogeneity {homogeneity:.1e}",
        started,
    )


def test_criterion_5_transform_calculus(noise_pair, box16, dirac16):
    started = time.time()
    beta = np.array([0.3, -0.2])
    forward, inverse = provider_through(noise_pair, box16, beta, 0.5).at_index(1)
    recip = float(np.abs(forward * inverse - 1).max())
    rev, _ = transform_at(noise_pair, box16, beta, 0.5, order=[1, 0])
    comm = float(np.abs(forward - rev).max() / np.abs(forward).max())
    scalar_noise = tr.NoiseModel((0.6,), (None,))
    scalar, _ = provider_through(scalar_noise, box16, np.array([0.25]), 0.4).at_index(1)
    closed = math.exp(0.6 * 0.25 - 0.2 * 0.36)
    scalar_defect = float(np.abs(scalar - closed).max() / closed)
    rng = np.random.default_rng(3)
    dominance = True
    for _ in range(100):
        b = norm_product_bound(noise_pair, rng.normal(size=2), rng.uniform(0, 2))
        dominance &= b.upper >= b.exact_l2 * (1 - 1e-12)
    signs_match = True
    for lam in np.linspace(3.0, 10.0, 20):
        single = tr.NoiseModel((float(lam),), (dirac16,))
        margin = tr.dominance_margins(single)[0]
        exponent = deterministic_exponents(single)[0]
        signs_match &= (margin > 0) == (exponent > 0)
    elapsed = time.time() - started
    ok = (
        recip < 1e-12
        and comm < 1e-12
        and scalar_defect < 1e-13
        and dominance
        and signs_match
        and elapsed < 10.0
    )
    report(
        5,
        "transform calculus",
        ok,
        f"reciprocal {recip:.1e}, commutation {comm:.1e}, scalar {scalar_defect:.1e}, "
        f"dominance {dominance}, threshold signs {signs_match}",
        started,
    )


def test_criterion_6_gate_and_contraction(
    tmp_path, box16, noise_pair, brownian, rp_ito, pair_provider
):
    started = time.time()
    series = tr.bound_series(noise_pair, brownian)
    u0 = solenoidal_field(box16, 7)
    c_star = 0.01
    u0_small = u0 * (c_star / (10.0 * series.sup) / sp.lp_norm(u0, 1.5))
    gate = tr.smallness_gate(u0_small, series.sup, c_star, noise_pair)
    cfg = sv.SolverConfig(num_nodes=24, tolerance=1e-16, max_iterations=15)
    traj = sv.picard_solve(cfg, u0_small, pair_provider)
    small_ok = (
        gate.passed
        and traj.distances[-1] < cfg.tolerance
        and traj.iterations <= 15
        and len(traj.ratios) >= 1
        and all(r < 0.8 for r in traj.ratios)
        and all(r < 0.8 for r in traj.ratios[2:])
    )
    u0_big = u0 * (100.0 * c_star / series.sup / sp.lp_norm(u0, 1.5))
    gate_big = tr.smallness_gate(u0_big, series.sup, c_star, noise_pair)
    assert not gate_big.passed
    # The violation runs through the harness, which owns the gate policy.
    raw = desk_config()
    raw["solver"].update(num_nodes=24, tolerance=1e-16, max_iterations=30)
    config = hz.validate_config(raw)

    def violation_state() -> hz.RunState:
        return hz.RunState(rough=rp_ito, noise=noise_pair, gate_report=gate_big, u0=u0_big)

    try:
        hz.stage_simulate(config, tmp_path / "unforced", violation_state())
    except hz.GateNotPassedError:
        refused = not (tmp_path / "unforced" / "trajectory").exists()
    else:
        refused = False
    outcome = f"refused without gate.force {refused}; forced run "
    loud = False
    try:
        hz.stage_simulate(replace(config, force=True), tmp_path / "forced", violation_state())
        manifest = json.loads((tmp_path / "forced" / "trajectory" / "manifest.json").read_text())
        loud = manifest["gate_forced"] is True
        outcome += f"converged with override flag ({manifest['iterations']} iterations)"
    except sv.NonContractionError as exc:
        loud = True
        outcome += f"NonContraction raised ({exc})"
    except sv.MaxIterationsError:
        loud = True
        outcome += "MaxIterations raised"
    elapsed = time.time() - started
    ok = small_ok and refused and loud and elapsed < 300.0
    report(
        6,
        "gate and contraction",
        ok,
        f"margin-10 run: {traj.iterations} iterations, ratios "
        f"{[f'{r:.1e}' for r in traj.ratios]}; violation: {outcome}",
        started,
    )


def test_criterion_7_mild_weak_equivalence(box16, small_u0, pair_provider):
    started = time.time()
    phis = sp.bump_fields(box16, 5, 99)
    meshes = (32, 64, 128)
    residuals = []
    for nodes in meshes:
        cfg = sv.SolverConfig(num_nodes=nodes, tolerance=1e-12)
        traj = sv.picard_solve(cfg, small_u0, pair_provider)
        residuals.append(sv.weak_residual(traj, pair_provider, phis))
    rows = np.array(residuals)
    x = np.log(np.array(meshes, dtype=float))
    slopes = []
    for k in range(len(phis)):
        slope = -np.polyfit(x, np.log(rows[:, k]), 1)[0]
        slopes.append(float(slope))
    elapsed = time.time() - started
    ok = all(0.7 <= s <= 1.3 for s in slopes) and elapsed < 600.0
    report(
        7,
        "mild-weak equivalence",
        ok,
        f"first-order slopes {[f'{s:.2f}' for s in slopes]} (all within 1 +- 0.3)",
        started,
    )


def test_criterion_8_weak_formulation_certificate(
    box16, brownian, rp_ito, small_u0, pair_provider
):
    started = time.time()
    # Linear closed-form case: scalar channels, single mode, no quadratic term.
    scalar_noise = tr.NoiseModel((0.4, -0.3), (None, None))
    provider = tr.TransformProvider(scalar_noise, brownian, box16)
    x = box16.coordinates
    phys = np.zeros((3, 16, 16, 16))
    phys[2] = np.cos(2 * math.pi * (2 * x[0] + x[1]) / box16.size)
    u0 = sp.to_spectral(box16, phys)
    u0 = u0 * (2.0 / sp.lp_norm(u0, 2))
    cfg = sv.SolverConfig(num_nodes=48, tolerance=1e-12)
    lin_traj = sv.picard_solve(
        cfg, u0, provider, nonlinearity=sv.zero_nonlinearity
    )
    phi = sp.bump_fields(box16, 1, 5)[0]
    lin_obs = linear_part(vf.build_observable(lin_traj, provider, [phi], (0.25, 0.75))[0])
    lin, lin_ladder = weak_form_entry(lin_obs, rp_ito, levels=9)
    linear_ok = (
        lin["final_residual"] < 1e-3
        and lin["rate_slope"] > 0.0
        and lin_ladder[-1][1] < lin_ladder[0][1]
    )
    # Full nonlinear small-data run under joint mesh/partition refinement.
    window = (0.25, 0.5625)
    finals = []
    mesh_sizes = (16, 32, 64)
    for li, nodes in enumerate(mesh_sizes):
        cfg = sv.SolverConfig(num_nodes=nodes, tolerance=1e-12)
        traj = sv.picard_solve(cfg, small_u0, pair_provider)
        obs = vf.build_observable(traj, pair_provider, [phi], window)[0]
        entry, _ = weak_form_entry(obs, rp_ito, levels=6 + li)
        finals.append(entry["final_residual"])
    joint = rpm.fit_rate([1.0 / m for m in mesh_sizes], finals)
    cfg = sv.SolverConfig(num_nodes=32, tolerance=1e-12)
    traj = sv.picard_solve(cfg, small_u0, pair_provider)
    obs = vf.build_observable(traj, pair_provider, [phi], (0.25, 0.75))[0]
    full = vf.remainder_quotients([obs], rp_ito, 0.4)[0][0]
    half = vf.remainder_quotients([subsample(obs, 2)], rp_ito, 0.4)[0][0]
    quarter = vf.remainder_quotients([subsample(obs, 4)], rp_ito, 0.4)[0][0]
    stable = all(
        a <= 2.0 * b for a, b in zip(full.remainder, half.remainder)
    ) and all(a <= 2.0 * b for a, b in zip(half.remainder, quarter.remainder))
    elapsed = time.time() - started
    ok = (
        linear_ok
        and joint.slope > 0.0
        and joint.rms_residual < 0.5
        and stable
        and elapsed < 1200.0
    )
    report(
        8,
        "weak-formulation certificate",
        ok,
        f"linear final {lin['final_residual']:.1e} (< 1e-3), joint slope "
        f"{joint.slope:.2f} (> 0, rms {joint.rms_residual:.2f}), quotients "
        f"{'stable' if stable else 'UNSTABLE'}",
        started,
    )


def test_criterion_9_transform_taylor_expansion(
    pair_provider, noise_pair, box16, brownian, fine_grid
):
    started = time.time()
    phi = sp.bump_fields(box16, 1, 5)[0]
    # Intervals from node steps // 4 = 1024, 1024 steps long and shrinking.
    fit = vf.taylor_rate(pair_provider, phi, levels=5)
    vals = brownian.values.copy()
    vals[1024:2049] = brownian.values[1024]
    frozen_provider = tr.TransformProvider(noise_pair, rpm.DrivingPath(fine_grid, vals), box16)
    frozen = vf.taylor_rate(frozen_provider, phi, levels=5)
    elapsed = time.time() - started
    ok = fit["exponent"] > 1.0 and abs(frozen["exponent"] - 2.0) <= 0.2 and elapsed < 60.0
    report(
        9,
        "transform Taylor expansion",
        ok,
        f"Brownian exponent {fit['exponent']:.2f} (> 1), frozen-increment exponent "
        f"{frozen['exponent']:.2f} (2 +- 0.2)",
        started,
    )


def test_criterion_10_determinism_regression(tmp_path):
    started = time.time()
    config = hz.validate_config(desk_config())
    first = artifact_digests(hz.run_pipeline(config, tmp_path / "a", hz.RunState()))
    second = artifact_digests(hz.run_pipeline(config, tmp_path / "b", hz.RunState()))
    verify = json.loads((tmp_path / "a" / "verify_report.json").read_text())
    elapsed = time.time() - started
    ok = first == second and len(first) > 0 and verify["pass"]
    report(
        10,
        "determinism regression",
        ok,
        f"{len(first)} artifacts byte-identical across two reruns; "
        f"verify report pass={verify['pass']}",
        started,
    )

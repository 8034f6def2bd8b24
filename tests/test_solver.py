"""Graded-mesh fixed-point solver, weighted norms and weak-form residuals."""

from __future__ import annotations

import logging
import math
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    FieldTrajectory,
    field_at,
    node_times,
    outside_band_defect,
    reference_picard,
    solenoidal_field,
    transform_at,
    weighted_distance,
    weighted_sup,
)
from vortexlab import harness as hz
from vortexlab import solver as sv
from vortexlab import spectral as sp
from vortexlab import transform as tr


def direct_sums(integrands, times, exponent):
    """Oracle: every Duhamel sum rebuilt from its own prefix weights."""
    sums = []
    for m in range(1, times.size):
        w = sv.quadrature_weights(times[: m + 1], exponent)
        acc = sp.SpectralField.zero(integrands[1].grid)
        for j in range(1, m + 1):
            if w[j] != 0.0:
                acc = acc + w[j] * sp.heat_semigroup(
                    integrands[j], float(times[m] - times[j])
                )
        sums.append(acc)
    return sums


def weighted_holder_seminorm(
    traj: sv.Trajectory | FieldTrajectory, p: float, epsilon: float, window: tuple[float, float]
) -> float:
    """Oracle: discrete weighted time-regularity seminorm over node pairs.

    Pairs u < v inside [start, end] contribute
    u^(2e+1-3/(2p)) |dy|_p / (v-u)^e + u^(2e+3/2-3/(2p)) sum_j |d D_j y|_p / (v-u)^e.
    Windows touching t = 0 are rejected: the weights are calibrated to the
    blow-up of the solution there.
    """
    start, end = window
    if not (0.0 < start < end):
        raise ValueError(f"window must satisfy 0 < start < end, got {window}")
    cap = 0.5 - 3.0 / (4.0 * p)
    if not (0.0 < epsilon < cap):
        raise ValueError(f"epsilon must lie in (0, {cap}), got {epsilon}")
    pos = traj.node_window(start, end)
    if pos.size < 2:
        raise ValueError("window contains fewer than two trajectory nodes")
    wa = 2.0 * epsilon + 1.0 - 3.0 / (2.0 * p)
    wb = 2.0 * epsilon + 1.5 - 3.0 / (2.0 * p)
    best = 0.0
    derivs = {j: [sp.partial_derivative(traj.fields[j], a) for a in range(3)] for j in pos}
    for ii, j in enumerate(pos[:-1]):
        u = float(traj.times[j])
        for k in pos[ii + 1 :]:
            dt = float(traj.times[k]) - u
            dy = sp.lp_norm(traj.fields[k] - traj.fields[j], p)
            dd = sum(sp.lp_norm(derivs[k][a] - derivs[j][a], p) for a in range(3))
            best = max(best, (u ** wa * dy + u ** wb * dd) / dt ** epsilon)
    return best


@pytest.fixture(scope="module")
def provider(noise_pair, brownian, box16):
    return tr.TransformProvider(noise_pair, brownian, box16)


@pytest.fixture(scope="module")
def scalar_provider(noise_scalar, brownian, box16):
    return tr.TransformProvider(noise_scalar, brownian, box16)


@pytest.fixture(scope="module")
def small_traj(small_u0, provider):
    cfg = sv.SolverConfig(num_nodes=32, tolerance=1e-12)
    return sv.picard_solve(cfg, small_u0, provider)


class TestConfig:
    def test_frozen_weight_arithmetic(self):
        cfg = sv.SolverConfig(p=1.8)
        assert 1.0 - 3.0 / (2.0 * cfg.p) == pytest.approx(1.0 / 6.0)
        assert 1.5 * (1.0 - 1.0 / cfg.p) == pytest.approx(2.0 / 3.0)
        # The cap on verify's epsilon (``harness.validate_config``).
        assert 0.5 - 3.0 / (4.0 * cfg.p) == pytest.approx(1.0 / 12.0)

    def test_epsilon_cap_enforced(self):
        # solver.epsilon is verify's; the config refuses it at or past 1/2 - 3/(4p).
        raw = {"seed": 0, "noise": {"lambda": [0.8], "kernels": [{"type": "zero"}]}}
        raw.update(rough_path={"channels": 1}, initial_data={"type": "random"})
        assert hz.validate_config({**raw, "solver": {"p": 1.8, "epsilon": 0.05}}).epsilon == 0.05
        for p, epsilon in ((1.8, 0.1), (1.8, 0.5 - 3.0 / 7.2), (1.9, 0.11), (1.8, 0.0)):
            with pytest.raises(hz.ConfigError) as err:
                hz.validate_config({**raw, "solver": {"p": p, "epsilon": epsilon}})
            cap = 0.5 - 3.0 / (4.0 * p)
            assert err.value.problems == [f"solver.epsilon: must lie strictly in (0, {cap}), got {epsilon}"]
        assert sorted(f.name for f in fields(sv.SolverConfig)) == [
            "max_iterations", "num_nodes", "p", "tolerance"
        ]

    def test_p_range(self):
        for bad in (1.5, 2.0, 1.2, 2.5):
            with pytest.raises(ValueError, match="p"):
                sv.SolverConfig(p=bad)


class TestQuadrature:
    def test_zero_integrand(self):
        times = (np.arange(9) / 8.0) ** 2
        w = sv.quadrature_weights(times, -0.8)
        assert w @ np.zeros(9) == 0.0
        assert w[0] == 0.0 and w[-1] == 0.0

    def test_matched_power_is_exact(self):
        # closed-form power-integral oracle: the rule integrates the pure
        # power exactly, so a matched-weight inverse square root gives 2*sqrt(t)
        times = (np.arange(257) / 256.0) ** 2
        w = sv.quadrature_weights(times, -0.5)
        assert abs(w[1:] @ times[1:] ** -0.5 - 2.0) / 2.0 < 1e-3

    def test_mismatched_power_converges_first_order(self):
        a = 3.0 / 1.8 - 2.5
        errs = []
        for j in (256, 512):
            times = (np.arange(j + 1) / j) ** 2
            w = sv.quadrature_weights(times, a)
            errs.append(abs(w[1:] @ times[1:] ** -0.5 - 2.0) / 2.0)
        assert errs[0] < 1e-3
        assert errs[0] / errs[1] > 1.8

    def test_weights_built_from_rule_terms(self):
        times = (np.arange(7) / 6.0) ** 2
        first, cells = sv.product_rule(times, -0.8)
        w = sv.quadrature_weights(times, -0.8)
        assert first == pytest.approx(times[1] / 0.2, rel=1e-14)
        assert cells.size == times.size - 2
        assert w[1] == first + cells[0]
        assert np.array_equal(w[2:-1], cells[1:])

    def test_non_integrable_exponent_rejected(self):
        with pytest.raises(ValueError, match="integrable"):
            sv.quadrature_weights(np.array([0.0, 0.1, 0.4]), -1.0)

    def test_weights_need_zero_start(self):
        with pytest.raises(ValueError):
            sv.quadrature_weights(np.array([0.1, 0.2]), -0.5)


class TestDuhamelSums:
    @pytest.mark.parametrize("nodes", [2, 3, 65])
    def test_recursion_equals_direct_sum(self, box16, nodes):
        times = (np.arange(nodes) / (nodes - 1)) ** 2
        a = 3.0 / 1.8 - 2.5
        integrands = [sp.random_field(box16, 100 + j, 2.0) for j in range(nodes)]
        got = list(sv.duhamel_sums(integrands.__getitem__, times, a))
        want = direct_sums(integrands, times, a)
        assert len(got) == len(want) == nodes - 1
        for s, d in zip(got, want):
            assert sp.spectral_l2(s - d) <= 1e-13 * sp.spectral_l2(d)

    def test_picard_semigroup_calls_linear_in_nodes(
        self, monkeypatch, provider, small_u0
    ):
        calls = []

        def counted(u, t):
            calls.append(t)
            return sp.heat_semigroup(u, t)

        monkeypatch.setattr(sv, "heat_semigroup", counted)
        cfg = sv.SolverConfig(num_nodes=32, tolerance=1e-12)
        traj = sv.picard_solve(cfg, small_u0, provider)
        assert traj.iterations >= 2
        assert len(calls) <= (traj.iterations + 1) * traj.times.size


class TestPicard:
    def test_zero_data_fixed_point(self, box16, provider):
        cfg = sv.SolverConfig(num_nodes=16)
        traj = sv.picard_solve(cfg, sp.SpectralField.zero(box16), provider)
        assert traj.iterations == 1
        assert all(np.abs(f.coef).max() == 0.0 for f in traj.fields)

    def test_killed_nonlinearity_returns_heat_flow(self, box16, provider):
        u0 = solenoidal_field(box16, 33)
        cfg = sv.SolverConfig(num_nodes=16)
        traj = sv.picard_solve(
            cfg, u0, provider, nonlinearity=sv.zero_nonlinearity
        )
        assert traj.iterations == 1
        for j in (3, 9, 16):
            exact = sp.heat_semigroup(u0, float(traj.times[j]))
            assert np.array_equal(traj.fields[j].coef, exact.coef)

    def test_non_finite_integrand_refused(self, box16, provider):
        # A NaN inside the band would otherwise flow into the iterate, and an
        # infinity outside it would be blamed on the 2/3 rule.
        u0 = solenoidal_field(box16, 33)
        cfg = sv.SolverConfig(num_nodes=16)

        def nan_inside(u):
            g = sp.vorticity_nonlinearity(u).coef.copy()
            g[0, 1, 1, 1] = np.nan
            return sp.SpectralField(u.grid, g)

        infinite = lambda u: sp.SpectralField(u.grid, np.full_like(u.coef, np.inf))  # noqa: E731
        for nonlinearity in (nan_inside, infinite):
            with np.errstate(invalid="ignore"), pytest.raises(
                sv.NonFiniteIntegrandError, match=r"solver node 1 \(t = [0-9.e-]+\) is not finite"
            ):
                sv.picard_solve(cfg, u0, provider, nonlinearity=nonlinearity)

    def test_full_band_nonlinearity_refused(self, box16, provider):
        # The identity keeps every mode, so the integrand leaves the 2/3 band
        # that Picard holds the iterate on; it must not be truncated silently.
        u0 = solenoidal_field(box16, 33)
        cfg = sv.SolverConfig(num_nodes=16)
        with pytest.raises(ValueError, match=r"solver node 1 .*2/3 rule"):
            sv.picard_solve(cfg, u0, provider, nonlinearity=lambda u: u)
        traj = sv.picard_solve(cfg, u0, provider, nonlinearity=sv.zero_nonlinearity)
        for j, t in enumerate(traj.times):
            assert np.array_equal(traj.fields[j].coef, sp.heat_semigroup(u0, float(t)).coef)

    def test_iterate_is_heat_flow_outside_band(self, small_traj):
        assert small_traj.iterations >= 2
        assert outside_band_defect(small_traj) == 0.0

    def test_one_nonlinearity_call_per_node_and_iteration(self, small_u0, provider):
        calls = []

        def counted(u):
            calls.append(1)
            return sp.vorticity_nonlinearity(u)

        cfg = sv.SolverConfig(num_nodes=16, tolerance=1e-12)
        traj = sv.picard_solve(cfg, small_u0, provider, nonlinearity=counted)
        assert traj.iterations >= 2
        # The Duhamel sums read the integrand at the interior nodes only.
        assert len(calls) == traj.iterations * (traj.times.size - 2)

    def test_logs_each_iteration(self, small_u0, provider, caplog):
        cfg = sv.SolverConfig(num_nodes=16, tolerance=1e-12)
        with caplog.at_level(logging.INFO, logger="vortexlab.solver"):
            traj = sv.picard_solve(cfg, small_u0, provider)
        records = [r for r in caplog.records if r.name == "vortexlab.solver"]
        assert traj.iterations >= 2
        assert len(records) == traj.iterations
        assert all(r.levelno == logging.INFO for r in records)
        for k, record in enumerate(records):
            message = record.getMessage()
            assert message.startswith(f"picard iteration {k + 1}: distance {traj.distances[k]:.6e}")
            assert (", ratio " in message) == (k >= 1)
            assert re.search(rf"; exact node norms \d+ of {traj.times.size - 1}$", message)

    def test_duhamel_integrand_is_inverse_transformed_nonlinearity(
        self, small_traj, noise_pair, brownian, box16, provider
    ):
        j, y = int(small_traj.node_indices[7]), small_traj.fields[7]
        forward, inverse = transform_at(noise_pair, box16, brownian.values[j], float(node_times(brownian.grid)[j]))
        expect = inverse * sp.vorticity_nonlinearity(sp.SpectralField(box16, forward * y.coef)).coef
        assert np.array_equal(sv.duhamel_integrand(provider, j, y).coef, expect)

    def test_small_data_contracts(self, small_traj):
        assert small_traj.distances[-1] < small_traj.config.tolerance
        assert small_traj.iterations <= 15
        assert all(r < 0.8 for r in small_traj.ratios)

    def test_fixed_point_property(self, small_traj, provider):
        # one extra application of the Duhamel map moves the trajectory by
        # less than twice the stop tolerance in the weighted norm
        cfg = small_traj.config
        times = small_traj.times
        y0 = small_traj.fields[0]
        integrands = [
            sv.duhamel_integrand(provider, j, y)
            for j, y in zip(small_traj.node_indices, small_traj.fields)
        ]
        sums = direct_sums(integrands, times, cfg.singular_exponent)
        new_fields = [y0] + [
            sp.heat_semigroup(y0, float(t)) + acc for t, acc in zip(times[1:], sums)
        ]
        moved = weighted_distance(new_fields, list(small_traj.fields), times, cfg.p)
        assert moved < 2.0 * cfg.tolerance

    def test_initial_scaling_exact_and_norm_stable(self, provider, small_u0):
        cfg = sv.SolverConfig(num_nodes=16, tolerance=1e-12)
        ratios = []
        for c in (1.0, 0.5, 0.25):
            traj = sv.picard_solve(cfg, c * small_u0, provider)
            first = sp.heat_semigroup(c * small_u0, float(traj.times[5]))
            direct = c * sp.heat_semigroup(small_u0, float(traj.times[5]))
            assert np.array_equal(first.coef, direct.coef)
            norm = sv.weighted_sup_norm(traj.fields, traj.times, cfg.p)
            ratios.append(norm / (c * sp.lp_norm(small_u0, 1.5)))
        spread = max(ratios) / min(ratios)
        assert spread < 1.05

    def test_huge_data_fails_loudly(self, box16, provider):
        u0 = solenoidal_field(box16, 34)
        u0 = u0 * (2e4 / sp.lp_norm(u0, 1.5))
        cfg = sv.SolverConfig(num_nodes=8, tolerance=1e-12, max_iterations=30)
        with pytest.raises(sv.NonContractionError):
            sv.picard_solve(cfg, u0, provider)

    def test_max_iterations_raised(self, provider, small_u0):
        cfg = sv.SolverConfig(num_nodes=8, tolerance=1e-30, max_iterations=2)
        with pytest.raises(sv.MaxIterationsError):
            sv.picard_solve(cfg, small_u0, provider)


class TestStreamingPicard:
    @pytest.mark.parametrize(
        "scale, tolerance, killed, iterations",
        [
            (1.0, 1e-9, False, 1),
            (100.0, 1e-9, False, 2),
            (100.0, 1e-12, False, 3),
            (1000.0, 1e-12, True, 1),
        ],
        ids=["one", "two", "three", "zero_nonlinearity"],
    )
    def test_matches_list_based_loop_bit_for_bit(
        self, fine_grid, small_u0, provider, scale, tolerance, killed, iterations
    ):
        cfg = sv.SolverConfig(num_nodes=16, tolerance=tolerance)
        nonlinearity = sv.zero_nonlinearity if killed else sp.vorticity_nonlinearity
        u0 = scale * small_u0
        got = sv.picard_solve(cfg, u0, provider, nonlinearity=nonlinearity)
        want = reference_picard(cfg, fine_grid, u0, provider, nonlinearity)
        assert got.iterations == want.iterations == iterations
        assert got.distances == want.distances
        assert got.ratios == want.ratios
        assert len(got.fields) == len(want.fields)
        for a, b in zip(got.fields, want.fields):
            assert a.coef.tobytes() == b.coef.tobytes()

    def test_peak_memory_is_two_field_lists(self, fine_grid, small_u0, noise_pair, brownian, box16):
        # A provider of its own, so that the bound covers everything the
        # solve allocates.  The list-based loop (``reference_picard``) peaks
        # near 100 fields on these 17 nodes.
        provider = tr.TransformProvider(noise_pair, brownian, box16)
        cfg = sv.SolverConfig(num_nodes=16, tolerance=1e-12)
        sv.solver_node_indices(cfg, fine_grid)  # any lazy import happens before tracing
        tracemalloc.start()
        try:
            traj = sv.picard_solve(cfg, small_u0, provider)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traj.iterations >= 2
        assert peak <= (2 * traj.times.size + 8) * small_u0.coef.nbytes

    def test_peak_memory_is_one_field_list_and_one_band_list(
        self, fine_grid, small_u0, noise_pair, brownian, box16
    ):
        # The bound of a heat-flow field list beside a list of 2/3 bands,
        # 726 of the 2,304 stored modes per component at modes 16; the one
        # field list stays well below it.  Two field lists (2 * 65 fields)
        # would exceed this bound.
        provider = tr.TransformProvider(noise_pair, brownian, box16)
        cfg = sv.SolverConfig(num_nodes=64, tolerance=1e-12)
        sv.solver_node_indices(cfg, fine_grid)  # any lazy import happens before tracing
        tracemalloc.start()
        try:
            traj = sv.picard_solve(cfg, small_u0, provider)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        nodes = traj.times.size
        keep = box16.dealias_keep
        bound = (nodes * (1 + np.count_nonzero(keep) / keep.size) + 12) * small_u0.coef.nbytes
        assert nodes == 65 and traj.iterations >= 2
        assert bound < 2 * nodes * small_u0.coef.nbytes
        assert peak <= bound

    def test_peak_memory_is_one_field_list(
        self, fine_grid, small_u0, noise_pair, brownian, box16
    ):
        # The iterate is one list of M + 1 fields, and each node's heat-flow
        # band is recomputed when it is needed.  A heat-flow list beside a
        # list of 2/3 bands holds about 1.3 M fields.
        provider = tr.TransformProvider(noise_pair, brownian, box16)
        cfg = sv.SolverConfig(num_nodes=128, tolerance=1e-12)
        sv.solver_node_indices(cfg, fine_grid)  # any lazy import happens before tracing
        tracemalloc.start()
        try:
            traj = sv.picard_solve(cfg, small_u0, provider)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        m = traj.times.size - 1
        assert m >= 120 and traj.iterations >= 2
        assert peak <= (m + 16) * small_u0.coef.nbytes

    def test_peak_memory_is_one_band_list(
        self, fine_grid, small_u0, noise_pair, brownian, box16
    ):
        # The iterate is u0 and one 2/3 band per node, 726 of the 2,304
        # stored modes per component at modes 16, and a node's field is
        # formed only while its integrand is evaluated.  One field list
        # (M + 1 fields) exceeds this bound.
        provider = tr.TransformProvider(noise_pair, brownian, box16)
        cfg = sv.SolverConfig(num_nodes=128, tolerance=1e-12)
        sv.solver_node_indices(cfg, fine_grid)  # any lazy import happens before tracing
        tracemalloc.start()
        try:
            traj = sv.picard_solve(cfg, small_u0, provider)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        m, field = traj.times.size - 1, small_u0.coef.nbytes
        band = traj.bands[1].nbytes
        assert band == 3 * np.count_nonzero(box16.dealias_keep) * 16
        bound = (m + 1) * band + 16 * field
        assert m >= 120 and traj.iterations >= 2
        assert bound < (m + 1) * field
        assert peak <= bound

    def test_forms_one_field_per_integrand(self, small_u0, provider, monkeypatch):
        # Picard forms node m's field only to evaluate its integrand.
        real, formed, calls = sv.heat_flow_with_band, [], []

        def counted(u0, t, band):
            formed.append(t)
            return real(u0, t, band)

        def nonlinearity(u):
            calls.append(1)
            return sp.vorticity_nonlinearity(u)

        monkeypatch.setattr(sv, "heat_flow_with_band", counted)
        cfg = sv.SolverConfig(num_nodes=16, tolerance=1e-12)
        traj = sv.picard_solve(cfg, small_u0, provider, nonlinearity=nonlinearity)
        assert traj.iterations >= 2
        assert len(formed) == len(calls) == traj.iterations * (traj.times.size - 2)
        assert formed == [float(t) for t in traj.times[1:-1]] * traj.iterations

    def test_memory_bounds_hold_in_a_fresh_interpreter(self):
        # A tracemalloc bound that holds only once earlier tests have made
        # numpy's lazy imports fails here.
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             __file__, "-k", "peak_memory"],
            cwd=Path(__file__).resolve().parents[1],
            env=dict(os.environ),
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert run.returncode == 0, run.stdout[-3000:] + run.stderr[-3000:]
        assert re.search(r"\b4 passed\b", run.stdout)

    def test_distance_evaluates_few_node_norms(
        self, monkeypatch, small_u0, provider, caplog
    ):
        calls = []
        exact = sv._weighted_node_norm

        def counted(y, t, p):
            calls.append(t)
            return exact(y, t, p)

        monkeypatch.setattr(sv, "_weighted_node_norm", counted)
        cfg = sv.SolverConfig(num_nodes=64, tolerance=1e-12)
        with caplog.at_level(logging.INFO, logger="vortexlab.solver"):
            traj = sv.picard_solve(cfg, small_u0, provider)
        nodes = traj.times.size - 1
        assert nodes == 64 and traj.iterations >= 2
        assert len(calls) <= traj.iterations * nodes / 4
        logged = [
            int(re.search(r"exact node norms (\d+) of 64$", r.getMessage()).group(1))
            for r in caplog.records
            if r.name == "vortexlab.solver"
        ]
        assert len(logged) == traj.iterations and sum(logged) == len(calls)

    def test_coef_at_writes_field_at_bit_for_bit(self, small_traj):
        times = small_traj.times
        at = [float(times[0]), float(times[5]), 0.5 * float(times[5] + times[6]), 0.61, 1.0]
        shape = small_traj.fields[0].coef.shape
        out = np.full((len(at),) + shape, np.nan, complex)
        got = small_traj.coef_at(np.array(at), out, np.full(shape, np.nan, complex))
        assert got is out
        for row, t in zip(out, at):
            assert row.tobytes() == field_at(small_traj, t).coef.tobytes()

    def test_coef_at_forms_each_node_once(self, small_traj, monkeypatch):
        # Increasing times form each node they read once, however many
        # times fall in its cells.
        real, formed = sv.heat_flow_with_band, []

        def counted(u0, t, band):
            formed.append(t)
            return real(u0, t, band)

        monkeypatch.setattr(sv, "heat_flow_with_band", counted)
        times = small_traj.times
        at = np.linspace(times[2], times[-1], 257)
        shape = small_traj.u0.coef.shape
        small_traj.coef_at(at, np.empty((at.size,) + shape, complex), np.empty(shape, complex))
        assert formed == [float(t) for t in times[2:]]

    def test_fields_are_formed_from_u0_and_the_bands(self, small_traj, box16):
        # Every node is the heat flow of u0 with its own band put in.
        inside = box16.band_index
        assert inside.size == 3 * 726 == 3 * np.count_nonzero(box16.dealias_keep)
        assert len(small_traj.fields) == len(small_traj.bands) == small_traj.times.size
        assert small_traj.fields[0].coef.tobytes() == small_traj.u0.coef.tobytes()
        for j, (y, t) in enumerate(zip(small_traj.fields, small_traj.times)):
            assert np.array_equal(np.take(y.coef, inside), small_traj.bands[j])
            heat = sp.heat_semigroup(small_traj.u0, float(t)).coef
            assert np.array_equal(np.delete(y.coef, inside), np.delete(heat, inside))


class TestWeightedNorms:
    def test_zero_trajectory(self, box16):
        fields = [sp.SpectralField.zero(box16) for _ in range(5)]
        times = np.linspace(0, 1, 5)
        assert sv.weighted_sup_norm(fields, times, 1.8) == 0.0

    def test_single_mode_against_dense_maximiser(self, box16, scalar_provider):
        # closed-form oracle: the heat flow of one mode decays as
        # exp(-|xi|^2 t), so the weighted norm maximises
        # t^w e^{-|xi|^2 t} (c1 + t^(w2-w1) c2) over a dense time grid
        x = box16.coordinates
        phys = np.zeros((3, 16, 16, 16))
        phys[2] = np.cos(2 * math.pi * 6 * x[0] / 32.0)
        u0 = sp.to_spectral(box16, phys)
        cfg = sv.SolverConfig(num_nodes=48)
        traj = sv.picard_solve(
            cfg, u0, scalar_provider, nonlinearity=sv.zero_nonlinearity
        )
        got = sv.weighted_sup_norm(traj.fields, traj.times, cfg.p)
        xi_sq = (2 * math.pi * 6 / 32.0) ** 2
        c_base = sp.lp_norm(u0, cfg.p)
        c_deriv = max(sp.lp_norm(sp.partial_derivative(u0, a), cfg.p) for a in range(3))
        tt = np.linspace(1e-9, 1.0, 2_000_001)
        dense = np.exp(-xi_sq * tt) * (
            tt ** (1.0 / 6.0) * c_base + tt ** (2.0 / 3.0) * c_deriv
        )
        assert got == pytest.approx(float(dense.max()), rel=0.01)

    def test_seminorm_zero_for_constant(self, small_traj):
        # constant-in-time trajectory built by hand
        fields = tuple(small_traj.fields[5] for _ in small_traj.fields)
        frozen = FieldTrajectory(
            config=small_traj.config,
            node_indices=small_traj.node_indices,
            times=small_traj.times,
            fields=fields,
            iterations=1,
            distances=(0.0,),
            ratios=(),
            converged=True,
        )
        val = weighted_holder_seminorm(frozen, 1.8, 0.05, (0.25, 0.75))
        assert val == 0.0

    def test_seminorm_epsilon_and_window_validation(self, small_traj):
        with pytest.raises(ValueError, match="epsilon"):
            weighted_holder_seminorm(small_traj, 1.8, 0.1, (0.25, 0.75))
        with pytest.raises(ValueError, match="window"):
            weighted_holder_seminorm(small_traj, 1.8, 0.05, (0.0, 0.75))

    def test_seminorm_stable_under_mesh_halving(
        self, provider, small_u0
    ):
        vals = []
        for nodes in (16, 32):
            cfg = sv.SolverConfig(num_nodes=nodes, tolerance=1e-12)
            traj = sv.picard_solve(cfg, small_u0, provider)
            vals.append(weighted_holder_seminorm(traj, 1.8, 0.05, (0.25, 0.75)))
        assert all(np.isfinite(v) for v in vals)
        assert vals[1] < 2.0 * vals[0]


def node_bound(y: sp.SpectralField, t: float, p: float, modes=slice(None)) -> float:
    """The solver's Parseval-Hoelder bound of ``y`` at t, over the flat stored
    modes ``modes`` of one component (all of them by default)."""
    coef = y.coef.reshape(3, -1)[:, modes]
    return sv._node_norm_bound(coef, sv._parseval_tables(y.grid, modes), y.grid.volume, t, p)


def recorded(value: float, calls: list):
    """An exact-value callable that records its value when called."""
    return lambda: calls.append(value) or value


class TestPrunedSup:
    @pytest.mark.parametrize("p", [1.0, 1.5, 1.8, 2.0])
    def test_bound_dominates_node_norm(self, box16, p):
        band = np.flatnonzero(box16.dealias_keep)
        single = np.zeros((3,) + box16.spectrum_shape, complex)
        single[1, 3, 0, 2] = 0.7 - 0.2j
        rough = [sp.random_field(box16, seed, decay=d) for seed, d in ((1, 2.0), (2, 0.5), (3, 0.0))]
        bands = [sp.SpectralField(box16, f.coef * box16.dealias_keep) for f in rough]
        zero = sp.SpectralField.zero(box16)
        cases = [(y, False) for y in rough + [sp.SpectralField(box16, single), zero]]
        for y, in_band in cases + [(y, True) for y in bands]:
            for t in (1e-4, 0.3, 1.0):
                exact = sv._weighted_node_norm(y, t, p)
                assert node_bound(y, t, p) >= exact
                if in_band:  # Picard's route: the band coefficients alone
                    assert node_bound(y, t, p, band) >= exact
        assert sv._weighted_node_norm(zero, 0.3, p) == node_bound(zero, 0.3, p) == 0.0

    def test_bound_is_tight_on_a_constant_field(self, box16):
        # |1|_p = vol^(1/p) = vol^(1/p - 1/2) |1|_2: Hoelder holds with
        # equality, and only the margin keeps the bound above rounding.
        phys = np.zeros((3, 16, 16, 16))
        phys[0] = 1.0
        u = sp.to_spectral(box16, phys)
        for p in (1.0, 1.5, 1.8, 2.0):
            exact = sv._weighted_node_norm(u, 0.5, p)
            assert exact == pytest.approx(0.5 ** (1.0 - 1.5 / p) * 32.0 ** (3.0 / p), rel=1e-12)
            assert exact <= node_bound(u, 0.5, p) <= exact * (1.0 + 1e-8)

    def test_interior_max_bit_for_bit(self, box16):
        u = sp.random_field(box16, 4, 2.0)
        times = np.linspace(0.0, 1.0, 21)
        fields = [float(np.exp(-(((t - 0.3) / 0.1) ** 2))) * u for t in times]
        values = [sv._weighted_node_norm(y, float(t), 1.8) for y, t in zip(fields[1:], times[1:])]
        assert 0 < int(np.argmax(values)) < len(values) - 1
        assert sv.weighted_sup_norm(fields, times, 1.8) == weighted_sup(fields, times, 1.8) == max(values)

    def test_tied_nodes_bit_for_bit(self, box16):
        u = sp.random_field(box16, 5, 2.0)
        times = np.array([0.0] + [0.5] * (2 * sv._HOLD + 3))
        fields = [u] * times.size
        want = sv._weighted_node_norm(u, 0.5, 1.8)
        assert sv.weighted_sup_norm(fields, times, 1.8) == weighted_sup(fields, times, 1.8) == want

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_more_nodes_than_the_hold_bit_for_bit(self, box16, seed):
        rng = np.random.default_rng(seed)
        times = np.concatenate([[0.0], np.sort(rng.random(3 * sv._HOLD + 5))])
        pool = [sp.random_field(box16, 10 * seed + k, decay=d) for k, d in enumerate((0.5, 1.0, 2.0))]
        fields = [float(rng.random()) * pool[int(rng.integers(3))] for _ in times]
        assert sv.weighted_sup_norm(fields, times, 1.8) == weighted_sup(fields, times, 1.8)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_node_as_in_the_exhaustive_loop(self, box16, bad):
        u = sp.random_field(box16, 6, 2.0)
        times = np.linspace(0.0, 1.0, 2 * sv._HOLD + 4)
        fields = [float(t) * u for t in times]
        broken = u.coef.copy()
        broken[0, 1, 1, 1] = bad
        fields[7] = sp.SpectralField(box16, broken)
        with np.errstate(invalid="ignore", over="ignore"):
            assert sv.weighted_sup_norm(fields, times, 1.8) == weighted_sup(fields, times, 1.8)

    def test_pruned_max_is_the_running_max(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            n = int(rng.integers(0, 40))
            values = list(rng.random(n) ** 4 * 10.0 ** rng.integers(-3, 3))
            bounds = [v * (1.0 + float(rng.random()) * 3.0) for v in values]
            # A non-finite bound (with or without a non-finite value) must be
            # evaluated, whatever the running max.
            for k in rng.integers(0, max(n, 1), size=int(rng.integers(0, 3))):
                if k < n:
                    bounds[k] = float(rng.choice([math.nan, math.inf]))
                    if rng.random() < 0.5:
                        values[k] = float(rng.choice([math.nan, math.inf]))
            calls: list = []
            got, evaluated = sv._pruned_max((b, recorded(v, calls)) for b, v in zip(bounds, values))
            want = 0.0
            for v in values:
                want = max(want, v)
            assert got == want
            assert evaluated == len(calls) <= n

    def test_p_above_two_refused(self, box16):
        with pytest.raises(ValueError, match=r"p in \[1, 2\], got 2.5"):
            sv.weighted_sup_norm([sp.SpectralField.zero(box16)] * 2, np.array([0.0, 1.0]), 2.5)


class TestWeakResidual:
    def test_zero_trajectory(self, box16, provider):
        cfg = sv.SolverConfig(num_nodes=16)
        traj = sv.picard_solve(cfg, sp.SpectralField.zero(box16), provider)
        phis = sp.bump_fields(box16, 2, 40)
        assert sv.weak_residual(traj, provider, phis) == [0.0, 0.0]

    def test_linear_single_mode_crosschecked(self, box16, scalar_provider):
        # closed-form heat-integral oracle: for pure heat flow the defect is
        # exactly the quadrature error of the time integral, computable from
        # the per-mode exponential in closed form
        x = box16.coordinates
        phys = np.zeros((3, 16, 16, 16))
        phys[2] = np.cos(2 * math.pi * (2 * x[0] + x[1]) / 32.0)
        u0 = sp.to_spectral(box16, phys)
        u0 = u0 * (0.02 / sp.lp_norm(u0, 2))
        cfg = sv.SolverConfig(num_nodes=512, tolerance=1e-12)
        traj = sv.picard_solve(
            cfg, u0, scalar_provider, nonlinearity=sv.zero_nonlinearity
        )
        phi = sp.bump_fields(box16, 1, 11)[0]
        residual = sv.weak_residual(traj, scalar_provider, [phi])[0]
        assert residual < 1e-4
        xi_sq = (2 * math.pi / 32.0) ** 2 * 5.0
        base = sp.inner_product(u0, phi)
        closed_integral = base * (math.exp(-xi_sq) - 1.0)
        w = sv.quadrature_weights(traj.times, cfg.singular_exponent)
        quad = sum(
            w[j] * (-xi_sq) * base * math.exp(-xi_sq * float(traj.times[j]))
            for j in range(1, traj.times.size)
        )
        assert residual == pytest.approx(abs(quad - closed_integral), rel=1e-6)

    def test_no_integrand_formed_at_the_last_node(self, small_traj, provider, box16, monkeypatch):
        # The product rule puts no weight on the last node, so weak_residual
        # forms the Duhamel integrand at the m - 1 interior nodes only.
        real, nodes = sv.duhamel_integrand, []

        def counted(provider, grid_index, y, *args):
            nodes.append(int(grid_index))
            return real(provider, grid_index, y, *args)

        monkeypatch.setattr(sv, "duhamel_integrand", counted)
        sv.weak_residual(small_traj, provider, sp.bump_fields(box16, 2, 40))
        m = small_traj.times.size - 1
        assert sv.quadrature_weights(small_traj.times, small_traj.config.singular_exponent)[m] == 0.0
        assert nodes == [int(j) for j in small_traj.node_indices[1:m]]
        assert len(nodes) == m - 1

    def test_holds_one_integrand_at_a_time(self, small_traj, provider, box16):
        # Holding every interior integrand, as a dict of M - 1 fields, would
        # exceed this bound.
        phis = sp.bump_fields(box16, 2, 40)
        sv.weak_residual(small_traj, provider, phis)  # any lazy import happens before tracing
        tracemalloc.start()
        try:
            sv.weak_residual(small_traj, provider, phis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        m = small_traj.times.size - 1
        assert m - 1 > 16
        assert peak <= 16 * small_traj.u0.coef.nbytes

    def test_residual_halves_under_mesh_halving(
        self, provider, small_u0, box16
    ):
        phis = sp.bump_fields(box16, 3, 99)
        res = []
        for nodes in (16, 32, 64):
            cfg = sv.SolverConfig(num_nodes=nodes, tolerance=1e-12)
            traj = sv.picard_solve(cfg, small_u0, provider)
            res.append(sv.weak_residual(traj, provider, phis))
        for k in range(3):
            for coarse, fine in ((res[0][k], res[1][k]), (res[1][k], res[2][k])):
                assert 1.6 < coarse / fine < 2.4


class TestNodePlacement:
    def test_snapped_nodes_are_grid_nodes(self, fine_grid):
        cfg = sv.SolverConfig(num_nodes=48)
        idx = sv.solver_node_indices(cfg, fine_grid)
        assert idx[0] == 0 and idx[-1] == fine_grid.steps
        assert np.all(np.diff(idx) > 0)
        raw = (np.arange(49) / 48.0) ** 2 * 4096.0
        assert np.abs(np.round(raw) - raw).max() <= 0.5

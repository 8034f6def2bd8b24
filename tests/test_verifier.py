"""Controlled observables, weak-form residual ladders and identity checks."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from conftest import (
    bracket_by_window,
    field_at,
    linear_part,
    node_times,
    pair_tensor,
    provider_through,
    remainder_quotients_by_row,
    subsample,
    weak_form_entry,
)
from vortexlab import roughpath as rpm
from vortexlab import solver as sv
from vortexlab import spectral as sp
from vortexlab import transform as tr
from vortexlab import verifier as vf


@pytest.fixture(scope="module")
def scalar_provider(noise_scalar, brownian, box16):
    return tr.TransformProvider(noise_scalar, brownian, box16)


@pytest.fixture(scope="module")
def pair_provider(noise_pair, brownian, box16):
    return tr.TransformProvider(noise_pair, brownian, box16)


@pytest.fixture(scope="module")
def phi(box16):
    return sp.bump_fields(box16, 1, 5)[0]


def single_mode_data(box16, k=(2, 1, 0), scale=0.02):
    x = box16.coordinates
    phase = 2 * math.pi * (k[0] * x[0] + k[1] * x[1] + k[2] * x[2]) / box16.size
    phys = np.zeros((3, 16, 16, 16))
    phys[2] = np.cos(phase)
    u0 = sp.to_spectral(box16, phys)
    return u0 * (scale / sp.lp_norm(u0, 2))


@pytest.fixture(scope="module")
def linear_traj(box16, scalar_provider):
    """Scalar noise, single mode, killed nonlinearity: closed-form solution."""
    cfg = sv.SolverConfig(num_nodes=48, tolerance=1e-12)
    return sv.picard_solve(
        cfg,
        single_mode_data(box16),
        scalar_provider,
        nonlinearity=sv.zero_nonlinearity,
    )


@pytest.fixture(scope="module")
def linear_observable(linear_traj, scalar_provider, phi):
    return linear_part(vf.build_observable(linear_traj, scalar_provider, [phi], (0.25, 0.75))[0])


def per_phi_observable(traj, rp, provider, phi, window, nonlinearity=sp.vorticity_nonlinearity):
    """Oracle: the per-phi loop, which builds U_t and M(U_t) again for each phi.

    Returns the observable values, the coefficients, the pairings
    <M(U_t), phi> and the drift integrand at every window node, and the
    window increment <U_end - U_start, phi>.
    """
    grid = phi.grid
    a = provider.channel
    n = len(a)
    psi1 = [sp.SpectralField(grid, np.conj(a[i]) * phi.coef) for i in range(n)]
    psi2 = [[sp.SpectralField(grid, np.conj(a[i] * a[k]) * phi.coef) for k in range(n)] for i in range(n)]
    lap_phi = sp.laplacian(phi)
    idx = rp.grid.window_indices(*window)
    values = np.empty((idx.size, n))
    deriv = np.empty((idx.size, n, n))
    nonlinear = np.zeros(idx.size)
    drift = np.empty(idx.size)
    ends = []
    times = node_times(rp.grid)
    for row, j in enumerate(idx):
        forward, _ = provider.at_index(j)
        u = sp.SpectralField(grid, forward * field_at(traj, float(times[j])).coef)
        if row in (0, idx.size - 1):
            ends.append(u)
        for i in range(n):
            values[row, i] = sp.inner_product(u, psi1[i])
            for k in range(n):
                deriv[row, i, k] = sp.inner_product(u, psi2[i][k])
        val = sp.inner_product(u, lap_phi)
        if nonlinearity is not None:
            nonlinear[row] = sp.inner_product(nonlinearity(u), phi)
            val -= nonlinear[row]
        drift[row] = val
    return values, deriv, nonlinear, drift, sp.inner_product(ends[1] - ends[0], phi)


@pytest.fixture(scope="module")
def nonlinear_traj(small_u0, pair_provider):
    cfg = sv.SolverConfig(num_nodes=32, tolerance=1e-12)
    return sv.picard_solve(cfg, small_u0, pair_provider)


class TestObservable:
    def test_zero_field_gives_zero_observable(self, box16, pair_provider, rp_ito, phi):
        cfg = sv.SolverConfig(num_nodes=16)
        traj = sv.picard_solve(cfg, sp.SpectralField.zero(box16), pair_provider)
        obs = vf.build_observable(traj, pair_provider, [phi], (0.25, 0.75))[0]
        assert np.all(obs.values == 0.0) and np.all(obs.derivative == 0.0)

    def test_scalar_noise_structure(self, linear_observable, noise_scalar):
        lam = np.array(noise_scalar.lambdas)
        y = linear_observable.values
        yp = linear_observable.derivative
        base = y[:, 0] / lam[0]
        assert np.abs(y[:, 1] - lam[1] * base).max() < 1e-12 * np.abs(y).max()
        for i in range(2):
            for k in range(2):
                assert np.abs(yp[:, i, k] - lam[i] * lam[k] * base).max() < 1e-12

    def test_linear_closed_form(self, linear_observable, linear_traj, brownian, noise_scalar, box16, phi):
        # closed-form oracle: the transformed heat flow of one mode
        lam = np.array(noise_scalar.lambdas)
        u0 = linear_traj.fields[0]
        for row in (10, 777, 1500):
            j = int(linear_observable.node_indices[row])
            t = float(node_times(brownian.grid)[j])
            scal = math.exp(float(lam @ brownian.values[j]) - 0.5 * t * float(lam @ lam))
            base = sp.inner_product(sp.heat_semigroup(u0, t), phi)
            expect = lam * scal * base
            assert np.abs(linear_observable.values[row] - expect).max() < 1e-6

    def test_window_touching_zero_rejected(self, linear_traj, scalar_provider, phi):
        with pytest.raises(ValueError, match="0 < start"):
            vf.build_observable(linear_traj, scalar_provider, [phi], (0.0, 0.5))

    def test_refuses_what_a_controlled_path_refuses(self, rp_ito):
        idx = np.arange(1024, 1040)
        rest = (np.zeros((16, 2)), np.zeros((16, 2, 2)), np.zeros(16), np.zeros(16), 0.0)
        assert isinstance(vf.Observable(idx, node_times(rp_ito.grid)[idx], *rest), rpm.ControlledPath)
        with pytest.raises(ValueError, match="strictly increasing"):
            vf.Observable(idx[::-1], node_times(rp_ito.grid)[idx[::-1]], *rest)
        with pytest.raises(ValueError, match="strictly after"):
            vf.Observable(idx - 1024, node_times(rp_ito.grid)[idx - 1024], *rest)

    def test_derivative_symmetric(self, linear_observable):
        yp = linear_observable.derivative
        assert np.abs(yp - np.transpose(yp, (0, 2, 1))).max() < 1e-14


class TestOnePass:
    WINDOW = (0.25, 0.3125)

    @pytest.mark.parametrize("quadratic", [True, False], ids=["full", "linear"])
    def test_matches_per_phi_loop_to_rounding(
        self, nonlinear_traj, rp_ito, pair_provider, box16, quadratic
    ):
        # The chunked pass sums each pairing in another order than the
        # oracle's Parseval sums, and takes the quadratic pairing on the
        # physical grid: agreement is to rounding, relative to each array's
        # largest entry.
        phis = sp.bump_fields(box16, 3, 5)
        observables = vf.build_observable(nonlinear_traj, pair_provider, phis, self.WINDOW)
        if not quadratic:
            observables = [linear_part(obs) for obs in observables]
        assert len(observables) == 3
        nonlinearity = sp.vorticity_nonlinearity if quadratic else None
        for phi, obs in zip(phis, observables):
            *want, increment = per_phi_observable(
                nonlinear_traj, rp_ito, pair_provider, phi, self.WINDOW, nonlinearity
            )
            got = (obs.values, obs.derivative, obs.nonlinear, obs.laplacian - obs.nonlinear)
            for a, b in zip(got, want):
                assert a.shape == b.shape
                assert np.abs(a - b).max() <= 1e-13 * np.abs(b).max()
            # The increment is the per-field pairing of the end fields' difference.
            assert obs.increment == increment
        if not quadratic:
            assert all(np.all(obs.nonlinear == 0.0) for obs in observables)
        else:
            assert all(np.any(obs.nonlinear != 0.0) for obs in observables)

    def test_nonlinear_is_the_flux_pairing(self, nonlinear_traj, rp_ito, pair_provider, box16):
        # The 31-node window refills the one chunk workspace across two
        # chunks; the pairing must equal that of the flux of each node's
        # field, bit for bit.
        phis = sp.bump_fields(box16, 2, 5)
        window = (0.25, 0.2575)
        observables = vf.build_observable(nonlinear_traj, pair_provider, phis, window)
        assert observables[0].node_indices.size == 31
        curls = np.stack(
            [sp.curl(sp.dealias(phi)).to_physical().reshape(-1) for phi in phis], axis=1
        ) * box16.cell_volume
        idx = observables[0].node_indices
        fields = vf._fields_at_nodes(nonlinear_traj, pair_provider, idx, vf._chunk_workspace(idx.size, box16))
        want = np.stack([sp.rotational_flux(sp.SpectralField(box16, u)).reshape(-1) @ curls for u in fields])
        for p, obs in enumerate(observables):
            assert obs.nonlinear.tobytes() == np.ascontiguousarray(want[:, p]).tobytes()

    def test_flux_pairing_equals_spectral_pairing(self, nonlinear_traj, box16):
        # A test field with modes outside the 2/3 band: the physical-grid
        # pairing must see it through the same truncation as the spectral one.
        u = nonlinear_traj.fields[20]
        phi = sp.random_field(box16, 31, decay=0.5)
        assert np.any(phi.coef[:, ~box16.dealias_keep] != 0.0)
        spectral = sp.inner_product(sp.vorticity_nonlinearity(u), phi)
        g = sp.curl(sp.dealias(phi)).to_physical()
        physical = box16.cell_volume * float(np.sum(sp.rotational_flux(u) * g))
        assert abs(physical - spectral) <= 1e-13 * abs(spectral)

    def test_nonlinear_drift_is_trapezoid_of_pairings(self, nonlinear_traj, rp_ito, pair_provider, phi):
        obs = vf.build_observable(nonlinear_traj, pair_provider, [phi], self.WINDOW)[0]
        entry, _ = weak_form_entry(obs, rp_ito, levels=4)

        def trapezoid(v):
            return float(np.sum(0.5 * (v[1:] + v[:-1]) * np.diff(obs.times)))

        expect = abs(trapezoid(obs.nonlinear))
        assert entry["nonlinear_drift"] == expect > 0.0
        linear = linear_part(obs)
        lin, _ = weak_form_entry(linear, rp_ito, levels=4)
        assert lin["nonlinear_drift"] == 0.0
        drift_gap = trapezoid(linear.laplacian - linear.nonlinear) - trapezoid(obs.laplacian - obs.nonlinear)
        assert abs(drift_gap) == pytest.approx(expect, rel=1e-9)


class TestRoughResidual:
    def test_zero_everything(self, box16, pair_provider, rp_ito, phi):
        cfg = sv.SolverConfig(num_nodes=16)
        traj = sv.picard_solve(cfg, sp.SpectralField.zero(box16), pair_provider)
        obs = vf.build_observable(traj, pair_provider, [phi], (0.25, 0.75))[0]
        _, ladder = weak_form_entry(obs, rp_ito, levels=4)
        assert all(r == 0.0 for _, r in ladder)

    def test_linear_closed_form_case(self, rp_ito, linear_observable):
        entry, ladder = weak_form_entry(linear_observable, rp_ito, levels=9)
        assert entry["final_residual"] == ladder[-1][1] < 1e-3
        assert entry["rate_slope"] > 0.0
        assert ladder[-1][1] < ladder[0][1]

    def test_nonlinear_residual_ladder_decreases(
        self, nonlinear_traj, rp_ito, pair_provider, phi
    ):
        obs = vf.build_observable(nonlinear_traj, pair_provider, [phi], (0.25, 0.5625))[0]
        entry, ladder = weak_form_entry(obs, rp_ito, levels=6)
        assert entry["rate_slope"] > 0.0
        assert entry["floor_residual"] == min(r for _, r in ladder) < ladder[0][1]


class TestRemainderQuotients:
    def test_zero_observable(self, rp_ito):
        idx = np.arange(1024, 1152)
        zero = np.zeros(idx.size)
        obs = vf.Observable(
            idx, node_times(rp_ito.grid)[idx], np.zeros((idx.size, 2)), np.zeros((idx.size, 2, 2)), zero, zero, 0.0
        )
        table = vf.remainder_quotients([obs], rp_ito, 0.4)[0][0]
        assert table.remainder == (0.0, 0.0) and table.coefficient == 0.0

    def test_lipschitz_path_analytic_bound(self, rp_ito):
        # Lipschitz calculus: Y = t with zero expansion coefficient has
        # remainder quotient exactly sup (v-u)^(1-2a), at the full window
        idx = np.arange(1024, 3073)
        t = node_times(rp_ito.grid)[idx]
        zero = np.zeros(idx.size)
        obs = vf.Observable(
            idx, t, np.tile(t[:, None], (1, 2)), np.zeros((idx.size, 2, 2)), zero, zero, 0.0
        )
        table = vf.remainder_quotients([obs], rp_ito, 0.4)[0][0]
        expect = (t[-1] - t[0]) ** (1.0 - 0.8)
        for got in table.remainder:
            assert got == pytest.approx(expect, rel=1e-12)

    def test_coarse_table_matches_subsampled_call(self, nonlinear_traj, rp_ito, pair_provider, phi):
        obs = vf.build_observable(nonlinear_traj, pair_provider, [phi], (0.25, 0.75))[0]
        full, half = vf.remainder_quotients([obs], rp_ito, 0.4)[0]
        sub = vf.remainder_quotients([subsample(obs, 2)], rp_ito, 0.4)[0][0]
        np.testing.assert_allclose(half.remainder, sub.remainder, rtol=1e-14, atol=0.0)
        assert half.coefficient == pytest.approx(sub.coefficient, rel=1e-14, abs=0.0)
        # The verify report's stability verdict reads the same either way.
        assert [a <= 2.0 * b for a, b in zip(full.remainder, half.remainder)] == [
            a <= 2.0 * b for a, b in zip(full.remainder, sub.remainder)
        ]

    def test_solved_trajectory_quotients_stable(self, nonlinear_traj, rp_ito, pair_provider, phi):
        obs = vf.build_observable(nonlinear_traj, pair_provider, [phi], (0.25, 0.75))[0]
        full = vf.remainder_quotients([obs], rp_ito, 0.4)[0][0]
        half = vf.remainder_quotients([subsample(obs, 2)], rp_ito, 0.4)[0][0]
        quarter = vf.remainder_quotients([subsample(obs, 4)], rp_ito, 0.4)[0][0]
        for a, b in zip(full.remainder, half.remainder):
            assert a <= 2.0 * b
        for a, b in zip(half.remainder, quarter.remainder):
            assert a <= 2.0 * b
        assert np.isfinite(full.coefficient)


def synthetic_observables(rp: rpm.RoughPath, k: int, seed: int, count: int = 2, nan: bool = False):
    """``count`` random-walk observables on the first ``k`` grid nodes after
    t = 0 that share their window; with ``nan``, a value and a coefficient
    entry of each are NaN."""
    rng = np.random.default_rng(seed)
    idx = np.arange(1, k + 1)
    n = rp.path.channels
    zero = np.zeros(k)
    out = []
    for _ in range(count):
        y = np.cumsum(rng.standard_normal((k, n)), axis=0) * 0.01
        yp = np.cumsum(rng.standard_normal((k, n, n)), axis=0) * 0.01
        if nan:
            y[k // 3, 0] = np.nan
            yp[k // 2, -1, 0] = np.nan
        out.append(vf.Observable(idx, node_times(rp.grid)[idx], y, yp, zero, zero, 0.0))
    return out


def same_bits(a: vf.QuotientTable, b: vf.QuotientTable) -> bool:
    """Equal bit for bit, NaN at the same entries."""
    x = np.array(a.remainder + (a.coefficient,))
    y = np.array(b.remainder + (b.coefficient,))
    nan = np.isnan(x)
    return np.array_equal(nan, np.isnan(y)) and x[~nan].tobytes() == y[~nan].tobytes()


class TestTiledQuotients:
    """The tiled one-pass table against the per-row oracle, bit for bit."""

    TILE = vf._TILE_LAGS

    @pytest.fixture(scope="class")
    def rp_short(self) -> rpm.RoughPath:
        """A path on [0, 0.3]: its time steps differ in the last bit."""
        return rpm.enhance(rpm.sample_brownian(3, 2, rpm.TimeGrid(0.3, 4096)), rpm.ITO)

    @pytest.mark.parametrize("k", [2, 3, TILE - 1, TILE, TILE + 1, 3 * TILE + 5])
    @pytest.mark.parametrize("horizon", ["dyadic", "0.3"])
    @pytest.mark.parametrize("nan", [False, True], ids=["finite", "nan"])
    def test_equals_per_row_oracle(self, rp_ito, rp_short, k, horizon, nan):
        rp = rp_ito if horizon == "dyadic" else rp_short
        assert bool(np.ptp(np.diff(node_times(rp.grid))) == 0.0) is (horizon == "dyadic")
        observables = synthetic_observables(rp, k, seed=k, nan=nan and k > 3)
        got = vf.remainder_quotients(observables, rp, 0.4)
        assert len(got) == len(observables)
        for obs, tables in zip(observables, got):
            want = remainder_quotients_by_row(obs, rp, 0.4)
            assert all(same_bits(a, b) for a, b in zip(tables, want))
            if nan and k > 3:
                assert np.isnan(tables[0].remainder[0]) and np.isnan(tables[0].coefficient)

    def test_scalar_channel(self, linear_observable, rp_ito):
        tables = vf.remainder_quotients([linear_observable], rp_ito, 0.4)[0]
        want = remainder_quotients_by_row(linear_observable, rp_ito, 0.4)
        assert all(same_bits(a, b) for a, b in zip(tables, want))

    def test_observables_must_share_their_window(self, rp_ito):
        short, long = (synthetic_observables(rp_ito, k, seed=1, count=1)[0] for k in (8, 9))
        with pytest.raises(ValueError, match="share"):
            vf.remainder_quotients([short, long], rp_ito, 0.4)

    def test_working_set_does_not_grow_with_the_window(self):
        # 5,121 nodes: a whole lag column of pair temporaries would take
        # about 5 MB, the whole triangle about 2 GB.
        rp = rpm.enhance(rpm.sample_brownian(4, 2, rpm.TimeGrid(1.0, 8192)), rpm.ITO)
        observables = synthetic_observables(rp, 5121, seed=5)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            vf.remainder_quotients(observables, rp, 0.4)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 3 * vf._TILE_BYTES


class TestTaylorDefect:
    def test_scalar_exponential_oracle(self, box16, phi):
        noise = tr.NoiseModel((0.5,), (None,))
        provider = provider_through(noise, box16, np.array([0.3]), 0.25)
        got = vf.transform_taylor_defect(provider, phi, 0.25, np.array([0.3]), 0.3, np.array([0.42]))
        lam, dt, db = 0.5, 0.05, 0.12
        e_u = lam * 0.3 - 0.5 * 0.25 * lam * lam
        e_v = lam * 0.42 - 0.5 * 0.3 * lam * lam
        bracket = db * lam + 0.5 * lam * lam * db * db - 0.5 * dt * lam * lam
        scalar = abs(math.exp(e_v) - math.exp(e_u) - math.exp(e_u) * bracket)
        assert abs(got - scalar * sp.lp_norm(phi, 2)) < 1e-10

    def test_brownian_rate_above_one(self, pair_provider, phi, rp_ito):
        # The interval starts at node steps // 4 = 1024 and is 1024 steps long.
        fit = vf.taylor_rate(pair_provider, phi, levels=5)
        assert fit["exponent"] > 1.0 and fit["pass"]

    def test_frozen_path_rate_near_two(self, noise_pair, box16, phi, brownian, fine_grid):
        vals = brownian.values.copy()
        vals[1024:2049] = brownian.values[1024]
        frozen = rpm.DrivingPath(fine_grid, vals)
        fit = vf.taylor_rate(tr.TransformProvider(noise_pair, frozen, box16), phi, levels=5)
        assert fit["exponent"] == pytest.approx(2.0, abs=0.2)


class TestBracketIdentities:
    def test_exact_and_statistical_parts(self, rp_ito, rp_strat):
        rng = np.random.default_rng(50)
        windows = []
        while len(windows) < 20:
            u, v = np.sort(rng.choice(4097, 2, replace=False))
            if v - u >= 64:
                windows.append((int(u), int(v)))
        for rp in (rp_ito, rp_strat):
            report = vf.bracket_identities(rp, windows)
            assert report["symmetric_defect"] == 0.0
            assert report["covariation_defect"] == 0.0
            assert report["diag_pass"] and report["offdiag_pass"] and report["pass"]

    @pytest.mark.parametrize("ito_first", [True, False])
    def test_equals_per_window_oracle(self, rp_ito, rp_strat, ito_first):
        # The check builds the other flavor from the given path itself.
        pairs = np.sort(np.random.default_rng(51).choice(4097, size=(40, 2)), axis=1)
        windows = [(int(u), int(v)) for u, v in pairs if v > u]
        given = rp_ito if ito_first else rp_strat
        for chosen in (windows, windows[:1], []):
            assert vf.bracket_identities(given, chosen) == bracket_by_window(rp_ito, rp_strat, chosen)


def q_of(p: float) -> float:
    """The Lebesgue exponent of the integrand's continuity check, 1/q = 2/p - 1/3."""
    return 1.0 / (2.0 / p - 1.0 / 3.0)


def window_continuity(traj, provider, phi, window=(0.25, 0.75)) -> float:
    """Integrand quotient at the solver nodes in the window, as verify takes it."""
    return vf.continuity_checks(traj, provider, phi, window, 0.05)["integrand_continuity"]["quotient"]


class TestContinuityChecks:
    def test_zero_integrand_quotient(self, box16, pair_provider, phi):
        cfg = sv.SolverConfig(num_nodes=16)
        traj = sv.picard_solve(cfg, sp.SpectralField.zero(box16), pair_provider)
        assert window_continuity(traj, pair_provider, phi) == 0.0

    @pytest.mark.parametrize("epsilon", [0.05, 0.02])
    def test_check_takes_q_from_p_and_the_given_epsilon(self, nonlinear_traj, pair_provider, phi, epsilon):
        traj = nonlinear_traj
        pos = traj.node_window(0.25, 0.75)
        integrands = [sv.duhamel_integrand(pair_provider, traj.node_indices[j], traj.fields[j]) for j in pos]
        assert q_of(1.8) == pytest.approx(9.0 / 7.0)
        want = vf.integrand_continuity(integrands, traj.times[pos], q_of(traj.config.p), epsilon)
        got = vf.continuity_checks(traj, pair_provider, phi, (0.25, 0.75), epsilon)
        assert got["integrand_continuity"]["quotient"] == want

    def test_synthetic_ramp_quotient(self, nonlinear_traj, box16):
        # closed-form differentiation oracle: integrand g(s) = s * F has
        # quotient |F|_q sup (v-u)^(1-eps), attained at the window ends
        field = sp.random_field(box16, 60, 2.0)
        traj = nonlinear_traj
        pos = traj.node_window(0.25, 0.75)
        times = traj.times[pos]
        ramp = [sp.SpectralField(box16, float(t) * field.coef) for t in times]
        q = q_of(traj.config.p)
        got = vf.integrand_continuity(ramp, times, q, 0.05)
        expect = sp.lp_norm(field, q) * (times[-1] - times[0]) ** 0.95
        assert got == pytest.approx(expect, rel=1e-10)

    def test_times_must_avoid_zero(self, box16):
        zero = sp.SpectralField.zero(box16)
        with pytest.raises(ValueError, match="t = 0"):
            vf.integrand_continuity([zero, zero], np.array([0.0, 0.5]), 1.5, 0.05)
        with pytest.raises(ValueError, match="two or more"):
            vf.integrand_continuity([zero], np.array([0.5]), 1.5, 0.05)

    def test_solved_trajectory_stable(self, nonlinear_traj, small_u0, pair_provider, phi):
        base = window_continuity(nonlinear_traj, pair_provider, phi)
        cfg = sv.SolverConfig(num_nodes=64, tolerance=1e-12)
        finer = sv.picard_solve(cfg, small_u0, pair_provider)
        refined = window_continuity(finer, pair_provider, phi)
        assert np.isfinite(base) and refined < 2.0 * base

    def test_observable_jump_shrinks(self, small_u0, pair_provider, phi):
        jumps = []
        for nodes in (16, 32, 64):
            cfg = sv.SolverConfig(num_nodes=nodes, tolerance=1e-12)
            traj = sv.picard_solve(cfg, small_u0, pair_provider)
            jumps.append(vf.observable_continuity(traj, phi))
        assert jumps[2] < jumps[1] < jumps[0]


def inverse_route(traj, rp, provider, phi, window, levels):
    """Oracle: the deterministic weak form rebuilt cell by cell from the field.

    On each cell [u, v] of a dyadic partition of the window, the increment of
    <y, phi> is split into the three product terms of Gamma^-1 U with the
    transform factors expanded to second order; after the exact Ito-level
    cancellations this is the drift rectangle (<y_u, lap phi> + <g_u, phi>)
    (v - u) plus the covariation leftover (v - u)/2 sum_i <y_u, (A_i^2)* phi>
    + sum_ik <y_u, (A_k A_i)* phi> (B_ik - dbeta_i dbeta_k / 2).  Returns per
    level the residuals against <y, phi> over the window of the expansion
    route and of the drift route, their gap, and the trapezoid residual of
    the drift integrand on the trajectory nodes of the window.
    """
    grid = phi.grid
    a = provider.channel
    n = len(a)
    lap_phi = sp.laplacian(phi)
    psi2 = [
        [sp.SpectralField(grid, np.conj(a[i] * a[k]) * phi.coef) for k in range(n)] for i in range(n)
    ]
    psi_sq = sp.SpectralField(grid, np.conj(sum(x * x for x in a)) * phi.coef)

    def drift(j, y):
        g = sv.duhamel_integrand(provider, j, y)
        return sp.inner_product(y, lap_phi) + sp.inner_product(g, phi)

    idx = rp.grid.window_indices(*window)
    times = node_times(rp.grid)
    y_start, y_end = (field_at(traj, float(times[j])) for j in idx[[0, -1]])
    target = sp.inner_product(y_end - y_start, phi)
    expansion, drift_only, gaps = [], [], []
    for pos in rpm.dyadic_partitions(0, idx.size - 1, levels):
        part = idx[pos]
        total_exp = total_drift = 0.0
        for u, v in zip(part[:-1], part[1:]):
            dt = float(times[v] - times[u])
            db = rp.values[v] - rp.values[u]
            y = field_at(traj, float(times[u]))
            b2 = np.array([[sp.inner_product(y, psi2[i][k]) for k in range(n)] for i in range(n)])
            rect = drift(u, y) * dt
            total_drift += rect
            total_exp += (
                rect
                + 0.5 * dt * sp.inner_product(y, psi_sq)
                + float(np.sum(b2 * pair_tensor(rp, u, v)))
                - 0.5 * float(db @ b2 @ db)
            )
        expansion.append(abs(target - total_exp))
        drift_only.append(abs(target - total_drift))
        gaps.append(abs(total_exp - total_drift))

    nodes = traj.node_window(*window)
    vals = np.array([drift(traj.node_indices[j], traj.fields[j]) for j in nodes])
    t = traj.times[nodes]
    integral = float(np.sum(0.5 * (vals[1:] + vals[:-1]) * np.diff(t)))
    lhs = sp.inner_product(traj.fields[nodes[-1]] - traj.fields[nodes[0]], phi)
    return expansion, drift_only, gaps, abs(lhs - integral)


@pytest.fixture(scope="module")
def inverse_route_levels(nonlinear_traj, rp_ito, pair_provider, phi):
    return inverse_route(nonlinear_traj, rp_ito, pair_provider, phi, (0.25, 0.5625), levels=7)


class TestInverseRoute:
    def test_drift_route_reproduces_weak_form(self, inverse_route_levels):
        expansion, drift, gaps, window_residual = inverse_route_levels
        assert all(a > b for a, b in zip(drift, drift[1:]))
        assert window_residual <= drift[-1]
        # the flavor-cancellation leftover telescopes to a partition-
        # independent covariation fluctuation: near-constant across levels,
        # and the expansion route converges onto it as the drift route
        # converges to zero
        assert max(gaps) < 1.05 * min(gaps)
        assert expansion[-1] == pytest.approx(gaps[-1], rel=0.05)

    def test_expansion_route_bounded(self, inverse_route_levels):
        # the first six levels are the six-level ladder
        expansion = inverse_route_levels[0][:6]
        assert all(np.isfinite(r) for r in expansion)
        assert expansion[-1] <= expansion[0]

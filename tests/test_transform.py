"""Noise transformation: multipliers, norm bounds, margins and the gate."""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import norm_product_bound, reference_bound_upper, set_block_rows, solenoidal_field
from vortexlab import roughpath as rpm
from vortexlab import spectral as sp
from vortexlab import transform as tr



class TestBuild:
    def test_identity_at_time_zero(self, noise_pair, box16):
        g = tr.build_transform(noise_pair, box16, np.zeros(2), 0.0)
        assert np.abs(g.forward_multiplier - 1.0).max() == 0.0

    def test_scalar_channels_mode_independent(self, box16):
        noise = tr.NoiseModel((0.7, -0.2), (None, None))
        g = tr.build_transform(noise, box16, np.array([0.4, 0.1]), 0.3)
        expect = math.exp(
            0.7 * 0.4 - 0.2 * 0.1 - 0.15 * (0.49 + 0.04)
        )
        assert np.abs(g.forward_multiplier - expect).max() < 1e-15

    def test_reciprocal_identity(self, noise_pair, box16):
        g = tr.build_transform(noise_pair, box16, np.array([0.3, -0.2]), 0.5)
        defect = np.abs(g.forward_multiplier * g.inverse_multiplier - 1.0).max()
        assert defect < 1e-12

    def test_channel_order_irrelevant(self, noise_pair, box16):
        beta = np.array([0.3, -0.2])
        a = tr.build_transform(noise_pair, box16, beta, 0.5)
        b = tr.build_transform(noise_pair, box16, beta, 0.5, order=[1, 0])
        rel = np.abs(a.forward_multiplier - b.forward_multiplier).max()
        rel /= np.abs(a.forward_multiplier).max()
        assert rel < 1e-13

    def test_negative_time_rejected(self, noise_pair, box16):
        with pytest.raises(ValueError):
            tr.build_transform(noise_pair, box16, np.zeros(2), -0.1)

    def test_channel_count_checked(self, noise_pair, box16):
        with pytest.raises(ValueError, match="channel"):
            tr.build_transform(noise_pair, box16, np.zeros(3), 0.1)


class TestApply:
    def test_roundtrip(self, noise_pair, box16):
        g = tr.build_transform(noise_pair, box16, np.array([0.5, 0.2]), 0.7)
        u = sp.random_field(box16, 17)
        back = g.apply(g.apply(u), inverse=True)
        assert np.abs(back.coef - u.coef).max() / np.abs(u.coef).max() < 1e-10

    def test_scalar_case_matches_direct_scaling(self, box16):
        noise = tr.NoiseModel((0.6,), (None,))
        g = tr.build_transform(noise, box16, np.array([0.25]), 0.4)
        u = sp.random_field(box16, 18)
        scal = math.exp(0.6 * 0.25 - 0.2 * 0.36)
        assert np.array_equal(g.apply(u).coef, scal * u.coef)

    def test_hermitian_symmetry_preserved(self, noise_pair, box16):
        g = tr.build_transform(noise_pair, box16, np.array([0.5, 0.2]), 0.7)
        u = sp.random_field(box16, 19)
        assert g.apply(u).hermitian_defect() < 1e-12

    def test_grid_mismatch_rejected(self, noise_pair, box16, box8):
        g = tr.build_transform(noise_pair, box16, np.zeros(2), 0.0)
        with pytest.raises(ValueError, match="grid"):
            g.apply(sp.SpectralField.zero(box8))


class TestNormBound:
    def test_scalar_channel_exact_for_every_p(self):
        # the bound takes no p: one value serves every exponent
        noise = tr.NoiseModel((0.9,), (None,))
        b = norm_product_bound(noise, np.array([0.3]), 0.7)
        expect = math.exp(0.9 * 0.3 - 0.35 * 0.81)
        assert b.upper == pytest.approx(expect, rel=1e-14)
        assert b.exact_l2 == pytest.approx(expect, rel=1e-14)

    def test_unit_at_origin(self, noise_pair):
        b = norm_product_bound(noise_pair, np.zeros(2), 0.0)
        assert b.upper == 1.0 and b.exact_l2 == 1.0

    def test_dominates_exact_l2(self, noise_pair):
        rng = np.random.default_rng(20)
        for _ in range(100):
            beta = rng.normal(size=2)
            t = rng.uniform(0.0, 2.0)
            b = norm_product_bound(noise_pair, beta, t)
            assert b.upper >= b.exact_l2 * (1 - 1e-12)

    def test_series_sup_and_vectorisation(self, noise_pair, brownian):
        series = tr.bound_series(noise_pair, brownian)
        assert series.upper.shape == brownian.grid.times.shape
        assert series.sup >= 1.0
        j = 1234
        single = norm_product_bound(
            noise_pair, brownian.values[j], float(brownian.grid.times[j])
        )
        assert series.upper[j] == pytest.approx(single.upper, rel=1e-13)

    @pytest.mark.parametrize(
        "steps, rows",
        [(4096, 4097), (4096, 2049), (4096, 1025), (64, 4)],
        ids=["1-block", "2-blocks", "4-blocks", "17-blocks-of-4"],
    )
    def test_series_matches_whole_array_oracle(self, monkeypatch, noise_pair, steps, rows):
        set_block_rows(monkeypatch, rows)
        path = rpm.sample_brownian(42, 2, rpm.TimeGrid(1.0, steps))
        series = tr.bound_series(noise_pair, path)
        assert series.upper.tobytes() == reference_bound_upper(noise_pair, path).tobytes()
        assert series.times is path.grid.times


class TestMargins:
    def test_reference_margin(self, dirac16):
        # frozen: 7 - (sqrt(12)+3) * 1 = 0.5358983848622456
        noise = tr.NoiseModel((7.0,), (dirac16,))
        m = tr.dominance_margins(noise)[0]
        assert m == pytest.approx(0.5358983848622456, abs=1e-9)

    def test_zero_mass_margin_is_drift(self):
        noise = tr.NoiseModel((0.3,), (None,))
        assert tr.dominance_margins(noise)[0] == pytest.approx(0.3)

    def test_failing_margin_and_exponent_sign(self, dirac16):
        # frozen exponent algebra: lambda=6, mass=1 gives 18 - 19.5 = -1.5
        noise = tr.NoiseModel((6.0,), (dirac16,))
        assert tr.dominance_margins(noise)[0] == pytest.approx(-0.4641016151377544)
        assert tr.deterministic_exponents(noise)[0] == pytest.approx(-1.5, rel=1e-9)

    def test_margin_sign_matches_exponent_sign(self, dirac16):
        # 20-point drift sweep across the threshold at unit kernel mass
        for lam in np.linspace(3.0, 10.0, 20):
            noise = tr.NoiseModel((float(lam),), (dirac16,))
            margin = tr.dominance_margins(noise)[0]
            exponent = tr.deterministic_exponents(noise)[0]
            assert (margin > 0) == (exponent > 0)

    def test_dominance_enforced_at_construction(self, dirac16):
        with pytest.raises(ValueError, match="margin"):
            tr.NoiseModel((6.0,), (dirac16,), require_dominance=True)


class TestGate:
    def test_zero_data_passes(self, box16, noise_pair):
        report = tr.smallness_gate(sp.SpectralField.zero(box16), 10.0, 0.01, noise_pair)
        assert report.passed and report.product == 0.0
        assert len(report.margins) == 2

    def test_arithmetic_example(self, box16, noise_pair):
        u0 = sp.random_field(box16, 23)
        u0 = u0 * (1.0 / sp.lp_norm(u0, 1.5))
        report = tr.smallness_gate(u0 * 0.1, 2.0, 0.5, noise_pair)
        assert report.passed and report.product == pytest.approx(0.2)
        report = tr.smallness_gate(u0 * 0.3, 2.0, 0.5, noise_pair)
        assert not report.passed

    def test_pass_set_is_an_interval(self, box16, noise_pair):
        # bisection oracle on the scaling of a fixed field: the pass set in
        # the initial-data norm is exactly [0, c_star / eta_sup]
        eta_sup, c_star = 3.7, 0.01
        u0 = solenoidal_field(box16, 22)
        u0 = u0 * (1.0 / sp.lp_norm(u0, 1.5))
        boundary = c_star / eta_sup
        lo, hi = 0.0, 1.0
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if tr.smallness_gate(u0 * mid, eta_sup, c_star, noise_pair).passed:
                lo = mid
            else:
                hi = mid
        assert lo == pytest.approx(boundary, rel=1e-6)
        for scale in (0.0, 0.5 * boundary, 0.99 * boundary):
            assert tr.smallness_gate(u0 * scale, eta_sup, c_star, noise_pair).passed
        assert not tr.smallness_gate(u0 * (1.01 * boundary), eta_sup, c_star, noise_pair).passed

    def test_report_json_keys(self, box16, noise_pair):
        report = tr.smallness_gate(sp.SpectralField.zero(box16), 1.0, 0.01, noise_pair)
        d = report.to_json_dict()
        assert set(d) == {"eta_sup", "u0_norm", "product", "c_star", "pass", "margins"}

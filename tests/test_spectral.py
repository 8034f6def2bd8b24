"""Spectral calculus: transforms, operators, norms and their oracles."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from conftest import divergence_defect, full_spectrum, solenoidal_field
from vortexlab import spectral as sp


def mode_field(grid, k, component=2, trig=np.cos):
    x = grid.coordinates
    phase = 2.0 * math.pi * (k[0] * x[0] + k[1] * x[1] + k[2] * x[2]) / grid.size
    phys = np.zeros((3,) + phase.shape)
    phys[component] = trig(phase)
    return sp.to_spectral(grid, phys)


class TestTransforms:
    def test_constant_field_zero_mode(self, box16):
        phys = np.full((3, 16, 16, 16), 0.0)
        phys[0] = 2.5
        u = sp.to_spectral(box16, phys)
        assert u.coef[0, 0, 0, 0] == pytest.approx(2.5, abs=1e-14)
        offmode = u.coef.copy()
        offmode[0, 0, 0, 0] = 0.0
        assert np.abs(offmode).max() < 1e-14

    def test_plane_wave_two_conjugate_modes(self, box16):
        u = mode_field(box16, (1, 0, 0), component=0)
        c = u.coef[0]
        assert c[1, 0, 0] == pytest.approx(0.5, abs=1e-13)
        assert c[-1, 0, 0] == pytest.approx(0.5, abs=1e-13)
        rest = c.copy()
        rest[1, 0, 0] = rest[-1, 0, 0] = 0.0
        assert np.abs(rest).max() < 1e-13

    def test_random_roundtrip(self, box16):
        rng = np.random.default_rng(1)
        phys = rng.standard_normal((3, 16, 16, 16))
        back = sp.to_spectral(box16, phys).to_physical()
        assert np.abs(back - phys).max() < 1e-12

    def test_shape_mismatch_rejected(self, box16):
        with pytest.raises(ValueError, match="shape"):
            sp.to_spectral(box16, np.zeros((3, 8, 8, 8)))

    def test_coefficients_frozen_in_place(self, box8):
        buf = np.zeros((3,) + box8.spectrum_shape, dtype=complex)
        u = sp.SpectralField(box8, buf)
        assert u.coef is buf
        with pytest.raises(ValueError, match="read-only"):
            buf[0, 0, 0, 0] = 1.0

    @pytest.mark.parametrize("modes", [8, 16, 32])
    def test_half_spectrum_inverse_matches_full_inverse(self, modes):
        grid = sp.BoxGrid(32.0, modes)
        u = solenoidal_field(grid, 17)
        for field in (u, sp.vorticity_nonlinearity(u), sp.partial_derivative(u, 2)):
            assert field.coef.shape == (3, modes, modes, modes // 2 + 1)
            want = np.fft.ifftn(full_spectrum(field.coef), axes=(1, 2, 3), norm="forward").real
            assert np.abs(field.to_physical() - want).max() <= 1e-15 * np.abs(want).max()

    def test_self_conjugate_planes_exactly_hermitian(self, box16):
        rng = np.random.default_rng(3)
        u = sp.to_spectral(box16, rng.standard_normal((3, 16, 16, 16)))
        assert sp._plane_defect(u.coef) == 0.0
        assert not u.coef[np.ix_(range(3), [0, 8], [0, 8], [0, 8])].imag.any()
        bad = u.coef.copy()
        bad[0, 1, 2, 0] += 1e-3
        assert sp._plane_defect(sp.SpectralField(box16, bad).coef) == pytest.approx(1e-3, rel=1e-9)

    def test_resample_keeps_the_shared_band(self, box8, box16):
        u = sp.random_field(box8, 18, 2.0)
        fine = sp.resample(u, box16)
        assert np.array_equal(sp.resample(fine, box8).coef, u.coef)
        # random fields have no Nyquist modes, so the fine field interpolates
        assert np.abs(fine.to_physical()[:, ::2, ::2, ::2] - u.to_physical()).max() < 1e-15
        v = sp.random_field(box16, 19, 2.0)
        coarse = sp.resample(v, box8).coef
        # k = 0..3 and -3..-1 on the first two axes, k3 = 0..3; the coarse
        # Nyquist planes stay zero
        rows = [(slice(0, 4), slice(0, 4)), (slice(13, 16), slice(5, 8))]
        for fine1, c1 in rows:
            for fine2, c2 in rows:
                assert np.array_equal(coarse[:, c1, c2, :4], v.coef[:, fine1, fine2, :4])
        assert not coarse[:, 4].any() and not coarse[:, :, 4].any() and not coarse[..., 4].any()

    def test_grid_validation(self):
        with pytest.raises(ValueError, match="even"):
            sp.BoxGrid(32.0, 15)
        with pytest.raises(ValueError):
            sp.BoxGrid(32.0, 2)
        with pytest.raises(ValueError, match="positive"):
            sp.BoxGrid(-1.0, 16)


class TestHeatSemigroup:
    def test_time_zero_identity(self, box16):
        u = sp.random_field(box16, 2, 2.0)
        assert np.array_equal(sp.heat_semigroup(u, 0.0).coef, u.coef)

    def test_single_mode_decay(self, box16):
        u = mode_field(box16, (2, 1, 0))
        xi_sq = (2 * math.pi / 32.0) ** 2 * 5.0
        got = sp.heat_semigroup(u, 0.3)
        assert np.abs(got.coef - u.coef * math.exp(-xi_sq * 0.3)).max() < 1e-15

    def test_semigroup_law(self, box16):
        u = sp.random_field(box16, 3, 2.0)
        a = sp.heat_semigroup(sp.heat_semigroup(u, 0.1), 0.1)
        b = sp.heat_semigroup(u, 0.2)
        assert np.abs(a.coef - b.coef).max() / np.abs(b.coef).max() < 1e-12

    def test_negative_time_rejected(self, box16):
        with pytest.raises(ValueError, match=">= 0"):
            sp.heat_semigroup(sp.SpectralField.zero(box16), -0.1)

    def test_lp_contraction(self, box16):
        u = sp.random_field(box16, 4, 2.0)
        v = sp.heat_semigroup(u, 0.2)
        assert sp.lp_norm(v, 2) <= sp.lp_norm(u, 2) * (1 + 1e-12)
        for p in (1.5, 3.0):
            assert sp.lp_norm(v, p) <= sp.lp_norm(u, p) + 1e-8


class TestCurlAndVelocity:
    def test_curl_of_gradient_vanishes(self, box16):
        g = box16
        scalar = np.exp(-g.xi_sq)
        grad = sp.SpectralField(g, 1j * g.deriv_xi * scalar[None])
        assert np.abs(sp.curl(grad).coef).max() < 1e-13

    def test_hand_curl(self, box16):
        u = mode_field(box16, (1, 0, 0), component=2, trig=np.sin)
        got = sp.curl(u).to_physical()
        x1 = box16.coordinates[0]
        expect = np.zeros_like(got)
        expect[1] = -(2 * math.pi / 32.0) * np.cos(2 * math.pi * x1 / 32.0)
        assert np.abs(got - expect).max() < 1e-13

    def test_curl_output_divergence_free(self, box16):
        u = sp.random_field(box16, 5, 2.0)
        assert divergence_defect(sp.curl(u)) < 1e-12

    def test_velocity_recovery_inverts_curl(self, box16):
        u = solenoidal_field(box16, 6)
        back = sp.curl(sp.biot_savart(u))
        rel = np.abs(back.coef - u.coef).max() / np.abs(u.coef).max()
        assert rel < 1e-12
        assert divergence_defect(sp.biot_savart(u)) < 1e-12

    def test_velocity_of_zero(self, box16):
        z = sp.SpectralField.zero(box16)
        assert np.abs(sp.biot_savart(z).coef).max() == 0.0

    def test_real_space_kernel_oracle(self, box16):
        # quadrature oracle: direct sum against the singular kernel
        # -(1/4 pi) r/|r|^3, truncated to the ball of radius L/2 inside the
        # box, with the principal-value cell at r = 0 dropped
        g = box16
        L = g.size
        u = mode_field(g, (1, 0, 0))
        spectral = sp.biot_savart(u).to_physical()
        pts = g.coordinates.reshape(3, -1).T
        uv = u.to_physical().reshape(3, -1).T
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
        rel = np.sqrt(np.sum((spectral - oracle) ** 2) / np.sum(spectral ** 2))
        assert rel < 0.1


class TestDerivatives:
    def test_constant_derivative_zero(self, box16):
        phys = np.ones((3, 16, 16, 16))
        u = sp.to_spectral(box16, phys)
        assert np.abs(sp.partial_derivative(u, 0).coef).max() < 1e-14

    def test_sin_derivative(self, box16):
        u = mode_field(box16, (1, 0, 0), component=0, trig=np.sin)
        got = sp.partial_derivative(u, 0).to_physical()
        x1 = box16.coordinates[0]
        expect = np.zeros_like(got)
        expect[0] = (2 * math.pi / 32.0) * np.cos(2 * math.pi * x1 / 32.0)
        assert np.abs(got - expect).max() < 1e-13

    def test_mixed_partials_commute(self, box16):
        u = sp.random_field(box16, 8, 2.0)
        a = sp.partial_derivative(sp.partial_derivative(u, 0), 1)
        b = sp.partial_derivative(sp.partial_derivative(u, 1), 0)
        # per-mode products agree up to reassociation roundoff (one ulp)
        scale = np.abs(a.coef).max()
        assert np.abs(a.coef - b.coef).max() < 1e-15 * scale

    def test_axis_validation(self, box16):
        with pytest.raises(ValueError, match="axis"):
            sp.partial_derivative(sp.SpectralField.zero(box16), 3)


class TestConvolution:
    def test_discrete_delta_is_identity(self, box16, dirac16):
        assert np.abs(dirac16.values - 1.0).max() < 1e-12
        assert dirac16.kernel_l1 == pytest.approx(1.0, rel=1e-12)
        u = sp.random_field(box16, 9, 2.0)
        assert np.abs(dirac16.values * u.coef - u.coef).max() < 1e-14

    def test_gaussian_zero_mode_equals_mass(self, box16):
        op = sp.gaussian_convolution_operator(box16, 2.0, 0.7)
        assert op.values[0, 0, 0].real == pytest.approx(0.7, abs=1e-12)
        assert op.kernel_l1 >= 0.7 - 1e-9

    def test_youngs_inequality_sweep(self, box16):
        op = sp.gaussian_convolution_operator(box16, 2.0, 0.4)
        for seed in range(100):
            u = sp.random_field(box16, seed, decay=1.0)
            v = sp.SpectralField(box16, op.values * u.coef)
            for p in (1.5, 2.0, 3.0):
                assert sp.lp_norm(v, p) <= op.kernel_l1 * sp.lp_norm(u, p) * (1 + 1e-10)

    def test_non_hermitian_multiplier_rejected(self, box16):
        bad = np.ones(box16.spectrum_shape, dtype=complex)
        bad[1, 0, 0] = 1j
        with pytest.raises(ValueError, match="Hermitian"):
            sp.convolution_operator_from_multiplier(box16, bad)

    def test_kernel_samples_route(self, box16):
        op = sp.gaussian_convolution_operator(box16, 2.0, 0.3)
        kernel = np.fft.irfftn(op.values, s=(16,) * 3, axes=(0, 1, 2), norm="forward")
        kernel /= box16.volume
        again = sp.convolution_operator_from_kernel(box16, kernel)
        assert np.abs(again.values - op.values).max() < 1e-12
        assert again.kernel_l1 == pytest.approx(op.kernel_l1, rel=1e-12)


def advective_nonlinearity(u: sp.SpectralField) -> sp.SpectralField:
    """Oracle: -(X . grad) u + (u . grad) X in advective form.

    Each of the six physical derivatives is its own inverse transform; the
    inputs and the result get the same 2/3-rule truncation as in
    ``vorticity_nonlinearity``.
    """
    u_band, x_band = sp.dealias(u), sp.dealias(sp.biot_savart(u))
    u_phys, x_phys = u_band.to_physical(), x_band.to_physical()
    out = np.zeros_like(u_phys)
    for b in range(3):
        du_b = sp.partial_derivative(u_band, b).to_physical()
        dx_b = sp.partial_derivative(x_band, b).to_physical()
        out += -x_phys[b] * du_b + u_phys[b] * dx_b
    return sp.dealias(sp.to_spectral(u.grid, out))


def dense_convolution(grid, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Independent physical-product oracle in mode space: full convolution sum."""
    n = grid.modes
    out = np.zeros((n, n, n), dtype=complex)
    nz = np.argwhere(a != 0.0)
    for i1, i2, i3 in nz:
        rolled = np.roll(np.roll(np.roll(b, i1, 0), i2, 1), i3, 2)
        out += a[i1, i2, i3] * rolled
    return out


class TestNonlinearity:
    def test_zero_input(self, box16):
        z = sp.SpectralField.zero(box16)
        assert np.abs(sp.vorticity_nonlinearity(z).coef).max() == 0.0

    def test_quadratic_homogeneity(self, box16):
        u = solenoidal_field(box16, 10)
        m1 = sp.vorticity_nonlinearity(u)
        m2 = sp.vorticity_nonlinearity(2.0 * u)
        assert np.abs(m2.coef - 4.0 * m1.coef).max() <= 1e-12 * np.abs(m1.coef).max()

    def test_single_mode_against_dense_convolution(self, box8):
        # mode-convolution oracle: evaluate both advection products by the
        # dense convolution sum on the 8^3 grid, bypassing the transform path
        g = box8
        u = mode_field(g, (1, 0, 0), component=2)
        x = sp.biot_savart(u)
        uf, xf = full_spectrum(u.coef), full_spectrum(x.coef)
        expect = np.zeros_like(uf)
        for a in range(3):
            for b in range(3):
                du_a = full_spectrum(1j * g.deriv_xi[b] * u.coef[a])
                dx_a = full_spectrum(1j * g.deriv_xi[b] * x.coef[a])
                expect[a] += -dense_convolution(g, xf[b], du_a)
                expect[a] += dense_convolution(g, uf[b], dx_a)
        got = sp.vorticity_nonlinearity(u)
        scale = max(np.abs(expect).max(), 1e-30)
        assert np.abs(full_spectrum(got.coef) - expect).max() < 1e-12 * max(scale, 1.0)

    def test_preserves_hermitian_symmetry(self, box16):
        u = solenoidal_field(box16, 11, mean_zero=False)
        assert sp._plane_defect(sp.vorticity_nonlinearity(u).coef) < 1e-14

    @pytest.mark.parametrize("modes", [16, 32])
    @pytest.mark.parametrize("mean_zero", [True, False])
    def test_rotational_equals_advective_form(self, modes, mean_zero):
        grid = sp.BoxGrid(32.0, modes)
        for seed in (12, 13):
            u = solenoidal_field(grid, seed, mean_zero=mean_zero)
            got = sp.vorticity_nonlinearity(u)
            want = advective_nonlinearity(u)
            scale = np.abs(want.coef).max()
            assert scale > 0.0
            assert np.abs(got.coef - want.coef).max() <= 1e-13 * scale

    @pytest.mark.parametrize("modes", [16, 32])
    def test_output_divergence_free(self, modes):
        grid = sp.BoxGrid(32.0, modes)
        u = solenoidal_field(grid, 14)
        m = sp.vorticity_nonlinearity(u)
        # |div| <= |xi| |coef| summed over three components, in rounding units
        scale = np.abs(grid.deriv_xi).max() * np.abs(m.coef).max()
        assert divergence_defect(m) <= 1e-14 * scale


class TestNorms:
    def test_constant_unit_field(self, box16):
        phys = np.zeros((3, 16, 16, 16))
        phys[0] = 1.0
        u = sp.to_spectral(box16, phys)
        for p in (1.0, 1.5, 2.0, 3.0):
            assert sp.lp_norm(u, p) == pytest.approx(32.0 ** (3.0 / p), rel=1e-12)
        with pytest.raises(ValueError, match="finite"):
            sp.lp_norm(u, math.inf)

    def test_parseval(self, box16):
        u = sp.random_field(box16, 12, 2.0)
        phys_norm = sp.lp_norm(u, 2)
        parseval = math.sqrt(np.sum(np.abs(full_spectrum(u.coef)) ** 2) * box16.volume)
        assert abs(phys_norm - parseval) / parseval < 1e-10

    def test_scaled_norms_monotone_in_p(self, box16):
        for seed in range(10):
            u = sp.random_field(box16, seed, 2.0)
            vals = [
                32.0 ** (-3.0 / p) * sp.lp_norm(u, p) for p in (1.0, 1.5, 2.0, 3.0, 6.0)
            ]
            assert all(a <= b * (1 + 1e-12) for a, b in zip(vals, vals[1:]))

    def test_p_below_one_rejected(self, box16):
        with pytest.raises(ValueError, match="p"):
            sp.lp_norm(sp.SpectralField.zero(box16), 0.5)

    def test_pairings_match_full_spectrum_parseval(self, box16):
        for seed in range(5):
            u = sp.random_field(box16, 40 + seed, decay=0.5)
            v = sp.vorticity_nonlinearity(solenoidal_field(box16, 50 + seed, mean_zero=False))
            fu, fv = full_spectrum(u.coef), full_spectrum(v.coef)
            pair = float(np.real(np.sum(fu * np.conj(fv)))) * box16.volume
            assert abs(sp.inner_product(u, v) - pair) <= 1e-14 * abs(pair)
            l2 = math.sqrt(float(np.sum(np.abs(fu) ** 2)) * box16.volume)
            assert abs(sp.spectral_l2(u) - l2) <= 1e-14 * l2

    def test_inner_product_symmetry(self, box16):
        u = sp.random_field(box16, 13, 2.0)
        v = sp.random_field(box16, 14, 2.0)
        assert sp.inner_product(u, v) == pytest.approx(sp.inner_product(v, u), rel=1e-12)
        phys = np.sum(u.to_physical() * v.to_physical()) * box16.cell_volume
        assert sp.inner_product(u, v) == pytest.approx(phys, rel=1e-10)


class TestFieldStore:
    def test_roundtrip_exact(self, box16, tmp_path):
        u = solenoidal_field(box16, 15, mean_zero=False)
        sp.save_field(u, tmp_path / "field")
        v = sp.load_field(tmp_path / "field", box16)
        assert np.array_equal(u.coef, v.coef)
        assert v.grid == box16

    def test_store_holds_exact_hermitian_full_spectrum(self, box16, tmp_path):
        u = sp.vorticity_nonlinearity(solenoidal_field(box16, 20, mean_zero=False))
        _, bp = sp.save_field(u, tmp_path / "field")
        flat = np.frombuffer(bp.read_bytes(), dtype="<f8")
        full = np.fft.ifftshift((flat[0::2] + 1j * flat[1::2]).reshape(3, 16, 16, 16), axes=(1, 2, 3))
        mirror = np.conj(np.roll(np.flip(full, axis=(1, 2, 3)), 1, axis=(1, 2, 3)))
        assert np.array_equal(full, mirror)
        assert np.array_equal(full, full_spectrum(u.coef))
        v = sp.load_field(tmp_path / "field", box16)
        assert v.coef.tobytes() == u.coef.tobytes()

    def test_non_hermitian_store_rejected(self, box16, tmp_path):
        u = solenoidal_field(box16, 21, mean_zero=False)
        _, bp = sp.save_field(u, tmp_path / "field")
        flat = np.frombuffer(bp.read_bytes(), dtype="<f8").copy()
        flat[2 * 1000 + 1] += 1e-6 * np.abs(flat).max()  # one imaginary part
        bp.write_bytes(flat.tobytes())
        with pytest.raises(ValueError, match=re.escape(str(bp))):
            sp.load_field(tmp_path / "field", box16)

    @pytest.mark.parametrize("grid", [sp.BoxGrid(32.0, 8), sp.BoxGrid(16.0, 16)], ids=["modes", "size"])
    def test_store_on_another_box_rejected(self, box16, tmp_path, grid):
        hp, _ = sp.save_field(solenoidal_field(box16, 22), tmp_path / "field")
        with pytest.raises(ValueError, match=re.escape(f"{hp} holds a field of 16 modes on size 32.0")):
            sp.load_field(tmp_path / "field", grid)

    def test_header_contents(self, box16, tmp_path):
        import json

        hp, bp = sp.save_field(sp.SpectralField.zero(box16), tmp_path / "z")
        header = json.loads(hp.read_text())
        assert header["modes"] == 16 and header["components"] == 3
        assert bp.stat().st_size == 3 * 16 ** 3 * 16


class TestHermitianHygiene:
    def test_operations_preserve_symmetry(self, box16):
        u = sp.random_field(box16, 16, 2.0)
        ops = [
            lambda f: sp.heat_semigroup(f, 0.2),
            lambda f: sp.partial_derivative(f, 1),
            sp.curl,
            sp.biot_savart,
            lambda f: sp.project_divergence_free(f),
            sp.laplacian,
        ]
        for op in ops:
            assert sp._plane_defect(op(u).coef) < 1e-12

    def test_bump_fields_normalised_and_band_limited(self, box16):
        phis = sp.bump_fields(box16, 3, 21)
        for phi in phis:
            assert sp.lp_norm(phi, 2) == pytest.approx(1.0, rel=1e-12)
            k = np.fft.fftfreq(16, d=1 / 16)
            k3 = np.fft.rfftfreq(16, d=1 / 16)
            mask = (np.abs(k[:, None, None]) > 2) | (np.abs(k[None, :, None]) > 2) | (
                np.abs(k3[None, None, :]) > 2
            )
            assert np.abs(phi.coef[:, mask]).max() < 1e-14

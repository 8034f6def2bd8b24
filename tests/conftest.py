"""Shared fixtures: one desk-scale path, box and noise model per session."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import pytest

from vortexlab import roughpath as rpm
from vortexlab import spectral as sp
from vortexlab import transform as tr


@pytest.fixture(scope="session")
def fine_grid() -> rpm.TimeGrid:
    return rpm.TimeGrid(1.0, 4096)


@pytest.fixture(scope="session")
def brownian(fine_grid) -> rpm.DrivingPath:
    return rpm.sample_brownian(42, 2, fine_grid)


@pytest.fixture(scope="session")
def rp_ito(brownian) -> rpm.RoughPath:
    return rpm.enhance(brownian, rpm.ITO, alpha=0.4)


@pytest.fixture(scope="session")
def rp_strat(brownian) -> rpm.RoughPath:
    return rpm.enhance(brownian, rpm.STRATONOVICH, alpha=0.4)


@pytest.fixture(scope="session")
def box16() -> sp.BoxGrid:
    return sp.BoxGrid(32.0, 16)


@pytest.fixture(scope="session")
def box8() -> sp.BoxGrid:
    return sp.BoxGrid(32.0, 8)


@pytest.fixture(scope="session")
def dirac16(box16) -> sp.ConvolutionOperator:
    """Unit-mass discrete delta (kernel 1/cell_volume at the origin)."""
    return sp.convolution_operator_from_multiplier(box16, np.ones((16, 16, 16), dtype=complex))


@pytest.fixture(scope="session")
def noise_pair(box16) -> tr.NoiseModel:
    k1 = sp.gaussian_convolution_operator(box16, 2.0, 0.1)
    k2 = sp.gaussian_convolution_operator(box16, 3.0, 0.1)
    return tr.NoiseModel((0.8, -0.9), (k1, k2), require_dominance=True)


@pytest.fixture(scope="session")
def noise_scalar() -> tr.NoiseModel:
    return tr.NoiseModel((0.4, -0.3), (None, None))


@pytest.fixture(scope="session")
def small_u0(box16, noise_pair, brownian) -> sp.SpectralField:
    """Divergence-free mean-zero random data at ten times the gate margin."""
    series = tr.bound_series(noise_pair, brownian)
    u0 = sp.random_field(box16, 7, divergence_free=True, mean_zero=True)
    return u0 * (0.01 / (10.0 * series.sup) / sp.lp_norm(u0, 1.5))


def all_pairs_max_defect(rp: rpm.RoughPath, defect_fn, chunk: int = 512) -> float:
    """Max of |defect_fn(u, vs)| over every grid pair, chunked by left node."""
    steps = rp.grid.steps
    worst = 0.0
    for u in range(steps):
        vs = np.arange(u + 1, steps + 1)
        for lo in range(0, vs.size, chunk * 8):
            block = vs[lo : lo + chunk * 8]
            worst = max(worst, defect_fn(u, block))
    return worst


@dataclass(frozen=True)
class NormBound:
    """Upper bound for the triple operator-norm product, with L^2 reference."""

    upper: float
    exact_l2: float


def norm_product_bound(noise: tr.NoiseModel, beta_t: np.ndarray, t: float) -> NormBound:
    """Oracle: the Young-inequality bound at one node, next to the exact L^2 value.

    Splitting each channel exponent into its scalar part and its kernel part
    and bounding exp of the kernel part by exp(|coefficient| |h|_1) on every
    L^p bounds ||G_t||_p ||G_t||_{3p/(3-p)} ||G_t^-1||_q by the p-independent
    product

        prod_i exp( lambda_i beta_i - (t/2) lambda_i^2
                    + 3 (|beta_i - t lambda_i| |h_i|_1 + (t/2) |h_i|_1^2) ),

    which ``transform.bound_series`` evaluates along a whole path.  The exact
    L^2 value (the multiplier-sup product) is returned alongside; the bound
    dominates it, and for pure scalar channels the two coincide.
    """
    beta_t = np.asarray(beta_t, dtype=np.float64)
    lam = np.array(noise.lambdas)
    m = noise.masses
    exponent = float(
        np.sum(
            lam * beta_t
            - 0.5 * t * lam * lam
            + 3.0 * (np.abs(beta_t - t * lam) * m + 0.5 * t * m * m)
        )
    )
    upper = math.exp(exponent)
    if all(k is None for k in noise.kernels):
        exact = math.exp(float(np.sum(lam * beta_t - 0.5 * t * lam * lam)))
    else:
        grid = next(k.grid for k in noise.kernels if k is not None)
        re = np.real(tr.transform_exponent(tr.transform_symbols(noise, grid), beta_t, t))
        exact = math.exp(2.0 * float(np.max(re)) - float(np.min(re)))
    return NormBound(upper, exact)

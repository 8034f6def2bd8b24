"""The pathwise noise transformation and its operator-norm bookkeeping.

Each noise channel acts by a convolution plus a scalar drift, so the whole
family commutes and the time-t transformation is a single Fourier multiplier

    m(t, xi) = prod_i exp( beta_i(t) A_i(xi) - (t/2) A_i(xi)^2 ),

with A_i the channel symbol (kernel multiplier plus drift constant).  The
reciprocal multiplier is exp of the negated exponent, so forward and inverse
agree to roundoff mode by mode.

Operator norms of the transformation on L^p have no closed form for p != 2;
the gate logic therefore uses the Young-inequality upper bound derived from
the kernel masses (``bound_series``).  The bound is conservative: it never
admits data the exact norms would reject.  That it dominates the exact L^2
multiplier value is checked by the test suite against its own single-node
oracle, not by the gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .roughpath import BLOCK_ROWS, DrivingPath
from .spectral import BoxGrid, ConvolutionOperator, SpectralField, lp_norm

# Kernel-mass threshold for the drift constants: below this margin the
# deterministic part of the norm-bound exponent stops being negative.
DOMINANCE_CONSTANT = math.sqrt(12.0) + 3.0


@dataclass(frozen=True)
class NoiseModel:
    """Channel data: drift constants and optional convolution kernels.

    ``kernels[i] is None`` means a pure scalar channel (zero kernel).
    """

    lambdas: tuple[float, ...]
    kernels: tuple[ConvolutionOperator | None, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "lambdas", tuple(float(x) for x in self.lambdas))
        object.__setattr__(self, "kernels", tuple(self.kernels))
        if len(self.lambdas) != len(self.kernels) or not self.lambdas:
            raise ValueError("need one drift constant per kernel, at least one channel")

    @property
    def channels(self) -> int:
        return len(self.lambdas)

    @property
    def masses(self) -> np.ndarray:
        return np.array([0.0 if k is None else k.kernel_l1 for k in self.kernels])

    def channel_symbol(self, grid: BoxGrid, i: int) -> np.ndarray:
        """A_i(xi) = kernel multiplier + drift constant on the stored half
        spectrum, an (n, n, n//2 + 1) array."""
        lam = self.lambdas[i]
        k = self.kernels[i]
        if k is None:
            return np.full(grid.spectrum_shape, lam, dtype=complex)
        return k.values + lam


def dominance_margins(noise: NoiseModel) -> np.ndarray:
    """Per-channel |lambda_i| - (sqrt(12)+3)|h_i|_1; the gate wants all > 0."""
    return np.abs(np.array(noise.lambdas)) - DOMINANCE_CONSTANT * noise.masses


class TransformProvider:
    """The transformation of one noise model on one box, along one path.

    The channel symbols A_i and their squared sum are built once; the
    multipliers at a rough-grid node are formed from them anew on every
    request.  Nothing is cached: the two multipliers are (n, n, n//2 + 1)
    complex arrays, and forming them is cheap next to the nonlinearity they
    bracket.  ``transform_exponent`` takes the exponent at any (beta, t).
    """

    def __init__(self, noise: NoiseModel, path: DrivingPath, grid: BoxGrid):
        self.path = path
        self.grid = grid
        self.channel = tuple(noise.channel_symbol(grid, i) for i in range(noise.channels))
        self.squared_sum = sum(a * a for a in self.channel)

    def at_index(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """The forward and inverse multipliers exp(e), exp(-e) at node ``j``."""
        t = float(self.path.grid.times[j])
        e = transform_exponent(self, self.path.values[j], t)
        forward = np.exp(e)
        # The inverse takes the exponent's buffer: one array fewer per call.
        return forward, np.exp(np.negative(e, out=e), out=e)


def transform_exponent(
    provider: TransformProvider,
    beta_t: np.ndarray,
    t: float,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """log-multiplier sum_i beta_i A_i - (t/2) A_i^2, summed in channel order.

    ``beta_t`` of shape (N,) with a scalar ``t`` gives one exponent on the
    half spectrum, (n, n, n//2 + 1); shape (K, N) with ``t`` of shape (K,)
    gives the K exponents stacked, each by the same operations in the same
    order.  ``out`` receives the result and ``scratch`` holds each term; both
    have the result's shape and are allocated when not given.
    """
    beta = np.asarray(beta_t, dtype=np.float64)
    half_t = 0.5 * np.asarray(t, dtype=np.float64)
    modes = (...,) + (None,) * 3
    shape = half_t.shape + provider.squared_sum.shape
    e = np.empty(shape, dtype=np.complex128) if out is None else out
    term = np.empty(shape, dtype=np.complex128) if scratch is None else scratch
    e.fill(0.0)
    for i, a in enumerate(provider.channel):
        np.add(e, np.multiply(beta[..., i][modes], a, out=term), out=e)
        np.subtract(e, np.multiply(half_t[modes], a * a, out=term), out=e)
    return e


@dataclass(frozen=True)
class BoundSeries:
    """Norm-bound time series along a sampled path."""

    times: np.ndarray
    upper: np.ndarray

    @property
    def sup(self) -> float:
        return float(np.max(self.upper))


def bound_series(noise: NoiseModel, path: DrivingPath) -> BoundSeries:
    """Norm bounds at every node of the sampled horizon, evaluated
    BLOCK_ROWS nodes at a time into one array."""
    times = path.grid.times
    lam = np.array(noise.lambdas)
    m = noise.masses
    exponents = np.empty(times.shape)
    for a in range(0, times.size, BLOCK_ROWS):
        t = times[a : a + BLOCK_ROWS, None]
        beta = path.values[a : a + BLOCK_ROWS]
        np.sum(
            lam * beta
            - 0.5 * t * lam * lam
            + 3.0 * (np.abs(beta - t * lam) * m + 0.5 * t * m * m),
            axis=1,
            out=exponents[a : a + BLOCK_ROWS],
        )
    return BoundSeries(times, np.exp(exponents, out=exponents))


@dataclass(frozen=True)
class GateReport:
    """Smallness check: bound sup times the initial-data norm against c_star."""

    eta_sup: float
    u0_norm: float
    product: float
    c_star: float
    passed: bool
    margins: tuple[float, ...]

    def to_json_dict(self) -> dict:
        return {
            "eta_sup": self.eta_sup,
            "u0_norm": self.u0_norm,
            "product": self.product,
            "c_star": self.c_star,
            "pass": self.passed,
            "margins": list(self.margins),
        }


def smallness_gate(
    u0: SpectralField, eta_sup: float, c_star: float, noise: NoiseModel
) -> GateReport:
    """Pass iff eta_sup * |u0|_{3/2} <= c_star.  Failure is a value, not an error.

    The report also carries the noise model's dominance margins.
    """
    u0_norm = lp_norm(u0, 1.5)
    product = eta_sup * u0_norm
    margins = tuple(float(x) for x in dominance_margins(noise))
    return GateReport(
        eta_sup=float(eta_sup),
        u0_norm=u0_norm,
        product=product,
        c_star=float(c_star),
        passed=bool(product <= c_star),
        margins=margins,
    )

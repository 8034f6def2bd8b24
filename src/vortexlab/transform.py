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

    ``kernels[i] is None`` means a pure scalar channel (zero kernel).  With
    ``require_dominance`` set, construction insists that every drift constant
    exceeds DOMINANCE_CONSTANT times the kernel mass, the standing assumption
    behind global-in-time bounds.
    """

    lambdas: tuple[float, ...]
    kernels: tuple[ConvolutionOperator | None, ...]
    require_dominance: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "lambdas", tuple(float(x) for x in self.lambdas))
        object.__setattr__(self, "kernels", tuple(self.kernels))
        if len(self.lambdas) != len(self.kernels) or not self.lambdas:
            raise ValueError("need one drift constant per kernel, at least one channel")
        if self.require_dominance:
            margins = dominance_margins(self)
            if np.any(margins <= 0.0):
                raise ValueError(
                    f"dominance margins must all be positive, got {margins.tolist()}"
                )

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


def deterministic_exponents(noise: NoiseModel) -> np.ndarray:
    """Per-channel lambda^2/2 - 3(|lambda| m + m^2/2), m the kernel mass.

    This is minus the t-linear part of the norm-bound exponent; it is
    positive exactly when the corresponding dominance margin is positive.
    """
    lam = np.abs(np.array(noise.lambdas))
    m = noise.masses
    return 0.5 * lam * lam - 3.0 * (lam * m + 0.5 * m * m)


@dataclass(frozen=True)
class TransformSymbols:
    """Precomputed per-mode channel symbols for one grid."""

    grid: BoxGrid
    channel: tuple[np.ndarray, ...]  # A_i arrays
    squared_sum: np.ndarray  # sum_i A_i^2


def transform_symbols(noise: NoiseModel, grid: BoxGrid) -> TransformSymbols:
    channel = tuple(noise.channel_symbol(grid, i) for i in range(noise.channels))
    squared = sum(a * a for a in channel)
    return TransformSymbols(grid, channel, squared)


def transform_exponent(
    symbols: TransformSymbols,
    beta_t: np.ndarray,
    t: float,
    order=None,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """log-multiplier sum_i beta_i A_i - (t/2) A_i^2 in the given channel order.

    ``beta_t`` of shape (N,) with a scalar ``t`` gives one exponent on the
    half spectrum, (n, n, n//2 + 1); shape (K, N) with ``t`` of shape (K,)
    gives the K exponents stacked, each by the same operations in the same
    order.  ``out`` receives the result and ``scratch`` holds each term; both
    have the result's shape and are allocated when not given.
    """
    idx = range(len(symbols.channel)) if order is None else order
    beta = np.asarray(beta_t, dtype=np.float64)
    half_t = 0.5 * np.asarray(t, dtype=np.float64)
    modes = (...,) + (None,) * 3
    shape = half_t.shape + symbols.squared_sum.shape
    e = np.empty(shape, dtype=np.complex128) if out is None else out
    term = np.empty(shape, dtype=np.complex128) if scratch is None else scratch
    e.fill(0.0)
    for i in idx:
        a = symbols.channel[i]
        np.add(e, np.multiply(beta[..., i][modes], a, out=term), out=e)
        np.subtract(e, np.multiply(half_t[modes], a * a, out=term), out=e)
    return e


@dataclass(frozen=True)
class NoiseTransform:
    """Time-t multiplier realisation of the transformation and its inverse."""

    grid: BoxGrid
    exponent: np.ndarray  # (n, n, n//2 + 1) complex

    def __post_init__(self) -> None:
        e = np.asarray(self.exponent, dtype=np.complex128)
        object.__setattr__(self, "exponent", e)
        object.__setattr__(self, "_forward", np.exp(e))
        object.__setattr__(self, "_inverse", np.exp(-e))

    @property
    def forward_multiplier(self) -> np.ndarray:
        return self._forward  # type: ignore[attr-defined]

    @property
    def inverse_multiplier(self) -> np.ndarray:
        return self._inverse  # type: ignore[attr-defined]

    def apply(self, u: SpectralField, inverse: bool = False) -> SpectralField:
        if u.grid != self.grid:
            raise ValueError("field grid does not match transform grid")
        m = self._inverse if inverse else self._forward  # type: ignore[attr-defined]
        return SpectralField(u.grid, m * u.coef)


def build_transform(
    noise: NoiseModel,
    grid: BoxGrid,
    beta_t: np.ndarray,
    t: float,
    order=None,
) -> NoiseTransform:
    """Construct the transformation at one time from the channel values.

    The factors are commuting multipliers, so ``order`` only permutes the
    floating-point summation of the exponent; any order agrees to roundoff.
    """
    if t < 0:
        raise ValueError(f"transform time must be >= 0, got {t}")
    beta_t = np.asarray(beta_t, dtype=np.float64)
    if beta_t.shape != (noise.channels,):
        raise ValueError(f"need one channel value per channel, got {beta_t.shape}")
    symbols = transform_symbols(noise, grid)
    return NoiseTransform(grid, transform_exponent(symbols, beta_t, t, order))


class TransformProvider:
    """Transforms at rough-grid nodes, built anew on every request.

    Nothing is cached: a transform holds three (n, n, n//2 + 1) complex
    arrays, and forming one from the precomputed channel symbols is cheap
    next to the nonlinearity it brackets.
    """

    def __init__(self, noise: NoiseModel, path: DrivingPath, grid: BoxGrid):
        self.path = path
        self.grid = grid
        self.symbols = transform_symbols(noise, grid)

    def at_index(self, j: int) -> NoiseTransform:
        t = float(self.path.grid.times[j])
        e = transform_exponent(self.symbols, self.path.values[j], t)
        return NoiseTransform(self.grid, e)


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

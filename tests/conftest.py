"""Shared fixtures (one desk-scale path, box and noise model per session) and
the oracles that tests compare the program against."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import pytest

from vortexlab import roughpath as rpm
from vortexlab import solver as sv
from vortexlab import spectral as sp
from vortexlab import transform as tr
from vortexlab import verifier as vf


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
    return sp.convolution_operator_from_multiplier(box16, np.ones(box16.spectrum_shape, dtype=complex))


@pytest.fixture(scope="session")
def noise_pair(box16) -> tr.NoiseModel:
    k1 = sp.gaussian_convolution_operator(box16, 2.0, 0.1)
    k2 = sp.gaussian_convolution_operator(box16, 3.0, 0.1)
    return tr.NoiseModel((0.8, -0.9), (k1, k2), require_dominance=True)


@pytest.fixture(scope="session")
def noise_scalar() -> tr.NoiseModel:
    return tr.NoiseModel((0.4, -0.3), (None, None))


def solenoidal_field(
    grid: sp.BoxGrid, seed: int, decay: float = 2.0, mean_zero: bool = True
) -> sp.SpectralField:
    """A seeded ``random_field`` projected divergence-free, its mean dropped
    unless ``mean_zero`` is False."""
    return sp.project_divergence_free(sp.random_field(grid, seed, decay), remove_mean=mean_zero)


@pytest.fixture(scope="session")
def small_u0(box16, noise_pair, brownian) -> sp.SpectralField:
    """Divergence-free mean-zero random data at ten times the gate margin."""
    series = tr.bound_series(noise_pair, brownian)
    u0 = solenoidal_field(box16, 7)
    return u0 * (0.01 / (10.0 * series.sup) / sp.lp_norm(u0, 1.5))


def full_spectrum(coef: np.ndarray) -> np.ndarray:
    """Oracle: the full spectrum (..., n, n, n) of a stored half spectrum
    (..., n, n, n//2 + 1), each mode with k3 > n/2 the complex conjugate of
    the stored mode at -k, mode by mode."""
    n = coef.shape[-2]
    neg = (-np.arange(n)) % n
    full = np.empty(coef.shape[:-1] + (n,), dtype=complex)
    full[..., : n // 2 + 1] = coef
    for k3 in range(n // 2 + 1, n):
        full[..., k3] = np.conj(coef[..., neg[:, None], neg[None, :], n - k3])
    return full


def divergence_defect(u: sp.SpectralField) -> float:
    """Oracle: the largest |i xi . coef| over the stored modes, the
    divergence taken with the derivative wavenumbers."""
    div = np.sum(1j * u.grid.deriv_xi * u.coef, axis=0)
    return float(np.max(np.abs(div)))


def is_exact(fit: rpm.RateFit) -> bool:
    """Oracle: ``fit_rate`` reports an exact (zero-difference) ladder by an
    infinite slope."""
    return math.isinf(fit.slope)


def refinement_rate(
    controlled: rpm.ControlledPath, rp: rpm.RoughPath, levels: int | None = None
) -> rpm.RateFit:
    """Oracle: the log-log fit of |I(P_k) - I(P_finest)| against |P_k| over
    the dyadic ladder (to single steps unless ``levels`` is given), I the
    compensated sum; an exactly partition-independent integrand gives the
    +inf slope.  Windows of fewer than 16 nodes raise GridError."""
    nodes = controlled.node_indices
    if nodes.size < 16:
        raise rpm.GridError("refinement window must contain at least 16 grid nodes")
    finest = rpm.rough_integral(controlled, rp, nodes)
    meshes, diffs = [], []
    for pos in rpm.dyadic_partitions(0, nodes.size - 1, levels or nodes.size):
        value = rpm.rough_integral(controlled, rp, nodes[pos])
        meshes.append(float(np.max(np.diff(controlled.times[pos]))))
        diffs.append(float(np.sqrt(np.sum((value - finest) ** 2))))
    return rpm.fit_rate(meshes, diffs)


def reference_sample_brownian(seed: int, channels: int, grid: rpm.TimeGrid) -> np.ndarray:
    """Oracle: the path values of ``sample_brownian``, drawn, quantised and
    summed as whole arrays."""
    rng = np.random.default_rng(seed)
    std = math.sqrt(grid.horizon / grid.steps)
    increments = rng.standard_normal((grid.steps, channels)) * std
    increments = np.round(increments / rpm.INCREMENT_QUANTUM) * rpm.INCREMENT_QUANTUM
    return np.vstack([np.zeros((1, channels)), np.cumsum(increments, axis=0)])


def reference_prefix(path: rpm.DrivingPath, flavor: str) -> np.ndarray:
    """Oracle: the prefix table of one flavor, every step tensor formed at
    once and summed by one whole-array cumulative sum."""
    inc = np.diff(path.values, axis=0)
    left = path.values[:-1]
    if flavor == rpm.STRATONOVICH:
        left = left + 0.5 * inc
    steps = left[:, :, None] * inc[:, None, :]
    return np.concatenate([np.zeros((1,) + steps.shape[1:]), np.cumsum(steps, axis=0)])


def reference_bound_upper(noise: tr.NoiseModel, path: rpm.DrivingPath) -> np.ndarray:
    """Oracle: the norm-bound series of ``transform.bound_series``, its
    exponents summed over one whole-path array."""
    times = path.grid.times
    beta = path.values
    lam = np.array(noise.lambdas)
    m = noise.masses
    exponents = np.sum(
        lam * beta
        - 0.5 * times[:, None] * lam * lam
        + 3.0 * (np.abs(beta - times[:, None] * lam) * m + 0.5 * times[:, None] * m * m),
        axis=1,
    )
    return np.exp(exponents)


def set_block_rows(monkeypatch, rows: int) -> None:
    """Patch the rough-path layer's block size where it is read."""
    monkeypatch.setattr(rpm, "BLOCK_ROWS", rows)
    monkeypatch.setattr(tr, "BLOCK_ROWS", rows)


def subsample_path(path: rpm.DrivingPath, stride: int) -> rpm.DrivingPath:
    """Oracle: dyadic coarsening of a driving path, every ``stride``-th node
    kept; a stride that is not a power of two, or leaves fewer than two
    steps, raises GridError."""
    if stride < 1 or stride & (stride - 1) or path.grid.steps // stride < 2:
        raise rpm.GridError(f"stride {stride} does not yield a valid coarser grid")
    coarse = rpm.TimeGrid(path.grid.horizon, path.grid.steps // stride)
    return rpm.DrivingPath(coarse, path.values[::stride], seed=path.seed)


def subsample(observable: vf.Observable, stride: int) -> vf.Observable:
    """Oracle: the observable on every ``stride``-th window node."""
    return vf.Observable(
        observable.node_indices[::stride].copy(),
        observable.times[::stride].copy(),
        observable.values[::stride].copy(),
        observable.derivative[::stride].copy(),
        observable.nonlinear[::stride].copy(),
        observable.drift[::stride].copy(),
    )


def remainder_quotients_by_row(
    observable: vf.Observable, rp: rpm.RoughPath, alpha: float
) -> tuple[vf.QuotientTable, vf.QuotientTable]:
    """Oracle: the fine and coarse quotient tables of one observable, one
    start node at a time over every later node, each pair divided by its own
    time step; a NaN quotient makes its sup NaN."""
    idx = observable.node_indices
    times = observable.times
    y = observable.values
    yp = observable.derivative
    beta = rp.values[idx]
    n = y.shape[1]
    best_r = [np.zeros(n), np.zeros(n)]
    best_c = [0.0, 0.0]
    for a in range(idx.size - 1):
        dt = times[a + 1 :] - times[a]
        dy = y[a + 1 :] - y[a]  # (M, N)
        dbeta = beta[a + 1 :] - beta[a]  # (M, N)
        expansion = dbeta @ yp[a].T  # (M, N): sum_k Y'[i,k] dbeta[k]
        rem = np.abs(dy - expansion) / (dt ** (2.0 * alpha))[:, None]
        dcoef = yp[a + 1 :] - yp[a]
        coef = np.sqrt(np.sum(dcoef * dcoef, axis=(1, 2))) / dt ** alpha
        best_r[0] = np.maximum(best_r[0], rem.max(axis=0))
        best_c[0] = float(np.maximum(best_c[0], np.max(coef)))
        # Row r pairs node a with node a + r + 1, so for an even a the odd
        # rows are the coarse grid's pairs.
        if a % 2 == 0 and dt.size >= 2:
            best_r[1] = np.maximum(best_r[1], rem[1::2].max(axis=0))
            best_c[1] = float(np.maximum(best_c[1], np.max(coef[1::2])))
    fine, coarse = (vf.QuotientTable(tuple(r), c) for r, c in zip(best_r, best_c))
    return fine, coarse


def field_at(traj: sv.Trajectory, t: float) -> sp.SpectralField:
    """Oracle: the trajectory at time t, the node's own field on a node and
    the linear interpolation of the coefficients between nodes."""
    times = traj.times
    j = min(int(np.searchsorted(times, t, side="right")) - 1, times.size - 2)
    if times[j] == t:
        return traj.fields[j]
    lam = (t - times[j]) / (times[j + 1] - times[j])
    coef = (1.0 - lam) * traj.fields[j].coef + lam * traj.fields[j + 1].coef
    return sp.SpectralField(traj.fields[j].grid, coef)


def outside_band_defect(traj: sv.Trajectory) -> float:
    """Oracle: the largest |y_m - e^{t_m Delta} y_0| over the modes outside
    the 2/3-rule band, taken over every node of ``traj``."""
    keep = traj.fields[0].grid.dealias_keep
    return max(
        float(np.max(np.abs((y - sp.heat_semigroup(traj.fields[0], float(t))).coef[:, ~keep])))
        for y, t in zip(traj.fields, traj.times)
    )


def weighted_sup(fields, times: np.ndarray, p: float) -> float:
    """Oracle: the running max of t^w1 |y|_p + t^w2 max_i |D_i y|_p over
    every node with t > 0, each evaluated from its L^p norms."""
    best = 0.0
    for y, t in zip(fields, times):
        if t > 0.0:
            _, base, deriv = sv.weighted_norm_terms(y, float(t), p)
            best = max(best, base + deriv)
    return best


def weighted_distance(a, b, times: np.ndarray, p: float) -> float:
    """Oracle: the weighted sup norm of the node-wise differences, every node
    evaluated (``weighted_sup``)."""
    return weighted_sup([x - y for x, y in zip(a, b)], times, p)


def reference_picard(
    config: sv.SolverConfig,
    time_grid: rpm.TimeGrid,
    u0: sp.SpectralField,
    provider: tr.TransformProvider,
    nonlinearity=sp.vorticity_nonlinearity,
) -> sv.Trajectory:
    """Oracle: the list-based Picard loop, holding the heat flow, the
    iterate, the new iterate, every interior integrand and the differences
    as whole lists, with the same stopping rules as ``sv.picard_solve``."""
    node_idx = sv.solver_node_indices(config, time_grid)
    times = time_grid.times[node_idx]
    a = config.singular_exponent
    base = [u0] + [sp.heat_semigroup(u0, float(t)) for t in times[1:]]
    current = list(base)
    distances: list[float] = []
    ratios: list[float] = []
    for iteration in range(1, config.max_iterations + 1):
        integrands = {
            m: sv.duhamel_integrand(provider, node_idx[m], current[m], nonlinearity)
            for m in range(1, times.size - 1)
        }
        sums = sv.duhamel_sums(integrands.__getitem__, times, a)
        new = [current[0]] + [b + acc for b, acc in zip(base[1:], sums)]
        dist = weighted_distance(new, current, times, config.p)
        distances.append(dist)
        if len(distances) >= 2 and distances[-2] > 0.0:
            ratios.append(dist / distances[-2])
        current = new
        if dist < config.tolerance:
            break
        if len(ratios) >= 3 and all(r >= 1.0 for r in ratios[-3:]):
            raise sv.NonContractionError(ratios)
    else:
        raise sv.MaxIterationsError(f"no convergence within {config.max_iterations} iterations")
    return sv.Trajectory(
        config=config,
        time_grid=time_grid,
        node_indices=node_idx,
        times=times,
        fields=tuple(current),
        iterations=iteration,
        distances=tuple(distances),
        ratios=tuple(ratios),
        converged=True,
        gate_forced=False,
    )


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


def artifact_digests(manifest) -> dict[str, str]:
    """The artifact digests of every stage of a run manifest, by file."""
    return {name: d for stage in manifest.stages for name, d in stage["artifacts"].items()}

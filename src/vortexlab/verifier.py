"""Certification of the rough-path weak formulation for the solved field.

The physical field is U = (transform) y with y the solved trajectory; every
check here works pathwise on one realisation.  The central objects are the
scalar observables <B~_i U, phi> paired against a band-limited test field:
they are controlled by the driving path with expansion coefficient
<B~_k B~_i U, phi>, and the stochastic side of the weak formulation is their
compensated-sum integral.  Each check returns its entry of the verify
report: the defects, quotients or rate fits it measured, the threshold each
is held to, and its pass verdict.  The thresholds are the constants below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .roughpath import (
    ITO,
    STRATONOVICH,
    ControlledPath,
    RoughPath,
    chen_defect,
    dyadic_partitions,
    enhance,
    fit_rate,
    rough_integral,
)
from .solver import Trajectory, duhamel_integrand
from .spectral import (
    BoxGrid,
    SpectralField,
    curl,
    dealias,
    inner_product,
    laplacian,
    lp_norm,
    rotational_flux,
    spectral_l2,
)
from .transform import NoiseModel, TransformProvider, transform_exponent

# Pass thresholds, each written into the report next to the value it bounds.
# The bracket windows' covariation tolerances (``bracket_identities``) are
# five standard deviations of the quadratic-variation estimator.
TRANSFORM_IDENTITY_THRESHOLD = 1e-12  # reciprocal and commutation defects
RATE_RMS_MAX = 0.5  # rms residual of the weak-form rate fit to the floor
QUOTIENT_GROWTH_MAX = 2.0  # remainder quotient growth under 2x subsampling
TAYLOR_EXPONENT_MIN = 1.0  # decay exponent of the transform Taylor defect


def _chunk_workspace(nodes: int, grid: BoxGrid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exponent block (K, n, n, n//2 + 1), U block (K, 3, n, n, n//2 + 1) and
    one field of scratch, all complex half spectra, for ``_fields_at_nodes``
    on up to K nodes."""
    half = grid.spectrum_shape
    return (
        np.empty((nodes,) + half, dtype=np.complex128),
        np.empty((nodes, 3) + half, dtype=np.complex128),
        np.empty((3,) + half, dtype=np.complex128),
    )


def _fields_at_nodes(
    traj: Trajectory, provider: TransformProvider, nodes: np.ndarray, work
) -> np.ndarray:
    """U = transform(y) at the rough-grid ``nodes`` of the provider's path,
    stacked as (K, 3, n, n, n//2 + 1).

    y is the trajectory interpolated at each node time (``coef_at``, which
    forms each solver node it reads once for increasing nodes) and the
    transformation is applied exactly there.  The result fills the leading K
    rows of the U block of ``work`` (a ``_chunk_workspace`` for at least K
    nodes); the U block also holds the exponent's terms before y is written
    into it.
    """
    k = nodes.size
    e_block, u_block, scratch = work
    e, u = e_block[:k], u_block[:k]
    path = provider.path
    times = path.grid.times[nodes]
    term = u.reshape(-1)[: e.size].reshape(e.shape)
    np.exp(transform_exponent(provider, path.values[nodes], times, out=e, scratch=term), out=e)
    traj.coef_at(times, u, scratch)
    return np.multiply(e[:, None], u, out=u)


@dataclass(frozen=True)
class Observable(ControlledPath):
    """Paths t -> <B~_i U_t, phi> as a controlled path, with the weak form's
    pairings.

    ``values[t, i]`` holds the observable and ``derivative[t, i, k]`` the
    coefficient <B~_k B~_i U_t, phi>; the coefficient is symmetric in (i, k)
    because the channel operators commute.  ``laplacian[t]`` holds
    <U_t, lap phi>, ``nonlinear[t]`` <M(U_t), phi>, and ``increment`` the
    window's <U_end - U_start, phi>.  ``rough_weak_residual`` forms the
    drift integrand <U_t, lap phi> - <M(U_t), phi> from the first two.
    """

    laplacian: np.ndarray  # (K,)
    nonlinear: np.ndarray  # (K,)
    increment: float


# Byte budget of one chunk's U block, (nodes, 3, n, n, n//2 + 1) complex128:
# 16 nodes at 16 modes per axis.  64-node chunks measured slower and 16%
# larger in peak memory.
_CHUNK_BYTES = 16 * 3 * 16 * 16 * 9 * 16


def _pairing_matrix(provider: TransformProvider, phis) -> np.ndarray:
    """Columns pairing a field's (re, im) float view with every phi's adjoint
    channel fields psi_i = B~_i* phi and psi_ik = (B~_k B~_i)* phi (i major)
    and its Laplacian: N + N^2 + 1 columns per phi, the Parseval weight and
    the grid volume folded in, so one product gives the sums of
    ``inner_product``."""
    grid, a = provider.grid, provider.channel
    cols = []
    for phi in phis:
        cols += [np.conj(a_i) * phi.coef for a_i in a]
        cols += [np.conj(a_i * a_k) * phi.coef for a_i in a for a_k in a]
        cols.append(laplacian(phi).coef)
    weight = np.repeat(grid.parseval_weight, 2) * grid.volume  # per (re, im) entry
    return np.stack([(c.view(np.float64) * weight).reshape(-1) for c in cols], axis=1)


def build_observable(
    traj: Trajectory, provider: TransformProvider, phis, window: tuple[float, float]
) -> list[Observable]:
    """Evaluate the controlled observable of every test field in one pass.

    The window nodes are those of the provider's path, taken in fixed
    chunks.  For each chunk U_t is formed at every node, and one real matrix
    product pairs it with every phi's adjoint channel fields and Laplacian,
    giving the observables, their coefficients and <U_t, lap phi>.  The
    quadratic pairing is taken on the physical grid, <M(U), phi> = cell
    volume * sum_x (X x U)(x) . (curl dealias phi)(x), which equals the
    spectral pairing by Parseval and the self-adjointness of the curl and of
    the 2/3 truncation; X x U comes from ``rotational_flux``.  U at the
    window's two ends is formed once more, and their difference is paired
    with every phi for the increment.  The trajectory is interpolated
    linearly in its coefficients and the transformation applied exactly at
    each node time; windows touching t = 0 are rejected because the field is
    singular there.  One chunk workspace (exponent and U block) is filled in
    place for every chunk in turn.
    """
    grid = provider.grid
    idx = provider.path.grid.window_indices(*window)
    n = len(provider.channel)
    width = n + n * n + 1
    pairing = _pairing_matrix(provider, phis)
    curls = np.stack(
        [curl(dealias(phi)).to_physical().reshape(-1) for phi in phis], axis=1
    ) * grid.cell_volume
    linear = np.empty((idx.size, pairing.shape[1]))
    nonlinear = np.empty((idx.size, len(phis)))
    span = max(1, _CHUNK_BYTES // (3 * math.prod(grid.spectrum_shape) * 16))
    work = _chunk_workspace(max(2, span), grid)  # two rows for the window's ends
    for lo in range(0, idx.size, span):
        rows = slice(lo, min(lo + span, idx.size))
        u = _fields_at_nodes(traj, provider, idx[rows], work)
        linear[rows] = u.reshape(u.shape[0], -1).view(np.float64) @ pairing
        for row, coef in zip(range(lo, rows.stop), u):
            nonlinear[row] = rotational_flux(SpectralField(grid, coef)).reshape(-1) @ curls
    u_start, u_end = _fields_at_nodes(traj, provider, idx[[0, -1]], work)
    increment = SpectralField(grid, u_end - u_start)
    times = provider.path.grid.times[idx]
    out = []
    for p, phi in enumerate(phis):
        block = linear[:, p * width : (p + 1) * width]
        out.append(
            Observable(
                idx,
                times,
                block[:, :n],
                block[:, n : n + n * n].reshape(idx.size, n, n),
                block[:, -1],
                nonlinear[:, p],
                inner_product(increment, phi),
            )
        )
    return out


def _trapezoid(values: np.ndarray, times: np.ndarray) -> float:
    return float(np.sum(0.5 * (values[1:] + values[:-1]) * np.diff(times)))


def rough_weak_residual(
    observable: Observable,
    rp: RoughPath,
    quotients: tuple[QuotientTable, QuotientTable],
    levels: int,
) -> tuple[dict, list[tuple[float, float]]]:
    """Defect of the rough weak formulation over the observable's window, as
    the phi's report entry and its (mesh, residual) ladder.

    The deterministic side is the observable's field increment minus the
    trapezoid integral of the drift integrand <U, lap phi> - <M(U), phi>
    over the fine nodes; the stochastic side is the compensated-sum integral
    of the observable at each dyadic partition level.  The entry passes when
    the rate fitted up to the smallest residual (before the solver mesh's
    error floor takes over) is positive with rms below RATE_RMS_MAX, and no
    remainder quotient of ``quotients`` (fine, twice coarser) grows more than
    QUOTIENT_GROWTH_MAX-fold.
    """
    idx = observable.node_indices
    drift = _trapezoid(observable.laplacian - observable.nonlinear, observable.times)

    meshes, residuals = [], []
    for pos in dyadic_partitions(0, idx.size - 1, levels):
        matrix = rough_integral(observable, rp, idx[pos])
        rhs = float(np.trace(matrix))
        meshes.append(float(np.max(np.diff(observable.times[pos]))))
        residuals.append(abs(observable.increment - drift - rhs))
    floor = min(residuals)
    at_floor = int(np.argmin(residuals)) + 1
    fit = fit_rate(meshes[:at_floor], residuals[:at_floor])
    fine, coarse = quotients
    stable = all(a <= QUOTIENT_GROWTH_MAX * b for a, b in zip(fine.remainder, coarse.remainder))
    nonlinear_drift = abs(_trapezoid(observable.nonlinear, observable.times))
    entry = {
        "final_residual": residuals[-1],
        "floor_residual": floor,
        # Informational: whether the quadratic term's share of the drift
        # integral stands above the residual floor.
        "nonlinear_drift": nonlinear_drift,
        "nonlinear_resolved": nonlinear_drift > floor,
        "rate_slope": fit.slope,
        "rate_rms": fit.rms_residual,
        "rate_rms_max": RATE_RMS_MAX,
        "full_rate_slope": fit_rate(meshes, residuals).slope,
        "remainder_quotients": list(fine.remainder),
        "coefficient_quotient": fine.coefficient,
        "quotient_stable": stable,
        "quotient_growth_max": QUOTIENT_GROWTH_MAX,
        "pass": bool(fit.slope > 0.0 and fit.rms_residual < RATE_RMS_MAX and stable),
    }
    return entry, list(zip(meshes, residuals))


@dataclass(frozen=True)
class QuotientTable:
    """All-pairs Hoelder quotients of the remainder and the coefficient path."""

    remainder: tuple[float, ...]  # per channel, exponent 2*alpha
    coefficient: float  # joint alpha-quotient of the derivative path


# Byte budget of one remainder-quotient tile: every per-pair temporary of one
# test field plus the shared time and path increments, 8,192 pairs at two
# channels (512 lags by 16 start nodes).  A tile spans at most _TILE_LAGS lags
# and its start block stays short, so no tile holds a whole lag column of a
# long window.  1,024 or 256 lags measured no faster at 1,281 and 5,121 nodes.
_TILE_BYTES = 1 << 20
_TILE_LAGS = 512


def remainder_quotients(
    observables, rp: RoughPath, alpha: float
) -> list[tuple[QuotientTable, QuotientTable]]:
    """sup |R^i_uv| / (v-u)^(2 alpha) with R the controlled-path remainder,
    and the alpha-quotient of the coefficient path, for every observable;
    alpha is the config's ``rough_path.alpha``, which only verify reads.

    The remainder R_uv = dY_uv - Y'_u dbeta_uv subtracts the first-order
    expansion along the driver from the raw increment; finiteness plus
    stability under grid refinement is the controlled-structure certificate.
    Returns, per observable, the table over all pairs of window nodes and the
    table over the pairs among every second window node (the observable on
    the twice coarser grid: even start nodes at even lags).  The observables
    must share their window nodes.

    One pass walks the pair triangle in tiles of a lag block times a block of
    start nodes, within a fixed byte budget, so the working set does not grow
    with the window; the time and path increments of a tile serve every
    observable.  The cost stays O(K^2) in the K window nodes.  Every pair is
    divided by its own power of the time step, the expansion is one
    ``np.matmul`` per tile and every reduction keeps the per-pair order, so
    the tables equal the pair-by-pair values bit for bit (for three or more
    channels the N^2-term coefficient sum may round differently, within an
    ulp).  A NaN quotient makes its sup NaN: a NaN remainder that of its
    channel, a NaN coefficient quotient the coefficient sup.
    """
    first = observables[0]
    idx, times = first.node_indices, first.times
    if any(not np.array_equal(o.node_indices, idx) for o in observables[1:]):
        raise ValueError("observables must share their window nodes")
    k, n = first.values.shape
    m = len(observables)
    lags = max(1, min(_TILE_LAGS, k - 1))
    span = max(1, min(k, _TILE_BYTES // (8 * (4 + 4 * n + n * n) * lags)))
    pad = lags + span
    # Past the last node the time steps continue the last one and the values
    # are zero; pairs that reach there are masked before any reduction.
    step = times[-1] - times[-2] if k > 1 else 1.0
    t = np.concatenate([times, times[-1] + step * np.arange(1, pad + 1)])
    t_ends = sliding_window_view(t, lags)

    def columns(a: np.ndarray):
        """Component-major zero-padded copy of a (K, ...) path and its
        windows of ``lags`` later nodes."""
        out = np.zeros((a[0].size, k + pad))
        out[:, :k] = a.reshape(k, -1).T
        return out, sliding_window_view(out, lags, axis=-1)

    beta, beta_ends = columns(rp.values[idx])
    paths = [columns(o.values) + columns(o.derivative) for o in observables]
    best_r, best_c = np.zeros((m, 2, n)), np.zeros((m, 2))  # per observable: fine, coarse
    for l0 in range(1, k, lags):
        width = min(lags, k - l0)
        for s0 in range(0, k - l0, span):
            s1 = min(s0 + span, k - l0)
            w = min(width, k - s0 - l0)  # the tile's first start has every lag
            ends = slice(s0 + l0, s1 + l0)
            dt = t_ends[ends, :w] - t[s0:s1, None]
            p2, p1 = dt ** (2.0 * alpha), dt ** alpha
            dbeta = (beta_ends[:, ends, :w] - beta[:, s0:s1, None]).transpose(1, 0, 2)
            # Only a tile at the end of the triangle holds pairs past the last node.
            edge = s1 + l0 + w - 2 >= k
            if edge:
                outside = np.arange(s0, s1)[:, None] + np.arange(l0, l0 + w) >= k
            # (tile starts, tile lags) of the fine pairs, then of the coarse
            # grid's: even start nodes at even lags.
            parts = ((slice(None), slice(0, w)), (slice(s0 % 2, None, 2), slice(l0 % 2, w, 2)))
            for j, (y, y_ends, yp, yp_ends) in enumerate(paths):
                expansion = np.matmul(observables[j].derivative[s0:s1], dbeta)
                rem = y_ends[:, ends, :w] - y[:, s0:s1, None]
                rem -= expansion.transpose(1, 0, 2)
                np.abs(rem, out=rem)  # (N, starts, lags)
                dcoef = yp_ends[:, ends, :w] - yp[:, s0:s1, None]
                dcoef *= dcoef
                sq = np.sum(dcoef, axis=0)  # (starts, lags)
                if edge:
                    rem[:, outside] = 0.0
                    sq[outside] = 0.0
                rem /= p2
                np.sqrt(sq, out=sq)
                sq /= p1
                for g, (starts, lanes) in enumerate(parts):
                    r, q = rem[:, starts, lanes], sq[starts, lanes]
                    if not q.size:
                        continue
                    np.maximum(best_r[j, g], r.max(axis=(1, 2)), out=best_r[j, g])
                    best_c[j, g] = np.maximum(best_c[j, g], q.max())
    return [
        tuple(QuotientTable(tuple(best_r[j, g]), float(best_c[j, g])) for g in (0, 1))
        for j in range(m)
    ]


def rough_weak_form(
    traj: Trajectory,
    rp: RoughPath,
    provider: TransformProvider,
    phis,
    window: tuple[float, float],
    levels: int,
    alpha: float,
) -> tuple[dict, list[tuple[int, float, float]]]:
    """The ``rough_weak_form`` report entry, one ``rough_weak_residual``
    entry per test field, and the (phi, mesh, residual) rows of every
    ladder.  One pass over the window nodes builds every observable; the
    remainder quotients take the Hoelder exponent ``alpha``."""
    observables = build_observable(traj, provider, phis, window)
    quotients = remainder_quotients(observables, rp, alpha)
    per_phi, rows = [], []
    for i, (obs, pair) in enumerate(zip(observables, quotients)):
        entry, ladder = rough_weak_residual(obs, rp, pair, levels)
        per_phi.append({"phi": i, **entry})
        rows += [(i, mesh, res) for mesh, res in ladder]
    return {"per_phi": per_phi, "pass": all(c["pass"] for c in per_phi)}, rows


def transform_taylor_defect(
    provider: TransformProvider,
    phi: SpectralField,
    t_u: float,
    beta_u: np.ndarray,
    t_v: float,
    beta_v: np.ndarray,
) -> float:
    """L^2 size of the transform increment minus its second-order expansion.

    The increment of the transformation applied to phi is expanded to second
    order in the channel increments and first order in the time step; the
    defect must vanish faster than the time step (exponent 3/2 for Brownian
    data, 2 for frozen channels).
    """
    dt = t_v - t_u
    dbeta = beta_v - beta_u
    e_u = transform_exponent(provider, beta_u, t_u)
    e_v = transform_exponent(provider, beta_v, t_v)
    exact = (np.exp(e_v) - np.exp(e_u)) * phi.coef
    bracket = np.zeros_like(provider.squared_sum)
    for i, a_i in enumerate(provider.channel):
        bracket = bracket + dbeta[i] * a_i
        for k, a_k in enumerate(provider.channel):
            bracket = bracket + 0.5 * a_i * a_k * dbeta[k] * dbeta[i]
    bracket = bracket - 0.5 * dt * provider.squared_sum
    approx = np.exp(e_u) * bracket * phi.coef
    return spectral_l2(SpectralField(phi.grid, exact - approx))


def taylor_rate(provider: TransformProvider, phi: SpectralField, levels: int) -> dict:
    """The ``transform_taylor`` entry: the decay exponent of the Taylor
    defect along the provider's path as the interval from node steps // 4,
    steps // 4 long, shrinks dyadically over ``levels`` levels; it passes
    above TAYLOR_EXPONENT_MIN."""
    times, values = provider.path.grid.times, provider.path.values
    start = span = provider.path.grid.steps // 4
    if span < 2 ** (levels - 1):
        raise ValueError(f"span {span} too short for {levels} dyadic levels")
    meshes, defects = [], []
    for k in range(levels):
        width = span // (2 ** k)
        u, v = start, start + width
        t_u, t_v = float(times[u]), float(times[v])
        defects.append(transform_taylor_defect(provider, phi, t_u, values[u], t_v, values[v]))
        meshes.append(t_v - t_u)
    fit = fit_rate(meshes, defects)
    return {
        "exponent": fit.slope,
        "rms": fit.rms_residual,
        "exponent_min": TAYLOR_EXPONENT_MIN,
        "pass": fit.slope > TAYLOR_EXPONENT_MIN,
    }


def transform_identities(provider: TransformProvider, noise: NoiseModel) -> dict:
    """The ``transform_identities`` entry: at the middle node of the
    provider's path, the forward and inverse multipliers of ``provider``
    (built for ``noise``) must multiply to one and the channel-reversed
    model, which sums the commuting factors in the other order, must give
    the same forward multiplier, each to within
    TRANSFORM_IDENTITY_THRESHOLD."""
    path = provider.path
    mid = path.grid.steps // 2
    forward, inverse = provider.at_index(mid)
    recip = float(np.max(np.abs(forward * inverse - 1.0)))
    reversed_noise = NoiseModel(noise.lambdas[::-1], noise.kernels[::-1])
    exponent = transform_exponent(
        TransformProvider(reversed_noise, path, provider.grid),
        path.values[mid][::-1],
        float(path.grid.times[mid]),
    )
    comm = float(np.max(np.abs(forward - np.exp(exponent))) / np.max(np.abs(forward)))
    return {
        "reciprocal_defect": recip,
        "commutation_defect": comm,
        "threshold": TRANSFORM_IDENTITY_THRESHOLD,
        "pass": recip < TRANSFORM_IDENTITY_THRESHOLD and comm < TRANSFORM_IDENTITY_THRESHOLD,
    }


def bracket_identities(rp: RoughPath, windows) -> dict:
    """The ``bracket_identities`` entry: the two level-2 flavor identities
    on the windows (u, v), between ``rp`` and the other flavor's
    enhancement of its path.

    The symmetric part of the trapezoid tensor equals half the outer product
    of the increment exactly, and the flavor difference equals half the
    discrete covariation matrix exactly; the diagonal covariation concentrates
    at the window length and the off-diagonal at zero, each tested at five
    standard deviations of the corresponding quadratic-variation estimator;
    the off-diagonal verdict is informational.
    """
    other = enhance(rp.path, STRATONOVICH if rp.flavor == ITO else ITO)
    ito, trap = (rp, other) if rp.flavor == ITO else (other, rp)
    inc = rp.path.increments
    us, vs = np.array(windows, dtype=np.int64).reshape(-1, 2).T
    tensors = zip(ito.levy_area_pairs(us, vs), trap.levy_area_pairs(us, vs))
    sym_defect = cov_defect = 0.0
    diag_ok, off_ok = [], []
    for u, v, (b_ito, b_trap) in zip(us, vs, tensors):
        db = rp.values[v] - rp.values[u]
        sym = np.max(np.abs(0.5 * (b_trap + b_trap.T) - 0.5 * np.outer(db, db)))
        sym_defect = max(sym_defect, float(sym))
        cov = inc[u:v].T @ inc[u:v]
        cov_defect = max(cov_defect, float(np.max(np.abs(b_trap - b_ito - 0.5 * cov))))
        length = float(rp.times[v] - rp.times[u])
        steps = v - u
        diag = float(np.max(np.abs(np.diag(cov) - length)))
        diag_ok.append(diag < 5.0 * math.sqrt(2.0 * length * length / steps))
        off = float(np.max(np.abs(cov - np.diag(np.diag(cov)))))
        off_ok.append(off < 5.0 * math.sqrt(length * length / steps))
    return {
        "symmetric_defect": sym_defect,
        "covariation_defect": cov_defect,
        "diag_pass": all(diag_ok),
        "offdiag_pass": all(off_ok),
        "pass": sym_defect == 0.0 and cov_defect == 0.0 and all(diag_ok),
    }


def level2_identities(rp: RoughPath, seed: int) -> dict[str, dict]:
    """The ``chen_relation`` and ``bracket_identities`` entries.

    ``default_rng(seed)`` draws 100 node triples, of which the strictly
    increasing ones must have Chen defect exactly zero, then 20 node pairs,
    of which those at least 16 steps apart are the bracket windows.
    """
    rng = np.random.default_rng(seed)
    steps = rp.grid.steps
    tri = np.sort(rng.choice(steps + 1, size=(100, 3), replace=True), axis=1)
    tri = tri[(tri[:, 0] < tri[:, 1]) & (tri[:, 1] < tri[:, 2])]
    defect = chen_defect(rp, tri[:, 0], tri[:, 1], tri[:, 2])
    chen_max = float(np.max(np.abs(defect))) if defect.size else 0.0
    windows = []
    for _ in range(20):
        u, v = np.sort(rng.choice(steps + 1, size=2, replace=False))
        if v - u >= 16:
            windows.append((int(u), int(v)))
    return {
        "chen_relation": {"max_defect": chen_max, "pass": chen_max == 0.0},
        "bracket_identities": bracket_identities(rp, windows),
    }


def integrand_continuity(integrands, times: np.ndarray, q: float, epsilon: float) -> float:
    """All-pairs epsilon-Hoelder quotient in L^q of the Duhamel integrand,
    given at two or more ``times`` that stay away from t = 0."""
    times = np.asarray(times, dtype=np.float64)
    if times.size < 2 or len(integrands) != times.size:
        raise ValueError("need one integrand at each of two or more times")
    if times[0] <= 0.0:
        raise ValueError(f"times must stay away from t = 0, got {times[0]}")
    best = 0.0
    for j in range(times.size - 1):
        for k in range(j + 1, times.size):
            d = lp_norm(integrands[k] - integrands[j], q)
            best = max(best, d / float(times[k] - times[j]) ** epsilon)
    return best


def observable_continuity(traj: Trajectory, phi: SpectralField) -> float:
    """Largest adjacent-node jump of t -> <y_t, phi>; shrinks under refinement."""
    vals = np.array([inner_product(f, phi) for f in traj.fields])
    return float(np.max(np.abs(np.diff(vals))))


def continuity_checks(
    traj: Trajectory, provider: TransformProvider, phi: SpectralField, window, epsilon: float
) -> dict[str, dict]:
    """The ``integrand_continuity`` entry, which passes when the Duhamel
    integrand's epsilon-Hoelder quotient in L^q, 1/q = 2/p - 1/3 with p the
    solve's, over the solver nodes in the window is finite, and the
    informational ``observable_continuity`` entry."""
    pos = traj.node_window(*window)
    integrands = [duhamel_integrand(provider, traj.node_indices[j], traj.fields[j]) for j in pos]
    q = 1.0 / (2.0 / traj.config.p - 1.0 / 3.0)
    quotient = integrand_continuity(integrands, traj.times[pos], q, epsilon)
    return {
        "integrand_continuity": {"quotient": quotient, "pass": math.isfinite(quotient)},
        "observable_continuity": {"max_jump": observable_continuity(traj, phi), "pass": True},
    }

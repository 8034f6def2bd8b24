"""Fixed-point solver for the transformed mild vorticity equation.

The unknown y lives on a graded time mesh t_m ~ T (m/M)^2 snapped to the
rough-path grid, so the transformation is evaluated at exact path samples
and every prefix of the mesh is again quadratically graded.  The Duhamel
integral is discretised by a product rule built for integrands behaving like
s^(3/p - 5/2) near zero: interior cells integrate the power weight exactly
against the left value of the desingularised factor, and the first cell uses
the analytic weight against the value at the first positive node.  The rule
is exact for the pure power and first-order accurate on smooth data.  The
Duhamel sums at all nodes come out of one recursion,
S_m = e^{(t_m - t_{m-1}) Delta} (S_{m-1} + c_{m-1} g_{m-1}), which is exact
because the interior cell weights c_j do not depend on the target node m,
and costs O(M) semigroup applications per Picard iteration.  The dealiased
integrand leaves every iterate equal to the heat flow of y_0 outside the
2/3-rule band, so Picard and the trajectory hold y_0 and one band per node,
and a node's full field is formed (``heat_flow_with_band``) only when it is
read.  The weighted sup norm (Picard's distance) is exact, but transforms
only the nodes whose Parseval-Hoelder upper bound can still set the sup.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial

import numpy as np

from .roughpath import TimeGrid
from .spectral import (
    SpectralField,
    heat_decay,
    heat_semigroup,
    inner_product,
    laplacian,
    lp_norm,
    partial_derivative,
    vorticity_nonlinearity,
)
from .transform import TransformProvider

_log = logging.getLogger("vortexlab.solver")

# ``_pruned_max`` holds at most this many candidates, unevaluated, before it
# evaluates the one with the largest bound.
_HOLD = 8
# Relative slack on the Parseval-Hoelder bound, far above the rounding of
# the transforms and sums behind both sides.
_BOUND_MARGIN = 1.0 + 1e-9


class NonContractionError(RuntimeError):
    """Successive-iterate ratios stayed >= 1; the gate was too loose here."""

    def __init__(self, ratios):
        super().__init__(
            f"no contraction: ratios {[f'{r:.3g}' for r in ratios]} "
            "(>= 1 for three consecutive iterations)"
        )
        self.ratios = tuple(ratios)


class MaxIterationsError(RuntimeError):
    """Iteration budget exhausted before the tolerance was met."""


class NonFiniteIntegrandError(RuntimeError):
    """A Duhamel integrand holds a NaN or an infinity."""


def zero_nonlinearity(u: SpectralField) -> SpectralField:
    """Test hook killing the quadratic term; the solver then returns heat flow."""
    return SpectralField.zero(u.grid)


@dataclass(frozen=True)
class SolverConfig:
    """The settings Picard reads: the integrability exponent p, strictly
    inside (3/2, 2), the mesh size and the iteration controls.

    Verify's Hoelder exponents are not among them: the time regularity
    epsilon of the Duhamel integrand and its space exponent q (1/q = 2/p -
    1/3) are read where ``verifier.continuity_checks`` forms its quotient.
    """

    p: float = 1.8
    num_nodes: int = 32
    tolerance: float = 1e-10
    max_iterations: int = 50

    def __post_init__(self) -> None:
        if not (1.5 < self.p < 2.0):
            raise ValueError(f"p must lie strictly in (3/2, 2), got {self.p}")
        if self.num_nodes < 4:
            raise ValueError(f"need at least 4 solver nodes, got {self.num_nodes}")
        if self.tolerance <= 0 or self.max_iterations < 1:
            raise ValueError("tolerance and max_iterations must be positive")

    @property
    def singular_exponent(self) -> float:
        return 3.0 / self.p - 2.5


def solver_node_indices(config: SolverConfig, grid: TimeGrid) -> np.ndarray:
    """Quadratically graded nodes over ``grid``'s horizon, snapped to it, deduplicated."""
    m = np.arange(config.num_nodes + 1)
    raw = grid.horizon * (m / config.num_nodes) ** 2
    idx = np.round(raw / grid.spacing).astype(np.int64)
    # Snapping keeps the order, so duplicates are neighbours.  (np.unique
    # would import numpy.ma into config validation, which places the nodes.)
    idx = idx[np.r_[True, np.diff(idx) > 0]]
    if idx[0] != 0 or idx[-1] != grid.steps:
        raise ValueError("graded mesh does not span [0, horizon] on this grid")
    if idx.size < 4:
        raise ValueError("graded mesh collapses on this grid; increase steps")
    return idx


def product_rule(times: np.ndarray, exponent: float) -> tuple[float, np.ndarray]:
    """Terms of the product rule for integrands ~ s^exponent near s = 0.

    ``times`` are nodes 0 = s_0 < s_1 < ... < s_M.  Returns the first-cell
    weight b_1 = s_1 / (1 + a), the analytic moment of the power over
    [0, s_1] taken against the value at s_1, and the interior cell weights
    c_j = s_j^(-a) (s_j+1^(1+a) - s_j^(1+a)) / (1 + a) for j = 1 .. M-1, the
    moments over [s_j, s_j+1] taken against the value at s_j.  Neither
    depends on where the integral ends.
    """
    a = float(exponent)
    if a <= -1.0:
        raise ValueError(f"weight exponent must be integrable (> -1), got {a}")
    t = np.asarray(times, dtype=np.float64)
    if t.ndim != 1 or t.size < 2 or t[0] != 0.0 or np.any(np.diff(t) <= 0):
        raise ValueError("need strictly increasing nodes starting at 0")
    s_left, s_right = t[1:-1], t[2:]
    moments = (s_right ** (1.0 + a) - s_left ** (1.0 + a)) / (1.0 + a)
    return t[1] / (1.0 + a), s_left ** (-a) * moments


def quadrature_weights(times: np.ndarray, exponent: float) -> np.ndarray:
    """Node weights of the product rule over [0, times[-1]]: b_1 at s_1 plus
    each cell weight c_j at its left node s_j, zero at s_0.

    Exact whenever the integrand is a multiple of s^exponent.
    """
    first, cells = product_rule(times, exponent)
    w = np.zeros(len(times))
    w[1] = first
    w[1:-1] += cells
    return w


def duhamel_sums(integrand, times: np.ndarray, exponent: float):
    """Yield S_m = sum_j w_m[j] e^{(t_m - t_j) Delta} g_j for m = 1 .. M.

    ``integrand(j)`` returns g_j at ``times[j]`` and w_m are the product-rule
    weights over ``times[: m + 1]``.  The interior weights do not depend on m,
    so S_1 = b_1 g_1 and S_m = e^{(t_m - t_{m-1}) Delta}(S_{m-1} + c_{m-1}
    g_{m-1}): M - 1 semigroup applications in all, one sum held at a time.
    For M >= 2 only g_1 .. g_{M-1} are requested, each once and in order,
    just before the first sum that reads it (g_1 serves S_1 and S_2), and
    each is dropped once S_{j+1} is formed: the weight at t_0 is zero and no
    cell starts at t_M.
    """
    first, cells = product_rule(times, exponent)
    g = integrand(1)
    acc = first * g
    yield acc
    for m in range(2, len(times)):
        if m > 2:
            del g  # g_{m-2} is not held while g_{m-1} is formed
            g = integrand(m - 1)
        acc = heat_semigroup(acc + cells[m - 2] * g, float(times[m] - times[m - 1]))
        yield acc


def duhamel_integrand(
    provider: TransformProvider,
    grid_index: int,
    y: SpectralField,
    nonlinearity=vorticity_nonlinearity,
) -> SpectralField:
    """g = Gamma^-1 M(Gamma y), the Duhamel integrand of the transformed
    equation for y at rough-grid node ``grid_index``, a field on the
    provider's box."""
    if y.grid != provider.grid:
        raise ValueError("field grid does not match transform grid")
    # Overflow leaves g non-finite, which Picard reports with the node's name.
    with np.errstate(over="ignore", invalid="ignore"):
        forward, inverse = provider.at_index(int(grid_index))
        g = nonlinearity(SpectralField(y.grid, forward * y.coef))
        return SpectralField(g.grid, inverse * g.coef)


def heat_flow_with_band(u0: SpectralField, t: float, band: np.ndarray) -> np.ndarray:
    """A node's coefficients from its 2/3-rule band: e^{t Delta} u0, taken
    with ``heat_decay`` as ``heat_semigroup`` takes it, with ``band`` put at
    ``BoxGrid.band_index``; a new writable array."""
    coef = u0.coef * heat_decay(u0.grid.xi_sq, t)
    np.put(coef, u0.grid.band_index, band)
    return coef


class _NodeFields(Sequence):
    """A trajectory's node fields, each formed from its band when it is read."""

    def __init__(self, traj: "Trajectory"):
        self._traj = traj

    def __len__(self) -> int:
        return len(self._traj.bands)

    def __getitem__(self, j: int) -> SpectralField:
        traj = self._traj
        coef = heat_flow_with_band(traj.u0, float(traj.times[j]), traj.bands[j])
        return SpectralField(traj.u0.grid, coef)


@dataclass(frozen=True)
class Trajectory:
    """A converged solve, its one record: the initial field ``u0``, each
    solver node's 2/3-rule band ``coef[:, dealias_keep]``
    (``BoxGrid.band_index`` order; ``bands[0]`` is u0's) and Picard's
    weighted distances, one per iteration, the last below the tolerance.

    ``iterations`` and ``ratios`` follow from the distances.  Outside the
    band every node equals the heat flow of u0, so a node's field is formed
    from u0 and its band (``heat_flow_with_band``) only when it is read:
    through ``fields`` or ``coef_at``.  The Duhamel integrand follows from
    each field through ``duhamel_integrand``.
    """

    config: SolverConfig
    node_indices: np.ndarray
    times: np.ndarray
    u0: SpectralField
    bands: tuple[np.ndarray, ...]
    distances: tuple[float, ...]

    @property
    def iterations(self) -> int:
        return len(self.distances)

    @property
    def ratios(self) -> tuple[float, ...]:
        """Each distance over the one before."""
        d = self.distances
        return tuple(b / a for a, b in zip(d, d[1:]))

    @property
    def fields(self) -> _NodeFields:
        """The node fields as a sequence; each read forms the node anew."""
        return _NodeFields(self)

    def coef_at(self, times, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
        """The coefficients at each of ``times``, interpolated linearly between
        the nodes, written into the rows of ``out`` with ``scratch`` (one
        field's shape) as workspace.

        The nodes bracketing the current time are held until a time leaves
        their cell, so increasing times form each node they read once.
        """
        nodes, fields = self.times, self.fields
        held: dict[int, np.ndarray] = {}

        def node(k: int) -> np.ndarray:
            if k not in held:
                held[k] = fields[k].coef
            return held[k]

        for row, t in zip(out, times):
            t = float(t)
            if not (0.0 <= t <= nodes[-1] * (1 + 1e-12)):
                raise ValueError(f"time {t} outside the trajectory range")
            j = max(0, min(int(np.searchsorted(nodes, t, side="right")) - 1, nodes.size - 2))
            for k in [k for k in held if k not in (j, j + 1)]:
                del held[k]
            if nodes[j] == t:
                np.copyto(row, node(j))
                continue
            lam = (t - nodes[j]) / (nodes[j + 1] - nodes[j])
            np.multiply(1.0 - lam, node(j), out=row)
            np.multiply(lam, node(j + 1), out=scratch)
            np.add(row, scratch, out=row)
        return out

    def node_window(self, start: float, end: float) -> np.ndarray:
        keep = (self.times >= start) & (self.times <= end)
        return np.nonzero(keep)[0]


def _time_weights(t: float, p: float) -> tuple[float, float]:
    """(t^w1, t^w2) with w1 = 1 - 3/(2p) and w2 = (3/2)(1 - 1/p)."""
    return t ** (1.0 - 3.0 / (2.0 * p)), t ** (1.5 * (1.0 - 1.0 / p))


def weighted_norm_terms(y: SpectralField, t: float, p: float) -> tuple[float, float, float]:
    """(|y|_p, t^w1 |y|_p, t^w2 max_i |D_i y|_p) at one node, t = 0 weighting 0.

    The exponents are w1 = 1 - 3/(2p) and w2 = (3/2)(1 - 1/p).
    """
    base = lp_norm(y, p)
    if t <= 0.0:
        return base, 0.0, 0.0
    deriv = max(lp_norm(partial_derivative(y, a), p) for a in range(3))
    w1, w2 = _time_weights(t, p)
    return base, w1 * base, w2 * deriv


def _weighted_node_norm(y: SpectralField, t: float, p: float) -> float:
    """t^w1 |y|_p + t^w2 max_i |D_i y|_p at one node with t > 0."""
    _, base, deriv = weighted_norm_terms(y, t, p)
    return base + deriv


def _parseval_tables(grid, modes=slice(None)) -> tuple[np.ndarray, np.ndarray]:
    """The Parseval weight (K,) and the squared derivative wavenumbers (3, K)
    of the stored modes ``modes``, flat C-order indices into one component's
    half spectrum (all of them by default)."""
    weight = np.broadcast_to(grid.parseval_weight, grid.spectrum_shape).reshape(-1)
    return weight[modes], (grid.deriv_xi ** 2).reshape(3, -1)[:, modes]


def _node_norm_bound(coef: np.ndarray, tables, volume: float, t: float, p: float) -> float:
    """Upper bound on ``_weighted_node_norm`` at t > 0 of the field whose
    coefficients on the modes of ``tables`` (``_parseval_tables``) are
    ``coef`` (3, K), every other mode zero.  No transform: for 1 <= p <= 2
    Hoelder on the box gives |f|_p <= vol^(1/p - 1/2) |f|_2, and |f|_2 and
    |D_i f|_2 are Parseval sums over the stored modes.
    """
    weight, deriv_sq = tables
    energy = weight * np.sum(coef.real ** 2 + coef.imag ** 2, axis=0)
    base = math.sqrt(float(np.sum(energy)))
    deriv = math.sqrt(float(np.max(deriv_sq @ energy)))
    w1, w2 = _time_weights(t, p)
    return _BOUND_MARGIN * volume ** (1.0 / p) * (w1 * base + w2 * deriv)


def _pruned_max(candidates) -> tuple[float, int]:
    """``max(0.0, *values)`` over a stream of ``(bound, exact)`` candidates,
    ``exact()`` returning a value at most ``bound``, and the number of
    ``exact`` calls made.

    A candidate whose bound does not exceed the running max is skipped; the
    rest are held, at most ``_HOLD`` at a time: an arrival beyond that makes
    the held candidate with the largest bound be evaluated, and every held
    one whose bound no longer exceeds the max be dropped.  At the end the
    survivors are evaluated in decreasing-bound order until a bound no longer
    exceeds the max.  A skipped value cannot exceed the max, so the result is
    the running max of every value bit for bit, a NaN value leaving it as is.
    A non-finite bound is evaluated on arrival.
    """
    best, evaluated = 0.0, 0
    held: list = []

    def evaluate(exact) -> None:
        nonlocal best, evaluated
        best, evaluated = max(best, exact()), evaluated + 1

    for bound, exact in candidates:
        if not math.isfinite(bound):
            evaluate(exact)
        elif bound > best:
            held.append((bound, exact))
            if len(held) > _HOLD:
                held.sort(key=lambda c: c[0])
                evaluate(held.pop()[1])
                held = [c for c in held if c[0] > best]
    for bound, exact in sorted(held, key=lambda c: c[0], reverse=True):
        if bound <= best:
            break
        evaluate(exact)
    return best, evaluated


def weighted_sup_norm(fields, times: np.ndarray, p: float) -> float:
    """Discrete time-weighted norm sup_t [t^w1 |y|_p + t^w2 max_i |D_i y|_p]
    over the nodes with t > 0 (see ``weighted_norm_terms``), exactly.

    A node's L^p norms are computed only when its Parseval-Hoelder bound
    (``_node_norm_bound``) can still set the sup (``_pruned_max``); that bound
    needs 1 <= p <= 2, and any other p is refused with ValueError.
    """
    if not 1.0 <= p <= 2.0:
        raise ValueError(
            f"weighted_sup_norm bounds L^p by L^2 and needs p in [1, 2], got {p}"
        )

    def candidates():
        tables = None
        for y, t in zip(fields, times):
            if t > 0.0:
                if tables is None:
                    tables = _parseval_tables(y.grid)
                coef = y.coef.reshape(3, -1)
                bound = _node_norm_bound(coef, tables, y.grid.volume, float(t), p)
                yield bound, partial(_weighted_node_norm, y, float(t), p)

    return _pruned_max(candidates())[0]


def picard_solve(
    config: SolverConfig,
    u0: SpectralField,
    provider: TransformProvider,
    nonlinearity=vorticity_nonlinearity,
) -> Trajectory:
    """Iterate the Duhamel map to a fixed point on the graded mesh, placed on
    the provider's rough-path grid.

    Starts from the heat flow of the initial data and adds the weighted
    quadrature of the transformed nonlinearity; returns the trajectory once
    the discrete weighted distance of successive iterates drops below the
    tolerance, and raises in every other case.
    The 2/3 rule zeroes every Duhamel integrand outside
    ``BoxGrid.dealias_keep``, so each iterate equals the heat flow there bit
    for bit, and the iterate is held as u0 and one band
    ``coef[:, dealias_keep]`` per node, started as the heat flow's band.  A
    node's field is formed (``heat_flow_with_band``) once per integrand
    evaluation and dropped with it.  An iteration rewrites each node's band
    as the heat flow's band, recomputed by ``heat_decay``, plus the band of
    the Duhamel sum, as the sums stream out.  At the end the bands become
    the trajectory's as they are, with the distances as its record.
    The distance is the weighted sup norm of the band differences, exact bit
    for bit: each node offers its Parseval-Hoelder bound, and only the nodes
    whose bound can still set the sup have their L^p norms computed
    (``_pruned_max``, holding at most ``_HOLD`` band differences).
    Raises NonFiniteIntegrandError when an integrand holds a NaN or an
    infinity, and ValueError when one is nonzero outside the band (a
    nonlinearity not dealiased by the 2/3 rule), both naming the node.
    Raises NonContractionError when the distance ratios sit at or above one
    for three consecutive iterations, MaxIterationsError on budget end.  Each
    iteration's distance, ratio and count of exactly evaluated node norms are
    logged at INFO on "vortexlab.solver".
    """
    node_idx = solver_node_indices(config, provider.path.grid)
    times = provider.path.grid.time_at(node_idx)
    a = config.singular_exponent
    grid = u0.grid
    inside = grid.band_index
    outside = np.flatnonzero(np.broadcast_to(~grid.dealias_keep, u0.coef.shape))
    u0_band = np.take(u0.coef, inside)
    xi_sq_band = np.take(np.broadcast_to(grid.xi_sq, u0.coef.shape), inside)

    def heat_band(m: int) -> np.ndarray:
        """take(heat_semigroup(u0, t_m).coef, inside), bit for bit."""
        return u0_band * heat_decay(xi_sq_band, float(times[m]))

    # The iterate's band at each node, started as the heat flow's; bands[0],
    # u0's, is never rewritten: the sums start at node 1.
    bands = [u0_band] + [heat_band(m) for m in range(1, times.size)]

    def integrand(m: int) -> SpectralField:
        y = SpectralField(grid, heat_flow_with_band(u0, float(times[m]), bands[m]))
        g = duhamel_integrand(provider, node_idx[m], y, nonlinearity)
        where = f"Duhamel integrand at solver node {m} (t = {times[m]:.6g})"
        if not np.all(np.isfinite(g.coef)):
            raise NonFiniteIntegrandError(
                f"{where} is not finite: the transformation or the nonlinearity "
                "overflowed there"
            )
        if np.any(np.take(g.coef, outside)):
            raise ValueError(
                f"{where} is nonzero outside the 2/3-rule band; Picard rewrites the "
                "iterate on that band only, so the nonlinearity must be dealiased by the 2/3 rule"
            )
        return g

    tables = _parseval_tables(grid, np.flatnonzero(grid.dealias_keep))

    def band_norm(diff: np.ndarray, t: float) -> float:
        coef = np.zeros_like(u0.coef)
        np.put(coef, inside, diff)
        return _weighted_node_norm(SpectralField(grid, coef), t, config.p)

    def sweep():
        """One Picard iteration: rewrite ``bands`` node by node and yield each
        node's (bound, exact) distance candidate for ``_pruned_max``."""
        # formed (node m) comes from S_m and is measured against the old
        # bands[m]; it is written back only when S_{m+1} arrives, because g_m,
        # which S_{m+1} reads, must come from the old iterate (an earlier
        # write would make this a Gauss-Seidel sweep).
        formed = None
        for m, acc in enumerate(duhamel_sums(integrand, times, a), start=1):
            if formed is not None:
                bands[m - 1] = formed
            formed = heat_band(m) + np.take(acc.coef, inside)
            diff, t = formed - bands[m], float(times[m])
            bound = _node_norm_bound(diff.reshape(3, -1), tables, grid.volume, t, config.p)
            yield bound, partial(band_norm, diff, t)
        bands[-1] = formed

    distances: list[float] = []
    ratios: list[float] = []
    for iteration in range(1, config.max_iterations + 1):
        dist, evaluated = _pruned_max(sweep())
        distances.append(dist)
        if iteration > 1:
            ratios.append(dist / distances[-2])
            _log.info(
                "picard iteration %d: distance %.6e, ratio %.6g; exact node norms %d of %d",
                iteration, dist, ratios[-1], evaluated, times.size - 1,
            )
        else:
            _log.info(
                "picard iteration %d: distance %.6e; exact node norms %d of %d",
                iteration, dist, evaluated, times.size - 1,
            )
        if dist < config.tolerance:
            return Trajectory(config, node_idx, times, u0, tuple(bands), tuple(distances))
        if len(ratios) >= 3 and all(r >= 1.0 for r in ratios[-3:]):
            raise NonContractionError(ratios)
    raise MaxIterationsError(
        f"no convergence within {config.max_iterations} iterations "
        f"(last distance {distances[-1]:.3e})"
    )


def weak_residual(traj: Trajectory, provider: TransformProvider, phis) -> list[float]:
    """Defect of the deterministic weak form at the last trajectory node T,
    per phi.

    Compares <y_T, phi> against <y_0, phi> plus the graded-product quadrature
    of <y_s, laplacian phi> + <g_s, phi> over [0, T], g the Duhamel integrand
    under ``provider``.  First-order convergence under mesh refinement is the
    expected behavior.  One node's field and integrand are held at a time.
    """
    m = traj.times.size - 1
    w = quadrature_weights(traj.times, traj.config.singular_exponent)
    fields = traj.fields
    lap_phis = [laplacian(phi) for phi in phis]
    integrals = [0.0] * len(phis)
    # One node's field and integrand at a time, added to every phi's sum in
    # node order.  The weight at the last node is zero: no cell starts there.
    for j in range(1, m):
        y = fields[j]
        g = duhamel_integrand(provider, traj.node_indices[j], y)
        for k, (phi, lap_phi) in enumerate(zip(phis, lap_phis)):
            integrals[k] += w[j] * (inner_product(y, lap_phi) + inner_product(g, phi))
    y0, y_end = fields[0], fields[m]
    return [
        float(abs(inner_product(y_end, phi) - (inner_product(y0, phi) + integral)))
        for phi, integral in zip(phis, integrals)
    ]

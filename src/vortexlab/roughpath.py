"""Brownian driving paths, level-2 enhancements, and controlled-path integrals.

Exactness design
----------------
Several contracts in this module demand *bit-exact* identities in floating
point: the Chen relation for every grid triple, the symmetric-part identity
of the trapezoid enhancement, and partition independence of the compensated
sums for constant and identity-controlled integrands.  To get them,
``sample_brownian`` rounds each Gaussian increment to the dyadic lattice
``INCREMENT_QUANTUM * Z``.  Path values, their pairwise products and all
level-2 accumulations then stay inside the range where IEEE doubles are
closed under +, - and *, so the reconstruction algebra is exact rational
arithmetic in disguise.  ``enhance`` verifies the envelope and refuses paths
that would leave it; the statistical cost of the lattice (about 5e-7 per
increment) is orders of magnitude below every tolerance used downstream.

Level-2 data is one prefix table P, the cumulative sum of the per-step
tensors b_j (x) dbeta_j, where the left factor b_j is beta_j for the Ito
flavor and beta_j + dbeta_j / 2 for the Stratonovich one.  The tensor over an
arbitrary node pair is then the O(1) combination

    B[u,v] = P[v] - P[u] - beta_u (x) (beta_v - beta_u).

With lattice inputs this evaluates the Chen composition exactly, for any
pair, in O(channels^2).

Memory
------
The layer works in blocks of BLOCK_ROWS grid rows and writes into the
arrays it keeps, so no whole-path temporary exists.  A sampled path holds
its values, 8*(steps+1)*N bytes, next to the grid's times; the bound series
of ``transform`` adds 8*(steps+1) bytes.  ``enhance`` checks the lattice and
the envelope in one pass that keeps only running maxima and one block of
the table, and holds no table.  The table, 8*(steps+1)*N^2 bytes, is built
by the same pass on the first level-2 read (``levy_area``,
``levy_area_pairs`` and everything built on them, or ``prefix`` itself).
Every block boundary adds the carried row to the block's first row, which
is the addition the sequential whole-array cumulative sum performs there, so
the streamed arrays equal the whole-array ones byte for byte.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

INCREMENT_QUANTUM = 2.0 ** -21

# Rows of the path, the table and the bound series handled per block.
BLOCK_ROWS = 1 << 14

ITO = "ito"
STRATONOVICH = "stratonovich"
FLAVORS = (ITO, STRATONOVICH)

# Bit-exactness envelope: level-2 partial sums must stay below _VALUE_LIMIT
# (integer part <= 2**53 on the 2**-43 lattice) and the per-step products
# below _PRODUCT_LIMIT (a 2**-22-lattice left factor times a 2**-21-lattice
# increment, as integers <= 2**53).
_VALUE_LIMIT = 1024.0
_PRODUCT_LIMIT = 2.0 ** 10


class GridError(ValueError):
    """Invalid time grid or off-grid time."""


class PartitionError(ValueError):
    """Partition not nested in the available grid nodes."""


class PrecisionError(ArithmeticError):
    """Path data leaves the envelope where the level-2 algebra is exact."""


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_j = j*horizon/steps with a power-of-two step count."""

    horizon: float
    steps: int

    def __post_init__(self) -> None:
        if not (isinstance(self.horizon, (int, float)) and self.horizon > 0):
            raise GridError(f"horizon must be positive, got {self.horizon}")
        if not isinstance(self.steps, (int, np.integer)) or self.steps < 2:
            raise GridError(f"steps must be an integer >= 2, got {self.steps}")
        if not _is_power_of_two(int(self.steps)):
            raise GridError(
                f"steps must be a power of two for dyadic coarsening, got {self.steps}"
            )
        times = np.linspace(0.0, float(self.horizon), int(self.steps) + 1)
        object.__setattr__(self, "_times", _readonly(times))

    @property
    def times(self) -> np.ndarray:
        return self._times  # type: ignore[attr-defined]

    @property
    def spacing(self) -> float:
        return float(self.horizon) / float(self.steps)

    def window_indices(self, start: float, end: float) -> np.ndarray:
        """Indices of all nodes with start <= t <= end."""
        if not (0.0 <= start < end <= self.horizon):
            raise GridError(f"invalid window [{start}, {end}]")
        lo = int(np.searchsorted(self.times, start, side="left"))
        hi = int(np.searchsorted(self.times, end, side="right"))
        idx = np.arange(lo, hi)
        if idx.size < 2:
            raise GridError(f"window [{start}, {end}] contains fewer than two nodes")
        return idx


@dataclass(frozen=True)
class DrivingPath:
    """Sampled multichannel path with values (steps+1, channels), zero at t=0.

    A C-contiguous float64 ``values`` array is kept as it is, not copied,
    and made read-only in place: after construction a write through the
    caller's own name for it raises.  ``sample_brownian`` relies on this to
    hand over the array it filled without a second copy.
    """

    grid: TimeGrid
    values: np.ndarray
    seed: int | None = None

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2 or v.shape[0] != self.grid.steps + 1 or v.shape[1] < 1:
            raise ValueError(
                f"values must have shape (steps+1, channels), got {v.shape}"
            )
        if not np.all(v[0] == 0.0):
            raise ValueError("path values must vanish at t=0")
        object.__setattr__(self, "values", _readonly(v))

    @property
    def channels(self) -> int:
        return self.values.shape[1]

    @property
    def increments(self) -> np.ndarray:
        return np.diff(self.values, axis=0)


def sample_brownian(seed: int, channels: int, grid: TimeGrid) -> DrivingPath:
    """Sample a Brownian path on the grid, increments quantised to the lattice.

    Identical seeds give bit-identical paths.  Increments are independent
    N(0, horizon/steps) draws rounded to INCREMENT_QUANTUM, which preserves
    their distribution to a relative error of order 1e-5 at desk scales.
    The draws fill the values array itself, which is then quantised and
    summed in place block by block.
    """
    if channels < 1:
        raise ValueError(f"channel count must be >= 1, got {channels}")
    rng = np.random.default_rng(seed)
    std = math.sqrt(grid.horizon / grid.steps)
    values = np.empty((grid.steps + 1, channels))
    values[0] = 0.0
    rng.standard_normal(out=values[1:])
    for a in range(1, grid.steps + 1, BLOCK_ROWS):
        rows = values[a : a + BLOCK_ROWS]
        rows *= std
        rows /= INCREMENT_QUANTUM
        np.round(rows, out=rows)
        rows *= INCREMENT_QUANTUM
        if a > 1:
            rows[0] += values[a - 1]
        np.cumsum(rows, axis=0, out=rows)
    return DrivingPath(grid, values, seed=seed)


def _lattice_check(values: np.ndarray) -> None:
    scaled = values / INCREMENT_QUANTUM
    if not np.all(scaled == np.round(scaled)):
        raise PrecisionError(
            "path values are not on the increment lattice; exact level-2 "
            "algebra is only guaranteed for sample_brownian output (or other "
            f"multiples of {INCREMENT_QUANTUM!r})"
        )


def _abs_max(top, block: np.ndarray):
    """The larger of ``top`` and max |block|, NaN if either is NaN."""
    return np.maximum(top, np.maximum(np.max(block), -np.min(block)))


def _level2_pass(values: np.ndarray, flavor: str, table: np.ndarray | None = None) -> None:
    """Check a path and sum its step tensors b_j (x) dbeta_j, BLOCK_ROWS
    steps at a time.

    Each block is checked against the lattice first.  The envelope compares
    the running maxima of |b|, |dbeta| and |P| once the pass is over, so an
    off-lattice value anywhere is reported before any envelope breach, and a
    NaN maximum fails the envelope.  With ``table`` (steps+1, N, N) given,
    its rows receive the prefix sums; without, one block of scratch carries
    the running sum and the table is never formed.
    """
    steps, n = values.shape[0] - 1, values.shape[1]
    block = min(BLOCK_ROWS, steps)
    if table is None:
        scratch = np.zeros((block + 1, n, n))
    else:
        table[0] = 0.0
    top_left = top_inc = top_prefix = 0.0
    for a in range(0, steps, block):
        b = min(a + block, steps)
        beta = values[a : b + 1]
        _lattice_check(beta)
        inc = np.diff(beta, axis=0)
        left = beta[:-1] + 0.5 * inc if flavor == STRATONOVICH else beta[:-1]
        if table is None:
            rows = scratch[: b - a + 1]
            rows[0] = scratch[-1]
        else:
            rows = table[a : b + 1]
        np.multiply(left[:, :, None], inc[:, None, :], out=rows[1:])
        if a:
            rows[1] += rows[0]
        np.cumsum(rows[1:], axis=0, out=rows[1:])
        top_left = _abs_max(top_left, left)
        top_inc = _abs_max(top_inc, inc)
        top_prefix = _abs_max(top_prefix, rows)
    if not top_left * top_inc <= _PRODUCT_LIMIT:
        raise PrecisionError("path magnitude exceeds the exact-product envelope")
    if not top_prefix <= _VALUE_LIMIT:
        raise PrecisionError("level-2 prefix sums exceed the exact-sum envelope")


@dataclass(frozen=True)
class Enhancement:
    """Level-2 data of one flavor over a driving path.

    ``prefix`` is the table P of shape (steps+1, N, N), P[j] the sum of the
    per-step tensors over the first j steps.  It is built on its first read
    and kept from then on.
    """

    flavor: str
    alpha: float
    path: DrivingPath

    @cached_property
    def prefix(self) -> np.ndarray:
        values = self.path.values
        table = np.empty(values.shape + values.shape[1:])
        _level2_pass(values, self.flavor, table)
        return _readonly(table)


def enhance(path: DrivingPath, flavor: str, alpha: float = 0.4) -> "RoughPath":
    """Build the level-2 enhancement of a sampled path.

    Ito flavor: left-point sums, so the tensor over a single fine step is
    zero and multi-step tensors arise purely from Chen composition.
    Stratonovich flavor: trapezoid sums, adding half the outer product of the
    step increment with itself on each fine step.  The path is checked
    against the lattice and the envelope here; the prefix table is built
    on its first read.
    """
    if flavor not in FLAVORS:
        raise ValueError(f"flavor must be one of {FLAVORS}, got {flavor!r}")
    if not (1.0 / 3.0 < alpha < 0.5):
        raise ValueError(f"alpha must lie in (1/3, 1/2), got {alpha}")
    _level2_pass(path.values, flavor)
    return RoughPath(path, Enhancement(flavor, alpha, path))


@dataclass(frozen=True)
class RoughPath:
    """Driving path together with its level-2 enhancement."""

    path: DrivingPath
    enhancement: Enhancement

    @property
    def grid(self) -> TimeGrid:
        return self.path.grid

    @property
    def times(self) -> np.ndarray:
        return self.path.grid.times

    @property
    def values(self) -> np.ndarray:
        return self.path.values

    @property
    def channels(self) -> int:
        return self.path.channels

    @property
    def alpha(self) -> float:
        return self.enhancement.alpha

    @property
    def flavor(self) -> str:
        return self.enhancement.flavor

    def increment(self, u: int, v: int) -> np.ndarray:
        return self.values[v] - self.values[u]

    def levy_area(self, u: int, v: int) -> np.ndarray:
        """Level-2 tensor over grid nodes u < v via the prefix reconstruction."""
        if not (0 <= u < v <= self.grid.steps):
            raise GridError(f"need grid indices 0 <= u < v <= steps, got {u}, {v}")
        prefix = self.enhancement.prefix
        delta = self.values[v] - self.values[u]
        return prefix[v] - prefix[u] - self.values[u][:, None] * delta[None, :]

    def levy_area_pairs(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Vectorised levy_area over index arrays; returns (len(us), N, N)."""
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        if np.any(us >= vs) or np.any(us < 0) or np.any(vs > self.grid.steps):
            raise GridError("pair indices must satisfy 0 <= u < v <= steps")
        prefix = self.enhancement.prefix
        delta = self.values[vs] - self.values[us]
        return prefix[vs] - prefix[us] - self.values[us][:, :, None] * delta[:, None, :]


def chen_defect(rp: RoughPath, us, ws, vs) -> np.ndarray:
    """B[u,v] - B[u,w] - B[w,v] - dbeta[u,w] (x) dbeta[w,v] for index triples.

    ``us``, ``ws`` and ``vs`` are equal-length arrays of grid indices with
    u < w < v; returns (len(us), N, N).  Exactly zero for every enhancement
    built here: with lattice path data the float evaluation coincides with
    the rational-arithmetic value, and the identity holds over the rationals
    by construction.
    """
    us, ws, vs = (np.asarray(x, dtype=np.int64) for x in (us, ws, vs))
    if np.any(us < 0) or np.any(us >= ws) or np.any(ws >= vs) or np.any(vs > rp.grid.steps):
        raise GridError("triple indices must satisfy 0 <= u < w < v <= steps")
    cross = (rp.values[ws] - rp.values[us])[:, :, None] * (rp.values[vs] - rp.values[ws])[:, None, :]
    return (
        rp.levy_area_pairs(us, vs)
        - rp.levy_area_pairs(us, ws)
        - rp.levy_area_pairs(ws, vs)
        - cross
    )


@dataclass(frozen=True)
class ControlledPath:
    """Scalar components with a first-order expansion along the driver.

    ``values`` holds Y with shape (K, m); ``derivative`` holds the expansion
    coefficient Y' with shape (K, m, N).  The window must start strictly
    after t=0 (the solution this feeds on is singular there).
    """

    node_indices: np.ndarray  # (K,) grid indices
    times: np.ndarray  # (K,)
    values: np.ndarray  # (K, m)
    derivative: np.ndarray  # (K, m, N)

    def __post_init__(self) -> None:
        idx = np.asarray(self.node_indices, dtype=np.int64)
        t = np.asarray(self.times, dtype=np.float64)
        y = np.asarray(self.values, dtype=np.float64)
        d = np.asarray(self.derivative, dtype=np.float64)
        if idx.ndim != 1 or idx.size < 2 or np.any(np.diff(idx) <= 0):
            raise ValueError("node_indices must be strictly increasing, length >= 2")
        if t.shape != idx.shape:
            raise ValueError("times must match node_indices")
        if t[0] <= 0.0:
            raise ValueError("controlled windows must start strictly after t=0")
        if y.ndim != 2 or y.shape[0] != idx.size:
            raise ValueError(f"values must have shape (K, m), got {y.shape}")
        if d.shape[:2] != y.shape or d.ndim != 3:
            raise ValueError(f"derivative must have shape (K, m, N), got {d.shape}")
        object.__setattr__(self, "node_indices", _readonly(idx))
        object.__setattr__(self, "times", _readonly(t))
        object.__setattr__(self, "values", _readonly(y))
        object.__setattr__(self, "derivative", _readonly(d))

    def positions_of(self, grid_indices: np.ndarray) -> np.ndarray:
        pos = np.searchsorted(self.node_indices, grid_indices)
        ok = (pos < self.node_indices.size) & (
            self.node_indices[np.minimum(pos, self.node_indices.size - 1)]
            == grid_indices
        )
        if not np.all(ok):
            raise PartitionError("partition nodes must carry controlled-path values")
        return pos


def rough_integral(
    controlled: ControlledPath, rp: RoughPath, partition: np.ndarray
) -> np.ndarray:
    """Compensated Riemann sum of a controlled path against (beta, B).

    Over each partition cell [t_i, t_{i+1}] the contribution is
    Y[t_i] (x) dbeta + Y'[t_i] . B, and the result is the (m, N) matrix of
    integrals of each component against each channel.  For a fixed controlled
    path the values over dyadic refinements converge; the finest-partition
    value plays the role of the integral downstream.
    """
    part = np.asarray(partition, dtype=np.int64)
    if part.ndim != 1 or part.size < 2 or np.any(np.diff(part) <= 0):
        raise PartitionError("partition must be a strictly increasing index array")
    if part[0] < 0 or part[-1] > rp.grid.steps:
        raise PartitionError("partition leaves the rough-path grid")
    pos = controlled.positions_of(part)
    left, right = part[:-1], part[1:]
    dbeta = rp.values[right] - rp.values[left]
    tensors = rp.levy_area_pairs(left, right)
    y_left = controlled.values[pos[:-1]]
    yp_left = controlled.derivative[pos[:-1]]
    first = y_left[:, :, None] * dbeta[:, None, :]
    second = np.einsum("cmk,ckn->cmn", yp_left, tensors)
    return np.sum(first + second, axis=0)


def dyadic_partitions(start: int, end: int, levels: int) -> list[np.ndarray]:
    """Nested partitions of [start, end] by repeated index bisection, at most
    ``levels`` of them.

    Level 0 is the two endpoints; each level splits every cell at its floor
    midpoint.  Refinement stops early when every cell is a single grid step.
    """
    if start >= end:
        raise PartitionError(f"empty window [{start}, {end}]")
    parts = [np.array([start, end], dtype=np.int64)]
    while len(parts) < levels:
        prev = parts[-1]
        mids = (prev[:-1] + prev[1:]) // 2
        nxt = np.unique(np.concatenate([prev, mids]))
        if nxt.size == prev.size:
            break
        parts.append(nxt)
    return parts


@dataclass(frozen=True)
class RateFit:
    """Least-squares slope of log(diff) against log(mesh), with fit residual."""

    slope: float
    rms_residual: float


def fit_rate(meshes, diffs) -> RateFit:
    meshes = np.asarray(meshes, dtype=np.float64)
    diffs = np.asarray(diffs, dtype=np.float64)
    if np.all(diffs == 0.0):
        return RateFit(math.inf, 0.0)
    keep = diffs > 0.0
    if np.count_nonzero(keep) < 2:
        return RateFit(math.inf, 0.0)
    x = np.log(meshes[keep])
    y = np.log(diffs[keep])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    rms = float(np.sqrt(np.mean(resid * resid)))
    return RateFit(float(slope), rms)


# ---------------------------------------------------------------------------
# Two-file store: JSON header + one binary block.
#
# ``rough_path.json`` holds the schema version, seed, channels, horizon,
# steps, alpha and flavor.  ``rough_path.bin`` holds the path values
# (steps+1, N), row-major little-endian float64 with nothing before or after
# them, so it is 8*(steps+1)*N bytes.  The values are written from and read
# into their array directly, which makes the reload bit-exact; the prefix
# table follows from the values and the flavor, so the load rebuilds the
# enhancement through ``enhance``, under the same lattice and envelope
# checks, and the table is built only when a level-2 quantity is read.

STORE_SCHEMA = 3


def save_rough_path(rp: RoughPath, directory) -> tuple[Path, Path]:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    header = {
        "schema_version": STORE_SCHEMA,
        "seed": rp.path.seed,
        "channels": rp.channels,
        "horizon": rp.grid.horizon,
        "steps": rp.grid.steps,
        "alpha": rp.alpha,
        "flavor": rp.flavor,
        "layout": "values (steps+1, channels), row-major",
        "value_format": "little-endian float64",
    }
    header_path = directory / "rough_path.json"
    header_path.write_text(json.dumps(header, sort_keys=True, indent=2) + "\n")
    values_path = directory / "rough_path.bin"
    np.ascontiguousarray(rp.values, dtype="<f8").tofile(values_path)
    return header_path, values_path


def load_rough_path(directory) -> RoughPath:
    """Reload a store written by ``save_rough_path``.

    A missing file raises OSError; a header of another schema, or a binary
    block shorter or longer than the header's steps and channels imply,
    raises ValueError.
    """
    directory = Path(directory)
    header_path = directory / "rough_path.json"
    header = json.loads(header_path.read_text())
    version = header.get("schema_version")
    if version != STORE_SCHEMA:
        raise ValueError(
            f"{header_path} has schema_version {version!r}, but this version reads "
            f"schema {STORE_SCHEMA}; re-run `vortexlab enhance` to re-create the store"
        )
    n = int(header["channels"])
    grid = TimeGrid(float(header["horizon"]), int(header["steps"]))
    values_path = directory / "rough_path.bin"
    count = (grid.steps + 1) * n
    with values_path.open("rb") as fh:
        values = np.fromfile(fh, dtype="<f8", count=count)
        trailing = fh.read(1)
    if trailing or values.size != count:
        raise ValueError(
            f"{values_path} holds {values_path.stat().st_size} bytes, but its header "
            f"({grid.steps} steps, {n} channels) needs exactly {8 * count}"
        )
    path = DrivingPath(grid, values.reshape(grid.steps + 1, n), seed=header["seed"])
    return enhance(path, header["flavor"], float(header["alpha"]))

"""Periodic-box spectral calculus for 3-component vector fields.

Fields live on a cube of side ``size`` with ``modes`` points per axis.  They
are real, so each is stored as the half of its spectrum that the real FFT
keeps: wavenumbers k1, k2 in numpy FFT order and 0 <= k3 <= modes/2, shape
(3, n, n, n//2 + 1), with the forward transform normalised by 1/modes^3 (the
zero mode is the spatial mean).  The modes with k3 < 0 are the complex
conjugates of stored ones; only the planes k3 = 0 and k3 = n/2 hold both
members of each conjugate pair, and they are kept exactly Hermitian.
Parseval sums weight those two planes by 1 and every other stored mode by 2
(``BoxGrid.parseval_weight``).  Differentiation
multiplies by i*xi with the Nyquist plane of the differentiated axis zeroed;
the same "derivative wavenumbers" feed the curl, the divergence, and the
velocity recovery so that curl of the recovered velocity reproduces a
divergence-free mean-zero field mode by mode.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

_AXES = (1, 2, 3)

# With VORTEX_DEBUG set, every constructed field is checked for Hermitian
# symmetry on its self-conjugate planes k3 = 0 and k3 = n/2 (real fields stay
# real through every operation).
_DEBUG = bool(os.environ.get("VORTEX_DEBUG"))


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


def _reflect(a: np.ndarray, axes) -> np.ndarray:
    """conj(a) at -k, the wavenumbers of ``axes`` in numpy FFT order."""
    return np.conj(np.roll(np.flip(a, axis=axes), 1, axis=axes))


def _conjugate_planes(a: np.ndarray) -> np.ndarray:
    """conj(a) at (-k1, -k2) on the planes k3 = 0 and k3 = n/2 of a half
    spectrum (..., n, n, n//2 + 1), stacked on a last axis of length 2."""
    return _reflect(a[..., [0, -1]], (-3, -2))


def _plane_defect(a: np.ndarray) -> float:
    return float(np.max(np.abs(a[..., [0, -1]] - _conjugate_planes(a))))


def _symmetrise_planes(a: np.ndarray) -> np.ndarray:
    """Make the self-conjugate planes of ``a`` exactly Hermitian, in place:
    each mode whose conjugate mirror differs becomes the mean of itself and
    that mirror; a plane that already is keeps its bits."""
    planes, mirror = a[..., [0, -1]], _conjugate_planes(a)
    a[..., [0, -1]] = np.where(planes == mirror, planes, 0.5 * (planes + mirror))
    return a


def _real_spectrum(physical: np.ndarray) -> np.ndarray:
    """Half spectrum of real samples over the last three axes."""
    return _symmetrise_planes(np.fft.rfftn(physical, axes=(-3, -2, -1), norm="forward"))


@dataclass(frozen=True)
class BoxGrid:
    """Periodic box of side ``size`` with ``modes`` (even) points per axis."""

    size: float
    modes: int

    def __post_init__(self) -> None:
        if self.modes < 4 or self.modes % 2 != 0:
            raise ValueError(f"modes must be even and >= 4, got {self.modes}")
        if not self.size > 0:
            raise ValueError(f"box size must be positive, got {self.size}")
        n = int(self.modes)
        half = (n, n, n // 2 + 1)
        k1 = np.fft.fftfreq(n, d=1.0 / n)  # integer wavenumbers, FFT order
        k3 = np.fft.rfftfreq(n, d=1.0 / n)  # 0 .. n/2
        k_int = [k1.reshape(n, 1, 1), k1.reshape(1, n, 1), k3.reshape(1, 1, -1)]
        scale = 2.0 * math.pi / self.size
        xi = np.stack([np.broadcast_to(scale * k, half) for k in k_int])
        xi_sq = np.sum(xi * xi, axis=0)
        # Odd derivatives zero the Nyquist plane of their own axis.
        deriv_xi = xi.copy()
        for a in range(3):
            deriv_xi[a][np.broadcast_to(np.abs(k_int[a]) == n // 2, half)] = 0.0
        deriv_sq = np.sum(deriv_xi * deriv_xi, axis=0)
        inv_deriv_sq = np.zeros_like(deriv_sq)
        nz = deriv_sq > 0.0
        inv_deriv_sq[nz] = 1.0 / deriv_sq[nz]
        keep = np.ones(half, dtype=bool)
        for a in range(3):
            keep &= np.broadcast_to(np.abs(k_int[a]) <= n // 3, half)
        # Each stored k3 in (0, n/2) stands for itself and its conjugate mirror.
        weight = np.full(n // 2 + 1, 2.0)
        weight[[0, -1]] = 1.0
        x1 = np.arange(n) * (self.size / n)
        coords = np.stack(np.meshgrid(x1, x1, x1, indexing="ij"))
        for name, arr in (
            ("_xi_sq", xi_sq),
            ("_deriv_xi", deriv_xi),
            ("_inv_deriv_sq", inv_deriv_sq),
            ("_dealias_keep", keep),
            ("_parseval_weight", weight),
            ("_coords", coords),
        ):
            object.__setattr__(self, name, _readonly(arr))

    @property
    def xi_sq(self) -> np.ndarray:
        return self._xi_sq  # type: ignore[attr-defined]

    @property
    def deriv_xi(self) -> np.ndarray:
        return self._deriv_xi  # type: ignore[attr-defined]

    @property
    def inv_deriv_sq(self) -> np.ndarray:
        return self._inv_deriv_sq  # type: ignore[attr-defined]

    @property
    def dealias_keep(self) -> np.ndarray:
        return self._dealias_keep  # type: ignore[attr-defined]

    @property
    def parseval_weight(self) -> np.ndarray:
        """Per-k3 weight (n//2 + 1,) of a stored mode in Parseval sums: 1 on
        the self-conjugate planes k3 = 0 and k3 = n/2, 2 elsewhere."""
        return self._parseval_weight  # type: ignore[attr-defined]

    @property
    def spectrum_shape(self) -> tuple[int, int, int]:
        """Shape (n, n, n//2 + 1) of one component's half spectrum."""
        return (self.modes, self.modes, self.modes // 2 + 1)

    @property
    def coordinates(self) -> np.ndarray:
        return self._coords  # type: ignore[attr-defined]

    @property
    def cell_volume(self) -> float:
        return (self.size / self.modes) ** 3

    @property
    def volume(self) -> float:
        return self.size ** 3


@dataclass(frozen=True)
class SpectralField:
    """Three half-spectrum coefficient blocks, one per vector component.

    A C-contiguous complex128 ``coef`` array is kept as it is, not copied,
    and made read-only in place: after construction a write through the
    caller's own name for it raises.  A routine that refills a buffer of
    its own wraps ``buf.view()`` instead.
    """

    grid: BoxGrid
    coef: np.ndarray  # (3, n, n, n//2 + 1) complex128

    def __post_init__(self) -> None:
        c = np.asarray(self.coef, dtype=np.complex128)
        shape = (3,) + self.grid.spectrum_shape
        if c.shape != shape:
            raise ValueError(f"coefficients must have shape {shape}")
        object.__setattr__(self, "coef", _readonly(c))
        if _DEBUG:
            scale = float(np.max(np.abs(c))) or 1.0
            defect = self.hermitian_defect()
            if defect > 1e-10 * scale:
                raise AssertionError(
                    f"Hermitian symmetry violated: defect {defect:.3e} at scale {scale:.3e}"
                )

    @classmethod
    def zero(cls, grid: BoxGrid) -> "SpectralField":
        return cls(grid, np.zeros((3,) + grid.spectrum_shape, complex))

    def to_physical(self) -> np.ndarray:
        """The real (3, n, n, n) grid values."""
        n = self.grid.modes
        return np.fft.irfftn(self.coef, s=(n, n, n), axes=_AXES, norm="forward")

    def hermitian_defect(self) -> float:
        """Largest |c(k) - conj c(-k)| on the self-conjugate planes."""
        return _plane_defect(self.coef)

    def __add__(self, other: "SpectralField") -> "SpectralField":
        return SpectralField(self.grid, self.coef + other.coef)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        return SpectralField(self.grid, self.coef - other.coef)

    def __mul__(self, scalar: float) -> "SpectralField":
        return SpectralField(self.grid, self.coef * scalar)

    __rmul__ = __mul__


def to_spectral(grid: BoxGrid, physical: np.ndarray) -> SpectralField:
    """Half spectrum of a real (3, n, n, n) physical field, mean in the zero
    mode, with exactly Hermitian self-conjugate planes."""
    u = np.asarray(physical, dtype=np.float64)
    n = grid.modes
    if u.shape != (3, n, n, n):
        raise ValueError(f"physical field must have shape (3, {n}, {n}, {n})")
    return SpectralField(grid, _real_spectrum(u))


def heat_semigroup(u: SpectralField, t: float) -> SpectralField:
    """Diagonal heat flow: every mode damped by exp(-|xi|^2 t)."""
    if t < 0:
        raise ValueError(f"heat semigroup needs t >= 0, got {t}")
    return SpectralField(u.grid, u.coef * np.exp(-u.grid.xi_sq * t))


def laplacian(u: SpectralField) -> SpectralField:
    return SpectralField(u.grid, -u.grid.xi_sq * u.coef)


def partial_derivative(u: SpectralField, axis: int) -> SpectralField:
    if axis not in (0, 1, 2):
        raise ValueError(f"axis must be 0, 1 or 2, got {axis}")
    return SpectralField(u.grid, 1j * u.grid.deriv_xi[axis] * u.coef)


def curl(u: SpectralField) -> SpectralField:
    s = u.grid.deriv_xi
    c = u.coef
    out = np.stack(
        [
            1j * (s[1] * c[2] - s[2] * c[1]),
            1j * (s[2] * c[0] - s[0] * c[2]),
            1j * (s[0] * c[1] - s[1] * c[0]),
        ]
    )
    return SpectralField(u.grid, out)


def project_divergence_free(u: SpectralField, remove_mean: bool = True) -> SpectralField:
    """Leray projection u - xi (xi . u)/|xi|^2, optionally dropping the mean."""
    g = u.grid
    dot = np.sum(g.deriv_xi * u.coef, axis=0)
    out = u.coef - g.deriv_xi * (dot * g.inv_deriv_sq)
    if remove_mean:
        out = out.copy()
        out[:, 0, 0, 0] = 0.0
    return SpectralField(g, out)


def biot_savart(u: SpectralField) -> SpectralField:
    """Velocity with the given curl: X = i xi x u / |xi|^2, zero mean.

    Gradient components of u are annihilated by the cross product, so the
    operator only sees the divergence-free part; composing with ``curl``
    returns a divergence-free mean-zero input unchanged on every mode with
    nonzero derivative wavenumber.
    """
    g = u.grid
    s = g.deriv_xi
    c = u.coef
    cross = np.stack(
        [
            s[1] * c[2] - s[2] * c[1],
            s[2] * c[0] - s[0] * c[2],
            s[0] * c[1] - s[1] * c[0],
        ]
    )
    return SpectralField(g, 1j * cross * g.inv_deriv_sq)


@dataclass(frozen=True)
class ConvolutionOperator:
    """Convolution with an integrable kernel, realised as one complex factor
    per stored mode applied to each component alike.

    ``kernel_l1`` records the physical-space rectangle quadrature of |h|;
    by the discrete Young inequality it bounds the operator on every L^p.
    """

    grid: BoxGrid
    values: np.ndarray  # (n, n, n//2 + 1) complex
    kernel_l1: float

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.complex128)
        shape = self.grid.spectrum_shape
        if v.shape != shape:
            raise ValueError(f"multiplier must have shape {shape}")
        object.__setattr__(self, "values", _readonly(v))

    def hermitian_defect(self) -> float:
        """Largest |m(k) - conj m(-k)| on the self-conjugate planes."""
        return _plane_defect(self.values)

    def apply(self, u: SpectralField) -> SpectralField:
        return SpectralField(u.grid, self.values * u.coef)


def convolution_operator_from_multiplier(grid: BoxGrid, values: np.ndarray) -> ConvolutionOperator:
    """The operator with multiplier ``values``; one that is not Hermitian on
    the self-conjugate planes (defect above 1e-10 of its largest value) has
    no real kernel and is refused."""
    values = np.asarray(values, dtype=np.complex128)
    n = grid.modes
    kernel = np.fft.irfftn(values, s=(n, n, n), axes=(0, 1, 2), norm="forward") / grid.volume
    op = ConvolutionOperator(grid, values, float(np.sum(np.abs(kernel)) * grid.cell_volume))
    if op.hermitian_defect() > 1e-10 * (float(np.max(np.abs(values))) or 1.0):
        raise ValueError("multiplier is not Hermitian: kernel would not be real")
    return op


def convolution_operator_from_kernel(grid: BoxGrid, kernel: np.ndarray) -> ConvolutionOperator:
    h = np.asarray(kernel, dtype=np.float64)
    n = grid.modes
    if h.shape != (n, n, n):
        raise ValueError(f"kernel samples must have shape ({n}, {n}, {n})")
    values = grid.volume * _real_spectrum(h)
    l1 = float(np.sum(np.abs(h)) * grid.cell_volume)
    return ConvolutionOperator(grid, values, l1)


def gaussian_convolution_operator(grid: BoxGrid, sigma: float, mass: float) -> ConvolutionOperator:
    """Kernel mass * gaussian(sigma): multiplier mass * exp(-sigma^2 |xi|^2 / 2)."""
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    values = mass * np.exp(-0.5 * sigma * sigma * grid.xi_sq)
    return convolution_operator_from_multiplier(grid, values.astype(complex))


def dealias(u: SpectralField) -> SpectralField:
    return SpectralField(u.grid, u.coef * u.grid.dealias_keep)


def rotational_flux(u: SpectralField) -> np.ndarray:
    """Physical-grid flux X x u of the rotational form, a real (3, n, n, n) array.

    X is the velocity recovered from u; both factors are truncated by the 2/3
    rule before they are brought to the grid (two inverse transforms).
    """
    x = dealias(biot_savart(u)).to_physical()
    v = dealias(u).to_physical()
    return np.stack(
        [
            x[1] * v[2] - x[2] * v[1],
            x[2] * v[0] - x[0] * v[2],
            x[0] * v[1] - x[1] * v[0],
        ]
    )


def vorticity_nonlinearity(u: SpectralField) -> SpectralField:
    """Quadratic term -(X . grad) u + (u . grad) X with X the recovered velocity.

    Evaluated in rotational form, curl(X x u): for divergence-free u and X the
    two agree, and the cross product needs only X and u on the physical grid
    (``rotational_flux``, then one forward transform).  Both factors and the
    result are truncated by the 2/3 rule, so the quadratic term is alias-free
    on the retained modes, and the result is divergence-free to rounding.
    """
    return dealias(curl(to_spectral(u.grid, rotational_flux(u))))


def resample(u: SpectralField, grid: BoxGrid) -> SpectralField:
    """u carried to ``grid`` (the same box, any modes): the modes with
    |k_a| < m/2 on every axis, m the smaller of the two mode counts, are
    copied and every other mode is zero, so neither grid's Nyquist planes
    are kept."""
    if grid.size != u.grid.size:
        raise ValueError(f"box sizes differ: {u.grid.size} and {grid.size}")
    h = min(u.grid.modes, grid.modes) // 2

    def rows(n: int) -> np.ndarray:  # k = 0 .. h-1, then -(h-1) .. -1
        return np.r_[0:h, n - h + 1 : n]

    src, dst = rows(u.grid.modes), rows(grid.modes)
    out = np.zeros((3,) + grid.spectrum_shape, dtype=np.complex128)
    out[:, dst[:, None], dst, :h] = u.coef[:, src[:, None], src, :h]
    return SpectralField(grid, out)


def lp_norm(field: SpectralField, p: float) -> float:
    """Cell-volume weighted L^p norm of the pointwise Euclidean magnitude."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    phys = field.to_physical()
    mag = np.sqrt(np.sum(phys * phys, axis=0))
    if math.isinf(p):
        return float(np.max(mag))
    return float((np.sum(mag ** p) * field.grid.cell_volume) ** (1.0 / p))


def inner_product(u: SpectralField, v: SpectralField) -> float:
    """L^2 pairing integral of u . v, evaluated by the weighted Parseval sum
    over the stored half spectrum."""
    if u.grid is not v.grid and u.grid != v.grid:
        raise ValueError("fields live on different grids")
    g = u.grid
    return float(np.sum(np.real(u.coef * np.conj(v.coef)) * g.parseval_weight)) * g.volume


def spectral_l2(u: SpectralField) -> float:
    g = u.grid
    return math.sqrt(float(np.sum(np.abs(u.coef) ** 2 * g.parseval_weight)) * g.volume)


def random_field(grid: BoxGrid, seed: int, decay: float = 2.0) -> SpectralField:
    """Seeded random real field with power-law decaying coefficients."""
    rng = np.random.default_rng(seed)
    n = grid.modes
    phys = rng.standard_normal((3, n, n, n))
    field = to_spectral(grid, phys)
    k_sq = grid.xi_sq * (grid.size / (2.0 * math.pi)) ** 2
    filt = (1.0 + k_sq) ** (-decay / 2.0)
    coef = field.coef * filt
    half = n // 2
    coef[:, half, :, :] = 0.0
    coef[:, :, half, :] = 0.0
    coef[:, :, :, half] = 0.0
    return SpectralField(grid, coef)


def bump_fields(grid: BoxGrid, count: int, seed: int) -> list[SpectralField]:
    """Band-limited bump test fields, unit L^2 norm, modes within |k| <= 2.

    Each component is a product over the axes of (1 + cos(2 pi (x - c)/L))^2
    with a seeded random centre c and sign, the periodic stand-in for a
    smooth compactly supported test function with exactly computable
    derivatives on the grid.
    """
    rng = np.random.default_rng(seed)
    x = grid.coordinates
    out = []
    for _ in range(count):
        phys = np.empty((3, grid.modes, grid.modes, grid.modes))
        for comp in range(3):
            centers = rng.uniform(0.0, grid.size, size=3)
            sign = 1.0 if rng.uniform() < 0.5 else -1.0
            bump = np.ones_like(phys[comp])
            for a in range(3):
                bump *= (1.0 + np.cos(2.0 * math.pi * (x[a] - centers[a]) / grid.size)) ** 2
            phys[comp] = sign * bump
        field = to_spectral(grid, phys)
        out.append(field * (1.0 / lp_norm(field, 2)))
    return out


# ---------------------------------------------------------------------------
# Field store: JSON header + little-endian binary (re, im) pairs per mode per
# component, the full spectrum serialised in row-major centered-k order.  The
# store holds every mode, so ``save_field`` writes the exactly Hermitian full
# spectrum of a field and ``load_field`` keeps the half of what it reads.


def _full_spectrum(coef: np.ndarray) -> np.ndarray:
    """The exactly Hermitian (3, n, n, n) spectrum of a half spectrum: the
    self-conjugate planes symmetrised, each mode with k3 < 0 the conjugate of
    its stored mirror."""
    n = coef.shape[1]
    half = _symmetrise_planes(coef.copy())
    full = np.empty(coef.shape[:3] + (n,), dtype=np.complex128)
    full[..., : n // 2 + 1] = half
    mirror = np.roll(np.flip(half[..., 1 : n // 2], axis=_AXES), 1, axis=(1, 2))
    full[..., n // 2 + 1 :] = np.conj(mirror)
    return full


def save_field(u: SpectralField, path_base) -> tuple[Path, Path]:
    base = Path(path_base)
    base.parent.mkdir(parents=True, exist_ok=True)
    header = {
        "schema_version": 1,
        "box_size": u.grid.size,
        "modes": u.grid.modes,
        "components": 3,
        "layout": "row-major centered-k order",
        "value_format": "little-endian float64 (re, im) pairs",
    }
    hp = base.with_suffix(".json")
    hp.write_text(json.dumps(header, sort_keys=True, indent=2) + "\n")
    centered = np.fft.fftshift(_full_spectrum(u.coef), axes=_AXES)
    bp = base.with_suffix(".bin")
    bp.write_bytes(centered.astype("<c16").tobytes())
    return hp, bp


def load_field(path_base) -> SpectralField:
    """Read a field store and keep the half spectrum of what it holds.

    A store whose full spectrum is not Hermitian (defect above 1e-10 of its
    largest coefficient) does not hold a real field and is refused.
    """
    base = Path(path_base)
    header = json.loads(base.with_suffix(".json").read_text())
    n = int(header["modes"])
    grid = BoxGrid(float(header["box_size"]), n)
    bin_path = base.with_suffix(".bin")
    data = bin_path.read_bytes()
    if len(data) != 8 * 2 * 3 * n ** 3:
        raise ValueError(
            f"{bin_path} holds {len(data)} bytes, but its header ({n} modes) needs "
            f"exactly {8 * 2 * 3 * n ** 3}"
        )
    coef = np.fft.ifftshift(np.frombuffer(data, dtype="<c16").reshape(3, n, n, n), axes=_AXES)
    defect = float(np.max(np.abs(coef - _reflect(coef, _AXES))))
    scale = float(np.max(np.abs(coef))) or 1.0
    if defect > 1e-10 * scale:
        raise ValueError(
            f"{bin_path} is not the spectrum of a real field: Hermitian defect "
            f"{defect:.3e} at scale {scale:.3e}"
        )
    return SpectralField(grid, _symmetrise_planes(coef[..., : n // 2 + 1].copy()))

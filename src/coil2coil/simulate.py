"""Synthetic phased-array acquisition: phantoms, coils, correlated noise.

Spatial coordinates are normalized to [-1, 1] on both axes regardless of
grid size, so specs are resolution independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .imaging import check_covariance, check_mask, check_stack

__all__ = [
    "Ellipse",
    "PhantomSpec",
    "CoilSpec",
    "NoiseSpec",
    "make_phantom",
    "make_sensitivities",
    "make_mask",
    "make_noise_covariance",
    "sample_noise",
    "synthesize_acquisition",
    "random_phantom_spec",
]

N_ELLIPSES = (2, 5)  # fewest and most interior ellipses of a random phantom
COIL_RADIUS = 1.1  # ring radius of the coil centres, just outside the FOV
COIL_FALLOFF = 1.05  # Gaussian width of a coil's sensitivity
MASK_THRESHOLD = 0.1  # mask voxels exceed this fraction of the peak magnitude


@dataclass(frozen=True)
class Ellipse:
    """One phantom ellipse: center, semi-axes and rotation in normalized coords."""

    cx: float
    cy: float
    a: float
    b: float
    angle: float = 0.0  # radians, counterclockwise
    amplitude: complex = 1.0

    def contains(self, x, y):
        """Boolean inside-test, vectorized over coordinate arrays."""
        c, s = np.cos(self.angle), np.sin(self.angle)
        u = c * (x - self.cx) + s * (y - self.cy)
        v = -s * (x - self.cx) + c * (y - self.cy)
        return (u / self.a) ** 2 + (v / self.b) ** 2 <= 1.0


@dataclass(frozen=True)
class PhantomSpec:
    grid_size: int
    ellipses: tuple
    background: complex = 0.0

    def __post_init__(self):
        if self.grid_size < 8:
            raise ValueError(f"grid_size must be >= 8, got {self.grid_size}")
        if len(self.ellipses) < 1:
            raise ValueError("phantom needs at least one ellipse")


@dataclass(frozen=True)
class CoilSpec:
    """Synthetic coil array: Gaussian falloff around per-channel centers."""

    centers: tuple  # ((x, y), ...) in normalized coords
    falloff: float
    phases: tuple  # per-channel constant phase, radians

    def __post_init__(self):
        if len(self.centers) < 2:
            raise ValueError("coil array needs at least 2 channels")
        if self.falloff <= 0:
            raise ValueError("falloff width must be positive")
        if len(self.phases) != len(self.centers):
            raise ValueError("phases length must match centers")

    @property
    def n_channels(self):
        return len(self.centers)

    @classmethod
    def ring(cls, m, phases=None):
        """m channels evenly spaced on a circle just outside the FOV."""
        ang = 2 * np.pi * np.arange(m) / m
        centers = tuple((COIL_RADIUS * np.cos(t), COIL_RADIUS * np.sin(t)) for t in ang)
        if phases is None:
            phases = tuple(float(t) for t in ang)
        return cls(centers=centers, falloff=COIL_FALLOFF, phases=tuple(phases))


@dataclass(frozen=True)
class NoiseSpec:
    sigma: float = 1.0
    rho_min: float = 0.0
    rho_max: float = 0.2

    def __post_init__(self):
        if not (0.0 <= self.rho_min <= self.rho_max < 1.0):
            raise ValueError(f"need 0 <= rho_min <= rho_max < 1, got [{self.rho_min}, {self.rho_max}]")
        if not 0.0 <= self.sigma < math.inf:
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma}")


def _grid(h, w):
    y = np.linspace(-1.0, 1.0, h)
    x = np.linspace(-1.0, 1.0, w)
    return np.meshgrid(x, y)  # (X, Y), each (h, w)


def make_phantom(spec):
    """Render a PhantomSpec to a complex (N, N) image.

    Each voxel is the sum of the amplitudes of the ellipses containing it,
    plus the background amplitude.  Deterministic.
    """
    n = spec.grid_size
    x, y = _grid(n, n)
    img = np.full((n, n), complex(spec.background), dtype=np.complex128)
    for e in spec.ellipses:
        img += np.where(e.contains(x, y), complex(e.amplitude), 0.0)
    return img


def make_sensitivities(spec, shape):
    """Gaussian-falloff sensitivities s_i = exp(-d_i^2 / 2w^2) exp(i phi_i)."""
    h, w = shape
    x, y = _grid(h, w)
    sens = np.empty((spec.n_channels, h, w), dtype=np.complex128)
    for i, ((cx, cy), phi) in enumerate(zip(spec.centers, spec.phases)):
        d2 = (x - cx) ** 2 + (y - cy) ** 2
        sens[i] = np.exp(-d2 / (2.0 * spec.falloff**2)) * np.exp(1j * phi)
    return sens


def make_mask(img):
    """Threshold-derived mask: |img| above MASK_THRESHOLD of its peak."""
    mag = np.abs(np.asarray(img))
    peak = mag.max()
    if peak == 0:
        raise ValueError("cannot derive mask from an all-zero image")
    return mag > MASK_THRESHOLD * peak


def make_noise_covariance(sens, phantom, mask, spec, rng):
    """Channel covariance matching the synthetic-noise protocol.

    Per-channel (per-axis) std tau_i = mean_{mask} |s_i * x| * 2^{-1/2} * sigma;
    off-diagonals tau_i tau_j rho_ij with rho_ij uniform in [rho_min, rho_max].
    The result is projected onto the PSD cone by clamping eigenvalues at 0.
    """
    sens = check_stack(sens)
    mask = check_mask(mask, phantom.shape)
    m = sens.shape[0]
    signal = np.abs(sens * np.asarray(phantom)[None])
    tau = signal[:, mask].mean(axis=1) * (2.0**-0.5) * spec.sigma
    rho = rng.uniform(spec.rho_min, spec.rho_max, size=(m, m))
    rho = np.triu(rho, 1)
    rho = rho + rho.T + np.eye(m)
    psi = rho * np.outer(tau, tau)
    evals, vecs = np.linalg.eigh(psi)
    if evals[0] < 0:
        psi = (vecs * np.maximum(evals, 0.0)) @ vecs.T
        psi = 0.5 * (psi + psi.T)
    return psi.astype(np.complex128)


def sample_noise(psi, shape, rng):
    """Draw correlated complex noise of shape (m, *shape).

    Real and imaginary axes are sampled independently as L z with z i.i.d.
    standard normal and L L^H = psi, so each axis has covariance psi across
    channels; both are mixed by one complex GEMM, L (z_re + i z_im).
    """
    m = math.isqrt(np.size(psi))  # a non-square psi fails the (m, m) shape check
    psi = check_covariance(psi, m)
    try:
        L = np.linalg.cholesky(psi)
    except np.linalg.LinAlgError:  # singular psi: factor it by its eigendecomposition
        evals, vecs = np.linalg.eigh(psi)
        L = vecs * np.sqrt(np.maximum(evals, 0.0))
    z = rng.standard_normal((2, m, math.prod(shape)))  # real draws, then imaginary
    return (L @ (z[0] + 1j * z[1])).reshape(m, *shape)


def synthesize_acquisition(phantom, sens, psi, rng):
    """Per-channel images y_i = s_i * x + n_i with correlated noise."""
    sens = check_stack(sens)
    phantom = np.asarray(phantom)
    if sens.shape[1:] != phantom.shape:
        raise ValueError(f"sensitivity shape {sens.shape} does not match phantom {phantom.shape}")
    if np.shape(psi) != (len(sens), len(sens)):
        raise ValueError(f"covariance shape {np.shape(psi)} does not match {len(sens)} channels")
    return sens * phantom[None] + sample_noise(psi, phantom.shape, rng)


def random_phantom_spec(grid_size, rng):
    """Random piecewise-constant phantom: a head ellipse plus N_ELLIPSES blobs."""
    lo, hi = N_ELLIPSES
    k = int(rng.integers(lo, hi + 1))
    ellipses = [Ellipse(0.0, 0.0, 0.85, 0.8, 0.0, 0.8)]
    for _ in range(k):
        ellipses.append(
            Ellipse(
                cx=rng.uniform(-0.4, 0.4),
                cy=rng.uniform(-0.4, 0.4),
                a=rng.uniform(0.1, 0.45),
                b=rng.uniform(0.1, 0.45),
                angle=rng.uniform(0, np.pi),
                amplitude=rng.uniform(-0.4, 0.6),
            )
        )
    return PhantomSpec(grid_size=grid_size, ellipses=tuple(ellipses))

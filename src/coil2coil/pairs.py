"""Training-pair generation: channel split, combination, noise whitening,
and sensitivity bookkeeping.

The label is decorrelated from the input by the 2x2 generalized
least-squares transform: with per-voxel noise variances v_j, v_k and
covariance c of the two combined images,

    label' = alpha * input + beta * label
    alpha  = -c   / sqrt(v_j v_k - c^2)
    beta   =  v_j / sqrt(v_j v_k - c^2)

which zeroes the input/label noise covariance while preserving
var(label') = v_j.  Sensitivity normalization is carried as the pair's
(sens_in, sens_label) maps and applied inside the loss.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .imaging import (
    VoxelStats,
    check_mask,
    check_stack,
    coil_combine,
    effective_sensitivity,
    magnitude,
    propagate_noise_stats,
)
from .simulate import sample_noise

__all__ = [
    "ChannelSplit",
    "WhiteningMaps",
    "TrainingPair",
    "split_channels",
    "whitening_coefficients",
    "make_training_pair",
    "combine_all",
    "empirical_noise_correlation",
    "empirical_noise_correlations",
]

DET_EPS = 1e-9  # relative determinant below which whitening falls back
SENS_FLOOR = 1e-3  # fraction of the peak sensitivity counted as coverage
MC_CHUNK = 500  # noise realizations drawn at once by the Monte-Carlo check


@dataclass(frozen=True)
class ChannelSplit:
    """Disjoint balanced partition of channel indices into two groups."""

    group_j: tuple
    group_k: tuple

    def __post_init__(self):
        j, k = set(self.group_j), set(self.group_k)
        if j & k:
            raise ValueError("split groups overlap")
        m = len(j) + len(k)
        if j | k != set(range(m)):
            raise ValueError("split groups must cover channels 0..m-1")
        if abs(len(j) - len(k)) > 1:
            raise ValueError("split groups must be balanced within one channel")


@dataclass(frozen=True)
class WhiteningMaps:
    """Per-voxel whitening coefficients; n_fallback counts degenerate voxels."""

    alpha: np.ndarray
    beta: np.ndarray
    n_fallback: int = 0


@dataclass(frozen=True)
class TrainingPair:
    image_in: np.ndarray  # I_input, real (H, W)
    image_label: np.ndarray  # whitened label, real (H, W)
    sens_in: np.ndarray  # effective sensitivity of the input combination
    sens_label: np.ndarray  # effective sensitivity of the label
    mask: np.ndarray
    coverage_j: float = 1.0  # masked fraction with usable input sensitivity
    coverage_k: float = 1.0
    n_fallback: int = 0


def split_channels(m, rng):
    """Uniformly random balanced partition of m >= 2 channels."""
    if m < 2:
        raise ValueError(f"need at least 2 channels to split, got {m}")
    perm = rng.permutation(m)
    nj = m // 2
    if m % 2 == 1 and rng.integers(2):
        nj = m - nj
    return ChannelSplit(
        group_j=tuple(sorted(int(i) for i in perm[:nj])),
        group_k=tuple(sorted(int(i) for i in perm[nj:])),
    )


def whitening_coefficients(stats: VoxelStats):
    """Per-voxel (alpha, beta) of the GLS decorrelation.

    Voxels with a degenerate 2x2 covariance (determinant below DET_EPS times
    v_j*v_k, or v_k = 0) fall back to pure variance matching: alpha = 0,
    beta = sqrt(v_j / v_k) when v_k > 0, else beta = 1.
    """
    vj, vk, c = stats.var_j, stats.var_k, stats.cov_jk
    det = vj * vk - c**2
    good = (det > DET_EPS * vj * vk) & (vk > 0)
    root = np.sqrt(np.where(good, det, 1.0))
    alpha = np.where(good, -c / root, 0.0)
    with np.errstate(invalid="ignore"):
        beta_fb = np.sqrt(np.where(vk > 0, vj / np.maximum(vk, 1e-300), 1.0))
    beta = np.where(good, vj / root, beta_fb)
    return WhiteningMaps(alpha=alpha, beta=beta, n_fallback=int(np.count_nonzero(~good)))


def combine_all(stack, sens):
    """Full matched-filter combination magnitude |sum_i conj(s_i) y_i|."""
    stack = np.asarray(stack)  # coil_combine validates; a 0-d stack passes no channels
    return magnitude(coil_combine(stack, sens, range(stack.shape[0] if stack.ndim else 0)))


def make_training_pair(stack, sens, psi, split, mask, whiten=True):
    """Build a noise-independent training pair from one acquisition.

    With whiten on, the label is alpha*I_input + beta*I_label with the GLS
    coefficients computed from analytically propagated noise statistics,
    and its sensitivity map is combined the same way.  With whiten off the
    raw second-group combination is used (ablation).
    """
    stack = check_stack(stack, sens)
    mask = check_mask(mask, stack.shape[1:])
    gj, gk = split.group_j, split.group_k
    if len(gj) + len(gk) != stack.shape[0]:
        raise ValueError("split does not match channel count")

    img_in = magnitude(coil_combine(stack, sens, gj))
    img_lab = magnitude(coil_combine(stack, sens, gk))
    s_j = effective_sensitivity(sens, gj)
    s_k = effective_sensitivity(sens, gk)

    n_fallback = 0
    if whiten:
        stats = propagate_noise_stats(sens, psi, gj, gk)
        wmaps = whitening_coefficients(stats)
        label = wmaps.alpha * img_in + wmaps.beta * img_lab
        s_label = wmaps.alpha * s_j + wmaps.beta * s_k
        n_fallback = wmaps.n_fallback
    else:
        label = img_lab
        s_label = s_k

    if np.any(s_label[mask] <= 0):
        warnings.warn("degenerate pair: label sensitivity <= 0 inside mask", stacklevel=2)

    return TrainingPair(
        image_in=img_in, image_label=label, sens_in=s_j, sens_label=s_label, mask=mask,
        coverage_j=float(np.mean(s_j[mask] >= SENS_FLOOR * s_j.max())),
        coverage_k=float(np.mean(s_k[mask] >= SENS_FLOOR * s_k.max())),
        n_fallback=n_fallback,
    )


def empirical_noise_correlation(phantom, sens, psi, split, mask, n_real, rng, whiten=True):
    """Monte-Carlo check of pair noise independence.

    Draws n_real noise realizations of the acquisition, builds the
    (optionally whitened) input/label magnitudes for each, and returns the
    mean absolute per-voxel correlation between them inside the mask.
    """
    return empirical_noise_correlations(
        phantom, sens, psi, split, mask, n_real, rng, whiten=(whiten,)
    )[0]


def empirical_noise_correlations(
    phantom, sens, psi, split, mask, n_real, rng, whiten=(True, False)
):
    """empirical_noise_correlation for each flag in whiten, from one set of
    draws: the realizations are drawn and combined once, and each label is
    correlated with the one input.  Each figure equals the single-flag call
    with the same rng state, bit for bit.
    """
    phantom = np.asarray(phantom)
    sens = check_stack(sens)
    m, h, w = sens.shape
    mask = check_mask(mask, (h, w))
    gj, gk = list(split.group_j), list(split.group_k)

    if any(whiten):
        wmaps = whitening_coefficients(propagate_noise_stats(sens, psi, gj, gk))
    # per label: the flat (alpha, beta) maps, or None for the raw label
    coeffs = [(wmaps.alpha.ravel(), wmaps.beta.ravel()) if flag else None for flag in whiten]

    clean = sens * phantom[None]
    uj = sens[gj].conj().reshape(len(gj), -1)
    uk = sens[gk].conj().reshape(len(gk), -1)
    cj = np.einsum("cv,cv->v", uj, clean[gj].reshape(len(gj), -1))
    ck = np.einsum("cv,cv->v", uk, clean[gk].reshape(len(gk), -1))

    sa, saa = np.zeros((2, h * w))
    sb, sbb, sab = np.zeros((3, len(coeffs), h * w))
    done = 0
    while done < n_real:
        r = min(MC_CHUNK, n_real - done)
        noise = sample_noise(psi, (r, h * w), rng)
        ej = np.einsum("cv,crv->rv", uj, noise[gj])
        ek = np.einsum("cv,crv->rv", uk, noise[gk])
        img_in = np.abs(cj[None] + ej)
        raw = np.abs(ck[None] + ek)  # 0 * img_in + 1 * raw, bit for bit
        sa += img_in.sum(axis=0)
        saa += (img_in**2).sum(axis=0)
        for i, ab in enumerate(coeffs):
            img_lab = raw if ab is None else ab[0] * img_in + ab[1] * raw
            sb[i] += img_lab.sum(axis=0)
            sbb[i] += (img_lab**2).sum(axis=0)
            sab[i] += (img_in * img_lab).sum(axis=0)
        done += r

    n = float(n_real)
    va = saa / n - (sa / n) ** 2
    vb = sbb / n - (sb / n) ** 2
    cov = sab / n - (sa / n) * (sb / n)
    with np.errstate(divide="ignore", invalid="ignore"):
        corr = np.where((va > 0) & (vb > 0), cov / np.sqrt(np.maximum(va * vb, 1e-300)), 0.0)
    return tuple(float(np.mean(np.abs(c.reshape(h, w)[mask]))) for c in corr)

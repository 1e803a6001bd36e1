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
from dataclasses import dataclass, fields

import numpy as np

from .imaging import (
    VoxelStats,
    check_mask,
    check_stack,
    coil_combine,
    effective_sensitivity,
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
    """Per-voxel whitening coefficients (a scalar applies to every voxel);
    n_fallback counts degenerate voxels."""

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

    def __getitem__(self, idx):
        """The pairs at idx of a stack of pairs, every field indexed on its first axis."""
        return TrainingPair(*(getattr(self, f.name)[idx] for f in fields(self)))


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
    beta_fb = np.sqrt(np.where(vk > 0, vj / np.maximum(vk, 1e-300), 1.0))
    beta = np.where(good, vj / root, beta_fb)
    return WhiteningMaps(alpha=alpha, beta=beta, n_fallback=int(np.count_nonzero(~good)))


def combine_all(stack, sens):
    """Full matched-filter combination magnitude |sum_i conj(s_i) y_i|."""
    stack = check_stack(stack, sens)
    return np.abs(np.einsum("chw,chw->hw", np.conj(sens), stack))


def make_training_pair(stack, sens, psi, split, mask, whiten=True):
    """Build a noise-independent training pair from one acquisition.

    The label is alpha*I_input + beta*I_label and its sensitivity map
    alpha*S_j + beta*S_k.  With whiten on, (alpha, beta) are the GLS
    coefficients of the analytically propagated noise statistics; with
    whiten off they are (0, 1), so label and map are the raw second-group
    combination and S_k bit for bit (ablation).
    """
    gj, gk = split.group_j, split.group_k
    img_in = np.abs(coil_combine(stack, sens, gj))  # validates stack and sens
    if len(gj) + len(gk) != len(stack):
        raise ValueError("split does not match channel count")
    mask = check_mask(mask, img_in.shape)
    img_lab = np.abs(coil_combine(stack, sens, gk))
    s_j = effective_sensitivity(sens, gj)
    s_k = effective_sensitivity(sens, gk)
    if whiten:
        wmaps = whitening_coefficients(propagate_noise_stats(sens, psi, gj, gk))
    else:
        wmaps = WhiteningMaps(alpha=0.0, beta=1.0)
    label = wmaps.alpha * img_in + wmaps.beta * img_lab
    s_label = wmaps.alpha * s_j + wmaps.beta * s_k
    if np.any(s_label[mask] <= 0):
        warnings.warn("degenerate pair: label sensitivity <= 0 inside mask", stacklevel=2)

    return TrainingPair(
        image_in=img_in, image_label=label, sens_in=s_j, sens_label=s_label, mask=mask,
        coverage_j=float(np.mean(s_j[mask] >= SENS_FLOOR * s_j.max())),
        coverage_k=float(np.mean(s_k[mask] >= SENS_FLOOR * s_k.max())),
        n_fallback=wmaps.n_fallback,
    )


def empirical_noise_correlation(phantom, sens, psi, split, mask, n_real, rng, whiten=True):
    """Monte-Carlo check of pair noise independence: the whitened (or, with
    whiten off, raw) figure of empirical_noise_correlations."""
    return empirical_noise_correlations(phantom, sens, psi, split, mask, n_real, rng)[0 if whiten else 1]


def empirical_noise_correlations(phantom, sens, psi, split, mask, n_real, rng):
    """Monte-Carlo check of pair noise independence, (whitened, raw).

    Draws n_real noise realizations of the acquisition and returns the mean
    absolute per-voxel correlation inside the mask between the input
    magnitude a and the whitened label alpha*a + beta*b, and between a and
    the raw label magnitude b.  Both come from one set of per-voxel sample
    moments of a and b (variances v_a, v_b and covariance c): the whitened
    label is linear in a and b, so its covariance with a is
    alpha*v_a + beta*c and its variance alpha^2*v_a + 2*alpha*beta*c + beta^2*v_b.
    Sample variances need n_real >= 2.
    """
    if n_real < 2:
        raise ValueError(f"the Monte-Carlo check needs n_real >= 2 realizations, got {n_real}")
    sens = np.asarray(sens)
    gj, gk = list(split.group_j), list(split.group_k)
    wmaps = whitening_coefficients(propagate_noise_stats(sens, psi, gj, gk))  # validates sens, psi
    mask = check_mask(mask, sens.shape[1:])

    clean = sens * np.asarray(phantom)
    uj = sens[gj].conj().reshape(len(gj), -1)
    uk = sens[gk].conj().reshape(len(gk), -1)
    cj = np.einsum("cv,cv->v", uj, clean[gj].reshape(len(gj), -1))
    ck = np.einsum("cv,cv->v", uk, clean[gk].reshape(len(gk), -1))

    sa, sb, saa, sbb, sab = np.zeros((5, mask.size))
    done = 0
    while done < n_real:
        r = min(MC_CHUNK, n_real - done)
        noise = sample_noise(psi, (r, mask.size), rng)
        a = np.abs(cj[None] + np.einsum("cv,crv->rv", uj, noise[gj]))
        b = np.abs(ck[None] + np.einsum("cv,crv->rv", uk, noise[gk]))
        sa += a.sum(axis=0)
        sb += b.sum(axis=0)
        saa += (a**2).sum(axis=0)
        sbb += (b**2).sum(axis=0)
        sab += (a * b).sum(axis=0)
        done += r

    n = float(n_real)
    va = saa / n - (sa / n) ** 2
    vb = sbb / n - (sb / n) ** 2
    c = sab / n - (sa / n) * (sb / n)
    alpha, beta = wmaps.alpha.ravel(), wmaps.beta.ravel()
    cov = np.stack([alpha * va + beta * c, c])
    var = np.stack([alpha**2 * va + 2 * alpha * beta * c + beta**2 * vb, vb])
    corr = np.where((va > 0) & (var > 0), cov / np.sqrt(np.maximum(va * var, 1e-300)), 0.0)
    return tuple(float(np.mean(np.abs(x[mask.ravel()]))) for x in corr)

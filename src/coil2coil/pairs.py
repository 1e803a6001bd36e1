"""Training-pair generation: channel split, combination, noise whitening,
sensitivity bookkeeping and the Monte-Carlo check of pair noise independence.

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
    check_covariance,
    check_mask,
    check_stack,
    effective_sensitivity,
    group_grams,
    magnitude_noise_stats,
    noise_grams,
    sens_group,
)

__all__ = [
    "ChannelSplit",
    "TrainingPair",
    "split_channels",
    "whitening_coefficients",
    "make_training_pair",
    "check_slice",
    "combine_all",
    "empirical_noise_correlation",
    "empirical_noise_correlations",
]

DET_EPS = 1e-9  # relative determinant below which whitening falls back
SENS_FLOOR = 1e-3  # fraction of a group's peak gain: coverage starts here, and two-group inference floors the gain here
MC_BUDGET = 2**20  # real normals (8 MiB) the Monte-Carlo check draws at once


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


def whitening_coefficients(var_j, var_k, cov_jk):
    """Per-voxel (alpha, beta, n_fallback) of the GLS decorrelation, where
    n_fallback counts the degenerate voxels.

    Voxels with a degenerate 2x2 covariance (determinant below DET_EPS times
    v_j*v_k, or v_k = 0) fall back to pure variance matching: alpha = 0,
    beta = sqrt(v_j / v_k) when v_k > 0, else beta = 1.
    """
    det = var_j * var_k - cov_jk**2
    good = (det > DET_EPS * var_j * var_k) & (var_k > 0)
    root = np.sqrt(np.where(good, det, 1.0))
    alpha = np.where(good, -cov_jk / root, 0.0)
    beta_fb = np.sqrt(np.where(var_k > 0, var_j / np.maximum(var_k, 1e-300), 1.0))
    beta = np.where(good, var_j / root, beta_fb)
    return alpha, beta, int(np.count_nonzero(~good))


def combine_all(stack, sens):
    """Full matched-filter combination magnitude |sum_i conj(s_i) y_i|."""
    stack = check_stack(stack, sens)
    return np.abs(np.einsum("chw,chw->hw", np.conj(sens), stack))


def make_training_pair(stack, sens, psi, split, mask):
    """Build a noise-independent training pair from one acquisition: the
    whitened pair_from_checked of the arrays after check_slice."""
    stack, sens, psi, mask = check_slice(stack, sens, psi, mask)
    _check_split(split, len(stack))
    return pair_from_checked(stack, sens, psi, split, mask, True)


def _check_split(split, m):
    n = len(split.group_j) + len(split.group_k)  # a ChannelSplit covers channels 0..n-1
    if n != m:
        raise ValueError(f"split does not match channel count: {n} split, {m} in the slice")


def check_slice(stack, sens, psi, mask):
    """One acquisition's (stack, sens, psi, mask) as pair_from_checked takes
    them: a (m, H, W) stack and matching sensitivities, psi a Hermitian PSD
    (m, m) matrix as complex128, and a non-empty boolean (H, W) mask."""
    stack = check_stack(stack, sens)
    return stack, np.asarray(sens), check_covariance(psi, len(stack)), check_mask(mask, stack.shape[1:])


def pair_from_checked(stack, sens, psi, split, mask, whiten):
    """A training pair from arrays that passed check_slice, with a split of
    all m channels, checking nothing.

    The label is alpha*I_input + beta*I_label and its sensitivity map
    alpha*S_j + beta*S_k.  With whiten on, (alpha, beta) are the GLS
    coefficients of the analytically propagated noise statistics; with
    whiten off they are (0, 1), so label and map are the raw second-group
    combination and S_k bit for bit (ablation).  Each group's sensitivities
    are indexed and conjugated once, for its combination, its gain and the
    noise Grams."""
    groups = [sens_group(sens, psi, sorted(g)) for g in (split.group_j, split.group_k)]
    img_in, img_lab = (np.abs(np.einsum("chw,chw->hw", c, stack[g])) for g, c, _ in groups)
    s_j, s_k = (np.sum(np.abs(c) ** 2, axis=0) for _, c, _ in groups)
    if whiten:
        alpha, beta, n_fallback = whitening_coefficients(*magnitude_noise_stats(*group_grams(*groups)))
    else:
        alpha, beta, n_fallback = 0.0, 1.0, 0
    label = alpha * img_in + beta * img_lab
    s_label = alpha * s_j + beta * s_k
    if np.any(s_label[mask] <= 0):
        warnings.warn("degenerate pair: label sensitivity <= 0 inside mask", stacklevel=3)

    return TrainingPair(
        image_in=img_in, image_label=label, sens_in=s_j, sens_label=s_label, mask=mask,
        coverage_j=float(np.mean(s_j[mask] >= SENS_FLOOR * s_j.max())),
        coverage_k=float(np.mean(s_k[mask] >= SENS_FLOOR * s_k.max())),
        n_fallback=n_fallback,
    )


def empirical_noise_correlation(phantom, sens, psi, split, mask, n_real, rng, whiten=True):
    """Monte-Carlo check of pair noise independence: the whitened (or, with
    whiten off, raw) figure of empirical_noise_correlations."""
    return empirical_noise_correlations(phantom, sens, psi, split, mask, n_real, rng)[0 if whiten else 1]


def _combined_noise(g_jj, g_kk, g_jk, n_real, rng):
    """n_real draws of the combined noises (s_J^H n_J, s_K^H n_K) at each
    voxel of the noise_grams, as two (n_real, V) arrays.  Under sample_noise
    they are proper complex Gaussian with covariance 2 G, G = [[g_jj, g_jk],
    [conj(g_jk), g_kk]], so they are drawn as L w: L the closed-form lower
    Cholesky factor of G, w two standard complex normals (4 real normals)."""
    l11 = np.sqrt(np.maximum(g_jj, 0.0))
    l21 = np.divide(g_jk.conj(), l11, out=np.zeros_like(g_jk), where=l11 > 0)
    l22 = np.sqrt(np.maximum(g_kk - np.abs(l21) ** 2, 0.0))
    w1, w2 = rng.standard_normal((2, n_real, np.size(l11), 2)).view(np.complex128)[..., 0]
    return l11 * w1, l21 * w1 + l22 * w2


def empirical_noise_correlations(phantom, sens, psi, split, mask, n_real, rng):
    """Monte-Carlo check of pair noise independence, (whitened, raw).

    Draws n_real realizations of the two combined noises from their 2x2
    noise Grams (_combined_noise, exact, 4 normals for any m), only at the
    masked voxels and in chunks of at most MC_BUDGET real normals.  Returns
    the mean absolute per-voxel correlation over the mask between the input
    magnitude a and the whitened label alpha*a + beta*b, and between a and
    the raw label magnitude b.  Both come from one set of per-voxel sample
    moments of a and b (variances v_a, v_b and covariance c), summed shifted
    by the noise-free |c_j| and |c_k| so the one-pass sums do not cancel:
    the whitened label is linear in a and b, so its covariance with a is
    alpha*v_a + beta*c and its variance alpha^2*v_a + 2*alpha*beta*c + beta^2*v_b.
    Sample variances need n_real >= 2.
    """
    if n_real < 2:
        raise ValueError(f"the Monte-Carlo check needs n_real >= 2 realizations, got {n_real}")
    sens = np.asarray(sens)
    gj, gk = split.group_j, split.group_k
    grams = noise_grams(sens, psi, gj, gk)  # validates sens and psi, once
    _check_split(split, len(sens))
    if np.shape(phantom) != sens.shape[1:]:
        raise ValueError(f"phantom shape {np.shape(phantom)} != image shape {sens.shape[1:]}")
    alpha, beta, _ = whitening_coefficients(*magnitude_noise_stats(*grams))
    inside = np.flatnonzero(check_mask(mask, sens.shape[1:]))
    g_jj, g_kk, g_jk, alpha, beta = (x.ravel()[inside] for x in (*grams, alpha, beta))
    x_in = np.asarray(phantom).ravel()[inside]
    cj, ck = (effective_sensitivity(sens, g).ravel()[inside] * x_in for g in (gj, gk))

    moments = np.zeros((5, inside.size))  # sums of a, b, a^2, b^2 and a*b
    chunk = max(1, MC_BUDGET // (4 * inside.size))
    done = 0
    while done < n_real:
        r = min(chunk, n_real - done)
        draws = zip((cj, ck), _combined_noise(g_jj, g_kk, g_jk, r, rng))
        a, b = (np.abs(clean + e) - np.abs(clean) for clean, e in draws)
        moments += [x.sum(axis=0) for x in (a, b, a * a, b * b, a * b)]
        done += r

    ea, eb, eaa, ebb, eab = moments / n_real
    va = eaa - ea**2
    vb = ebb - eb**2
    c = eab - ea * eb
    cov = np.stack([alpha * va + beta * c, c])
    var = np.stack([alpha**2 * va + 2 * alpha * beta * c + beta**2 * vb, vb])
    corr = np.where((va > 0) & (var > 0), cov / np.sqrt(np.maximum(va * var, 1e-300)), 0.0)
    return tuple(float(np.mean(np.abs(x))) for x in corr)

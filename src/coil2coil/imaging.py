"""Coil-combination math, per-voxel noise Grams and analytic noise propagation.

Images are numpy arrays: a channel stack is complex with shape (m, H, W),
a sensitivity map is complex with the same shape, a channel noise
covariance is an (m, m) Hermitian PSD matrix (covariance per real/imaginary
axis), and a mask is boolean (H, W).  All voxelwise arithmetic is
elementwise (Hadamard).

No check here scans an array for NaN or inf: the tensor and config readers
refuse them where they enter, and simulator arrays are finite because their
covariance passed check_covariance.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "coil_combine",
    "effective_sensitivity",
    "noise_grams",
    "magnitude_noise_stats",
    "propagate_noise_stats",
    "check_stack",
    "check_mask",
    "check_covariance",
]

COV_TOL = 1e-10  # Hermitian and PSD slack of a channel covariance


def check_stack(stack, sens=None):
    """Validate the shape of a (m, H, W) channel stack and, optionally, a matching map."""
    stack = np.asarray(stack)
    if stack.ndim != 3 or stack.shape[0] < 1:
        raise ValueError(f"channel stack must be (m, H, W) with m >= 1, got {stack.shape}")
    if sens is not None and np.shape(sens) != stack.shape:
        raise ValueError(f"sensitivity shape {np.shape(sens)} != stack shape {stack.shape}")
    return stack


def check_mask(mask, shape):
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != tuple(shape):
        raise ValueError(f"mask shape {mask.shape} != image shape {tuple(shape)}")
    if not mask.any():
        raise ValueError("mask has no true voxels")
    return mask


def check_covariance(psi, m):
    """Validate an (m, m) Hermitian PSD channel covariance; returns it as complex128."""
    psi = np.asarray(psi, dtype=np.complex128)
    if m < 1 or psi.shape != (m, m):
        raise ValueError(f"covariance must be ({m}, {m}) with m >= 1, got {psi.shape}")
    if not np.allclose(psi, psi.conj().T, atol=COV_TOL):
        raise ValueError("covariance is not Hermitian")
    evals = np.linalg.eigvalsh(psi)
    scale = max(float(evals[-1]), 1.0)
    if evals[0] < -COV_TOL * scale:
        raise ValueError(f"covariance is not PSD (min eigenvalue {evals[0]:g})")
    return psi


def _check_group(group, m):
    group = sorted(set(int(i) for i in group))
    if not group:
        raise ValueError("channel group is empty")
    if group[0] < 0 or group[-1] >= m:
        raise ValueError(f"channel index out of range for m={m}: {group}")
    return group


def coil_combine(stack, sens, group):
    """Matched-filter combination sum_i conj(s_i) * y_i over a channel group.

    Returns a complex (H, W) image.
    """
    stack = check_stack(stack, sens)
    group = _check_group(group, stack.shape[0])
    return np.einsum("chw,chw->hw", np.asarray(sens)[group].conj(), stack[group])


def effective_sensitivity(sens, group):
    """Per-voxel gain sum_i |s_i|^2 of a group combination (real, >= 0)."""
    sens = np.asarray(sens)
    group = _check_group(group, sens.shape[0])
    return np.sum(np.abs(sens[group]) ** 2, axis=0)


def noise_grams(sens, psi, group_j, group_k):
    """Per-voxel noise Grams (H, W) of two disjoint group combinations
    (Roemer et al. 1990, MRM 16:192): the real g_jj = s_J^H psi s_J and
    g_kk = s_K^H psi s_K, and the complex cross Gram g_jk = s_J^H psi s_K.
    One GEMM per group G gives P_G = psi[:, G] @ S[G] on the (m, H*W)
    sensitivities S; the Grams are the channel sums of conj(S) * P over rows
    J of P_J, rows K of P_K and rows J of P_K."""
    sens = check_stack(sens)
    m = sens.shape[0]
    gj = _check_group(group_j, m)
    gk = _check_group(group_k, m)
    if set(gj) & set(gk):
        raise ValueError(f"groups overlap: {sorted(set(gj) & set(gk))}")
    psi = check_covariance(psi, m)
    return group_grams(sens_group(sens, psi, gj), sens_group(sens, psi, gk))


def sens_group(sens, psi, group):
    """(G, conj(S[G]), psi[:, G] @ S[G]) for a sorted list G of channel
    indices: a group's sensitivities indexed and conjugated once, and its GEMM."""
    s = sens[group]
    return group, s.conj(), psi[:, group] @ s.reshape(len(group), -1)


def group_grams(group_j, group_k):
    """noise_grams without checks, from two sens_group tuples of a psi that
    passed check_covariance."""
    (gj, c_j, p_j), (gk, c_k, p_k) = group_j, group_k

    def dot(c, p):  # sum over a group's rows a of conj(s_a) p_a, per voxel
        return np.einsum("av,av->v", c.reshape(len(c), -1), p).reshape(c.shape[1:])

    return dot(c_j, p_j[gj]).real, dot(c_k, p_k[gk]).real, dot(c_j, p_k[gj])


def magnitude_noise_stats(g_jj, g_kk, g_jk):
    """High-SNR (var_j, var_k, cov_jk) of two combined magnitude images from
    their noise_grams: magnitude noise is the complex noise projected on the
    shared signal phase, so these are the Grams' real parts, the variances
    clamped at 0 and cov_jk clipped to the Cauchy-Schwarz bound."""
    var_j = np.maximum(g_jj, 0.0)
    var_k = np.maximum(g_kk, 0.0)
    bound = np.sqrt(var_j * var_k)
    return var_j, var_k, np.clip(g_jk.real, -bound, bound)


def propagate_noise_stats(sens, psi, group_j, group_k):
    """Analytic per-voxel (var_j, var_k, cov_jk): magnitude_noise_stats of the noise_grams."""
    return magnitude_noise_stats(*noise_grams(sens, psi, group_j, group_k))

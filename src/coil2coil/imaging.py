"""Coil-combination math and analytic noise propagation.

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

from dataclasses import dataclass

import numpy as np

__all__ = [
    "VoxelStats",
    "coil_combine",
    "effective_sensitivity",
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


@dataclass(frozen=True)
class VoxelStats:
    """Per-voxel variance/covariance of two combined magnitude images.

    var_j, var_k are the noise variances of the two group combinations and
    cov_jk their covariance, each a real (H, W) array.
    """

    var_j: np.ndarray
    var_k: np.ndarray
    cov_jk: np.ndarray

    def __post_init__(self):
        for name in ("var_j", "var_k"):
            v = getattr(self, name)
            if np.any(v < -1e-12):
                raise ValueError(f"{name} has negative entries")
        # Cauchy-Schwarz, with slack for roundoff
        bound = self.var_j * self.var_k
        if np.any(self.cov_jk**2 > bound * (1 + 1e-9) + 1e-12):
            raise ValueError("covariance violates Cauchy-Schwarz bound")


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


def propagate_noise_stats(sens, psi, group_j, group_k):
    """Analytic per-voxel noise statistics of two combined magnitude images.

    For disjoint channel groups J and K, the magnitude-domain noise of the
    two combinations (at high SNR, where the noise is effectively the
    projection of the complex combined noise onto the shared signal phase)
    has per-voxel variance

        var_j = Re( sum_{a,b in J} conj(s_a) psi_ab s_b )

    and likewise for K, with the covariance summed over J x K.  On the
    (m, H*W) sensitivities S, one GEMM per group G gives P_G = psi[:, G] @ S[G];
    var_j, var_k and cov_jk are the channel sums of Re(conj(S) * P) over rows
    J of P_J, rows K of P_K and rows J of P_K.
    """
    sens = check_stack(sens)
    m = sens.shape[0]
    gj = _check_group(group_j, m)
    gk = _check_group(group_k, m)
    if set(gj) & set(gk):
        raise ValueError(f"groups overlap: {sorted(set(gj) & set(gk))}")
    psi = check_covariance(psi, m)

    s = sens.reshape(m, -1)
    p_j = psi[:, gj] @ s[gj]
    p_k = psi[:, gk] @ s[gk]

    def re_dot(rows, p):  # Re sum_{a in rows} conj(s_a) p_a, per voxel
        return np.einsum("av,av->v", s[rows].conj(), p[rows]).real.reshape(sens.shape[1:])

    var_j = np.maximum(re_dot(gj, p_j), 0.0)
    var_k = np.maximum(re_dot(gk, p_k), 0.0)
    cov_jk = re_dot(gj, p_k)
    # clip roundoff past the Cauchy-Schwarz bound
    bound = np.sqrt(var_j * var_k)
    cov_jk = np.clip(cov_jk, -bound, bound)
    return VoxelStats(var_j=var_j, var_k=var_k, cov_jk=cov_jk)

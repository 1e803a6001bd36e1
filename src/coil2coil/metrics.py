"""Image quality metrics (masked pSNR and SSIM) and the paired t-test."""

from __future__ import annotations

import math

import numpy as np
from scipy.ndimage import convolve1d
from scipy.special import betainc

from .imaging import check_mask

__all__ = ["psnr", "ssim", "paired_t_test"]

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03


def psnr(test, ref, mask):
    """Peak signal-to-noise ratio in dB, restricted to masked voxels.

    peak is the maximum of ref inside the mask.  Identical images return
    math.inf.
    """
    test = np.asarray(test, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    if test.shape != ref.shape:
        raise ValueError(f"shape mismatch: {test.shape} vs {ref.shape}")
    mask = check_mask(mask, ref.shape)
    peak = float(ref[mask].max())
    if peak <= 0:
        raise ValueError("reference peak inside mask is not positive")
    mse = float(np.mean((test[mask] - ref[mask]) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(peak**2 / mse)


def _blur(img, g):
    """Separable Gaussian blur: one 1-D pass per axis, reflect borders."""
    return convolve1d(convolve1d(img, g, axis=0, mode="reflect"), g, axis=1, mode="reflect")


def _local_stats(img, g):
    mu = _blur(img, g)
    mu2 = _blur(img * img, g)
    return mu, mu2 - mu * mu


def ssim(test, ref, mask):
    """Mean local SSIM over windows centered inside the mask.

    Gaussian 11x11 window (sigma 1.5), applied as two separable 11-tap
    passes; K1 = 0.01, K2 = 0.03; the dynamic range is the masked peak of
    ref, which must be positive.  Borders are handled by reflect padding so
    every window center has a full window.
    """
    test = np.asarray(test, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    if test.shape != ref.shape:
        raise ValueError(f"shape mismatch: {test.shape} vs {ref.shape}")
    mask = check_mask(mask, ref.shape)
    dynamic_range = float(ref[mask].max())
    if dynamic_range <= 0:
        raise ValueError("reference peak inside mask is not positive")
    c1 = (SSIM_K1 * dynamic_range) ** 2
    c2 = (SSIM_K2 * dynamic_range) ** 2

    r = np.arange(SSIM_WINDOW) - (SSIM_WINDOW - 1) / 2
    g = np.exp(-(r**2) / (2 * SSIM_SIGMA**2))
    g /= g.sum()  # the normalized 1-D Gaussian; the 2-D window is its outer product
    mu_t, var_t = _local_stats(test, g)
    mu_r, var_r = _local_stats(ref, g)
    cov = _blur(test * ref, g) - mu_t * mu_r

    num = (2 * mu_t * mu_r + c1) * (2 * cov + c2)
    den = (mu_t**2 + mu_r**2 + c1) * (var_t + var_r + c2)
    return float(np.mean((num / den)[mask]))


def paired_t_test(a, b):
    """Two-sided paired t-test on equal-length sequences.

    Returns (t, p) with t = mean(d) / (sd(d)/sqrt(n)) for d = a - b and p
    from the t distribution with n-1 degrees of freedom.  Every score must
    be finite.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("inputs must be 1-D sequences of equal length")
    n = a.size
    if n < 2:
        raise ValueError("paired t-test needs at least 2 pairs")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("paired t-test needs finite scores; an image equal to its reference has infinite pSNR")
    d = a - b
    sd = float(d.std(ddof=1))
    if sd == 0.0:
        raise ValueError("differences have zero variance")
    t = float(d.mean()) / (sd / math.sqrt(n))
    df = n - 1
    return t, float(betainc(df / 2.0, 0.5, df / (df + t * t)))

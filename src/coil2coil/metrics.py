"""Image quality metrics (masked pSNR and SSIM) and the paired t-test.

SciPy is imported by the first ssim or paired_t_test call, not with this
module, so importing coil2coil, building pairs and training never load it.
"""

from __future__ import annotations

import math

import numpy as np

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


def _blur(img):
    """The SSIM window: a Gaussian of SSIM_SIGMA truncated to SSIM_WINDOW taps
    per axis, reflect borders."""
    from scipy.ndimage import gaussian_filter
    return gaussian_filter(img, SSIM_SIGMA, mode="reflect", truncate=(SSIM_WINDOW // 2) / SSIM_SIGMA)


def _local_stats(img):
    mu = _blur(img)
    mu2 = _blur(img * img)
    return mu, mu2 - mu * mu


def ssim(test, ref, mask):
    """Mean local SSIM over windows centered inside the mask.

    Gaussian 11x11 window (sigma 1.5) from scipy.ndimage.gaussian_filter;
    K1 = 0.01, K2 = 0.03; the dynamic range is the masked peak of ref,
    which must be positive.  Borders are handled by reflect padding so
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
    mu_t, var_t = _local_stats(test)
    mu_r, var_r = _local_stats(ref)
    cov = _blur(test * ref) - mu_t * mu_r

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
    from scipy.special import betainc
    t = float(d.mean()) / (sd / math.sqrt(n))
    df = n - 1
    return t, float(betainc(df / 2.0, 0.5, df / (df + t * t)))

"""Image quality metrics (masked pSNR and SSIM) and the paired t-test."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.ndimage import convolve
from scipy.special import betainc

from .imaging import check_mask

__all__ = ["MetricReport", "psnr", "ssim", "paired_t_test"]

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


def _gaussian_window(size=SSIM_WINDOW, sigma=SSIM_SIGMA):
    r = np.arange(size) - (size - 1) / 2
    g = np.exp(-(r**2) / (2 * sigma**2))
    win = np.outer(g, g)
    return win / win.sum()


def _local_stats(img, win):
    mu = convolve(img, win, mode="reflect")
    mu2 = convolve(img * img, win, mode="reflect")
    return mu, mu2 - mu * mu


def ssim(test, ref, mask, dynamic_range=None):
    """Mean local SSIM over windows centered inside the mask.

    Gaussian 11x11 window (sigma 1.5), K1 = 0.01, K2 = 0.03; the dynamic
    range defaults to the masked peak of ref.  Borders are handled by
    reflect padding so every window center has a full window.
    """
    test = np.asarray(test, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    if test.shape != ref.shape:
        raise ValueError(f"shape mismatch: {test.shape} vs {ref.shape}")
    mask = check_mask(mask, ref.shape)
    if dynamic_range is None:
        dynamic_range = float(ref[mask].max())
    if dynamic_range <= 0:
        raise ValueError("dynamic range must be positive")
    c1 = (SSIM_K1 * dynamic_range) ** 2
    c2 = (SSIM_K2 * dynamic_range) ** 2

    win = _gaussian_window()
    mu_t, var_t = _local_stats(test, win)
    mu_r, var_r = _local_stats(ref, win)
    cov = convolve(test * ref, win, mode="reflect") - mu_t * mu_r

    num = (2 * mu_t * mu_r + c1) * (2 * cov + c2)
    den = (mu_t**2 + mu_r**2 + c1) * (var_t + var_r + c2)
    return float(np.mean((num / den)[mask]))


def paired_t_test(a, b):
    """Two-sided paired t-test on equal-length sequences.

    Returns (t, p) with t = mean(d) / (sd(d)/sqrt(n)) for d = a - b and p
    from the t distribution with n-1 degrees of freedom.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("inputs must be 1-D sequences of equal length")
    n = a.size
    if n < 2:
        raise ValueError("paired t-test needs at least 2 pairs")
    d = a - b
    sd = float(d.std(ddof=1))
    if sd == 0.0:
        raise ValueError("differences have zero variance")
    t = float(d.mean()) / (sd / math.sqrt(n))
    df = n - 1
    return t, float(betainc(df / 2.0, 0.5, df / (df + t * t)))


@dataclass
class MetricReport:
    """Per-image pSNR/SSIM values with mean +/- std aggregates."""

    psnr_values: list = field(default_factory=list)
    ssim_values: list = field(default_factory=list)

    def add(self, test, ref, mask, dynamic_range=None):
        self.psnr_values.append(psnr(test, ref, mask))
        self.ssim_values.append(ssim(test, ref, mask, dynamic_range))

    @staticmethod
    def _agg(values):
        arr = np.asarray(values, dtype=np.float64)
        with np.errstate(invalid="ignore"):  # mean/std of infinities is nan
            return float(arr.mean()), float(arr.std(ddof=1)) if arr.size > 1 else 0.0

    def summary(self):
        return {
            "psnr_mean": self._agg(self.psnr_values)[0],
            "psnr_std": self._agg(self.psnr_values)[1],
            "ssim_mean": self._agg(self.ssim_values)[0],
            "ssim_std": self._agg(self.ssim_values)[1],
        }

    def rows(self):
        """CSV rows: (index, psnr, ssim) per image, fixed order."""
        return [
            (i, p, s)
            for i, (p, s) in enumerate(zip(self.psnr_values, self.ssim_values))
        ]

import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from scipy.ndimage import convolve

from coil2coil.metrics import (
    SSIM_K1,
    SSIM_K2,
    SSIM_SIGMA,
    SSIM_WINDOW,
    paired_t_test,
    psnr,
    ssim,
)


def full_mask(shape):
    return np.ones(shape, bool)


class TestPsnr:
    def test_identical_is_infinite(self):
        img = np.random.default_rng(0).uniform(0.1, 1.0, (8, 8))
        assert psnr(img, img, full_mask(img.shape)) == math.inf

    def test_twenty_db_case(self):
        ref = np.full((8, 8), 0.5)
        ref[0, 0] = 1.0  # masked peak
        test = ref + 0.1  # mse = 0.01, peak^2 / mse = 100
        assert psnr(test, ref, full_mask(ref.shape)) == pytest.approx(20.0, abs=1e-12)

    def test_matches_formula(self):
        rng = np.random.default_rng(1)
        ref = rng.uniform(0.1, 2.0, (10, 10))
        test = ref + 0.05 * rng.standard_normal((10, 10))
        mask = rng.uniform(size=(10, 10)) > 0.3
        want = 10 * math.log10(
            ref[mask].max() ** 2 / np.mean((test[mask] - ref[mask]) ** 2)
        )
        assert psnr(test, ref, mask) == pytest.approx(want, rel=1e-10)

    def test_mask_restricts_region(self):
        ref = np.ones((4, 4))
        test = ref.copy()
        test[0, 0] = 5.0  # corrupted voxel outside the mask
        mask = full_mask((4, 4))
        mask[0, 0] = False
        assert psnr(test, ref, mask) == math.inf

    def test_errors(self):
        with pytest.raises(ValueError):
            psnr(np.ones((4, 4)), np.ones((4, 3)), full_mask((4, 4)))
        with pytest.raises(ValueError):
            psnr(np.ones((4, 4)), np.zeros((4, 4)), full_mask((4, 4)))

    def test_decreases_with_noise_level(self):
        rng = np.random.default_rng(2)
        ref = rng.uniform(0.5, 1.0, (16, 16))
        mask = full_mask(ref.shape)
        noise = rng.standard_normal(ref.shape)
        values = [psnr(ref + s * noise, ref, mask) for s in (0.01, 0.05, 0.2)]
        assert values[0] > values[1] > values[2]


class TestSsim:
    def test_identical_is_one(self):
        img = np.random.default_rng(3).uniform(0.1, 1.0, (16, 16))
        assert ssim(img, img, full_mask(img.shape)) == pytest.approx(1.0, abs=1e-12)

    def test_structure_inversion_is_negative(self):
        # flip around the mean: luminance is preserved but the local
        # covariance changes sign, so SSIM goes negative
        img = np.random.default_rng(4).uniform(0.1, 1.0, (16, 16))
        img[0, 0] = 1.0  # a dynamic range of 1
        flipped = 2 * img.mean() - img
        assert ssim(flipped, img, full_mask(img.shape)) < 0

    def test_constant_offset_closed_form(self):
        # constant images: variances and covariance vanish, leaving the
        # luminance term (2 mu_t mu_r + c1) / (mu_t^2 + mu_r^2 + c1); the
        # dynamic range is the reference's peak, r
        r, c = 1.0, -0.2
        ref = np.full((16, 16), r)
        test = np.full((16, 16), r + c)
        c1 = (SSIM_K1 * r) ** 2
        want = (2 * (r + c) * r + c1) / ((r + c) ** 2 + r**2 + c1)
        got = ssim(test, ref, full_mask(ref.shape))
        assert got == pytest.approx(want, rel=1e-12)

    def test_matches_loop_oracle(self):
        # independent implementation: symmetric padding + explicit windows
        rng = np.random.default_rng(5)
        ref = rng.uniform(0.2, 1.0, (12, 12))
        test = ref + 0.1 * rng.standard_normal((12, 12))
        mask = rng.uniform(size=(12, 12)) > 0.4
        dr = float(ref[mask].max())
        c1, c2 = (SSIM_K1 * dr) ** 2, (SSIM_K2 * dr) ** 2

        half = (SSIM_WINDOW - 1) // 2
        r = np.arange(SSIM_WINDOW) - half
        g = np.exp(-(r**2) / (2 * SSIM_SIGMA**2))
        win = np.outer(g, g)
        win /= win.sum()
        tp = np.pad(test, half, mode="symmetric")
        rp = np.pad(ref, half, mode="symmetric")
        vals = []
        for i in range(12):
            for j in range(12):
                if not mask[i, j]:
                    continue
                wt = tp[i : i + SSIM_WINDOW, j : j + SSIM_WINDOW]
                wr = rp[i : i + SSIM_WINDOW, j : j + SSIM_WINDOW]
                mt, mr = np.sum(win * wt), np.sum(win * wr)
                vt = np.sum(win * wt * wt) - mt * mt
                vr = np.sum(win * wr * wr) - mr * mr
                cov = np.sum(win * wt * wr) - mt * mr
                vals.append(
                    (2 * mt * mr + c1) * (2 * cov + c2)
                    / ((mt**2 + mr**2 + c1) * (vt + vr + c2))
                )
        assert ssim(test, ref, mask) == pytest.approx(np.mean(vals), rel=1e-10)

    def test_matches_2d_window_oracle(self):
        # the separable blur against the 121-tap 2-D window it factors
        rng = np.random.default_rng(7)
        ref = rng.uniform(0.2, 1.0, (40, 33))
        test = ref + 0.1 * rng.standard_normal(ref.shape)
        mask = rng.uniform(size=ref.shape) > 0.3
        dr = float(ref[mask].max())
        c1, c2 = (SSIM_K1 * dr) ** 2, (SSIM_K2 * dr) ** 2

        r = np.arange(SSIM_WINDOW) - (SSIM_WINDOW - 1) / 2
        g = np.exp(-(r**2) / (2 * SSIM_SIGMA**2))
        win = np.outer(g, g)
        win /= win.sum()

        def blur(a):
            return convolve(a, win, mode="reflect")

        mt, mr = blur(test), blur(ref)
        vt, vr = blur(test * test) - mt * mt, blur(ref * ref) - mr * mr
        cov = blur(test * ref) - mt * mr
        num = (2 * mt * mr + c1) * (2 * cov + c2)
        den = (mt**2 + mr**2 + c1) * (vt + vr + c2)
        assert ssim(test, ref, mask) == pytest.approx(np.mean((num / den)[mask]), rel=1e-12)

    def test_symmetric_with_fixed_range(self):
        rng = np.random.default_rng(6)
        a = rng.uniform(0.2, 1.0, (16, 16))
        b = rng.uniform(0.2, 1.0, (16, 16))
        a[0, 0] = b[-1, -1] = 1.0  # either way round, a dynamic range of 1
        mask = full_mask((16, 16))
        assert ssim(a, b, mask) == pytest.approx(ssim(b, a, mask), rel=1e-12)

    def test_bad_dynamic_range(self):
        # the reference's peak inside the mask is the range: a brighter voxel
        # outside the mask does not count
        mask = full_mask((8, 8))
        mask[0, 0] = False
        for peak in (0.0, -1.0):
            ref = np.full((8, 8), peak)
            ref[0, 0] = 1.0
            with pytest.raises(ValueError, match="not positive"):
                ssim(np.ones((8, 8)), ref, mask)


class TestPairedTTest:
    def test_symmetric_differences(self):
        t, p = paired_t_test([1.0, 3.0], [2.0, 2.0])  # d = (-1, +1)
        assert t == pytest.approx(0.0, abs=1e-15)
        assert p == pytest.approx(1.0, abs=1e-12)

    def test_matches_scipy(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal(10) + 0.4
        b = rng.standard_normal(10)
        t, p = paired_t_test(a, b)
        ref = scipy.stats.ttest_rel(a, b)
        assert t == pytest.approx(ref.statistic, abs=1e-10)
        assert p == pytest.approx(ref.pvalue, abs=1e-8)

    def test_antisymmetric(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal(12) + 1.0
        b = rng.standard_normal(12)
        t_ab, p_ab = paired_t_test(a, b)
        t_ba, p_ba = paired_t_test(b, a)
        assert t_ab == pytest.approx(-t_ba, rel=1e-12)
        assert p_ab == pytest.approx(p_ba, rel=1e-12)

    def test_errors(self):
        with pytest.raises(ValueError):
            paired_t_test([1.0], [2.0])
        with pytest.raises(ValueError):
            paired_t_test([1.0, 2.0], [0.5, 1.5])  # zero-variance differences
        with pytest.raises(ValueError):
            paired_t_test([1.0, 2.0], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_scores_are_refused(self, bad):
        # an image equal to its reference scores inf pSNR; the differences
        # would then hold inf and their std nan
        with pytest.raises(ValueError, match="finite"):
            paired_t_test([20.0, bad, 22.0], [19.0, 21.0, 20.5])
        with pytest.raises(ValueError, match="finite"):
            paired_t_test([19.0, 21.0, 20.5], [20.0, 22.0, bad])



def test_scipy_is_loaded_on_the_first_ssim_and_t_test_call():
    # a fresh interpreter, as this session has imported scipy.stats already:
    # importing the package and its CLI loads neither SciPy module, the
    # first paired_t_test loads scipy.special and the first ssim
    # scipy.ndimage, and both return the figures pinned above
    script = textwrap.dedent(
        """
        import json, sys
        import numpy as np
        import coil2coil, coil2coil.cli
        from coil2coil.metrics import paired_t_test, ssim

        def loaded():
            return [name in sys.modules for name in ("scipy.special", "scipy.ndimage")]

        seen = [loaded()]
        t, p = paired_t_test([1.0, 3.0], [2.0, 2.0])
        seen.append(loaded())
        ref = np.full((16, 16), 1.0)
        s = ssim(ref - 0.2, ref, np.ones((16, 16), bool))
        seen.append(loaded())
        print(json.dumps({"seen": seen, "t": t, "p": p, "ssim": s}))
        """
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    got = json.loads(run.stdout)
    assert got["seen"] == [[False, False], [True, False], [True, True]]
    assert got["t"] == pytest.approx(0.0, abs=1e-15) and got["p"] == pytest.approx(1.0, abs=1e-12)
    c1 = (SSIM_K1 * 1.0) ** 2
    assert got["ssim"] == pytest.approx((2 * 0.8 + c1) / (0.8**2 + 1.0 + c1), rel=1e-12)

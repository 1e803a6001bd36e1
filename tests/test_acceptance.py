"""End-to-end acceptance suite.

Each test verifies one release criterion at a pinned tolerance and emits a
single PASS/FAIL line on the real stdout (bypassing pytest capture) so the
full checklist is visible in any run log.

The denoising criteria share one desk-scale study: 200 simulated 32x32
slices, an 8-channel ring array, noise level 1.0, and a depth-6/16-feature
network trained for 30 epochs in each supervision mode.
"""

import sys

import numpy as np
import pytest
import scipy.stats

from coil2coil.config import load_config
from coil2coil.datasets import simulate_dataset
from coil2coil.imaging import propagate_noise_stats
from coil2coil.metrics import paired_t_test, psnr, ssim
from coil2coil.network import NetworkConfig, gradient_check
from coil2coil.pairs import (
    ChannelSplit,
    combine_all,
    empirical_noise_correlations,
    make_training_pair,
    whitening_coefficients,
)
from coil2coil.simulate import (
    CoilSpec,
    NoiseSpec,
    make_mask,
    make_noise_covariance,
    make_phantom,
    make_sensitivities,
    random_phantom_spec,
)
from coil2coil.train import (
    TrainConfig,
    c2c_loss,
    denoise,
    denoise_two_group_average,
    train,
    validate,
)

# Desk-scale study settings (shared by the training-based criteria)
N_SLICES = 200
VAL_SLICES = 24
VAL_SEED = 99
EPOCHS = 30
BASE_LR = 1e-3  # desk-scale rate; the small network needs it to converge in 30 epochs
NET = NetworkConfig(depth=6, features=16, kernel_size=3)


@pytest.fixture
def report(capsys):
    """Emit one PASS/FAIL line per criterion on the uncaptured stdout."""

    def _report(name, ok, detail):
        line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
        with capsys.disabled():
            sys.stdout.write(line + "\n")
            sys.stdout.flush()
        assert ok, line

    return _report


@pytest.fixture(scope="module")
def study():
    """Train all four desk-scale models once and collect validation pSNRs."""
    cfg = load_config(None)
    slices = simulate_dataset(cfg, N_SLICES, seed=0, with_second=True)
    val = simulate_dataset(cfg, VAL_SLICES, seed=VAL_SEED)

    def run(mode, normalize=True):
        tc = TrainConfig(
            epochs=EPOCHS, batch_size=8, base_lr=BASE_LR, mode=mode,
            normalize=normalize, seed=0,
        )
        params, _, _ = train(slices, NET, tc)
        return params, validate(params, val)

    models, scores = {}, {}
    models["C2C"], scores["C2C"] = run("C2C")
    models["N2N"], scores["N2N"] = run("N2N")
    models["N2CL"], scores["N2CL"] = run("N2CL")
    models["C2C_unnorm"], scores["C2C_unnorm"] = run("C2C", normalize=False)
    scores["input"] = float(np.mean(
        [psnr(combine_all(s.stack, s.sens), s.clean, s.mask) for s in val]
    ))
    return {"cfg": cfg, "val": val, "models": models, "scores": scores}


def whitening_scene():
    """4-channel 32x32 acquisition with channel correlations up to 0.2."""
    rng = np.random.default_rng(42)
    phantom = make_phantom(random_phantom_spec(32, rng))
    mask = make_mask(phantom)
    sens = make_sensitivities(CoilSpec.ring(4, phases=(0, 0, 0, 0)), phantom.shape)
    psi = make_noise_covariance(
        sens, phantom, mask, NoiseSpec(sigma=0.2, rho_min=0.0, rho_max=0.2),
        np.random.default_rng(5),
    )
    split = ChannelSplit((0, 1), (2, 3))
    return phantom, sens, psi, mask, split


class TestPairGeneration:
    def test_whitening_independence(self, report):
        phantom, sens, psi, mask, split = whitening_scene()
        white, raw = empirical_noise_correlations(
            phantom, sens, psi, split, mask, 100_000, np.random.default_rng(1)
        )
        report(
            "whitening independence",
            white < 0.01 and raw > 0.05,
            f"mean |corr| whitened {white:.4f} (< 0.01), raw {raw:.4f} (> 0.05)",
        )

    def test_variance_preservation(self, report):
        phantom, sens, psi, mask, split = whitening_scene()
        stats = propagate_noise_stats(sens, psi, split.group_j, split.group_k)
        w = whitening_coefficients(stats)
        vj, vk, c = stats.var_j, stats.var_k, stats.cov_jk
        good = (vj * vk - c**2 > 1e-9 * vj * vk) & (vk > 0) & mask
        preserved = w.alpha**2 * vj + w.beta**2 * vk + 2 * w.alpha * w.beta * c
        rel = np.abs(preserved[good] - vj[good]) / vj[good]
        worst = float(rel.max())
        report(
            "variance preservation",
            worst < 1e-10,
            f"worst relative error {worst:.2e} (< 1e-10) over {int(good.sum())} voxels",
        )

    def test_noise_free_consistency(self, report):
        phantom, sens, psi, mask, split = whitening_scene()
        clean_stack = sens * phantom[None]
        pair = make_training_pair(clean_stack, sens, psi, split, mask, whiten=True)
        usable = mask & (pair.sens_label > 0)
        rescaled = pair.sens_in * pair.image_label / pair.sens_label
        rel = np.abs(rescaled[usable] - pair.image_in[usable]) / np.abs(pair.image_in[usable])
        worst = float(rel.max())
        report(
            "noise-free consistency",
            worst < 1e-10,
            f"worst relative error {worst:.2e} (< 1e-10)",
        )


class TestGradients:
    def test_gradient_correctness(self, report):
        err = gradient_check(rng=np.random.default_rng(0))
        # finite-difference check of the training loss in its prediction
        rng = np.random.default_rng(1)
        phantom, sens, psi, mask, split = whitening_scene()
        stack = sens * phantom[None] + 0.05 * rng.standard_normal(sens.shape)
        pair = make_training_pair(stack, sens, psi, split, mask)
        pred = rng.uniform(0.5, 1.5, phantom.shape)
        _, grad = c2c_loss(pred, pair)
        h = 1e-5
        loss_err = 0.0
        for r, c in [(8, 8), (16, 16), (20, 10), (5, 25)]:
            pp, pm = pred.copy(), pred.copy()
            pp[r, c] += h
            pm[r, c] -= h
            num = (c2c_loss(pp, pair)[0] - c2c_loss(pm, pair)[0]) / (2 * h)
            denom = max(abs(num), abs(grad[r, c]), 1e-8)
            loss_err = max(loss_err, abs(num - grad[r, c]) / denom)
        worst = max(err, loss_err)
        report(
            "gradient correctness",
            worst <= 1e-4,
            f"network {err:.2e}, loss {loss_err:.2e} (max <= 1e-4)",
        )


class TestDeskScaleDenoising:
    def test_denoising_gains(self, study, report):
        s = study["scores"]
        ok = (
            s["C2C"] >= s["input"] + 3.0
            and abs(s["C2C"] - s["N2CL"]) <= 1.5
            and s["N2CL"] >= s["C2C"] - 0.5
        )
        report(
            "desk-scale denoising",
            ok,
            f"input {s['input']:.2f} dB, C2C {s['C2C']:.2f} (>= input+3), "
            f"N2N {s['N2N']:.2f}, N2CL {s['N2CL']:.2f} "
            f"(|C2C-N2CL| {abs(s['C2C'] - s['N2CL']):.2f} <= 1.5, N2CL >= C2C-0.5)",
        )

    def test_noise_level_robustness(self, study, report):
        params = study["models"]["C2C"]
        cfg = study["cfg"]
        details, ok = [], True
        for sigma in (0.5, 1.0, 1.5):
            noisy_cfg = {**cfg, "noise": {**cfg["noise"], "sigma": sigma}}
            val = simulate_dataset(noisy_cfg, VAL_SLICES, seed=VAL_SEED)
            noisy = float(np.mean(
                [psnr(combine_all(s.stack, s.sens), s.clean, s.mask) for s in val]
            ))
            den = validate(params, val)
            ok = ok and den > noisy
            details.append(f"sigma {sigma}: {noisy:.2f} -> {den:.2f} dB")
        report("noise-level robustness", ok, "; ".join(details) + " (all improved)")

    def test_normalization_ablation(self, study, report):
        s = study["scores"]
        gap = s["C2C"] - s["C2C_unnorm"]
        report(
            "normalization ablation",
            gap >= 2.0,
            f"C2C {s['C2C']:.2f} dB vs unnormalized {s['C2C_unnorm']:.2f} dB "
            f"(gap {gap:.2f} >= 2)",
        )

    def test_two_group_inference_variant(self, study, report):
        params = study["models"]["C2C"]
        rng = np.random.default_rng(7)
        vals = []
        for s in study["val"]:
            out = denoise_two_group_average(params, s.stack, s.sens, rng, mask=s.mask)
            vals.append(psnr(out, s.clean, s.mask))
        two = float(np.mean(vals))
        primary = study["scores"]["C2C"]
        gap = primary - two
        report(
            "two-group inference variant",
            -0.2 <= gap <= 1.5,
            f"primary {primary:.2f} dB, two-group {two:.2f} dB "
            f"(drop {gap:.2f} in [-0.2, 1.5])",
        )


class TestMetricOracles:
    def test_metric_oracles(self, report):
        rng = np.random.default_rng(3)
        ref = rng.uniform(0.2, 1.0, (16, 16))
        test = ref + 0.05 * rng.standard_normal((16, 16))
        mask = np.ones((16, 16), bool)
        want_psnr = 10 * np.log10(
            ref[mask].max() ** 2 / np.mean((test[mask] - ref[mask]) ** 2)
        )
        psnr_ok = abs(psnr(test, ref, mask) - want_psnr) < 1e-10

        ssim_self_ok = abs(ssim(ref, ref, mask) - 1.0) < 1e-12

        a = rng.standard_normal(10) + 0.4
        b = rng.standard_normal(10)
        t, p = paired_t_test(a, b)
        sp = scipy.stats.ttest_rel(a, b)
        ttest_ok = abs(t - sp.statistic) < 1e-10 and abs(p - sp.pvalue) < 1e-8

        report(
            "metric oracles",
            psnr_ok and ssim_self_ok and ttest_ok,
            f"pSNR formula ok={psnr_ok}, SSIM(self)=1 ok={ssim_self_ok}, "
            f"t-test vs scipy ok={ttest_ok}",
        )


class TestDeterminism:
    def test_cli_determinism(self, tmp_path, report):
        from coil2coil.cli import cli_main

        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "[phantom]\ngrid_size = 16\n[coils]\nchannels = 4\n"
            "[network]\ndepth = 3\nfeatures = 4\n"
            "[training]\nepochs = 2\nbatch_size = 4\nslices = 4\nval_slices = 0\n"
        )

        def run_twice(argv_fn):
            trees = []
            for tag in ("a", "b"):
                out = tmp_path / f"{argv_fn.__name__}_{tag}"
                assert cli_main(argv_fn(out)) == 0
                tree = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
                tree.pop("timing.txt", None)  # wall times are not deterministic
                trees.append(tree)
            return trees[0] == trees[1]

        def simulate(out):
            return ["simulate", "--config", str(cfg), "--out", str(out), "--seed", "3"]

        def pairgen(out):
            return ["pairgen", "--config", str(cfg), "--out", str(out),
                    "--seed", "2", "--realizations", "500"]

        def train_cmd(out):
            return ["train", "--config", str(cfg), "--out", str(out), "--seed", "1"]

        results = {f.__name__: run_twice(f) for f in (simulate, pairgen, train_cmd)}
        report(
            "determinism",
            all(results.values()),
            "bit-identical outputs for " + ", ".join(results),
        )

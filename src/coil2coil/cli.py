"""Command-line entry points.

Subcommands: simulate, pairgen, train, denoise, eval, gradcheck.
Exit codes: 0 success, 1 usage error, 2 data/validation error,
3 gradient-check threshold failure.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from . import datasets, network, tensorio
from .config import ConfigError, load_config
from .metrics import paired_t_test, psnr, ssim
from .pairs import empirical_noise_correlations, make_training_pair, split_channels
from .train import MODES, TrainConfig, denoise, denoise_image, train

GRADCHECK_TOL = 1e-4


def _build_parser():
    parser = argparse.ArgumentParser(prog="c2c", description="Self-supervised phased-array denoising")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, config=True):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", type=Path, required=True, help="output directory")
        if config:
            p.add_argument("--config", type=Path, default=None, help="run config file")

    p = sub.add_parser("simulate", help="emit phantom, sensitivities, covariance, noisy stack")
    add_common(p)
    p.add_argument("--sigma", type=float, default=None, help="override noise level")

    p = sub.add_parser("pairgen", help="emit a training pair plus whitening diagnostics")
    add_common(p)
    p.add_argument("--no-whiten", action="store_true")
    p.add_argument("--realizations", type=int, default=2000, help="Monte-Carlo size for the diagnostic")

    p = sub.add_parser("train", help="train a denoiser on a simulated dataset")
    add_common(p)

    p = sub.add_parser("denoise", help="denoise a stack or a pre-combined image")
    add_common(p, config=False)
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--stack", type=Path, default=None)
    p.add_argument("--sens", type=Path, default=None)
    p.add_argument("--image", type=Path, default=None, help="pre-combined magnitude image")
    p.add_argument("--mask", type=Path, default=None)

    p = sub.add_parser("eval", help="pSNR/SSIM report and paired t-test")
    add_common(p, config=False)
    p.add_argument("--ref", type=Path, required=True)
    p.add_argument("--mask", type=Path, required=True)
    p.add_argument("--images", type=str, required=True, help="comma-separated test image tensors")
    p.add_argument("--images-b", type=str, default=None, help="second image set for the paired t-test")

    p = sub.add_parser("gradcheck", help="verify gradients against finite differences")
    p.add_argument("--seed", type=int, default=0)
    return parser


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{v:.12g}" if isinstance(v, float) else v for v in row])


def _read_real(path):
    """A real image tensor as float64; a complex one is refused, not cast."""
    arr = tensorio.read_tensor(path)
    if np.iscomplexobj(arr):
        raise ValueError(f"{path}: expected a real image, got a complex tensor")
    return arr.astype(np.float64)


def _read_mask(path):
    """A bool mask tensor; a float or complex one is refused, not cast."""
    arr = tensorio.read_tensor(path)
    if arr.dtype != np.bool_:
        raise ValueError(f"{path}: expected a bool mask, got a {arr.dtype} tensor")
    return arr


def _cmd_simulate(args):
    cfg = load_config(args.config)
    if args.sigma is not None:
        cfg["noise"]["sigma"] = args.sigma
    data = datasets.simulate_slice(cfg, np.random.default_rng(args.seed))
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    tensorio.write_tensor(out / "phantom.c2t", data.phantom)
    tensorio.write_tensor(out / "sens.c2t", data.sens)
    tensorio.write_tensor(out / "psi.c2t", data.psi)
    tensorio.write_tensor(out / "mask.c2t", data.mask)
    tensorio.write_tensor(out / "stack.c2t", data.stack)
    tensorio.write_tensor(out / "clean_stack.c2t", data.sens * data.phantom[None])
    tensorio.write_tensor(out / "clean.c2t", data.clean)
    print(f"simulate: wrote {data.stack.shape[0]}-channel {data.stack.shape[1]}x{data.stack.shape[2]} acquisition to {out}")
    return 0


def _cmd_pairgen(args):
    cfg = load_config(args.config)
    rng = np.random.default_rng(args.seed)
    data = datasets.simulate_slice(cfg, rng)
    split = split_channels(data.stack.shape[0], rng)
    whiten = not args.no_whiten
    pair = make_training_pair(data.stack, data.sens, data.psi, split, data.mask, whiten=whiten)
    # before any file is written, so a refused --realizations leaves none
    corr_on, corr_off = empirical_noise_correlations(
        data.phantom, data.sens, data.psi, split, data.mask, args.realizations,
        np.random.default_rng(args.seed + 1),
    )
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    tensorio.write_tensor(out / "input.c2t", pair.image_in)
    tensorio.write_tensor(out / "label.c2t", pair.image_label)
    tensorio.write_tensor(out / "sens_in.c2t", pair.sens_in)
    tensorio.write_tensor(out / "sens_label.c2t", pair.sens_label)
    tensorio.write_tensor(out / "mask.c2t", pair.mask)
    _write_csv(
        out / "diagnostics.csv",
        ["metric", "value"],
        [
            ("noise_correlation_whitened", corr_on),
            ("noise_correlation_raw", corr_off),
            ("fallback_voxels", pair.n_fallback),
            ("coverage_j", pair.coverage_j),
            ("coverage_k", pair.coverage_k),
        ],
    )
    print(f"pairgen: correlation whitened={corr_on:.4f} raw={corr_off:.4f}")
    return 0


def _cmd_train(args):
    cfg = load_config(args.config)
    t = dict(cfg["training"])
    n_slices, n_val = t.pop("slices"), t.pop("val_slices")
    net_config = network.NetworkConfig(**cfg["network"])
    train_config = TrainConfig(**t, seed=args.seed)
    slices = datasets.simulate_dataset(cfg, n_slices, args.seed, with_second=MODES[train_config.mode][1] == "stack_b")
    # validation draws from its own seed, so skipping it leaves training unchanged
    val = datasets.simulate_dataset(cfg, n_val, args.seed + 10_000) if n_val else None
    params, log, _ = train(slices, net_config, train_config, val_slices=val)
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    tensorio.save_checkpoint(out / "checkpoint.c2k", params)
    _write_csv(out / "trainlog.csv", ["epoch", "loss", "lr", "val_psnr"], log.rows())
    # wall times are inherently nondeterministic, so they live outside the CSV
    with open(out / "timing.txt", "w") as f:
        for e, wt in enumerate(log.wall_times):
            f.write(f"epoch {e}: {wt:.3f} s\n")
    print(f"train: {train_config.mode}, final loss {log.losses[-1]:.6g}, checkpoint in {out}")
    return 0


def _cmd_denoise(args):
    params = tensorio.load_checkpoint(args.checkpoint)
    mask = _read_mask(args.mask) if args.mask else None
    if args.image is not None:
        result = denoise_image(params, _read_real(args.image), mask=mask)
    elif args.stack is not None and args.sens is not None:
        result = denoise(params, tensorio.read_tensor(args.stack), tensorio.read_tensor(args.sens), mask=mask)
    else:
        print("denoise: need either --image or both --stack and --sens", file=sys.stderr)
        return 1
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    tensorio.write_tensor(out / "denoised.c2t", result)
    tensorio.write_pgm(out / "denoised.pgm", result, mask=mask)
    print(f"denoise: wrote {out / 'denoised.c2t'}")
    return 0


def _mean_std(values):
    """Mean and sample std (0 for one value) of per-image scores."""
    arr = np.asarray(values, dtype=np.float64)
    with np.errstate(invalid="ignore"):  # mean/std of infinities is nan
        return float(arr.mean()), float(arr.std(ddof=1)) if arr.size > 1 else 0.0


def _cmd_eval(args):
    ref = _read_real(args.ref)
    mask = _read_mask(args.mask)
    sets = {"a": args.images} | ({"b": args.images_b} if args.images_b else {})
    scores = {}  # set -> (pSNRs, SSIMs), one value per image
    for name, paths in sets.items():
        images = (_read_real(Path(p)) for p in paths.split(","))
        scores[name] = tuple(zip(*[(psnr(img, ref, mask), ssim(img, ref, mask)) for img in images]))
    rows = [(name, i, p, s) for name, (ps, ss) in scores.items() for i, (p, s) in enumerate(zip(ps, ss))]
    # empty without --images-b; run before any file is written, so a refused test leaves none
    t_rows = [(m, *paired_t_test(a, b)) for m, a, b in zip(("psnr", "ssim"), scores["a"], scores.get("b", ()))]
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "metrics.csv", ["set", "index", "psnr_db", "ssim"], rows)
    if t_rows:
        _write_csv(out / "ttest.csv", ["metric", "t", "p"], t_rows)
    (p_mean, p_std), (s_mean, s_std) = (_mean_std(v) for v in scores["a"])
    print(f"eval: pSNR {p_mean:.2f} +/- {p_std:.2f} dB, SSIM {s_mean:.4f} +/- {s_std:.4f}")
    return 0


def _cmd_gradcheck(args):
    err = network.gradient_check(rng=np.random.default_rng(args.seed))
    print(f"gradcheck: max relative error {err:.3e} (tolerance {GRADCHECK_TOL:.0e})")
    return 0 if err <= GRADCHECK_TOL else 3


_COMMANDS = {
    "simulate": _cmd_simulate,
    "pairgen": _cmd_pairgen,
    "train": _cmd_train,
    "denoise": _cmd_denoise,
    "eval": _cmd_eval,
    "gradcheck": _cmd_gradcheck,
}


def cli_main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(cli_main())


if __name__ == "__main__":
    main()

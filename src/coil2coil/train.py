"""Training loop, the sensitivity-weighted loss, and the inference paths.

Five supervision modes, one MODES entry each:
  C2C  -- self-supervised pairs from coil subgroups, regenerated with a
          fresh random split every epoch; its ablations C2C-unwhitened
          (the raw second-group label) and C2C-unnormalized (unit maps);
  N2N  -- two independent noisy full combinations of the same image;
  N2CL -- noisy full combination vs the clean combined magnitude.

The C2C loss weights prediction and label by the pair's sensitivity maps
so both sides share one noise-free image; N2N, N2CL and C2C-unnormalized
pairs carry unit maps, so it is their masked MSE.

Inference (denoise) denoises the full matched-filter combination; the
two-group variant runs denoise on each half of a split and needs the mask.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields, replace
from functools import partial

import numpy as np

from . import network as net
from .imaging import check_mask, check_stack
from .metrics import psnr
from .pairs import SENS_FLOOR, TrainingPair, check_slice, combine_all, pair_from_checked, split_channels
from .pairs import make_training_pair  # noqa: F401  unused here; perfbench's tests wrap this binding
from .simulate import make_mask

__all__ = [
    "TrainConfig",
    "TrainLog",
    "c2c_loss",
    "train",
    "denoise",
    "denoise_image",
    "denoise_two_group_average",
]

SPLIT_CANDIDATES = 8  # random splits scored by two-group inference


@dataclass(frozen=True)
class TrainConfig:
    """The settings that decide the weights; validation is not one of them:
    train validates after every epoch exactly when given validation slices."""
    epochs: int = 30
    batch_size: int = 8
    base_lr: float = 1e-4
    mode: str = "C2C"
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if not 0 < self.base_lr < np.inf:
            raise ValueError(f"base_lr must be finite and > 0, got {self.base_lr}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {tuple(MODES)}, got {self.mode!r}")


@dataclass
class TrainLog:
    losses: list = field(default_factory=list)  # per-epoch mean batch loss
    lrs: list = field(default_factory=list)
    wall_times: list = field(default_factory=list)
    val_psnrs: list = field(default_factory=list)  # nan when not evaluated

    def rows(self):
        """Deterministic CSV rows (wall time deliberately excluded)."""
        return [
            (e, self.losses[e], self.lrs[e], self.val_psnrs[e])
            for e in range(len(self.losses))
        ]


def c2c_loss(pred, pair: TrainingPair):
    """Sensitivity-weighted masked L2 loss and its gradient in pred.

    For one pair, loss = mean_{mask} (S_label * pred - S_in * label)^2; for a
    pair with unit maps it is the masked MSE.  pred and the pair's arrays
    are (H, W) for one pair or (N, H, W) for a batch: each pair's masked
    mean is taken over the last two axes, the loss is their mean over the
    batch (summed in batch order), and grad is its gradient.
    """
    mask = pair.mask
    n = np.count_nonzero(mask, axis=(-2, -1))
    if np.any(n == 0):
        raise ValueError("empty mask in loss")
    resid = np.where(mask, pair.sens_label * pred - pair.sens_in * pair.image_label, 0.0)
    losses = np.atleast_1d(np.sum(resid**2, axis=(-2, -1)) / n)
    grad = 2.0 * pair.sens_label * resid / n[..., None, None] / len(losses)
    return sum(losses.tolist()) / len(losses), grad


def _input_scale(image, mask=None):
    """Intensity scale of a network input: std over masked voxels.  Without
    a mask, make_mask derives one from the image; an all-zero image has scale 1."""
    img = np.asarray(image)
    if mask is None:
        if not img.any():
            return 1.0
        mask = make_mask(img)
    s = float(img[np.asarray(mask, dtype=bool)].std())
    return s if s > 0 else 1.0


def _c2c(data, rng, whiten, normalize):
    """A C2C pair from a fresh random split of the slice's channels, and the split."""
    split = split_channels(data.stack.shape[0], rng)
    p = pair_from_checked(data.stack, data.sens, data.psi, split, data.mask, whiten)
    if not normalize:
        p = replace(p, sens_in=np.ones(data.mask.shape), sens_label=np.ones(data.mask.shape))
    return p, split


def _versus_full_combination(data, label):
    """The slice's full combination paired with label, both maps unit; no split."""
    ones = np.ones(data.mask.shape)
    return TrainingPair(combine_all(data.stack, data.sens), label, ones, ones, data.mask), None


# mode -> (builder(slice, rng) -> (TrainingPair, split or None), the SliceData field it needs or None)
MODES = {
    "C2C": (partial(_c2c, whiten=True, normalize=True), None),
    "C2C-unwhitened": (partial(_c2c, whiten=False, normalize=True), None),
    "C2C-unnormalized": (partial(_c2c, whiten=True, normalize=False), None),
    "N2N": (lambda data, rng: _versus_full_combination(data, combine_all(data.stack_b, data.sens)), "stack_b"),
    "N2CL": (lambda data, rng: _versus_full_combination(data, data.clean), "clean"),
}


def _epoch_pairs(slices, config, rng, out=None):
    """One epoch's pairs from the mode's builder, stacked as one TrainingPair
    (arrays (N, H, W), coverages and fallback counts (N,)), and the C2C
    splits drawn, from slices that passed train's checks.  Each pair's rows
    are written into out, the previous epoch's stack refilled in place (fresh,
    with the first pair's dtypes, when None), and out is returned.  Each
    pair's input and label are divided by the input's scale, so the network
    input has unit masked std and the loss minimizer is unchanged; inference
    applies the same rule to its own input.
    """
    build = MODES[config.mode][0]
    splits = []
    for i, data in enumerate(slices):
        p, split = build(data, rng)
        splits.append(split)
        if out is None:
            vals = (np.asarray(getattr(p, f.name)) for f in fields(TrainingPair))
            out = TrainingPair(*(np.empty((len(slices),) + v.shape, v.dtype) for v in vals))
        s = _input_scale(p.image_in, p.mask)
        np.divide(p.image_in, s, out=out.image_in[i])
        np.divide(p.image_label, s, out=out.image_label[i])
        for f in fields(TrainingPair)[2:]:
            getattr(out, f.name)[i] = getattr(p, f.name)
    return out, [split for split in splits if split is not None]


def train(slices, net_config, config, val_slices=None):
    """Train a denoiser; returns (params, log, splits_seen).

    slices is a sequence of SliceData with identical image shapes.  Every
    network input is scale-normalized to unit masked std (the label is
    scaled with it).  Each epoch refills one stack of (N, H, W) pair arrays
    in place; a step takes a batch of them by index (a copy) and makes one
    forward, one c2c_loss over the batch, one backward and one Adam step.
    Given val_slices, every epoch ends with validate (pSNR in original units;
    it touches neither the parameters nor the rng); else val_psnrs is nan.
    """
    if not slices:
        raise ValueError("empty training dataset")
    needs = MODES[config.mode][1]
    checked = []
    for data in slices:  # once here, so the per-epoch pairs check nothing
        if needs and getattr(data, needs) is None:
            raise ValueError(f"{config.mode} mode needs each slice's {needs}")
        stack, sens, psi, mask = check_slice(data.stack, data.sens, data.psi, data.mask)
        checked.append(replace(data, stack=stack, sens=sens, psi=psi, mask=mask))
    rng = np.random.default_rng(config.seed)
    params = net.init_network(net_config, rng)
    state = net.AdamState.for_params(params)
    log = TrainLog()
    splits_seen = []

    n, pairs = len(slices), None
    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        lr = net.lr_schedule(epoch, config.base_lr)
        pairs, splits = _epoch_pairs(checked, config, rng, pairs)
        splits_seen.extend(splits)
        order = rng.permutation(n)
        epoch_losses = []
        for start in range(0, n, config.batch_size):
            batch = pairs[order[start : start + config.batch_size]]
            out, cache = net.forward(params, batch.image_in, train=True)
            batch_loss, grads_out = c2c_loss(out, batch)
            grads = net.backward(params, cache, grads_out)
            net.adam_step(params, grads, state, lr)
            epoch_losses.append(batch_loss)
        log.losses.append(float(np.mean(epoch_losses)))
        log.lrs.append(lr)
        log.wall_times.append(time.perf_counter() - t0)
        log.val_psnrs.append(validate(params, val_slices) if val_slices else float("nan"))
    return params, log, splits_seen


def validate(params, val_slices):
    """Mean pSNR of denoised outputs against clean images."""
    vals = []
    for data in val_slices:
        if data.clean is None:
            raise ValueError("validation slices need clean images")
        out = denoise(params, data.stack, data.sens, mask=data.mask)
        vals.append(psnr(out, data.clean, data.mask))
    return float(np.mean(vals))


def denoise_image(params, image, mask=None):
    """Denoise a pre-combined 2-D magnitude image (DICOM-style input): an
    eval-mode forward with the per-image scale normalization undone."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2:
        raise ValueError(f"image must be 2-D, got shape {img.shape}")
    if mask is not None:
        mask = check_mask(mask, img.shape)
    s = _input_scale(img, mask)
    out, _ = net.forward(params, (img / s)[None], train=False)
    return out[0] * s


def denoise(params, stack, sens, mask=None):
    """Denoise the full matched-filter combination of an acquisition."""
    return denoise_image(params, combine_all(stack, sens), mask)


def denoise_two_group_average(params, stack, sens, rng, mask):
    """Two-group inference variant: denoise each half of a channel split with
    denoise, rescale each output to the full combination's gain, and average.

    Of SPLIT_CANDIDATES random balanced splits, the first whose weaker group
    has the largest minimum gain inside the mask is used, so both groups
    cover it; for the rescaling a group's gain is floored at SENS_FLOOR of
    its peak.
    """
    stack = check_stack(stack, sens)
    if len(stack) < 2:
        raise ValueError("two-group inference needs at least 2 channels")
    mask = check_mask(mask, stack.shape[1:])
    sens = np.asarray(sens)
    power = np.abs(sens) ** 2  # a group's gain sums its rows
    s_full = power.sum(axis=0)
    cands = [split_channels(len(stack), rng) for _ in range(SPLIT_CANDIDATES)]  # max keeps the first best
    split = max(cands, key=lambda c: min(power[list(g)].sum(axis=0)[mask].min() for g in (c.group_j, c.group_k)))
    outs = []
    for group in (list(split.group_j), list(split.group_k)):
        s_g = power[group].sum(axis=0)
        floor = SENS_FLOOR * s_g.max() if s_g.max() > 0 else 1.0
        outs.append(denoise(params, stack[group], sens[group], mask) * (s_full / np.maximum(s_g, floor)))
    return 0.5 * (outs[0] + outs[1])

"""Training loop (three supervision modes), the sensitivity-weighted loss,
and the inference paths.

Modes:
  C2C  -- self-supervised pairs from coil subgroups, regenerated with a
          fresh random split every epoch;
  N2N  -- two independent noisy full combinations of the same image;
  N2CL -- noisy full combination vs the clean combined magnitude.

The C2C loss weights prediction and label by the pair's sensitivity maps
so both sides share one noise-free image; N2N and N2CL pairs, and C2C pairs
with normalization off (ablation), carry unit maps, so it is their masked MSE.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import network as net
from .imaging import check_mask, check_stack, coil_combine, effective_sensitivity
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

MODES = ("C2C", "N2N", "N2CL")
MODE_NEEDS = {"N2N": "a second noise realization per slice", "N2CL": "clean images"}
SENS_EPS = 1e-12  # floor of a group's sensitivity, relative to its peak
SPLIT_CANDIDATES = 8  # random splits scored by two-group inference


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    batch_size: int = 8
    base_lr: float = 1e-4
    mode: str = "C2C"
    whiten: bool = True
    normalize: bool = True
    seed: int = 0
    validate_every: int = 0  # 0 disables per-epoch validation

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if self.base_lr <= 0:
            raise ValueError(f"base_lr must be > 0, got {self.base_lr}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.validate_every < 0:
            raise ValueError("validate_every must be >= 0")


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


def _epoch_pairs(slices, config, rng):
    """One epoch's pairs as one TrainingPair, and the C2C splits drawn, from
    slices whose stack, sensitivities, psi and mask passed check_slice.

    Every field is stacked: the arrays to (N, H, W), the coverages and
    fallback counts to (N,).  N2N pairs the input with the combination of
    the second noise realization, N2CL with the clean image; both, and C2C
    with normalization off, carry unit maps.  Each pair's input and label
    are divided by the input's scale, so the network input has unit masked
    std and the loss minimizer is unchanged; inference applies the same
    rule to its own input.
    """
    pairs = []
    splits = []
    for data in slices:
        ones = np.ones(np.shape(data.mask))
        if config.mode == "C2C":
            split = split_channels(data.stack.shape[0], rng)
            splits.append(split)
            p = pair_from_checked(data.stack, data.sens, data.psi, split, data.mask, config.whiten)
            if not config.normalize:
                p = replace(p, sens_in=ones, sens_label=ones)
        else:
            second = data.stack_b if config.mode == "N2N" else data.clean
            if second is None:
                raise ValueError(f"{config.mode} mode needs {MODE_NEEDS[config.mode]}")
            label = combine_all(second, data.sens) if config.mode == "N2N" else second
            p = TrainingPair(combine_all(data.stack, data.sens), label, ones, ones, data.mask)
        s = _input_scale(p.image_in, p.mask)
        pairs.append(replace(p, image_in=p.image_in / s, image_label=p.image_label / s))
    stacked = (np.stack([getattr(p, f.name) for p in pairs]) for f in fields(TrainingPair))
    return TrainingPair(*stacked), splits


def train(slices, net_config, config, val_slices=None):
    """Train a denoiser; returns (params, log, splits_seen).

    slices is a sequence of SliceData with identical image shapes.  Every
    network input is scale-normalized to unit masked std (the label is
    scaled with it); validation pSNR is computed in original units.  Each
    epoch stacks its pairs into (N, H, W) arrays; a step takes a batch of
    them by index and makes one forward, one c2c_loss over the batch, one
    backward and one Adam step.
    """
    if not slices:
        raise ValueError("empty training dataset")
    checked = []
    for data in slices:  # once here, so the per-epoch pairs check nothing
        stack, sens, psi, mask = check_slice(data.stack, data.sens, data.psi, data.mask)
        checked.append(replace(data, stack=stack, sens=sens, psi=psi, mask=mask))
    rng = np.random.default_rng(config.seed)
    params = net.init_network(net_config, rng)
    state = net.AdamState.for_params(params)
    log = TrainLog()
    splits_seen = []

    n = len(slices)
    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        lr = net.lr_schedule(epoch, config.base_lr)
        pairs, splits = _epoch_pairs(checked, config, rng)
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
        if val_slices and config.validate_every and (epoch + 1) % config.validate_every == 0:
            log.val_psnrs.append(validate(params, val_slices))
        else:
            log.val_psnrs.append(float("nan"))
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


def denoise_two_group_average(params, stack, sens, rng, mask=None):
    """Two-group inference variant: denoise the two half-combinations
    separately, rescale each output to the full-combination sensitivity,
    and average.

    Both groups must cover the imaging volume for the sensitivity ratio to
    be well behaved, so among SPLIT_CANDIDATES random balanced splits the
    one with the best worst-case coverage is used.
    """
    stack = check_stack(stack, sens)
    sens_arr = np.asarray(sens)
    m = stack.shape[0]
    if m < 2:
        raise ValueError("two-group inference needs at least 2 channels")
    if mask is not None:
        mask = check_mask(mask, stack.shape[1:])
    s_full = effective_sensitivity(sens_arr, range(m))
    region = mask if mask is not None else s_full >= SENS_FLOOR * s_full.max()

    split, best = None, -np.inf
    for _ in range(SPLIT_CANDIDATES):
        cand = split_channels(m, rng)
        score = min(
            float(effective_sensitivity(sens_arr, cand.group_j)[region].min()),
            float(effective_sensitivity(sens_arr, cand.group_k)[region].min()),
        )
        if score > best:
            split, best = cand, score
    outs = []
    for group in (split.group_j, split.group_k):
        img = np.abs(coil_combine(stack, sens_arr, group))
        s_g = effective_sensitivity(sens_arr, group)
        floor = SENS_EPS * s_g.max() if s_g.max() > 0 else 1.0
        ratio = s_full / np.maximum(s_g, floor)
        outs.append(denoise_image(params, img, mask) * ratio)
    return 0.5 * (outs[0] + outs[1])

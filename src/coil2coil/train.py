"""Training loop (three supervision modes), the sensitivity-weighted loss,
and the inference paths.

Modes:
  C2C  -- self-supervised pairs from coil subgroups, regenerated with a
          fresh random split every epoch;
  N2N  -- two independent noisy full combinations of the same image;
  N2CL -- noisy full combination vs the clean combined magnitude.

The C2C loss weights prediction and label by the pair's sensitivity maps
so both sides share one noise-free image; for N2N/N2CL the maps are 1 and
it reduces to a masked MSE.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import network as net
from .imaging import coil_combine, effective_sensitivity, magnitude
from .metrics import psnr
from .pairs import SENS_FLOOR, TrainingPair, combine_all, make_training_pair, split_channels

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
SENS_EPS = 1e-12  # floor of a group's sensitivity, relative to its peak
SPLIT_CANDIDATES = 8  # random splits scored by two-group inference


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    batch_size: int = 8
    base_lr: float = 1e-4
    lr_decay: float = 0.87
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
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")


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


def c2c_loss(pred, pair: TrainingPair, normalize=True):
    """Sensitivity-weighted masked L2 loss and its gradient in pred.

    loss = mean_{mask} (S_label * pred - S_in * label)^2; with normalize
    off both maps are replaced by 1 (ablation).
    """
    mask = pair.mask
    n = int(np.count_nonzero(mask))
    if n == 0:
        raise ValueError("empty mask in loss")
    if normalize:
        s_lab, s_in = pair.sens_label, pair.sens_in
    else:
        s_lab = s_in = np.ones_like(pair.image_in)
    resid = np.where(mask, s_lab * pred - s_in * pair.image_label, 0.0)
    loss = float(np.sum(resid**2)) / n
    grad = 2.0 * s_lab * resid / n
    return loss, grad


def _input_scale(image, mask=None):
    """Intensity scale of a network input: std over masked voxels (the
    whole image when mask is None)."""
    img = np.asarray(image)
    s = float((img[np.asarray(mask, dtype=bool)] if mask is not None else img).std())
    return s if s > 0 else 1.0


def _normalized_pair(pair: TrainingPair):
    """Rescale a pair so the network input has unit masked std.

    Input and label are scaled together, so the loss minimizer is
    unchanged and inference can apply the same rule to its own input.
    """
    s = _input_scale(pair.image_in, pair.mask)
    return replace(pair, image_in=pair.image_in / s, image_label=pair.image_label / s)


def _epoch_pairs(slices, config, rng):
    """Materialize (input, label, s_in, s_label, mask) per slice for one epoch."""
    pairs = []
    splits = []
    for data in slices:
        m = data.stack.shape[0]
        if config.mode == "C2C":
            split = split_channels(m, rng)
            splits.append(split)
            pairs.append(make_training_pair(data.stack, data.sens, data.psi, split, data.mask, whiten=config.whiten))
        elif config.mode == "N2N":
            if data.stack_b is None:
                raise ValueError("N2N mode needs a second noise realization per slice")
            img_in = combine_all(data.stack, data.sens)
            img_lab = combine_all(data.stack_b, data.sens)
            ones = np.ones_like(img_in)
            pairs.append(TrainingPair(img_in, img_lab, ones, ones, data.mask))
        else:  # N2CL
            if data.clean is None:
                raise ValueError("N2CL mode needs clean images")
            img_in = combine_all(data.stack, data.sens)
            ones = np.ones_like(img_in)
            pairs.append(TrainingPair(img_in, data.clean, ones, ones, data.mask))
    return [_normalized_pair(p) for p in pairs], splits


def train(slices, net_config, config, val_slices=None):
    """Train a denoiser; returns (params, log, splits_seen).

    slices is a sequence of SliceData with identical image shapes.  Every
    network input is scale-normalized to unit masked std (the label is
    scaled with it); validation pSNR is computed in original units.
    """
    if not slices:
        raise ValueError("empty training dataset")
    rng = np.random.default_rng(config.seed)
    params = net.init_network(net_config, rng)
    state = net.AdamState.for_params(params)
    log = TrainLog()
    splits_seen = []

    n = len(slices)
    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        lr = net.lr_schedule(epoch, config.base_lr, config.lr_decay)
        pairs, splits = _epoch_pairs(slices, config, rng)
        splits_seen.extend(splits)
        order = rng.permutation(n)
        epoch_losses = []
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            batch = np.stack([pairs[i].image_in for i in idx])
            out, cache = net.forward(params, batch, train=True)
            grads_out = np.empty_like(out)
            batch_loss = 0.0
            for row, i in enumerate(idx):
                loss_i, g_i = c2c_loss(out[row], pairs[i], normalize=config.normalize)
                batch_loss += loss_i
                grads_out[row] = g_i
            batch_loss /= len(idx)
            grads_out /= len(idx)
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
    """Denoise a pre-combined magnitude image (DICOM-style input): an
    eval-mode forward with the per-image scale normalization undone."""
    img = np.asarray(image, dtype=np.float64)
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
    stack = np.asarray(stack)
    sens_arr = np.asarray(sens)
    m = stack.shape[0]
    if m < 2:
        raise ValueError("two-group inference needs at least 2 channels")
    s_full = effective_sensitivity(sens_arr, range(m))
    region = np.asarray(mask, dtype=bool) if mask is not None else s_full >= SENS_FLOOR * s_full.max()

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
        img = magnitude(coil_combine(stack, sens_arr, group))
        s_g = effective_sensitivity(sens_arr, group)
        floor = SENS_EPS * s_g.max() if s_g.max() > 0 else 1.0
        ratio = s_full / np.maximum(s_g, floor)
        outs.append(denoise_image(params, img, mask) * ratio)
    return 0.5 * (outs[0] + outs[1])

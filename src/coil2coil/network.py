"""Residual convolutional denoiser with explicit forward/backward passes.

Architecture: conv -> leaky ReLU, then (conv -> batch norm -> leaky ReLU)
repeated depth-2 times, then a final conv, with a skip connection adding
the network input to the final conv output.  Single image channel in and
out.  It computes in the dtype of its parameters: float32 from init_network
and checkpoints, float64 in gradient_check's finite-difference comparison.

Activations are channels-last, (N, H, W, C).  Every convolution -- the
forward pass and both gradients -- is im2col + GEMM over cache-sized
blocks of patch rows (_patch_blocks); train mode keeps each conv's input,
not its patches, and the weight gradient rebuilds them.  Leaky ReLU and
batch norm work in place on the fresh conv output (and leaky ReLU's
backward on the fresh gradient), in the same operation order as their
out-of-place formulas, so they save full-size temporaries without
changing a bit; eval-mode batch norm is folded into its conv's kernel and
a bias.  Only the first and the last conv carry a bias: a bias feeding
batch norm is cancelled by its mean subtraction, so it would be a dead
parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from numbers import Integral, Real

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "NetworkConfig",
    "NetworkParams",
    "AdamState",
    "init_network",
    "forward",
    "backward",
    "adam_step",
    "lr_schedule",
    "gradient_check",
]

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
LR_DECAY = 0.87  # per-epoch factor of the learning rate


@dataclass(frozen=True)
class NetworkConfig:
    depth: int = 6
    features: int = 16
    kernel_size: int = 3
    leaky_slope: float = 0.1
    bn_momentum: float = 0.9
    bn_eps: float = 1e-5

    def __post_init__(self):
        for f in fields(self):  # checkpoint headers set fields too: types before ranges
            v = getattr(self, f.name)
            kind = Integral if f.type == "int" else Real
            if isinstance(v, bool) or not isinstance(v, kind) or not math.isfinite(v):
                raise ValueError(f"{f.name} must be a finite {f.type}, got {v!r}")
        if self.depth < 2:
            raise ValueError("depth must be >= 2")
        if self.kernel_size < 1 or self.kernel_size % 2 == 0:
            raise ValueError("kernel size must be odd and >= 1")
        if not (0.0 < self.leaky_slope < 1.0):
            raise ValueError("leaky slope must be in (0, 1)")
        if self.features < 1:
            raise ValueError("features must be >= 1")
        if self.bn_eps <= 0:
            raise ValueError("bn_eps must be > 0")
        # past 1 the running-variance update extrapolates and can turn negative
        if not 0.0 <= self.bn_momentum <= 1.0:
            raise ValueError("bn_momentum must be in [0, 1]")

    def state_size(self):
        """Number of values NetworkParams.state() holds, counted without
        allocating them: kernels, two biases, four batch-norm vectors per
        middle layer."""
        f, mid = self.features, self.depth - 2
        return self.kernel_size**2 * (2 * f + mid * f * f) + f + 1 + 4 * mid * f

    @classmethod
    def full_scale(cls):
        """18 layers, 64 features, 5x5 kernels (GPU-scale preset)."""
        return cls(depth=18, features=64, kernel_size=5)


# gradient_check's network, difference step and (N, H, W) batch
GRADCHECK_CONFIG = NetworkConfig(depth=3, features=2, kernel_size=3)
GRADCHECK_STEP, GRADCHECK_BATCH = 1e-5, (2, 8, 8)


@dataclass
class NetworkParams:
    config: NetworkConfig
    weights: list  # per conv layer, (C_out, C_in, k, k)
    biases: list  # first and last conv only, (C_out,)
    bn_scale: list  # per middle layer, (features,)
    bn_shift: list
    bn_mean: list  # running statistics
    bn_var: list

    def astype(self, dtype):
        """A copy with every array cast to dtype."""
        lists = (f.name for f in fields(self) if f.name != "config")
        return NetworkParams(self.config, **{n: [a.astype(dtype) for a in getattr(self, n)] for n in lists})

    def flat(self):
        """Trainable parameter arrays as (name, array) pairs, in a fixed order."""
        bias = {0: self.biases[0], len(self.weights) - 1: self.biases[1]}
        out = []
        for i, w in enumerate(self.weights):
            out.append((f"conv{i}.weight", w))
            if i in bias:
                out.append((f"conv{i}.bias", bias[i]))
        for i, (g, s) in enumerate(zip(self.bn_scale, self.bn_shift)):
            out.append((f"bn{i}.scale", g))
            out.append((f"bn{i}.shift", s))
        return out

    def state(self):
        """Every (name, array) a checkpoint stores: flat(), then the batch-norm
        running means, then the running variances."""
        means = [(f"bn{i}.mean", a) for i, a in enumerate(self.bn_mean)]
        return self.flat() + means + [(f"bn{i}.var", a) for i, a in enumerate(self.bn_var)]


@dataclass
class AdamState:
    m: dict
    v: dict
    step: int = 0

    @classmethod
    def for_params(cls, params):
        zeros = {name: np.zeros_like(a) for name, a in params.flat()}
        return cls(m=zeros, v={k: v.copy() for k, v in zeros.items()})


def _layer_channels(config):
    """(C_in, C_out) per conv layer."""
    f = config.features
    chans = [(1, f)]
    chans += [(f, f)] * (config.depth - 2)
    chans.append((f, 1))
    return chans


def init_network(config, rng):
    """Float32 Xavier-uniform kernels (bound sqrt(6/(fan_in+fan_out)), drawn
    in float64), zero biases, batch-norm scale 1 / shift 0, running stats (0, 1)."""
    k = config.kernel_size
    weights = []
    for c_in, c_out in _layer_channels(config):
        bound = np.sqrt(6.0 / ((c_in + c_out) * k * k))  # fan_in + fan_out
        weights.append(rng.uniform(-bound, bound, size=(c_out, c_in, k, k)))
    f, n_bn = config.features, config.depth - 2
    return NetworkParams(
        config=config,
        weights=weights,
        biases=[np.zeros(f), np.zeros(1)],
        bn_scale=[np.ones(f) for _ in range(n_bn)],
        bn_shift=[np.zeros(f) for _ in range(n_bn)],
        bn_mean=[np.zeros(f) for _ in range(n_bn)],
        bn_var=[np.ones(f) for _ in range(n_bn)],
    ).astype(np.float32)


# Entries of one block of patch rows, 512 KiB at float32: it stays in L2
# and is reused from the heap, where one whole-image patch matrix (21 MB at
# 192x192x16) is fresh memory whose page faults cost as much as its GEMM.
_BLOCK_ELEMS = 1 << 17


def _patch_blocks(x, k):
    """Yield (index, patches) over blocks of rows of each image in
    channels-last x (N, H, W, C): x[index] is the block, and patches its
    zero-padded (rows * W, k*k*C) im2col matrix, C innermost."""
    n, h, wd, c = x.shape
    p = (k - 1) // 2
    xp = np.zeros((n, h + 2 * p, wd + 2 * p, c), x.dtype)
    xp[:, p : p + h, p : p + wd] = x
    win = sliding_window_view(xp, (k, k), axis=(1, 2)).transpose(0, 1, 2, 4, 5, 3)
    rows = max(1, _BLOCK_ELEMS // (wd * k * k * c))
    for b in range(n):
        for r in range(0, h, rows):
            yield (b, slice(r, r + rows)), win[b, r : r + rows].reshape(-1, k * k * c)


def _conv(x, w):
    """Zero-padded 'same' correlation of channels-last x (N, H, W, C) with
    w (F, C, k, k): one GEMM per patch block, into y (N, H, W, F)."""
    f, c, k, _ = w.shape
    wmat = w.transpose(2, 3, 1, 0).reshape(k * k * c, f)
    y = np.empty(x.shape[:3] + (f,), x.dtype)
    for i, patches in _patch_blocks(x, k):
        np.matmul(patches, wmat, out=y[i].reshape(-1, f))
    return y


def _leaky_forward(x, slope):
    """In place on x.  With 0 < slope < 1, max(x, slope*x) is x for x >= 0
    (-0.0 included) and slope*x below, bit for bit."""
    return np.maximum(x, slope * x, out=x)


def _leaky_backward(dy, x, slope):
    """In place on dy.  x may be the activation's input or its output: both
    have one sign."""
    return np.multiply(dy, slope, out=dy, where=~(x >= 0))


def _bn_forward_train(x, scale, shift, eps):
    axes = (0, 1, 2)
    mean = x.mean(axis=axes)
    xhat = x - mean
    var = (xhat * xhat).mean(axis=axes)  # biased; the same sums as x.var
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat *= inv_std
    y = xhat * scale
    y += shift
    return y, (xhat, inv_std, scale), mean, var


def _bn_backward(dy, cache):
    xhat, inv_std, scale = cache
    n_eff = dy.shape[0] * dy.shape[1] * dy.shape[2]
    dshift = dy.sum(axis=(0, 1, 2))
    dscale = (dy * xhat).sum(axis=(0, 1, 2))
    dxhat = dy * scale
    dx = (
        dxhat - dxhat.mean(axis=(0, 1, 2)) - xhat * (dxhat * xhat).sum(axis=(0, 1, 2)) / n_eff
    ) * inv_std
    return dx, dscale, dshift


def forward(params, batch, train=False):
    """Run the network on a batch of real images (N, H, W).

    Returns (outputs, cache) in the parameters' dtype.  Train mode
    normalizes with batch statistics, updates the running statistics in
    place and caches what backward needs; eval mode folds the running
    statistics into the conv, leaves params untouched and caches nothing
    but the input shape.
    """
    batch = np.asarray(batch, dtype=params.weights[0].dtype)
    if batch.ndim == 2:
        batch = batch[None]
    if batch.ndim != 3 or batch.shape[0] < 1:
        raise ValueError(f"batch must be (N, H, W), got {batch.shape}")
    cfg = params.config
    cache = {"input_shape": batch.shape, "train": train, "inputs": [], "bn": []}
    last = len(params.weights) - 1
    mom = cfg.bn_momentum
    x = batch[..., None]  # (N, H, W, 1)
    for i, w in enumerate(params.weights):
        j = i - 1  # batch-norm index of a middle layer
        if train:
            cache["inputs"].append(x)
        elif 0 < i < last:  # eval batch norm is conv(x, w*g) + shift - mean*g
            g = params.bn_scale[j] / np.sqrt(params.bn_var[j] + cfg.bn_eps)
            w, folded = w * g[:, None, None, None], params.bn_shift[j] - params.bn_mean[j] * g
        y = _conv(x, w)
        if i == last:
            break
        if i == 0:
            y += params.biases[0]
        elif train:
            y, bn_cache, mean, var = _bn_forward_train(
                y, params.bn_scale[j], params.bn_shift[j], cfg.bn_eps
            )
            cache["bn"].append(bn_cache)
            params.bn_mean[j] = mom * params.bn_mean[j] + (1 - mom) * mean
            params.bn_var[j] = mom * params.bn_var[j] + (1 - mom) * var
        else:
            y += folded
        x = _leaky_forward(y, cfg.leaky_slope)
    out = y[..., 0]
    out += params.biases[1]
    out += batch
    return out, cache


def backward(params, cache, output_grads):
    """Gradients of a scalar loss w.r.t. every trainable parameter.

    output_grads is dLoss/dOutput with shape (N, H, W); the cache must come
    from a train-mode forward on the same batch.
    """
    if not cache.get("train"):
        raise ValueError("backward needs a cache from a train-mode forward")
    cfg = params.config
    dy = np.asarray(output_grads, dtype=params.weights[0].dtype)
    if dy.shape != cache["input_shape"]:
        raise ValueError("output gradient shape does not match cached batch")
    dy = dy[..., None]
    last = len(params.weights) - 1
    grads = {f"conv{last}.bias": dy.sum(axis=(0, 1, 2))}
    for i in range(last, -1, -1):
        if i < last:
            dy = _leaky_backward(dy, cache["inputs"][i + 1], cfg.leaky_slope)
            if i == 0:
                grads["conv0.bias"] = dy.sum(axis=(0, 1, 2))
            else:
                dy, grads[f"bn{i - 1}.scale"], grads[f"bn{i - 1}.shift"] = _bn_backward(
                    dy, cache["bn"][i - 1]
                )
        w = params.weights[i]
        f, c, k, _ = w.shape
        dw = np.zeros((f, k * k * c), w.dtype)  # dy^T @ patches, block by block
        for b, patches in _patch_blocks(cache["inputs"][i], k):
            dw += dy[b].reshape(-1, f).T @ patches
        grads[f"conv{i}.weight"] = dw.reshape(f, k, k, c).transpose(0, 3, 1, 2)
        if i > 0:  # input gradient: correlation with the flipped, transposed kernel
            dy = _conv(dy, w.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1])
    return grads


def adam_step(params, grads, state, lr):
    """Bias-corrected Adam update, in place on params; returns (params, state)."""
    state.step += 1
    t = state.step
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    for name, arr in params.flat():
        g = grads[name]
        if g.shape != arr.shape:
            raise ValueError(f"gradient shape mismatch for {name}")
        state.m[name] = b1 * state.m[name] + (1 - b1) * g
        state.v[name] = b2 * state.v[name] + (1 - b2) * g * g
        m_hat = state.m[name] / (1 - b1**t)
        v_hat = state.v[name] / (1 - b2**t)
        arr -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return params, state


def lr_schedule(epoch, base_lr):
    """Exponentially decayed learning rate: base_lr * LR_DECAY^epoch."""
    if epoch < 0:
        raise ValueError("epoch must be >= 0")
    return base_lr * LR_DECAY**epoch


def gradient_check(rng):
    """Compare backward() against central finite differences.

    Uses a masked quadratic loss on random data and perturbs every
    parameter entry of GRADCHECK_CONFIG's network in float64.  Returns the
    worst relative error.
    """
    params = init_network(GRADCHECK_CONFIG, rng).astype(np.float64)
    # non-trivial BN shift/scale so their gradients are exercised
    for i in range(len(params.bn_scale)):
        params.bn_scale[i] = 1.0 + 0.1 * rng.standard_normal(params.bn_scale[i].shape)
        params.bn_shift[i] = 0.1 * rng.standard_normal(params.bn_shift[i].shape)
    batch = rng.standard_normal(GRADCHECK_BATCH)
    target = rng.standard_normal(GRADCHECK_BATCH)
    weight = rng.uniform(0.5, 1.5, size=GRADCHECK_BATCH)

    def loss_of(p):  # on a copy: train mode updates the running statistics
        out, _ = forward(p.astype(np.float64), batch, train=True)
        return 0.5 * np.sum(weight * (out - target) ** 2)

    out, cache = forward(params.astype(np.float64), batch, train=True)
    grads = backward(params, cache, weight * (out - target))

    worst = 0.0
    for name, arr in params.flat():
        g = grads[name]
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + GRADCHECK_STEP
            lp = loss_of(params)
            arr[idx] = orig - GRADCHECK_STEP
            lm = loss_of(params)
            arr[idx] = orig
            num = (lp - lm) / (2 * GRADCHECK_STEP)
            denom = max(abs(num), abs(g[idx]), 1e-8)
            worst = max(worst, abs(num - g[idx]) / denom)
    return worst

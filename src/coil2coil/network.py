"""Residual convolutional denoiser with explicit forward/backward passes.

Architecture: conv -> leaky ReLU, then (conv -> batch norm -> leaky ReLU)
repeated depth-2 times, then a final conv, with a skip connection adding
the network input to the final conv output.  Single image channel in and
out.  It computes in the dtype of its parameters: float32 from init_network
and checkpoints, float64 in gradient_check's finite-difference comparison.

Activations and their gradients share one layout: channels-first (C, N, H, W)
images in zero-padded flat buffers (_buffer) whose pads and tail let a conv
read contiguous runs.  A conv is a GEMM per 256 KiB im2col block
(_patch_blocks) storing into the output buffer, whose pads take the junk
columns, or, with fewer outputs than inputs (the last conv), a sum of the k*k
taps' GEMMs.  Each layer ends alike in train and eval: bias or batch norm,
leaky ReLU on whole rows, _zero_pads.  Backward mirrors it, and _conv_grads
takes dw and dx from one pass over the gradient's patch blocks, dx stored by
forward's GEMM.  Train mode caches each conv's input buffer; eval mode reuses
two buffers and folds batch norm into its conv's kernel and a bias.  Only the
first and the last conv carry a bias: a bias feeding batch norm is cancelled
by its mean subtraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from numbers import Integral

import numpy as np
from numpy.lib.stride_tricks import as_strided

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
LEAKY_SLOPE = 0.1  # must stay in (0, 1): _leaky_forward's max form depends on it
BN_MOMENTUM = 0.9  # weight of the old running statistics
BN_EPS = 1e-5


@dataclass(frozen=True)
class NetworkConfig:
    depth: int = 6
    features: int = 16
    kernel_size: int = 3

    def __post_init__(self):
        for f in fields(self):  # checkpoint headers set fields too: types before ranges
            v = getattr(self, f.name)
            if isinstance(v, bool) or not isinstance(v, Integral):
                raise ValueError(f"{f.name} must be an int, got {v!r}")
        if self.depth < 2:
            raise ValueError("depth must be >= 2")
        if self.kernel_size < 1 or self.kernel_size % 2 == 0:
            raise ValueError("kernel size must be odd and >= 1")
        if self.features < 1:
            raise ValueError("features must be >= 1")

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
            out += [(f"conv{i}.weight", w)] + ([(f"conv{i}.bias", bias[i])] if i in bias else [])
        for i, (g, s) in enumerate(zip(self.bn_scale, self.bn_shift)):
            out += [(f"bn{i}.scale", g), (f"bn{i}.shift", s)]
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


def init_network(config, rng):
    """Float32 Xavier-uniform kernels (bound sqrt(6/(fan_in+fan_out)), drawn
    in float64), zero biases, batch-norm scale 1 / shift 0, running stats (0, 1)."""
    k, f, n_bn = config.kernel_size, config.features, config.depth - 2
    weights = []
    for c_in, c_out in [(1, f)] + [(f, f)] * n_bn + [(f, 1)]:
        bound = np.sqrt(6.0 / ((c_in + c_out) * k * k))  # fan_in + fan_out
        weights.append(rng.uniform(-bound, bound, size=(c_out, c_in, k, k)))
    return NetworkParams(
        config=config,
        weights=weights,
        biases=[np.zeros(f), np.zeros(1)],
        bn_scale=[np.ones(f) for _ in range(n_bn)],
        bn_shift=[np.zeros(f) for _ in range(n_bn)],
        bn_mean=[np.zeros(f) for _ in range(n_bn)],
        bn_var=[np.ones(f) for _ in range(n_bn)],
    ).astype(np.float32)


# Entries of one block of patch columns, 256 KiB at float32: it stays in L2
# and is reused from the heap, where one whole-image patch matrix (21 MB at
# 192x192x16) is fresh memory whose page faults cost as much as its GEMM.
_BLOCK_ELEMS = 1 << 16


def _buffer(c, shape, k, dtype):
    """(buffer, view): a zero flat (C, N*Hp*Wp + (k-1)*(Wp+1)) buffer for C
    channels of (N, H, W) images padded by (k-1)/2 on each side, Hp = H+k-1
    and Wp = W+k-1, whose tail feeds junk columns, and the images' view in it."""
    n, h, wd = shape
    p, hp, wp = (k - 1) // 2, h + k - 1, wd + k - 1
    flat = np.zeros((c, n * hp * wp + (k - 1) * (wp + 1)), dtype)
    return flat, flat[:, : n * hp * wp].reshape(c, n, hp, wp)[:, :, p : p + h, p : p + wd]


def _pad(x, k):
    """x (C, N, H, W) copied into a fresh _buffer pair."""
    padded = _buffer(len(x), x.shape[1:], k, x.dtype)
    padded[1][...] = x
    return padded


def _zero_pads(padded, k):
    """Zero a _buffer pair outside its images: the pads, which took a conv's
    junk columns or a row-wise bias, and the tail."""
    flat, (c, n, h, wd), p = padded[0], padded[1].shape, (k - 1) // 2
    end = n * (h + k - 1) * (wd + k - 1)
    whole = flat[:, :end].reshape(c, n, h + k - 1, wd + k - 1)
    whole[:, :, :p] = whole[:, :, p + h :] = whole[..., :p] = whole[..., p + wd :] = flat[:, end:] = 0
    return padded


def _patch_blocks(padded, k):
    """Yield (run, patches) over blocks of rows of each image in a _buffer
    pair: patches is a block's (k*k*C, rows*Wp) im2col matrix in a kernel's
    (C, k, k) row order, k - 1 junk columns ending each row, and run the
    block's buffer columns from its first voxel, one per patch column.  Blocks
    of an image differ by at most one row; each fits _BLOCK_ELEMS if a row does."""
    flat, (c, n, h, wd) = padded[0], padded[1].shape
    hp, wp, s = h + k - 1, wd + k - 1, flat.strides[1]
    first = (k - 1) // 2 * (wp + 1)  # a voxel's column from its window's first tap
    win = as_strided(flat, (c, k, k, n * hp * wp), (flat.strides[0], wp * s, s, s), writeable=False)
    blocks = math.ceil(h / max(1, _BLOCK_ELEMS // (wp * k * k * c)))
    for b, r in np.ndindex(n, blocks):
        at, end = (b * hp + r * h // blocks) * wp, (b * hp + (r + 1) * h // blocks) * wp
        yield slice(at + first, end + first), win[..., at:end].reshape(k * k * c, -1)


def _conv(padded, w, out=None):
    """Zero-padded 'same' correlation of a _buffer pair's images (C, N, H, W)
    with w (F, C, k, k) into out, a pair of that layout with F channels (fresh
    when None) whose pads take the junk columns.  With F < C it sums the k*k
    taps' (F, C) GEMMs over shifted runs of the input, in blocks of _BLOCK_ELEMS
    entries whose bits do not depend on the BLAS thread count; else a GEMM per
    patch block."""
    f, c, k, _ = w.shape
    flat, (_, n, h, wd) = padded[0], padded[1].shape
    out = _buffer(f, (n, h, wd), k, flat.dtype) if out is None else out
    if f < c:  # F rows per tap instead of a k*k*C-row im2col
        wp, first = wd + k - 1, (k - 1) // 2 * (wd + k)  # a voxel's column from its window's first tap
        taps, size, step = w.transpose(2, 3, 0, 1).copy(), n * (h + k - 1) * wp, max(1, _BLOCK_ELEMS // c)
        for at in range(0, size, step):
            run = out[0][:, first + at : first + min(at + step, size)]
            np.matmul(taps[0, 0], flat[:, at : at + run.shape[1]], out=run)
            for u, v in list(np.ndindex(k, k))[1:]:
                run += taps[u, v] @ flat[:, at + u * wp + v : at + u * wp + v + run.shape[1]]
        return out
    wmat = w.reshape(f, -1)
    for run, patches in _patch_blocks(padded, k):
        np.matmul(wmat, patches, out=out[0][:, run])
    return out


def _conv_grads(dy, x, w, input_grad):
    """(dw, dx) of y = _conv(x, w) from one pass over the patch blocks of dy, a
    _buffer pair.  dx, a fresh pair (None unless input_grad), is _conv of dy
    with w flipped and transposed, stored by the same GEMM; dw^T sums patches @
    x[:, run]^T over the blocks, the pad zeros of x's buffer meeting the patches'
    junk columns.  Row (f, u, v) of dw^T is dw[f, :, k-1-u, k-1-v]."""
    f, c, k, _ = w.shape
    wmat = w.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1].reshape(c, -1)
    dx, dwt = _buffer(c, dy[1].shape[1:], k, dy[0].dtype) if input_grad else None, 0
    for run, patches in _patch_blocks(dy, k):
        dwt += patches @ x[0][:, run].T
        if input_grad:
            np.matmul(wmat, patches, out=dx[0][:, run])
    return dwt.reshape(f, k, k, c)[:, ::-1, ::-1].transpose(0, 3, 1, 2), _zero_pads(dx, k) if input_grad else None


def _leaky_forward(x):
    """In place on x, a row at a time, so the only temporary is one row's LEAKY_SLOPE*row.  As
    0 < LEAKY_SLOPE < 1, max(x, LEAKY_SLOPE*x) is x for x >= 0 (-0.0 too), else LEAKY_SLOPE*x, bit for bit."""
    for row in x:
        np.maximum(row, LEAKY_SLOPE * row, out=row)
    return x


def _leaky_backward(dy, x):
    """In place on dy, times where(x >= 0, 1, LEAKY_SLOPE) without branches, as
    LEAKY_SLOPE + (1 - LEAKY_SLOPE) rounds to exactly 1.  x is the activation's input or output."""
    f = np.greater_equal(x, 0, out=np.empty(x.shape, dy.dtype))
    f *= 1 - LEAKY_SLOPE
    f += LEAKY_SLOPE
    return np.multiply(dy, f, out=dy)


def _channel_sum(x):
    """Sum of channels-first x over every axis but the first, as one GEMV."""
    return x.reshape(len(x), -1) @ np.ones(x[0].size, x.dtype)


def _bn_forward_train(y, scale, shift):
    """In place on y, a _buffer's (C, N, H, W) view: xhat, y normalized as a
    contiguous copy, then scale*xhat + shift written back into y.  Returns
    _bn_backward's cache (xhat, scale*inv_std), the batch mean and variance."""
    axes, xhat = (1, 2, 3), y.copy()  # a channel's contiguous row
    mean = xhat.mean(axis=axes, keepdims=True)
    xhat -= mean
    var = (xhat * xhat).mean(axis=axes, keepdims=True)  # biased; the same sums as x.var
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    xhat *= inv_std
    np.multiply(xhat, scale[:, None, None, None], out=y)
    y += shift[:, None, None, None]
    return (xhat, scale[:, None, None, None] * inv_std), mean.ravel(), var.ravel()


def _bn_backward(dy, cache):
    """In place on dy, a _buffer's view: dx = a*dy - (a*dscale/n)*xhat - a*dshift/n with
    a = scale*inv_std, three passes over a contiguous copy of dy, the last into dy.  Returns (dscale, dshift)."""
    xhat, a = cache
    g, c, n = dy.copy(), len(dy), dy[0].size
    dshift = _channel_sum(g)
    dscale = (g.reshape(c, 1, n) @ xhat.reshape(c, n, 1)).ravel()  # one dot product per channel
    g *= a
    g -= (a * dscale.reshape(a.shape) / n) * xhat
    np.subtract(g, a * dshift.reshape(a.shape) / n, out=dy)
    return dscale, dshift


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
    k, last = params.config.kernel_size, len(params.weights) - 1
    cache = {"input_shape": batch.shape, "train": train, "inputs": [], "bn": []}
    x, spare = _pad(batch[None], k), None  # spare: a buffer no later layer reads
    for i, w in enumerate(params.weights):
        j = i - 1  # batch-norm index of a middle layer
        if train:
            cache["inputs"].append(x)
        elif 0 < i < last:  # eval batch norm is conv(x, w*g) + shift - mean*g
            g = params.bn_scale[j] / np.sqrt(params.bn_var[j] + BN_EPS)
            w, folded = w * g[:, None, None, None], params.bn_shift[j] - params.bn_mean[j] * g
        y = _conv(x, w, spare if spare is not None and len(spare[0]) == len(w) else None)
        if i == last:
            break
        if train and i > 0:
            bn_cache, mean, var = _bn_forward_train(y[1], params.bn_scale[j], params.bn_shift[j])
            cache["bn"].append(bn_cache)
            params.bn_mean[j] = BN_MOMENTUM * params.bn_mean[j] + (1 - BN_MOMENTUM) * mean
            params.bn_var[j] = BN_MOMENTUM * params.bn_var[j] + (1 - BN_MOMENTUM) * var
        else:  # on whole rows, pads included
            np.add(y[0], (params.biases[0] if i == 0 else folded)[:, None], out=y[0])
        _leaky_forward(y[0])
        x, spare = _zero_pads(y, k), (None if train else x)
    out = y[1][0] + params.biases[1]
    out += batch
    return out, cache


def backward(params, cache, output_grads):
    """Gradients of a scalar loss w.r.t. every trainable parameter.

    output_grads is dLoss/dOutput with shape (N, H, W); the cache must come
    from a train-mode forward on the same batch.
    """
    if not cache.get("train"):
        raise ValueError("backward needs a cache from a train-mode forward")
    dy = np.asarray(output_grads, dtype=params.weights[0].dtype)[None]
    if dy.shape[1:] != cache["input_shape"]:
        raise ValueError("output gradient shape does not match cached batch")
    k, last = params.config.kernel_size, len(params.weights) - 1
    grads = {f"conv{last}.bias": _channel_sum(dy)}
    dy = _pad(dy, k)
    for i in range(last, -1, -1):
        if i < last:  # on whole rows: the next conv's cached input is the activation's output
            _leaky_backward(dy[0], cache["inputs"][i + 1][0])
            if i == 0:
                grads["conv0.bias"] = _channel_sum(dy[1])
            else:
                grads[f"bn{i - 1}.scale"], grads[f"bn{i - 1}.shift"] = _bn_backward(dy[1], cache["bn"][i - 1])
        grads[f"conv{i}.weight"], dy = _conv_grads(dy, cache["inputs"][i], params.weights[i], i > 0)
    return grads


def adam_step(params, grads, state, lr):
    """Bias-corrected Adam update, in place on params; returns (params, state)."""
    state.step += 1
    t, b1, b2 = state.step, ADAM_BETA1, ADAM_BETA2
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
    batch, target = rng.standard_normal((2, *GRADCHECK_BATCH))
    weight = rng.uniform(0.5, 1.5, size=GRADCHECK_BATCH)

    def loss_at(arr, idx, step):  # on a copy: train mode updates the running statistics
        orig = arr[idx]
        arr[idx] = orig + step
        out, _ = forward(params.astype(np.float64), batch, train=True)
        arr[idx] = orig
        return 0.5 * np.sum(weight * (out - target) ** 2)

    out, cache = forward(params.astype(np.float64), batch, train=True)
    grads = backward(params, cache, weight * (out - target))

    worst = 0.0
    for name, arr in params.flat():
        g = grads[name]
        for idx in np.ndindex(arr.shape):
            num = (loss_at(arr, idx, GRADCHECK_STEP) - loss_at(arr, idx, -GRADCHECK_STEP)) / (2 * GRADCHECK_STEP)
            worst = max(worst, abs(num - g[idx]) / max(abs(num), abs(g[idx]), 1e-8))
    return worst

"""The benchmark's three workloads and the counters recorded at layer boundaries.

Each workload is a closed loop with one client: an operation starts when the
previous one has completed.  ``setup`` builds every input from the seed,
``op`` runs one operation and checks its output, and ``report`` names the
workload's own metrics.  Calls into coil2coil go through module attributes
(``pairs.make_training_pair``, not a captured reference) so that the tracer's
wrappers see them.
"""

from __future__ import annotations

import importlib
import math
import os
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from tracing import tail_percentile

config = importlib.import_module("coil2coil.config")
datasets = importlib.import_module("coil2coil.datasets")
metrics = importlib.import_module("coil2coil.metrics")
net = importlib.import_module("coil2coil.network")
pairs = importlib.import_module("coil2coil.pairs")
tensorio = importlib.import_module("coil2coil.tensorio")
trainmod = importlib.import_module("coil2coil.train")  # coil2coil.train is the function

# Captured before any wrapping, so correctness checks stay out of the trace.
_read_back = tensorio.read_tensor

DESK_NET = net.NetworkConfig(depth=6, features=16, kernel_size=3)


def _train_config(seed):
    return trainmod.TrainConfig(epochs=4, batch_size=8, base_lr=1e-3, seed=seed)


@dataclass
class Tally:
    """What one operation, or a run of them, did."""

    samples_ms: list = field(default_factory=list)  # latencies of the timed unit
    items: int = 0  # work items the throughput counts
    busy_s: float = 0.0  # time the throughput is measured over
    attempted: int = 0
    failed: int = 0
    extra: dict = field(default_factory=dict)  # summed workload-specific totals

    def merge(self, other):
        self.samples_ms += other.samples_ms
        self.items += other.items
        self.busy_s += other.busy_s
        self.attempted += other.attempted
        self.failed += other.failed
        for key, value in other.extra.items():
            self.extra[key] = self.extra.get(key, 0) + value

    def throughput(self):
        return self.items / self.busy_s

    def p50(self):
        return tail_percentile(self.samples_ms, 50)

    def p90(self):
        return tail_percentile(self.samples_ms, 90)


def _finite(arr):
    return bool(np.all(np.isfinite(arr)))


def _latency(name, tally):
    """Median and p90 with the sample count; p90 only when it has 10 samples beyond it."""
    n = len(tally.samples_ms)
    out = [(f"{name}_ms_p50", tally.p50(), "ms", n)]
    if n >= 100:
        out.append((f"{name}_ms_p90", tally.p90(), "ms", n))
    return out


class TrainC2C:
    """C2C training at the acceptance-study shape, repeated from scratch.

    One operation trains for the fixed number of epochs and validates; the
    timed unit is the train step (forward, loss, backward, Adam).
    """

    name = "train-c2c"
    slices = 200
    val_slices = 24
    # The steps are timed from these two spans even when tracing is off.
    clock = {"network.forward", "network.adam_step"}

    def __init__(self):
        self.val_psnr = None  # first repeat's value; later repeats must match it bit for bit

    def setup(self, seed, workdir):
        cfg = config.load_config()
        self.data = datasets.simulate_dataset(cfg, self.slices, seed)
        self.val = datasets.simulate_dataset(cfg, self.val_slices, seed + 10_000)
        self.val_input_psnr = float(np.mean([
            metrics.psnr(pairs.combine_all(s.stack, s.sens), s.clean, s.mask) for s in self.val
        ]))
        self.config = _train_config(seed)

    def op(self, tracer):
        first = len(tracer.spans)
        t0 = time.perf_counter()
        params, log, _ = trainmod.train(self.data, DESK_NET, self.config)
        busy = time.perf_counter() - t0
        val = trainmod.validate(params, self.val)
        steps = step_times_ms(tracer.spans[first:])
        ok = (
            len(steps) == self.config.epochs * math.ceil(self.slices / self.config.batch_size)
            and all(math.isfinite(x) for x in log.losses)
            and val > self.val_input_psnr
            and (self.val_psnr is None or val == self.val_psnr)
        )
        if self.val_psnr is None:
            self.val_psnr = val
        return Tally(
            samples_ms=steps,
            items=self.config.epochs * self.slices,
            busy_s=busy,
            attempted=len(steps),
            failed=0 if ok else len(steps),
        )

    def quality(self):
        return self.val_psnr

    def report(self, tally):
        return [
            ("train_slices_per_s", tally.throughput(), "1/s", tally.items),
            *_latency("train_step", tally),
            ("val_psnr_db", self.val_psnr, "dB", self.val_slices),
            ("val_input_psnr_db", self.val_input_psnr, "dB", self.val_slices),
        ]


def step_times_ms(spans):
    """Train-step durations: each train-mode forward's start to the end of
    the Adam step that follows it."""
    out, start = [], None
    for name, t0, t1, _ in spans:
        if name == "network.forward":
            start = t0
        elif name == "network.adam_step" and start is not None:
            out.append((t1 - start) * 1e3)
            start = None
    return out


@dataclass
class _Request:
    stack: str
    sens: str
    mask: str
    clean: np.ndarray
    input_psnr: float


class DenoiseLarge:
    """Denoising requests on a 192x192 grid with 16 channels.

    Each request reads its stack, sensitivities and mask, denoises, writes
    the result and scores it against the clean image.
    """

    name = "denoise-large"
    grid = 192
    channels = 16
    requests = 12
    train_slices = 200
    model_seed = 20_000
    clock = set()

    def __init__(self):
        self.dir = None

    def setup(self, seed, workdir):
        # Every file is written fresh: on ext4, truncating and rewriting a
        # file forces its data to disk on close (auto_da_alloc), which would
        # time the disk instead of the program.
        if self.dir is not None:
            shutil.rmtree(self.dir)
        self.dir = tempfile.mkdtemp(dir=workdir)
        cfg = config.load_config()
        cfg["phantom"]["grid_size"] = self.grid
        cfg["coils"]["channels"] = self.channels
        rng = np.random.default_rng([seed, 1])
        self.pool = []
        for i in range(self.requests):
            s = datasets.simulate_slice(cfg, rng)
            paths = [os.path.join(self.dir, f"req{i}.{part}.c2t") for part in ("stack", "sens", "mask")]
            for path, arr in zip(paths, (s.stack, s.sens, s.mask)):
                tensorio.write_tensor(path, arr)
            # the input pSNR of what the request will read back: complex64 data
            noisy = pairs.combine_all(s.stack.astype(np.complex64), s.sens.astype(np.complex64))
            self.pool.append(_Request(*paths, s.clean, metrics.psnr(noisy, s.clean, s.mask)))

        # The model is the same for every seed, so that quality differences
        # between seeds come from the requests alone.
        cfg = config.load_config()
        cfg["coils"]["channels"] = self.channels
        data = datasets.simulate_dataset(cfg, self.train_slices, self.model_seed)
        params, _, _ = trainmod.train(data, DESK_NET, _train_config(self.model_seed))
        checkpoint = os.path.join(self.dir, "model.c2k")
        tensorio.save_checkpoint(checkpoint, params)
        self.params = tensorio.load_checkpoint(checkpoint)
        self.next = 0
        self.gains = {}

    def op(self, tracer):
        i = self.next % len(self.pool)
        self.next += 1
        req = self.pool[i]
        out_path = os.path.join(self.dir, f"out{self.next}.c2t")
        t0 = time.perf_counter()
        stack = tensorio.read_tensor(req.stack)
        sens = tensorio.read_tensor(req.sens)
        mask = tensorio.read_tensor(req.mask)
        out = trainmod.denoise(self.params, stack, sens, mask=mask)
        tensorio.write_tensor(out_path, out)
        out_psnr = metrics.psnr(out, req.clean, mask)
        metrics.ssim(out, req.clean, mask)
        busy = time.perf_counter() - t0
        gain = out_psnr - req.input_psnr
        ok = (
            _finite(out)
            and _read_back(out_path).tobytes() == out.astype(np.float32).tobytes()
            and gain > 0
        )
        self.gains[i] = gain
        os.remove(out_path)
        return Tally(samples_ms=[busy * 1e3], items=1, busy_s=busy, attempted=1, failed=0 if ok else 1)

    def quality(self):
        return statistics.fmean(self.gains.values())

    def report(self, tally):
        return [
            ("denoise_images_per_s", tally.throughput(), "1/s", tally.items),
            *_latency("denoise", tally),
            ("denoise_psnr_gain_db", self.quality(), "dB", len(self.gains)),
        ]


class WhitenMC:
    """Pair generation and the Monte-Carlo independence check.

    One operation visits one slice for each channel count: split, build the
    whitened pair, then estimate the input/label noise correlation from a
    fixed number of realizations.  Each slice reuses the same draws every
    time, the draws set-up used for the raw (unwhitened) correlation.
    """

    name = "whiten-mc"
    channel_counts = (4, 7, 16, 32)
    realizations = 40
    clock = set()

    def setup(self, seed, workdir):
        self.pool = []
        for m in self.channel_counts:
            cfg = config.load_config()
            cfg["coils"]["channels"] = m
            # high SNR and strong channel correlation: the regime where the
            # analytic noise model holds and raw pairs are clearly correlated
            cfg["noise"].update(sigma=0.2, rho_min=0.3, rho_max=0.6)
            s = datasets.simulate_slice(cfg, np.random.default_rng([seed, 2, m]))
            draws = [seed, 3, m]
            rng = np.random.default_rng(draws)
            split = pairs.split_channels(m, rng)
            raw = pairs.empirical_noise_correlation(
                s.phantom, s.sens, s.psi, split, s.mask, self.realizations, rng, whiten=False
            )
            self.pool.append((m, s, draws, raw))
        self.whitened = {}

    def op(self, tracer):
        pair_s = mc_s = 0.0
        ok = True
        t0 = time.perf_counter()
        for m, s, draws, _ in self.pool:
            rng = np.random.default_rng(draws)
            t1 = time.perf_counter()
            split = pairs.split_channels(m, rng)
            pair = pairs.make_training_pair(s.stack, s.sens, s.psi, split, s.mask)
            t2 = time.perf_counter()
            corr = pairs.empirical_noise_correlation(
                s.phantom, s.sens, s.psi, split, s.mask, self.realizations, rng
            )
            t3 = time.perf_counter()
            pair_s += t2 - t1
            mc_s += t3 - t2
            ok = ok and _finite(pair.image_label) and math.isfinite(corr)
            self.whitened[m] = corr
        busy = time.perf_counter() - t0
        # Compared over the cycle, not per slice: a split whose raw covariance
        # is zero (4 coils in quadrature, split 0,2 | 1,3) needs no whitening,
        # and its whitened and raw figures are then equal.
        ok = ok and self.whitened_corr() < self.raw_corr()
        return Tally(
            samples_ms=[busy * 1e3],
            items=len(self.pool),
            busy_s=pair_s,
            attempted=1,
            failed=0 if ok else 1,
            extra={"mc_s": mc_s, "realizations": self.realizations * len(self.pool)},
        )

    def whitened_corr(self):
        return statistics.fmean(self.whitened.values())

    def raw_corr(self):
        return statistics.fmean(raw for *_, raw in self.pool)

    def quality(self):
        """Whitened mean |corr| on a dB scale, so that higher is better."""
        return -20.0 * math.log10(self.whitened_corr())

    def report(self, tally):
        return [
            ("pairs_per_s", tally.throughput(), "1/s", tally.items),
            ("mc_realizations_per_s", tally.extra["realizations"] / tally.extra["mc_s"], "1/s",
             tally.extra["realizations"]),
            *_latency("cycle", tally),
            ("whitened_corr", self.whitened_corr(), "1", len(self.pool)),
            ("raw_corr", self.raw_corr(), "1", len(self.pool)),
        ]


WORKLOADS = {w.name: w for w in (TrainC2C, DenoiseLarge, WhitenMC)}


# ---- layer counts -------------------------------------------------------

def _conv_channels(cfg):
    f = cfg.features
    return [(1, f)] + [(f, f)] * (cfg.depth - 2) + [(f, 1)]


def conv_flops(cfg, n, h, w):
    """FLOPs of the convolutions in one forward pass: 2*N*H*W*C_in*C_out*k^2
    per layer.  A train step counts three times this (forward, input
    gradient, weight gradient)."""
    k2 = cfg.kernel_size**2
    return 2 * n * h * w * k2 * sum(ci * co for ci, co in _conv_channels(cfg))


def im2col_bytes(cfg, n, h, w, itemsize):
    """Bytes of the patch tensors one forward pass builds (N*C_in*k^2*H*W per layer)."""
    k2 = cfg.kernel_size**2
    return n * h * w * k2 * sum(ci for ci, _ in _conv_channels(cfg)) * itemsize


def _forward_name(args, kwargs):
    train = kwargs.get("train", args[2] if len(args) > 2 else False)
    return "network.forward" if train else "network.forward_eval"


def _count_forward(tracer, args, kwargs, result):
    params, batch = args[0], np.asarray(args[1])
    n, h, w = (1, *batch.shape) if batch.ndim == 2 else batch.shape
    flops = conv_flops(params.config, n, h, w)
    tracer.add("conv_flop", flops)
    tracer.add("im2col_bytes", im2col_bytes(params.config, n, h, w, params.weights[0].itemsize))
    if _forward_name(args, kwargs) == "network.forward_eval":
        tracer.counts["conv_flop_per_image"] = flops / n


def _count_backward(tracer, args, kwargs, result):
    params, cache = args[0], args[1]
    flops = conv_flops(params.config, *cache["input_shape"])
    tracer.add("conv_flop", 2 * flops)
    tracer.counts["conv_flop_per_step"] = 3 * flops


def _count_pair(tracer, args, kwargs, result):
    mask = kwargs.get("mask", args[4] if len(args) > 4 else None)
    tracer.add("fallback", result.n_fallback)
    tracer.add("masked", int(np.count_nonzero(mask)))
    tracer.lowest("min_coverage", min(result.coverage_j, result.coverage_k))


def _count_bytes(key):
    def hook(tracer, args, kwargs, result):
        tracer.add(key, os.path.getsize(args[0]))

    return hook


HOOKS = {
    "network.forward": (_forward_name, _count_forward),
    "network.backward": (None, _count_backward),
    "pairs.make_training_pair": (None, _count_pair),
    "tensorio.read_tensor": (None, _count_bytes("bytes_read")),
    "tensorio.load_checkpoint": (None, _count_bytes("bytes_read")),
    "tensorio.write_tensor": (None, _count_bytes("bytes_written")),
    "tensorio.save_checkpoint": (None, _count_bytes("bytes_written")),
}


def targets(spans):
    """instrument() targets for the (span, module, function) triples."""
    out = []
    for span, module, function in spans:
        name, hook = HOOKS.get(span, (None, None))
        out.append((span, module, function, name or span, hook))
    return out


def fullscale_step(seed):
    """(ms, GFLOP/s) of one forward+backward of NetworkConfig.full_scale()
    at batch 8 on 32x32 -- the GEMM-bound shape beside the desk network."""
    cfg = net.NetworkConfig.full_scale()
    rng = np.random.default_rng([seed, 4])
    params = net.init_network(cfg, rng)
    batch = rng.standard_normal((8, 32, 32))
    t0 = time.perf_counter()
    out, cache = net.forward(params, batch, train=True)
    net.backward(params, cache, out)
    dt = time.perf_counter() - t0
    return dt * 1e3, 3 * conv_flops(cfg, 8, 32, 32) / dt / 1e9

"""What the benchmark measures: workloads, metrics, bounds and traced spans.

This module is plain data so that ``BENCHMARK.json`` can be written from it
without importing numpy or the package under test.
"""

from __future__ import annotations

RUN_SECONDS = 20
# Set-up runs at least SETUP_REPEATS times and until SETUP_SECONDS have passed;
# setup_s is the median.
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0

# (name, why) -- each workload runs in its own process, one closed-loop client.
WORKLOADS = [
    (
        "train-c2c",
        "C2C training at the acceptance-study shape: network in train mode is ~90% of it, "
        "the per-epoch pair rebuild ~10%; the yardstick for conv-engine changes",
    ),
    (
        "denoise-large",
        "192x192x16-channel requests: read, eval-mode denoise with patch tensors larger than "
        "L3, write, pSNR/SSIM; network ~75%, pairs only via combine_all",
    ),
    (
        "whiten-mc",
        "channel split, whitened pairs and the Monte-Carlo independence check for "
        "m = 4, 7, 16, 32; never touches network, the bypass for every network change",
    ),
]

# (name, unit, better, bound).  Every workload reports every metric; what each
# one measures on each workload is tabulated in perfbench/README.md.  The
# timing bounds are wide because run-to-run spread on a shared 2-core host
# was 4-10% of the median (README.md, "Spread").
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.2),
    ("throughput_per_s", "1/s", "higher", 0.24),
    ("op_ms_p50", "ms", "lower", 0.24),
    ("op_ms_p90", "ms", "lower", 0.24),
    ("quality_db", "dB", "higher", 0.1),
]

# (span name, module, function) -- wrapped at every binding of the function
# inside the coil2coil package.  network.forward records eval-mode calls as
# network.forward_eval.
SPANS = [
    ("datasets.simulate_slice", "coil2coil.datasets", "simulate_slice"),
    ("train.train", "coil2coil.train", "train"),
    ("train.validate", "coil2coil.train", "validate"),
    ("train.denoise", "coil2coil.train", "denoise"),
    ("train.c2c_loss", "coil2coil.train", "c2c_loss"),
    ("pairs.epoch", "coil2coil.train", "_epoch_pairs"),
    ("network.forward", "coil2coil.network", "forward"),
    ("network.backward", "coil2coil.network", "backward"),
    ("network.adam_step", "coil2coil.network", "adam_step"),
    ("pairs.split_channels", "coil2coil.pairs", "split_channels"),
    ("pairs.make_training_pair", "coil2coil.pairs", "make_training_pair"),
    ("pairs.whitening_coefficients", "coil2coil.pairs", "whitening_coefficients"),
    ("pairs.combine_all", "coil2coil.pairs", "combine_all"),
    ("pairs.empirical_noise_correlation", "coil2coil.pairs", "empirical_noise_correlation"),
    ("imaging.propagate_noise_stats", "coil2coil.imaging", "propagate_noise_stats"),
    ("imaging.coil_combine", "coil2coil.imaging", "coil_combine"),
    ("imaging.effective_sensitivity", "coil2coil.imaging", "effective_sensitivity"),
    ("tensorio.read_tensor", "coil2coil.tensorio", "read_tensor"),
    ("tensorio.write_tensor", "coil2coil.tensorio", "write_tensor"),
    ("tensorio.save_checkpoint", "coil2coil.tensorio", "save_checkpoint"),
    ("tensorio.load_checkpoint", "coil2coil.tensorio", "load_checkpoint"),
    ("metrics.psnr", "coil2coil.metrics", "psnr"),
    ("metrics.ssim", "coil2coil.metrics", "ssim"),
]


def span_names():
    names = []
    for name, _, _ in SPANS:
        names.append(name)
        if name == "network.forward":
            names.append("network.forward_eval")
    return names


# Per-layer metrics computed from counts or from dedicated timings, not from
# span durations alone.  (name, unit)
DERIVED = [
    ("network.conv_gflop_per_step", "GFLOP"),
    ("network.conv_gflop_per_image", "GFLOP"),
    ("network.conv_gflops", "GFLOP/s"),
    ("network.im2col_mb", "MB"),
    ("network.fullscale_step_ms", "ms"),
    ("network.fullscale_conv_gflops", "GFLOP/s"),
    ("pairs.fallback_ratio", "ratio"),
    ("pairs.masked_voxels", "count"),
    ("pairs.min_coverage", "ratio"),
    ("tensorio.bytes_read", "B"),
    ("tensorio.bytes_written", "B"),
    ("trace.op_ms_p50_untraced", "ms"),
    ("trace.op_ms_p50_traced", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.covered_share", "ratio"),
    ("trace.spans", "count"),
]

# Which way a per-layer metric should move when a change helps.
# Counts of work done are "higher": a run lasts a fixed time, so a faster
# layer gets through more of it.
_HIGHER = {
    "network.conv_gflops",
    "network.fullscale_conv_gflops",
    "pairs.masked_voxels",
    "pairs.min_coverage",
    "tensorio.bytes_read",
    "tensorio.bytes_written",
    "trace.covered_share",
    "trace.spans",
}


def per_layer():
    """(name, unit, better) for every per-layer metric, in report order."""
    out = []
    for span in span_names():
        out.append((f"{span}.calls", "count", "higher"))
        out.append((f"{span}_ms", "ms", "lower"))
        out.append((f"{span}.self_ms", "ms", "lower"))
    for name, unit in DERIVED:
        out.append((name, unit, "higher" if name in _HIGHER else "lower"))
    return out


def benchmark_json():
    """The contents of BENCHMARK.json at the repository root."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in per_layer()],
    }

"""Tests of the benchmark's own code.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import importlib
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path[:0] = [str(HERE.parent), str(ROOT / "src")]

import spec  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, instrument, summarize, tail_percentile  # noqa: E402

pairs_mod = importlib.import_module("coil2coil.pairs")
train_mod = importlib.import_module("coil2coil.train")
network_mod = importlib.import_module("coil2coil.network")


def _bindings_of(func):
    return [
        (name, attr)
        for name, mod in sys.modules.items()
        if mod is not None and (name == "coil2coil" or name.startswith("coil2coil."))
        for attr, value in vars(mod).items()
        if value is func
    ]


def test_wrappers_cover_every_binding_and_restore_the_originals():
    original = pairs_mod.make_training_pair
    bindings = _bindings_of(original)
    # defined in pairs, imported by name into train and the package
    assert {("coil2coil.pairs", "make_training_pair"), ("coil2coil.train", "make_training_pair")} <= set(bindings)
    with instrument(Tracer(), workloads.targets(spec.SPANS)):
        assert train_mod.make_training_pair is not original
        assert pairs_mod.make_training_pair is train_mod.make_training_pair
        assert _bindings_of(original) == []
    assert _bindings_of(original) == bindings
    assert network_mod.forward.__module__ == "coil2coil.network"


def test_originals_restored_after_an_exception():
    original = network_mod.forward
    with pytest.raises(RuntimeError):
        with instrument(Tracer(), workloads.targets(spec.SPANS)):
            assert network_mod.forward is not original
            raise RuntimeError("boom")
    assert network_mod.forward is original


def test_calls_through_another_modules_binding_are_recorded():
    cfg = workloads.config.load_config()
    cfg["phantom"]["grid_size"] = 16
    cfg["coils"]["channels"] = 4
    tracer = Tracer()
    with instrument(tracer, workloads.targets(spec.SPANS)):
        workloads.datasets.simulate_slice(cfg, np.random.default_rng(0))
    names = [s[0] for s in tracer.spans]
    assert names[0] == "datasets.simulate_slice"
    # datasets calls its own binding of pairs.combine_all
    combine = names.index("pairs.combine_all")
    assert tracer.spans[combine][3] == 0


def test_only_limits_the_installed_wrappers():
    tracer = Tracer(only={"network.adam_step"})
    original_forward = network_mod.forward
    with instrument(tracer, workloads.targets(spec.SPANS)):
        assert network_mod.forward is original_forward
        assert network_mod.adam_step.__wrapped__ is not None


def test_self_time_of_nested_spans():
    spans = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],
        ["b", 5.0, 9.0, 0],
    ]
    out = summarize(spans)
    assert out["a"] == (1, 10.0, 3.0)  # 10 - (3 + 4)
    assert out["b"] == (2, 7.0, 6.0)  # (3 - 1) + 4
    assert out["c"] == (1, 1.0, 1.0)


def test_step_times_pair_each_forward_with_the_next_adam_step():
    spans = [
        ["network.forward", 0.0, 1.0, -1],
        ["network.backward", 1.0, 2.0, -1],
        ["network.adam_step", 2.0, 2.5, -1],
        ["network.forward", 3.0, 4.0, -1],
        ["network.adam_step", 4.0, 4.25, -1],
    ]
    assert workloads.step_times_ms(spans) == [2500.0, 1250.0]


def test_conv_flops_match_a_hand_count():
    cfg = network_mod.NetworkConfig(depth=3, features=2, kernel_size=3)
    # layers 1->2, 2->2, 2->1: multiply-adds per output pixel
    # 1*2*9 + 2*2*9 + 2*1*9 = 72, so 144 FLOPs; N*H*W = 2*4*5 pixels
    assert workloads.conv_flops(cfg, 2, 4, 5) == 144 * 2 * 4 * 5
    # patch tensors: N*H*W*k^2*(1 + 2 + 2) float64 values
    assert workloads.im2col_bytes(cfg, 2, 4, 5, 8) == 2 * 4 * 5 * 9 * 5 * 8


def test_forward_hook_counts_flops_of_the_actual_call():
    cfg = network_mod.NetworkConfig(depth=3, features=2, kernel_size=3)
    params = network_mod.init_network(cfg, np.random.default_rng(0))
    tracer = Tracer(only={"network.forward", "network.backward"})
    with instrument(tracer, workloads.targets(spec.SPANS)):
        out, cache = network_mod.forward(params, np.ones((2, 4, 5)), train=True)
        network_mod.backward(params, cache, out)
        network_mod.forward(params, np.ones((4, 5)))
    fwd = workloads.conv_flops(cfg, 2, 4, 5)
    assert [s[0] for s in tracer.spans] == ["network.forward", "network.backward", "network.forward_eval"]
    assert tracer.counts["conv_flop_per_step"] == 3 * fwd
    assert tracer.counts["conv_flop_per_image"] == fwd / 2
    assert tracer.counts["conv_flop"] == 3 * fwd + fwd / 2


def test_percentile_needs_ten_samples_beyond_it():
    samples = [float(i) for i in range(1, 101)]
    assert tail_percentile(samples, 50) == pytest.approx(50.5)
    assert tail_percentile(samples, 90) == pytest.approx(90.1)
    with pytest.raises(ValueError):
        tail_percentile(samples[:99], 90)
    assert tail_percentile(samples[:20], 50) == pytest.approx(10.5)
    with pytest.raises(ValueError):
        tail_percentile(samples[:19], 50)


def test_benchmark_json_is_written_from_the_spec_and_within_limits():
    data = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert data == spec.benchmark_json()
    names = [m["name"] for m in data["end_to_end"] + data["per_layer"]] + [w["name"] for w in data["workloads"]]
    assert len(names) == len(set(names))
    assert all(len(w["why"]) <= 200 for w in data["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in data["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in data["end_to_end"]
    assert max(m["bound"] for m in data["end_to_end"]) == 0.25
    assert 1 <= len(data["per_layer"]) <= 128
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    units = [m["unit"] for m in data["end_to_end"] + data["per_layer"]]
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", u) for u in units)

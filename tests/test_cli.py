import dataclasses
import json
import struct

import numpy as np
import pytest

from coil2coil.cli import cli_main
from coil2coil.network import NetworkConfig, init_network
from coil2coil.tensorio import read_tensor, tensor_bytes, write_tensor

TINY_CONFIG = """
[phantom]
grid_size = 16

[coils]
channels = 4

[noise]
sigma = 0.5

[network]
depth = 3
features = 4

[training]
epochs = 2
batch_size = 4
slices = 4
val_slices = 0
base_lr = 0.001
"""


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(TINY_CONFIG)
    return path


def tree_bytes(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


class TestSimulate:
    def test_outputs_and_zero_sigma(self, tmp_path, tiny_config):
        out = tmp_path / "sim"
        code = cli_main([
            "simulate", "--config", str(tiny_config), "--out", str(out),
            "--seed", "3", "--sigma", "0",
        ])
        assert code == 0
        for name in ("phantom", "sens", "psi", "mask", "stack", "clean_stack", "clean"):
            assert (out / f"{name}.c2t").exists()
        # zero noise: the acquisition equals the clean per-channel stack
        # (value equality; adding a zero noise term can flip signed zeros)
        stack = read_tensor(out / "stack.c2t")
        clean_stack = read_tensor(out / "clean_stack.c2t")
        assert stack.dtype == clean_stack.dtype
        assert np.array_equal(stack, clean_stack)

    def test_deterministic(self, tmp_path, tiny_config):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert cli_main(["simulate", "--config", str(tiny_config), "--out", str(out), "--seed", "5"]) == 0
        assert tree_bytes(a) == tree_bytes(b)


class TestPairgen:
    def test_outputs_and_determinism(self, tmp_path, tiny_config):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            code = cli_main([
                "pairgen", "--config", str(tiny_config), "--out", str(out),
                "--seed", "2", "--realizations", "500",
            ])
            assert code == 0
        assert tree_bytes(a) == tree_bytes(b)
        diag = (a / "diagnostics.csv").read_text().splitlines()
        values = dict(line.split(",") for line in diag[1:])
        assert float(values["noise_correlation_whitened"]) < float(values["noise_correlation_raw"])

    def test_no_whiten_flag(self, tmp_path, tiny_config):
        out = tmp_path / "raw"
        code = cli_main([
            "pairgen", "--config", str(tiny_config), "--out", str(out),
            "--seed", "2", "--realizations", "500", "--no-whiten",
        ])
        assert code == 0
        assert (out / "label.c2t").exists()


class TestTrainDenoiseEval:
    def test_end_to_end(self, tmp_path, tiny_config):
        run_a, run_b = tmp_path / "ta", tmp_path / "tb"
        for out in (run_a, run_b):
            assert cli_main(["train", "--config", str(tiny_config), "--out", str(out), "--seed", "1"]) == 0
        # training is bit-deterministic apart from the wall-time file
        bytes_a, bytes_b = tree_bytes(run_a), tree_bytes(run_b)
        bytes_a.pop("timing.txt")
        bytes_b.pop("timing.txt")
        assert bytes_a == bytes_b
        log = (run_a / "trainlog.csv").read_text().splitlines()
        assert log[0] == "epoch,loss,lr,val_psnr"
        assert len(log) == 3  # header + 2 epochs

        sim = tmp_path / "sim"
        assert cli_main(["simulate", "--config", str(tiny_config), "--out", str(sim), "--seed", "9"]) == 0
        den = tmp_path / "den"
        code = cli_main([
            "denoise", "--checkpoint", str(run_a / "checkpoint.c2k"),
            "--stack", str(sim / "stack.c2t"), "--sens", str(sim / "sens.c2t"),
            "--mask", str(sim / "mask.c2t"), "--out", str(den),
        ])
        assert code == 0
        result = read_tensor(den / "denoised.c2t")
        assert result.shape == read_tensor(sim / "clean.c2t").shape
        assert (den / "denoised.pgm").exists()

        # denoising a pre-combined image works too
        den2 = tmp_path / "den2"
        code = cli_main([
            "denoise", "--checkpoint", str(run_a / "checkpoint.c2k"),
            "--image", str(den / "denoised.c2t"), "--out", str(den2),
        ])
        assert code == 0

        ev = tmp_path / "ev"
        code = cli_main([
            "eval", "--ref", str(sim / "clean.c2t"), "--mask", str(sim / "mask.c2t"),
            "--images", str(den / "denoised.c2t"), "--out", str(ev),
        ])
        assert code == 0
        assert (ev / "metrics.csv").exists()

    def test_eval_self_comparison_and_ttest(self, tmp_path, tiny_config):
        sim = tmp_path / "sim"
        assert cli_main(["simulate", "--config", str(tiny_config), "--out", str(sim), "--seed", "4"]) == 0
        ev = tmp_path / "ev"
        clean = str(sim / "clean.c2t")
        noisy = str(sim / "stack.c2t")  # not used; two clean copies below
        code = cli_main([
            "eval", "--ref", clean, "--mask", str(sim / "mask.c2t"),
            "--images", f"{clean},{clean}", "--out", str(ev),
        ])
        assert code == 0
        rows = (ev / "metrics.csv").read_text().splitlines()
        for row in rows[1:]:
            _, _, p, s = row.split(",")
            assert p == "inf"
            assert float(s) == pytest.approx(1.0, abs=1e-12)

    def test_denoise_argument_validation(self, tmp_path, tiny_config):
        run = tmp_path / "t"
        assert cli_main(["train", "--config", str(tiny_config), "--out", str(run), "--seed", "1"]) == 0
        code = cli_main([
            "denoise", "--checkpoint", str(run / "checkpoint.c2k"), "--out", str(tmp_path / "x"),
        ])
        assert code == 1


class TestErrorsAndGradcheck:
    def test_usage_error(self):
        assert cli_main(["bogus"]) == 1
        assert cli_main([]) == 1

    def test_help_exits_zero(self):
        assert cli_main(["--help"]) == 0

    def test_missing_file_is_data_error(self, tmp_path):
        code = cli_main([
            "denoise", "--checkpoint", str(tmp_path / "nope.c2k"),
            "--image", str(tmp_path / "nope.c2t"), "--out", str(tmp_path / "o"),
        ])
        assert code == 2

    def test_bad_config_is_data_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[training]\nbogus = 1\n")
        assert cli_main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_corrupt_tensor_is_data_error(self, tmp_path, tiny_config):
        sim = tmp_path / "sim"
        assert cli_main(["simulate", "--config", str(tiny_config), "--out", str(sim), "--seed", "0"]) == 0
        bad = sim / "clean.c2t"
        bad.write_bytes(bad.read_bytes()[:-2])
        code = cli_main([
            "eval", "--ref", str(bad), "--mask", str(sim / "mask.c2t"),
            "--images", str(bad), "--out", str(tmp_path / "ev"),
        ])
        assert code == 2

    @staticmethod
    def _denoise_with_checkpoint(tmp_path, config, state):
        head = json.dumps({"config": config, "tensors": [name for name, _ in state]}).encode()
        ckpt = tmp_path / "bad.c2k"
        ckpt.write_bytes(
            struct.pack("<I", len(head)) + head + b"".join(tensor_bytes(arr) for _, arr in state)
        )
        image = tmp_path / "image.c2t"
        write_tensor(image, np.ones((8, 8)))
        return cli_main([
            "denoise", "--checkpoint", str(ckpt), "--image", str(image), "--out", str(tmp_path / "o"),
        ])

    def test_checkpoint_missing_tensor_is_data_error(self, tmp_path):
        params = init_network(NetworkConfig(depth=3, features=4), np.random.default_rng(0))
        state = params.flat() + [("bn0.mean", params.bn_mean[0])]  # no bn0.var
        config = dataclasses.asdict(params.config)
        assert self._denoise_with_checkpoint(tmp_path, config, state) == 2

    def test_checkpoint_nan_features_is_data_error(self, tmp_path):
        params = init_network(NetworkConfig(depth=3, features=4), np.random.default_rng(0))
        config = {**dataclasses.asdict(params.config), "features": float("nan")}
        assert self._denoise_with_checkpoint(tmp_path, config, params.state()) == 2

    def test_gradcheck_passes(self, capsys):
        assert cli_main(["gradcheck"]) == 0
        assert "max relative error" in capsys.readouterr().out

import dataclasses
import json
import struct

import numpy as np
import pytest

from coil2coil.cli import cli_main
from coil2coil.metrics import paired_t_test, psnr, ssim
from coil2coil.network import NetworkConfig, init_network
from coil2coil.tensorio import load_checkpoint, read_tensor, save_checkpoint, tensor_bytes, write_tensor
from coil2coil.train import denoise

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

    def test_sigma_flag_sets_the_config_noise_sigma(self, tmp_path, tiny_config):
        cfg = tmp_path / "loud.cfg"
        cfg.write_text(tiny_config.read_text().replace("sigma = 0.5", "sigma = 0.7"))
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli_main(["simulate", "--config", str(tiny_config), "--out", str(a), "--sigma", "0.7"]) == 0
        assert cli_main(["simulate", "--config", str(cfg), "--out", str(b)]) == 0
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

    @pytest.mark.parametrize("n", ["0", "1"])
    def test_fewer_than_two_realizations_is_data_error(self, tmp_path, tiny_config, capsys, n):
        # one or no realization has no sample variance: refused before any file is written
        out = tmp_path / "pair"
        code = cli_main([
            "pairgen", "--config", str(tiny_config), "--out", str(out), "--realizations", n,
        ])
        assert code == 2
        assert "n_real >= 2" in capsys.readouterr().err
        assert not out.exists()


class TestTrainDenoiseEval:
    def test_n2n_train_draws_the_second_realization(self, tmp_path, capsys):
        # the mode's MODES entry asks for each slice's stack_b, so train
        # simulates a second noise realization; without it training refuses
        cfg = tmp_path / "n2n.cfg"
        cfg.write_text(TINY_CONFIG + "mode = N2N\n")
        out = tmp_path / "run"
        assert cli_main(["train", "--config", str(cfg), "--out", str(out), "--seed", "1"]) == 0
        assert capsys.readouterr().out.startswith("train: N2N, final loss ")
        assert len((out / "trainlog.csv").read_text().splitlines()) == 3

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

    def test_denoise_file_equals_denoise_on_the_tensors_as_read(self, tmp_path):
        # the complex64 tensors go to denoise as read, as perfbench's requests pass them
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[phantom]\ngrid_size = 32\n[coils]\nchannels = 8\n")
        sim, den, ckpt = tmp_path / "sim", tmp_path / "den", tmp_path / "net.c2k"
        assert cli_main(["simulate", "--config", str(cfg), "--out", str(sim), "--seed", "2"]) == 0
        params = init_network(NetworkConfig(depth=3, features=4), np.random.default_rng(0))
        save_checkpoint(ckpt, params)
        assert cli_main([
            "denoise", "--checkpoint", str(ckpt), "--stack", str(sim / "stack.c2t"),
            "--sens", str(sim / "sens.c2t"), "--mask", str(sim / "mask.c2t"), "--out", str(den),
        ]) == 0
        want = denoise(
            load_checkpoint(ckpt), read_tensor(sim / "stack.c2t"), read_tensor(sim / "sens.c2t"),
            mask=read_tensor(sim / "mask.c2t"),
        )
        assert read_tensor(den / "denoised.c2t").tobytes() == want.astype(np.float32).tobytes()

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

    def test_eval_files_match_the_metric_functions(self, tmp_path, capsys):
        rng = np.random.default_rng(11)
        ref = rng.uniform(0.2, 1.0, (12, 12)).astype(np.float32)
        mask = np.zeros((12, 12), bool)
        mask[2:10, 1:11] = True
        write_tensor(tmp_path / "ref.c2t", ref)
        write_tensor(tmp_path / "mask.c2t", mask)
        sets = {}
        for name, noise in (("a", 0.05), ("b", 0.1)):
            imgs = [(ref + noise * k * rng.standard_normal(ref.shape)).astype(np.float32) for k in (1, 2, 3)]
            for i, img in enumerate(imgs):
                write_tensor(tmp_path / f"{name}{i}.c2t", img)
            sets[name] = imgs
        ev = tmp_path / "ev"
        code = cli_main([
            "eval", "--ref", str(tmp_path / "ref.c2t"), "--mask", str(tmp_path / "mask.c2t"),
            "--images", ",".join(str(tmp_path / f"a{i}.c2t") for i in range(3)),
            "--images-b", ",".join(str(tmp_path / f"b{i}.c2t") for i in range(3)), "--out", str(ev),
        ])
        assert code == 0
        scores = {
            name: [(psnr(img, ref, mask), ssim(img, ref, mask)) for img in imgs]
            for name, imgs in sets.items()
        }
        want = ["set,index,psnr_db,ssim"] + [
            f"{name},{i},{p:.12g},{q:.12g}" for name, vals in scores.items() for i, (p, q) in enumerate(vals)
        ]
        assert (ev / "metrics.csv").read_text().splitlines() == want
        (pa, sa), (pb, sb) = (list(zip(*scores[name])) for name in "ab")
        want = ["metric,t,p"] + [
            f"{m},{t:.12g},{pv:.12g}" for m, (t, pv) in (("psnr", paired_t_test(pa, pb)), ("ssim", paired_t_test(sa, sb)))
        ]
        assert (ev / "ttest.csv").read_text().splitlines() == want
        assert capsys.readouterr().out == (
            f"eval: pSNR {np.mean(pa):.2f} +/- {np.std(pa, ddof=1):.2f} dB, "
            f"SSIM {np.mean(sa):.4f} +/- {np.std(sa, ddof=1):.4f}\n"
        )

    @pytest.mark.parametrize(
        "case, match",
        [
            ("image-mask-shape", "mask shape"),
            ("stack-mask-shape", "mask shape"),
            ("empty-mask", "no true voxels"),
            ("1-d-image", "2-D"),
        ],
    )
    def test_denoise_refuses_bad_masks_and_images(self, tmp_path, capsys, case, match):
        ckpt = tmp_path / "ckpt.c2k"
        save_checkpoint(ckpt, init_network(NetworkConfig(depth=3, features=2), np.random.default_rng(0)))
        files = {name: tmp_path / f"{name}.c2t" for name in ("image", "stack", "sens", "mask")}
        write_tensor(files["image"], np.ones(8) if case == "1-d-image" else np.ones((8, 8)))
        write_tensor(files["stack"], np.ones((2, 8, 8), complex))
        write_tensor(files["sens"], np.ones((2, 8, 8), complex))
        mask = np.zeros((8, 8), bool) if case == "empty-mask" else np.ones((8, 9), bool)
        write_tensor(files["mask"], mask)
        inputs = ["--stack", str(files["stack"]), "--sens", str(files["sens"])] if case.startswith("stack") else [
            "--image", str(files["image"])]
        if case != "1-d-image":
            inputs += ["--mask", str(files["mask"])]
        code = cli_main(["denoise", "--checkpoint", str(ckpt), *inputs, "--out", str(tmp_path / "o")])
        assert code == 2
        assert match in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_ttest_on_an_image_equal_to_the_reference_is_data_error(self, tmp_path, capsys):
        rng = np.random.default_rng(12)
        ref = rng.uniform(0.2, 1.0, (8, 8))
        paths = {name: tmp_path / f"{name}.c2t" for name in ("ref", "mask", "a", "b")}
        write_tensor(paths["ref"], ref)
        write_tensor(paths["mask"], np.ones((8, 8), bool))
        write_tensor(paths["a"], ref + 0.05 * rng.standard_normal(ref.shape))
        write_tensor(paths["b"], ref + 0.1 * rng.standard_normal(ref.shape))
        code = cli_main([
            "eval", "--ref", str(paths["ref"]), "--mask", str(paths["mask"]),
            "--images", f"{paths['a']},{paths['b']}", "--images-b", f"{paths['ref']},{paths['a']}",
            "--out", str(tmp_path / "ev"),
        ])
        assert code == 2
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "ev").exists()

    @pytest.mark.parametrize("command", ["denoise", "eval"])
    @pytest.mark.parametrize("dtype", [np.float32, np.complex64])
    def test_non_bool_mask_is_refused(self, tmp_path, capsys, command, dtype):
        # a mask of probabilities would count every nonzero voxel as inside
        image, mask = tmp_path / "image.c2t", tmp_path / "mask.c2t"
        write_tensor(image, np.ones((8, 8)))
        write_tensor(mask, np.full((8, 8), 0.2, dtype))
        if command == "denoise":
            ckpt = tmp_path / "ckpt.c2k"
            save_checkpoint(ckpt, init_network(NetworkConfig(depth=3, features=2), np.random.default_rng(0)))
            argv = ["denoise", "--checkpoint", str(ckpt), "--image", str(image)]
        else:
            argv = ["eval", "--ref", str(image), "--images", str(image)]
        code = cli_main([*argv, "--mask", str(mask), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "mask.c2t: expected a bool mask" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("which", ["denoise-image", "eval-ref", "eval-images", "eval-images-b"])
    def test_complex_image_is_refused(self, tmp_path, capsys, which):
        ckpt = tmp_path / "ckpt.c2k"
        save_checkpoint(ckpt, init_network(NetworkConfig(depth=3, features=2), np.random.default_rng(0)))
        real, cplx, mask = tmp_path / "real.c2t", tmp_path / "cplx.c2t", tmp_path / "mask.c2t"
        write_tensor(real, np.ones((8, 8)))
        write_tensor(cplx, np.ones((8, 8)) + 0.5j)
        write_tensor(mask, np.ones((8, 8), bool))
        if which == "denoise-image":
            argv = ["denoise", "--checkpoint", str(ckpt), "--image", str(cplx)]
        else:
            argv = ["eval", "--mask", str(mask)]
            for key in ("ref", "images", "images-b"):
                path = cplx if which == f"eval-{key}" else real
                argv += [f"--{key}", str(path) if key == "ref" else f"{real},{path}"]
        code = cli_main([*argv, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "cplx.c2t" in capsys.readouterr().err

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

    def test_checkpoint_from_before_the_constants_is_data_error(self, tmp_path, capsys):
        # the layout earlier versions wrote: their config named the leaky slope
        # and batch-norm settings that are constants now
        params = init_network(NetworkConfig(depth=3, features=4), np.random.default_rng(0))
        config = {**dataclasses.asdict(params.config), "leaky_slope": 0.1, "bn_momentum": 0.9, "bn_eps": 1e-5}
        assert self._denoise_with_checkpoint(tmp_path, config, params.state()) == 2
        assert "bad.c2k" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_deeply_nested_checkpoint_header_is_data_error(self, tmp_path, capsys):
        # json.loads raises RecursionError on this header
        ckpt = tmp_path / "deep.c2k"
        ckpt.write_bytes(struct.pack("<I", 100_000) + b"[" * 100_000)
        image = tmp_path / "image.c2t"
        write_tensor(image, np.ones((8, 8)))
        code = cli_main([
            "denoise", "--checkpoint", str(ckpt), "--image", str(image), "--out", str(tmp_path / "o"),
        ])
        assert code == 2
        assert "deep.c2k" in capsys.readouterr().err

    def test_error_names_the_bad_file(self, tmp_path, capsys):
        ref, mask, good, bad = (tmp_path / f"{name}.c2t" for name in ("ref", "mask", "good", "bad"))
        write_tensor(ref, np.ones((8, 8)))
        write_tensor(mask, np.ones((8, 8), bool))
        write_tensor(good, np.ones((8, 8)))
        write_tensor(bad, np.ones((8, 8)))
        bad.write_bytes(bad.read_bytes()[:-4] + struct.pack("<f", np.nan))
        code = cli_main([
            "eval", "--ref", str(ref), "--mask", str(mask), "--images", f"{good},{bad}",
            "--out", str(tmp_path / "ev"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "bad.c2t" in err and "good.c2t" not in err

    @pytest.mark.parametrize("bad", ["image", "checkpoint"])
    def test_non_finite_input_is_data_error(self, tmp_path, bad):
        # a NaN voxel in the image, or an inf in the checkpoint's last weight
        params = init_network(NetworkConfig(depth=3, features=4), np.random.default_rng(0))
        files = {"image": tmp_path / "image.c2t", "checkpoint": tmp_path / "ckpt.c2k"}
        write_tensor(files["image"], np.ones((8, 8)))
        save_checkpoint(files["checkpoint"], params)
        value = np.nan if bad == "image" else np.inf
        files[bad].write_bytes(files[bad].read_bytes()[:-4] + struct.pack("<f", value))
        code = cli_main([
            "denoise", "--checkpoint", str(files["checkpoint"]), "--image", str(files["image"]),
            "--out", str(tmp_path / "o"),
        ])
        assert code == 2
        assert not (tmp_path / "o").exists()

    def test_nan_learning_rate_is_data_error(self, tmp_path, tiny_config):
        cfg = tmp_path / "nan.cfg"
        cfg.write_text(tiny_config.read_text().replace("base_lr = 0.001", "base_lr = nan"))
        assert cli_main(["train", "--config", str(cfg), "--out", str(tmp_path / "t")]) == 2
        assert not (tmp_path / "t").exists()

    def test_non_positive_learning_rate_is_data_error(self, tmp_path, tiny_config, capsys):
        cfg = tmp_path / "ascent.cfg"
        cfg.write_text(tiny_config.read_text().replace("base_lr = 0.001", "base_lr = -0.5"))
        assert cli_main(["train", "--config", str(cfg), "--out", str(tmp_path / "t")]) == 2
        assert "base_lr" in capsys.readouterr().err
        assert not (tmp_path / "t").exists()

    @pytest.mark.parametrize("size", ["\nslices = 4", "\nval_slices = 0"], ids=["slices", "val_slices"])
    def test_negative_dataset_size_is_data_error(self, tmp_path, tiny_config, capsys, size):
        cfg = tmp_path / "negative.cfg"
        cfg.write_text(tiny_config.read_text().replace(size, size.split("=")[0] + "= -3"))
        assert cli_main(["train", "--config", str(cfg), "--out", str(tmp_path / "t")]) == 2
        assert "-3" in capsys.readouterr().err
        assert not (tmp_path / "t").exists()

    def test_negative_validation_size_alone_is_data_error(self, tmp_path, tiny_config, capsys):
        # val_slices is the one validation switch, so no other key has to turn it on
        cfg = tmp_path / "negative.cfg"
        cfg.write_text(tiny_config.read_text().split("[training]")[0] + "[training]\nval_slices = -3\n")
        assert cli_main(["train", "--config", str(cfg), "--out", str(tmp_path / "t")]) == 2
        assert "-3" in capsys.readouterr().err
        assert not (tmp_path / "t").exists()

    def test_gradcheck_passes(self, capsys):
        assert cli_main(["gradcheck"]) == 0
        assert "max relative error" in capsys.readouterr().out

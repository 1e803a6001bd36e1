import dataclasses
import json
import struct

import numpy as np
import pytest

from coil2coil.network import NetworkConfig, forward, init_network
from coil2coil.tensorio import (
    TensorFormatError,
    load_checkpoint,
    read_tensor,
    save_checkpoint,
    tensor_bytes,
    write_pgm,
    write_tensor,
)


class TestRoundTrip:
    def test_scalarish_float(self, tmp_path):
        path = tmp_path / "t.c2t"
        write_tensor(path, np.array([[1.5]], dtype=np.float32))
        out = read_tensor(path)
        assert out.dtype == np.float32
        assert out.shape == (1, 1) and out[0, 0] == 1.5

    def test_complex_stack(self, tmp_path):
        rng = np.random.default_rng(0)
        arr = (rng.standard_normal((4, 8, 8)) + 1j * rng.standard_normal((4, 8, 8))).astype(
            np.complex64
        )
        path = tmp_path / "s.c2t"
        write_tensor(path, arr)
        out = read_tensor(path)
        assert out.dtype == np.complex64
        assert np.array_equal(out, arr)

    def test_bool_mask(self, tmp_path):
        mask = np.random.default_rng(1).uniform(size=(8, 8)) > 0.5
        path = tmp_path / "m.c2t"
        write_tensor(path, mask)
        out = read_tensor(path)
        assert out.dtype == np.bool_
        assert np.array_equal(out, mask)

    def test_canonicalizes_dtypes(self, tmp_path):
        path = tmp_path / "c.c2t"
        write_tensor(path, np.arange(6, dtype=np.int64).reshape(2, 3))
        assert read_tensor(path).dtype == np.float32
        write_tensor(path, np.ones((2, 2), dtype=np.complex128))
        assert read_tensor(path).dtype == np.complex64

    def test_write_is_deterministic(self, tmp_path):
        arr = np.random.default_rng(2).standard_normal((3, 5)).astype(np.float32)
        assert tensor_bytes(arr) == tensor_bytes(arr.copy())


class TestMalformedInput:
    def good_bytes(self):
        return tensor_bytes(np.ones((2, 2), dtype=np.float32))

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "bad.c2t"
        path.write_bytes(self.good_bytes()[:-3])
        with pytest.raises(TensorFormatError, match="truncated"):
            read_tensor(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "bad.c2t"
        path.write_bytes(self.good_bytes()[:6])
        with pytest.raises(TensorFormatError, match="truncated"):
            read_tensor(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "bad.c2t"
        path.write_bytes(self.good_bytes() + b"\x00")
        with pytest.raises(TensorFormatError, match="trailing"):
            read_tensor(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.c2t"
        path.write_bytes(b"XXXX" + self.good_bytes()[4:])
        with pytest.raises(TensorFormatError, match="magic"):
            read_tensor(path)

    def test_bad_version_and_code(self, tmp_path):
        buf = bytearray(self.good_bytes())
        buf[4] = 9  # version
        path = tmp_path / "bad.c2t"
        path.write_bytes(bytes(buf))
        with pytest.raises(TensorFormatError, match="version"):
            read_tensor(path)
        buf = bytearray(self.good_bytes())
        buf[6] = 7  # element code
        path.write_bytes(bytes(buf))
        with pytest.raises(TensorFormatError, match="element"):
            read_tensor(path)

    def test_dims_overflow(self, tmp_path):
        header = b"C2C1" + struct.pack("<HBB", 1, 0, 2) + struct.pack("<2I", 1 << 20, 1 << 20)
        path = tmp_path / "bad.c2t"
        path.write_bytes(header)
        with pytest.raises(TensorFormatError, match="overflow"):
            read_tensor(path)


class TestPgm:
    def test_header_and_scaling(self, tmp_path):
        img = np.array([[0.0, 0.5], [1.0, 0.25]])
        path = tmp_path / "p.pgm"
        write_pgm(path, img)
        data = path.read_bytes()
        assert data.startswith(b"P5\n2 2\n255\n")
        pixels = np.frombuffer(data[len(b"P5\n2 2\n255\n") :], dtype=np.uint8).reshape(2, 2)
        assert pixels[0, 0] == 0 and pixels[1, 0] == 255
        assert pixels[0, 1] == 128  # round(0.5 * 255 + 0.5)

    def test_requires_2d(self, tmp_path):
        with pytest.raises(ValueError):
            write_pgm(tmp_path / "p.pgm", np.zeros((2, 2, 2)))


class TestCheckpoint:
    def test_round_trip_preserves_inference(self, tmp_path):
        cfg = NetworkConfig(depth=4, features=3)
        params = init_network(cfg, np.random.default_rng(3))
        # make running stats nontrivial before saving
        forward(params, np.random.default_rng(4).standard_normal((2, 8, 8)), train=True)
        path = tmp_path / "ckpt.c2k"
        save_checkpoint(path, params)
        loaded = load_checkpoint(path)
        assert loaded.config == cfg
        x = np.random.default_rng(5).standard_normal((1, 8, 8))
        a, _ = forward(params, x, train=False)
        b, _ = forward(loaded, x, train=False)
        # storage is float32, so agreement is to single precision
        assert np.allclose(a, b, atol=1e-5)

    def test_truncated_checkpoint(self, tmp_path):
        params = init_network(NetworkConfig(depth=3, features=2), np.random.default_rng(6))
        path = tmp_path / "ckpt.c2k"
        save_checkpoint(path, params)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(TensorFormatError):
            load_checkpoint(path)

    def test_pre_norm_conv_biases_fold_into_running_mean(self, tmp_path):
        # Older checkpoints carry a bias on every conv.  A bias b feeding
        # batch norm with running mean mu + b acts exactly like no bias with
        # running mean mu.  Dyadic values keep both files exact in float32.
        cfg = NetworkConfig(depth=4, features=3)
        rng = np.random.default_rng(7)
        params = init_network(cfg, rng)
        params.biases = [rng.integers(-32, 32, b.shape) / 16 for b in params.biases]
        params.bn_mean = [rng.integers(-32, 32, 3) / 16 for _ in params.bn_mean]
        params.bn_var = [rng.integers(1, 32, 3) / 16 for _ in params.bn_var]
        path = tmp_path / "new.c2k"
        save_checkpoint(path, params)
        reference = load_checkpoint(path)

        arrays = dict(reference.flat())
        for i in range(len(reference.bn_mean)):
            b = rng.integers(-32, 32, 3) / 16
            arrays[f"conv{i + 1}.bias"] = b
            arrays[f"bn{i}.mean"] = reference.bn_mean[i] + b
            arrays[f"bn{i}.var"] = reference.bn_var[i]
        head = json.dumps({"config": dataclasses.asdict(cfg), "tensors": list(arrays)}).encode()
        old = tmp_path / "old.c2k"
        old.write_bytes(
            struct.pack("<I", len(head)) + head + b"".join(tensor_bytes(a) for a in arrays.values())
        )
        loaded = load_checkpoint(old)
        assert [name for name, _ in loaded.flat()] == [name for name, _ in reference.flat()]
        x = np.random.default_rng(8).standard_normal((2, 8, 8))
        a, _ = forward(reference, x, train=False)
        b, _ = forward(loaded, x, train=False)
        assert np.allclose(a, b, rtol=0, atol=1e-12)

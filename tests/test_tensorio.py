import dataclasses
import json
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

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


class TestStreamingReader:
    @pytest.mark.parametrize("shape", [(0,), (3, 0), (2, 0, 4)])
    @pytest.mark.parametrize("dtype", [np.float32, np.complex64, np.bool_])
    def test_zero_size_records_round_trip(self, tmp_path, dtype, shape):
        path = tmp_path / "empty.c2t"
        write_tensor(path, np.zeros(shape, dtype))
        out = read_tensor(path)
        assert out.dtype == dtype and out.shape == shape
        assert tensor_bytes(out) == path.read_bytes()

    def test_short_file_is_refused_before_its_payload_is_allocated(self, tmp_path):
        # the header claims 2^30 float32 values (4 GiB), the file holds one
        path = tmp_path / "short.c2t"
        header = b"C2C1" + struct.pack("<HBB", 1, 0, 2) + struct.pack("<2I", 1 << 15, 1 << 15)
        path.write_bytes(header + bytes(4))
        tracemalloc.start()
        try:
            with pytest.raises(TensorFormatError, match="truncated payload: need 4294967296 bytes, have 4"):
                read_tensor(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_multi_record_checkpoint_round_trips_bit_exact(self, tmp_path):
        params = init_network(NetworkConfig(depth=5, features=4, kernel_size=5), np.random.default_rng(11))
        forward(params, np.random.default_rng(12).standard_normal((2, 9, 7)), train=True)  # running statistics
        params.biases = [np.random.default_rng(13).standard_normal(b.shape).astype(np.float32) for b in params.biases]
        path = tmp_path / "ckpt.c2k"
        save_checkpoint(path, params)
        loaded = load_checkpoint(path)
        assert len(params.state()) == len(loaded.state()) == 19  # 5 kernels, 2 biases, 4 per batch norm
        for (name, a), (got_name, b) in zip(params.state(), loaded.state()):
            assert name == got_name and b.dtype == np.float32 and b.shape == a.shape, name
            assert np.array_equal(a.view(np.uint32), b.view(np.uint32)), name


def planted(record, value, slot=-1):
    """A record's bytes with one float32 slot of its payload set to value."""
    buf = bytearray(record)
    struct.pack_into("<f", buf, len(buf) + 4 * slot, value)
    return bytes(buf)


class TestFinitePayload:
    @pytest.mark.parametrize(
        "arr",
        [
            np.array([1.0, np.nan]),
            np.array([[0.0, -np.inf]], dtype=np.float32),
            np.array([1 + 1j, complex(0, np.inf)]),
            pytest.param(  # finite in float64, inf once canonicalized to float32
                np.array(1e39), marks=pytest.mark.filterwarnings("ignore:overflow encountered")
            ),
        ],
        ids=["nan", "minus-inf", "complex-inf", "float32-overflow"],
    )
    def test_write_refuses_non_finite(self, tmp_path, arr):
        with pytest.raises(TensorFormatError, match="NaN or inf"):
            write_tensor(tmp_path / "t.c2t", arr)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("dtype", [np.float32, np.complex64])
    def test_read_refuses_non_finite(self, tmp_path, dtype, value):
        path = tmp_path / "t.c2t"
        path.write_bytes(planted(tensor_bytes(np.ones((3, 2), dtype=dtype)), value))
        with pytest.raises(TensorFormatError, match="NaN or inf"):
            read_tensor(path)

    def test_bool_records_are_not_scanned(self, tmp_path):
        data = planted(tensor_bytes(np.zeros(4, dtype=bool)), np.nan)
        path = tmp_path / "m.c2t"
        path.write_bytes(data)
        assert tensor_bytes(read_tensor(path)) == data


@st.composite
def fuzzed_records(draw):
    """A valid float32, complex64 or bool record, then bytes flipped, the
    tail cut, or NaN/inf planted in a payload slot."""
    shape = tuple(draw(st.lists(st.integers(0, 4), max_size=3)))
    kind = draw(st.sampled_from([np.float32, np.complex64, np.bool_]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    arr = rng.standard_normal((2, *shape)) * 1e3
    arr = {np.float32: arr[0], np.complex64: arr[0] + 1j * arr[1], np.bool_: arr[0] > 0}[kind]
    record = tensor_bytes(arr)
    how = draw(st.sampled_from(["flip", "truncate", "plant"]))
    if how == "flip":
        buf = bytearray(record)
        for i in draw(st.lists(st.integers(0, len(buf) - 1), min_size=1, max_size=4)):
            buf[i] ^= draw(st.integers(1, 255))
        return bytes(buf)
    if how == "truncate":
        return record[: draw(st.integers(0, len(record) - 1))]
    slots = (len(record) - 8 - 4 * len(shape)) // 4  # payload floats after the header
    if slots == 0:
        return record
    slot = draw(st.integers(-slots, -1))
    return planted(record, draw(st.sampled_from([np.nan, np.inf, -np.inf])), slot)


# no shrink or explain phase: they replay near the memory bound's edge, where
# unrelated allocations decide it, and turn a real failure into FlakyFailure
fuzz_settings = settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
    phases=[Phase.explicit, Phase.reuse, Phase.generate],
)


@fuzz_settings
@given(data=fuzzed_records())
def test_read_tensor_fuzz(tmp_path, data):
    # whatever read_tensor accepts is finite and writes back to the same
    # bytes; anything else is a TensorFormatError, never another exception.
    # Either way it allocates no more than a few copies of the record (the
    # bytes read, the finite-check mask, the array) plus a constant, however
    # large the dims a flipped byte claims
    path = tmp_path / "fuzz.c2t"
    path.write_bytes(data)
    tracemalloc.start()
    try:
        arr = read_tensor(path)
    except TensorFormatError:
        arr = None
    finally:
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    assert peak <= 4 * len(data) + (32 << 10)
    if arr is None:
        return
    assert arr.dtype == np.bool_ or np.isfinite(arr).all()
    assert tensor_bytes(arr) == data


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


def _write_checkpoint(path, header, arrays):
    """A checkpoint file; header is a JSON value, or the header text itself."""
    head = (header if isinstance(header, str) else json.dumps(header)).encode()
    path.write_bytes(
        struct.pack("<I", len(head)) + head + b"".join(tensor_bytes(a) for a in arrays.values())
    )


def _drop_tensor(header, arrays):
    del arrays["bn0.var"]
    header["tensors"].remove("bn0.var")
    return header


def _reshape_tensor(header, arrays):
    arrays["conv1.weight"] = arrays["conv1.weight"][:, :, :1]
    return header


def _complex_tensor(header, arrays):
    arrays["bn0.var"] = arrays["bn0.var"] + 1j
    return header


def _negative_variance(header, arrays):
    arrays["bn0.var"] = arrays["bn0.var"].copy()
    arrays["bn0.var"][1] = -0.5
    return header


def _set_config(key, value):
    def corrupt(header, arrays):
        header["config"][key] = value
        return header

    return corrupt


class TestCheckpoint:
    @pytest.mark.parametrize(
        "corrupt",
        [
            _drop_tensor,
            _reshape_tensor,
            _complex_tensor,
            lambda header, arrays: list(header.items()),
            lambda header, arrays: {"tensors": header["tensors"]},
            lambda header, arrays: {"config": header["config"]},
            _set_config("width", 3),
            _set_config("depth", 3.0),
            _set_config("kernel_size", 3.0),
            _set_config("features", float("nan")),
            _set_config("bn_eps", 10**400),
            lambda header, arrays: "[" * 100_000,
            _negative_variance,
            _set_config("bn_eps", -1),
            _set_config("bn_eps", 0.0),
            _set_config("bn_momentum", 1.5),
        ],
        ids=[
            "missing-tensor", "wrong-shape", "complex-tensor", "list-header",
            "no-config", "no-tensors", "unknown-config-key",
            "float-depth", "float-kernel-size", "nan-features", "eps-past-float-range",
            "deeply-nested-header", "negative-running-variance", "negative-bn-eps",
            "zero-bn-eps", "bn-momentum-above-one",
        ],
    )
    def test_malformed_checkpoint(self, tmp_path, corrupt):
        params = init_network(NetworkConfig(depth=4, features=3), np.random.default_rng(9))
        arrays = dict(params.state())
        header = {"config": dataclasses.asdict(params.config), "tensors": list(arrays)}
        path = tmp_path / "bad.c2k"
        _write_checkpoint(path, corrupt(header, arrays), arrays)
        with pytest.raises(TensorFormatError, match="bad.c2k"):
            load_checkpoint(path)

    def test_config_beyond_the_records_is_rejected_before_allocating(self, tmp_path):
        # a short file whose header asks for a large network (about 9 M
        # float64 values) must not make the loader allocate that network
        path = tmp_path / "big.c2k"
        _write_checkpoint(path, {"config": {"depth": 6, "features": 500}, "tensors": []}, {})
        assert path.stat().st_size < 100
        tracemalloc.start()
        try:
            with pytest.raises(TensorFormatError, match="needs"):
                load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_state_is_the_stored_order(self, tmp_path):
        params = init_network(NetworkConfig(depth=4, features=3), np.random.default_rng(10))
        path = tmp_path / "ckpt.c2k"
        save_checkpoint(path, params)
        (hlen,) = struct.unpack_from("<I", path.read_bytes())
        header = json.loads(path.read_bytes()[4 : 4 + hlen])
        assert header["tensors"] == [name for name, _ in params.state()]
        assert header["config"] == dataclasses.asdict(params.config)

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

    def test_non_finite_weight_is_refused(self, tmp_path):
        params = init_network(NetworkConfig(depth=3, features=2), np.random.default_rng(6))
        path = tmp_path / "ckpt.c2k"
        save_checkpoint(path, params)
        path.write_bytes(planted(path.read_bytes(), np.inf))  # the last record's last value
        with pytest.raises(TensorFormatError, match="NaN or inf"):
            load_checkpoint(path)
        params.weights[0][0] = np.nan  # what a nan learning rate trains into
        with pytest.raises(TensorFormatError, match="NaN or inf"):
            save_checkpoint(tmp_path / "nan.c2k", params)

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
        old = tmp_path / "old.c2k"
        _write_checkpoint(old, {"config": dataclasses.asdict(cfg), "tensors": list(arrays)}, arrays)
        loaded = load_checkpoint(old)
        assert [name for name, _ in loaded.flat()] == [name for name, _ in reference.flat()]
        x = np.random.default_rng(8).standard_normal((2, 8, 8))
        a, _ = forward(reference, x, train=False)
        b, _ = forward(loaded, x, train=False)
        assert np.allclose(a, b, rtol=0, atol=1e-12)


@fuzz_settings
@given(how=st.sampled_from(["flip", "truncate", "resize"]), data=st.data())
def test_load_checkpoint_fuzz(tmp_path, how, data):
    # a small checkpoint with bytes flipped, about half of them in the
    # length word and JSON header, its tail cut, or its header asking for a
    # network of another depth and width: it loads to finite parameters or
    # raises TensorFormatError, never another exception, and allocates no
    # more than a few copies of the file plus a constant, whatever network
    # the header asks for
    path = tmp_path / "fuzz.c2k"
    save_checkpoint(path, init_network(NetworkConfig(depth=3, features=2), np.random.default_rng(0)))
    buf = bytearray(path.read_bytes())
    (hlen,) = struct.unpack_from("<I", buf)
    if how == "flip":
        where = st.integers(0, 4 + hlen - 1) | st.integers(0, len(buf) - 1)
        for i in data.draw(st.lists(where, min_size=1, max_size=4)):
            buf[i] ^= data.draw(st.integers(1, 255))
    elif how == "truncate":
        del buf[data.draw(st.integers(0, len(buf) - 1)) :]
    else:
        header = json.loads(buf[4 : 4 + hlen])
        config = header["config"]
        config.update(depth=data.draw(st.integers(0, 30)), features=data.draw(st.integers(0, 100)))
        head = json.dumps(header).encode()
        buf = bytearray(struct.pack("<I", len(head)) + head + buf[4 + hlen :])
    path.write_bytes(bytes(buf))
    tracemalloc.start()
    try:
        params = load_checkpoint(path)
    except TensorFormatError:
        params = None
    finally:
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    assert peak <= 4 * len(buf) + (32 << 10)
    if params is not None:
        assert all(np.isfinite(arr).all() for _, arr in params.state())

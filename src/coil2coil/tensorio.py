"""Binary tensor container, PGM previews, and checkpoint files.

Container layout (all integers little-endian):

    magic   4 bytes  "C2C1"
    version u16      (currently 1)
    element u8       0 = float32, 1 = complex64 (interleaved float32 pairs),
                     2 = boolean byte
    rank    u8
    dims    rank x u32
    payload row-major (channel-major for stacks)

Arrays are canonicalized on write (float -> float32, complex -> complex64,
bool -> bool); round trips of canonical-dtype arrays are bit exact.

Checkpoint (.c2k) layout:

    length  u32      byte length of the JSON header
    header  JSON     {"config": the NetworkConfig fields,
                      "tensors": the record names, in order}
    records one container record per name, in NetworkParams.state() order

Reading a malformed tensor file or checkpoint raises TensorFormatError naming
the file; a checkpoint is malformed too when its config fails NetworkConfig's
checks or a batch-norm running variance is negative.  A float32/complex64
payload holding NaN or +-inf raises it too, on write as on read: every array
these files hand the program is finite, and nothing downstream rescans.
Files are read as a stream: a record's payload is read once, straight into
the returned array, after its claimed size is checked against the file's.
"""

from __future__ import annotations

import dataclasses
import json
import os
import struct

import numpy as np

from .network import NetworkConfig, init_network

__all__ = [
    "write_tensor",
    "read_tensor",
    "write_pgm",
    "save_checkpoint",
    "load_checkpoint",
]

MAGIC = b"C2C1"
VERSION = 1
_CODES = {0: np.float32, 1: np.complex64, 2: np.bool_}
MAX_RANK = 8
MAX_ELEMENTS = 1 << 32


class TensorFormatError(ValueError):
    """Malformed or truncated tensor container."""


def _canonical(arr):
    arr = np.asarray(arr)
    if arr.dtype == np.bool_:
        return arr, 2
    if np.issubdtype(arr.dtype, np.complexfloating):
        return arr.astype(np.complex64), 1
    if np.issubdtype(arr.dtype, np.floating) or np.issubdtype(arr.dtype, np.integer):
        return arr.astype(np.float32), 0
    raise TypeError(f"unsupported dtype {arr.dtype}")


def _check_finite(code, payload):
    """Refuse a float32/complex64 payload with NaN or inf: one scan of its float32 view."""
    if code != 2 and not np.isfinite(np.frombuffer(payload, "<f4")).all():
        raise TensorFormatError("payload holds NaN or inf")
    return payload


def tensor_bytes(arr):
    """Serialize an array to one container record."""
    arr, code = _canonical(arr)
    if arr.ndim > MAX_RANK:
        raise ValueError(f"rank {arr.ndim} exceeds limit {MAX_RANK}")
    if arr.size >= MAX_ELEMENTS:
        raise ValueError("tensor too large for u32 dims")
    header = MAGIC + struct.pack("<HBB", VERSION, code, arr.ndim)
    header += struct.pack(f"<{arr.ndim}I", *arr.shape)
    payload = np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<")).tobytes()
    return header + _check_finite(code, payload)


def write_tensor(path, arr):
    with open(path, "wb") as f:
        f.write(tensor_bytes(arr))


def _need(f, n, what):
    """n, once the open file f is known to hold n more bytes: a truncated
    `what` otherwise, refused before anything of that size is allocated."""
    left = os.fstat(f.fileno()).st_size - f.tell()
    if left < n:
        raise TensorFormatError(f"truncated {what}: need {n} bytes, have {left}")
    return n


def _read_record(f):
    """The record at f's position, read into an array allocated only once the
    file is known to hold its payload."""
    head = f.read(_need(f, 8, "header"))
    if head[:4] != MAGIC:
        raise TensorFormatError(f"bad magic {head[:4]!r}")
    version, code, rank = struct.unpack_from("<HBB", head, 4)
    if version != VERSION:
        raise TensorFormatError(f"unsupported version {version}")
    if code not in _CODES:
        raise TensorFormatError(f"unknown element code {code}")
    if rank > MAX_RANK:
        raise TensorFormatError(f"rank {rank} exceeds limit {MAX_RANK}")
    dims = struct.unpack(f"<{rank}I", f.read(_need(f, 4 * rank, "dims")))
    n = 1
    for d in dims:
        n *= d
        if n >= MAX_ELEMENTS:
            raise TensorFormatError("dims overflow")
    dtype = np.dtype(_CODES[code]).newbyteorder("<")
    _need(f, n * dtype.itemsize, "payload")
    arr = np.empty(dims, dtype)
    if f.readinto(arr.reshape(-1).view(np.uint8)) < arr.nbytes:  # the file shrank since
        raise TensorFormatError("truncated payload")
    return _check_finite(code, arr)


def _read_file(path, parse):
    """parse(f) of the file at path, which must end there; errors name the file."""
    with open(path, "rb") as f:
        try:
            value = parse(f)
            if extra := os.fstat(f.fileno()).st_size - f.tell():
                raise TensorFormatError(f"{extra} trailing bytes")
        except TensorFormatError as exc:
            raise TensorFormatError(f"{path}: {exc}") from None
    return value


def read_tensor(path):
    """Read a single-tensor file; rejects trailing bytes."""
    return _read_file(path, _read_record)


def write_pgm(path, image, mask=None):
    """8-bit binary PGM preview, min-max scaled inside the mask.

    Lossy by design; the stored tensor is the source of truth.
    """
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2:
        raise ValueError("PGM preview needs a 2-D real image")
    region = img[np.asarray(mask, dtype=bool)] if mask is not None else img
    lo, hi = float(region.min()), float(region.max())
    span = hi - lo if hi > lo else 1.0
    scaled = np.clip((img - lo) / span, 0.0, 1.0)
    data = (scaled * 255.0 + 0.5).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode())
        f.write(data.tobytes())


def save_checkpoint(path, params):
    """Write network parameters: JSON config header + tensor records."""
    state = params.state()
    header = {"config": dataclasses.asdict(params.config), "tensors": [name for name, _ in state]}
    head = json.dumps(header, sort_keys=True).encode()
    with open(path, "wb") as f:
        f.write(struct.pack("<I", len(head)))
        f.write(head)
        for _, arr in state:
            f.write(tensor_bytes(arr))


def _stored(arrays, name, shape):
    if name not in arrays:
        raise TensorFormatError(f"checkpoint lacks tensor {name!r}")
    arr = arrays[name]
    if arr.dtype != np.float32 or arr.shape != shape:
        raise TensorFormatError(f"tensor {name!r} is {arr.dtype} {arr.shape}, expected float32 {shape}")
    return arr


def load_checkpoint(path):
    return _read_file(path, _checkpoint)


def _checkpoint(f):
    """The parameters of the checkpoint at f's position."""
    (hlen,) = struct.unpack("<I", f.read(_need(f, 4, "checkpoint")))
    head = f.read(_need(f, hlen, "checkpoint header"))
    try:
        header = json.loads(head.decode())
        config = NetworkConfig(**header["config"])
        names = [str(name) for name in header["tensors"]]
    # OverflowError: an int past float range; RecursionError: JSON nested too deep
    except (ValueError, TypeError, KeyError, OverflowError, RecursionError) as exc:
        raise TensorFormatError(f"bad checkpoint header: {exc!r}") from None
    arrays = {name: _read_record(f) for name in names}
    held = sum(arr.size for arr in arrays.values())
    if config.state_size() > held:  # before init_network allocates the network
        raise TensorFormatError(
            f"config needs {config.state_size()} values, the records hold {held}"
        )
    params = init_network(config, np.random.default_rng(0))
    for name, arr in params.state():
        np.copyto(arr, _stored(arrays, name, arr.shape))
    for i, var in enumerate(params.bn_var):
        if (var < 0).any():
            raise TensorFormatError(f"bn{i}.var holds a negative running variance")
    # older checkpoints carry a bias on the conv feeding each batch norm; it
    # only shifts the pre-norm values, so fold it into the running mean
    for i, mean in enumerate(params.bn_mean):
        if f"conv{i + 1}.bias" in arrays:
            mean -= _stored(arrays, f"conv{i + 1}.bias", mean.shape)
    return params

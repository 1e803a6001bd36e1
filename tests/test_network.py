import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view
from scipy.ndimage import correlate

from coil2coil import network
from coil2coil.network import (
    AdamState,
    NetworkConfig,
    _bn_backward,
    _bn_forward_train,
    _conv,
    _conv_grads,
    _leaky_backward,
    _leaky_forward,
    _pad,
    _patch_blocks,
    adam_step,
    backward,
    forward,
    gradient_check,
    init_network,
    lr_schedule,
)


def tiny_config(**kw):
    base = dict(depth=3, features=2, kernel_size=3)
    base.update(kw)
    return NetworkConfig(**base)


class TestConfig:
    def test_defaults(self):
        cfg = NetworkConfig()
        assert (cfg.depth, cfg.features, cfg.kernel_size) == (6, 16, 3)

    def test_full_scale_preset(self):
        cfg = NetworkConfig.full_scale()
        assert (cfg.depth, cfg.features, cfg.kernel_size) == (18, 64, 5)

    @pytest.mark.parametrize(
        "cfg", [NetworkConfig(), tiny_config(), NetworkConfig(depth=2, features=1, kernel_size=1)]
    )
    def test_state_size_counts_the_stored_values(self, cfg):
        params = init_network(cfg, np.random.default_rng(0))
        assert cfg.state_size() == sum(a.size for _, a in params.state())

    def test_validation(self):
        with pytest.raises(ValueError):
            NetworkConfig(depth=1)
        with pytest.raises(ValueError):
            NetworkConfig(kernel_size=2)
        with pytest.raises(ValueError):
            NetworkConfig(features=0)
        with pytest.raises(ValueError, match="must be an int"):
            NetworkConfig(depth=3.0)


class TestInit:
    def test_xavier_bound_and_variance(self):
        # middle layer of a 64-feature net: fan_in = fan_out = 64*9,
        # bound = sqrt(6 / (2*576)); uniform variance is bound^2 / 3
        cfg = NetworkConfig(depth=3, features=64, kernel_size=3)
        params = init_network(cfg, np.random.default_rng(0))
        w = params.weights[1]
        bound = np.sqrt(6.0 / (64 * 9 + 64 * 9))
        assert np.abs(w).max() <= bound
        assert w.var() == pytest.approx(bound**2 / 3.0, rel=0.05)

    def test_biases_and_bn_init(self):
        params = init_network(tiny_config(), np.random.default_rng(1))
        assert all(np.all(b == 0) for b in params.biases)
        assert np.all(params.bn_scale[0] == 1) and np.all(params.bn_shift[0] == 0)
        assert np.all(params.bn_mean[0] == 0) and np.all(params.bn_var[0] == 1)

    def test_deterministic(self):
        a = init_network(tiny_config(), np.random.default_rng(2))
        b = init_network(tiny_config(), np.random.default_rng(2))
        for (_, x), (_, y) in zip(a.flat(), b.flat()):
            assert np.array_equal(x, y)


class TestConv:
    # image rows per patch block: the default (whole 7x9 images), 1, 3 (uneven)
    @pytest.mark.parametrize("rows", [None, 1, 3])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_matches_scipy_correlate(self, k, rows, monkeypatch):
        rng = np.random.default_rng(k)
        n, c, f = rng.integers(1, 4, size=3)
        x = rng.standard_normal((c, n, 7, 9))
        w = rng.standard_normal((f, c, k, k))
        if rows is not None:  # a patch row spans the padded width 9 + k - 1
            monkeypatch.setattr(network, "_BLOCK_ELEMS", rows * (9 + k - 1) * k * k * c)
        y = _conv(_pad(x, k), w)[1]
        ref = np.zeros((f, n, 7, 9))
        for b in range(n):
            for fi in range(f):
                for ci in range(c):
                    ref[fi, b] += correlate(x[ci, b], w[fi, ci], mode="constant")
        assert y.shape == (f, n, 7, 9)
        assert np.allclose(y, ref, rtol=1e-12, atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 3),
    h=st.integers(1, 40),
    w=st.integers(1, 12),
    c=st.integers(1, 4),
    k=st.sampled_from([1, 3, 5]),
    block_elems=st.integers(1, 5000),
)
def test_patch_blocks_partition_the_rows(n, h, w, c, k, block_elems):
    wp = w + k - 1  # padded width: columns of one image row's patches
    row = wp * k * k * c  # entries of one image row's patches
    seen = np.zeros((n, h), int)
    heights = {b: [] for b in range(n)}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(network, "_BLOCK_ELEMS", block_elems)
        for (b, rows), at, patches in _patch_blocks(_pad(np.zeros((c, n, h, w)), k), k):
            assert at == (b * (h + k - 1) + rows.start) * wp  # the buffer column of the block's first tap
            seen[b, rows] += 1
            heights[b].append(rows.stop - rows.start)
            assert patches.shape == (k * k * c, heights[b][-1] * wp)
            assert patches.size <= max(block_elems, row)
    assert np.all(seen == 1)
    for hs in heights.values():
        assert max(hs) - min(hs) <= 1
        assert len(hs) == -(-h // max(1, block_elems // row))  # the fewest that fit


def _windows(padded, k):
    """(C, N, H, W, k, k) sliding k x k windows of zero-padded (C, N, Hp, Wp) images."""
    return sliding_window_view(padded, (k, k), axis=(2, 3))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 3),
    h=st.integers(1, 9),
    w=st.integers(1, 9),
    c=st.integers(1, 4),
    f=st.integers(1, 4),
    k=st.sampled_from([1, 3, 5]),
    rows=st.integers(1, 9),
    input_grad=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_conv_grads_match_an_einsum_oracle(n, h, w, c, f, k, rows, input_grad, seed):
    # both gradients of y = _conv(x, w) from dy's patch blocks, in blocks of
    # at most `rows` image rows (uneven when rows does not divide h); without
    # input_grad, as for the first layer, there is no dx
    assume(c != f and h != w)
    rng = np.random.default_rng(seed)
    x, dy = rng.standard_normal((c, n, h, w)), rng.standard_normal((f, n, h, w))
    kernel = rng.standard_normal((f, c, k, k))
    p = (k - 1) // 2
    pad = ((0, 0), (0, 0), (p, p), (p, p))
    with pytest.MonkeyPatch.context() as mp:  # a patch row of dy spans w + k - 1 columns
        mp.setattr(network, "_BLOCK_ELEMS", rows * (w + k - 1) * k * k * f)
        dw, dx = _conv_grads(dy, _pad(x, k), kernel, input_grad)
    want_dw = np.einsum("fbij,cbijuv->fcuv", dy, _windows(np.pad(x, pad), k))
    assert dw.shape == kernel.shape
    assert np.allclose(dw, want_dw, rtol=1e-12, atol=1e-12)
    if not input_grad:
        assert dx is None
        return
    # dx[c, b, i, j] = sum over f, u, v of dy[f, b, i - u + p, j - v + p] * w[f, c, u, v]
    want_dx = np.einsum("fbijuv,fcuv->cbij", _windows(np.pad(dy, pad), k)[..., ::-1, ::-1], kernel)
    assert np.allclose(dx, want_dx, rtol=1e-12, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 3),
    h=st.integers(1, 9),
    w=st.integers(1, 9),
    c=st.integers(2, 5),
    f=st.integers(1, 4),
    k=st.sampled_from([1, 3, 5]),
    dtype=st.sampled_from([np.float64, np.float32]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=1, h=1, w=7, c=16, f=1, k=3, dtype=np.float64, seed=0)
@example(n=3, h=6, w=1, c=3, f=2, k=5, dtype=np.float32, seed=1)
def test_fewer_outputs_than_inputs_match_im2col(n, h, w, c, f, k, dtype, seed):
    # with F < C the conv sums the taps' GEMMs over shifted runs of the
    # input buffer; padding the kernel with zero filters to C outputs takes
    # it through the im2col GEMMs instead, whose first F outputs must agree
    assume(f < c)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((c, n, h, w)).astype(dtype)
    kernel = rng.standard_normal((f, c, k, k)).astype(dtype)
    got = _conv(_pad(x, k), kernel)[1]
    want = _conv(_pad(x, k), np.concatenate([kernel, np.zeros((c - f, c, k, k), dtype)]))[1][:f]
    assert got.dtype == dtype and got.shape == (f, n, h, w)
    if dtype == np.float64:
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)
    else:
        assert np.linalg.norm(got - want) <= FLOAT32_RTOL * np.linalg.norm(want)


def _four_pass_eval(params, x):
    """Eval forward as conv, then bias or normalize-scale-shift, then leaky
    ReLU, each conv on a fresh zero-padded copy of its input: the reference."""
    k, h = params.config.kernel_size, x[None]
    for i, w in enumerate(params.weights[:-1]):
        y = _conv(_pad(h, k), w)[1]
        if i == 0:
            y = y + params.biases[0][:, None, None, None]
        else:
            j = i - 1
            mean, var = params.bn_mean[j][:, None, None, None], params.bn_var[j][:, None, None, None]
            y = (y - mean) / np.sqrt(var + network.BN_EPS)
            y = y * params.bn_scale[j][:, None, None, None] + params.bn_shift[j][:, None, None, None]
        h = np.where(y >= 0, y, network.LEAKY_SLOPE * y)
    return _conv(_pad(h, k), params.weights[-1])[1][0] + params.biases[1] + x


class TestForward:
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_cached_buffers_are_zero_outside_the_images(self, k):
        # backward reads whole runs of each cached buffer, pad and tail
        # included, so they must hold exact zeros there
        params = init_network(NetworkConfig(depth=4, features=3, kernel_size=k), np.random.default_rng(32))
        x = np.random.default_rng(33).standard_normal((2, 7, 5))
        _, cache = forward(params, x, train=True)
        assert len(cache["inputs"]) == len(params.weights)
        for flat, view in cache["inputs"]:
            assert view.shape[1:] == x.shape and np.shares_memory(flat, view)
            outside = flat.copy()
            outside[:, : view.shape[1] * (7 + k - 1) * (5 + k - 1)].reshape(-1, 2, 7 + k - 1, 5 + k - 1)[
                :, :, (k - 1) // 2 : (k - 1) // 2 + 7, (k - 1) // 2 : (k - 1) // 2 + 5
            ] = 0
            assert not outside.any()
            assert np.count_nonzero(view) == view.size  # random activations: no exact zeros inside

    def test_zero_final_conv_is_identity(self):
        # skip connection passes the input through exactly (float64 parameters,
        # so the float64 input is not rounded)
        params = init_network(tiny_config(), np.random.default_rng(3)).astype(np.float64)
        params.weights[-1][:] = 0.0
        params.biases[-1][:] = 0.0
        x = np.random.default_rng(4).standard_normal((2, 8, 8))
        out, _ = forward(params, x, train=False)
        assert np.array_equal(out, x)

    def test_depth_two_scalar_composition(self):
        # 1x1 kernels, one feature, no batch norm:
        # out = x + v * leaky(w*x + b0) + b1
        cfg = NetworkConfig(depth=2, features=1, kernel_size=1)
        params = init_network(cfg, np.random.default_rng(5)).astype(np.float64)
        w, b0, v, b1 = 1.7, 0.2, -0.8, 0.05
        params.weights[0][:] = w
        params.biases[0][:] = b0
        params.weights[1][:] = v
        params.biases[1][:] = b1
        x = np.random.default_rng(6).standard_normal((1, 6, 6))
        out, _ = forward(params, x, train=False)
        pre = w * x + b0
        hidden = np.where(pre >= 0, pre, 0.1 * pre)
        assert np.allclose(out, x + v * hidden + b1, rtol=1e-12)

    def test_leaky_slope_value(self):
        cfg = NetworkConfig(depth=2, features=1, kernel_size=1)
        params = init_network(cfg, np.random.default_rng(7))
        params.weights[0][:] = 1.0
        params.biases[0][:] = 0.0
        params.weights[1][:] = 1.0
        params.biases[1][:] = 0.0
        out, _ = forward(params, np.full((1, 4, 4), -1.0), train=False)
        assert np.allclose(out, -1.0 + 0.1 * -1.0)

    def test_translation_equivariance_interior(self):
        # all-conv eval path commutes with translation away from borders
        cfg = NetworkConfig(depth=2, features=3, kernel_size=3)
        params = init_network(cfg, np.random.default_rng(8))
        x = np.random.default_rng(9).standard_normal((12, 12))
        shifted = np.roll(x, (1, 1), axis=(0, 1))
        out, _ = forward(params, x[None], train=False)
        out_s, _ = forward(params, shifted[None], train=False)
        m = 3  # margin excludes every voxel touched by padding
        assert np.allclose(
            np.roll(out[0], (1, 1), axis=(0, 1))[m:-m, m:-m], out_s[0][m:-m, m:-m], rtol=1e-10
        )

    def test_eval_mode_does_not_mutate(self):
        # batch norm and leaky ReLU work in place on the conv outputs only:
        # the caller's float64 batch and every stored array stay as they were
        params = init_network(tiny_config(), np.random.default_rng(10))
        batch = np.random.default_rng(11).standard_normal((2, 8, 8))
        forward(params, batch, train=True)  # nontrivial running statistics
        before = [a.copy() for _, a in params.state()]
        kept = batch.copy()
        forward(params, batch, train=False)
        assert np.array_equal(batch, kept)
        assert all(np.array_equal(x, y) for x, (_, y) in zip(before, params.state()))

    def test_eval_forward_peak_memory(self):
        # one 192x192 eval forward holds at most four activations
        # (192*192*16 float64) at once
        params = init_network(NetworkConfig(), np.random.default_rng(17))
        x = np.random.default_rng(18).standard_normal((1, 192, 192))
        tracemalloc.start()
        try:
            forward(params, x, train=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 192 * 192 * 16 * 8

    def test_eval_batch_norm_matches_the_four_pass_formula(self):
        # float64 parameters with running statistics, scale and shift away
        # from their initial values: the folded kernel and bias give the
        # normalize-scale-shift formula to rounding
        cfg = NetworkConfig(depth=5, features=3, kernel_size=3)
        rng = np.random.default_rng(26)
        params = init_network(cfg, rng).astype(np.float64)
        params.biases[0][:] = rng.standard_normal(3)
        for j in range(cfg.depth - 2):
            params.bn_scale[j] = rng.uniform(0.5, 1.5, 3)
            params.bn_shift[j] = rng.standard_normal(3)
            params.bn_mean[j] = rng.standard_normal(3)
            params.bn_var[j] = rng.uniform(0.2, 2.0, 3)
        x = rng.standard_normal((2, 10, 9))
        out, _ = forward(params, x, train=False)
        assert np.allclose(out, _four_pass_eval(params, x), rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("shape", [(3, 1, 6), (3, 6, 1), (2, 1, 1), (3, 5, 9), (2, 11, 4)])
    def test_a_batch_equals_its_images(self, shape, k):
        # the images of a batch share one flat zero-padded buffer: each
        # image's eval output is bit for bit its output alone, so no patch
        # reads across an image's border or past the buffer's tail.  Eval
        # reuses a buffer two layers later, and junk left in its pads would
        # reach the next layer alike in the batch and alone, so the output
        # is also held to the formula on fresh zero-padded copies
        for depth in (4, 6):
            params = init_network(NetworkConfig(depth=depth, features=3, kernel_size=k), np.random.default_rng(30))
            rng = np.random.default_rng(31)
            forward(params, rng.standard_normal((4, 6, 6)), train=True)  # nontrivial folded batch norm
            batch = rng.standard_normal(shape)
            out, _ = forward(params, batch, train=False)
            alone = np.stack([forward(params, image, train=False)[0][0] for image in batch])
            assert np.array_equal(out.view(np.uint32), alone.view(np.uint32)), depth
            want = _four_pass_eval(params.astype(np.float64), batch)
            assert np.linalg.norm(out - want) <= FLOAT32_RTOL * np.linalg.norm(want), depth

    def test_train_mode_updates_running_stats(self):
        params = init_network(tiny_config(), np.random.default_rng(12))
        forward(params, np.random.default_rng(13).standard_normal((2, 8, 8)), train=True)
        assert not np.allclose(params.bn_mean[0], 0.0)

    def test_bad_batch_rejected(self):
        params = init_network(tiny_config(), np.random.default_rng(14))
        with pytest.raises(ValueError):
            forward(params, np.zeros((2, 2, 4, 4)))


class TestDtype:
    """The network computes in its parameters' dtype: float32 from
    init_network, float64 after astype."""

    def test_float32_step_promotes_nothing(self):
        params = init_network(NetworkConfig(depth=4, features=3), np.random.default_rng(23))
        state = AdamState.for_params(params)
        rng = np.random.default_rng(24)
        x = rng.standard_normal((2, 8, 8))  # float64 batch and output gradient
        out, cache = forward(params, x, train=True)
        grads = backward(params, cache, rng.standard_normal(out.shape))
        adam_step(params, grads, state, lr=1e-3)
        arrays = {"output": out, "eval output": forward(params, x, train=False)[0]}
        arrays |= {f"input {i}": a for i, (a, _) in enumerate(cache["inputs"])}
        arrays |= {f"bn cache {i}.{k}": a for i, c in enumerate(cache["bn"]) for k, a in enumerate(c)}
        arrays |= {f"grad {k}": a for k, a in grads.items()}
        arrays |= {f"adam m {k}": a for k, a in state.m.items()}
        arrays |= {f"adam v {k}": a for k, a in state.v.items()}
        arrays |= dict(params.state())  # running statistics included
        assert {k: a.dtype for k, a in arrays.items() if a.dtype != np.float32} == {}

    def test_astype_copies(self):
        params = init_network(tiny_config(), np.random.default_rng(25))
        wide = params.astype(np.float64)
        for (name, a), (_, b) in zip(params.state(), wide.state()):
            assert b.dtype == np.float64 and np.array_equal(a, b), name
            assert not np.shares_memory(a, b), name


# Normwise relative difference allowed between a float32 network and its
# float64 copy: float32's unit roundoff (6e-8) grown by up to 1e4 through
# the layers and batch norm's division by small batch variances.  Over 3,000
# random draws of these configs the worst seen was 2.2e-5 (gradients).
FLOAT32_RTOL = 1e-3


@settings(max_examples=30, deadline=None)
@given(
    depth=st.integers(2, 5),
    features=st.integers(1, 4),
    kernel_size=st.sampled_from([1, 3, 5]),
    shape=st.tuples(st.integers(1, 3), st.integers(3, 8), st.integers(3, 8)),
    seed=st.integers(0, 2**32 - 1),
)
def test_float32_agrees_with_float64(depth, features, kernel_size, shape, seed):
    rng = np.random.default_rng(seed)
    p32 = init_network(NetworkConfig(depth=depth, features=features, kernel_size=kernel_size), rng)
    p64 = p32.astype(np.float64)
    x, dy = rng.standard_normal(shape), rng.standard_normal(shape)

    def run(params):
        out, cache = forward(params, x, train=True)
        grads = backward(params, cache, dy)
        flat = np.concatenate([grads[name].ravel() for name, _ in params.flat()])
        return out, forward(params, x, train=False)[0], flat

    for name, a, b in zip(("train output", "eval output", "gradients"), run(p32), run(p64)):
        assert a.dtype == np.float32 and b.dtype == np.float64
        assert np.linalg.norm(a - b) <= FLOAT32_RTOL * np.linalg.norm(b), name


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


class TestInPlaceKernels:
    """The in-place activation and batch-norm kernels give the bits of the
    out-of-place formulas, signed zeros included."""

    @staticmethod
    def signed_data(shape=(2, 5, 5, 3)):
        x = np.random.default_rng(19).standard_normal(shape)
        x.flat[:6] = [0.0, -0.0, -1e-310, 1e-310, -3.0, 3.0]
        return x

    def test_leaky_forward_matches_where(self):
        x = self.signed_data()
        want = np.where(x >= 0, x, 0.1 * x)
        got = _leaky_forward(x.copy(), 0.1)
        assert np.array_equal(_bits(got), _bits(want))

    def test_leaky_backward_matches_where(self):
        x = self.signed_data()
        dy = np.random.default_rng(20).standard_normal(x.shape)
        dy.flat[6:8] = [-0.0, 0.0]
        want = dy * np.where(x >= 0, 1.0, 0.1)
        got = _leaky_backward(dy.copy(), x, 0.1)
        assert np.array_equal(_bits(got), _bits(want))

    def test_leaky_backward_matches_where_in_float32(self):
        # the dtype training runs in, with float32 subnormals of both signs
        x = self.signed_data().astype(np.float32)
        x.flat[2:4] = [-1e-40, 1e-40]
        dy = np.random.default_rng(20).standard_normal(x.shape).astype(np.float32)
        dy.flat[6:10] = [-0.0, 0.0, -1e-40, 1e-40]
        want = dy * np.where(x >= 0, np.float32(1), np.float32(0.1))
        got = _leaky_backward(dy.copy(), x, 0.1)
        assert got.dtype == np.float32
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32))

    @pytest.mark.parametrize("shape", [(3, 2, 8, 8), (16, 4, 48, 40)])
    def test_bn_train_statistics_match_mean_and_var(self, shape):
        x = 3.0 * np.random.default_rng(21).standard_normal(shape) + 1.0
        c = shape[0]
        _, _, mean, var = _bn_forward_train(x, np.ones(c), np.zeros(c), 1e-5)
        assert np.array_equal(_bits(mean), _bits(x.mean(axis=(1, 2, 3))))
        assert np.array_equal(_bits(var), _bits(x.var(axis=(1, 2, 3))))


def _bn_backward_four_pass(dy, xhat, inv_std, scale):
    """Batch norm's input gradient as the four-pass formula on channels-first
    (C, N, H, W) arrays, with (C, 1, 1, 1) inv_std and scale: the reference."""
    n_eff = dy.shape[1] * dy.shape[2] * dy.shape[3]
    dxhat = dy * scale
    return (
        dxhat
        - dxhat.mean(axis=(1, 2, 3), keepdims=True)
        - xhat * (dxhat * xhat).sum(axis=(1, 2, 3), keepdims=True) / n_eff
    ) * inv_std


class TestBackward:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bn_backward_matches_the_four_pass_formula(self, dtype):
        # scale, shift and batch away from their initial values; the float64
        # formula is the reference for both dtypes
        rng = np.random.default_rng(27)
        x = 2.0 * rng.standard_normal((4, 3, 6, 5)) + 0.5
        dy = rng.standard_normal(x.shape)
        scale, shift, eps = rng.uniform(0.5, 1.5, 4), rng.standard_normal(4), 1e-5
        _, (xhat, _), _, var = _bn_forward_train(x, scale, shift, eps)
        column = (4, 1, 1, 1)
        dx = _bn_backward_four_pass(dy, xhat, 1.0 / np.sqrt(var + eps).reshape(column), scale.reshape(column))
        want = dx, (dy * xhat).sum(axis=(1, 2, 3)), dy.sum(axis=(1, 2, 3))
        _, cache, _, _ = _bn_forward_train(x.astype(dtype), scale.astype(dtype), shift.astype(dtype), eps)
        got = _bn_backward(dy.astype(dtype), cache)
        for name, a, b in zip(("dx", "dscale", "dshift"), got, want):
            assert a.dtype == dtype, name
            if dtype == np.float64:
                assert np.allclose(a, b, rtol=1e-12, atol=1e-12), name
            else:
                assert np.linalg.norm(a - b) <= FLOAT32_RTOL * np.linalg.norm(b), name

    def test_train_backward_peak_memory(self):
        # at the training shape backward holds at most three activations
        # (N*H*W*F float32) at once -- the gradient, its zero-padded copy and
        # the next conv's output -- plus two patch blocks (the one in the GEMM
        # and the next) and one gradient per parameter
        cfg = NetworkConfig()
        n, h, w, f = 8, 32, 32, cfg.features
        params = init_network(cfg, np.random.default_rng(28))
        rng = np.random.default_rng(29)
        out, cache = forward(params, rng.standard_normal((n, h, w)), train=True)
        dy = rng.standard_normal(out.shape)
        tracemalloc.start()
        try:
            backward(params, cache, dy)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        act = n * h * w * f * 4
        padded = (h + 2) * (w + 2) / (h * w)
        assert peak <= (2 + padded) * act + 4 * (2 * network._BLOCK_ELEMS + cfg.state_size())

    def test_gradient_check(self):
        err = gradient_check(rng=np.random.default_rng(0))
        assert err <= 1e-4

    @pytest.mark.parametrize("rows", [1, 3])
    def test_gradient_check_with_row_blocks(self, rows, monkeypatch):
        # the check's 8x8 images fit one patch block; force blocks of rows,
        # each row 8 + 2 padded columns of 3x3 patches over 2 channels
        monkeypatch.setattr(network, "_BLOCK_ELEMS", rows * (8 + 2) * 3 * 3 * 2)
        assert gradient_check(rng=np.random.default_rng(0)) <= 1e-4

    def test_every_parameter_gets_a_gradient(self):
        # no parameter may be dead: a conv bias feeding batch norm would get
        # only roundoff here
        params = init_network(NetworkConfig(depth=5, features=4), np.random.default_rng(21))
        rng = np.random.default_rng(22)
        x = rng.standard_normal((3, 8, 8))
        out, cache = forward(params, x, train=True)
        grads = backward(params, cache, rng.standard_normal(out.shape))
        assert sorted(grads) == sorted(name for name, _ in params.flat())
        for name, arr in params.flat():
            assert grads[name].shape == arr.shape
            assert np.linalg.norm(grads[name]) > 1e-8, name

    def test_requires_train_cache(self):
        params = init_network(tiny_config(), np.random.default_rng(15))
        x = np.random.default_rng(16).standard_normal((1, 8, 8))
        out, cache = forward(params, x, train=False)
        with pytest.raises(ValueError):
            backward(params, cache, np.ones_like(out))


class TestAdam:
    def test_zero_gradient_noop(self):
        params = init_network(tiny_config(), np.random.default_rng(17))
        before = {name: a.copy() for name, a in params.flat()}
        grads = {name: np.zeros_like(a) for name, a in params.flat()}
        adam_step(params, grads, AdamState.for_params(params), lr=1e-2)
        for name, a in params.flat():
            assert np.array_equal(a, before[name])

    def test_first_step_magnitude(self):
        # bias correction makes the first update lr * g / (|g| + eps)
        params = init_network(tiny_config(), np.random.default_rng(18))
        before = {name: a.copy() for name, a in params.flat()}
        grads = {name: np.full_like(a, 3.0) for name, a in params.flat()}
        adam_step(params, grads, AdamState.for_params(params), lr=1e-2)
        for name, a in params.flat():
            assert np.allclose(before[name] - a, 1e-2 * 3.0 / (3.0 + 1e-8))

    def test_trajectory_matches_scalar_reference(self):
        # drive one parameter with a known gradient sequence and compare to
        # an independently coded scalar Adam
        cfg = NetworkConfig(depth=2, features=1, kernel_size=1)
        params = init_network(cfg, np.random.default_rng(19)).astype(np.float64)
        state = AdamState.for_params(params)
        gs = np.random.default_rng(20).standard_normal(10)
        start = float(params.weights[0][0, 0, 0, 0])

        x, m, v = start, 0.0, 0.0
        lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
        for t, g in enumerate(gs, start=1):
            grads = {name: np.full_like(a, g) for name, a in params.flat()}
            adam_step(params, grads, state, lr=lr)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            x -= lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
        assert params.weights[0][0, 0, 0, 0] == pytest.approx(x, abs=1e-12)


class TestLrSchedule:
    def test_values(self):
        assert lr_schedule(0, 1e-4) == pytest.approx(1e-4)
        assert lr_schedule(1, 1e-4) == pytest.approx(8.7e-5)
        assert lr_schedule(10, 1e-4) == pytest.approx(1e-4 * 0.87**10)
        assert lr_schedule(3, base_lr=2e-3) == pytest.approx(2e-3 * 0.87**3)

    def test_negative_epoch(self):
        with pytest.raises(ValueError):
            lr_schedule(-1, 1e-4)

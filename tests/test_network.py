import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.ndimage import correlate

from coil2coil import network
from coil2coil.network import (
    AdamState,
    NetworkConfig,
    _bn_forward_train,
    _conv,
    _leaky_backward,
    _leaky_forward,
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
            NetworkConfig(leaky_slope=1.5)

    @pytest.mark.parametrize(
        "kw",
        [{"bn_eps": -1e-5}, {"bn_eps": 0.0}, {"bn_momentum": 1.5}, {"bn_momentum": -0.1}],
        ids=["negative-eps", "zero-eps", "momentum-above-one", "negative-momentum"],
    )
    def test_batch_norm_settings_are_range_checked(self, kw):
        with pytest.raises(ValueError, match=next(iter(kw))):
            NetworkConfig(**kw)

    @pytest.mark.parametrize("momentum", [0.0, 1.0])
    def test_momentum_bounds_are_accepted(self, momentum):
        assert NetworkConfig(bn_momentum=momentum).bn_momentum == momentum


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
        x = rng.standard_normal((n, 7, 9, c))
        w = rng.standard_normal((f, c, k, k))
        if rows is not None:
            monkeypatch.setattr(network, "_BLOCK_ELEMS", rows * 9 * k * k * c)
        y = _conv(x, w)
        ref = np.zeros((n, 7, 9, f))
        for b in range(n):
            for fi in range(f):
                for ci in range(c):
                    ref[b, :, :, fi] += correlate(x[b, :, :, ci], w[fi, ci], mode="constant")
        assert y.shape == (n, 7, 9, f)
        assert np.allclose(y, ref, rtol=1e-12, atol=1e-12)


class TestForward:
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
        cfg = NetworkConfig(depth=2, features=1, kernel_size=1, leaky_slope=0.1)
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
        h = x[..., None]
        for i, w in enumerate(params.weights[:-1]):
            y = _conv(h, w)
            if i == 0:
                y = y + params.biases[0]
            else:
                j = i - 1
                y = (y - params.bn_mean[j]) / np.sqrt(params.bn_var[j] + cfg.bn_eps)
                y = y * params.bn_scale[j] + params.bn_shift[j]
            h = np.where(y >= 0, y, cfg.leaky_slope * y)
        want = _conv(h, params.weights[-1])[..., 0] + params.biases[1] + x
        out, _ = forward(params, x, train=False)
        assert np.allclose(out, want, rtol=1e-12, atol=1e-12)

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
        arrays |= {f"input {i}": a for i, a in enumerate(cache["inputs"])}
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

    @pytest.mark.parametrize("shape", [(2, 8, 8, 3), (4, 48, 40, 16)])
    def test_bn_train_statistics_match_mean_and_var(self, shape):
        x = 3.0 * np.random.default_rng(21).standard_normal(shape) + 1.0
        c = shape[-1]
        _, _, mean, var = _bn_forward_train(x, np.ones(c), np.zeros(c), 1e-5)
        assert np.array_equal(_bits(mean), _bits(x.mean(axis=(0, 1, 2))))
        assert np.array_equal(_bits(var), _bits(x.var(axis=(0, 1, 2))))


class TestBackward:
    def test_gradient_check(self):
        err = gradient_check(rng=np.random.default_rng(0))
        assert err <= 1e-4

    @pytest.mark.parametrize("rows", [1, 3])
    def test_gradient_check_with_row_blocks(self, rows, monkeypatch):
        # the check's 8x8 images fit one patch block; force blocks of rows
        monkeypatch.setattr(network, "_BLOCK_ELEMS", rows * 8 * 3 * 3 * 2)
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

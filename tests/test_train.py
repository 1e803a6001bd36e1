import importlib
from dataclasses import replace

import numpy as np
import pytest

from coil2coil import imaging
from coil2coil import pairs as pairs_mod
from coil2coil.datasets import SliceData
from coil2coil.imaging import coil_combine, effective_sensitivity
from coil2coil.network import NetworkConfig, init_network
from coil2coil.pairs import TrainingPair, combine_all, make_training_pair, split_channels
from coil2coil.simulate import (
    CoilSpec,
    NoiseSpec,
    make_mask,
    make_noise_covariance,
    make_phantom,
    make_sensitivities,
    random_phantom_spec,
    synthesize_acquisition,
)
from coil2coil.tensorio import load_checkpoint, save_checkpoint
from coil2coil.train import (
    MODES,
    TrainConfig,
    _epoch_pairs,
    _input_scale,
    c2c_loss,
    denoise,
    denoise_image,
    denoise_two_group_average,
    train,
    validate,
)

train_mod = importlib.import_module("coil2coil.train")  # the package's `train` is the function


def random_pair(rng, shape=(6, 6)):
    mask = np.zeros(shape, bool)
    mask[1:-1, 1:-1] = True
    return TrainingPair(
        image_in=rng.uniform(0.5, 2.0, shape),
        image_label=rng.uniform(0.5, 2.0, shape),
        sens_in=rng.uniform(0.5, 1.5, shape),
        sens_label=rng.uniform(0.5, 1.5, shape),
        mask=mask,
    )


def unit_maps(pair):
    ones = np.ones_like(pair.image_in)
    return replace(pair, sens_in=ones, sens_label=ones)


def tiny_slices(n=4, grid=16, m=4, sigma=0.5, seed=0, with_second=False):
    rng = np.random.default_rng(seed)
    slices = []
    for _ in range(n):
        phantom = make_phantom(random_phantom_spec(grid, rng))
        mask = make_mask(phantom)
        sens = make_sensitivities(CoilSpec.ring(m), phantom.shape)
        psi = make_noise_covariance(sens, phantom, mask, NoiseSpec(sigma=sigma), rng)
        stack = synthesize_acquisition(phantom, sens, psi, rng)
        clean = combine_all(sens * phantom[None], sens)
        stack_b = synthesize_acquisition(phantom, sens, psi, rng) if with_second else None
        slices.append(SliceData(stack=stack, sens=sens, psi=psi, mask=mask, clean=clean, stack_b=stack_b))
    return slices


def identity_params(depth=3, features=2):
    """A network whose output is its input, in float64 so the input is not rounded."""
    params = init_network(NetworkConfig(depth=depth, features=features), np.random.default_rng(0))
    params = params.astype(np.float64)
    params.weights[-1][:] = 0.0
    params.biases[-1][:] = 0.0
    return params


class TestLoss:
    def test_zero_at_consistent_prediction(self):
        # pred = (S_in / S_label) * label makes the weighted residual vanish
        pair = random_pair(np.random.default_rng(0))
        pred = pair.sens_in * pair.image_label / pair.sens_label
        loss, grad = c2c_loss(pred, pair)
        assert loss == pytest.approx(0.0, abs=1e-24)
        assert np.allclose(grad, 0.0, atol=1e-12)

    def test_unnormalized_is_masked_mse(self):
        # a pair with unit maps, as N2N, N2CL and C2C-unnormalized build them
        pair = unit_maps(random_pair(np.random.default_rng(1)))
        pred = np.random.default_rng(2).uniform(0.5, 2.0, pair.image_in.shape)
        loss, _ = c2c_loss(pred, pair)
        want = np.mean((pred[pair.mask] - pair.image_label[pair.mask]) ** 2)
        assert loss == pytest.approx(want, rel=1e-12)

    def test_gradient_finite_difference(self):
        pair = random_pair(np.random.default_rng(3), shape=(4, 4))
        pred = np.random.default_rng(4).uniform(0.5, 2.0, (4, 4))
        _, grad = c2c_loss(pred, pair)
        h = 1e-6
        for r in range(4):
            for c in range(4):
                pp, pm = pred.copy(), pred.copy()
                pp[r, c] += h
                pm[r, c] -= h
                num = (c2c_loss(pp, pair)[0] - c2c_loss(pm, pair)[0]) / (2 * h)
                assert grad[r, c] == pytest.approx(num, abs=1e-6)

    @pytest.mark.parametrize("normalize", [True, False])
    @pytest.mark.parametrize("size", [1, 3, 8])
    def test_batch_equals_the_per_pair_loop(self, size, normalize):
        # the oracle is the per-pair loss and loop the training step ran
        # before one call served a batch: the mean of the losses in batch
        # order, each gradient over the batch size; masks of different counts.
        # With normalize off the batch holds unit-map pairs, as the
        # C2C-unnormalized mode builds them.
        rng = np.random.default_rng(size)
        pairs = [random_pair(rng) for _ in range(size)]
        for k, p in enumerate(pairs):
            p.mask[1, 1 : 1 + k % 3] = False
        pred = rng.uniform(0.5, 2.0, (size, 6, 6))
        loss_ref, grad_ref = 0.0, np.empty_like(pred)
        for row, p in enumerate(pairs):
            n = int(np.count_nonzero(p.mask))
            ones = np.ones_like(p.image_in)
            s_lab, s_in = (p.sens_label, p.sens_in) if normalize else (ones, ones)
            resid = np.where(p.mask, s_lab * pred[row] - s_in * p.image_label, 0.0)
            loss_ref += float(np.sum(resid**2)) / n
            grad_ref[row] = 2.0 * s_lab * resid / n
        loss_ref /= size
        grad_ref /= size

        batch = TrainingPair(*(np.stack(a) for a in zip(*(
            (p.image_in, p.image_label, p.sens_in, p.sens_label, p.mask)
            for p in (pairs if normalize else map(unit_maps, pairs))
        ))))
        loss, grad = c2c_loss(pred, batch)
        assert loss.hex() == loss_ref.hex()
        assert grad.tobytes() == grad_ref.tobytes()
        assert len({int(np.count_nonzero(p.mask)) for p in pairs}) == min(size, 3)

    def test_empty_mask_rejected(self):
        pair = random_pair(np.random.default_rng(5))
        bad = TrainingPair(
            pair.image_in, pair.image_label, pair.sens_in, pair.sens_label,
            np.zeros_like(pair.mask),
        )
        with pytest.raises(ValueError):
            c2c_loss(pair.image_in, bad)


class TestTrainLoop:
    def test_zero_lr_leaves_weights_unchanged(self, monkeypatch):
        # TrainConfig refuses base_lr <= 0, so the schedule is zeroed instead
        monkeypatch.setattr("coil2coil.network.lr_schedule", lambda epoch, base_lr: 0.0)
        slices = tiny_slices(n=2)
        net_cfg = NetworkConfig(depth=3, features=2)
        cfg = TrainConfig(epochs=1, batch_size=2, seed=0)
        params, _, _ = train(slices, net_cfg, cfg)
        ref = init_network(net_cfg, np.random.default_rng(0))
        for (_, a), (_, b) in zip(params.flat(), ref.flat()):
            assert np.array_equal(a, b)

    def test_same_seed_is_deterministic(self):
        slices = tiny_slices(n=3)
        net_cfg = NetworkConfig(depth=3, features=2)
        cfg = TrainConfig(epochs=2, batch_size=2, base_lr=1e-3, seed=7)
        p1, log1, _ = train(slices, net_cfg, cfg)
        p2, log2, _ = train(slices, net_cfg, cfg)
        assert log1.losses == log2.losses
        for (_, a), (_, b) in zip(p1.flat(), p2.flat()):
            assert np.array_equal(a, b)

    def test_splits_resampled_every_epoch(self):
        slices = tiny_slices(n=2, m=8)
        net_cfg = NetworkConfig(depth=3, features=2)
        cfg = TrainConfig(epochs=10, batch_size=2, base_lr=1e-4, seed=0)
        _, _, splits = train(slices, net_cfg, cfg)
        assert len(splits) == 20
        distinct = {(s.group_j, s.group_k) for s in splits}
        assert len(distinct) >= 5

    def test_loss_decreases(self):
        slices = tiny_slices(n=4, sigma=0.5)
        net_cfg = NetworkConfig(depth=3, features=4)
        cfg = TrainConfig(epochs=10, batch_size=4, base_lr=1e-3, mode="N2CL", seed=0)
        _, log, _ = train(slices, net_cfg, cfg)
        assert log.losses[-1] < log.losses[0]

    def test_missing_data_per_mode(self):
        slices = tiny_slices(n=2)
        for s in slices:
            s.clean = None
        net_cfg = NetworkConfig(depth=3, features=2)
        with pytest.raises(ValueError, match="N2N"):
            train(slices, net_cfg, TrainConfig(epochs=1, mode="N2N"))
        with pytest.raises(ValueError, match="N2CL"):
            train(slices, net_cfg, TrainConfig(epochs=1, mode="N2CL"))
        with pytest.raises(ValueError):
            train([], net_cfg, TrainConfig(epochs=1))

    @pytest.mark.parametrize("mode", MODES)
    def test_one_epoch_in_every_mode(self, mode):
        # each MODES entry trains from slices carrying every field a mode may
        # need; only the C2C modes draw splits, one per slice
        slices = tiny_slices(n=3, with_second=True)
        cfg = TrainConfig(epochs=1, batch_size=2, base_lr=1e-3, mode=mode, seed=0)
        params, log, splits = train(slices, NetworkConfig(depth=3, features=2), cfg)
        assert len(log.losses) == 1 and np.isfinite(log.losses[0])
        assert all(np.all(np.isfinite(a)) for _, a in params.flat())
        assert len(splits) == (3 if mode.startswith("C2C") else 0)

    def test_unknown_mode_refused(self):
        with pytest.raises(ValueError, match="C2C-unnormalized"):
            TrainConfig(mode="C2C-raw")

    def test_validation_logged(self):
        slices = tiny_slices(n=2)
        net_cfg = NetworkConfig(depth=3, features=2)
        cfg = TrainConfig(epochs=2, batch_size=2, base_lr=1e-4, validate_every=1, seed=0)
        _, log, _ = train(slices, net_cfg, cfg, val_slices=slices)
        assert len(log.val_psnrs) == 2
        assert all(np.isfinite(v) for v in log.val_psnrs)
        rows = log.rows()
        assert len(rows) == 2 and rows[0][0] == 0


class TestEpochPairs:
    @pytest.mark.filterwarnings("ignore:degenerate pair")
    def test_stack_carries_each_pairs_diagnostics(self):
        # each channel sees one half-plane, so a group can miss a quadrant:
        # coverages below 1 and fallback voxels.  The same rng draws the same
        # splits, so the stack's diagnostics equal the pairs' built one by one.
        slices = tiny_slices(n=3)
        half = np.ones((4, 16, 16))
        half[0, :, 8:] = half[1, :, :8] = half[2, 8:] = half[3, :8] = 0.0
        for data in slices:
            data.sens = data.sens * half
        stacked, splits = _epoch_pairs(slices, TrainConfig(epochs=1), np.random.default_rng(3))
        rng = np.random.default_rng(3)
        own = []
        for data in slices:
            split = split_channels(data.stack.shape[0], rng)
            own.append(make_training_pair(data.stack, data.sens, data.psi, split, data.mask))
        assert min(p.coverage_k for p in own) < 1.0 and max(p.n_fallback for p in own) > 0
        for name in ("coverage_j", "coverage_k", "n_fallback"):
            assert getattr(stacked, name).shape == (3,)
            assert getattr(stacked, name).tolist() == [getattr(p, name) for p in own]
        assert stacked[[2, 0]].coverage_j.tolist() == [own[2].coverage_j, own[0].coverage_j]

    def test_covariance_checked_once_per_slice(self, monkeypatch):
        # train validates each slice's psi before the first epoch; the
        # per-epoch pairs of three epochs check none
        checked = []

        def counting(check):
            return lambda psi, m: checked.append(m) or check(psi, m)

        for module in (imaging, pairs_mod):
            monkeypatch.setattr(module, "check_covariance", counting(module.check_covariance))
        train(tiny_slices(n=3), NetworkConfig(depth=3, features=2), TrainConfig(epochs=3, batch_size=2))
        assert checked == [4, 4, 4]

    def test_bad_covariance_refused_before_training(self):
        slices = tiny_slices(n=2)
        slices[1].psi = slices[1].psi - 2 * np.eye(4) * np.abs(slices[1].psi).max()  # not PSD
        with pytest.raises(ValueError, match="PSD"):
            train(slices, NetworkConfig(depth=3, features=2), TrainConfig(epochs=1))

    def test_unit_maps_unless_normalized_c2c(self):
        slices = tiny_slices(n=2, with_second=True)
        for mode in ("C2C-unnormalized", "N2N", "N2CL"):
            pairs, _ = _epoch_pairs(slices, TrainConfig(epochs=1, mode=mode), np.random.default_rng(0))
            assert np.all(pairs.sens_in == 1.0) and np.all(pairs.sens_label == 1.0)
        for mode in ("C2C", "C2C-unwhitened"):
            pairs, _ = _epoch_pairs(slices, TrainConfig(epochs=1, mode=mode), np.random.default_rng(0))
            assert not np.all(pairs.sens_in == 1.0)

    def test_whitening_off_pairs_are_the_raw_group_k_combination(self):
        # the whitening ablation: label map S_k and label |combination of K|
        # over the input's scale, bit for bit
        slices = tiny_slices(n=3, m=5)
        pairs, splits = _epoch_pairs(slices, TrainConfig(mode="C2C-unwhitened"), np.random.default_rng(4))
        for i, (data, split) in enumerate(zip(slices, splits)):
            s = _input_scale(np.abs(coil_combine(data.stack, data.sens, split.group_j)), data.mask)
            raw = np.abs(coil_combine(data.stack, data.sens, split.group_k))
            assert pairs.sens_label[i].tobytes() == effective_sensitivity(data.sens, split.group_k).tobytes()
            assert pairs.image_label[i].tobytes() == (raw / s).tobytes()


class TestInputScale:
    def test_derived_mask_gives_the_given_mask_scale(self):
        # noise-free, make_mask of the combined image recovers the simulated
        # mask, so the scale without a mask is the one training used; the
        # whole-image std is larger
        for s in tiny_slices(n=4, sigma=0.0):
            img = combine_all(s.stack, s.sens)
            assert _input_scale(img) == _input_scale(img, s.mask)
            assert img.std() > 1.2 * _input_scale(img, s.mask)

    def test_all_zero_image_has_unit_scale(self):
        assert _input_scale(np.zeros((8, 8))) == 1.0


class TestInference:
    def test_identity_network_passthrough(self):
        params = identity_params()
        slices = tiny_slices(n=1)
        data = slices[0]
        out = denoise(params, data.stack, data.sens, mask=data.mask)
        assert np.allclose(out, combine_all(data.stack, data.sens), rtol=1e-12)

    def test_checkpoint_round_trip_keeps_eval_bits(self, tmp_path):
        # training runs the float32 model a checkpoint stores, so the loaded
        # parameters denoise a 32x32 slice to the in-memory model's bits
        slices = tiny_slices(n=4, grid=32)
        params, _, _ = train(slices, NetworkConfig(depth=4, features=4), TrainConfig(epochs=2, batch_size=2))
        save_checkpoint(tmp_path / "model.c2k", params)
        loaded = load_checkpoint(tmp_path / "model.c2k")
        data = slices[0]
        want = denoise(params, data.stack, data.sens, mask=data.mask)
        assert denoise(loaded, data.stack, data.sens, mask=data.mask).tobytes() == want.tobytes()

    def test_denoise_image_agrees_with_denoise(self):
        rng = np.random.default_rng(6)
        params = init_network(NetworkConfig(depth=3, features=2), rng)
        data = tiny_slices(n=1)[0]
        a = denoise(params, data.stack, data.sens, mask=data.mask)
        b = denoise_image(params, combine_all(data.stack, data.sens), mask=data.mask)
        assert np.array_equal(a, b)

    def test_two_group_identity_noise_free(self):
        # identity network, no noise: both rescaled halves equal the full
        # combination, so the average matches plain inference exactly
        params = identity_params()
        rng = np.random.default_rng(7)
        phantom = make_phantom(random_phantom_spec(16, rng))
        sens = make_sensitivities(CoilSpec.ring(4), phantom.shape)
        stack = sens * phantom[None]
        mask = make_mask(phantom)
        out = denoise_two_group_average(params, stack, sens, np.random.default_rng(0), mask=mask)
        want = denoise(params, stack, sens, mask=mask)
        assert np.allclose(out[mask], want[mask], rtol=1e-8)

    def test_two_group_needs_channels(self):
        params = identity_params()
        with pytest.raises(ValueError):
            denoise_two_group_average(
                params, np.ones((1, 8, 8), complex), np.ones((1, 8, 8), complex),
                np.random.default_rng(0), np.ones((8, 8), bool),
            )

    @pytest.mark.parametrize("m, seed", [(3, 3), (4, 7), (8, 16)])
    def test_two_group_denoises_the_best_scored_split(self, m, seed, monkeypatch):
        # denoise runs once on each group of the split chosen from the rng's
        # SPLIT_CANDIDATES draws: the first whose weaker group has the largest
        # minimum gain inside the mask, groups in (j, k) order.  Among these
        # draws, taking the last best, scoring group j alone, or scoring the
        # whole grid each picks another split for at least one m
        rng = np.random.default_rng(m)
        phantom = make_phantom(random_phantom_spec(16, rng))
        sens = make_sensitivities(CoilSpec.ring(m), phantom.shape)
        mask = make_mask(phantom)
        stack = sens * phantom[None]
        calls = []

        def recording_denoise(params, stack_g, sens_g, mask_g):
            calls.append([next(i for i in range(m) if np.array_equal(row, sens[i])) for row in sens_g])
            assert np.array_equal(stack_g, stack[calls[-1]]) and mask_g is not None
            return denoise(params, stack_g, sens_g, mask_g)

        monkeypatch.setattr(train_mod, "denoise", recording_denoise)
        draws = np.random.default_rng(seed)
        oracle = np.random.default_rng(seed)
        denoise_two_group_average(identity_params(), stack, sens, draws, mask)

        best, want = -np.inf, None
        for _ in range(train_mod.SPLIT_CANDIDATES):
            cand = split_channels(m, oracle)
            score = min(effective_sensitivity(sens, g)[mask].min() for g in (cand.group_j, cand.group_k))
            if score > best:
                best, want = score, cand
        assert calls == [list(want.group_j), list(want.group_k)]
        assert sorted(calls[0] + calls[1]) == list(range(m))
        assert draws.bit_generator.state == oracle.bit_generator.state

    @pytest.mark.parametrize(
        "image, mask, match",
        [
            (np.ones(16), None, "2-D"),
            (np.ones((8, 8)), np.ones((8, 9), bool), "mask shape"),
            (np.ones((8, 8)), np.zeros((8, 8), bool), "no true voxels"),
        ],
        ids=["1-d-image", "mask-shape", "empty-mask"],
    )
    def test_denoise_image_checks_its_inputs(self, image, mask, match):
        with pytest.raises(ValueError, match=match):
            denoise_image(identity_params(), image, mask=mask)

    @pytest.mark.parametrize(
        "mask, match",
        [(np.ones((8, 8), bool), "mask shape"), (np.zeros((16, 16), bool), "no true voxels")],
        ids=["mask-shape", "empty-mask"],
    )
    def test_two_group_checks_its_mask(self, mask, match):
        # refused before a split is scored, as denoise refuses them
        stack = np.ones((4, 16, 16), complex)
        with pytest.raises(ValueError, match=match):
            denoise_two_group_average(identity_params(), stack, stack, np.random.default_rng(0), mask=mask)

    def test_validate_returns_mean_psnr(self):
        params = identity_params()
        slices = tiny_slices(n=3, sigma=0.2)
        from coil2coil.metrics import psnr

        want = np.mean([
            psnr(combine_all(s.stack, s.sens), s.clean, s.mask) for s in slices
        ])
        assert validate(params, slices) == pytest.approx(want, rel=1e-9)

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coil2coil.imaging import (
    effective_sensitivity,
    magnitude_noise_stats,
    noise_grams,
    propagate_noise_stats,
)
from coil2coil.pairs import (
    DET_EPS,
    MC_BUDGET,
    ChannelSplit,
    _combined_noise,
    combine_all,
    empirical_noise_correlation,
    empirical_noise_correlations,
    make_training_pair,
    pair_from_checked,
    split_channels,
    whitening_coefficients,
)
from coil2coil.simulate import (
    CoilSpec,
    NoiseSpec,
    make_mask,
    make_noise_covariance,
    make_phantom,
    make_sensitivities,
    random_phantom_spec,
    sample_noise,
    synthesize_acquisition,
)


def stats_of(vj, vk, c):
    shape = np.shape(vj) if np.ndim(vj) else (1, 1)
    return tuple(np.full(shape, x, dtype=float) for x in (vj, vk, c))


class TestChannelSplit:
    def test_validation(self):
        with pytest.raises(ValueError, match="overlap"):
            ChannelSplit((0, 1), (1, 2, 3))
        with pytest.raises(ValueError, match="cover"):
            ChannelSplit((0, 1), (3, 4))
        with pytest.raises(ValueError, match="balanced"):
            ChannelSplit((0,), (1, 2, 3))

    def test_split_frequencies_uniform(self):
        # each channel should land in group_j about half the time
        rng = np.random.default_rng(0)
        m, draws = 8, 10_000
        counts = np.zeros(m)
        for _ in range(draws):
            split = split_channels(m, rng)
            counts[list(split.group_j)] += 1
        assert np.all(np.abs(counts / draws - 0.5) < 0.02)

    def test_odd_channel_count(self):
        rng = np.random.default_rng(1)
        sizes = set()
        for _ in range(50):
            s = split_channels(5, rng)
            sizes.add((len(s.group_j), len(s.group_k)))
        assert sizes <= {(2, 3), (3, 2)}
        assert len(sizes) == 2  # both orientations occur

    def test_too_few_channels(self):
        with pytest.raises(ValueError):
            split_channels(1, np.random.default_rng(0))


class TestWhiteningCoefficients:
    def test_unit_variances_half_correlation(self):
        alpha, beta, n_fallback = whitening_coefficients(*stats_of(1.0, 1.0, 0.5))
        # det = 3/4: alpha = -0.5/sqrt(0.75), beta = 1/sqrt(0.75)
        assert alpha[0, 0] == pytest.approx(-0.5773502691896258, rel=1e-12)
        assert beta[0, 0] == pytest.approx(1.1547005383792517, rel=1e-12)
        assert n_fallback == 0

    def test_uncorrelated_variance_matching(self):
        alpha, beta, _ = whitening_coefficients(*stats_of(4.0, 1.0, 0.0))
        assert alpha[0, 0] == 0.0
        assert beta[0, 0] == pytest.approx(2.0, rel=1e-12)

    def test_variance_preservation_identity(self):
        # var(alpha*in + beta*label) must equal var(in)
        rng = np.random.default_rng(2)
        vj = rng.uniform(0.5, 4.0, (6, 6))
        vk = rng.uniform(0.5, 4.0, (6, 6))
        c = rng.uniform(-0.9, 0.9, (6, 6)) * np.sqrt(vj * vk)
        alpha, beta, _ = whitening_coefficients(*stats_of(vj, vk, c))
        preserved = alpha**2 * vj + beta**2 * vk + 2 * alpha * beta * c
        assert np.allclose(preserved, vj, rtol=1e-10)

    def test_decorrelation_identity(self):
        # cov(in, alpha*in + beta*label) = alpha*v_j + beta*c = 0
        rng = np.random.default_rng(3)
        vj = rng.uniform(0.5, 4.0, (6, 6))
        vk = rng.uniform(0.5, 4.0, (6, 6))
        c = rng.uniform(-0.9, 0.9, (6, 6)) * np.sqrt(vj * vk)
        alpha, beta, _ = whitening_coefficients(*stats_of(vj, vk, c))
        assert np.allclose(alpha * vj + beta * c, 0.0, atol=1e-12)

    def test_scale_invariance(self):
        # multiplying all three statistics by t leaves (alpha, beta) unchanged
        alpha, beta, _ = whitening_coefficients(*stats_of(2.0, 3.0, 1.1))
        alpha_t, beta_t, _ = whitening_coefficients(*stats_of(2.0 * 7.5, 3.0 * 7.5, 1.1 * 7.5))
        assert np.allclose(alpha, alpha_t, rtol=1e-12)
        assert np.allclose(beta, beta_t, rtol=1e-12)

    def test_degenerate_fallback(self):
        # perfectly correlated voxel: fall back to variance matching
        alpha, beta, n_fallback = whitening_coefficients(*stats_of(4.0, 1.0, 2.0))
        assert n_fallback == 1
        assert alpha[0, 0] == 0.0
        assert beta[0, 0] == pytest.approx(2.0)
        # zero label variance: beta = 1
        alpha, beta, n_fallback = whitening_coefficients(*stats_of(1.0, 0.0, 0.0))
        assert n_fallback == 1
        assert alpha[0, 0] == 0.0
        assert beta[0, 0] == 1.0


class SyntheticScene:
    """Shared small acquisition used by the pair tests."""

    def __init__(self, grid=16, m=4, sigma=0.3, seed=0):
        rng = np.random.default_rng(seed)
        self.phantom = make_phantom(random_phantom_spec(grid, rng))
        self.mask = make_mask(self.phantom)
        self.sens = make_sensitivities(CoilSpec.ring(m), self.phantom.shape)
        self.psi = make_noise_covariance(
            self.sens, self.phantom, self.mask,
            NoiseSpec(sigma=sigma, rho_min=0.1, rho_max=0.3), rng,
        )
        self.split = ChannelSplit(tuple(range(m // 2)), tuple(range(m // 2, m)))
        self.rng = rng


class TestMakeTrainingPair:
    def test_noise_free_consistency(self):
        # without noise the sensitivity-weighted residual must vanish:
        # S_label * I_in == S_in * label'
        scene = SyntheticScene()
        clean_stack = scene.sens * scene.phantom[None]
        pair = make_training_pair(clean_stack, scene.sens, scene.psi, scene.split, scene.mask)
        lhs = pair.sens_label * pair.image_in
        rhs = pair.sens_in * pair.image_label
        scale = np.abs(lhs[scene.mask]).max()
        assert np.allclose(lhs[scene.mask], rhs[scene.mask], atol=1e-10 * scale)

    def test_uncorrelated_equal_groups_no_mixing(self):
        # identity-covariance noise with symmetric unit coils: alpha = 0,
        # beta = 1, so the whitened pair equals the raw one
        m = 2
        sens = np.ones((m, 8, 8), dtype=complex)
        phantom = np.full((8, 8), 1.0 + 0j)
        stack = sens * phantom[None] + 0.1 * np.random.default_rng(4).standard_normal((m, 8, 8))
        mask = np.ones((8, 8), bool)
        psi = np.eye(m, dtype=complex)
        split = ChannelSplit((0,), (1,))
        on = make_training_pair(stack, sens, psi, split, mask)
        off = pair_from_checked(stack, sens, psi, split, mask, whiten=False)
        assert np.allclose(on.image_label, off.image_label, rtol=1e-12)
        assert np.allclose(on.sens_label, off.sens_label, rtol=1e-12)

    @pytest.mark.parametrize("m", [4, 5])
    def test_unwhitened_label_is_the_raw_group_k_combination(self, m):
        # whiten off is the label formula with (alpha, beta) = (0, 1): label
        # and map equal |combination of K| and S_k byte for byte
        from coil2coil.imaging import coil_combine, effective_sensitivity

        scene = SyntheticScene(m=m)
        stack = synthesize_acquisition(scene.phantom, scene.sens, scene.psi, scene.rng)
        split = split_channels(m, scene.rng)
        pair = pair_from_checked(stack, scene.sens, scene.psi, split, scene.mask, whiten=False)
        raw = np.abs(coil_combine(stack, scene.sens, split.group_k))
        assert pair.image_label.tobytes() == raw.tobytes()
        assert pair.sens_label.tobytes() == effective_sensitivity(scene.sens, split.group_k).tobytes()
        assert pair.n_fallback == 0

    def test_split_mismatch_rejected(self):
        scene = SyntheticScene()
        bad = ChannelSplit((0,), (1,))
        with pytest.raises(ValueError, match="split"):
            make_training_pair(scene.sens * scene.phantom[None], scene.sens, scene.psi, bad, scene.mask)

    def test_coverage_and_fallback_reported(self):
        scene = SyntheticScene()
        stack = synthesize_acquisition(scene.phantom, scene.sens, scene.psi, scene.rng)
        pair = make_training_pair(stack, scene.sens, scene.psi, scene.split, scene.mask)
        assert 0.0 <= pair.coverage_j <= 1.0
        assert 0.0 <= pair.coverage_k <= 1.0
        assert pair.n_fallback >= 0

    def test_combine_all_matches_group_sum(self):
        scene = SyntheticScene()
        stack = synthesize_acquisition(scene.phantom, scene.sens, scene.psi, scene.rng)
        from coil2coil.imaging import coil_combine

        full = combine_all(stack, scene.sens)
        parts = coil_combine(stack, scene.sens, scene.split.group_j) + coil_combine(
            stack, scene.sens, scene.split.group_k
        )
        assert np.allclose(full, np.abs(parts))


def mc_chunk(n_voxels):
    """Realizations per Monte-Carlo chunk at n_voxels voxels."""
    return max(1, MC_BUDGET // (4 * n_voxels))


def clean_combinations(phantom, sens, split, voxels):
    """The noise-free group combinations (c_j, c_k) at the flat voxels."""
    x = phantom.ravel()[voxels]
    groups = (split.group_j, split.group_k)
    return tuple(effective_sensitivity(sens, g).ravel()[voxels] * x for g in groups)


def label_noise_correlations(phantom, sens, psi, split, mask, n_real, rng):
    """(whitened, raw) by correlating each label's own samples with the
    input: the oracle of empirical_noise_correlations, which derives the
    whitened figure from the moments of the input and the raw label.  The
    whitened label alpha*a + beta*b is formed per realization and its
    correlation with a taken from centered (two-pass) moments of the
    unshifted magnitudes; the raw figure repeats the shifted one-pass sums
    chunk by chunk, so its bits must agree.  The 2x2 noise is drawn at the
    masked voxels only."""
    grams = noise_grams(sens, psi, split.group_j, split.group_k)
    alpha, beta, _ = whitening_coefficients(*magnitude_noise_stats(*grams))
    inside = np.flatnonzero(mask)
    g_jj, g_kk, g_jk, alpha, beta = (x.ravel()[inside] for x in (*grams, alpha, beta))
    cj, ck = clean_combinations(phantom, sens, split, inside)
    sums = np.zeros((5, inside.size))
    inputs, labels = [], []
    done = 0
    while done < n_real:
        r = min(mc_chunk(inside.size), n_real - done)
        e_j, e_k = _combined_noise(g_jj, g_kk, g_jk, r, rng)
        img_in, raw = np.abs(cj + e_j), np.abs(ck + e_k)
        da, db = img_in - np.abs(cj), raw - np.abs(ck)
        sums += [x.sum(axis=0) for x in (da, db, da * da, db * db, da * db)]
        inputs.append(img_in)
        labels.append(alpha * img_in + beta * raw)
        done += r
    ea, eb, eaa, ebb, eab = sums / n_real
    va, vb, cov = eaa - ea**2, ebb - eb**2, eab - ea * eb
    corr_raw = np.where((va > 0) & (vb > 0), cov / np.sqrt(np.maximum(va * vb, 1e-300)), 0.0)
    da = np.concatenate(inputs)
    da -= da.mean(axis=0)
    dl = np.concatenate(labels)
    dl -= dl.mean(axis=0)
    va, vl, cov = (da * da).mean(axis=0), (dl * dl).mean(axis=0), (da * dl).mean(axis=0)
    corr_white = np.where((va > 0) & (vl > 0), cov / np.sqrt(np.maximum(va * vl, 1e-300)), 0.0)
    return float(np.mean(np.abs(corr_white))), float(np.mean(np.abs(corr_raw)))


def full_grid_noise_correlations(phantom, sens, psi, split, mask, n_real, rng):
    """(whitened, raw) from 2x2 noise drawn at every grid voxel, the figures
    then taken over the mask; chunked by the same rule, so with an all-true
    mask its draws are the same."""
    grams = noise_grams(sens, psi, split.group_j, split.group_k)
    alpha, beta, _ = whitening_coefficients(*magnitude_noise_stats(*grams))
    g_jj, g_kk, g_jk, alpha, beta = (x.ravel() for x in (*grams, alpha, beta))
    cj, ck = clean_combinations(phantom, sens, split, np.arange(mask.size))
    sums = np.zeros((5, mask.size))
    done = 0
    while done < n_real:
        r = min(mc_chunk(mask.size), n_real - done)
        e_j, e_k = _combined_noise(g_jj, g_kk, g_jk, r, rng)
        a, b = np.abs(cj + e_j) - np.abs(cj), np.abs(ck + e_k) - np.abs(ck)
        sums += [x.sum(axis=0) for x in (a, b, a * a, b * b, a * b)]
        done += r
    ea, eb, eaa, ebb, eab = sums / n_real
    va, vb, c = eaa - ea**2, ebb - eb**2, eab - ea * eb
    cov = np.stack([alpha * va + beta * c, c])
    var = np.stack([alpha**2 * va + 2 * alpha * beta * c + beta**2 * vb, vb])
    corr = np.where((va > 0) & (var > 0), cov / np.sqrt(np.maximum(va * var, 1e-300)), 0.0)
    return tuple(float(np.mean(np.abs(x[mask.ravel()]))) for x in corr)


def projected_noise(sens, psi, split, voxels, n_real, rng):
    """The two group combinations' noise (s_J^H n_J, s_K^H n_K) at the given
    flat voxels, projected from n_real draws of all m channels' noise: the
    m-channel sampler, kept as the oracle of the 2x2 draws."""
    s = sens.reshape(len(sens), -1)[:, voxels]
    noise = sample_noise(psi, (n_real, len(voxels)), rng)
    groups = (list(split.group_j), list(split.group_k))
    return tuple(np.einsum("cv,crv->rv", s[g].conj(), noise[g]) for g in groups)


def channel_noise_correlations(phantom, sens, psi, split, mask, n_real, rng):
    """(whitened, raw) from the matched-filter combinations of each group's
    channel signals and m-channel noise, the sampler
    empirical_noise_correlations used before it drew from the 2x2 Grams, in
    chunks of 200 realizations; centered (two-pass) moments."""
    stats = propagate_noise_stats(sens, psi, split.group_j, split.group_k)
    alpha, beta, _ = whitening_coefficients(*stats)
    inside = np.flatnonzero(mask)
    alpha, beta = alpha.ravel()[inside], beta.ravel()[inside]
    s, x = sens.reshape(len(sens), -1)[:, inside], phantom.ravel()[inside]
    groups = (list(split.group_j), list(split.group_k))
    cj, ck = (np.einsum("cv,cv->v", s[g].conj(), s[g] * x) for g in groups)
    a, b = [], []
    for done in range(0, n_real, 200):
        e_j, e_k = projected_noise(sens, psi, split, inside, min(200, n_real - done), rng)
        a.append(np.abs(cj + e_j))
        b.append(np.abs(ck + e_k))
    a, b = (np.concatenate(x) for x in (a, b))
    a -= a.mean(axis=0)
    b -= b.mean(axis=0)
    label = alpha * a + beta * b
    va = (a * a).mean(axis=0)
    corr = [(a * x).mean(axis=0) / np.sqrt(va * (x * x).mean(axis=0)) for x in (label, b)]
    return tuple(float(np.mean(np.abs(c))) for c in corr)


def phased_complex_scene(m=6, grid=16, seed=0):
    """A grid^2 scene of m ring coils with their default phases and a
    random complex channel covariance, whose cross Grams have a large
    imaginary part."""
    rng = np.random.default_rng(seed)
    phantom = make_phantom(random_phantom_spec(grid, rng))
    mask = make_mask(phantom)
    sens = make_sensitivities(CoilSpec.ring(m), phantom.shape)
    a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    psi = 0.02 * (np.eye(m) + a @ a.conj().T / m)
    return phantom, sens, psi, mask, ChannelSplit(tuple(range(0, m, 2)), tuple(range(1, m, 2)))


class TestEmpiricalNoiseCorrelation:
    @pytest.mark.parametrize("m", [4, 5, 7, 16])
    def test_moments_match_the_label_oracle(self, m):
        # the raw figure is the oracle's bit for bit; the whitened one,
        # derived from the moments, agrees to roundoff
        scene = SyntheticScene(grid=16, m=m, sigma=0.3, seed=m)
        split = split_channels(m, np.random.default_rng(m + 1))
        args = (scene.phantom, scene.sens, scene.psi, split, scene.mask, 1_200)
        white, raw = empirical_noise_correlations(*args, np.random.default_rng(m + 2))
        white_ref, raw_ref = label_noise_correlations(*args, np.random.default_rng(m + 2))
        assert raw.hex() == raw_ref.hex()
        assert white == pytest.approx(white_ref, rel=1e-12, abs=0)

    @settings(max_examples=40, deadline=None)
    @given(
        m=st.sampled_from([4, 5, 7, 16]),
        n_real=st.sampled_from([1_200, 5_000]),
        seeds=st.tuples(*[st.integers(0, 2**32 - 1)] * 3),
    )
    def test_moments_match_the_label_oracle_on_drawn_scenes(self, m, n_real, seeds):
        # the same bounds on drawn scenes, splits and draws, in one chunk or
        # (5,000 realizations) several: the moments are summed shifted by the
        # noise-free magnitudes, so the one-pass variances do not cancel
        # against the squared means
        scene = SyntheticScene(grid=16, m=m, sigma=0.3, seed=seeds[0])
        split = split_channels(m, np.random.default_rng(seeds[1]))
        args = (scene.phantom, scene.sens, scene.psi, split, scene.mask, n_real)
        if n_real == 5_000:
            assert n_real > 2 * mc_chunk(int(scene.mask.sum()))
        white, raw = empirical_noise_correlations(*args, np.random.default_rng(seeds[2]))
        white_ref, raw_ref = label_noise_correlations(*args, np.random.default_rng(seeds[2]))
        assert raw.hex() == raw_ref.hex()
        assert white == pytest.approx(white_ref, rel=1e-12, abs=0)

    def test_all_true_mask_matches_the_full_grid_formula(self):
        # with every voxel masked, drawing at the masked voxels draws what
        # the full grid does, so both figures keep their bits
        scene = SyntheticScene(grid=16, m=5, sigma=0.3, seed=8)
        mask = np.ones_like(scene.mask)
        n_real = 2 * mc_chunk(mask.size) + 7
        args = (scene.phantom, scene.sens, scene.psi, scene.split, mask, n_real)
        got = empirical_noise_correlations(*args, np.random.default_rng(9))
        want = full_grid_noise_correlations(*args, np.random.default_rng(9))
        assert [x.hex() for x in got] == [x.hex() for x in want]

    def test_draws_only_the_masked_voxels(self):
        # two complex normals (four real ones) per realization and masked
        # voxel, whatever the channel count, over several chunks
        scene = SyntheticScene(grid=16, m=6, sigma=0.3, seed=2)
        n_inside = int(scene.mask.sum())
        assert n_inside < scene.mask.size
        n_real = 2 * mc_chunk(n_inside) + 3
        rng = np.random.default_rng(4)
        empirical_noise_correlations(
            scene.phantom, scene.sens, scene.psi, scene.split, scene.mask, n_real, rng
        )
        ref = np.random.default_rng(4)
        ref.standard_normal(4 * n_real * n_inside)
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_peak_memory_is_bounded_by_the_budget(self):
        # 1,000 realizations at the masked voxels of a 16-channel 32x32
        # scene are several chunks of at most MC_BUDGET real normals; the
        # peak stays under two and a half budget-sized complex arrays
        scene = SyntheticScene(grid=32, m=16, sigma=0.3, seed=1)
        assert 1_000 * 4 * scene.mask.sum() > MC_BUDGET
        tracemalloc.start()
        try:
            empirical_noise_correlations(
                scene.phantom, scene.sens, scene.psi, scene.split, scene.mask,
                1_000, np.random.default_rng(0),
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 16 * MC_BUDGET

    def test_draws_match_the_projected_channel_noise(self):
        # the 2x2 draws and the m-channel noise projected on the two groups
        # are the same proper complex Gaussian: per voxel, every entry of
        # their Hermitian sample covariances E[e e^H] (the imaginary part of
        # the cross term included) agrees within 5 standard errors of the
        # difference, sqrt(2 C_jj C_kk / n); the scene's cross Grams have
        # imaginary parts over 10 standard errors, so a conjugate dropped
        # from the cross term, which flips their sign, fails
        phantom, sens, psi, mask, split = phased_complex_scene()
        voxels = np.flatnonzero(mask)[::7]
        n = 20_000
        grams = (x.ravel()[voxels] for x in noise_grams(sens, psi, split.group_j, split.group_k))
        got = np.stack(_combined_noise(*grams, n, np.random.default_rng(1)))
        want = np.stack(projected_noise(sens, psi, split, voxels, n, np.random.default_rng(2)))
        cov_got, cov_want = (np.einsum("irv,krv->ikv", e, e.conj()) / n for e in (got, want))
        diag = np.diagonal(cov_want.real).T
        se = np.sqrt(2 * diag[:, None] * diag[None, :] / n)
        assert np.all(np.abs(cov_got.real - cov_want.real) <= 5 * se)
        assert np.all(np.abs(cov_got.imag - cov_want.imag) <= 5 * se)
        assert np.max(np.abs(cov_want[0, 1].imag) / se[0, 1]) > 10

    def test_figures_match_the_channel_noise_oracle(self):
        # both figures from the 2x2 draws and from projected m-channel noise
        # agree within Monte-Carlo error: each voxel's correlation estimate
        # has a standard error of at most 1 / sqrt(n), so a difference of two
        # independent means of |corr| over V voxels has at most
        # sqrt(2 / (n V)), and the bound is five of those
        phantom, sens, psi, mask, split = phased_complex_scene(seed=3)
        n = 6_000
        args = (phantom, sens, psi, split, mask, n)
        got = empirical_noise_correlations(*args, np.random.default_rng(4))
        want = channel_noise_correlations(*args, np.random.default_rng(5))
        tol = 5 * np.sqrt(2 / (n * mask.sum()))
        assert got == pytest.approx(want, abs=tol)
        assert want[1] > 10 * tol

    def test_whitening_reduces_correlation(self):
        # strongly correlated channels: the raw input/label correlation is
        # large and whitening removes most of it
        scene = SyntheticScene(grid=16, m=4, sigma=0.3, seed=5)
        white, raw = empirical_noise_correlations(
            scene.phantom, scene.sens, scene.psi, scene.split, scene.mask,
            20_000, np.random.default_rng(6),
        )
        assert white < 0.05
        assert raw > 2 * white

    def test_single_voxel_monte_carlo(self):
        # flat scene: correlation after whitening is sampling noise only
        m = 4
        sens = np.ones((m, 8, 8), dtype=complex)
        phantom = np.full((8, 8), 2.0 + 0j)
        mask = np.ones((8, 8), bool)
        psi = (0.5 * np.eye(m) + 0.5 * np.ones((m, m))).astype(complex) * 0.04
        split = ChannelSplit((0, 1), (2, 3))
        white, raw = empirical_noise_correlations(
            phantom, sens, psi, split, mask, 50_000, np.random.default_rng(7)
        )
        assert white < 0.02
        assert raw > 0.3

    @pytest.mark.parametrize("n_real", [0, 1])
    def test_fewer_than_two_realizations_refused(self, n_real):
        # no sample variance exists, so no correlation figure does either
        scene = SyntheticScene()
        with pytest.raises(ValueError, match="n_real >= 2"):
            empirical_noise_correlations(
                scene.phantom, scene.sens, scene.psi, scene.split, scene.mask,
                n_real, np.random.default_rng(0),
            )

    @pytest.mark.parametrize("check", [empirical_noise_correlations, empirical_noise_correlation])
    @pytest.mark.parametrize(
        "bad, match",
        [("split", "split does not match channel count: 4 split, 8 in the slice"),
         ("phantom", r"phantom shape \(16, 15\) != image shape \(16, 16\)")],
        ids=["half-split", "phantom-shape"],
    )
    def test_mismatched_inputs_refused(self, check, bad, match):
        # as make_training_pair refuses a split of fewer channels than the
        # slice has, and a phantom must cover the image grid
        scene = SyntheticScene(m=8)
        split = ChannelSplit((0, 1), (2, 3)) if bad == "split" else scene.split
        phantom = scene.phantom[:, :-1] if bad == "phantom" else scene.phantom
        with pytest.raises(ValueError, match=match):
            check(phantom, scene.sens, scene.psi, split, scene.mask, 100, np.random.default_rng(0))

    def test_one_pass_equals_separate_calls(self):
        # one set of draws for both labels gives each call's figure bit for
        # bit; the realizations span three chunks
        scene = SyntheticScene(grid=16, m=5, sigma=0.3, seed=5)
        n_real = 2 * mc_chunk(int(scene.mask.sum())) + 7
        args = (scene.phantom, scene.sens, scene.psi, scene.split, scene.mask, n_real)
        both = empirical_noise_correlations(*args, np.random.default_rng(3))
        each = [
            empirical_noise_correlation(*args, np.random.default_rng(3), whiten=flag)
            for flag in (True, False)
        ]
        assert [c.hex() for c in both] == [c.hex() for c in each]


@st.composite
def whitening_problems(draw):
    """m in [2, 16] coils with random centres, falloff and (possibly zero)
    phases on a 6x7 grid, each possibly blind to a random third of it; a
    random PSD psi of any rank from 0 to m, real or complex; a random
    balanced split.  Fallback is drawn both ways: a blind group has v_k = 0,
    and a real rank-1 psi with zero phases makes every 2x2 covariance singular."""
    m = draw(st.integers(2, 16))
    rank = draw(st.one_of(st.just(1), st.integers(0, m)))
    real_psi, zero_phases, blind = draw(st.tuples(st.booleans(), st.booleans(), st.booleans()))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coils = CoilSpec(
        centers=tuple(map(tuple, rng.uniform(-1.5, 1.5, (m, 2)))),
        falloff=float(rng.uniform(0.3, 2.0)),
        phases=(0.0,) * m if zero_phases else tuple(rng.uniform(0, 2 * np.pi, m)),
    )
    sens = make_sensitivities(coils, (6, 7))
    if blind:
        sens[rng.random(sens.shape) < 1 / 3] = 0.0
    a = rng.standard_normal((m, rank)) + (0 if real_psi else 1j * rng.standard_normal((m, rank)))
    return sens, a @ a.conj().T, split_channels(m, rng), rng


@settings(max_examples=200, deadline=None)
@given(whitening_problems())
def test_whitening_invariants(problem):
    sens, psi, split, rng = problem
    vj, vk, c = propagate_noise_stats(sens, psi, split.group_j, split.group_k)
    alpha, beta, n_fallback = whitening_coefficients(vj, vk, c)

    # the statistics are a valid 2x2 covariance with no slack: the clamp and
    # the Cauchy-Schwarz clip in propagate_noise_stats guarantee it exactly
    assert np.all(vj >= 0) and np.all(vk >= 0)
    assert np.all(np.abs(c) <= np.sqrt(vj * vk))

    # fallback exactly where the determinant is degenerate or v_k = 0, and
    # there pure variance matching
    fallback = (vj * vk - c**2 <= DET_EPS * vj * vk) | (vk == 0)
    assert n_fallback == np.count_nonzero(fallback)
    assert np.all(alpha[fallback] == 0.0)
    matched = np.where(vk > 0, np.sqrt(vj / np.where(vk > 0, vk, 1.0)), 1.0)
    assert np.array_equal(beta[fallback], matched[fallback])

    # elsewhere: variance preserved and the input/label covariance zeroed, to
    # roundoff relative to the terms summed
    a, b, vj, vk, c = (x[~fallback] for x in (alpha, beta, vj, vk, c))
    terms = a**2 * vj + np.abs(2 * a * b * c) + b**2 * vk
    assert np.all(np.abs(a**2 * vj + 2 * a * b * c + b**2 * vk - vj) <= 1e-12 * terms)
    assert np.all(np.abs(a * vj + b * c) <= 1e-12 * (np.abs(a) * vj + np.abs(b * c)))

    # noise free, the label is its sensitivity map times |x|
    x = rng.standard_normal((6, 7)) + 1j * rng.standard_normal((6, 7))
    with warnings.catch_warnings():  # a drawn geometry may give a non-positive label map
        warnings.simplefilter("ignore", UserWarning)
        pair = make_training_pair(sens * x, sens, psi, split, np.ones((6, 7), bool))
    assert pair.n_fallback == n_fallback
    s_k = effective_sensitivity(sens, split.group_k)
    bound = 1e-12 * (np.abs(alpha) * pair.sens_in + np.abs(beta) * s_k) * np.abs(x)
    assert np.all(np.abs(pair.image_label - pair.sens_label * np.abs(x)) <= bound)

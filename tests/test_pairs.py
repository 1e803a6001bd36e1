import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coil2coil.imaging import VoxelStats, effective_sensitivity, propagate_noise_stats
from coil2coil.pairs import (
    DET_EPS,
    MC_CHUNK,
    ChannelSplit,
    combine_all,
    empirical_noise_correlation,
    empirical_noise_correlations,
    make_training_pair,
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
    return VoxelStats(
        var_j=np.full(shape, vj, dtype=float),
        var_k=np.full(shape, vk, dtype=float),
        cov_jk=np.full(shape, c, dtype=float),
    )


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
        w = whitening_coefficients(stats_of(1.0, 1.0, 0.5))
        # det = 3/4: alpha = -0.5/sqrt(0.75), beta = 1/sqrt(0.75)
        assert w.alpha[0, 0] == pytest.approx(-0.5773502691896258, rel=1e-12)
        assert w.beta[0, 0] == pytest.approx(1.1547005383792517, rel=1e-12)
        assert w.n_fallback == 0

    def test_uncorrelated_variance_matching(self):
        w = whitening_coefficients(stats_of(4.0, 1.0, 0.0))
        assert w.alpha[0, 0] == 0.0
        assert w.beta[0, 0] == pytest.approx(2.0, rel=1e-12)

    def test_variance_preservation_identity(self):
        # var(alpha*in + beta*label) must equal var(in)
        rng = np.random.default_rng(2)
        vj = rng.uniform(0.5, 4.0, (6, 6))
        vk = rng.uniform(0.5, 4.0, (6, 6))
        c = rng.uniform(-0.9, 0.9, (6, 6)) * np.sqrt(vj * vk)
        w = whitening_coefficients(stats_of(vj, vk, c))
        preserved = w.alpha**2 * vj + w.beta**2 * vk + 2 * w.alpha * w.beta * c
        assert np.allclose(preserved, vj, rtol=1e-10)

    def test_decorrelation_identity(self):
        # cov(in, alpha*in + beta*label) = alpha*v_j + beta*c = 0
        rng = np.random.default_rng(3)
        vj = rng.uniform(0.5, 4.0, (6, 6))
        vk = rng.uniform(0.5, 4.0, (6, 6))
        c = rng.uniform(-0.9, 0.9, (6, 6)) * np.sqrt(vj * vk)
        w = whitening_coefficients(stats_of(vj, vk, c))
        assert np.allclose(w.alpha * vj + w.beta * c, 0.0, atol=1e-12)

    def test_scale_invariance(self):
        # multiplying all three statistics by t leaves (alpha, beta) unchanged
        base = stats_of(2.0, 3.0, 1.1)
        scaled = stats_of(2.0 * 7.5, 3.0 * 7.5, 1.1 * 7.5)
        wa, wb = whitening_coefficients(base), whitening_coefficients(scaled)
        assert np.allclose(wa.alpha, wb.alpha, rtol=1e-12)
        assert np.allclose(wa.beta, wb.beta, rtol=1e-12)

    def test_degenerate_fallback(self):
        # perfectly correlated voxel: fall back to variance matching
        w = whitening_coefficients(stats_of(4.0, 1.0, 2.0))
        assert w.n_fallback == 1
        assert w.alpha[0, 0] == 0.0
        assert w.beta[0, 0] == pytest.approx(2.0)
        # zero label variance: beta = 1
        w0 = whitening_coefficients(stats_of(1.0, 0.0, 0.0))
        assert w0.n_fallback == 1
        assert w0.alpha[0, 0] == 0.0
        assert w0.beta[0, 0] == 1.0


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
        pair = make_training_pair(
            clean_stack, scene.sens, scene.psi, scene.split, scene.mask, whiten=True
        )
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
        on = make_training_pair(stack, sens, psi, split, mask, whiten=True)
        off = make_training_pair(stack, sens, psi, split, mask, whiten=False)
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
        pair = make_training_pair(stack, scene.sens, scene.psi, split, scene.mask, whiten=False)
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


def label_noise_correlations(phantom, sens, psi, split, mask, n_real, rng):
    """(whitened, raw) by correlating each label's own sample moments with
    the input: the form empirical_noise_correlations had before it derived
    the whitened figure from the moments of the input and the raw label,
    kept here as its oracle."""
    gj, gk = list(split.group_j), list(split.group_k)
    wmaps = whitening_coefficients(propagate_noise_stats(sens, psi, gj, gk))
    coeffs = [(wmaps.alpha.ravel(), wmaps.beta.ravel()), None]
    clean = sens * phantom
    uj = sens[gj].conj().reshape(len(gj), -1)
    uk = sens[gk].conj().reshape(len(gk), -1)
    cj = np.einsum("cv,cv->v", uj, clean[gj].reshape(len(gj), -1))
    ck = np.einsum("cv,cv->v", uk, clean[gk].reshape(len(gk), -1))
    sa, saa = np.zeros((2, mask.size))
    sb, sbb, sab = np.zeros((3, len(coeffs), mask.size))
    done = 0
    while done < n_real:
        r = min(MC_CHUNK, n_real - done)
        noise = sample_noise(psi, (r, mask.size), rng)
        img_in = np.abs(cj[None] + np.einsum("cv,crv->rv", uj, noise[gj]))
        raw = np.abs(ck[None] + np.einsum("cv,crv->rv", uk, noise[gk]))
        sa += img_in.sum(axis=0)
        saa += (img_in**2).sum(axis=0)
        for i, ab in enumerate(coeffs):
            img_lab = raw if ab is None else ab[0] * img_in + ab[1] * raw
            sb[i] += img_lab.sum(axis=0)
            sbb[i] += (img_lab**2).sum(axis=0)
            sab[i] += (img_in * img_lab).sum(axis=0)
        done += r
    n = float(n_real)
    va = saa / n - (sa / n) ** 2
    vb = sbb / n - (sb / n) ** 2
    cov = sab / n - (sa / n) * (sb / n)
    corr = np.where((va > 0) & (vb > 0), cov / np.sqrt(np.maximum(va * vb, 1e-300)), 0.0)
    return tuple(float(np.mean(np.abs(c[mask.ravel()]))) for c in corr)


class TestEmpiricalNoiseCorrelation:
    @pytest.mark.parametrize("m", [4, 5, 7, 16])
    def test_moments_match_the_label_oracle(self, m):
        # the raw figure is the oracle's bit for bit; the whitened one,
        # derived from the moments, agrees to roundoff; 1,200 realizations
        # span three MC_CHUNK chunks
        scene = SyntheticScene(grid=16, m=m, sigma=0.3, seed=m)
        split = split_channels(m, np.random.default_rng(m + 1))
        args = (scene.phantom, scene.sens, scene.psi, split, scene.mask, 1_200)
        assert args[-1] > 2 * MC_CHUNK
        white, raw = empirical_noise_correlations(*args, np.random.default_rng(m + 2))
        white_ref, raw_ref = label_noise_correlations(*args, np.random.default_rng(m + 2))
        assert raw.hex() == raw_ref.hex()
        assert white == pytest.approx(white_ref, rel=1e-12, abs=0)

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

    def test_one_pass_equals_separate_calls(self):
        # one set of draws for both labels gives each call's figure bit for
        # bit; 1,200 realizations span several MC_CHUNK chunks
        scene = SyntheticScene(grid=16, m=5, sigma=0.3, seed=5)
        args = (scene.phantom, scene.sens, scene.psi, scene.split, scene.mask, 1_200)
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
    stats = propagate_noise_stats(sens, psi, split.group_j, split.group_k)
    vj, vk, c = stats.var_j, stats.var_k, stats.cov_jk
    w = whitening_coefficients(stats)

    # fallback exactly where the determinant is degenerate or v_k = 0, and
    # there pure variance matching
    fallback = (vj * vk - c**2 <= DET_EPS * vj * vk) | (vk == 0)
    assert w.n_fallback == np.count_nonzero(fallback)
    assert np.all(w.alpha[fallback] == 0.0)
    matched = np.where(vk > 0, np.sqrt(vj / np.where(vk > 0, vk, 1.0)), 1.0)
    assert np.array_equal(w.beta[fallback], matched[fallback])

    # elsewhere: variance preserved and the input/label covariance zeroed, to
    # roundoff relative to the terms summed
    a, b, vj, vk, c = (x[~fallback] for x in (w.alpha, w.beta, vj, vk, c))
    terms = a**2 * vj + np.abs(2 * a * b * c) + b**2 * vk
    assert np.all(np.abs(a**2 * vj + 2 * a * b * c + b**2 * vk - vj) <= 1e-12 * terms)
    assert np.all(np.abs(a * vj + b * c) <= 1e-12 * (np.abs(a) * vj + np.abs(b * c)))

    # noise free, the label is its sensitivity map times |x|
    x = rng.standard_normal((6, 7)) + 1j * rng.standard_normal((6, 7))
    with warnings.catch_warnings():  # a drawn geometry may give a non-positive label map
        warnings.simplefilter("ignore", UserWarning)
        pair = make_training_pair(sens * x, sens, psi, split, np.ones((6, 7), bool))
    assert pair.n_fallback == w.n_fallback
    s_k = effective_sensitivity(sens, split.group_k)
    bound = 1e-12 * (np.abs(w.alpha) * pair.sens_in + np.abs(w.beta) * s_k) * np.abs(x)
    assert np.all(np.abs(pair.image_label - pair.sens_label * np.abs(x)) <= bound)

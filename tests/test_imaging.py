import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coil2coil.imaging import (
    VoxelStats,
    coil_combine,
    effective_sensitivity,
    propagate_noise_stats,
)


def random_setup(rng, m=4, shape=(8, 8)):
    stack = rng.standard_normal((m, *shape)) + 1j * rng.standard_normal((m, *shape))
    sens = rng.standard_normal((m, *shape)) + 1j * rng.standard_normal((m, *shape))
    return stack, sens


def random_psd(rng, m):
    a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    return a @ a.conj().T


class TestCoilCombine:
    def test_identity_sensitivity(self):
        x = np.arange(16, dtype=complex).reshape(4, 4)
        out = coil_combine(x[None], np.ones((1, 4, 4), dtype=complex), [0])
        assert np.array_equal(out, x)

    def test_phase_cancellation(self):
        x = (np.arange(16) + 1j).reshape(4, 4)
        sens = np.stack([np.ones((4, 4), complex), 1j * np.ones((4, 4), complex)])
        stack = np.stack([x, 1j * x])
        out = coil_combine(stack, sens, [0, 1])
        assert np.allclose(out, 2 * x)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(0)
        stack, sens = random_setup(rng)
        group = [0, 2, 3]
        out = coil_combine(stack, sens, group)
        expected = np.zeros((8, 8), dtype=complex)
        for r in range(8):
            for c in range(8):
                for i in group:
                    expected[r, c] += np.conj(sens[i, r, c]) * stack[i, r, c]
        assert np.allclose(out, expected, rtol=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(1)
        stack, sens = random_setup(rng)
        c = 2.5 - 1.3j
        assert np.allclose(
            coil_combine(c * stack, sens, [0, 1]), c * coil_combine(stack, sens, [0, 1])
        )

    def test_group_additivity(self):
        rng = np.random.default_rng(2)
        stack, sens = random_setup(rng)
        full = coil_combine(stack, sens, [0, 1, 2, 3])
        parts = coil_combine(stack, sens, [0, 2]) + coil_combine(stack, sens, [1, 3])
        assert np.allclose(full, parts)

    def test_errors(self):
        rng = np.random.default_rng(3)
        stack, sens = random_setup(rng)
        with pytest.raises(ValueError):
            coil_combine(stack, sens, [])
        with pytest.raises(ValueError):
            coil_combine(stack, sens, [7])
        with pytest.raises(ValueError):
            coil_combine(stack, sens[:, :4, :4], [0])


class TestEffectiveSensitivity:
    def test_single_unit_channel(self):
        sens = np.ones((1, 4, 4), dtype=complex)
        assert np.allclose(effective_sensitivity(sens, [0]), 1.0)

    def test_constant_unit_norm_pair(self):
        sens = np.stack(
            [np.full((4, 4), 3 / 5, dtype=complex), np.full((4, 4), (4 / 5) * 1j)]
        )
        assert np.allclose(effective_sensitivity(sens, [0, 1]), 1.0)

    def test_matches_summation_oracle(self):
        rng = np.random.default_rng(5)
        _, sens = random_setup(rng)
        out = effective_sensitivity(sens, [1, 3])
        assert np.allclose(out, np.abs(sens[1]) ** 2 + np.abs(sens[3]) ** 2)

    def test_empty_group(self):
        with pytest.raises(ValueError):
            effective_sensitivity(np.ones((2, 4, 4), complex), [])


class TestPropagateNoiseStats:
    def test_diagonal_psi_no_cross_terms(self):
        rng = np.random.default_rng(6)
        _, sens = random_setup(rng)
        psi = np.diag([1.0, 2.0, 0.5, 3.0]).astype(complex)
        stats = propagate_noise_stats(sens, psi, [0, 1], [2, 3])
        assert np.allclose(stats.cov_jk, 0.0)

    def test_two_channel_substitution(self):
        sens = np.ones((2, 4, 4), dtype=complex)
        rho = 0.3
        psi = np.array([[1.0, rho], [rho, 1.0]], dtype=complex)
        stats = propagate_noise_stats(sens, psi, [0], [1])
        assert np.allclose(stats.var_j, 1.0)
        assert np.allclose(stats.var_k, 1.0)
        assert np.allclose(stats.cov_jk, rho)

    @staticmethod
    def _mc_magnitude_cov(sens_vals, psi, rng, n=1_000_000):
        """Empirical covariance of the two combined magnitudes at high SNR."""
        m = len(sens_vals)
        L = np.linalg.cholesky(psi)
        x = 1e4  # large signal so magnitude noise is the phase projection
        noise = L @ rng.standard_normal((m, n)) + 1j * (L @ rng.standard_normal((m, n)))
        y = sens_vals[:, None] * x + noise
        mag_j = np.abs(np.conj(sens_vals[:2]) @ y[:2])
        mag_k = np.abs(np.conj(sens_vals[2:]) @ y[2:])
        return np.cov(np.stack([mag_j, mag_k]))

    def test_matches_monte_carlo(self):
        # strongly correlated channels so the covariance is well resolved
        rng = np.random.default_rng(7)
        m = 4
        sens_vals = rng.uniform(0.5, 1.5, m).astype(complex)
        sens = sens_vals[:, None, None].copy()
        psi = (0.4 * np.eye(m) + 0.6 * np.ones((m, m))).astype(complex)
        stats = propagate_noise_stats(sens, psi, [0, 1], [2, 3])
        emp = self._mc_magnitude_cov(sens_vals, psi, rng)
        assert emp[0, 0] == pytest.approx(stats.var_j[0, 0], rel=0.01)
        assert emp[1, 1] == pytest.approx(stats.var_k[0, 0], rel=0.01)
        assert emp[0, 1] == pytest.approx(stats.cov_jk[0, 0], rel=0.01)

    def test_matches_monte_carlo_complex(self):
        # random complex sensitivities and covariance; covariance compared
        # at 1% of its Cauchy-Schwarz scale since it may be near zero
        rng = np.random.default_rng(12)
        m = 4
        sens_vals = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        sens = sens_vals[:, None, None].copy()
        psi = random_psd(rng, m)
        stats = propagate_noise_stats(sens, psi, [0, 1], [2, 3])
        emp = self._mc_magnitude_cov(sens_vals, psi, rng)
        assert emp[0, 0] == pytest.approx(stats.var_j[0, 0], rel=0.01)
        assert emp[1, 1] == pytest.approx(stats.var_k[0, 0], rel=0.01)
        scale = np.sqrt(stats.var_j[0, 0] * stats.var_k[0, 0])
        assert emp[0, 1] == pytest.approx(stats.cov_jk[0, 0], abs=0.01 * scale)

    def test_cauchy_schwarz_property(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            _, sens = random_setup(rng, m=6)
            psi = random_psd(rng, 6)
            stats = propagate_noise_stats(sens, psi, [0, 1, 2], [3, 4, 5])
            assert np.all(stats.cov_jk**2 <= stats.var_j * stats.var_k + 1e-9)

    def test_zero_psi(self):
        rng = np.random.default_rng(9)
        _, sens = random_setup(rng)
        stats = propagate_noise_stats(sens, np.zeros((4, 4), complex), [0, 1], [2, 3])
        assert np.all(stats.var_j == 0)
        assert np.all(stats.var_k == 0)
        assert np.all(stats.cov_jk == 0)

    def test_overlapping_groups_rejected(self):
        rng = np.random.default_rng(10)
        _, sens = random_setup(rng)
        with pytest.raises(ValueError, match="overlap"):
            propagate_noise_stats(sens, np.eye(4, dtype=complex), [0, 1], [1, 2])

    def test_non_psd_rejected(self):
        rng = np.random.default_rng(11)
        _, sens = random_setup(rng, m=2)
        bad = np.array([[1.0, 2.0], [2.0, 1.0]], dtype=complex)
        with pytest.raises(ValueError, match="PSD"):
            propagate_noise_stats(sens, bad, [0], [1])


def einsum_noise_stats(sens, psi, gj, gk):
    """(var_j, var_k, cov_jk) as three 3-operand einsums: the form
    propagate_noise_stats had before its GEMMs, kept here as their oracle."""

    def quad(ga, gb):
        return np.einsum("ahw,ab,bhw->hw", sens[ga].conj(), psi[np.ix_(ga, gb)], sens[gb]).real

    return quad(gj, gj), quad(gk, gk), quad(gj, gk)


@st.composite
def noise_problems(draw):
    """m in [2, 16]; disjoint groups, not necessarily balanced or covering;
    a random PSD psi of any rank from 0 to m."""
    m = draw(st.integers(2, 16))
    owner = draw(
        st.lists(st.sampled_from("JK-"), min_size=m, max_size=m).filter(
            lambda o: "J" in o and "K" in o
        )
    )
    rank = draw(st.integers(0, m))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sens = rng.standard_normal((m, 3, 5)) + 1j * rng.standard_normal((m, 3, 5))
    a = rng.standard_normal((m, rank)) + 1j * rng.standard_normal((m, rank))
    gj = [i for i, o in enumerate(owner) if o == "J"]
    gk = [i for i, o in enumerate(owner) if o == "K"]
    return sens, a @ a.conj().T, gj, gk


@settings(max_examples=200, deadline=None)
@given(noise_problems())
def test_propagate_noise_stats_matches_einsum_oracle(problem):
    # Rounding error scales with the terms summed, so the tolerance is
    # relative to sqrt(var_j * var_k) at the Cauchy-Schwarz bound: the
    # variances psi allows each group, ||psi||_2 * sum_{a in G} |s_a|^2.
    sens, psi, gj, gk = problem
    stats = propagate_noise_stats(sens, psi, gj, gk)
    top = np.linalg.norm(psi, 2)
    scale = top * np.sqrt(effective_sensitivity(sens, gj) * effective_sensitivity(sens, gk))
    got = (stats.var_j, stats.var_k, stats.cov_jk)
    for g, want in zip(got, einsum_noise_stats(sens, psi, gj, gk)):
        assert np.all(np.abs(g - want) <= 1e-12 * scale)


class TestVoxelStats:
    def test_invariant_enforced(self):
        ones = np.ones((2, 2))
        with pytest.raises(ValueError):
            VoxelStats(var_j=ones, var_k=ones, cov_jk=2 * ones)
        with pytest.raises(ValueError):
            VoxelStats(var_j=-ones, var_k=ones, cov_jk=0 * ones)

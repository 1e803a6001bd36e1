import dataclasses

import numpy as np
import pytest

from coil2coil.imaging import check_covariance
from coil2coil.metrics import psnr
from coil2coil.pairs import combine_all
from coil2coil.simulate import (
    CoilSpec,
    Ellipse,
    NoiseSpec,
    PhantomSpec,
    make_mask,
    make_noise_covariance,
    make_phantom,
    make_sensitivities,
    random_phantom_spec,
    sample_noise,
    synthesize_acquisition,
)


class TestMakePhantom:
    def test_full_coverage_ellipse(self):
        spec = PhantomSpec(16, (Ellipse(0, 0, 10, 10, 0, 1.0),))
        assert np.allclose(make_phantom(spec), 1.0)

    def test_overlap_adds_with_oracle(self):
        e1 = Ellipse(-0.2, 0.0, 0.5, 0.4, 0.3, 1.0)
        e2 = Ellipse(0.2, 0.1, 0.4, 0.5, 1.1, 0.5 + 0.25j)
        spec = PhantomSpec(12, (e1, e2))
        img = make_phantom(spec)
        xs = np.linspace(-1, 1, 12)
        for r in range(12):
            for c in range(12):
                x, y = xs[c], xs[r]
                want = 0.0
                for e in (e1, e2):
                    cth, sth = np.cos(e.angle), np.sin(e.angle)
                    u = cth * (x - e.cx) + sth * (y - e.cy)
                    v = -sth * (x - e.cx) + cth * (y - e.cy)
                    if (u / e.a) ** 2 + (v / e.b) ** 2 <= 1:
                        want += e.amplitude
                assert img[r, c] == pytest.approx(want)

    def test_deterministic(self):
        spec = random_phantom_spec(16, np.random.default_rng(0))
        assert np.array_equal(make_phantom(spec), make_phantom(spec))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            PhantomSpec(4, (Ellipse(0, 0, 1, 1),))
        with pytest.raises(ValueError):
            PhantomSpec(16, ())


class TestMakeSensitivities:
    def test_flat_falloff(self):
        spec = CoilSpec(centers=((0, 0), (0, 0)), falloff=1e6, phases=(0, 0))
        sens = make_sensitivities(spec, (8, 8))
        assert np.allclose(np.abs(sens), 1.0)

    def test_zero_phases_real_positive(self):
        spec = dataclasses.replace(CoilSpec.ring(4), phases=(0,) * 4)
        sens = make_sensitivities(spec, (8, 8))
        assert np.all(sens.imag == 0)
        assert np.all(sens.real > 0)

    def test_corner_channels_peak_at_their_corner(self):
        corners = ((-1, -1), (1, -1), (-1, 1), (1, 1))
        spec = CoilSpec(centers=corners, falloff=0.7, phases=(0,) * 4)
        sens = make_sensitivities(spec, (9, 9))
        # grid index of each corner: (row, col) with row ~ y, col ~ x
        expect = {0: (0, 0), 1: (0, 8), 2: (8, 0), 3: (8, 8)}
        for i, (r, c) in expect.items():
            mag = np.abs(sens[i])
            assert np.unravel_index(np.argmax(mag), mag.shape) == (r, c)

    def test_total_sensitivity_positive(self):
        spec = CoilSpec.ring(8)
        sens = make_sensitivities(spec, (32, 32))
        assert np.all(np.sum(np.abs(sens) ** 2, axis=0) > 0)


class TestMakeNoiseCovariance:
    def setup_method(self):
        rng = np.random.default_rng(0)
        self.spec = random_phantom_spec(16, rng)
        self.phantom = make_phantom(self.spec)
        self.mask = make_mask(self.phantom)
        self.sens = make_sensitivities(CoilSpec.ring(4), self.phantom.shape)

    def test_zero_sigma(self):
        psi = make_noise_covariance(
            self.sens, self.phantom, self.mask, NoiseSpec(sigma=0.0), np.random.default_rng(1)
        )
        assert np.allclose(psi, 0.0)

    def test_zero_correlation_diagonal(self):
        psi = make_noise_covariance(
            self.sens,
            self.phantom,
            self.mask,
            NoiseSpec(sigma=1.0, rho_min=0.0, rho_max=0.0),
            np.random.default_rng(1),
        )
        assert np.allclose(psi, np.diag(np.diag(psi)))
        # diagonals against an independent masked-mean oracle
        for i in range(4):
            tau = np.mean(np.abs(self.sens[i] * self.phantom)[self.mask]) / np.sqrt(2)
            assert psi[i, i].real == pytest.approx(tau**2, rel=1e-12)

    def test_random_correlations_psd(self):
        for seed in range(10):
            psi = make_noise_covariance(
                self.sens,
                self.phantom,
                self.mask,
                NoiseSpec(sigma=1.0, rho_min=0.0, rho_max=0.2),
                np.random.default_rng(seed),
            )
            evals = np.linalg.eigvalsh(psi)
            assert evals.min() >= -1e-10
            check_covariance(psi, 4)

    def test_noise_spec_validation(self):
        with pytest.raises(ValueError):
            NoiseSpec(rho_min=0.3, rho_max=0.2)
        with pytest.raises(ValueError):
            NoiseSpec(sigma=-1.0)
        for sigma in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="sigma must be finite"):
                NoiseSpec(sigma=sigma)


class TestSampleNoise:
    def test_zero_psi(self):
        out = sample_noise(np.zeros((3, 3), complex), (4, 4), np.random.default_rng(0))
        assert np.all(out == 0)

    def test_identity_covariance_monte_carlo(self):
        rng = np.random.default_rng(1)
        out = sample_noise(np.eye(2, dtype=complex), (1000, 1000), rng)
        for axis in (out.real, out.imag):
            emp = np.cov(axis.reshape(2, -1))
            assert np.allclose(emp, np.eye(2), atol=0.01)

    def test_correlated_covariance_monte_carlo(self):
        rng = np.random.default_rng(2)
        psi = np.array([[1.0, 0.5], [0.5, 1.0]], dtype=complex)
        out = sample_noise(psi, (1000, 1000), rng)
        for axis in (out.real, out.imag):
            emp = np.cov(axis.reshape(2, -1))
            assert emp[0, 1] == pytest.approx(0.5, abs=0.01)

    def test_non_psd_rejected(self):
        bad = np.array([[1.0, 2.0], [2.0, 1.0]], dtype=complex)
        with pytest.raises(ValueError):
            sample_noise(bad, (4, 4), np.random.default_rng(0))

    @pytest.mark.parametrize("psi", [1.0, np.ones(4), np.ones((2, 3))], ids=["0-d", "1-d", "2x3"])
    def test_non_square_rejected(self, psi):
        with pytest.raises(ValueError, match="covariance must be"):
            sample_noise(psi, (2, 2), np.random.default_rng(0))

    def test_deterministic(self):
        psi = np.eye(2, dtype=complex)
        a = sample_noise(psi, (8, 8), np.random.default_rng(3))
        b = sample_noise(psi, (8, 8), np.random.default_rng(3))
        assert np.array_equal(a, b)
        # any shape: one (m, prod(shape)) draw, reshaped
        c = sample_noise(psi, (2, 8, 8), np.random.default_rng(3))
        d = sample_noise(psi, (16, 8), np.random.default_rng(3))
        assert c.shape == (2, 2, 8, 8)
        assert np.array_equal(c, d.reshape(2, 2, 8, 8))

    @pytest.mark.parametrize("singular", [False, True], ids=["cholesky", "eigh"])
    def test_one_complex_gemm_equals_two_real_mixes(self, singular):
        if singular:  # rank 1: Cholesky fails, so the eigendecomposition factors it
            psi = np.ones((5, 5), complex)
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.cholesky(psi)
            evals, vecs = np.linalg.eigh(psi)
            L = vecs * np.sqrt(np.maximum(evals, 0.0))
        else:
            rng = np.random.default_rng(10)
            a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
            psi = a @ a.conj().T
            L = np.linalg.cholesky(psi)
        out = sample_noise(psi, (6, 7), np.random.default_rng(11))
        z = np.random.default_rng(11).standard_normal((2, 5, 42))
        want = (L @ z[0] + 1j * (L @ z[1])).reshape(5, 6, 7)
        assert np.max(np.abs(out - want)) <= 1e-12 * np.max(np.abs(want))

    def test_one_pass_complex_draw_keeps_the_bytes(self):
        # the complex draw is built in place; the sum z_re + 1j * z_im it
        # replaced stays here as the oracle, over 200 (psi, shape) draws of
        # any rank from 0 to m, so the eigendecomposition path runs too
        rng = np.random.default_rng(12)
        singular = 0
        for i in range(200):
            m = int(rng.integers(1, 33))
            a = rng.standard_normal((m, int(rng.integers(0, m + 1))))
            a = a + 1j * rng.standard_normal(a.shape)
            psi = a @ a.conj().T
            shape = tuple(int(n) for n in rng.integers(1, 9, size=int(rng.integers(1, 4))))
            try:
                L = np.linalg.cholesky(psi)
            except np.linalg.LinAlgError:
                evals, vecs = np.linalg.eigh(psi)
                L = vecs * np.sqrt(np.maximum(evals, 0.0))
                singular += 1
            z = np.random.default_rng(i).standard_normal((2, m, int(np.prod(shape))))
            want = (L @ (z[0] + 1j * z[1])).reshape(m, *shape)
            out = sample_noise(psi, shape, np.random.default_rng(i))
            assert out.tobytes() == want.tobytes()
        assert singular > 0


class TestSynthesizeAcquisition:
    def setup_method(self):
        rng = np.random.default_rng(4)
        self.phantom = make_phantom(random_phantom_spec(32, rng))
        self.mask = make_mask(self.phantom)
        self.sens = make_sensitivities(CoilSpec.ring(4), self.phantom.shape)

    def test_noise_free(self):
        psi = np.zeros((4, 4), complex)
        stack = synthesize_acquisition(self.phantom, self.sens, psi, np.random.default_rng(0))
        assert np.array_equal(stack, self.sens * self.phantom[None])

    @pytest.mark.parametrize("psi", [np.eye(1), np.eye(3)], ids=["1x1", "3x3"])
    def test_covariance_must_match_the_channels(self, psi):
        # a (1, 1) psi used to give four channels one shared noise draw
        with pytest.raises(ValueError, match="does not match 4 channels"):
            synthesize_acquisition(self.phantom, self.sens, psi, np.random.default_rng(0))

    def test_pure_noise(self):
        psi = np.eye(2, dtype=complex)
        sens = np.ones((2, 8, 8), complex)
        zero = np.zeros((8, 8), complex)
        stack = synthesize_acquisition(zero, sens, psi, np.random.default_rng(5))
        ref = sample_noise(psi, (8, 8), np.random.default_rng(5))
        assert np.array_equal(stack, ref)

    def test_snr_decreases_with_sigma(self):
        clean = combine_all(self.sens * self.phantom[None], self.sens)
        psnrs = []
        for sigma in (0.5, 1.0, 1.5):
            psi = make_noise_covariance(
                self.sens, self.phantom, self.mask, NoiseSpec(sigma=sigma), np.random.default_rng(6)
            )
            stack = synthesize_acquisition(self.phantom, self.sens, psi, np.random.default_rng(7))
            psnrs.append(psnr(combine_all(stack, self.sens), clean, self.mask))
        assert psnrs[0] > psnrs[1] > psnrs[2]

    def test_deterministic(self):
        psi = make_noise_covariance(
            self.sens, self.phantom, self.mask, NoiseSpec(), np.random.default_rng(8)
        )
        a = synthesize_acquisition(self.phantom, self.sens, psi, np.random.default_rng(9))
        b = synthesize_acquisition(self.phantom, self.sens, psi, np.random.default_rng(9))
        assert np.array_equal(a, b)

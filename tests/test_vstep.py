import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import rand_cube, spectral_gram_tridiag, vstep_gradient
from hsfuse.cube import half_spectrum, mix_bands
from hsfuse.errors import ValidationError
from hsfuse.gradients import LaplacianOperator, spectral_gram_eig
from hsfuse.vstep import factor_denoise, solve_tridiagonal, vstep


def dense_minimizer(x_next, prior, lap, mu_p, nu_p):
    """Oracle: minimize ||v-x||^2 + mu_p ||D(v-p)||^2 + nu_p ||E(v-p)||^2 with
    dense Kronecker operators over the band-major vectorization."""
    bands, h, w = x_next.data.shape
    n = h * w
    # dense per-band stencil matrix from impulses
    d_cols = []
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        d_cols.append(lap.apply_array(e.reshape(h, w)).ravel())
    d_small = np.stack(d_cols, axis=1)
    d_full = np.kron(np.eye(bands), d_small)
    if bands > 1:
        e0 = np.zeros((bands - 1, bands))
        for i in range(bands - 1):
            e0[i, i] = -1.0
            e0[i, i + 1] = 1.0
        e_full = np.kron(e0, np.eye(n))
    else:
        e_full = np.zeros((0, bands * n))
    a = np.eye(bands * n) + mu_p * d_full.T @ d_full + nu_p * e_full.T @ e_full
    reg = mu_p * d_full.T @ d_full + nu_p * e_full.T @ e_full
    rhs = x_next.data.ravel() + reg @ prior.data.ravel()
    return np.linalg.solve(a, rhs).reshape(bands, h, w)


class TestSolveTridiagonal:
    def test_matches_dense_solve(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 8))
            diag = rng.uniform(2.5, 4.0, n)
            off = rng.uniform(-1.0, 1.0, max(n - 1, 0))
            rhs = rng.standard_normal(n)
            got = solve_tridiagonal(diag, off, off, rhs)
            dense = np.diag(diag)
            if n > 1:
                dense += np.diag(off, -1) + np.diag(off, 1)
            assert np.allclose(got, np.linalg.solve(dense, rhs), rtol=0, atol=1e-12)

    def test_batched_equals_per_column_bitwise(self, rng):
        n, m = 5, 7
        diag = rng.uniform(2.5, 4.0, (n, m))
        sub = rng.uniform(-1.0, 1.0, (n - 1, m))
        sup = rng.uniform(-1.0, 1.0, (n - 1, m))
        rhs = rng.standard_normal((n, m))
        batched = solve_tridiagonal(diag, sub, sup, rhs)
        for j in range(m):
            one = solve_tridiagonal(diag[:, j], sub[:, j], sup[:, j], rhs[:, j])
            assert np.array_equal(batched[:, j], one)

    def test_complex_rhs_solves_parts_independently(self, rng):
        n, m = 4, 6
        diag = rng.uniform(3.0, 4.0, (n, m))
        off = rng.uniform(-1.0, 1.0, (n - 1, m))
        rhs = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
        full = solve_tridiagonal(diag, off, off, rhs)
        re = solve_tridiagonal(diag, off, off, rhs.real)
        im = solve_tridiagonal(diag, off, off, rhs.imag)
        # real pivots act componentwise, so the complex solve is bit-identical
        assert np.array_equal(full.real, re)
        assert np.array_equal(full.imag, im)

    def test_shape_validation(self):
        with pytest.raises(ValidationError):
            solve_tridiagonal(np.ones(3), np.zeros(2), np.zeros(2), np.ones(4))

    @given(n=st.integers(2, 9), seed=st.integers(0, 2**16))
    def test_residual_property(self, n, seed):
        r = np.random.default_rng(seed)
        diag = r.uniform(2.2, 5.0, n)
        off = r.uniform(-1.0, 1.0, n - 1)
        rhs = r.standard_normal(n)
        x = solve_tridiagonal(diag, off, off, rhs)
        dense = np.diag(diag) + np.diag(off, -1) + np.diag(off, 1)
        assert np.allclose(dense @ x, rhs, rtol=0, atol=1e-10)


class TestVstep:
    def test_matches_dense_minimizer(self, rng):
        for bands, h, w in [(1, 5, 5), (3, 4, 6), (5, 6, 6)]:
            lap = LaplacianOperator.create(h, w)
            x = rand_cube(rng, bands, h, w)
            p = rand_cube(rng, bands, h, w)
            got = vstep(x, p, lap, mu_p=0.7, nu_p=0.2)
            want = dense_minimizer(x, p, lap, 0.7, 0.2)
            assert np.allclose(got.data, want, rtol=0, atol=1e-10)

    def test_gradient_vanishes_at_solution(self, rng):
        lap = LaplacianOperator.create(6, 6)
        x = rand_cube(rng, 4, 6, 6)
        p = rand_cube(rng, 4, 6, 6)
        rho, mu, nu = 0.05, 0.4, 0.08
        v = vstep(x, p, lap, mu / rho, nu / rho)
        g = vstep_gradient(v, x, p, lap, rho, mu, nu)
        scale = max(1.0, x.norm(), p.norm())
        assert g.norm() <= 1e-11 * scale
        # and does not vanish away from it
        g_off = vstep_gradient(p, x, p, lap, rho, mu, nu)
        assert g_off.norm() > 1e-4

    def test_zero_weights_identity(self, rng):
        x = rand_cube(rng, 3, 5, 5)
        p = rand_cube(rng, 3, 5, 5)
        out = vstep(x, p, LaplacianOperator.create(5, 5), 0.0, 0.0)
        assert out is x

    def test_solution_interpolates_toward_prior(self, rng):
        # huge weights pin v to the prior, tiny weights to x_next
        lap = LaplacianOperator.create(6, 6)
        x = rand_cube(rng, 3, 6, 6)
        p = rand_cube(rng, 3, 6, 6)
        near_x = vstep(x, p, lap, 1e-12, 1e-12)
        assert np.allclose(near_x.data, x.data, rtol=0, atol=1e-9)

    def test_single_frequency_is_bitwise_batched(self, rng):
        # reference loop: one gain per frequency, in reverse order, between the
        # same rotations into and out of the band difference's eigenbasis
        bands, h, w = 4, 4, 6
        mu_p, nu_p = 0.9, 0.3
        lap = LaplacianOperator.create(h, w)
        x = rand_cube(rng, bands, h, w)
        p = rand_cube(rng, bands, h, w)
        eig, basis = spectral_gram_eig(bands)

        def spectrum(cube):
            data = cube.data.copy()
            mix_bands(basis.T, data)
            return np.fft.rfft2(data, axes=(-2, -1)).reshape(bands, -1)

        # on the half spectrum, columns 0..w//2
        half = w // 2 + 1
        xf, pf = spectrum(x), spectrum(p)
        lap_sq = lap.response_sq[:, :half].ravel()
        cols = np.empty_like(xf)
        for j in reversed(range(h * half)):
            # applied to the deviation from the prior, then shifted back
            gain = 1.0 / (nu_p * eig + (1.0 + mu_p * lap_sq[j]))
            cols[:, j] = (xf[:, j] - pf[:, j]) * gain + pf[:, j]
        mix_bands(basis, cols)
        want = np.fft.irfft2(cols.reshape(bands, h, half), s=(h, w), axes=(-2, -1))
        assert np.array_equal(vstep(x, p, lap, mu_p, nu_p).data, want)

    def test_matches_dense_per_frequency_solve(self, rng):
        # T_f = (1 + mu_p |lap(f)|^2) I + nu_p G, solved densely at every frequency
        mu_p, nu_p = 0.9, 0.3
        for bands, h, w in [(1, 5, 5), (4, 4, 6), (7, 6, 5)]:
            lap = LaplacianOperator.create(h, w)
            x = rand_cube(rng, bands, h, w)
            p = rand_cube(rng, bands, h, w)
            diag, off = spectral_gram_tridiag(bands)
            gram = np.diag(diag) + np.diag(off, -1) + np.diag(off, 1)
            xf = np.fft.fft2(x.data).reshape(bands, -1)
            pf = np.fft.fft2(p.data).reshape(bands, -1)
            lap_sq = lap.response_sq.ravel()
            dev = np.stack(
                [
                    np.linalg.solve(
                        (1.0 + mu_p * lap_sq[j]) * np.eye(bands) + nu_p * gram, xf[:, j] - pf[:, j]
                    )
                    for j in range(h * w)
                ],
                axis=1,
            )
            want = np.fft.ifft2((pf + dev).reshape(bands, h, w)).real
            got = vstep(x, p, lap, mu_p, nu_p).data
            assert np.abs(got - want).max() <= 1e-12

    def test_validation(self, rng):
        x = rand_cube(rng, 2, 5, 5)
        lap = LaplacianOperator.create(5, 5)
        with pytest.raises(ValidationError):
            vstep(x, rand_cube(rng, 2, 5, 4), lap, 0.1, 0.1)
        with pytest.raises(ValidationError):
            vstep(x, x, lap, -0.1, 0.1)
        with pytest.raises(ValidationError):
            vstep(x, x, LaplacianOperator.create(4, 4), 0.1, 0.1)
        # zero weights return x unchanged, but only after the checks
        with pytest.raises(ValidationError):
            vstep(x, rand_cube(rng, 2, 5, 4), lap, 0.0, 0.0)
        with pytest.raises(ValidationError):
            vstep(x, x, LaplacianOperator.create(4, 4), 0.0, 0.0)
        with pytest.raises(ValidationError):
            vstep_gradient(x, x, x, lap, 0.0, 0.1, 0.1)


class TestDenoiseFactors:
    def test_block_gain_equals_the_whole_gain(self, rng):
        # any band and column slice of the gain, built from the two terms, is
        # bit for bit the slice of the gain evaluated whole
        bands, h, w = 31, 24, 30
        mu_p, nu_p = 50.0, 1.3
        lap = LaplacianOperator.create(h, w)
        lap_sq = half_spectrum(lap.response_sq)
        fac = factor_denoise(h, w, bands, mu_p, nu_p)
        eig, _ = spectral_gram_eig(bands)
        whole = 1.0 / (nu_p * eig[:, None] + (1.0 + mu_p * lap_sq.reshape(-1)))
        freq = fac.freq_term.reshape(-1)
        for _ in range(20):
            r0, r1 = sorted(rng.integers(0, bands + 1, 2))
            c0, c1 = sorted(rng.integers(0, freq.size + 1, 2))
            rows, cols = slice(r0, r1), slice(c0, c1)
            got = fac.gain(rows, freq[cols], np.empty((r1 - r0, c1 - c0)))
            assert np.array_equal(got, whole[rows, cols])
        assert np.array_equal(fac.gain(slice(None), freq, np.empty(whole.shape)), whole)

    def test_holds_no_band_by_frequency_array(self):
        bands, h, w = 31, 32, 32
        fac = factor_denoise(h, w, bands, 0.9, 0.3)
        held = [getattr(fac, f.name) for f in fields(fac)]
        assert all(isinstance(a, np.ndarray) for a in held)
        assert max(a.size for a in held) < bands * h * (w // 2 + 1)


class TestDenoiseSpectrum:
    def test_peak_memory_is_well_under_one_cube(self, rng, monkeypatch):
        # the gain is built in the caller's buffer, and the v-step writes
        # x - p into the output, scales it by the gain and adds p back, all
        # in place: no temporary but the buffer numpy casts the real gain
        # through (128 KiB), and the values are p + g (x - p) with the whole
        # gain
        monkeypatch.setenv("HSFUSE_THREADS", "1")
        bands, h, w = 31, 128, 128
        fac = factor_denoise(h, w, bands, 0.9, 0.3)
        shape = (bands, h, w // 2 + 1)
        x_hat, p_hat = (
            rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(2)
        )
        out = np.empty(shape, dtype=np.complex128)
        gain = np.empty(shape)
        tracemalloc.start()
        try:
            fac.denoise(x_hat, p_hat, fac.gain(slice(None), fac.freq_term, gain), out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.05 * out.nbytes
        assert np.array_equal(gain, fac.gain(slice(None), fac.freq_term, np.empty(shape)))
        assert np.array_equal(out, (x_hat - p_hat) * gain + p_hat)

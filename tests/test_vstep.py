import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import rand_cube, vstep_gradient
from hsfuse.errors import ValidationError
from hsfuse.gradients import LaplacianOperator, spectral_gram_apply_array, spectral_gram_tridiag
from hsfuse.vstep import solve_tridiagonal, vstep


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
        # reference loop: one Thomas solve per frequency, in reverse order
        bands, h, w = 4, 4, 6
        mu_p, nu_p = 0.9, 0.3
        lap = LaplacianOperator.create(h, w)
        x = rand_cube(rng, bands, h, w)
        p = rand_cube(rng, bands, h, w)
        xf = np.fft.fft2(x.data, axes=(-2, -1)).reshape(bands, -1)
        pf = np.fft.fft2(p.data, axes=(-2, -1)).reshape(bands, -1)
        lap_sq = lap.response_sq.ravel()
        gram = spectral_gram_tridiag(bands)
        cols = np.empty_like(xf)
        for j in reversed(range(h * w)):
            rhs = xf[:, j] + mu_p * lap_sq[j] * pf[:, j] + nu_p * spectral_gram_apply_array(pf[:, j])
            diag = 1.0 + mu_p * lap_sq[j] + nu_p * gram.diag
            cols[:, j] = solve_tridiagonal(diag, nu_p * gram.sub, nu_p * gram.sup, rhs)
        want = np.fft.ifft2(cols.reshape(bands, h, w), axes=(-2, -1)).real
        assert np.array_equal(vstep(x, p, lap, mu_p, nu_p).data, want)

    def test_validation(self, rng):
        x = rand_cube(rng, 2, 5, 5)
        lap = LaplacianOperator.create(5, 5)
        with pytest.raises(ValidationError):
            vstep(x, rand_cube(rng, 2, 5, 4), lap, 0.1, 0.1)
        with pytest.raises(ValidationError):
            vstep(x, x, lap, -0.1, 0.1)
        with pytest.raises(ValidationError):
            vstep(x, x, LaplacianOperator.create(4, 4), 0.1, 0.1)
        with pytest.raises(ValidationError):
            vstep_gradient(x, x, x, lap, 0.0, 0.1, 0.1)

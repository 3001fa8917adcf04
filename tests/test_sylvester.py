import numpy as np
import pytest

from helpers import dense_matrix, rand_cube, random_srf_matrix, relative_gap, solve_cg
from hsfuse.cube import HsiCube
from hsfuse.degradation import (
    BlurOperator,
    DegradationModel,
    Downsampler,
    SpectralResponse,
)
from hsfuse.errors import UnsupportedStructureError, ValidationError
from hsfuse.hqs import HqsConfig, fuse
from hsfuse.sylvester import build_system, solve_fast, solve_spectrum, sylvester_residual


def make_model(rng, bands, h, w, s, blur_kind="block", phase=(0, 0)):
    if blur_kind == "block":
        blur = BlurOperator.uniform_block(h, w, max(s, 2))
    elif blur_kind == "gauss":
        blur = BlurOperator.gaussian(h, w, 0.7, 3)
    else:
        blur = BlurOperator.custom(h, w, rng.uniform(0.05, 1.0, (3, 3)))
    out_bands = min(3, bands - 1)
    srf = SpectralResponse(random_srf_matrix(rng, bands, out_bands))
    return DegradationModel(blur, Downsampler(s, phase=phase), srf)


def random_system(rng, bands, h, w, s, rho, **kw):
    model = make_model(rng, bands, h, w, s, **kw)
    gt = rand_cube(rng, bands, h, w, lo=0.0, hi=1.0)
    y, z = model.degrade(gt)
    v = rand_cube(rng, bands, h, w)
    return build_system(model, y, z, v, rho), model, gt, y, z, v


def dense_solve(system):
    """Independent oracle: materialize C2 from impulses and solve the
    (bands*pixels) x (bands*pixels) system built from Kronecker products."""
    bands = system.bands
    h, w = system.c3.height, system.c3.width
    n = h * w
    c2 = dense_matrix(lambda img: system.normal_apply_array(img), (h, w))
    big = np.kron(system.c1, np.eye(n)) + np.kron(np.eye(bands), c2)
    x = np.linalg.solve(big, system.c3.data.ravel())
    return HsiCube(x.reshape(bands, h, w))


class TestBuildSystem:
    def test_c1_and_c3_formulas(self, rng):
        system, model, gt, y, z, v = random_system(rng, 4, 8, 8, 2, rho=0.01)
        r = model.srf.matrix
        want_c1 = r.T @ r + 0.01 * np.eye(4)
        assert np.allclose(system.c1, want_c1, rtol=0, atol=1e-14)
        want_c3 = (
            model.srf.adjoint_array(z.data)
            + model.blur.adjoint_array(model.down.adjoint_array(y.data))
            + 0.01 * v.data
        )
        assert np.allclose(system.c3.data, want_c3, rtol=0, atol=1e-13)

    def test_validation(self, rng):
        model = make_model(rng, 4, 8, 8, 2)
        gt = rand_cube(rng, 4, 8, 8)
        y, z = model.degrade(gt)
        # rho is checked before it scales v or I, and named in the error
        for rho in (0.0, float("nan"), float("inf"), 10**400):
            with pytest.raises(ValidationError, match="rho"):
                build_system(model, y, z, gt, rho=rho)
        with pytest.raises(ValidationError):
            build_system(model, y, z, rand_cube(rng, 4, 8, 6), rho=0.1)
        with pytest.raises(ValidationError):
            build_system(model, rand_cube(rng, 3, 4, 4), z, gt, rho=0.1)
        with pytest.raises(ValidationError):
            build_system(model, y, rand_cube(rng, 4, 8, 8), gt, rho=0.1)


class TestOracleTriangle:
    def test_fast_cg_dense_agree(self, rng):
        kinds = ["block", "gauss", "custom"]
        for trial in range(8):
            bands = int(rng.integers(2, 5))
            h = int(rng.choice([4, 6, 8]))
            w = int(rng.choice([4, 6, 8]))
            s = int(rng.choice([1, 2]))
            rho = float(10.0 ** rng.uniform(-4, -1))
            system, *_ = random_system(
                rng, bands, h, w, s, rho, blur_kind=kinds[trial % 3]
            )
            fast = solve_fast(system)
            cg = solve_cg(system, tol=1e-12, max_iter=5000)
            dense = dense_solve(system)
            assert sylvester_residual(system, fast) <= 1e-8
            assert relative_gap(fast.data, cg.x.data) <= 1e-7
            assert relative_gap(fast.data, dense.data) <= 1e-7
            assert relative_gap(cg.x.data, dense.data) <= 1e-7

    def test_nonzero_phase(self, rng):
        system, *_ = random_system(rng, 3, 8, 8, 2, rho=0.01, phase=(1, 1))
        fast = solve_fast(system)
        dense = dense_solve(system)
        assert relative_gap(fast.data, dense.data) <= 1e-8
        assert sylvester_residual(system, fast) <= 1e-10

    @pytest.mark.parametrize(
        "bands,h,w,s,phase,blur_kind",
        [
            (3, 6, 9, 3, (0, 0), "block"),
            (3, 6, 9, 3, (2, 1), "gauss"),
            (3, 10, 10, 5, (0, 4), "gauss"),
            (2, 10, 15, 5, (1, 3), "block"),
            (3, 5, 7, 1, (0, 0), "gauss"),
            (3, 4, 6, 1, (0, 0), "block"),
            (3, 6, 10, 2, (1, 1), "gauss"),
            (3, 4, 6, 2, (1, 0), "block"),
        ],
        ids=[
            "odd_width",
            "odd_width_phase",
            "odd_factor_even_width_phase",
            "odd_factor_odd_width_phase",
            "factor_1_odd_width",
            "factor_1_even_width",
            "factor_2_phase",
            "factor_2_row_phase",
        ],
    )
    def test_half_spectrum_geometries(self, rng, bands, h, w, s, phase, blur_kind):
        # the aliasing groups of a half spectrum are completed from their
        # mirrors; these cover odd widths and factors, sampling phases, and
        # factors 1 and 2, where many groups are their own mirrors
        system, *_ = random_system(rng, bands, h, w, s, rho=0.01, blur_kind=blur_kind, phase=phase)
        fast = solve_fast(system)
        dense = dense_solve(system)
        cg = solve_cg(system, tol=1e-12, max_iter=5000)
        assert relative_gap(fast.data, dense.data) <= 1e-8
        assert relative_gap(fast.data, cg.x.data) <= 1e-7
        assert sylvester_residual(system, fast) <= 1e-10

    def test_ground_truth_is_fixed_point(self, rng):
        model = make_model(rng, 5, 8, 8, 2)
        gt = rand_cube(rng, 5, 8, 8, lo=0.0, hi=1.0)
        y, z = model.degrade(gt)
        # v = gt with noiseless data: gt satisfies the optimality system exactly
        system = build_system(model, y, z, gt, rho=0.02)
        sol = solve_fast(system)
        assert relative_gap(sol.data, gt.data) <= 1e-10


class TestSolveFast:
    def test_rejects_indefinite_c1(self, rng):
        # R^T R has rank 3, so at a rho far below roundoff the smallest
        # eigenvalue of C1 = R^T R + rho*I rounds below zero (about -2e-17 for
        # default_rgb over 8 bands); the error names rho, the one input at fault
        model = DegradationModel(
            BlurOperator.uniform_block(8, 8, 2), Downsampler(2), SpectralResponse.default_rgb(8)
        )
        y, z = model.degrade(rand_cube(rng, 8, 8, 8, lo=0.0, hi=1.0))
        system = build_system(model, y, z, rand_cube(rng, 8, 8, 8), rho=1e-30)
        with pytest.raises(UnsupportedStructureError, match="rho"):
            solve_fast(system)

    @pytest.mark.parametrize("bands", [4, 8, 31])
    def test_tiny_rho_is_refused_whatever_the_roundoff_sign(self, rng, bands):
        # at rho 1e-30 the smallest eigenvalue of C1 is pure roundoff: in the
        # loop's band basis it comes out positive at 4 bands and negative at
        # 8 and 31, so the refusal must not rest on its sign. A rho a few
        # decades above the roundoff floor is solved.
        model = DegradationModel(
            BlurOperator.uniform_block(8, 8, 2), Downsampler(2), SpectralResponse.default_rgb(bands)
        )
        gt = rand_cube(rng, bands, 8, 8, lo=0.0, hi=1.0)
        y, z = model.degrade(gt)
        with pytest.raises(UnsupportedStructureError, match="rho"):
            solve_fast(build_system(model, y, z, gt, rho=1e-30))
        with pytest.raises(UnsupportedStructureError, match="rho"):
            fuse(y, z, model, gt, HqsConfig(rho=1e-30))
        solve_fast(build_system(model, y, z, gt, rho=1e-12))
        fuse(y, z, model, gt, HqsConfig(rho=1e-12, max_iter=1))


class TestSolveCG:
    def test_warm_start_at_solution_returns_immediately(self, rng):
        system, *_ = random_system(rng, 3, 6, 6, 2, rho=0.05)
        exact = solve_fast(system)
        sol = solve_cg(system, x0=exact, tol=1e-8)
        assert sol.iterations == 0
        assert sol.converged

    def test_budget_exhaustion_flags_unconverged(self, rng):
        system, *_ = random_system(rng, 4, 8, 8, 2, rho=1e-4)
        sol = solve_cg(system, tol=1e-13, max_iter=2)
        assert not sol.converged
        assert sol.iterations == 2

    def test_validation(self, rng):
        system, *_ = random_system(rng, 3, 6, 6, 2, rho=0.05)
        with pytest.raises(ValidationError):
            solve_cg(system, tol=0.0)
        with pytest.raises(ValidationError):
            solve_cg(system, max_iter=0)
        with pytest.raises(ValidationError):
            solve_cg(system, x0=rand_cube(rng, 3, 6, 5))


class TestSolveDispatch:
    """``fuse`` looks its closed-form x-step, ``solve_spectrum``, up on its
    module once per iteration."""

    def _problem(self, rng):
        model = make_model(rng, 4, 8, 8, 2)
        y, z = model.degrade(rand_cube(rng, 4, 8, 8, lo=0.0, hi=1.0))
        return y, z, model, rand_cube(rng, 4, 8, 8)

    def test_prefers_fast_path(self, rng, monkeypatch):
        y, z, model, prior = self._problem(rng)
        calls = []

        def counting(xstep, v_hat):
            calls.append(xstep.rho)
            return solve_spectrum(xstep, v_hat)

        monkeypatch.setattr("hsfuse.sylvester.solve_spectrum", counting)
        result = fuse(y, z, model, prior, HqsConfig(max_iter=3, rel_tol=1e-14))
        assert len(calls) == result.iterations == 3

    def test_refusal_propagates_without_fallback(self, rng, monkeypatch):
        # a system outside the closed form's structure fails the run (CLI exit 4)
        y, z, model, prior = self._problem(rng)

        def refuse(xstep, v_hat):
            raise UnsupportedStructureError("forced")

        monkeypatch.setattr("hsfuse.sylvester.solve_spectrum", refuse)
        with pytest.raises(UnsupportedStructureError, match="forced"):
            fuse(y, z, model, prior)


def test_residual_is_relative(rng):
    system, *_ = random_system(rng, 3, 6, 6, 2, rho=0.05)
    x = solve_fast(system)
    assert sylvester_residual(system, x) < 1e-10
    off = HsiCube(x.data + 1.0)
    assert sylvester_residual(system, off) > 1e-3
    with pytest.raises(ValidationError):
        sylvester_residual(system, rand_cube(rng, 3, 6, 5))

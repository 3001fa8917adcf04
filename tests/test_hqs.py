from dataclasses import fields

import numpy as np
import pytest

from helpers import fuse_spatial, rand_cube, relative_gap
from hsfuse.degradation import (
    BlurOperator,
    DegradationModel,
    Downsampler,
    SpectralResponse,
)
from hsfuse.errors import ValidationError
from hsfuse.gradients import LaplacianOperator, regularizer_value
from hsfuse.hqs import FusionResult, HqsConfig, _Spectra, fuse, objective_value
from hsfuse.priors import PriorSource, make_prior
from hsfuse.scenes import SceneSpec, generate_scene


def small_problem(seed=0, bands=8, size=16, s=2, noise=0.0):
    gt = generate_scene(SceneSpec(bands, size, size, endmembers=3, seed=seed))
    model = DegradationModel(
        BlurOperator.uniform_block(size, size, s),
        Downsampler(s),
        SpectralResponse.default_rgb(bands),
        noise_sigma=noise,
        noise_seed=seed,
    )
    y, z = model.degrade(gt)
    prior = make_prior(PriorSource.naive_fusion(), y, z, model)
    return gt, model, y, z, prior


class TestHqsConfig:
    def test_defaults(self):
        cfg = HqsConfig()
        assert (cfg.mu, cfg.nu, cfg.rho) == (0.05, 0.001, 0.001)
        assert (cfg.max_iter, cfg.rel_tol) == (20, 1e-5)
        assert [f.name for f in fields(HqsConfig)] == ["mu", "nu", "rho", "max_iter", "rel_tol"]

    def test_validation(self):
        with pytest.raises(ValidationError):
            HqsConfig(mu=-1.0)
        with pytest.raises(ValidationError):
            HqsConfig(rho=0.0)
        with pytest.raises(ValidationError):
            HqsConfig(max_iter=0)
        with pytest.raises(ValidationError):
            HqsConfig(rel_tol=0.0)


class TestObjectiveValue:
    def test_matches_manual_formula(self, rng):
        gt, model, y, z, prior = small_problem()
        x = rand_cube(rng, 8, 16, 16)
        v = rand_cube(rng, 8, 16, 16)
        cfg = HqsConfig(mu=0.3, nu=0.02, rho=0.15)
        lap = LaplacianOperator.create(16, 16)
        want = float(np.sum((y.data - model.down.apply_array(model.blur.apply_array(x.data))) ** 2))
        want += float(np.sum((z.data - model.srf.apply_array(x.data)) ** 2))
        want += 0.15 * float(np.sum((x.data - v.data) ** 2))
        want += regularizer_value(v, prior, 0.3, 0.02, lap=lap)
        got = objective_value(x, v, y, z, model, prior, cfg, lap=lap)
        assert got == pytest.approx(want, rel=1e-12)

    def test_validation(self, rng):
        gt, model, y, z, prior = small_problem()
        x = rand_cube(rng, 8, 16, 16)
        with pytest.raises(ValidationError):
            objective_value(x, rand_cube(rng, 8, 16, 15), y, z, model, prior, HqsConfig())
        with pytest.raises(ValidationError):
            objective_value(x, x, z, z, model, prior, HqsConfig())


class TestFuse:
    def test_objective_descends(self):
        gt, model, y, z, prior = small_problem(noise=0.002)
        cfg = HqsConfig(max_iter=8, rel_tol=1e-13)
        result = fuse(y, z, model, prior, cfg)
        trace = result.objective_trace
        assert len(trace) == result.iterations >= 3
        for a, b in zip(trace, trace[1:]):
            assert b <= a + 1e-9

    def test_ground_truth_prior_is_fixed_point(self):
        gt, model, y, z, _ = small_problem()
        result = fuse(y, z, model, gt, HqsConfig(max_iter=3, rel_tol=1e-10))
        # noiseless data and a perfect anchor: x_1 = gt exactly, then stays
        assert relative_gap(result.x_hat.data, gt.data) <= 1e-9
        assert result.converged

    def test_early_stop_sets_converged(self):
        gt, model, y, z, prior = small_problem()
        result = fuse(y, z, model, prior, HqsConfig(max_iter=20, rel_tol=1e-4))
        assert result.converged
        assert result.iterations < 20

    def test_budget_exhaustion_leaves_unconverged(self):
        gt, model, y, z, prior = small_problem()
        result = fuse(y, z, model, prior, HqsConfig(max_iter=2, rel_tol=1e-14))
        assert not result.converged
        assert result.iterations == 2

    def test_improves_on_prior(self):
        gt, model, y, z, prior = small_problem(seed=5)
        result = fuse(y, z, model, prior)
        err_prior = np.linalg.norm(prior.data - gt.data)
        err_fused = np.linalg.norm(result.x_hat.data - gt.data)
        assert err_fused < err_prior

    def test_default_config_used_when_none(self):
        gt, model, y, z, prior = small_problem()
        result = fuse(y, z, model, prior)
        assert isinstance(result, FusionResult)
        assert 1 <= result.iterations <= 20

    def test_prior_shape_validated(self, rng):
        gt, model, y, z, prior = small_problem()
        with pytest.raises(ValidationError):
            fuse(y, z, model, rand_cube(rng, 8, 16, 15))


def desk_problem(seed):
    """One of the acceptance gate's five desk fusions (criteria 4-7)."""
    gt = generate_scene(
        SceneSpec(bands=31, height=64, width=64, endmembers=5, smoothness=4.0, seed=seed)
    )
    model = DegradationModel(
        BlurOperator.uniform_block(64, 64, 4), Downsampler(4), SpectralResponse.default_rgb(31)
    )
    y, z = model.degrade(gt)
    return model, y, z, make_prior(PriorSource.naive_fusion(), y, z, model)


def variant_problem(kind):
    """A geometry the desk runs do not cover: Gaussian blur, sampling phase, non-square grid."""
    height, width = (32, 48) if kind == "non_square" else (32, 32)
    if kind == "gaussian":
        blur = BlurOperator.gaussian(height, width, 1.3)
    else:
        blur = BlurOperator.uniform_block(height, width, 4)
    down = Downsampler(4, (1, 2)) if kind == "phase" else Downsampler(4)
    model = DegradationModel(blur, down, SpectralResponse.default_rgb(31), noise_sigma=0.002)
    gt = generate_scene(SceneSpec(31, height, width, endmembers=4, seed=7))
    y, z = model.degrade(gt)
    return model, y, z, make_prior(PriorSource.naive_fusion(), y, z, model)


PROBLEMS = [("desk", seed) for seed in range(5)] + [
    ("variant", kind) for kind in ("gaussian", "phase", "non_square")
]


def build_problem(family, arg):
    return desk_problem(arg) if family == "desk" else variant_problem(arg)


class TestSpectralLoop:
    """``fuse`` keeps x and v as spectra; ``fuse_spatial`` is the same loop on cubes."""

    @pytest.mark.parametrize("family,arg", PROBLEMS)
    def test_matches_spatial_oracle(self, family, arg):
        model, y, z, prior = build_problem(family, arg)
        got = fuse(y, z, model, prior)
        want = fuse_spatial(y, z, model, prior)
        assert got.iterations == want.iterations
        assert got.converged == want.converged
        assert relative_gap(got.x_hat.data, want.x_hat.data) <= 1e-12
        assert len(got.objective_trace) == len(want.objective_trace)
        for a, b in zip(got.objective_trace, want.objective_trace):
            assert a == pytest.approx(b, rel=1e-12, abs=0)

    @pytest.mark.parametrize("family,arg", [("desk", 0), ("variant", "phase")])
    def test_rel_changes_match_the_iterates(self, family, arg):
        model, y, z, prior = build_problem(family, arg)
        # four iterations keep every change above 1e-5: below that, the two
        # loops' ~1e-14 iterate differences alone move the ratio by 1e-9
        cfg = HqsConfig(max_iter=4, rel_tol=1e-14)
        got = fuse(y, z, model, prior, cfg)
        xs = fuse_spatial(y, z, model, prior, cfg).iterates
        want = [
            np.linalg.norm(b.data - a.data) / np.linalg.norm(a.data) for a, b in zip(xs, xs[1:])
        ]
        assert got.iterations == 4
        assert len(got.rel_changes) == 3
        assert min(want) > 1e-5
        assert np.allclose(got.rel_changes, want, rtol=1e-9, atol=0)

    @pytest.mark.parametrize("kind", ["gaussian", "phase", "non_square"])
    def test_spectral_objective_matches_objective_value(self, kind, rng):
        model, y, z, prior = variant_problem(kind)
        cfg = HqsConfig(mu=0.3, nu=0.02, rho=0.15)
        fixed = _Spectra.prepare(y, z, model, prior, cfg)
        lap = LaplacianOperator.create(prior.height, prior.width)
        for _ in range(3):
            x = rand_cube(rng, *prior.data.shape)
            v = rand_cube(rng, *prior.data.shape)
            got = fixed.objective(np.fft.fft2(x.data), np.fft.fft2(v.data))
            want = objective_value(x, v, y, z, model, prior, cfg, lap=lap)
            assert got == pytest.approx(want, rel=1e-12, abs=0)

    def test_transform_count_does_not_grow_with_iterations(self, monkeypatch):
        model, y, z, prior = desk_problem(0)
        cube = prior.data.size
        counted = []

        def counting(fn):
            def wrapper(a, *args, **kwargs):
                out = fn(a, *args, **kwargs)
                counted.append(max(np.size(a), out.size) / cube)
                return out

            return wrapper

        modules = [np.fft]
        try:
            import scipy.fft

            modules.append(scipy.fft)
        except ImportError:
            pass
        for module in modules:
            for name in ("fft2", "ifft2", "fftn", "ifftn", "rfft2", "irfft2", "rfftn", "irfftn"):
                monkeypatch.setattr(module, name, counting(getattr(module, name)))

        def planes(max_iter):
            counted.clear()
            result = fuse(y, z, model, prior, HqsConfig(max_iter=max_iter, rel_tol=1e-300))
            assert result.iterations == max_iter
            return sum(counted)

        one = planes(1)
        assert 1.0 <= one < 3.0
        assert planes(6) == one

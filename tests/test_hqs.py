from dataclasses import fields

import numpy as np
import pytest

from helpers import rand_cube, relative_gap
from hsfuse.degradation import (
    BlurOperator,
    DegradationModel,
    Downsampler,
    SpectralResponse,
)
from hsfuse.errors import ValidationError
from hsfuse.gradients import LaplacianOperator, regularizer_value
from hsfuse.hqs import FusionResult, HqsConfig, fuse, objective_value
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

import functools
import sys
import tracemalloc
import weakref
from dataclasses import fields

import numpy as np
import pytest

import hsfuse.cube
import hsfuse.hqs
import hsfuse.priors
import hsfuse.sylvester
import hsfuse.vstep
from helpers import (
    VARIANTS,
    build_problem,
    dense_joint_minimizer,
    dense_matrix,
    desk_problem,
    fuse_spatial,
    rand_cube,
    relative_gap,
    roll_blur,
    variant_problem,
    woodbury_minimizer,
)
from hsfuse.cube import HsiCube, Scratch
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
from hsfuse.sylvester import (
    build_system,
    group_step,
    group_sums,
    solve_fast,
    solve_spectrum,
    write_pass,
)
from hsfuse.vstep import vstep


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
        want = float(np.sum((y.data - model.down.apply_array(model.blur.apply_array(x.data))) ** 2))
        want += float(np.sum((z.data - model.srf.apply_array(x.data)) ** 2))
        want += 0.15 * float(np.sum((x.data - v.data) ** 2))
        want += regularizer_value(v, prior, 0.3, 0.02)
        got = objective_value(x, v, y, z, model, prior, cfg)
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

    def test_runs_no_thomas_solve(self, monkeypatch):
        # the v-step is one gain per band and frequency in the band
        # difference's eigenbasis, with no tridiagonal solve
        def thomas(*args, **kwargs):
            raise AssertionError("fuse ran a Thomas solve")

        monkeypatch.setattr(hsfuse.vstep, "solve_tridiagonal", thomas)
        gt, model, y, z, prior = small_problem()
        result = fuse(y, z, model, prior, HqsConfig(max_iter=3, rel_tol=1e-14))
        assert result.iterations == 3

    def test_peak_memory_stays_below_2_65_complex_cubes(self):
        # a prior cube's loop holds two half spectra, the prior's and x's, and
        # forms v tile by tile where it is used; the x-step's data term adds
        # no cube to them (it reuses z's spectrum and keeps a per-group shift
        # for y), the v-step keeps a band vector and one half-grid table, and
        # the one inverse transform works in place. Measured at 1.79 cubes
        gt = generate_scene(SceneSpec(31, 128, 128, seed=0))
        blur = BlurOperator.uniform_block(128, 128, 4)
        model = DegradationModel(blur, Downsampler(4), SpectralResponse.default_rgb(31))
        y, z = model.degrade(gt)
        prior = make_prior(PriorSource.naive_fusion(), y, z, model)
        tracemalloc.start()
        try:
            fuse(y, z, model, prior, HqsConfig(max_iter=2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.65 * gt.data.size * 16

    def test_loop_holds_no_gain_cube(self, monkeypatch):
        # the prior's spectrum, x and z's spectrum, and tile temporaries that
        # are small at this size: measured at 2.90 half spectra, and a stored
        # v-step gain (half a complex half spectrum) would take it to about 3.4
        monkeypatch.setenv("HSFUSE_THREADS", "1")
        size = 256
        gt = generate_scene(SceneSpec(31, size, size, seed=0))
        blur = BlurOperator.uniform_block(size, size, 4)
        model = DegradationModel(blur, Downsampler(4), SpectralResponse.default_rgb(31))
        y, z = model.degrade(gt)
        prior = make_prior(PriorSource.naive_fusion(), y, z, model)
        monkeypatch.setattr(hsfuse.hqs, "_SCRATCH", Scratch())
        tracemalloc.start()
        try:
            fuse(y, z, model, prior, HqsConfig(max_iter=2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.15 * 31 * size * (size // 2 + 1) * 16

    @pytest.mark.skipif(
        sys.implementation.name != "cpython" or sys.version_info < (3, 11),
        reason="CPython 3.10 keeps call arguments on the caller's stack until the call "
        "returns, so fuse cannot free a prior handed to it",
    )
    def test_frees_a_prior_handed_over_before_the_first_xstep(self, monkeypatch):
        # the loop reads only the prior's spectrum, so a caller that passes
        # its only reference has the cube freed before the iterates exist
        model, y, z, prior = desk_problem(0)
        ref = weakref.ref(prior.data)
        alive = []
        write_pass = hsfuse.sylvester.write_pass

        def probed(*args, **kwargs):
            alive.append(ref() is not None)
            return write_pass(*args, **kwargs)

        monkeypatch.setattr(hsfuse.sylvester, "write_pass", probed)
        holder = [prior]
        del prior
        result = fuse(y, z, model, holder.pop(), HqsConfig(max_iter=2))
        assert result.iterations == 2 and alive == [False, False]

    @pytest.mark.skipif(
        sys.implementation.name != "cpython" or sys.version_info < (3, 11),
        reason="CPython 3.10 keeps call arguments on the caller's stack until the call "
        "returns, so fuse cannot free the data handed to it",
    )
    def test_frees_y_and_z_handed_over_before_the_first_xstep(self, monkeypatch):
        # the loop reads z only through its half spectrum and y only through
        # the set-up's small arrays and the naive prior's factors
        model, y, z, prior = desk_problem(0)
        refs = [weakref.ref(y.data), weakref.ref(z.data)]
        alive = []
        write_pass = hsfuse.sylvester.write_pass

        def probed(*args, **kwargs):
            alive.append([ref() is not None for ref in refs])
            return write_pass(*args, **kwargs)

        monkeypatch.setattr(hsfuse.sylvester, "write_pass", probed)
        holder = [y, z]
        del y, z
        source = PriorSource.naive_fusion()
        result = fuse(holder.pop(0), holder.pop(), model, source, HqsConfig(max_iter=2))
        assert result.iterations == 2 and alive == [[False, False]] * 2

    @pytest.mark.skipif(
        sys.implementation.name != "cpython" or sys.version_info < (3, 11),
        reason="CPython 3.10 keeps call arguments on the caller's stack until the call "
        "returns, so fuse cannot free the data handed to it",
    )
    def test_frees_a_model_and_z_handed_over_before_the_prior_spectrum(self, monkeypatch):
        # only the x-step's set-up reads the model's blur multiplier, and the
        # loop reads z only through its spectrum: both go before the naive
        # prior's spectrum is made, and a caller that keeps them gets the
        # same bytes
        model, y, z, prior = desk_problem(0)
        cfg = HqsConfig(max_iter=2)
        kept = fuse(y, z, model, PriorSource.naive_fusion(), cfg)
        refs = [weakref.ref(model.blur.multiplier), weakref.ref(z.data)]
        alive = []
        spectrum, group_step = hsfuse.priors.SpectrumFactors.spectrum, hsfuse.sylvester.group_step

        def probing(fn):
            def probed(*args, **kwargs):
                alive.append([ref() is not None for ref in refs])
                return fn(*args, **kwargs)

            return probed

        monkeypatch.setattr(hsfuse.priors.SpectrumFactors, "spectrum", probing(spectrum))
        monkeypatch.setattr(hsfuse.sylvester, "group_step", probing(group_step))
        holder = [z, model]
        del z, model
        result = fuse(y, holder.pop(0), holder.pop(), PriorSource.naive_fusion(), cfg)
        assert result.iterations == 2 and alive == [[False, False]] * 3
        assert result.x_hat.data.tobytes() == kept.x_hat.data.tobytes()
        assert result.objective_trace == kept.objective_trace

    def test_the_naive_loop_holds_one_spectrum(self, monkeypatch):
        # the naive prior's loop writes x over the prior's spectrum and
        # rebuilds p per tile from its factors, which have y's rank, and the
        # inverse transform works in place: measured at 1.53 half spectra
        # above the inputs with fresh tile work arrays, where the factors'
        # rows at full height (a quarter of a half spectrum here) held 1.74,
        # and a second spectrum beside x, or a fresh output cube, 2.39
        monkeypatch.setenv("HSFUSE_THREADS", "1")
        size = 256
        gt = generate_scene(SceneSpec(31, size, size, seed=0))
        blur = BlurOperator.uniform_block(size, size, 8)
        model = DegradationModel(blur, Downsampler(8), SpectralResponse.default_rgb(31))
        y, z = model.degrade(gt)
        monkeypatch.setattr(hsfuse.hqs, "_SCRATCH", Scratch())
        tracemalloc.start()
        try:
            fuse(y, z, model, PriorSource.naive_fusion(), HqsConfig(max_iter=2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.6 * 31 * size * (size // 2 + 1) * 16

    def test_the_naive_result_is_a_view_of_the_prior_spectrum(self, monkeypatch):
        # one spectrum buffer from the set-up to the result: x is written over
        # the prior's spectrum and transformed back in place
        model, y, z, prior = desk_problem(0)
        built = []
        spectrum = hsfuse.priors.SpectrumFactors.spectrum

        def recording(factors, z_hat):
            built.append(spectrum(factors, z_hat))
            return built[-1]

        monkeypatch.setattr(hsfuse.priors.SpectrumFactors, "spectrum", recording)
        result = fuse(y, z, model, PriorSource.naive_fusion(), HqsConfig(max_iter=2))
        assert len(built) == 1 and np.shares_memory(result.x_hat.data, built[0])

    def test_scans_the_result_for_finiteness_once(self, monkeypatch):
        # only the real result is scanned, when it becomes an HsiCube; a
        # non-finite spectrum would make it non-finite, so the half spectrum
        # needs no scan of its own
        model, y, z, prior = desk_problem(0)
        bands, height, width = prior.data.shape
        sizes = []
        isfinite = np.isfinite

        def counting(a, *args, **kwargs):
            sizes.append(np.size(a))
            return isfinite(a, *args, **kwargs)

        monkeypatch.setattr(np, "isfinite", counting)
        fuse(y, z, model, prior, HqsConfig(max_iter=2))
        assert sum(size >= bands * height * (width // 2 + 1) for size in sizes) == 1

    def test_prior_shape_validated(self, rng):
        gt, model, y, z, prior = small_problem()
        with pytest.raises(ValidationError):
            fuse(y, z, model, rand_cube(rng, 8, 16, 15))

    @pytest.mark.parametrize(
        "arg,kind",
        [
            ("prior", "ndarray"),
            ("prior", "str"),
            ("prior", "NoneType"),
            ("y", "ndarray"),
            ("z", "ndarray"),
        ],
    )
    def test_an_input_that_is_not_a_cube_is_refused_before_the_set_up(self, monkeypatch, arg, kind):
        # a network's output arrives as an array: it is refused by name and type,
        # not left to fail untyped inside the set-up
        gt, model, y, z, prior = small_problem()
        args = {"y": y, "z": z, "prior": prior}
        args[arg] = {"ndarray": args[arg].data.copy(), "str": "naive", "NoneType": None}[kind]

        def no_set_up(*a, **k):
            raise AssertionError("the set-up ran")

        monkeypatch.setattr(_Spectra, "prepare", no_set_up)
        with pytest.raises(ValidationError, match=f"{arg} must be an HsiCube, got {kind}"):
            fuse(args["y"], args["z"], model, args["prior"])


PROBLEMS = [("desk", seed) for seed in range(5)] + [("variant", kind) for kind in VARIANTS]


def loop_spectrum(fixed, cube):
    """The loop's form of a cube: its half spectrum, bands mixed by U^T."""
    return np.tensordot(fixed.denoise.basis.T, np.fft.rfft2(cube.data), axes=(1, 0))


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

    @pytest.mark.parametrize("kind", list(VARIANTS))
    def test_spectral_objective_matches_objective_value(self, kind, rng):
        # an iteration scores the x it writes, with the v-step's v for it,
        # from the group step's y-term and the v-step's gain; the oracle runs
        # both one-shot steps from x_prev's v and scores the pair on cubes
        model, y, z, prior = variant_problem(kind)
        cfg = HqsConfig(mu=0.3, nu=0.02, rho=0.15)
        fixed, _ = _Spectra.prepare(y, z, model, prior, cfg)
        lap = LaplacianOperator.create(prior.height, prior.width)
        mu_p, nu_p = cfg.mu / cfg.rho, cfg.nu / cfg.rho
        for _ in range(3):
            x_prev = rand_cube(rng, *prior.data.shape)
            v_prev = vstep(x_prev, prior, lap, mu_p, nu_p)
            prev = loop_spectrum(fixed, x_prev)
            sums = group_sums(fixed.xstep, loop_spectrum(fixed, v_prev))
            # the x-step writes x over the previous one
            got, step, norm, _ = fixed.iterate(prev, False, sums, False)
            x = solve_fast(build_system(model, y, z, v_prev, cfg.rho))
            v = vstep(x, prior, lap, mu_p, nu_p)
            want = objective_value(x, v, y, z, model, prior, cfg)
            assert got == pytest.approx(want, rel=1e-12, abs=0)
            assert step == pytest.approx(float(np.sum((x.data - x_prev.data) ** 2)), rel=1e-10)
            assert norm == pytest.approx(float(np.sum(x.data**2)), rel=1e-10)

    @pytest.mark.parametrize("family,arg", [("desk", 0)] + [("variant", kind) for kind in VARIANTS])
    def test_xstep_returns_the_y_term_of_its_x(self, family, arg, rng):
        # the low-resolution residual of the x the pass writes is minus the
        # group step's Sherman-Morrison coefficients, so their squares sum to
        # the y-term
        model, y, z, prior = build_problem(family, arg)
        for cfg, v_prev in (
            (HqsConfig(), prior),
            (HqsConfig(mu=0.3, nu=0.02, rho=0.15), rand_cube(rng, *prior.data.shape)),
        ):
            fixed, _ = _Spectra.prepare(y, z, model, prior, cfg)
            x_hat = loop_spectrum(fixed, v_prev)
            v_grid = fixed.xstep.grid(x_hat.copy())
            sums = group_sums(fixed.xstep, x_hat)
            got = group_step(fixed.xstep, sums)

            def form(index, out, z):
                np.copyto(out, v_grid[index])

            write_pass(fixed.xstep, x_hat, sums, form, None, Scratch())
            x = np.fft.irfft2(
                np.tensordot(fixed.denoise.basis, x_hat, axes=(1, 0)), s=prior.data.shape[1:]
            )
            want = float(np.sum((y.data - model.down.apply_array(model.blur.apply_array(x))) ** 2))
            assert got == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("family,arg", [("desk", 0)] + [("variant", kind) for kind in VARIANTS])
    def test_xstep_does_not_depend_on_the_band_basis(self, family, arg, rng):
        # solve_fast runs the loop's x-step in the identity basis; the loop
        # runs it in U's coordinates, with C1 and the data term rotated by U
        model, y, z, prior = build_problem(family, arg)
        for cfg, v in (
            (HqsConfig(), prior),
            (HqsConfig(mu=0.3, nu=0.02, rho=0.15), rand_cube(rng, *prior.data.shape)),
        ):
            fixed, _ = _Spectra.prepare(y, z, model, prior, cfg)
            x_hat = loop_spectrum(fixed, v)
            solve_spectrum(fixed.xstep, x_hat)
            got = np.fft.irfft2(
                np.tensordot(fixed.denoise.basis, x_hat, axes=(1, 0)), s=prior.data.shape[1:]
            )
            want = solve_fast(build_system(model, y, z, v, cfg.rho))
            assert relative_gap(got, want.data) <= 1e-12

    @pytest.mark.parametrize("family,arg", [("desk", seed) for seed in range(5)]
                             + [("variant", kind) for kind in VARIANTS])
    def test_the_naive_source_fuses_as_its_cube(self, family, arg):
        # the loop reads the naive prior's spectrum built directly, or the
        # cube make_prior builds transformed and rotated: the same run
        model, y, z, prior = build_problem(family, arg)
        for cfg in (HqsConfig(), HqsConfig(mu=0.3, nu=0.02, rho=0.15)):
            got = fuse(y, z, model, PriorSource.naive_fusion(), cfg)
            want = fuse(y, z, model, prior, cfg)
            assert (got.iterations, got.converged) == (want.iterations, want.converged)
            assert relative_gap(got.x_hat.data, want.x_hat.data) <= 1e-13

    def test_one_scoring_pass_per_iteration_and_no_unused_vstep(self, monkeypatch):
        # the set-up reduces the first v, the prior, once (and z's spectrum
        # for the data term); each iteration then makes one write_pass, which
        # builds the gain and forms v once per tile (the first v is the
        # prior, copied), returns the iteration's score sums and reduces the
        # next v, but for the last iteration the cap allows. p is read one
        # way: x starts as the prior's spectrum, so the first pass reads p
        # there, and each later pass rebuilds the naive prior's tile from its
        # factors once per tile, or reads a prior cube's stored spectrum,
        # which no pass writes
        model, y, z, prior = desk_problem(0)
        reductions, passes, stored = [0], [], []
        calls = {"gain": 0, "denoise": 0, "rows": 0}
        group_sums_fn, write_pass_fn = hsfuse.sylvester.group_sums, hsfuse.sylvester.write_pass
        factors = hsfuse.vstep.DenoiseFactors
        gain, denoise = factors.gain, factors.denoise
        rows, rdft2 = hsfuse.priors.SpectrumFactors.rows, hsfuse.hqs.rdft2

        def counting_sums(*args, **kwargs):
            reductions[0] += 1
            return group_sums_fn(*args, **kwargs)

        def counting_pass(xstep, *args):
            s, _, half = xstep.e.shape
            tile_count = sum(
                len(hsfuse.cube.tiles(s, part.stop - part.start, half))
                for parts, _, _ in xstep.runs
                for part, _ in parts
            )
            before, kept = dict(calls), [spec.tobytes() for spec in stored]
            out, sums = write_pass_fn(xstep, *args)
            made = {name: (calls[name] - before[name]) / tile_count for name in calls}
            unchanged = [spec.tobytes() for spec in stored] == kept
            passes.append((made, out is not None, sums is not None, unchanged))
            return out, sums

        def counting(name, fn):
            def counted(*args):
                calls[name] += 1
                return fn(*args)

            return counted

        def recording(*args, **kwargs):
            # hqs transforms nothing but a prior cube
            stored.append(rdft2(*args, **kwargs))
            return stored[-1]

        monkeypatch.setattr(hsfuse.sylvester, "group_sums", counting_sums)
        monkeypatch.setattr(hsfuse.sylvester, "write_pass", counting_pass)
        monkeypatch.setattr(factors, "gain", counting("gain", gain))
        monkeypatch.setattr(factors, "denoise", staticmethod(counting("denoise", denoise)))
        monkeypatch.setattr(hsfuse.priors.SpectrumFactors, "rows", counting("rows", rows))
        monkeypatch.setattr(hsfuse.hqs, "rdft2", recording)
        for source in (prior, PriorSource.naive_fusion()):
            naive = isinstance(source, PriorSource)
            for cfg in (HqsConfig(max_iter=1), HqsConfig(max_iter=4, rel_tol=1e-14), HqsConfig()):
                reductions[0] = 0
                passes.clear()
                stored.clear()
                result = fuse(y, z, model, source, cfg)
                n = result.iterations
                assert reductions[0] == 2
                assert len(stored) == int(not naive)
                made = [
                    {"gain": 1, "denoise": int(k > 0), "rows": int(naive and k > 0)}
                    for k in range(n)
                ]
                # a run that stops on the tolerance reduced a next v it does not use
                more = [True] * (n - 1) + [n < cfg.max_iter]
                assert passes == [(m, True, later, True) for m, later in zip(made, more)]

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

    def test_work_count_does_not_grow_with_iterations(self, monkeypatch):
        # the x-step stays in U's coordinates, so the loop mixes no bands x
        # bands over a spectrum; the naive source's spectrum is built with no
        # transform of a bands-deep cube, so the forward planes are z's and
        # the Laplacian kernel's and the final rotation is the only mix, and
        # a cube prior adds its own transform and rotation
        model, y, z, prior = desk_problem(0)
        bands, height, width = prior.data.shape
        spectrum = (bands, height, width // 2 + 1)
        counts = {"planes": 0, "mixes": 0}

        def forward(fn):
            def wrapper(a, *args, **kwargs):
                if np.shape(a)[-2:] == (height, width):
                    counts["planes"] += np.size(a) // (height * width)
                return fn(a, *args, **kwargs)

            return wrapper

        def mixing(fn):
            def wrapper(mat, spec, *args, **kwargs):
                if np.shape(mat) == (bands, bands) and spec.shape == spectrum:
                    counts["mixes"] += 1
                return fn(mat, spec, *args, **kwargs)

            return wrapper

        for name in ("fft2", "fftn", "rfft2", "rfftn"):
            monkeypatch.setattr(np.fft, name, forward(getattr(np.fft, name)))
        for module in (hsfuse.cube, hsfuse.hqs, hsfuse.priors, hsfuse.sylvester, hsfuse.vstep):
            if hasattr(module, "mix_bands"):
                monkeypatch.setattr(module, "mix_bands", mixing(module.mix_bands))

        def work(source, max_iter):
            counts.update(planes=0, mixes=0)
            result = fuse(y, z, model, source, HqsConfig(max_iter=max_iter, rel_tol=1e-300))
            assert result.iterations == max_iter
            return dict(counts)

        out = model.srf.out_bands + 1
        for max_iter in (1, 6):
            assert work(PriorSource.naive_fusion(), max_iter) == {"planes": out, "mixes": 1}
            assert work(prior, max_iter) == {"planes": out + bands, "mixes": 2}

    def test_pass_temporaries_stay_within_a_few_tiles(self, monkeypatch):
        # an iteration's temporaries are the work arrays of one tile (v and x,
        # the x-step's update, the next v less p and the gain, each every band
        # of at most _TILE_VALUES frequencies), the next v's sums over member
        # rows and the small (bands, gl, gw) arrays: measured at 5.2 tiles; a
        # pass that held v, x - p or the step for the spectrum (1.05 MB, 2.1
        # tiles) or a whole block (31 x 4,096 complex values) would exceed it
        monkeypatch.setenv("HSFUSE_THREADS", "1")
        model, y, z, prior = desk_problem(0)
        fixed, x_hat = _Spectra.prepare(y, z, model, prior, HqsConfig())
        sums = group_sums(fixed.xstep, x_hat)
        tile = 31 * hsfuse.cube._TILE_VALUES * 16
        monkeypatch.setattr(hsfuse.hqs, "_SCRATCH", Scratch())
        tracemalloc.start()
        try:
            fixed.iterate(x_hat, True, sums, True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * tile


# (bands, height, width, factor, phase, blur) of grids small enough for a
# dense solve over (x, v): 2 * bands * height * width unknowns
TINY = {
    "8x8_s2": (4, 8, 8, 2, (0, 0), "block"),
    "8x8_s2_phase_1_1": (4, 8, 8, 2, (1, 1), "block"),
    "9x9_s3_phase_2_1": (5, 9, 9, 3, (2, 1), "gaussian"),
    "6x12_s3_phase_0_2": (4, 6, 12, 3, (0, 2), "block"),
    "6x8_s1": (4, 6, 8, 1, (0, 0), "gaussian"),
    "8x10_s2_phase_1_0": (4, 8, 10, 2, (1, 0), "block"),
}


def tiny_problem(kind):
    """One of ``TINY``, degraded with a little noise, and its naive prior."""
    bands, height, width, s, phase, blur_kind = TINY[kind]
    if blur_kind == "gaussian":
        blur = BlurOperator.gaussian(height, width, 0.7, support=3)
    else:
        blur = BlurOperator.uniform_block(height, width, s)
    model = DegradationModel(
        blur, Downsampler(s, phase), SpectralResponse.default_rgb(bands), noise_sigma=0.002
    )
    gt = generate_scene(SceneSpec(bands, height, width, endmembers=3, seed=7))
    y, z = model.degrade(gt)
    return model, y, z, make_prior(PriorSource.naive_fusion(), y, z, model)


@functools.lru_cache(maxsize=None)
def tiny_star(kind, cfg):
    """``tiny_problem(kind)`` and its ``dense_joint_minimizer`` at ``cfg``, computed once per pair."""
    model, y, z, prior = tiny_problem(kind)
    return (model, y, z, prior), dense_joint_minimizer(y, z, model, prior, cfg)


CONFIGS = pytest.mark.parametrize(
    "cfg", [HqsConfig(), HqsConfig(mu=0.3, nu=0.02, rho=0.15)], ids=["default", "strong"]
)


class TestFixedPoint:
    """``fuse`` run to its fixed point is the minimizer of the objective, not
    only the same iterates as ``fuse_spatial``."""

    @CONFIGS
    @pytest.mark.parametrize("kind", list(TINY))
    def test_fuse_reaches_the_dense_joint_minimizer(self, kind, cfg):
        (model, y, z, prior), (x_star, _, value) = tiny_star(kind, cfg)
        got = fuse(y, z, model, prior, HqsConfig(cfg.mu, cfg.nu, cfg.rho, 200, 1e-14))
        assert got.converged
        assert relative_gap(got.x_hat.data, x_star) <= 1e-10
        # no iterate scores below the minimum
        assert got.objective_trace[-1] >= value - 1e-12 * abs(value)

    @CONFIGS
    @pytest.mark.parametrize("kind", list(TINY))
    def test_error_in_the_s_norm_never_rises(self, kind, cfg):
        # with rho fixed, the minimum of L over v is a quadratic in x with
        # Hessian S = A + rho*(I - G): A the data normal operator, G the
        # v-step's linear map (``vstep`` with a zero prior). HQS is the
        # stationary iteration of the splitting S = P - rho*G, P = A + rho*I
        # the exact x-step, and P + rho*G is positive definite, so the error
        # shrinks in the S-norm at every iteration
        (model, y, z, prior), (x_star, _, _) = tiny_star(kind, cfg)
        shape = prior.data.shape
        blur = model.blur
        a_y = dense_matrix(
            lambda e: model.down.apply_array(roll_blur(e, blur.kernel, blur.anchor)), shape
        )
        a_z = dense_matrix(model.srf.apply_array, shape)
        lap = LaplacianOperator.create(shape[1], shape[2])
        zero = HsiCube(np.zeros(shape))
        g = dense_matrix(
            lambda e: vstep(HsiCube(e), zero, lap, cfg.mu / cfg.rho, cfg.nu / cfg.rho).data, shape
        )
        s_mat = a_y.T @ a_y + a_z.T @ a_z + cfg.rho * (np.eye(len(g)) - g)
        x_star = x_star.ravel()

        def s_norm(x):
            return float(np.sqrt(x @ s_mat @ x))

        errors = [
            s_norm(fuse(y, z, model, prior, HqsConfig(cfg.mu, cfg.nu, cfg.rho, k, 1e-14))
                   .x_hat.data.ravel() - x_star)
            for k in range(1, 9)
        ]
        # once a run reaches the dense solve's own roundoff (about 2e-15 of
        # ||x*||_S here) its error can only wobble
        floor = 1e-13 * s_norm(x_star)
        assert errors[0] > 1e3 * floor
        assert all(b <= a + floor for a, b in zip(errors, errors[1:])), errors


@functools.lru_cache(maxsize=None)
def desk_star(seed, cfg):
    """Desk fusion ``seed`` and its minimizer x* at ``cfg``, by ``woodbury_minimizer``."""
    model, y, z, prior = desk_problem(seed)
    return (model, y, z, prior), woodbury_minimizer(y, z, model, prior, cfg)


class TestWoodburyMinimizer:
    """The estimator solved one aliasing group at a time: a fixed-point oracle
    for grids too large for ``dense_joint_minimizer``."""

    @CONFIGS
    @pytest.mark.parametrize("kind", list(TINY))
    def test_matches_the_dense_joint_minimizer(self, kind, cfg):
        (model, y, z, prior), (x_star, _, _) = tiny_star(kind, cfg)
        assert relative_gap(woodbury_minimizer(y, z, model, prior, cfg), x_star) <= 1e-10

    @CONFIGS
    @pytest.mark.parametrize("route", ["cube", "naive"])
    @pytest.mark.parametrize("seed", range(5))
    def test_fuse_run_to_its_fixed_point_reaches_it_on_desk_grids(self, seed, route, cfg):
        # a prior cube's loop reads p from its stored spectrum, the naive
        # prior's rebuilds it from its factors: both reach x*
        (model, y, z, prior), x_star = desk_star(seed, cfg)
        source = prior if route == "cube" else PriorSource.naive_fusion()
        got = fuse(y, z, model, source, HqsConfig(cfg.mu, cfg.nu, cfg.rho, max_iter=200, rel_tol=1e-16))
        assert got.converged
        assert relative_gap(got.x_hat.data, x_star) <= 1e-10

    @CONFIGS
    @pytest.mark.parametrize("kind", list(VARIANTS))
    def test_fuse_run_to_its_fixed_point_reaches_it_on_variants(self, kind, cfg):
        # odd grids, odd factors, sub-pixel phases and Gaussian blurs, where
        # the aliasing groups and the half spectrum's mirror differ from desk's
        model, y, z, prior = variant_problem(kind)
        x_star = woodbury_minimizer(y, z, model, prior, cfg)
        got = fuse(y, z, model, prior, HqsConfig(cfg.mu, cfg.nu, cfg.rho, max_iter=200, rel_tol=1e-16))
        assert got.converged
        assert relative_gap(got.x_hat.data, x_star) <= 1e-10

    @pytest.mark.parametrize("seed", range(5))
    def test_the_minimizer_leaves_the_z_residual_that_fuse_leaves(self, seed):
        # acceptance criterion 6's cause: z is a penalty term of the
        # objective, not a constraint, so its minimizer misfits z where the
        # naive prior, built to fit z, does not; the default run's residual
        # is the minimizer's, and so no stop rule can bring it to the prior's
        (model, y, z, prior), x_star = desk_star(seed, HqsConfig())

        def z_residual(x):
            return float(np.linalg.norm(model.srf.apply_array(x) - z.data) / np.linalg.norm(z.data))

        star, fused = z_residual(x_star), z_residual(fuse(y, z, model, prior).x_hat.data)
        assert fused == pytest.approx(star, rel=1e-2)
        assert min(star, fused) > z_residual(prior.data)

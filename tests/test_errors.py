import numpy as np
import pytest

from hsfuse.cube import HsiCube
from hsfuse.degradation import BlurOperator, DegradationModel, Downsampler, SpectralResponse
from hsfuse.errors import ValidationError
from hsfuse.gradients import LaplacianOperator, regularizer_value
from hsfuse.hqs import HqsConfig, fuse, objective_value
from hsfuse.io import band_index_for_wavelength, export_error_map
from hsfuse.metrics import evaluate
from hsfuse.priors import PriorSource, make_prior
from hsfuse.scenes import SceneSpec, generate_scene
from hsfuse.sylvester import build_system, sylvester_residual
from hsfuse.vstep import vstep


def _model(*down_args):
    blur = BlurOperator.uniform_block(8, 8, 4)
    return DegradationModel(blur, Downsampler(*down_args), SpectralResponse.default_rgb(4))


def _fuse(**cfg):
    model = _model(4)
    x = HsiCube(np.full((4, 8, 8), 0.5))
    y, z = model.degrade(x)
    return fuse(y, z, model, x, HqsConfig(**cfg))


# integral floats and infinities once slipped past `int(x) != x` and failed
# later with TypeError, OverflowError or IndexError
@pytest.mark.parametrize(
    "call",
    [
        lambda tmp: _fuse(max_iter=2.0),
        lambda tmp: HqsConfig(max_iter=np.inf),
        lambda tmp: _model(4.0).degrade(HsiCube(np.zeros((4, 8, 8)))),
        lambda tmp: _model(4, (1.0, 0)).degrade(HsiCube(np.zeros((4, 8, 8)))),
        lambda tmp: generate_scene(SceneSpec(bands=8.0, height=8, width=8)),
        lambda tmp: BlurOperator.uniform_block(8, 8, 4.0),
        lambda tmp: band_index_for_wavelength(550.0, 3.0),
        lambda tmp: export_error_map(
            HsiCube(np.zeros((2, 4, 4))), HsiCube(np.zeros((2, 4, 4))), band=1.0, path=tmp / "e.pgm"
        ),
    ],
    ids=[
        "fuse-max_iter",
        "HqsConfig-max_iter-inf",
        "Downsampler-factor",
        "Downsampler-phase",
        "SceneSpec-bands",
        "uniform_block",
        "band_index_for_wavelength",
        "export_error_map",
    ],
)
def test_non_integer_arguments_raise_validation_error(call, tmp_path):
    with pytest.raises(ValidationError):
        call(tmp_path)


# each entry point with the argument it checks against the others or the
# model; ``c`` holds a well-shaped cube under every argument name but one
@pytest.mark.parametrize(
    "name, call",
    [
        ("prior", lambda m, c, tmp: vstep(
            c["x"], c["prior"], LaplacianOperator.create(8, 8), 1.0, 1.0)),
        ("xt", lambda m, c, tmp: regularizer_value(c["x"], c["xt"], 1.0, 1.0)),
        ("x_hat", lambda m, c, tmp: export_error_map(c["x_hat"], c["x"], 0, tmp / "e.pgm")),
        ("x_hat", lambda m, c, tmp: evaluate(c["x_hat"], c["x"], 4)),
        ("x", lambda m, c, tmp: sylvester_residual(
            build_system(m, c["y"], c["z"], c["v"], 1.0), c["x"])),
        ("v", lambda m, c, tmp: objective_value(
            c["x"], c["v"], c["y"], c["z"], m, c["prior"], HqsConfig())),
        ("z", lambda m, c, tmp: fuse(c["y"], c["z"], m, c["prior"])),
        ("y", lambda m, c, tmp: make_prior(PriorSource.naive_fusion(), c["y"], c["z"], m)),
        ("x", lambda m, c, tmp: m.degrade(c["x"])),
    ],
    ids=[
        "vstep", "regularizer_value", "export_error_map", "evaluate", "sylvester_residual",
        "objective_value", "fuse", "make_prior", "degrade",
    ],
)
def test_mis_shaped_cube_is_named_by_its_argument(name, call, tmp_path):
    model = _model(4)
    x = HsiCube(np.full((4, 8, 8), 0.5))
    y, z = model.degrade(x)
    cubes = {"x": x, "v": x, "xt": x, "x_hat": x, "prior": x, "y": y, "z": z}
    bands, height, width = cubes[name].data.shape
    cubes[name] = HsiCube(np.zeros((bands, height, width + 1)))
    with pytest.raises(ValidationError, match=rf"^{name} has shape \("):
        call(model, cubes, tmp_path)


# values that are no real number once escaped ``check_real`` as an untyped
# TypeError from ``math.isfinite``
@pytest.mark.parametrize(
    "call",
    [
        lambda tmp: HqsConfig(mu="0.1"),
        lambda tmp: HqsConfig(mu=None),
        lambda tmp: HqsConfig(mu=1j),
        lambda tmp: SceneSpec(8, 8, 8, smoothness=[1.0]),
        lambda tmp: BlurOperator.gaussian(8, 8, np.array([1.0, 2.0])),
        lambda tmp: DegradationModel(
            BlurOperator.uniform_block(8, 8, 4), Downsampler(4), SpectralResponse.default_rgb(4),
            noise_sigma="0",
        ),
        lambda tmp: export_error_map(
            HsiCube(np.zeros((2, 4, 4))), HsiCube(np.zeros((2, 4, 4))), 0, tmp / "e.pgm",
            max_error=None,
        ),
    ],
    ids=[
        "HqsConfig-mu-str", "HqsConfig-mu-None", "HqsConfig-mu-complex", "SceneSpec-smoothness",
        "gaussian-sigma", "DegradationModel-noise_sigma", "export_error_map-max_error",
    ],
)
def test_non_real_arguments_raise_validation_error(call, tmp_path):
    with pytest.raises(ValidationError, match="must be a real number"):
        call(tmp_path)


def test_zero_dimensional_arrays_and_bools_stay_real():
    assert HqsConfig(mu=np.array(0.1)).mu == np.array(0.1)
    assert HqsConfig(mu=True).mu is True
    assert BlurOperator.gaussian(8, 8, np.array(1.0)).height == 8

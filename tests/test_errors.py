import numpy as np
import pytest

from hsfuse.cube import HsiCube
from hsfuse.degradation import BlurOperator, DegradationModel, Downsampler, SpectralResponse
from hsfuse.errors import ValidationError
from hsfuse.hqs import HqsConfig, fuse
from hsfuse.io import band_index_for_wavelength, export_error_map
from hsfuse.scenes import SceneSpec, generate_scene


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

"""Print one SHA-256 per library case of the stages, to show that a change keeps every byte.

    python3 tools/stage_hashes.py

A case is a scene (``odd`` 15x15, ``even`` 72x72, which is a full block of
pixels and a tail, and ``wide`` 24x40) and what is made of it: ``scene``,
the bytes of ``generate_scene``; ``file``, the file ``save_blocks`` writes
for it, as CLI ``simulate`` writes it; or ``degrade`` of the cube or of its
file under a model (``block`` and ``gauss`` blurs at phase (0, 0) and no
noise, and ``gauss`` at a nonzero phase with noise), whose line hashes y's
bytes, then z's: 24 cases. Run it on two trees, at the same
``HSFUSE_THREADS``, and compare the outputs; the cases take under a second
at one thread.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src")]

from hsfuse.degradation import (  # noqa: E402
    BlurOperator,
    DegradationModel,
    Downsampler,
    SpectralResponse,
)
from hsfuse.io import save_blocks  # noqa: E402
from hsfuse.scenes import SceneSpec, generate_scene, scene_blocks  # noqa: E402

# each scene with the decimation factor its models use
SCENES = {
    "odd": (SceneSpec(7, 15, 15, endmembers=3, seed=1), 3),
    "even": (SceneSpec(31, 72, 72, seed=2), 4),
    "wide": (SceneSpec(8, 24, 40, endmembers=4, smoothness=2.5, seed=3), 4),
}
MODELS = ("block", "gauss", "gauss-phase-noise")
CASES = [
    (scene, kind)
    for scene in SCENES
    for kind in ["scene", "file"] + [f"degrade-{src} {model}" for src in ("cube", "file") for model in MODELS]
]


def _model(name: str, spec: SceneSpec, factor: int) -> DegradationModel:
    h, w = spec.height, spec.width
    blur = BlurOperator.uniform_block(h, w, factor) if name == "block" else BlurOperator.gaussian(h, w, 1.5)
    noisy = name == "gauss-phase-noise"
    down = Downsampler(factor, (1, factor - 1) if noisy else (0, 0))
    srf = SpectralResponse.default_rgb(spec.bands)
    return DegradationModel(blur, down, srf, noise_sigma=0.01 if noisy else 0.0, noise_seed=5)


def line(case: tuple[str, str]) -> str:
    """``case``'s name, ``scene kind``, and the SHA-256 of the bytes it makes."""
    scene, kind = case
    spec, factor = SCENES[scene]
    shape = (spec.bands, spec.height, spec.width)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scene.cube"
        if kind == "scene":
            parts = [generate_scene(spec).data.tobytes()]
        elif kind == "file":
            save_blocks(path, shape, scene_blocks(spec), scale=(0.0, 1.0))
            parts = [path.read_bytes()]
        else:
            src, model = kind.removeprefix("degrade-").split()
            if src == "file":
                save_blocks(path, shape, scene_blocks(spec), scale=(0.0, 1.0))
            y, z = _model(model, spec, factor).degrade(path if src == "file" else generate_scene(spec))
            parts = [y.data.tobytes(), z.data.tobytes()]
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    return f"{scene} {kind} {digest.hexdigest()}"


if __name__ == "__main__":
    for case in CASES:
        print(line(case))

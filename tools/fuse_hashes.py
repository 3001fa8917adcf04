"""Print one SHA-256 per library ``fuse`` case, to show that a change keeps every byte.

    python3 tools/fuse_hashes.py

A case is a fusion of ``tests/helpers.py`` (desk seeds 0-4 and every
``VARIANTS`` geometry), a configuration (``default`` or ``strong``) and a
prior route (``cube``, the naive prior's cube from ``make_prior``, or
``naive``, its ``PriorSource``): 64 cases. Each line names its case and
hashes the run's ``x_hat`` bytes, objective trace, relative changes and
iteration count. Run it on two trees, at the same ``HSFUSE_THREADS``, and
compare the outputs; the 64 cases take about 3 s at one thread.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from helpers import VARIANTS, build_problem  # noqa: E402
from hsfuse.hqs import HqsConfig, fuse  # noqa: E402
from hsfuse.priors import PriorSource  # noqa: E402

CONFIGS = {"default": HqsConfig(), "strong": HqsConfig(mu=0.3, nu=0.02, rho=0.15)}
ROUTES = ("cube", "naive")
CASES = [
    (family, arg, config, route)
    for family, arg in [("desk", seed) for seed in range(5)] + [("variant", kind) for kind in VARIANTS]
    for config in CONFIGS
    for route in ROUTES
]


def line(case: tuple) -> str:
    """``case``'s name, ``family arg config route``, and the SHA-256 of its run."""
    family, arg, config, route = case
    model, y, z, prior = build_problem(family, arg)
    source = prior if route == "cube" else PriorSource.naive_fusion()
    result = fuse(y, z, model, source, CONFIGS[config])
    digest = hashlib.sha256(result.x_hat.data.tobytes())
    digest.update(np.array(result.objective_trace, dtype=np.float64).tobytes())
    digest.update(np.array(result.rel_changes, dtype=np.float64).tobytes())
    digest.update(str(result.iterations).encode())
    return f"{family} {arg} {config} {route} {digest.hexdigest()}"


if __name__ == "__main__":
    for case in CASES:
        print(line(case))

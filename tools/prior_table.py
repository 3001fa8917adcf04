"""Print how far fusion improves imperfect priors on the desk scenes.

    python3 tools/prior_table.py [--seeds 0 1 2 3 4]

A miniature of the paper's experiment, where a network's output is the
prior: each stand-in prior of ``tests/helpers.py`` (``STAND_INS``: blurred,
noisy, band-gain error) is fused with the desk scene's data (31x64x64,
factor 4) under the default configuration. One row per seed and stand-in
gives the prior's and the fused estimate's RMSE (on the 0-255 scale), PSNR
(dB), SAM (degrees) and ERGAS against the ground truth, from
``hsfuse.metrics.evaluate``. The five seeds take about 1.5 s.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from helpers import STAND_INS, desk_model, desk_truth, stand_in_prior  # noqa: E402
from hsfuse.hqs import fuse  # noqa: E402
from hsfuse.metrics import evaluate  # noqa: E402

METRICS = ("rmse", "psnr", "sam", "ergas")


def rows(seeds) -> list[dict]:
    """One dict per seed and stand-in: ``seed``, ``prior`` and each metric's prior and fused value."""
    model = desk_model()
    out = []
    for seed in seeds:
        gt = desk_truth(seed)
        y, z = model.degrade(gt)
        for kind in STAND_INS:
            prior = stand_in_prior(gt, kind, seed)
            before = evaluate(prior, gt, factor=4)
            after = evaluate(fuse(y, z, model, prior).x_hat, gt, factor=4)
            row = {"seed": seed, "prior": kind}
            for name in METRICS:
                row[f"{name}_prior"] = getattr(before, name)
                row[f"{name}_fused"] = getattr(after, name)
            out.append(row)
    return out


def table(entries: list[dict]) -> str:
    """``entries`` (from ``rows``) as a fixed-width text table with a header line."""
    columns = ["seed", "prior"] + [f"{name}_{side}" for name in METRICS for side in ("prior", "fused")]
    lines = ["  ".join(f"{c:>11}" for c in columns)]
    for row in entries:
        cells = [f"{row['seed']:>11d}", f"{row['prior']:>11}"]
        cells += [f"{row[c]:>11.4f}" for c in columns[2:]]
        lines.append("  ".join(cells))
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3, 4])
    print(table(rows(parser.parse_args(argv).seeds)))


if __name__ == "__main__":
    main()

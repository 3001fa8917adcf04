"""The paper's use case: fusion improves a good but imperfect prior.

The paper hands the fusion a network's output as its prior. Seeded
stand-ins made from each desk scene's ground truth take that place here
(``helpers.stand_in_prior``): a blurred, a noisy and a band-gain-error copy.
On desk seeds 0-4 with the default configuration, the fused estimate beats
each of them in PSNR, by at least ``PSNR_MARGIN_DB``, and in SAM. The
smallest PSNR gain is the noisy prior's, about 0.7 dB on every seed; the
blurred prior gains 10-14 dB and the gain error about 30 dB.
"""

import json

import pytest

from helpers import STAND_INS, desk_model, desk_truth, stand_in_prior
from hsfuse.cli import main
from hsfuse.hqs import fuse
from hsfuse.io import save_cube
from hsfuse.metrics import evaluate

SEEDS = range(5)
PSNR_MARGIN_DB = 0.5


@pytest.mark.parametrize("kind", STAND_INS)
def test_fusion_beats_each_stand_in_prior_in_psnr_and_sam(kind):
    model = desk_model()
    worse = []
    for seed in SEEDS:
        gt = desk_truth(seed)
        y, z = model.degrade(gt)
        prior = stand_in_prior(gt, kind, seed)
        before = evaluate(prior, gt, factor=4)
        after = evaluate(fuse(y, z, model, prior).x_hat, gt, factor=4)
        if not (after.psnr >= before.psnr + PSNR_MARGIN_DB and after.sam < before.sam):
            worse.append((seed, before.psnr, after.psnr, before.sam, after.sam))
    assert worse == []


def test_cli_fuse_with_a_stand_in_prior_file_then_evaluate(tmp_path):
    paths = {name: str(tmp_path / f"{name}.cube") for name in ("gt", "y", "z", "prior", "x_hat")}
    gt = desk_truth(0)
    save_cube(paths["gt"], gt)
    save_cube(paths["prior"], stand_in_prior(gt, "noisy", 0))
    assert main(["degrade", "--in", paths["gt"], "--factor", "4",
                 "--out-y", paths["y"], "--out-z", paths["z"]]) == 0
    assert main(["fuse", "--y", paths["y"], "--z", paths["z"], "--prior", "file:" + paths["prior"],
                 "--out", paths["x_hat"]]) == 0
    reports = {}
    for name in ("prior", "x_hat"):
        report = str(tmp_path / f"{name}.json")
        assert main(["evaluate", "--x-hat", paths[name], "--ref", paths["gt"], "--factor", "4",
                     "--json", report]) == 0
        reports[name] = json.loads(open(report).read())
    assert reports["x_hat"]["psnr"] >= reports["prior"]["psnr"] + PSNR_MARGIN_DB
    assert reports["x_hat"]["sam"] < reports["prior"]["sam"]

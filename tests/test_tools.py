import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _tool(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


loc = _tool("loc")
bench_json = _tool("bench_json")
unreached = _tool("unreached")
prior_table = _tool("prior_table")


def test_code_lines_skip_docstrings_comments_and_blank_lines():
    source = '''"""A module docstring
over two lines."""

# a comment line
class Shape:
    """A class docstring."""

    def area(self):
        """A function docstring."""
        side = 2  # a trailing comment
        return """a string that is not a docstring,
over two lines"""
'''
    # class, def, the assignment and both lines of the string
    assert loc.code_lines(source) == 5


def test_settable_values_count_defaulted_parameters_and_dataclass_fields():
    source = '''import dataclasses
from dataclasses import dataclass, field


def solve(a, b=1, *, c, d=None, **extra):
    def inner(e=2):
        return e
    return inner


class Plain:
    size: int = 3  # not a dataclass: no field

    def scale(self, by=2.0):
        return by


@dataclass(frozen=True)
class Config:
    rate: float = 0.1
    steps: int = field(default=4)
    names: tuple = field(default_factory=tuple)
    table: object = field(repr=False)  # set by every caller
    count: int


@dataclasses.dataclass
class Other:
    flag: bool = False
'''
    # b, d, e and by; rate, steps, names and flag
    assert loc.settable_values(source) == 8


def test_loc_prints_the_three_counts_summed_over_every_module(tmp_path, monkeypatch, capsys):
    # the first count is ``cat *.py | wc -l``: newlines, so a last line without
    # one does not count, and blank, comment and docstring lines do
    (tmp_path / "a.py").write_text('"""Doc."""\n\n# note\ndef f(x=1):\n    return x\n')
    (tmp_path / "b.py").write_text("def g(a, *, b=2, c=3):\n    return a")
    (tmp_path / "notes.txt").write_text("not a module\n")
    monkeypatch.setattr(loc, "PACKAGE", tmp_path)
    loc.main()
    assert capsys.readouterr().out == "src/hsfuse: 6 lines, 4 of them code, 3 settable values\n"


SYNTHETIC = '''"""A module docstring."""
import threading


def used(a):
    """A docstring is no line to reach."""
    # nor is a comment
    return a + 1


def unused(a):
    if a:
        return 1
    return 2


def main():
    worker = threading.Thread(target=used, args=(1,))
    worker.start()
    worker.join()
'''


def test_unreached_lists_the_executable_lines_no_process_hit():
    lines = unreached.executable_lines(SYNTHETIC, "mod.py")
    assert {6, 7, 9, 10}.isdisjoint(lines)
    assert {2, 5, 8, 11, 12, 13, 14, 17, 18, 19, 20} <= lines
    hits = {"mod.py": lines - {12, 13, 14}, "other.py": {1}}
    assert unreached.unreached({"mod.py": SYNTHETIC}, hits) == [
        ("mod.py", 12), ("mod.py", 13), ("mod.py", 14)
    ]
    # a module no process imported is unreached throughout
    assert len(unreached.unreached({"mod.py": SYNTHETIC}, {})) == len(lines)


def test_the_tracer_records_the_lines_of_every_thread_of_a_child(tmp_path):
    site, out, pkg = tmp_path / "site", tmp_path / "hits", tmp_path / "pkg"
    for directory in (site, out, pkg):
        directory.mkdir()
    (site / "sitecustomize.py").write_text(unreached.SITECUSTOMIZE)
    (pkg / "mod.py").write_text(SYNTHETIC)
    env = dict(os.environ, PYTHONPATH=f"{site}{os.pathsep}{pkg}",
               UNREACHED_ROOT=str(pkg), UNREACHED_OUT=str(out))
    subprocess.run([sys.executable, "-c", "import mod; mod.main()"], env=env, check=True)
    hits = unreached.read_hits(out)
    name = str((pkg / "mod.py").resolve())
    assert list(hits) == [name]
    # line 8 runs only on the thread that main starts
    assert unreached.unreached({name: SYNTHETIC}, hits) == [(name, 12), (name, 13), (name, 14)]


@pytest.mark.skipif(not (TOOLS.parent / ".git").exists(), reason="needs a git checkout")
def test_benchmark_copy_holds_the_checkout_files_and_no_git(tmp_path):
    root = bench_json.copy_checkout(tmp_path)
    listed = bench_json.git("ls-files", "-co", "--exclude-standard", "-z").split("\0")
    want = {name for name in listed if name and (TOOLS.parent / name).is_file()}
    got = {str(p.relative_to(root)) for p in root.rglob("*") if p.is_file()}
    assert got == want
    assert "bench/run.py" in got and not (root / ".git").exists()
    cube = "src/hsfuse/cube.py"
    assert (root / cube).read_bytes() == (TOOLS.parent / cube).read_bytes()


def test_prior_table_prints_each_stand_in_before_and_after_fusion(capsys):
    from helpers import STAND_INS, desk_truth, stand_in_prior
    from hsfuse.metrics import evaluate

    rows = prior_table.rows([3])
    assert [(row["seed"], row["prior"]) for row in rows] == [(3, kind) for kind in STAND_INS]
    gt = desk_truth(3)
    for row in rows:
        before = evaluate(stand_in_prior(gt, row["prior"], 3), gt, factor=4)
        assert [row[f"{name}_prior"] for name in prior_table.METRICS] == [
            getattr(before, name) for name in prior_table.METRICS
        ]
        assert row["psnr_fused"] > row["psnr_prior"] and row["sam_fused"] < row["sam_prior"]
    prior_table.main(["--seeds", "3"])
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 + len(STAND_INS)
    assert lines[0].split() == ["seed", "prior"] + [
        f"{name}_{side}" for name in prior_table.METRICS for side in ("prior", "fused")
    ]
    assert lines[2].split()[:2] == ["3", "noisy"]
    assert float(lines[2].split()[5]) == pytest.approx(rows[1]["psnr_fused"], abs=1e-4)

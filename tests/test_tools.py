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
fuse_hashes = _tool("fuse_hashes")
stage_hashes = _tool("stage_hashes")


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


def test_tree_hash_names_the_files_and_their_bytes(tmp_path):
    def tree(name, files):
        root = tmp_path / name
        for path, data in files.items():
            (root / path).parent.mkdir(parents=True, exist_ok=True)
            (root / path).write_bytes(data)
        return bench_json.tree_sha256(root)

    files = {"src/a.py": b"x = 1\n", "bench/run.py": b"", "README.md": b"notes\n"}
    same = tree("same", dict(reversed(list(files.items()))))
    assert tree("base", files) == same and len(same) == 64
    changed = [
        {**files, "src/a.py": b"x = 2\n"},  # one byte
        {**files, "src/b.py": b""},  # one more, empty, file
        {"src/b.py" if k == "src/a.py" else k: v for k, v in files.items()},  # a rename
        # the same bytes cut at another place between path and content
        {**{k: v for k, v in files.items() if k != "README.md"}, "README.m": b"dnotes\n"},
    ]
    assert len({tree(f"changed{i}", f) for i, f in enumerate(changed)} | {same}) == 5


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


def test_fuse_hashes_prints_the_same_line_for_a_case_at_any_pool_size(monkeypatch):
    # every desk seed and variant, at both configs and on both prior routes
    assert len(fuse_hashes.CASES) == (5 + 11) * 2 * 2
    case = ("variant", "phase_2_1", "strong", "naive")
    lines = []
    for threads in ("1", "2"):
        monkeypatch.setenv("HSFUSE_THREADS", threads)
        lines.append(fuse_hashes.line(case))
    name, digest = lines[0].rsplit(" ", 1)
    assert name == "variant phase_2_1 strong naive" and len(digest) == 64
    assert lines[1] == lines[0]


def test_stage_hashes_prints_the_same_line_for_a_case_at_any_pool_size(monkeypatch):
    # every scene, its file, and its degradation from the cube and the file
    # under each model
    assert len(stage_hashes.CASES) == 3 * (2 + 2 * 3)
    case = ("even", "degrade-file gauss-phase-noise")
    lines = []
    for threads in ("1", "3"):
        monkeypatch.setenv("HSFUSE_THREADS", threads)
        lines.append(stage_hashes.line(case))
    name, digest = lines[0].rsplit(" ", 1)
    assert name == "even degrade-file gauss-phase-noise" and len(digest) == 64
    assert lines[1] == lines[0]

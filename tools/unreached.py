"""Print the executable lines of ``src/hsfuse`` that no process of a Tier-1 run reaches.

    python3 tools/unreached.py [extra pytest arguments]

It runs ROADMAP's Tier-1 command (``python -m pytest -q
--continue-on-collection-errors`` with ``src`` on ``PYTHONPATH``) in a child
process. A ``sitecustomize.py`` in a temporary directory, put first on
``PYTHONPATH``, installs ``sys.settrace`` and ``threading.settrace`` for the
files under ``src/hsfuse`` in every Python process that starts with that
path, so the CLI children that tests start are traced too, and each process
writes the lines it reached to a file when it exits. The tool then prints,
as ``path:line: source``, every line that the compiled modules' code objects
list in ``co_lines`` and that no process reached.

Tests that fail under tracing (tracemalloc and timing bounds may) are
reported on stderr but do not count. The exit status is 1 when a line is
unreached or no process reported, 0 otherwise. Only the standard library is
used.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hsfuse"
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors")

# run at the start of every traced process; UNREACHED_ROOT and UNREACHED_OUT
# name the traced directory and the directory that gets one hit file per process
SITECUSTOMIZE = '''\
import atexit
import os
import sys
import threading

_ROOT = os.path.realpath(os.environ["UNREACHED_ROOT"]) + os.sep
_OUT = os.environ["UNREACHED_OUT"]
_ours = {}
_hits = {}


def _local(frame, event, arg):
    _hits[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _call(frame, event, arg):
    name = frame.f_code.co_filename
    ours = _ours.get(name)
    if ours is None:
        ours = _ours[name] = os.path.realpath(name).startswith(_ROOT)
    if not ours:
        return None
    _hits.setdefault(name, set()).add(frame.f_lineno)
    return _local


def _dump():
    import json
    import tempfile

    hits = {}
    for name, lines in _hits.items():
        hits.setdefault(os.path.realpath(name), set()).update(lines)
    fd, path = tempfile.mkstemp(suffix=".json", prefix=f"{os.getpid()}-", dir=_OUT)
    with os.fdopen(fd, "w") as fh:
        json.dump({name: sorted(lines) for name, lines in hits.items()}, fh)


atexit.register(_dump)
sys.settrace(_call)
threading.settrace(_call)
'''


def executable_lines(source: str, filename: str) -> set[int]:
    """The line numbers that the code objects compiled from ``source`` can run, per ``co_lines``."""
    lines: set[int] = set()
    stack = [compile(source, filename, "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines


def read_hits(directory: Path) -> dict[str, set[int]]:
    """The union of the per-process hit files in ``directory``: real path → lines reached."""
    hits: dict[str, set[int]] = {}
    for path in sorted(directory.glob("*.json")):
        for name, lines in json.loads(path.read_text()).items():
            hits.setdefault(name, set()).update(lines)
    return hits


def unreached(sources: dict[str, str], hits: dict[str, set[int]]) -> list[tuple[str, int]]:
    """The (path, line) pairs of ``sources`` (real path → text) that ``hits`` does not hold, in order."""
    return [
        (name, line)
        for name in sorted(sources)
        for line in sorted(executable_lines(sources[name], name) - hits.get(name, set()))
    ]


def trace_tier1(site: Path, out: Path, extra: list[str]) -> subprocess.CompletedProcess:
    """Run the Tier-1 command from the repository root with the tracer of ``site`` installed."""
    (site / "sitecustomize.py").write_text(SITECUSTOMIZE)
    path = [str(site), str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p),
               UNREACHED_ROOT=str(PACKAGE), UNREACHED_OUT=str(out))
    return subprocess.run([sys.executable, *TIER1, *extra], cwd=ROOT, env=env,
                          capture_output=True, text=True)


def main(argv: list[str] | None = None) -> int:
    extra = sys.argv[1:] if argv is None else argv
    with tempfile.TemporaryDirectory() as tmp:
        site, out = Path(tmp) / "site", Path(tmp) / "hits"
        site.mkdir()
        out.mkdir()
        run = trace_tier1(site, out, extra)
        hits = read_hits(out)
        processes = len(list(out.glob("*.json")))
    report = run.stdout.strip().splitlines()
    failed = [line for line in report if line.startswith(("FAILED ", "ERROR "))]
    summary = report[-1] if report else run.stderr.strip()
    print(f"tier-1 under tracing: exit {run.returncode}, {summary}; {processes} processes traced",
          file=sys.stderr)
    for line in failed:
        print(f"  not counted: {line}", file=sys.stderr)
    sources = {str(path.resolve()): path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    missed = unreached(sources, hits)
    for name, line in missed:
        text = sources[name].splitlines()[line - 1].strip()
        print(f"{Path(name).relative_to(ROOT)}:{line}: {text}")
    print(f"{len(missed)} unreached line(s)", file=sys.stderr)
    return 1 if missed or not processes else 0


if __name__ == "__main__":
    sys.exit(main())

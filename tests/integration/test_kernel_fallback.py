"""Fallbacks of the walk kernel: with ``CC=false`` (or an unusable
``CC``) the kernel cannot be built, the run says why, and the output is
byte-identical to a run on the compiled kernel; without numpy the
kernel still runs, handing out ``array('d')`` columns."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
ANALYZE = ["analyze", "179.ART", "--scale", "0.1"]
DESCRIBE = "from repro.memsim import kernel; print(kernel.describe())"
# Runs `python -m repro ARGS...` with numpy made unimportable.
WITHOUT_NUMPY = (
    "import runpy, sys; sys.modules['numpy'] = None; "
    "sys.argv[0] = 'repro'; runpy.run_module('repro', run_name='__main__')"
)


def repro(args, **env):
    environ = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **env)
    return subprocess.run(
        [sys.executable, *args], env=environ, cwd=ROOT,
        capture_output=True, text=True, check=True,
    ).stdout


def test_compilerless_run_falls_back_with_identical_output(tmp_path):
    no_cc = {"CC": "false", "XDG_CACHE_HOME": str(tmp_path / "no-cc")}
    status = repro(["-c", DESCRIBE], **no_cc)
    assert status.startswith(
        "walk kernel: unavailable (false exited with status 1)"
    )
    assert status.rstrip().endswith("— Python batch walk")
    fallback = repro(["-m", "repro", *ANALYZE], **no_cc)
    compiled = repro(["-m", "repro", *ANALYZE],
                     XDG_CACHE_HOME=str(tmp_path / "cc"))
    assert fallback == compiled
    assert not list((tmp_path / "no-cc").rglob("*.so"))


def test_unparsable_compiler_is_reported_not_raised(tmp_path):
    status = repro(["-c", DESCRIBE], CC='"',
                   XDG_CACHE_HOME=str(tmp_path / "cache"))
    assert status.startswith(
        "walk kernel: unavailable (cannot prepare the build: No closing"
    )


def test_kernel_runs_without_numpy(tmp_path):
    cache = {"XDG_CACHE_HOME": str(tmp_path / "cache")}
    column = repro(["-c", (
        "import sys; sys.modules['numpy'] = None\n"
        "from repro.memsim.hierarchy import MemoryHierarchy\n"
        "from repro.memsim import kernel\n"
        "print(kernel.describe().split(' (')[0])\n"
        "h = MemoryHierarchy()\n"
        "print(type(h.access_batch([0, 64, 0], [4, 4, 4])).__name__)\n"
    )], **cache)
    assert column.split("\n")[:2] == ["walk kernel: compiled", "array"]
    without = repro(["-c", WITHOUT_NUMPY, *ANALYZE], **cache)
    assert without == repro(["-m", "repro", *ANALYZE], **cache)

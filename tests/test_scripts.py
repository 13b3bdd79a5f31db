"""Each experiment script runs to completion at a small size."""

import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _run(argv, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


@pytest.mark.parametrize(
    "argv",
    [
        ["random_brauer_sweep.py", "--count", "5", "--seed", "3"],
        ["involution_sweep.py", "--max-rank", "2", "--levels", "2"],
        ["twisting_demo.py"],
    ],
    ids=lambda argv: argv[0],
)
def test_script_exits_zero(argv):
    proc = _run(argv)
    assert proc.stdout
    if argv == ["twisting_demo.py"]:
        # the demo prints no timings: its whole output is pinned
        assert proc.stdout == (ROOT / "tests" / "golden" / "twisting_demo.stdout.golden").read_text()


def _pinned(argv, cwd=ROOT):
    """The script's output with its timing masked, and its golden.  The
    sweeps print their timing on one line ("done in 0.2s", "5 data in
    0.0s"); the demo prints none."""
    out = re.sub(r"\b(done|data) in [0-9.]+s", r"\1 in …s", _run(argv, cwd).stdout)
    golden = ROOT / "tests" / "golden" / (argv[0].removesuffix(".py") + ".stdout.golden")
    return out, golden.read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "argv",
    [
        ["involution_sweep.py", "--max-rank", "3"],
        ["random_brauer_sweep.py", "--count", "5", "--seed", "3"],
    ],
    ids=lambda argv: argv[0],
)
def test_sweep_output_is_pinned(argv):
    """With the timing masked, the whole output is pinned."""
    out, golden = _pinned(argv)
    assert out == golden


@pytest.mark.parametrize(
    "argv",
    [
        ["involution_sweep.py", "--max-rank", "3"],
        ["random_brauer_sweep.py", "--count", "5", "--seed", "3"],
        ["twisting_demo.py"],
    ],
    ids=lambda argv: argv[0],
)
def test_script_runs_from_any_directory(argv, tmp_path):
    """Each script finds the package from its own location: started in an
    unrelated directory, it prints its golden."""
    out, golden = _pinned(argv, cwd=tmp_path)
    assert out == golden

"""Each experiment script runs to completion at a small size."""

import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


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
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    if argv == ["twisting_demo.py"]:
        # the demo prints no timings: its whole output is pinned
        assert proc.stdout == (ROOT / "tests" / "golden" / "twisting_demo.stdout.golden").read_text()

"""The pipeline benchmark's self-check passes against this tree: the
benchmark drives the pipeline through the package's public names, so a
renamed or reshaped one fails here rather than only in a benchmark run."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.slow
def test_selfcheck_passes():
    # writes only under the ignored .pipebench/
    proc = subprocess.run(
        [sys.executable, "pipebench/selfcheck.py"], cwd=ROOT, capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip().endswith("selfcheck: ok")

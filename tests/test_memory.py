"""Peak resident memory of the case-study commands.

Each command runs in a fresh interpreter that prints its own peak RSS. A
child that only imports `outageplan.cli` is the baseline, so the bounds
hold the memory a command adds, not the interpreter's and numpy's. They sit
well above the measured peaks and well below what they were before the
dispatch was blocked and the Q-table load was mapped.

The child reads its peak as `VmHWM` from /proc/self/status, the high-water
mark of its own address space. `getrusage(RUSAGE_SELF).ru_maxrss` would not
do: Linux carries the parent's peak into a child across fork and exec, so
every child of a large pytest process would report at least that.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import outageplan

pytestmark = pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")

SRC = Path(outageplan.__file__).resolve().parent.parent

CHILD = """
import contextlib, io, sys
from outageplan.cli import main
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(sys.argv[1:]) == 0
with open("/proc/self/status") as fh:
    print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
"""


def peak_mb(*argv: str) -> float:
    """Peak RSS in MB of a fresh interpreter running the CLI with `argv`."""
    done = subprocess.run(
        [sys.executable, "-c", CHILD, *argv], env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return int(done.stdout.split()[-1]) / 1024.0


@pytest.fixture(scope="module")
def baseline():
    return peak_mb()


@pytest.fixture(scope="module")
def metamodel(tmp_path_factory):
    """Output directory and peak RSS of a case-study metamodel at the
    config's 256 replications."""
    out = tmp_path_factory.mktemp("memory")
    return out, peak_mb("metamodel", "--config", "casestudy-single", "--seed", "101", "--out", str(out))


def test_metamodel_at_256_replications(baseline, metamodel):
    # 935 outage spans x 1120 portfolios; dispatched in one block this was
    # 110 MB above the baseline
    assert metamodel[1] - baseline < 55.0


def test_train_holds_one_qtable(baseline, metamodel):
    # q and visits are 25.8 MB; loading the saved table back into fresh
    # arrays while they were alive made this 56.5 MB above the baseline
    added = peak_mb("train", "--config", "casestudy-single", "--seed", "1", "--episodes", "20000",
                    "--out", str(metamodel[0])) - baseline
    assert added < 45.0

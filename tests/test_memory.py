"""Peak resident memory of the case-study commands.

Each test runs its command, or its sequence of commands, in a fresh
interpreter that prints its own peak RSS. A child that only imports
`outageplan.cli` is the baseline, so the bounds hold the memory the
commands add, not the interpreter's and numpy's. They sit
well above the measured peaks and below what they were before training
stored only the rows it updates and the greedy scan gave back the pages
of the mapped table.

The child reads its peak as `VmHWM` from /proc/self/status, the high-water
mark of its own address space. `getrusage(RUSAGE_SELF).ru_maxrss` would not
do: Linux carries the parent's peak into a child across fork and exec, so
every child of a large pytest process would report at least that.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import outageplan

pytestmark = pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")

SRC = Path(outageplan.__file__).resolve().parent.parent
TRAJECTORY = str(Path(outageplan.__file__).resolve().parent / "data" / "trajectories" / "casestudy.csv")

# runs each CLI argv of the JSON list in its first argument, in turn
CHILD = """
import contextlib, io, json, sys
from outageplan.cli import main
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
with open("/proc/self/status") as fh:
    print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
"""


def peak_mb(*commands: list[str]) -> float:
    """Peak RSS in MB of a fresh interpreter running the CLI once per argv
    in `commands`, one after another."""
    done = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(commands)], env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return int(done.stdout.split()[-1]) / 1024.0


def train_argv(config: str, out: Path) -> list[str]:
    return ["train", "--config", config, "--seed", "1", "--episodes", "20000", "--out", str(out)]


def evaluate_argv(config: str, out: Path) -> list[str]:
    return ["evaluate", "--config", config, "--qtable", str(out / "qtable.bin"), "--trajectory", TRAJECTORY,
            "--label", config, "--out", str(out)]


@pytest.fixture(scope="module")
def baseline():
    return peak_mb()


@pytest.fixture(scope="module")
def metamodel(tmp_path_factory):
    """Output directory and peak RSS of a case-study metamodel at the
    config's 256 replications."""
    out = tmp_path_factory.mktemp("memory")
    return out, peak_mb(["metamodel", "--config", "casestudy-single", "--seed", "101", "--out", str(out)])


@pytest.fixture(scope="module")
def trained(metamodel):
    """The metamodel's output directory, now also holding a 20,000-episode
    Q-table, and the peak RSS of the train command."""
    return metamodel[0], peak_mb(train_argv("casestudy-single", metamodel[0]))


def test_metamodel_at_256_replications(baseline, metamodel):
    # 935 outage spans x 1120 portfolios: 22.2-22.3 MB above the baseline
    # with the compiled dispatch, 22.8-23.9 MB with numpy in 2^16-pair
    # blocks, 110 MB with numpy in one block
    assert metamodel[1] - baseline < 55.0


def test_train_holds_one_qtable(baseline, trained):
    # training stores only the rows it updates, 18,630 of 124,060 here, and
    # the file is written from that store a block at a time through one
    # block buffer: 9.8 MB above the baseline, 11.8 MB while the values
    # block buffer stayed alive under the visits one. Faulting in the whole
    # 19.4 MB dense tables made this 25.9 MB, and loading the saved table
    # back into fresh arrays while they were alive 56.5 MB
    assert trained[1] - baseline < 22.0


def test_evaluate_holds_one_qtable(baseline, trained):
    # the greedy scan gives back the mapped file's pages block by block, the
    # compared state codes' pages go back too, and the exact policy value
    # holds about two price-grid tables: 6.5-6.6 MB above the baseline,
    # 8.1-8.2 MB with the codes resident and three grid tables, 10.0-10.2 MB
    # while the policy value gathered numpy blocks. Holding the scanned
    # pages read 22.4 MB, and the argmax over the whole unaligned mapped
    # table, which made numpy copy it first, 29.0 MB
    assert peak_mb(evaluate_argv("casestudy-single", trained[0])) - baseline < 15.0


def test_commands_return_their_tables(baseline, trained, tmp_path):
    # each train's store is unmapped when the command returns: 10.5 MB above
    # the baseline, 27.1 MB with dense tables. Taken from the malloc heap,
    # the second train's tables stayed resident under the evaluates: 32.6 MB
    # above the baseline with int64 visits, 40.1 MB with int32 visits
    superposed = tmp_path / "superposed"
    peak_mb(["metamodel", "--config", "casestudy-superposed", "--seed", "101", "--out", str(superposed)])
    single = trained[0]
    added = peak_mb(
        train_argv("casestudy-single", single), train_argv("casestudy-superposed", superposed),
        evaluate_argv("casestudy-single", single), evaluate_argv("casestudy-superposed", superposed),
    ) - baseline
    assert added < 22.0


# runs one CLI argv and records the resident kB of the mapped Q-table, the
# table's share of RssFile as /proc/self/smaps counts it, when the exact
# policy value starts; the map closes when the command returns, so the
# child prints that record after the command
MAPPED_CHILD = """
import contextlib, io, json, sys
from outageplan import cli

def mapped_kb(suffix):
    total, inside = 0, False
    with open("/proc/self/smaps") as fh:
        for line in fh:
            fields = line.split()
            if "-" in fields[0] and len(fields) >= 5:
                inside = len(fields) >= 6 and fields[-1].endswith(suffix)
            elif inside and fields[0] == "Rss:":
                total += int(fields[1])
    return total

seen, policy_value = [], cli.policy_value
def watched(*args, **kwargs):
    seen.append(mapped_kb("/qtable.bin"))
    return policy_value(*args, **kwargs)
cli.policy_value = watched
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(json.loads(sys.argv[1])) == 0
print(json.dumps(seen))
"""


def test_evaluate_gives_back_the_compared_state_codes(trained):
    # once the rows are checked against the codec, the 0.99 MB of mapped
    # state codes are given back: 72 kB of the table resident when the
    # policy value starts, 1036 kB while the compared codes stayed
    done = subprocess.run(
        [sys.executable, "-c", MAPPED_CHILD, json.dumps(evaluate_argv("casestudy-single", trained[0]))],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    (resident_kb,) = json.loads(done.stdout.splitlines()[-1])
    assert resident_kb < 256

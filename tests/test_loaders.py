"""Fuzzing of every loader that reads a user-supplied file.

Each loader gets well-formed files with random damage: characters inserted,
deleted, replaced or cut off, and, for the JSON and YAML documents, one field
replaced by a value of another kind or removed. A loader either returns or
raises an OutagePlanError; anything else is a bug. When it raises, the CLI
command that reads the same file must print one `outageplan-error:` line and
exit 1.

The CLI's numeric flags get the same treatment: a run either exits 0 and
writes only finite numbers, or exits 1 with one `outageplan-error:` line.
"""

import contextlib
import io
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import outageplan
from outageplan import persist
from outageplan.cli import main
from outageplan.config import bundled_config_path, load_config
from outageplan.errors import OutagePlanError
from outageplan.evaluate import PolicyTrace, PriceTrajectory
from outageplan.outage import CaidiSeries
from outageplan.simulate import CostTable
from outageplan.solver import _QTABLE_ARRAYS, QTable

from conftest import cost_table

FUZZ = settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])

CAIDI = Path(outageplan.__file__).parent / "data" / "caidi" / "psegli_caidi.csv"

FLAG_FLOATS = st.sampled_from([math.nan, math.inf, -math.inf, -1.0, 0.0, 0.5, 1.0, 40.0])
FLAG_COUNTS = st.sampled_from([-1, 0, 1, 2])
# a nan or an infinity as Python, YAML or CSV spell it
NON_FINITE = re.compile(r"(?<![a-z])\.?(nan|inf)(?![a-z])", re.IGNORECASE)

DAMAGE = ",\n\r\t -+.0123456789eEnaNifI{}[]\":#_x"

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(DAMAGE, max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text("abxy", max_size=3), inner, max_size=3),
    max_leaves=4,
)


@st.composite
def damaged(draw, text):
    """`text` with one to four random edits."""
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(["insert", "delete", "replace", "cut"]))
        if edit == "cut":
            text = text[:i]
        elif edit == "insert":
            text = text[:i] + draw(st.text(DAMAGE, min_size=1, max_size=3)) + text[i:]
        elif edit == "delete":
            text = text[:i] + text[i + draw(st.integers(1, 3)):]
        else:
            text = text[:i] + draw(st.sampled_from(DAMAGE)) + text[i + 1:]
    return text


def _paths(doc, prefix=()):
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


@st.composite
def damaged_doc(draw, doc):
    """A deep copy of the JSON-like `doc` with one value replaced by a random
    one, or one mapping key removed."""
    doc = json.loads(json.dumps(doc))
    path = draw(st.sampled_from(list(_paths(doc))[1:]))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(JSON_VALUES)
    return doc


def run_cli(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv)
    return rc, err.getvalue()


def check(loader, path, argv):
    """`loader(path)` returns or raises an OutagePlanError; when it raises,
    the CLI run `argv` reports one error line and exits 1."""
    try:
        loader(path)
    except OutagePlanError:
        rc, err = run_cli(argv)
        assert rc == 1
        assert err.startswith("outageplan-error: ") and err.count("\n") == 1, err


def write(path, text):
    with open(path, "w", newline="") as fh:
        fh.write(text)
    return path


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """A working directory holding one good artifact of each kind."""
    root = tmp_path_factory.mktemp("fuzz")
    cfg = load_config("tiny")
    env = cfg.env()
    table = cost_table(env, lambda kwh: 100.0 * kwh.sum(axis=1), meta={"config_hash": cfg.config_hash})
    table.save(root / "metamodel.csv")
    assert run_cli(["train", "--config", "tiny", "--episodes", "50", "--out", str(root)])[0] == 0
    trajectory = root / "trajectory.csv"
    trajectory.write_text("unit,p1,p2,p3\nalpha,400,290,290\nbeta,150,95,95\n")
    argv = ["evaluate", "--config", "tiny", "--qtable", str(root / "qtable.bin"),
            "--trajectory", str(trajectory), "--out", str(root)]
    assert run_cli(argv)[0] == 0
    return root


class TestLoaderFuzz:
    @FUZZ
    @given(data=st.data())
    def test_cost_table(self, work, data):
        text = data.draw(damaged((work / "metamodel.csv").read_text()))
        path = write(work / "fuzz-metamodel.csv", text)
        cfg_hash = load_config("tiny").config_hash
        check(
            lambda p: CostTable.load(p, expect_config_hash=cfg_hash),
            path,
            ["train", "--config", "tiny", "--episodes", "1", "--metamodel", str(path), "--out", str(work / "cli")],
        )

    @FUZZ
    @given(data=st.data())
    def test_container(self, work, data):
        good = (work / "qtable.bin").read_bytes()
        header, _, payload = good.partition(b"\n")
        text = data.draw(damaged(header.decode()))
        path = work / "fuzz-qtable.bin"
        path.write_bytes(text.encode() + b"\n" + payload[: data.draw(st.sampled_from([len(payload), 7, 0]))])
        argv = ["evaluate", "--config", "tiny", "--qtable", str(path),
                "--trajectory", str(work / "trajectory.csv"), "--out", str(work / "cli")]
        check(lambda p: persist.load_container(p, _QTABLE_ARRAYS), path, argv)

    @FUZZ
    @given(data=st.data())
    def test_qtable(self, work, data):
        header, _, payload = (work / "qtable.bin").read_bytes().partition(b"\n")
        if data.draw(st.booleans()):
            text = data.draw(damaged(header.decode()))
        else:
            text = json.dumps(data.draw(damaged_doc(json.loads(header))))
        path = work / "fuzz-qtable.bin"
        path.write_bytes(text.encode() + b"\n" + payload)
        cfg_hash = load_config("tiny").config_hash
        argv = ["evaluate", "--config", "tiny", "--qtable", str(path),
                "--trajectory", str(work / "trajectory.csv"), "--out", str(work / "cli")]
        check(lambda p: QTable.load(p, expect_config_hash=cfg_hash), path, argv)

    @FUZZ
    @given(data=st.data())
    def test_config(self, work, data):
        good = bundled_config_path("tiny").read_text()
        if data.draw(st.booleans()):
            text = data.draw(damaged(good))
        else:
            text = yaml.safe_dump(data.draw(damaged_doc(yaml.safe_load(good))))
        path = write(work / "fuzz-config.yaml", text)
        check(load_config, path, ["metamodel", "--config", str(path), "--out", str(work / "cli")])

    @FUZZ
    @given(data=st.data())
    def test_policy_trace(self, work, data):
        good = (work / "trace.json").read_text()
        if data.draw(st.booleans()):
            text = data.draw(damaged(good))
        else:
            text = json.dumps(data.draw(damaged_doc(json.loads(good))))
        path = write(work / "fuzz-trace.json", text)
        argv = ["compare", "--trace-a", str(work / "trace.json"), "--trace-b", str(path), "--out", str(work / "cli")]
        check(PolicyTrace.load, path, argv)

    @FUZZ
    @given(data=st.data())
    def test_price_trajectory(self, work, data):
        text = data.draw(damaged((work / "trajectory.csv").read_text()))
        path = write(work / "fuzz-trajectory.csv", text)
        argv = ["evaluate", "--config", "tiny", "--qtable", str(work / "qtable.bin"),
                "--trajectory", str(path), "--out", str(work / "cli")]
        check(PriceTrajectory.from_csv, path, argv)

    @FUZZ
    @given(data=st.data())
    def test_caidi_series(self, work, data):
        text = data.draw(damaged("year,caidi_hours\n2012,22.55\n2013,1.65\n2014,2.1\n"))
        path = write(work / "fuzz-caidi.csv", text)
        check(CaidiSeries.from_csv, path, ["fit", "--caidi", str(path)])


class TestFlagFuzz:
    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_numeric_flags(self, work, data):
        command = data.draw(st.sampled_from(["fit", "plotdata", "metamodel", "train"]))
        if command == "fit":
            flags = data.draw(st.sets(st.sampled_from(["--threshold-hours", "--base-frequency", "--shift-hours"]), min_size=1))
            argv = ["fit", "--caidi", str(CAIDI)] + [f"{flag}={data.draw(FLAG_FLOATS)}" for flag in sorted(flags)]
        elif command == "plotdata":
            argv = ["plotdata", "--config", "tiny-superposed", f"--max-hours={data.draw(FLAG_FLOATS)}"]
        elif command == "metamodel":
            count = data.draw(FLAG_COUNTS)
            argv = ["metamodel", "--config", "tiny", f"--replications={count}"]
        else:
            count = data.draw(FLAG_COUNTS)
            argv = ["train", "--config", "tiny", "--metamodel", str(work / "metamodel.csv"), f"--episodes={count}"]
        out_dir = Path(tempfile.mkdtemp(dir=work))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
            rc = main(argv + ["--out", str(out_dir)])
        written = sorted(out_dir.iterdir())
        if rc == 1:
            assert err.getvalue().startswith("outageplan-error: ") and err.getvalue().count("\n") == 1, err.getvalue()
            assert written == []
            return
        assert rc == 0 and err.getvalue() == "", (argv, err.getvalue())
        for path in written:
            if path.name == "qtable.bin":
                assert np.isfinite(QTable.load(path).values).all()
            else:
                assert not NON_FINITE.search(path.read_text()), (argv, path.name)
        assert not NON_FINITE.search(out.getvalue()), (argv, out.getvalue())
        if command == "metamodel":
            # a count the command accepts is the count it ran
            assert CostTable.load(out_dir / "metamodel.csv").meta["replications"] == count
        elif command == "train":
            assert QTable.load(out_dir / "qtable.bin").schedule["episodes"] == count

"""Atomic artifact writes, which leave the previous file intact on failure,
memory-mapped container loads that accept only their schema's layout, and
Q-table saves that widen the visit counts to their stored dtype."""

import builtins
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import outageplan
from outageplan import persist
from outageplan.cli import RunManifest, main
from outageplan.errors import ArtifactMismatchError
from outageplan.evaluate import ComparisonReport, PolicyTrace, write_plot_csv
from outageplan.simulate import CostTable
from outageplan.solver import _QTABLE_ARRAYS, ConvergencePoint, QTable, write_convergence_csv


CAIDI = Path(outageplan.__file__).parent / "data" / "caidi" / "psegli_caidi.csv"


class DiskFull(OSError):
    pass


class HalfWriter:
    """File stand-in that writes half of the first chunk, then fails."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, data):
        self._fh.write(data[: max(len(data) // 2, 1)])
        self._fh.flush()
        raise DiskFull("no space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()
        return False

    def __getattr__(self, name):
        return getattr(self._fh, name)


@pytest.fixture
def failing_writes(monkeypatch):
    """Make every file persist opens for writing fail halfway through."""

    def fake_open(file, mode="r", *args, **kwargs):
        fh = builtins.open(file, mode, *args, **kwargs)
        return HalfWriter(fh) if "x" in mode else fh

    monkeypatch.setattr(persist, "open", fake_open, raising=False)


WRITERS = {
    "metamodel.csv": lambda p: CostTable(units=("u",), kwh=[[0.0]], cost=[1.0], stderr=[0.5], meta={"seed": 1}).save(p),
    "qtable.bin": lambda p: persist.save_container(p, {"k": 1}, {"a": np.arange(5.0)}, {"a": ("<f8", 1)}),
    "convergence.csv": lambda p: write_convergence_csv([ConvergencePoint(1, 0.5, -2.0)], p),
    "trace.json": lambda p: PolicyTrace(
        rows=(), config_hash="c", planning_hash="p", outage_model={}, trajectory={}, totals={}
    ).save(p),
    "comparison.json": lambda p: ComparisonReport(
        label_a="a", label_b="b", trace_a={}, trace_b={}, deltas={"total_kwh": 0.0}
    ).save(p),
    "manifest.json": lambda p: RunManifest().save(p),
    "duration_pmf.csv": lambda p: write_plot_csv([(1.0, 0.5, 0.25)], p),
}


class TestAtomicWrite:
    def test_replaces_the_file(self, tmp_path):
        target = tmp_path / "a.txt"
        target.write_text("old")
        with persist.atomic_write(target) as fh:
            fh.write("new")
            assert target.read_text() == "old"
        assert target.read_text() == "new"
        assert [p.name for p in tmp_path.iterdir()] == ["a.txt"]

    def test_failure_keeps_the_previous_bytes_and_no_temp_file(self, tmp_path):
        target = tmp_path / "a.bin"
        target.write_bytes(b"previous")
        with pytest.raises(RuntimeError, match="halfway"):
            with persist.atomic_write(target, "wb") as fh:
                fh.write(b"partial")
                raise RuntimeError("halfway")
        assert target.read_bytes() == b"previous"
        assert [p.name for p in tmp_path.iterdir()] == ["a.bin"]

    def test_failure_without_a_previous_file_leaves_nothing(self, tmp_path):
        with pytest.raises(RuntimeError):
            with persist.atomic_write(tmp_path / "a.txt") as fh:
                fh.write("partial")
                raise RuntimeError("halfway")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("name", sorted(WRITERS))
    def test_every_artifact_writer_is_atomic(self, tmp_path, name, request):
        target = tmp_path / name
        target.write_bytes(b"previous artifact\n")
        request.getfixturevalue("failing_writes")
        with pytest.raises(DiskFull):
            WRITERS[name](target)
        assert target.read_bytes() == b"previous artifact\n"
        assert [p.name for p in tmp_path.iterdir()] == [name]

    @pytest.mark.parametrize("name", sorted(WRITERS))
    def test_every_artifact_writer_completes(self, tmp_path, name):
        target = tmp_path / name
        target.write_bytes(b"previous artifact\n")
        WRITERS[name](target)
        assert target.read_bytes() != b"previous artifact\n"
        assert [p.name for p in tmp_path.iterdir()] == [name]

    def test_fit_snippet_write_is_atomic(self, tmp_path, failing_writes, capsys):
        target = tmp_path / "outage_model.yaml"
        target.write_text("previous snippet\n")
        assert main(["fit", "--caidi", str(CAIDI), "--out", str(tmp_path)]) == 1
        assert "outageplan-error: DiskFull" in capsys.readouterr().err
        assert target.read_text() == "previous snippet\n"
        assert [p.name for p in tmp_path.iterdir()] == ["outage_model.yaml"]


def small_qtable(fill):
    values = np.full((3, 2), fill)
    return QTable(
        state_codes=np.array([2, 5, 9]),
        values=values,
        visits=np.ones_like(values, dtype=np.int64),
        action_labels=["none", "a"],
        config_hash="h",
        schedule={},
        seed=0,
        codec_meta={},
    )


class TestQTableSave:
    def test_int32_visits_save_as_int64(self, tmp_path):
        narrow, wide = small_qtable(-2.0), small_qtable(-2.0)
        narrow.visits = np.arange(6, dtype=np.int32).reshape(3, 2) * 70_000
        wide.visits = narrow.visits.astype(np.int64)
        narrow.save(tmp_path / "narrow.bin")
        wide.save(tmp_path / "wide.bin")
        assert (tmp_path / "narrow.bin").read_bytes() == (tmp_path / "wide.bin").read_bytes()
        assert QTable.load(tmp_path / "narrow.bin").visits.dtype.str == "<i8"

    def test_save_widens_a_block_at_a_time(self, tmp_path):
        # the case study's table: 124,060 states x 13 actions, 12.9 MB of
        # values and 6.5 MB of int32 visits stored as 12.9 MB of int64
        rows, actions = 124_060, 13
        table = QTable(
            state_codes=np.arange(rows), values=np.full((rows, actions), -1.0),
            visits=np.ones((rows, actions), np.int32), action_labels=[str(a) for a in range(actions)],
            config_hash="h", schedule={}, seed=0, codec_meta={},
        )
        tracemalloc.start()
        try:
            table.save(tmp_path / "qtable.bin")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20
        loaded = QTable.load(tmp_path / "qtable.bin")
        assert np.array_equal(loaded.visits, table.visits) and np.array_equal(loaded.values, table.values)

    def test_save_refuses_a_narrowing_cast(self, tmp_path):
        table = small_qtable(-1.0)
        table.visits = np.full((3, 2), 0.5)
        with pytest.raises(ValueError, match="'visits' of dtype float64 cannot be stored as int64"):
            table.save(tmp_path / "qtable.bin")
        assert list(tmp_path.iterdir()) == []


class TestMappedLoad:
    def test_loaded_arrays_are_read_only(self, tmp_path):
        target = tmp_path / "c.bin"
        schema = {"a": ("<f8", 2), "b": ("<i8", 1)}
        persist.save_container(target, {}, {"a": np.arange(6.0).reshape(2, 3), "b": np.arange(3)}, schema)
        _, arrays = persist.load_container(target, schema)
        for arr in arrays.values():
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1

    def test_a_loaded_qtable_survives_a_save_over_its_path(self, tmp_path):
        target = tmp_path / "qtable.bin"
        small_qtable(-1.5).save(target)
        loaded = QTable.load(target)
        small_qtable(-7.0).save(target)
        assert loaded.values.tolist() == [[-1.5, -1.5]] * 3
        assert QTable.load(target).values.tolist() == [[-7.0, -7.0]] * 3

    @pytest.mark.parametrize(
        "arrays",
        [{}, {"empty": np.zeros((0, 3))}, {"a": np.arange(3.0), "empty": np.zeros(0, dtype=np.int64), "b": np.ones(2)}],
        ids=["no-arrays", "zero-size", "zero-size-between"],
    )
    def test_round_trip(self, tmp_path, arrays):
        target = tmp_path / "c.bin"
        schema = {name: (arr.dtype.str, arr.ndim) for name, arr in arrays.items()}
        persist.save_container(target, {"k": [1]}, arrays, schema)
        meta, loaded = persist.load_container(target, schema)
        assert meta == {"k": [1]}
        assert list(loaded) == list(arrays)
        for name, arr in arrays.items():
            assert (loaded[name].dtype, loaded[name].shape) == (arr.dtype, arr.shape)
            assert loaded[name].tobytes() == arr.tobytes()

    @pytest.mark.parametrize("edit, payload", [("truncated", 47), ("extended", 49)])
    def test_payload_length_must_match_the_header(self, tmp_path, edit, payload):
        target = tmp_path / "c.bin"
        schema = {"a": ("<f8", 1), "b": ("<i8", 1)}
        persist.save_container(target, {}, {"a": np.arange(4.0), "b": np.arange(2)}, schema)
        data = target.read_bytes()
        target.write_bytes(data[:-1] if edit == "truncated" else data + b"\0")
        message = f"{target}: payload is {payload} bytes, header lists arrays of 48 bytes"
        with pytest.raises(ArtifactMismatchError) as info:
            persist.load_container(target, schema)
        assert str(info.value) == message


class TestSchema:
    def test_a_saved_qtable_lists_its_arrays_in_schema_order(self, tmp_path):
        small_qtable(-1.0).save(tmp_path / "qtable.bin")
        header = json.loads((tmp_path / "qtable.bin").read_bytes().partition(b"\n")[0])
        assert header["arrays"] == [["state_codes", "<i8", [3]], ["values", "<f8", [3, 2]], ["visits", "<i8", [3, 2]]]
        assert [name for name, _, _ in header["arrays"]] == list(_QTABLE_ARRAYS)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda a: a[1].__setitem__(1, "<f4"), "array 'values' must be 2-D <f8, got 2-D <f4"),
            (lambda a: a.reverse(), "holds arrays ['visits', 'values', 'state_codes'], expected"),
            (lambda a: a.pop(), "holds arrays ['state_codes', 'values'], expected"),
            (lambda a: a.append(["more", "<f8", [0]]), "holds arrays ['state_codes', 'values', 'visits', 'more']"),
            (lambda a: a[1].__setitem__(2, [6]), "array 'values' must be 2-D <f8, got 1-D <f8"),
        ],
        ids=["values-f4", "reordered", "missing", "extra", "wrong-rank"],
    )
    def test_load_rejects_any_other_layout(self, tmp_path, edit, message):
        target = tmp_path / "qtable.bin"
        small_qtable(-1.0).save(target)
        line, _, payload = target.read_bytes().partition(b"\n")
        header = json.loads(line)
        edit(header["arrays"])
        target.write_bytes(persist.canonical_json(header).encode() + b"\n" + payload)
        with pytest.raises(ArtifactMismatchError) as info:
            QTable.load(target)
        assert str(info.value).startswith(f"{target}: {message}")

    def test_save_refuses_a_wrong_rank(self, tmp_path):
        with pytest.raises(ValueError, match="array 'a' must be 2-D, got 1-D"):
            persist.save_container(tmp_path / "c.bin", {}, {"a": np.arange(3.0)}, {"a": ("<f8", 2)})
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("arrays", [{}, {"a": np.arange(3.0), "b": np.arange(3.0)}], ids=["missing", "extra"])
    def test_save_refuses_other_arrays(self, tmp_path, arrays):
        with pytest.raises(ValueError, match="differ from the schema's"):
            persist.save_container(tmp_path / "c.bin", {}, arrays, {"a": ("<f8", 1)})
        assert list(tmp_path.iterdir()) == []


class TestJson:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_write_refuses_a_non_finite_number_and_leaves_nothing(self, tmp_path, value):
        target = tmp_path / "d.json"
        with pytest.raises(ValueError, match="not JSON compliant"):
            persist.write_json(target, {"x": [1.0, value]})
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_read_refuses_the_non_standard_constants(self, tmp_path, constant):
        target = tmp_path / "d.json"
        target.write_text(f'{{"x": {constant}}}')
        assert persist.read_json(target) is None

    @pytest.mark.parametrize("body", [b"{", b"\xff\xfe{}", b""])
    def test_read_returns_none_for_a_file_that_is_not_json(self, tmp_path, body):
        target = tmp_path / "d.json"
        target.write_bytes(body)
        assert persist.read_json(target) is None

    def test_round_trip(self, tmp_path):
        target = tmp_path / "d.json"
        doc = {"b": [1, 2.5, None, True], "a": {"s": "t"}}
        persist.write_json(target, doc)
        assert persist.read_json(target) == doc

"""End-to-end command line pipeline against the bundled tiny configs."""

import json
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

import outageplan
from outageplan import _kernels, persist
from outageplan.cli import MANIFEST_NAME, OUT_DIR_ENV, RunManifest, main
from outageplan.config import outage_model_from_config
from outageplan.errors import OutagePlanError
from outageplan.outage import SuperposedModel

DATA = Path(outageplan.__file__).parent / "data"
CAIDI = DATA / "caidi" / "psegli_caidi.csv"
TINY_TRAJECTORY = DATA / "trajectories" / "tiny.csv"


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One tiny metamodel + trained qtable + trace, shared by the module."""
    out = tmp_path_factory.mktemp("pipeline")
    argv = ["metamodel", "--config", "tiny", "--seed", "11", "--replications", "40", "--out", str(out)]
    assert main(argv) == 0
    argv = ["train", "--config", "tiny", "--seed", "0", "--episodes", "2000", "--out", str(out)]
    assert main(argv) == 0
    argv = [
        "evaluate",
        "--config",
        "tiny",
        "--qtable",
        str(out / "qtable.bin"),
        "--trajectory",
        str(TINY_TRAJECTORY),
        "--label",
        "single",
        "--out",
        str(out),
    ]
    assert main(argv) == 0
    return out


class TestFit:
    def test_prints_fit_summary(self, capsys):
        assert main(["fit", "--caidi", str(CAIDI)]) == 0
        text = capsys.readouterr().out
        assert "severe years (> 10 h): 2012" in text
        assert "regular mean duration: 1.636 h" in text
        assert "severe mean duration: 22.55 h" in text
        assert "type: superposed" in text

    def test_writes_loadable_model_snippet(self, tmp_path, capsys):
        assert main(["fit", "--caidi", str(CAIDI), "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        doc = yaml.safe_load((tmp_path / "outage_model.yaml").read_text())
        model = outage_model_from_config(doc["outage_model"])
        assert isinstance(model, SuperposedModel)
        assert model.regular_duration_rate == pytest.approx(0.636, abs=1e-12)
        assert model.severe_duration_rate == pytest.approx(21.55, abs=1e-12)
        manifest = RunManifest.load(tmp_path / MANIFEST_NAME)
        assert [e.kind for e in manifest.entries] == ["outage-model"]

    def test_threshold_changes_split(self, capsys):
        assert main(["fit", "--caidi", str(CAIDI), "--threshold-hours", "1.5"]) == 0
        text = capsys.readouterr().out
        assert "severe years (> 1.5 h): 2012, 2013, 2015, 2017" in text


class TestPipeline:
    def test_artifacts_exist(self, pipeline):
        for name in ("metamodel.csv", "qtable.bin", "convergence.csv", "trace-single.json", MANIFEST_NAME):
            assert (pipeline / name).is_file()

    def test_manifest_covers_every_artifact(self, pipeline):
        manifest = RunManifest.load(pipeline / MANIFEST_NAME)
        kinds = {e.kind for e in manifest.entries}
        assert kinds == {"metamodel", "qtable", "convergence", "trace-single"}
        assert manifest.tool_version == outageplan.__version__
        manifest.validate()

    def test_seed_lines(self, tmp_path, capsys):
        assert main(["metamodel", "--config", "tiny", "--replications", "5", "--out", str(tmp_path)]) == 0
        assert "seed: 0 (default)" in capsys.readouterr().out
        assert (
            main(["metamodel", "--config", "tiny", "--seed", "7", "--replications", "5", "--out", str(tmp_path)])
            == 0
        )
        assert "seed: 7 (explicit)" in capsys.readouterr().out

    def test_metamodel_stdout(self, pipeline, tmp_path, capsys):
        argv = ["metamodel", "--config", "tiny", "--seed", "11", "--replications", "40", "--out", str(tmp_path)]
        assert main(argv) == 0
        text = capsys.readouterr().out
        assert "portfolios: 35  replications: 40" in text
        assert f"wrote {tmp_path / 'metamodel.csv'}" in text
        # same config and seed in a fresh directory: byte-identical table
        assert (tmp_path / "metamodel.csv").read_bytes() == (pipeline / "metamodel.csv").read_bytes()

    def test_train_rerun_is_byte_identical(self, pipeline, tmp_path, capsys):
        argv = [
            "train",
            "--config",
            "tiny",
            "--seed",
            "0",
            "--episodes",
            "2000",
            "--metamodel",
            str(pipeline / "metamodel.csv"),
            "--out",
            str(tmp_path),
        ]
        assert main(argv) == 0
        text = capsys.readouterr().out
        assert f"episodes: 2000  backend: {_kernels.ACTIVE_BACKEND}" in text
        assert "final epoch: max |dQ| = " in text
        visits = persist.load_container(tmp_path / "qtable.bin")[1]["visits"]
        assert f"coverage: {np.count_nonzero(visits)} of {visits.size} (state, action) pairs\n" in text
        assert (tmp_path / "qtable.bin").read_bytes() == (pipeline / "qtable.bin").read_bytes()
        assert (tmp_path / "convergence.csv").read_bytes() == (pipeline / "convergence.csv").read_bytes()

    def test_evaluate_stdout_and_trace(self, pipeline, tmp_path, capsys):
        argv = [
            "evaluate",
            "--config",
            "tiny",
            "--qtable",
            str(pipeline / "qtable.bin"),
            "--trajectory",
            str(TINY_TRAJECTORY),
            "--metamodel",
            str(pipeline / "metamodel.csv"),
            "--out",
            str(tmp_path),
        ]
        assert main(argv) == 0
        text = capsys.readouterr().out
        assert "period 1: (0,400,150,0,0) -> " in text
        assert "total installed: " in text
        assert "exact expected return of the greedy policy: " in text
        doc = json.loads((tmp_path / "trace.json").read_text())
        assert doc["exact_expected_return"] is not None

    def test_evaluate_without_metamodel_skips_exact_return(self, pipeline, tmp_path, capsys):
        argv = [
            "evaluate",
            "--config",
            "tiny",
            "--qtable",
            str(pipeline / "qtable.bin"),
            "--trajectory",
            str(TINY_TRAJECTORY),
            "--out",
            str(tmp_path),
        ]
        assert main(argv) == 0
        text = capsys.readouterr().out
        assert "exact expected return" not in text
        assert json.loads((tmp_path / "trace.json").read_text())["exact_expected_return"] is None

    def test_compare_trace_with_itself(self, pipeline, tmp_path, capsys):
        trace = str(pipeline / "trace-single.json")
        assert main(["compare", "--trace-a", trace, "--trace-b", trace, "--out", str(tmp_path)]) == 0
        text = capsys.readouterr().out
        assert "delta total kWh (model-a - model-b): 0" in text
        doc = json.loads((tmp_path / "comparison.json").read_text())
        assert doc["deltas"]["total_kwh"] == 0.0

    def test_compare_label_collision(self, pipeline, capsys):
        trace = str(pipeline / "trace-single.json")
        rc = main(["compare", "--trace-a", trace, "--trace-b", trace, "--label-a", "x", "--label-b", "x"])
        assert rc == 1
        assert "outageplan-error: ValueError: comparison labels must differ" in capsys.readouterr().err


class TestErrorPaths:
    def test_train_without_metamodel(self, tmp_path, capsys):
        rc = main(["train", "--config", "tiny", "--episodes", "10", "--out", str(tmp_path)])
        assert rc == 1
        assert "outageplan-error: no metamodel available" in capsys.readouterr().err

    def test_config_hash_guard_on_train(self, pipeline, tmp_path, capsys):
        argv = [
            "train",
            "--config",
            "tiny-superposed",
            "--episodes",
            "10",
            "--metamodel",
            str(pipeline / "metamodel.csv"),
            "--out",
            str(tmp_path),
        ]
        assert main(argv) == 1
        assert "outageplan-error:" in capsys.readouterr().err

    def test_config_hash_guard_on_evaluate(self, pipeline, tmp_path, capsys):
        argv = [
            "evaluate",
            "--config",
            "tiny-superposed",
            "--qtable",
            str(pipeline / "qtable.bin"),
            "--trajectory",
            str(TINY_TRAJECTORY),
            "--out",
            str(tmp_path),
        ]
        assert main(argv) == 1
        assert "outageplan-error:" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", ["truncated", "trailing"])
    def test_qtable_length_is_checked(self, pipeline, tmp_path, capsys, edit):
        data = (pipeline / "qtable.bin").read_bytes()
        path = tmp_path / "qtable.bin"
        path.write_bytes(data[:-8] if edit == "truncated" else data + b"\0" * 8)
        argv = [
            "evaluate",
            "--config",
            "tiny",
            "--qtable",
            str(path),
            "--trajectory",
            str(TINY_TRAJECTORY),
            "--out",
            str(tmp_path),
        ]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "outageplan-error:" in err and "header lists arrays of" in err

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda m, a: m.update(schedule=[]), "field 'schedule' must be an object, got a list"),
            (lambda m, a: m.update(action_labels=3), "field 'action_labels' must be a list, got an integer"),
            (lambda m, a: m.pop("seed"), "field 'seed' must be an integer, got nothing"),
            (lambda m, a: m.update(action_labels=m["action_labels"][:-1]), "Q-table shapes do not align"),
            (lambda m, a: m["action_labels"].__setitem__(0, 0), "field 'action_labels' must hold strings"),
            (lambda m, a: a.update(values=a["values"].ravel()), "array 'values' must be 2-D <f8, got 1-D <f8"),
            (lambda m, a: a.update(values=a["values"].astype(np.int64)), "array 'values' must be 2-D <f8, got 2-D <i8"),
            (lambda m, a: a.update(visits=a["visits"][:-1]), "Q-table shapes do not align"),
            (lambda m, a: a.pop("visits"), "Q-table holds arrays ['state_codes', 'values'], expected"),
            (lambda m, a: a.update(state_codes=a["state_codes"] + 1), "Q-table rows do not match the states"),
            (lambda m, a: m["action_labels"].reverse(), "Q-table columns do not match the actions"),
        ],
    )
    def test_evaluate_rejects_a_malformed_qtable(self, pipeline, tmp_path, capsys, edit, message):
        meta, arrays = persist.load_container(pipeline / "qtable.bin")
        arrays = dict(arrays)
        edit(meta, arrays)
        path = tmp_path / "qtable.bin"
        persist.save_container(path, meta, arrays)
        argv = ["evaluate", "--config", "tiny", "--qtable", str(path), "--trajectory", str(TINY_TRAJECTORY),
                "--out", str(tmp_path)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"outageplan-error: {path}: ") and err.count("\n") == 1, err
        assert message in err

    def _train_on_edited_metamodel(self, pipeline, tmp_path, capsys, edit):
        lines = (pipeline / "metamodel.csv").read_text().splitlines()
        path = tmp_path / "metamodel.csv"
        path.write_text("\n".join(edit(lines)) + "\n")
        argv = ["train", "--config", "tiny", "--episodes", "10", "--metamodel", str(path), "--out", str(tmp_path)]
        return main(argv), capsys.readouterr().err

    @pytest.mark.parametrize("cells", ["extra", "missing"])
    def test_metamodel_row_width_is_checked(self, pipeline, tmp_path, capsys, cells):
        def edit(lines):
            row = lines[2] + ",0.0" if cells == "extra" else lines[2].rsplit(",", 1)[0]
            return lines[:2] + [row] + lines[3:]

        rc, err = self._train_on_edited_metamodel(pipeline, tmp_path, capsys, edit)
        assert rc == 1
        assert "outageplan-error:" in err and "cells, expected" in err

    @pytest.mark.parametrize(
        "cost,stderr", [("nan", "0.0"), ("inf", "0.0"), ("-1.0", "0.0"), ("5.0", "nan"), ("5.0", "-0.5")]
    )
    def test_metamodel_values_must_be_finite_and_non_negative(self, pipeline, tmp_path, capsys, cost, stderr):
        def edit(lines):
            cells = lines[3].split(",")
            return lines[:3] + [",".join(cells[:-2] + [cost, stderr])] + lines[4:]

        rc, err = self._train_on_edited_metamodel(pipeline, tmp_path, capsys, edit)
        assert rc == 1
        assert "outageplan-error:" in err and "must be finite and >= 0" in err

    def test_metamodel_duplicate_portfolio_is_rejected(self, pipeline, tmp_path, capsys):
        rc, err = self._train_on_edited_metamodel(pipeline, tmp_path, capsys, lambda ls: ls + [ls[-1]])
        assert rc == 1
        assert "outageplan-error:" in err and "duplicate portfolio" in err

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"format": "outageplan-trace", "rows": 5}, "field 'config_hash' must be a string"),
            ([1, 2], "not a policy trace file"),
            ("row without state", r"rows\[0\]: field 'state' must be a list, got nothing"),
        ],
    )
    def test_compare_reports_a_malformed_trace(self, pipeline, tmp_path, capsys, doc, message):
        good = pipeline / "trace-single.json"
        if doc == "row without state":
            doc = json.loads(good.read_text())
            del doc["rows"][0]["state"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        rc = main(["compare", "--trace-a", str(good), "--trace-b", str(bad), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("outageplan-error: ") and "Traceback" not in err
        assert re.search(message, err)

    def test_train_without_a_c_compiler(self, pipeline, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        monkeypatch.setenv("PATH", str(tmp_path / "no-bin"))
        monkeypatch.setattr(_kernels, "_loop", None)
        argv = ["train", "--config", "tiny", "--episodes", "10", "--metamodel", str(pipeline / "metamodel.csv"),
                "--out", str(tmp_path)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("outageplan-error: cannot run the C compiler 'cc' (") and err.count("\n") == 1
        assert str(tmp_path / "cache" / "outageplan") in err

    def test_compare_names_a_unit_missing_from_one_mix(self, pipeline, tmp_path, capsys):
        good = pipeline / "trace-single.json"
        doc = json.loads(good.read_text())
        unit = sorted(doc["totals"]["mix_kwh"])[-1]
        del doc["totals"]["mix_kwh"][unit]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        rc = main(["compare", "--trace-a", str(good), "--trace-b", str(bad), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err == (f"outageplan-error: trace {bad} has no unit {unit!r} in totals.mix_kwh, "
                       f"which trace {good} lists\n")

    @pytest.mark.parametrize("row", ["2016,nan", "2016,2,9"])
    def test_fit_rejects_a_malformed_caidi_row(self, tmp_path, capsys, row):
        bad = tmp_path / "caidi.csv"
        bad.write_text(CAIDI.read_text().rstrip("\n") + f"\n{row}\n")
        assert main(["fit", "--caidi", str(bad)]) == 1
        assert capsys.readouterr().err.startswith("outageplan-error: ")

    def test_multi_line_error_prints_as_one_line(self, tmp_path, capsys):
        # libyaml's messages span several lines
        bad = tmp_path / "c.yaml"
        bad.write_text("horizon: [1\nunits: 2\n")
        assert main(["metamodel", "--config", str(bad), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("outageplan-error: ") and "invalid YAML" in err
        assert err.count("\n") == 1

    def test_unknown_config_name(self, capsys):
        rc = main(["metamodel", "--config", "nonesuch"])
        assert rc == 1
        assert "unknown bundled config" in capsys.readouterr().err

    def test_missing_required_argument_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["metamodel"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert f"outageplan {outageplan.__version__}" in capsys.readouterr().out


class TestPlotData:
    def test_superposed_config_defaults_to_mean_matched(self, tmp_path, capsys):
        assert main(["plotdata", "--config", "tiny-superposed", "--out", str(tmp_path)]) == 0
        text = capsys.readouterr().out
        assert "rows: 40 (durations 1 .. 40 h)" in text
        lines = (tmp_path / "duration_pmf.csv").read_text().splitlines()
        assert lines[0] == "duration_hours,pmf_single,pmf_superposed"
        assert len(lines) == 41

    def test_explicit_pair(self, tmp_path, capsys):
        argv = ["plotdata", "--config", "tiny", "--config-b", "tiny-superposed", "--out", str(tmp_path)]
        assert main(argv) == 0
        capsys.readouterr()
        assert (tmp_path / "duration_pmf.csv").is_file()

    def test_single_config_needs_partner(self, tmp_path, capsys):
        rc = main(["plotdata", "--config", "tiny", "--out", str(tmp_path)])
        assert rc == 1
        assert "pass --config-b" in capsys.readouterr().err

    def test_two_single_models_rejected(self, tmp_path, capsys):
        rc = main(["plotdata", "--config", "tiny", "--config-b", "tiny", "--out", str(tmp_path)])
        assert rc == 1
        assert "outageplan-error:" in capsys.readouterr().err

    def test_out_dir_env_var(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path / "from-env"))
        assert main(["plotdata", "--config", "tiny-superposed"]) == 0
        capsys.readouterr()
        assert (tmp_path / "from-env" / "duration_pmf.csv").is_file()


class TestManifest:
    def test_record_replaces_same_kind_and_path(self, tmp_path):
        manifest = RunManifest()
        target = tmp_path / "a.bin"
        target.write_bytes(b"x")
        manifest.record("qtable", target, "h1", 1)
        manifest.record("qtable", target, "h2", 2)
        assert len(manifest.entries) == 1
        assert manifest.entries[0].config_hash == "h2"

    def test_validate_flags_missing_artifact(self, tmp_path):
        manifest = RunManifest()
        manifest.record("qtable", tmp_path / "gone.bin", None, None)
        with pytest.raises(OutagePlanError, match="missing artifact"):
            manifest.validate()

    def test_save_load_round_trip(self, tmp_path):
        manifest = RunManifest()
        target = tmp_path / "a.bin"
        target.write_bytes(b"x")
        manifest.record("qtable", target, "h", 3)
        path = tmp_path / MANIFEST_NAME
        manifest.save(path)
        loaded = RunManifest.load(path)
        assert loaded.entries[0].kind == "qtable"
        assert loaded.entries[0].seed == 3
        assert loaded.tool_version == outageplan.__version__

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"format": "other"}))
        with pytest.raises(OutagePlanError, match="not a run manifest"):
            RunManifest.load(path)

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"format": "outageplan-manifest", "entries": [1]}, r"entries\[0\]: expected an object, got an integer"),
            ({"format": "outageplan-manifest", "entries": [{"kind": "x"}]}, r"entries\[0\]: field 'path' must be a string"),
            ({"format": "outageplan-manifest", "entries": {"kind": "x"}}, "field 'entries' must be a list or null"),
            ([1, 2], "not a run manifest"),
        ],
    )
    def test_load_names_the_malformed_field(self, tmp_path, capsys, doc, message):
        path = tmp_path / MANIFEST_NAME
        path.write_text(json.dumps(doc))
        with pytest.raises(OutagePlanError, match=message):
            RunManifest.load(path)
        # the next command writing into the directory reports it in one line
        assert main(["fit", "--caidi", str(CAIDI), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("outageplan-error: ") and "Traceback" not in err

"""YAML config parsing, identity hashes, profiles, and bundled examples."""

import csv
from dataclasses import fields

import numpy as np
import yaml
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import outageplan.config as config_module
from outageplan import persist
from outageplan.config import (
    BUNDLED_CONFIGS,
    AppConfig,
    bundled_config_path,
    load_config,
    outage_model_from_config,
    outage_model_to_config,
    read_profile_csv,
)
from outageplan.errors import ConfigError
from outageplan.outage import HOURS_PER_YEAR, SingleModel, SuperposedModel
from outageplan.simulate import build_metamodel
from outageplan.solver import TrainingSchedule


def profile_text(values):
    lines = ["hour,value_kw"]
    lines.extend(f"{h},{v}" for h, v in enumerate(values))
    return "\n".join(lines) + "\n"


def constant_profile(value=1.0, hours=HOURS_PER_YEAR):
    return profile_text([value] * hours)


def base_doc():
    return {
        "horizon": 2,
        "period_length_years": 1.0,
        "levels_kwh": [100.0],
        "units": [
            {
                "name": "solo",
                "price_ladder": [300.0, 200.0],
                "advance_prob": 0.5,
                "round_trip_efficiency": 0.9,
                "usable_fraction": 0.8,
                "power_limit_kw_per_kwh": 0.5,
            }
        ],
        "outage_model": {"type": "single", "lambda": 1.0, "kappa": 2.0},
        "facilities": [
            {
                "name": "site",
                "count": 2,
                "peak_load_kw": 10.0,
                "value_of_lost_load": 7.0,
                "profile": "unitload",
            }
        ],
        "pv": {"profile": "sun", "peak_kw": 5.0},
        "profiles_dir": ".",
    }


def write_workspace(tmp_path, doc=None, profiles=None):
    doc = base_doc() if doc is None else doc
    profiles = {"unitload": 1.0, "sun": 1.0} if profiles is None else profiles
    for name, value in profiles.items():
        body = value if isinstance(value, str) else constant_profile(value)
        (tmp_path / f"{name}.csv").write_text(body)
    cfg_path = tmp_path / "config.yaml"
    cfg_path.write_text(yaml.safe_dump(doc))
    return cfg_path


class TestOutageModelBlocks:
    def test_single_round_trip(self):
        model = outage_model_from_config(
            {"type": "single", "lambda": 1.2, "kappa": 4.0, "shift_hours": 1.0}
        )
        assert model == SingleModel(rate=1.2, duration_rate=4.0, shift=1.0)
        assert outage_model_to_config(model) == {
            "type": "single",
            "lambda": 1.2,
            "kappa": 4.0,
            "shift_hours": 1.0,
        }

    def test_superposed_round_trip(self):
        block = {
            "type": "superposed",
            "lambda1": 1.0,
            "lambda2": 0.2,
            "kappa1": 0.636,
            "kappa2": 21.55,
            "shift_hours": 1.0,
        }
        model = outage_model_from_config(block)
        assert model == SuperposedModel(
            regular_rate=1.0,
            severe_rate=0.2,
            regular_duration_rate=0.636,
            severe_duration_rate=21.55,
            shift=1.0,
        )
        assert outage_model_to_config(model) == block

    @pytest.mark.parametrize("name", ["tiny", "tiny-superposed"])
    def test_metamodel_header_round_trip(self, name):
        cfg = load_config(name)
        table = build_metamodel(
            model=cfg.outage_model,
            capacity_grid=cfg.env().reachable_portfolios()[:1],
            specs=cfg.storage_specs(),
            grid=cfg.microgrid(),
            period_length_years=cfg.period_length_years,
            replications=2,
            seed=0,
        )
        assert outage_model_from_config(table.meta["outage_model"]) == cfg.outage_model

    def test_type_key_required(self):
        with pytest.raises(ConfigError, match="needs a 'type' key"):
            outage_model_from_config({"lambda": 1.0})

    def test_missing_parameter(self):
        with pytest.raises(ConfigError, match="missing key 'kappa'"):
            outage_model_from_config({"type": "single", "lambda": 1.0})

    def test_invalid_parameter_value(self):
        with pytest.raises(ConfigError, match="outage_model is invalid"):
            outage_model_from_config({"type": "single", "lambda": -1.0, "kappa": 2.0})

    def test_unknown_type(self):
        with pytest.raises(ConfigError, match="must be 'single' or 'superposed'"):
            outage_model_from_config({"type": "weibull"})


def read_profile_csv_oracle(path):
    """The row-by-row csv reader the numpy parser replaced, kept as the
    reference for values and error messages."""
    values = np.empty(HOURS_PER_YEAR)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["hour", "value_kw"]:
            raise ConfigError(f"{path}: expected CSV header 'hour,value_kw'")
        count = 0
        for row in reader:
            if not row:
                continue
            if count >= HOURS_PER_YEAR:
                raise ConfigError(f"{path}: more than {HOURS_PER_YEAR} rows")
            try:
                hour = int(row[0])
                value = float(row[1])
            except (IndexError, ValueError) as exc:
                raise ConfigError(f"{path}: bad row {row!r}") from exc
            if hour != count:
                raise ConfigError(f"{path}: hours must run 0..{HOURS_PER_YEAR - 1} in order")
            if value < 0:
                raise ConfigError(f"{path}: negative value at hour {hour}")
            values[count] = value
            count += 1
    if count != HOURS_PER_YEAR:
        raise ConfigError(f"{path}: expected {HOURS_PER_YEAR} rows, found {count}")
    return values


def outcome(read, path):
    try:
        return read(path).tobytes()
    except ConfigError as exc:
        return str(exc)


@st.composite
def profile_files(draw):
    """A profile's text with up to two defects of the kinds both readers
    reject, plus empty lines and either line ending."""
    n = draw(st.sampled_from([HOURS_PER_YEAR, HOURS_PER_YEAR - 1, HOURS_PER_YEAR + 1, HOURS_PER_YEAR + 3, 5]))
    values = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1e7, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=50,
        )
    )
    cells = [[str(h), repr(values[h % len(values)])] for h in range(n)]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        at = draw(st.integers(min_value=0, max_value=n - 1))
        defect = draw(st.sampled_from(["hour", "negative", "text", "hash", "blank", "short", "float-hour", "spaces"]))
        value = repr(values[at % len(values)])
        if defect == "hour":
            cells[at] = [str(at + draw(st.sampled_from([-1, 1, 7]))), value]
        elif defect == "negative":
            cells[at] = [str(at), repr(-draw(st.floats(min_value=1e-300, max_value=1e6)))]
        elif defect == "text":
            cells[at] = [str(at), "abc"]
        elif defect == "hash":
            cells[at] = ["# comment"]
        elif defect == "blank":
            cells[at] = [" "]
        elif defect == "short":
            cells[at] = [str(at)]
        elif defect == "float-hour":
            cells[at] = [f"{at}.0", value]
        else:
            cells[at] = [f" {at}", f" {value} "]
    lines = ["hour,value_kw"] + [",".join(row) for row in cells]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        lines.insert(draw(st.integers(min_value=1, max_value=len(lines))), "")
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from([newline, ""]))


class TestProfileCsv:
    def test_bundled_profiles_match_the_csv_reader(self):
        for path in sorted(load_config("tiny").profiles_dir.glob("*.csv")):
            assert read_profile_csv(path).tobytes() == read_profile_csv_oracle(path).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(text=profile_files())
    def test_matches_the_csv_reader(self, tmp_path_factory, text):
        p = tmp_path_factory.mktemp("profile") / "p.csv"
        p.write_bytes(text.encode())
        assert outcome(read_profile_csv, p) == outcome(read_profile_csv_oracle, p)

    def test_extra_cell_is_a_bad_row(self, tmp_path):
        # the csv reader took the first two cells of a longer row silently
        p = tmp_path / "p.csv"
        p.write_text(profile_text([1.0] * HOURS_PER_YEAR).replace("10,1.0", "10,1.0,9", 1))
        with pytest.raises(ConfigError, match=r"bad row \['10', '1.0', '9'\]"):
            read_profile_csv(p)

    def test_header_only(self, tmp_path):
        p = tmp_path / "p.csv"
        p.write_text("hour,value_kw\n")
        with pytest.raises(ConfigError, match="expected 8760 rows, found 0"):
            read_profile_csv(p)

    def test_reads_all_hours(self, tmp_path):
        p = tmp_path / "p.csv"
        p.write_text(profile_text([0.5] * HOURS_PER_YEAR))
        values = read_profile_csv(p)
        assert values.shape == (HOURS_PER_YEAR,)
        assert values[0] == 0.5
        assert values[-1] == 0.5

    def test_header_enforced(self, tmp_path):
        p = tmp_path / "p.csv"
        p.write_text("h,v\n0,1\n")
        with pytest.raises(ConfigError, match="expected CSV header"):
            read_profile_csv(p)

    def test_row_count_lower_bound(self, tmp_path):
        p = tmp_path / "p.csv"
        p.write_text(profile_text([1.0] * 10))
        with pytest.raises(ConfigError, match="expected 8760 rows, found 10"):
            read_profile_csv(p)

    def test_row_count_upper_bound(self, tmp_path):
        p = tmp_path / "p.csv"
        p.write_text(profile_text([1.0] * (HOURS_PER_YEAR + 1)))
        with pytest.raises(ConfigError, match="more than 8760 rows"):
            read_profile_csv(p)

    def test_hours_must_be_ordered(self, tmp_path):
        p = tmp_path / "p.csv"
        lines = profile_text([1.0] * HOURS_PER_YEAR).splitlines()
        lines[1], lines[2] = lines[2], lines[1]
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match="hours must run 0..8759 in order"):
            read_profile_csv(p)

    def test_values_must_parse(self, tmp_path):
        p = tmp_path / "p.csv"
        body = profile_text([1.0] * HOURS_PER_YEAR).replace("10,1.0", "10,abc", 1)
        p.write_text(body)
        with pytest.raises(ConfigError, match="bad row"):
            read_profile_csv(p)

    def test_values_must_be_nonnegative(self, tmp_path):
        p = tmp_path / "p.csv"
        body = profile_text([1.0] * HOURS_PER_YEAR).replace("10,1.0", "10,-1.0", 1)
        p.write_text(body)
        with pytest.raises(ConfigError, match="negative value at hour 10"):
            read_profile_csv(p)

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1e999"])
    def test_values_must_be_finite(self, tmp_path, text):
        p = tmp_path / "p.csv"
        p.write_text(profile_text([1.0] * HOURS_PER_YEAR).replace("10,1.0", f"10,{text}", 1))
        with pytest.raises(ConfigError, match="non-finite value at hour 10"):
            read_profile_csv(p)

    @pytest.mark.parametrize("first, second, message", [("-1.0", "nan", "negative value at hour 10"),
                                                         ("inf", "-1.0", "non-finite value at hour 10")])
    def test_first_bad_value_in_file_order_decides(self, tmp_path, first, second, message):
        p = tmp_path / "p.csv"
        body = profile_text([1.0] * HOURS_PER_YEAR).replace("10,1.0", f"10,{first}", 1)
        p.write_text(body.replace("20,1.0", f"20,{second}", 1))
        with pytest.raises(ConfigError, match=message):
            read_profile_csv(p)

    def test_non_finite_pv_profile_is_rejected(self, tmp_path):
        profiles = {"unitload": 1.0, "sun": constant_profile(1.0).replace("3,1.0", "3,inf", 1)}
        cfg = load_config(str(write_workspace(tmp_path, profiles=profiles)))
        with pytest.raises(ConfigError, match=r"sun.csv: non-finite value at hour 3$"):
            cfg.microgrid()


class TestBundledConfigs:
    def test_all_names_load(self):
        for name in BUNDLED_CONFIGS:
            cfg = load_config(name)
            assert cfg.horizon >= 2
            assert cfg.units
            assert cfg.facilities

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError, match="unknown bundled config 'nope'"):
            bundled_config_path("nope")

    def test_load_by_path_matches_load_by_name(self):
        by_name = load_config("tiny")
        by_path = load_config(str(bundled_config_path("tiny")))
        assert by_name.config_hash == by_path.config_hash

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="config file not found"):
            load_config(str(tmp_path / "absent.yaml"))

    def test_invalid_yaml(self, tmp_path):
        p = tmp_path / "bad.yaml"
        p.write_text("horizon: [unclosed\n")
        with pytest.raises(ConfigError, match="invalid YAML"):
            load_config(str(p))

    def test_hash_is_stable_across_loads(self):
        assert load_config("tiny").config_hash == load_config("tiny").config_hash

    def test_outage_model_changes_config_hash_only(self):
        for a_name, b_name in [
            ("tiny", "tiny-superposed"),
            ("casestudy-single", "casestudy-superposed"),
        ]:
            a = load_config(a_name)
            b = load_config(b_name)
            assert a.planning_hash == b.planning_hash
            assert a.config_hash != b.config_hash

    def test_casestudy_shapes(self):
        cfg = load_config("casestudy-single")
        assert cfg.horizon == 4
        assert cfg.period_length_years == 3.0
        assert cfg.levels_kwh == (250.0, 500.0, 1000.0)
        assert cfg.env().unit_names == ("li-ion", "lead-acid", "vanadium-redox", "flywheel")
        assert isinstance(cfg.outage_model, SingleModel)
        assert isinstance(load_config("casestudy-superposed").outage_model, SuperposedModel)


class TestYamlLoader:
    @pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML was built without libyaml")
    @pytest.mark.parametrize("name", BUNDLED_CONFIGS)
    def test_libyaml_and_python_loaders_agree(self, name):
        path = bundled_config_path(name)
        text = path.read_text()
        fast = yaml.load(text, Loader=yaml.CSafeLoader)
        slow = yaml.load(text, Loader=yaml.SafeLoader)
        assert fast == slow
        assert persist.canonical_json(fast) == persist.canonical_json(slow)
        a = AppConfig(doc=fast, base_dir=path.parent, source=str(path))
        b = AppConfig(doc=slow, base_dir=path.parent, source=str(path))
        assert (a.config_hash, a.planning_hash) == (b.config_hash, b.planning_hash)
        assert load_config(name).config_hash == a.config_hash


class TestUnknownKeys:
    @pytest.mark.parametrize(
        "edit, where",
        [
            pytest.param(lambda d: d.update(trainig={"episodes": 5}), "config.yaml: unknown key 'trainig'", id="top"),
            pytest.param(lambda d: d["units"][0].update(price=1), "unit block: unknown key 'price'", id="units"),
            pytest.param(lambda d: d["facilities"][0].update(voll=3), "facility block: unknown key 'voll'", id="facilities"),
            pytest.param(lambda d: d["pv"].update(peak=4), "pv section: unknown key 'peak'", id="pv"),
            pytest.param(lambda d: d.update(training={"episode": 5}), "training section: unknown key 'episode'", id="training"),
            pytest.param(lambda d: d.update(metamodel={"replication": 5}), "metamodel section: unknown key 'replication'", id="metamodel"),
            pytest.param(lambda d: d["outage_model"].update(lambda1=1.0), "outage_model (single): unknown key 'lambda1'", id="outage_model-single"),
            pytest.param(
                lambda d: d.update(
                    outage_model={"type": "superposed", "lambda1": 1, "lambda2": 1, "kappa1": 1, "kappa2": 1, "kappa": 2}
                ),
                "outage_model (superposed): unknown key 'kappa'",
                id="outage_model-superposed",
            ),
        ],
    )
    def test_each_level_rejects_and_lists_allowed_keys(self, tmp_path, edit, where):
        doc = base_doc()
        edit(doc)
        with pytest.raises(ConfigError, match="allowed keys: ") as info:
            load_config(str(write_workspace(tmp_path, doc)))
        assert where in str(info.value)

    def test_every_unknown_key_is_named(self, tmp_path):
        doc = base_doc()
        doc.update(zeta=1, alpha=2)
        with pytest.raises(ConfigError, match="unknown key 'alpha', 'zeta'; allowed keys: horizon, "):
            load_config(str(write_workspace(tmp_path, doc)))

    def test_optional_sections_with_every_key_load(self, tmp_path):
        doc = base_doc()
        doc["training"] = {"episodes": 5, "alpha": [0.5, 0.1], "epsilon": [1.0, 0.5], "gamma": 0.9}
        doc["metamodel"] = {"replications": 4, "path": "mm.csv"}
        doc["outage_model"]["shift_hours"] = 2.0
        cfg = load_config(str(write_workspace(tmp_path, doc)))
        assert cfg.training.gamma == 0.9 and cfg.metamodel_replications == 4


class TestDocumentValidation:
    def test_document_must_be_mapping(self, tmp_path):
        p = tmp_path / "c.yaml"
        p.write_text("- 1\n- 2\n")
        with pytest.raises(ConfigError, match="must be a mapping"):
            load_config(str(p))

    def test_missing_section(self, tmp_path):
        doc = base_doc()
        del doc["units"]
        p = write_workspace(tmp_path, doc)
        with pytest.raises(ConfigError, match="missing config section 'units'"):
            load_config(str(p))

    def test_horizon_bound(self, tmp_path):
        doc = base_doc()
        doc["horizon"] = 0
        p = write_workspace(tmp_path, doc)
        with pytest.raises(ConfigError, match="horizon must be >= 1"):
            load_config(str(p))

    def test_period_length_bound(self, tmp_path):
        doc = base_doc()
        doc["period_length_years"] = 0.0
        p = write_workspace(tmp_path, doc)
        with pytest.raises(ConfigError, match="period_length_years must be > 0"):
            load_config(str(p))

    def test_unit_block_missing_key(self, tmp_path):
        doc = base_doc()
        del doc["units"][0]["advance_prob"]
        p = write_workspace(tmp_path, doc)
        with pytest.raises(ConfigError, match="unit block missing key 'advance_prob'"):
            load_config(str(p))

    def test_unit_block_bad_value(self, tmp_path):
        doc = base_doc()
        doc["units"][0]["advance_prob"] = "often"
        p = write_workspace(tmp_path, doc)
        with pytest.raises(ConfigError, match="bad unit block"):
            load_config(str(p))

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: d.update(horizon=None), "horizon must be an integer, got None"),
            (lambda d: d.update(levels_kwh=5), "levels_kwh must be a list of numbers"),
            (lambda d: d.update(units=None), "units must be a list"),
            (lambda d: d.update(training=[1]), "training section must be a mapping"),
            (lambda d: d["training"].update(alpha=[0.5]), r"alpha and epsilon must be \[start, end\] pairs"),
            (lambda d: d["outage_model"].update({"lambda": float("nan")}), "outage_model lambda must be finite"),
            (lambda d: d["pv"].update(peak_kw=[60]), "pv peak_kw must be a number"),
            (lambda d: d["metamodel"].update(replications="many"), "metamodel replications must be an integer"),
        ],
    )
    def test_values_of_the_wrong_kind(self, tmp_path, edit, message):
        doc = base_doc()
        doc.setdefault("training", {})
        doc.setdefault("metamodel", {})
        edit(doc)
        p = write_workspace(tmp_path, doc)
        with pytest.raises(ConfigError, match=message):
            load_config(str(p))

    @pytest.mark.parametrize(
        "training, message",
        [
            ({"alpha": [0.01, 0.5]}, "alpha must not grow"),
            ({"epsilon": [0.05, 1.0]}, "epsilon must not grow"),
            ({"episodes": 0}, "episodes must be >= 1"),
            ({"gamma": 1.5}, r"gamma must be in \[0, 1\]"),
            ({"episodes": 2**31}, "episodes must be <= 2147483647, the limit of an int32 visit count"),
        ],
    )
    def test_training_block_must_form_a_schedule(self, tmp_path, training, message):
        doc = base_doc()
        doc["training"] = training
        p = write_workspace(tmp_path, doc)
        with pytest.raises(ConfigError, match=f"training section is invalid: {message}"):
            load_config(str(p))

    def test_facility_block_missing_key(self, tmp_path):
        doc = base_doc()
        del doc["facilities"][0]["count"]
        p = write_workspace(tmp_path, doc)
        with pytest.raises(ConfigError, match="facility block missing key 'count'"):
            load_config(str(p))

    def test_pv_section_shape(self, tmp_path):
        doc = base_doc()
        doc["pv"] = {"profile": "sun"}
        p = write_workspace(tmp_path, doc)
        with pytest.raises(ConfigError, match="pv section needs 'profile' and 'peak_kw'"):
            load_config(str(p))

    def test_pv_peak_nonnegative(self, tmp_path):
        doc = base_doc()
        doc["pv"]["peak_kw"] = -1.0
        p = write_workspace(tmp_path, doc)
        with pytest.raises(ConfigError, match="pv peak_kw must be >= 0"):
            load_config(str(p))

    def test_profile_must_exist(self, tmp_path):
        doc = base_doc()
        doc["facilities"][0]["profile"] = "bogus"
        p = write_workspace(tmp_path, doc)
        with pytest.raises(ConfigError, match="profile 'bogus' not found"):
            load_config(str(p))


class TestDerivedObjects:
    def test_training_defaults(self, tmp_path):
        cfg = load_config(str(write_workspace(tmp_path)))
        assert cfg.training.episodes == 1_000_000
        assert (cfg.training.alpha_start, cfg.training.alpha_end) == (0.5, 0.01)
        assert (cfg.training.epsilon_start, cfg.training.epsilon_end) == (1.0, 0.05)
        assert cfg.training.gamma == 1.0
        assert cfg.metamodel_replications == 256
        assert cfg.metamodel_path is None

    def test_schedule_override(self, tmp_path):
        cfg = load_config(str(write_workspace(tmp_path)))
        sched = cfg.schedule(seed=5, episodes=123)
        assert sched.episodes == 123
        assert sched.seed == 5
        assert cfg.schedule(seed=0).episodes == 1_000_000

    @pytest.mark.parametrize(
        "name, episodes", [("tiny", 60_000), ("tiny-superposed", 60_000),
                           ("casestudy-single", 4_000_000), ("casestudy-superposed", 4_000_000)]
    )
    def test_bundled_schedules(self, name, episodes):
        cfg = load_config(name)
        for seed, override in ((7, None), (3, 1234)):
            want = TrainingSchedule(episodes=override or episodes, alpha_start=0.5, alpha_end=0.01,
                                    epsilon_start=1.0, epsilon_end=0.05, gamma=1.0, seed=seed)
            got = cfg.schedule(seed=seed, episodes=override)
            assert got == want
            assert [type(getattr(got, f.name)) for f in fields(got)] == [int] + [float] * 5 + [int]

    def test_metamodel_path_resolves_relative(self, tmp_path):
        doc = base_doc()
        doc["metamodel"] = {"replications": 8, "path": "tables/mm.csv"}
        cfg = load_config(str(write_workspace(tmp_path, doc)))
        assert cfg.metamodel_replications == 8
        assert cfg.metamodel_path == tmp_path / "tables" / "mm.csv"

    def test_env_matches_config(self, tmp_path):
        cfg = load_config(str(write_workspace(tmp_path)))
        env = cfg.env()
        assert env.horizon == cfg.horizon
        assert env.levels_kwh == cfg.levels_kwh
        assert tuple(e.storage.name for e in env.catalog) == ("solo",)
        assert env.outage_model == cfg.outage_model

    def test_microgrid_scaling(self, tmp_path):
        profiles = {
            "unitload": constant_profile(0.25),
            "sun": profile_text([2.0 if h == 12 else 1.0 for h in range(HOURS_PER_YEAR)]),
        }
        cfg = load_config(str(write_workspace(tmp_path, profiles=profiles)))
        grid = cfg.microgrid()
        # facility demand is scaled so the profile peak hits count * peak_load_kw
        assert grid.profiles.demand.shape == (1, HOURS_PER_YEAR)
        assert grid.profiles.demand.max() == pytest.approx(2 * 10.0)
        # pv is scaled so its peak hits peak_kw
        assert grid.profiles.pv.max() == pytest.approx(5.0)
        assert grid.profiles.pv[0] == pytest.approx(2.5)

    def test_zero_facility_profile_rejected(self, tmp_path):
        profiles = {"unitload": constant_profile(0.0), "sun": 1.0}
        cfg = load_config(str(write_workspace(tmp_path, profiles=profiles)))
        with pytest.raises(ConfigError, match="identically zero"):
            cfg.microgrid()

    def test_zero_pv_allowed_when_peak_is_zero(self, tmp_path):
        doc = base_doc()
        doc["pv"]["peak_kw"] = 0.0
        profiles = {"unitload": 1.0, "sun": constant_profile(0.0)}
        cfg = load_config(str(write_workspace(tmp_path, doc, profiles)))
        assert cfg.microgrid().profiles.pv.max() == 0.0

    def test_profile_bytes_feed_the_hash(self, tmp_path):
        p = write_workspace(tmp_path)
        before = load_config(str(p))
        changed = constant_profile(1.0).replace("4000,1.0", "4000,1.5", 1)
        (tmp_path / "unitload.csv").write_text(changed)
        after = load_config(str(p))
        assert before.config_hash != after.config_hash
        assert before.planning_hash != after.planning_hash

    def test_a_profile_edited_after_the_load_is_refused(self, tmp_path):
        p = write_workspace(tmp_path)
        cfg = load_config(str(p))
        (tmp_path / "unitload.csv").write_text(constant_profile(1.0).replace("4000,1.0", "4000,1.5", 1))
        with pytest.raises(ConfigError, match="unitload.csv: profile changed after the config was loaded"):
            cfg.microgrid()
        assert load_config(str(p)).microgrid().profiles.demand.max() == pytest.approx(2 * 10.0)

    def test_configs_sharing_profiles_parse_each_once(self, monkeypatch):
        parsed = []
        real = config_module._parse_profile
        monkeypatch.setattr(config_module, "_parse_profile", lambda text, path: parsed.append(path) or real(text, path))
        config_module._shared_profile.cache_clear()
        grids = [load_config(name).microgrid() for name in ("casestudy-single", "casestudy-superposed")]
        assert len(parsed) == len(set(parsed)) == 4
        assert grids[0].profiles.demand.tobytes() == grids[1].profiles.demand.tobytes()

    def test_shared_profile_values_are_read_only(self):
        cfg = load_config("tiny")
        values = cfg._profile(cfg.pv_profile)
        assert values is load_config("tiny-superposed")._profile(cfg.pv_profile)
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 1.0


class TestConfigMemo:
    def test_a_repeat_load_does_not_parse_the_yaml_again(self, tmp_path, monkeypatch):
        p = write_workspace(tmp_path)
        parsed = []
        real = yaml.load
        monkeypatch.setattr(yaml, "load", lambda *args, **kwargs: parsed.append(args) or real(*args, **kwargs))
        first, second = load_config(str(p)), load_config(str(p))
        assert len(parsed) == 1
        assert first is not second
        assert (first.config_hash, first.planning_hash) == (second.config_hash, second.planning_hash)

    def test_editing_the_yaml_changes_the_hash(self, tmp_path):
        p = write_workspace(tmp_path)
        before = load_config(str(p))
        doc = base_doc()
        doc["horizon"] = 3
        p.write_text(yaml.safe_dump(doc))
        after = load_config(str(p))
        assert (before.horizon, after.horizon) == (2, 3)
        assert before.config_hash != after.config_hash

    def test_editing_a_profile_rebuilds_the_config_once(self, tmp_path, monkeypatch):
        p = write_workspace(tmp_path)
        before = load_config(str(p))
        (tmp_path / "sun.csv").write_text(constant_profile(2.0))
        parsed = []
        real = yaml.load
        monkeypatch.setattr(yaml, "load", lambda *args, **kwargs: parsed.append(args) or real(*args, **kwargs))
        after, again = load_config(str(p)), load_config(str(p))
        assert len(parsed) == 1
        assert before.config_hash != after.config_hash == again.config_hash
        assert after.microgrid().profiles.pv.max() == pytest.approx(5.0)

    def test_one_text_in_two_directories_gives_two_configs(self, tmp_path, monkeypatch):
        for name, value in (("a", 1.0), ("b", 2.0)):
            (tmp_path / name).mkdir()
            write_workspace(tmp_path / name, profiles={"unitload": value, "sun": 1.0})
        assert (tmp_path / "a" / "config.yaml").read_text() == (tmp_path / "b" / "config.yaml").read_text()
        configs = []
        for name in "ab":
            monkeypatch.chdir(tmp_path / name)
            configs.append(load_config("config.yaml"))
        a, b = configs
        assert (a.profiles_dir, b.profiles_dir) == ((tmp_path / "a").resolve(), (tmp_path / "b").resolve())
        assert a.config_hash != b.config_hash

    def test_a_failed_load_fails_again(self, tmp_path):
        doc = base_doc()
        doc["horizon"] = 0
        p = write_workspace(tmp_path, doc)
        for _ in range(2):
            with pytest.raises(ConfigError, match="horizon must be >= 1"):
                load_config(str(p))

    def test_a_profile_removed_after_a_load_fails_every_later_load(self, tmp_path):
        p = write_workspace(tmp_path)
        load_config(str(p))
        (tmp_path / "sun.csv").unlink()
        for _ in range(2):
            with pytest.raises(ConfigError, match="profile 'sun' not found"):
                load_config(str(p))

    def test_an_attribute_set_on_one_load_does_not_reach_the_next(self):
        first = load_config("tiny")
        first.horizon, first.config_hash = 99, "edited"
        second = load_config("tiny")
        assert (second.horizon, second.config_hash) == (3, BUNDLED_HASHES["tiny"][0])

    def test_the_memo_stays_within_its_bound(self, tmp_path):
        p = write_workspace(tmp_path)
        for horizon in range(1, config_module._CONFIGS_MAX + 3):
            doc = base_doc()
            doc["horizon"] = horizon
            p.write_text(yaml.safe_dump(doc))
            assert load_config(str(p)).horizon == horizon
        assert len(config_module._CONFIGS) == config_module._CONFIGS_MAX


BUNDLED_HASHES = {
    "tiny": ("1a840132ac91eaf5b0a5c6442a18a6ca0985e46475ee42e718c3db27bd0645de",
             "9fc646cf7326106e25b485ea97eaa580c4dab726ff83b1d05c0b17895d0769fe"),
    "tiny-superposed": ("27d566e607338caf02e1b8a5c4a09ecf3752b3a9368d5ef6d51a797982cf2135",
                        "9fc646cf7326106e25b485ea97eaa580c4dab726ff83b1d05c0b17895d0769fe"),
    "casestudy-single": ("f805c9c23dd2ff87eb199767bb458d4ddb20b15215c72f58a43ad0c43947d663",
                         "5bbf72123af60cd329441d26c7ad125bd4265e2db75d4a3e7f5dfcd451d527ec"),
    "casestudy-superposed": ("acb58c56a11ce35a82e81564345d71f2d09ed8f1091b1530489625bd5f6f2dc1",
                             "5bbf72123af60cd329441d26c7ad125bd4265e2db75d4a3e7f5dfcd451d527ec"),
}


def full_doc():
    """`base_doc` with every optional key written out."""
    doc = base_doc()
    doc["outage_model"]["shift_hours"] = 1.0
    doc["training"] = {"episodes": 5, "alpha": [0.5, 0.1], "epsilon": [1.0, 0.5], "gamma": 0.9}
    doc["metamodel"] = {"replications": 4, "path": "mm.csv"}
    return doc


def leaf_paths(doc, prefix=()):
    """Key paths of every value in a config document that is not a mapping
    or a list of mappings."""
    for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
        if isinstance(value, dict) or (isinstance(value, list) and isinstance(value[0], dict)):
            yield from leaf_paths(value, prefix + (key,))
        else:
            yield prefix + (key,)


# (key path, new value, whether planning_hash changes too); the outage
# model's type is edited by replacing the block with a superposed twin
HASHED_EDITS = [
    (("horizon",), 3, True),
    (("period_length_years",), 2.0, True),
    (("levels_kwh",), [100.0, 200.0], True),
    (("units", 0, "name"), "other", True),
    (("units", 0, "price_ladder"), [300.0, 150.0], True),
    (("units", 0, "advance_prob"), 0.6, True),
    (("units", 0, "round_trip_efficiency"), 0.95, True),
    (("units", 0, "usable_fraction"), 0.7, True),
    (("units", 0, "power_limit_kw_per_kwh"), 0.6, True),
    (("outage_model", "type"),
     {"type": "superposed", "lambda1": 1.0, "lambda2": 0.0, "kappa1": 2.0, "kappa2": 2.0, "shift_hours": 1.0}, False),
    (("outage_model", "lambda"), 1.5, False),
    (("outage_model", "kappa"), 3.0, False),
    (("outage_model", "shift_hours"), 2.0, False),
    (("facilities", 0, "name"), "other", True),
    (("facilities", 0, "count"), 3, True),
    (("facilities", 0, "peak_load_kw"), 11.0, True),
    (("facilities", 0, "value_of_lost_load"), 8.0, True),
    (("facilities", 0, "profile"), "unitload2", True),
    (("pv", "profile"), "sun2", True),
    (("pv", "peak_kw"), 6.0, True),
    (("training", "episodes"), 6, False),
    (("training", "alpha"), [0.5, 0.2], False),
    (("training", "epsilon"), [1.0, 0.4], False),
    (("training", "gamma"), 0.8, False),
    (("metamodel", "replications"), 5, False),
]
UNHASHED_KEYS = {("profiles_dir",), ("metamodel", "path")}


def load_in(directory, doc):
    """Load `doc` from its own directory, beside identical copies of every
    profile it may name."""
    directory.mkdir()
    return load_config(str(write_workspace(directory, doc, dict.fromkeys(["unitload", "sun", "unitload2", "sun2"], 1.0))))


class TestConfigIdentity:
    @pytest.mark.parametrize("name", BUNDLED_CONFIGS)
    def test_bundled_hashes_are_pinned(self, name):
        cfg = load_config(name)
        assert (cfg.config_hash, cfg.planning_hash) == BUNDLED_HASHES[name]

    def test_every_key_but_the_unhashed_ones_has_an_edit(self):
        assert {path for path, _, _ in HASHED_EDITS} == set(leaf_paths(full_doc())) - UNHASHED_KEYS

    @pytest.mark.parametrize("path, value, planning", HASHED_EDITS, ids=lambda x: "/".join(map(str, x))
                             if isinstance(x, tuple) else None)
    def test_editing_a_key_changes_the_hash(self, tmp_path, path, value, planning):
        before = load_in(tmp_path / "before", full_doc())
        doc = full_doc()
        target = doc
        for key in path[:-2 if path[-1] == "type" else -1]:
            target = target[key]
        target[path[-2] if path[-1] == "type" else path[-1]] = value
        after = load_in(tmp_path / "after", doc)
        assert after.config_hash != before.config_hash
        assert (after.planning_hash != before.planning_hash) == planning

    @pytest.mark.parametrize("edit", [lambda d: d["metamodel"].update(path="elsewhere/mm.csv"),
                                      lambda d: d.update(profiles_dir="../copies"),
                                      lambda d: d["outage_model"].pop("shift_hours"),
                                      lambda d: d.update(training={})],
                             ids=["metamodel-path", "profiles_dir", "shift_hours-default", "training-defaults"])
    def test_unhashed_keys_and_spelled_out_defaults_change_neither_hash(self, tmp_path, edit):
        doc = full_doc()
        doc["training"] = {"episodes": 1_000_000, "alpha": [0.5, 0.01], "epsilon": [1.0, 0.05], "gamma": 1.0}
        before = load_in(tmp_path / "before", doc)
        edit(doc)
        (tmp_path / "copies").mkdir()
        write_workspace(tmp_path / "copies")
        after = load_in(tmp_path / "after", doc)
        assert (after.config_hash, after.planning_hash) == (before.config_hash, before.planning_hash)

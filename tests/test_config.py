"""YAML config parsing, identity hashes, profiles, and bundled examples."""

import yaml
import pytest

from outageplan.config import (
    BUNDLED_CONFIGS,
    bundled_config_path,
    load_config,
    outage_model_from_config,
    outage_model_to_config,
    read_profile_csv,
)
from outageplan.errors import ConfigError
from outageplan.outage import HOURS_PER_YEAR, SingleModel, SuperposedModel
from outageplan.simulate import build_metamodel


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


class TestProfileCsv:
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
        assert cfg.unit_names() == ("li-ion", "lead-acid", "vanadium-redox", "flywheel")
        assert isinstance(cfg.outage_model, SingleModel)
        assert isinstance(load_config("casestudy-superposed").outage_model, SuperposedModel)


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

"""Price trajectories, greedy rollouts, trace comparison, and plot data."""

import json

import numpy as np
import pytest

from outageplan.errors import ArtifactMismatchError, ConfigError
from outageplan.evaluate import (
    PolicyTrace,
    PriceTrajectory,
    compare,
    emit_duration_plot_data,
    rollout,
    write_plot_csv,
)
from outageplan.mdp import PlanningEnv, PriceChain, UnitCatalogEntry
from outageplan.outage import SingleModel, SuperposedModel, duration_pmf
from outageplan.simulate import StorageUnitSpec
from outageplan.solver import QTable


def make_env():
    catalog = (
        UnitCatalogEntry(
            storage=StorageUnitSpec(
                name="alpha", round_trip_efficiency=0.9, usable_fraction=0.9, power_limit=0.5
            ),
            chain=PriceChain(values=(400.0, 290.0), advance_prob=0.7),
        ),
        UnitCatalogEntry(
            storage=StorageUnitSpec(
                name="beta", round_trip_efficiency=0.8, usable_fraction=0.6, power_limit=0.25
            ),
            chain=PriceChain(values=(150.0, 95.0), advance_prob=0.6),
        ),
    )
    return PlanningEnv(
        horizon=3,
        catalog=catalog,
        levels_kwh=(200.0, 500.0),
        outage_model=SingleModel(rate=3.0, duration_rate=4.0),
    )


def write_trajectory(tmp_path, body):
    p = tmp_path / "traj.csv"
    p.write_text(body)
    return p


GOOD_TRAJECTORY = "unit,p1,p2,p3\nalpha,400,290,290\nbeta,150,95,95\n"


def scripted_qtable(env, wanted):
    """QTable whose greedy action is forced at the given states.

    wanted maps (period, price indices, sorted installs) -> action index;
    everywhere else the values row stays zero, so do-nothing wins the
    first-maximum tie-break.
    """
    codec = env.codec
    values = np.zeros((codec.n_states, codec.n_actions))
    for (t, idx, installs), action_idx in wanted.items():
        values[codec.row_base[t, codec.price_combo(idx)] + codec.cap_sets.index(installs), action_idx] = 1.0
    return QTable(
        state_codes=codec.state_codes.copy(),
        values=values,
        visits=np.zeros_like(values, dtype=np.int64),
        action_labels=env.action_labels,
        config_hash="cfg",
        schedule={},
        seed=0,
        codec_meta={},
    )


class TestPriceTrajectory:
    def test_parse_and_indices(self, tmp_path):
        env = make_env()
        traj = PriceTrajectory.from_csv(write_trajectory(tmp_path, GOOD_TRAJECTORY))
        assert traj.units == ("alpha", "beta")
        assert traj.indices_for(env) == [(0, 0), (1, 1), (1, 1)]

    def test_header_enforced(self, tmp_path):
        p = write_trajectory(tmp_path, "name,a,b\nalpha,1,2\n")
        with pytest.raises(ConfigError, match="header"):
            PriceTrajectory.from_csv(p)

    @pytest.mark.parametrize("row", ["li-ion,1", "li-ion,1,2,3"])
    def test_row_width_must_match_header(self, tmp_path, row):
        p = write_trajectory(tmp_path, f"unit,p1,p2\n{row}\n")
        with pytest.raises(ConfigError, match=f"price row .*'li-ion'.* the header has 2 periods"):
            PriceTrajectory.from_csv(p)

    def test_unit_set_must_match(self, tmp_path):
        env = make_env()
        p = write_trajectory(tmp_path, "unit,p1,p2,p3\nalpha,400,290,290\ngamma,150,95,95\n")
        with pytest.raises(ConfigError, match="do not match catalog"):
            PriceTrajectory.from_csv(p).indices_for(env)

    def test_period_count_must_match(self, tmp_path):
        env = make_env()
        p = write_trajectory(tmp_path, "unit,p1,p2\nalpha,400,290\nbeta,150,95\n")
        with pytest.raises(ConfigError, match="planning horizon"):
            PriceTrajectory.from_csv(p).indices_for(env)

    def test_price_must_sit_on_ladder(self, tmp_path):
        env = make_env()
        p = write_trajectory(tmp_path, "unit,p1,p2,p3\nalpha,400,300,290\nbeta,150,95,95\n")
        with pytest.raises(ConfigError, match="not on the ladder"):
            PriceTrajectory.from_csv(p).indices_for(env)

    def test_must_start_at_ladder_top(self, tmp_path):
        env = make_env()
        p = write_trajectory(tmp_path, "unit,p1,p2,p3\nalpha,290,290,290\nbeta,150,95,95\n")
        with pytest.raises(ConfigError, match="start at the top"):
            PriceTrajectory.from_csv(p).indices_for(env)

    def test_prices_never_move_back_up(self, tmp_path):
        env = make_env()
        p = write_trajectory(tmp_path, "unit,p1,p2,p3\nalpha,400,290,400\nbeta,150,95,95\n")
        with pytest.raises(ConfigError, match="back up the ladder"):
            PriceTrajectory.from_csv(p).indices_for(env)

    def test_advance_bounded_by_one_rung_per_period(self, tmp_path):
        catalog = (
            UnitCatalogEntry(
                storage=StorageUnitSpec(
                    name="alpha", round_trip_efficiency=1.0, usable_fraction=1.0, power_limit=1.0
                ),
                chain=PriceChain(values=(400.0, 290.0, 100.0), advance_prob=0.7),
            ),
        )
        env = PlanningEnv(horizon=3, catalog=catalog, levels_kwh=(200.0,))
        p = write_trajectory(tmp_path, "unit,p1,p2,p3\nalpha,400,100,100\n")
        with pytest.raises(ConfigError, match="unreachable by period 2"):
            PriceTrajectory.from_csv(p).indices_for(env)


class TestRollout:
    def test_scripted_policy_trace(self, tmp_path):
        env = make_env()
        traj = PriceTrajectory.from_csv(write_trajectory(tmp_path, GOOD_TRAJECTORY))
        wanted = {
            (0, (0, 0), ()): 3,  # install beta 200
            (1, (1, 1), (2,)): 2,  # install alpha 500
        }
        trace = rollout(scripted_qtable(env, wanted), env, traj, config_hash="c", planning_hash="p")
        assert [r.action for r in trace.rows] == [
            "install beta 200 kWh",
            "install alpha 500 kWh",
            "do-nothing",
        ]
        assert [r.state for r in trace.rows] == [
            (0, 400, 150, 0, 0),
            (1, 290, 95, 0, 200),
            (2, 290, 95, 500, 200),
        ]
        assert trace.totals == {
            "total_kwh": 700.0,
            "first_investment_period": 1,
            "mix_kwh": {"alpha": 500.0, "beta": 200.0},
        }
        assert trace.rows[0].action_unit == "beta"
        assert trace.rows[0].action_level_kwh == 200.0
        assert trace.rows[2].action_unit is None
        assert trace.outage_model["type"] == "single"
        assert trace.trajectory == {"alpha": [400.0, 290.0, 290.0], "beta": [150.0, 95.0, 95.0]}

    def test_mix_is_the_final_capacity(self, tmp_path):
        # 0.2 + 0.7 + 0.1 in action order is 0.9999999999999999; the capacity
        # of the final install multiset sums 0.1 + 0.2 + 0.7 == 1.0
        env = PlanningEnv(
            horizon=3,
            catalog=(
                UnitCatalogEntry(
                    storage=StorageUnitSpec(
                        name="u", round_trip_efficiency=1.0, usable_fraction=1.0, power_limit=1.0
                    ),
                    chain=PriceChain(values=(100.0,), advance_prob=0.5),
                ),
            ),
            levels_kwh=(0.1, 0.2, 0.7),
        )
        traj = PriceTrajectory.from_csv(write_trajectory(tmp_path, "unit,p1,p2,p3\nu,100,100,100\n"))
        wanted = {
            (0, (0,), ()): 2,
            (1, (0,), (1,)): 3,
            (2, (0,), (1, 2)): 1,
        }
        trace = rollout(scripted_qtable(env, wanted), env, traj, config_hash="c", planning_hash="p")
        final = env.capacity_of(env.codec.cap_sets.index((0, 1, 2)))
        assert trace.totals["mix_kwh"] == final
        assert trace.totals["total_kwh"] == final["u"] == 1.0

    def test_never_investing(self, tmp_path):
        env = make_env()
        traj = PriceTrajectory.from_csv(write_trajectory(tmp_path, GOOD_TRAJECTORY))
        trace = rollout(scripted_qtable(env, {}), env, traj, config_hash="c", planning_hash="p")
        assert trace.totals["total_kwh"] == 0.0
        assert trace.totals["first_investment_period"] is None
        assert all(r.action == "do-nothing" for r in trace.rows)

    def test_state_missing_from_the_table(self, tmp_path):
        env = make_env()
        traj = PriceTrajectory.from_csv(write_trajectory(tmp_path, GOOD_TRAJECTORY))
        full = scripted_qtable(env, {})
        # drop the do-nothing path's second state: prices (1, 1), nothing installed
        keep = np.ones(len(full.state_codes), dtype=bool)
        keep[env.codec.row_base[1, env.codec.price_combo((1, 1))]] = False
        table = QTable(full.state_codes[keep], full.values[keep], full.visits[keep], full.action_labels, "cfg", {}, 0, {})
        with pytest.raises(KeyError, match="not a reachable non-terminal state"):
            rollout(table, env, traj, config_hash="c", planning_hash="p")

    def test_a_table_on_the_codec_rows_is_read_without_a_search(self, tmp_path, monkeypatch):
        env = make_env()
        traj = PriceTrajectory.from_csv(write_trajectory(tmp_path, GOOD_TRAJECTORY))
        scripted = scripted_qtable(env, {(0, (0, 0), ()): 3, (1, (1, 1), (2,)): 2})
        want = rollout(scripted, env, traj, config_hash="c", planning_hash="p")
        scripted.save(tmp_path / "q.bin")
        loaded = QTable.load(tmp_path / "q.bin")

        def no_search(self, code):
            raise AssertionError(f"searched the table for state code {code}")

        monkeypatch.setattr(QTable, "index_of", no_search)
        assert rollout(loaded, env, traj, config_hash="c", planning_hash="p") == want

    def test_a_table_laid_out_otherwise_is_searched(self, tmp_path):
        env = make_env()
        codec = env.codec
        traj = PriceTrajectory.from_csv(write_trajectory(tmp_path, GOOD_TRAJECTORY))
        full = scripted_qtable(env, {(0, (0, 0), ()): 3, (1, (1, 1), (2,)): 2})
        # drop a period-1 state off the rollout's path: every later row moves up one
        keep = np.ones(len(full.state_codes), dtype=bool)
        keep[codec.row_base[1, codec.price_combo((0, 0))]] = False
        table = QTable(full.state_codes[keep], full.values[keep], full.visits[keep], full.action_labels, "cfg", {}, 0, {})
        trace = rollout(table, env, traj, config_hash="c", planning_hash="p")
        assert trace == rollout(full, env, traj, config_hash="c", planning_hash="p")
        assert [r.action for r in trace.rows] == ["install beta 200 kWh", "install alpha 500 kWh", "do-nothing"]

    def test_a_state_without_a_finite_maximum_is_refused(self, tmp_path):
        env = make_env()
        traj = PriceTrajectory.from_csv(write_trajectory(tmp_path, GOOD_TRAJECTORY))
        table = scripted_qtable(env, {})
        # the do-nothing path's second state, named by its table row
        row = int(env.codec.row_base[1, env.codec.price_combo((1, 1))])
        table.values[row] = np.nan
        with pytest.raises(ValueError, match=f"^row {row} of the action values has the non-finite maximum nan$"):
            rollout(table, env, traj, config_hash="c", planning_hash="p")

    def test_save_load_round_trip(self, tmp_path):
        env = make_env()
        traj = PriceTrajectory.from_csv(write_trajectory(tmp_path, GOOD_TRAJECTORY))
        trace = rollout(
            scripted_qtable(env, {(0, (0, 0), ()): 1}),
            env,
            traj,
            config_hash="c",
            planning_hash="p",
            exact_expected_return=-12.5,
        )
        p = tmp_path / "trace.json"
        trace.save(p)
        loaded = PolicyTrace.load(p)
        assert loaded == trace
        # byte determinism of the artifact
        p2 = tmp_path / "trace2.json"
        loaded.save(p2)
        assert p.read_bytes() == p2.read_bytes()

    def test_load_rejects_foreign_json(self, tmp_path):
        p = tmp_path / "x.json"
        p.write_text(json.dumps({"format": "other"}))
        with pytest.raises(ArtifactMismatchError, match="not a policy trace"):
            PolicyTrace.load(p)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: [1, 2], "not a policy trace file"),
            (lambda doc: {"format": "outageplan-trace", "rows": 5}, "field 'config_hash' must be a string, got nothing"),
            (lambda doc: {**doc, "rows": 5}, "field 'rows' must be a list, got an integer"),
            (lambda doc: {**doc, "rows": [{k: v for k, v in doc["rows"][0].items() if k != "state"}]},
             r"rows\[0\]: field 'state' must be a list, got nothing"),
            (lambda doc: {**doc, "totals": {**doc["totals"], "total_kwh": "700"}},
             "totals: field 'total_kwh' must be an integer or a number, got a string"),
            (lambda doc: {**doc, "totals": {**doc["totals"], "mix_kwh": {"alpha": None}}},
             "totals.mix_kwh: field 'alpha' must be an integer or a number, got null"),
        ],
    )
    def test_load_names_the_malformed_field(self, tmp_path, edit, message):
        env = make_env()
        traj = PriceTrajectory.from_csv(write_trajectory(tmp_path, GOOD_TRAJECTORY))
        trace = rollout(scripted_qtable(env, {}), env, traj, config_hash="c", planning_hash="p")
        p = tmp_path / "trace.json"
        p.write_text(json.dumps(edit(trace.to_doc())))
        with pytest.raises(ArtifactMismatchError, match=message):
            PolicyTrace.load(p)


class TestCompare:
    def _trace_pair(self, tmp_path, first_b_invests=True):
        env = make_env()
        traj = PriceTrajectory.from_csv(write_trajectory(tmp_path, GOOD_TRAJECTORY))
        a = rollout(
            scripted_qtable(
                env,
                {
                    (0, (0, 0), ()): 3,
                    (1, (1, 1), (2,)): 2,
                },
            ),
            env,
            traj,
            config_hash="ca",
            planning_hash="p",
            exact_expected_return=-10.0,
        )
        wanted_b = {(1, (1, 1), ()): 3} if first_b_invests else {}
        b = rollout(
            scripted_qtable(env, wanted_b),
            env,
            traj,
            config_hash="cb",
            planning_hash="p",
            exact_expected_return=-4.0,
        )
        return a, b

    def test_deltas(self, tmp_path):
        a, b = self._trace_pair(tmp_path)
        report = compare(a, b, label_a="single", label_b="superposed")
        assert report.deltas["total_kwh"] == 500.0
        assert report.deltas["first_investment_period"] == 1 - 2
        assert report.deltas["mix_kwh"] == {"alpha": 500.0, "beta": 0.0}
        assert report.deltas["exact_expected_return"] == -6.0

    def test_none_first_investment_propagates(self, tmp_path):
        a, b = self._trace_pair(tmp_path, first_b_invests=False)
        report = compare(a, b)
        assert report.deltas["first_investment_period"] is None

    def test_planning_mismatch_rejected(self, tmp_path):
        a, b = self._trace_pair(tmp_path)
        b2 = PolicyTrace(
            rows=b.rows,
            config_hash=b.config_hash,
            planning_hash="different",
            outage_model=b.outage_model,
            trajectory=b.trajectory,
            totals=b.totals,
        )
        with pytest.raises(ArtifactMismatchError, match="different planning structures"):
            compare(a, b2)

    def test_trajectory_mismatch_rejected(self, tmp_path):
        a, b = self._trace_pair(tmp_path)
        other = dict(b.trajectory)
        other["alpha"] = [400.0, 400.0, 400.0]
        b2 = PolicyTrace(
            rows=b.rows,
            config_hash=b.config_hash,
            planning_hash=b.planning_hash,
            outage_model=b.outage_model,
            trajectory=other,
            totals=b.totals,
        )
        with pytest.raises(ArtifactMismatchError, match="different price trajectories"):
            compare(a, b2)

    def test_mix_units_must_match(self, tmp_path):
        a, b = self._trace_pair(tmp_path)
        mix = {k: v for k, v in b.totals["mix_kwh"].items() if k != "beta"}
        b = PolicyTrace(**{**vars(b), "totals": dict(b.totals, mix_kwh=mix)})
        with pytest.raises(ArtifactMismatchError, match="trace y has no unit 'beta' in totals.mix_kwh, which trace x lists"):
            compare(a, b, label_a="x", label_b="y")
        with pytest.raises(ArtifactMismatchError, match="trace x has no unit 'beta' in totals.mix_kwh, which trace y lists"):
            compare(b, a, label_a="x", label_b="y")

    def test_labels_must_differ(self, tmp_path):
        a, b = self._trace_pair(tmp_path)
        with pytest.raises(ValueError, match="labels must differ"):
            compare(a, b, label_a="x", label_b="x")

    @pytest.mark.parametrize("labels", [("deltas", "b"), ("a", "format"), ("labels", "b"), ("a", "version")])
    def test_labels_must_not_be_document_keys(self, tmp_path, labels):
        a, b = self._trace_pair(tmp_path)
        with pytest.raises(ValueError, match="is a key of the comparison document"):
            compare(a, b, *labels)

    def test_report_document_and_text(self, tmp_path):
        a, b = self._trace_pair(tmp_path)
        report = compare(a, b, label_a="single", label_b="superposed")
        doc = report.to_doc()
        assert doc["labels"] == ["single", "superposed"]
        assert doc["single"]["totals"]["total_kwh"] == 700.0
        assert doc["superposed"]["totals"]["total_kwh"] == 200.0
        text = report.format_text()
        assert "delta total kWh (single - superposed): 500" in text
        assert "delta first investment period: -1" in text
        assert "period 1:" in text
        p = tmp_path / "cmp.json"
        report.save(p)
        assert json.loads(p.read_text())["deltas"]["total_kwh"] == 500.0


class TestPlotData:
    def test_columns_match_exact_pmf(self):
        single = SingleModel(rate=1.2, duration_rate=4.0)
        superposed = SuperposedModel(
            regular_rate=1.0, severe_rate=0.2, regular_duration_rate=0.636, severe_duration_rate=21.55
        )
        rows = emit_duration_plot_data((single, superposed), max_hours=40.0)
        assert rows[0][0] == 1.0
        assert rows[-1][0] == 40.0
        assert len(rows) == 40
        for t, pmf_s, pmf_m in rows:
            assert pmf_s == duration_pmf(single, t)
            assert pmf_m == duration_pmf(superposed, t)

    def test_zero_severe_rate_collapses_to_single(self):
        single = SingleModel(rate=2.0, duration_rate=3.0)
        collapsed = SuperposedModel(
            regular_rate=2.0, severe_rate=0.0, regular_duration_rate=3.0, severe_duration_rate=3.0
        )
        rows = emit_duration_plot_data((single, collapsed), max_hours=25.0)
        for _, pmf_s, pmf_m in rows:
            assert pmf_m == pytest.approx(pmf_s, abs=1e-15)

    def test_pair_order_enforced(self):
        single = SingleModel(rate=1.0, duration_rate=1.0)
        superposed = SuperposedModel(
            regular_rate=1.0, severe_rate=0.1, regular_duration_rate=1.0, severe_duration_rate=5.0
        )
        with pytest.raises(ConfigError, match="expected .single, superposed."):
            emit_duration_plot_data((superposed, single), max_hours=10.0)

    def test_shift_must_match(self):
        single = SingleModel(rate=1.0, duration_rate=1.0, shift=2.0)
        superposed = SuperposedModel(
            regular_rate=1.0, severe_rate=0.1, regular_duration_rate=1.0, severe_duration_rate=5.0
        )
        with pytest.raises(ConfigError, match="share the duration shift"):
            emit_duration_plot_data((single, superposed), max_hours=10.0)

    def test_max_hours_bound(self):
        single = SingleModel(rate=1.0, duration_rate=1.0)
        superposed = SuperposedModel(
            regular_rate=1.0, severe_rate=0.1, regular_duration_rate=1.0, severe_duration_rate=5.0
        )
        with pytest.raises(ConfigError, match="below the minimum duration"):
            emit_duration_plot_data((single, superposed), max_hours=0.5)

    def test_csv_round_trip(self, tmp_path):
        single = SingleModel(rate=1.0, duration_rate=2.0)
        superposed = SuperposedModel(
            regular_rate=1.0, severe_rate=0.5, regular_duration_rate=1.0, severe_duration_rate=6.0
        )
        rows = emit_duration_plot_data((single, superposed), max_hours=12.0)
        p = tmp_path / "pmf.csv"
        write_plot_csv(rows, p)
        lines = p.read_text().splitlines()
        assert lines[0] == "duration_hours,pmf_single,pmf_superposed"
        assert len(lines) == 13
        cells = lines[1].split(",")
        assert float(cells[0]) == 1.0
        assert float(cells[1]) == rows[0][1]

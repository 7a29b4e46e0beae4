"""Islanding dispatch, Monte Carlo period costs, and the cost-table metamodel."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import outageplan.simulate as sim
from outageplan.config import load_config
from outageplan.errors import ArtifactMismatchError, ConfigError
from outageplan.outage import OutageEvent, OutageKind, SingleModel, SuperposedModel
from outageplan.simulate import (
    CostTable,
    FacilityClass,
    HourlyProfiles,
    Microgrid,
    Portfolio,
    StorageUnitSpec,
    build_metamodel,
    dispatch_spans,
    expected_period_cost,
    merge_events,
    reachable_portfolios,
    simulate_outage,
)

H = 8760


def flat_grid(loads_and_voll, pv_kw=0.0):
    """Microgrid with constant demand per class and constant PV."""
    facilities = tuple(
        FacilityClass(name=f"c{i}", count=1, peak_load_kw=load, value_of_lost_load=voll, profile="flat")
        for i, (load, voll) in enumerate(loads_and_voll)
    )
    demand = np.array([[load] * H for load, _ in loads_and_voll], dtype=np.float64)
    pv = np.full(H, pv_kw)
    return Microgrid(facilities=facilities, profiles=HourlyProfiles(demand=demand, pv=pv))


def one_unit(deliverable_kwh, power_cap_kw):
    """A spec/portfolio pair whose deliverable energy and power cap are exact."""
    # usable_fraction=1, rte=1 makes installed == deliverable; power_limit
    # converts installed kWh into the requested power cap.
    spec = StorageUnitSpec(
        name="u",
        round_trip_efficiency=1.0,
        usable_fraction=1.0,
        power_limit=power_cap_kw / deliverable_kwh if deliverable_kwh else 1.0,
    )
    portfolio = Portfolio(units=("u",), kwh=(deliverable_kwh,))
    return (spec,), portfolio


def dispatch_span_oracle(
    start_hour, n_hours, demand, pv, class_order, voll, deliverable, power_cap, unserved_out
):
    """Scalar reference for one span and one portfolio: the hour-by-hour loop
    that `dispatch_spans` must reproduce bit for bit. `deliverable` is consumed
    in place; unserved kWh accumulate per class into `unserved_out`."""
    n_classes = demand.shape[0]
    n_units = deliverable.shape[0]
    cost = 0.0
    for h in range(n_hours):
        hh = (start_hour + h) % 8760
        total_load = 0.0
        for ci in range(n_classes):
            total_load += demand[ci, hh]
        pool = pv[hh]
        deficit = total_load - pool
        if deficit > 0.0:
            for u in range(n_units):
                draw = power_cap[u]
                if draw > deliverable[u]:
                    draw = deliverable[u]
                if draw > deficit:
                    draw = deficit
                deliverable[u] -= draw
                pool += draw
                deficit -= draw
                if deficit <= 0.0:
                    break
        for k in range(n_classes):
            ci = class_order[k]
            load = demand[ci, hh]
            served = load
            if served > pool:
                served = pool
            pool -= served
            short = load - served
            unserved_out[ci] += short
            cost += short * voll[ci]
    return cost


def mean_stderr_oracle(costs):
    """The per-portfolio estimator the vectorised one replaced: mean and
    standard error of one portfolio's 1-D per-replication costs."""
    mean = float(np.mean(costs))
    n = len(costs)
    stderr = float(np.std(costs, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return mean, stderr


def oracle_arrays(portfolio, specs):
    deliverable = np.array([s.deliverable_kwh(k) for s, k in zip(specs, portfolio.kwh)])
    power_cap = np.array([s.power_cap_kw(k) for s, k in zip(specs, portfolio.kwh)])
    return deliverable, power_cap


@st.composite
def dispatch_cases(draw):
    """A random microgrid, storage catalog, portfolios and outage spans."""
    n_classes = draw(st.integers(1, 3))
    # a small VoLL menu makes ties between classes common
    volls = draw(st.lists(st.sampled_from([2.0, 6.0, 18.0, 60.0]), min_size=n_classes, max_size=n_classes))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    demand = rng.uniform(0.0, 40.0, (n_classes, H))
    # PV up to several times the load, so that in some hours PV alone covers it
    pv = rng.uniform(0.0, 1.0, H) * draw(st.sampled_from([0.0, 20.0, 60.0, 250.0]))
    facilities = tuple(
        FacilityClass(name=f"c{i}", count=1, peak_load_kw=40.0, value_of_lost_load=v, profile="flat")
        for i, v in enumerate(volls)
    )
    grid = Microgrid(facilities=facilities, profiles=HourlyProfiles(demand=demand, pv=pv))
    n_units = draw(st.integers(1, 3))
    specs = tuple(
        StorageUnitSpec(
            name=f"u{i}",
            round_trip_efficiency=draw(st.floats(0.5, 1.0)),
            usable_fraction=draw(st.floats(0.3, 1.0)),
            # 0.02 kW/kWh leaves even 1000 kWh units short of the load: power-limited
            power_limit=draw(st.sampled_from([0.02, 0.25, 1.0, 6.0])),
        )
        for i in range(n_units)
    )
    sizes = st.sampled_from([0.0, 10.0, 37.5, 250.0, 1000.0])
    portfolios = [
        Portfolio(units=tuple(s.name for s in specs), kwh=tuple(kwh))
        for kwh in draw(st.lists(st.lists(sizes, min_size=n_units, max_size=n_units), min_size=1, max_size=5))
    ]
    # starts near the year end wrap past hour 8759
    start = st.one_of(st.integers(H - 20, H - 1), st.integers(0, H - 1))
    starts = draw(st.lists(start, min_size=1, max_size=6))
    lengths = draw(st.lists(st.integers(0, 30), min_size=len(starts), max_size=len(starts)))
    return grid, specs, portfolios, starts, lengths


class TestSpecs:
    def test_deliverable_and_power(self):
        s = StorageUnitSpec(name="x", round_trip_efficiency=0.9, usable_fraction=0.8, power_limit=0.5)
        assert s.deliverable_kwh(1000.0) == pytest.approx(720.0)
        assert s.power_cap_kw(1000.0) == pytest.approx(500.0)

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="round_trip_efficiency"):
            StorageUnitSpec(name="x", round_trip_efficiency=1.5, usable_fraction=1.0, power_limit=1.0)
        with pytest.raises(ValueError, match="usable_fraction"):
            StorageUnitSpec(name="x", round_trip_efficiency=1.0, usable_fraction=0.0, power_limit=1.0)
        with pytest.raises(ValueError, match="power_limit"):
            StorageUnitSpec(name="x", round_trip_efficiency=1.0, usable_fraction=1.0, power_limit=0.0)

    def test_facility_validation(self):
        with pytest.raises(ValueError, match="count must be > 0"):
            FacilityClass(name="f", count=0, peak_load_kw=1.0, value_of_lost_load=1.0, profile="flat")

    def test_portfolio_mapping_round_trip(self):
        p = Portfolio.from_mapping(("a", "b"), {"b": 500.0})
        assert p.kwh == (0.0, 500.0)
        assert p.as_mapping() == {"a": 0.0, "b": 500.0}
        assert p.total_kwh == 500.0

    def test_portfolio_rejects_unknown_unit(self):
        with pytest.raises(ConfigError, match="unknown storage units"):
            Portfolio.from_mapping(("a",), {"zz": 1.0})

    def test_dispatch_order_sorts_by_voll_then_declaration(self):
        grid = flat_grid([(1.0, 5.0), (1.0, 9.0), (1.0, 5.0)])
        assert list(grid.dispatch_order()) == [1, 0, 2]

    def test_microgrid_requires_matching_rows(self):
        facilities = (
            FacilityClass(name="f", count=1, peak_load_kw=1.0, value_of_lost_load=1.0, profile="flat"),
        )
        profiles = HourlyProfiles(demand=np.ones((2, H)), pv=np.zeros(H))
        with pytest.raises(ValueError, match="one demand row per facility class"):
            Microgrid(facilities=facilities, profiles=profiles)


class TestDispatch:
    def test_hand_computed_two_hours(self):
        # class A: 10 kW @ VoLL 10, class B: 6 kW @ VoLL 2, PV 4 kW flat,
        # 5 kWh deliverable storage with a loose power cap.
        grid = flat_grid([(10.0, 10.0), (6.0, 2.0)], pv_kw=4.0)
        specs, pf = one_unit(5.0, 100.0)
        event = OutageEvent(start=0.0, kind=OutageKind.REGULAR, duration=2.0)
        report = simulate_outage(event, pf, specs, grid, start_hour=0)
        # hour 1: pool 4+5=9 -> A gets 9 of 10, B gets 0: cost 1*10 + 6*2 = 22
        # hour 2: pool 4 -> A gets 4 of 10, B gets 0: cost 6*10 + 6*2 = 72
        assert report.cost == pytest.approx(94.0)
        assert report.unserved_for("c0") == pytest.approx(7.0)
        assert report.unserved_for("c1") == pytest.approx(12.0)
        assert report.outage_hours == 2

    def test_power_cap_binds(self):
        grid = flat_grid([(10.0, 10.0), (6.0, 2.0)], pv_kw=4.0)
        specs, pf = one_unit(100.0, 3.0)
        event = OutageEvent(start=0.0, kind=OutageKind.REGULAR, duration=1.0)
        report = simulate_outage(event, pf, specs, grid, start_hour=0)
        # pool 4+3=7 -> A short 3, B short 6: 3*10 + 6*2 = 42
        assert report.cost == pytest.approx(42.0)

    def test_pv_alone_covers_everything(self):
        grid = flat_grid([(10.0, 10.0)], pv_kw=12.0)
        specs, pf = one_unit(5.0, 5.0)
        event = OutageEvent(start=0.0, kind=OutageKind.REGULAR, duration=3.0)
        report = simulate_outage(event, pf, specs, grid, start_hour=100)
        assert report.cost == 0.0
        assert report.total_unserved_kwh == 0.0

    def test_higher_voll_served_first_regardless_of_declaration(self):
        # declared low-VoLL first; the pool must still go to the high-VoLL class
        grid = flat_grid([(6.0, 2.0), (10.0, 10.0)], pv_kw=4.0)
        specs, pf = one_unit(0.0, 1.0)
        event = OutageEvent(start=0.0, kind=OutageKind.REGULAR, duration=1.0)
        report = simulate_outage(event, pf, specs, grid, start_hour=0)
        assert report.unserved_for("c1") == pytest.approx(6.0)
        assert report.unserved_for("c0") == pytest.approx(6.0)
        assert report.cost == pytest.approx(6.0 * 10 + 6.0 * 2)

    def test_duration_rounds_up_to_whole_hours(self):
        grid = flat_grid([(10.0, 1.0)])
        specs, pf = one_unit(0.0, 1.0)
        event = OutageEvent(start=0.0, kind=OutageKind.REGULAR, duration=2.2)
        report = simulate_outage(event, pf, specs, grid, start_hour=0)
        assert report.outage_hours == 3
        assert report.cost == pytest.approx(30.0)

    def test_wraps_across_year_end(self):
        demand = np.zeros((1, H))
        demand[0, 8759] = 5.0
        demand[0, 0] = 7.0
        facilities = (
            FacilityClass(name="f", count=1, peak_load_kw=7.0, value_of_lost_load=2.0, profile="flat"),
        )
        grid = Microgrid(facilities=facilities, profiles=HourlyProfiles(demand=demand, pv=np.zeros(H)))
        specs, pf = one_unit(0.0, 1.0)
        event = OutageEvent(start=0.0, kind=OutageKind.REGULAR, duration=2.0)
        report = simulate_outage(event, pf, specs, grid, start_hour=8759)
        assert report.cost == pytest.approx((5.0 + 7.0) * 2.0)

    def test_storage_depletes_across_hours(self):
        grid = flat_grid([(10.0, 1.0)])
        specs, pf = one_unit(15.0, 100.0)
        event = OutageEvent(start=0.0, kind=OutageKind.REGULAR, duration=3.0)
        report = simulate_outage(event, pf, specs, grid, start_hour=0)
        # 10 + 5 kWh served from storage, then dry: unserved 5 + 10
        assert report.total_unserved_kwh == pytest.approx(15.0)
        assert report.cost == pytest.approx(15.0)

    def test_rejects_bad_start_hour(self):
        grid = flat_grid([(1.0, 1.0)])
        specs, pf = one_unit(1.0, 1.0)
        event = OutageEvent(start=0.0, kind=OutageKind.REGULAR, duration=1.0)
        with pytest.raises(ValueError, match="start_hour must be in"):
            simulate_outage(event, pf, specs, grid, start_hour=H)

    def test_unknown_unit_in_portfolio(self):
        grid = flat_grid([(1.0, 1.0)])
        specs = (StorageUnitSpec(name="u", round_trip_efficiency=1.0, usable_fraction=1.0, power_limit=1.0),)
        pf = Portfolio(units=("other",), kwh=(1.0,))
        event = OutageEvent(start=0.0, kind=OutageKind.REGULAR, duration=1.0)
        with pytest.raises(ConfigError, match="unknown storage units"):
            simulate_outage(event, pf, specs, grid, start_hour=0)


class TestDispatchParity:
    @given(case=dispatch_cases())
    @settings(max_examples=150, deadline=None)
    def test_matches_scalar_oracle_bit_for_bit(self, case):
        grid, specs, portfolios, starts, lengths = case
        demand, pv = grid.profiles.demand, grid.profiles.pv
        order, voll = grid.dispatch_order(), grid.voll()
        cost, unserved = dispatch_spans(starts, lengths, portfolios, specs, grid)
        want_cost = np.zeros((len(starts), len(portfolios)))
        want_unserved = np.zeros((len(voll), len(starts), len(portfolios)))
        for s, (start, n_hours) in enumerate(zip(starts, lengths)):
            for p, portfolio in enumerate(portfolios):
                deliverable, power_cap = oracle_arrays(portfolio, specs)
                short = np.zeros(len(voll))
                want_cost[s, p] = dispatch_span_oracle(
                    start, n_hours, demand, pv, order, voll, deliverable, power_cap, short
                )
                want_unserved[:, s, p] = short
                event = OutageEvent(start=0.0, kind=OutageKind.REGULAR, duration=float(n_hours))
                report = simulate_outage(event, portfolio, specs, grid, start_hour=start)
                got_short = np.array([kwh for _, kwh in report.unserved_kwh])
                assert got_short.tobytes() == short.tobytes()
                assert np.float64(report.cost).tobytes() == want_cost[s, p].tobytes()
        assert cost.tobytes() == want_cost.tobytes()
        assert unserved.tobytes() == want_unserved.tobytes()

    def test_metamodel_matches_scalar_oracle(self):
        # The replication totals and estimates of the scalar path: each span
        # dispatched alone from full storage, added to its replication's total
        # in span order, then the mean and standard error per portfolio.
        cfg = load_config("tiny")
        portfolios = cfg.env().reachable_portfolios()
        specs, grid = cfg.storage_specs(), cfg.microgrid()
        table = build_metamodel(
            cfg.outage_model, portfolios, specs, grid, cfg.period_length_years, replications=24, seed=5
        )
        seeds = sim._replication_seeds(np.random.Generator(np.random.PCG64(5)), 24)
        starts, lengths, offsets = sim._outage_spans(cfg.outage_model, cfg.period_length_years, seeds)
        demand, pv = grid.profiles.demand, grid.profiles.pv
        unserved_sink = np.zeros(len(grid.facilities))
        for portfolio in portfolios:
            deliverable, power_cap = oracle_arrays(portfolio, specs)
            costs = np.zeros(24)
            for r in range(24):
                total = 0.0
                for m in range(offsets[r], offsets[r + 1]):
                    total += dispatch_span_oracle(
                        starts[m], lengths[m], demand, pv, grid.dispatch_order(), grid.voll(),
                        deliverable.copy(), power_cap, unserved_sink,
                    )
                costs[r] = total
            want = np.array(mean_stderr_oracle(costs))
            assert np.array(table.entries[portfolio.kwh]).tobytes() == want.tobytes()


class TestMeanStderrParity:
    @settings(max_examples=60, deadline=None)
    @given(
        replications=st.sampled_from([1, 2, 3, 7, 8, 9, 12, 16, 17, 127, 128, 129, 256, 300]),
        portfolios=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        scale=st.sampled_from([1e-3, 1.0, 1e6]),
    )
    def test_rows_match_the_per_row_estimator(self, replications, portfolios, seed, scale):
        # heavy-tailed costs with exact zeros, like replications without outages
        rng = np.random.Generator(np.random.PCG64(seed))
        costs = rng.pareto(1.5, (portfolios, replications)) * scale
        costs[rng.random(costs.shape) < 0.3] = 0.0
        mean, stderr = sim._mean_stderr(np.ascontiguousarray(costs))
        for row, m, s in zip(costs, mean.tolist(), stderr.tolist()):
            want_m, want_s = mean_stderr_oracle(row.copy())
            assert (m.hex(), s.hex()) == (want_m.hex(), want_s.hex())


class TestMergeEvents:
    def test_disjoint_stay_apart(self):
        events = [
            OutageEvent(start=0.0, kind=OutageKind.REGULAR, duration=1.0),
            OutageEvent(start=5.0, kind=OutageKind.REGULAR, duration=2.0),
        ]
        assert merge_events(events) == [(0.0, 1.0), (5.0, 7.0)]

    def test_overlapping_merge(self):
        events = [
            OutageEvent(start=0.0, kind=OutageKind.REGULAR, duration=3.0),
            OutageEvent(start=2.0, kind=OutageKind.SEVERE, duration=4.0),
        ]
        assert merge_events(events) == [(0.0, 6.0)]

    def test_touching_merge(self):
        events = [
            OutageEvent(start=0.0, kind=OutageKind.REGULAR, duration=2.0),
            OutageEvent(start=2.0, kind=OutageKind.REGULAR, duration=1.0),
        ]
        assert merge_events(events) == [(0.0, 3.0)]

    def test_containment(self):
        events = [
            OutageEvent(start=1.0, kind=OutageKind.REGULAR, duration=10.0),
            OutageEvent(start=3.0, kind=OutageKind.REGULAR, duration=2.0),
        ]
        assert merge_events(events) == [(1.0, 11.0)]

    def test_unsorted_input(self):
        events = [
            OutageEvent(start=8.0, kind=OutageKind.REGULAR, duration=1.0),
            OutageEvent(start=0.0, kind=OutageKind.REGULAR, duration=1.0),
        ]
        assert merge_events(events) == [(0.0, 1.0), (8.0, 9.0)]

    def test_empty(self):
        assert merge_events([]) == []


class TestExpectedPeriodCost:
    def test_hand_oracle_with_patched_trace(self, monkeypatch):
        # Two overlapping events must merge into one 3-hour episode; with flat
        # profiles the calendar offset cannot change the answer.
        fixed = [
            OutageEvent(start=0.0, kind=OutageKind.REGULAR, duration=2.0),
            OutageEvent(start=1.0, kind=OutageKind.REGULAR, duration=2.0),
        ]
        monkeypatch.setattr(sim, "sample_trace", lambda model, horizon, rng: list(fixed))
        grid = flat_grid([(10.0, 10.0), (6.0, 2.0)], pv_kw=4.0)
        specs, pf = one_unit(5.0, 100.0)
        est = expected_period_cost(
            SingleModel(rate=1.0, duration_rate=1.0),
            pf,
            specs,
            grid,
            period_length_years=1.0,
            replications=8,
            rng=np.random.default_rng(0),
        )
        # merged span = 3 hours: 22 + 72 + 72 (storage dry after hour 1)
        assert est.mean == pytest.approx(22.0 + 72.0 + 72.0)
        assert est.stderr == 0.0
        assert est.replications == 8

    def test_zero_rate_means_zero_cost(self):
        grid = flat_grid([(10.0, 10.0)])
        specs, pf = one_unit(5.0, 100.0)
        est = expected_period_cost(
            SingleModel(rate=0.0, duration_rate=1.0),
            pf,
            specs,
            grid,
            period_length_years=1.0,
            replications=16,
            rng=np.random.default_rng(1),
        )
        assert est.mean == 0.0
        assert est.stderr == 0.0

    def test_deterministic_under_seed(self):
        grid = flat_grid([(10.0, 5.0)], pv_kw=2.0)
        specs, pf = one_unit(8.0, 4.0)
        model = SuperposedModel(
            regular_rate=2.0, severe_rate=0.5, regular_duration_rate=1.0, severe_duration_rate=9.0
        )
        a = expected_period_cost(model, pf, specs, grid, 1.0, 64, np.random.default_rng(123))
        b = expected_period_cost(model, pf, specs, grid, 1.0, 64, np.random.default_rng(123))
        assert a == b

    def test_stderr_shrinks_with_replications(self):
        grid = flat_grid([(10.0, 5.0)])
        specs, pf = one_unit(0.0, 1.0)
        model = SingleModel(rate=2.0, duration_rate=3.0)
        small = expected_period_cost(model, pf, specs, grid, 1.0, 100, np.random.default_rng(5))
        big = expected_period_cost(model, pf, specs, grid, 1.0, 1600, np.random.default_rng(5))
        # fourfold replication growth should shrink stderr roughly 4x
        ratio = small.stderr / big.stderr
        assert 2.5 < ratio < 6.5

    def test_single_replication_has_no_stderr(self):
        grid = flat_grid([(1.0, 1.0)])
        specs, pf = one_unit(0.0, 1.0)
        est = expected_period_cost(
            SingleModel(rate=1.0, duration_rate=1.0), pf, specs, grid, 1.0, 1, np.random.default_rng(2)
        )
        assert est.stderr == 0.0

    def test_rejects_zero_replications(self):
        grid = flat_grid([(1.0, 1.0)])
        specs, pf = one_unit(0.0, 1.0)
        with pytest.raises(ValueError, match="replications must be > 0"):
            expected_period_cost(
                SingleModel(rate=1.0, duration_rate=1.0), pf, specs, grid, 1.0, 0, np.random.default_rng(2)
            )


class TestReachablePortfolios:
    def test_small_census_by_brute_force(self):
        got = reachable_portfolios(["a", "b"], [200.0, 500.0], max_installs=3)
        # independent enumeration over install sequences
        options = [(0, 200.0), (0, 500.0), (1, 200.0), (1, 500.0)]
        seen = set()
        import itertools

        for k in range(4):
            for combo in itertools.product(range(4), repeat=k):
                kwh = [0.0, 0.0]
                for j in combo:
                    u, lv = options[j]
                    kwh[u] += lv
                seen.add(tuple(kwh))
        assert {p.kwh for p in got} == seen
        assert len(got) == 35

    def test_casestudy_census(self):
        got = reachable_portfolios(
            ["li-ion", "lead-acid", "vanadium-redox", "flywheel"],
            [250.0, 500.0, 1000.0],
            max_installs=4,
        )
        assert len(got) == 1120
        # multiset count before capacity aliasing: sum_k C(11+k, k)
        assert sum(math.comb(11 + k, k) for k in range(5)) == 1820

    def test_sorted_and_distinct(self):
        got = reachable_portfolios(["a"], [1.0, 2.0], max_installs=2)
        keys = [p.kwh for p in got]
        assert keys == sorted(set(keys))
        assert (0.0,) == keys[0]

    def test_zero_installs(self):
        got = reachable_portfolios(["a"], [1.0], max_installs=0)
        assert [p.kwh for p in got] == [(0.0,)]


class TestCostTable:
    def _table(self, tmp_path, config_hash="deadbeef"):
        grid = flat_grid([(10.0, 5.0)], pv_kw=2.0)
        specs = (StorageUnitSpec(name="u", round_trip_efficiency=1.0, usable_fraction=1.0, power_limit=1.0),)
        portfolios = reachable_portfolios(["u"], [5.0, 9.0], max_installs=2)
        return build_metamodel(
            SingleModel(rate=2.0, duration_rate=2.0),
            portfolios,
            specs,
            grid,
            period_length_years=1.0,
            replications=32,
            seed=9,
            config_hash=config_hash,
        )

    def test_lookup_and_estimate(self, tmp_path):
        table = self._table(tmp_path)
        pf = Portfolio(units=("u",), kwh=(5.0,))
        assert table.lookup(pf) == table.estimate(pf).mean
        assert table.estimate(pf).replications == 32

    def test_missing_portfolio_is_hard_error(self, tmp_path):
        table = self._table(tmp_path)
        with pytest.raises(KeyError, match="rebuild the metamodel"):
            table.lookup(Portfolio(units=("u",), kwh=(3.33,)))

    def test_unit_mismatch(self, tmp_path):
        table = self._table(tmp_path)
        with pytest.raises(ConfigError, match="do not match table units"):
            table.lookup(Portfolio(units=("w",), kwh=(5.0,)))

    def test_round_trip_and_byte_determinism(self, tmp_path):
        table = self._table(tmp_path)
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        table.save(p1)
        table.save(p2)
        assert p1.read_bytes() == p2.read_bytes()
        loaded = CostTable.load(p1, expect_config_hash="deadbeef")
        assert loaded.units == table.units
        assert loaded.entries == table.entries
        assert loaded.meta == table.meta

    def test_config_hash_mismatch(self, tmp_path):
        table = self._table(tmp_path)
        p = tmp_path / "t.csv"
        table.save(p)
        with pytest.raises(ArtifactMismatchError, match="was built for config"):
            CostTable.load(p, expect_config_hash="somethingelse")

    def test_load_rejects_foreign_file(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("cap_u,cost,stderr\n0.0,1.0,0.0\n")
        with pytest.raises(ArtifactMismatchError, match="not a cost table"):
            CostTable.load(p)

    def test_more_storage_never_costs_more(self, tmp_path):
        # one shared event set across the whole grid: dispatch with a superset
        # of deliverable energy can never serve less load
        table = self._table(tmp_path)
        costs = [table.entries[k][0] for k in sorted(table.entries)]
        assert all(a >= b - 1e-9 for a, b in zip(costs, costs[1:]))

    def test_empty_grid_rejected(self):
        grid = flat_grid([(1.0, 1.0)])
        with pytest.raises(ValueError, match="capacity grid is empty"):
            build_metamodel(
                SingleModel(rate=1.0, duration_rate=1.0),
                [],
                (),
                grid,
                1.0,
                replications=2,
                seed=0,
            )

    def test_mixed_unit_order_rejected(self):
        grid = flat_grid([(1.0, 1.0)])
        specs = (
            StorageUnitSpec(name="a", round_trip_efficiency=1.0, usable_fraction=1.0, power_limit=1.0),
            StorageUnitSpec(name="b", round_trip_efficiency=1.0, usable_fraction=1.0, power_limit=1.0),
        )
        pfs = [Portfolio(units=("a", "b"), kwh=(0.0, 0.0)), Portfolio(units=("b", "a"), kwh=(0.0, 0.0))]
        with pytest.raises(ConfigError, match="same unit order"):
            build_metamodel(
                SingleModel(rate=1.0, duration_rate=1.0), pfs, specs, grid, 1.0, replications=2, seed=0
            )

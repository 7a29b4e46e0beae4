"""Islanding dispatch, Monte Carlo period costs, and the cost-table metamodel."""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import outageplan.simulate as sim
from outageplan import _kernels, persist
from outageplan.config import load_config
from outageplan.errors import ArtifactMismatchError, ConfigError
from outageplan.mdp import PlanningEnv, PriceChain, UnitCatalogEntry
from outageplan.outage import OutageEvent, OutageKind, SingleModel, SuperposedModel
from outageplan.simulate import (
    CostTable,
    FacilityClass,
    HourlyProfiles,
    Microgrid,
    StorageUnitSpec,
    build_metamodel,
    dispatch_spans,
    expected_period_cost,
    merge_events,
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
    """A one-unit spec and kWh vector whose deliverable energy and power cap
    are exact."""
    # usable_fraction=1, rte=1 makes installed == deliverable; power_limit
    # converts installed kWh into the requested power cap.
    spec = StorageUnitSpec(
        name="u",
        round_trip_efficiency=1.0,
        usable_fraction=1.0,
        power_limit=power_cap_kw / deliverable_kwh if deliverable_kwh else 1.0,
    )
    return (spec,), [deliverable_kwh]


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


def oracle_arrays(kwh, specs):
    deliverable = np.array([s.deliverable_kwh(k) for s, k in zip(specs, kwh)])
    power_cap = np.array([s.power_cap_kw(k) for s, k in zip(specs, kwh)])
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
    portfolios = np.array(
        draw(st.lists(st.lists(sizes, min_size=n_units, max_size=n_units), min_size=1, max_size=5))
    )
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
        for power_limit in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="power_limit must be finite and > 0"):
                StorageUnitSpec(name="x", round_trip_efficiency=1.0, usable_fraction=1.0, power_limit=power_limit)

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    def test_profiles_must_be_finite_and_non_negative(self, bad):
        demand, pv = np.ones((2, H)), np.zeros(H)
        demand[1, 7] = bad
        with pytest.raises(ValueError, match="profiles must be finite and non-negative"):
            HourlyProfiles(demand=demand, pv=pv)
        pv[8759] = bad
        with pytest.raises(ValueError, match="profiles must be finite and non-negative"):
            HourlyProfiles(demand=np.ones((2, H)), pv=pv)

    def test_facility_validation(self):
        with pytest.raises(ValueError, match="count must be > 0"):
            FacilityClass(name="f", count=0, peak_load_kw=1.0, value_of_lost_load=1.0, profile="flat")

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
        cost, unserved = dispatch_spans([0], [2], [pf], specs, grid)
        # hour 1: pool 4+5=9 -> A gets 9 of 10, B gets 0: cost 1*10 + 6*2 = 22
        # hour 2: pool 4 -> A gets 4 of 10, B gets 0: cost 6*10 + 6*2 = 72
        assert cost[0, 0] == pytest.approx(94.0)
        assert unserved[:, 0, 0] == pytest.approx([7.0, 12.0])

    def test_power_cap_binds(self):
        grid = flat_grid([(10.0, 10.0), (6.0, 2.0)], pv_kw=4.0)
        specs, pf = one_unit(100.0, 3.0)
        cost, _ = dispatch_spans([0], [1], [pf], specs, grid)
        # pool 4+3=7 -> A short 3, B short 6: 3*10 + 6*2 = 42
        assert cost[0, 0] == pytest.approx(42.0)

    def test_pv_alone_covers_everything(self):
        grid = flat_grid([(10.0, 10.0)], pv_kw=12.0)
        specs, pf = one_unit(5.0, 5.0)
        cost, unserved = dispatch_spans([100], [3], [pf], specs, grid)
        assert cost[0, 0] == 0.0
        assert unserved.sum() == 0.0

    def test_higher_voll_served_first_regardless_of_declaration(self):
        # declared low-VoLL first; the pool must still go to the high-VoLL class
        grid = flat_grid([(6.0, 2.0), (10.0, 10.0)], pv_kw=4.0)
        specs, pf = one_unit(0.0, 1.0)
        cost, unserved = dispatch_spans([0], [1], [pf], specs, grid)
        assert unserved[:, 0, 0] == pytest.approx([6.0, 6.0])
        assert cost[0, 0] == pytest.approx(6.0 * 10 + 6.0 * 2)

    def test_duration_rounds_up_to_whole_hours(self, monkeypatch):
        # a 2.2-hour merged span occupies 3 whole hours
        fixed = [
            OutageEvent(start=0.0, kind=OutageKind.REGULAR, duration=1.5),
            OutageEvent(start=1.0, kind=OutageKind.REGULAR, duration=1.2),
        ]
        monkeypatch.setattr(sim, "sample_trace", lambda model, horizon, rng: list(fixed))
        starts, lengths, offsets = sim._outage_spans(
            SingleModel(rate=1.0, duration_rate=1.0), 1.0, np.array([7], dtype=np.int64)
        )
        assert lengths.tolist() == [3] and offsets.tolist() == [0, 1]
        grid = flat_grid([(10.0, 1.0)])
        specs, pf = one_unit(0.0, 1.0)
        cost, _ = dispatch_spans(starts, lengths, [pf], specs, grid)
        assert cost[0, 0] == pytest.approx(30.0)

    def test_wraps_across_year_end(self):
        demand = np.zeros((1, H))
        demand[0, 8759] = 5.0
        demand[0, 0] = 7.0
        facilities = (
            FacilityClass(name="f", count=1, peak_load_kw=7.0, value_of_lost_load=2.0, profile="flat"),
        )
        grid = Microgrid(facilities=facilities, profiles=HourlyProfiles(demand=demand, pv=np.zeros(H)))
        specs, pf = one_unit(0.0, 1.0)
        cost, _ = dispatch_spans([8759], [2], [pf], specs, grid)
        assert cost[0, 0] == pytest.approx((5.0 + 7.0) * 2.0)

    def test_storage_depletes_across_hours(self):
        grid = flat_grid([(10.0, 1.0)])
        specs, pf = one_unit(15.0, 100.0)
        cost, unserved = dispatch_spans([0], [3], [pf], specs, grid)
        # 10 + 5 kWh served from storage, then dry: unserved 5 + 10
        assert unserved.sum() == pytest.approx(15.0)
        assert cost[0, 0] == pytest.approx(15.0)

    def test_portfolio_width_must_match_specs(self):
        grid = flat_grid([(1.0, 1.0)])
        specs = (StorageUnitSpec(name="u", round_trip_efficiency=1.0, usable_fraction=1.0, power_limit=1.0),)
        with pytest.raises(ConfigError, match="one column per storage unit"):
            dispatch_spans([0], [1], [[1.0, 2.0]], specs, grid)
        with pytest.raises(ConfigError, match="one column per storage unit"):
            dispatch_spans([0], [1], np.ones((3, 2)), specs, grid)
        for kwh in (-1.0, math.nan, math.inf):
            with pytest.raises(ConfigError, match="finite installed kWh >= 0"):
                dispatch_spans([0], [1], [[kwh]], specs, grid)

    @pytest.mark.parametrize("lengths, shown", [([2, -3], "-3"), ([2.5], "2.5"), ([1.0, math.nan], "nan"), ([math.inf], "inf")],
                             ids=["negative", "fractional", "nan", "inf"])
    def test_span_lengths_must_be_whole_hours(self, lengths, shown):
        # a negative span would cost nothing and a fractional one would be truncated
        grid = flat_grid([(10.0, 1.0)])
        specs, pf = one_unit(0.0, 1.0)
        with pytest.raises(ValueError, match=rf"^span {len(lengths) - 1} lasts {shown} h; a span lasts whole hours >= 0$"):
            dispatch_spans([0] * len(lengths), lengths, [pf], specs, grid)

    @pytest.mark.parametrize("starts, shown", [([5, 100.9], "100.9"), ([-1], "-1"), ([0, 3, 8760], "8760"),
                                               ([math.nan], "nan")],
                             ids=["fractional", "negative", "past-the-year", "nan"])
    def test_span_starts_must_be_whole_hours_of_the_year(self, starts, shown):
        # a fractional start was truncated and a negative or past-the-year one
        # wrapped, so hour 100.9 cost what hour 100 does and -1 what 8759 does
        grid = flat_grid([(10.0, 1.0)])
        specs, pf = one_unit(0.0, 1.0)
        with pytest.raises(ValueError, match=rf"^span {len(starts) - 1} starts at hour {shown}; a span starts at a whole hour in \[0, 8760\)$"):
            dispatch_spans(starts, [3] * len(starts), [pf], specs, grid)

    def test_whole_float_span_lengths_are_hours(self):
        grid = flat_grid([(10.0, 1.0)])
        specs, pf = one_unit(0.0, 1.0)
        whole, integer = dispatch_spans([0], [2.0], [pf], specs, grid), dispatch_spans([0], [2], [pf], specs, grid)
        assert whole[0].tobytes() == integer[0].tobytes()


def oracle_dispatch(grid, specs, portfolios, starts, lengths):
    """Cost (spans, portfolios) and unserved kWh (classes, spans, portfolios)
    of `dispatch_span_oracle`, one pair at a time."""
    demand, pv = grid.profiles.demand, grid.profiles.pv
    order, voll = grid.dispatch_order(), grid.voll()
    cost = np.zeros((len(starts), len(portfolios)))
    unserved = np.zeros((len(voll), len(starts), len(portfolios)))
    for s, (start, n_hours) in enumerate(zip(starts, lengths)):
        for p, portfolio in enumerate(portfolios):
            deliverable, power_cap = oracle_arrays(portfolio, specs)
            short = np.zeros(len(voll))
            cost[s, p] = dispatch_span_oracle(start, n_hours, demand, pv, order, voll, deliverable, power_cap, short)
            unserved[:, s, p] = short
    return cost, unserved


def random_grid():
    """Three classes, two of them tied on VoLL, with random demand and PV."""
    rng = np.random.default_rng(0)
    facilities = tuple(
        FacilityClass(name=f"c{i}", count=1, peak_load_kw=40.0, value_of_lost_load=v, profile="flat")
        for i, v in enumerate([6.0, 60.0, 6.0])
    )
    profiles = HourlyProfiles(demand=rng.uniform(0.0, 40.0, (3, H)), pv=rng.uniform(0.0, 60.0, H))
    return Microgrid(facilities=facilities, profiles=profiles)


TWO_UNITS = (
    StorageUnitSpec(name="a", round_trip_efficiency=0.85, usable_fraction=0.9, power_limit=0.25),
    StorageUnitSpec(name="b", round_trip_efficiency=0.7, usable_fraction=0.8, power_limit=6.0),
)


class TestDispatchParity:
    @staticmethod
    def assert_matches_oracle(grid, specs, portfolios, starts, lengths):
        cost, unserved = dispatch_spans(starts, lengths, portfolios, specs, grid)
        want_cost, want_unserved = oracle_dispatch(grid, specs, portfolios, starts, lengths)
        assert cost.tobytes() == want_cost.tobytes()
        assert unserved.tobytes() == want_unserved.tobytes()
        # each pair dispatched on its own
        for s, p in itertools.product(range(len(starts)), range(len(portfolios))):
            one_cost, one_unserved = dispatch_spans([starts[s]], [lengths[s]], [portfolios[p]], specs, grid)
            assert one_cost[0, 0].tobytes() == want_cost[s, p].tobytes()
            assert one_unserved[:, 0, 0].tobytes() == want_unserved[:, s, p].tobytes()

    @given(case=dispatch_cases())
    @settings(max_examples=150, deadline=None)
    def test_matches_scalar_oracle_bit_for_bit(self, case):
        self.assert_matches_oracle(*case)

    @pytest.mark.parametrize(
        "portfolios, starts, lengths",
        [
            ([[250.0, 10.0], [0.0, 37.5]], [5, 8759, 100], [0, 0, 0]),
            ([[0.0, 0.0], [0.0, 0.0]], [0, 4000, 8750], [3, 24, 30]),
            ([[1000.0, 250.0], [10.0, 0.0]], [8759, 8740, 8759], [30, 25, 1]),
            ([[37.5, 10.0]], [], []),
        ],
        ids=["zero-length-spans", "all-zero-portfolios", "wraps-past-hour-8759", "no-spans"],
    )
    def test_edge_cases_match_scalar_oracle(self, portfolios, starts, lengths):
        self.assert_matches_oracle(random_grid(), TWO_UNITS, np.array(portfolios), starts, lengths)

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
        assert table.kwh.tobytes() == portfolios.tobytes()
        for i, portfolio in enumerate(portfolios):
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
            assert np.array([table.cost[i], table.stderr[i]]).tobytes() == want.tobytes()


def kernel_arguments(n_spans=3, n_portfolios=2):
    """Valid arguments of `_kernels.dispatch` for `random_grid()` and `TWO_UNITS`."""
    grid = random_grid()
    n_classes = len(grid.facilities)
    deliverable = np.full((n_portfolios, len(TWO_UNITS)), 5.0)
    return {
        "starts": np.arange(n_spans, dtype=np.int64) * 100,
        "lengths": np.full(n_spans, 4, np.int64),
        "deliverable": deliverable,
        "power_cap": deliverable.copy(),
        "demand": grid.profiles.demand,
        "pv": grid.profiles.pv,
        "class_order": grid.dispatch_order(),
        "voll": grid.voll(),
        "left": np.empty_like(deliverable),
        "cost": np.full((n_spans, n_portfolios), math.nan),
        "unserved": np.full((n_classes, n_spans, n_portfolios), math.nan),
    }


class TestDispatchKernelGuards:
    # the kernel indexes without bounds checks: each of these would read or
    # write outside an array
    BAD = {
        "demand-fortran-order": ("demand", lambda a: np.asfortranarray(np.tile(a, (2, 1)))[:3], "demand must be"),
        "demand-float32": ("demand", lambda a: a.astype(np.float32), "demand must be"),
        "demand-short-year": ("demand", lambda a: np.ascontiguousarray(a[:, :-1]), "demand must be"),
        "class-order-repeats-a-class": ("class_order", lambda a: np.array([1, 1, 0]), "class_order must be"),
        "class-order-outside-the-classes": ("class_order", lambda a: np.array([1, 3, 0]), "class_order must be"),
        "class-order-too-short": ("class_order", lambda a: a[:2].copy(), "class_order must be"),
        "voll-too-short": ("voll", lambda a: a[:2].copy(), "voll must be"),
        "voll-too-long": ("voll", lambda a: np.append(a, 1.0), "voll must be"),
        "work-buffer-too-small": ("left", lambda a: a[:1].copy(), "left must be"),
        "cost-too-few-spans": ("cost", lambda a: a[:2].copy(), "cost must be"),
        "cost-read-only": ("cost", lambda a: np.frombuffer(a.tobytes()).reshape(a.shape), "cost must be"),
        "unserved-too-few-classes": ("unserved", lambda a: a[:2].copy(), "unserved must be"),
        "demand-nan": ("demand", lambda a: np.where(np.arange(H) == 5, math.nan, a), "demand and pv must be finite"),
        "pv-inf": ("pv", lambda a: np.where(np.arange(H) == 5, math.inf, a), "demand and pv must be finite"),
        "deliverable-inf": ("deliverable", lambda a: a * math.inf, "deliverable must be finite"),
        "power-cap-nan": ("power_cap", lambda a: a * math.nan, "deliverable must be finite and power_cap not NaN"),
        "start-past-the-year": ("starts", lambda a: a + 8700, "span starts must lie"),
        "negative-length": ("lengths", lambda a: a - 5, "span starts must lie"),
        "lengths-of-another-count": ("lengths", lambda a: a[:2].copy(), "starts and lengths must be"),
    }

    @pytest.mark.parametrize("case", sorted(BAD))
    def test_refuses_before_the_c_kernel(self, case):
        args = kernel_arguments()
        name, make, message = self.BAD[case]
        args[name] = make(args[name])
        with pytest.raises(ValueError, match=f"^{message}"):
            _kernels.dispatch(**args)
        assert np.isnan(args["cost"]).all() and np.isnan(args["unserved"]).all()
        # the same call runs with the valid argument, and without unserved
        valid = kernel_arguments()
        _kernels.dispatch(**valid)
        assert not np.isnan(valid["cost"]).any() and not np.isnan(valid["unserved"]).any()
        _kernels.dispatch(**{**kernel_arguments(), "unserved": None})


class TestCrnEstimatesParity:
    @given(case=dispatch_cases(), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_the_oracles_span_sums(self, case, data):
        # each replication's total adds the scalar oracle's span costs in
        # span order from 0.0; replications own consecutive spans, some none
        grid, specs, portfolios, starts, lengths = case
        n_spans = len(starts)
        cuts = sorted(data.draw(st.lists(st.integers(0, n_spans), min_size=0, max_size=4)))
        offsets = np.array([0, *cuts, n_spans], dtype=np.int64)
        span_cost, _ = oracle_dispatch(grid, specs, portfolios, starts, lengths)
        totals = np.zeros((len(portfolios), len(offsets) - 1))
        for p, r in itertools.product(range(len(portfolios)), range(len(offsets) - 1)):
            total = 0.0
            for m in range(offsets[r], offsets[r + 1]):
                total += span_cost[m, p]
            totals[p, r] = total
        want = sim._mean_stderr(totals)
        spans = (np.array(starts, dtype=np.int64), np.array(lengths, dtype=np.int64), offsets)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sim, "_outage_spans", lambda *args: spans)
            got = sim._crn_estimates(None, portfolios, specs, grid, 1.0, np.zeros(len(offsets) - 1))
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


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


def env_of(units, levels_kwh, horizon):
    """A planning environment over `units` with one-rung price ladders."""
    catalog = tuple(
        UnitCatalogEntry(
            storage=StorageUnitSpec(name=u, round_trip_efficiency=1.0, usable_fraction=1.0, power_limit=1.0),
            chain=PriceChain(values=(1.0,), advance_prob=0.0),
        )
        for u in units
    )
    return PlanningEnv(horizon=horizon, catalog=catalog, levels_kwh=levels_kwh)


class TestReachablePortfolios:
    def test_small_census_by_brute_force(self):
        got = env_of(["a", "b"], [200.0, 500.0], horizon=3).reachable_portfolios()
        # independent enumeration over install sequences
        options = [(0, 200.0), (0, 500.0), (1, 200.0), (1, 500.0)]
        seen = set()
        for k in range(4):
            for combo in itertools.product(range(4), repeat=k):
                kwh = [0.0, 0.0]
                for j in combo:
                    u, lv = options[j]
                    kwh[u] += lv
                seen.add(tuple(kwh))
        assert set(map(tuple, got.tolist())) == seen
        assert got.shape == (35, 2)

    def test_casestudy_census(self):
        got = load_config("casestudy-single").env().reachable_portfolios()
        assert got.shape == (1120, 4)
        # multiset count before capacity aliasing: sum_k C(11+k, k)
        assert sum(math.comb(11 + k, k) for k in range(5)) == 1820

    def test_sorted_and_distinct(self):
        got = list(map(tuple, env_of(["a", "b"], [1.0, 2.0], horizon=2).reachable_portfolios().tolist()))
        assert got == sorted(set(got))
        assert got[0] == (0.0, 0.0)

    def test_zero_installs(self):
        got = env_of(["a"], [1.0], horizon=1).reachable_portfolios()
        assert got.tolist() == [[0.0], [1.0]]


def load_oracle(path, expect_config_hash=None):
    """The dict loop that `CostTable.load` replaced, kept as its reference:
    (units, {kWh tuple: (cost, stderr)}, meta). Beyond the original loop it
    normalises -0.0 kWh to 0.0, and rejects a non-object header, fewer than
    three columns, cells that are not numbers and kWh that is not finite and
    >= 0, with the messages the array loader uses."""
    with open(path) as fh:
        first = fh.readline().rstrip("\n")
        if not first.startswith(sim.METAMODEL_MAGIC):
            raise ArtifactMismatchError(f"{path}: not a cost table file")
        try:
            meta = json.loads(first[len(sim.METAMODEL_MAGIC):])
        except json.JSONDecodeError:
            meta = None
        if not isinstance(meta, dict):
            raise ArtifactMismatchError(f"{path}: cost table header is not a JSON object")
        columns = fh.readline().rstrip("\n").split(",")
        if len(columns) < 3 or columns[-2:] != ["cost", "stderr"] or not all(c.startswith("cap_") for c in columns[:-2]):
            raise ArtifactMismatchError(f"{path}: unexpected cost table columns {columns}")
        units = tuple(c[len("cap_"):] for c in columns[:-2])
        entries = {}
        for lineno, line in enumerate(fh, start=3):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if len(cells) != len(columns):
                raise ArtifactMismatchError(
                    f"{path}:{lineno}: row has {len(cells)} cells, expected {len(columns)}"
                )
            try:
                numbers = [float(x) for x in cells]
            except ValueError:
                raise ArtifactMismatchError(f"{path}:{lineno}: cells must be numbers, got {cells!r}") from None
            key = tuple(x + 0.0 for x in numbers[: len(units)])
            if not all(0.0 <= x < math.inf for x in key):
                raise ArtifactMismatchError(f"{path}:{lineno}: installed kWh must be finite and >= 0, got {key}")
            cost, stderr = numbers[-2], numbers[-1]
            if not (math.isfinite(cost) and math.isfinite(stderr) and cost >= 0 and stderr >= 0):
                raise ArtifactMismatchError(
                    f"{path}:{lineno}: cost and stderr must be finite and >= 0, got {cost}, {stderr}"
                )
            if key in entries:
                raise ArtifactMismatchError(f"{path}:{lineno}: duplicate portfolio {key}")
            entries[key] = (cost, stderr)
    if expect_config_hash is not None and meta.get("config_hash") != expect_config_hash:
        raise ArtifactMismatchError(
            f"{path}: cost table was built for config {meta.get('config_hash')!r}, "
            f"active config is {expect_config_hash!r}"
        )
    return units, entries, meta


def save_oracle(units, entries, meta):
    """The text the dict-based `CostTable.save` wrote."""
    lines = [sim.METAMODEL_MAGIC + persist.canonical_json(meta)]
    lines.append(",".join([f"cap_{u}" for u in units] + ["cost", "stderr"]))
    for key in sorted(entries):
        cost, stderr = entries[key]
        lines.append(",".join(persist.format_float(x) for x in key + (cost, stderr)))
    return "\n".join(lines) + "\n"


KWH_CELLS = ["0.0", "-0.0", "250.0", "500.0", " 1000.0", "1e3", "0.1"]
COST_CELLS = ["0.0", "-0.0", "12.5", "1e-300", "7", "3.0e2 "]
BAD_KWH = ["nan", "-1.0", "inf"]
BAD_COST = ["nan", "-3.0", "inf", "-inf"]
BAD_CELLS = ["abc", "", "0x10", "1.0.0", "--1"]


@st.composite
def cost_table_files(draw):
    """Text of a metamodel file: mostly well formed, with each defect the
    loader checks drawn now and then, blank lines, CRLF line ends and a
    missing final newline."""
    n_units = draw(st.integers(1, 3))
    header = sim.METAMODEL_MAGIC + draw(
        st.sampled_from(['{"config_hash":"h","seed":1}', '{"config_hash":"other"}', "{}"])
    )
    header = draw(st.sampled_from([header] * 8 + ["# something else {}", sim.METAMODEL_MAGIC + "[1]", sim.METAMODEL_MAGIC + "{"]))
    names = [f"cap_u{i}" for i in range(n_units)] + ["cost", "stderr"]
    columns = ",".join(draw(st.sampled_from([names] * 8 + [names[:-1], ["u0"] + names[1:]])))
    lines = [header, columns]
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", "   "])))
            continue
        cells = [draw(st.sampled_from(KWH_CELLS)) for _ in range(n_units)]
        cells += [draw(st.sampled_from(COST_CELLS)) for _ in range(2)]
        defect = draw(st.integers(0, 30))
        if defect == 0:
            cells.append("1.0")
        elif defect == 1:
            cells.pop()
        elif defect == 2:
            cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(BAD_CELLS))
        elif defect == 3:
            cells[draw(st.integers(0, n_units - 1))] = draw(st.sampled_from(BAD_KWH))
        elif defect == 4:
            cells[draw(st.sampled_from([-2, -1]))] = draw(st.sampled_from(BAD_COST))
        lines.append(",".join(cells))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from([newline, ""]))


class TestCostTable:
    def _table(self, tmp_path, config_hash="deadbeef"):
        grid = flat_grid([(10.0, 5.0)], pv_kw=2.0)
        specs = (StorageUnitSpec(name="u", round_trip_efficiency=1.0, usable_fraction=1.0, power_limit=1.0),)
        portfolios = env_of(["u"], [5.0, 9.0], horizon=2).reachable_portfolios()
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

    def test_missing_portfolio_is_hard_error(self, tmp_path):
        table = self._table(tmp_path)
        with pytest.raises(KeyError, match=r"\(3.33,\) not present .* rebuild the metamodel"):
            env_of(["u"], [3.33, 5.0, 9.0], horizon=2).attach_metamodel(table)

    def test_rows_are_stored_lexsorted_and_unique(self):
        table = sim.CostTable(
            units=("a", "b"), kwh=[[5.0, 0.0], [-0.0, 9.0], [0.0, 5.0]], cost=[1.0, 2.0, 3.0],
            stderr=[0.1, 0.2, 0.3], meta={},
        )
        assert table.kwh.tolist() == [[0.0, 5.0], [0.0, 9.0], [5.0, 0.0]]
        assert not np.signbit(table.kwh).any()
        assert table.cost.tolist() == [3.0, 2.0, 1.0]
        assert table.stderr.tolist() == [0.3, 0.2, 0.1]
        with pytest.raises(ValueError, match=r"duplicate portfolio \(0.0, 9.0\)"):
            sim.CostTable(("a", "b"), [[0.0, 9.0], [-0.0, 9.0]], [1.0, 1.0], [0.0, 0.0], {})
        with pytest.raises(ValueError, match="one cost and stderr per portfolio"):
            sim.CostTable(("a",), [[0.0, 9.0]], [1.0], [0.0], {})

    def test_round_trip_and_byte_determinism(self, tmp_path):
        table = self._table(tmp_path)
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        table.save(p1)
        table.save(p2)
        assert p1.read_bytes() == p2.read_bytes()
        loaded = CostTable.load(p1, expect_config_hash="deadbeef")
        assert loaded.units == table.units
        for name in ("kwh", "cost", "stderr"):
            assert getattr(loaded, name).tobytes() == getattr(table, name).tobytes()
        assert loaded.meta == table.meta

    def test_config_hash_mismatch(self, tmp_path):
        table = self._table(tmp_path)
        p = tmp_path / "t.csv"
        table.save(p)
        with pytest.raises(ArtifactMismatchError, match="was built for config"):
            CostTable.load(p, expect_config_hash="somethingelse")

    def test_loads_of_one_text_share_read_only_arrays(self, tmp_path):
        p = tmp_path / "t.csv"
        self._table(tmp_path).save(p)
        a, b = CostTable.load(p), CostTable.load(p, expect_config_hash="deadbeef")
        assert a is not b and a.meta is not b.meta and a.meta["outage_model"] is not b.meta["outage_model"]
        assert a.cost is b.cost
        for array in (a.kwh, a.cost, a.stderr):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0
        a.meta["outage_model"]["rate"] = 0.0
        assert CostTable.load(p).meta == b.meta != a.meta
        with pytest.raises(ArtifactMismatchError, match="was built for config"):
            CostTable.load(p, expect_config_hash="somethingelse")

    def test_a_rewritten_file_loads_its_new_values(self, tmp_path):
        p = tmp_path / "t.csv"
        table = self._table(tmp_path)
        table.save(p)
        before = CostTable.load(p).cost.copy()
        sim.CostTable(table.units, table.kwh, table.cost + 1.0, table.stderr, table.meta).save(p)
        assert CostTable.load(p).cost.tolist() == (before + 1.0).tolist()

    def test_the_parse_memo_is_bounded(self, tmp_path):
        limit = sim._parse_cost_table.cache_info().maxsize
        assert limit is not None
        table = self._table(tmp_path)
        for i in range(limit + 2):
            p = tmp_path / f"t{i}.csv"
            sim.CostTable(table.units, table.kwh, table.cost + i, table.stderr, table.meta).save(p)
            assert CostTable.load(p).cost[0] == table.cost[0] + i
        assert sim._parse_cost_table.cache_info().currsize <= limit

    def test_load_rejects_foreign_file(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("cap_u,cost,stderr\n0.0,1.0,0.0\n")
        with pytest.raises(ArtifactMismatchError, match="not a cost table"):
            CostTable.load(p)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("nan,1.0,0.0", r":4: installed kWh must be finite and >= 0, got \(nan,\)"),
            ("-5.0,1.0,0.0", r":4: installed kWh must be finite and >= 0, got \(-5.0,\)"),
            ("5.0,abc,0.0", r":4: cells must be numbers, got \['5.0', 'abc', '0.0'\]"),
            ("-0.0,1.0,0.0", r":4: duplicate portfolio \(0.0,\)"),
        ],
    )
    def test_load_rejects_bad_rows(self, tmp_path, row, message):
        p = tmp_path / "t.csv"
        p.write_text(f"{sim.METAMODEL_MAGIC}{{}}\ncap_u,cost,stderr\n0.0,2.0,0.0\n{row}\n")
        with pytest.raises(ArtifactMismatchError, match=message):
            CostTable.load(p)

    @pytest.mark.parametrize("header", ["[1]", "{", '"text"'])
    def test_load_rejects_a_header_that_is_not_an_object(self, tmp_path, header):
        p = tmp_path / "t.csv"
        p.write_text(f"{sim.METAMODEL_MAGIC}{header}\ncap_u,cost,stderr\n")
        with pytest.raises(ArtifactMismatchError, match="header is not a JSON object"):
            CostTable.load(p, expect_config_hash="h")

    @given(text=cost_table_files(), expect=st.sampled_from([None, "h"]))
    @settings(max_examples=300, deadline=None)
    def test_load_matches_the_dict_loop(self, tmp_path_factory, text, expect):
        path = tmp_path_factory.getbasetemp() / "parity-metamodel.csv"
        with open(path, "w", newline="") as fh:
            fh.write(text)
        try:
            units, entries, meta = load_oracle(path, expect)
        except ArtifactMismatchError as exc:
            with pytest.raises(ArtifactMismatchError) as got:
                CostTable.load(path, expect_config_hash=expect)
            assert str(got.value) == str(exc)
            return
        table = CostTable.load(path, expect_config_hash=expect)
        assert (table.units, table.meta) == (units, meta)
        keys = sorted(entries)
        assert table.kwh.tolist() == [list(k) for k in keys]
        assert not np.signbit(table.kwh).any()
        want = np.array([entries[k] for k in keys]).reshape(-1, 2)
        assert np.stack([table.cost, table.stderr], axis=1).tobytes() == want.tobytes()
        saved = tmp_path_factory.getbasetemp() / "parity-saved.csv"
        table.save(saved)
        assert saved.read_bytes() == save_oracle(units, entries, meta).encode()

    @given(
        units=st.integers(1, 4),
        levels=st.lists(st.sampled_from([0.0, -0.0, 0.1, 250.0, 1e3, 37.5, 1e-300, 2.0**60]), min_size=1, max_size=5),
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(0, 40),
    )
    @settings(max_examples=100, deadline=None)
    def test_save_writes_the_row_wise_text(self, tmp_path_factory, units, levels, seed, rows):
        # rows whose kWh was -0.0 are stored as 0.0, and each is written so
        rng = np.random.default_rng(seed)
        kwh = np.unique(rng.choice(levels, size=(rows, units)) + 0.0, axis=0)
        kwh[kwh == 0.0] = rng.choice([0.0, -0.0], size=np.count_nonzero(kwh == 0.0))
        cost = rng.choice([0.0, -0.0, 1.0 / 3.0, 12.5, 1e-300, 7e22], size=len(kwh)) * rng.random(len(kwh))
        stderr = rng.choice([0.0, 0.1, 2.0 / 7.0], size=len(kwh))
        table = CostTable(units=[f"u{i}" for i in range(units)], kwh=kwh, cost=cost, stderr=stderr, meta={"seed": seed})
        path = tmp_path_factory.getbasetemp() / "column-saved.csv"
        table.save(path)
        lines = [sim.METAMODEL_MAGIC + persist.canonical_json(table.meta)]
        lines.append(",".join([f"cap_u{i}" for i in range(units)] + ["cost", "stderr"]))
        for row, c, e in zip(table.kwh.tolist(), table.cost.tolist(), table.stderr.tolist()):
            lines.append(",".join(map(repr, row + [c, e])))
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()

    def test_more_storage_never_costs_more(self, tmp_path):
        # one shared event set across the whole grid: dispatch with a superset
        # of deliverable energy can never serve less load
        table = self._table(tmp_path)
        costs = table.cost.tolist()
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

    def test_grid_width_must_match_specs(self):
        grid = flat_grid([(1.0, 1.0)])
        specs = (
            StorageUnitSpec(name="a", round_trip_efficiency=1.0, usable_fraction=1.0, power_limit=1.0),
            StorageUnitSpec(name="b", round_trip_efficiency=1.0, usable_fraction=1.0, power_limit=1.0),
        )
        with pytest.raises(ConfigError, match="one column per storage unit"):
            build_metamodel(
                SingleModel(rate=1.0, duration_rate=1.0), np.zeros((2, 1)), specs, grid, 1.0, replications=2, seed=0
            )

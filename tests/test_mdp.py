"""Planning MDP: price chains, state codec, dynamics, and dense tables."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outageplan.errors import ArtifactMismatchError, ConfigError
from outageplan.mdp import (
    InstallAction,
    PlanningEnv,
    PlanningState,
    PriceChain,
    StateCodec,
    UnitCatalogEntry,
)
from outageplan.simulate import CostTable, StorageUnitSpec
from outageplan.solver import value_iteration

from conftest import cost_table


def make_env(horizon=3, levels=(200.0, 500.0)):
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
    return PlanningEnv(horizon=horizon, catalog=catalog, levels_kwh=levels)


def linear_cost_table(env, dollars_per_kwh=100.0):
    """Synthetic metamodel whose cost is proportional to total installed
    kWh, so reward arithmetic is hand-checkable."""
    return cost_table(env, lambda kwh: dollars_per_kwh * kwh.sum(axis=1))


def reachable_portfolios_oracle(units, levels_kwh, max_installs):
    """Every distinct portfolio obtainable with at most max_installs catalog
    picks (one pick = one level on one unit), enumerated independently of the
    codec: a sorted list of kWh tuples."""
    options = [(u, float(lv)) for u in range(len(units)) for lv in levels_kwh]
    seen = set()
    for k in range(max_installs + 1):
        for combo in itertools.combinations_with_replacement(range(len(options)), k):
            kwh = [0.0] * len(units)
            for j in combo:
                u, lv = options[j]
                kwh[u] += lv
            seen.add(tuple(kwh))
    return sorted(seen)


class CodecOracle:
    """The codec's tables as the loop-based construction built them, kept
    as the reference for the numpy construction."""

    def __init__(self, horizon, ladder_sizes, n_units, n_levels):
        n_options = n_units * n_levels
        self.cap_sets = []
        cap_prefix = [0]
        for k in range(horizon + 1):
            self.cap_sets.extend(itertools.combinations_with_replacement(range(n_options), k))
            cap_prefix.append(len(self.cap_sets))
        cap_index = {cap: i for i, cap in enumerate(self.cap_sets)}
        c_full = len(self.cap_sets)
        ladder_sizes = np.array(ladder_sizes, dtype=np.int64)
        strides = np.ones(n_units, dtype=np.int64)
        for u in range(n_units - 2, -1, -1):
            strides[u] = strides[u + 1] * ladder_sizes[u + 1]
        p_full = int(np.prod(ladder_sizes))
        self.cap_next = np.full((c_full, 1 + n_options), -1, dtype=np.int64)
        for c, cap in enumerate(self.cap_sets):
            self.cap_next[c, 0] = c
            if len(cap) < horizon:
                for j in range(n_options):
                    self.cap_next[c, 1 + j] = cap_index[tuple(sorted(cap + (j,)))]
        codes = []
        self.block_starts = []
        self.period_combos = []
        for t in range(horizon):
            self.block_starts.append(len(codes))
            ranges = [range(min(t, int(n) - 1) + 1) for n in ladder_sizes]
            combos = np.array(
                [int(sum(d * s for d, s in zip(digits, strides))) for digits in itertools.product(*ranges)],
                dtype=np.int64,
            )
            self.period_combos.append(combos)
            for p in combos:
                base = (t * p_full + int(p)) * c_full
                codes.extend(base + c for c in range(cap_prefix[min(t, horizon) + 1]))
        self.state_codes = np.array(codes, dtype=np.int64)
        self.row_base = np.full((horizon, p_full), -1, dtype=np.int64)
        for t, combos in enumerate(self.period_combos):
            c_count = cap_prefix[min(t, horizon) + 1]
            self.row_base[t, combos] = self.block_starts[t] + np.arange(len(combos)) * c_count


def installed_kwh_oracle(installs, n_units, levels_kwh):
    """Per-unit kWh of one install multiset, added install by install."""
    kwh = [0.0] * n_units
    for j in installs:
        u, l = divmod(j, len(levels_kwh))
        kwh[u] += levels_kwh[l]
    return tuple(kwh)


def catalog_of(ladder_sizes):
    return tuple(
        UnitCatalogEntry(
            storage=StorageUnitSpec(
                name=f"u{u}", round_trip_efficiency=0.9, usable_fraction=0.9, power_limit=0.5
            ),
            chain=PriceChain(values=tuple(100.0 * (n - i) for i in range(n)), advance_prob=0.5),
        )
        for u, n in enumerate(ladder_sizes)
    )


class ScriptedRng:
    """Deterministic stand-in for numpy's Generator: pops scripted uniforms."""

    def __init__(self, uniforms):
        self._queue = list(uniforms)

    def random(self):
        return self._queue.pop(0)

    @property
    def consumed_all(self):
        return not self._queue


class TestPriceChain:
    def test_validation(self):
        with pytest.raises(ValueError, match="strictly decreasing"):
            PriceChain(values=(100.0, 100.0), advance_prob=0.5)
        with pytest.raises(ValueError, match="prices must be positive"):
            PriceChain(values=(10.0, -1.0), advance_prob=0.5)
        with pytest.raises(ValueError, match="advance_prob"):
            PriceChain(values=(10.0, 5.0), advance_prob=1.5)
        with pytest.raises(ValueError, match="at least one value"):
            PriceChain(values=(), advance_prob=0.5)

    def test_step_advances_below_threshold(self):
        chain = PriceChain(values=(10.0, 5.0, 2.0), advance_prob=0.7)
        assert chain.step(0, 0.69) == 1
        assert chain.step(0, 0.7) == 0
        assert chain.step(1, 0.0) == 2

    def test_floor_is_absorbing(self):
        chain = PriceChain(values=(10.0, 5.0), advance_prob=0.9)
        assert chain.step(1, 0.0) == 1

    def test_step_rejects_bad_index(self):
        chain = PriceChain(values=(10.0, 5.0), advance_prob=0.5)
        with pytest.raises(ValueError, match="out of range"):
            chain.step(2, 0.5)

    def test_transition_matrix_is_stochastic(self):
        chain = PriceChain(values=(10.0, 5.0, 2.0), advance_prob=0.3)
        mat = chain.transition_matrix()
        assert np.allclose(mat.sum(axis=1), 1.0)
        assert mat[0, 1] == pytest.approx(0.3)
        assert mat[1, 1] == pytest.approx(0.7)
        assert mat[2, 2] == 1.0
        assert mat[2, 0] == mat[2, 1] == 0.0


class TestInstallAction:
    def test_do_nothing(self):
        a = InstallAction()
        assert not a.is_install

    def test_pair_required(self):
        with pytest.raises(ValueError, match="both be set or both be None"):
            InstallAction(unit=1)

    def test_install(self):
        a = InstallAction(unit=0, level=1)
        assert a.is_install


class TestStateCodec:
    def test_code_round_trips(self):
        env = make_env()
        codec = env.codec
        for code in codec.state_codes:
            state = codec.state_of(int(code))
            assert codec.code_of(state) == code

    def test_codes_sorted_strictly(self):
        codec = make_env().codec
        assert np.all(np.diff(codec.state_codes) > 0)

    def test_index_of_rejects_unreachable(self):
        env = make_env()
        codec = env.codec
        # price index 1 cannot be reached at period 0
        bad = PlanningState(period=0, price_idx=(1, 0), installs=())
        with pytest.raises(KeyError, match="not a reachable non-terminal state"):
            codec.index_of(codec.code_of(bad))

    def test_cap_next_matches_multiset_append(self):
        codec = make_env().codec
        for c, cap in enumerate(codec.cap_sets):
            assert codec.cap_next[c, 0] == c
            if len(cap) < codec.horizon:
                for j in range(codec.n_options):
                    nxt = codec.cap_next[c, 1 + j]
                    assert codec.cap_sets[nxt] == tuple(sorted(cap + (j,)))
            else:
                assert all(codec.cap_next[c, 1 + j] == -1 for j in range(codec.n_options))

    def test_same_kwh_different_multisets_stay_distinct(self):
        env = make_env(levels=(250.0, 500.0))
        codec = env.codec
        double_small = tuple(sorted((0, 0)))  # two alpha-250 installs
        one_big = (1,)  # one alpha-500 install
        assert codec.cap_index[double_small] != codec.cap_index[one_big]
        assert (
            env.capacity_of(PlanningState(2, (0, 0), double_small))
            == env.capacity_of(PlanningState(1, (0, 0), one_big))
        )

    def test_tiny_census(self):
        census = make_env().codec.census()
        assert census.per_period == [1, 20, 60, 140]
        assert census.nonterminal == 81
        assert census.total == 221

    def test_large_census_formula(self):
        codec = StateCodec(horizon=4, ladder_sizes=[4, 4, 4, 4], n_units=4, n_levels=3)
        census = codec.census()
        want = [
            (t + 1) ** 4 * sum(math.comb(11 + k, k) for k in range(t + 1)) for t in range(4)
        ]
        assert census.per_period[:4] == want
        assert census.nonterminal == 124060
        assert census.per_period[4] == 4**4 * 1820 == 465920
        assert codec.c_full == 1820
        assert codec.p_full == 256

    def test_reachability_census_by_breadth_first_walk(self):
        # independent oracle: walk the actual dynamics, branching every price
        # chain both ways, and compare the discovered set to the codec's.
        env = make_env()
        frontier = {env.initial_state()}
        seen_nonterminal = set()
        terminal = set()
        while frontier:
            nxt = set()
            for state in frontier:
                if env.is_terminal(state):
                    terminal.add(state)
                    continue
                seen_nonterminal.add(state)
                for action in env.legal_actions(state):
                    for branch in itertools.product((0.0, 0.99), repeat=len(env.catalog)):
                        nxt.add(env.transition(state, action, ScriptedRng(branch)))
            frontier = nxt - seen_nonterminal - terminal
        codes = sorted(env.codec.code_of(s) for s in seen_nonterminal)
        assert codes == list(env.codec.state_codes)
        assert len(terminal) == env.codec.census().per_period[-1]

    @pytest.mark.parametrize("ladders", [[2, 2], [3, 2, 4], [4, 1]])
    def test_row_base_plus_cap_index_is_the_sorted_row(self, ladders):
        codec = StateCodec(horizon=3, ladder_sizes=ladders, n_units=len(ladders), n_levels=2)
        base = codec.row_base()
        for row, code in enumerate(codec.state_codes):
            state = codec.state_of(int(code))
            p = codec.price_combo(state.price_idx)
            assert base[state.period, p] + codec.cap_index[state.installs] == row
        reachable = sum(len(combos) for combos in codec.period_combos)
        assert np.count_nonzero(base >= 0) == reachable

    @settings(max_examples=60, deadline=None)
    @given(
        horizon=st.integers(min_value=1, max_value=4),
        ladder_sizes=st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=3),
        levels_kwh=st.lists(
            st.one_of(
                st.integers(min_value=1, max_value=2000).map(float),
                st.floats(min_value=0.001, max_value=1e6, allow_nan=False, allow_infinity=False),
            ),
            min_size=1,
            max_size=3,
            unique=True,
        ),
    )
    def test_tables_match_the_loop_construction(self, horizon, ladder_sizes, levels_kwh):
        env = PlanningEnv(horizon=horizon, catalog=catalog_of(ladder_sizes), levels_kwh=levels_kwh)
        codec = env.codec
        want = CodecOracle(horizon, ladder_sizes, len(ladder_sizes), len(levels_kwh))
        assert codec.cap_sets == want.cap_sets
        assert codec.state_codes.dtype == want.state_codes.dtype
        assert codec.state_codes.tobytes() == want.state_codes.tobytes()
        assert codec.n_states == len(want.state_codes)
        assert codec.block_starts == want.block_starts
        assert codec.cap_next.tobytes() == want.cap_next.tobytes()
        assert codec.row_base().tobytes() == want.row_base.tobytes()
        # non-integer levels make the sum order visible in the last bits
        for c, cap in enumerate(codec.cap_sets):
            want_kwh = installed_kwh_oracle(cap, len(ladder_sizes), env.levels_kwh)
            assert env.installed_kwh[c].tobytes() == np.array(want_kwh).tobytes()
        assert set(map(tuple, env.reachable_portfolios().tolist())) == {
            installed_kwh_oracle(cap, len(ladder_sizes), env.levels_kwh) for cap in codec.cap_sets
        }

    def test_installed_kwh_sums_in_multiset_order(self):
        # 0.1 + 0.2 + 0.7 differs from 0.7 + 0.2 + 0.1 in the last bit
        env = make_env(horizon=3, levels=(0.1, 0.2, 0.7))
        cap = (0, 1, 2)  # alpha at each level, in multiset order
        state = PlanningState(period=3, price_idx=(0, 0), installs=cap)
        assert env.capacity_of(state) == {"alpha": (0.1 + 0.2) + 0.7, "beta": 0.0}
        assert (0.1 + 0.2) + 0.7 != (0.7 + 0.2) + 0.1

    def test_price_combo_digits_round_trip(self):
        codec = StateCodec(horizon=2, ladder_sizes=[3, 2, 4], n_units=3, n_levels=1)
        for combo in range(codec.p_full):
            digits = codec.price_digits(combo)
            assert codec.price_combo(digits) == combo
            assert all(0 <= d < n for d, n in zip(digits, [3, 2, 4]))


class TestPlanningEnv:
    def test_validation(self):
        catalog = make_env().catalog
        with pytest.raises(ConfigError, match="must be positive"):
            PlanningEnv(horizon=2, catalog=catalog, levels_kwh=(0.0,))
        with pytest.raises(ConfigError, match="must be distinct"):
            PlanningEnv(horizon=2, catalog=catalog, levels_kwh=(100.0, 100.0))
        with pytest.raises(ConfigError, match="at least one unit"):
            PlanningEnv(horizon=2, catalog=(), levels_kwh=(100.0,))
        with pytest.raises(ValueError, match="horizon must be >= 1"):
            PlanningEnv(horizon=0, catalog=catalog, levels_kwh=(100.0,))

    def test_duplicate_unit_names_rejected(self):
        entry = make_env().catalog[0]
        with pytest.raises(ConfigError, match="duplicate unit names"):
            PlanningEnv(horizon=2, catalog=(entry, entry), levels_kwh=(100.0,))

    def test_action_enumeration(self):
        env = make_env()
        assert len(env.actions) == 5
        assert not env.actions[0].is_install
        labels = [env.action_label(a) for a in env.actions]
        assert labels == [
            "do-nothing",
            "install alpha 200 kWh",
            "install alpha 500 kWh",
            "install beta 200 kWh",
            "install beta 500 kWh",
        ]
        for i, a in enumerate(env.actions):
            assert env.action_index(a) == i

    def test_initial_state(self):
        env = make_env()
        s = env.initial_state()
        assert s.period == 0
        assert s.price_idx == (0, 0)
        assert s.installs == ()
        assert not env.is_terminal(s)

    def test_legal_actions_empty_at_terminal(self):
        env = make_env()
        terminal = PlanningState(period=3, price_idx=(1, 1), installs=())
        assert env.legal_actions(terminal) == ()

    def test_transition_applies_install_and_walks_prices(self):
        env = make_env()
        s = env.initial_state()
        # alpha advances (0.0 < 0.7), beta stays (0.99 >= 0.6)
        s2 = env.transition(s, InstallAction(unit=1, level=0), ScriptedRng([0.0, 0.99]))
        assert s2.period == 1
        assert s2.price_idx == (1, 0)
        assert s2.installs == (2,)  # option index = unit 1 * 2 levels + level 0
        assert env.capacity_of(s2) == {"alpha": 0.0, "beta": 200.0}

    def test_transition_consumes_uniform_at_absorbing_floor(self):
        env = make_env()
        s = PlanningState(period=1, price_idx=(1, 0), installs=())
        rng = ScriptedRng([0.0, 0.99])
        s2 = env.transition(s, InstallAction(), rng)
        # the first uniform went to alpha (stuck at its floor), so beta saw
        # 0.99 and stayed; skipping floor units would wrongly advance beta
        assert s2.price_idx == (1, 0)
        assert rng.consumed_all

    def test_transition_rejects_terminal(self):
        env = make_env()
        terminal = PlanningState(period=3, price_idx=(0, 0), installs=())
        with pytest.raises(ValueError, match="no actions at terminal"):
            env.transition(terminal, InstallAction(), ScriptedRng([0.5, 0.5]))

    def test_state_validation(self):
        env = make_env()
        with pytest.raises(ValueError, match="more installs than elapsed periods"):
            env.legal_actions(PlanningState(period=0, price_idx=(0, 0), installs=(0,)))
        with pytest.raises(ValueError, match="must be sorted"):
            env.legal_actions(PlanningState(period=2, price_idx=(0, 0), installs=(3, 1)))
        with pytest.raises(ValueError, match="off the alpha ladder"):
            env.legal_actions(PlanningState(period=1, price_idx=(5, 0), installs=()))

    def test_display_tuple_uses_ladder_values(self):
        env = make_env()
        s = PlanningState(period=1, price_idx=(1, 0), installs=(2,))
        assert env.display_tuple(s) == (1, 290, 150, 0, 200)

    def test_reward_arithmetic(self):
        env = make_env()
        env.attach_metamodel(linear_cost_table(env, dollars_per_kwh=100.0))
        s = env.initial_state()
        a = InstallAction(unit=0, level=1)  # alpha 500 kWh at ladder top 400
        s2 = PlanningState(period=1, price_idx=(1, 1), installs=(1,))
        # invest = 500 * 400; outage cost = 100 * 500 installed kWh
        assert env.reward(s, a, s2) == pytest.approx(-(500 * 400 + 100 * 500))
        # do-nothing pays only the standing outage cost of what is installed
        s3 = PlanningState(period=1, price_idx=(0, 0), installs=())
        assert env.reward(s, InstallAction(), s3) == pytest.approx(-0.0)

    def test_reward_requires_metamodel(self):
        env = make_env()
        s = env.initial_state()
        with pytest.raises(RuntimeError, match="attach a metamodel"):
            env.reward(s, InstallAction(), PlanningState(1, (0, 0), ()))

    def test_attach_metamodel_rejects_unit_mismatch(self):
        env = make_env()
        table = CostTable(units=("x",), kwh=[[0.0]], cost=[0.0], stderr=[0.0], meta={})
        with pytest.raises(ConfigError, match="do not match catalog"):
            env.attach_metamodel(table)

    def test_attach_metamodel_rejects_missing_portfolio(self):
        env = make_env()
        table = linear_cost_table(env)
        keep = ~np.all(table.kwh == (0.0, 200.0), axis=1)
        table = CostTable(table.units, table.kwh[keep], table.cost[keep], table.stderr[keep], table.meta)
        with pytest.raises(KeyError, match=r"portfolio \(0.0, 200.0\) .* rebuild the metamodel"):
            env.attach_metamodel(table)

    @pytest.mark.parametrize("cost", [math.nan, math.inf, -1.0])
    def test_attach_metamodel_rejects_non_finite_or_negative_cost(self, cost):
        # an in-memory table skips CostTable.load's checks; a NaN cost used to
        # make value_iteration return nan silently
        env = make_env()
        table = linear_cost_table(env)
        table.cost[np.all(table.kwh == (0.0, 200.0), axis=1)] = cost
        with pytest.raises(ArtifactMismatchError, match=r"entry for \(0.0, 200.0\) kWh .* must be finite and >= 0"):
            env.attach_metamodel(table)
        with pytest.raises(RuntimeError, match="attach a metamodel"):
            value_iteration(env)

    def test_attach_zero_cost(self):
        env = make_env()
        env.attach_zero_cost()
        s = env.initial_state()
        s2 = PlanningState(period=1, price_idx=(0, 0), installs=(3,))
        # only the investment remains: beta 500 kWh at ladder top 150
        assert env.reward(s, InstallAction(unit=1, level=1), s2) == pytest.approx(-500 * 150)

    def test_invest_table_values(self):
        env = make_env()
        invest = env.invest_table()
        codec = env.codec
        assert invest.shape == (codec.p_full, codec.n_actions)
        for p in range(codec.p_full):
            d_alpha, d_beta = codec.price_digits(p)
            alpha_price = env.catalog[0].chain.values[d_alpha]
            beta_price = env.catalog[1].chain.values[d_beta]
            assert invest[p, 0] == 0.0
            assert invest[p, 1] == pytest.approx(200 * alpha_price)
            assert invest[p, 2] == pytest.approx(500 * alpha_price)
            assert invest[p, 3] == pytest.approx(200 * beta_price)
            assert invest[p, 4] == pytest.approx(500 * beta_price)

    def test_kernel_tables_bound(self):
        env = make_env()
        env.attach_metamodel(linear_cost_table(env))
        tables = env.kernel_tables()
        worst = env.horizon * (tables.invest.max() + tables.cost_of_cap.max())
        assert tables.q_lower < -worst
        assert tables.horizon == 3
        assert tables.n_actions == 5

    def test_kernel_tables_require_metamodel(self):
        env = make_env()
        with pytest.raises(RuntimeError, match="attach a metamodel"):
            env.kernel_tables()

    def test_reachable_portfolios_match_independent_enumeration(self):
        env = make_env()
        by_env = env.reachable_portfolios()
        want = reachable_portfolios_oracle(env.unit_names, env.levels_kwh, env.horizon)
        assert by_env.dtype == np.float64
        assert by_env.tolist() == [list(key) for key in want]
        assert len(by_env) == 35

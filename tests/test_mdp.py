"""Planning MDP: price chains, state codec, dynamics, and dense tables."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outageplan import _kernels
from outageplan.config import load_config
from outageplan.errors import ArtifactMismatchError, ConfigError
from outageplan.evaluate import PriceTrajectory, rollout
from outageplan.mdp import PlanningEnv, PriceChain, StateCodec, UnitCatalogEntry, row_index, unique_rows
from outageplan.pcg64 import PCG64
from outageplan.simulate import CostTable, StorageUnitSpec
from outageplan.solver import QTable, TrainingSchedule, policy_value, train, value_iteration

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


def one_unit_env(chain, horizon):
    entry = UnitCatalogEntry(
        storage=StorageUnitSpec(name="u", round_trip_efficiency=1.0, usable_fraction=1.0, power_limit=1.0),
        chain=chain,
    )
    return PlanningEnv(horizon=horizon, catalog=(entry,), levels_kwh=(100.0,))


def stream_prices(seed, horizon, n_units):
    """The price uniforms, (horizon, n_units), that one episode of the
    compiled Q-learning loop draws from the PCG64 stream of `seed`: per
    step it draws the explore and action uniforms, then one per unit, in
    the order numpy's Generator(PCG64(seed)).random fills an array."""
    return np.random.default_rng(seed).random((horizon, 2 + n_units))[:, 2:]


def first_seed(condition, horizon, n_units):
    """The first seed whose `stream_prices` meet `condition`."""
    return next(seed for seed in range(1000) if condition(stream_prices(seed, horizon, n_units)))


def compiled_episode(env, actions, advance_prob, seed=0):
    """The (period, price indices, sorted installs) states that one episode
    of the compiled Q-learning loop visits when it takes `actions` in turn
    and each unit's price advances with probability `advance_prob[unit]`,
    drawing from the PCG64 stream of `seed`."""
    env.attach_metamodel(linear_cost_table(env))
    tables = dataclasses.replace(env.kernel_tables(), advance_prob=np.array(advance_prob, np.float64))
    codec = env.codec
    # epsilon 0, so every step takes its row's first maximum: the scripted
    # action's 0.0 above the others' -1.0; alpha 0 leaves every Q-value as it is
    periods = codec.state_codes // (codec.p_full * codec.c_full)
    q = np.full((len(tables.state_codes), tables.n_actions), -1.0)
    q[np.arange(len(q)), np.array(actions)[periods]] = 0.0
    visits = np.zeros(q.shape, np.int32)
    # every row already in the store, at its own row, so visits is dense
    slots = np.arange(len(q), dtype=np.int32)
    _kernels.qlearn_chunk(q, visits, slots, len(q), tables, 1.0, PCG64(seed).words(), np.zeros(1), np.zeros(1))
    rows, taken = np.nonzero(visits)  # rows ascend with the period
    assert taken.tolist() == list(actions)
    states = []
    for row in rows:
        tp, cap = divmod(int(codec.state_codes[row]), codec.c_full)
        t, p = divmod(tp, codec.p_full)
        digits = tuple(int(d) for d in p // codec.price_strides % codec.ladder_sizes)
        states.append((t, digits, codec.cap_sets[cap]))
    return states


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
        env = one_unit_env(PriceChain(values=(10.0, 5.0, 2.0), advance_prob=0.7), horizon=4)
        # a stream whose first price uniform is above the next two
        seed = first_seed(lambda u: u[1, 0] < u[0, 0] and u[2, 0] < u[0, 0], horizon=4, n_units=1)
        first = stream_prices(seed, 4, 1)[0, 0]
        # a uniform at advance_prob stays, one below it moves one rung down
        states = compiled_episode(env, [0, 0, 0, 0], [first], seed)
        assert [idx for _, idx, _ in states] == [(0,), (0,), (1,), (2,)]
        states = compiled_episode(env, [0, 0, 0, 0], [np.nextafter(first, 1.0)], seed)
        assert [idx for _, idx, _ in states] == [(0,), (1,), (2,), (2,)]

    def test_floor_is_absorbing(self):
        env = one_unit_env(PriceChain(values=(10.0, 5.0), advance_prob=0.9), horizon=3)
        states = compiled_episode(env, [0, 0, 0], [1.0])
        assert [idx for _, idx, _ in states] == [(0,), (1,), (1,)]

    def test_transition_matrix_is_stochastic(self):
        chain = PriceChain(values=(10.0, 5.0, 2.0), advance_prob=0.3)
        mat = chain.transition_matrix()
        assert np.allclose(mat.sum(axis=1), 1.0)
        assert mat[0, 1] == pytest.approx(0.3)
        assert mat[1, 1] == pytest.approx(0.7)
        assert mat[2, 2] == 1.0
        assert mat[2, 0] == mat[2, 1] == 0.0


class TestInstallAction:
    """Actions are integer indices: 0 does nothing, 1 + unit * levels +
    level installs that level on that unit."""

    def test_do_nothing(self):
        env = make_env()
        codec = env.codec
        assert env.action_labels[0] == "do-nothing"
        assert not env.invest_table()[:, 0].any()
        assert codec.cap_next[:, 0].tolist() == list(range(codec.c_full))

    def test_install(self):
        env = make_env()
        codec = env.codec
        a = 1 + 1 * len(env.levels_kwh) + 1  # beta 500 kWh
        assert env.action_labels[a] == "install beta 500 kWh"
        grown = codec.cap_next[0, a]
        assert codec.cap_sets[grown] == (a - 1,)
        assert env.capacity_of(grown) == {"alpha": 0.0, "beta": 500.0}
        assert env.invest_table()[0, a] == 500 * 150.0


class TestStateCodec:
    def test_code_round_trips(self):
        # code = (period * P + price combo) * C + cap decodes with divmod,
        # and the combo's digits pack back through price_combo
        env = make_env()
        codec = env.codec
        for code in codec.state_codes:
            tp, cap = divmod(int(code), codec.c_full)
            t, p = divmod(tp, codec.p_full)
            digits = tuple(int(d) for d in p // codec.price_strides % codec.ladder_sizes)
            assert t < env.horizon and cap < codec.cap_count_at(t)
            assert all(d <= t for d in digits)
            assert (t * codec.p_full + codec.price_combo(digits)) * codec.c_full + cap == code

    def test_codes_sorted_strictly(self):
        codec = make_env().codec
        assert np.all(np.diff(codec.state_codes) > 0)

    def test_index_of_rejects_unreachable(self):
        env = make_env()
        codec = env.codec
        # price index 1 cannot be reached at period 0
        bad = codec.price_combo((1, 0)) * codec.c_full
        with pytest.raises(KeyError, match="not a reachable non-terminal state"):
            row_index(codec.state_codes, bad)

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
        double_small = codec.cap_sets.index((0, 0))  # two alpha-250 installs
        one_big = codec.cap_sets.index((1,))  # one alpha-500 install
        assert double_small != one_big
        assert env.capacity_of(double_small) == env.capacity_of(one_big)

    def test_tiny_census(self):
        codec = make_env().codec
        assert codec.block_starts == [0, 1, 21]
        assert codec.n_states == 81

    def test_large_census_formula(self):
        codec = StateCodec(horizon=4, ladder_sizes=[4, 4, 4, 4], n_units=4, n_levels=3)
        want = [
            (t + 1) ** 4 * sum(math.comb(11 + k, k) for k in range(t + 1)) for t in range(4)
        ]
        assert list(np.diff(codec.block_starts + [codec.n_states])) == want
        assert codec.n_states == 124060
        assert codec.c_full == 1820
        assert codec.p_full == 256

    def test_reachability_census_by_breadth_first_walk(self):
        # independent oracle: walk (period, price indices, sorted installs)
        # from the start, branching every price chain both ways (stay, or
        # advance unless at the floor) and growing the install multiset by
        # any one option, and compare the discovered set to the codec's.
        env = make_env()
        codec = env.codec
        ladders = [len(e.chain) for e in env.catalog]
        frontier = {(0, (0,) * len(ladders), ())}
        nonterminal = set()
        while frontier:
            nxt = set()
            for t, idx, installs in frontier:
                if t == env.horizon:
                    continue
                nonterminal.add((t, idx, installs))
                grown = [installs] + [tuple(sorted(installs + (j,))) for j in range(codec.n_options)]
                steps = [{i, min(i + 1, n - 1)} for i, n in zip(idx, ladders)]
                nxt.update((t + 1, p, g) for p in itertools.product(*steps) for g in grown)
            frontier = nxt
        codes = sorted(
            (t * codec.p_full + codec.price_combo(idx)) * codec.c_full + codec.cap_sets.index(installs)
            for t, idx, installs in nonterminal
        )
        assert codes == list(codec.state_codes)

    @pytest.mark.parametrize("ladders", [[2, 2], [3, 2, 4], [4, 1]])
    def test_row_base_plus_cap_index_is_the_sorted_row(self, ladders):
        codec = StateCodec(horizon=3, ladder_sizes=ladders, n_units=len(ladders), n_levels=2)
        base = codec.row_base
        for row, code in enumerate(codec.state_codes):
            tp, cap = divmod(int(code), codec.c_full)
            t, p = divmod(tp, codec.p_full)
            assert base[t, p] + cap == row
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
        assert codec.row_base.tobytes() == want.row_base.tobytes()
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
        cap = env.codec.cap_sets.index((0, 1, 2))  # alpha at each level, in multiset order
        assert env.capacity_of(cap) == {"alpha": (0.1 + 0.2) + 0.7, "beta": 0.0}
        assert (0.1 + 0.2) + 0.7 != (0.7 + 0.2) + 0.1

    def test_price_combo_digits_round_trip(self):
        # digit tuples in lexicographic order, first unit most significant,
        # map onto 0 .. P - 1 in order
        codec = StateCodec(horizon=2, ladder_sizes=[3, 2, 4], n_units=3, n_levels=1)
        digits = itertools.product(range(3), range(2), range(4))
        assert [codec.price_combo(d) for d in digits] == list(range(codec.p_full))

    def test_one_codec_serves_every_environment_of_its_shape(self):
        # the two case-study configs differ only in the outage model
        codec = load_config("casestudy-single").env().codec
        assert load_config("casestudy-superposed").env().codec is codec
        assert make_env().codec is make_env().codec
        assert make_env(horizon=2).codec is not make_env().codec

    @pytest.mark.parametrize("ladders, n_levels", [([3, 2, 4], 2), ([4, 1], 3), ([1], 1)])
    def test_decode_tables_invert_the_packing(self, ladders, n_levels):
        codec = StateCodec(horizon=2, ladder_sizes=ladders, n_units=len(ladders), n_levels=n_levels)
        assert (codec.digits @ codec.price_strides).tolist() == list(range(codec.p_full))
        assert ((codec.digits >= 0) & (codec.digits < codec.ladder_sizes)).all()
        assert (codec.option_unit * n_levels + codec.option_level).tolist() == list(range(codec.n_options))
        assert ((codec.option_level >= 0) & (codec.option_level < n_levels)).all()

    def test_codec_arrays_are_read_only(self):
        codec = make_env().codec
        for a in (codec.state_codes, codec.cap_next, codec.cap_array, codec.ladder_sizes, codec.price_strides,
                  codec.digits, codec.option_unit, codec.option_level, codec.row_base, *codec.period_combos):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0


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
        assert env.action_labels == (
            "do-nothing",
            "install alpha 200 kWh",
            "install alpha 500 kWh",
            "install beta 200 kWh",
            "install beta 500 kWh",
        )
        assert len(env.action_labels) == env.codec.n_actions

    def test_initial_state(self):
        # code 0 is the start: period 0, every price at its ladder top,
        # nothing installed, and the first row of the table
        env = make_env()
        codec = env.codec
        assert codec.state_codes[0] == 0
        assert codec.row_base[0, 0] == 0
        assert codec.cap_sets[0] == ()
        assert env.capacity_of(0) == {"alpha": 0.0, "beta": 0.0}
        assert compiled_episode(env, [0, 0, 0], [0.0, 0.0])[0] == (0, (0, 0), ())

    def test_legal_actions_empty_at_terminal(self):
        # a multiset of horizon installs is reached only at the horizon: it
        # grows no further, and no terminal state has a row
        env = make_env()
        codec = env.codec
        full = [c for c, cap in enumerate(codec.cap_sets) if len(cap) == env.horizon]
        assert full and (codec.cap_next[full, 1:] == -1).all()
        assert codec.cap_count_at(env.horizon - 1) == min(full)
        for p in range(codec.p_full):
            with pytest.raises(KeyError, match="not a reachable non-terminal state"):
                row_index(codec.state_codes, (env.horizon * codec.p_full + p) * codec.c_full)

    def test_transition_applies_install_and_walks_prices(self):
        env = make_env()
        # install beta 200 (option 1 * 2 levels + 0); alpha always
        # advances, beta never
        states = compiled_episode(env, [3, 0, 0], [1.0, 0.0])
        assert states[1] == (1, (1, 0), (2,))
        assert env.capacity_of(env.codec.cap_sets.index((2,))) == {"alpha": 0.0, "beta": 200.0}

    def test_transition_consumes_uniform_at_absorbing_floor(self):
        env = make_env()
        # alpha always advances; beta advances below the smaller of its own
        # first two uniforms, which alpha's second one is below
        seed = first_seed(lambda u: u[1, 0] < min(u[0, 1], u[1, 1]), horizon=3, n_units=2)
        beta = min(stream_prices(seed, 3, 2)[:2, 1])
        states = compiled_episode(env, [0, 0, 0], [1.0, beta], seed)
        # in period 1 alpha's uniform still went to alpha (stuck at its
        # floor), so beta drew its own and stayed; skipping floor units
        # would hand beta alpha's uniform and wrongly advance it
        assert [idx for _, idx, _ in states] == [(0, 0), (1, 0), (1, 0)]

    def test_state_validation(self):
        env = make_env()
        codec = env.codec
        # more installs than elapsed periods
        with pytest.raises(KeyError, match="not a reachable non-terminal state"):
            row_index(codec.state_codes, codec.cap_sets.index((0,)))
        # every multiset is stored sorted, so each has one index
        assert all(list(cap) == sorted(cap) for cap in codec.cap_sets)
        assert len(set(codec.cap_sets)) == codec.c_full

    def test_display_tuple_uses_ladder_values(self):
        # a trace row's state shows the period, the ladder value of each
        # price index and the installed kWh per unit
        env = make_env()
        codec = env.codec
        values = np.zeros((codec.n_states, codec.n_actions))
        values[0, 3] = 1.0  # install beta 200 at the start
        qtable = QTable(codec.state_codes, values, np.zeros(values.shape, np.int64), env.action_labels,
                        config_hash=None, schedule={}, seed=0, codec_meta={})
        traj = PriceTrajectory(units=("alpha", "beta"), values=((400.0, 290.0, 290.0), (150.0, 150.0, 95.0)))
        trace = rollout(qtable, env, traj, config_hash="c", planning_hash="p")
        assert trace.rows[1].state == (1, 290, 150, 0, 200)

    def test_reward_arithmetic(self):
        # at horizon 1 the exact Q-values are the rewards:
        # -(invest at the price + outage cost of the grown multiset)
        env = make_env(horizon=1)
        env.attach_metamodel(linear_cost_table(env, dollars_per_kwh=100.0))
        q = value_iteration(env).values[0]
        # alpha 500 kWh at ladder top 400; outage cost = 100 * 500 installed kWh
        assert q[2] == pytest.approx(-(500 * 400 + 100 * 500))
        # do-nothing pays only the standing outage cost of what is installed
        assert q[0] == 0.0
        tables = env.kernel_tables()
        assert -tables.invest[0, 2] - tables.cost_of_cap[tables.cap_next[0, 2]] == q[2]

    def test_reward_requires_metamodel(self):
        env = make_env()
        with pytest.raises(RuntimeError, match="attach a metamodel"):
            policy_value(env, np.zeros(env.codec.n_states, np.int64))
        with pytest.raises(RuntimeError, match="attach a metamodel"):
            train(env, TrainingSchedule(episodes=1, seed=0))

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
        env = make_env(horizon=1)
        env.attach_metamodel(cost_table(env, lambda kwh: np.zeros(len(kwh))))
        assert not env.kernel_tables().cost_of_cap.any()
        # only the investment remains: beta 500 kWh at ladder top 150
        assert value_iteration(env).values[0, 4] == pytest.approx(-500 * 150)

    def test_invest_table_values(self):
        env = make_env()
        invest = env.invest_table()
        codec = env.codec
        assert invest.shape == (codec.p_full, codec.n_actions)
        for d_alpha, d_beta in itertools.product(range(2), range(2)):
            p = codec.price_combo((d_alpha, d_beta))
            alpha_price = env.catalog[0].chain.values[d_alpha]
            beta_price = env.catalog[1].chain.values[d_beta]
            assert invest[p].tolist() == [0.0, 200 * alpha_price, 500 * alpha_price, 200 * beta_price, 500 * beta_price]

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


class TestUniqueRows:
    # A small pool makes repeated rows and +-0.0 ties common; NaN is left
    # out, as no installed-kWh table holds one.
    @given(
        dtype=st.sampled_from([np.float64, np.float32, np.int64]),
        shape=st.tuples(st.integers(0, 60), st.integers(1, 4)),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_np_unique(self, dtype, shape, data):
        pool = [0.0, -0.0, 1.0, 2.5, -3.0, 250.0] if dtype != np.int64 else [0, 1, -3, 250]
        cells = data.draw(st.lists(st.sampled_from(pool), min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]))
        a = np.array(cells, dtype=dtype).reshape(shape)
        got, want = unique_rows(a), np.unique(a, axis=0)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.flags.c_contiguous
        assert np.array_equal(got, want)  # same rows in the same order
        # np.unique's quicksort picks an arbitrary member of a group of rows
        # equal up to the sign of zero once there are more than 16 rows
        assert (got + 0).tobytes() == (want + 0).tobytes()
        if len(a) <= 16 or not np.signbit(a[a == 0]).any():
            assert got.tobytes() == want.tobytes()

    def test_keeps_the_first_signed_zero(self):
        rows = np.array([[1.0, 0.0], [-0.0, 2.0], [0.0, 2.0], [1.0, -0.0]])
        got = unique_rows(rows)
        assert got.tolist() == [[0.0, 2.0], [1.0, 0.0]]
        assert np.signbit(got).tolist() == [[True, False], [False, False]]

    def test_reachable_portfolios_equal_np_unique_bytes(self):
        for env in (make_env(), PlanningEnv(horizon=4, catalog=make_env().catalog, levels_kwh=(250.0, 500.0, 1000.0))):
            assert env.reachable_portfolios().tobytes() == np.unique(env.installed_kwh, axis=0).tobytes()

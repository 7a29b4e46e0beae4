"""Training schedules, Q-learning, the exact solver, and their agreement."""

import ctypes
import functools
import itertools
import math
import mmap
import re
import shutil
import subprocess
import sys
import tracemalloc
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outageplan import _kernels, persist
from outageplan.config import load_config
from outageplan.errors import ArtifactMismatchError, OutagePlanError
from outageplan.mdp import PlanningEnv, PriceChain, UnitCatalogEntry
from outageplan.pcg64 import PCG64
from outageplan.simulate import StorageUnitSpec, build_metamodel
from outageplan.solver import (
    CONVERGENCE_EPOCH,
    _price_expectation,
    QTable,
    TrainingSchedule,
    _BLOCK_ROWS,
    first_max,
    greedy_policy,
    policy_value,
    schedule_at,
    train,
    value_iteration,
    write_convergence_csv,
)

from conftest import cost_table, stream_words


def unit(name, ladder, advance_prob):
    return UnitCatalogEntry(
        storage=StorageUnitSpec(
            name=name, round_trip_efficiency=1.0, usable_fraction=1.0, power_limit=1.0
        ),
        chain=PriceChain(values=ladder, advance_prob=advance_prob),
    )


def mini_env(horizon=2):
    env = PlanningEnv(
        horizon=horizon,
        catalog=(unit("a", (400.0, 290.0), 0.7), unit("b", (150.0, 95.0), 0.6)),
        levels_kwh=(200.0, 500.0),
    )
    # concave synthetic outage cost: storing more helps, with diminishing value
    env.attach_metamodel(cost_table(env, lambda kwh: 120_000.0 / (1.0 + kwh.sum(axis=1) / 300.0)))
    return env


START = (0, (0, 0), ())


def expectimax(env, state, gamma=1.0, memo=None):
    """Independent recursive oracle for the exact solver over
    (period, price indices, sorted installs) states."""
    if memo is None:
        memo = {}
    period, price_idx, installs = state
    if period == env.horizon:
        return 0.0
    if state in memo:
        return memo[state]

    def price_branches(price_idx):
        per_unit = []
        for entry, idx in zip(env.catalog, price_idx):
            ap = entry.chain.advance_prob
            if idx < len(entry.chain) - 1:
                per_unit.append([(idx + 1, ap), (idx, 1.0 - ap)])
            else:
                per_unit.append([(idx, 1.0)])
        for combo in itertools.product(*per_unit):
            digits = tuple(i for i, _ in combo)
            prob = math.prod(p for _, p in combo)
            yield digits, prob

    n_levels = len(env.levels_kwh)
    best = -math.inf
    # do nothing, or install one level on one unit at its current price
    for option in [None] + list(range(len(env.catalog) * n_levels)):
        if option is None:
            invest, grown = 0.0, installs
        else:
            u, level = divmod(option, n_levels)
            invest = env.levels_kwh[level] * env.catalog[u].chain.values[price_idx[u]]
            grown = tuple(sorted(installs + (option,)))
        r = -(invest + env._cost_of_cap[env.codec.cap_sets.index(grown)])
        ev = 0.0
        for digits, prob in price_branches(price_idx):
            ev += prob * expectimax(env, (period + 1, digits, grown), gamma, memo)
        best = max(best, r + gamma * ev)
    memo[state] = best
    return best


class TestSchedule:
    def test_endpoints(self):
        s = TrainingSchedule(episodes=101)
        assert schedule_at(s, 0) == (0.5, 1.0)
        final = schedule_at(s, 100)
        assert final[0] == pytest.approx(0.01, abs=1e-12)
        assert final[1] == pytest.approx(0.05, abs=1e-12)

    def test_linear_midpoint(self):
        s = TrainingSchedule(episodes=3, alpha_start=0.4, alpha_end=0.2, epsilon_start=0.8, epsilon_end=0.0)
        alpha, eps = schedule_at(s, 1)
        assert alpha == pytest.approx(0.3)
        assert eps == pytest.approx(0.4)

    def test_single_episode_uses_start(self):
        s = TrainingSchedule(episodes=1)
        assert schedule_at(s, 0) == (0.5, 1.0)

    def test_domain(self):
        s = TrainingSchedule(episodes=10)
        with pytest.raises(ValueError, match="outside"):
            schedule_at(s, 10)
        with pytest.raises(ValueError, match="outside"):
            schedule_at(s, -1)

    def test_episode_arrays(self):
        schedule = TrainingSchedule(episodes=7, alpha_start=0.3, alpha_end=0.07, epsilon_end=0.1)
        alphas, epsilons = schedule_at(schedule, np.arange(7))
        for i in range(7):
            assert (alphas[i], epsilons[i]) == schedule_at(schedule, i)
        with pytest.raises(ValueError, match="episode 7 outside"):
            schedule_at(schedule, np.arange(3, 8))

    def test_validation(self):
        with pytest.raises(ValueError, match="episodes must be >= 1"):
            TrainingSchedule(episodes=0)
        assert TrainingSchedule(episodes=2**31 - 1).episodes == 2**31 - 1
        with pytest.raises(ValueError, match="episodes must be <= 2147483647, the limit of an int32 visit count"):
            TrainingSchedule(episodes=2**31)
        with pytest.raises(ValueError, match="alpha must not grow"):
            TrainingSchedule(episodes=10, alpha_start=0.1, alpha_end=0.5)
        with pytest.raises(ValueError, match="epsilon must not grow"):
            TrainingSchedule(episodes=10, epsilon_start=0.1, epsilon_end=0.5)
        with pytest.raises(ValueError, match="alpha_start must be in"):
            TrainingSchedule(episodes=10, alpha_start=0.0)
        with pytest.raises(ValueError, match="gamma must be in"):
            TrainingSchedule(episodes=10, gamma=1.5)


class TestExactSolver:
    def test_matches_recursive_expectimax(self):
        env = mini_env(horizon=2)
        sol = value_iteration(env)
        memo = {}
        assert sol.expected_return() == pytest.approx(expectimax(env, START, memo=memo), abs=1e-9)
        # spot-check interior states too
        codec = env.codec
        for state in ((1, (1, 0), (2,)), (1, (0, 1), ()), (1, (1, 1), (1,))):
            t, idx, installs = state
            row = codec.row_base[t, codec.price_combo(idx)] + codec.cap_sets.index(installs)
            got = sol.values[row].max()
            assert got == pytest.approx(expectimax(env, state, memo=memo), abs=1e-9)

    def test_three_period_expectimax(self):
        env = mini_env(horizon=3)
        sol = value_iteration(env)
        assert sol.expected_return() == pytest.approx(expectimax(env, START), abs=1e-9)

    def test_terminal_value_is_zero(self):
        # the last period's Q-values are the bare rewards, so the terminal
        # value adds nothing: not even the sign of a zero
        env = named_env("tiny-zero-cost")
        sol = value_iteration(env)
        codec = env.codec
        t = env.horizon - 1
        combos, c_count = codec.period_combos[t], codec.cap_count_at(t)
        q_last = sol.values[codec.block_starts[t] :].reshape(len(combos), c_count, codec.n_actions)
        cap_next = codec.cap_next[:c_count]
        assert np.array_equal(q_last, -env.invest_table()[combos][:, None, :] - env._cost_of_cap[cap_next][None, :, :])
        assert not np.signbit(q_last[:, :, 0]).any()

    def test_single_state_closed_form(self):
        env = PlanningEnv(
            horizon=1, catalog=(unit("a", (100.0,), 0.5),), levels_kwh=(50.0,)
        )
        env.attach_metamodel(cost_table(env, lambda kwh: np.where(kwh[:, 0] == 0.0, 77.0, 13.0)))
        sol = value_iteration(env)
        q = sol.values[0]  # the start state: top price, nothing installed
        assert q[0] == pytest.approx(-77.0)
        assert q[1] == pytest.approx(-(50.0 * 100.0 + 13.0))
        assert sol.expected_return() == pytest.approx(-77.0)

    def test_solve_memory_stays_near_one_table(self):
        # each period's action values are written in place on the stored
        # rows; a copy of a period's values, or values kept over the full
        # price grid, pushes the peak past the bound
        env = metamodel_env("casestudy-superposed")
        table_bytes = env.codec.n_states * env.codec.n_actions * 8
        tracemalloc.start()
        try:
            sol = value_iteration(env)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sol.values.shape == (env.codec.n_states, env.codec.n_actions)
        assert peak < 1.4 * table_bytes

    def test_policy_value_memory_stays_near_three_grid_tables(self):
        # policy mode keeps no action values: the next-period grid, and while
        # the expectation is built, its two buffers. Holding the previous
        # expectation, the gathers or a (states, 1) values array pushes the
        # peak past the bound
        env = metamodel_env("casestudy-superposed")
        codec = env.codec
        policy = value_iteration(env).greedy_policy()
        grid_bytes = codec.p_full * codec.cap_count_at(env.horizon - 1) * 8
        tracemalloc.start()
        try:
            value = policy_value(env, policy)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert math.isfinite(value)
        assert peak < 3.5 * grid_bytes

    @pytest.mark.parametrize("gamma", [math.nan, -0.5, 1.5, math.inf])
    def test_refuses_a_gamma_outside_the_unit_interval(self, gamma):
        # a NaN, an infinite or an out-of-range discount gave NaN, -inf or a
        # plausible value
        env = metamodel_env("tiny")
        policy = np.zeros(env.codec.n_states, dtype=np.int64)
        message = rf"^gamma must be in \[0, 1\], got {re.escape(str(gamma))}$"
        with pytest.raises(ValueError, match=message):
            value_iteration(env, gamma=gamma)
        with pytest.raises(ValueError, match=message):
            policy_value(env, policy, gamma=gamma)
        with pytest.raises(ValueError, match=message):
            TrainingSchedule(episodes=10, gamma=gamma)

    def test_discount_shrinks_future_weight(self):
        env = mini_env(horizon=2)
        full = value_iteration(env, gamma=1.0).expected_return()
        myopic = value_iteration(env, gamma=0.0).expected_return()
        assert myopic > full  # with gamma=0 only the first period's cost counts

    def test_refuses_oversized_instance(self):
        env = mini_env()
        with pytest.raises(ValueError, match="above the enumeration cap"):
            value_iteration(env, max_states=10)

    def test_cap_counts_only_stored_states(self):
        # the terminal states are never stored, so they do not count
        env = mini_env()
        assert value_iteration(env, max_states=env.codec.n_states).values.shape[0] == env.codec.n_states

    def test_requires_metamodel(self):
        env = PlanningEnv(horizon=1, catalog=(unit("a", (10.0,), 0.5),), levels_kwh=(1.0,))
        with pytest.raises(RuntimeError, match="attach a metamodel"):
            value_iteration(env)

    def test_policy_value_of_optimal_policy(self):
        env = mini_env(horizon=3)
        sol = value_iteration(env)
        assert policy_value(env, sol.greedy_policy()) == pytest.approx(
            sol.expected_return(), abs=1e-9
        )

    def test_policy_value_never_beats_optimal(self):
        env = mini_env(horizon=2)
        sol = value_iteration(env)
        opt = sol.expected_return()
        rng = np.random.default_rng(0)
        for _ in range(10):
            policy = rng.integers(0, env.codec.n_actions, size=env.codec.n_states)
            assert policy_value(env, policy) <= opt + 1e-9

    def test_policy_value_all_do_nothing(self):
        env = mini_env(horizon=2)
        policy = np.zeros(env.codec.n_states, dtype=np.int64)
        # never installing: pay the zero-storage outage cost every period
        zero_cost = 120_000.0  # mini_env's outage cost with nothing installed
        assert policy_value(env, policy) == pytest.approx(-2 * zero_cost)

    def test_policy_value_rejects_wrong_shape(self):
        env = mini_env()
        with pytest.raises(ValueError, match="policy must have shape"):
            policy_value(env, np.zeros(3, dtype=np.int64))

    @pytest.mark.parametrize("action", [-1, 5], ids=["negative", "n-actions"])
    def test_policy_value_rejects_an_action_out_of_range(self, action):
        # numpy would read -1 as the last action and n_actions as an IndexError
        env = mini_env()
        policy = np.zeros(env.codec.n_states, dtype=np.int64)
        policy[3] = action
        with pytest.raises(ValueError, match=rf"^row 3 of the policy holds action {action}, outside \[0, 5\)$"):
            policy_value(env, policy)

    def test_policy_value_rejects_a_float_policy(self):
        env = mini_env()
        with pytest.raises(ValueError, match="^policy must hold integer action indices, not float64$"):
            policy_value(env, np.zeros(env.codec.n_states))


def price_expectation_oracle(env, v_next):
    """E[V(p', .) | p] as one np.tensordot per unit, each result moved back
    to its unit's axis: `_price_expectation` must match byte for byte."""
    codec = env.codec
    shape = tuple(int(n) for n in codec.ladder_sizes) + (v_next.shape[1],)
    out = v_next.reshape(shape)
    for u, entry in enumerate(env.catalog):
        mat = entry.chain.transition_matrix()
        out = np.moveaxis(np.tensordot(mat, out, axes=([1], [u])), 0, u)
    return out.reshape(codec.p_full, v_next.shape[1])


def value_iteration_oracle(env, gamma):
    """Backward induction that takes the price expectation at every period,
    the all-zero terminal values included: the reference `value_iteration`
    must match byte for byte."""
    codec = env.codec
    invest = env.invest_table()
    q_per_period, v_per_period = [None] * env.horizon, [None] * env.horizon
    v_next = np.zeros((codec.p_full, codec.cap_count_at(env.horizon)))
    for t in range(env.horizon - 1, -1, -1):
        cap_next = codec.cap_next[: codec.cap_count_at(t)]
        ev = price_expectation_oracle(env, v_next)
        q_t = -invest[:, None, :] - env._cost_of_cap[cap_next][None, :, :] + gamma * ev[:, cap_next]
        q_per_period[t], v_per_period[t] = q_t, q_t.max(axis=2)
        v_next = v_per_period[t]
    return q_per_period, v_per_period


def policy_value_oracle(env, policy, gamma):
    """`policy_value` with the price expectation taken at every period."""
    codec = env.codec
    invest = env.invest_table()
    v_next = np.zeros((codec.p_full, codec.cap_count_at(env.horizon)))
    for t in range(env.horizon - 1, -1, -1):
        c_count = codec.cap_count_at(t)
        combos = codec.period_combos[t]
        start = codec.block_starts[t]
        actions = np.zeros((codec.p_full, c_count), dtype=np.int64)
        actions[combos, :] = policy[start : start + len(combos) * c_count].reshape(len(combos), c_count)
        ev = price_expectation_oracle(env, v_next)
        cap2 = codec.cap_next[np.arange(c_count)[None, :], actions]
        rows = np.arange(codec.p_full)[:, None]
        v_next = -invest[rows, actions] - env._cost_of_cap[cap2] + gamma * ev[rows, cap2]
    return float(v_next[0, 0])


class TestExactSolverOracle:
    @pytest.mark.parametrize("gamma", [1.0, 0.9, 0.0])
    @pytest.mark.parametrize("name", ["tiny", "casestudy-single", "tiny-zero-cost", "unequal-ladders"])
    def test_matches_full_expectation_backward_induction(self, name, gamma):
        env = named_env(name)
        want_q, want_v = value_iteration_oracle(env, gamma)
        sol = value_iteration(env, gamma=gamma)
        codec = env.codec
        want = np.concatenate([
            q_t[codec.period_combos[t], : codec.cap_count_at(t)].reshape(-1, codec.n_actions)
            for t, q_t in enumerate(want_q)
        ])
        assert sol.values.dtype == want.dtype and sol.values.shape == want.shape
        assert sol.values.tobytes() == want.tobytes()
        assert sol.expected_return().hex() == float(want_v[0][0, 0]).hex()
        assert policy_value(env, sol.greedy_policy(), gamma).hex() == sol.expected_return().hex()
        rng = np.random.default_rng(7)
        policies = [
            sol.greedy_policy(),
            np.zeros(env.codec.n_states, dtype=np.int64),
            rng.integers(0, env.codec.n_actions, size=env.codec.n_states),
        ]
        for policy in policies:
            assert policy_value(env, policy, gamma).hex() == policy_value_oracle(env, policy, gamma).hex()
        if name == "tiny-zero-cost":
            last = sol.values[codec.block_starts[-1] :]
            assert not np.signbit(last[last == 0.0]).any() and (last == 0.0).any()

    @given(
        name=st.sampled_from(["tiny", "casestudy-single", "tiny-zero-cost", "unequal-ladders"]),
        seed=st.integers(0, 2**32 - 1),
        width=st.integers(1, 60),
        zero_columns=st.lists(st.integers(0, 59), max_size=4),
        negative_zero=st.sampled_from([0.0, 0.1, 1.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_price_expectation_matches_the_tensordot_chain(self, name, seed, width, zero_columns, negative_zero):
        # the reused buffers feed each unit's np.dot the same bytes in the
        # same layout as np.tensordot; -0.0 and all-zero columns keep the
        # sign of each zero product visible
        env = named_env(name)
        rng = np.random.default_rng(seed)
        v_next = -rng.exponential(1e5, size=(env.codec.p_full, width))
        v_next[rng.random(v_next.shape) < negative_zero] = -0.0
        v_next[:, [c for c in zero_columns if c < width]] = 0.0
        got, want = _price_expectation(env, v_next), price_expectation_oracle(env, v_next)
        assert got.dtype == want.dtype and got.shape == want.shape and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()


class TestTraining:
    def test_learns_the_exact_optimum_on_a_small_instance(self):
        env = mini_env(horizon=2)
        sol = value_iteration(env)
        res = train(env, TrainingSchedule(episodes=40_000, seed=3))
        assert np.array_equal(res.qtable.greedy_policy(), sol.greedy_policy())
        assert policy_value(env, res.qtable.greedy_policy()) == pytest.approx(
            sol.expected_return(), abs=1e-9
        )

    def test_single_state_q_converges_to_exact_values(self):
        env = PlanningEnv(
            horizon=1, catalog=(unit("a", (100.0,), 0.5),), levels_kwh=(50.0,)
        )
        env.attach_metamodel(cost_table(env, lambda kwh: np.where(kwh[:, 0] == 0.0, 77.0, 13.0)))
        res = train(env, TrainingSchedule(episodes=5000, seed=0))
        q = res.qtable.values[res.qtable.index_of(0)]  # code 0 is the start state
        assert q[0] == pytest.approx(-77.0, rel=1e-3)
        assert q[1] == pytest.approx(-5013.0, rel=1e-3)
        assert res.qtable.greedy_policy()[0] == 0  # do nothing

    def test_the_result_holds_the_codec_codes_not_a_copy(self):
        env = mini_env()
        res = train(env, TrainingSchedule(episodes=10, seed=0))
        assert res.state_codes is env.codec.state_codes
        assert not res.state_codes.flags.writeable

    def test_deterministic_per_seed(self):
        env = mini_env()
        a = train(env, TrainingSchedule(episodes=7000, seed=11))
        b = train(env, TrainingSchedule(episodes=7000, seed=11))
        c = train(env, TrainingSchedule(episodes=7000, seed=12))
        assert np.array_equal(a.qtable.values, b.qtable.values)
        assert np.array_equal(a.qtable.visits, b.qtable.visits)
        assert a.convergence == b.convergence
        assert not np.array_equal(a.qtable.values, c.qtable.values)

    def test_convergence_log_epochs(self):
        env = mini_env()
        res = train(env, TrainingSchedule(episodes=25_000, seed=1))
        assert [p.episode for p in res.convergence] == [10_000, 20_000, 25_000]
        assert all(p.max_q_delta >= 0 for p in res.convergence)
        assert CONVERGENCE_EPOCH == 10_000

    def test_updates_settle_as_alpha_decays(self):
        env = mini_env()
        res = train(env, TrainingSchedule(episodes=50_000, seed=2))
        assert res.convergence[-1].max_q_delta < res.convergence[0].max_q_delta

    def test_mean_return_is_negative_cost(self):
        env = mini_env()
        res = train(env, TrainingSchedule(episodes=10_000, seed=4))
        assert res.convergence[-1].mean_return < 0

    def test_unvisited_rows_stay_zero_and_visits_count_steps(self):
        env = mini_env(horizon=2)
        schedule = TrainingSchedule(episodes=500, seed=9)
        res = train(env, schedule)
        assert res.qtable.visits.sum() == 500 * 2
        assert res.pairs_visited == np.count_nonzero(res.qtable.visits)
        untouched = res.qtable.visits == 0
        assert np.all(res.qtable.values[untouched] == 0.0)

    def test_visit_mass_respects_epsilon_floor(self):
        # with epsilon pinned at 1.0 the behavior policy is uniform over
        # actions at the initial state
        env = mini_env(horizon=2)
        schedule = TrainingSchedule(
            episodes=20_000, epsilon_start=1.0, epsilon_end=1.0, seed=8
        )
        res = train(env, schedule)
        root = res.qtable.index_of(0)  # code 0 is the start state
        freq = res.qtable.visits[root] / res.qtable.visits[root].sum()
        assert np.allclose(freq, 1 / env.codec.n_actions, atol=0.02)

    def test_reward_sign_violation_is_caught(self):
        env = mini_env()
        env._cost_of_cap = -np.abs(env._cost_of_cap)  # force positive rewards
        with pytest.raises(RuntimeError, match="Q updates left"):
            train(env, TrainingSchedule(episodes=2000, seed=0))

    def test_nan_cost_is_caught(self):
        # NaN compares false both ways, so a NaN Q-value passes `q < lower or q > 0`.
        # attach_metamodel refuses a NaN cost, so it is planted after attaching.
        env = load_config("tiny").env()
        env.attach_metamodel(cost_table(env, lambda kwh: np.full(len(kwh), 1000.0)))
        env._cost_of_cap[0] = math.nan
        with pytest.raises(RuntimeError, match="Q updates left"):
            train(env, TrainingSchedule(episodes=100, seed=0))

    def test_greedy_action_rejects_terminal(self):
        env = mini_env()
        res = train(env, TrainingSchedule(episodes=100, seed=0))
        terminal = (env.horizon * env.codec.p_full + 0) * env.codec.c_full
        with pytest.raises(KeyError, match="not a reachable non-terminal state"):
            res.qtable.index_of(terminal)


def unaligned(a):
    """A read-only copy of `a` at an address 3 mod 8, as a loaded Q-table's values."""
    return np.frombuffer(b"\0" * 3 + a.tobytes(), a.dtype, offset=3).reshape(a.shape)


class TestGreedyPolicy:
    @pytest.mark.parametrize("layout", [np.asarray, unaligned], ids=["aligned", "unaligned"])
    @pytest.mark.parametrize(
        "row, shown",
        [([0.0, math.nan, 1.0], "nan"), ([-1.0, math.inf, 0.0], "inf"), ([-math.inf] * 3, "-inf")],
        ids=["nan", "plus-inf", "all-minus-inf"],
    )
    def test_a_row_without_a_finite_maximum_is_refused(self, row, shown, layout):
        values = np.zeros((_BLOCK_ROWS + 5, 3))
        values[-2] = row
        with pytest.raises(ValueError, match=f"^row {len(values) - 2} of the action values has the non-finite maximum {shown}$"):
            greedy_policy(layout(values))

    def test_an_unaligned_table_gives_the_first_maximum(self):
        values = np.random.default_rng(3).choice([0.0, -0.0, -1.0, -2.5], size=(2 * _BLOCK_ROWS + 7, 13))
        table = unaligned(values)
        assert not table.flags.aligned
        assert greedy_policy(table).tolist() == np.argmax(values, axis=1).tolist()

    @staticmethod
    def mapped_rss_kb(path):
        """Resident kB of this process's maps of `path`, from /proc/self/smaps."""
        rss, inside = 0, False
        with open("/proc/self/smaps") as fh:
            for line in fh:
                fields = line.split()
                if re.match(r"^[0-9a-f]+-[0-9a-f]+ ", line):
                    inside = fields[-1] == str(path)
                elif inside and fields[0] == "Rss:":
                    rss += int(fields[1])
        return rss

    @pytest.mark.skipif(not hasattr(mmap, "MADV_DONTNEED"), reason="no MADV_DONTNEED")
    @pytest.mark.parametrize("nan_row", [None, 3 * _BLOCK_ROWS - 2], ids=["finite", "nan-in-the-last-block"])
    def test_a_loaded_table_releases_its_pages_and_keeps_its_policy(self, tmp_path, nan_row):
        values = np.random.default_rng(8).choice([0.0, -0.0, -1.0, -2.5], size=(3 * _BLOCK_ROWS, 13))
        if nan_row is not None:
            values[nan_row, 4] = math.nan
        table = QTable(np.arange(len(values)), values, np.zeros(values.shape, np.int64), [str(a) for a in range(13)],
                       None, {}, 0, {})
        table.save(tmp_path / "q.bin")
        loaded = QTable.load(tmp_path / "q.bin")
        if nan_row is None:
            want = table.greedy_policy()
            assert loaded.greedy_policy().tolist() == want.tolist() == np.argmax(values, axis=1).tolist()
        else:
            with pytest.raises(ValueError, match=f"^row {nan_row} of the action values has the non-finite maximum nan$"):
                loaded.greedy_policy()
        if sys.platform == "linux":
            # of the file's 2.6 MB of values at most the block the scan stopped
            # in stays resident, plus the pages the kernel maps around a fault
            assert self.mapped_rss_kb(tmp_path / "q.bin") * 1024 < values[:_BLOCK_ROWS].nbytes + (128 << 10)
        # a released page is read back from the file: a second scan sees the same table
        assert np.array_equal(loaded.values, values, equal_nan=True)
        if nan_row is None:
            assert loaded.greedy_policy().tolist() == want.tolist()

    def test_minus_inf_beside_a_finite_maximum_is_allowed(self):
        values = np.array([[-math.inf, -1.0, -math.inf], [-2.0, -2.0, -math.inf]])
        assert greedy_policy(values).tolist() == [1, 0]

    @staticmethod
    def numpy_greedy(values):
        """The numpy scan the compiled one replaced: argmax per row, and the
        error of the first row whose value at its argmax is not finite."""
        policy = np.argmax(values, axis=1)
        bad = np.flatnonzero(~np.isfinite(values[np.arange(len(values)), policy]))
        if bad.size:
            return f"row {bad[0]} of the action values has the non-finite maximum {values[bad[0], policy[bad[0]]]}"
        return policy.tolist()

    @pytest.mark.parametrize("layout", [np.asarray, unaligned], ids=["aligned", "unaligned"])
    @pytest.mark.parametrize("column", ["first", "middle", "last", None], ids=lambda c: f"nan-{c}" if c else "no-nan")
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_numpys_argmax(self, layout, column, seed):
        # ties, -0.0 against 0.0, and infinities; a NaN row among finite
        # ones, placed in one column; every table is scanned in two blocks
        rng = np.random.default_rng(seed)
        menu = [0.0, -0.0, -1.0, -2.5, -math.inf] + [math.inf] * (seed % 2)
        values = rng.choice(menu, size=(_BLOCK_ROWS + 40, 7))
        # rows that stay finite up to a late row the NaN or inf may go into
        values[: _BLOCK_ROWS + 20, 0] = 0.0
        values[: _BLOCK_ROWS + 20][np.isposinf(values[: _BLOCK_ROWS + 20])] = -1.0
        if column is not None:
            values[_BLOCK_ROWS + 3, {"first": 0, "middle": 3, "last": 6}[column]] = math.nan
        want = self.numpy_greedy(values)
        if isinstance(want, str):
            with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
                greedy_policy(layout(values))
        else:
            assert greedy_policy(layout(values)).tolist() == want

    @pytest.mark.parametrize("layout", [np.asarray, unaligned], ids=["aligned", "unaligned"])
    def test_each_row_of_a_random_table_matches_numpys_argmax(self, layout):
        values = np.random.default_rng(11).choice([0.0, -0.0, -1.0, -2.5, -math.inf, math.inf, math.nan],
                                                  size=(500, 5), p=[0.3, 0.3, 0.2, 0.1, 0.05, 0.03, 0.02])
        table = layout(values)
        for row in range(len(values)):
            want = self.numpy_greedy(values[row : row + 1])
            if isinstance(want, str):
                with pytest.raises(ValueError, match=f"^{re.escape(want.replace('row 0 ', f'row {row} '))}$"):
                    first_max(table[row : row + 1], row)
            else:
                assert first_max(table[row : row + 1], row).tolist() == want

    @pytest.mark.parametrize(
        "values, policy, message",
        [
            (np.zeros((4, 3)), np.empty(3, np.int64), "policy must be"),
            (np.zeros((4, 3)), np.empty(5, np.int64), "policy must be"),
            (np.zeros((4, 3)), np.empty(4, np.int32), "policy must be"),
            (np.zeros((4, 6))[:, ::2], np.empty(4, np.int64), "values must be"),
            (np.zeros((4, 3), np.float32), np.empty(4, np.int64), "values must be"),
            (np.zeros((4, 0)), np.empty(4, np.int64), "values must be"),
        ],
        ids=["policy-too-short", "policy-too-long", "policy-int32", "strided-values", "float32-values", "no-actions"],
    )
    def test_the_scan_refuses_before_the_c_kernel(self, values, policy, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            _kernels.greedy_rows(values, policy)


def qlearn_chunk_oracle(
    q,
    visits,
    state_codes,
    cap_next,
    invest,
    cost_of_cap,
    ladder_sizes,
    price_strides,
    advance_prob,
    horizon,
    p_full,
    c_full,
    gamma,
    uniforms,
    alphas,
    epsilons,
    q_lower,
):
    """Scalar reference for one chunk: the step-by-step loop over numpy
    arrays that `_kernels.qlearn_chunk` and its compiled episode loop must
    reproduce bit for bit. `uniforms` (episodes, horizon, 2 + units) holds
    every step's explore, action and per-unit price uniforms, as numpy's
    Generator.random draws them from the stream the compiled loop steps."""
    n_episodes = uniforms.shape[0]
    n_units = ladder_sizes.shape[0]
    n_actions = cap_next.shape[1]
    digits = np.zeros(n_units, np.int64)
    max_delta = 0.0
    total_return = 0.0
    violations = 0
    first_visits = 0
    for ep in range(n_episodes):
        alpha = alphas[ep]
        eps = epsilons[ep]
        for u in range(n_units):
            digits[u] = 0
        p = 0
        c = 0
        ep_return = 0.0
        for t in range(horizon):
            code = (t * p_full + p) * c_full + c
            s = np.searchsorted(state_codes, code)
            u_explore = uniforms[ep, t, 0]
            u_action = uniforms[ep, t, 1]
            if u_explore < eps:
                a = int(u_action * n_actions)
                if a >= n_actions:
                    a = n_actions - 1
            else:
                a = 0
                best = q[s, 0]
                for j in range(1, n_actions):
                    if q[s, j] > best:
                        best = q[s, j]
                        a = j
            c2 = cap_next[c, a]
            r = -invest[p, a] - cost_of_cap[c2]
            p2 = 0
            for u in range(n_units):
                d = digits[u]
                if d < ladder_sizes[u] - 1 and uniforms[ep, t, 2 + u] < advance_prob[u]:
                    d += 1
                digits[u] = d
                p2 += d * price_strides[u]
            t2 = t + 1
            if t2 == horizon:
                target = r
            else:
                code2 = (t2 * p_full + p2) * c_full + c2
                s2 = np.searchsorted(state_codes, code2)
                best2 = q[s2, 0]
                for j in range(1, n_actions):
                    if q[s2, j] > best2:
                        best2 = q[s2, j]
                target = r + gamma * best2
            delta = target - q[s, a]
            q_new = q[s, a] + alpha * delta
            q[s, a] = q_new
            if visits[s, a] == 0:
                first_visits += 1
            visits[s, a] += 1
            step = alpha * delta
            if step < 0.0:
                step = -step
            if step > max_delta:
                max_delta = step
            if not (q_lower <= q_new <= 1e-9):
                violations += 1
            ep_return += r
            p = p2
            c = c2
        total_return += ep_return
    return max_delta, total_return, violations, first_visits


def run_chunks(kernel, env, schedule, epoch):
    """Train's chunk loop with a given chunk kernel and epoch length; the
    schedule formula is written out as the reference for `schedule_at`.
    The oracle updates a dense table from uniforms that numpy's
    Generator(PCG64(seed)) draws; the compiled kernel draws its own from the
    package's PCG64 stream of the same seed, which after each chunk must
    stand where numpy's does, and updates a store of the rows it appends,
    sized as `train` sizes it, which is then laid out on the codec's rows.
    Returns the dense values and visits and each chunk's (max |update|,
    summed return, violations, first visits)."""
    tables = env.kernel_tables()
    rng = np.random.Generator(np.random.PCG64(schedule.seed))
    stream = PCG64(schedule.seed).words()
    rows = (tables.state_codes.shape[0], tables.n_actions)
    q = np.zeros(rows)
    # the oracle counts in int64, the compiled loop in int32
    visits = np.zeros(rows, dtype=np.int64 if kernel is qlearn_chunk_oracle else np.int32)
    store = (min(rows[0], schedule.episodes * tables.horizon), tables.n_actions)
    store_q, store_visits = np.zeros(store), np.zeros(store, np.int32)
    slots, n_used = np.full(rows[0], -1, np.int32), 0
    returned = []
    done = 0
    while done < schedule.episodes:
        m = min(epoch, schedule.episodes - done)
        idx = np.arange(done, done + m, dtype=np.float64)
        frac = np.zeros(m) if schedule.episodes == 1 else idx / (schedule.episodes - 1)
        alphas = schedule.alpha_start + (schedule.alpha_end - schedule.alpha_start) * frac
        epsilons = schedule.epsilon_start + (schedule.epsilon_end - schedule.epsilon_start) * frac
        uniforms = rng.random((m, tables.horizon, 2 + len(env.catalog)))
        if kernel is qlearn_chunk_oracle:
            out = kernel(
                q, visits, tables.state_codes, tables.cap_next, tables.invest, tables.cost_of_cap,
                tables.ladder_sizes, tables.price_strides, tables.advance_prob, tables.horizon,
                tables.p_full, tables.c_full, schedule.gamma, uniforms, alphas, epsilons, tables.q_lower,
            )
        else:
            *out, n_used = kernel(
                store_q, store_visits, slots, n_used, tables, schedule.gamma, stream, alphas, epsilons
            )
            assert stream.tolist() == stream_words(rng).tolist()
        returned.append(tuple(out))
        done += m
    if kernel is not qlearn_chunk_oracle:
        touched = np.flatnonzero(slots >= 0)
        assert sorted(slots[touched].tolist()) == list(range(n_used))
        q[touched], visits[touched] = store_q[slots[touched]], store_visits[slots[touched]]
        assert not store_q[n_used:].any() and not store_visits[n_used:].any()
    return q, visits, returned


@functools.cache
def metamodel_env(name):
    cfg = load_config(name)
    env = cfg.env()
    table = build_metamodel(
        cfg.outage_model, env.reachable_portfolios(), cfg.storage_specs(), cfg.microgrid(),
        cfg.period_length_years, replications=8, seed=3,
    )
    env.attach_metamodel(table)
    return env


@functools.cache
def named_env(name):
    """A bundled config with a simulated metamodel, or one of three
    synthetic cases: ladders of 3, 1 and 2 rungs over 4 periods, so each
    unit's price stops at its own floor; a single period, with no next
    state; and tiny at zero outage cost, where every do-nothing reward is
    -0.0."""
    if name == "tiny-zero-cost":
        env = load_config("tiny").env()
        env.attach_metamodel(cost_table(env, lambda kwh: np.zeros(len(kwh))))
        return env
    if name == "unequal-ladders":
        env = PlanningEnv(
            horizon=4,
            catalog=(
                unit("a", (400.0, 290.0, 200.0), 0.7),
                unit("b", (150.0,), 0.6),
                unit("c", (300.0, 250.0), 0.5),
            ),
            levels_kwh=(200.0, 500.0),
        )
        env.attach_metamodel(cost_table(env, lambda kwh: 120_000.0 / (1.0 + kwh.sum(axis=1) / 300.0)))
        return env
    if name == "horizon-1":
        return mini_env(horizon=1)
    return metamodel_env(name)


def exact(returned):
    """(max |update|, summed return, violations, first visits) of each
    chunk, exactly."""
    return [(float(d).hex(), float(r).hex(), int(v), int(n)) for d, r, v, n in returned]


class TestKernelParity:
    @given(
        name=st.sampled_from(["tiny", "tiny-superposed", "unequal-ladders", "horizon-1"]),
        seed=st.integers(0, 2**32 - 1),
        episodes=st.one_of(st.just(1), st.integers(1, 1500)),
        epoch=st.sampled_from([1, 7, 64, CONVERGENCE_EPOCH]),
        epsilon=st.sampled_from([None, 0.0, 1.0]),
        gamma=st.sampled_from([1.0, 0.9, 0.0]),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_scalar_oracle_bit_for_bit(self, name, seed, episodes, epoch, epsilon, gamma):
        env = named_env(name)
        rates = {} if epsilon is None else {"epsilon_start": epsilon, "epsilon_end": epsilon}
        schedule = TrainingSchedule(episodes=episodes, gamma=gamma, seed=seed, **rates)
        want_q, want_visits, want = run_chunks(qlearn_chunk_oracle, env, schedule, epoch)
        got_q, got_visits, got = run_chunks(_kernels.qlearn_chunk, env, schedule, epoch)
        assert got_q.tobytes() == want_q.tobytes()
        assert got_visits.astype(np.int64).tobytes() == want_visits.tobytes()
        assert exact(got) == exact(want)

    def test_train_matches_oracle_across_an_epoch_boundary(self):
        env = metamodel_env("tiny")
        schedule = TrainingSchedule(episodes=CONVERGENCE_EPOCH + 1500, gamma=0.95, seed=12345)
        want_q, want_visits, want = run_chunks(qlearn_chunk_oracle, env, schedule, CONVERGENCE_EPOCH)
        res = train(env, schedule)
        assert res.qtable.values.tobytes() == want_q.tobytes()
        assert res.qtable.visits.astype(np.int64).tobytes() == want_visits.tobytes()
        assert [p.episode for p in res.convergence] == [CONVERGENCE_EPOCH, CONVERGENCE_EPOCH + 1500]
        sizes = [CONVERGENCE_EPOCH, 1500]
        assert res.pairs_visited == sum(n for *_, n in want) == np.count_nonzero(want_visits)
        for point, (max_delta, total_return, *_), m in zip(res.convergence, want, sizes):
            assert point.max_q_delta.hex() == float(max_delta).hex()
            assert point.mean_return.hex() == (float(total_return) / m).hex()

    @pytest.mark.parametrize("name", ["tiny", "tiny-zero-cost"])
    def test_a_next_state_never_updated_reads_as_zero(self, name):
        # on a fresh store an episode's first visits append one row per
        # step, so every step but the last reads a next state that no
        # update has reached: a row the store does not hold
        env = named_env(name)
        tables = env.kernel_tables()
        rows = (tables.state_codes.shape[0], tables.n_actions)
        # default_rng(4) is Generator(PCG64(4)), the kernel's stream
        uniforms = np.random.default_rng(4).random((1, tables.horizon, 2 + len(env.catalog)))
        alphas, epsilons = np.full(1, 0.5), np.full(1, 0.3)
        want_q, want_visits = np.zeros(rows), np.zeros(rows, np.int64)
        want = qlearn_chunk_oracle(
            want_q, want_visits, tables.state_codes, tables.cap_next, tables.invest, tables.cost_of_cap,
            tables.ladder_sizes, tables.price_strides, tables.advance_prob, tables.horizon,
            tables.p_full, tables.c_full, 1.0, uniforms, alphas, epsilons, tables.q_lower,
        )
        store = (tables.horizon, tables.n_actions)
        q, visits, slots = np.zeros(store), np.zeros(store, np.int32), np.full(rows[0], -1, np.int32)
        *got, n_used = _kernels.qlearn_chunk(q, visits, slots, 0, tables, 1.0, PCG64(4).words(), alphas, epsilons)
        assert n_used == tables.horizon
        touched = np.flatnonzero(slots >= 0)
        # rows ascend with the period, and each period's row was appended in turn
        assert slots[touched].tolist() == list(range(tables.horizon))
        dense_q, dense_visits = np.zeros(rows), np.zeros(rows, np.int64)
        dense_q[touched], dense_visits[touched] = q, visits
        assert dense_q.tobytes() == want_q.tobytes()
        assert dense_visits.tobytes() == want_visits.tobytes()
        assert exact([tuple(got)]) == exact([want])


def strict_scan(row):
    """Index of the first maximum under a strict `>` scan, as the C loop
    and the oracle pick it."""
    best = 0
    for j in range(1, len(row)):
        if row[j] > row[best]:
            best = j
    return best


class TestTies:
    def test_strict_scan_agrees_with_python_max(self):
        rows = [list(r) for r in itertools.product([0.0, -0.0, -1.0], repeat=3)]
        for row in rows:
            a = row.index(max(row))
            assert a == strict_scan(row)
            assert math.copysign(1.0, max(row)) == math.copysign(1.0, row[a])

    @pytest.mark.parametrize("gamma", [1.0, 0.5])
    @pytest.mark.parametrize("epsilon", [0.0, 0.5])
    def test_matches_oracle_on_tied_and_signed_zero_rows(self, gamma, epsilon):
        # Zero outage cost makes every do-nothing reward -0.0, so the sign of
        # a tied zero maximum reaches the Q-values.
        env = mini_env(horizon=3)
        env.attach_metamodel(cost_table(env, lambda kwh: np.zeros(len(kwh))))
        tables = env.kernel_tables()
        rng = np.random.default_rng(5)
        start = rng.choice([0.0, -0.0, -1.0], size=(tables.state_codes.shape[0], tables.n_actions))
        assert np.signbit(start[start == 0.0]).any() and (~np.signbit(start[start == 0.0])).any()
        stream = stream_words(rng)
        uniforms = rng.random((400, tables.horizon, 2 + len(env.catalog)))
        alphas, epsilons = np.full(400, 0.25), np.full(400, epsilon)
        want_q, want_visits = start.copy(), np.zeros(start.shape, dtype=np.int64)
        want = qlearn_chunk_oracle(
            want_q, want_visits, tables.state_codes, tables.cap_next, tables.invest, tables.cost_of_cap,
            tables.ladder_sizes, tables.price_strides, tables.advance_prob, tables.horizon,
            tables.p_full, tables.c_full, gamma, uniforms, alphas, epsilons, tables.q_lower,
        )
        # every row already in the store, at its own row
        got_q, got_visits = start.copy(), np.zeros(start.shape, dtype=np.int32)
        slots = np.arange(len(start), dtype=np.int32)
        *got, n_used = _kernels.qlearn_chunk(
            got_q, got_visits, slots, len(start), tables, gamma, stream, alphas, epsilons
        )
        assert stream.tolist() == stream_words(rng).tolist()
        assert n_used == len(start) and slots.tolist() == list(range(len(start)))
        assert got_q.tobytes() == want_q.tobytes()
        assert got_visits.astype(np.int64).tobytes() == want_visits.tobytes()
        assert exact([tuple(got)]) == exact([want])
        assert np.signbit(got_q[got_q == 0.0]).any()


class TestChunkInputs:
    # each case turns (visits, stream, alphas, epsilons) into a bad set
    BAD = {
        "int64 visits": lambda v, s, a, e: (np.zeros(v.shape, np.int64), s, a, e),
        "int64 stream": lambda v, s, a, e: (v, s.astype(np.int64), a, e),
        "float64 stream": lambda v, s, a, e: (v, s.astype(np.float64), a, e),
        "a stream word short": lambda v, s, a, e: (v, s[:3].copy(), a, e),
        "a stream word long": lambda v, s, a, e: (v, np.append(s, np.uint64(1)), a, e),
        "2-D stream": lambda v, s, a, e: (v, s.reshape(2, 2), a, e),
        "strided stream": lambda v, s, a, e: (v, np.repeat(s, 2)[::2], a, e),
        "unaligned stream": lambda v, s, a, e: (v, np.frombuffer(bytearray(b"\0" + s.tobytes()), np.uint64, offset=1), a, e),
        "read-only stream": lambda v, s, a, e: (v, np.frombuffer(s.tobytes(), np.uint64), a, e),
        "an even increment": lambda v, s, a, e: (v, s - np.array([0, 0, 1, 0], np.uint64), a, e),
        "short alphas": lambda v, s, a, e: (v, s, a[:-1], e),
        "short epsilons": lambda v, s, a, e: (v, s, a, e[:-1]),
        "long epsilons": lambda v, s, a, e: (v, s, a, np.append(e, 0.5)),
        "2-D epsilons": lambda v, s, a, e: (v, s, a, e[:, None]),
        "2-D alphas": lambda v, s, a, e: (v, s, a[:, None], e[:, None]),
    }

    @pytest.mark.parametrize("case", sorted(BAD))
    def test_rejects_before_the_c_loop(self, case):
        env = mini_env()
        tables = env.kernel_tables()
        q = np.zeros((tables.state_codes.shape[0], tables.n_actions))
        visits = np.zeros(q.shape, np.int32)
        slots = np.full(len(q), -1, np.int32)
        stream = PCG64(0).words()
        alphas, epsilons = np.full(6, 0.5), np.full(6, 0.5)
        bad_visits, bad_stream, *bad = self.BAD[case](visits, stream.copy(), alphas, epsilons)
        before = bad_stream.copy()
        message = "q and visits must be|stream must be|the stream's increment must be odd|alphas and epsilons must"
        with pytest.raises(ValueError, match=message):
            _kernels.qlearn_chunk(q, bad_visits, slots, 0, tables, 1.0, bad_stream, *bad)
        assert not q.any() and not visits.any() and not bad_visits.any() and (slots == -1).all()
        assert np.array_equal(bad_stream, before)
        _kernels.qlearn_chunk(q, visits, slots, 0, tables, 1.0, stream, alphas, epsilons)
        assert visits.sum() == 6 * tables.horizon

    # (slots, n_used, store rows) made from a valid map of 3 rows in use and
    # the rows one chunk may append, and the refusal, whose {free} and
    # {chunk} are filled in
    STORE = {
        "int64 slot map": (lambda s, chunk: (s.astype(np.int64), 3, 3 + chunk), "slots must be"),
        "a slot map a row short": (lambda s, chunk: (s[:-1].copy(), 3, 3 + chunk), "slots must be"),
        "a slot below -1": (lambda s, chunk: (np.where(s == 1, -2, s).astype(np.int32), 3, 3 + chunk),
                            r"slot -2 of row 1 is outside \[-1, 3\)"),
        "a slot past n_used": (lambda s, chunk: (s, 2, 3 + chunk), r"slot 2 of row 2 is outside \[-1, 2\)"),
        "n_used above the store": (lambda s, chunk: (s, 3 + chunk + 1, 3 + chunk),
                                   "outside .*the store's row count"),
        "a store a row short": (lambda s, chunk: (s, 3, 3 + chunk - 1),
                                "has {free} free rows; this chunk may append {chunk}$"),
    }

    @pytest.mark.parametrize("case", sorted(STORE))
    def test_refuses_a_store_the_c_loop_could_overrun(self, case):
        env = mini_env()
        tables = env.kernel_tables()
        rows, episodes = tables.state_codes.shape[0], 2
        chunk = min(rows - 3, episodes * tables.horizon)
        valid = np.full(rows, -1, np.int32)
        valid[:3] = [0, 1, 2]
        make, message = self.STORE[case]
        slots, n_used, store_rows = make(valid.copy(), chunk)
        message = message.format(free=store_rows - n_used, chunk=chunk)
        q, visits = np.zeros((store_rows, tables.n_actions)), np.zeros((store_rows, tables.n_actions), np.int32)
        stream = PCG64(0).words()
        alphas, epsilons = np.full(episodes, 0.5), np.full(episodes, 0.5)
        before = slots.copy()
        with pytest.raises(ValueError, match=message):
            _kernels.qlearn_chunk(q, visits, slots, n_used, tables, 1.0, stream, alphas, epsilons)
        assert not q.any() and not visits.any() and np.array_equal(slots, before)
        # the same chunk runs on the valid store
        q, visits = np.zeros((3 + chunk, tables.n_actions)), np.zeros((3 + chunk, tables.n_actions), np.int32)
        *_, n_used = _kernels.qlearn_chunk(q, visits, valid, 3, tables, 1.0, stream, alphas, epsilons)
        assert 3 < n_used <= 3 + chunk and visits.sum() == episodes * tables.horizon


def backward_arguments(mode):
    """The arguments of one `backward_period` call over the middle period of
    a 3-period mini_env, which takes an expectation, in value-iteration
    ("values") or "policy" mode; the outputs are filled with NaN."""
    env = mini_env(horizon=3)
    codec = env.codec
    c_count, states = codec.cap_count_at(1), len(codec.period_combos[1]) * codec.cap_count_at(1)
    args = {
        "combos": codec.period_combos[1],
        "cap_next": codec.cap_next,
        "invest": env.invest_table(),
        "cost_of_cap": env._cost_of_cap,
        "expectation": -np.random.default_rng(0).exponential(1e5, (codec.p_full, codec.cap_count_at(2))),
        "gamma": 0.9,
        "v_next": np.full((codec.p_full, c_count), math.nan),
    }
    if mode == "values":
        args["values"] = np.full((states, codec.n_actions), math.nan)
    else:
        args["policy"] = np.arange(states, dtype=np.int64) % codec.n_actions
    return args


def read_only(a):
    return np.frombuffer(a.tobytes(), a.dtype).reshape(a.shape)


class TestBackwardKernelGuards:
    # the kernel indexes without bounds checks: each of these would read or
    # write outside an array, or read one as another dtype or mode.
    # (mode, edit of the arguments, refusal)
    BAD = {
        "invest-float32": ("values", lambda a: a.update(invest=a["invest"].astype(np.float32)), "invest must be"),
        "invest-fortran-order": ("values", lambda a: a.update(invest=np.asfortranarray(a["invest"])),
                                 "invest must be"),
        "invest-no-actions": ("values", lambda a: a.update(invest=a["invest"][:, :0].copy()), "invest must be"),
        "v-next-a-combo-short": ("values", lambda a: a.update(v_next=a["v_next"][:-1].copy()), "v_next must be"),
        "v-next-read-only": ("policy", lambda a: a.update(v_next=read_only(a["v_next"])), "v_next must be"),
        "combos-int32": ("values", lambda a: a.update(combos=a["combos"].astype(np.int32)), "combos must be"),
        "combos-strided": ("values", lambda a: a.update(combos=np.repeat(a["combos"], 2)[::2]), "combos must be"),
        "combo-negative": ("policy", lambda a: a.update(combos=np.where(a["combos"] == 1, -1, a["combos"])),
                           "combos must lie"),
        "combo-past-the-grid": ("values", lambda a: a.update(combos=a["combos"] + len(a["invest"]) - 1),
                                "combos must lie"),
        "cost-of-cap-2-d": ("values", lambda a: a.update(cost_of_cap=a["cost_of_cap"][:, None]),
                            "cost_of_cap must be"),
        "cost-of-cap-short": ("values", lambda a: a.update(cost_of_cap=a["cost_of_cap"][:3].copy()),
                              "cap_next's first"),
        "expectation-a-combo-short": ("values", lambda a: a.update(expectation=a["expectation"][:-1].copy()),
                                      "expectation must be"),
        "expectation-float32": ("policy", lambda a: a.update(expectation=a["expectation"].astype(np.float32)),
                                "expectation must be"),
        "cap-next-a-row-short": ("values", lambda a: a.update(cap_next=a["cap_next"][:1].copy()), "cap_next must be"),
        "cap-next-int32": ("values", lambda a: a.update(cap_next=a["cap_next"].astype(np.int32)), "cap_next must be"),
        "cap-next-negative": ("policy", lambda a: a.update(cap_next=np.where(a["cap_next"] == 2, -1, a["cap_next"])),
                              "cap_next's first"),
        "cap-next-at-the-expectation-width": (
            "values", lambda a: a.update(expectation=np.ascontiguousarray(a["expectation"][:, :-1])), "cap_next's first"
        ),
        "values-a-row-short": ("values", lambda a: a.update(values=a["values"][:-1].copy()), "values must be"),
        "values-read-only": ("values", lambda a: a.update(values=read_only(a["values"])), "values must be"),
        "policy-action-negative": ("policy", lambda a: a.update(policy=a["policy"] - 1), "policy actions must lie"),
        "policy-action-n-actions": ("policy", lambda a: a.update(policy=a["policy"] + 1), "policy actions must lie"),
        "policy-int32": ("policy", lambda a: a.update(policy=a["policy"].astype(np.int32)), "policy must be"),
        "policy-a-row-short": ("policy", lambda a: a.update(policy=a["policy"][:-1].copy()), "policy must be"),
        "values-and-policy": ("values", lambda a: a.update(policy=np.zeros(len(a["values"]), np.int64)),
                              "give exactly one"),
        "neither-values-nor-policy": ("values", lambda a: a.pop("values"), "give exactly one"),
    }

    @pytest.mark.parametrize("case", sorted(BAD))
    def test_refuses_before_the_c_kernel(self, case, monkeypatch):
        mode, edit, message = self.BAD[case]
        args = backward_arguments(mode)
        edit(args)
        with monkeypatch.context() as patched:
            patched.setattr(_kernels, "_library", lambda: pytest.fail("a pointer reached the C kernel"))
            with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
                _kernels.backward_period(**args)
        assert np.isnan(args["v_next"]).all() and np.isnan(args.get("values", math.nan)).all()
        # the same call runs with the valid arguments: it writes the
        # period's combos and leaves the other rows of the grid as they are
        valid = backward_arguments(mode)
        _kernels.backward_period(**valid)
        reached = np.zeros(len(valid["v_next"]), bool)
        reached[valid["combos"]] = True
        assert np.isfinite(valid["v_next"][reached]).all() and np.isnan(valid["v_next"][~reached]).all()
        assert np.isfinite(valid.get("values", 0.0)).all()


class TestBackwardKernel:
    @pytest.mark.parametrize("nan_at", [None, 0, 2, 4], ids=["finite", "nan-first", "nan-middle", "nan-last"])
    def test_matches_the_numpy_expression(self, nan_at):
        # a NaN in the expectation of one action of capacity 2 makes its
        # row's maximum NaN, as numpy's max
        args = backward_arguments("values")
        codec = mini_env(horizon=3).codec
        if nan_at is not None:
            args["expectation"][:, codec.cap_next[2, nan_at]] = math.nan
        combos, c_count = args["combos"], args["v_next"].shape[1]
        cap2 = codec.cap_next[:c_count]
        q = (-args["invest"][combos][:, None, :] - args["cost_of_cap"][cap2][None, :, :]
             + args["gamma"] * args["expectation"][combos][:, cap2])
        _kernels.backward_period(**args)
        assert args["values"].tobytes() == q.reshape(args["values"].shape).tobytes()
        assert np.array_equal(args["v_next"][combos], q.max(axis=2), equal_nan=True)
        assert np.isnan(args["v_next"][combos]).any() == (nan_at is not None)
        policy = backward_arguments("policy")
        policy["expectation"] = args["expectation"]
        _kernels.backward_period(**policy)
        chosen = np.take_along_axis(q, policy["policy"].reshape(len(combos), c_count, 1), axis=2)[:, :, 0]
        assert policy["v_next"][combos].tobytes() == chosen.tobytes()


class TestBuild:
    def test_builds_into_an_empty_cache_then_reuses_it(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(_kernels, "_lib", None)
        env, schedule = mini_env(), TrainingSchedule(episodes=300, seed=1)
        first = train(env, schedule)
        built = list((tmp_path / "outageplan").iterdir())
        assert [p.suffix for p in built] == [".so"] and not built[0].name.startswith(".")

        def no_compiler(*args, **kwargs):
            raise AssertionError(f"the compiler ran again: {args}")

        monkeypatch.setattr(subprocess, "run", no_compiler)
        monkeypatch.setattr(_kernels, "_lib", None)
        again = train(env, schedule)
        assert list((tmp_path / "outageplan").iterdir()) == built
        assert again.qtable.values.tobytes() == first.qtable.values.tobytes()

    def test_the_portable_multiply_draws_the_same_stream(self, tmp_path, monkeypatch):
        # a compiler without a 128-bit integer type (a 32-bit target) steps
        # the generator from 32-bit partial products
        env, schedule = mini_env(), TrainingSchedule(episodes=300, seed=1)
        native = train(env, schedule)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(_kernels, "CFLAGS", _kernels.CFLAGS + ("-U__SIZEOF_INT128__",))
        monkeypatch.setattr(_kernels, "_lib", None)
        portable = train(env, schedule)
        assert portable.qtable.values.tobytes() == native.qtable.values.tobytes()
        assert portable.convergence == native.convergence

    @pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
    def test_source_compiles_without_warnings(self, tmp_path):
        source = resources.files("outageplan").joinpath("_kernels.c")
        flags = ["-std=c99", "-Wall", "-Wextra", "-Werror", "-O2", "-ffp-contract=off", "-fPIC", "-shared"]
        proc = subprocess.run(
            ["cc", *flags, str(source), "-o", str(tmp_path / "kernels.so")], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("name", ["qlearn_episodes", "dispatch_spans", "greedy_rows", "backward_period"])
    def test_argtypes_match_the_c_prototype(self, name):
        # a parameter ctypes does not declare shifts every later argument
        source = resources.files("outageplan").joinpath("_kernels.c").read_text()
        restype, params = re.search(rf"^(void|int64_t) {name}\(([^)]*)\)", source, re.M).groups()
        ctype = {"ptr": ctypes.c_void_p, "int64_t": ctypes.c_int64, "double": ctypes.c_double, "void": None}
        want = [ctype["ptr" if "*" in p else p.split()[0]] for p in params.split(",")]
        fn = getattr(_kernels._library(), name)
        assert fn.argtypes == want
        assert fn.restype is ctype[restype]

    def test_missing_compiler(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setenv("PATH", str(tmp_path / "no-bin"))
        monkeypatch.setattr(_kernels, "_lib", None)
        with pytest.raises(OutagePlanError, match=f"cannot run the C compiler 'cc' .* into {re.escape(str(tmp_path / 'outageplan'))}"):
            train(mini_env(), TrainingSchedule(episodes=10))
        assert list((tmp_path / "outageplan").iterdir()) == []

    def test_failed_build_names_the_compiler_error(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(_kernels, "CFLAGS", _kernels.CFLAGS + ("-fno-such-flag",))
        monkeypatch.setattr(_kernels, "_lib", None)
        with pytest.raises(OutagePlanError, match=f"the C compiler 'cc' failed .* into {re.escape(str(tmp_path / 'outageplan'))}: .*no-such-flag"):
            train(mini_env(), TrainingSchedule(episodes=10))
        assert list((tmp_path / "outageplan").iterdir()) == []

    def test_unwritable_cache(self, tmp_path, monkeypatch):
        blocker = tmp_path / "a-file"
        blocker.write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        monkeypatch.setattr(_kernels, "_lib", None)
        with pytest.raises(OutagePlanError, match=f"cannot write the compiled-kernel cache {re.escape(str(blocker / 'outageplan'))} .*XDG_CACHE_HOME"):
            train(mini_env(), TrainingSchedule(episodes=10))


class TestQTablePersistence:
    def test_round_trip_and_byte_determinism(self, tmp_path):
        env = mini_env()
        res = train(env, TrainingSchedule(episodes=3000, seed=6), config_hash="cafe01")
        p1, p2 = tmp_path / "q1.bin", tmp_path / "q2.bin"
        res.qtable.save(p1)
        res.qtable.save(p2)
        assert p1.read_bytes() == p2.read_bytes()
        loaded = QTable.load(p1, expect_config_hash="cafe01")
        assert np.array_equal(loaded.values, res.qtable.values)
        assert np.array_equal(loaded.visits, res.qtable.visits)
        assert np.array_equal(loaded.state_codes, res.qtable.state_codes)
        assert loaded.action_labels == res.qtable.action_labels
        assert loaded.schedule == res.qtable.schedule
        assert loaded.seed == 6
        assert loaded.codec_meta["horizon"] == 2

    @pytest.mark.parametrize("name, episodes", [("tiny", 2000), ("casestudy-single", 2000), ("casestudy-single", 20_000)])
    def test_the_stored_rows_write_the_dense_tables_bytes(self, tmp_path, name, episodes):
        res = train(metamodel_env(name), TrainingSchedule(episodes=episodes, seed=1), config_hash="cafe01")
        res.save(tmp_path / "stored.bin")
        res.qtable.save(tmp_path / "dense.bin")
        assert (tmp_path / "stored.bin").read_bytes() == (tmp_path / "dense.bin").read_bytes()
        # the store holds the rows training updated and nothing else
        assert len(res.values.store) == min(len(res.state_codes), episodes * metamodel_env(name).horizon)
        touched = np.flatnonzero(res.qtable.visits.any(axis=1))
        assert np.array_equal(touched, np.flatnonzero(res.values.slots >= 0))
        assert res.pairs_visited == np.count_nonzero(res.qtable.visits)

    def test_config_hash_mismatch(self, tmp_path):
        env = mini_env()
        res = train(env, TrainingSchedule(episodes=500, seed=0), config_hash="aaa")
        p = tmp_path / "q.bin"
        res.qtable.save(p)
        with pytest.raises(ArtifactMismatchError, match="trained for config"):
            QTable.load(p, expect_config_hash="bbb")

    def test_rejects_foreign_file(self, tmp_path):
        p = tmp_path / "junk.bin"
        p.write_bytes(b'{"magic": "OPAC1", "meta": {"format": "other"}, "arrays": []}\n')
        with pytest.raises(ArtifactMismatchError):
            QTable.load(p)

    @pytest.mark.parametrize("edit", ["truncated", "trailing"])
    def test_payload_length_must_match_header(self, tmp_path, edit):
        env = mini_env()
        res = train(env, TrainingSchedule(episodes=100, seed=0))
        p = tmp_path / "q.bin"
        res.qtable.save(p)
        data = p.read_bytes()
        p.write_bytes(data[:-1] if edit == "truncated" else data + b"\0")
        with pytest.raises(ArtifactMismatchError, match="header lists arrays of"):
            QTable.load(p)

    @pytest.mark.parametrize(
        "arrays, message",
        [
            ('"nope"', "malformed container header"),
            ('[["values", "<f8"]]', "malformed container header"),
            ('[["values", "no-such-dtype", [1]]]', "array 'values' must be 1-D <f8, got 1-D no-such-dtype"),
            ('[["values", "|O", [1]]]', "array 'values' must be 1-D <f8, got 1-D |O"),
            ('[["values", "<f8", [-1]]]', "malformed container entry for array 'values'"),
            ('[["values", "<f8", ["8"]]]', "malformed container entry for array 'values'"),
            ('[[["values"], "<f8", [1]]]', "holds arrays [['values']], expected ['values']"),
            ('[[null, "<f8", [1]]]', "holds arrays [None], expected ['values']"),
            ('[["values", "<f4", [1]], ["values", "<f4", [1]]]', "holds arrays ['values', 'values'], expected ['values']"),
            ('[["values", "|S0", [1]]]', "array 'values' must be 1-D <f8, got 1-D |S0"),
            ('[["values", ",f8", [1]]]', "array 'values' must be 1-D <f8, got 1-D ,f8"),
        ],
    )
    def test_malformed_array_entries(self, tmp_path, arrays, message):
        p = tmp_path / "c.bin"
        p.write_bytes(b'{"magic": "OPAC1", "meta": {}, "arrays": ' + arrays.encode() + b"}\n" + bytes(8))
        with pytest.raises(ArtifactMismatchError) as info:
            persist.load_container(p, {"values": ("<f8", 1)})
        assert str(info.value) == f"{p}: {message}"

    def test_container_layout(self, tmp_path):
        # header line, then each array's little-endian bytes in schema order
        arrays = {
            "grid": np.arange(6.0).reshape(2, 3),
            "empty": np.zeros((0, 3)),
            "big_endian": np.arange(3, dtype=">i4"),
            "strided": np.arange(10.0)[::3],
        }
        schema = {"grid": ("<f8", 2), "empty": ("<f8", 2), "big_endian": ("<i4", 1), "strided": ("<f8", 1)}
        p = tmp_path / "c.bin"
        persist.save_container(p, {"k": 1}, arrays, schema)
        little = {name: np.ascontiguousarray(a, dtype=schema[name][0]) for name, a in arrays.items()}
        manifest = [[name, a.dtype.str, list(a.shape)] for name, a in little.items()]
        header = persist.canonical_json({"magic": persist.CONTAINER_MAGIC, "meta": {"k": 1}, "arrays": manifest})
        want = header.encode() + b"\n" + b"".join(a.tobytes() for a in little.values())
        assert p.read_bytes() == want
        meta, loaded = persist.load_container(p, schema)
        assert meta == {"k": 1}
        assert list(loaded) == list(arrays)
        for name, a in little.items():
            assert loaded[name].dtype == a.dtype and loaded[name].shape == a.shape
            assert loaded[name].tobytes() == a.tobytes()

    def test_a_loaded_table_cannot_reach_the_c_loop(self, tmp_path):
        env = mini_env()
        train(env, TrainingSchedule(episodes=100, seed=0)).qtable.save(tmp_path / "q.bin")
        loaded = QTable.load(tmp_path / "q.bin")
        tables = env.kernel_tables()
        with pytest.raises(ValueError, match="aligned, writable"):
            _kernels.qlearn_chunk(loaded.values, loaded.visits, np.full(len(loaded.values), -1, np.int32), 0, tables,
                                  1.0, PCG64(0).words(), np.ones(1), np.ones(1))

    def test_index_of_unknown_code(self):
        env = mini_env()
        res = train(env, TrainingSchedule(episodes=100, seed=0))
        with pytest.raises(KeyError, match="not stored"):
            res.qtable.index_of(10**12)

    def test_convergence_csv(self, tmp_path):
        env = mini_env()
        res = train(env, TrainingSchedule(episodes=12_000, seed=1))
        p = tmp_path / "conv.csv"
        write_convergence_csv(res.convergence, p)
        lines = p.read_text().splitlines()
        assert lines[0] == "episode,max_q_delta,mean_return"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "10000"
        assert float(first[1]) == res.convergence[0].max_q_delta

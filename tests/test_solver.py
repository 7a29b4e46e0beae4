"""Training schedules, Q-learning, the exact solver, and their agreement."""

import ctypes
import functools
import itertools
import math
import re
import shutil
import subprocess
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outageplan import _kernels, persist
from outageplan.config import load_config
from outageplan.errors import ArtifactMismatchError, OutagePlanError
from outageplan.mdp import PlanningEnv, PriceChain, UnitCatalogEntry
from outageplan.simulate import StorageUnitSpec, build_metamodel
from outageplan.solver import (
    CONVERGENCE_EPOCH,
    _price_expectation,
    QTable,
    TrainingSchedule,
    policy_value,
    schedule_at,
    train,
    value_iteration,
    write_convergence_csv,
)

from conftest import cost_table


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
            got = sol.v_per_period[t][codec.price_combo(idx), codec.cap_sets.index(installs)]
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
        q_last = sol.q_per_period[-1]
        cap_next = codec.cap_next[: codec.cap_count_at(env.horizon - 1)]
        assert np.array_equal(q_last, -env.invest_table()[:, None, :] - env._cost_of_cap[cap_next][None, :, :])
        assert not np.signbit(q_last[:, :, 0]).any()

    def test_single_state_closed_form(self):
        env = PlanningEnv(
            horizon=1, catalog=(unit("a", (100.0,), 0.5),), levels_kwh=(50.0,)
        )
        env.attach_metamodel(cost_table(env, lambda kwh: np.where(kwh[:, 0] == 0.0, 77.0, 13.0)))
        sol = value_iteration(env)
        q = sol.q_per_period[0][0, 0]  # the start state: top price, nothing installed
        assert q[0] == pytest.approx(-77.0)
        assert q[1] == pytest.approx(-(50.0 * 100.0 + 13.0))
        assert sol.expected_return() == pytest.approx(-77.0)

    def test_discount_shrinks_future_weight(self):
        env = mini_env(horizon=2)
        full = value_iteration(env, gamma=1.0).expected_return()
        myopic = value_iteration(env, gamma=0.0).expected_return()
        assert myopic > full  # with gamma=0 only the first period's cost counts

    def test_refuses_oversized_instance(self):
        env = mini_env()
        with pytest.raises(ValueError, match="above the enumeration cap"):
            value_iteration(env, max_states=10)

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
        ev = _price_expectation(env, v_next)
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
        ev = _price_expectation(env, v_next)
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
        for got, want in zip(sol.q_per_period + sol.v_per_period, want_q + want_v, strict=True):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
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
            last = sol.q_per_period[-1]
            assert not np.signbit(last[last == 0.0]).any() and (last == 0.0).any()


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
    reproduce bit for bit."""
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
    schedule formula is written out as the reference for `schedule_at`."""
    tables = env.kernel_tables()
    rng = np.random.Generator(np.random.PCG64(schedule.seed))
    q = np.zeros((tables.state_codes.shape[0], tables.n_actions))
    # the oracle counts in int64, the compiled loop in int32
    visits = np.zeros_like(q, dtype=np.int64 if kernel is qlearn_chunk_oracle else np.int32)
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
            out = kernel(q, visits, tables, schedule.gamma, uniforms, alphas, epsilons)
        returned.append(out)
        done += m
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
    """(max |update|, summed return, violations) of each chunk, exactly; the
    oracle also returns its first-visit count, which `train` reads from the
    visit table instead."""
    return [(float(d).hex(), float(r).hex(), int(v)) for d, r, v, *_ in returned]


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
        for point, (max_delta, total_return, _, _), m in zip(res.convergence, want, sizes):
            assert point.max_q_delta.hex() == float(max_delta).hex()
            assert point.mean_return.hex() == (float(total_return) / m).hex()


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
        uniforms = rng.random((400, tables.horizon, 2 + len(env.catalog)))
        alphas, epsilons = np.full(400, 0.25), np.full(400, epsilon)
        want_q, want_visits = start.copy(), np.zeros(start.shape, dtype=np.int64)
        want = qlearn_chunk_oracle(
            want_q, want_visits, tables.state_codes, tables.cap_next, tables.invest, tables.cost_of_cap,
            tables.ladder_sizes, tables.price_strides, tables.advance_prob, tables.horizon,
            tables.p_full, tables.c_full, gamma, uniforms, alphas, epsilons, tables.q_lower,
        )
        got_q, got_visits = start.copy(), np.zeros(start.shape, dtype=np.int32)
        got = _kernels.qlearn_chunk(got_q, got_visits, tables, gamma, uniforms, alphas, epsilons)
        assert got_q.tobytes() == want_q.tobytes()
        assert got_visits.astype(np.int64).tobytes() == want_visits.tobytes()
        assert exact([got]) == exact([want])
        assert np.signbit(got_q[got_q == 0.0]).any()


class TestChunkInputs:
    BAD = {
        "int64 visits": lambda v, u, a, e: (np.zeros(v.shape, np.int64), u, a, e),
        "float32 uniforms": lambda v, u, a, e: (v, u.astype(np.float32), a, e),
        "Fortran-order uniforms": lambda v, u, a, e: (v, np.asfortranarray(u), a, e),
        "strided uniforms": lambda v, u, a, e: (v, np.repeat(u, 2, axis=0)[::2], a, e),
        "unaligned uniforms": lambda v, u, a, e: (
            v, np.frombuffer(b"\0" + u.tobytes(), np.float64, offset=1).reshape(u.shape), a, e
        ),
        "a period short": lambda v, u, a, e: (v, u[:, :-1].copy(), a, e),
        "a uniform per step short": lambda v, u, a, e: (v, u[:, :, :-1].copy(), a, e),
        "2-D uniforms": lambda v, u, a, e: (v, u.reshape(len(u), -1), a, e),
        "short alphas": lambda v, u, a, e: (v, u, a[:-1], e),
        "short epsilons": lambda v, u, a, e: (v, u, a, e[:-1]),
        "long epsilons": lambda v, u, a, e: (v, u, a, np.append(e, 0.5)),
        "2-D epsilons": lambda v, u, a, e: (v, u, a, e[:, None]),
    }

    @pytest.mark.parametrize("case", sorted(BAD))
    def test_rejects_before_the_c_loop(self, case):
        env = mini_env()
        tables = env.kernel_tables()
        q = np.zeros((tables.state_codes.shape[0], tables.n_actions))
        visits = np.zeros(q.shape, np.int32)
        uniforms = np.random.default_rng(0).random((6, tables.horizon, 2 + len(env.catalog)))
        alphas, epsilons = np.full(6, 0.5), np.full(6, 0.5)
        bad_visits, *bad = self.BAD[case](visits, uniforms, alphas, epsilons)
        with pytest.raises(ValueError, match="q and visits must be|uniforms must be|alphas and epsilons must"):
            _kernels.qlearn_chunk(q, bad_visits, tables, 1.0, *bad)
        assert not q.any() and not visits.any() and not bad_visits.any()
        _kernels.qlearn_chunk(q, visits, tables, 1.0, uniforms, alphas, epsilons)
        assert visits.sum() == 6 * tables.horizon


class TestBuild:
    def test_builds_into_an_empty_cache_then_reuses_it(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(_kernels, "_loop", None)
        env, schedule = mini_env(), TrainingSchedule(episodes=300, seed=1)
        first = train(env, schedule)
        built = list((tmp_path / "outageplan").iterdir())
        assert [p.suffix for p in built] == [".so"] and not built[0].name.startswith(".")

        def no_compiler(*args, **kwargs):
            raise AssertionError(f"the compiler ran again: {args}")

        monkeypatch.setattr(subprocess, "run", no_compiler)
        monkeypatch.setattr(_kernels, "_loop", None)
        again = train(env, schedule)
        assert list((tmp_path / "outageplan").iterdir()) == built
        assert again.qtable.values.tobytes() == first.qtable.values.tobytes()

    @pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
    def test_source_compiles_without_warnings(self, tmp_path):
        source = resources.files("outageplan").joinpath("_qloop.c")
        flags = ["-std=c99", "-Wall", "-Wextra", "-Werror", "-O2", "-ffp-contract=off", "-fPIC", "-shared"]
        proc = subprocess.run(
            ["cc", *flags, str(source), "-o", str(tmp_path / "qloop.so")], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr

    def test_argtypes_match_the_c_prototype(self):
        # a parameter ctypes does not declare shifts every later argument
        source = resources.files("outageplan").joinpath("_qloop.c").read_text()
        params = re.search(r"\bvoid qlearn_episodes\(([^)]*)\)", source).group(1).split(",")
        ctype = {"ptr": ctypes.c_void_p, "int64_t": ctypes.c_int64, "double": ctypes.c_double}
        want = [ctype["ptr" if "*" in p else p.split()[0]] for p in params]
        assert _kernels._episode_loop().argtypes == want
        assert _kernels._episode_loop().restype is None

    def test_missing_compiler(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setenv("PATH", str(tmp_path / "no-bin"))
        monkeypatch.setattr(_kernels, "_loop", None)
        with pytest.raises(OutagePlanError, match=f"cannot run the C compiler 'cc' .* into {re.escape(str(tmp_path / 'outageplan'))}"):
            train(mini_env(), TrainingSchedule(episodes=10))
        assert list((tmp_path / "outageplan").iterdir()) == []

    def test_failed_build_names_the_compiler_error(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(_kernels, "CFLAGS", _kernels.CFLAGS + ("-fno-such-flag",))
        monkeypatch.setattr(_kernels, "_loop", None)
        with pytest.raises(OutagePlanError, match=f"the C compiler 'cc' failed .* into {re.escape(str(tmp_path / 'outageplan'))}: .*no-such-flag"):
            train(mini_env(), TrainingSchedule(episodes=10))
        assert list((tmp_path / "outageplan").iterdir()) == []

    def test_unwritable_cache(self, tmp_path, monkeypatch):
        blocker = tmp_path / "a-file"
        blocker.write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        monkeypatch.setattr(_kernels, "_loop", None)
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
        "arrays",
        [
            '"nope"',
            '[["values", "<f8"]]',
            '[["values", "no-such-dtype", [1]]]',
            '[["values", "|O", [1]]]',
            '[["values", "<f8", [-1]]]',
            '[["values", "<f8", ["8"]]]',
            '[[["values"], "<f8", [1]]]',
            '[[null, "<f8", [1]]]',
            '[["values", "<f4", [1]], ["values", "<f4", [1]]]',
            '[["values", "|S0", [1]]]',
        ],
    )
    def test_malformed_array_entries(self, tmp_path, arrays):
        p = tmp_path / "c.bin"
        p.write_bytes(b'{"magic": "OPAC1", "meta": {}, "arrays": ' + arrays.encode() + b"}\n" + bytes(8))
        with pytest.raises(ArtifactMismatchError, match="malformed container"):
            persist.load_container(p)

    def test_container_layout(self, tmp_path):
        # header line, then each array's little-endian bytes in order
        arrays = {
            "grid": np.arange(6.0).reshape(2, 3),
            "empty": np.zeros((0, 3)),
            "scalar": np.array(7, dtype=np.int64),
            "big_endian": np.arange(3, dtype=">i4"),
            "strided": np.arange(10.0)[::3],
        }
        p = tmp_path / "c.bin"
        persist.save_container(p, {"k": 1}, arrays)
        little = {name: np.ascontiguousarray(a, dtype=a.dtype.newbyteorder("<")) for name, a in arrays.items()}
        manifest = [[name, a.dtype.str, list(a.shape)] for name, a in little.items()]
        header = persist.canonical_json({"magic": persist.CONTAINER_MAGIC, "meta": {"k": 1}, "arrays": manifest})
        want = header.encode() + b"\n" + b"".join(a.tobytes() for a in little.values())
        assert p.read_bytes() == want
        meta, loaded = persist.load_container(p)
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
        uniforms = np.zeros((1, tables.horizon, 2 + len(env.catalog)))
        with pytest.raises(ValueError, match="aligned, writable"):
            _kernels.qlearn_chunk(loaded.values, loaded.visits, tables, 1.0, uniforms, np.ones(1), np.ones(1))

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

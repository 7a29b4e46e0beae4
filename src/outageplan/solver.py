"""Tabular Q-learning on the planning MDP, plus an exact solver.

Training runs in chunks of up to 10^4 episodes: the uniform stream for a
chunk is drawn up front from one PCG64 generator and handed to the episode
kernel, so a fixed seed reproduces training bit-for-bit. The kernel's
episode loop is compiled C that walks the prices from those uniforms and
updates the Q-table in place. What training holds in memory is the table,
float64 values and int32 visit counts in one anonymous mapping that is
unmapped when the table is dropped, plus one uniforms buffer of a chunk's
size that every chunk refills. The case study's 4,000,000 episodes per
config train in 2.7-3.1 s on a 2-vCPU VM.
The exact solver is one backward induction with the factorized price-chain
expectation: over every action it gives the optimum the learned policy is
judged against, and over one action per state the value of a fixed policy,
so the optimum's greedy policy replays its value bit for bit. The terminal
values are zero, so the last period takes no expectation.
"""

from __future__ import annotations

import csv
import mmap
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from outageplan import persist
from outageplan._kernels import qlearn_chunk
from outageplan.errors import ArtifactMismatchError
from outageplan.mdp import PlanningEnv, row_index

CONVERGENCE_EPOCH = 10_000
# an int32 visit count; a state holds its period, so an episode adds at
# most one visit to any (state, action) pair
MAX_EPISODES = 2**31 - 1
# rows per block of the greedy argmax, about 0.85 MB of a 13-action table
_ARGMAX_ROWS = 8192

QTABLE_FORMAT = "outageplan-qtable"

_QTABLE_FIELDS = {
    "config_hash": (str, type(None)),
    "schedule": (dict,),
    "seed": (int,),
    "codec": (dict,),
    "action_labels": (list,),
}
# dtype string and rank of each stored array
_QTABLE_ARRAYS = {"state_codes": ("<i8", 1), "values": ("<f8", 2), "visits": ("<i8", 2)}


@dataclass(frozen=True)
class TrainingSchedule:
    """Episode budget and linear decay of the learning and exploration rates."""

    episodes: int
    alpha_start: float = 0.5
    alpha_end: float = 0.01
    epsilon_start: float = 1.0
    epsilon_end: float = 0.05
    gamma: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.episodes < 1:
            raise ValueError("episodes must be >= 1")
        if self.episodes > MAX_EPISODES:
            raise ValueError(f"episodes must be <= {MAX_EPISODES}, the limit of an int32 visit count")
        for name in ("alpha_start", "alpha_end"):
            v = getattr(self, name)
            if not 0 < v <= 1:
                raise ValueError(f"{name} must be in (0, 1], got {v}")
        for name in ("epsilon_start", "epsilon_end"):
            v = getattr(self, name)
            if not 0 <= v <= 1:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        if self.alpha_end > self.alpha_start:
            raise ValueError("alpha must not grow over training")
        if self.epsilon_end > self.epsilon_start:
            raise ValueError("epsilon must not grow over training")
        if not 0 <= self.gamma <= 1:
            raise ValueError(f"gamma must be in [0, 1], got {self.gamma}")


def schedule_at(schedule: TrainingSchedule, episode: int | np.ndarray) -> tuple:
    """(alpha, epsilon) linear in the episode index; an integer array of
    indices gives one float array each."""
    idx = np.asarray(episode)
    outside = (idx < 0) | (idx >= schedule.episodes)
    if outside.any():
        raise ValueError(f"episode {idx[outside].flat[0]} outside [0, {schedule.episodes})")
    if schedule.episodes == 1:
        frac = np.zeros(idx.shape)
    else:
        frac = idx / (schedule.episodes - 1)
    alpha = schedule.alpha_start + (schedule.alpha_end - schedule.alpha_start) * frac
    epsilon = schedule.epsilon_start + (schedule.epsilon_end - schedule.epsilon_start) * frac
    return alpha, epsilon


@dataclass(frozen=True)
class ConvergencePoint:
    episode: int
    max_q_delta: float
    mean_return: float


class QTable:
    """Dense action values over the reachable non-terminal states.

    Terminal states store nothing; their value is zero by construction.
    Rows align with the codec's sorted state-code enumeration.
    """

    def __init__(
        self,
        state_codes: np.ndarray,
        values: np.ndarray,
        visits: np.ndarray,
        action_labels: Sequence[str],
        config_hash: str | None,
        schedule: dict,
        seed: int,
        codec_meta: dict,
    ):
        if values.shape != visits.shape or values.shape[0] != state_codes.shape[0]:
            raise ValueError("state_codes, values and visits must align")
        self.state_codes = state_codes
        self.values = values
        self.visits = visits
        self.action_labels = tuple(action_labels)
        self.config_hash = config_hash
        self.schedule = dict(schedule)
        self.seed = seed
        self.codec_meta = dict(codec_meta)

    @property
    def n_states(self) -> int:
        return self.values.shape[0]

    @property
    def n_actions(self) -> int:
        return self.values.shape[1]

    def index_of(self, code: int) -> int:
        return row_index(self.state_codes, code)

    def greedy_policy(self) -> np.ndarray:
        """First-maximum action per row. The argmax goes a block of rows at
        a time because numpy copies an unaligned array, as a loaded table's
        values are, before reducing it."""
        policy = np.empty(self.n_states, np.int64)
        for start in range(0, self.n_states, _ARGMAX_ROWS):
            rows = slice(start, start + _ARGMAX_ROWS)
            np.argmax(self.values[rows], axis=1, out=policy[rows])
        return policy

    def save(self, path) -> None:
        meta = {
            "format": QTABLE_FORMAT,
            "version": 1,
            "config_hash": self.config_hash,
            "schedule": self.schedule,
            "seed": self.seed,
            "codec": self.codec_meta,
            "action_labels": list(self.action_labels),
        }
        persist.save_container(
            path,
            meta,
            {"state_codes": self.state_codes, "values": self.values, "visits": self.visits},
            dtypes={name: dtype for name, (dtype, _) in _QTABLE_ARRAYS.items()},
        )

    @classmethod
    def load(cls, path, expect_config_hash: str | None = None) -> "QTable":
        """Read a table written by `save`. The arrays are read-only views of
        the mapped file (`persist.load_container`). A meta field of the wrong
        kind, an array missing or of another dtype, rank or shape, or a label
        count that differs from the column count raises ArtifactMismatchError."""
        meta, arrays = persist.load_container(path)
        if meta.get("format") != QTABLE_FORMAT:
            raise ArtifactMismatchError(f"{path}: not a Q-table file")
        persist.check_fields(meta, _QTABLE_FIELDS, str(path))
        if expect_config_hash is not None and meta.get("config_hash") != expect_config_hash:
            raise ArtifactMismatchError(
                f"{path}: Q-table was trained for config {meta.get('config_hash')!r}, "
                f"active config is {expect_config_hash!r}"
            )
        if arrays.keys() != _QTABLE_ARRAYS.keys():
            raise ArtifactMismatchError(
                f"{path}: Q-table holds arrays {sorted(arrays)}, expected {sorted(_QTABLE_ARRAYS)}"
            )
        for name, (dtype, ndim) in _QTABLE_ARRAYS.items():
            if arrays[name].dtype.str != dtype or arrays[name].ndim != ndim:
                raise ArtifactMismatchError(
                    f"{path}: Q-table array {name!r} must be {ndim}-D {dtype}, "
                    f"got {arrays[name].ndim}-D {arrays[name].dtype.str}"
                )
        codes, values, visits = arrays["state_codes"], arrays["values"], arrays["visits"]
        labels = meta["action_labels"]
        if visits.shape != values.shape or len(codes) != len(values) or len(labels) != values.shape[1]:
            raise ArtifactMismatchError(
                f"{path}: Q-table shapes do not align: {len(codes)} state codes, values {values.shape}, "
                f"visits {visits.shape}, {len(labels)} action labels"
            )
        if not all(isinstance(label, str) for label in labels):
            raise ArtifactMismatchError(f"{path}: field 'action_labels' must hold strings")
        return cls(
            state_codes=codes,
            values=values,
            visits=visits,
            action_labels=labels,
            config_hash=meta.get("config_hash"),
            schedule=meta["schedule"],
            seed=meta["seed"],
            codec_meta=meta["codec"],
        )


@dataclass
class TrainResult:
    qtable: QTable
    convergence: list[ConvergencePoint]
    # (state, action) pairs with a nonzero visit count
    pairs_visited: int


def _zeroed_tables(rows: int, n_actions: int) -> tuple[np.ndarray, np.ndarray]:
    """Zeroed float64 values and int32 visit counts of shape (rows,
    n_actions), as two views of one private anonymous mapping.

    The mapping is unmapped when the last view goes, so a dropped table's
    memory returns to the OS instead of staying in the malloc heap."""
    n = rows * n_actions
    buf = mmap.mmap(-1, 8 * n + 4 * n, flags=mmap.MAP_PRIVATE)
    if hasattr(mmap, "MADV_HUGEPAGE"):
        # episodes jump between far rows, and 4 KB pages train slower
        buf.madvise(mmap.MADV_HUGEPAGE)
    q = np.frombuffer(buf, np.float64, count=n).reshape(rows, n_actions)
    visits = np.frombuffer(buf, np.int32, count=n, offset=8 * n).reshape(rows, n_actions)
    return q, visits


def train(
    env: PlanningEnv,
    schedule: TrainingSchedule,
    config_hash: str | None = None,
) -> TrainResult:
    """Epsilon-greedy tabular Q-learning over the configured episode budget.

    Q starts at zero, which is optimistic here because every reward is a
    cost; the convergence log records the largest absolute Q update and the
    mean behavior-policy return per epoch of up to 10^4 episodes. The
    result also counts the (state, action) pairs visited at least once.
    """
    tables = env.kernel_tables()
    rng = np.random.Generator(np.random.PCG64(schedule.seed))
    n_units = len(env.catalog)
    q, visits = _zeroed_tables(tables.state_codes.shape[0], tables.n_actions)
    draws = np.empty((min(CONVERGENCE_EPOCH, schedule.episodes), tables.horizon, 2 + n_units))
    log: list[ConvergencePoint] = []
    done = 0
    while done < schedule.episodes:
        m = min(CONVERGENCE_EPOCH, schedule.episodes - done)
        alphas, epsilons = schedule_at(schedule, np.arange(done, done + m))
        uniforms = rng.random(out=draws[:m])
        max_delta, total_return, violations = qlearn_chunk(
            q, visits, tables, schedule.gamma, uniforms, alphas, epsilons
        )
        if violations:
            raise RuntimeError(
                f"{violations} Q updates left [{tables.q_lower}, 0]; "
                "rewards or schedule are inconsistent"
            )
        done += m
        log.append(
            ConvergencePoint(episode=done, max_q_delta=float(max_delta), mean_return=float(total_return) / m)
        )
    qtable = QTable(
        state_codes=tables.state_codes.copy(),
        values=q,
        visits=visits,
        action_labels=env.action_labels,
        config_hash=config_hash,
        schedule=asdict(schedule),
        seed=schedule.seed,
        codec_meta={
            "horizon": tables.horizon,
            "p_full": tables.p_full,
            "c_full": tables.c_full,
            "n_actions": tables.n_actions,
        },
    )
    return TrainResult(qtable=qtable, convergence=log, pairs_visited=int(np.count_nonzero(visits)))


def write_convergence_csv(points: Sequence[ConvergencePoint], path) -> None:
    with persist.atomic_write(path, newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["episode", "max_q_delta", "mean_return"])
        for p in points:
            writer.writerow([p.episode, persist.format_float(p.max_q_delta), persist.format_float(p.mean_return)])


class ExactSolution:
    """Optimal state/action values from backward induction.

    Arrays are per period: q[t] has shape (P, C_t, A) over the full price
    grid and the capacity prefix reachable at t. Price expectation uses the
    per-unit chain matrices, so values are exact up to float rounding.
    """

    def __init__(self, env: PlanningEnv, q_per_period: list[np.ndarray], v_per_period: list[np.ndarray]):
        self.env = env
        self.q_per_period = q_per_period
        self.v_per_period = v_per_period

    def expected_return(self) -> float:
        return float(self.v_per_period[0][0, 0])

    def greedy_policy(self) -> np.ndarray:
        """Optimal action per stored Q-table row, aligned with the codec."""
        codec = self.env.codec
        parts = []
        for t in range(self.env.horizon):
            combos = codec.period_combos[t]
            c_count = codec.cap_count_at(t)
            q_t = self.q_per_period[t][combos, :c_count, :]
            parts.append(np.argmax(q_t, axis=2).reshape(-1))
        return np.concatenate(parts).astype(np.int64)


def _price_expectation(env: PlanningEnv, v_next: np.ndarray) -> np.ndarray:
    """E[V(p', .) | p] over the factorized per-unit price transitions."""
    codec = env.codec
    shape = tuple(int(n) for n in codec.ladder_sizes) + (v_next.shape[1],)
    out = v_next.reshape(shape)
    for u, entry in enumerate(env.catalog):
        mat = entry.chain.transition_matrix()
        out = np.moveaxis(np.tensordot(mat, out, axes=([1], [u])), 0, u)
    return out.reshape(codec.p_full, v_next.shape[1])


def _backward(env: PlanningEnv, gamma: float, policy: np.ndarray | None) -> ExactSolution:
    """Finite-horizon backward induction on the full price grid. With no
    policy every state takes every action, so q[t] is (P, C_t, A) and v[t]
    its maximum; with per-row actions aligned with the codec each state
    takes only its own action, so q[t] is (P, C_t, 1), and price combos
    unreachable at t take action 0."""
    if env._cost_of_cap is None:
        raise RuntimeError("attach a metamodel before backward induction")
    codec = env.codec
    invest = env.invest_table()
    cost_of_cap = env._cost_of_cap
    rows = np.arange(codec.p_full)[:, None, None]
    q_per_period: list[np.ndarray] = [None] * env.horizon  # type: ignore[list-item]
    v_per_period: list[np.ndarray] = [None] * env.horizon  # type: ignore[list-item]
    for t in range(env.horizon - 1, -1, -1):
        c_count = codec.cap_count_at(t)
        if policy is None:
            acts = np.arange(codec.n_actions)[None, None, :]
        else:
            combos = codec.period_combos[t]
            start = codec.block_starts[t]
            acts = np.zeros((codec.p_full, c_count, 1), dtype=np.int64)
            acts[combos, :, 0] = policy[start : start + len(combos) * c_count].reshape(len(combos), c_count)
        cap2 = codec.cap_next[np.arange(c_count)[None, :, None], acts]
        q_t = -invest[rows, acts] - cost_of_cap[cap2]
        if t == env.horizon - 1:
            q_t += 0.0  # the terminal value is zero; this turns -0.0 into +0.0 as its expectation would
        else:
            q_t += gamma * _price_expectation(env, v_next)[rows, cap2]
        v_next = q_t.max(axis=2)
        q_per_period[t], v_per_period[t] = q_t, v_next
    return ExactSolution(env=env, q_per_period=q_per_period, v_per_period=v_per_period)


def value_iteration(env: PlanningEnv, gamma: float = 1.0, max_states: int = 2_000_000) -> ExactSolution:
    """Optimal values over the full reachable state space.

    Refuses instances whose census exceeds max_states.
    """
    census = env.codec.census()
    if census.total > max_states:
        raise ValueError(
            f"state space has {census.total} states, above the enumeration cap {max_states}"
        )
    return _backward(env, gamma, None)


def policy_value(env: PlanningEnv, policy: np.ndarray, gamma: float = 1.0) -> float:
    """Exact expected return of a fixed policy given per-row action indices
    aligned with the codec's state enumeration."""
    if policy.shape != (env.codec.n_states,):
        raise ValueError(f"policy must have shape ({env.codec.n_states},)")
    return _backward(env, gamma, policy).expected_return()

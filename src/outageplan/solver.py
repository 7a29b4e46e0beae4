"""Tabular Q-learning on the planning MDP, plus an exact solver.

Training runs in chunks of up to 10^4 episodes, one per entry of the
convergence log. The kernel's episode loop is compiled C that draws its
uniforms inline from one PCG64 stream (`outageplan.pcg64`, seeded with the
schedule's seed), whose state it carries from chunk to chunk, so a fixed
seed reproduces training bit-for-bit; it walks the prices from those
uniforms and updates the Q-table in place. Training holds only the rows it
updates: an int32 slot map from codec row to store row, and a store of
float64 values and int32 visit counts in one anonymous mapping, sized for
the rows the budget can reach and unmapped when the result is dropped; a
row never updated is all zeros and is not stored. `qtable.bin` is written
from the store a block of rows at a time, and the dense table is built only
when asked for. A loaded table gives back the pages of its mapped state
codes once they are compared, and its greedy scan the pages of the mapped
values it has read, so `evaluate` holds about one block of them.

The exact solver is one backward induction over the stored states with the
factorized price-chain expectation: over every action it gives the optimum
the learned policy is judged against, and over one action per state the
value of a fixed policy, so the optimum's greedy policy replays its value
bit for bit. The terminal values are zero, so the last period takes no
expectation. Its action values sit on the codec's rows like a Q-table's,
and one first-maximum argmax gives the greedy policy of either. Each
period is one call of the compiled backward-period kernel.
"""

from __future__ import annotations

import csv
import mmap
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from outageplan import persist
from outageplan._kernels import backward_period, greedy_rows, qlearn_chunk
from outageplan.errors import ArtifactMismatchError
from outageplan.mdp import PlanningEnv, row_index
from outageplan.pcg64 import PCG64

CONVERGENCE_EPOCH = 10_000
# an int32 visit count; a state holds its period, so an episode adds at
# most one visit to any (state, action) pair
MAX_EPISODES = 2**31 - 1
# rows per block of the greedy argmax, about 0.85 MB of a 13-action table
_BLOCK_ROWS = 8192

QTABLE_FORMAT = "outageplan-qtable"

_QTABLE_FIELDS = {
    "config_hash": (str, type(None)),
    "schedule": (dict,),
    "seed": (int,),
    "codec": (dict,),
    "action_labels": (list,),
}
# the container schema of qtable.bin: each array, named as its QTable
# attribute, with its stored dtype string and rank, in file order
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
        _check_gamma(self.gamma)


def _check_gamma(gamma: float) -> None:
    """ValueError unless the discount `gamma` is in [0, 1]; NaN is not."""
    if not 0 <= gamma <= 1:
        raise ValueError(f"gamma must be in [0, 1], got {gamma}")


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


def first_max(block: np.ndarray, first_row: int, out: np.ndarray | None = None) -> np.ndarray:
    """First-maximum action per row of `block`, rows first_row onward of an
    action-value table, C-contiguous float64 at any alignment; ValueError
    naming the first table row whose maximum is not finite: a row with a
    NaN, a +inf maximum, or all -inf. The compiled scan stops at that row,
    and numpy's argmax, which picks a row's first NaN, reads its value."""
    out = np.empty(len(block), np.int64) if out is None else out
    bad = greedy_rows(block, out)
    if bad < len(block):
        row = block[bad]
        raise ValueError(f"row {first_row + bad} of the action values has the non-finite maximum "
                         f"{float(row[np.argmax(row)])}")
    return out


def greedy_policy(values: np.ndarray, release: bool = False) -> np.ndarray:
    """`first_max` of every row of an action-value table, a block of rows at
    a time. With `release`, `values` is a table that `persist.load_container`
    mapped, and the file pages of each scanned block are given back, so the
    scan holds about one block of them."""
    policy = np.empty(len(values), np.int64)
    for start in range(0, len(values), _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        first_max(values[rows], start, out=policy[rows])
        if release:
            persist.release_pages(values, values[:rows.stop].nbytes)
    return policy


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
        # set by `load`: values is a read-only view of the mapped file
        self._mapped = False

    def index_of(self, code: int) -> int:
        return row_index(self.state_codes, code)

    def rows_match(self, state_codes: np.ndarray) -> bool:
        """Whether the table's rows are the states `state_codes` lists. A
        loaded table gives back the pages of its mapped codes once they are
        compared."""
        match = np.array_equal(self.state_codes, state_codes)
        if self._mapped:
            persist.release_pages(self.state_codes, self.state_codes.nbytes)
        return match

    def greedy_policy(self) -> np.ndarray:
        return greedy_policy(self.values, release=self._mapped)

    def save(self, path) -> None:
        _save_qtable(path, {name: getattr(self, name) for name in _QTABLE_ARRAYS}, self.action_labels,
                     self.config_hash, self.schedule, self.seed, self.codec_meta)

    @classmethod
    def load(cls, path, expect_config_hash: str | None = None) -> "QTable":
        """Read a table written by `save`. The arrays are read-only views of
        the mapped file, whose layout `persist.load_container` checks against
        `_QTABLE_ARRAYS`. A meta field of the wrong kind, arrays whose
        lengths differ, or a label count that differs from the column count
        raises ArtifactMismatchError."""
        meta, arrays = persist.load_container(path, _QTABLE_ARRAYS)
        if meta.get("format") != QTABLE_FORMAT:
            raise ArtifactMismatchError(f"{path}: not a Q-table file")
        persist.check_fields(meta, _QTABLE_FIELDS, str(path))
        if expect_config_hash is not None and meta.get("config_hash") != expect_config_hash:
            raise ArtifactMismatchError(
                f"{path}: Q-table was trained for config {meta.get('config_hash')!r}, "
                f"active config is {expect_config_hash!r}"
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
        table = cls(
            state_codes=codes,
            values=values,
            visits=visits,
            action_labels=labels,
            config_hash=meta.get("config_hash"),
            schedule=meta["schedule"],
            seed=meta["seed"],
            codec_meta=meta["codec"],
        )
        table._mapped = True
        return table


def _save_qtable(path, arrays: dict, action_labels, config_hash, schedule, seed, codec_meta) -> None:
    """Write a Q-table file from its arrays (ndarrays or `persist.StoredRows`)
    and the fields its header records."""
    meta = {
        "format": QTABLE_FORMAT,
        "version": 1,
        "config_hash": config_hash,
        "schedule": schedule,
        "seed": seed,
        "codec": codec_meta,
        "action_labels": list(action_labels),
    }
    persist.save_container(path, meta, arrays, _QTABLE_ARRAYS)


class TrainResult:
    """What `train` learned. `state_codes` is the codec's read-only code
    array, not a copy. `values` and `visits` hold the Q-table rows training
    updated, as `persist.StoredRows` over the codec's rows; a row never
    updated is zero. `save` writes `qtable.bin` from them, and `qtable` is
    the dense table, built the first time it is asked for."""

    def __init__(self, state_codes: np.ndarray, values: persist.StoredRows, visits: persist.StoredRows,
                 header: dict, convergence: list[ConvergencePoint], pairs_visited: int):
        self.state_codes = state_codes
        self.values = values
        self.visits = visits
        # the Q-table's other fields: action_labels, config_hash, schedule, seed, codec_meta
        self.header = header
        self.convergence = convergence
        # (state, action) pairs with a nonzero visit count
        self.pairs_visited = pairs_visited
        self._qtable: QTable | None = None

    @property
    def qtable(self) -> QTable:
        if self._qtable is None:
            values, visits = _zeroed_tables(*self.values.shape)
            self.values.take(0, values)
            self.visits.take(0, visits)
            self._qtable = QTable(self.state_codes, values, visits, **self.header)
        return self._qtable

    def save(self, path) -> None:
        arrays = {"state_codes": self.state_codes, "values": self.values, "visits": self.visits}
        _save_qtable(path, arrays, **self.header)


def _zeroed_tables(rows: int, n_actions: int) -> tuple[np.ndarray, np.ndarray]:
    """Zeroed float64 values and int32 visit counts of shape (rows,
    n_actions), as two views of one private anonymous mapping.

    The mapping is unmapped when the last view goes, so a dropped table's
    memory returns to the OS instead of staying in the malloc heap, where a
    later command would still hold it. A page is faulted in only when
    written, so a training store holds the rows it has appended."""
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
    stream = PCG64(schedule.seed).words()
    rows = tables.state_codes.shape[0]
    # an episode updates one row per period, so it appends at most horizon rows
    q, visits = _zeroed_tables(min(rows, schedule.episodes * tables.horizon), tables.n_actions)
    slots = np.full(rows, -1, np.int32)
    log: list[ConvergencePoint] = []
    done = pairs_visited = n_used = 0
    while done < schedule.episodes:
        m = min(CONVERGENCE_EPOCH, schedule.episodes - done)
        alphas, epsilons = schedule_at(schedule, np.arange(done, done + m))
        max_delta, total_return, violations, first_visits, n_used = qlearn_chunk(
            q, visits, slots, n_used, tables, schedule.gamma, stream, alphas, epsilons
        )
        if violations:
            raise RuntimeError(
                f"{violations} Q updates left [{tables.q_lower}, 0]; "
                "rewards or schedule are inconsistent"
            )
        done += m
        pairs_visited += first_visits
        log.append(
            ConvergencePoint(episode=done, max_q_delta=float(max_delta), mean_return=float(total_return) / m)
        )
    header = {
        "action_labels": env.action_labels,
        "config_hash": config_hash,
        "schedule": asdict(schedule),
        "seed": schedule.seed,
        "codec_meta": {
            "horizon": tables.horizon,
            "p_full": tables.p_full,
            "c_full": tables.c_full,
            "n_actions": tables.n_actions,
        },
    }
    return TrainResult(
        state_codes=tables.state_codes,
        values=persist.StoredRows(slots, q),
        visits=persist.StoredRows(slots, visits),
        header=header,
        convergence=log,
        pairs_visited=pairs_visited,
    )


def write_convergence_csv(points: Sequence[ConvergencePoint], path) -> None:
    with persist.atomic_write(path, newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["episode", "max_q_delta", "mean_return"])
        for p in points:
            writer.writerow([p.episode, persist.format_float(p.max_q_delta), persist.format_float(p.mean_return)])


@dataclass
class ExactSolution:
    """Optimal action values from backward induction.

    `values` has one row per stored state, in codec order like a QTable's,
    so it lines up row for row with a trained table's values; the start
    state is row 0. Price expectation uses the per-unit chain matrices, so
    values are exact up to float rounding.
    """

    values: np.ndarray
    start_value: float

    def expected_return(self) -> float:
        return self.start_value

    def greedy_policy(self) -> np.ndarray:
        return greedy_policy(self.values)


def _price_expectation(env: PlanningEnv, v_next: np.ndarray) -> np.ndarray:
    """E[V(p', .) | p] over the factorized per-unit price transitions.

    Per unit, one np.dot of its chain matrix with the grid's axis of that
    unit moved first, as np.tensordot takes it: the moved grid is copied
    into one buffer and the dot writes into another. `v_next`, a
    C-contiguous float64 (p_full, width) grid, is dead once its first moved
    copy exists, so it is the dot's buffer and the function overwrites it:
    the expectation holds one grid beside `v_next`. The result is the
    moved-copy buffer, (p_full, width)."""
    codec = env.codec
    shape = tuple(int(n) for n in codec.ladder_sizes) + (v_next.shape[1],)
    moved, product = np.empty(v_next.size), v_next.reshape(-1)
    grid = v_next.reshape(shape)
    for u, entry in enumerate(env.catalog):
        order = (u,) + tuple(axis for axis in range(len(shape)) if axis != u)
        dims = tuple(shape[axis] for axis in order)
        np.copyto(moved.reshape(dims), grid.transpose(order))
        np.dot(entry.chain.transition_matrix(), moved.reshape(shape[u], -1), out=product.reshape(shape[u], -1))
        grid = np.moveaxis(product.reshape(dims), 0, u)
    np.copyto(moved.reshape(shape), grid)
    return moved.reshape(codec.p_full, v_next.shape[1])


def _backward(env: PlanningEnv, gamma: float, policy: np.ndarray | None) -> tuple[np.ndarray | None, float]:
    """Finite-horizon backward induction over the stored states: the
    action values and the start state's value. With no policy every state
    takes every action and its row holds all action values; with one int64
    action per codec row each state takes only its own, no action values
    are kept (None), and policy mode holds only the next-period grid. Each
    period is one `backward_period` call over all of its stored states, with
    no block loop and no gathered copies.

    The next-period values stay on the full price grid, which the price
    expectation needs, and are zero at combos that no stored state reaches:
    a reachable combo's price digits advance at most one rung, so those
    zeros only meet transition probabilities that are exactly zero."""
    if env._cost_of_cap is None:
        raise RuntimeError("attach a metamodel before backward induction")
    codec = env.codec
    invest = env.invest_table()
    values = np.empty((codec.n_states, codec.n_actions)) if policy is None else None
    v_next = None
    for t in range(env.horizon - 1, -1, -1):
        combos = codec.period_combos[t]
        period = slice(codec.block_starts[t], codec.block_starts[t] + len(combos) * codec.cap_count_at(t))
        expectation = None if v_next is None else _price_expectation(env, v_next)
        # the expectation overwrote v_next, which goes before the next grid
        # is allocated, so the period holds two grids
        del v_next
        v_next = np.zeros((codec.p_full, codec.cap_count_at(t)))
        backward_period(combos, codec.cap_next, invest, env._cost_of_cap, expectation, gamma, v_next,
                        values=None if values is None else values[period],
                        policy=None if policy is None else policy[period])
        # the expectation is rebuilt from v_next; holding this one while the
        # next is built would add a grid to the peak
        del expectation
    return values, float(v_next[0, 0])


def value_iteration(env: PlanningEnv, gamma: float = 1.0, max_states: int = 2_000_000) -> ExactSolution:
    """Optimal values over the full reachable state space.

    Refuses instances that store more than max_states non-terminal states.
    """
    _check_gamma(gamma)
    if env.codec.n_states > max_states:
        raise ValueError(
            f"state space has {env.codec.n_states} states, above the enumeration cap {max_states}"
        )
    return ExactSolution(*_backward(env, gamma, None))


def policy_value(env: PlanningEnv, policy: np.ndarray, gamma: float = 1.0) -> float:
    """Exact expected return of a fixed policy given per-row action indices
    aligned with the codec's state enumeration. ValueError for a gamma
    outside [0, 1], a policy that is not integer, or naming the first row
    whose action is outside [0, n_actions)."""
    _check_gamma(gamma)
    codec = env.codec
    if policy.shape != (codec.n_states,):
        raise ValueError(f"policy must have shape ({codec.n_states},)")
    if policy.dtype.kind not in "iu":
        raise ValueError(f"policy must hold integer action indices, not {policy.dtype}")
    bad = np.flatnonzero((policy < 0) | (policy >= codec.n_actions))
    if bad.size:
        raise ValueError(f"row {bad[0]} of the policy holds action {policy[bad[0]]}, outside [0, {codec.n_actions})")
    return _backward(env, gamma, np.asarray(policy, np.int64))[1]

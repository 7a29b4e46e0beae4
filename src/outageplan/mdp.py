"""Finite-horizon planning MDP for staged storage installation.

A state is (decision period, per-unit price index, installed level
multiset). Prices walk down per-unit ladders via independent two-outcome
Markov chains with an absorbing floor; capacity grows by at most one
catalog install per period and is never removed; reward is the negative of
investment cost plus the metamodel's expected outage cost for the
post-action portfolio, so capacity bought in a period already protects it.

States are keyed by integer tuples, never by floating-point prices. The
codec packs (period, price combo, capacity multiset) into one integer code
whose sorted enumeration doubles as the dense Q-table row index.

A capacity multiset's portfolio is its row of `PlanningEnv.installed_kwh`
(installed kWh per unit, catalog order). `attach_metamodel` joins those rows
to the CostTable's rows once, so a reward reads its outage cost by multiset
index.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from outageplan.errors import ArtifactMismatchError, ConfigError
from outageplan.outage import OutageModel
from outageplan.simulate import CostTable, StorageUnitSpec, row_lookup


@dataclass(frozen=True)
class PriceChain:
    """Per-unit capital-cost ladder walked by a Markov chain.

    Each period the index advances one rung with probability advance_prob
    and stays otherwise; the bottom rung is absorbing. Values are $/kWh and
    must be strictly decreasing.
    """

    values: tuple[float, ...]
    advance_prob: float

    def __post_init__(self):
        if len(self.values) < 1:
            raise ValueError("price ladder needs at least one value")
        if any(b >= a for a, b in zip(self.values, self.values[1:])):
            raise ValueError(f"price ladder must be strictly decreasing, got {self.values}")
        if any(v <= 0 for v in self.values):
            raise ValueError("prices must be positive")
        if not 0.0 <= self.advance_prob <= 1.0:
            raise ValueError(f"advance_prob must be in [0, 1], got {self.advance_prob}")

    def __len__(self) -> int:
        return len(self.values)

    def step(self, index: int, u: float) -> int:
        if not 0 <= index < len(self.values):
            raise ValueError(f"price index {index} out of range")
        if index < len(self.values) - 1 and u < self.advance_prob:
            return index + 1
        return index

    def transition_matrix(self) -> np.ndarray:
        n = len(self.values)
        mat = np.zeros((n, n))
        for i in range(n - 1):
            mat[i, i] = 1.0 - self.advance_prob
            mat[i, i + 1] = self.advance_prob
        mat[n - 1, n - 1] = 1.0
        return mat


@dataclass(frozen=True)
class UnitCatalogEntry:
    """One storage technology: its physical spec plus its price process."""

    storage: StorageUnitSpec
    chain: PriceChain

    @property
    def name(self) -> str:
        return self.storage.name


@dataclass(frozen=True)
class InstallAction:
    """Install one catalog level on one unit, or do nothing (both None)."""

    unit: Optional[int] = None
    level: Optional[int] = None

    def __post_init__(self):
        if (self.unit is None) != (self.level is None):
            raise ValueError("unit and level must both be set or both be None")

    @property
    def is_install(self) -> bool:
        return self.unit is not None


@dataclass(frozen=True)
class PlanningState:
    """period in [0, K]; one price index per unit; sorted option multiset.

    installs holds (unit * n_levels + level) option indices, sorted; the
    per-unit kWh view is derived, so two different multisets that sum to the
    same kWh stay distinct states.
    """

    period: int
    price_idx: tuple[int, ...]
    installs: tuple[int, ...]


@dataclass
class Census:
    per_period: list[int]
    total: int
    nonterminal: int


def row_index(state_codes: np.ndarray, code: int) -> int:
    """Row of a state code in an ascending code array (a codec's state_codes
    or a Q-table's); KeyError when the code is not there."""
    i = int(np.searchsorted(state_codes, code))
    if i >= len(state_codes) or state_codes[i] != code:
        raise KeyError(f"state code {code} not stored: not a reachable non-terminal state")
    return i


def unique_rows(a: np.ndarray) -> np.ndarray:
    """Distinct rows of a 2-D array, lexsorted with the first column most
    significant: the bytes of `np.unique(a, axis=0)` from one lexsort and an
    adjacent-row compare. Rows that differ only in the sign of a zero merge
    and the first in input order stays; `np.unique` keeps the one its
    quicksort leaves first, which is the same row for up to 16 rows."""
    s = a[np.lexsort(a.T[::-1])]
    keep = np.ones(len(s), dtype=bool)
    keep[1:] = (s[1:] != s[:-1]).any(axis=1)
    return s[keep]


class StateCodec:
    """Integer packing and reachable enumeration of planning states.

    code = (period * P + price_combo) * C + cap_index, where P is the full
    price-combo count and C counts level multisets of size <= horizon. At
    period t a price index can have advanced at most t rungs and at most t
    installs exist, which makes the reachable set a simple product; each
    period's block of codes is built as one numpy outer sum over its price
    combos and cap indices, in ascending code order.
    """

    def __init__(self, horizon: int, ladder_sizes: Sequence[int], n_units: int, n_levels: int):
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        self.horizon = horizon
        self.n_units = n_units
        self.n_levels = n_levels
        self.n_options = n_units * n_levels
        self.ladder_sizes = np.array(ladder_sizes, dtype=np.int64)

        self.cap_sets: list[tuple[int, ...]] = []
        self._cap_prefix = [0]
        for k in range(horizon + 1):
            self.cap_sets.extend(
                itertools.combinations_with_replacement(range(self.n_options), k)
            )
            self._cap_prefix.append(len(self.cap_sets))
        self.cap_index = {cap: i for i, cap in enumerate(self.cap_sets)}
        self.c_full = len(self.cap_sets)
        # One row per multiset, its options ascending, padded with n_options.
        self.cap_array = np.array(
            [cap + (self.n_options,) * (horizon - len(cap)) for cap in self.cap_sets],
            dtype=np.int64,
        )

        self.price_strides = np.ones(n_units, dtype=np.int64)
        for u in range(n_units - 2, -1, -1):
            self.price_strides[u] = self.price_strides[u + 1] * self.ladder_sizes[u + 1]
        self.p_full = int(np.prod(self.ladder_sizes))

        self.n_actions = 1 + self.n_options
        self.cap_next = self._cap_next_table()

        self.period_combos = [self._bounded_price_combos(t) for t in range(horizon)]
        sizes = [len(combos) * self.cap_count_at(t) for t, combos in enumerate(self.period_combos)]
        self.block_starts = [sum(sizes[:t]) for t in range(horizon)]
        self.n_states = sum(sizes)
        # Filled block by block in place: a concatenation would leave a
        # block-sized hole in the heap beside this long-lived array.
        self.state_codes = np.empty(self.n_states, dtype=np.int64)
        for t, combos in enumerate(self.period_combos):
            # combos ascend, so each period's block is already in code order
            block = self.state_codes[self.block_starts[t] : self.block_starts[t] + sizes[t]]
            np.add(
                ((t * self.p_full + combos) * self.c_full)[:, None],
                np.arange(self.cap_count_at(t)),
                out=block.reshape(len(combos), -1),
            )

    def _cap_next_table(self) -> np.ndarray:
        """cap_next[c, 0] = c; cap_next[c, 1 + j] is the index of multiset c
        plus option j, or -1 when c already holds horizon installs."""
        c_full, n_options = self.c_full, self.n_options
        table = np.full((c_full, self.n_actions), -1, dtype=np.int64)
        table[:, 0] = np.arange(c_full)
        grow = np.flatnonzero(self.cap_array[:, -1] == n_options)
        # The last slot of a growable row is padding: put option j there and
        # sort, which gives the grown multiset in the same padded layout.
        grown = np.repeat(self.cap_array[grow][:, None, :], n_options, axis=1)
        grown[:, :, -1] = np.arange(n_options)
        grown.sort(axis=2)
        table[grow, 1:] = row_lookup(self.cap_array, grown).reshape(len(grow), n_options)
        return table

    def _bounded_price_combos(self, period: int) -> np.ndarray:
        ranges = [range(min(period, int(n) - 1) + 1) for n in self.ladder_sizes]
        combos = [
            int(sum(d * s for d, s in zip(digits, self.price_strides)))
            for digits in itertools.product(*ranges)
        ]
        return np.array(combos, dtype=np.int64)

    def cap_count_at(self, period: int) -> int:
        return self._cap_prefix[min(period, self.horizon) + 1]

    def price_combo(self, price_idx: Sequence[int]) -> int:
        return int(sum(int(d) * int(s) for d, s in zip(price_idx, self.price_strides)))

    def price_digits(self, combo: int) -> tuple[int, ...]:
        digits = []
        for u in range(self.n_units):
            d, combo = divmod(combo, int(self.price_strides[u]))
            digits.append(int(d))
        return tuple(digits)

    def code_of(self, state: PlanningState) -> int:
        p = self.price_combo(state.price_idx)
        c = self.cap_index[tuple(state.installs)]
        return (state.period * self.p_full + p) * self.c_full + c

    def state_of(self, code: int) -> PlanningState:
        tp, c = divmod(code, self.c_full)
        t, p = divmod(tp, self.p_full)
        return PlanningState(period=t, price_idx=self.price_digits(p), installs=self.cap_sets[c])

    def index_of(self, code: int) -> int:
        return row_index(self.state_codes, code)

    def row_base(self) -> np.ndarray:
        """Row index of (t, p, cap index 0) by period and price combo, -1 where
        the combo is unreachable at t; state (t, p, c) is row row_base[t, p] + c,
        because each period's block lists its combos in ascending order with
        cap_count_at(t) rows each."""
        base = np.full((self.horizon, self.p_full), -1, dtype=np.int64)
        for t, combos in enumerate(self.period_combos):
            base[t, combos] = self.block_starts[t] + np.arange(len(combos)) * self.cap_count_at(t)
        return base

    def census(self) -> Census:
        per_period = []
        for t in range(self.horizon):
            per_period.append(len(self.period_combos[t]) * self.cap_count_at(t))
        terminal_combos = self._bounded_price_combos(self.horizon)
        per_period.append(len(terminal_combos) * self.cap_count_at(self.horizon))
        total = int(sum(per_period))
        return Census(per_period=per_period, total=total, nonterminal=self.n_states)


@dataclass
class KernelTables:
    """Dense arrays consumed by the training kernel and the exact solver."""

    state_codes: np.ndarray
    row_base: np.ndarray
    cap_next: np.ndarray
    invest: np.ndarray
    cost_of_cap: np.ndarray
    ladder_sizes: np.ndarray
    price_strides: np.ndarray
    advance_prob: np.ndarray
    horizon: int
    p_full: int
    c_full: int
    n_actions: int
    q_lower: float = field(default=0.0)


class PlanningEnv:
    """The staged-installation MDP bound to one configuration.

    Construction needs horizon, the unit catalog and the level set; attach a
    CostTable before computing rewards or training.
    """

    def __init__(
        self,
        horizon: int,
        catalog: Sequence[UnitCatalogEntry],
        levels_kwh: Sequence[float],
        outage_model: OutageModel | None = None,
    ):
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        if not catalog:
            raise ConfigError("catalog must contain at least one unit")
        if not levels_kwh or any(lv <= 0 for lv in levels_kwh):
            raise ConfigError("levels_kwh must be positive")
        if len(set(levels_kwh)) != len(levels_kwh):
            raise ConfigError("levels_kwh must be distinct")
        names = [e.name for e in catalog]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate unit names: {names}")
        self.horizon = horizon
        self.catalog = tuple(catalog)
        self.levels_kwh = tuple(float(lv) for lv in levels_kwh)
        self.outage_model = outage_model
        self.unit_names = tuple(names)
        self.codec = StateCodec(
            horizon=horizon,
            ladder_sizes=[len(e.chain) for e in catalog],
            n_units=len(catalog),
            n_levels=len(self.levels_kwh),
        )
        self.actions: tuple[InstallAction, ...] = tuple(
            [InstallAction()]
            + [
                InstallAction(unit=u, level=l)
                for u in range(len(catalog))
                for l in range(len(self.levels_kwh))
            ]
        )
        self.installed_kwh = self._installed_kwh_table()
        self._cost_of_cap: np.ndarray | None = None

    def _installed_kwh_table(self) -> np.ndarray:
        """Installed kWh by (capacity multiset, unit): the one capacity sum
        behind capacity_of, attach_metamodel and reachable_portfolios.

        Added position by position in multiset order from 0.0, so every
        unit's sum is the same float sequence as adding its installs one by
        one: the metamodel grid, its lookups and every reward share it.
        """
        codec = self.codec
        n_levels = len(self.levels_kwh)
        levels = np.array(self.levels_kwh)
        kwh = np.zeros((codec.c_full, len(self.catalog)))
        for options in codec.cap_array.T:
            rows = np.flatnonzero(options < codec.n_options)
            unit, level = np.divmod(options[rows], n_levels)
            # each multiset adds at most one install per position
            kwh[rows, unit] += levels[level]
        return kwh

    # -- state helpers -------------------------------------------------

    def initial_state(self) -> PlanningState:
        return PlanningState(
            period=0, price_idx=(0,) * len(self.catalog), installs=()
        )

    def is_terminal(self, state: PlanningState) -> bool:
        return state.period >= self.horizon

    def legal_actions(self, state: PlanningState) -> tuple[InstallAction, ...]:
        self._check_state(state)
        if self.is_terminal(state):
            return ()
        return self.actions

    def action_index(self, action: InstallAction) -> int:
        if not action.is_install:
            return 0
        if not (0 <= action.unit < len(self.catalog)):
            raise ValueError(f"unit index {action.unit} out of range")
        if not (0 <= action.level < len(self.levels_kwh)):
            raise ValueError(f"level index {action.level} out of range")
        return 1 + action.unit * len(self.levels_kwh) + action.level

    def action_label(self, action: InstallAction) -> str:
        if not action.is_install:
            return "do-nothing"
        name = self.unit_names[action.unit]
        level = self.levels_kwh[action.level]
        level_txt = f"{level:g}"
        return f"install {name} {level_txt} kWh"

    def capacity_of(self, state: PlanningState) -> dict[str, float]:
        """Installed kWh per unit name, in catalog order."""
        kwh = self.installed_kwh[self.codec.cap_index[tuple(state.installs)]]
        return dict(zip(self.unit_names, kwh.tolist()))

    def display_tuple(self, state: PlanningState) -> tuple:
        """Flat (period, price per unit in $, installed kWh per unit) view."""
        prices = [e.chain.values[i] for e, i in zip(self.catalog, state.price_idx)]
        cells = [state.period] + prices + list(self.capacity_of(state).values())
        return tuple(int(x) if float(x).is_integer() else float(x) for x in cells)

    def _check_state(self, state: PlanningState) -> None:
        if not 0 <= state.period <= self.horizon:
            raise ValueError(f"period {state.period} out of [0, {self.horizon}]")
        if len(state.price_idx) != len(self.catalog):
            raise ValueError("one price index per unit required")
        for idx, entry in zip(state.price_idx, self.catalog):
            if not 0 <= idx < len(entry.chain):
                raise ValueError(f"price index {idx} off the {entry.name} ladder")
        if len(state.installs) > state.period:
            raise ValueError("more installs than elapsed periods")
        if tuple(sorted(state.installs)) != tuple(state.installs):
            raise ValueError("installs multiset must be sorted")

    # -- dynamics --------------------------------------------------------

    def transition(self, state: PlanningState, action: InstallAction, rng: np.random.Generator) -> PlanningState:
        """Advance one period: apply the install, then walk every price chain.

        One uniform is consumed per unit in catalog order, at the absorbing
        floor too, mirroring the training kernel's stream layout exactly.
        """
        self._check_state(state)
        if self.is_terminal(state):
            raise ValueError(f"no actions at terminal period {state.period}")
        a = self.action_index(action)
        if action.is_install:
            installs = tuple(sorted(state.installs + (a - 1,)))
        else:
            installs = state.installs
        new_idx = []
        for entry, idx in zip(self.catalog, state.price_idx):
            u = rng.random()
            new_idx.append(entry.chain.step(idx, u))
        return PlanningState(period=state.period + 1, price_idx=tuple(new_idx), installs=installs)

    def attach_metamodel(self, table: CostTable) -> None:
        """Bind a cost table and pre-resolve the cost of every reachable
        capacity multiset. Missing portfolios and costs that are not finite
        and non-negative fail here, before any training or solving."""
        if table.units != self.unit_names:
            raise ConfigError(
                f"cost table units {table.units} do not match catalog {self.unit_names}"
            )
        rows = row_lookup(table.kwh, self.installed_kwh)
        missing = np.flatnonzero(rows < 0)
        if missing.size:
            key = tuple(self.installed_kwh[missing[0]].tolist())
            raise KeyError(f"portfolio {key} not present in cost table; rebuild the metamodel")
        costs = table.cost[rows]
        bad = np.flatnonzero(~((costs >= 0.0) & (costs < math.inf)))
        if bad.size:
            key = tuple(self.installed_kwh[bad[0]].tolist())
            raise ArtifactMismatchError(
                f"cost table entry for {key} kWh is {float(costs[bad[0]])!r}; costs must be finite and >= 0")
        self._cost_of_cap = costs

    def attach_zero_cost(self) -> None:
        """Bind an all-zero outage cost (useful for structural tests)."""
        self._cost_of_cap = np.zeros(self.codec.c_full)

    def reward(self, state: PlanningState, action: InstallAction, next_state: PlanningState) -> float:
        """-(investment at the pre-transition price) - metamodel cost of the
        post-action portfolio."""
        if self._cost_of_cap is None:
            raise RuntimeError("attach a metamodel before computing rewards")
        invest = 0.0
        if action.is_install:
            price = self.catalog[action.unit].chain.values[state.price_idx[action.unit]]
            invest = self.levels_kwh[action.level] * price
        outage_cost = float(self._cost_of_cap[self.codec.cap_index[tuple(next_state.installs)]])
        return -(invest + outage_cost)

    # -- dense tables ---------------------------------------------------

    def invest_table(self) -> np.ndarray:
        """Investment cost by (price combo, action): level kWh times the
        acting unit's ladder value at the combo's digit."""
        codec = self.codec
        invest = np.zeros((codec.p_full, codec.n_actions))
        digits = np.arange(codec.p_full)[:, None] // codec.price_strides % codec.ladder_sizes
        for u, entry in enumerate(self.catalog):
            ladder = np.array(entry.chain.values)
            for l, level in enumerate(self.levels_kwh):
                a = 1 + u * len(self.levels_kwh) + l
                invest[:, a] = level * ladder[digits[:, u]]
        return invest

    def kernel_tables(self) -> KernelTables:
        if self._cost_of_cap is None:
            raise RuntimeError("attach a metamodel before building kernel tables")
        invest = self.invest_table()
        worst = self.horizon * (float(invest.max()) + float(self._cost_of_cap.max()))
        return KernelTables(
            state_codes=self.codec.state_codes,
            row_base=self.codec.row_base(),
            cap_next=self.codec.cap_next,
            invest=invest,
            cost_of_cap=self._cost_of_cap,
            ladder_sizes=self.codec.ladder_sizes,
            price_strides=self.codec.price_strides,
            advance_prob=np.array([e.chain.advance_prob for e in self.catalog]),
            horizon=self.horizon,
            p_full=self.codec.p_full,
            c_full=self.codec.c_full,
            n_actions=self.codec.n_actions,
            q_lower=-(worst * (1.0 + 1e-9) + 1e-6),
        )

    def reachable_portfolios(self) -> np.ndarray:
        """Distinct rows of `installed_kwh`, lexsorted: the metamodel grid.
        Derived from the codec, so the grid and every reward lookup share
        the exact same float arithmetic."""
        return unique_rows(self.installed_kwh)

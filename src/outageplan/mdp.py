"""Finite-horizon planning MDP for staged storage installation.

A state is (decision period, per-unit price index, installed level
multiset). Prices walk down per-unit ladders via independent two-outcome
Markov chains with an absorbing floor; capacity grows by at most one
catalog install per period and is never removed; reward is the negative of
investment cost plus the metamodel's expected outage cost for the
post-action portfolio, so capacity bought in a period already protects it.

In code a state is its integer code and a row of the codec, never a
floating-point price: the codec packs (period, price combo, capacity
multiset index) into one integer whose sorted enumeration doubles as the
dense Q-table row index. An action is an integer too: 0 does nothing and
1 + unit * n_levels + level installs one catalog level.

A capacity multiset's portfolio is its row of `PlanningEnv.installed_kwh`
(installed kWh per unit, catalog order). `attach_metamodel` joins those rows
to the CostTable's rows once, so a reward reads its outage cost by multiset
index.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

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

    code = (period * P + price_combo) * C + cap, where cap indexes cap_sets,
    P is the full price-combo count and C counts level multisets of size
    <= horizon. At period t a price index can have advanced at most t rungs
    and at most t installs exist, which makes the reachable set a simple
    product; each period's block of codes is built as one numpy outer sum
    over its price combos and cap indices, in ascending code order.

    It decodes once for every consumer: `digits` splits a price combo into
    ladder indices, `option_unit` and `option_level` split an install option
    into its unit and level, and `row_base` maps (period, combo) to a row.
    Its arrays are read-only: one codec serves every environment of the same
    shape in a process (`PlanningEnv`).
    """

    def __init__(self, horizon: int, ladder_sizes: Sequence[int], n_units: int, n_levels: int):
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        self.horizon = horizon
        self.n_options = n_units * n_levels
        self.ladder_sizes = np.array(ladder_sizes, dtype=np.int64)

        self.cap_sets: list[tuple[int, ...]] = []
        self._cap_prefix = [0]
        for k in range(horizon + 1):
            self.cap_sets.extend(
                itertools.combinations_with_replacement(range(self.n_options), k)
            )
            self._cap_prefix.append(len(self.cap_sets))
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
        # digits[p, u] is unit u's ladder index in price combo p
        self.digits = np.arange(self.p_full)[:, None] // self.price_strides % self.ladder_sizes
        # install option j is (unit, level) = (option_unit[j], option_level[j])
        self.option_unit, self.option_level = np.divmod(np.arange(self.n_options), n_levels)

        self.n_actions = 1 + self.n_options
        self.cap_next = self._cap_next_table()

        self.period_combos = [np.flatnonzero((self.digits <= t).all(axis=1)) for t in range(horizon)]
        sizes = [len(combos) * self.cap_count_at(t) for t, combos in enumerate(self.period_combos)]
        self.block_starts = [sum(sizes[:t]) for t in range(horizon)]
        self.n_states = sum(sizes)
        # state (t, p, c) is row row_base[t, p] + c; -1 marks a combo unreachable at t
        self.row_base = np.full((horizon, self.p_full), -1, dtype=np.int64)
        # Filled block by block in place: a concatenation would leave a
        # block-sized hole in the heap beside this long-lived array.
        self.state_codes = np.empty(self.n_states, dtype=np.int64)
        for t, combos in enumerate(self.period_combos):
            self.row_base[t, combos] = self.block_starts[t] + np.arange(len(combos)) * self.cap_count_at(t)
            # combos ascend, so each period's block is already in code order
            block = self.state_codes[self.block_starts[t] : self.block_starts[t] + sizes[t]]
            np.add(
                ((t * self.p_full + combos) * self.c_full)[:, None],
                np.arange(self.cap_count_at(t)),
                out=block.reshape(len(combos), -1),
            )
        for a in (self.ladder_sizes, self.cap_array, self.price_strides, self.digits, self.option_unit,
                  self.option_level, self.cap_next, self.row_base, self.state_codes, *self.period_combos):
            a.setflags(write=False)

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

    def cap_count_at(self, period: int) -> int:
        return self._cap_prefix[min(period, self.horizon) + 1]

    def price_combo(self, price_idx: Sequence[int]) -> int:
        return int(sum(int(d) * int(s) for d, s in zip(price_idx, self.price_strides)))


@functools.lru_cache(maxsize=8)
def _shared_codec(horizon: int, ladder_sizes: tuple[int, ...], n_units: int, n_levels: int) -> StateCodec:
    """The one StateCodec of these arguments in this process: every
    PlanningEnv of the same shape shares it."""
    return StateCodec(horizon=horizon, ladder_sizes=ladder_sizes, n_units=n_units, n_levels=n_levels)


@dataclass
class KernelTables:
    """Dense arrays that `train` hands to the compiled Q-learning loop (`qlearn_chunk`)."""

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
        self.codec = _shared_codec(horizon, tuple(len(e.chain) for e in catalog), len(catalog), len(self.levels_kwh))
        self.action_labels = ("do-nothing",) + tuple(
            f"install {self.unit_names[u]} {self.levels_kwh[l]:g} kWh"
            for u, l in zip(self.codec.option_unit.tolist(), self.codec.option_level.tolist())
        )
        self.installed_kwh = self._installed_kwh_table()
        self._cost_of_cap: np.ndarray | None = None

    def _installed_kwh_table(self) -> np.ndarray:
        """Installed kWh by (capacity multiset, unit): the one capacity sum
        behind capacity_of, attach_metamodel and reachable_portfolios.

        Added position by position in multiset order from 0.0, so every
        unit's sum is the same float sequence as adding its installs one by
        one: the metamodel grid, its lookups and every reward share it.
        A position adds one row of `option_kwh`, 0.0 but at its install's
        unit, and adding 0.0 leaves a sum of positive levels as it is.
        """
        codec = self.codec
        option_kwh = np.zeros((codec.n_options + 1, len(self.catalog)))
        option_kwh[np.arange(codec.n_options), codec.option_unit] = np.array(self.levels_kwh)[codec.option_level]
        kwh = np.zeros((codec.c_full, len(self.catalog)))
        for options in codec.cap_array.T:
            kwh += option_kwh[options]
        return kwh

    def capacity_of(self, cap: int) -> dict[str, float]:
        """Installed kWh per unit name, in catalog order, of capacity
        multiset `cap`."""
        return dict(zip(self.unit_names, self.installed_kwh[cap].tolist()))

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

    # -- dense tables ---------------------------------------------------

    def invest_table(self) -> np.ndarray:
        """Investment cost by (price combo, action): level kWh times the
        acting unit's ladder value at the combo's digit."""
        codec = self.codec
        prices = np.stack([np.array(e.chain.values)[codec.digits[:, u]] for u, e in enumerate(self.catalog)], axis=1)
        invest = np.zeros((codec.p_full, codec.n_actions))
        invest[:, 1:] = np.array(self.levels_kwh)[codec.option_level] * prices[:, codec.option_unit]
        return invest

    def kernel_tables(self) -> KernelTables:
        if self._cost_of_cap is None:
            raise RuntimeError("attach a metamodel before building kernel tables")
        invest = self.invest_table()
        worst = self.horizon * (float(invest.max()) + float(self._cost_of_cap.max()))
        return KernelTables(
            state_codes=self.codec.state_codes,
            row_base=self.codec.row_base,
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

"""Monte Carlo islanding simulation and the outage-cost lookup table.

During a grid outage the microgrid islands and serves load from PV plus
installed storage, highest value-of-lost-load first. Expected outage cost
per decision period is estimated by replicated simulation with common random
numbers: every portfolio replays the same sampled outage spans, so the
replications' merged spans and the portfolios form one (span x portfolio)
grid that `dispatch_spans` dispatches in one call of the compiled kernel
(`outageplan._kernels.dispatch`), span by span and hour by hour, every
portfolio within each hour. Its working set is the energy left in every
portfolio's units; only the (span x portfolio) cost array grows with the
replication count.

A storage portfolio is one row of a float64 (portfolios, units) array of
installed kWh, its columns in catalog order (the order of
`AppConfig.storage_specs()`). The estimates are cached per portfolio in a
CostTable, so the planner never simulates inside its training loop. Lookups
are exact row matches (`row_lookup`): a portfolio missing from the table is
a hard error, never an extrapolation.
"""

from __future__ import annotations

import copy
import functools
import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from outageplan import _kernels, persist
from outageplan.errors import ArtifactMismatchError, ConfigError
from outageplan.outage import HOURS_PER_YEAR, OutageEvent, OutageModel, outage_model_to_config, sample_trace
from outageplan.pcg64 import PCG64

METAMODEL_MAGIC = "# outageplan-metamodel "


@dataclass(frozen=True)
class StorageUnitSpec:
    """Physical behavior of one storage technology.

    power_limit is kW of discharge per installed kWh. Usable fraction and
    round-trip efficiency jointly set the deliverable energy of a full
    charge: installed * usable_fraction * round_trip_efficiency.
    """

    name: str
    round_trip_efficiency: float
    usable_fraction: float
    power_limit: float

    def __post_init__(self):
        if not self.name:
            raise ValueError("storage unit needs a name")
        if not 0 < self.round_trip_efficiency <= 1:
            raise ValueError(f"{self.name}: round_trip_efficiency must be in (0, 1]")
        if not 0 < self.usable_fraction <= 1:
            raise ValueError(f"{self.name}: usable_fraction must be in (0, 1]")
        if not 0 < self.power_limit < math.inf:
            raise ValueError(f"{self.name}: power_limit must be finite and > 0")

    def deliverable_kwh(self, installed_kwh: float) -> float:
        return installed_kwh * self.usable_fraction * self.round_trip_efficiency

    def power_cap_kw(self, installed_kwh: float) -> float:
        return installed_kwh * self.power_limit


@dataclass(frozen=True)
class FacilityClass:
    """A load class: count identical buildings sharing one profile and VoLL."""

    name: str
    count: int
    peak_load_kw: float
    value_of_lost_load: float
    profile: str

    def __post_init__(self):
        if self.count <= 0:
            raise ValueError(f"{self.name}: count must be > 0")
        if self.peak_load_kw <= 0:
            raise ValueError(f"{self.name}: peak_load_kw must be > 0")
        if self.value_of_lost_load <= 0:
            raise ValueError(f"{self.name}: value_of_lost_load must be > 0")


@dataclass(frozen=True)
class HourlyProfiles:
    """Aggregate hourly demand per facility class plus PV generation, kW.

    demand has shape (n_classes, 8760); pv has shape (8760,).
    """

    demand: np.ndarray
    pv: np.ndarray

    def __post_init__(self):
        if self.demand.ndim != 2 or self.demand.shape[1] != HOURS_PER_YEAR:
            raise ValueError(f"demand must be (n_classes, {HOURS_PER_YEAR})")
        if self.pv.shape != (HOURS_PER_YEAR,):
            raise ValueError(f"pv must have shape ({HOURS_PER_YEAR},)")
        for values in (self.demand, self.pv):
            if not np.all((values >= 0) & (values < math.inf)):
                raise ValueError("profiles must be finite and non-negative")


@dataclass(frozen=True)
class Microgrid:
    """Facility classes with their resolved profiles."""

    facilities: tuple[FacilityClass, ...]
    profiles: HourlyProfiles

    def __post_init__(self):
        if len(self.facilities) != self.profiles.demand.shape[0]:
            raise ValueError("one demand row per facility class required")

    def voll(self) -> np.ndarray:
        return np.array([f.value_of_lost_load for f in self.facilities], dtype=np.float64)

    def dispatch_order(self) -> np.ndarray:
        # descending VoLL, declaration order breaking ties
        order = sorted(
            range(len(self.facilities)),
            key=lambda i: (-self.facilities[i].value_of_lost_load, i),
        )
        return np.array(order, dtype=np.int64)


@dataclass(frozen=True)
class CostEstimate:
    mean: float
    stderr: float
    replications: int


def _portfolio_kwh(portfolios, specs: Sequence[StorageUnitSpec]) -> np.ndarray:
    kwh = np.asarray(portfolios, dtype=np.float64)
    if kwh.ndim != 2 or kwh.shape[1] != len(specs) or not np.all((kwh >= 0.0) & (kwh < math.inf)):
        raise ConfigError(
            f"portfolio array of shape {kwh.shape} needs one column per storage unit ({len(specs)}) "
            "and finite installed kWh >= 0"
        )
    return kwh


def dispatch_spans(
    start_hours: np.ndarray,
    n_hours: np.ndarray,
    portfolios: np.ndarray,
    specs: Sequence[StorageUnitSpec],
    grid: Microgrid,
) -> tuple[np.ndarray, np.ndarray]:
    """Islanded dispatch of every (span, portfolio) pair, storage full at the
    onset of each span.

    Span s covers n_hours[s] whole hours from hour-of-year start_hours[s],
    wrapping across the year boundary. Portfolio p is row p of a
    (portfolios, units) kWh array whose columns follow `specs`. Each hour PV
    serves first, storage covers the residual unit by unit up to its power
    and remaining-energy limits, and the pool goes to classes in descending
    value-of-lost-load order. Returns (cost, unserved): cost[s, p] in $ and
    unserved[c, s, p] in kWh for facility class c; ValueError naming the
    first span whose start is not a whole hour in [0, 8760) or whose length
    is not a whole number of hours >= 0.
    """
    starts = np.asarray(start_hours)
    in_year = (starts >= 0) & (starts < HOURS_PER_YEAR)
    bad = np.flatnonzero(~(np.isfinite(starts) & (np.floor(starts) == starts) & in_year))
    if bad.size:
        raise ValueError(f"span {bad[0]} starts at hour {starts[bad[0]].item()!r}; "
                         f"a span starts at a whole hour in [0, {HOURS_PER_YEAR})")
    start_hours = starts.astype(np.int64, copy=False)
    hours = np.asarray(n_hours)
    bad = np.flatnonzero(~(np.isfinite(hours) & (np.floor(hours) == hours) & (hours >= 0)))
    if bad.size:
        raise ValueError(f"span {bad[0]} lasts {hours[bad[0]].item()!r} h; a span lasts whole hours >= 0")
    n_hours = hours.astype(np.int64, copy=False)
    return _dispatch(start_hours, n_hours, _portfolio_kwh(portfolios, specs), specs, grid, with_unserved=True)


def _dispatch(starts: np.ndarray, lengths: np.ndarray, kwh: np.ndarray, specs: Sequence[StorageUnitSpec],
              grid: Microgrid, with_unserved: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """`dispatch_spans` of valid int64 spans and a checked kWh array; the
    unserved kWh are not kept, and are None, unless `with_unserved`."""
    deliverable = np.empty(kwh.shape)
    power_cap = np.empty(kwh.shape)
    for u, spec in enumerate(specs):
        deliverable[:, u] = spec.deliverable_kwh(kwh[:, u])
        power_cap[:, u] = spec.power_cap_kw(kwh[:, u])
    demand = np.ascontiguousarray(grid.profiles.demand, np.float64)
    cost = np.empty((len(starts), len(kwh)))
    unserved = np.empty((len(demand),) + cost.shape) if with_unserved else None
    _kernels.dispatch(
        np.ascontiguousarray(starts), np.ascontiguousarray(lengths), deliverable, power_cap, demand,
        np.ascontiguousarray(grid.profiles.pv, np.float64), grid.dispatch_order(), grid.voll(),
        np.empty(kwh.shape), cost, unserved,
    )
    return cost, unserved


def merge_events(events: Iterable[OutageEvent]) -> list[tuple[float, float]]:
    """Union of [start, end) outage intervals: overlapping or touching events
    become one continuous islanding episode (storage refills only between
    episodes, not inside one)."""
    spans = sorted((e.start, e.end) for e in events)
    merged: list[tuple[float, float]] = []
    for start, end in spans:
        if merged and start <= merged[-1][1]:
            prev_start, prev_end = merged[-1]
            merged[-1] = (prev_start, max(prev_end, end))
        else:
            merged.append((start, end))
    return merged


def _replication_seeds(rng, replications: int) -> np.ndarray:
    """One int64 seed on [0, 2**63) per replication, drawn by `rng`'s
    `integers`: a `PCG64`, or a numpy Generator, which draws the same."""
    if replications <= 0:
        raise ValueError(f"replications must be > 0, got {replications}")
    return rng.integers(0, 2**63, size=replications, dtype=np.int64)


def _outage_spans(
    model: OutageModel, period_length_years: float, seeds: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merged outage spans for every replication, placed on the calendar.

    Replication r draws from its own PCG64 stream seeded with seeds[r]: one
    calendar-offset uniform, then the trace. Returns (start_hours, n_hours,
    offsets) where offsets[r]:offsets[r+1] slices replication r's spans.
    """
    starts: list[int] = []
    lengths: list[int] = []
    offsets = [0]
    for seed in seeds:
        gen = PCG64(int(seed))
        calendar_offset = gen.random() * HOURS_PER_YEAR
        events = sample_trace(model, period_length_years, gen)
        for span_start, span_end in merge_events(events):
            starts.append(int(math.floor(calendar_offset + span_start)) % HOURS_PER_YEAR)
            lengths.append(int(math.ceil(span_end - span_start)))
        offsets.append(len(starts))
    return (
        np.array(starts, dtype=np.int64),
        np.array(lengths, dtype=np.int64),
        np.array(offsets, dtype=np.int64),
    )


def _mean_stderr(costs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sample mean of each row of per-replication costs (portfolios x
    replications, C-contiguous) and its standard error (0 for a single
    replication). Reduced along the contiguous axis, each row is summed
    exactly as a 1-D array of its costs would be."""
    n = costs.shape[1]
    mean = np.mean(costs, axis=1)
    if n == 1:
        return mean, np.zeros_like(mean)
    return mean, np.std(costs, axis=1, ddof=1) / math.sqrt(n)


def _crn_estimates(
    model: OutageModel,
    portfolios: np.ndarray,
    specs: Sequence[StorageUnitSpec],
    grid: Microgrid,
    period_length_years: float,
    seeds: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error of the period cost of every row of a
    (portfolios, units) kWh array, all portfolios dispatched against the same
    replications' outage spans.
    """
    kwh = _portfolio_kwh(portfolios, specs)
    starts, lengths, offsets = _outage_spans(model, period_length_years, seeds)
    span_cost, _ = _dispatch(starts, lengths, kwh, specs, grid, with_unserved=False)
    # Each replication's total adds its spans' costs in span order from 0.0.
    counts = np.diff(offsets)
    totals = np.zeros((len(counts), span_cost.shape[1]))
    for j in range(int(counts.max(initial=0))):
        reps = np.flatnonzero(counts > j)
        totals[reps] += span_cost[offsets[reps] + j]
    return _mean_stderr(np.ascontiguousarray(totals.T))


def expected_period_cost(
    model: OutageModel,
    kwh: Sequence[float],
    specs: Sequence[StorageUnitSpec],
    grid: Microgrid,
    period_length_years: float,
    replications: int,
    rng,
) -> CostEstimate:
    """Mean outage cost over one decision period of the portfolio with
    installed kWh `kwh` per unit of `specs`, with its standard error.

    `rng` draws the replication seeds with `integers(0, 2**63, size=...,
    dtype=np.int64)`: a `PCG64`, or a numpy Generator, which draws the same.
    Events are drawn per replication with a uniformly placed calendar offset;
    overlapping outages merge into one islanding episode before dispatch.
    """
    if period_length_years < 0:
        raise ValueError("period length must be >= 0")
    seeds = _replication_seeds(rng, replications)
    mean, stderr = _crn_estimates(model, [kwh], specs, grid, period_length_years, seeds)
    return CostEstimate(mean=float(mean[0]), stderr=float(stderr[0]), replications=replications)


def row_lookup(table: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Index of each row of `rows` among the rows of the 2-D array `table`
    (the first one, where a row repeats), or -1 where it is absent.

    Rows match when their bytes are equal: both arrays need the same dtype
    and width, and -0.0 does not match 0.0.
    """

    def keys(a: np.ndarray) -> np.ndarray:
        a = np.ascontiguousarray(a).reshape(-1, table.shape[1])
        return a.view(np.dtype((np.void, a.itemsize * a.shape[1]))).ravel()

    have, want = keys(table), keys(rows)
    if not len(have):
        return np.full(len(want), -1, dtype=np.int64)
    order = np.argsort(have, kind="stable")
    pos = np.minimum(np.searchsorted(have[order], want), len(have) - 1)
    return np.where(have[order[pos]] == want, order[pos], -1)


class CostTable:
    """Exact-lookup metamodel: the Monte Carlo period cost of each storage
    portfolio and its standard error.

    Row i of `kwh` is a portfolio, installed kWh per unit in `units` order
    (the catalog order); `cost[i]` and `stderr[i]` are its estimate. Rows are
    stored lexsorted and unique, with -0.0 kWh stored as 0.0.
    """

    def __init__(self, units: Sequence[str], kwh, cost, stderr, meta: dict):
        self.units = tuple(units)
        kwh = np.asarray(kwh, dtype=np.float64) + 0.0
        cost, stderr = np.asarray(cost, dtype=np.float64), np.asarray(stderr, dtype=np.float64)
        if kwh.ndim != 2 or kwh.shape[1] != len(self.units) or not cost.shape == stderr.shape == (len(kwh),):
            raise ValueError(f"cost table needs a (portfolios, {len(self.units)}) kWh array and one cost "
                             f"and stderr per portfolio, got shapes {kwh.shape}, {cost.shape}, {stderr.shape}")
        # a row whose first match is an earlier row repeats it
        dup = np.flatnonzero(row_lookup(kwh, kwh) != np.arange(len(kwh)))
        if dup.size:
            raise ValueError(f"duplicate portfolio {tuple(kwh[dup[0]].tolist())}")
        order = np.lexsort(kwh.T[::-1])
        self.kwh, self.cost, self.stderr = kwh[order], cost[order], stderr[order]
        self.meta = dict(meta)

    def __len__(self) -> int:
        return len(self.kwh)

    def save(self, path) -> None:
        lines = [METAMODEL_MAGIC + persist.canonical_json(self.meta)]
        lines.append(",".join([f"cap_{u}" for u in self.units] + ["cost", "stderr"]))
        # repr of a Python float is persist.format_float; a table has few
        # distinct kWh levels, so each is formatted once
        levels, index = np.unique(self.kwh, return_inverse=True)
        names = list(map(repr, levels.tolist()))
        columns = [[names[i] for i in column] for column in index.reshape(self.kwh.shape).T.tolist()]
        columns += [map(repr, self.cost.tolist()), map(repr, self.stderr.tolist())]
        lines.extend(map(",".join, zip(*columns)))
        with persist.atomic_write(path, newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")

    @classmethod
    def load(cls, path, expect_config_hash: str | None = None) -> "CostTable":
        """Read a table written by `save`. Blank lines are skipped; the first
        offending line decides the error, checked in the order: cell count,
        numbers, kWh finite and >= 0, cost and stderr finite and >= 0, a
        portfolio seen on an earlier line.

        The file's text is parsed once per process: every load of the same
        text returns a table of its own, with its own `meta`, around the same
        read-only arrays."""
        with open(path) as fh:
            shared = _parse_cost_table(fh.read(), str(path))
        meta = shared.meta
        if expect_config_hash is not None and meta.get("config_hash") != expect_config_hash:
            raise ArtifactMismatchError(
                f"{path}: cost table was built for config {meta.get('config_hash')!r}, "
                f"active config is {expect_config_hash!r}"
            )
        table = copy.copy(shared)
        table.meta = copy.deepcopy(meta)
        return table


@functools.lru_cache(maxsize=8)
def _parse_cost_table(text: str, path: str) -> CostTable:
    """The table in the text of a cost table file, its arrays read-only;
    `path` names the file in errors."""
    # the padding gives a one-line file the empty column line readline would
    first, columns, *body = text.split("\n") + [""]
    columns = columns.split(",")
    body = [(lineno, line.strip()) for lineno, line in enumerate(body, start=3) if line.strip()]
    if not first.startswith(METAMODEL_MAGIC):
        raise ArtifactMismatchError(f"{path}: not a cost table file")
    try:
        meta = json.loads(first[len(METAMODEL_MAGIC):])
    except json.JSONDecodeError:
        meta = None
    if not isinstance(meta, dict):
        raise ArtifactMismatchError(f"{path}: cost table header is not a JSON object")
    if len(columns) < 3 or columns[-2:] != ["cost", "stderr"] or any(c[:4] != "cap_" for c in columns[:-2]):
        raise ArtifactMismatchError(f"{path}: unexpected cost table columns {columns}")
    units = tuple(c[len("cap_"):] for c in columns[:-2])
    lines = [line for _, line in body]
    rows, bad = persist.parse_csv_rows(lines, np.dtype([("", np.float64)] * len(columns)))
    values = rows.view(np.float64).reshape(len(rows), len(columns))
    kwh, cost, stderr = values[:, :-2] + 0.0, values[:, -2], values[:, -1]
    bad_kwh = ~((kwh >= 0.0) & (kwh < math.inf)).all(axis=1)
    bad_cost = ~((cost >= 0.0) & (cost < math.inf) & (stderr >= 0.0) & (stderr < math.inf))
    hits = np.flatnonzero(bad_kwh | bad_cost | (row_lookup(kwh, kwh) != np.arange(len(kwh))))
    if hits.size:
        row = hits[0]
        where, key = f"{path}:{body[row][0]}", tuple(kwh[row].tolist())
        if bad_kwh[row]:
            raise ArtifactMismatchError(f"{where}: installed kWh must be finite and >= 0, got {key}")
        if bad_cost[row]:
            raise ArtifactMismatchError(f"{where}: cost and stderr must be finite and >= 0, "
                                        f"got {cost[row].item()}, {stderr[row].item()}")
        raise ArtifactMismatchError(f"{where}: duplicate portfolio {key}")
    if bad is not None:
        cells = lines[bad].split(",")
        where = f"{path}:{body[bad][0]}"
        if len(cells) != len(columns):
            raise ArtifactMismatchError(f"{where}: row has {len(cells)} cells, expected {len(columns)}")
        raise ArtifactMismatchError(f"{where}: cells must be numbers, got {cells!r}")
    table = CostTable(units=units, kwh=kwh, cost=cost, stderr=stderr, meta=meta)
    for a in (table.kwh, table.cost, table.stderr):
        a.setflags(write=False)
    return table


def build_metamodel(
    model: OutageModel,
    capacity_grid: np.ndarray,
    specs: Sequence[StorageUnitSpec],
    grid: Microgrid,
    period_length_years: float,
    replications: int,
    seed: int,
    config_hash: str | None = None,
) -> CostTable:
    """Estimate expected period cost for every portfolio on the grid, a
    (portfolios, units) kWh array whose columns follow `specs`.

    All portfolios share one set of replication event draws (events do not
    depend on capacity), so estimates are common-random-number comparable and
    deterministic for a fixed seed: a PCG64 stream seeded with `seed` draws
    one seed per replication, and each replication's own stream its events.
    """
    if not len(capacity_grid):
        raise ValueError("capacity grid is empty")
    units = tuple(s.name for s in specs)
    seeds = _replication_seeds(PCG64(seed), replications)
    mean, stderr = _crn_estimates(model, capacity_grid, specs, grid, period_length_years, seeds)
    meta = {
        "format": "outageplan-metamodel",
        "version": 1,
        "config_hash": config_hash,
        "outage_model": outage_model_to_config(model),
        "period_length_years": period_length_years,
        "replications": replications,
        "seed": seed,
        "units": list(units),
    }
    return CostTable(units=units, kwh=capacity_grid, cost=mean, stderr=stderr, meta=meta)

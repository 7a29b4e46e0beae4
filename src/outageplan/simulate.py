"""Monte Carlo islanding simulation and the outage-cost lookup table.

During a grid outage the microgrid islands and serves load from PV plus
installed storage, highest value-of-lost-load first. Expected outage cost
per decision period is estimated by replicated simulation with common random
numbers: every portfolio replays the same sampled outage spans, so the
replications' merged spans and the portfolios form one (span x portfolio)
grid that `dispatch_spans` dispatches in a single numpy pass, hour by hour.
The estimates are cached per storage portfolio in a CostTable so the planner
never simulates inside its training loop. Lookups are exact: a portfolio
missing from the table is a hard error, never an extrapolation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from outageplan import persist
from outageplan.errors import ArtifactMismatchError, ConfigError
from outageplan.outage import HOURS_PER_YEAR, OutageEvent, OutageModel, outage_model_to_config, sample_trace

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
        if self.power_limit <= 0:
            raise ValueError(f"{self.name}: power_limit must be > 0")

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
        if np.any(self.demand < 0) or np.any(self.pv < 0):
            raise ValueError("profiles must be non-negative")


@dataclass(frozen=True)
class Microgrid:
    """Facility classes with their resolved profiles."""

    facilities: tuple[FacilityClass, ...]
    profiles: HourlyProfiles

    def __post_init__(self):
        if len(self.facilities) != self.profiles.demand.shape[0]:
            raise ValueError("one demand row per facility class required")

    def voll(self) -> np.ndarray:
        return np.array([f.value_of_lost_load for f in self.facilities])

    def dispatch_order(self) -> np.ndarray:
        # descending VoLL, declaration order breaking ties
        order = sorted(
            range(len(self.facilities)),
            key=lambda i: (-self.facilities[i].value_of_lost_load, i),
        )
        return np.array(order, dtype=np.int64)


@dataclass(frozen=True)
class Portfolio:
    """Installed kWh per storage unit, in catalog order."""

    units: tuple[str, ...]
    kwh: tuple[float, ...]

    def __post_init__(self):
        if len(self.units) != len(self.kwh):
            raise ValueError("units and kwh must have equal length")
        if any(x < 0 for x in self.kwh):
            raise ValueError("installed kWh must be >= 0")

    @classmethod
    def from_mapping(cls, units: Sequence[str], installed: Mapping[str, float]) -> "Portfolio":
        unknown = set(installed) - set(units)
        if unknown:
            raise ConfigError(f"unknown storage units in portfolio: {sorted(unknown)}")
        return cls(units=tuple(units), kwh=tuple(float(installed.get(u, 0.0)) for u in units))

    def as_mapping(self) -> dict[str, float]:
        return dict(zip(self.units, self.kwh))

    def vector(self) -> np.ndarray:
        return np.array(self.kwh, dtype=np.float64)

    @property
    def total_kwh(self) -> float:
        return float(sum(self.kwh))


@dataclass(frozen=True)
class UnservedReport:
    """Outcome of dispatching one outage."""

    unserved_kwh: tuple[tuple[str, float], ...]
    outage_hours: int
    cost: float

    def unserved_for(self, class_name: str) -> float:
        for name, kwh in self.unserved_kwh:
            if name == class_name:
                return kwh
        raise KeyError(class_name)

    @property
    def total_unserved_kwh(self) -> float:
        return float(sum(kwh for _, kwh in self.unserved_kwh))


@dataclass(frozen=True)
class CostEstimate:
    mean: float
    stderr: float
    replications: int


def _dispatch_arrays(
    portfolio: Portfolio, specs: Sequence[StorageUnitSpec]
) -> tuple[np.ndarray, np.ndarray]:
    by_name = {s.name: s for s in specs}
    missing = [u for u in portfolio.units if u not in by_name]
    if missing:
        raise ConfigError(f"portfolio references unknown storage units: {missing}")
    deliverable = np.array(
        [by_name[u].deliverable_kwh(k) for u, k in zip(portfolio.units, portfolio.kwh)]
    )
    power_cap = np.array(
        [by_name[u].power_cap_kw(k) for u, k in zip(portfolio.units, portfolio.kwh)]
    )
    return deliverable, power_cap


def dispatch_spans(
    start_hours: np.ndarray,
    n_hours: np.ndarray,
    portfolios: Sequence[Portfolio],
    specs: Sequence[StorageUnitSpec],
    grid: Microgrid,
) -> tuple[np.ndarray, np.ndarray]:
    """Islanded dispatch of every (span, portfolio) pair, storage full at the
    onset of each span.

    Span s covers n_hours[s] whole hours from hour-of-year start_hours[s],
    wrapping across the year boundary. Each hour PV serves first, storage
    covers the residual unit by unit up to its power and remaining-energy
    limits, and the pool goes to classes in descending value-of-lost-load
    order. Returns (cost, unserved): cost[s, p] in $ and unserved[c, s, p]
    in kWh for facility class c.
    """
    start_hours = np.asarray(start_hours, dtype=np.int64)
    n_hours = np.asarray(n_hours, dtype=np.int64)
    arrays = [_dispatch_arrays(p, specs) for p in portfolios]
    deliverable0 = np.array([d for d, _ in arrays]).T
    power_cap = np.array([c for _, c in arrays]).T
    demand = grid.profiles.demand
    pv = grid.profiles.pv
    n_classes = demand.shape[0]
    # Every span starts full, so spans are independent. Sorted longest first,
    # the spans still running at hour h are a prefix of the sorted order.
    order = np.argsort(-n_hours, kind="stable")
    starts = start_hours[order]
    lengths = n_hours[order]
    deliverable = np.repeat(deliverable0[:, None, :], len(order), axis=1)
    cost = np.zeros((len(order), len(portfolios)))
    unserved = np.zeros((n_classes,) + cost.shape)
    voll = grid.voll()
    class_order = grid.dispatch_order()
    for h in range(int(lengths.max(initial=0))):
        n = int(np.count_nonzero(lengths > h))
        hh = (starts[:n] + h) % HOURS_PER_YEAR
        total_load = 0.0
        for ci in range(n_classes):
            total_load = total_load + demand[ci, hh]
        pool = np.repeat(pv[hh][:, None], len(portfolios), axis=1)
        deficit = np.repeat((total_load - pv[hh])[:, None], len(portfolios), axis=1)
        for u in range(len(deliverable)):
            draw = np.minimum(power_cap[u], deliverable[u, :n])
            np.minimum(draw, deficit, out=draw)
            # a unit draws nothing once the deficit is covered (or never was)
            draw[deficit <= 0.0] = 0.0
            deliverable[u, :n] -= draw
            pool += draw
            deficit -= draw
        for ci in class_order:
            load = demand[ci, hh][:, None]
            served = np.minimum(load, pool)
            pool -= served
            short = np.subtract(load, served, out=served)
            unserved[ci, :n] += short
            short *= voll[ci]
            cost[:n] += short
    # Back to span order one (span, portfolio) plane at a time, so the
    # reordering copies one plane, not the whole working set.
    rank = np.argsort(order)
    cost[:] = cost[rank]
    for plane in unserved:
        plane[:] = plane[rank]
    return cost, unserved


def simulate_outage(
    event: OutageEvent,
    portfolio: Portfolio,
    specs: Sequence[StorageUnitSpec],
    grid: Microgrid,
    start_hour: int,
) -> UnservedReport:
    """Dispatch one outage hour by hour, storage full at onset.

    The outage occupies ceil(duration) whole hours starting at the given
    hour-of-year, wrapping across the year boundary.
    """
    if not 0 <= start_hour < HOURS_PER_YEAR:
        raise ValueError(f"start_hour must be in [0, {HOURS_PER_YEAR}), got {start_hour}")
    n_hours = int(math.ceil(event.duration))
    cost, unserved = dispatch_spans([start_hour], [n_hours], [portfolio], specs, grid)
    pairs = tuple((f.name, float(u)) for f, u in zip(grid.facilities, unserved[:, 0, 0]))
    return UnservedReport(unserved_kwh=pairs, outage_hours=n_hours, cost=float(cost[0, 0]))


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


def _replication_seeds(rng: np.random.Generator, replications: int) -> np.ndarray:
    if replications <= 0:
        raise ValueError(f"replications must be > 0, got {replications}")
    return rng.integers(0, 2**63, size=replications, dtype=np.int64)


def _outage_spans(
    model: OutageModel, period_length_years: float, seeds: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merged outage spans for every replication, placed on the calendar.

    Per replication the stream draws one calendar-offset uniform, then the
    trace. Returns (start_hours, n_hours, offsets) where offsets[r]:offsets[r+1]
    slices replication r's spans.
    """
    starts: list[int] = []
    lengths: list[int] = []
    offsets = [0]
    for seed in seeds:
        gen = np.random.Generator(np.random.PCG64(int(seed)))
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


def _mean_stderr(costs: np.ndarray) -> tuple[float, float]:
    """Sample mean of per-replication costs and its standard error (0 for
    a single replication)."""
    mean = float(np.mean(costs))
    n = len(costs)
    stderr = float(np.std(costs, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return mean, stderr


def _crn_estimates(
    model: OutageModel,
    portfolios: Sequence[Portfolio],
    specs: Sequence[StorageUnitSpec],
    grid: Microgrid,
    period_length_years: float,
    seeds: np.ndarray,
) -> list[tuple[float, float]]:
    """(mean, stderr) of the period cost of every portfolio, all portfolios
    dispatched against the same replications' outage spans."""
    starts, lengths, offsets = _outage_spans(model, period_length_years, seeds)
    span_cost, _ = dispatch_spans(starts, lengths, portfolios, specs, grid)
    # Each replication's total adds its spans' costs in span order from 0.0.
    counts = np.diff(offsets)
    totals = np.zeros((len(counts), len(portfolios)))
    for j in range(int(counts.max(initial=0))):
        reps = np.flatnonzero(counts > j)
        totals[reps] += span_cost[offsets[reps] + j]
    return [_mean_stderr(row) for row in np.ascontiguousarray(totals.T)]


def expected_period_cost(
    model: OutageModel,
    portfolio: Portfolio,
    specs: Sequence[StorageUnitSpec],
    grid: Microgrid,
    period_length_years: float,
    replications: int,
    rng: np.random.Generator,
) -> CostEstimate:
    """Mean outage cost over one decision period, with its standard error.

    Events are drawn per replication with a uniformly placed calendar offset;
    overlapping outages merge into one islanding episode before dispatch.
    """
    if period_length_years < 0:
        raise ValueError("period length must be >= 0")
    seeds = _replication_seeds(rng, replications)
    [(mean, stderr)] = _crn_estimates(model, [portfolio], specs, grid, period_length_years, seeds)
    return CostEstimate(mean=mean, stderr=stderr, replications=replications)


def reachable_portfolios(
    units: Sequence[str], levels_kwh: Sequence[float], max_installs: int
) -> list[Portfolio]:
    """Every distinct portfolio obtainable with at most max_installs catalog
    picks (one pick = one level on one unit), sorted by capacity vector."""
    if max_installs < 0:
        raise ValueError("max_installs must be >= 0")
    options = [(u, float(lv)) for u in range(len(units)) for lv in levels_kwh]
    seen: set[tuple[float, ...]] = set()
    for k in range(max_installs + 1):
        for combo in itertools.combinations_with_replacement(range(len(options)), k):
            kwh = [0.0] * len(units)
            for j in combo:
                u, lv = options[j]
                kwh[u] += lv
            seen.add(tuple(kwh))
    return [
        Portfolio(units=tuple(units), kwh=key) for key in sorted(seen)
    ]


class CostTable:
    """Exact-lookup metamodel: portfolio capacity vector -> (cost, stderr)."""

    def __init__(self, units: Sequence[str], entries: dict[tuple[float, ...], tuple[float, float]], meta: dict):
        self.units = tuple(units)
        self.entries = dict(entries)
        self.meta = dict(meta)

    def __len__(self) -> int:
        return len(self.entries)

    def _key(self, portfolio: Portfolio) -> tuple[float, ...]:
        if portfolio.units != self.units:
            raise ConfigError(
                f"portfolio units {portfolio.units} do not match table units {self.units}"
            )
        return tuple(portfolio.kwh)

    def lookup(self, portfolio: Portfolio) -> float:
        key = self._key(portfolio)
        if key not in self.entries:
            raise KeyError(f"portfolio {key} not present in cost table; rebuild the metamodel")
        return self.entries[key][0]

    def estimate(self, portfolio: Portfolio) -> CostEstimate:
        key = self._key(portfolio)
        if key not in self.entries:
            raise KeyError(f"portfolio {key} not present in cost table; rebuild the metamodel")
        cost, stderr = self.entries[key]
        return CostEstimate(mean=cost, stderr=stderr, replications=int(self.meta.get("replications", 0)))

    def save(self, path) -> None:
        header = persist.canonical_json(self.meta)
        lines = [METAMODEL_MAGIC + header]
        lines.append(",".join([f"cap_{u}" for u in self.units] + ["cost", "stderr"]))
        for key in sorted(self.entries):
            cost, stderr = self.entries[key]
            cells = [persist.format_float(x) for x in key]
            cells.append(persist.format_float(cost))
            cells.append(persist.format_float(stderr))
            lines.append(",".join(cells))
        with open(path, "w", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")

    @classmethod
    def load(cls, path, expect_config_hash: str | None = None) -> "CostTable":
        with open(path) as fh:
            first = fh.readline().rstrip("\n")
            if not first.startswith(METAMODEL_MAGIC):
                raise ArtifactMismatchError(f"{path}: not a cost table file")
            import json

            meta = json.loads(first[len(METAMODEL_MAGIC):])
            columns = fh.readline().rstrip("\n").split(",")
            if columns[-2:] != ["cost", "stderr"] or not all(c.startswith("cap_") for c in columns[:-2]):
                raise ArtifactMismatchError(f"{path}: unexpected cost table columns {columns}")
            units = tuple(c[len("cap_"):] for c in columns[:-2])
            entries: dict[tuple[float, ...], tuple[float, float]] = {}
            for lineno, line in enumerate(fh, start=3):
                line = line.strip()
                if not line:
                    continue
                cells = line.split(",")
                if len(cells) != len(columns):
                    raise ArtifactMismatchError(
                        f"{path}:{lineno}: row has {len(cells)} cells, expected {len(columns)}"
                    )
                key = tuple(float(x) for x in cells[: len(units)])
                cost, stderr = float(cells[-2]), float(cells[-1])
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
        return cls(units=units, entries=entries, meta=meta)


def build_metamodel(
    model: OutageModel,
    capacity_grid: Sequence[Portfolio],
    specs: Sequence[StorageUnitSpec],
    grid: Microgrid,
    period_length_years: float,
    replications: int,
    seed: int,
    config_hash: str | None = None,
) -> CostTable:
    """Estimate expected period cost for every portfolio on the grid.

    All portfolios share one set of replication event draws (events do not
    depend on capacity), so estimates are common-random-number comparable and
    deterministic for a fixed seed.
    """
    if not capacity_grid:
        raise ValueError("capacity grid is empty")
    units = capacity_grid[0].units
    for p in capacity_grid:
        if p.units != units:
            raise ConfigError("all portfolios in a grid must share the same unit order")
    rng = np.random.Generator(np.random.PCG64(seed))
    seeds = _replication_seeds(rng, replications)
    estimates = _crn_estimates(model, capacity_grid, specs, grid, period_length_years, seeds)
    entries = {tuple(p.kwh): est for p, est in zip(capacity_grid, estimates)}
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
    return CostTable(units=units, entries=entries, meta=meta)

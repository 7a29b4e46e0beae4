"""Policy rollout along forced price paths, and cross-model comparison.

A trained table is rolled out deterministically along a fixed price
trajectory (greedy actions, no exploration); two traces built on the same
planning structure but different outage models are then diffed: total
capacity, first investment period, technology mix.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Optional, Sequence

from outageplan import persist
from outageplan.errors import ArtifactMismatchError, ConfigError
from outageplan.mdp import PlanningEnv
from outageplan.outage import SingleModel, SuperposedModel, duration_support, outage_model_to_config
from outageplan.solver import QTable, first_max

TRACE_FORMAT = "outageplan-trace"

# JSON kinds of a trace document's fields, by the types json.load gives; their
# names are those of the PolicyTrace fields other than rows and of TraceRow
_NUMBER, _NONE = (int, float), type(None)
_TRACE_FIELDS = {"config_hash": (str,), "planning_hash": (str,), "outage_model": (dict,), "trajectory": (dict,),
                 "totals": (dict,), "exact_expected_return": _NUMBER + (_NONE,)}
_TOTALS_FIELDS = {"total_kwh": _NUMBER, "first_investment_period": (int, _NONE), "mix_kwh": (dict,)}
_ROW_FIELDS = {"period": (int,), "state": (list,), "action": (str,), "action_unit": (str, _NONE),
               "action_level_kwh": _NUMBER + (_NONE,)}


@dataclass(frozen=True)
class PriceTrajectory:
    """One forced price path per unit over the K decision periods."""

    units: tuple[str, ...]
    values: tuple[tuple[float, ...], ...]

    @property
    def periods(self) -> int:
        return len(self.values[0])

    @classmethod
    def from_csv(cls, path) -> "PriceTrajectory":
        units = []
        rows = []
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if not header or header[0] != "unit" or len(header) < 2:
                raise ConfigError(f"{path}: expected header 'unit,p1,...,pK'")
            expected = [f"p{i}" for i in range(1, len(header))]
            if header[1:] != expected:
                raise ConfigError(f"{path}: period columns must be {expected}")
            for row in reader:
                if not row:
                    continue
                if len(row) != len(header):
                    raise ConfigError(f"{path}: price row {row!r} has {len(row) - 1} prices, "
                                      f"the header has {len(header) - 1} periods")
                units.append(row[0])
                try:
                    rows.append(tuple(float(x) for x in row[1:]))
                except ValueError as exc:
                    raise ConfigError(f"{path}: bad price row {row!r}") from exc
        if not units:
            raise ConfigError(f"{path}: no trajectory rows")
        return cls(units=tuple(units), values=tuple(rows))

    def indices_for(self, env: PlanningEnv) -> list[tuple[int, ...]]:
        """Ladder indices per period, validated against the catalog.

        Every price must sit on its unit's ladder, start at the top, never
        move back up, and never advance further than the chain can have
        walked (index <= period), otherwise the forced state is unreachable.
        """
        if self.units != env.unit_names:
            raise ConfigError(
                f"trajectory units {self.units} do not match catalog {env.unit_names}"
            )
        if self.periods != env.horizon:
            raise ConfigError(
                f"trajectory covers {self.periods} periods, planning horizon is {env.horizon}"
            )
        per_period: list[tuple[int, ...]] = []
        idx_prev = [0] * len(self.units)
        for t in range(self.periods):
            idx_t = []
            for u, entry in enumerate(env.catalog):
                price = self.values[u][t]
                ladder = entry.chain.values
                try:
                    idx = ladder.index(price)
                except ValueError:
                    raise ConfigError(
                        f"{entry.name}: price {price} in period {t + 1} is not on the ladder {ladder}"
                    ) from None
                if t == 0 and idx != 0:
                    raise ConfigError(
                        f"{entry.name}: trajectory must start at the top of the ladder ({ladder[0]})"
                    )
                if idx < idx_prev[u]:
                    raise ConfigError(f"{entry.name}: prices may not move back up the ladder")
                if idx > t:
                    raise ConfigError(
                        f"{entry.name}: price {price} unreachable by period {t + 1} "
                        "(the chain advances at most one rung per period)"
                    )
                idx_t.append(idx)
            idx_prev = idx_t
            per_period.append(tuple(idx_t))
        return per_period


@dataclass(frozen=True)
class TraceRow:
    period: int
    state: tuple
    action: str
    action_unit: Optional[str]
    action_level_kwh: Optional[float]


@dataclass(frozen=True)
class PolicyTrace:
    """Greedy decisions along one trajectory, plus summary totals."""

    rows: tuple[TraceRow, ...]
    config_hash: str
    planning_hash: str
    outage_model: dict
    trajectory: dict
    totals: dict
    exact_expected_return: Optional[float] = None
    # the file `load` read it from; not part of the document
    path: Optional[str] = field(default=None, compare=False, repr=False)

    def to_doc(self) -> dict:
        return {
            "format": TRACE_FORMAT,
            "version": 1,
            **{name: getattr(self, name) for name in _TRACE_FIELDS},
            "rows": [{**{name: getattr(r, name) for name in _ROW_FIELDS}, "state": list(r.state)} for r in self.rows],
        }

    def save(self, path) -> None:
        persist.write_json(path, self.to_doc())

    @classmethod
    def load(cls, path) -> "PolicyTrace":
        """Read a trace written by `save`; ArtifactMismatchError names the
        first field whose JSON kind is wrong."""
        doc = persist.read_json(path)
        if not isinstance(doc, dict) or doc.get("format") != TRACE_FORMAT:
            raise ArtifactMismatchError(f"{path}: not a policy trace file")
        persist.check_fields(doc, {**_TRACE_FIELDS, "rows": (list,)}, str(path))
        totals = persist.check_fields(doc["totals"], _TOTALS_FIELDS, f"{path}: totals")
        mix = totals["mix_kwh"]
        persist.check_fields(mix, dict.fromkeys(mix, _NUMBER), f"{path}: totals.mix_kwh")
        rows = []
        for i, r in enumerate(doc["rows"]):
            persist.check_fields(r, _ROW_FIELDS, f"{path}: rows[{i}]")
            rows.append(TraceRow(**{**{name: r.get(name) for name in _ROW_FIELDS}, "state": tuple(r["state"])}))
        return cls(rows=tuple(rows), **{name: doc.get(name) for name in _TRACE_FIELDS}, path=str(path))


def rollout(
    qtable: QTable,
    env: PlanningEnv,
    trajectory: PriceTrajectory,
    config_hash: str,
    planning_hash: str,
    exact_expected_return: float | None = None,
) -> PolicyTrace:
    """Greedy rollout with prices forced to the trajectory. Deterministic.

    Walks the codec from capacity multiset 0; a state the table does not
    hold raises KeyError, and one whose greedy action value is not finite
    ValueError, as `greedy_policy` does. Each row's state is (period, price
    per unit in $, installed kWh per unit), whole numbers as ints.

    A state's row is the codec's (`row_base`) when the table holds the
    state's code there, as a table trained on this codec does; only a
    table laid out otherwise is searched, because a search of a loaded
    table's mapped, unaligned codes copies all of them.
    """
    codec = env.codec
    cap = 0
    rows = []
    first_invest: Optional[int] = None
    for t, price_idx in enumerate(trajectory.indices_for(env)):
        combo = codec.price_combo(price_idx)
        code = (t * codec.p_full + combo) * codec.c_full + cap
        row = int(codec.row_base[t, combo]) + cap
        if not (0 <= row < len(qtable.state_codes) and qtable.state_codes[row] == code):
            row = qtable.index_of(code)
        # first maximum wins: do-nothing, then unit-major, level-minor
        a = int(first_max(qtable.values[row : row + 1], row)[0])
        prices = [e.chain.values[i] for e, i in zip(env.catalog, price_idx)]
        cells = [t] + prices + env.installed_kwh[cap].tolist()
        if a:
            row_unit, row_level = env.unit_names[codec.option_unit[a - 1]], env.levels_kwh[codec.option_level[a - 1]]
            if first_invest is None:
                first_invest = t + 1
        else:
            row_unit, row_level = None, None
        rows.append(
            TraceRow(
                period=t + 1,
                state=tuple(int(x) if float(x).is_integer() else float(x) for x in cells),
                action=env.action_labels[a],
                action_unit=row_unit,
                action_level_kwh=row_level,
            )
        )
        cap = int(codec.cap_next[cap, a])
    mix = env.capacity_of(cap)
    totals = {
        "total_kwh": float(sum(mix.values())),
        "first_investment_period": first_invest,
        "mix_kwh": mix,
    }
    model = env.outage_model
    return PolicyTrace(
        rows=tuple(rows),
        config_hash=config_hash,
        planning_hash=planning_hash,
        outage_model=outage_model_to_config(model) if model is not None else {},
        trajectory={u: list(v) for u, v in zip(trajectory.units, trajectory.values)},
        totals=totals,
        exact_expected_return=exact_expected_return,
    )


# keys of a comparison document beside its two labels' traces
_REPORT_KEYS = ("format", "version", "labels", "deltas")


@dataclass(frozen=True)
class ComparisonReport:
    """Side-by-side policy summary for two outage models."""

    label_a: str
    label_b: str
    trace_a: dict
    trace_b: dict
    deltas: dict

    def to_doc(self) -> dict:
        return {
            "format": "outageplan-comparison",
            "version": 1,
            "labels": [self.label_a, self.label_b],
            self.label_a: self.trace_a,
            self.label_b: self.trace_b,
            "deltas": self.deltas,
        }

    def save(self, path) -> None:
        persist.write_json(path, self.to_doc())

    def format_text(self) -> str:
        lines = []
        width = max(len(self.label_a), len(self.label_b))
        for label, side in ((self.label_a, self.trace_a), (self.label_b, self.trace_b)):
            mix = ", ".join(f"{k}={v:g}" for k, v in sorted(side["totals"]["mix_kwh"].items()) if v)
            lines.append(
                f"{label:<{width}}  total={side['totals']['total_kwh']:g} kWh"
                f"  first-investment-period={side['totals']['first_investment_period']}"
                f"  mix=[{mix or 'none'}]"
            )
            for row in side["rows"]:
                state = ",".join(str(x) for x in row["state"])
                lines.append(f"  period {row['period']}: ({state}) -> {row['action']}")
        d = self.deltas
        lines.append(
            f"delta total kWh ({self.label_a} - {self.label_b}): {d['total_kwh']:g}"
        )
        lines.append(f"delta first investment period: {d['first_investment_period']}")
        mix_delta = ", ".join(f"{k}={v:g}" for k, v in sorted(d["mix_kwh"].items()) if v)
        lines.append(f"delta mix kWh: [{mix_delta or 'none'}]")
        return "\n".join(lines)


def compare(trace_a: PolicyTrace, trace_b: PolicyTrace, label_a: str = "model-a", label_b: str = "model-b") -> ComparisonReport:
    """Diff two traces that share planning structure and trajectory."""
    if label_a == label_b:
        raise ValueError("comparison labels must differ")
    for label in (label_a, label_b):
        if label in _REPORT_KEYS:
            raise ValueError(f"comparison label {label!r} is a key of the comparison document; choose another")
    if trace_a.planning_hash != trace_b.planning_hash:
        raise ArtifactMismatchError(
            "traces were built on different planning structures "
            f"({trace_a.planning_hash} vs {trace_b.planning_hash})"
        )
    if trace_a.trajectory != trace_b.trajectory:
        raise ArtifactMismatchError("traces follow different price trajectories")
    ta, tb = trace_a.totals, trace_b.totals
    only = sorted(set(ta["mix_kwh"]) ^ set(tb["mix_kwh"]))
    if only:
        unit, has, lacks = only[0], trace_a.path or label_a, trace_b.path or label_b
        if unit not in ta["mix_kwh"]:
            has, lacks = lacks, has
        raise ArtifactMismatchError(
            f"trace {lacks} has no unit {unit!r} in totals.mix_kwh, which trace {has} lists"
        )
    fa, fb = ta["first_investment_period"], tb["first_investment_period"]
    if fa is None or fb is None:
        first_delta = None
    else:
        first_delta = fa - fb
    deltas = {
        "total_kwh": float(ta["total_kwh"] - tb["total_kwh"]),
        "first_investment_period": first_delta,
        "mix_kwh": {
            k: float(ta["mix_kwh"][k] - tb["mix_kwh"][k]) for k in ta["mix_kwh"]
        },
    }
    ra = trace_a.exact_expected_return
    rb = trace_b.exact_expected_return
    if ra is not None and rb is not None:
        deltas["exact_expected_return"] = float(ra - rb)
    doc_a = trace_a.to_doc()
    doc_b = trace_b.to_doc()
    return ComparisonReport(
        label_a=label_a,
        label_b=label_b,
        trace_a={k: doc_a[k] for k in ("totals", "rows", "outage_model", "exact_expected_return")},
        trace_b={k: doc_b[k] for k in ("totals", "rows", "outage_model", "exact_expected_return")},
        deltas=deltas,
    )


def emit_duration_plot_data(
    models: tuple[SingleModel, SuperposedModel], max_hours: float
) -> list[tuple[float, float, float]]:
    """Rows (duration_hours, pmf_single, pmf_superposed) over the shared support."""
    single, superposed = models
    if not isinstance(single, SingleModel) or not isinstance(superposed, SuperposedModel):
        raise ConfigError("expected (single, superposed) model pair")
    if single.shift != superposed.shift:
        raise ConfigError("models must share the duration shift to share a support")
    if max_hours < single.shift:
        raise ConfigError(f"max_hours {max_hours} is below the minimum duration {single.shift}")
    hours, pmf_single = duration_support(single, max_hours)
    _, pmf_superposed = duration_support(superposed, max_hours)
    return list(zip(hours.tolist(), pmf_single.tolist(), pmf_superposed.tolist()))


def write_plot_csv(rows: Sequence[tuple[float, float, float]], path) -> None:
    with persist.atomic_write(path, newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["duration_hours", "pmf_single", "pmf_superposed"])
        for duration, pmf_s, pmf_m in rows:
            writer.writerow(
                [persist.format_float(duration), persist.format_float(pmf_s), persist.format_float(pmf_m)]
            )

"""Probabilistic grid outage models.

Two event models: a single homogeneous Poisson process, and a superposition
of two independent Poisson processes (``regular`` and ``severe`` events)
whose merge is itself Poisson with the summed rate and whose event type is
severe with probability severe_rate / total_rate. Outage durations follow a
shifted Poisson law: a fixed minimum duration (the shift, in hours) plus a
Poisson number of extra hours, with a separate extra-hours rate per event
class.

`sample_trace` draws every event of a window from an explicitly passed
uniform source, any object whose `random()` returns a float on [0, 1): the
package passes its own PCG64 stream (`outageplan.pcg64`), and a numpy
Generator seeded alike draws the same numbers. It consumes a fixed
uniform budget per decision (one per count, three per event), so runs that
share a seed stay aligned under common random numbers when a rate
parameter moves. A single model consumes the same stream layout as a
superposed model with severe_rate=0, and produces identical traces.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from enum import Enum
from typing import Union

import numpy as np

from outageplan.errors import ConfigError, FitError

HOURS_PER_YEAR = 8760

__all__ = [
    "HOURS_PER_YEAR",
    "OutageKind",
    "SingleModel",
    "SuperposedModel",
    "OutageModel",
    "OUTAGE_MODEL_TYPES",
    "outage_model_to_config",
    "OutageEvent",
    "CaidiSeries",
    "poisson_quantile",
    "poisson_pmf",
    "sample_outage_count",
    "sample_trace",
    "duration_pmf",
    "duration_support",
    "mean_matched_single",
    "fit_from_caidi",
]


class OutageKind(str, Enum):
    REGULAR = "regular"
    SEVERE = "severe"


def _require_finite(**values: float) -> None:
    for name, v in values.items():
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v}")


@dataclass(frozen=True)
class SingleModel:
    """One Poisson event stream with one duration law.

    rate is in outages per year; duration_rate is the mean number of extra
    hours beyond the minimum duration ``shift``.
    """

    rate: float
    duration_rate: float
    shift: float = 1.0

    def __post_init__(self):
        _require_finite(**vars(self))
        if self.rate < 0:
            raise ValueError(f"rate must be >= 0, got {self.rate}")
        if self.duration_rate < 0:
            raise ValueError(f"duration_rate must be >= 0, got {self.duration_rate}")
        if self.shift <= 0:
            raise ValueError(f"shift must be > 0, got {self.shift}")

    @property
    def total_rate(self) -> float:
        return self.rate

    @property
    def severe_fraction(self) -> float:
        return 0.0

    @property
    def mean_duration(self) -> float:
        return self.shift + self.duration_rate

    def rate_pair(self) -> tuple[float, float]:
        return (self.rate, 0.0)

    def duration_rate_for(self, kind: OutageKind) -> float:
        if kind is not OutageKind.REGULAR:
            raise ValueError("a single model has no severe event class")
        return self.duration_rate


@dataclass(frozen=True)
class SuperposedModel:
    """Superposition of independent regular and severe Poisson event streams."""

    regular_rate: float
    severe_rate: float
    regular_duration_rate: float
    severe_duration_rate: float
    shift: float = 1.0

    def __post_init__(self):
        _require_finite(**vars(self))
        if self.regular_rate < 0 or self.severe_rate < 0:
            raise ValueError("event rates must be >= 0")
        if self.regular_duration_rate < 0 or self.severe_duration_rate < 0:
            raise ValueError("duration rates must be >= 0")
        if self.severe_duration_rate < self.regular_duration_rate:
            raise ValueError("severe events must not be shorter on average than regular ones")
        if self.shift <= 0:
            raise ValueError(f"shift must be > 0, got {self.shift}")

    @property
    def total_rate(self) -> float:
        return self.regular_rate + self.severe_rate

    @property
    def severe_fraction(self) -> float:
        total = self.total_rate
        if total == 0:
            return 0.0
        return self.severe_rate / total

    @property
    def mean_duration(self) -> float:
        if self.total_rate == 0:
            raise ValueError("mean duration undefined when both rates are 0")
        return self.shift + mean_matched_single(self).duration_rate

    def rate_pair(self) -> tuple[float, float]:
        return (self.regular_rate, self.severe_rate)

    def duration_rate_for(self, kind: OutageKind) -> float:
        if kind is OutageKind.SEVERE:
            return self.severe_duration_rate
        return self.regular_duration_rate


OutageModel = Union[SingleModel, SuperposedModel]


# config block type -> (model class, {config key: model field}), keys in config order
OUTAGE_MODEL_TYPES = {
    "single": (SingleModel, {"lambda": "rate", "kappa": "duration_rate", "shift_hours": "shift"}),
    "superposed": (SuperposedModel, {"lambda1": "regular_rate", "lambda2": "severe_rate",
                                     "kappa1": "regular_duration_rate", "kappa2": "severe_duration_rate",
                                     "shift_hours": "shift"}),
}


def outage_model_to_config(model: OutageModel) -> dict:
    """The ``outage_model`` config block that describes a model."""
    kind, fields = next((k, f) for k, (cls, f) in OUTAGE_MODEL_TYPES.items() if isinstance(model, cls))
    return {"type": kind, **{key: getattr(model, name) for key, name in fields.items()}}


@dataclass(frozen=True)
class OutageEvent:
    """One outage: start (hours from period start), class, duration (hours)."""

    start: float
    kind: OutageKind
    duration: float

    def __post_init__(self):
        if self.start < 0:
            raise ValueError(f"start must be >= 0, got {self.start}")
        if self.duration < 0:
            raise ValueError(f"duration must be >= 0, got {self.duration}")

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass(frozen=True)
class CaidiSeries:
    """Annual CAIDI observations (mean outage duration per year, hours)."""

    years: tuple[tuple[str, float], ...]

    def __post_init__(self):
        if not self.years:
            raise ValueError("CAIDI series must contain at least one year")
        for label, caidi in self.years:
            if not (caidi > 0 and math.isfinite(caidi)):
                raise ValueError(f"CAIDI for {label} must be > 0 and finite, got {caidi}")

    @classmethod
    def from_csv(cls, path) -> "CaidiSeries":
        rows = []
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or sorted(reader.fieldnames) != ["caidi_hours", "year"]:
                raise ConfigError(f"{path}: expected CSV header 'year,caidi_hours'")
            for row in reader:
                # DictReader keys extra cells by None and fills missing ones with None
                if None in row or None in row.values():
                    raise ConfigError(f"{path}:{reader.line_num}: a CAIDI row needs exactly 2 cells")
                try:
                    rows.append((row["year"].strip(), float(row["caidi_hours"])))
                except ValueError as exc:
                    raise ConfigError(f"{path}: bad CAIDI row {row!r}") from exc
        if not rows:
            raise FitError(f"{path}: CAIDI file has no data rows")
        try:
            return cls(years=tuple(rows))
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from None


def poisson_quantile(u: float, mean: float) -> int:
    """Smallest k with CDF(k) >= u for a Poisson(mean), by direct CDF scan.

    One uniform in, one count out; monotone in both u and mean, which is what
    keeps common-random-number cost comparisons ordered when a rate grows.
    """
    if not 0.0 <= u < 1.0:
        raise ValueError(f"u must be in [0, 1), got {u}")
    if mean < 0:
        raise ValueError(f"mean must be >= 0, got {mean}")
    if mean == 0.0:
        return 0
    if mean > 700.0:
        # exp(-mean) underflows; far outside any sane outage configuration
        raise ValueError(f"mean {mean} too large for direct CDF scan")
    pmf = math.exp(-mean)
    cdf = pmf
    k = 0
    while u > cdf:
        k += 1
        pmf *= mean / k
        cdf += pmf
        if k > mean and pmf < 1e-18:
            break
    return k


def poisson_pmf(k: int, mean: float) -> float:
    if k < 0:
        return 0.0
    if mean < 0:
        raise ValueError(f"mean must be >= 0, got {mean}")
    if mean == 0.0:
        return 1.0 if k == 0 else 0.0
    return math.exp(k * math.log(mean) - mean - math.lgamma(k + 1))


def sample_outage_count(model: OutageModel, horizon_years: float, rng) -> int:
    """Number of outages in a window, built as the merge of the component streams."""
    if horizon_years < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon_years}")
    regular_rate, severe_rate = model.rate_pair()
    n_regular = poisson_quantile(rng.random(), regular_rate * horizon_years)
    n_severe = poisson_quantile(rng.random(), severe_rate * horizon_years)
    return n_regular + n_severe


def sample_trace(model: OutageModel, horizon_years: float, rng) -> list[OutageEvent]:
    """All outages in a window, sorted by start time.

    Draw order is fixed: two count uniforms, then (start, type, duration)
    uniforms per event. A single model ignores its type draws, so it consumes
    the stream exactly like a superposed model with severe_rate=0.
    """
    count = sample_outage_count(model, horizon_years, rng)
    horizon_hours = horizon_years * HOURS_PER_YEAR
    severe_fraction = model.severe_fraction
    events = []
    for _ in range(count):
        u_start = rng.random()
        u_type = rng.random()
        u_duration = rng.random()
        kind = OutageKind.SEVERE if u_type < severe_fraction else OutageKind.REGULAR
        duration = model.shift + float(poisson_quantile(u_duration, model.duration_rate_for(kind)))
        events.append(OutageEvent(start=u_start * horizon_hours, kind=kind, duration=duration))
    events.sort(key=lambda e: e.start)
    return events


def duration_pmf(model: OutageModel, t_hours: float) -> float:
    """Exact probability of an outage lasting t_hours.

    The support is {shift, shift+1, shift+2, ...}; off-support values get 0.
    For a superposed model the pmf is the rate-weighted mixture of the two
    class laws.
    """
    offset = t_hours - model.shift
    if offset < -1e-9:
        return 0.0
    k = round(offset)
    if abs(offset - k) > 1e-9 or k < 0:
        return 0.0
    if isinstance(model, SingleModel):
        return poisson_pmf(k, model.duration_rate)
    total = model.total_rate
    if total == 0:
        raise ValueError("duration law undefined when both rates are 0")
    w_regular = model.regular_rate / total
    w_severe = model.severe_rate / total
    return w_regular * poisson_pmf(k, model.regular_duration_rate) + w_severe * poisson_pmf(
        k, model.severe_duration_rate
    )


def duration_support(model: OutageModel, max_hours: float) -> tuple[np.ndarray, np.ndarray]:
    """Durations shift, shift+1, ... up to max_hours, with their exact pmf."""
    _require_finite(max_hours=max_hours)
    if max_hours < model.shift:
        raise ValueError(f"max_hours {max_hours} is below the minimum duration {model.shift}")
    n = int(math.floor(max_hours - model.shift + 1e-9)) + 1
    durations = model.shift + np.arange(n, dtype=np.float64)
    pmf = np.array([duration_pmf(model, float(t)) for t in durations])
    return durations, pmf


def mean_matched_single(model: SuperposedModel) -> SingleModel:
    """Single model with the same total rate and the same mean duration."""
    total = model.total_rate
    if total == 0:
        raise ValueError("cannot mean-match a model with zero total rate")
    mix = (
        model.regular_rate * model.regular_duration_rate
        + model.severe_rate * model.severe_duration_rate
    ) / total
    return SingleModel(rate=total, duration_rate=mix, shift=model.shift)


def fit_from_caidi(
    series: CaidiSeries,
    severe_threshold_hours: float,
    base_frequency: float,
    shift: float = 1.0,
) -> SuperposedModel:
    """Method-of-moments fit of the superposed model from annual CAIDI data.

    Years with CAIDI above the threshold are severe; each class's extra-hours
    rate is its mean CAIDI minus the shift, and the total outage frequency
    splits between classes by year counts. A class whose mean CAIDI is below
    the shift cannot be reproduced and raises FitError.
    """
    _require_finite(severe_threshold_hours=severe_threshold_hours, base_frequency=base_frequency, shift=shift)
    if severe_threshold_hours <= 0:
        raise ValueError(f"severe threshold must be > 0, got {severe_threshold_hours}")
    if base_frequency <= 0:
        raise ValueError(f"base frequency must be > 0, got {base_frequency}")
    severe = [caidi for _, caidi in series.years if caidi > severe_threshold_hours]
    regular = [caidi for _, caidi in series.years if caidi <= severe_threshold_hours]
    if not severe:
        raise FitError(
            f"degenerate split: no severe years above {severe_threshold_hours} h"
        )
    if not regular:
        raise FitError(
            f"degenerate split: no regular years at or below {severe_threshold_hours} h"
        )
    regular_mean = sum(regular) / len(regular)
    severe_mean = sum(severe) / len(severe)
    # every severe year exceeds every regular one, so this covers both classes
    if regular_mean < shift:
        raise FitError(f"regular mean CAIDI {regular_mean!r} h is below the minimum duration (shift) {shift!r} h")
    severe_rate = base_frequency * len(severe) / len(series.years)
    regular_rate = base_frequency - severe_rate
    return SuperposedModel(
        regular_rate=regular_rate,
        severe_rate=severe_rate,
        regular_duration_rate=regular_mean - shift,
        severe_duration_rate=severe_mean - shift,
        shift=shift,
    )


def severe_years(series: CaidiSeries, severe_threshold_hours: float) -> tuple[str, ...]:
    """Labels of the years classified severe at the given threshold."""
    return tuple(label for label, caidi in series.years if caidi > severe_threshold_hours)

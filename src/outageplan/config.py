"""Configuration documents: parsing, validation, hashing, bundled examples.

A config is one YAML document. Two hashes identify it: ``config_hash``
covers everything semantic (including digests of the referenced profile
files, excluding only the metamodel_path artifact pointer), and
``planning_hash`` drops the outage model and training sections so that two
configs which differ only in the outage model can be recognized as the
same planning problem.

Documents load with libyaml's safe loader when PyYAML was built with it,
and unknown keys are rejected at every level, so a misspelt section fails
instead of silently falling back to defaults.
"""

from __future__ import annotations

import math
from dataclasses import replace
from importlib import resources
from pathlib import Path
from typing import Any

import numpy as np
import yaml

from outageplan import persist
from outageplan.errors import ConfigError
from outageplan.mdp import PlanningEnv, PriceChain, UnitCatalogEntry
from outageplan.outage import HOURS_PER_YEAR, OutageModel, SingleModel, SuperposedModel, outage_model_to_config
from outageplan.simulate import FacilityClass, HourlyProfiles, Microgrid, StorageUnitSpec
from outageplan.solver import TrainingSchedule

BUNDLED_CONFIGS = ("tiny", "tiny-superposed", "casestudy-single", "casestudy-superposed")

TOP_LEVEL_KEYS = (
    "horizon",
    "period_length_years",
    "levels_kwh",
    "units",
    "outage_model",
    "facilities",
    "pv",
    "profiles_dir",
    "training",
    "metamodel",
)
UNIT_KEYS = (
    "name",
    "price_ladder",
    "advance_prob",
    "round_trip_efficiency",
    "usable_fraction",
    "power_limit_kw_per_kwh",
)
FACILITY_KEYS = ("name", "count", "peak_load_kw", "value_of_lost_load", "profile")
PV_KEYS = ("profile", "peak_kw")
TRAINING_KEYS = ("episodes", "alpha", "epsilon", "gamma")
METAMODEL_KEYS = ("replications", "path")
OUTAGE_MODEL_KEYS = {
    "single": ("type", "lambda", "kappa", "shift_hours"),
    "superposed": ("type", "lambda1", "lambda2", "kappa1", "kappa2", "shift_hours"),
}

# libyaml's loader builds the same document as the pure-Python one, about
# seven times faster.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

_PROFILE_ROW = np.dtype([("hour", np.int64), ("value_kw", np.float64)])


def _data_root():
    return resources.files("outageplan") / "data"


def bundled_config_path(name: str) -> Path:
    path = _data_root() / "configs" / f"{name}.yaml"
    if not path.is_file():
        raise ConfigError(f"unknown bundled config {name!r}; choose from {BUNDLED_CONFIGS}")
    return Path(str(path))


def _reject_unknown_keys(block: Any, allowed: tuple[str, ...], where: str) -> None:
    """ConfigError naming every key of a mapping outside `allowed`; other
    shapes are left to the section's own checks."""
    if not isinstance(block, dict):
        return
    unknown = sorted((k for k in block if k not in allowed), key=str)
    if unknown:
        raise ConfigError(
            f"{where}: unknown key {', '.join(repr(k) for k in unknown)}; "
            f"allowed keys: {', '.join(allowed)}"
        )


def _number(value: Any, where: str, kind: type):
    """`kind(value)` for a finite YAML number, or ConfigError naming `where`."""
    try:
        x = kind(value)
    except (TypeError, ValueError, OverflowError):
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"{where} must be {what}, got {value!r}") from None
    if not math.isfinite(x):
        raise ConfigError(f"{where} must be finite, got {value!r}")
    return x


def _numbers(value: Any, where: str) -> tuple[float, ...]:
    if not isinstance(value, list):
        raise ConfigError(f"{where} must be a list of numbers, got {value!r}")
    return tuple(_number(x, where, float) for x in value)


def outage_model_from_config(block: dict) -> OutageModel:
    """Build a model from the ``outage_model`` config section."""
    if not isinstance(block, dict) or "type" not in block:
        raise ConfigError("outage_model section needs a 'type' key")
    kind = block["type"]
    if kind not in ("single", "superposed"):
        raise ConfigError(f"outage_model type must be 'single' or 'superposed', got {kind!r}")
    _reject_unknown_keys(block, OUTAGE_MODEL_KEYS[kind], f"outage_model ({kind})")
    shift = _number(block.get("shift_hours", 1.0), "outage_model shift_hours", float)

    def param(key: str) -> float:
        return _number(block[key], f"outage_model {key}", float)

    try:
        if kind == "single":
            return SingleModel(rate=param("lambda"), duration_rate=param("kappa"), shift=shift)
        return SuperposedModel(
            regular_rate=param("lambda1"),
            severe_rate=param("lambda2"),
            regular_duration_rate=param("kappa1"),
            severe_duration_rate=param("kappa2"),
            shift=shift,
        )
    except KeyError as exc:
        raise ConfigError(f"outage_model is missing key {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"outage_model is invalid: {exc}") from None


def read_profile_csv(path) -> np.ndarray:
    """One year of hourly values from a CSV with header hour,value_kw.

    Empty lines are skipped. The first offending line decides the error,
    checked in the order: more than a year of rows, a line that is not
    `hour,value`, an hour out of sequence, a negative value.
    """
    with open(path) as fh:
        header = fh.readline()
        lines = [line for line in fh.read().split("\n") if line]
    if header.rstrip("\n") != "hour,value_kw":
        raise ConfigError(f"{path}: expected CSV header 'hour,value_kw'")
    rows, bad = persist.parse_csv_rows(lines[:HOURS_PER_YEAR], _PROFILE_ROW)
    hours, values = rows["hour"], rows["value_kw"]
    out_of_order = np.flatnonzero(hours != np.arange(len(rows)))
    negative = np.flatnonzero(values < 0)
    first_out_of_order = out_of_order[0] if out_of_order.size else len(rows)
    first_negative = negative[0] if negative.size else len(rows)
    if first_out_of_order < len(rows) and first_out_of_order <= first_negative:
        raise ConfigError(f"{path}: hours must run 0..{HOURS_PER_YEAR - 1} in order")
    if first_negative < len(rows):
        raise ConfigError(f"{path}: negative value at hour {hours[first_negative]}")
    if bad is not None:
        raise ConfigError(f"{path}: bad row {lines[bad].split(',')!r}")
    if len(lines) > HOURS_PER_YEAR:
        raise ConfigError(f"{path}: more than {HOURS_PER_YEAR} rows")
    if len(rows) != HOURS_PER_YEAR:
        raise ConfigError(f"{path}: expected {HOURS_PER_YEAR} rows, found {len(rows)}")
    return np.ascontiguousarray(values)


class AppConfig:
    """A fully validated configuration plus its identity hashes."""

    def __init__(self, doc: dict, base_dir: Path, source: str):
        if not isinstance(doc, dict):
            raise ConfigError(f"{source}: config document must be a mapping")
        _reject_unknown_keys(doc, TOP_LEVEL_KEYS, source)
        self.source = source
        self._base_dir = base_dir
        try:
            self.horizon = _number(doc["horizon"], f"{source}: horizon", int)
            self.period_length_years = _number(
                doc.get("period_length_years", 1.0), f"{source}: period_length_years", float)
            self.levels_kwh = _numbers(doc["levels_kwh"], f"{source}: levels_kwh")
            units_block = doc["units"]
            outage_block = doc["outage_model"]
            facilities_block = doc["facilities"]
            pv_block = doc["pv"]
        except KeyError as exc:
            raise ConfigError(f"{source}: missing config section {exc}") from None
        if self.horizon < 1:
            raise ConfigError(f"{source}: horizon must be >= 1")
        if self.period_length_years <= 0:
            raise ConfigError(f"{source}: period_length_years must be > 0")
        for name, block in (("units", units_block), ("facilities", facilities_block)):
            if not isinstance(block, list):
                raise ConfigError(f"{source}: {name} must be a list, got {block!r}")

        self.units: tuple[UnitCatalogEntry, ...] = tuple(
            self._parse_unit(u, source) for u in units_block
        )
        self.outage_model = outage_model_from_config(outage_block)
        self.facilities: tuple[FacilityClass, ...] = tuple(
            self._parse_facility(f, source) for f in facilities_block
        )
        _reject_unknown_keys(pv_block, PV_KEYS, f"{source}: pv section")
        if not isinstance(pv_block, dict) or "profile" not in pv_block or "peak_kw" not in pv_block:
            raise ConfigError(f"{source}: pv section needs 'profile' and 'peak_kw'")
        self.pv_profile = str(pv_block["profile"])
        self.pv_peak_kw = _number(pv_block["peak_kw"], f"{source}: pv peak_kw", float)
        if self.pv_peak_kw < 0:
            raise ConfigError(f"{source}: pv peak_kw must be >= 0")

        profiles_dir = doc.get("profiles_dir")
        if profiles_dir is None:
            self.profiles_dir = Path(str(_data_root() / "profiles"))
        else:
            self.profiles_dir = (base_dir / str(profiles_dir)).resolve()

        training = doc.get("training", {})
        if not isinstance(training, dict):
            raise ConfigError(f"{source}: training section must be a mapping, got {training!r}")
        _reject_unknown_keys(training, TRAINING_KEYS, f"{source}: training section")
        alpha = _numbers(training.get("alpha", [0.5, 0.01]), f"{source}: training alpha")
        epsilon = _numbers(training.get("epsilon", [1.0, 0.05]), f"{source}: training epsilon")
        if len(alpha) != 2 or len(epsilon) != 2:
            raise ConfigError(f"{source}: training alpha and epsilon must be [start, end] pairs")
        try:
            self.training = TrainingSchedule(
                episodes=_number(training.get("episodes", 1_000_000), f"{source}: training episodes", int),
                alpha_start=alpha[0],
                alpha_end=alpha[1],
                epsilon_start=epsilon[0],
                epsilon_end=epsilon[1],
                gamma=_number(training.get("gamma", 1.0), f"{source}: training gamma", float),
            )
        except ValueError as exc:
            raise ConfigError(f"{source}: training section is invalid: {exc}") from None
        metamodel = doc.get("metamodel", {})
        if not isinstance(metamodel, dict):
            raise ConfigError(f"{source}: metamodel section must be a mapping, got {metamodel!r}")
        _reject_unknown_keys(metamodel, METAMODEL_KEYS, f"{source}: metamodel section")
        self.metamodel_replications = _number(
            metamodel.get("replications", 256), f"{source}: metamodel replications", int)
        raw_path = metamodel.get("path")
        self.metamodel_path = None if raw_path is None else (base_dir / str(raw_path)).resolve()

        self._profile_cache: dict[str, np.ndarray] = {}
        self._semantic = self._semantic_doc()
        self.config_hash = persist.sha256_of_text(persist.canonical_json(self._semantic))
        planning = {
            k: v for k, v in self._semantic.items() if k not in ("outage_model", "training", "metamodel")
        }
        self.planning_hash = persist.sha256_of_text(persist.canonical_json(planning))

    @staticmethod
    def _parse_unit(block: Any, source: str) -> UnitCatalogEntry:
        _reject_unknown_keys(block, UNIT_KEYS, f"{source}: unit block")
        where = f"{source}: bad unit block:"
        try:
            name = str(block["name"])
            ladder = _numbers(block["price_ladder"], f"{where} price_ladder")
            advance_prob = _number(block["advance_prob"], f"{where} advance_prob", float)
            chain = PriceChain(values=ladder, advance_prob=advance_prob)
            storage = StorageUnitSpec(
                name=name,
                round_trip_efficiency=_number(
                    block["round_trip_efficiency"], f"{where} round_trip_efficiency", float),
                usable_fraction=_number(block["usable_fraction"], f"{where} usable_fraction", float),
                power_limit=_number(block["power_limit_kw_per_kwh"], f"{where} power_limit_kw_per_kwh", float),
            )
        except KeyError as exc:
            raise ConfigError(f"{source}: unit block missing key {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{source}: bad unit block: {exc}") from None
        return UnitCatalogEntry(storage=storage, chain=chain)

    @staticmethod
    def _parse_facility(block: Any, source: str) -> FacilityClass:
        _reject_unknown_keys(block, FACILITY_KEYS, f"{source}: facility block")
        try:
            where = f"{source}: bad facility block:"
            return FacilityClass(
                name=str(block["name"]),
                count=_number(block["count"], f"{where} count", int),
                peak_load_kw=_number(block["peak_load_kw"], f"{where} peak_load_kw", float),
                value_of_lost_load=_number(block["value_of_lost_load"], f"{where} value_of_lost_load", float),
                profile=str(block["profile"]),
            )
        except KeyError as exc:
            raise ConfigError(f"{source}: facility block missing key {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{source}: bad facility block: {exc}") from None

    def _profile(self, name: str) -> np.ndarray:
        if name not in self._profile_cache:
            path = self.profiles_dir / f"{name}.csv"
            if not path.is_file():
                raise ConfigError(f"profile {name!r} not found at {path}")
            self._profile_cache[name] = read_profile_csv(path)
        return self._profile_cache[name]

    def _profile_digests(self) -> dict[str, str]:
        names = sorted({f.profile for f in self.facilities} | {self.pv_profile})
        digests = {}
        for name in names:
            path = self.profiles_dir / f"{name}.csv"
            if not path.is_file():
                raise ConfigError(f"profile {name!r} not found at {path}")
            digests[name] = persist.sha256_of_file(path)
        return digests

    def _semantic_doc(self) -> dict:
        return {
            "horizon": self.horizon,
            "period_length_years": self.period_length_years,
            "levels_kwh": list(self.levels_kwh),
            "units": [
                {
                    "name": e.name,
                    "price_ladder": list(e.chain.values),
                    "advance_prob": e.chain.advance_prob,
                    "round_trip_efficiency": e.storage.round_trip_efficiency,
                    "usable_fraction": e.storage.usable_fraction,
                    "power_limit_kw_per_kwh": e.storage.power_limit,
                }
                for e in self.units
            ],
            "outage_model": outage_model_to_config(self.outage_model),
            "facilities": [
                {
                    "name": f.name,
                    "count": f.count,
                    "peak_load_kw": f.peak_load_kw,
                    "value_of_lost_load": f.value_of_lost_load,
                    "profile": f.profile,
                }
                for f in self.facilities
            ],
            "pv": {"profile": self.pv_profile, "peak_kw": self.pv_peak_kw},
            "profiles": self._profile_digests(),
            "training": {
                "episodes": self.training.episodes,
                "alpha": [self.training.alpha_start, self.training.alpha_end],
                "epsilon": [self.training.epsilon_start, self.training.epsilon_end],
                "gamma": self.training.gamma,
            },
            "metamodel": {"replications": self.metamodel_replications},
        }

    # -- derived objects -------------------------------------------------

    def storage_specs(self) -> tuple[StorageUnitSpec, ...]:
        return tuple(e.storage for e in self.units)

    def microgrid(self) -> Microgrid:
        rows = []
        for f in self.facilities:
            shape = self._profile(f.profile)
            peak = shape.max()
            if peak <= 0:
                raise ConfigError(f"profile {f.profile!r} is identically zero")
            rows.append(shape * (f.count * f.peak_load_kw / peak))
        pv_shape = self._profile(self.pv_profile)
        pv_peak = pv_shape.max()
        if pv_peak <= 0 and self.pv_peak_kw > 0:
            raise ConfigError(f"pv profile {self.pv_profile!r} is identically zero")
        pv = pv_shape * (self.pv_peak_kw / pv_peak) if pv_peak > 0 else np.zeros(HOURS_PER_YEAR)
        profiles = HourlyProfiles(demand=np.array(rows), pv=pv)
        return Microgrid(facilities=self.facilities, profiles=profiles)

    def env(self) -> PlanningEnv:
        return PlanningEnv(
            horizon=self.horizon,
            catalog=self.units,
            levels_kwh=self.levels_kwh,
            outage_model=self.outage_model,
        )

    def schedule(self, seed: int, episodes: int | None = None) -> TrainingSchedule:
        """The config's training schedule with `seed`, and `episodes` in place
        of the configured budget when given."""
        return replace(self.training, seed=seed, episodes=self.training.episodes if episodes is None else episodes)


def load_config(path_or_name: str) -> AppConfig:
    """Load a config from a YAML path, or a bundled config by name."""
    path = Path(path_or_name)
    if not path.is_file() and "/" not in str(path_or_name) and not str(path_or_name).endswith(".yaml"):
        path = bundled_config_path(str(path_or_name))
    if not path.is_file():
        raise ConfigError(f"config file not found: {path_or_name}")
    try:
        doc = yaml.load(path.read_text(), Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
    return AppConfig(doc=doc, base_dir=path.parent, source=str(path))

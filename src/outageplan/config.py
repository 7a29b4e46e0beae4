"""Configuration documents: parsing, validation, hashing, bundled examples.

A config is one YAML document. Two hashes identify it: ``config_hash``
covers every key of every section as parsed, except ``profiles_dir``, for
which the digests of the referenced profile files stand in, and the
``metamodel`` section's artifact ``path``. ``planning_hash`` drops the
outage model, training and metamodel sections so that two configs which
differ only in the outage model can be recognized as the same planning
problem. Each section's keys are declared once, in a table of the kind each
value is read as; the hashed document is built from what those tables read.
A profile is parsed only from bytes with the digest its config recorded,
once per process for each digest. A config file is parsed once per process
for each path and text, and built again once a profile it names no longer
holds the bytes its hash covers.

Documents load with libyaml's safe loader when PyYAML was built with it,
and unknown keys are rejected at every level, so a misspelt section fails
instead of silently falling back to defaults.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import io
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
from outageplan.outage import HOURS_PER_YEAR, OUTAGE_MODEL_TYPES, OutageModel, outage_model_to_config
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
METAMODEL_KEYS = ("replications", "path")
# Each section's keys, in the order `allowed keys:` lists them, and the kind
# each value is read as; `list` is a list of numbers.
_UNIT = {"name": str, "price_ladder": list, "advance_prob": float, "round_trip_efficiency": float,
         "usable_fraction": float, "power_limit_kw_per_kwh": float}
_FACILITY = {"name": str, "count": int, "peak_load_kw": float, "value_of_lost_load": float, "profile": str}
_PV = {"profile": str, "peak_kw": float}
_TRAINING = {"episodes": int, "alpha": list, "epsilon": list, "gamma": float}
_TRAINING_DEFAULTS = {"episodes": 1_000_000, "alpha": [0.5, 0.01], "epsilon": [1.0, 0.05], "gamma": 1.0}

# libyaml's loader builds the same document as the pure-Python one, about
# seven times faster.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

_PROFILE_ROW = np.dtype([("hour", np.int64), ("value_kw", np.float64)])

# The configs load_config built, by (path, resolved directory, YAML text),
# least recently used first; at most _CONFIGS_MAX of them.
_CONFIGS: dict[tuple[str, Path, str], AppConfig] = {}
_CONFIGS_MAX = 16


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


def _read_section(block: Any, kinds: dict[str, type], where: str, prefix: str) -> dict:
    """Each key of `kinds` read from the mapping `block` as its kind, after a
    ConfigError naming `where` for any other key. A bad value raises
    ConfigError naming `prefix` and the key; a missing key raises KeyError,
    and a block that is not a mapping TypeError, for the caller to word."""
    _reject_unknown_keys(block, tuple(kinds), where)
    values = {}
    for key, kind in kinds.items():
        value, at = block[key], f"{prefix} {key}"
        if kind is str:
            values[key] = str(value)
        elif kind is list:
            values[key] = _numbers(value, at)
        else:
            values[key] = _number(value, at, kind)
    return values


def _read_entries(blocks: list, kinds: dict[str, type], what: str, build, source: str) -> tuple[tuple, list[dict]]:
    """`build(values)` for the values read from each block of a list
    section, and those values."""
    objects, docs = [], []
    for block in blocks:
        try:
            docs.append(_read_section(block, kinds, f"{source}: {what} block", f"{source}: bad {what} block:"))
            objects.append(build(docs[-1]))
        except KeyError as exc:
            raise ConfigError(f"{source}: {what} block missing key {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{source}: bad {what} block: {exc}") from None
    return tuple(objects), docs


def _unit_entry(v: dict) -> UnitCatalogEntry:
    chain = PriceChain(values=v["price_ladder"], advance_prob=v["advance_prob"])
    storage = StorageUnitSpec(name=v["name"], round_trip_efficiency=v["round_trip_efficiency"],
                              usable_fraction=v["usable_fraction"], power_limit=v["power_limit_kw_per_kwh"])
    return UnitCatalogEntry(storage=storage, chain=chain)


def outage_model_from_config(block: dict) -> OutageModel:
    """Build a model from the ``outage_model`` config section."""
    if not isinstance(block, dict) or "type" not in block:
        raise ConfigError("outage_model section needs a 'type' key")
    kind = block["type"]
    if not isinstance(kind, str) or kind not in OUTAGE_MODEL_TYPES:
        choices = " or ".join(repr(k) for k in OUTAGE_MODEL_TYPES)
        raise ConfigError(f"outage_model type must be {choices}, got {kind!r}")
    model_class, fields = OUTAGE_MODEL_TYPES[kind]
    kinds = {"type": str, **dict.fromkeys(fields, float)}
    try:
        values = _read_section({"shift_hours": 1.0, **block}, kinds, f"outage_model ({kind})", "outage_model")
        return model_class(**{name: values[key] for key, name in fields.items()})
    except KeyError as exc:
        raise ConfigError(f"outage_model is missing key {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"outage_model is invalid: {exc}") from None


def read_profile_csv(path) -> np.ndarray:
    """One year of hourly values from a CSV with header hour,value_kw.

    Empty lines are skipped. The first offending line decides the error,
    checked in the order: more than a year of rows, a line that is not
    `hour,value`, an hour out of sequence, a non-finite or negative value.
    """
    with open(path) as fh:
        return _parse_profile(fh.read(), path)


@functools.lru_cache(maxsize=16)
def _shared_profile(digest: str, path: Path) -> np.ndarray:
    """`read_profile_csv` of the file at `path` while its bytes have sha256
    `digest`, parsed once per process and read-only; ConfigError once they
    no longer have it."""
    data = path.read_bytes()
    if hashlib.sha256(data).hexdigest() != digest:
        raise ConfigError(f"{path}: profile changed after the config was loaded")
    # decoded as open() in text mode decodes it
    values = _parse_profile(io.TextIOWrapper(io.BytesIO(data)).read(), path)
    values.setflags(write=False)
    return values


def _parse_profile(text: str, path) -> np.ndarray:
    header, _, body = text.partition("\n")
    lines = [line for line in body.split("\n") if line]
    if header != "hour,value_kw":
        raise ConfigError(f"{path}: expected CSV header 'hour,value_kw'")
    rows, bad = persist.parse_csv_rows(lines[:HOURS_PER_YEAR], _PROFILE_ROW)
    hours, values = rows["hour"], rows["value_kw"]
    out_of_order = np.flatnonzero(hours != np.arange(len(rows)))
    bad_value = np.flatnonzero(~np.isfinite(values) | (values < 0))
    first_out_of_order = out_of_order[0] if out_of_order.size else len(rows)
    first_bad_value = bad_value[0] if bad_value.size else len(rows)
    if first_out_of_order < len(rows) and first_out_of_order <= first_bad_value:
        raise ConfigError(f"{path}: hours must run 0..{HOURS_PER_YEAR - 1} in order")
    if first_bad_value < len(rows):
        what = "negative" if np.isfinite(values[first_bad_value]) else "non-finite"
        raise ConfigError(f"{path}: {what} value at hour {hours[first_bad_value]}")
    if bad is not None:
        raise ConfigError(f"{path}: bad row {lines[bad].split(',')!r}")
    if len(lines) > HOURS_PER_YEAR:
        raise ConfigError(f"{path}: more than {HOURS_PER_YEAR} rows")
    if len(rows) != HOURS_PER_YEAR:
        raise ConfigError(f"{path}: expected {HOURS_PER_YEAR} rows, found {len(rows)}")
    return np.ascontiguousarray(values)


class AppConfig:
    """A fully validated configuration plus its identity hashes and the
    profile bytes they cover."""

    def __init__(self, doc: dict, base_dir: Path, source: str):
        if not isinstance(doc, dict):
            raise ConfigError(f"{source}: config document must be a mapping")
        _reject_unknown_keys(doc, TOP_LEVEL_KEYS, source)
        self.source = source
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

        self.units, units = _read_entries(units_block, _UNIT, "unit", _unit_entry, source)
        self.outage_model = outage_model_from_config(outage_block)
        self.facilities, facilities = _read_entries(
            facilities_block, _FACILITY, "facility", lambda v: FacilityClass(**v), source)
        if not isinstance(pv_block, dict) or not pv_block.keys() >= _PV.keys():
            raise ConfigError(f"{source}: pv section needs 'profile' and 'peak_kw'")
        pv = _read_section(pv_block, _PV, f"{source}: pv section", f"{source}: pv")
        self.pv_profile, self.pv_peak_kw = pv["profile"], pv["peak_kw"]
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
        training = _read_section({**_TRAINING_DEFAULTS, **training}, _TRAINING,
                                 f"{source}: training section", f"{source}: training")
        if len(training["alpha"]) != 2 or len(training["epsilon"]) != 2:
            raise ConfigError(f"{source}: training alpha and epsilon must be [start, end] pairs")
        (alpha_start, alpha_end), (epsilon_start, epsilon_end) = training["alpha"], training["epsilon"]
        try:
            self.training = TrainingSchedule(
                episodes=training["episodes"],
                alpha_start=alpha_start,
                alpha_end=alpha_end,
                epsilon_start=epsilon_start,
                epsilon_end=epsilon_end,
                gamma=training["gamma"],
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

        names = sorted({f.profile for f in self.facilities} | {self.pv_profile})
        self._profile_bytes = {name: self._profile_path(name).read_bytes() for name in names}
        self._profile_digests = {name: hashlib.sha256(data).hexdigest() for name, data in self._profile_bytes.items()}
        semantic = {
            "horizon": self.horizon,
            "period_length_years": self.period_length_years,
            "levels_kwh": self.levels_kwh,
            "units": units,
            "outage_model": outage_model_to_config(self.outage_model),
            "facilities": facilities,
            "pv": pv,
            "profiles": self._profile_digests,
            "training": training,
            "metamodel": {"replications": self.metamodel_replications},
        }
        self.config_hash = persist.sha256_of_text(persist.canonical_json(semantic))
        planning = {k: v for k, v in semantic.items() if k not in ("outage_model", "training", "metamodel")}
        self.planning_hash = persist.sha256_of_text(persist.canonical_json(planning))

    def _profile_path(self, name: str) -> Path:
        path = self.profiles_dir / f"{name}.csv"
        if not path.is_file():
            raise ConfigError(f"profile {name!r} not found at {path}")
        return path

    def _profiles_unchanged(self) -> bool:
        """Whether every profile file still holds the bytes the hashes cover."""
        try:
            return all(self._profile_path(name).read_bytes() == data for name, data in self._profile_bytes.items())
        except (OSError, ConfigError):
            return False

    def _profile(self, name: str) -> np.ndarray:
        """The profile's values, parsed from the bytes that `config_hash` names."""
        return _shared_profile(self._profile_digests[name], self._profile_path(name))

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
    """Load a config from a YAML path, or a bundled config by name. Each call
    returns its own shallow copy of the config `_shared_config` holds."""
    path = Path(path_or_name)
    if not path.is_file() and "/" not in str(path_or_name) and not str(path_or_name).endswith(".yaml"):
        path = bundled_config_path(str(path_or_name))
    if not path.is_file():
        raise ConfigError(f"config file not found: {path_or_name}")
    return copy.copy(_shared_config(str(path), path.parent.resolve(), path.read_text()))


def _shared_config(source: str, base_dir: Path, text: str) -> AppConfig:
    """The config in the YAML `text` of the file `source` in `base_dir`,
    built once per process while its profiles keep their bytes. A build
    that fails is not kept, so it fails again on the next call."""
    key = (source, base_dir, text)
    cfg = _CONFIGS.pop(key, None)
    if cfg is None or not cfg._profiles_unchanged():
        try:
            doc = yaml.load(text, Loader=_YAML_LOADER)
        except yaml.YAMLError as exc:
            raise ConfigError(f"{source}: invalid YAML: {exc}") from exc
        cfg = AppConfig(doc=doc, base_dir=base_dir, source=source)
    _CONFIGS[key] = cfg
    if len(_CONFIGS) > _CONFIGS_MAX:
        del _CONFIGS[next(iter(_CONFIGS))]
    return cfg

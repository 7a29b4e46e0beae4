"""Configuration documents: parsing, validation, hashing, bundled examples.

A config is one YAML document. Two hashes identify it: ``config_hash``
covers everything semantic (including digests of the referenced profile
files, excluding only the metamodel_path artifact pointer), and
``planning_hash`` drops the outage model and training sections so that two
configs which differ only in the outage model can be recognized as the
same planning problem.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
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


def _data_root():
    return resources.files("outageplan") / "data"


def bundled_config_path(name: str) -> Path:
    path = _data_root() / "configs" / f"{name}.yaml"
    if not path.is_file():
        raise ConfigError(f"unknown bundled config {name!r}; choose from {BUNDLED_CONFIGS}")
    return Path(str(path))


def outage_model_from_config(block: dict) -> OutageModel:
    """Build a model from the ``outage_model`` config section."""
    if not isinstance(block, dict) or "type" not in block:
        raise ConfigError("outage_model section needs a 'type' key")
    kind = block["type"]
    shift = float(block.get("shift_hours", 1.0))
    try:
        if kind == "single":
            return SingleModel(
                rate=float(block["lambda"]),
                duration_rate=float(block["kappa"]),
                shift=shift,
            )
        if kind == "superposed":
            return SuperposedModel(
                regular_rate=float(block["lambda1"]),
                severe_rate=float(block["lambda2"]),
                regular_duration_rate=float(block["kappa1"]),
                severe_duration_rate=float(block["kappa2"]),
                shift=shift,
            )
    except KeyError as exc:
        raise ConfigError(f"outage_model is missing key {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"outage_model is invalid: {exc}") from None
    raise ConfigError(f"outage_model type must be 'single' or 'superposed', got {kind!r}")


def read_profile_csv(path) -> np.ndarray:
    """One year of hourly values from a CSV with header hour,value_kw."""
    values = np.empty(HOURS_PER_YEAR)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["hour", "value_kw"]:
            raise ConfigError(f"{path}: expected CSV header 'hour,value_kw'")
        count = 0
        for row in reader:
            if not row:
                continue
            if count >= HOURS_PER_YEAR:
                raise ConfigError(f"{path}: more than {HOURS_PER_YEAR} rows")
            try:
                hour = int(row[0])
                value = float(row[1])
            except (IndexError, ValueError) as exc:
                raise ConfigError(f"{path}: bad row {row!r}") from exc
            if hour != count:
                raise ConfigError(f"{path}: hours must run 0..{HOURS_PER_YEAR - 1} in order")
            if value < 0:
                raise ConfigError(f"{path}: negative value at hour {hour}")
            values[count] = value
            count += 1
    if count != HOURS_PER_YEAR:
        raise ConfigError(f"{path}: expected {HOURS_PER_YEAR} rows, found {count}")
    return values


@dataclass(frozen=True)
class TrainingDefaults:
    episodes: int
    alpha_start: float
    alpha_end: float
    epsilon_start: float
    epsilon_end: float
    gamma: float


class AppConfig:
    """A fully validated configuration plus its identity hashes."""

    def __init__(self, doc: dict, base_dir: Path, source: str):
        if not isinstance(doc, dict):
            raise ConfigError(f"{source}: config document must be a mapping")
        self.source = source
        self._base_dir = base_dir
        try:
            self.horizon = int(doc["horizon"])
            self.period_length_years = float(doc.get("period_length_years", 1.0))
            self.levels_kwh = tuple(float(x) for x in doc["levels_kwh"])
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

        self.units: tuple[UnitCatalogEntry, ...] = tuple(
            self._parse_unit(u, source) for u in units_block
        )
        self.outage_model = outage_model_from_config(outage_block)
        self.facilities: tuple[FacilityClass, ...] = tuple(
            self._parse_facility(f, source) for f in facilities_block
        )
        if not isinstance(pv_block, dict) or "profile" not in pv_block or "peak_kw" not in pv_block:
            raise ConfigError(f"{source}: pv section needs 'profile' and 'peak_kw'")
        self.pv_profile = str(pv_block["profile"])
        self.pv_peak_kw = float(pv_block["peak_kw"])
        if self.pv_peak_kw < 0:
            raise ConfigError(f"{source}: pv peak_kw must be >= 0")

        profiles_dir = doc.get("profiles_dir")
        if profiles_dir is None:
            self.profiles_dir = Path(str(_data_root() / "profiles"))
        else:
            self.profiles_dir = (base_dir / profiles_dir).resolve()

        training = doc.get("training", {})
        alpha = training.get("alpha", [0.5, 0.01])
        epsilon = training.get("epsilon", [1.0, 0.05])
        self.training = TrainingDefaults(
            episodes=int(training.get("episodes", 1_000_000)),
            alpha_start=float(alpha[0]),
            alpha_end=float(alpha[1]),
            epsilon_start=float(epsilon[0]),
            epsilon_end=float(epsilon[1]),
            gamma=float(training.get("gamma", 1.0)),
        )
        metamodel = doc.get("metamodel", {})
        self.metamodel_replications = int(metamodel.get("replications", 256))
        raw_path = metamodel.get("path")
        self.metamodel_path = None if raw_path is None else (base_dir / raw_path).resolve()

        self._profile_cache: dict[str, np.ndarray] = {}
        self._semantic = self._semantic_doc()
        self.config_hash = persist.sha256_of_text(persist.canonical_json(self._semantic))
        planning = {
            k: v for k, v in self._semantic.items() if k not in ("outage_model", "training", "metamodel")
        }
        self.planning_hash = persist.sha256_of_text(persist.canonical_json(planning))

    @staticmethod
    def _parse_unit(block: Any, source: str) -> UnitCatalogEntry:
        try:
            name = str(block["name"])
            ladder = tuple(float(x) for x in block["price_ladder"])
            chain = PriceChain(values=ladder, advance_prob=float(block["advance_prob"]))
            storage = StorageUnitSpec(
                name=name,
                round_trip_efficiency=float(block["round_trip_efficiency"]),
                usable_fraction=float(block["usable_fraction"]),
                power_limit=float(block["power_limit_kw_per_kwh"]),
            )
        except KeyError as exc:
            raise ConfigError(f"{source}: unit block missing key {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{source}: bad unit block: {exc}") from None
        return UnitCatalogEntry(storage=storage, chain=chain)

    @staticmethod
    def _parse_facility(block: Any, source: str) -> FacilityClass:
        try:
            return FacilityClass(
                name=str(block["name"]),
                count=int(block["count"]),
                peak_load_kw=float(block["peak_load_kw"]),
                value_of_lost_load=float(block["value_of_lost_load"]),
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

    def unit_names(self) -> tuple[str, ...]:
        return tuple(e.name for e in self.units)

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
        return TrainingSchedule(
            episodes=self.training.episodes if episodes is None else episodes,
            alpha_start=self.training.alpha_start,
            alpha_end=self.training.alpha_end,
            epsilon_start=self.training.epsilon_start,
            epsilon_end=self.training.epsilon_end,
            gamma=self.training.gamma,
            seed=seed,
        )


def load_config(path_or_name: str) -> AppConfig:
    """Load a config from a YAML path, or a bundled config by name."""
    path = Path(path_or_name)
    if not path.is_file() and "/" not in str(path_or_name) and not str(path_or_name).endswith(".yaml"):
        path = bundled_config_path(str(path_or_name))
    if not path.is_file():
        raise ConfigError(f"config file not found: {path_or_name}")
    try:
        doc = yaml.safe_load(path.read_text())
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
    return AppConfig(doc=doc, base_dir=path.parent, source=str(path))

"""Command line pipeline: fit, metamodel, train, evaluate, compare, plotdata.

Every command exits 0 only after its outputs are written and validated;
failures print one machine-parsable line ``outageplan-error: <message>`` to
stderr and exit nonzero. Each run appends to a manifest in the output
directory recording config hash, seed and artifact paths.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import yaml

import outageplan
from outageplan import _kernels, evaluate as ev, persist, solver
from outageplan.config import AppConfig, load_config
from outageplan.errors import ArtifactMismatchError, ConfigError, OutagePlanError
from outageplan.outage import CaidiSeries, SuperposedModel, fit_from_caidi, mean_matched_single, outage_model_to_config, severe_years
from outageplan.simulate import CostTable, build_metamodel
from outageplan.solver import QTable, TrainResult, policy_value, train, value_iteration, write_convergence_csv

OUT_DIR_ENV = "OUTAGEPLAN_OUT_DIR"
DEFAULT_OUT_DIR = "outageplan-out"
MANIFEST_NAME = "manifest.json"


_MANIFEST_FIELDS = {"tool_version": (str, type(None)), "entries": (list, type(None))}
_ENTRY_FIELDS = {"kind": (str,), "path": (str,), "config_hash": (str, type(None)), "seed": (int, type(None)),
                 "created_utc": (str, type(None))}


@dataclass
class ManifestEntry:
    kind: str
    path: str
    config_hash: str | None
    seed: int | None
    created_utc: str | None


@dataclass
class RunManifest:
    """Record of what a pipeline run produced, one entry per artifact."""

    tool_version: str = outageplan.__version__
    entries: list[ManifestEntry] = field(default_factory=list)

    def record(self, kind: str, path: Path, config_hash: str | None, seed: int | None) -> None:
        created = datetime.now(timezone.utc).isoformat(timespec="seconds")
        self.entries = [e for e in self.entries if not (e.kind == kind and e.path == str(path))]
        self.entries.append(
            ManifestEntry(kind=kind, path=str(path), config_hash=config_hash, seed=seed, created_utc=created)
        )

    def validate(self) -> None:
        for entry in self.entries:
            if not Path(entry.path).exists():
                raise OutagePlanError(f"manifest lists missing artifact: {entry.path}")

    def save(self, path: Path) -> None:
        entries = [asdict(e) for e in self.entries]
        doc = {"format": "outageplan-manifest", "tool_version": self.tool_version, "entries": entries}
        with persist.atomic_write(path, newline="\n") as fh:
            json.dump(doc, fh, sort_keys=True, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path: Path) -> "RunManifest":
        """Read a manifest written by `save`; ArtifactMismatchError names the
        first field whose JSON kind is wrong."""
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except (UnicodeDecodeError, json.JSONDecodeError):
            doc = None
        if not isinstance(doc, dict) or doc.get("format") != "outageplan-manifest":
            raise OutagePlanError(f"{path}: not a run manifest")
        persist.check_fields(doc, _MANIFEST_FIELDS, str(path))
        manifest = cls(tool_version=doc.get("tool_version", "unknown"))
        for i, e in enumerate(doc.get("entries") or []):
            persist.check_fields(e, _ENTRY_FIELDS, f"{path}: entries[{i}]")
            manifest.entries.append(ManifestEntry(**{name: e.get(name) for name in _ENTRY_FIELDS}))
        return manifest


def _out_dir(args) -> Path:
    out = args.out or os.environ.get(OUT_DIR_ENV) or DEFAULT_OUT_DIR
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _update_manifest(out_dir: Path, kind: str, artifact: Path, config_hash: str | None, seed: int | None) -> None:
    manifest_path = out_dir / MANIFEST_NAME
    manifest = RunManifest.load(manifest_path) if manifest_path.exists() else RunManifest()
    manifest.tool_version = outageplan.__version__
    manifest.record(kind, artifact, config_hash, seed)
    manifest.validate()
    manifest.save(manifest_path)


def _print_seed(seed: int, explicit: bool) -> None:
    origin = "explicit" if explicit else "default"
    print(f"seed: {seed} ({origin})")


def cmd_fit(args) -> int:
    series = CaidiSeries.from_csv(args.caidi)
    model = fit_from_caidi(
        series,
        severe_threshold_hours=args.threshold_hours,
        base_frequency=args.base_frequency,
        shift=args.shift_hours,
    )
    labels = severe_years(series, args.threshold_hours)
    print(f"severe years (> {args.threshold_hours:g} h): {', '.join(labels)}")
    print(f"regular mean duration: {model.shift + model.regular_duration_rate!r} h")
    print(f"severe mean duration: {model.shift + model.severe_duration_rate!r} h")
    snippet = yaml.safe_dump(
        {"outage_model": outage_model_to_config(model)}, sort_keys=True, default_flow_style=False
    )
    print("config snippet:")
    print(snippet, end="")
    if args.out:
        out_dir = _out_dir(args)
        target = out_dir / "outage_model.yaml"
        with persist.atomic_write(target) as fh:
            fh.write(snippet)
        _update_manifest(out_dir, "outage-model", target, None, None)
        print(f"wrote {target}")
    return 0


def cmd_metamodel(args) -> int:
    cfg = load_config(args.config)
    _print_seed(args.seed, args.seed_explicit)
    replications = args.replications or cfg.metamodel_replications
    env = cfg.env()
    grid = env.reachable_portfolios()
    table = build_metamodel(
        model=cfg.outage_model,
        capacity_grid=grid,
        specs=cfg.storage_specs(),
        grid=cfg.microgrid(),
        period_length_years=cfg.period_length_years,
        replications=replications,
        seed=args.seed,
        config_hash=cfg.config_hash,
    )
    out_dir = _out_dir(args)
    target = out_dir / "metamodel.csv"
    table.save(target)
    CostTable.load(target, expect_config_hash=cfg.config_hash)
    _update_manifest(out_dir, "metamodel", target, cfg.config_hash, args.seed)
    print(f"portfolios: {len(table)}  replications: {replications}")
    print(f"wrote {target}")
    return 0


def _resolve_metamodel(cfg: AppConfig, flag_value: str | None, out_dir: Path) -> Path:
    if flag_value:
        return Path(flag_value)
    if cfg.metamodel_path is not None:
        return cfg.metamodel_path
    candidate = out_dir / "metamodel.csv"
    if candidate.exists():
        return candidate
    raise ConfigError(
        "no metamodel available: pass --metamodel, set metamodel.path in the config, "
        "or run 'outageplan metamodel' into the same output directory first"
    )


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    _print_seed(args.seed, args.seed_explicit)
    out_dir = _out_dir(args)
    table = CostTable.load(_resolve_metamodel(cfg, args.metamodel, out_dir), expect_config_hash=cfg.config_hash)
    env = cfg.env()
    env.attach_metamodel(table)
    schedule = cfg.schedule(seed=args.seed, episodes=args.episodes)
    print(f"episodes: {schedule.episodes}  backend: {_kernels.ACTIVE_BACKEND}")
    result: TrainResult = train(env, schedule, config_hash=cfg.config_hash)
    qtable_path = out_dir / "qtable.bin"
    result.qtable.save(qtable_path)
    QTable.load(qtable_path, expect_config_hash=cfg.config_hash)
    convergence_path = out_dir / "convergence.csv"
    write_convergence_csv(result.convergence, convergence_path)
    _update_manifest(out_dir, "qtable", qtable_path, cfg.config_hash, args.seed)
    _update_manifest(out_dir, "convergence", convergence_path, cfg.config_hash, args.seed)
    final = result.convergence[-1]
    print(f"final epoch: max |dQ| = {final.max_q_delta:.6g}, mean return = {final.mean_return:.6g}")
    print(f"coverage: {result.pairs_visited} of {result.qtable.visits.size} (state, action) pairs")
    print(f"wrote {qtable_path}")
    print(f"wrote {convergence_path}")
    return 0


def cmd_evaluate(args) -> int:
    cfg = load_config(args.config)
    out_dir = _out_dir(args)
    qtable = QTable.load(args.qtable, expect_config_hash=cfg.config_hash)
    trajectory = ev.PriceTrajectory.from_csv(args.trajectory)
    env = cfg.env()
    if not np.array_equal(qtable.state_codes, env.codec.state_codes):
        raise ArtifactMismatchError(f"{args.qtable}: Q-table rows do not match the states of the active config")
    if qtable.action_labels != tuple(env.action_label(a) for a in env.actions):
        raise ArtifactMismatchError(f"{args.qtable}: Q-table columns do not match the actions of the active config")
    have_metamodel = bool(args.metamodel or cfg.metamodel_path or (out_dir / "metamodel.csv").exists())
    exact_return = None
    if have_metamodel:
        table = CostTable.load(_resolve_metamodel(cfg, args.metamodel, out_dir), expect_config_hash=cfg.config_hash)
        env.attach_metamodel(table)
        exact_return = policy_value(env, qtable.greedy_policy(), gamma=cfg.training.gamma)
    trace = ev.rollout(
        qtable,
        env,
        trajectory,
        config_hash=cfg.config_hash,
        planning_hash=cfg.planning_hash,
        exact_expected_return=exact_return,
    )
    target = out_dir / (f"trace-{args.label}.json" if args.label else "trace.json")
    trace.save(target)
    ev.PolicyTrace.load(target)
    _update_manifest(out_dir, f"trace{'-' + args.label if args.label else ''}", target, cfg.config_hash, qtable.seed)
    for row in trace.rows:
        state = ",".join(str(x) for x in row.state)
        print(f"period {row.period}: ({state}) -> {row.action}")
    totals = trace.totals
    print(f"total installed: {totals['total_kwh']:g} kWh; first investment period: {totals['first_investment_period']}")
    if exact_return is not None:
        print(f"exact expected return of the greedy policy: {exact_return!r}")
    print(f"wrote {target}")
    return 0


def cmd_compare(args) -> int:
    trace_a = ev.PolicyTrace.load(args.trace_a)
    trace_b = ev.PolicyTrace.load(args.trace_b)
    report = ev.compare(trace_a, trace_b, label_a=args.label_a, label_b=args.label_b)
    out_dir = _out_dir(args)
    target = out_dir / "comparison.json"
    report.save(target)
    _update_manifest(out_dir, "comparison", target, None, None)
    print(report.format_text())
    print(f"wrote {target}")
    return 0


def cmd_plotdata(args) -> int:
    cfg = load_config(args.config)
    model = cfg.outage_model
    if isinstance(model, SuperposedModel):
        single = load_config(args.config_b).outage_model if args.config_b else mean_matched_single(model)
        pair = (single, model)
    else:
        if not args.config_b:
            raise ConfigError("config holds a single model; pass --config-b with a superposed model to compare")
        pair = (model, load_config(args.config_b).outage_model)
    rows = ev.emit_duration_plot_data(pair, max_hours=args.max_hours)
    out_dir = _out_dir(args)
    target = out_dir / "duration_pmf.csv"
    ev.write_plot_csv(rows, target)
    _update_manifest(out_dir, "duration-pmf", target, cfg.config_hash, None)
    print(f"rows: {len(rows)} (durations {rows[0][0]:g} .. {rows[-1][0]:g} h)")
    print(f"wrote {target}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="outageplan",
        description="Microgrid storage expansion planning under competing grid-outage models",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {outageplan.__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out(p):
        p.add_argument("--out", help=f"output directory (default ${OUT_DIR_ENV} or ./{DEFAULT_OUT_DIR})")

    p = sub.add_parser("fit", help="calibrate the superposed outage model from annual CAIDI data")
    p.add_argument("--caidi", required=True, help="CSV with header year,caidi_hours")
    p.add_argument("--threshold-hours", type=float, default=10.0, help="severe-year CAIDI threshold (default 10)")
    p.add_argument("--base-frequency", type=float, default=1.2, help="total outages per year (default 1.2)")
    p.add_argument("--shift-hours", type=float, default=1.0, help="minimum outage duration (default 1.0)")
    add_out(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("metamodel", help="simulate and store expected outage cost per portfolio")
    p.add_argument("--config", required=True, help="YAML path or bundled name (tiny, tiny-superposed, casestudy-single, casestudy-superposed)")
    p.add_argument("--seed", type=int, default=None, help="simulation seed (default 0)")
    p.add_argument("--replications", type=int, default=None, help="override config replication count")
    add_out(p)
    p.set_defaults(func=cmd_metamodel)

    p = sub.add_parser("train", help="train the Q-learning planner")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None, help="training seed (default 0)")
    p.add_argument("--episodes", type=int, default=None, help="override config episode budget")
    p.add_argument("--metamodel", default=None, help="cost table file (default: config or output dir)")
    add_out(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="roll the greedy policy along a price trajectory")
    p.add_argument("--config", required=True)
    p.add_argument("--qtable", required=True)
    p.add_argument("--trajectory", required=True, help="CSV with header unit,p1,...,pK")
    p.add_argument("--metamodel", default=None, help="cost table for exact policy value (optional)")
    p.add_argument("--label", default=None, help="suffix for the trace artifact name")
    add_out(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("compare", help="diff two policy traces")
    p.add_argument("--trace-a", required=True)
    p.add_argument("--trace-b", required=True)
    p.add_argument("--label-a", default="model-a")
    p.add_argument("--label-b", default="model-b")
    add_out(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("plotdata", help="exact duration pmf columns for plotting")
    p.add_argument("--config", required=True, help="config holding the superposed model")
    p.add_argument("--config-b", default=None, help="config holding the single model (default: mean-matched)")
    p.add_argument("--max-hours", type=float, default=40.0)
    add_out(p)
    p.set_defaults(func=cmd_plotdata)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "seed"):
        args.seed_explicit = args.seed is not None
        if args.seed is None:
            args.seed = 0
    try:
        return args.func(args)
    except OutagePlanError as exc:
        message = str(exc)
    except (KeyError, ValueError, OSError, RuntimeError) as exc:
        message = f"{type(exc).__name__}: {exc}"
    # one line, even for a message that quotes multi-line parser output
    print("outageplan-error:", " ".join(message.splitlines()), file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())

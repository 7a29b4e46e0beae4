"""Span recorder and the traced mirror of each ``outageplan`` CLI command.

A traced pass drives the same stages as the CLI, with the same arguments,
through each module's public functions, and records one span per call:
name, start, end, parent span and pass id. Work counts are recorded at the
same boundaries. The CLI's own bookkeeping (argument parsing, manifest
rewrites and re-validation, printing) is left out on purpose: the untraced
CLI time minus these spans is the ``cli.overhead_s`` metric.

Two spans are probes that the CLI does not make: ``outage.sample`` draws
the merged outage spans again, laid out as ``build_metamodel`` lays them
out, to time sampling and count events and span-hours; ``mdp.kernel_tables``
builds the tables that ``train`` then builds again inside. Both are part of
the tracing overhead.

Span names are ``<layer>.<stage>``; the layers are the package's modules.
"""

from __future__ import annotations

import math
import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from outageplan import evaluate as ev
from outageplan.config import load_config
from outageplan.outage import sample_trace
from outageplan.simulate import CostTable, build_metamodel, merge_events
from outageplan.solver import QTable, policy_value, train, value_iteration, write_convergence_csv

LAYERS = ("config", "outage", "simulate", "mdp", "solver", "persist", "evaluate")


class Tracer:
    """In-memory spans and work counts of one pass; written out at run end."""

    def __init__(self, pass_id: int):
        self.pass_id = pass_id
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "pass": self.pass_id,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, n: int) -> None:
        """Add an exact work count to the open span and to the pass total."""
        n = int(n)
        span = self.spans[self._stack[-1]]
        span.setdefault("counts", {})[name] = span.get("counts", {}).get(name, 0) + n
        self.counts[name] = self.counts.get(name, 0) + n

    def wrote(self, path) -> None:
        self.count("persist.bytes_written", os.path.getsize(path))

    def self_times(self) -> dict[int, float]:
        own = {s["id"]: s["end"] - s["start"] for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own


def _load(t: Tracer, name: str):
    with t.span("config.load"):
        return load_config(name)


def _env(t: Tracer, cfg):
    with t.span("mdp.codec"):
        env = cfg.env()
        t.count("mdp.states", env.codec.n_states)
    return env


def _attach(t: Tracer, cfg, env, metamodel_path: Path) -> None:
    with t.span("persist.metamodel_read"):
        table = CostTable.load(metamodel_path, expect_config_hash=cfg.config_hash)
    with t.span("mdp.attach"):
        env.attach_metamodel(table)


def traced_metamodel(a: dict, t: Tracer) -> None:
    cfg = _load(t, a["config"])
    replications = a["replications"]
    env = _env(t, cfg)
    with t.span("mdp.portfolios"):
        grid = env.reachable_portfolios()
    with t.span("config.microgrid"):
        microgrid = cfg.microgrid()
    with t.span("outage.sample"):
        rng = np.random.Generator(np.random.PCG64(a["seed"]))
        events = span_hours = 0
        for rep_seed in rng.integers(0, 2**63, size=replications, dtype=np.int64):
            gen = np.random.Generator(np.random.PCG64(int(rep_seed)))
            gen.random()  # calendar offset
            trace = sample_trace(cfg.outage_model, cfg.period_length_years, gen)
            events += len(trace)
            span_hours += sum(int(math.ceil(end - start)) for start, end in merge_events(trace))
        t.count("outage.events", events)
        t.count("outage.span_hours", span_hours)
    with t.span("simulate.metamodel"):
        table = build_metamodel(
            model=cfg.outage_model,
            capacity_grid=grid,
            specs=cfg.storage_specs(),
            grid=microgrid,
            period_length_years=cfg.period_length_years,
            replications=replications,
            seed=a["seed"],
            config_hash=cfg.config_hash,
        )
        t.count("simulate.portfolios", len(grid))
        t.count("simulate.portfolio_span_hours", len(grid) * span_hours)
    out = Path(a["out"])
    out.mkdir(parents=True, exist_ok=True)
    target = out / "metamodel.csv"
    with t.span("persist.metamodel_write"):
        table.save(target)
    t.wrote(target)
    with t.span("persist.metamodel_read"):
        CostTable.load(target, expect_config_hash=cfg.config_hash)


def traced_train(a: dict, t: Tracer) -> None:
    cfg = _load(t, a["config"])
    out = Path(a["out"])
    env = _env(t, cfg)
    _attach(t, cfg, env, out / "metamodel.csv")
    schedule = cfg.schedule(seed=a["seed"], episodes=a["episodes"])
    with t.span("mdp.kernel_tables"):
        env.kernel_tables()
    with t.span("solver.train"):
        result = train(env, schedule, config_hash=cfg.config_hash)
        visits = result.qtable.visits
        t.count("solver.episodes", schedule.episodes)
        t.count("solver.updates", int(visits.sum()))
        t.count("solver.pairs_visited", int(np.count_nonzero(visits)))
        t.count("solver.pairs", visits.size)
    qtable_path = out / "qtable.bin"
    with t.span("persist.qtable_write"):
        result.qtable.save(qtable_path)
    t.wrote(qtable_path)
    with t.span("persist.qtable_read"):
        QTable.load(qtable_path, expect_config_hash=cfg.config_hash)
    convergence_path = out / "convergence.csv"
    with t.span("persist.convergence_write"):
        write_convergence_csv(result.convergence, convergence_path)
    t.wrote(convergence_path)


def traced_evaluate(a: dict, t: Tracer) -> None:
    cfg = _load(t, a["config"])
    out = Path(a["out"])
    with t.span("persist.qtable_read"):
        qtable = QTable.load(a["qtable"], expect_config_hash=cfg.config_hash)
    with t.span("evaluate.trajectory"):
        trajectory = ev.PriceTrajectory.from_csv(a["trajectory"])
    env = _env(t, cfg)
    _attach(t, cfg, env, out / "metamodel.csv")
    with t.span("solver.policy_value"):
        exact_return = policy_value(env, qtable.greedy_policy(), gamma=cfg.training.gamma)
    with t.span("evaluate.rollout"):
        trace = ev.rollout(
            qtable,
            env,
            trajectory,
            config_hash=cfg.config_hash,
            planning_hash=cfg.planning_hash,
            exact_expected_return=exact_return,
        )
    target = out / f"trace-{a['label']}.json"
    with t.span("persist.trace_write"):
        trace.save(target)
    t.wrote(target)
    with t.span("persist.trace_read"):
        ev.PolicyTrace.load(target)


def traced_compare(a: dict, t: Tracer) -> None:
    with t.span("persist.trace_read"):
        trace_a = ev.PolicyTrace.load(a["trace-a"])
        trace_b = ev.PolicyTrace.load(a["trace-b"])
    with t.span("evaluate.compare"):
        report = ev.compare(trace_a, trace_b, label_a=a["label-a"], label_b=a["label-b"])
    out = Path(a["out"])
    out.mkdir(parents=True, exist_ok=True)
    target = out / "comparison.json"
    with t.span("persist.comparison_write"):
        report.save(target)
    t.wrote(target)


TRACED = {
    "metamodel": traced_metamodel,
    "train": traced_train,
    "evaluate": traced_evaluate,
    "compare": traced_compare,
}


def exact_check(t: Tracer, config: str, out: Path) -> tuple[float, float]:
    """Exact optimum of one config's pass output, and the value of the exact
    greedy policy. The two must be equal."""
    cfg = load_config(config)
    env = cfg.env()
    env.attach_metamodel(CostTable.load(out / "metamodel.csv", expect_config_hash=cfg.config_hash))
    with t.span("solver.exact"):
        exact = value_iteration(env, gamma=cfg.training.gamma)
    with t.span("solver.policy_value_exact"):
        replayed = policy_value(env, exact.greedy_policy(), gamma=cfg.training.gamma)
    return exact.expected_return(), replayed

"""Acceptance checks for the full planning pipeline.

Each test prints one PASS or FAIL line (visible with ``pytest -s``) and
enforces the stated tolerance and wall-clock budget. The case-study
regression compares freshly built artifacts byte-for-byte against the
frozen copies in tests/golden/.
"""

import io
import json
import time
from contextlib import contextmanager, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import chi2, poisson

import outageplan
from outageplan.cli import main as cli_main
from outageplan.config import load_config
from outageplan.mdp import PlanningEnv
from outageplan.outage import (
    CaidiSeries,
    OutageKind,
    SingleModel,
    SuperposedModel,
    duration_support,
    fit_from_caidi,
    mean_matched_single,
    sample_outage_count,
    sample_trace,
    severe_years,
)
from outageplan.simulate import build_metamodel, expected_period_cost
from outageplan.solver import policy_value, train, value_iteration

DATA = Path(outageplan.__file__).parent / "data"
CAIDI = DATA / "caidi" / "psegli_caidi.csv"
GOLDEN = Path(__file__).parent / "golden"


class Stopwatch:
    def __init__(self):
        self.t0 = time.perf_counter()

    @property
    def elapsed(self) -> float:
        return time.perf_counter() - self.t0


@contextmanager
def verdict(label: str):
    clock = Stopwatch()
    try:
        yield clock
    except Exception:
        print(f"FAIL {label}")
        raise
    print(f"PASS {label} ({clock.elapsed:.1f}s)")


def tiny_trained(metamodel_seed: int, train_seed: int, episodes: int):
    cfg = load_config("tiny")
    env = cfg.env()
    table = build_metamodel(
        model=cfg.outage_model,
        capacity_grid=env.reachable_portfolios(),
        specs=cfg.storage_specs(),
        grid=cfg.microgrid(),
        period_length_years=cfg.period_length_years,
        replications=cfg.metamodel_replications,
        seed=metamodel_seed,
        config_hash=cfg.config_hash,
    )
    env.attach_metamodel(table)
    result = train(env, cfg.schedule(seed=train_seed, episodes=episodes), config_hash=cfg.config_hash)
    return cfg, env, result


def test_criterion_1_merged_counts_match_poisson():
    model = SuperposedModel(
        regular_rate=2.0, severe_rate=0.5, regular_duration_rate=1.0, severe_duration_rate=12.0
    )
    with verdict(
        "criterion 1: merged yearly counts pass a chi-square test against Poisson(2.5) at alpha=0.01"
    ) as clock:
        rng = np.random.Generator(np.random.PCG64(12345))
        n = 100_000
        counts = np.array([sample_outage_count(model, 1.0, rng) for _ in range(n)])
        mean = model.total_rate
        # merge the tail into the last cell with expected count >= 5
        kcut = 0
        while n * poisson.sf(kcut, mean) >= 5.0:
            kcut += 1
        observed = np.array(
            [np.sum(counts == k) for k in range(kcut)] + [np.sum(counts >= kcut)], dtype=float
        )
        expected = np.append(n * poisson.pmf(np.arange(kcut), mean), n * poisson.sf(kcut - 1, mean))
        assert observed.sum() == n
        assert expected.min() >= 5.0
        statistic = float(np.sum((observed - expected) ** 2 / expected))
        dof = len(observed) - 1
        assert statistic < chi2.ppf(0.99, dof)
        assert clock.elapsed < 10.0


def test_criterion_2_severe_fraction_matches_rate_ratio():
    model = SuperposedModel(
        regular_rate=2.0, severe_rate=0.5, regular_duration_rate=1.0, severe_duration_rate=12.0
    )
    with verdict(
        "criterion 2: severe share of 100k+ sampled events within 0.005 of rate ratio 0.2"
    ):
        rng = np.random.Generator(np.random.PCG64(777))
        total = 0
        severe = 0
        while total < 100_000:
            for event in sample_trace(model, 1.0, rng):
                total += 1
                severe += event.kind is OutageKind.SEVERE
        fraction = severe / total
        assert abs(fraction - model.severe_fraction) <= 0.005


def test_criterion_3_caidi_fit_recovers_published_means():
    with verdict(
        "criterion 3: CAIDI fit isolates 2012 and hits class means 1.636/22.55 within 1e-12"
    ) as clock:
        series = CaidiSeries.from_csv(CAIDI)
        model = fit_from_caidi(series, severe_threshold_hours=10.0, base_frequency=1.2, shift=1.0)
        assert severe_years(series, 10.0) == ("2012",)
        assert model.shift + model.regular_duration_rate == pytest.approx(1.636, abs=1e-12)
        assert model.shift + model.severe_duration_rate == pytest.approx(22.55, abs=1e-12)
        assert model.regular_rate + model.severe_rate == pytest.approx(1.2, abs=1e-12)
        assert clock.elapsed < 1.0


def test_criterion_4_mixture_is_bimodal_with_heavier_tail():
    with verdict(
        "criterion 4: fitted duration mixture is bimodal and beats the mean-matched "
        "single tail beyond 10 h"
    ):
        mixture = fit_from_caidi(
            CaidiSeries.from_csv(CAIDI), severe_threshold_hours=10.0, base_frequency=1.2, shift=1.0
        )
        single = mean_matched_single(mixture)
        assert single.duration_rate == pytest.approx(4.121666666666667, abs=1e-12)

        hours, pmf_mix = duration_support(mixture, 300.0)
        _, pmf_single = duration_support(single, 300.0)
        assert abs(pmf_mix.sum() - 1.0) <= 1e-12
        assert abs(pmf_single.sum() - 1.0) <= 1e-12

        def interior_peaks(pmf, upto=60):
            return [
                i for i in range(1, upto) if pmf[i] > pmf[i - 1] and pmf[i] > pmf[i + 1]
            ]

        # mixture: mode at the 1 h boundary, a second mode near the severe mean,
        # and a strict valley in between
        mix_peaks = interior_peaks(pmf_mix)
        assert pmf_mix[0] > pmf_mix[1]
        assert len(mix_peaks) == 1
        peak = mix_peaks[0]
        assert hours[peak] == pytest.approx(22.0)
        valley = min(range(1, peak), key=lambda i: pmf_mix[i])
        assert pmf_mix[valley] < pmf_mix[0]
        assert pmf_mix[valley] < pmf_mix[peak]

        # the mean-matched single law is unimodal with no boundary mode
        assert pmf_single[0] < pmf_single[1]
        assert len(interior_peaks(pmf_single)) == 1

        tail_mix = float(pmf_mix[hours > 10.0].sum())
        tail_single = float(pmf_single[hours > 10.0].sum())
        assert tail_mix > tail_single
        assert tail_mix > 5.0 * tail_single


def test_criterion_5_q_learning_matches_exact_solution_on_tiny():
    with verdict(
        "criterion 5: tiny Q-learning (100k episodes) matches backward induction at every "
        "reachable state, return within 2%"
    ) as clock:
        cfg, env, result = tiny_trained(metamodel_seed=11, train_seed=0, episodes=100_000)
        assert result.qtable.schedule["episodes"] <= 100_000
        exact = value_iteration(env, gamma=cfg.training.gamma)
        learned_policy = result.qtable.greedy_policy()
        assert np.array_equal(learned_policy, exact.greedy_policy())
        learned_return = policy_value(env, learned_policy, gamma=cfg.training.gamma)
        optimal = exact.expected_return()
        assert learned_return == pytest.approx(optimal, rel=0.02)
        assert clock.elapsed < 60.0


def test_criterion_6_zero_outage_rate_trains_to_inaction():
    with verdict(
        "criterion 6: with outage rate 0 the trained policy never invests and its value is 0"
    ):
        cfg = load_config("tiny")
        model = SingleModel(rate=0.0, duration_rate=4.0)
        env = PlanningEnv(
            horizon=cfg.horizon,
            catalog=cfg.units,
            levels_kwh=cfg.levels_kwh,
            outage_model=model,
        )
        table = build_metamodel(
            model=model,
            capacity_grid=env.reachable_portfolios(),
            specs=cfg.storage_specs(),
            grid=cfg.microgrid(),
            period_length_years=cfg.period_length_years,
            replications=8,
            seed=1,
        )
        assert len(table) == len(env.reachable_portfolios())
        assert not table.cost.any()
        env.attach_metamodel(table)
        result = train(env, cfg.schedule(seed=3, episodes=20_000), config_hash=cfg.config_hash)
        assert np.all(result.qtable.greedy_policy() == 0)
        assert np.all(result.qtable.values <= 0.0)
        assert policy_value(env, result.qtable.greedy_policy(), gamma=1.0) == 0.0


def test_criterion_7_metamodel_is_monotone_under_common_random_numbers():
    with verdict(
        "criterion 7: simulated cost falls with capacity and rises with each outage "
        "parameter under common random numbers"
    ) as clock:
        cfg = load_config("tiny")
        grid = cfg.microgrid()
        specs = cfg.storage_specs()
        # larger portfolios can never cost more when every draw is shared;
        # the chain is lexsorted, so it is also the table's row order
        chain = np.array([[0.0, 0.0], [200.0, 0.0], [500.0, 0.0], [500.0, 200.0], [1000.0, 500.0]])
        table = build_metamodel(
            model=SingleModel(rate=3.0, duration_rate=6.0),
            capacity_grid=chain,
            specs=specs,
            grid=grid,
            period_length_years=1.0,
            replications=64,
            seed=5,
        )
        assert table.kwh.tobytes() == chain.tobytes()
        capacity_costs = table.cost.tolist()
        assert capacity_costs[0] > 0.0
        assert all(a >= b for a, b in zip(capacity_costs, capacity_costs[1:]))

        def cost_for(model):
            rng = np.random.Generator(np.random.PCG64(9))
            return expected_period_cost(
                model, [200.0, 0.0], specs, grid, 1.0, replications=64, rng=rng
            ).mean

        rate_costs = [cost_for(SingleModel(rate=r, duration_rate=6.0)) for r in (0.5, 1.5, 3.0)]
        assert all(a <= b for a, b in zip(rate_costs, rate_costs[1:]))

        regular_duration_costs = [
            cost_for(
                SuperposedModel(
                    regular_rate=1.0,
                    severe_rate=0.5,
                    regular_duration_rate=k,
                    severe_duration_rate=12.0,
                )
            )
            for k in (0.5, 2.0, 6.0)
        ]
        assert all(a <= b for a, b in zip(regular_duration_costs, regular_duration_costs[1:]))

        severe_duration_costs = [
            cost_for(
                SuperposedModel(
                    regular_rate=1.0,
                    severe_rate=0.5,
                    regular_duration_rate=2.0,
                    severe_duration_rate=k,
                )
            )
            for k in (12.0, 20.0, 30.0)
        ]
        assert all(a <= b for a, b in zip(severe_duration_costs, severe_duration_costs[1:]))
        assert clock.elapsed < 120.0


def quiet_cli(argv: list[str]) -> int:
    with redirect_stdout(io.StringIO()):
        return cli_main(argv)


def run_case_study_compare(out_root: Path) -> Path:
    trajectory = DATA / "trajectories" / "casestudy.csv"
    traces = {}
    for config, label in (("casestudy-single", "single"), ("casestudy-superposed", "superposed")):
        out = out_root / label
        assert quiet_cli(["metamodel", "--config", config, "--seed", "101", "--out", str(out)]) == 0
        assert quiet_cli(["train", "--config", config, "--seed", "202", "--out", str(out)]) == 0
        argv = [
            "evaluate",
            "--config",
            config,
            "--qtable",
            str(out / "qtable.bin"),
            "--trajectory",
            str(trajectory),
            "--label",
            label,
            "--out",
            str(out),
        ]
        assert quiet_cli(argv) == 0
        traces[label] = out / f"trace-{label}.json"
    cmp_dir = out_root / "cmp"
    argv = [
        "compare",
        "--trace-a",
        str(traces["single"]),
        "--trace-b",
        str(traces["superposed"]),
        "--label-a",
        "single",
        "--label-b",
        "superposed",
        "--out",
        str(cmp_dir),
    ]
    assert quiet_cli(argv) == 0
    return cmp_dir / "comparison.json"


@pytest.mark.slow
def test_criterion_8_case_study_comparison_matches_frozen_golden(tmp_path):
    with verdict(
        "criterion 8: case-study pipeline at the documented seeds reproduces the frozen "
        "comparison byte-for-byte"
    ):
        produced = run_case_study_compare(tmp_path)
        golden = GOLDEN / "comparison.json"
        assert produced.read_bytes() == golden.read_bytes()
        doc = json.loads(produced.read_text())
        deltas = doc["deltas"]
        assert deltas["total_kwh"] == 0.0
        assert deltas["first_investment_period"] == 0
        assert deltas["mix_kwh"] == {
            "li-ion": 0.0,
            "lead-acid": -500.0,
            "vanadium-redox": 500.0,
            "flywheel": 0.0,
        }
        assert deltas["exact_expected_return"] is not None


def run_tiny_pipeline(out_root: Path) -> list[Path]:
    """Full CLI pass over both tiny configs; returns every seeded artifact."""
    trajectory = DATA / "trajectories" / "tiny.csv"
    artifacts = []
    fit_dir = out_root / "fit"
    assert quiet_cli(["fit", "--caidi", str(CAIDI), "--out", str(fit_dir)]) == 0
    artifacts.append(fit_dir / "outage_model.yaml")
    traces = {}
    for config, label in (("tiny", "single"), ("tiny-superposed", "superposed")):
        out = out_root / label
        assert (
            quiet_cli(
                ["metamodel", "--config", config, "--seed", "11", "--replications", "60", "--out", str(out)]
            )
            == 0
        )
        assert (
            quiet_cli(
                ["train", "--config", config, "--seed", "0", "--episodes", "20000", "--out", str(out)]
            )
            == 0
        )
        argv = [
            "evaluate",
            "--config",
            config,
            "--qtable",
            str(out / "qtable.bin"),
            "--trajectory",
            str(trajectory),
            "--label",
            label,
            "--out",
            str(out),
        ]
        assert quiet_cli(argv) == 0
        traces[label] = out / f"trace-{label}.json"
        artifacts.extend([out / "metamodel.csv", out / "qtable.bin", out / "convergence.csv", traces[label]])
    plot_dir = out_root / "plot"
    assert quiet_cli(["plotdata", "--config", "tiny-superposed", "--out", str(plot_dir)]) == 0
    artifacts.append(plot_dir / "duration_pmf.csv")
    cmp_dir = out_root / "cmp"
    argv = [
        "compare",
        "--trace-a",
        str(traces["single"]),
        "--trace-b",
        str(traces["superposed"]),
        "--label-a",
        "single",
        "--label-b",
        "superposed",
        "--out",
        str(cmp_dir),
    ]
    assert quiet_cli(argv) == 0
    artifacts.append(cmp_dir / "comparison.json")
    return artifacts


def test_criterion_9_every_stage_is_bit_reproducible(tmp_path):
    with verdict(
        "criterion 9: rerunning the whole pipeline at fixed seeds reproduces every "
        "artifact byte-for-byte (manifests excluded)"
    ):
        first = run_tiny_pipeline(tmp_path / "a")
        second = run_tiny_pipeline(tmp_path / "b")
        assert len(first) == len(second) == 11
        for left, right in zip(first, second):
            assert left.read_bytes() == right.read_bytes(), f"{left.name} differs between runs"
        # manifests carry timestamps and are deliberately outside the guarantee
        assert (tmp_path / "a" / "single" / "manifest.json").is_file()
        assert (tmp_path / "b" / "single" / "manifest.json").is_file()

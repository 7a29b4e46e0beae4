"""The package's PCG64 stream against numpy's, and the pipeline running
without numpy.random."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import outageplan
from outageplan.config import load_config
from outageplan.pcg64 import PCG64, _seed_words
from outageplan.simulate import expected_period_cost

SRC = Path(outageplan.__file__).resolve().parent.parent
TRAJECTORY = str(Path(outageplan.__file__).resolve().parent / "data" / "trajectories" / "tiny.csv")


def numpy_state(rng):
    state = rng.bit_generator.state["state"]
    return state["state"], state["inc"]


class TestAgainstNumpy:
    @given(
        seed=st.one_of(st.integers(0, 2**64 - 1), st.integers(2**64, 2**200)),
        draws=st.lists(st.sampled_from(["random", "integers"]), max_size=20),
        size=st.integers(0, 5),
    )
    @example(seed=0, draws=["random", "integers"], size=3)
    @example(seed=1, draws=["integers", "random"], size=1)
    @example(seed=2**32 - 1, draws=["random"], size=2)
    @example(seed=2**32, draws=["integers"], size=2)
    @example(seed=2**63 - 1, draws=["random", "random"], size=0)
    @example(seed=2**64 + 1, draws=["integers", "random"], size=4)
    @example(seed=2**128 + 3, draws=["random"], size=1)
    @settings(max_examples=200, deadline=None)
    def test_draws_and_state_match_numpy_bit_for_bit(self, seed, draws, size):
        ours, theirs = PCG64(seed), np.random.Generator(np.random.PCG64(seed))
        assert (ours.state, ours.inc) == numpy_state(theirs)
        for draw in draws:
            if draw == "random":
                assert ours.random().hex() == theirs.random().hex()
            else:
                got = ours.integers(0, 2**63, size=size, dtype=np.int64)
                want = theirs.integers(0, 2**63, size=size, dtype=np.int64)
                assert got.dtype == want.dtype and got.tolist() == want.tolist()
        assert (ours.state, ours.inc) == numpy_state(theirs)

    def test_words_split_the_state_and_increment_low_word_first(self):
        gen = PCG64(2**64 + 7)
        low, high, inc_low, inc_high = (int(w) for w in gen.words())
        assert gen.words().dtype == np.uint64
        assert (high << 64 | low, inc_high << 64 | inc_low) == (gen.state, gen.inc)
        assert inc_low & 1

    def test_the_replication_seeds_and_costs_match_a_numpy_generator(self):
        cfg = load_config("tiny")
        kwh = cfg.env().reachable_portfolios()[-1]
        args = (cfg.outage_model, kwh, cfg.storage_specs(), cfg.microgrid(), cfg.period_length_years, 16)
        ours = expected_period_cost(*args, PCG64(5))
        theirs = expected_period_cost(*args, np.random.default_rng(5))
        assert (ours.mean.hex(), ours.stderr.hex()) == (theirs.mean.hex(), theirs.stderr.hex())


# seeds of every entropy word count from one to seven, the 32- and 64-bit
# edges among them
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 + 1, 2**96 + 7, 2**128 + 3, 2**160 + 9, 2**200 + 5]


def numpy_seed_words(seeds):
    return np.array([np.random.SeedSequence(seed).generate_state(4, np.uint64) for seed in seeds]).reshape(-1, 4)


class TestSeedingAtOnce:
    def test_every_seed_word_count_matches_numpy(self):
        got = _seed_words(SEEDS)
        assert got.dtype == np.uint64 and got.tolist() == numpy_seed_words(SEEDS).tolist()

    @given(seeds=st.lists(st.one_of(st.integers(0, 2**63 - 1), st.integers(2**63, 2**200)), max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_a_mixed_batch_matches_numpy(self, seeds):
        # seeds of different word counts are hashed in separate groups and
        # land back in their own rows
        assert _seed_words(seeds).tolist() == numpy_seed_words(seeds).tolist()

    def test_streams_are_the_generators_of_each_seed(self):
        replication_seeds = PCG64(5).integers(0, 2**63, size=64, dtype=np.int64).tolist()
        for seeds in (SEEDS, replication_seeds):
            got = [(gen.state, gen.inc) for gen in PCG64.streams(seeds)]
            assert got == [numpy_state(np.random.Generator(np.random.PCG64(seed))) for seed in seeds]

    @pytest.mark.parametrize("seed", [-1, 1.0, np.int64(3)])
    def test_streams_refuse_what_the_constructor_refuses(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            PCG64.streams([1, seed])


class TestRefusals:
    @pytest.mark.parametrize("seed", [-1, 1.0, "3", np.int64(3)])
    def test_seed_must_be_an_int_at_least_zero(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            PCG64(seed)

    @pytest.mark.parametrize("low, high, dtype", [(1, 2**63, np.int64), (0, 2**62, np.int64), (0, 2**63, np.uint64)])
    def test_integers_draws_only_the_package_range(self, low, high, dtype):
        gen = PCG64(0)
        before = gen.state
        with pytest.raises(ValueError, match=r"int64 values on \[0, 2\*\*63\) only"):
            gen.integers(low, high, size=2, dtype=dtype)
        assert gen.state == before


# runs each CLI argv of the JSON list in its first argument, then prints
# whether numpy.random was ever imported
CHILD = """
import contextlib, io, json, sys
from outageplan.cli import main
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
print(json.dumps(sorted(name for name in sys.modules if name.startswith("numpy.random"))))
"""


def test_the_pipeline_never_imports_numpy_random(tmp_path):
    out = str(tmp_path)
    commands = [
        ["metamodel", "--config", "tiny", "--seed", "3", "--replications", "8", "--out", out],
        ["train", "--config", "tiny", "--seed", "4", "--episodes", "3000", "--out", out],
        ["evaluate", "--config", "tiny", "--qtable", str(tmp_path / "qtable.bin"), "--trajectory", TRAJECTORY,
         "--out", out],
    ]
    done = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(commands)], env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == []

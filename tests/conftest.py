"""Helpers shared by the test modules."""

import numpy as np

from outageplan.simulate import CostTable


def cost_table(env, cost, meta=None):
    """In-memory metamodel for `env`: every reachable portfolio, with cost
    `cost(kwh)` for the (portfolios, units) kWh array and stderr 0."""
    kwh = env.reachable_portfolios()
    return CostTable(
        units=env.unit_names,
        kwh=kwh,
        cost=cost(kwh),
        stderr=np.zeros(len(kwh)),
        meta={"replications": 1} if meta is None else meta,
    )


def stream_words(rng) -> np.ndarray:
    """The PCG64 state of a numpy Generator as the four uint64 words the
    compiled Q-learning loop steps: state low, state high, increment low,
    increment high."""
    state = rng.bit_generator.state["state"]
    mask = (1 << 64) - 1
    return np.array([state["state"] & mask, state["state"] >> 64, state["inc"] & mask, state["inc"] >> 64], np.uint64)

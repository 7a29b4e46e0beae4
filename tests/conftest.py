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

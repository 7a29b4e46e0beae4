"""The Q-learning episode kernel.

All randomness is pre-drawn by the caller, so a fixed seed reproduces every
result bit for bit. Per chunk, everything that does not depend on the chosen
actions is computed once with numpy: the capped price walk, the Q-table row
base of every (episode, period) and the explore action of every step. The
episode loop then runs on Python lists and floats: the rows it touches are
fetched lazily as lists and written back, with the visit counts, when the
chunk ends. The float operations and their order are those of a plain scalar
loop over the arrays, which `tests/test_solver.py` keeps as the reference.
A case-study episode takes 15-18 µs on a 2-vCPU Intel Xeon VM with numpy 2.4.
Islanding dispatch is vectorised numpy in `outageplan.simulate.dispatch_spans`.
"""

from __future__ import annotations

import numpy as np

# Names the implementation that ran the kernel in the train command's
# output and in benchmark results.
ACTIVE_BACKEND = "numpy"


def qlearn_chunk(q, visits, tables, gamma, uniforms, alphas, epsilons):
    """One chunk of epsilon-greedy Q-learning episodes, updating `q` and
    `visits` in place; returns (largest |update|, summed return, number of
    Q-values that left [q_lower, 0]).

    Per step the stream supplies: explore uniform, action uniform (consumed
    whether or not the step explores), then one uniform per unit for the
    price walk, so a fixed seed always yields the same trajectory.
    """
    n_episodes, horizon = uniforms.shape[:2]
    n_actions = tables.n_actions

    # Price combo after every period: each digit advances one rung on its
    # uniform and stops at the ladder's floor.
    advance = uniforms[:, :, 2:] < tables.advance_prob
    top = tables.ladder_sizes - 1
    digits = np.zeros((n_episodes, len(top)), dtype=np.int64)
    prices = np.zeros((n_episodes, horizon), dtype=np.int64)
    for t in range(1, horizon):
        digits = np.minimum(digits + advance[:, t - 1], top)
        prices[:, t] = digits @ tables.price_strides
    bases = tables.row_base[np.arange(horizon), prices]
    explore = np.minimum((uniforms[:, :, 1] * n_actions).astype(np.int64), n_actions - 1)
    explore[uniforms[:, :, 0] >= epsilons[:, None]] = -1

    cap_next = tables.cap_next.tolist()
    invest = tables.invest.tolist()
    cost_of_cap = tables.cost_of_cap.tolist()
    q_lower = tables.q_lower
    last = horizon - 1
    rows: dict[int, list[float]] = {}
    touched: list[int] = []
    max_delta = 0.0
    total_return = 0.0
    violations = 0
    for alpha, ep_prices, ep_bases, ep_explore in zip(
        alphas.tolist(), prices.tolist(), bases.tolist(), explore.tolist()
    ):
        c = 0
        ep_return = 0.0
        for t in range(horizon):
            s = ep_bases[t] + c
            row = rows.get(s)
            if row is None:
                row = rows[s] = q[s].tolist()
            a = ep_explore[t]
            if a < 0:
                # first maximum, as a strict `>` scan over the row finds it
                a = row.index(max(row))
            c2 = cap_next[c][a]
            r = -invest[ep_prices[t]][a] - cost_of_cap[c2]
            if t == last:
                target = r
            else:
                s2 = ep_bases[t + 1] + c2
                row2 = rows.get(s2)
                if row2 is None:
                    row2 = rows[s2] = q[s2].tolist()
                target = r + gamma * max(row2)
            delta = target - row[a]
            q_new = row[a] + alpha * delta
            row[a] = q_new
            touched.append(s * n_actions + a)
            step = abs(alpha * delta)
            if step > max_delta:
                max_delta = step
            if not (q_lower <= q_new <= 1e-9):
                violations += 1
            ep_return += r
            c = c2
        total_return += ep_return
    q[np.fromiter(rows, dtype=np.int64, count=len(rows))] = list(rows.values())
    np.add.at(visits.reshape(-1), touched, 1)
    return max_delta, total_return, violations

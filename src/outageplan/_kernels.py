"""The Q-learning episode kernel.

The kernel uses only scalar float64/int64 arithmetic on preallocated arrays,
and all randomness is pre-drawn by the caller, so a fixed seed reproduces
every result bit for bit. Islanding dispatch is vectorised numpy in
`outageplan.simulate.dispatch_spans`.
"""

from __future__ import annotations

import numpy as np

# Names the implementation that ran the kernel in the train command's
# output and in benchmark results.
ACTIVE_BACKEND = "numpy"


def qlearn_chunk(
    q,
    visits,
    state_codes,
    cap_next,
    invest,
    cost_of_cap,
    ladder_sizes,
    price_strides,
    advance_prob,
    horizon,
    p_full,
    c_full,
    gamma,
    uniforms,
    alphas,
    epsilons,
    q_lower,
):
    # One chunk of epsilon-greedy Q-learning episodes. Per step the stream
    # supplies: explore uniform, action uniform (consumed whether or not the
    # step explores), then one uniform per unit for the price walk, so a
    # fixed seed always yields the same trajectory.
    n_episodes = uniforms.shape[0]
    n_units = ladder_sizes.shape[0]
    n_actions = cap_next.shape[1]
    digits = np.zeros(n_units, np.int64)
    max_delta = 0.0
    total_return = 0.0
    violations = 0
    for ep in range(n_episodes):
        alpha = alphas[ep]
        eps = epsilons[ep]
        for u in range(n_units):
            digits[u] = 0
        p = 0
        c = 0
        ep_return = 0.0
        for t in range(horizon):
            code = (t * p_full + p) * c_full + c
            s = np.searchsorted(state_codes, code)
            u_explore = uniforms[ep, t, 0]
            u_action = uniforms[ep, t, 1]
            if u_explore < eps:
                a = int(u_action * n_actions)
                if a >= n_actions:
                    a = n_actions - 1
            else:
                a = 0
                best = q[s, 0]
                for j in range(1, n_actions):
                    if q[s, j] > best:
                        best = q[s, j]
                        a = j
            c2 = cap_next[c, a]
            r = -invest[p, a] - cost_of_cap[c2]
            p2 = 0
            for u in range(n_units):
                d = digits[u]
                if d < ladder_sizes[u] - 1 and uniforms[ep, t, 2 + u] < advance_prob[u]:
                    d += 1
                digits[u] = d
                p2 += d * price_strides[u]
            t2 = t + 1
            if t2 == horizon:
                target = r
            else:
                code2 = (t2 * p_full + p2) * c_full + c2
                s2 = np.searchsorted(state_codes, code2)
                best2 = q[s2, 0]
                for j in range(1, n_actions):
                    if q[s2, j] > best2:
                        best2 = q[s2, j]
                target = r + gamma * best2
            delta = target - q[s, a]
            q_new = q[s, a] + alpha * delta
            q[s, a] = q_new
            visits[s, a] += 1
            step = alpha * delta
            if step < 0.0:
                step = -step
            if step > max_delta:
                max_delta = step
            if not (q_lower <= q_new <= 1e-9):
                violations += 1
            ep_return += r
            p = p2
            c = c2
        total_return += ep_return
    return max_delta, total_return, violations

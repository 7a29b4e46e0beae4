/* The episode loop of outageplan._kernels.qlearn_chunk.
 *
 * Plays n_episodes epsilon-greedy Q-learning episodes of `horizon` steps,
 * updating q and visits (both (rows, n_actions), row-major) in place. The
 * caller precomputes everything that does not depend on the chosen actions:
 * the Q-table row base and the price combo of every (episode, step) and the
 * explore action of every step (-1 where the step is greedy).
 *
 * The float operations and their order are those of the scalar reference
 * loop in tests/test_solver.py. Build without FMA contraction
 * (-ffp-contract=off) and without -ffast-math, so every value rounds as it
 * does there. Writes the largest |update| and the summed return to out[0]
 * and out[1]; returns the number of Q-values that left [q_lower, 1e-9].
 */
#include <math.h>
#include <stdint.h>

/* Index of the first maximum of row[0..n), under a strict `>` scan. */
static int64_t first_max(const double *row, int64_t n)
{
    int64_t best = 0;
    for (int64_t j = 1; j < n; j++)
        if (row[j] > row[best])
            best = j;
    return best;
}

int64_t qlearn_episodes(double *q, int64_t *visits, int64_t n_actions,
                        int64_t n_episodes, int64_t horizon,
                        const int64_t *bases, const int64_t *prices,
                        const int64_t *explore, const double *alphas,
                        const int64_t *cap_next, const double *invest,
                        const double *cost_of_cap, double gamma,
                        double q_lower, double *out)
{
    double max_delta = 0.0, total_return = 0.0;
    int64_t violations = 0;
    for (int64_t e = 0; e < n_episodes; e++) {
        const int64_t *ep_bases = bases + e * horizon;
        const int64_t *ep_prices = prices + e * horizon;
        const int64_t *ep_explore = explore + e * horizon;
        double alpha = alphas[e], ep_return = 0.0;
        int64_t c = 0;
        for (int64_t t = 0; t < horizon; t++) {
            int64_t s = ep_bases[t] + c;
            double *row = q + s * n_actions;
            int64_t a = ep_explore[t];
            if (a < 0)
                a = first_max(row, n_actions);
            int64_t c2 = cap_next[c * n_actions + a];
            double r = -invest[ep_prices[t] * n_actions + a] - cost_of_cap[c2];
            double target = r;
            if (t + 1 < horizon) {
                const double *row2 = q + (ep_bases[t + 1] + c2) * n_actions;
                target = r + gamma * row2[first_max(row2, n_actions)];
            }
            double step = alpha * (target - row[a]);
            double q_new = row[a] + step;
            row[a] = q_new;
            visits[s * n_actions + a] += 1;
            if (fabs(step) > max_delta)
                max_delta = fabs(step);
            if (!(q_lower <= q_new && q_new <= 1e-9))
                violations++;
            ep_return += r;
            c = c2;
        }
        total_return += ep_return;
    }
    out[0] = max_delta;
    out[1] = total_return;
    return violations;
}

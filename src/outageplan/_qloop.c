/* The episode loop of outageplan._kernels.qlearn_chunk.
 *
 * Plays n_episodes epsilon-greedy Q-learning episodes of `horizon` steps,
 * updating q and the visit counts in place. Those hold only the Q-table rows
 * that exist: both are (store rows, n_actions), row-major, and slots[s] is
 * the store row of Q-table row s, or -1 while row s has never been updated.
 * A state's row is appended at store row *n_used at its first update, so
 * the store rows from *n_used on must be zero; a next state that was never
 * updated reads as the max of an all-zero row, 0.0. A state holds its
 * period, so an episode adds at most one visit to a pair and the caller
 * bounds the counts by its episode budget. All randomness comes from
 * `uniforms`, (n_episodes, horizon, 2 + n_units) row-major: per step the
 * explore uniform, the action uniform (read only when the step explores)
 * and one uniform per unit for the price walk. Each unit's price digit
 * advances one rung when its uniform is below the unit's advance_prob and
 * stops at the ladder top; state (t, p, c) is Q-table row
 * row_base[t * p_full + p] + c, with p = sum of digit * stride.
 *
 * The float operations and their order are those of the scalar reference
 * loop in tests/test_solver.py. Build without FMA contraction
 * (-ffp-contract=off) and without -ffast-math, so every value rounds as it
 * does there. Writes the largest |update| and the summed return to out[0]
 * and out[1], the number of Q-values that left [q_lower, 1e-9] to counts[0]
 * and the number of pairs whose visit count left zero to counts[1], and the
 * store's new row count to *n_used.
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

void qlearn_episodes(double *q, int32_t *visits, int32_t *slots,
                     int64_t *n_used, int64_t n_actions,
                     int64_t n_episodes, int64_t horizon, int64_t n_units,
                     const double *uniforms, const double *alphas,
                     const double *epsilons, const int64_t *row_base,
                     int64_t p_full, const int64_t *tops,
                     const int64_t *strides, const double *advance_prob,
                     const int64_t *cap_next, const double *invest,
                     const double *cost_of_cap, double gamma, double q_lower,
                     double *out, int64_t *counts)
{
    const int64_t width = 2 + n_units;
    double max_delta = 0.0, total_return = 0.0;
    int64_t violations = 0, first_visits = 0, used = *n_used;
    int64_t digits[n_units];
    for (int64_t e = 0; e < n_episodes; e++) {
        const double *draws = uniforms + e * horizon * width;
        double alpha = alphas[e], epsilon = epsilons[e], ep_return = 0.0;
        int64_t p = 0, c = 0, s = row_base[0], slot = slots[s];
        for (int64_t u = 0; u < n_units; u++)
            digits[u] = 0;
        for (int64_t t = 0; t < horizon; t++, draws += width) {
            if (slot < 0)
                slots[s] = (int32_t)(slot = used++);
            double *row = q + slot * n_actions;
            int64_t a;
            if (draws[0] < epsilon) {
                /* Any draw outside [0, 1) still names a real action. */
                double x = draws[1] * (double)n_actions;
                a = x >= 0.0 && x < (double)n_actions ? (int64_t)x : n_actions - 1;
            } else {
                a = first_max(row, n_actions);
            }
            int64_t c2 = cap_next[c * n_actions + a];
            double r = -invest[p * n_actions + a] - cost_of_cap[c2];
            double target = r;
            int64_t s2 = 0, slot2 = -1;
            if (t + 1 < horizon) {
                for (int64_t u = 0; u < n_units; u++)
                    if (digits[u] < tops[u] && draws[2 + u] < advance_prob[u]) {
                        digits[u]++;
                        p += strides[u];
                    }
                s2 = row_base[(t + 1) * p_full + p] + c2;
                double next = 0.0;
                slot2 = slots[s2];
                if (slot2 >= 0) {
                    const double *row2 = q + slot2 * n_actions;
                    next = row2[first_max(row2, n_actions)];
                }
                target = r + gamma * next;
            }
            double step = alpha * (target - row[a]);
            double q_new = row[a] + step;
            row[a] = q_new;
            if (visits[slot * n_actions + a]++ == 0)
                first_visits++;
            if (fabs(step) > max_delta)
                max_delta = fabs(step);
            if (!(q_lower <= q_new && q_new <= 1e-9))
                violations++;
            ep_return += r;
            s = s2;
            slot = slot2;
            c = c2;
        }
        total_return += ep_return;
    }
    out[0] = max_delta;
    out[1] = total_return;
    counts[0] = violations;
    counts[1] = first_visits;
    *n_used = used;
}

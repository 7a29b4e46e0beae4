/* The four compiled kernels behind outageplan._kernels: the Q-learning
 * episode loop, islanding dispatch, the greedy row scan and one period of
 * the exact solver's backward induction. Each indexes its arrays without
 * bounds checks; the Python wrapper of each checks every shape, dtype and
 * index range first.
 *
 * Build without FMA contraction (-ffp-contract=off) and without
 * -ffast-math, so every value rounds as in the reference loops the tests
 * keep.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

#define HOURS_PER_YEAR 8760

/* The double at p, which need not be 8-byte aligned: a loaded Q-table is a
 * view of its file at any offset. */
static double at(const unsigned char *p)
{
    double x;
    memcpy(&x, p, sizeof x);
    return x;
}

/* Index of the first maximum of the n doubles from row, under a strict `>`
 * scan. */
static int64_t first_max(const void *row, int64_t n)
{
    const unsigned char *bytes = row;
    int64_t best = 0;
    double top = at(bytes);
    for (int64_t j = 1; j < n; j++) {
        double x = at(bytes + j * sizeof(double));
        if (x > top) {
            top = x;
            best = j;
        }
    }
    return best;
}

/* numpy's minimum of a and b wherever b is not NaN (a NaN a is the
 * result); one minsd, where testing b for NaN as well made dispatch take
 * 1.7 times as long. */
static double minimum(double a, double b)
{
    return b < a ? b : a;
}

/* numpy's PCG64 (PCG XSL RR 128/64): the 128-bit LCG state and increment
 * as two 64-bit halves, one step of the LCG with its output, and a float64
 * uniform on [0, 1) from the top 53 bits of an output, as numpy's
 * Generator.random and outageplan.pcg64 draw it. */
typedef struct {
    uint64_t hi, lo;
} pcg128;

#define PCG_MULTIPLIER_HI 0x2360ED051FC65DA4ULL
#define PCG_MULTIPLIER_LO 0x4385DF649FCCF645ULL

/* The high 64 bits of the 128-bit product a * b: one multiply where the
 * compiler has a 128-bit integer type (64-bit GCC and Clang), four 32-bit
 * partial products elsewhere. */
static inline uint64_t mul_hi64(uint64_t a, uint64_t b)
{
#ifdef __SIZEOF_INT128__
    return (uint64_t)(((unsigned __int128)a * b) >> 64);
#else
    uint64_t a_lo = a & 0xFFFFFFFFu, a_hi = a >> 32;
    uint64_t b_lo = b & 0xFFFFFFFFu, b_hi = b >> 32;
    uint64_t cross = a_hi * b_lo + ((a_lo * b_lo) >> 32);
    uint64_t mid = (cross & 0xFFFFFFFFu) + a_lo * b_hi;
    return a_hi * b_hi + (cross >> 32) + (mid >> 32);
#endif
}

static inline uint64_t pcg_next64(pcg128 *state, pcg128 inc)
{
    /* state * multiplier + increment, modulo 2^128 */
    uint64_t hi = mul_hi64(state->lo, PCG_MULTIPLIER_LO)
                  + state->lo * PCG_MULTIPLIER_HI + state->hi * PCG_MULTIPLIER_LO;
    uint64_t lo = state->lo * PCG_MULTIPLIER_LO + inc.lo;
    state->hi = hi + inc.hi + (lo < inc.lo);
    state->lo = lo;
    uint64_t x = state->hi ^ state->lo;
    unsigned rot = (unsigned)(state->hi >> 58);
    return (x >> rot) | (x << ((64u - rot) & 63u));
}

static inline double pcg_uniform(pcg128 *state, pcg128 inc)
{
    return (double)(pcg_next64(state, inc) >> 11) * (1.0 / 9007199254740992.0);
}

/* The episode loop of qlearn_chunk.
 *
 * Plays n_episodes epsilon-greedy Q-learning episodes of `horizon` steps,
 * updating q and the visit counts in place. Those hold only the Q-table rows
 * that exist: both are (store rows, n_actions), row-major, and slots[s] is
 * the store row of Q-table row s, or -1 while row s has never been updated.
 * A state's row is appended at store row *n_used at its first update, so
 * the store rows from *n_used on must be zero; a next state that was never
 * updated reads as the max of an all-zero row, 0.0. A state holds its
 * period, so an episode adds at most one visit to a pair and the caller
 * bounds the counts by its episode budget.
 *
 * All randomness comes from the PCG64 stream in `stream`: the 128-bit state
 * and odd increment as four words (state low, state high, increment low,
 * increment high), read at the start and written back at the end. Each
 * step draws 2 + n_units uniforms in this order, whether or not it uses
 * them: the explore uniform, the action uniform (used only when the step
 * explores) and one uniform per unit for the price walk (unused at the
 * last step). So an episode takes horizon * (2 + n_units) uniforms, in the
 * order numpy's Generator.random fills an (episodes, horizon, 2 + n_units)
 * array from the same state. Each unit's price digit advances one rung
 * when its uniform is below the unit's advance_prob and stops at the
 * ladder top; state (t, p, c) is Q-table row row_base[t * p_full + p] + c,
 * with p = sum of digit * stride.
 *
 * The float operations and their order are those of the scalar reference
 * loop in tests/test_solver.py. Writes the largest |update| and the summed
 * return to out[0] and out[1], the number of Q-values that left
 * [q_lower, 1e-9] to counts[0] and the number of pairs whose visit count
 * left zero to counts[1], and the store's new row count to *n_used.
 */
void qlearn_episodes(double *q, int32_t *visits, int32_t *slots,
                     int64_t *n_used, int64_t n_actions,
                     int64_t n_episodes, int64_t horizon, int64_t n_units,
                     uint64_t *stream, const double *alphas,
                     const double *epsilons, const int64_t *row_base,
                     int64_t p_full, const int64_t *tops,
                     const int64_t *strides, const double *advance_prob,
                     const int64_t *cap_next, const double *invest,
                     const double *cost_of_cap, double gamma, double q_lower,
                     double *out, int64_t *counts)
{
    const int64_t width = 2 + n_units;
    pcg128 state = {stream[1], stream[0]};
    const pcg128 inc = {stream[3], stream[2]};
    double max_delta = 0.0, total_return = 0.0;
    int64_t violations = 0, first_visits = 0, used = *n_used;
    int64_t digits[n_units];
    double draws[width];
    for (int64_t e = 0; e < n_episodes; e++) {
        double alpha = alphas[e], epsilon = epsilons[e], ep_return = 0.0;
        int64_t p = 0, c = 0, s = row_base[0], slot = slots[s];
        for (int64_t u = 0; u < n_units; u++)
            digits[u] = 0;
        for (int64_t t = 0; t < horizon; t++) {
            for (int64_t k = 0; k < width; k++)
                draws[k] = pcg_uniform(&state, inc);
            if (slot < 0)
                slots[s] = (int32_t)(slot = used++);
            double *row = q + slot * n_actions;
            int64_t a;
            if (draws[0] < epsilon) {
                /* a uniform just below 1 can round x up to n_actions */
                double x = draws[1] * (double)n_actions;
                a = x < (double)n_actions ? (int64_t)x : n_actions - 1;
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
    stream[0] = state.lo;
    stream[1] = state.hi;
}

/* One hour of every portfolio of a span: PV is the pool, each unit in turn
 * draws min(power cap, energy left, deficit), nothing once the deficit is
 * covered, and the pool serves the classes in dispatch order, their loads
 * and VoLLs in loads and volls. Adds pair p's cost to span_cost[p] and,
 * with keep, its unserved kWh of class c to span_unserved[c * pairs + p].
 * Every unit updates the pool and the deficit, with no early exit: a unit
 * that draws nothing leaves both unchanged. Inlined with keep a constant,
 * so the loop that drops the unserved kWh does not test for them. */
static inline __attribute__((always_inline)) void
dispatch_hour(int64_t n_portfolios, int64_t n_units, int64_t n_classes,
              const double *power_cap, double *left, double sun,
              double shortfall, const double *loads, const double *volls,
              const int64_t *class_order, double *span_cost,
              double *span_unserved, int64_t pairs, int keep)
{
    for (int64_t p = 0; p < n_portfolios; p++) {
        double *energy = left + p * n_units;
        const double *cap = power_cap + p * n_units;
        double pool = sun, deficit = shortfall, pair_cost = span_cost[p];
        for (int64_t u = 0; u < n_units; u++) {
            double draw = minimum(minimum(cap[u], energy[u]), deficit);
            if (deficit <= 0.0)
                draw = 0.0;
            energy[u] -= draw;
            pool += draw;
            deficit -= draw;
        }
        for (int64_t k = 0; k < n_classes; k++) {
            double served = minimum(loads[k], pool);
            pool -= served;
            double short_kwh = loads[k] - served;
            if (keep)
                span_unserved[class_order[k] * pairs + p] += short_kwh;
            pair_cost += short_kwh * volls[k];
        }
        span_cost[p] = pair_cost;
    }
}

/* Islanding dispatch of every (span, portfolio) pair, behind
 * dispatch_spans in outageplan.simulate.
 *
 * Span s covers lengths[s] hours from hour-of-year starts[s], wrapping at
 * the year's end, and starts with every unit full: `left`, a work buffer of
 * (n_portfolios, n_units), is set to deliverable0 at each span's onset.
 * deliverable0 and power_cap are (n_portfolios, n_units), demand is
 * (n_classes, 8760) and pv (8760,), all row-major; class_order lists the
 * classes in descending value-of-lost-load order. Writes cost (n_spans,
 * n_portfolios) in $ and, unless it is NULL, unserved (n_classes, n_spans,
 * n_portfolios) in kWh; both start from 0.0.
 *
 * The float operations and their order are those of the scalar reference
 * loop in tests/test_simulate.py and of numpy's minimum. That holds when
 * deliverable0, demand and pv are finite and power_cap is not NaN: then
 * the energy left, the deficit and the pool are never NaN, so `minimum`
 * never meets a NaN second argument.
 */
void dispatch_spans(int64_t n_spans, const int64_t *starts,
                    const int64_t *lengths, int64_t n_portfolios,
                    int64_t n_units, int64_t n_classes,
                    const double *deliverable0, const double *power_cap,
                    const double *demand, const double *pv,
                    const int64_t *class_order, const double *voll,
                    double *left, double *cost, double *unserved)
{
    const int64_t pairs = n_spans * n_portfolios;
    /* per class, in dispatch order: its VoLL and its load in the hour */
    double volls[n_classes > 0 ? n_classes : 1], loads[n_classes > 0 ? n_classes : 1];
    for (int64_t k = 0; k < n_classes; k++)
        volls[k] = voll[class_order[k]];
    for (int64_t s = 0; s < n_spans; s++) {
        double *span_cost = cost + s * n_portfolios;
        double *span_unserved = unserved ? unserved + s * n_portfolios : NULL;
        for (int64_t p = 0; p < n_portfolios; p++)
            span_cost[p] = 0.0;
        for (int64_t ci = 0; span_unserved && ci < n_classes; ci++)
            for (int64_t p = 0; p < n_portfolios; p++)
                span_unserved[ci * pairs + p] = 0.0;
        memcpy(left, deliverable0, (size_t)(n_portfolios * n_units) * sizeof(double));
        for (int64_t h = 0; h < lengths[s]; h++) {
            int64_t hour = (starts[s] + h) % HOURS_PER_YEAR;
            double total_load = 0.0;
            for (int64_t ci = 0; ci < n_classes; ci++)
                total_load = total_load + demand[ci * HOURS_PER_YEAR + hour];
            for (int64_t k = 0; k < n_classes; k++)
                loads[k] = demand[class_order[k] * HOURS_PER_YEAR + hour];
            if (span_unserved)
                dispatch_hour(n_portfolios, n_units, n_classes, power_cap, left, pv[hour], total_load - pv[hour],
                              loads, volls, class_order, span_cost, span_unserved, pairs, 1);
            else
                dispatch_hour(n_portfolios, n_units, n_classes, power_cap, left, pv[hour], total_load - pv[hour],
                              loads, volls, class_order, span_cost, NULL, pairs, 0);
        }
    }
}

/* The first-maximum action of each row of an (n_rows, n_actions) row-major
 * table of doubles at any alignment, written to policy[0..). Returns the
 * index of the first row whose maximum is not finite (one holding a NaN, a
 * +inf maximum, or all -inf), whose action and those after it are not
 * written, or n_rows.
 *
 * A row whose words OR to zero is all +0.0, as a row that Q-learning never
 * updated is: its first maximum is action 0, with no scan. A -0.0 or a NaN
 * sets a bit, so such a row takes the scan. */
int64_t greedy_rows(const void *values, int64_t n_rows, int64_t n_actions,
                    int64_t *policy)
{
    const unsigned char *row = values;
    const size_t width = (size_t)n_actions * sizeof(double);
    for (int64_t i = 0; i < n_rows; i++, row += width) {
        uint64_t bits = 0;
        for (int64_t j = 0; j < n_actions; j++) {
            uint64_t word;
            memcpy(&word, row + j * sizeof(double), sizeof word);
            bits |= word;
        }
        if (!bits) {
            policy[i] = 0;
            continue;
        }
        int64_t best = first_max(row, n_actions);
        if (!isfinite(at(row + best * sizeof(double))))
            return i;
        /* a NaN is never above the maximum, so the scan passed over it */
        for (int64_t j = 0; j < n_actions; j++)
            if (isnan(at(row + j * sizeof(double))))
                return i;
        policy[i] = best;
    }
    return n_rows;
}

/* One period of the exact solver's backward induction, behind
 * backward_period in outageplan._kernels.
 *
 * The period stores n_combos price combos, combos[0..) in [0, p_full), each
 * with capacities c < c_count; its state (i, c) is row i * c_count + c.
 * Action a of capacity c leads to cap_next[c * n_actions + a], and its
 * value at combo p is
 *
 *     (-invest[p * n_actions + a]) - cost_of_cap[c2] + next,
 *
 * where next is gamma * expectation[p * width + c2], or 0.0 with no
 * expectation (the last period, whose terminal values are zero: adding
 * 0.0 turns a -0.0 into +0.0 as the expectation of zeros would). With no
 * policy every action is taken, its value is written to values, (rows,
 * n_actions) row-major, and v_next[p * c_count + c] is the row's first
 * maximum, or a NaN if the row holds one, as numpy's max (which may pick
 * either zero of a +0.0/-0.0 tie; only the do-nothing action can score
 * zero, every install costing more, so no row holds one); with a policy,
 * one action per row, v_next is that action's value and values is not
 * read. v_next is (p_full, c_count) row-major, and only the period's
 * combos' rows are written.
 *
 * The float operations and their order are those of the numpy expression
 * ((-invest) - cost) + gamma * expectation, which tests/test_solver.py
 * keeps as the reference.
 */
void backward_period(int64_t n_combos, const int64_t *combos, int64_t c_count,
                     int64_t n_actions, const int64_t *policy,
                     const int64_t *cap_next, const double *invest,
                     const double *cost_of_cap, const double *expectation,
                     int64_t width, double gamma, double *values,
                     double *v_next)
{
    for (int64_t i = 0; i < n_combos; i++) {
        const int64_t p = combos[i];
        const double *spend = invest + p * n_actions;
        const double *ev = expectation ? expectation + p * width : NULL;
        double *v = v_next + p * c_count;
        for (int64_t c = 0; c < c_count; c++) {
            const int64_t row = i * c_count + c;
            const int64_t *grow = cap_next + c * n_actions;
            if (policy) {
                int64_t a = policy[row], c2 = grow[a];
                double next = ev ? gamma * ev[c2] : 0.0;
                v[c] = (-spend[a] - cost_of_cap[c2]) + next;
                continue;
            }
            double *q = values + row * n_actions, top = 0.0;
            for (int64_t a = 0; a < n_actions; a++) {
                int64_t c2 = grow[a];
                double next = ev ? gamma * ev[c2] : 0.0;
                double x = (-spend[a] - cost_of_cap[c2]) + next;
                q[a] = x;
                if (a == 0 || x > top || isnan(x))
                    top = x;
            }
            v[c] = top;
        }
    }
}

/*
 * The Lance-Williams merge loop (linkage.py::_merge) in C, written once and
 * instantiated for float64 (f64) and float32 (f32) working matrices.
 * core/_native.py builds it with -O2 -std=c99 -ffp-contract=off, without
 * -ffast-math or -march, so each float operation is the numpy loop's, in
 * the same order, and the merges, caches and counters are equal bit for
 * bit.  The arrays and rules are those of linkage.py's module docstring.
 * A cache holds *a* slot at its row's minimum, not always the first: a
 * stale row whose distance to the merged slot i equals its cached minimum
 * keeps that minimum at i, though an earlier slot can be at the same
 * distance.
 *
 * rule indexes linkage.py's RULES (single, complete, average, Ward); each
 * merge appends (slot_obj[i], slot_obj[j], height) to merges.  Returns the
 * slots in use at the end; counts gets the repairs, improved rows and
 * compactions; scratch holds 2 * slots entries.
 */
#include <math.h>
#include <stdint.h>

#define DEFINE_MERGE(T, SUFFIX)                                                         \
    int64_t linkage_merge_##SUFFIX(                                                     \
        T *D, T *penalty, double *sizes, int64_t *slot_obj, int64_t *nn_idx, T *nn_val, \
        double *merges, int64_t slots, int64_t target, int rule, int stop_at_threshold, \
        double threshold, int64_t *scratch, int64_t *counts)                            \
    {                                                                                   \
        int64_t remaining = 0, repairs = 0, improved = 0, compactions = 0;              \
        for (int64_t s = 0; s < slots; s++)                                             \
            remaining += penalty[s] == 0;                                               \
        while (remaining > target) {                                                    \
            /* i: the first slot at the smallest cached minimum; j: its neighbour. */   \
            int64_t i = 0;                                                              \
            for (int64_t s = 1; s < slots; s++)                                         \
                if (nn_val[s] < nn_val[i])                                              \
                    i = s;                                                              \
            int64_t j = nn_idx[i];                                                      \
            double h = (double)nn_val[i];                                               \
            if (stop_at_threshold && h >= threshold)                                    \
                break;                                                                  \
            *merges++ = (double)slot_obj[i];                                            \
            *merges++ = (double)slot_obj[j];                                            \
            *merges++ = h;                                                              \
                                                                                        \
            /* The rule's row, in float64 and rounded once where it is not a     */    \
            /* min or max; column i mirrors row i in the active rows (a retired  */    \
            /* row is never read again).                                          */    \
            double si = sizes[i], sj = sizes[j], merged = si + sj;                      \
            T *row_i = D + i * slots, *row_j = D + j * slots;                           \
            switch (rule) {                                                             \
            case 0:                                                                     \
                for (int64_t s = 0; s < slots; s++)                                     \
                    row_i[s] = row_j[s] < row_i[s] ? row_j[s] : row_i[s];               \
                break;                                                                  \
            case 1:                                                                     \
                for (int64_t s = 0; s < slots; s++)                                     \
                    row_i[s] = row_j[s] > row_i[s] ? row_j[s] : row_i[s];               \
                break;                                                                  \
            case 2:                                                                     \
                for (int64_t s = 0; s < slots; s++)                                     \
                    row_i[s] = (T)(((double)row_i[s] * si + (double)row_j[s] * sj) / merged); \
                break;                                                                  \
            default:                                                                    \
                for (int64_t s = 0; s < slots; s++) {                                   \
                    double sk = sizes[s];                                               \
                    row_i[s] = (T)(((si + sk) * (double)row_i[s]                        \
                                    + (sj + sk) * (double)row_j[s] - sk * h) / (merged + sk)); \
                }                                                                       \
            }                                                                           \
            row_i[i] = (T)INFINITY;                                                     \
            sizes[i] = merged;                                                          \
            penalty[j] = nn_val[j] = (T)INFINITY;                                       \
            nn_idx[j] = -1;                                                             \
            for (int64_t r = 0; r < slots; r++)                                         \
                if (penalty[r] == 0)                                                    \
                    D[r * slots + i] = row_i[r];                                        \
            if (--remaining == 1)                                                       \
                break;                                                                  \
                                                                                        \
            /* Stale rows keep an equal minimum at i or are recomputed by a      */    \
            /* first-index argmin; then any row strictly closer to i moves there. */    \
            for (int64_t r = 0; r < slots; r++) {                                       \
                T to_i = row_i[r] + penalty[r];                                         \
                if (nn_idx[r] == i || nn_idx[r] == j) {                                 \
                    if (to_i == nn_val[r]) {                                            \
                        nn_idx[r] = i;                                                  \
                        continue;                                                       \
                    }                                                                   \
                    const T *row = D + r * slots;                                       \
                    int64_t best = 0;                                                   \
                    T low = row[0] + penalty[0];                                        \
                    for (int64_t s = 1; s < slots; s++)                                 \
                        if (row[s] + penalty[s] < low) {                                \
                            best = s;                                                   \
                            low = row[s] + penalty[s];                                  \
                        }                                                               \
                    nn_idx[r] = best;                                                   \
                    nn_val[r] = low;                                                    \
                    repairs++;                                                          \
                }                                                                       \
                if (to_i < nn_val[r]) {                                                 \
                    nn_idx[r] = i;                                                      \
                    nn_val[r] = to_i;                                                   \
                    improved++;                                                         \
                }                                                                       \
            }                                                                           \
            if (remaining > slots / 2 || slots <= 64)                                   \
                continue;                                                               \
                                                                                        \
            /* Compaction: the active slots, in order, to the front.  Row a goes   */   \
            /* to [a size, (a + 1) size), which ends before its source row keep[a] */   \
            /* starts when a >= 1, as size <= slots / 2; row 0 reads each entry    */   \
            /* keep[b] >= b before it writes entry b.                              */   \
            int64_t *keep = scratch, *rank = scratch + slots, size = 0;                 \
            for (int64_t s = 0; s < slots; s++)                                         \
                if (penalty[s] == 0) {                                                  \
                    rank[s] = size;                                                     \
                    keep[size++] = s;                                                   \
                }                                                                       \
            for (int64_t a = 0; a < size; a++)                                          \
                for (int64_t b = 0; b < size; b++)                                      \
                    D[a * size + b] = D[keep[a] * slots + keep[b]];                     \
            for (int64_t a = 0; a < size; a++) {                                        \
                nn_idx[a] = rank[nn_idx[keep[a]]];                                      \
                nn_val[a] = nn_val[keep[a]];                                            \
                sizes[a] = sizes[keep[a]];                                              \
                slot_obj[a] = slot_obj[keep[a]];                                        \
                penalty[a] = 0;                                                         \
            }                                                                           \
            slots = size;                                                               \
            compactions++;                                                              \
        }                                                                               \
        counts[0] = repairs;                                                            \
        counts[1] = improved;                                                           \
        counts[2] = compactions;                                                        \
        return slots;                                                                   \
    }

DEFINE_MERGE(double, f64)
DEFINE_MERGE(float, f32)

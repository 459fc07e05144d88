/*
 * One LOCALSEARCH sweep's re-verified relocations (objective.py's
 * MoveEvaluator.relocate_if_better, detach, attach and attach_singleton)
 * in C, written once and instantiated for a float64 (f64) and a float32
 * (f32) dense X.  _native.py builds it with -O2 -std=c99 -ffp-contract=off,
 * without -ffast-math or -march, so each float operation is numpy's, in the
 * same order, and the labels, sizes, masses and free slots are equal bit for
 * bit.  A float32 row is widened to double as astype(float64) widens it.
 *
 * X is (n, n) and symmetric, so row v stands in for column v; mass is the
 * (slots, n) slot-major mass matrix; free is the free-slot stack, with
 * state[1] entries.  The sweep visits candidates[state[0]:count]; state[2]
 * counts its moves.  It returns 0 when every candidate is done, and 1 when a
 * candidate must open a singleton and no slot is free: that candidate is
 * then detached at candidates[state[0]], for the caller to grow the matrix
 * and open its singleton.
 */
#include <math.h>
#include <stdint.h>

#define DEFINE_SWEEP(T, SUFFIX)                                                         \
    int relocate_all_##SUFFIX(                                                          \
        const T *X, int64_t n, const double *weights, int64_t *labels, double *sizes,   \
        double *mass, int64_t slots, int64_t *free, int64_t *state,                     \
        const int64_t *candidates, int64_t count, double eps)                           \
    {                                                                                   \
        for (; state[0] < count; state[0]++) {                                          \
            int64_t v = candidates[state[0]], own = labels[v];                          \
            double w = weights[v];                                                      \
            double stay = w * (2.0 * mass[own * n + v] - sizes[own]) + w * w;           \
            /* A fresh singleton scores 0, but for a node already alone it  */         \
            /* is the same partition as staying, not a move.                 */         \
            int64_t best_slot = -1;                                                     \
            double best = 0.0;                                                          \
            if (sizes[own] == w) {                                                      \
                best_slot = own;                                                        \
                best = stay;                                                            \
            }                                                                           \
            /* The first active slot other than own at the smallest score. */         \
            int64_t other = -1;                                                         \
            double lowest = INFINITY;                                                   \
            for (int64_t s = 0; s < slots; s++) {                                       \
                if (!(sizes[s] > 0) || s == own)                                        \
                    continue;                                                           \
                double score = w * (2.0 * mass[s * n + v] - sizes[s]);                  \
                if (other < 0 || score < lowest) {                                      \
                    other = s;                                                          \
                    lowest = score;                                                     \
                }                                                                       \
            }                                                                           \
            if (other >= 0 && lowest < best) {                                          \
                best_slot = other;                                                      \
                best = lowest;                                                          \
            }                                                                           \
            if (best >= stay - eps)                                                     \
                continue;                                                               \
            state[2]++;                                                                 \
                                                                                        \
            /* detach */                                                                \
            const T *row = X + v * n;                                                   \
            double *origin = mass + own * n;                                            \
            labels[v] = -1;                                                             \
            sizes[own] -= w;                                                            \
            if (sizes[own] <= 1e-9) {                                                   \
                sizes[own] = 0.0;                                                       \
                for (int64_t u = 0; u < n; u++)                                         \
                    origin[u] = 0.0;                                                    \
                free[state[1]++] = own;                                                 \
            } else {                                                                    \
                for (int64_t u = 0; u < n; u++)                                         \
                    origin[u] -= w * (double)row[u];                                    \
            }                                                                           \
                                                                                        \
            /* attach, or attach_singleton into the last freed slot */                 \
            if (best_slot == -1) {                                                      \
                if (state[1] == 0)                                                      \
                    return 1;                                                           \
                best_slot = free[--state[1]];                                           \
                sizes[best_slot] = w;                                                   \
                double *target = mass + best_slot * n;                                  \
                for (int64_t u = 0; u < n; u++)                                         \
                    target[u] = w * (double)row[u];                                     \
            } else {                                                                    \
                sizes[best_slot] += w;                                                  \
                double *target = mass + best_slot * n;                                  \
                for (int64_t u = 0; u < n; u++)                                         \
                    target[u] += w * (double)row[u];                                    \
            }                                                                           \
            labels[v] = best_slot;                                                      \
        }                                                                               \
        return 0;                                                                       \
    }

DEFINE_SWEEP(double, f64)
DEFINE_SWEEP(float, f32)

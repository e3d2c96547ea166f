// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.
//
// The analytical cost model of paper §IV: the expected heaviest per-reducer
// workload when n equal-size blocks are assigned uniformly at random to m
// reducers (first moment of the largest order statistic of a multinomial,
// normal approximation, Euler–Mascheroni constant alpha = 0.5772), and the
// clustering-factor optimization for overlapping keys (§IV-B), whose
// stationary condition is a cubic equation in sqrt(cf).

#ifndef CASM_CORE_COST_MODEL_H_
#define CASM_CORE_COST_MODEL_H_

#include <cstdint>

namespace casm {

/// Expected maximum of m i.i.d. standard normals (the bracketed factor of
/// the paper's Formula 2):
///   sqrt(2 ln m) - (ln ln m + ln 4*pi - 2*alpha) / (2 sqrt(2 ln m)).
/// Requires m >= 2.
double ExpectedMaxStandardNormal(int m);

/// Expected heaviest per-reducer workload (in records) when a total
/// workload of `total_records` is split into `num_blocks` equal blocks
/// assigned uniformly at random to `m` reducers. Formula (2) with
/// W = total_records, n = num_blocks. m == 1 returns the whole workload.
double ExpectedMaxReducerLoad(double total_records, double num_blocks, int m);

/// Formula (2): non-overlapping key with n_g regions over m reducers.
double NonOverlappingMaxLoad(int64_t num_records, int64_t n_g, int m);

/// Formula (4): overlapping key with annotation width d and clustering
/// factor cf: W = N (d + cf) / cf, n = n_g / cf.
double OverlappingMaxLoad(int64_t num_records, int64_t n_g, int64_t d, int m,
                          int64_t cf);

/// Minimizes Formula (4) over cf in [1, n_g]: solves the stationary cubic
/// B x^3 - B d x - 2 A d = 0 (x = sqrt(cf), A = N/m,
/// B = N sqrt(m-1) Phi(m) / (m sqrt(n_g))) by Newton iteration and returns
/// the better of floor/ceil, clamped to the valid range. `min_blocks`
/// optionally enforces at least `min_blocks * m` blocks (the §V heuristic
/// against skew); pass 0 for no constraint.
int64_t OptimalClusteringFactor(int64_t num_records, int64_t n_g, int64_t d,
                                int m, int64_t min_blocks);

/// Monte-Carlo estimate of the same expectation (uniform random block
/// assignment, `trials` repetitions) — used to validate the closed form.
double SimulatedMaxReducerLoad(double total_records, int64_t num_blocks, int m,
                               int trials, uint64_t seed);

/// Expected number of distinct values observed when `records` draws are
/// made uniformly at random from a domain of `domain` values:
///   domain * (1 - (1 - 1/domain)^records),
/// computed as domain * -expm1(records * log1p(-1/domain)) for numerical
/// stability at large domains. Non-positive records or domain return 0.
/// The optimizer uses it to fill the plan's informational
/// ExecutionPlan::predicted_block_groups (per-block distinct groups).
double ExpectedDistinctGroups(double records, double domain);

}  // namespace casm

#endif  // CASM_CORE_COST_MODEL_H_

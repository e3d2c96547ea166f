// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.
//
// Execution plans: a feasible distribution key plus the redistribution
// parameters the optimizer tunes — the clustering factor (paper §III-C),
// early aggregation (§III-D) and the combined framework/local sort
// (§III-D).

#ifndef CASM_CORE_PLAN_H_
#define CASM_CORE_PLAN_H_

#include <cstdint>
#include <string>

#include "core/distribution_key.h"

namespace casm {

struct ExecutionPlan {
  DistributionKey key;

  /// Number of consecutive base regions merged into one distribution block
  /// along every annotated attribute (1 = no clustering).
  int64_t clustering_factor = 1;

  /// Aggregate basic measures map-side and ship partial states instead of
  /// raw records. Requires every basic measure to be distributive or
  /// algebraic.
  bool early_aggregation = false;

  /// Let the framework sort establish the local algorithm's record order
  /// (secondary sort), skipping the in-reducer re-sort.
  bool combined_sort = false;

  /// Cost-model prediction of the heaviest per-reducer workload, in
  /// records (filled by the optimizer; informational).
  double predicted_max_load = 0;

  /// Cost-model prediction of one block's record count and its distinct
  /// finest-granularity groups (filled by the optimizer; 0 = unknown;
  /// informational — local evaluation does not read them).
  double predicted_block_records = 0;
  double predicted_block_groups = 0;

  /// Distribution blocks after clustering.
  int64_t NumBlocks(const Schema& schema) const;

  /// Total annotation width d summed over annotated attributes (the
  /// paper's d for the single-annotation plans the optimizer emits).
  int64_t AnnotationWidth() const;

  std::string ToString(const Schema& schema) const;
};

}  // namespace casm

#endif  // CASM_CORE_PLAN_H_

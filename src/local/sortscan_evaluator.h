// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.
//
// The single-pass sort/scan evaluator — a reimplementation of the local
// algorithm of Chen et al., "Composite Subset Measures" (VLDB'06, the
// paper's reference [4]) that the parallel strategy runs inside every
// distribution block (paper §III-A).
//
// Plan: one sort order is chosen over the attributes (each at the finest
// level any measure uses). Basic measures whose granularity is a prefix
// coarsening of that order are evaluated by streaming group-change
// detection during a single scan; the rest fall back to hash grouping in
// the same scan. Composite measures are then derived in dependency order
// from the source measure tables (local/derivation.h). The constructor
// searches attribute permutations to maximize the number of streamed
// measures, mirroring the shared-sort-order optimization of [4].

#ifndef CASM_LOCAL_SORTSCAN_EVALUATOR_H_
#define CASM_LOCAL_SORTSCAN_EVALUATOR_H_

#include <cstdint>
#include <vector>

#include "common/cancellation.h"
#include "local/measure_table.h"
#include "measure/workflow.h"

namespace casm {

/// Work counters for one Evaluate() call (feeds the Fig 4(d) breakdown).
struct LocalEvalStats {
  /// Raw records scanned by the sort/scan algorithm. The early-aggregation
  /// reduce path merges pre-aggregated states instead of scanning records;
  /// it reports that work in `merged_partials` and leaves `records` at 0,
  /// so the two parallel paths' stats stay comparable.
  int64_t records = 0;
  /// Pre-aggregated partial states merged (early-aggregation path only).
  int64_t merged_partials = 0;
  int64_t streamed_measures = 0;
  int64_t hashed_measures = 0;
  double sort_seconds = 0;
  double eval_seconds = 0;
  /// Blocks LocalAggregator (src/agg) evaluated with each evaluator; a
  /// direct SortScanEvaluator::Evaluate call counts none.
  int64_t agg_blocks_sortscan = 0;
  int64_t agg_blocks_morsel = 0;
  /// Always 0: no radix evaluator exists. Kept because perfbench/ still
  /// reports it.
  int64_t agg_blocks_radix = 0;
  /// Columnar batches processed by the hash group-by's batch path (0 when
  /// the row path ran — see LocalAggOptions::batch_min_block_rows).
  int64_t agg_batches = 0;

  void Accumulate(const LocalEvalStats& other) {
    records += other.records;
    merged_partials += other.merged_partials;
    streamed_measures += other.streamed_measures;
    hashed_measures += other.hashed_measures;
    sort_seconds += other.sort_seconds;
    eval_seconds += other.eval_seconds;
    agg_blocks_sortscan += other.agg_blocks_sortscan;
    agg_blocks_morsel += other.agg_blocks_morsel;
    agg_blocks_radix += other.agg_blocks_radix;
    agg_batches += other.agg_batches;
  }
};

/// Which stages Evaluate() runs — used by the cost-breakdown experiment.
enum class LocalEvalPhase {
  kSortOnly,      // sort the block, produce no results
  kFull,          // sort + scan + derive composites
};

/// Immutable per-workflow evaluation plan; one instance is shared by all
/// blocks (thread-safe, Evaluate is const).
class SortScanEvaluator {
 public:
  /// `wf` must outlive the evaluator.
  explicit SortScanEvaluator(const Workflow* wf);

  /// Attributes participating in the sort key, in comparison order.
  const std::vector<int>& attr_order() const { return attr_order_; }
  /// Per-attribute (schema order) level used in the sort key; ALL for
  /// attributes that no measure groups by.
  const std::vector<LevelId>& sort_levels() const { return sort_levels_; }
  /// Number of basic measures the plan streams (vs hash-groups).
  int num_streamed() const { return num_streamed_; }

  /// Sort-key comparison of two raw records; exposed so the shuffle can
  /// pre-sort block contents (the combined-sort optimization, §III-D).
  bool RowLess(const int64_t* a, const int64_t* b) const;

  /// Evaluates all measures over `n` contiguous row-major records.
  /// If `assume_sorted`, records are already in RowLess order and the sort
  /// is skipped. `stats` may be null. A non-null `cancel` token is polled
  /// every few thousand records and between stages; when it trips, the
  /// scan stops early and the (incomplete) results so far are returned —
  /// the caller is expected to discard them, as the surrounding run is
  /// failing with Cancelled/DeadlineExceeded anyway.
  MeasureResultSet Evaluate(const int64_t* rows, int64_t n,
                            bool assume_sorted, LocalEvalPhase phase,
                            LocalEvalStats* stats,
                            const CancellationToken* cancel = nullptr) const;

 private:
  void ChoosePlan();
  int CountStreamable(const std::vector<int>& order) const;
  bool IsStreamable(const Measure& m, const std::vector<int>& order) const;

  const Workflow* wf_;
  std::vector<LevelId> sort_levels_;    // schema order
  std::vector<int> attr_order_;         // attrs with sort level != ALL
  std::vector<bool> streamable_;        // per measure (basic only meaningful)
  int num_streamed_ = 0;
};

}  // namespace casm

#endif  // CASM_LOCAL_SORTSCAN_EVALUATOR_H_

// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.
//
// Per-block local evaluation (paper §III-A) behind one LocalAggregator,
// which evaluates each block with one of two evaluators, picked by a rule
// on what the block itself shows:
//
//  * sortscan — the shared-sort-order sort/scan of Chen et al. [4]
//    (local/sortscan_evaluator.h), when the block is already in RowLess
//    order (the combined framework sort of §III-D makes its sort free) or
//    the phase is kSortOnly (the cost-breakdown phase times that sort).
//  * morsel — otherwise, a serial hash group-by: one hash table per basic
//    measure, each group's rows added in row order, then the composite
//    measures derived from the finished tables. Every block is mapped
//    batch-at-a-time (agg/batch.h) through working buffers each thread
//    keeps from one block to the next, so a one-row block costs no
//    buffer setup. Results are bit-identical at every batch size.
//
// Both evaluators are serial and bit-deterministic (checkpoint resume,
// ckpt/, depends on this). They may differ from each other by float
// rounding, since sort/scan adds a group's rows in sort order.

#ifndef CASM_AGG_LOCAL_AGGREGATOR_H_
#define CASM_AGG_LOCAL_AGGREGATOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/cancellation.h"
#include "local/measure_table.h"
#include "local/sortscan_evaluator.h"
#include "measure/aggregate.h"
#include "measure/workflow.h"

namespace casm {

namespace obs {
class Context;
}  // namespace obs

struct LocalAggOptions {
  /// Rows per columnar batch in the map walk and in the hash group-by
  /// (coordinate mapping runs vectorized over batch columns — see
  /// agg/batch.h). <= 0 picks kDefaultBatchRows. Results are identical
  /// at every size.
  int64_t batch_rows = 0;

  // ---- Map-side adaptive combiner (early aggregation, §III-D).
  /// Entries the combiner's table may hold before flushing partials to
  /// the shuffle's global hash partitions (the reducers). Bounds map-side
  /// memory under the memory budget (DESIGN.md §8) regardless of group
  /// cardinality.
  int64_t combiner_max_entries = 1 << 16;
  /// Bypass combining for the rest of the split when, after the first
  /// window of pairs, the table retained at least this fraction of them
  /// (near-unique groups: combining buys nothing, the table just burns
  /// memory and hashing time).
  double combiner_bypass_ratio = 0.95;
};

/// Per-call inputs of LocalAggregator::Evaluate. `rows` is `n` contiguous
/// row-major records of schema width; neither evaluator writes to them,
/// so several aggregators may read one buffer.
struct LocalAggContext {
  const int64_t* rows = nullptr;
  int64_t n = 0;
  /// Records already in SortScanEvaluator::RowLess order (combined sort).
  bool assume_sorted = false;
  LocalEvalPhase phase = LocalEvalPhase::kFull;
  /// Polled every batch (or every few thousand rows); on trip, Evaluate
  /// returns early with incomplete results the caller is expected to
  /// discard.
  const CancellationToken* cancel = nullptr;
  /// The run's observability context (GroupView::obs()): every Evaluate
  /// observes one block of the evaluator that ran it. Not owned; may be
  /// null.
  const obs::Context* obs = nullptr;
  int64_t task = -1;
  /// Unused: nothing reads it. Kept because perfbench/ still sets it
  /// (from ExecutionPlan::predicted_block_groups).
  double expected_groups_hint = 0;
};

/// Local evaluation of one workflow. Thread-safe: Evaluate is const and
/// one instance is shared across concurrent reducer tasks.
class LocalAggregator {
 public:
  /// `sortscan` is the shared sort/scan plan (the parallel evaluator
  /// already builds one for RowLess / combined sort); null makes the
  /// aggregator build and own its own. `wf` and a non-null `sortscan`
  /// must outlive the aggregator.
  LocalAggregator(const Workflow* wf, const SortScanEvaluator* sortscan,
                  const LocalAggOptions& options);

  /// Evaluates all measures of the workflow over the block with the
  /// evaluator the rule above picks. Updates `stats` (may be null),
  /// including that evaluator's block counter, and observes the block
  /// through `ctx.obs`.
  MeasureResultSet Evaluate(const LocalAggContext& ctx,
                            LocalEvalStats* stats) const;

 private:
  /// Flattened description of one basic measure (no Workflow indirection
  /// per row).
  struct BasicMeasure {
    int index;  // measure index in the workflow
    AggregateFn fn;
    int field;
    const Granularity* granularity;  // borrowed from the workflow
  };

  /// The morsel evaluator: serial hash group-by over the whole block.
  MeasureResultSet HashGroupBy(const LocalAggContext& ctx,
                               LocalEvalStats* stats) const;

  const Workflow* wf_;
  std::unique_ptr<const SortScanEvaluator> owned_sortscan_;
  const SortScanEvaluator* sortscan_;
  LocalAggOptions options_;
  std::vector<BasicMeasure> basics_;
};

/// Builds the aggregator over `wf`; see the LocalAggregator constructor.
std::unique_ptr<LocalAggregator> MakeLocalAggregator(
    const Workflow* wf, const SortScanEvaluator* sortscan = nullptr,
    const LocalAggOptions& options = LocalAggOptions());

}  // namespace casm

#endif  // CASM_AGG_LOCAL_AGGREGATOR_H_

// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.
//
// The parallel evaluation algorithm of paper §III: redistribute records
// into (possibly overlapping, possibly clustered) blocks keyed by the
// plan's distribution key, evaluate the whole workflow locally inside
// every block with the sort/scan algorithm, filter each block's results to
// the regions it owns, and union the per-block results — which the
// feasibility of the key guarantees is exactly the query answer, with no
// duplicates and no cross-block combination step.

#ifndef CASM_CORE_PARALLEL_EVALUATOR_H_
#define CASM_CORE_PARALLEL_EVALUATOR_H_

#include <cstdint>

#include "agg/local_aggregator.h"
#include "ckpt/checkpoint.h"
#include "common/result.h"
#include "core/plan.h"
#include "data/table.h"
#include "dfs/dfs.h"
#include "local/measure_table.h"
#include "local/sortscan_evaluator.h"
#include "measure/workflow.h"
#include "mr/engine.h"
#include "mr/metrics.h"

namespace casm {

/// How much of the pipeline to run (the Fig 4(d) cost breakdown).
enum class ParallelEvalPhase {
  kMapOnly,       // fetch records + key generation only
  kShuffleOnly,   // + shuffle and framework sort (no reduce work)
  kLocalSortOnly, // + in-reducer local sort (no evaluation)
  kFull,          // the real evaluation
};

/// Evaluation options. The robustness and observability knobs — memory
/// limits, retries, the fault plan, deadline, cancellation, speculation,
/// the trace and the query label — are inherited from EngineOptions
/// (mr/engine.h) and forwarded to every engine run. A failing evaluation
/// writes a diagnostic bundle into CASM_DIAG_DIR (obs/flight_recorder.h).
struct ParallelEvalOptions : EngineOptions {
  int num_mappers = 4;
  int num_reducers = 4;
  /// Worker threads executing the (virtual) tasks; <= 0 picks hardware
  /// concurrency.
  int num_threads = 0;
  ParallelEvalPhase phase = ParallelEvalPhase::kFull;
  /// Optional block placement of the input table: mappers then read the
  /// locality-scheduled splits of this file instead of contiguous chunks.
  /// Must describe exactly `table.num_rows()` rows. Not owned.
  const DistributedFile* input_file = nullptr;

  /// Durable per-job checkpointing (src/ckpt): with a directory set and
  /// mode kResume, EvaluateMultiJob commits each completed job's results
  /// to the DFS volume and a re-run restores committed jobs instead of
  /// recomputing them; EvaluateParallel checkpoints the full result set
  /// (phase kFull only). Verification failures degrade to recompute.
  CheckpointOptions checkpoint;

  /// Local aggregation knobs (src/agg): the hash group-by's batch size
  /// and how the map-side combiner bounds and bypasses early aggregation.
  LocalAggOptions local_agg;

  /// Columnar map path: map tasks scan their split as RecordBatches
  /// (data/record_batch.h), map key attributes to their key levels with
  /// one vectorized pass per column, and emit whole batches when the
  /// plan's key carries no region-inclusion annotation. The batch size is
  /// local_agg.batch_rows (0 = CASM_BATCH_SIZE / default). Row and batch
  /// paths emit bit-identical shuffle output; disabling this (or setting
  /// local_agg.batch_rows < 0) keeps the row-at-a-time map loop.
  bool columnar = true;
};

/// Renders the resolved options as a one-line JSON object — the
/// "options" section of a diagnostic bundle (obs/flight_recorder.h).
std::string DescribeOptions(const ParallelEvalOptions& options);

struct ParallelEvalResult {
  MeasureResultSet results;       // empty unless phase == kFull
  MapReduceMetrics metrics;       // engine metrics (per-reducer workloads)
  /// Aggregated per-block evaluator work. `records` counts raw records
  /// scanned by the local sort/scan algorithm (raw-redistribution path);
  /// the early-aggregation path ships pre-aggregated states instead and
  /// reports them in `merged_partials`, leaving `records` untouched so
  /// the two paths' stats stay comparable.
  LocalEvalStats local_stats;
  int64_t blocks_evaluated = 0;
  int64_t results_filtered = 0;   // measure records dropped by ownership
  /// Fraction of input blocks read replica-locally (1.0 without a
  /// DistributedFile).
  double input_locality = 1.0;
};

/// Evaluates `wf` over `table` with `plan`. Fails with FailedPrecondition
/// if the plan's key is infeasible for the workflow, and with
/// InvalidArgument if early aggregation is requested while a basic measure
/// is holistic (paper §III-D requires distributive/algebraic partials).
Result<ParallelEvalResult> EvaluateParallel(const Workflow& wf,
                                            const Table& table,
                                            const ExecutionPlan& plan,
                                            const ParallelEvalOptions& options);

}  // namespace casm

#endif  // CASM_CORE_PARALLEL_EVALUATOR_H_

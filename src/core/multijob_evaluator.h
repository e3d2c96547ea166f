// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.
//
// The naive baseline the paper argues against (§I): evaluate a composite
// subset measure query one component at a time, in dependency order, with
// one MapReduce job per measure —
//
//   * basic measures repartition the *raw data* by the measure's region
//     granularity and aggregate per group;
//   * composite measures repartition their sources' results (a parallel
//     join keyed by the least common ancestor of the target granularity
//     and any parent-edge granularities; sibling windows are expanded
//     map-side) and combine per group.
//
// Compared to EvaluateParallel (one redistribution, everything local),
// this strategy reads and shuffles the raw data once per basic measure
// and shuffles every intermediate result again — the paper's Steps 1-4
// example. It exists as a faithful comparator for the benchmarks and as
// an independent implementation for cross-checking results.

#ifndef CASM_CORE_MULTIJOB_EVALUATOR_H_
#define CASM_CORE_MULTIJOB_EVALUATOR_H_

#include "common/result.h"
#include "core/parallel_evaluator.h"
#include "data/table.h"
#include "local/measure_table.h"
#include "measure/workflow.h"
#include "mr/metrics.h"

namespace casm {

struct MultiJobResult {
  MeasureResultSet results;
  /// Metrics accumulated over every *executed* job (shuffle volume,
  /// per-reducer workloads summed per job). Jobs restored from a
  /// checkpoint run no tasks and are deliberately kept out of the
  /// attempt digests and phase timings — they are reported only via the
  /// checkpoint_* counters, keeping the attempt quantiles honest.
  MapReduceMetrics total_metrics;
  /// Jobs actually executed by this call.
  int jobs = 0;
  /// Jobs skipped because their results were restored from the
  /// checkpoint log (options.checkpoint). jobs + jobs_restored equals
  /// the workflow's measure count on success.
  int jobs_restored = 0;
};

/// Evaluates `wf` over `table` with one MapReduce job per measure. With
/// `options.checkpoint` enabled, each completed job's results are
/// durably committed to the checkpoint volume and committed jobs are
/// restored — verified against the (workflow, table) fingerprint and
/// the volume's block checksums — instead of recomputed, so a fault or
/// deadline mid-sequence loses only the in-flight job.
Result<MultiJobResult> EvaluateMultiJob(const Workflow& wf,
                                        const Table& table,
                                        const ParallelEvalOptions& options);

}  // namespace casm

#endif  // CASM_CORE_MULTIJOB_EVALUATOR_H_

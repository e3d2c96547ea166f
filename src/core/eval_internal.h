// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.
//
// Internal pieces shared by the evaluators. A shared run
// (EvaluateParallelShared) must ship a shuffle pair-for-pair identical to
// a solo run's (EvaluateParallel) under the same plan, and filter and
// assemble each member's block results the same way — the foundation of
// the bit-identical fanout contract in shared_evaluator.h. The solo and
// multi-job evaluators (EvaluateMultiJob) resolve the query label and
// open their checkpoint log the same way. Each piece is defined once
// here. Not public API.

#ifndef CASM_CORE_EVAL_INTERNAL_H_
#define CASM_CORE_EVAL_INTERNAL_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "ckpt/checkpoint.h"
#include "common/status.h"
#include "core/keygen.h"
#include "core/parallel_evaluator.h"
#include "data/table.h"
#include "local/measure_table.h"
#include "local/sortscan_evaluator.h"
#include "measure/workflow.h"

namespace casm {

class Emitter;

namespace eval_internal {

/// Shared mutable state for one query's result assembly across reducer
/// tasks.
struct ResultSink {
  std::mutex mu;
  MeasureResultSet results;
  LocalEvalStats local_stats;
  Status first_error;
  int64_t blocks = 0;
  int64_t filtered = 0;

  void Merge(MeasureResultSet&& block_results, const LocalEvalStats& stats,
             int64_t filtered_here) {
    std::unique_lock<std::mutex> lock(mu);
    ++blocks;
    filtered += filtered_here;
    local_stats.Accumulate(stats);
    Status s = results.MergeDisjoint(std::move(block_results));
    if (!s.ok() && first_error.ok()) first_error = s;
  }
};

/// Drops results whose region the block does not own; returns the kept
/// set and counts the dropped records.
MeasureResultSet FilterOwned(const Workflow& wf,
                             const std::vector<KeyGenAttr>& keygen,
                             const int64_t* block, MeasureResultSet&& all,
                             int64_t* filtered);

/// The raw-record redistribution map task: maps each record of the split
/// to its key levels and emits (block key, record) once per block that
/// must contain it. `map_batch_rows` > 0 scans columnar RecordBatches
/// (emitting whole batches when no key attribute is region-annotated);
/// 0 keeps the row-at-a-time loop. Both emit bit-identical shuffle
/// output. `table`, `schema` and `keygen` must outlive the returned
/// function.
std::function<void(int64_t begin, int64_t end, Emitter* emitter)>
RawRecordMapFn(const Table& table, const Schema& schema,
               const std::vector<KeyGenAttr>& keygen, int64_t map_batch_rows);

/// The label observability consumers stamp on the query's output: the
/// caller's `options.query_label`, else "q<fingerprint>" of (wf, table)
/// when a consumer is on (the registry or the flight ring is enabled, or
/// CASM_DIAG_DIR or CASM_PROGRESS is set), else empty. The fingerprint
/// hashes the whole input table, so the disabled path never computes it.
std::string QueryLabel(const ParallelEvalOptions& options, const Workflow& wf,
                       const Table& table);

/// Opens `options.checkpoint` into `ckpt`, keyed by the (wf, table)
/// fingerprint, forwarding the run's fault plan and trace into the volume
/// options the caller left unset. `dfs_base` receives the volume's stats
/// at open, the baseline ApplyDfsStats subtracts.
Status OpenCheckpoint(const ParallelEvalOptions& options, const Workflow& wf,
                      const Table& table, std::optional<CheckpointLog>* ckpt,
                      DfsVolumeStats* dfs_base);

/// Attributes the checkpoint volume's resilience activity since open (IO
/// retries, failovers, repairs) to `m`. No-op without a checkpoint.
void ApplyDfsStats(const std::optional<CheckpointLog>& ckpt,
                   const DfsVolumeStats& dfs_base, MapReduceMetrics* m);

}  // namespace eval_internal
}  // namespace casm

#endif  // CASM_CORE_EVAL_INTERNAL_H_

// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.
//
// Internal pieces of the evaluators. EvaluateParallelBatch
// (core/parallel_evaluator.h) assembles each member's answer per reduce
// task (TaskSets); the multi-job evaluator (EvaluateMultiJob) assembles
// each measure's table the same way (TaskTables). Both resolve the query
// label and open their checkpoint log the same way. Each piece is
// defined once here. Not public API.

#ifndef CASM_CORE_EVAL_INTERNAL_H_
#define CASM_CORE_EVAL_INTERNAL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ckpt/checkpoint.h"
#include "common/result.h"
#include "common/status.h"
#include "core/keygen.h"
#include "core/parallel_evaluator.h"
#include "data/table.h"
#include "local/measure_table.h"
#include "local/sortscan_evaluator.h"
#include "measure/workflow.h"

namespace casm {

class GroupView;
class LocalAggregator;

namespace eval_internal {

/// The owned results of the blocks one reduce task evaluated, with the
/// task's counters; after TaskSets::Union, the whole query's. Aligned to
/// a cache line: neighbouring tasks are written from different threads.
struct alignas(64) TaskSet {
  MeasureResultSet results;
  LocalEvalStats local_stats;
  int64_t blocks = 0;
  int64_t filtered = 0;  // results dropped by the ownership filter
  /// The first rule-2 duplicate, or the cancellation of a block whose
  /// results were dropped.
  Status status;
};

/// One query's answer, assembled per reduce task. The answer is the
/// disjoint union of the blocks' owned results (paper §III-B rules 1–2),
/// so the order of the union does not matter. Each task fills its own
/// TaskSet without a lock: only the execution that owns a task's output
/// calls reduce_fn for it, and a failure after its first group is
/// terminal (mr/engine.h), so each set has one writer and is never
/// replayed. After a successful run, Union() merges the sets once; a
/// failed or cancelled run drops them.
class TaskSets {
 public:
  /// `wf` and `keygen` must outlive this object.
  TaskSets(const Workflow& wf, const std::vector<KeyGenAttr>& keygen,
           int num_reducers);

  /// The raw-record block path: evaluates the block's `rows` (its values,
  /// copied once; evaluators never write to them, so several may read
  /// one copy) with `agg` and adds the results to task `reducer`
  /// (AddBlock). A phase other than kFull only counts the block.
  void EvaluateBlock(int reducer, const GroupView& group, const int64_t* rows,
                     const LocalAggregator& agg, bool assume_sorted,
                     LocalEvalPhase phase);

  /// Erases the block's results whose region the block does not own and
  /// moves the rest into task `reducer`'s set; `results` null counts a
  /// block of a phase that builds none. If the block's attempt was
  /// cancelled, its results may be partial: they are dropped and the
  /// task's set fails Union(). (A cancellation first seen in a task's
  /// last group lets the task itself succeed.)
  void AddBlock(int reducer, const GroupView& group, MeasureResultSet* results,
                const LocalEvalStats& stats);

  /// Unions the task sets in reducer order into one, reserving each
  /// measure's summed size first and freeing each task set once merged.
  /// Fails with the first failed task's status, or on a duplicate across
  /// tasks.
  Result<TaskSet> Union();

 private:
  const Workflow& wf_;
  const std::vector<KeyGenAttr>& keygen_;
  std::vector<TaskSet> tasks_;
};

/// One multi-job measure's table, assembled per reduce task as TaskSets
/// assembles a query's answer: each task fills its own table without a
/// lock, and MergeInto moves the tables into the measure's once after a
/// successful run.
class TaskTables {
 public:
  explicit TaskTables(int num_reducers);

  /// Task `reducer`'s table.
  MeasureValueMap& operator[](int reducer) {
    return tasks_[static_cast<size_t>(reducer)].table;
  }

  /// True when `group`'s attempt was cancelled: its results may be
  /// partial, so the caller drops them, and task `reducer` fails
  /// MergeInto with the token's status. (A cancellation first seen in a
  /// task's last group lets the task, and so the engine run, succeed.)
  bool Cancelled(int reducer, const GroupView& group);

  /// Moves every task's table into `out`, reserving the summed size
  /// first and freeing each table once merged. Fails with the first
  /// failed task's status, merging nothing.
  Status MergeInto(MeasureValueMap* out);

 private:
  /// Aligned to a cache line: neighbouring tasks are written from
  /// different threads.
  struct alignas(64) Task {
    MeasureValueMap table;
    Status status;
  };
  std::vector<Task> tasks_;
};

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

// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.

#include "core/eval_internal.h"

#include <cstdio>
#include <utility>

#include "agg/local_aggregator.h"
#include "mr/engine.h"
#include "obs/event.h"

namespace casm {
namespace eval_internal {
namespace {

/// The ownership filter (paper §III-B rule 2): erases from `results` every
/// result whose region `block` does not own; returns how many it erased.
int64_t FilterOwned(const Workflow& wf, const std::vector<KeyGenAttr>& keygen,
                    const int64_t* block, MeasureResultSet* results) {
  const Schema& schema = *wf.schema();
  int64_t dropped = 0;
  for (int i = 0; i < wf.num_measures(); ++i) {
    const Measure& m = wf.measure(i);
    dropped += static_cast<int64_t>(
        std::erase_if(results->mutable_values(i), [&](const auto& result) {
          return !BlockOwnsRegion(schema, m, keygen, block, result.first);
        }));
  }
  return dropped;
}

}  // namespace

TaskSets::TaskSets(const Workflow& wf, const std::vector<KeyGenAttr>& keygen,
                   int num_reducers)
    : wf_(wf), keygen_(keygen), tasks_(static_cast<size_t>(num_reducers)) {
  for (TaskSet& task : tasks_) {
    task.results = MeasureResultSet(wf.num_measures());
  }
}

void TaskSets::EvaluateBlock(int reducer, const GroupView& group,
                             const int64_t* rows, const LocalAggregator& agg,
                             bool assume_sorted, LocalEvalPhase phase) {
  LocalAggContext ctx;
  ctx.rows = rows;
  ctx.n = group.size();
  ctx.assume_sorted = assume_sorted;
  ctx.phase = phase;
  ctx.cancel = group.cancellation_token();
  ctx.obs = group.obs();
  ctx.task = reducer;
  LocalEvalStats stats;
  MeasureResultSet results = agg.Evaluate(ctx, &stats);
  AddBlock(reducer, group, phase == LocalEvalPhase::kFull ? &results : nullptr,
           stats);
}

void TaskSets::AddBlock(int reducer, const GroupView& group,
                        MeasureResultSet* results,
                        const LocalEvalStats& stats) {
  TaskSet& task = tasks_[static_cast<size_t>(reducer)];
  if (group.cancelled()) {
    if (task.status.ok()) task.status = group.cancellation_token()->status();
    return;
  }
  ++task.blocks;
  task.local_stats.Accumulate(stats);
  if (results == nullptr) return;
  task.filtered += FilterOwned(wf_, keygen_, group.key(), results);
  Status merged = task.results.MergeDisjoint(std::move(*results));
  if (!merged.ok() && task.status.ok()) task.status = std::move(merged);
}

Result<TaskSet> TaskSets::Union() {
  for (const TaskSet& task : tasks_) CASM_RETURN_IF_ERROR(task.status);
  TaskSet query;
  query.results = MeasureResultSet(wf_.num_measures());
  for (int m = 0; m < wf_.num_measures(); ++m) {
    size_t total = 0;
    for (const TaskSet& task : tasks_) total += task.results.values(m).size();
    query.results.mutable_values(m).reserve(total);
  }
  for (TaskSet& task : tasks_) {
    query.local_stats.Accumulate(task.local_stats);
    query.blocks += task.blocks;
    query.filtered += task.filtered;
    CASM_RETURN_IF_ERROR(query.results.MergeDisjoint(std::move(task.results)));
    task.results = MeasureResultSet();  // frees the emptied tables
  }
  return query;
}

TaskTables::TaskTables(int num_reducers)
    : tasks_(static_cast<size_t>(num_reducers)) {}

bool TaskTables::Cancelled(int reducer, const GroupView& group) {
  if (!group.cancelled()) return false;
  Status& status = tasks_[static_cast<size_t>(reducer)].status;
  if (status.ok()) status = group.cancellation_token()->status();
  return true;
}

Status TaskTables::MergeInto(MeasureValueMap* out) {
  size_t total = out->size();
  for (const Task& task : tasks_) {
    CASM_RETURN_IF_ERROR(task.status);
    total += task.table.size();
  }
  out->reserve(total);
  for (Task& task : tasks_) {
    out->merge(task.table);
    task.table = MeasureValueMap();  // frees the emptied table
  }
  return Status::OK();
}

std::string QueryLabel(const ParallelEvalOptions& options, const Workflow& wf,
                       const Table& table) {
  if (!options.query_label.empty()) return options.query_label;
  if (!obs::QueryLabelsObserved()) return std::string();
  char buf[24];
  std::snprintf(buf, sizeof(buf), "q%016llx",
                static_cast<unsigned long long>(FingerprintQuery(wf, table)));
  return buf;
}

Status OpenCheckpoint(const ParallelEvalOptions& options, const Workflow& wf,
                      const Table& table, std::optional<CheckpointLog>* ckpt,
                      DfsVolumeStats* dfs_base) {
  CheckpointOptions ckpt_options = options.checkpoint;
  if (ckpt_options.volume.fault_plan == nullptr) {
    ckpt_options.volume.fault_plan = options.fault_plan;
  }
  if (ckpt_options.volume.trace == nullptr) {
    ckpt_options.volume.trace = options.trace;
  }
  CASM_ASSIGN_OR_RETURN(
      CheckpointLog log,
      CheckpointLog::Open(ckpt_options, FingerprintQuery(wf, table)));
  ckpt->emplace(std::move(log));
  *dfs_base = (*ckpt)->volume().stats();
  return Status::OK();
}

void ApplyDfsStats(const std::optional<CheckpointLog>& ckpt,
                   const DfsVolumeStats& dfs_base, MapReduceMetrics* m) {
  if (!ckpt.has_value()) return;
  const DfsVolumeStats s = ckpt->volume().stats();
  m->dfs_io_retries += s.io_retries - dfs_base.io_retries;
  m->dfs_write_failovers += s.write_failovers - dfs_base.write_failovers;
  m->dfs_corrupt_replicas += s.corrupt_replicas - dfs_base.corrupt_replicas;
  m->dfs_repaired_replicas += s.repaired_replicas - dfs_base.repaired_replicas;
  m->dfs_under_replicated_blocks +=
      s.under_replicated_blocks - dfs_base.under_replicated_blocks;
}

}  // namespace eval_internal
}  // namespace casm

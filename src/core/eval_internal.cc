// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.

#include "core/eval_internal.h"

#include <cstdio>

#include "data/record_batch.h"
#include "mr/engine.h"
#include "obs/event.h"

namespace casm {
namespace eval_internal {

MeasureResultSet FilterOwned(const Workflow& wf,
                             const std::vector<KeyGenAttr>& keygen,
                             const int64_t* block, MeasureResultSet&& all,
                             int64_t* filtered) {
  const Schema& schema = *wf.schema();
  MeasureResultSet kept(wf.num_measures());
  for (int i = 0; i < wf.num_measures(); ++i) {
    const Measure& m = wf.measure(i);
    MeasureValueMap& out = kept.mutable_values(i);
    for (auto& [coords, value] : all.mutable_values(i)) {
      if (BlockOwnsRegion(schema, m, keygen, block, coords)) {
        out.emplace(coords, value);
      } else {
        ++*filtered;
      }
    }
  }
  return kept;
}

std::function<void(int64_t begin, int64_t end, Emitter* emitter)>
RawRecordMapFn(const Table& table, const Schema& schema,
               const std::vector<KeyGenAttr>& keygen, int64_t map_batch_rows) {
  const int num_attrs = schema.num_attributes();
  // With no region-inclusion annotation every record belongs to exactly
  // one block (ForEachBlock degenerates to first == last == g), so whole
  // batches can be emitted in one columnar call.
  bool any_annotated = false;
  for (const KeyGenAttr& kg : keygen) any_annotated |= kg.annotated;
  return [&table, &schema, &keygen, num_attrs, map_batch_rows, any_annotated](
             int64_t begin, int64_t end, Emitter* emitter) {
    std::vector<int64_t> g(static_cast<size_t>(num_attrs));
    std::vector<int64_t> key(static_cast<size_t>(num_attrs));
    if (map_batch_rows > 0) {
      RecordBatch batch(table.row_width(), map_batch_rows);
      std::vector<std::vector<int64_t>> g_cols(
          static_cast<size_t>(num_attrs));
      std::vector<const int64_t*> g_ptrs(static_cast<size_t>(num_attrs));
      for (int a = 0; a < num_attrs; ++a) {
        g_cols[static_cast<size_t>(a)].resize(
            static_cast<size_t>(map_batch_rows));
        g_ptrs[static_cast<size_t>(a)] =
            g_cols[static_cast<size_t>(a)].data();
      }
      TableScan scan = table.Scan(map_batch_rows, begin, end);
      int64_t rb = begin;
      while (scan.Next(&batch)) {
        // Cooperative cancellation (deadline, lost speculation race):
        // the engine discards a cancelled attempt's output, so
        // returning with a partially-emitted split is safe.
        if (emitter->cancelled()) return;
        const int64_t bn = batch.num_rows();
        for (int a = 0; a < num_attrs; ++a) {
          schema.attribute(a).MapFromFinestColumn(
              batch.column(a), bn, keygen[static_cast<size_t>(a)].level,
              g_cols[static_cast<size_t>(a)].data());
        }
        if (!any_annotated) {
          // One block per record: the whole batch ships through the
          // emitter's columnar path, values taken straight from the
          // contiguous row-major table slice.
          emitter->EmitBatch(g_ptrs.data(), table.row(rb), bn);
        } else {
          for (int64_t i = 0; i < bn; ++i) {
            for (int a = 0; a < num_attrs; ++a) {
              g[static_cast<size_t>(a)] =
                  g_cols[static_cast<size_t>(a)][static_cast<size_t>(i)];
            }
            const int64_t* row = table.row(rb + i);
            ForEachBlock(keygen, g, &key,
                         [&](const int64_t* k) { emitter->Emit(k, row); });
          }
        }
        rb += bn;
      }
      return;
    }
    for (int64_t r = begin; r < end; ++r) {
      // Cooperative cancellation (deadline, lost speculation race): the
      // engine discards a cancelled attempt's output, so returning with
      // a partially-emitted split is safe.
      if (((r - begin) & 1023) == 0 && emitter->cancelled()) return;
      const int64_t* row = table.row(r);
      for (int a = 0; a < num_attrs; ++a) {
        g[static_cast<size_t>(a)] = schema.attribute(a).MapFromFinest(
            row[a], keygen[static_cast<size_t>(a)].level);
      }
      ForEachBlock(keygen, g, &key,
                   [&](const int64_t* k) { emitter->Emit(k, row); });
    }
  };
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

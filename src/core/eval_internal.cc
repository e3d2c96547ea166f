// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.

#include "core/eval_internal.h"

#include "data/record_batch.h"
#include "mr/engine.h"

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

}  // namespace eval_internal
}  // namespace casm

// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.
//
// Columnar batch helpers of the hash group-by (agg/local_aggregator.h).
// A RegionBatchMapper turns one batch of row-major records into attribute
// columns (one transpose) and serves per-(attr, level) *mapped* coordinate
// columns on demand, each computed with one Hierarchy::MapFromFinestColumn
// pass and cached for the batch — so a workflow whose basics share levels
// maps each (attr, level) once per batch instead of once per row per
// measure, and no per-row Coords allocation happens at all until a group
// is first inserted.

#ifndef CASM_AGG_BATCH_H_
#define CASM_AGG_BATCH_H_

#include <cstdint>
#include <vector>

#include "cube/granularity.h"
#include "cube/region.h"
#include "cube/schema.h"

namespace casm {
namespace agg_internal {

/// Resolves LocalAggOptions::batch_rows: <= 0 -> kDefaultBatchRows,
/// positive -> the value itself.
int64_t ResolveBatchRows(int64_t batch_rows);

/// One batch of records in columnar form with cached mapped columns.
/// Reused across batches: Load() resets the cache validity, not the
/// allocations. Not thread-safe; each evaluation owns one.
class RegionBatchMapper {
 public:
  RegionBatchMapper(const Schema* schema, int64_t capacity);

  int64_t capacity() const { return capacity_; }
  int64_t n() const { return n_; }

  /// Loads `n` row-major records (schema-width stride) starting at `rows`:
  /// transposes the raw attribute columns and invalidates every cached
  /// mapped column.
  void Load(const int64_t* rows, int64_t n);

  /// Raw (finest-level) column of `attr` for the loaded batch.
  const int64_t* raw_column(int attr) const {
    return raw_cols_[static_cast<size_t>(attr)].data();
  }

  /// Column of `attr` mapped to `level`, computing and caching it on
  /// first request since the last Load().
  const int64_t* MappedColumn(int attr, LevelId level);

  /// Convenience: the mapped columns of one granularity, one per
  /// attribute, written into `cols` (resized to the schema width).
  void GranularityColumns(const Granularity& gran,
                          std::vector<const int64_t*>* cols);

  /// Fills `coords` (must be pre-sized to the schema width) with batch row
  /// `i`'s region coordinates gathered from `cols` (as returned by
  /// GranularityColumns). Equivalent to RegionOfRecord on the original
  /// row, with no allocation.
  static void FillCoords(const std::vector<const int64_t*>& cols, int64_t i,
                         Coords* coords) {
    for (size_t a = 0; a < cols.size(); ++a) {
      (*coords)[a] = cols[a][i];
    }
  }

 private:
  const Schema* schema_;
  int width_;
  int64_t capacity_;
  int64_t n_ = 0;
  std::vector<std::vector<int64_t>> raw_cols_;  // width_ columns
  /// Mapped-column cache: slot_of_[attr][level] indexes slots_, -1 when
  /// the (attr, level) pair has not been requested yet (ever); a slot is
  /// valid for the current batch when its epoch matches epoch_.
  struct Slot {
    std::vector<int64_t> col;
    uint64_t epoch = 0;
  };
  std::vector<std::vector<int>> slot_of_;  // [attr][level] -> slot index
  std::vector<Slot> slots_;
  uint64_t epoch_ = 0;
};

}  // namespace agg_internal
}  // namespace casm

#endif  // CASM_AGG_BATCH_H_

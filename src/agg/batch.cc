// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.

#include "agg/batch.h"

#include <utility>

#include "common/logging.h"
#include "data/record_batch.h"

namespace casm {
namespace agg_internal {

int64_t ResolveBatchRows(int64_t batch_rows) {
  return batch_rows <= 0 ? kDefaultBatchRows : batch_rows;
}

RegionBatchMapper::RegionBatchMapper(SchemaPtr schema)
    : schema_(std::move(schema)),
      width_(schema_->num_attributes()),
      raw_cols_(static_cast<size_t>(width_)),
      slot_of_(static_cast<size_t>(width_)) {
  for (int a = 0; a < width_; ++a) {
    slot_of_[static_cast<size_t>(a)].assign(
        static_cast<size_t>(schema_->attribute(a).num_levels()), -1);
  }
}

void RegionBatchMapper::Load(const int64_t* rows, int64_t n) {
  CASM_CHECK_GE(n, 0);
  if (n > capacity_) {
    capacity_ = n;
    for (std::vector<int64_t>& col : raw_cols_) {
      col.resize(static_cast<size_t>(capacity_));
    }
    for (Slot& slot : slots_) slot.col.resize(static_cast<size_t>(capacity_));
  }
  n_ = n;
  ++epoch_;
  for (int a = 0; a < width_; ++a) {
    int64_t* dst = raw_cols_[static_cast<size_t>(a)].data();
    const int64_t* src = rows + a;
    for (int64_t r = 0; r < n; ++r) {
      dst[r] = src[static_cast<size_t>(r) * width_];
    }
  }
}

const int64_t* RegionBatchMapper::MappedColumn(int attr, LevelId level) {
  const Hierarchy& h = schema_->attribute(attr);
  if (level == 0 && h.kind() == AttributeKind::kNumeric) {
    // Finest numeric level is the identity; serve the raw column.
    return raw_column(attr);
  }
  int& slot_index = slot_of_[static_cast<size_t>(attr)][static_cast<size_t>(level)];
  if (slot_index < 0) {
    slot_index = static_cast<int>(slots_.size());
    slots_.emplace_back();
    slots_.back().col.resize(static_cast<size_t>(capacity_));
  }
  Slot& slot = slots_[static_cast<size_t>(slot_index)];
  if (slot.epoch != epoch_) {
    h.MapFromFinestColumn(raw_column(attr), n_, level, slot.col.data());
    slot.epoch = epoch_;
  }
  return slot.col.data();
}

void RegionBatchMapper::GranularityColumns(const Granularity& gran,
                                           std::vector<const int64_t*>* cols) {
  cols->resize(static_cast<size_t>(width_));
  for (int a = 0; a < width_; ++a) {
    (*cols)[static_cast<size_t>(a)] = MappedColumn(a, gran.level(a));
  }
}

}  // namespace agg_internal
}  // namespace casm

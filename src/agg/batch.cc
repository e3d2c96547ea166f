// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.

#include "agg/batch.h"

#include "common/logging.h"
#include "data/record_batch.h"

namespace casm {
namespace agg_internal {

int64_t ResolveBatchRows(int64_t batch_rows) {
  return batch_rows <= 0 ? kDefaultBatchRows : batch_rows;
}

RegionBatchMapper::RegionBatchMapper(const Schema* schema, int64_t capacity)
    : schema_(schema),
      width_(schema->num_attributes()),
      capacity_(capacity),
      raw_cols_(static_cast<size_t>(width_)),
      slot_of_(static_cast<size_t>(width_)) {
  CASM_CHECK_GE(capacity_, 1);
  for (int a = 0; a < width_; ++a) {
    raw_cols_[static_cast<size_t>(a)].resize(static_cast<size_t>(capacity_));
    slot_of_[static_cast<size_t>(a)].assign(
        static_cast<size_t>(schema->attribute(a).num_levels()), -1);
  }
}

void RegionBatchMapper::Load(const int64_t* rows, int64_t n) {
  CASM_CHECK_GE(n, 0);
  CASM_CHECK_LE(n, capacity_);
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

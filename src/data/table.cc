// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.

#include "data/table.h"

#include <limits>
#include <utility>

#include "common/logging.h"
#include "data/record_batch.h"

namespace casm {

Table::Table(SchemaPtr schema)
    : schema_(std::move(schema)), row_width_(schema_->num_attributes()) {
  CASM_CHECK_GE(row_width_, 1);
}

void Table::AppendRow(const int64_t* values) {
  data_.insert(data_.end(), values, values + row_width_);
}

void Table::AppendRow(std::initializer_list<int64_t> values) {
  CASM_CHECK_EQ(static_cast<int>(values.size()), row_width_);
  data_.insert(data_.end(), values.begin(), values.end());
}

int64_t* Table::AppendUninitialized(int64_t count) {
  CASM_CHECK_GE(count, 0);
  size_t old_size = data_.size();
  // Guard the size arithmetic: count * row_width_ must not overflow, and
  // the grown vector must stay addressable. A Reserve() in between must not
  // be able to mask a bogus count either, so the check is on the *values*,
  // not on capacity.
  size_t max_values = data_.max_size();
  CASM_CHECK_LE(static_cast<uint64_t>(count),
                (max_values - old_size) / static_cast<size_t>(row_width_));
  data_.resize(old_size +
               static_cast<size_t>(count) * static_cast<size_t>(row_width_));
  return data_.data() + old_size;
}

void Table::AppendBatch(const RecordBatch& batch) {
  CASM_CHECK_EQ(batch.num_columns(), row_width_);
  int64_t* dst = AppendUninitialized(batch.num_rows());
  for (int c = 0; c < row_width_; ++c) {
    const int64_t* src = batch.column(c);
    int64_t* out = dst + c;
    for (int64_t r = 0; r < batch.num_rows(); ++r) {
      out[static_cast<size_t>(r) * row_width_] = src[r];
    }
  }
}

TableScan Table::Scan(int64_t batch_rows, int64_t begin, int64_t end) const {
  if (batch_rows <= 0) batch_rows = kDefaultBatchRows;
  return TableScan(*this, batch_rows, begin, end);
}

TableScan Table::Scan(int64_t batch_rows) const {
  return Scan(batch_rows, 0, num_rows());
}

}  // namespace casm

// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.

#include "data/record_batch.h"

#include <algorithm>

#include "common/logging.h"
#include "data/table.h"

namespace casm {

RecordBatch::RecordBatch(int num_columns, int64_t capacity)
    : num_columns_(num_columns), capacity_(capacity) {
  CASM_CHECK_GE(num_columns_, 1);
  CASM_CHECK_GE(capacity_, 1);
  storage_.resize(static_cast<size_t>(num_columns_) *
                  static_cast<size_t>(capacity_));
}

void RecordBatch::AppendRows(const int64_t* rows, int64_t count) {
  CASM_CHECK_GE(count, 0);
  CASM_CHECK_LE(num_rows_ + count, capacity_);
  // One destination column at a time: the writes are sequential and the
  // strided reads of a 4K-row batch stay within a few pages.
  for (int c = 0; c < num_columns_; ++c) {
    int64_t* dst = column(c) + num_rows_;
    const int64_t* src = rows + c;
    for (int64_t r = 0; r < count; ++r) {
      dst[r] = src[static_cast<size_t>(r) * num_columns_];
    }
  }
  num_rows_ += count;
}

TableScan::TableScan(const Table& table, int64_t batch_rows, int64_t begin,
                     int64_t end)
    : table_(&table), batch_rows_(batch_rows), next_(begin), end_(end) {
  CASM_CHECK_GE(batch_rows_, 1);
  CASM_CHECK_GE(begin, 0);
  CASM_CHECK_LE(begin, end);
  CASM_CHECK_LE(end, table.num_rows());
}

bool TableScan::Next(RecordBatch* batch) {
  if (next_ >= end_) return false;
  CASM_CHECK_EQ(batch->num_columns(), table_->row_width());
  CASM_CHECK_GE(batch->capacity(), batch_rows_);
  int64_t count = std::min(batch_rows_, end_ - next_);
  batch->Clear();
  batch->AppendRows(table_->row(next_), count);
  position_ = next_;
  next_ += count;
  return true;
}

}  // namespace casm

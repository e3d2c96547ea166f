// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.
//
// In-memory record storage. A Table is a bag of records over a cube-space
// schema: one int64 finest-level value per attribute, stored row-major in a
// single flat allocation for scan speed.

#ifndef CASM_DATA_TABLE_H_
#define CASM_DATA_TABLE_H_

#include <cstdint>
#include <initializer_list>
#include <vector>

#include "cube/schema.h"

namespace casm {

class RecordBatch;
class TableScan;

/// Row-major record container. Not thread-safe for concurrent appends;
/// concurrent reads are safe once building is done.
class Table {
 public:
  explicit Table(SchemaPtr schema);

  const SchemaPtr& schema() const { return schema_; }
  int row_width() const { return row_width_; }
  int64_t num_rows() const {
    return static_cast<int64_t>(data_.size()) / row_width_;
  }

  void Reserve(int64_t rows) {
    data_.reserve(static_cast<size_t>(rows) * static_cast<size_t>(row_width_));
  }

  /// Appends one record; `values` must hold row_width() entries.
  void AppendRow(const int64_t* values);
  void AppendRow(std::initializer_list<int64_t> values);

  /// Pointer to the `row`-th record's values (row_width() of them).
  const int64_t* row(int64_t row_index) const {
    return data_.data() +
           static_cast<size_t>(row_index) * static_cast<size_t>(row_width_);
  }

  /// Raw row-major storage; rows * row_width() values.
  const std::vector<int64_t>& data() const { return data_; }

  /// Appends `count` uninitialized rows and returns a pointer to the first
  /// new row's storage (for bulk generators filling rows in place). Checks
  /// that `count` is non-negative and that the resulting size neither
  /// overflows size_t nor exceeds the container's max_size, so a bad count
  /// fails loudly instead of corrupting the storage the batched scan view
  /// shares with row readers.
  int64_t* AppendUninitialized(int64_t count);

  /// Appends all records of `batch` (transposed back to row-major). The
  /// batch's column count must equal row_width().
  void AppendBatch(const RecordBatch& batch);

  /// Batched columnar view over rows [begin, end) — see data/record_batch.h.
  /// The table must outlive the scan and must not be appended to while
  /// scanning. `batch_rows` <= 0 picks kDefaultBatchRows.
  TableScan Scan(int64_t batch_rows, int64_t begin, int64_t end) const;
  TableScan Scan(int64_t batch_rows = 0) const;

 private:
  SchemaPtr schema_;
  int row_width_;
  std::vector<int64_t> data_;
};

}  // namespace casm

#endif  // CASM_DATA_TABLE_H_

// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.
//
// Columnar record batches. A RecordBatch holds up to `capacity` records in
// column-major layout: one contiguous int64 column per schema attribute
// (coords and measures alike — the Table row width). Batches are the unit
// of vectorized work in the map pipeline and the local aggregation engines:
// hierarchy level mapping, partition hashing, and group-by key assembly all
// run as tight per-column loops over a batch instead of per-row calls.
//
// Row-major `Table` stays the storage format; `TableScan` is the bridge
// that gathers a table's rows into reusable batches. The transpose costs
// one pass per batch and buys column-contiguous inner loops everywhere
// downstream; batch capacity is 4K rows (`kDefaultBatchRows`) so a full
// batch of typical width stays L2-resident.

#ifndef CASM_DATA_RECORD_BATCH_H_
#define CASM_DATA_RECORD_BATCH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace casm {

class Table;

/// Default batch capacity in rows: 4K rows x 8 bytes = 32 KiB per column,
/// small enough that a handful of columns stay cache-resident.
inline constexpr int64_t kDefaultBatchRows = 4096;

/// Fixed-capacity columnar record buffer. Column `c` of a batch with
/// capacity `cap` occupies storage [c*cap, c*cap + num_rows); rows beyond
/// num_rows() are scratch. Reused across scan steps — Clear() + AppendRows
/// never reallocate.
class RecordBatch {
 public:
  RecordBatch(int num_columns, int64_t capacity);

  int num_columns() const { return num_columns_; }
  int64_t capacity() const { return capacity_; }
  int64_t num_rows() const { return num_rows_; }
  bool empty() const { return num_rows_ == 0; }

  int64_t* column(int c) {
    return storage_.data() + static_cast<size_t>(c) * capacity_;
  }
  const int64_t* column(int c) const {
    return storage_.data() + static_cast<size_t>(c) * capacity_;
  }

  void Clear() { num_rows_ = 0; }

  /// Gathers `count` row-major records (stride = num_columns()) into the
  /// columns. Total rows must fit in capacity().
  void AppendRows(const int64_t* rows, int64_t count);

  /// Scatters record `r` back to row-major form; `out` must hold
  /// num_columns() values.
  void RowAt(int64_t r, int64_t* out) const {
    const int64_t* base = storage_.data() + r;
    for (int c = 0; c < num_columns_; ++c) out[c] = base[c * capacity_];
  }

 private:
  int num_columns_;
  int64_t capacity_;
  int64_t num_rows_ = 0;
  std::vector<int64_t> storage_;  // num_columns_ * capacity_ values
};

/// Batched cursor over a row range of a Table. The canonical loop:
///
///   RecordBatch batch(table.row_width(), batch_rows);
///   TableScan scan = table.Scan(batch_rows, begin, end);
///   while (scan.Next(&batch)) { ... batch.num_rows() records ... }
///
/// Next() refills `batch` from scratch (Clear + gather) and returns false
/// once the range is exhausted. `position()` is the table row index of the
/// current batch's first record.
class TableScan {
 public:
  TableScan(const Table& table, int64_t batch_rows, int64_t begin,
            int64_t end);

  bool Next(RecordBatch* batch);

  /// First table row of the batch most recently produced by Next().
  int64_t position() const { return position_; }
  int64_t batch_rows() const { return batch_rows_; }

 private:
  const Table* table_;
  int64_t batch_rows_;
  int64_t next_;
  int64_t end_;
  int64_t position_ = 0;
};

}  // namespace casm

#endif  // CASM_DATA_RECORD_BATCH_H_

// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.
//
// External merge sort of fixed-width int64 records (the reducer-side
// "collect pairs and use external sorting to group pairs with the same
// key" of paper §III-A). When the input fits the memory budget it is a
// plain in-memory sort; otherwise sorted runs are spilled to temporary
// files and k-way merged, at most 64 runs at a time (in passes when more
// were spilled, so the open files stay bounded).
//
// Every sort here is stable: records that compare equal leave in the
// order they arrived in, and merges break ties by run index. The
// framework sort orders flat [key..., value...] pairs by key (PairOrder)
// with SortPairs, a radix sort over a key normalized per run; the
// comparator entry points (RecordLess) sort to the same order when the
// comparator is the key order, one comparator call per comparison.

#ifndef CASM_MR_EXTERNAL_SORT_H_
#define CASM_MR_EXTERNAL_SORT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/result.h"

namespace casm {

namespace obs {
class Context;
}  // namespace obs

struct ExternalSortOptions {
  /// Maximum records held in memory at once; 0 = unlimited (pure
  /// in-memory sort).
  int64_t memory_limit_records = 0;
  /// Directory for spill files; empty = std::filesystem::temp_directory_path().
  std::string temp_dir;
  /// The run's observability context (obs/event.h): each spilled run is
  /// observed as a sort spill. Not owned; may be null.
  const obs::Context* obs = nullptr;
  /// Test-only: invoked after all runs have been spilled, before the
  /// merge opens them. Lets fault-injection tests corrupt or truncate a
  /// run on disk to exercise the merge's error paths.
  std::function<void(const std::vector<std::string>& run_paths)>
      post_spill_hook;
};

struct ExternalSortStats {
  int64_t runs_spilled = 0;
  int64_t records_spilled = 0;
};

/// Record comparator over two record pointers (each `width` int64s).
using RecordLess = std::function<bool(const int64_t*, const int64_t*)>;

/// The framework sort's order over flat records of `width` int64s whose
/// first `key_width` are the key: lexicographic over the key columns as
/// signed int64s, then, only when `value_less` is set, by `value_less`
/// over the value columns (it is handed `record + key_width`; the
/// combined sort of paper §III-D). Records equal under both keep their
/// input order.
struct PairOrder {
  int width = 1;
  int key_width = 1;
  RecordLess value_less;
};

/// Builds a spill-file path that is unique across concurrent processes
/// sharing `dir`: "<dir>/<prefix>_<pid>_<token>_<seq><ext>", where
/// `token` is a per-process random value drawn once at first use. A
/// process-local counter alone is NOT enough: two `ctest -j` workers
/// both counting from zero would open the same file and corrupt each
/// other's merges.
std::string SpillFilePath(const std::string& dir, const char* prefix,
                          uint64_t seq, const char* ext);

/// Stable in-memory sort of a flat buffer of records by `order`: the
/// framework sort's kernel, and ExternalSort's run formation.
///
/// An LSD radix sort over a key normalized for this input: each key
/// column is offset by its minimum (in unsigned arithmetic, so keys
/// spanning INT64_MIN..INT64_MAX work), constant columns are dropped,
/// and the rest are packed, most significant first, into as few 64-bit
/// words as their value ranges need. Only the bytes of the packed width
/// get a pass and a byte that is the same in every record gets none;
/// the passes move each record's packed key word and a 4-byte index,
/// and the records move once, permuted in place in `records`, which is
/// returned. Under `order.value_less`
/// each run of equal keys is stably sorted by it before the records
/// move. Scratch: 24 bytes per record, plus 8 per packed word when the
/// key takes more than one word, all freed before it returns.
std::vector<int64_t> SortPairs(std::vector<int64_t> records,
                               const PairOrder& order);

/// Stable in-memory sort of a flat buffer of `width`-int64 records by
/// `less`, one comparator call per comparison. Kept for the layer
/// replay in perfbench/, which still times the comparator sort; the
/// framework sort uses SortPairs.
std::vector<int64_t> SortRecords(std::vector<int64_t> records, int width,
                                 const RecordLess& less);

/// Appends `records` (raw int64s) to the spill file at `path`, creating
/// it if needed. Returns the offset — in int64s from the start of the
/// file — at which the run begins.
Result<int64_t> AppendRun(const std::string& path,
                          const std::vector<int64_t>& records);

/// Reads `count_int64s` int64s starting `offset_int64s` into a spill file
/// written by AppendRun.
Result<std::vector<int64_t>> ReadRun(const std::string& path,
                                     int64_t offset_int64s,
                                     int64_t count_int64s);

/// K-way merges `runs` — each a flat buffer of `width`-int64 records
/// already sorted by `less` — into one sorted flat buffer. Records equal
/// under `less` leave in run order, so stably sorted runs merge into the
/// stable sort of their concatenation. The in-memory counterpart of
/// ExternalSort's spill-file merge.
std::vector<int64_t> MergeSortedRuns(std::vector<std::vector<int64_t>> runs,
                                     int width, const RecordLess& less);

/// Stably sorts `records` (flattened rows of `order.width` int64s) by
/// `order`, spilling to disk when the memory budget is exceeded: runs of
/// `memory_limit_records` are sorted by SortPairs and spilled, and the
/// k-way merges compare keys inline, breaking ties by run index. Returns
/// the sorted flat buffer, identical to SortPairs over the whole input.
/// Every spill file is deleted before it returns, on success and on
/// error. `stats` (may be null) counts the initial runs only, not the
/// runs intermediate merge passes write.
Result<std::vector<int64_t>> ExternalSort(std::vector<int64_t> records,
                                          const PairOrder& order,
                                          const ExternalSortOptions& options,
                                          ExternalSortStats* stats);

/// ExternalSort by an arbitrary comparator: runs are sorted by
/// SortRecords and merged by `less`, ties by run index, so the result is
/// the stable sort of `records` by `less`.
Result<std::vector<int64_t>> ExternalSort(std::vector<int64_t> records,
                                          int width, const RecordLess& less,
                                          const ExternalSortOptions& options,
                                          ExternalSortStats* stats);

}  // namespace casm

#endif  // CASM_MR_EXTERNAL_SORT_H_

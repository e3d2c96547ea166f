// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.
//
// External merge sort of fixed-width int64 records (the reducer-side
// "collect pairs and use external sorting to group pairs with the same
// key" of paper §III-A). When the input fits the memory budget it is a
// plain in-memory sort; otherwise sorted runs are spilled to temporary
// files and k-way merged, at most 64 runs at a time (in passes when more
// were spilled, so the open files stay bounded).

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

/// Builds a spill-file path that is unique across concurrent processes
/// sharing `dir`: "<dir>/<prefix>_<pid>_<token>_<seq><ext>", where
/// `token` is a per-process random value drawn once at first use. A
/// process-local counter alone is NOT enough: two `ctest -j` workers
/// both counting from zero would open the same file and corrupt each
/// other's merges.
std::string SpillFilePath(const std::string& dir, const char* prefix,
                          uint64_t seq, const char* ext);

/// In-memory sort of a flat buffer of `width`-int64 records by `less`
/// (the run-formation step of the external sort, exposed for map-side
/// spilling: the Emitter sorts each run by key before writing it).
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

/// Appends `records` — row-major `width`-int64 records — as a *column
/// block* run: on disk the run holds column 0 of every record, then
/// column 1, and so on (n values per column for an n-record run). Offsets
/// and lengths are identical to AppendRun (the transpose is in-place in
/// the run region), so SpillSegment bookkeeping works unchanged; pair it
/// with ReadColumnRun, which transposes back. Column blocks turn the
/// spill write into `width` long sequential value streams — the layout
/// the batched emitters and any future per-column compression want.
Result<int64_t> AppendColumnRun(const std::string& path,
                                const std::vector<int64_t>& records,
                                int width);

/// Reads a column-block run written by AppendColumnRun and returns it
/// transposed back to row-major records — byte-identical to what was
/// passed to AppendColumnRun. `count_int64s` must be a multiple of
/// `width`.
Result<std::vector<int64_t>> ReadColumnRun(const std::string& path,
                                           int64_t offset_int64s,
                                           int64_t count_int64s, int width);

/// K-way merges `runs` — each a flat buffer of `width`-int64 records
/// already sorted by `less` — into one sorted flat buffer. The in-memory
/// counterpart of ExternalSort's spill-file merge: the shuffle uses it to
/// merge pre-sorted map-side spill runs instead of re-sorting their
/// concatenation (O(n log k) comparisons for k runs vs O(n log n)).
std::vector<int64_t> MergeSortedRuns(std::vector<std::vector<int64_t>> runs,
                                     int width, const RecordLess& less);

/// Sorts `records` (flattened rows of `width` int64s) by `less`, spilling
/// to disk when the memory budget is exceeded. Returns the sorted flat
/// buffer. Every spill file is deleted before it returns, on success and
/// on error. `stats` (may be null) counts the initial runs only, not the
/// runs intermediate merge passes write.
Result<std::vector<int64_t>> ExternalSort(std::vector<int64_t> records,
                                          int width, const RecordLess& less,
                                          const ExternalSortOptions& options,
                                          ExternalSortStats* stats);

}  // namespace casm

#endif  // CASM_MR_EXTERNAL_SORT_H_

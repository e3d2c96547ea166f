// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.

#include "mr/external_sort.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <numeric>
#include <queue>
#include <random>

#include "common/logging.h"
#include "obs/event.h"

namespace casm {
namespace {

/// Sorts a flat buffer of `count` rows of `width` int64s via an index
/// permutation and materializes the permuted buffer.
std::vector<int64_t> SortFlat(std::vector<int64_t> records, int width,
                              const RecordLess& less) {
  const int64_t count = static_cast<int64_t>(records.size()) / width;
  std::vector<int64_t> order(static_cast<size_t>(count));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
    return less(records.data() + a * width, records.data() + b * width);
  });
  std::vector<int64_t> sorted;
  sorted.reserve(records.size());
  for (int64_t i : order) {
    const int64_t* row = records.data() + i * width;
    sorted.insert(sorted.end(), row, row + width);
  }
  return sorted;
}

/// One spilled sorted run with a small read buffer.
class RunReader {
 public:
  RunReader(const std::string& path, int width, int64_t buffer_records)
      : path_(path),
        width_(width),
        buffer_records_(std::max<int64_t>(1, buffer_records)) {
    file_ = std::fopen(path.c_str(), "rb");
  }
  ~RunReader() {
    if (file_ != nullptr) std::fclose(file_);
    std::remove(path_.c_str());
  }

  bool ok() const { return file_ != nullptr; }

  /// Non-OK when an fread failed mid-run. A short read without ferror
  /// (an externally truncated run) is NOT distinguishable from EOF here;
  /// ExternalSort catches it by checking the merged record count.
  const Status& status() const { return status_; }

  /// Pointer to the current record, or nullptr at end of run.
  const int64_t* Current() {
    if (pos_ >= available_ && !Refill()) return nullptr;
    return buffer_.data() + pos_ * width_;
  }

  void Next() { ++pos_; }

 private:
  bool Refill() {
    if (!status_.ok()) return false;
    buffer_.resize(static_cast<size_t>(buffer_records_ * width_));
    size_t read = std::fread(buffer_.data(), sizeof(int64_t),
                             buffer_.size(), file_);
    if (read < buffer_.size() && std::ferror(file_) != 0) {
      status_ = Status::Internal("read error in spill file " + path_);
      available_ = 0;
      pos_ = 0;
      return false;
    }
    available_ = static_cast<int64_t>(read) / width_;
    pos_ = 0;
    return available_ > 0;
  }

  std::string path_;
  int width_;
  int64_t buffer_records_;
  std::FILE* file_ = nullptr;
  std::vector<int64_t> buffer_;
  int64_t pos_ = 0;
  int64_t available_ = 0;
  Status status_ = Status::OK();
};

/// Most spilled runs one merge opens at once (one FILE* each): a larger
/// run set is merged in passes, so the open files stay bounded however
/// small memory_limit_records is relative to the input.
constexpr size_t kMaxMergeFanIn = 64;

/// The spill run files of one ExternalSort call. Every listed file is
/// deleted on destruction, so no return path leaks a run.
struct RunFiles {
  RunFiles() = default;
  RunFiles(const RunFiles&) = delete;
  RunFiles& operator=(const RunFiles&) = delete;
  ~RunFiles() {
    for (const std::string& path : paths) std::remove(path.c_str());
  }

  std::vector<std::string> paths;
};

/// K-way merges the sorted runs `paths[begin, end)`, each read through a
/// buffer of `buffer_records` records, handing every record to `sink` in
/// `less` order. Returns the first open or read error.
template <typename Sink>
Status MergeRunFiles(const std::vector<std::string>& paths, size_t begin,
                     size_t end, int width, const RecordLess& less,
                     int64_t buffer_records, Sink&& sink) {
  std::vector<std::unique_ptr<RunReader>> runs;
  for (size_t i = begin; i < end; ++i) {
    auto reader = std::make_unique<RunReader>(paths[i], width, buffer_records);
    if (!reader->ok()) {
      return Status::Internal("cannot reopen spill file " + paths[i]);
    }
    runs.push_back(std::move(reader));
  }

  auto heap_greater = [&](size_t a, size_t b) {
    // std::priority_queue is a max-heap; invert.
    return less(runs[b]->Current(), runs[a]->Current());
  };
  std::priority_queue<size_t, std::vector<size_t>, decltype(heap_greater)>
      heap(heap_greater);
  for (size_t r = 0; r < runs.size(); ++r) {
    if (runs[r]->Current() != nullptr) heap.push(r);
  }
  while (!heap.empty()) {
    size_t r = heap.top();
    heap.pop();
    sink(runs[r]->Current());
    runs[r]->Next();
    if (runs[r]->Current() != nullptr) heap.push(r);
  }
  for (const std::unique_ptr<RunReader>& run : runs) {
    if (!run->status().ok()) return run->status();
  }
  return Status::OK();
}

}  // namespace

std::string SpillFilePath(const std::string& dir, const char* prefix,
                          uint64_t seq, const char* ext) {
  // One random token per process, drawn lazily: PID alone is not enough
  // on systems that recycle PIDs quickly, and the token alone is not
  // enough if a PRNG is seeded identically — combine both.
  static const uint64_t token = [] {
    std::random_device rd;
    return (static_cast<uint64_t>(rd()) << 32) ^ rd();
  }();
  char tag[64];
  std::snprintf(tag, sizeof(tag), "_%d_%016llx_", static_cast<int>(::getpid()),
                static_cast<unsigned long long>(token));
  return dir + "/" + prefix + tag + std::to_string(seq) + ext;
}

std::vector<int64_t> SortRecords(std::vector<int64_t> records, int width,
                                 const RecordLess& less) {
  CASM_CHECK_GE(width, 1);
  CASM_CHECK_EQ(static_cast<int64_t>(records.size()) % width, 0);
  return SortFlat(std::move(records), width, less);
}

Result<int64_t> AppendRun(const std::string& path,
                          const std::vector<int64_t>& records) {
  std::FILE* file = std::fopen(path.c_str(), "ab");
  if (file == nullptr) {
    return Status::Internal("cannot open spill file " + path);
  }
  // C11 leaves the initial position of an append-mode stream
  // implementation-defined (MSVC reports 0 until the first write); the
  // returned run offset must be the current end of file.
  if (std::fseek(file, 0, SEEK_END) != 0) {
    std::fclose(file);
    return Status::Internal("cannot position in spill file " + path);
  }
  const long offset_bytes = std::ftell(file);
  if (offset_bytes < 0) {
    std::fclose(file);
    return Status::Internal("cannot position in spill file " + path);
  }
  const size_t written =
      std::fwrite(records.data(), sizeof(int64_t), records.size(), file);
  std::fclose(file);
  if (written != records.size()) {
    return Status::Internal("short write to spill file " + path);
  }
  return static_cast<int64_t>(offset_bytes) /
         static_cast<int64_t>(sizeof(int64_t));
}

Result<std::vector<int64_t>> ReadRun(const std::string& path,
                                     int64_t offset_int64s,
                                     int64_t count_int64s) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Status::Internal("cannot reopen spill file " + path);
  }
  std::vector<int64_t> out(static_cast<size_t>(count_int64s));
  const int64_t offset_bytes =
      offset_int64s * static_cast<int64_t>(sizeof(int64_t));
  if (std::fseek(file, static_cast<long>(offset_bytes), SEEK_SET) != 0) {
    std::fclose(file);
    return Status::Internal("cannot seek in spill file " + path);
  }
  const size_t read =
      std::fread(out.data(), sizeof(int64_t), out.size(), file);
  std::fclose(file);
  if (read != out.size()) {
    return Status::Internal("short read from spill file " + path);
  }
  return out;
}

Result<int64_t> AppendColumnRun(const std::string& path,
                                const std::vector<int64_t>& records,
                                int width) {
  CASM_CHECK_GE(width, 1);
  CASM_CHECK_EQ(static_cast<int64_t>(records.size()) % width, 0);
  const int64_t count = static_cast<int64_t>(records.size()) / width;
  std::vector<int64_t> columns(records.size());
  for (int c = 0; c < width; ++c) {
    int64_t* dst = columns.data() + static_cast<size_t>(c) * count;
    const int64_t* src = records.data() + c;
    for (int64_t r = 0; r < count; ++r) {
      dst[r] = src[static_cast<size_t>(r) * width];
    }
  }
  return AppendRun(path, columns);
}

Result<std::vector<int64_t>> ReadColumnRun(const std::string& path,
                                           int64_t offset_int64s,
                                           int64_t count_int64s, int width) {
  CASM_CHECK_GE(width, 1);
  CASM_CHECK_EQ(count_int64s % width, 0);
  Result<std::vector<int64_t>> columns =
      ReadRun(path, offset_int64s, count_int64s);
  CASM_RETURN_IF_ERROR(columns.status());
  const int64_t count = count_int64s / width;
  std::vector<int64_t> records(static_cast<size_t>(count_int64s));
  for (int c = 0; c < width; ++c) {
    const int64_t* src = columns.value().data() + static_cast<size_t>(c) * count;
    int64_t* dst = records.data() + c;
    for (int64_t r = 0; r < count; ++r) {
      dst[static_cast<size_t>(r) * width] = src[r];
    }
  }
  return records;
}

std::vector<int64_t> MergeSortedRuns(std::vector<std::vector<int64_t>> runs,
                                     int width, const RecordLess& less) {
  CASM_CHECK_GE(width, 1);
  size_t total = 0;
  for (const std::vector<int64_t>& run : runs) {
    CASM_CHECK_EQ(static_cast<int64_t>(run.size()) % width, 0);
    total += run.size();
  }
  std::vector<size_t> pos(runs.size(), 0);
  auto head = [&](size_t r) { return runs[r].data() + pos[r]; };
  auto heap_greater = [&](size_t a, size_t b) {
    // std::priority_queue is a max-heap; invert.
    return less(head(b), head(a));
  };
  std::priority_queue<size_t, std::vector<size_t>, decltype(heap_greater)>
      heap(heap_greater);
  for (size_t r = 0; r < runs.size(); ++r) {
    if (!runs[r].empty()) heap.push(r);
  }
  std::vector<int64_t> merged;
  merged.reserve(total);
  while (!heap.empty()) {
    size_t r = heap.top();
    heap.pop();
    const int64_t* row = head(r);
    merged.insert(merged.end(), row, row + width);
    pos[r] += static_cast<size_t>(width);
    if (pos[r] < runs[r].size()) heap.push(r);
  }
  CASM_CHECK_EQ(merged.size(), total);
  return merged;
}

Result<std::vector<int64_t>> ExternalSort(std::vector<int64_t> records,
                                          int width, const RecordLess& less,
                                          const ExternalSortOptions& options,
                                          ExternalSortStats* stats) {
  CASM_CHECK_GE(width, 1);
  CASM_CHECK_EQ(static_cast<int64_t>(records.size()) % width, 0);
  const int64_t count = static_cast<int64_t>(records.size()) / width;
  const int64_t limit = options.memory_limit_records;
  if (limit <= 0 || count <= limit) {
    return SortFlat(std::move(records), width, less);
  }

  // Spill sorted runs of `limit` records each.
  std::string dir = options.temp_dir.empty()
                        ? std::filesystem::temp_directory_path().string()
                        : options.temp_dir;
  static std::atomic<uint64_t> counter{0};
  RunFiles runs;
  for (int64_t begin = 0; begin < count; begin += limit) {
    const int64_t run_count = std::min(limit, count - begin);
    std::vector<int64_t> run(
        records.begin() + begin * width,
        records.begin() + (begin + run_count) * width);
    run = SortFlat(std::move(run), width, less);
    runs.paths.push_back(
        SpillFilePath(dir, "casm_sort", counter.fetch_add(1), ".run"));
    const std::string& path = runs.paths.back();
    std::FILE* file = std::fopen(path.c_str(), "wb");
    if (file == nullptr) {
      return Status::Internal("cannot create spill file " + path);
    }
    size_t written =
        std::fwrite(run.data(), sizeof(int64_t), run.size(), file);
    std::fclose(file);
    if (written != run.size()) {
      return Status::Internal("short write to spill file " + path);
    }
    if (stats != nullptr) {
      ++stats->runs_spilled;
      stats->records_spilled += run_count;
    }
    obs::Observe(options.obs, {.kind = obs::Kind::kSortSpill,
                               .n = {run_count}});
  }
  records.clear();
  records.shrink_to_fit();
  if (options.post_spill_hook) options.post_spill_hook(runs.paths);

  // Intermediate passes: while more runs remain than one merge may open,
  // merge each group of kMaxMergeFanIn consecutive runs into a new run.
  while (runs.paths.size() > kMaxMergeFanIn) {
    RunFiles merged;
    for (size_t begin = 0; begin < runs.paths.size();
         begin += kMaxMergeFanIn) {
      const size_t end = std::min(runs.paths.size(), begin + kMaxMergeFanIn);
      merged.paths.push_back(
          SpillFilePath(dir, "casm_sort", counter.fetch_add(1), ".run"));
      const std::string& path = merged.paths.back();
      std::FILE* file = std::fopen(path.c_str(), "wb");
      if (file == nullptr) {
        return Status::Internal("cannot create spill file " + path);
      }
      bool written = true;
      const Status merge_status = MergeRunFiles(
          runs.paths, begin, end, width, less,
          std::max<int64_t>(1, limit / static_cast<int64_t>(end - begin)),
          [&](const int64_t* row) {
            written &= std::fwrite(row, sizeof(int64_t), width, file) ==
                       static_cast<size_t>(width);
          });
      written &= std::fclose(file) == 0;
      CASM_RETURN_IF_ERROR(merge_status);
      if (!written) {
        return Status::Internal("short write to spill file " + path);
      }
    }
    // `merged` now holds the consumed runs and deletes them.
    std::swap(runs.paths, merged.paths);
  }

  // Final pass: a single k-way merge into the output buffer.
  std::vector<int64_t> sorted;
  sorted.reserve(static_cast<size_t>(count * width));
  CASM_RETURN_IF_ERROR(MergeRunFiles(
      runs.paths, 0, runs.paths.size(), width, less,
      std::max<int64_t>(1, limit / static_cast<int64_t>(runs.paths.size())),
      [&](const int64_t* row) {
        sorted.insert(sorted.end(), row, row + width);
      }));
  // A run can end early for two reasons, neither of which is a clean
  // sort: an fread error (ferror set, surfaced by the merge) or a run
  // file truncated on disk (fread sees a short, error-free read that is
  // indistinguishable from EOF). Both must surface as Status, not as a
  // crash in a release build's CHECK.
  if (static_cast<int64_t>(sorted.size()) != count * width) {
    return Status::Internal(
        "spill run truncated: merged " +
        std::to_string(sorted.size() / width) + " of " +
        std::to_string(count) + " records");
  }
  return sorted;
}

}  // namespace casm

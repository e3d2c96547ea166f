// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.

#include "mr/external_sort.h"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <memory>
#include <numeric>
#include <queue>
#include <random>

#include "common/logging.h"
#include "obs/event.h"

namespace casm {
namespace {

int CompareKeys(const int64_t* a, const int64_t* b, int width) {
  for (int i = 0; i < width; ++i) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

/// One key column of a normalized key: the column's value minus `min`
/// fills `bits` bits from bit `shift` of packed word `word` (word 0 is
/// the least significant) and carries into word + 1 past bit 63.
struct PackedColumn {
  int column;
  uint64_t min;
  int word;
  int shift;
  int bits;
};

/// The normalized key of one sort input: its non-constant key columns,
/// least significant first, and their summed width in bits.
struct KeyPacking {
  std::vector<PackedColumn> columns;
  int bits = 0;

  int words() const { return (bits + 63) / 64; }
};

KeyPacking PlanPacking(const int64_t* records, size_t count, int width,
                       int key_width) {
  std::vector<int64_t> lo(records, records + key_width);
  std::vector<int64_t> hi = lo;
  for (size_t i = 1; i < count; ++i) {
    const int64_t* row = records + i * static_cast<size_t>(width);
    for (int c = 0; c < key_width; ++c) {
      lo[c] = std::min(lo[c], row[c]);
      hi[c] = std::max(hi[c], row[c]);
    }
  }
  KeyPacking packing;
  for (int c = key_width - 1; c >= 0; --c) {
    const uint64_t range =
        static_cast<uint64_t>(hi[c]) - static_cast<uint64_t>(lo[c]);
    if (range == 0) continue;  // a constant column orders nothing
    const int bits = static_cast<int>(std::bit_width(range));
    packing.columns.push_back({c, static_cast<uint64_t>(lo[c]),
                               packing.bits / 64, packing.bits % 64, bits});
    packing.bits += bits;
  }
  return packing;
}

constexpr int kDigitBits = 8;
constexpr int kBuckets = 1 << kDigitBits;

/// The stable key order of `count` records as an index permutation, by
/// an LSD radix sort over their packed keys; empty when every key is
/// equal (the input order is the order).
std::vector<uint32_t> RadixOrder(const int64_t* records, size_t count,
                                 int width, int key_width) {
  const KeyPacking packing = PlanPacking(records, count, width, key_width);
  const int words = packing.words();
  const int digits = (packing.bits + kDigitBits - 1) / kDigitBits;
  constexpr int kDigitsPerWord = 64 / kDigitBits;
  auto digit_of = [](const uint64_t* key, int d) {
    return static_cast<size_t>(
        (key[d / kDigitsPerWord] >> (d % kDigitsPerWord * kDigitBits)) &
        (kBuckets - 1));
  };

  // Pack every key and count every digit's values in one pass.
  std::vector<uint64_t> keys(count * static_cast<size_t>(words), 0);
  std::vector<std::array<uint32_t, kBuckets>> histograms(
      static_cast<size_t>(digits));
  for (size_t i = 0; i < count; ++i) {
    const int64_t* row = records + i * static_cast<size_t>(width);
    uint64_t* key = keys.data() + i * static_cast<size_t>(words);
    for (const PackedColumn& c : packing.columns) {
      const uint64_t v = static_cast<uint64_t>(row[c.column]) - c.min;
      key[c.word] |= v << c.shift;
      if (c.shift + c.bits > 64) key[c.word + 1] |= v >> (64 - c.shift);
    }
    for (int d = 0; d < digits; ++d) ++histograms[d][digit_of(key, d)];
  }
  // A digit every record shares needs no pass.
  std::vector<bool> pass(static_cast<size_t>(digits));
  bool any_pass = false;
  for (int d = 0; d < digits; ++d) {
    pass[d] = histograms[d][digit_of(keys.data(), d)] != count;
    any_pass |= pass[d];
  }
  if (!any_pass) return {};

  std::vector<uint32_t> order(count);
  std::vector<uint32_t> next_order(count);
  std::iota(order.begin(), order.end(), 0u);
  std::vector<uint64_t> word_keys;  // the current word of each key, in order
  std::vector<uint64_t> next_keys(count);
  for (int w = 0; w < words; ++w) {
    const int first = w * kDigitsPerWord;
    const int last = std::min(digits, first + kDigitsPerWord);
    if (std::none_of(pass.begin() + first, pass.begin() + last,
                     [](bool p) { return p; })) {
      continue;
    }
    if (words == 1) {
      word_keys = std::move(keys);
    } else {
      word_keys.resize(count);
      for (size_t i = 0; i < count; ++i) {
        word_keys[i] = keys[order[i] * static_cast<size_t>(words) + w];
      }
    }
    for (int d = first; d < last; ++d) {
      if (!pass[d]) continue;
      std::array<uint32_t, kBuckets> offsets;
      uint32_t sum = 0;
      for (int b = 0; b < kBuckets; ++b) {
        offsets[b] = sum;
        sum += histograms[d][b];
      }
      const int shift = d % kDigitsPerWord * kDigitBits;
      for (size_t i = 0; i < count; ++i) {
        const uint64_t k = word_keys[i];
        const uint32_t at = offsets[(k >> shift) & (kBuckets - 1)]++;
        next_keys[at] = k;
        next_order[at] = order[i];
      }
      std::swap(word_keys, next_keys);
      std::swap(order, next_order);
    }
  }
  return order;
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

/// Three-way record comparison (negative, zero, positive) from a
/// comparator: the merges need "equal" to break ties by run index.
auto ThreeWay(const RecordLess& less) {
  return [&less](const int64_t* a, const int64_t* b) {
    return less(a, b) ? -1 : (less(b, a) ? 1 : 0);
  };
}

/// Three-way comparison in `order`, keys compared inline.
auto ThreeWay(const PairOrder& order) {
  return [&order](const int64_t* a, const int64_t* b) {
    const int c = CompareKeys(a, b, order.key_width);
    if (c != 0 || !order.value_less) return c;
    const int64_t* va = a + order.key_width;
    const int64_t* vb = b + order.key_width;
    return order.value_less(va, vb) ? -1 : (order.value_less(vb, va) ? 1 : 0);
  };
}

/// Pops runs `0 .. num_runs-1` in merge order: the run whose head
/// record (`head(r)`, null once run r is exhausted) is least under
/// `compare`, the lowest run index among equal heads, so stably sorted
/// runs merge stably. `emit(r)` consumes run r's head and advances it.
template <typename Head, typename Compare, typename Emit>
void MergeHeads(size_t num_runs, Head&& head, const Compare& compare,
                Emit&& emit) {
  auto heap_greater = [&](size_t a, size_t b) {
    // std::priority_queue is a max-heap: the greater (record, run) pair
    // sinks.
    const int c = compare(head(a), head(b));
    return c != 0 ? c > 0 : a > b;
  };
  std::priority_queue<size_t, std::vector<size_t>, decltype(heap_greater)>
      heap(heap_greater);
  for (size_t r = 0; r < num_runs; ++r) {
    if (head(r) != nullptr) heap.push(r);
  }
  while (!heap.empty()) {
    const size_t r = heap.top();
    heap.pop();
    emit(r);
    if (head(r) != nullptr) heap.push(r);
  }
}

/// K-way merges the sorted runs `paths[begin, end)`, each read through a
/// buffer of `buffer_records` records, handing every record to `sink` in
/// `compare` order, ties in run order. Returns the first open or read
/// error.
template <typename Compare, typename Sink>
Status MergeRunFiles(const std::vector<std::string>& paths, size_t begin,
                     size_t end, int width, const Compare& compare,
                     int64_t buffer_records, Sink&& sink) {
  std::vector<std::unique_ptr<RunReader>> runs;
  for (size_t i = begin; i < end; ++i) {
    auto reader = std::make_unique<RunReader>(paths[i], width, buffer_records);
    if (!reader->ok()) {
      return Status::Internal("cannot reopen spill file " + paths[i]);
    }
    runs.push_back(std::move(reader));
  }
  MergeHeads(
      runs.size(), [&](size_t r) { return runs[r]->Current(); }, compare,
      [&](size_t r) {
        sink(runs[r]->Current());
        runs[r]->Next();
      });
  for (const std::unique_ptr<RunReader>& run : runs) {
    if (!run->status().ok()) return run->status();
  }
  return Status::OK();
}

/// ExternalSort past its memory limit: sorts runs of `limit` records
/// with `sort_run`, spills them, and merges them by `compare`.
template <typename SortRun, typename Compare>
Result<std::vector<int64_t>> SpillAndMerge(std::vector<int64_t> records,
                                           int width, int64_t limit,
                                           SortRun&& sort_run,
                                           const Compare& compare,
                                           const ExternalSortOptions& options,
                                           ExternalSortStats* stats) {
  const int64_t count = static_cast<int64_t>(records.size()) / width;
  // Spill sorted runs of `limit` records each.
  std::string dir = options.temp_dir.empty()
                        ? std::filesystem::temp_directory_path().string()
                        : options.temp_dir;
  static std::atomic<uint64_t> counter{0};
  RunFiles runs;
  for (int64_t begin = 0; begin < count; begin += limit) {
    const int64_t run_count = std::min(limit, count - begin);
    std::vector<int64_t> run = sort_run(std::vector<int64_t>(
        records.begin() + begin * width,
        records.begin() + (begin + run_count) * width));
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
  // Consecutive groups keep the runs in input order, so ties stay
  // stable across passes.
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
          runs.paths, begin, end, width, compare,
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
      runs.paths, 0, runs.paths.size(), width, compare,
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

std::vector<int64_t> SortPairs(std::vector<int64_t> records,
                               const PairOrder& order) {
  const int width = order.width;
  const int key_width = order.key_width;
  CASM_CHECK_GE(key_width, 1);
  CASM_CHECK_LE(key_width, width);
  CASM_CHECK_EQ(static_cast<int64_t>(records.size()) % width, 0);
  const size_t count = records.size() / static_cast<size_t>(width);
  CASM_CHECK_LE(count, size_t{std::numeric_limits<uint32_t>::max()});
  if (count <= 1) return records;
  std::vector<uint32_t> perm =
      RadixOrder(records.data(), count, width, key_width);
  auto row = [&](size_t i) { return records.data() + i * width; };
  if (order.value_less) {
    // Combined sort: order each run of equal keys by the value order.
    // The run's indices ascend, so stable_sort keeps equal values in
    // input order.
    if (perm.empty()) {
      perm.resize(count);
      std::iota(perm.begin(), perm.end(), 0u);
    }
    auto value_less = [&](uint32_t a, uint32_t b) {
      return order.value_less(row(a) + key_width, row(b) + key_width);
    };
    for (size_t begin = 0, end; begin < count; begin = end) {
      end = begin + 1;
      while (end < count &&
             CompareKeys(row(perm[begin]), row(perm[end]), key_width) == 0) {
        ++end;
      }
      if (end - begin > 1) {
        std::stable_sort(perm.begin() + begin, perm.begin() + end,
                         value_less);
      }
    }
  }
  // Permute in place, one cycle at a time: record perm[j] belongs at j.
  // Each record moves once and no second buffer is allocated; a placed
  // position is marked by perm[j] == j.
  std::vector<int64_t> held(static_cast<size_t>(width));
  for (size_t i = 0; i < perm.size(); ++i) {
    if (perm[i] == i) continue;
    std::copy_n(row(i), width, held.begin());
    size_t j = i;
    for (size_t k = perm[j]; k != i; j = k, k = perm[j]) {
      std::copy_n(row(k), width, row(j));
      perm[j] = static_cast<uint32_t>(j);
    }
    std::copy_n(held.begin(), width, row(j));
    perm[j] = static_cast<uint32_t>(j);
  }
  return records;
}

std::vector<int64_t> SortRecords(std::vector<int64_t> records, int width,
                                 const RecordLess& less) {
  CASM_CHECK_GE(width, 1);
  CASM_CHECK_EQ(static_cast<int64_t>(records.size()) % width, 0);
  // A stable sort of an index permutation, then one gather.
  const int64_t count = static_cast<int64_t>(records.size()) / width;
  std::vector<int64_t> order(static_cast<size_t>(count));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
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
  std::vector<int64_t> merged;
  merged.reserve(total);
  MergeHeads(
      runs.size(),
      [&](size_t r) -> const int64_t* {
        return pos[r] < runs[r].size() ? runs[r].data() + pos[r] : nullptr;
      },
      ThreeWay(less),
      [&](size_t r) {
        const int64_t* row = runs[r].data() + pos[r];
        merged.insert(merged.end(), row, row + width);
        pos[r] += static_cast<size_t>(width);
      });
  CASM_CHECK_EQ(merged.size(), total);
  return merged;
}

Result<std::vector<int64_t>> ExternalSort(std::vector<int64_t> records,
                                          const PairOrder& order,
                                          const ExternalSortOptions& options,
                                          ExternalSortStats* stats) {
  const int width = order.width;
  CASM_CHECK_GE(width, 1);
  CASM_CHECK_EQ(static_cast<int64_t>(records.size()) % width, 0);
  const int64_t count = static_cast<int64_t>(records.size()) / width;
  const int64_t limit = options.memory_limit_records;
  auto sort_run = [&order](std::vector<int64_t> run) {
    return SortPairs(std::move(run), order);
  };
  if (limit <= 0 || count <= limit) return sort_run(std::move(records));
  return SpillAndMerge(std::move(records), width, limit, sort_run,
                       ThreeWay(order), options, stats);
}

Result<std::vector<int64_t>> ExternalSort(std::vector<int64_t> records,
                                          int width, const RecordLess& less,
                                          const ExternalSortOptions& options,
                                          ExternalSortStats* stats) {
  CASM_CHECK_GE(width, 1);
  CASM_CHECK_EQ(static_cast<int64_t>(records.size()) % width, 0);
  const int64_t count = static_cast<int64_t>(records.size()) / width;
  const int64_t limit = options.memory_limit_records;
  auto sort_run = [width, &less](std::vector<int64_t> run) {
    return SortRecords(std::move(run), width, less);
  };
  if (limit <= 0 || count <= limit) return sort_run(std::move(records));
  return SpillAndMerge(std::move(records), width, limit, sort_run,
                       ThreeWay(less), options, stats);
}

}  // namespace casm

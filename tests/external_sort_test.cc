// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.
//
// Tests for the external merge sort and its engine integration: the
// radix kernel must equal std::stable_sort byte for byte, spilled sorts
// must be byte-identical to in-memory sorts, ties must leave in input
// order through every merge, stable end-to-end query results must
// survive arbitrarily small memory budgets, and spill activity must be
// reported.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <map>
#include <mutex>
#include <numeric>
#include <set>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/key_derivation.h"
#include "core/parallel_evaluator.h"
#include "local/reference_evaluator.h"
#include "mr/engine.h"
#include "mr/external_sort.h"
#include "queries/paper_data.h"
#include "queries/paper_queries.h"

namespace casm {
namespace {

std::vector<int64_t> RandomRecords(int64_t count, int width, uint64_t seed) {
  Rng rng(seed);
  std::vector<int64_t> records(static_cast<size_t>(count * width));
  for (int64_t& v : records) {
    v = static_cast<int64_t>(rng.Uniform(1000));
  }
  return records;
}

RecordLess LexLess(int width) {
  return [width](const int64_t* a, const int64_t* b) {
    for (int i = 0; i < width; ++i) {
      if (a[i] != b[i]) return a[i] < b[i];
    }
    return false;
  };
}

/// `order` as a record comparator, for the comparator entry points.
RecordLess PairLess(const PairOrder& order) {
  return [order](const int64_t* a, const int64_t* b) {
    for (int c = 0; c < order.key_width; ++c) {
      if (a[c] != b[c]) return a[c] < b[c];
    }
    return order.value_less != nullptr &&
           order.value_less(a + order.key_width, b + order.key_width);
  };
}

/// std::stable_sort by `order` over record positions: the reference the
/// radix kernel must match byte for byte.
std::vector<int64_t> StableSortReference(const std::vector<int64_t>& records,
                                         const PairOrder& order) {
  const size_t width = static_cast<size_t>(order.width);
  std::vector<size_t> positions(records.size() / width);
  std::iota(positions.begin(), positions.end(), size_t{0});
  const RecordLess less = PairLess(order);
  std::stable_sort(positions.begin(), positions.end(),
                   [&](size_t a, size_t b) {
                     return less(records.data() + a * width,
                                 records.data() + b * width);
                   });
  std::vector<int64_t> sorted;
  sorted.reserve(records.size());
  for (size_t p : positions) {
    sorted.insert(sorted.end(), records.begin() + p * width,
                  records.begin() + (p + 1) * width);
  }
  return sorted;
}

/// Orders values by their first column only, so records tie often.
bool FirstValueLess(const int64_t* a, const int64_t* b) { return a[0] < b[0]; }

/// A fresh, empty spill directory private to one test.
std::string SpillDir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "external_sort_" + tag;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// ExternalSort's run files ("casm_sort_*") left in `dir`.
int SortRunFilesIn(const std::string& dir) {
  int n = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().filename().string().rfind("casm_sort_", 0) == 0) ++n;
  }
  return n;
}

/// How the property test draws one key column.
enum class KeyDraw {
  kConstant,    // dropped from the packed key
  kFewValues,   // heavy ties
  kNegative,    // offset by a negative minimum
  kFullRange,   // INT64_MIN..INT64_MAX: a whole 64-bit word
  kExtremes,    // the int64 edges and zero
  kWide,        // 41 bits: several such columns straddle word boundaries
};

int64_t DrawKey(KeyDraw draw, Rng& rng, int64_t constant) {
  static constexpr int64_t kEdges[] = {
      std::numeric_limits<int64_t>::min(),
      std::numeric_limits<int64_t>::min() + 1, -1, 0, 1,
      std::numeric_limits<int64_t>::max() - 1,
      std::numeric_limits<int64_t>::max()};
  switch (draw) {
    case KeyDraw::kConstant: return constant;
    case KeyDraw::kFewValues: return rng.UniformRange(5, 7);
    case KeyDraw::kNegative: return rng.UniformRange(-300, 20);
    case KeyDraw::kFullRange: return static_cast<int64_t>(rng.Next());
    case KeyDraw::kExtremes: return kEdges[rng.Uniform(std::size(kEdges))];
    case KeyDraw::kWide: return rng.UniformRange(-(int64_t{1} << 40),
                                                 int64_t{1} << 40);
  }
  return 0;
}

TEST(SortPairsTest, MatchesStableSortOnRandomInputs) {
  // Seeded inputs over every key shape: records carry their input
  // position in the last column, so a tie leaving out of order changes
  // the bytes. Half the cases add a value order with heavy ties.
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng(seed);
    const int key_width = static_cast<int>(rng.UniformRange(1, 4));
    const int value_width = static_cast<int>(rng.UniformRange(0, 3));
    const int width = key_width + value_width;
    const uint64_t size_class = rng.Uniform(4);
    const int64_t count = size_class == 0   ? rng.UniformRange(0, 2)
                          : size_class == 1 ? rng.UniformRange(3, 40)
                                            : rng.UniformRange(41, 3000);
    std::vector<KeyDraw> draws;
    std::vector<int64_t> constants;
    for (int c = 0; c < key_width; ++c) {
      draws.push_back(static_cast<KeyDraw>(rng.Uniform(6)));
      constants.push_back(static_cast<int64_t>(rng.Next()));
    }
    std::vector<int64_t> records;
    for (int64_t i = 0; i < count; ++i) {
      for (int c = 0; c < key_width; ++c) {
        records.push_back(DrawKey(draws[c], rng, constants[c]));
      }
      for (int v = 0; v + 1 < value_width; ++v) {
        records.push_back(rng.UniformRange(-2, 2));
      }
      if (value_width > 0) records.push_back(i);
    }
    PairOrder order{width, key_width, {}};
    if (value_width > 0 && rng.Uniform(2) == 1) {
      order.value_less = FirstValueLess;
    }
    EXPECT_EQ(SortPairs(records, order), StableSortReference(records, order))
        << "seed=" << seed << " key_width=" << key_width
        << " width=" << width << " count=" << count
        << " value_less=" << (order.value_less != nullptr);
  }
}

TEST(SortPairsTest, EdgeShapes) {
  const PairOrder by_key{2, 1, {}};
  EXPECT_TRUE(SortPairs({}, by_key).empty());
  EXPECT_EQ(SortPairs({7, 1}, by_key), (std::vector<int64_t>{7, 1}));
  // Every key equal: input order, or the value order under value_less.
  const std::vector<int64_t> same_key = {4, 3, 4, 1, 4, 2, 4, 1};
  EXPECT_EQ(SortPairs(same_key, by_key), same_key);
  EXPECT_EQ(SortPairs(same_key, PairOrder{2, 1, FirstValueLess}),
            (std::vector<int64_t>{4, 1, 4, 1, 4, 2, 4, 3}));
  // The int64 edges order as signed values.
  const int64_t lo = std::numeric_limits<int64_t>::min();
  const int64_t hi = std::numeric_limits<int64_t>::max();
  EXPECT_EQ(SortPairs({hi, 0, 0, 1, lo, 2, -1, 3, lo, 4}, by_key),
            (std::vector<int64_t>{lo, 2, lo, 4, -1, 3, 0, 1, hi, 0}));
  // Two full-range key columns need two packed words.
  const std::vector<int64_t> two_words = {hi, lo, 9,  lo, hi, 8, hi, hi, 7,
                                          lo, lo, 6,  hi, lo, 5};
  EXPECT_EQ(SortPairs(two_words, PairOrder{3, 2, {}}),
            (std::vector<int64_t>{lo, lo, 6, lo, hi, 8, hi, lo, 9, hi, lo,
                                  5, hi, hi, 7}));
}

TEST(ExternalSortTest, SpilledKeySortEqualsInMemoryThroughBothEntryPoints) {
  // 3,000 records with heavy key ties, their input position in the last
  // column: a 40-record cap spills 75 runs, more than one merge opens,
  // so an intermediate pass runs too. Both entry points must return the
  // in-memory kernel's bytes, with and without a value order.
  const int width = 4;
  Rng rng(29);
  std::vector<int64_t> records;
  for (int64_t i = 0; i < 3000; ++i) {
    records.insert(records.end(),
                   {rng.UniformRange(0, 4), rng.UniformRange(-3, 2),
                    rng.UniformRange(0, 2), i});
  }
  for (const RecordLess& value_less : {RecordLess(), RecordLess(FirstValueLess)}) {
    const PairOrder order{width, 2, value_less};
    const std::vector<int64_t> expected = SortPairs(records, order);
    ASSERT_EQ(expected, StableSortReference(records, order));
    ExternalSortOptions options;
    options.memory_limit_records = 40;
    ExternalSortStats stats;
    Result<std::vector<int64_t>> by_kernel =
        ExternalSort(records, order, options, &stats);
    ASSERT_TRUE(by_kernel.ok()) << by_kernel.status();
    EXPECT_EQ(by_kernel.value(), expected);
    EXPECT_EQ(stats.runs_spilled, 75);
    Result<std::vector<int64_t>> by_comparator =
        ExternalSort(records, width, PairLess(order), options, nullptr);
    ASSERT_TRUE(by_comparator.ok()) << by_comparator.status();
    EXPECT_EQ(by_comparator.value(), expected);
    EXPECT_EQ(SortRecords(records, width, PairLess(order)), expected);
  }
}

TEST(ExternalSortTest, InMemoryWhenUnderLimit) {
  std::vector<int64_t> records = RandomRecords(100, 3, 1);
  ExternalSortStats stats;
  Result<std::vector<int64_t>> sorted =
      ExternalSort(records, 3, LexLess(3), {}, &stats);
  ASSERT_TRUE(sorted.ok());
  EXPECT_EQ(stats.runs_spilled, 0);
  for (int64_t i = 1; i < 100; ++i) {
    EXPECT_FALSE(LexLess(3)(sorted->data() + i * 3, sorted->data() + (i - 1) * 3));
  }
}

class ExternalSortLimits : public ::testing::TestWithParam<int64_t> {};

TEST_P(ExternalSortLimits, SpilledSortEqualsInMemorySort) {
  const int width = 2;
  std::vector<int64_t> records = RandomRecords(997, width, 7);
  Result<std::vector<int64_t>> expected =
      ExternalSort(records, width, LexLess(width), {}, nullptr);
  ASSERT_TRUE(expected.ok());

  ExternalSortOptions options;
  options.memory_limit_records = GetParam();
  ExternalSortStats stats;
  Result<std::vector<int64_t>> spilled =
      ExternalSort(records, width, LexLess(width), options, &stats);
  ASSERT_TRUE(spilled.ok());
  EXPECT_EQ(spilled.value(), expected.value()) << "limit=" << GetParam();
  EXPECT_GT(stats.runs_spilled, 1);
  EXPECT_EQ(stats.records_spilled, 997);
}

INSTANTIATE_TEST_SUITE_P(Limits, ExternalSortLimits,
                         ::testing::Values<int64_t>(1, 7, 100, 996));

TEST(ExternalSortTest, EmptyInput) {
  ExternalSortOptions options;
  options.memory_limit_records = 4;
  Result<std::vector<int64_t>> sorted =
      ExternalSort({}, 2, LexLess(2), options, nullptr);
  ASSERT_TRUE(sorted.ok());
  EXPECT_TRUE(sorted->empty());
}

TEST(ExternalSortTest, PreservesDuplicates) {
  std::vector<int64_t> records = {5, 1, 5, 2, 5, 3, 1, 9};  // width 2
  ExternalSortOptions options;
  options.memory_limit_records = 2;
  Result<std::vector<int64_t>> sorted =
      ExternalSort(records, 2, LexLess(2), options, nullptr);
  ASSERT_TRUE(sorted.ok());
  EXPECT_EQ(sorted.value(),
            (std::vector<int64_t>{1, 9, 5, 1, 5, 2, 5, 3}));
}

TEST(ExternalSortTest, EngineSpillsAndStaysCorrect) {
  MapReduceEngine engine(2);
  MapReduceSpec spec;
  spec.num_mappers = 3;
  spec.num_reducers = 2;
  spec.key_width = 1;
  spec.value_width = 1;
  spec.reducer_memory_limit_pairs = 50;  // force spills (500 pairs total)
  spec.map_fn = [](int64_t begin, int64_t end, Emitter* emitter) {
    for (int64_t i = begin; i < end; ++i) {
      int64_t key = i % 13;
      int64_t value = 1;
      emitter->Emit(&key, &value);
    }
  };
  std::mutex mu;
  std::map<int64_t, int64_t> sums;
  spec.reduce_fn = [&](int reducer, const GroupView& group) {
    int64_t total = 0;
    for (int64_t i = 0; i < group.size(); ++i) total += group.value(i)[0];
    std::unique_lock<std::mutex> lock(mu);
    sums[group.key()[0]] += total;
  };
  Result<MapReduceMetrics> metrics = engine.Run(spec, 650);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_GT(metrics->spilled_runs, 0);
  ASSERT_EQ(sums.size(), 13u);
  for (const auto& [key, total] : sums) EXPECT_EQ(total, 50) << key;
}

TEST(ExternalSortTest, ParallelQueryExactUnderTinySortBudget) {
  // The whole pipeline must stay exact when every reducer spills.
  Workflow wf = MakePaperQuery(PaperQuery::kQ5);
  Table table = PaperUniformTable(2000, 33);
  MeasureResultSet expected = EvaluateReference(wf, table);

  ExecutionPlan plan;
  plan.key = DeriveDistributionKeys(wf).query_key;
  plan.clustering_factor = 8;
  ParallelEvalOptions opts;
  opts.num_mappers = 2;
  opts.num_reducers = 3;
  opts.num_threads = 2;
  opts.reducer_memory_limit_pairs = 64;
  Result<ParallelEvalResult> result =
      EvaluateParallel(wf, table, plan, opts);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT(result->metrics.spilled_runs, 0);
  Status match = CompareResultSets(expected, result->results, 1e-9);
  EXPECT_TRUE(match.ok()) << match.ToString();
}


TEST(MergeSortedRunsTest, MergeEqualsSortOfConcatenation) {
  const int width = 2;
  // Several pre-sorted runs of uneven sizes, plus an empty one.
  std::vector<std::vector<int64_t>> runs;
  std::vector<int64_t> all;
  for (int64_t r = 0; r < 5; ++r) {
    std::vector<int64_t> run = RandomRecords(37 + r * 53, width, 100 + r);
    run = SortRecords(std::move(run), width, LexLess(width));
    all.insert(all.end(), run.begin(), run.end());
    runs.push_back(std::move(run));
  }
  runs.insert(runs.begin() + 2, {});

  std::vector<int64_t> merged =
      MergeSortedRuns(std::move(runs), width, LexLess(width));
  std::vector<int64_t> expected = SortRecords(all, width, LexLess(width));
  EXPECT_EQ(merged, expected);
}

TEST(MergeSortedRunsTest, TiesLeaveInRunOrder) {
  // Width 2, ordered by column 0 only: equal keys leave in run order
  // whatever their second column holds.
  const RecordLess by_key = [](const int64_t* a, const int64_t* b) {
    return a[0] < b[0];
  };
  std::vector<std::vector<int64_t>> runs = {
      {1, 30, 2, 31}, {1, 20, 2, 21, 2, 22}, {}, {0, 10, 1, 11}};
  EXPECT_EQ(MergeSortedRuns(runs, 2, by_key),
            (std::vector<int64_t>{0, 10, 1, 30, 1, 20, 1, 11, 2, 31, 2, 21,
                                  2, 22}));
  // Stably sorted runs merge into the stable sort of their
  // concatenation.
  std::vector<int64_t> all;
  runs.clear();
  for (uint64_t r = 0; r < 6; ++r) {
    std::vector<int64_t> run = RandomRecords(50 + 31 * r, 2, 40 + r);
    for (size_t i = 0; i < run.size(); i += 2) run[i] %= 7;
    all.insert(all.end(), run.begin(), run.end());
    runs.push_back(SortRecords(std::move(run), 2, by_key));
  }
  EXPECT_EQ(MergeSortedRuns(std::move(runs), 2, by_key),
            StableSortReference(all, PairOrder{2, 1, {}}));
}

TEST(MergeSortedRunsTest, NoRunsAndSingleRun) {
  EXPECT_TRUE(MergeSortedRuns({}, 3, LexLess(3)).empty());
  std::vector<int64_t> run =
      SortRecords(RandomRecords(20, 3, 5), 3, LexLess(3));
  EXPECT_EQ(MergeSortedRuns({run}, 3, LexLess(3)), run);
}

TEST(ExternalSortTest, UnwritableSpillDirectoryFailsCleanly) {
  std::vector<int64_t> records = RandomRecords(100, 2, 3);
  ExternalSortOptions options;
  options.memory_limit_records = 10;
  options.temp_dir = "/nonexistent/casm/spill";
  Result<std::vector<int64_t>> sorted =
      ExternalSort(records, 2, LexLess(2), options, nullptr);
  ASSERT_FALSE(sorted.ok());
  EXPECT_EQ(sorted.status().code(), StatusCode::kInternal);
}

TEST(AppendRunTest, SecondRunStartsWhereFirstEnds) {
  // Regression: AppendRun opens in append mode, whose initial position is
  // implementation-defined until the first write — ftell before an
  // explicit fseek(SEEK_END) may report 0 for a non-empty file, which
  // would hand out overlapping run offsets. Two appended runs must
  // replay independently via ReadRun from the returned offsets.
  const std::string path =
      SpillFilePath(std::filesystem::temp_directory_path().string(),
                    "casm_test_append", 0, ".run");
  const std::vector<int64_t> first = {1, 2, 3, 4, 5};
  const std::vector<int64_t> second = {60, 70, 80};
  Result<int64_t> off1 = AppendRun(path, first);
  ASSERT_TRUE(off1.ok()) << off1.status();
  EXPECT_EQ(off1.value(), 0);
  Result<int64_t> off2 = AppendRun(path, second);
  ASSERT_TRUE(off2.ok()) << off2.status();
  EXPECT_EQ(off2.value(), static_cast<int64_t>(first.size()));

  Result<std::vector<int64_t>> replay1 =
      ReadRun(path, off1.value(), static_cast<int64_t>(first.size()));
  Result<std::vector<int64_t>> replay2 =
      ReadRun(path, off2.value(), static_cast<int64_t>(second.size()));
  ASSERT_TRUE(replay1.ok()) << replay1.status();
  ASSERT_TRUE(replay2.ok()) << replay2.status();
  EXPECT_EQ(replay1.value(), first);
  EXPECT_EQ(replay2.value(), second);
  std::remove(path.c_str());
}

TEST(SpillFilePathTest, UniqueAcrossSequencesAndTaggedByProcess) {
  // Spill names must embed the PID and a per-process random token:
  // concurrent processes sharing one temp dir (ctest -j) must never open
  // each other's files.
  const std::string a = SpillFilePath("/tmp", "casm_sort", 0, ".run");
  const std::string b = SpillFilePath("/tmp", "casm_sort", 1, ".run");
  EXPECT_NE(a, b);
  EXPECT_EQ(a, SpillFilePath("/tmp", "casm_sort", 0, ".run"));
  const std::string pid = std::to_string(static_cast<int>(::getpid()));
  EXPECT_NE(a.find("casm_sort_" + pid + "_"), std::string::npos) << a;
  EXPECT_EQ(a.find("/tmp/"), 0u) << a;
  EXPECT_EQ(a.rfind(".run"), a.size() - 4) << a;
  // The random token keeps two equal-PID processes (PID reuse across
  // container namespaces) apart; it must actually appear in the name.
  EXPECT_GT(a.size(), ("/tmp/casm_sort_" + pid + "__0.run").size());
}

TEST(ExternalSortTest, TruncatedSpillRunSurfacesStatusNotCrash) {
  // Regression: a short read at merge time (torn run file) used to trip
  // CASM_CHECK_EQ and abort the process; it must surface as a Status.
  std::vector<int64_t> records = RandomRecords(500, 2, 11);
  ExternalSortOptions options;
  options.memory_limit_records = 50;
  options.post_spill_hook = [](const std::vector<std::string>& run_paths) {
    ASSERT_FALSE(run_paths.empty());
    // Chop the shared spill file mid-record.
    const std::string& path = run_paths.front();
    const auto size = std::filesystem::file_size(path);
    ASSERT_GT(size, 12u);
    std::filesystem::resize_file(path, size - 12);
  };
  Result<std::vector<int64_t>> sorted =
      ExternalSort(records, 2, LexLess(2), options, nullptr);
  ASSERT_FALSE(sorted.ok());
  EXPECT_EQ(sorted.status().code(), StatusCode::kInternal);
  EXPECT_NE(sorted.status().message().find("truncated"), std::string::npos)
      << sorted.status().ToString();
}

TEST(ExternalSortTest, MergeStaysUnderTheOpenFileLimit) {
  // Regression: the merge opened every spilled run at once, so open files
  // grew as records / memory_limit_records — 997 single-record runs broke
  // a 256-descriptor limit. Bounded merge passes must sort them exactly
  // and delete every run, intermediate ones included.
  const int width = 2;
  const std::vector<int64_t> records = RandomRecords(997, width, 7);
  Result<std::vector<int64_t>> expected =
      ExternalSort(records, width, LexLess(width), {}, nullptr);
  ASSERT_TRUE(expected.ok());

  const std::string dir = SpillDir("fd_limit");
  ExternalSortOptions options;
  options.memory_limit_records = 1;
  options.temp_dir = dir;
  ExternalSortStats stats;
  rlimit saved;
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  rlimit tight = saved;
  tight.rlim_cur = std::min<rlim_t>(256, saved.rlim_cur);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &tight), 0);
  Result<std::vector<int64_t>> spilled =
      ExternalSort(records, width, LexLess(width), options, &stats);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);

  ASSERT_TRUE(spilled.ok()) << spilled.status();
  EXPECT_EQ(spilled.value(), expected.value());
  EXPECT_EQ(stats.runs_spilled, 997);  // initial runs only
  EXPECT_EQ(stats.records_spilled, 997);
  EXPECT_EQ(SortRunFilesIn(dir), 0);
}

TEST(ExternalSortTest, FailedMergeDeletesEveryRun) {
  // Regression: an error after the spill loop returned without deleting
  // the runs not yet opened by the merge.
  const std::string dir = SpillDir("missing_run");
  ExternalSortOptions options;
  options.memory_limit_records = 50;  // 10 runs
  options.temp_dir = dir;
  options.post_spill_hook = [](const std::vector<std::string>& run_paths) {
    ASSERT_EQ(run_paths.size(), 10u);
    ASSERT_TRUE(std::filesystem::remove(run_paths[1]));
  };
  Result<std::vector<int64_t>> sorted =
      ExternalSort(RandomRecords(500, 2, 13), 2, LexLess(2), options, nullptr);
  EXPECT_FALSE(sorted.ok());
  EXPECT_EQ(SortRunFilesIn(dir), 0);
}

/// Every group one engine run hands reduce_fn: key -> the group's
/// values, in delivery order.
using DeliveredGroups = std::map<std::vector<int64_t>, std::vector<int64_t>>;

class EngineSpillOrderTest : public ::testing::TestWithParam<bool> {};

TEST_P(EngineSpillOrderTest, SpillsKeepEveryGroupsRowOrder) {
  // Emitter spills (written in emission order), with and without a
  // reducer sort cap, must hand reduce_fn the groups and rows of an
  // in-memory run: the sort is stable, so rows arrive in gather order
  // (by mapper, then emission), or by the value order with ties in
  // gather order. Values are (v, i) with v in [0, 4) and i the row.
  auto run = [this](int64_t spill_threshold_bytes, int64_t reducer_cap,
                    MapReduceMetrics* metrics) {
    MapReduceEngine engine(2);
    MapReduceSpec spec;
    spec.num_mappers = 3;
    spec.num_reducers = 2;
    spec.key_width = 2;
    spec.value_width = 2;
    spec.emitter_spill_threshold_bytes = spill_threshold_bytes;
    spec.reducer_memory_limit_pairs = reducer_cap;
    spec.map_fn = [](int64_t begin, int64_t end, Emitter* emitter) {
      for (int64_t i = begin; i < end; ++i) {
        const int64_t key[2] = {i % 7, -(i % 3)};
        const int64_t value[2] = {(i * 5) % 4, i};
        emitter->Emit(key, value);
      }
    };
    if (GetParam()) spec.value_less = FirstValueLess;
    std::mutex mu;
    DeliveredGroups groups;
    spec.reduce_fn = [&](int, const GroupView& group) {
      std::vector<int64_t> values = group.CopyValues();
      std::unique_lock<std::mutex> lock(mu);
      std::vector<int64_t>& rows =
          groups[{group.key()[0], group.key()[1]}];
      EXPECT_TRUE(rows.empty()) << "key delivered twice";
      rows = std::move(values);
    };
    Result<MapReduceMetrics> result = engine.Run(spec, 2000);
    EXPECT_TRUE(result.ok()) << result.status();
    if (result.ok()) *metrics = result.value();
    return groups;
  };

  MapReduceMetrics metrics;
  const DeliveredGroups in_memory = run(0, 0, &metrics);
  ASSERT_EQ(in_memory.size(), 21u);
  for (const auto& [key, rows] : in_memory) {
    for (size_t i = 2; i < rows.size(); i += 2) {
      const bool value_tie = !GetParam() || rows[i] == rows[i - 2];
      if (value_tie) {
        EXPECT_LT(rows[i - 1], rows[i + 1]) << "rows left gather order";
      } else {
        EXPECT_LT(rows[i - 2], rows[i]) << "value order broken";
      }
    }
  }
  EXPECT_EQ(run(256, 0, &metrics), in_memory);
  EXPECT_GT(metrics.emitter_spilled_runs, 0);
  EXPECT_EQ(run(256, 50, &metrics), in_memory);
  EXPECT_GT(metrics.emitter_spilled_runs, 0);
  EXPECT_GT(metrics.spilled_runs, 0);
}

INSTANTIATE_TEST_SUITE_P(ValueOrder, EngineSpillOrderTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "ValueLess" : "KeyOnly";
                         });

TEST(ExternalSortTest, EngineSurfacesSpillFailures) {
  MapReduceEngine engine(1);
  MapReduceSpec spec;
  spec.num_mappers = 1;
  spec.num_reducers = 1;
  spec.key_width = 1;
  spec.value_width = 1;
  spec.reducer_memory_limit_pairs = 5;
  spec.spill_dir = "/nonexistent/casm/spill";
  spec.map_fn = [](int64_t begin, int64_t end, Emitter* emitter) {
    for (int64_t i = begin; i < end; ++i) emitter->Emit(&i, &i);
  };
  spec.reduce_fn = [](int, const GroupView&) { FAIL() << "reduce ran"; };
  Result<MapReduceMetrics> metrics = engine.Run(spec, 100);
  EXPECT_FALSE(metrics.ok());
}

}  // namespace
}  // namespace casm

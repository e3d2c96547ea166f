// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.
//
// Tests for the external merge sort and its engine integration: spilled
// sorts must be byte-identical to in-memory sorts, stable end-to-end query
// results must survive arbitrarily small memory budgets, and spill
// activity must be reported.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <mutex>
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

// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.
//
// Tests for the process-wide metrics registry (obs/metrics.h) and the
// live progress tracker (obs/progress.h): instrument exactness, the
// disabled-is-inert contract, concurrent update + scrape (the TSan
// target), golden Prometheus/JSON expositions, snapshot writing,
// progress/ETA bookkeeping, and the engine-driven progress of a
// multi-job sequence.

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/multijob_evaluator.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "queries/paper_data.h"
#include "queries/paper_queries.h"

namespace casm {
namespace {

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(MetricsRegistryTest, DisabledInstrumentsAreInert) {
  MetricsRegistry registry;
  ASSERT_FALSE(registry.enabled());
  MetricsRegistry::Counter* c = registry.GetCounter("c_total", "counter");
  MetricsRegistry::Gauge* g = registry.GetGauge("g", "gauge");
  MetricsRegistry::Histogram* h = registry.GetHistogram("h", "histogram");
  c->Increment(5);
  g->Set(3.5);
  h->Observe(0.25);
  EXPECT_EQ(c->Value(), 0);
  EXPECT_EQ(g->Value(), 0.0);
  EXPECT_EQ(h->Count(), 0);
}

TEST(MetricsRegistryTest, CountersAreExactAndInstrumentsDeduplicate) {
  MetricsRegistry registry;
  registry.set_enabled(true);
  MetricsRegistry::Counter* c =
      registry.GetCounter("casm_things_total", "Things.", {{"kind", "a"}});
  c->Increment();
  c->Increment(41);
  EXPECT_EQ(registry.CounterValue("casm_things_total", {{"kind", "a"}}), 42);
  EXPECT_EQ(registry.CounterValue("casm_things_total", {{"kind", "b"}}), 0);
  EXPECT_EQ(registry.CounterValue("casm_things_total"), 0);
  // Same (name, labels) resolves to the same instrument regardless of
  // label order, so callers may cache the pointer.
  EXPECT_EQ(registry.GetCounter("casm_things_total", "Things.",
                                {{"kind", "a"}}),
            c);
  MetricsRegistry::Counter* two = registry.GetCounter(
      "casm_pairs_total", "Pairs.", {{"x", "1"}, {"y", "2"}});
  EXPECT_EQ(registry.GetCounter("casm_pairs_total", "Pairs.",
                                {{"y", "2"}, {"x", "1"}}),
            two);
}

TEST(MetricsRegistryTest, GaugeSetAndAdd) {
  MetricsRegistry registry;
  registry.set_enabled(true);
  MetricsRegistry::Gauge* g = registry.GetGauge("casm_depth", "Depth.");
  g->Set(2.5);
  EXPECT_EQ(g->Value(), 2.5);
  g->Add(1.25);
  EXPECT_EQ(g->Value(), 3.75);
  EXPECT_EQ(registry.GaugeValue("casm_depth"), 3.75);
}

TEST(MetricsRegistryTest, HistogramBucketsSumAndCount) {
  MetricsRegistry registry;
  registry.set_enabled(true);
  MetricsRegistry::Histogram* h = registry.GetHistogram(
      "casm_lat_seconds", "Latency.", {}, {0.1, 1.0, 10.0});
  h->Observe(0.05);   // bucket le=0.1
  h->Observe(0.5);    // bucket le=1
  h->Observe(0.6);    // bucket le=1
  h->Observe(100.0);  // overflow
  EXPECT_EQ(h->Count(), 4);
  EXPECT_DOUBLE_EQ(h->Sum(), 101.15);
  const std::vector<int64_t> counts = h->BucketCounts();
  ASSERT_EQ(counts.size(), 4u);  // three bounds + overflow
  EXPECT_EQ(counts[0], 1);
  EXPECT_EQ(counts[1], 2);
  EXPECT_EQ(counts[2], 0);
  EXPECT_EQ(counts[3], 1);
}

// The TSan target: many writer threads hammer one shared counter, a
// per-thread counter series, and a histogram, while a scraper thread
// renders both expositions concurrently. The final sums must be exact —
// thread-local cells may not lose updates — and no data race may fire.
TEST(MetricsRegistryTest, ConcurrentUpdatesAndScrapesAreExact) {
  MetricsRegistry registry;
  registry.set_enabled(true);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  MetricsRegistry::Counter* shared =
      registry.GetCounter("casm_shared_total", "Shared counter.");
  MetricsRegistry::Histogram* lat = registry.GetHistogram(
      "casm_stress_seconds", "Stress latency.", {}, {0.5});

  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      MetricsRegistry::Counter* mine = registry.GetCounter(
          "casm_per_thread_total", "Per-thread series.",
          {{"thread", std::to_string(t)}});
      for (int i = 0; i < kPerThread; ++i) {
        shared->Increment();
        mine->Increment(2);
        if ((i & 1023) == 0) lat->Observe(0.25);
      }
    });
  }
  std::thread scraper([&] {
    for (int i = 0; i < 50; ++i) {
      const std::string text = registry.PrometheusText();
      EXPECT_NE(text.find("casm_shared_total"), std::string::npos);
      const std::string json = registry.Json();
      EXPECT_NE(json.find("\"metrics\""), std::string::npos);
      (void)registry.CounterValue("casm_shared_total");
    }
  });
  for (std::thread& w : writers) w.join();
  scraper.join();

  EXPECT_EQ(registry.CounterValue("casm_shared_total"),
            int64_t{kThreads} * kPerThread);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(registry.CounterValue("casm_per_thread_total",
                                    {{"thread", std::to_string(t)}}),
              2 * int64_t{kPerThread});
  }
  EXPECT_EQ(lat->Count(), int64_t{kThreads} * ((kPerThread + 1023) / 1024));
}

TEST(MetricsRegistryTest, PrometheusExpositionGolden) {
  MetricsRegistry registry;
  registry.set_enabled(true);
  registry.GetCounter("casm_b_total", "B counter.", {{"q", "x"}})
      ->Increment(7);
  registry.GetCounter("casm_b_total", "B counter.", {{"q", "a"}})
      ->Increment(3);
  registry.GetGauge("casm_a_gauge", "A gauge.")->Set(1.5);
  MetricsRegistry::Histogram* h =
      registry.GetHistogram("casm_c_seconds", "C latency.", {}, {0.1, 1.0});
  h->Observe(0.05);
  h->Observe(0.5);
  h->Observe(9.0);

  // Families sort by name, series by label set; counters are exact
  // integers; histogram buckets are cumulative with a +Inf bound.
  const std::string expected =
      "# HELP casm_a_gauge A gauge.\n"
      "# TYPE casm_a_gauge gauge\n"
      "casm_a_gauge 1.5\n"
      "# HELP casm_b_total B counter.\n"
      "# TYPE casm_b_total counter\n"
      "casm_b_total{q=\"a\"} 3\n"
      "casm_b_total{q=\"x\"} 7\n"
      "# HELP casm_c_seconds C latency.\n"
      "# TYPE casm_c_seconds histogram\n"
      "casm_c_seconds_bucket{le=\"0.1\"} 1\n"
      "casm_c_seconds_bucket{le=\"1\"} 2\n"
      "casm_c_seconds_bucket{le=\"+Inf\"} 3\n"
      "casm_c_seconds_sum 9.55\n"
      "casm_c_seconds_count 3\n";
  EXPECT_EQ(registry.PrometheusText(), expected);
}

TEST(MetricsRegistryTest, JsonExpositionGolden) {
  MetricsRegistry registry;
  registry.set_enabled(true);
  registry.GetCounter("casm_n_total", "N \"quoted\".", {{"q", "v"}})
      ->Increment(12);
  const std::string expected =
      "{\"metrics\":["
      "{\"name\":\"casm_n_total\",\"type\":\"counter\","
      "\"help\":\"N \\\"quoted\\\".\",\"samples\":["
      "{\"labels\":{\"q\":\"v\"},\"value\":12}]}]}";
  EXPECT_EQ(registry.Json(), expected);
}

TEST(MetricsRegistryTest, WriteSnapshotPicksFormatByExtension) {
  MetricsRegistry registry;
  registry.set_enabled(true);
  registry.GetCounter("casm_snap_total", "Snap.")->Increment(9);

  const std::string dir = ::testing::TempDir() + "casm_metrics_snap";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string prom_path = dir + "/metrics.prom";
  const std::string json_path = dir + "/metrics.json";
  ASSERT_TRUE(registry.WriteSnapshot(prom_path).ok());
  ASSERT_TRUE(registry.WriteSnapshot(json_path).ok());

  const std::string prom = ReadFileOrDie(prom_path);
  EXPECT_NE(prom.find("# TYPE casm_snap_total counter"), std::string::npos);
  EXPECT_NE(prom.find("casm_snap_total 9"), std::string::npos);
  const std::string json = ReadFileOrDie(json_path);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"value\":9"), std::string::npos);
}

TEST(ProgressTrackerTest, PhasesFractionsAndGauges) {
  MetricsRegistry registry;
  registry.set_enabled(true);
  ProgressTracker progress("qtest", &registry);
  progress.BeginPhase("map", 4);
  progress.TaskFinished("map");
  progress.TaskFinished("map");

  std::vector<ProgressTracker::PhaseProgress> snap = progress.Snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].phase, "map");
  EXPECT_EQ(snap[0].total, 4);
  EXPECT_EQ(snap[0].completed, 2);
  EXPECT_EQ(registry.GaugeValue("casm_progress_tasks_total",
                                {{"query", "qtest"}, {"phase", "map"}}),
            4.0);
  EXPECT_EQ(registry.GaugeValue("casm_progress_tasks_completed",
                                {{"query", "qtest"}, {"phase", "map"}}),
            2.0);

  const std::string line = progress.Render();
  EXPECT_NE(line.find("qtest"), std::string::npos);
  EXPECT_NE(line.find("map 2/4"), std::string::npos);
}

TEST(ProgressTrackerTest, ModeledEtaStandsInUntilTasksComplete) {
  ProgressTracker progress("qeta");
  progress.BeginPhase("reduce", 8);
  EXPECT_EQ(progress.EtaSeconds(), 0.0);
  progress.SetModeledRemainingSeconds("reduce", 3.5);
  EXPECT_DOUBLE_EQ(progress.EtaSeconds(), 3.5);
  // A not-yet-begun phase contributes its modeled seed too.
  progress.SetModeledRemainingSeconds("merge", 1.5);
  EXPECT_DOUBLE_EQ(progress.EtaSeconds(), 5.0);
}

TEST(ProgressTrackerTest, ReBeginningAPhaseResetsIt) {
  ProgressTracker progress("qmulti");
  progress.BeginPhase("map", 3);
  progress.TaskFinished("map");
  progress.TaskFinished("map");
  progress.TaskFinished("map");
  // Multi-job sequences reuse one tracker: each job restarts the phase.
  progress.BeginPhase("map", 5);
  std::vector<ProgressTracker::PhaseProgress> snap = progress.Snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].total, 5);
  EXPECT_EQ(snap[0].completed, 0);
}

TEST(ProgressTrackerTest, TickerStartsAndStopsCleanly) {
  ProgressTracker progress("qtick");
  progress.BeginPhase("map", 2);
  progress.StartTicker(0.01);
  progress.TaskFinished("map");
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  progress.StopTicker();
  progress.StartTicker(0.01);  // restart after stop must work
  progress.StopTicker();
}

// The engine owns progress tracking. EvaluateMultiJob runs every job on
// one engine, so one tracker publishes the whole sequence's map and
// reduce phases under the caller's label, and each reads completed ==
// total once the sequence returns.
TEST(ProgressTrackerTest, MultiJobSequencePublishesCompletedPhases) {
  MetricsRegistry* registry = MetricsRegistry::Global();
  const bool was_enabled = registry->enabled();
  registry->set_enabled(true);

  Workflow wf = MakePaperQuery(PaperQuery::kQ3);
  Table table = PaperUniformTable(2000, 808);
  ParallelEvalOptions options;
  options.num_mappers = 3;
  options.num_reducers = 4;
  options.num_threads = 2;
  options.query_label = "qprogress_multijob_test";  // fresh: no gauges yet
  Result<MultiJobResult> result = EvaluateMultiJob(wf, table, options);
  registry->set_enabled(was_enabled);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT(result->jobs, 1);

  const std::vector<std::pair<std::string, int>> phases = {
      {"map", options.num_mappers}, {"reduce", options.num_reducers}};
  for (const auto& [phase, tasks] : phases) {
    const MetricLabels labels = {{"query", options.query_label},
                                 {"phase", phase}};
    EXPECT_EQ(registry->GaugeValue("casm_progress_tasks_total", labels),
              static_cast<double>(tasks))
        << phase;
    EXPECT_EQ(registry->GaugeValue("casm_progress_tasks_completed", labels),
              static_cast<double>(tasks))
        << phase;
  }
}

}  // namespace
}  // namespace casm

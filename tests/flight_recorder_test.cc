// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.
//
// Tests for the failure flight recorder (obs/flight_recorder.h) and its
// evaluator integration: ring semantics, the disabled-is-inert contract,
// the diagnostic bundle a failing EvaluateParallel dumps under an
// injected FaultPlan, and the acceptance criterion that per-query
// registry counters published on success equal the run's
// MapReduceMetrics with exact integer equality.

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "core/key_derivation.h"
#include "core/parallel_evaluator.h"
#include "data/generator.h"
#include "mr/metrics.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace casm {
namespace {

std::string TestDir(const std::string& tag) {
  std::string dir = ::testing::TempDir() + "casm_flight_" + tag;
  std::filesystem::remove_all(dir);
  return dir;
}

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

SchemaPtr TestSchema() {
  return MakeSchemaOrDie(
      {Hierarchy::Numeric("X", 16, {4}, {"value", "bucket"}).value(),
       Hierarchy::Numeric("T", 96, {4, 16}, {"tick", "quad", "span"})
           .value()});
}

Workflow TestWorkflow(const SchemaPtr& schema) {
  WorkflowBuilder b(schema);
  int m1 = b.AddBasic(
      "base", Granularity::Of(*schema, {{"X", "value"}, {"T", "tick"}}).value(),
      AggregateFn::kSum, "X");
  b.AddSourceAggregate(
      "win", Granularity::Of(*schema, {{"X", "value"}, {"T", "tick"}}).value(),
      AggregateFn::kAvg, {b.Sibling(m1, "T", -3, 1)});
  return std::move(b).Build().value();
}

ExecutionPlan TestPlan(const Workflow& wf) {
  ExecutionPlan plan;
  plan.key = DeriveDistributionKeys(wf).query_key;
  plan.clustering_factor = 2;
  return plan;
}

TEST(FlightRecorderTest, RingKeepsNewestAndCountsTotal) {
  FlightRecorder flight(/*capacity=*/4);
  flight.set_enabled(true);
  for (int i = 0; i < 6; ++i) {
    flight.Record("task", "event-" + std::to_string(i), i, 0,
                  "detail-" + std::to_string(i), "q1");
  }
  EXPECT_EQ(flight.total_recorded(), 6);
  std::vector<FlightEvent> events = flight.Snapshot();
  ASSERT_EQ(events.size(), 4u);  // oldest two evicted
  EXPECT_EQ(events.front().name, "event-2");
  EXPECT_EQ(events.back().name, "event-5");
  EXPECT_EQ(events.back().task, 5);
  EXPECT_EQ(events.back().query, "q1");
  EXPECT_STREQ(events.back().category, "task");

  flight.Clear();
  EXPECT_TRUE(flight.Snapshot().empty());
}

TEST(FlightRecorderTest, DisabledRecorderIsInert) {
  FlightRecorder flight;
  ASSERT_FALSE(flight.enabled());
  flight.Record("task", "ignored");
  EXPECT_EQ(flight.total_recorded(), 0);
  EXPECT_TRUE(flight.Snapshot().empty());
}

TEST(FlightRecorderTest, BundleRendersRingOptionsAndMetrics) {
  FlightRecorder flight;
  flight.set_enabled(true);
  flight.Record("dfs", "dfs-retry", 3, 1, "read node=2 injected", "qbundle");
  MetricsRegistry registry;
  registry.set_enabled(true);
  registry.GetCounter("casm_x_total", "X.")->Increment(5);

  const std::string dir = TestDir("bundle");
  Result<std::string> path = WriteDiagnosticBundle(
      dir, "qbundle", Status::Internal("synthetic failure"),
      "{\"num_mappers\":2}", flight, &registry);
  ASSERT_TRUE(path.ok()) << path.status();
  const std::string body = ReadFileOrDie(*path);
  EXPECT_EQ(body.front(), '{');
  EXPECT_NE(body.find("synthetic failure"), std::string::npos);
  EXPECT_NE(body.find("dfs-retry"), std::string::npos);
  EXPECT_NE(body.find("read node=2 injected"), std::string::npos);
  EXPECT_NE(body.find("\"num_mappers\":2"), std::string::npos);
  EXPECT_NE(body.find("casm_x_total"), std::string::npos);
}

// The acceptance scenario: a chaos-style run whose FaultPlan makes one
// map task fail every attempt. EvaluateParallel must return non-OK and
// drop a diagnostic bundle into CASM_DIAG_DIR containing the failing
// task's events from the global flight ring.
TEST(FlightRecorderTest, FailingEvaluationWritesDiagnosticBundle) {
  SchemaPtr schema = TestSchema();
  Workflow wf = TestWorkflow(schema);
  Table table = GenerateUniformTable(schema, 500, 91);

  FaultPlan plan(/*seed=*/7);
  FaultPlan::TaskCrash crash;
  crash.phase = "map";
  crash.task = 1;
  crash.probability = 1.0;  // fatal: survives every retry
  plan.Add(crash);

  // The process-wide sinks, enabled for this test and restored after it.
  FlightRecorder& flight = *FlightRecorder::Global();
  const bool flight_was_enabled = flight.enabled();
  flight.Clear();
  flight.set_enabled(true);
  const char* old_diag_dir = std::getenv("CASM_DIAG_DIR");
  const std::string saved_diag_dir =
      old_diag_dir != nullptr ? old_diag_dir : "";
  const std::string diag_dir = TestDir("diag");
  ::setenv("CASM_DIAG_DIR", diag_dir.c_str(), 1);

  ParallelEvalOptions options;
  options.num_mappers = 3;
  options.num_reducers = 2;
  options.num_threads = 2;
  options.max_task_attempts = 2;
  options.fault_plan = &plan;
  options.query_label = "qdiag";

  Result<ParallelEvalResult> run =
      EvaluateParallel(wf, table, TestPlan(wf), options);
  flight.set_enabled(flight_was_enabled);
  if (old_diag_dir != nullptr) {
    ::setenv("CASM_DIAG_DIR", saved_diag_dir.c_str(), 1);
  } else {
    ::unsetenv("CASM_DIAG_DIR");
  }
  ASSERT_FALSE(run.ok());

  // The ring recorded the injected failures and retries for task 1.
  bool saw_failed = false;
  for (const FlightEvent& e : flight.Snapshot()) {
    if (std::string(e.name) == "task-failed" && e.task == 1) saw_failed = true;
    EXPECT_EQ(e.query, "qdiag");
  }
  EXPECT_TRUE(saw_failed);

  // Exactly one bundle landed in diag_dir, and it carries the ring, the
  // failure status, and the resolved options.
  std::vector<std::string> bundles;
  for (const auto& entry : std::filesystem::directory_iterator(diag_dir)) {
    bundles.push_back(entry.path().string());
  }
  ASSERT_EQ(bundles.size(), 1u);
  EXPECT_NE(bundles[0].find("casm_diag_qdiag_"), std::string::npos);
  const std::string body = ReadFileOrDie(bundles[0]);
  EXPECT_NE(body.find("task-failed"), std::string::npos);
  EXPECT_NE(body.find("qdiag"), std::string::npos);
  EXPECT_NE(body.find("\"num_mappers\":3"), std::string::npos);
  EXPECT_NE(body.find("injected task crash"), std::string::npos);
}

// Per-query registry counters published at evaluation completion must
// equal the returned MapReduceMetrics field-for-field, as exact
// integers (a fresh query label means the counters were zero before).
TEST(FlightRecorderTest, PublishedQueryCountersMatchMetricsExactly) {
  SchemaPtr schema = TestSchema();
  Workflow wf = TestWorkflow(schema);
  Table table = GenerateUniformTable(schema, 800, 47);

  MetricsRegistry* registry = MetricsRegistry::Global();
  const bool was_enabled = registry->enabled();
  registry->set_enabled(true);

  ParallelEvalOptions options;
  options.num_mappers = 3;
  options.num_reducers = 4;
  options.num_threads = 2;
  options.reducer_memory_limit_pairs = 64;      // force reduce-side spills
  options.emitter_spill_threshold_bytes = 512;  // force map-side spills
  options.query_label = "qexact_flight_test";   // fresh label: counters at 0

  Result<ParallelEvalResult> run =
      EvaluateParallel(wf, table, TestPlan(wf), options);
  registry->set_enabled(was_enabled);
  ASSERT_TRUE(run.ok()) << run.status();
  const MapReduceMetrics& m = run->metrics;
  EXPECT_GT(m.input_rows, 0);
  EXPECT_GT(m.emitter_spilled_records, 0);

  const MetricLabels q = {{"query", options.query_label}};
  EXPECT_EQ(registry->CounterValue("casm_query_input_rows_total", q),
            m.input_rows);
  EXPECT_EQ(registry->CounterValue("casm_query_emitted_pairs_total", q),
            m.emitted_pairs);
  EXPECT_EQ(registry->CounterValue("casm_query_spilled_runs_total", q),
            m.spilled_runs);
  EXPECT_EQ(registry->CounterValue("casm_query_spilled_records_total", q),
            m.spilled_records);
  EXPECT_EQ(
      registry->CounterValue("casm_query_emitter_spilled_runs_total", q),
      m.emitter_spilled_runs);
  EXPECT_EQ(
      registry->CounterValue("casm_query_emitter_spilled_records_total", q),
      m.emitter_spilled_records);
  EXPECT_EQ(
      registry->CounterValue("casm_query_emitter_spilled_bytes_total", q),
      m.emitter_spilled_bytes);
  EXPECT_EQ(registry->CounterValue("casm_query_admission_waits_total", q),
            m.admission_waits);
  EXPECT_EQ(registry->CounterValue("casm_query_task_failures_total", q),
            m.task_failures);
  EXPECT_EQ(registry->CounterValue("casm_query_task_retries_total", q),
            m.task_retries);
}

}  // namespace
}  // namespace casm

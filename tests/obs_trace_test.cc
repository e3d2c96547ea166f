// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.
//
// Tests for the run-trace subsystem (src/obs): recorder semantics
// (disabled no-op, per-thread buffers, concurrent emission from many
// threads — the TSan leg's target), Chrome trace-event JSON export,
// per-attempt span coverage of engine runs including retried /
// speculative-win / cancelled outcomes, run reports (a golden summary on
// synthetic events; each run folds only its own events), the golden
// obs::Observe table (every event kind's trace, flight and registry
// names), and FitStragglerSlowdown recovering an injected slowdown from
// measured attempt durations.

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "core/key_derivation.h"
#include "core/parallel_evaluator.h"
#include "mr/cluster_model.h"
#include "mr/engine.h"
#include "mr/metrics.h"
#include "obs/event.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/run_report.h"
#include "obs/trace.h"
#include "queries/paper_data.h"
#include "queries/paper_queries.h"

namespace casm {
namespace {

/// Structural JSON well-formedness: balanced braces/brackets outside
/// strings, string escapes consumed, document ends at depth zero. CI's
/// bench-smoke job additionally parses emitted traces with a real JSON
/// parser; this keeps the check hermetic for unit tests.
bool JsonIsBalanced(const std::string& json) {
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (char c : json) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"':
        in_string = true;
        break;
      case '{':
      case '[':
        ++depth;
        break;
      case '}':
      case ']':
        if (--depth < 0) return false;
        break;
      default:
        break;
    }
  }
  return depth == 0 && !in_string;
}

int CountOccurrences(const std::string& haystack, const std::string& needle) {
  int count = 0;
  for (size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

/// Records a raw span / instant straight into `recorder` (the library
/// records only observed events; these tests exercise the recorder).
void RecordSpan(TraceRecorder* recorder, const char* category,
                std::string name, double start, double end, int64_t task = -1,
                int64_t attempt = 0,
                TraceOutcome outcome = TraceOutcome::kNone,
                std::string detail = "", int64_t job = -1) {
  TraceEvent ev;
  ev.category = category;
  ev.name = std::move(name);
  ev.start_seconds = start;
  ev.duration_seconds = end - start;
  ev.task = task;
  ev.attempt = attempt;
  ev.job = job;
  ev.outcome = outcome;
  ev.detail = std::move(detail);
  recorder->Record(std::move(ev));
}

void RecordInstant(TraceRecorder* recorder, const char* category,
                   std::string name, int64_t task = -1,
                   std::string detail = "") {
  TraceEvent ev;
  ev.instant = true;
  ev.category = category;
  ev.name = std::move(name);
  ev.start_seconds = recorder->NowSeconds();
  ev.task = task;
  ev.detail = std::move(detail);
  recorder->Record(std::move(ev));
}

/// Word-count job collecting reduce output, same shape as the fault and
/// straggler test jobs, with a local recorder wired through the spec.
struct TracedJob {
  MapReduceSpec spec;
  TraceRecorder trace;
  std::mutex mu;
  std::map<int64_t, int64_t> sums;

  explicit TracedJob(int mappers = 3, int reducers = 4) {
    trace.set_enabled(true);
    spec.trace = &trace;
    spec.num_mappers = mappers;
    spec.num_reducers = reducers;
    spec.key_width = 1;
    spec.value_width = 1;
    spec.map_fn = [](int64_t begin, int64_t end, Emitter* emitter) {
      for (int64_t i = begin; i < end; ++i) {
        int64_t key = i % 13;
        int64_t value = i;
        emitter->Emit(&key, &value);
      }
    };
    spec.reduce_fn = [this](int reducer, const GroupView& group) {
      int64_t total = 0;
      for (int64_t i = 0; i < group.size(); ++i) total += group.value(i)[0];
      std::unique_lock<std::mutex> lock(mu);
      sums[group.key()[0]] += total;
    };
  }
};

TEST(TraceRecorderTest, DisabledRecorderRecordsNothing) {
  TraceRecorder recorder;
  ASSERT_FALSE(recorder.enabled());
  RecordSpan(&recorder, "map", "t0", 0.0, 1.0, 0, 1, TraceOutcome::kOk);
  RecordInstant(&recorder, "memory", "emitter-spill");
  TraceEvent ev;
  ev.category = "phase";
  ev.name = "map";
  recorder.Record(std::move(ev));
  EXPECT_TRUE(recorder.Snapshot().empty());
  EXPECT_EQ(recorder.dropped_events(), 0);
}

TEST(TraceRecorderTest, RecordsSpansAndInstantsOrderedByStart) {
  TraceRecorder recorder;
  recorder.set_enabled(true);
  RecordSpan(&recorder, "reduce", "reduce t1", 2.0, 2.5, /*task=*/1,
             /*attempt=*/2, TraceOutcome::kRetried, "boom");
  RecordSpan(&recorder, "map", "map t0", 1.0, 1.25, /*task=*/0,
             /*attempt=*/1, TraceOutcome::kOk, "", /*job=*/3);
  RecordInstant(&recorder, "memory", "sort-spill", /*task=*/-1, "records=7");

  // Sorted by start time: the instant is stamped with NowSeconds()
  // (fractions of a second since construction), well before the
  // synthetic 1.0s / 2.0s span starts.
  std::vector<TraceEvent> events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_TRUE(events[0].instant);
  EXPECT_EQ(events[0].name, "sort-spill");
  EXPECT_EQ(events[0].detail, "records=7");
  EXPECT_DOUBLE_EQ(events[0].duration_seconds, 0.0);
  EXPECT_STREQ(events[1].category, "map");
  EXPECT_EQ(events[1].name, "map t0");
  EXPECT_DOUBLE_EQ(events[1].start_seconds, 1.0);
  EXPECT_DOUBLE_EQ(events[1].duration_seconds, 0.25);
  EXPECT_EQ(events[1].task, 0);
  EXPECT_EQ(events[1].attempt, 1);
  EXPECT_EQ(events[1].job, 3);
  EXPECT_EQ(events[1].outcome, TraceOutcome::kOk);
  EXPECT_GT(events[1].thread_id, 0u);
  EXPECT_STREQ(events[2].category, "reduce");
  EXPECT_EQ(events[2].outcome, TraceOutcome::kRetried);
  EXPECT_EQ(events[2].detail, "boom");

  recorder.Clear();
  EXPECT_TRUE(recorder.Snapshot().empty());
}

TEST(TraceRecorderTest, ConcurrentEmissionFromManyThreads) {
  TraceRecorder recorder;
  recorder.set_enabled(true);
  constexpr int kThreads = 8;
  constexpr int kEventsPerThread = 2000;
  std::atomic<int> snapshots_taken{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads + 1);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder, t] {
      for (int i = 0; i < kEventsPerThread; ++i) {
        const double now = recorder.NowSeconds();
        RecordSpan(&recorder, "map", "map t" + std::to_string(t), now, now,
                   /*task=*/t, /*attempt=*/1, TraceOutcome::kOk);
      }
    });
  }
  // A reader drains concurrently with the writers (the documented safe
  // overlap); sizes it sees are unordered prefixes, never garbage.
  threads.emplace_back([&recorder, &snapshots_taken] {
    for (int i = 0; i < 20; ++i) {
      std::vector<TraceEvent> events = recorder.Snapshot();
      EXPECT_LE(events.size(),
                static_cast<size_t>(kThreads * kEventsPerThread));
      ++snapshots_taken;
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(recorder.Snapshot().size(),
            static_cast<size_t>(kThreads * kEventsPerThread));
  EXPECT_EQ(recorder.dropped_events(), 0);
  EXPECT_EQ(snapshots_taken.load(), 20);
}

TEST(TraceRecorderTest, ThreadReusesBufferAcrossRecorderSwitches) {
  TraceRecorder a;
  TraceRecorder b;
  a.set_enabled(true);
  b.set_enabled(true);
  for (int i = 0; i < 3; ++i) {
    RecordInstant(&a, "memory", "in-a");
    RecordInstant(&b, "memory", "in-b");
  }
  EXPECT_EQ(a.Snapshot().size(), 3u);
  EXPECT_EQ(b.Snapshot().size(), 3u);
  for (const TraceEvent& ev : a.Snapshot()) EXPECT_EQ(ev.name, "in-a");
  for (const TraceEvent& ev : b.Snapshot()) EXPECT_EQ(ev.name, "in-b");
}

TEST(TraceJsonTest, ChromeJsonIsWellFormedAndEscapes) {
  TraceRecorder recorder;
  recorder.set_enabled(true);
  RecordSpan(&recorder, "map", "name with \"quotes\" and \\slash\n", 0.0,
             0.5, /*task=*/7, /*attempt=*/2, TraceOutcome::kSpeculativeWin,
             "detail\twith\ttabs");
  RecordInstant(&recorder, "memory", "emitter-spill", /*task=*/-1, "runs=1");

  const std::string json = recorder.ToChromeJson();
  EXPECT_TRUE(JsonIsBalanced(json)) << json;
  EXPECT_NE(json.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);  // span
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);  // instant
  EXPECT_NE(json.find("\\\"quotes\\\""), std::string::npos);
  EXPECT_NE(json.find("\\\\slash\\n"), std::string::npos);
  EXPECT_NE(json.find("detail\\twith\\ttabs"), std::string::npos);
  EXPECT_NE(json.find("\"outcome\": \"speculative-win\""), std::string::npos);
  EXPECT_NE(json.find("\"task\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"attempt\": 2"), std::string::npos);
  // Spans are microseconds: 0.5s -> dur 500000.
  EXPECT_NE(json.find("\"dur\": 500000.000000"), std::string::npos);
}

TEST(TraceJsonTest, EmptyTraceIsStillAValidDocument) {
  const std::string json = TraceEventsToChromeJson({});
  EXPECT_TRUE(JsonIsBalanced(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
}

TEST(EngineTraceTest, DisabledRecorderLeavesRunUntraced) {
  TracedJob job;
  job.trace.set_enabled(false);
  Result<MapReduceMetrics> metrics = MapReduceEngine(2).Run(job.spec, 1300);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_TRUE(job.trace.Snapshot().empty());
  EXPECT_TRUE(metrics->run_report_summary.empty());
}

TEST(EngineTraceTest, RecordsEveryAttemptOfInjectedFaultRunWithOutcomes) {
  TracedJob job;  // 3 mappers, 4 reducers
  FaultPlan plan =
      FaultPlan::Parse("task_crash=map:1:1; task_crash=reduce:0:1").value();
  plan.set_parent(FaultPlan::FromEnv());
  job.spec.fault_plan = &plan;
  Result<MapReduceMetrics> metrics = MapReduceEngine(2).Run(job.spec, 1300);
  ASSERT_TRUE(metrics.ok()) << metrics.status();

  std::vector<TraceEvent> events = job.trace.Snapshot();
  int map_ok = 0, map_retried = 0, reduce_ok = 0, reduce_retried = 0;
  int phase_spans = 0, job_spans = 0, pool_spans = 0;
  for (const TraceEvent& ev : events) {
    const std::string cat = ev.category;
    if (cat == "map" || cat == "reduce") {
      // Every task-attempt span carries a task id, a 1-based attempt
      // number, and an outcome tag.
      ASSERT_NE(ev.outcome, TraceOutcome::kNone) << ev.name;
      EXPECT_GE(ev.task, 0);
      EXPECT_GE(ev.attempt, 1);
      EXPECT_GE(ev.duration_seconds, 0.0);
      if (cat == "map" && ev.outcome == TraceOutcome::kOk) ++map_ok;
      if (cat == "map" && ev.outcome == TraceOutcome::kRetried) ++map_retried;
      if (cat == "reduce" && ev.outcome == TraceOutcome::kOk) ++reduce_ok;
      if (cat == "reduce" && ev.outcome == TraceOutcome::kRetried) {
        ++reduce_retried;
      }
    } else if (cat == "phase") {
      ++phase_spans;
    } else if (cat == "job") {
      ++job_spans;
    } else if (cat == "pool") {
      ++pool_spans;
    }
  }
  // 3 mappers with one retried attempt, 4 reducers with one retried
  // attempt: deterministic counts.
  EXPECT_EQ(map_ok, 3);
  EXPECT_EQ(map_retried, 1);
  EXPECT_EQ(reduce_ok, 4);
  EXPECT_EQ(reduce_retried, 1);
  EXPECT_EQ(phase_spans, 2);  // one map phase, one reduce phase
  EXPECT_EQ(job_spans, 1);    // the mr-run envelope
  EXPECT_GT(pool_spans, 0);   // queue-to-start latency spans

  // The digested report reaches the metrics and counts the same story.
  EXPECT_NE(metrics->run_report_summary.find("map: 4 attempt(s)"),
            std::string::npos)
      << metrics->run_report_summary;
  EXPECT_NE(metrics->run_report_summary.find("reduce: 5 attempt(s)"),
            std::string::npos);
  EXPECT_NE(metrics->ToString().find("run report:"), std::string::npos);
  EXPECT_EQ(metrics->map_attempt_digest.count(), 3);     // per execution
  EXPECT_EQ(metrics->reduce_attempt_digest.count(), 4);  // per execution

  // The run's own report: the same attempt and outcome counts.
  EXPECT_NE(metrics->run_report_summary.find(
                "map: 4 attempt(s) [3 ok, 1 retried, "),
            std::string::npos);
  EXPECT_NE(metrics->run_report_summary.find(
                "reduce: 5 attempt(s) [4 ok, 1 retried, "),
            std::string::npos);

  const std::string json = TraceEventsToChromeJson(events);
  EXPECT_TRUE(JsonIsBalanced(json));
  EXPECT_EQ(CountOccurrences(json, "\"outcome\": \"retried\""), 2);
}

TEST(EngineTraceTest, SpeculativeWinAndCancelledLoserAreTagged) {
  TracedJob job(4, 4);
  job.spec.speculative_execution = true;
  job.spec.speculation_latency_multiple = 2.0;
  job.spec.speculation_min_completed_fraction = 0.5;
  job.spec.speculation_min_runtime_seconds = 0.05;
  const int max_attempts = job.spec.max_task_attempts;
  // Slow every primary attempt of map task 0; the speculative backup
  // (attempt > max_attempts) runs at full speed.
  FaultPlan plan;
  plan.set_parent(FaultPlan::FromEnv());
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    plan.Add(FaultPlan::TaskSlowdown{
        .phase = "map", .task = 0, .attempt = attempt, .seconds = 2.0});
  }
  job.spec.fault_plan = &plan;
  Result<MapReduceMetrics> metrics = MapReduceEngine(4).Run(job.spec, 1300);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  ASSERT_GE(metrics->speculative_wins, 1);

  int wins = 0, cancelled = 0;
  for (const TraceEvent& ev : job.trace.Snapshot()) {
    const std::string cat = ev.category;
    if (cat != "map" && cat != "reduce") continue;
    if (ev.outcome == TraceOutcome::kSpeculativeWin) {
      ++wins;
      // Backups continue the attempt numbering past the retry budget.
      EXPECT_GT(ev.attempt, max_attempts);
    }
    if (ev.outcome == TraceOutcome::kCancelled) ++cancelled;
  }
  EXPECT_GE(wins, 1);
  EXPECT_GE(cancelled, 1);  // the slow primary lost the race
}

/// Q3 over the paper's uniform table, traced into `trace`: the setup of
/// the per-run report tests below.
struct TracedQ3 {
  Workflow wf = MakePaperQuery(PaperQuery::kQ3);
  Table table = PaperUniformTable(20000, 1);
  ExecutionPlan plan;

  TracedQ3() {
    plan.key = DeriveDistributionKeys(wf).query_key;
    plan.clustering_factor = 1;
  }

  ParallelEvalOptions Options(TraceRecorder* trace, int mappers) const {
    ParallelEvalOptions o;
    o.num_mappers = mappers;
    o.num_reducers = 4;
    o.num_threads = 2;
    o.trace = trace;
    return o;
  }
};

TEST(EngineTraceTest, ConcurrentRunsSharingARecorderKeepTheirOwnReports) {
  // Two evaluations share one recorder, as QueryService workers do. A's
  // slowed map task keeps A in flight while B starts and finishes; each
  // report must count only its own run's attempts.
  TracedQ3 q3;
  TraceRecorder trace;
  trace.set_enabled(true);
  FaultPlan slow;
  slow.set_parent(FaultPlan::FromEnv());
  slow.Add(FaultPlan::TaskSlowdown{.phase = "map", .task = 0, .seconds = 0.5});
  ParallelEvalOptions a = q3.Options(&trace, 3);
  a.fault_plan = &slow;
  std::optional<Result<ParallelEvalResult>> run_a;
  std::thread thread_a(
      [&] { run_a.emplace(EvaluateParallel(q3.wf, q3.table, q3.plan, a)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  Result<ParallelEvalResult> run_b =
      EvaluateParallel(q3.wf, q3.table, q3.plan, q3.Options(&trace, 5));
  thread_a.join();
  ASSERT_TRUE(run_a->ok()) << run_a->status();
  ASSERT_TRUE(run_b.ok()) << run_b.status();
  const std::string& report_a = (*run_a)->metrics.run_report_summary;
  const std::string& report_b = run_b->metrics.run_report_summary;
  EXPECT_NE(report_a.find("map: 3 attempt(s)"), std::string::npos)
      << report_a;
  EXPECT_NE(report_b.find("map: 5 attempt(s)"), std::string::npos)
      << report_b;
}

TEST(EngineTraceTest, ReportCountsTheBudgetsAdmissionWaits) {
  // A budget that never fills: every task still reserves (and gets a
  // "memory"/"admission" span), but no reservation queues.
  TracedQ3 q3;
  TraceRecorder trace;
  trace.set_enabled(true);
  ParallelEvalOptions options = q3.Options(&trace, 4);
  options.memory_budget_bytes = int64_t{1} << 30;
  Result<ParallelEvalResult> run =
      EvaluateParallel(q3.wf, q3.table, q3.plan, options);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(run->metrics.admission_waits, 0);
  const std::string& report = run->metrics.run_report_summary;
  EXPECT_NE(report.find("memory: 0 admission wait(s)"), std::string::npos)
      << report;
}

/// What one observed event must leave in each sink.
struct GoldenFamily {
  const char* name;
  MetricLabels labels;
  double value;  // the counter's increase, or the gauge's value
  bool gauge = false;
};

struct GoldenKind {
  obs::Event event;
  const char* trace;   // "category/name" of its one trace event, or null
  const char* args;    // that event's exported args object
  const char* flight;  // "category/name" of its flight event, or null
  std::vector<GoldenFamily> families;
};

/// The args object of the one event in `json` (Chrome trace JSON).
std::string ArgsOf(const std::string& json) {
  const size_t begin = json.find("\"args\": ");
  const size_t end = json.find("}}", begin);
  if (begin == std::string::npos || end == std::string::npos) return "";
  return json.substr(begin + 8, end + 1 - (begin + 8));
}

TEST(ObsEventTest, EveryKindKeepsItsSinkNames) {
  MetricsRegistry& registry = *MetricsRegistry::Global();
  FlightRecorder& flight = *FlightRecorder::Global();
  const bool registry_was_enabled = registry.enabled();
  const bool flight_was_enabled = flight.enabled();
  registry.set_enabled(true);
  flight.set_enabled(true);
  TraceRecorder trace;
  trace.set_enabled(true);
  std::unique_ptr<ProgressTracker> progress;
  obs::Context context(&trace, "golden", &progress);
  ASSERT_NE(progress, nullptr);

  MapReduceMetrics metrics;
  metrics.input_rows = 11;
  metrics.emitted_pairs = 13;
  metrics.peak_tracked_bytes = 4096;
  SharedQueryAttribution share;
  share.query = "golden-member";
  share.local_records = 5;

  using K = obs::Kind;
  using O = TraceOutcome;
  const MetricLabels golden = {{"query", "golden"}};
  auto phase = [](const char* p) {
    return MetricLabels{{"query", "golden"}, {"phase", p}};
  };
  const std::vector<GoldenKind> table = {
      {{.kind = K::kMapAttempt, .task = 2, .attempt = 1,
        .outcome = O::kRetried, .text = "boom"},
       "map/map t2",
       R"({"task": 2, "attempt": 1, "outcome": "retried", "detail": "boom"})",
       "task/task-retried",
       {{"casm_tasks_failed_total", {{"phase", "map"}}, 1},
        {"casm_tasks_retried_total", {{"phase", "map"}}, 1}}},
      {{.kind = K::kReduceAttempt, .task = 1, .attempt = 2,
        .outcome = O::kFailed, .text = "boom"},
       "reduce/reduce t1",
       R"({"task": 1, "attempt": 2, "outcome": "failed", "detail": "boom"})",
       "task/task-failed",
       {{"casm_tasks_failed_total", {{"phase", "reduce"}}, 1}}},
      {{.kind = K::kMapPhaseBegin, .n = {3}}, nullptr, "", nullptr,
       {{"casm_progress_tasks_total", phase("map"), 3, true}}},
      {{.kind = K::kReducePhaseBegin, .n = {4}}, nullptr, "", nullptr,
       {{"casm_progress_tasks_total", phase("reduce"), 4, true}}},
      {{.kind = K::kMapPhase, .n = {3}}, "phase/map",
       R"({"detail": "tasks=3"})", nullptr, {}},
      {{.kind = K::kReducePhase, .n = {4}}, "phase/reduce",
       R"({"detail": "tasks=4"})", nullptr, {}},
      {{.kind = K::kReduceModeled, .end = 2.0}, nullptr, "", nullptr, {}},
      {{.kind = K::kRun, .n = {3, 4}}, "job/mr-run",
       R"({"detail": "mappers=3 reducers=4"})", nullptr, {}},
      {{.kind = K::kQueueWait}, "pool/queue-wait", "{}", nullptr, {}},
      {{.kind = K::kAdmission, .task = 1, .n = {4096}}, "memory/admission",
       R"({"task": 1, "detail": "bytes=4096"})", nullptr, {}},
      {{.kind = K::kAdmissionWait, .end = 0.25}, nullptr, "", nullptr,
       {{"casm_admission_waits_total", {}, 1}}},
      {{.kind = K::kEmitterSpill, .n = {2, 10, 160}}, "memory/emitter-spill",
       R"({"detail": "runs=2 records=10"})", "memory/emitter-spill",
       {{"casm_emitter_spills_total", {}, 1},
        {"casm_emitter_spilled_records_total", {}, 10},
        {"casm_emitter_spilled_bytes_total", {}, 160}}},
      {{.kind = K::kSortSpill, .n = {7}}, "memory/sort-spill",
       R"({"detail": "records=7"})", nullptr, {}},
      {{.kind = K::kTraceDropped, .n = {5}}, nullptr, "", nullptr,
       {{"casm_trace_dropped_spans_total", {}, 5}}},
      {{.kind = K::kSortScanBlock, .task = 6, .n = {9}}, "localagg/sortscan",
       R"({"task": 6, "detail": "rows=9"})", nullptr,
       {{"casm_localagg_blocks_total", {{"engine", "sortscan"}}, 1}}},
      {{.kind = K::kMorselBlock, .task = 6, .n = {9}}, "localagg/morsel",
       R"({"task": 6, "detail": "rows=9"})", nullptr,
       {{"casm_localagg_blocks_total", {{"engine", "morsel"}}, 1}}},
      {{.kind = K::kCombinerFlush, .n = {12}}, "localagg/combiner-flush",
       R"({"detail": "pairs=12"})", nullptr, {}},
      {{.kind = K::kCombinerBypass, .n = {3, 4}}, "localagg/combiner-bypass",
       R"({"detail": "retained=0.750000"})", nullptr, {}},
      {{.kind = K::kEvaluate, .outcome = O::kOk, .text = "<k>"},
       "eval/evaluate-parallel", R"({"outcome": "ok", "detail": "key=<k>"})",
       nullptr, {}},
      {{.kind = K::kEvaluateShared, .outcome = O::kOk, .n = {2},
        .text = "<k>"},
       "eval/evaluate-shared",
       R"({"outcome": "ok", "detail": "queries=2 key=<k>"})", nullptr, {}},
      {{.kind = K::kBasicJob, .job = 0, .outcome = O::kOk, .name = "m1",
        .text = "<k>"},
       "job/basic m1", R"({"job": 0, "outcome": "ok", "detail": "key=<k>"})",
       nullptr, {}},
      {{.kind = K::kCompositeJob, .job = 1, .outcome = O::kFailed,
        .name = "m3", .text = "<k>"},
       "job/composite m3",
       R"({"job": 1, "outcome": "failed", "detail": "key=<k>"})", nullptr,
       {}},
      {{.kind = K::kCkptRestore, .job = 0, .outcome = O::kOk, .n = {64},
        .name = "m1"},
       "ckpt/ckpt-restore m1",
       R"({"job": 0, "outcome": "ok", "detail": "bytes=64"})", nullptr,
       {{"casm_ckpt_bytes_restored_total", {}, 64}}},
      {{.kind = K::kCkptWrite, .job = 0, .outcome = O::kOk, .n = {64},
        .name = "m1"},
       "ckpt/ckpt-write m1",
       R"({"job": 0, "outcome": "ok", "detail": "bytes=64"})", nullptr,
       {{"casm_ckpt_bytes_written_total", {}, 64}}},
      {{.kind = K::kCkptSkipped, .job = 2, .name = "m2"},
       "ckpt/ckpt-skipped m2", R"({"detail": "breaker open"})",
       "ckpt/ckpt-skipped", {{"casm_ckpt_commits_skipped_total", {}, 1}}},
      {{.kind = K::kCkptCommitFailed, .job = 2, .text = "io error"}, nullptr,
       "", "ckpt/ckpt-commit-failed", {}},
      {{.kind = K::kCkptBreakerOpen, .job = 2, .text = "io error"},
       "ckpt/ckpt-degraded", R"({"detail": "breaker open: io error"})",
       "ckpt/breaker-open", {}},
      {{.kind = K::kCkptDegraded, .text = "io error"}, "ckpt/ckpt-degraded",
       R"({"detail": "io error"})", nullptr, {}},
      {{.kind = K::kQueryDone, .metrics = &metrics}, nullptr, "", nullptr,
       {{"casm_query_input_rows_total", golden, 11},
        {"casm_query_emitted_pairs_total", golden, 13},
        {"casm_query_peak_tracked_bytes", golden, 4096, true}}},
      {{.kind = K::kSharedQueryDone, .n = {2}, .share = &share}, nullptr, "",
       nullptr,
       {{"casm_query_shared_jobs_total", {{"query", "golden-member"}}, 1},
        {"casm_query_shared_local_records_total",
         {{"query", "golden-member"}},
         5},
        {"casm_query_shared_batch_queries", {{"query", "golden-member"}}, 2,
         true}}},
      {{.kind = K::kDfsRead, .text = "f"}, "dfs/dfs-read",
       R"({"detail": "f"})", nullptr, {}},
      {{.kind = K::kDfsWrite, .text = "f"}, "dfs/dfs-write",
       R"({"detail": "f"})", nullptr, {}},
      {{.kind = K::kDfsScrub, .text = "scrubbed"}, "dfs/dfs-scrub",
       R"({"detail": "scrubbed"})", nullptr, {}},
      {{.kind = K::kDfsRetry, .task = 3, .n = {1, 1}, .text = "io error"},
       "dfs/dfs-retry", R"({"task": 3, "detail": "write node=1 io error"})",
       "dfs/dfs-retry", {{"casm_dfs_io_retries_total", {}, 1}}},
      {{.kind = K::kDfsFailover, .task = 3, .n = {2}, .text = "f"},
       "dfs/dfs-failover", R"({"task": 3, "detail": "f off node 2"})",
       "dfs/dfs-failover", {{"casm_dfs_write_failovers_total", {}, 1}}},
      {{.kind = K::kDfsUnderReplicated, .task = 3, .text = "f"}, nullptr, "",
       "dfs/dfs-under-replicated",
       {{"casm_dfs_under_replicated_blocks_total", {}, 1}}},
      {{.kind = K::kDfsCorrupt, .task = 3, .n = {1}, .text = "f"}, nullptr,
       "", "dfs/dfs-corrupt", {{"casm_dfs_corrupt_replicas_total", {}, 1}}},
      {{.kind = K::kDfsRepair, .task = 3, .n = {1, 0}, .text = "f"},
       "dfs/dfs-repair", R"({"task": 3, "detail": "f node 1 from node 0"})",
       "dfs/dfs-repair", {{"casm_dfs_repaired_replicas_total", {}, 1}}},
      {{.kind = K::kPlanCacheHit}, "plancache/hit", "{}", nullptr,
       {{"casm_plan_cache_hits_total", {}, 1}}},
      {{.kind = K::kPlanCacheMiss}, "plancache/miss", "{}", nullptr,
       {{"casm_plan_cache_misses_total", {}, 1}}},
      {{.kind = K::kPlanCacheEvict}, "plancache/evict", "{}", nullptr,
       {{"casm_plan_cache_evictions_total", {}, 1}}},
      {{.kind = K::kPlanCacheInsert}, nullptr, "", nullptr,
       {{"casm_plan_cache_inserts_total", {}, 1}}},
      {{.kind = K::kSvcQueue, .n = {3, 1}}, nullptr, "", nullptr,
       {{"casm_svc_queue_depth", {}, 3, true},
        {"casm_svc_inflight", {}, 1, true}}},
      {{.kind = K::kSvcBatch, .n = {2}}, nullptr, "", nullptr,
       {{"casm_svc_batch_queries", {}, 2, true}}},
      {{.kind = K::kSvcSharedBatch, .n = {2}}, "svc/svc-shared-batch",
       R"({"detail": "queries=2"})", nullptr, {}},
  };

  // Every kind, once.
  std::set<int> kinds;
  for (const GoldenKind& g : table) {
    EXPECT_TRUE(kinds.insert(static_cast<int>(g.event.kind)).second)
        << "duplicate kind " << static_cast<int>(g.event.kind);
  }
  EXPECT_EQ(kinds.size(), static_cast<size_t>(obs::Kind::kCount) - 1);

  auto value = [&registry](const GoldenFamily& f) {
    return f.gauge ? registry.GaugeValue(f.name, f.labels)
                   : static_cast<double>(
                         registry.CounterValue(f.name, f.labels));
  };
  for (const GoldenKind& g : table) {
    const int kind = static_cast<int>(g.event.kind);
    trace.Clear();
    const int64_t flights = flight.total_recorded();
    std::vector<double> before;
    for (const GoldenFamily& f : g.families) before.push_back(value(f));

    obs::Observe(&context, g.event);

    const std::vector<TraceEvent> events = trace.Snapshot();
    if (g.trace == nullptr) {
      EXPECT_TRUE(events.empty()) << "kind " << kind;
    } else {
      ASSERT_EQ(events.size(), 1u) << "kind " << kind;
      EXPECT_EQ(std::string(events[0].category) + "/" + events[0].name,
                g.trace)
          << "kind " << kind;
      EXPECT_EQ(ArgsOf(TraceEventsToChromeJson(events)), g.args)
          << "kind " << kind;
    }
    if (g.flight == nullptr) {
      EXPECT_EQ(flight.total_recorded(), flights) << "kind " << kind;
    } else {
      ASSERT_EQ(flight.total_recorded(), flights + 1) << "kind " << kind;
      const FlightEvent last = flight.Snapshot().back();
      EXPECT_EQ(std::string(last.category) + "/" + last.name, g.flight)
          << "kind " << kind;
    }
    for (size_t i = 0; i < g.families.size(); ++i) {
      const GoldenFamily& f = g.families[i];
      EXPECT_EQ(f.gauge ? value(f) : value(f) - before[i], f.value)
          << "kind " << kind << ": " << f.name;
    }
  }
  // A task resolves with the attempt that won it.
  obs::Observe(&context, {.kind = K::kMapAttempt, .task = 0, .attempt = 1,
                          .outcome = O::kOk});
  obs::Observe(&context, {.kind = K::kReduceAttempt, .task = 0, .attempt = 3,
                          .outcome = O::kSpeculativeWin});
  EXPECT_EQ(registry.GaugeValue("casm_progress_tasks_completed", phase("map")),
            1);
  EXPECT_EQ(
      registry.GaugeValue("casm_progress_tasks_completed", phase("reduce")), 1);
  // The admission wait also lands in its seconds histogram, and the
  // modeled reduce time seeds the tracker's ETA.
  EXPECT_GE(registry.GetHistogram("casm_admission_wait_seconds", "")->Count(),
            1);
  EXPECT_GT(progress->EtaSeconds(), 0.0);

  registry.set_enabled(registry_was_enabled);
  flight.set_enabled(flight_was_enabled);
}

TEST(RunReportTest, GoldenSummaryOnSyntheticTrace) {
  auto event = [](obs::Kind kind, double start, double dur,
                  TraceOutcome outcome = TraceOutcome::kNone,
                  int64_t task = -1, int64_t attempt = 0) {
    obs::Event e;
    e.kind = kind;
    e.task = task;
    e.attempt = attempt;
    e.outcome = outcome;
    e.start = start;
    e.end = start + dur;
    return e;
  };
  RunReport report;
  report.Add(
      event(obs::Kind::kMapAttempt, 0.0, 0.1, TraceOutcome::kOk, 0, 1));
  report.Add(
      event(obs::Kind::kMapAttempt, 0.05, 0.2, TraceOutcome::kRetried, 1, 1));
  report.Add(
      event(obs::Kind::kMapAttempt, 0.3, 0.3, TraceOutcome::kOk, 1, 2));
  report.Add(event(obs::Kind::kMapAttempt, 0.2, 0.45,
                   TraceOutcome::kCancelled, 2, 1));
  report.Add(
      event(obs::Kind::kAdmission, 0.1, 0.25, TraceOutcome::kNone, 3, 0));
  // The budget's own count of the one reservation that queued.
  obs::Event wait;
  wait.kind = obs::Kind::kAdmissionWait;
  wait.end = 0.25;
  report.Add(wait);
  report.Add(event(obs::Kind::kEmitterSpill, 0.4, 0));
  report.Add(event(obs::Kind::kSortSpill, 0.45, 0));
  report.Add(event(obs::Kind::kQueueWait, 0.0, 0.01));
  report.Add(event(obs::Kind::kQueueWait, 0.98, 0.02));
  report.Add(event(obs::Kind::kRun, 0.0, 1.0));
  report.Add(
      event(obs::Kind::kMorselBlock, 0.5, 0.01, TraceOutcome::kNone, 4, 0));
  report.Add(
      event(obs::Kind::kMorselBlock, 0.6, 0.01, TraceOutcome::kNone, 5, 0));
  report.Add(
      event(obs::Kind::kSortScanBlock, 0.7, 0.01, TraceOutcome::kNone, 6, 0));
  report.Add(event(obs::Kind::kCombinerFlush, 0.8, 0));

  EXPECT_DOUBLE_EQ(report.trace_begin_seconds, 0.0);
  EXPECT_DOUBLE_EQ(report.trace_end_seconds, 1.0);
  const PhaseAttemptHistogram* map = report.FindPhase("map");
  ASSERT_NE(map, nullptr);
  EXPECT_EQ(map->attempts, 4);
  EXPECT_EQ(map->cancelled, 1);
  // Cancelled attempts are excluded from the duration histogram.
  EXPECT_EQ(map->durations.count(), 3);
  EXPECT_EQ(report.FindPhase("reduce"), nullptr);

  const std::string expected =
      "run report: 1.0000s traced\n"
      "  map: 4 attempt(s) [2 ok, 1 retried, 0 failed, 0 speculative-win, "
      "1 cancelled] duration p50=0.2000s p90=0.3000s p99=0.3000s "
      "max=0.3000s\n"
      "  memory: 1 admission wait(s) (0.2500s waiting), 2 spill event(s)\n"
      "  pool: 2 queue-wait(s) (0.0300s total)\n"
      "  localagg: sortscan=1 morsel=2 block(s) (dominant morsel)";
  EXPECT_EQ(report.Summary(), expected);
}

TEST(RunReportTest, EmptyTraceProducesEmptySummary) {
  RunReport report;
  EXPECT_TRUE(report.Summary().empty());
  EXPECT_EQ(report.FindPhase("map"), nullptr);
}

TEST(FitStragglerSlowdownTest, ExactOnSyntheticAttempts) {
  auto attempt = [](const char* category, double dur, TraceOutcome outcome) {
    TraceEvent ev;
    ev.category = category;
    ev.name = "t";
    ev.duration_seconds = dur;
    ev.outcome = outcome;
    return ev;
  };
  // Healthy peers at 1s, one 20x straggler.
  std::vector<TraceEvent> events = {
      attempt("map", 1.0, TraceOutcome::kOk),
      attempt("map", 1.0, TraceOutcome::kOk),
      attempt("map", 1.0, TraceOutcome::kOk),
      attempt("map", 20.0, TraceOutcome::kOk),
  };
  EXPECT_DOUBLE_EQ(FitStragglerSlowdown(events), 20.0);

  // A straggler killed by a speculation win still bounds the slowdown:
  // its cancelled elapsed counts toward the max, not the median.
  events.back().outcome = TraceOutcome::kCancelled;
  EXPECT_DOUBLE_EQ(FitStragglerSlowdown(events), 20.0);

  // Non-attempt spans and other categories are ignored.
  events.push_back(attempt("phase", 100.0, TraceOutcome::kNone));
  events.push_back(attempt("job", 100.0, TraceOutcome::kOk));
  EXPECT_DOUBLE_EQ(FitStragglerSlowdown(events), 20.0);

  // Degenerate traces fit a healthy cluster.
  EXPECT_DOUBLE_EQ(FitStragglerSlowdown({}), 1.0);
  EXPECT_DOUBLE_EQ(
      FitStragglerSlowdown({attempt("map", 5.0, TraceOutcome::kOk)}), 1.0);
  // Faster-than-median maxima clamp at 1.0 (never < 1).
  std::vector<TraceEvent> uniform = {
      attempt("reduce", 1.0, TraceOutcome::kOk),
      attempt("reduce", 1.0, TraceOutcome::kOk),
  };
  EXPECT_DOUBLE_EQ(FitStragglerSlowdown(uniform), 1.0);
}

TEST(FitStragglerSlowdownTest, RecoversInjectedSlowdownWithin20Percent) {
  // Every map attempt sleeps a controlled time: healthy tasks 80ms, task
  // 0 ten times that. The fitted slowdown (max / median attempt) must
  // recover the injected 10x within the acceptance band; map work on
  // 1300 rows is microseconds, so the sleeps dominate the durations.
  constexpr double kBase = 0.08;
  constexpr double kInjected = 10.0;
  TracedJob job(4, 2);
  // One spec per map task: matching slowdowns add up, so a wildcard spec
  // under task 0's would slow it by 11x instead of 10x.
  FaultPlan plan;
  plan.set_parent(FaultPlan::FromEnv());
  for (int task = 0; task < job.spec.num_mappers; ++task) {
    plan.Add(FaultPlan::TaskSlowdown{
        .phase = "map",
        .task = task,
        .seconds = task == 0 ? kBase * kInjected : kBase});
  }
  job.spec.fault_plan = &plan;
  Result<MapReduceMetrics> metrics = MapReduceEngine(4).Run(job.spec, 1300);
  ASSERT_TRUE(metrics.ok()) << metrics.status();

  const double fitted = FitStragglerSlowdown(job.trace.Snapshot());
  EXPECT_GE(fitted, kInjected * 0.8) << "fitted " << fitted;
  EXPECT_LE(fitted, kInjected * 1.2) << "fitted " << fitted;
}

}  // namespace
}  // namespace casm

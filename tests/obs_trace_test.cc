// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.
//
// Tests for the run-trace subsystem (src/obs): recorder semantics
// (disabled no-op, per-thread buffers, concurrent emission from many
// threads — the TSan leg's target), Chrome trace-event JSON export,
// per-attempt span coverage of engine runs including retried /
// speculative-win / cancelled outcomes, run reports (with a golden
// summary on a synthetic trace), and FitStragglerSlowdown recovering an
// injected slowdown from measured attempt durations.

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "mr/cluster_model.h"
#include "mr/engine.h"
#include "obs/run_report.h"
#include "obs/trace.h"

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
  recorder.RecordSpan("map", "t0", 0.0, 1.0, 0, 1, TraceOutcome::kOk);
  recorder.RecordInstant("memory", "emitter-spill");
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
  recorder.RecordSpan("reduce", "reduce t1", 2.0, 2.5, /*task=*/1,
                      /*attempt=*/2, TraceOutcome::kRetried, "boom");
  recorder.RecordSpan("map", "map t0", 1.0, 1.25, /*task=*/0, /*attempt=*/1,
                      TraceOutcome::kOk, "", /*job=*/3);
  recorder.RecordInstant("memory", "sort-spill", /*task=*/-1, "records=7");

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
        recorder.RecordSpan("map", "map t" + std::to_string(t), now, now,
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
    a.RecordInstant("memory", "in-a");
    b.RecordInstant("memory", "in-b");
  }
  EXPECT_EQ(a.Snapshot().size(), 3u);
  EXPECT_EQ(b.Snapshot().size(), 3u);
  for (const TraceEvent& ev : a.Snapshot()) EXPECT_EQ(ev.name, "in-a");
  for (const TraceEvent& ev : b.Snapshot()) EXPECT_EQ(ev.name, "in-b");
}

TEST(TraceJsonTest, ChromeJsonIsWellFormedAndEscapes) {
  TraceRecorder recorder;
  recorder.set_enabled(true);
  recorder.RecordSpan("map", "name with \"quotes\" and \\slash\n", 0.0, 0.5,
                      /*task=*/7, /*attempt=*/2, TraceOutcome::kSpeculativeWin,
                      "detail\twith\ttabs");
  recorder.RecordInstant("memory", "emitter-spill", /*task=*/-1, "runs=1");

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

  RunReport report = BuildRunReport(events);
  const PhaseAttemptHistogram* map = report.FindPhase("map");
  ASSERT_NE(map, nullptr);
  EXPECT_EQ(map->attempts, 4);
  EXPECT_EQ(map->ok, 3);
  EXPECT_EQ(map->retried, 1);
  const PhaseAttemptHistogram* reduce = report.FindPhase("reduce");
  ASSERT_NE(reduce, nullptr);
  EXPECT_EQ(reduce->attempts, 5);
  EXPECT_EQ(reduce->ok, 4);
  EXPECT_EQ(reduce->retried, 1);

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

TEST(RunReportTest, GoldenSummaryOnSyntheticTrace) {
  auto span = [](const char* category, std::string name, double start,
                 double dur, TraceOutcome outcome, int64_t task,
                 int64_t attempt) {
    TraceEvent ev;
    ev.category = category;
    ev.name = std::move(name);
    ev.start_seconds = start;
    ev.duration_seconds = dur;
    ev.task = task;
    ev.attempt = attempt;
    ev.outcome = outcome;
    return ev;
  };
  auto instant = [](const char* category, std::string name, double start) {
    TraceEvent ev;
    ev.instant = true;
    ev.category = category;
    ev.name = std::move(name);
    ev.start_seconds = start;
    return ev;
  };
  std::vector<TraceEvent> events;
  events.push_back(
      span("map", "map t0", 0.0, 0.1, TraceOutcome::kOk, 0, 1));
  events.push_back(
      span("map", "map t1", 0.05, 0.2, TraceOutcome::kRetried, 1, 1));
  events.push_back(
      span("map", "map t1", 0.3, 0.3, TraceOutcome::kOk, 1, 2));
  events.push_back(
      span("map", "map t2", 0.2, 0.45, TraceOutcome::kCancelled, 2, 1));
  events.push_back(
      span("memory", "admission", 0.1, 0.25, TraceOutcome::kNone, 3, 0));
  events.push_back(instant("memory", "emitter-spill", 0.4));
  events.push_back(instant("memory", "sort-spill", 0.45));
  events.push_back(
      span("pool", "queue-wait", 0.0, 0.01, TraceOutcome::kNone, -1, 0));
  events.push_back(
      span("pool", "queue-wait", 0.98, 0.02, TraceOutcome::kNone, -1, 0));
  events.push_back(
      span("localagg", "morsel", 0.5, 0.01, TraceOutcome::kNone, 4, 0));
  events.push_back(
      span("localagg", "morsel", 0.6, 0.01, TraceOutcome::kNone, 5, 0));
  events.push_back(
      span("localagg", "sortscan", 0.7, 0.01, TraceOutcome::kNone, 6, 0));
  events.push_back(instant("localagg", "combiner-flush", 0.8));

  RunReport report = BuildRunReport(events);
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
  RunReport report = BuildRunReport({});
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

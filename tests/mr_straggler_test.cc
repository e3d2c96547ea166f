// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.
//
// Tests for the engine's straggler resilience: speculative backup
// executions (first finisher wins, losers cancelled, output-ownership
// gate on the reduce side), wall-clock deadlines (fail fast with
// DeadlineExceeded, never hang), external cancellation, and a randomized
// stress test showing that any mix of injected faults, slowness, and
// speculative wins yields results bit-identical to a fault-free run.

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/cancellation.h"
#include "common/fault.h"
#include "mr/engine.h"

namespace casm {
namespace {

/// A word-count style job whose reduce output is collected into a map so
/// runs can be compared for byte-identical results (same shape as
/// mr_fault_test.cc's CountJob).
struct CountJob {
  MapReduceSpec spec;
  std::mutex mu;
  std::map<int64_t, int64_t> sums;
  std::map<int64_t, int64_t> deliveries;  // key -> times delivered

  explicit CountJob(int mappers = 4, int reducers = 4) {
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
      ++deliveries[group.key()[0]];
    };
  }

  /// Aggressive speculation for tests: back up anything that runs 50ms
  /// past the median, as soon as half the phase is done.
  void EnableSpeculation() {
    spec.speculative_execution = true;
    spec.speculation_latency_multiple = 2.0;
    spec.speculation_min_completed_fraction = 0.5;
    spec.speculation_min_runtime_seconds = 0.05;
  }
};

/// Slows every attempt of one task's *primary* execution: one slowdown
/// spec per primary attempt number, so a speculative backup (which
/// continues the attempt numbering past max_task_attempts) stays fast.
FaultPlan SlowPrimary(const char* phase, int task, double seconds,
                      int max_attempts) {
  FaultPlan plan;
  plan.set_parent(FaultPlan::FromEnv());
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    plan.Add(FaultPlan::TaskSlowdown{
        .phase = phase, .task = task, .attempt = attempt, .seconds = seconds});
  }
  return plan;
}

/// A plan parsed from `text` that still composes with CASM_FAULT_PLAN.
FaultPlan PlanFromText(const std::string& text) {
  FaultPlan plan = FaultPlan::Parse(text).value();
  plan.set_parent(FaultPlan::FromEnv());
  return plan;
}

TEST(StragglerTest, SpeculativeBackupWinsForSlowMapTask) {
  CountJob clean;
  Result<MapReduceMetrics> clean_metrics =
      MapReduceEngine(4).Run(clean.spec, 1300);
  ASSERT_TRUE(clean_metrics.ok()) << clean_metrics.status();
  EXPECT_EQ(clean_metrics->speculative_attempts, 0);

  CountJob slow;
  slow.EnableSpeculation();
  const FaultPlan plan =
      SlowPrimary("map", 0, 2.0, slow.spec.max_task_attempts);
  slow.spec.fault_plan = &plan;
  const auto start = std::chrono::steady_clock::now();
  Result<MapReduceMetrics> metrics = MapReduceEngine(4).Run(slow.spec, 1300);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  // The backup won, the cancelled primary was drained cooperatively well
  // before its 2s sleep finished, and nothing perturbed the results.
  EXPECT_GE(metrics->speculative_wins, 1);
  EXPECT_GE(metrics->cancelled_attempts, 1);
  EXPECT_LT(elapsed, 1.5);
  EXPECT_EQ(metrics->task_failures, 0);
  EXPECT_EQ(metrics->emitted_pairs, clean_metrics->emitted_pairs);
  EXPECT_EQ(metrics->reducer_pairs, clean_metrics->reducer_pairs);
  EXPECT_EQ(metrics->reducer_groups, clean_metrics->reducer_groups);
  EXPECT_EQ(slow.sums, clean.sums);
}

TEST(StragglerTest, ReduceStragglerBackupDeliversEveryGroupExactlyOnce) {
  CountJob clean;
  ASSERT_TRUE(MapReduceEngine(4).Run(clean.spec, 1300).ok());

  CountJob slow;
  slow.EnableSpeculation();
  // The injected sleep runs before the attempt body, i.e. before any
  // group is delivered — the reduce task is still backup-eligible.
  const FaultPlan plan =
      SlowPrimary("reduce", 1, 2.0, slow.spec.max_task_attempts);
  slow.spec.fault_plan = &plan;
  Result<MapReduceMetrics> metrics = MapReduceEngine(4).Run(slow.spec, 1300);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_GE(metrics->speculative_wins, 1);
  EXPECT_EQ(slow.sums, clean.sums);
  // The output-ownership gate: no key group reaches reduce_fn twice even
  // with two executions of the same reduce task in flight.
  for (const auto& [key, count] : slow.deliveries) {
    EXPECT_EQ(count, 1) << "key " << key << " delivered " << count
                        << " times";
  }
  EXPECT_EQ(slow.deliveries, clean.deliveries);
}

/// Charges `seconds_per_record` to every record of one task's *primary*
/// execution, one throttle spec per primary attempt number (the
/// speculative backup's attempt numbers continue past max_task_attempts
/// and stay full speed) — the heterogeneous-hardware shape: a node that
/// is slow in proportion to its data, not stuck.
FaultPlan ThrottlePrimary(const char* phase, int task,
                          double seconds_per_record, int max_attempts) {
  FaultPlan plan;
  plan.set_parent(FaultPlan::FromEnv());
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    plan.Add(FaultPlan::RecordThrottle{.phase = phase,
                                       .task = task,
                                       .attempt = attempt,
                                       .seconds_per_record =
                                           seconds_per_record});
  }
  return plan;
}

TEST(StragglerTest, RecordThrottleAloneDoesNotPerturbResults) {
  CountJob clean;
  ASSERT_TRUE(MapReduceEngine(4).Run(clean.spec, 1300).ok());

  CountJob throttled;
  // A mild uniform slowdown on every task, both phases; no speculation.
  const FaultPlan plan = PlanFromText("throttle=*:*:*:0.0002");
  throttled.spec.fault_plan = &plan;
  Result<MapReduceMetrics> metrics =
      MapReduceEngine(4).Run(throttled.spec, 1300);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_EQ(metrics->task_failures, 0);
  EXPECT_EQ(metrics->emitted_pairs, 1300);
  EXPECT_EQ(throttled.sums, clean.sums);
  EXPECT_EQ(throttled.deliveries, clean.deliveries);
}

TEST(StragglerTest, SpeculationFiresOnRecordThrottledMapTask) {
  CountJob clean;
  ASSERT_TRUE(MapReduceEngine(4).Run(clean.spec, 1300).ok());

  CountJob slow;
  slow.EnableSpeculation();
  // ~325 records x 10ms = ~3.3s for the primary of map task 0; the
  // other mappers finish instantly, so the relative-progress gap is
  // exactly what the speculation policy must catch.
  const FaultPlan plan =
      ThrottlePrimary("map", 0, 0.01, slow.spec.max_task_attempts);
  slow.spec.fault_plan = &plan;
  const auto start = std::chrono::steady_clock::now();
  Result<MapReduceMetrics> metrics = MapReduceEngine(4).Run(slow.spec, 1300);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_GE(metrics->speculative_wins, 1);
  // The cancelled primary was drained from inside its throttle sleep.
  EXPECT_LT(elapsed, 2.5);
  EXPECT_EQ(metrics->task_failures, 0);
  EXPECT_EQ(slow.sums, clean.sums);
  EXPECT_EQ(slow.deliveries, clean.deliveries);
}

TEST(StragglerTest, SpeculationFiresOnRecordThrottledReduceTask) {
  CountJob clean;
  ASSERT_TRUE(MapReduceEngine(4).Run(clean.spec, 1300).ok());

  CountJob slow;
  slow.EnableSpeculation();
  // The throttle charges each group *before* any output is delivered,
  // so the straggling reduce task is still backup-eligible when the
  // policy fires; the ownership gate then settles the race.
  const FaultPlan plan =
      ThrottlePrimary("reduce", 1, 0.01, slow.spec.max_task_attempts);
  slow.spec.fault_plan = &plan;
  Result<MapReduceMetrics> metrics = MapReduceEngine(4).Run(slow.spec, 1300);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_GE(metrics->speculative_wins, 1);
  EXPECT_EQ(slow.sums, clean.sums);
  for (const auto& [key, count] : slow.deliveries) {
    EXPECT_EQ(count, 1) << "key " << key << " delivered " << count
                        << " times";
  }
}

TEST(StragglerTest, NoBackupOnceReduceOutputStarted) {
  // A reduce task that turns slow only *after* delivering its first group
  // must not be backed up (same terminality rule as retries): a backup
  // could not deliver anything anyway, since the straggler owns the
  // task's output.
  CountJob job;
  job.EnableSpeculation();
  auto inner = job.spec.reduce_fn;
  std::atomic<bool> slowed{false};
  job.spec.reduce_fn = [&](int reducer, const GroupView& group) {
    inner(reducer, group);
    if (reducer == 2 && !slowed.exchange(true)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(400));
    }
  };
  Result<MapReduceMetrics> metrics = MapReduceEngine(4).Run(job.spec, 1300);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_EQ(metrics->speculative_attempts, 0);
  for (const auto& [key, count] : job.deliveries) EXPECT_EQ(count, 1);
}

TEST(StragglerTest, DeadlineExceededInsteadOfHang) {
  CountJob job;
  job.spec.deadline_seconds = 0.2;
  // Without a deadline this job would take 5+ seconds.
  const FaultPlan plan = PlanFromText("slow_task=map:*:*:5");
  job.spec.fault_plan = &plan;
  const auto start = std::chrono::steady_clock::now();
  Result<MapReduceMetrics> metrics = MapReduceEngine(4).Run(job.spec, 1300);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_FALSE(metrics.ok());
  EXPECT_EQ(metrics.status().code(), StatusCode::kDeadlineExceeded)
      << metrics.status();
  EXPECT_NE(metrics.status().message().find("map phase"), std::string::npos)
      << metrics.status().message();
  EXPECT_LT(elapsed, 3.0);
  // Cancelled attempts are not failures: nothing was retried.
  EXPECT_TRUE(job.sums.empty());
}

TEST(StragglerTest, GenerousDeadlineDoesNotPerturbTheRun) {
  CountJob clean;
  ASSERT_TRUE(MapReduceEngine(2).Run(clean.spec, 1300).ok());

  CountJob job;
  job.spec.deadline_seconds = 60.0;
  Result<MapReduceMetrics> metrics = MapReduceEngine(2).Run(job.spec, 1300);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_FALSE(metrics->deadline_exceeded);
  EXPECT_EQ(job.sums, clean.sums);
}

TEST(StragglerTest, ExternalCancellationStopsTheRun) {
  CountJob job;
  CancellationToken token;
  job.spec.cancel = &token;
  const FaultPlan plan = PlanFromText("slow_task=*:*:*:5");
  job.spec.fault_plan = &plan;
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    token.Cancel();
  });
  const auto start = std::chrono::steady_clock::now();
  Result<MapReduceMetrics> metrics = MapReduceEngine(4).Run(job.spec, 1300);
  canceller.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_FALSE(metrics.ok());
  EXPECT_EQ(metrics.status().code(), StatusCode::kCancelled)
      << metrics.status();
  EXPECT_LT(elapsed, 3.0);
}

TEST(StragglerTest, DeadlineInterruptsNonPollingReduceViaGroupToken) {
  // A cooperative reduce_fn that polls GroupView::cancelled() lets the
  // deadline interrupt it mid-group.
  CountJob job(2, 2);
  job.spec.deadline_seconds = 0.2;
  job.spec.reduce_fn = [](int, const GroupView& group) {
    while (!group.cancelled()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  const auto start = std::chrono::steady_clock::now();
  Result<MapReduceMetrics> metrics = MapReduceEngine(2).Run(job.spec, 1300);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_FALSE(metrics.ok());
  EXPECT_EQ(metrics.status().code(), StatusCode::kDeadlineExceeded)
      << metrics.status();
  EXPECT_LT(elapsed, 3.0);
}

TEST(StragglerTest, SlowdownHookAttemptNumberingSeparatesExecutions) {
  // The documented contract: primary attempts are 1..max, backup attempts
  // are max+1..2*max; no other values appear.
  CountJob job;
  job.spec.max_task_attempts = 3;
  job.EnableSpeculation();
  std::mutex mu;
  std::vector<int> seen;
  FaultPlan plan;
  plan.set_parent(FaultPlan::FromEnv());
  plan.AddSlowdownHook([&](const char* phase, int task, int attempt) {
    {
      std::unique_lock<std::mutex> lock(mu);
      seen.push_back(attempt);
    }
    return std::string_view(phase) == "map" && task == 0 && attempt <= 3
               ? 2.0
               : 0.0;
  });
  job.spec.fault_plan = &plan;
  Result<MapReduceMetrics> metrics = MapReduceEngine(4).Run(job.spec, 1300);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_GE(metrics->speculative_wins, 1);
  bool saw_backup = false;
  for (int attempt : seen) {
    EXPECT_GE(attempt, 1);
    EXPECT_LE(attempt, 6);
    if (attempt == 4) saw_backup = true;  // first backup attempt
  }
  EXPECT_TRUE(saw_backup);
}

TEST(StragglerTest, RejectsBadSpeculationKnobs) {
  CountJob low_multiple;
  low_multiple.spec.speculative_execution = true;
  low_multiple.spec.speculation_latency_multiple = 0.5;
  EXPECT_EQ(MapReduceEngine(1).Run(low_multiple.spec, 10).status().code(),
            StatusCode::kInvalidArgument);

  CountJob bad_fraction;
  bad_fraction.spec.speculative_execution = true;
  bad_fraction.spec.speculation_min_completed_fraction = 1.5;
  EXPECT_EQ(MapReduceEngine(1).Run(bad_fraction.spec, 10).status().code(),
            StatusCode::kInvalidArgument);
}

/// Deterministic pseudo-random decision from (seed, phase, task, attempt)
/// with phase map = 0, reduce = 1: a tiny splitmix-style mixer, so hooks
/// stay pure functions and every trial is reproducible.
uint64_t MixDecision(uint64_t seed, const char* phase, int task,
                     int attempt) {
  const uint64_t phase_id = std::string_view(phase) == "map" ? 0 : 1;
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (1 + phase_id) +
               0xbf58476d1ce4e5b9ULL * static_cast<uint64_t>(task + 1) +
               0x94d049bb133111ebULL * static_cast<uint64_t>(attempt);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

TEST(StragglerTest, RandomizedAdversityYieldsIdenticalResultsOrCleanFailure) {
  CountJob clean(5, 6);
  Result<MapReduceMetrics> clean_metrics =
      MapReduceEngine(4).Run(clean.spec, 1300);
  ASSERT_TRUE(clean_metrics.ok()) << clean_metrics.status();

  int successes = 0;
  int64_t total_wins = 0;
  for (uint64_t trial = 0; trial < 8; ++trial) {
    CountJob job(5, 6);
    job.spec.max_task_attempts = 3;
    job.spec.speculative_execution = true;
    job.spec.speculation_latency_multiple = 2.0;
    job.spec.speculation_min_completed_fraction = 0.25;
    job.spec.speculation_min_runtime_seconds = 0.02;
    const uint64_t seed = 0xC0FFEE ^ (trial * 0x10001);
    // ~20% of attempts fail, ~20% are slowed by 60-120ms; which ones is a
    // pure function of (trial, phase, task, attempt).
    FaultPlan plan;
    plan.set_parent(FaultPlan::FromEnv());
    plan.AddCrashHook([seed](const char* phase, int task, int attempt) {
      return MixDecision(seed, phase, task, attempt) % 5 == 0
                 ? Status::Internal("chaos fault")
                 : Status::OK();
    });
    plan.AddSlowdownHook([seed](const char* phase, int task, int attempt) {
      const uint64_t z = MixDecision(seed ^ 0xABCD, phase, task, attempt);
      return z % 5 == 0 ? 0.06 + static_cast<double>(z % 7) * 0.01 : 0.0;
    });
    job.spec.fault_plan = &plan;
    Result<MapReduceMetrics> metrics = MapReduceEngine(4).Run(job.spec, 1300);
    if (!metrics.ok()) {
      // A task may legitimately exhaust all attempts of both executions;
      // what matters is that the failure is a clean Status and nothing
      // leaked into the output.
      EXPECT_EQ(metrics.status().code(), StatusCode::kInternal)
          << metrics.status();
      continue;
    }
    ++successes;
    total_wins += metrics->speculative_wins;
    // Bit-identical to the fault-free run: retried attempts replayed
    // cleanly and cancelled losers never contributed output.
    EXPECT_EQ(metrics->emitted_pairs, clean_metrics->emitted_pairs)
        << "trial " << trial;
    EXPECT_EQ(metrics->reducer_pairs, clean_metrics->reducer_pairs)
        << "trial " << trial;
    EXPECT_EQ(job.sums, clean.sums) << "trial " << trial;
    for (const auto& [key, count] : job.deliveries) {
      EXPECT_EQ(count, 1) << "trial " << trial << " key " << key;
    }
  }
  // The parameters are tuned so most trials survive; if this ever drops
  // to zero the retry/speculation interplay is broken.
  EXPECT_GE(successes, 4);
  // And across the surviving trials, speculation actually fired.
  EXPECT_GE(total_wins, 1);
}

}  // namespace
}  // namespace casm

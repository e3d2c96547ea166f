// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.
//
// Tests for the engine's fault-tolerance substrate: task-attempt retries
// with Emitter clear-and-replay, deterministic fault injection through
// FaultPlan specs and hooks, exception capture from user map/reduce
// functions (clean Status, never process death), retry exhaustion, and
// reuse of one engine (one pool) across sequential Run() calls.

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "mr/engine.h"

namespace casm {
namespace {

/// A word-count style job whose reduce output is collected into a map so
/// runs can be compared for byte-identical results.
struct CountJob {
  MapReduceSpec spec;
  std::mutex mu;
  std::map<int64_t, int64_t> sums;

  explicit CountJob(int mappers = 3, int reducers = 4) {
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

TEST(FaultToleranceTest, InjectedMapAndReduceFaultsRetryToIdenticalResults) {
  CountJob clean;
  Result<MapReduceMetrics> clean_metrics = MapReduceEngine(2).Run(clean.spec, 1300);
  ASSERT_TRUE(clean_metrics.ok()) << clean_metrics.status();
  EXPECT_EQ(clean_metrics->task_failures, 0);
  EXPECT_EQ(clean_metrics->task_retries, 0);

  CountJob faulty;
  FaultPlan plan =
      FaultPlan::Parse("task_crash=map:1:1; task_crash=reduce:0:1").value();
  plan.set_parent(FaultPlan::FromEnv());
  faulty.spec.fault_plan = &plan;
  Result<MapReduceMetrics> metrics = MapReduceEngine(2).Run(faulty.spec, 1300);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_EQ(metrics->task_failures, 2);
  EXPECT_EQ(metrics->task_retries, 2);
  // Clear-and-replay: the retried mapper must not double-emit.
  EXPECT_EQ(metrics->emitted_pairs, clean_metrics->emitted_pairs);
  EXPECT_EQ(metrics->reducer_pairs, clean_metrics->reducer_pairs);
  EXPECT_EQ(metrics->reducer_groups, clean_metrics->reducer_groups);
  EXPECT_EQ(faulty.sums, clean.sums);
}

TEST(FaultToleranceTest, ThrowingMapFnIsRetriedWithEmitterReplay) {
  CountJob clean(1, 3);
  ASSERT_TRUE(MapReduceEngine(1).Run(clean.spec, 500).ok());

  CountJob faulty(1, 3);
  auto threw = std::make_shared<std::atomic<bool>>(false);
  auto inner_map = faulty.spec.map_fn;
  faulty.spec.map_fn = [threw, inner_map](int64_t begin, int64_t end,
                                          Emitter* emitter) {
    // Emit part of the split, then die mid-way on the first attempt only —
    // the replay must not keep the partial emits.
    inner_map(begin, begin + (end - begin) / 2, emitter);
    if (!threw->exchange(true)) throw std::runtime_error("mapper crash");
    inner_map(begin + (end - begin) / 2, end, emitter);
  };
  Result<MapReduceMetrics> metrics = MapReduceEngine(1).Run(faulty.spec, 500);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_EQ(metrics->task_failures, 1);
  EXPECT_EQ(metrics->task_retries, 1);
  EXPECT_EQ(metrics->emitted_pairs, 500);
  EXPECT_EQ(faulty.sums, clean.sums);
}

TEST(FaultToleranceTest, ThrowingReduceFnReturnsCleanStatus) {
  CountJob job(2, 3);
  job.spec.reduce_fn = [](int, const GroupView&) {
    throw std::runtime_error("reduce boom");
  };
  Result<MapReduceMetrics> metrics = MapReduceEngine(2).Run(job.spec, 200);
  ASSERT_FALSE(metrics.ok());
  const std::string& msg = metrics.status().message();
  EXPECT_NE(msg.find("reduce task"), std::string::npos) << msg;
  EXPECT_NE(msg.find("reduce boom"), std::string::npos) << msg;
  EXPECT_EQ(metrics.status().code(), StatusCode::kInternal);
}

TEST(FaultToleranceTest, PersistentFaultExhaustsRetryBudget) {
  CountJob job;
  job.spec.max_task_attempts = 3;
  std::atomic<int> attempts{0};
  FaultPlan plan;
  plan.set_parent(FaultPlan::FromEnv());
  plan.AddCrashHook([&](const char* phase, int task, int) {
    if (std::string_view(phase) == "map" && task == 2) {
      ++attempts;
      return Status::Internal("stuck mapper");
    }
    return Status::OK();
  });
  job.spec.fault_plan = &plan;
  Result<MapReduceMetrics> metrics = MapReduceEngine(2).Run(job.spec, 1300);
  ASSERT_FALSE(metrics.ok());
  EXPECT_EQ(attempts.load(), 3);
  const std::string& msg = metrics.status().message();
  EXPECT_NE(msg.find("map task 2"), std::string::npos) << msg;
  EXPECT_NE(msg.find("3 attempt(s)"), std::string::npos) << msg;
}

TEST(FaultToleranceTest, SingleAttemptBudgetFailsImmediately) {
  CountJob job;
  job.spec.max_task_attempts = 1;
  FaultPlan plan = FaultPlan::Parse("task_crash=reduce:1:*").value();
  plan.set_parent(FaultPlan::FromEnv());
  job.spec.fault_plan = &plan;
  Result<MapReduceMetrics> metrics = MapReduceEngine(2).Run(job.spec, 1300);
  ASSERT_FALSE(metrics.ok());
  EXPECT_NE(metrics.status().message().find("reduce task 1"),
            std::string::npos)
      << metrics.status().message();
}

TEST(FaultToleranceTest, ReduceFaultAfterOutputStartedIsTerminal) {
  // A reduce_fn that throws after delivering groups must not be replayed:
  // re-delivering already-reduced groups would duplicate side effects.
  CountJob job(1, 1);
  std::atomic<int> delivered{0};
  job.spec.reduce_fn = [&](int, const GroupView&) {
    if (++delivered == 3) throw std::runtime_error("late crash");
  };
  Result<MapReduceMetrics> metrics = MapReduceEngine(1).Run(job.spec, 1300);
  ASSERT_FALSE(metrics.ok());
  // No replay: exactly 3 deliveries (2 good groups + the crashing one).
  EXPECT_EQ(delivered.load(), 3);
  EXPECT_NE(metrics.status().message().find("not retried"), std::string::npos)
      << metrics.status().message();
}

TEST(FaultToleranceTest, EngineReusedAcrossSequentialRuns) {
  // One engine = one shared pool; a failing job must leave the pool
  // drained and clean for the jobs after it.
  MapReduceEngine engine(2);
  FaultPlan round_fault = FaultPlan::Parse("task_crash=map:0:*").value();
  round_fault.set_parent(FaultPlan::FromEnv());
  for (int round = 0; round < 3; ++round) {
    CountJob good;
    Result<MapReduceMetrics> ok_metrics = engine.Run(good.spec, 650);
    ASSERT_TRUE(ok_metrics.ok()) << "round " << round;
    EXPECT_EQ(ok_metrics->emitted_pairs, 650);

    CountJob bad;
    bad.spec.max_task_attempts = 1;
    bad.spec.fault_plan = &round_fault;
    EXPECT_FALSE(engine.Run(bad.spec, 650).ok()) << "round " << round;
  }
  // After the failures the engine still computes correct results.
  CountJob final_job;
  Result<MapReduceMetrics> metrics = engine.Run(final_job.spec, 1300);
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics->task_failures, 0);
  int64_t total = 0;
  for (const auto& [key, sum] : final_job.sums) total += sum;
  EXPECT_EQ(total, 1300 * 1299 / 2);
}

TEST(FaultToleranceTest, CrashHookSeesEveryTaskOnce) {
  CountJob job(4, 5);
  std::mutex mu;
  // (phase, task) -> count
  std::map<std::pair<std::string, int>, int> attempts;
  FaultPlan plan;
  plan.set_parent(FaultPlan::FromEnv());
  plan.AddCrashHook([&](const char* phase, int task, int attempt) {
    std::unique_lock<std::mutex> lock(mu);
    EXPECT_EQ(attempt, 1);  // no faults -> only first attempts
    ++attempts[{phase, task}];
    return Status::OK();
  });
  job.spec.fault_plan = &plan;
  ASSERT_TRUE(MapReduceEngine(2).Run(job.spec, 1000).ok());
  EXPECT_EQ(attempts.size(), 9u);  // 4 mappers + 5 reducers
  for (const auto& [key, count] : attempts) EXPECT_EQ(count, 1);
}

TEST(FaultToleranceTest, RejectsZeroAttemptBudget) {
  CountJob job;
  job.spec.max_task_attempts = 0;
  EXPECT_EQ(MapReduceEngine(1).Run(job.spec, 10).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(FaultToleranceTest, CrashHookMatchesCrashSpecs) {
  CountJob clean;
  ASSERT_TRUE(MapReduceEngine(2).Run(clean.spec, 1300).ok());

  // The same faults as InjectedMapAndReduceFaultsRetryToIdenticalResults,
  // but injected by a crash hook instead of the two crash specs.
  FaultPlan plan(1);
  plan.AddCrashHook([](const char* phase, int task, int attempt) {
    const std::string_view p(phase);
    if ((p == "map" && task == 1 && attempt == 1) ||
        (p == "reduce" && task == 0 && attempt == 1)) {
      return Status::Internal("injected hook fault");
    }
    return Status::OK();
  });

  CountJob faulty;
  faulty.spec.fault_plan = &plan;
  Result<MapReduceMetrics> metrics = MapReduceEngine(2).Run(faulty.spec, 1300);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_EQ(metrics->task_failures, 2);
  EXPECT_EQ(metrics->task_retries, 2);
  EXPECT_EQ(faulty.sums, clean.sums);
  EXPECT_EQ(plan.faults_injected(), 2);
}

TEST(FaultToleranceTest, HookPlanChainsInFrontOfSpecPlan) {
  // A hook plan chained in front of a spec plan: both fire in one run.
  FaultPlan specs(1);
  FaultPlan::TaskCrash crash;
  crash.phase = "reduce";
  crash.task = 2;
  crash.attempt = 1;
  specs.Add(crash);

  FaultPlan hooks;
  hooks.set_parent(&specs);
  hooks.AddCrashHook([](const char* phase, int task, int attempt) {
    if (std::string_view(phase) == "map" && task == 0 && attempt == 1) {
      return Status::Internal("hook injected fault");
    }
    return Status::OK();
  });

  CountJob job;
  job.spec.fault_plan = &hooks;
  Result<MapReduceMetrics> metrics = MapReduceEngine(2).Run(job.spec, 1300);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_EQ(metrics->task_failures, 2);  // one from each source
  EXPECT_EQ(metrics->task_retries, 2);
  EXPECT_EQ(hooks.faults_injected(), 1);
  EXPECT_EQ(specs.faults_injected(), 1);
}

TEST(FaultToleranceTest, FaultPlanThrottleSlowsButDoesNotChangeResults) {
  CountJob clean(2, 2);
  ASSERT_TRUE(MapReduceEngine(2).Run(clean.spec, 400).ok());

  FaultPlan plan(1);
  FaultPlan::RecordThrottle throttle;
  throttle.phase = "map";
  throttle.seconds_per_record = 1e-6;
  plan.Add(throttle);
  CountJob throttled(2, 2);
  throttled.spec.fault_plan = &plan;
  Result<MapReduceMetrics> metrics =
      MapReduceEngine(2).Run(throttled.spec, 400);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_EQ(throttled.sums, clean.sums);
}

TEST(FaultToleranceTest, RetryBackoffSpacesAttemptsApart) {
  // Task 1 fails twice; with backoff on, attempt 2 starts >= initial/2
  // after attempt 1 (equal jitter: [base/2, base]) and attempt 3 another
  // >= initial after attempt 2 (the base doubles per retry).
  CountJob job(2, 2);
  job.spec.max_task_attempts = 3;
  job.spec.retry_backoff_initial_ms = 60;
  job.spec.retry_backoff_max_ms = 240;
  std::mutex mu;
  std::vector<double> attempt_starts;  // steady-clock seconds, task 1 only
  FaultPlan plan;
  plan.set_parent(FaultPlan::FromEnv());
  plan.AddCrashHook([&](const char* phase, int task, int attempt) {
    if (std::string_view(phase) != "map" || task != 1) return Status::OK();
    {
      std::unique_lock<std::mutex> lock(mu);
      attempt_starts.push_back(
          std::chrono::duration<double>(
              std::chrono::steady_clock::now().time_since_epoch())
              .count());
    }
    return attempt <= 2 ? Status::Internal("flaky") : Status::OK();
  });
  job.spec.fault_plan = &plan;
  Result<MapReduceMetrics> metrics = MapReduceEngine(2).Run(job.spec, 400);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  ASSERT_EQ(attempt_starts.size(), 3u);
  const double gap1 = attempt_starts[1] - attempt_starts[0];
  const double gap2 = attempt_starts[2] - attempt_starts[1];
  EXPECT_GE(gap1, 0.030);  // >= initial/2 (jitter floor)
  EXPECT_GE(gap2, 0.060);  // >= doubled base / 2
  EXPECT_EQ(metrics->task_retries, 2);
}

TEST(FaultToleranceTest, ZeroBackoffRetriesImmediately) {
  // The default (0) keeps the historical replay-immediately behavior:
  // two retries finish far faster than any backoff schedule would allow.
  CountJob job(2, 2);
  job.spec.max_task_attempts = 3;
  std::mutex mu;
  std::vector<double> attempt_starts;
  FaultPlan plan;
  plan.set_parent(FaultPlan::FromEnv());
  plan.AddCrashHook([&](const char* phase, int task, int attempt) {
    if (std::string_view(phase) != "map" || task != 0) return Status::OK();
    {
      std::unique_lock<std::mutex> lock(mu);
      attempt_starts.push_back(
          std::chrono::duration<double>(
              std::chrono::steady_clock::now().time_since_epoch())
              .count());
    }
    return attempt <= 2 ? Status::Internal("flaky") : Status::OK();
  });
  job.spec.fault_plan = &plan;
  ASSERT_TRUE(MapReduceEngine(2).Run(job.spec, 400).ok());
  ASSERT_EQ(attempt_starts.size(), 3u);
  EXPECT_LT(attempt_starts[2] - attempt_starts[0], 0.030);
}

}  // namespace
}  // namespace casm

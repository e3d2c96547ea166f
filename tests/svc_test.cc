// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.
//
// Tests for the multi-query service (svc/query_service.h): lifecycle
// (submit/poll/wait/cancel/deadline) races, admission fairness under a
// tight memory budget, the shared-vs-solo differential suite (shared
// batching must fan results back out BIT-IDENTICALLY, tolerance 0.0),
// a seeded chaos run with concurrent queries over an injected fault
// plan, and a concurrent submit/cancel stress that doubles as the TSan
// canary for the service's locking.

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "bench/workload.h"
#include "common/fault.h"
#include "data/generator.h"
#include "queries/paper_data.h"
#include "queries/paper_queries.h"
#include "svc/query_service.h"

namespace casm {
namespace {

/// Q1..Q6 and a table, all sharing ONE schema instance (shared-scan
/// compatibility is pointer identity).
struct ServiceFixture {
  SchemaPtr schema;
  Table table;
  std::vector<Workflow> workflows;

  explicit ServiceFixture(int64_t rows = 1500, uint64_t seed = 11)
      : schema(PaperSchema()),
        table(GenerateUniformTable(schema, rows, seed)) {
    for (PaperQuery q : {PaperQuery::kQ1, PaperQuery::kQ2, PaperQuery::kQ3,
                         PaperQuery::kQ4, PaperQuery::kQ5, PaperQuery::kQ6}) {
      workflows.push_back(MakePaperQuery(q, schema));
    }
  }

  QueryRequest Request(size_t i) const {
    QueryRequest request;
    request.workflow = &workflows[i % workflows.size()];
    request.table = &table;
    return request;
  }
};

QueryServiceOptions SmallService() {
  QueryServiceOptions options;
  options.num_workers = 2;
  options.num_mappers = 3;
  options.num_reducers = 4;
  options.num_threads = 2;
  return options;
}

/// Solo evaluation of `wf` under exactly `plan`, for differential checks.
MeasureResultSet SoloReference(const Workflow& wf, const Table& table,
                               const ExecutionPlan& plan,
                               const QueryServiceOptions& options) {
  ParallelEvalOptions eval;
  eval.num_mappers = options.num_mappers;
  eval.num_reducers = options.num_reducers;
  eval.num_threads = options.num_threads;
  Result<ParallelEvalResult> solo = EvaluateParallel(wf, table, plan, eval);
  EXPECT_TRUE(solo.ok()) << solo.status();
  return std::move(solo).value().results;
}

TEST(SvcTest, SubmitWaitLifecycle) {
  ServiceFixture fx;
  QueryService service(SmallService());
  Result<QueryService::QueryId> id = service.Submit(fx.Request(0));
  ASSERT_TRUE(id.ok()) << id.status();

  Result<QueryOutcome> outcome = service.Wait(id.value());
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_EQ(outcome->state, QueryState::kDone);
  EXPECT_TRUE(outcome->status.ok());
  EXPECT_GT(outcome->results.TotalResults(), 0);
  EXPECT_GT(outcome->run_sequence, 0);

  Result<QueryState> polled = service.Poll(id.value());
  ASSERT_TRUE(polled.ok());
  EXPECT_EQ(polled.value(), QueryState::kDone);

  EXPECT_EQ(service.Poll(9999).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(service.Wait(9999).status().code(), StatusCode::kNotFound);
  const QueryServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, 1);
  EXPECT_EQ(stats.completed, 1);
}

TEST(SvcTest, SharedBatchIsBitIdenticalToSolo) {
  // The core differential suite: all six paper queries ride ONE shared
  // scan, and each one's results must match a solo evaluation of its own
  // workflow under the very plan the service executed — exactly, not
  // approximately.
  ServiceFixture fx;
  QueryServiceOptions options = SmallService();
  options.num_workers = 1;  // deterministic batch formation
  options.start_paused = true;
  options.max_batch_queries = 6;
  options.batch_window_seconds = 0.05;
  QueryService service(options);

  std::vector<QueryService::QueryId> ids;
  for (size_t i = 0; i < fx.workflows.size(); ++i) {
    Result<QueryService::QueryId> id = service.Submit(fx.Request(i));
    ASSERT_TRUE(id.ok()) << id.status();
    ids.push_back(id.value());
  }
  service.Start();

  for (size_t i = 0; i < ids.size(); ++i) {
    Result<QueryOutcome> outcome = service.Wait(ids[i]);
    ASSERT_TRUE(outcome.ok()) << outcome.status();
    ASSERT_EQ(outcome->state, QueryState::kDone) << outcome->status;
    EXPECT_TRUE(outcome->shared);
    EXPECT_EQ(outcome->batch_queries, 6);
    const MeasureResultSet reference =
        SoloReference(fx.workflows[i], fx.table, outcome->plan, options);
    const Status same =
        CompareResultSets(reference, outcome->results, /*tolerance=*/0.0);
    EXPECT_TRUE(same.ok()) << "query " << i << ": " << same.ToString();
  }
  const QueryServiceStats stats = service.stats();
  EXPECT_EQ(stats.scan_passes, 1);  // six queries, one scan
  EXPECT_EQ(stats.shared_batches, 1);
  EXPECT_EQ(stats.shared_queries, 6);
  EXPECT_EQ(stats.solo_queries, 0);
}

TEST(SvcTest, CancelledMemberLeavesItsPeerBitIdentical) {
  // Cancelling one member of a running two-member batch drops only that
  // member's results: the job keeps running for its peer, which ends
  // bit-identical to solo. A reduce slowdown keeps the batch running.
  ServiceFixture fx;
  FaultPlan slow;
  slow.set_parent(FaultPlan::FromEnv());
  FaultPlan::TaskSlowdown slowdown;
  slowdown.phase = "reduce";
  slowdown.seconds = 0.25;
  slow.Add(slowdown);
  QueryServiceOptions options = SmallService();
  options.num_workers = 1;  // deterministic batch formation
  options.start_paused = true;
  options.max_batch_queries = 2;
  options.batch_window_seconds = 0.05;
  options.fault_plan = &slow;
  QueryService service(options);
  const QueryService::QueryId keep = service.Submit(fx.Request(0)).value();
  const QueryService::QueryId drop = service.Submit(fx.Request(1)).value();
  service.Start();
  while (service.Poll(drop).value() == QueryState::kQueued) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Past the batch's start: its reduce tasks sleep for ~0.5 s.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_TRUE(service.Cancel(drop));

  Result<QueryOutcome> kept = service.Wait(keep);
  ASSERT_TRUE(kept.ok());
  ASSERT_EQ(kept->state, QueryState::kDone) << kept->status;
  EXPECT_TRUE(kept->shared);
  EXPECT_EQ(kept->batch_queries, 2);
  const Status same = CompareResultSets(
      SoloReference(fx.workflows[0], fx.table, kept->plan, options),
      kept->results, /*tolerance=*/0.0);
  EXPECT_TRUE(same.ok()) << same.ToString();
  Result<QueryOutcome> dropped = service.Wait(drop);
  ASSERT_TRUE(dropped.ok());
  EXPECT_EQ(dropped->state, QueryState::kCancelled);
  EXPECT_EQ(dropped->results.TotalResults(), 0);
  const QueryServiceStats stats = service.stats();
  EXPECT_EQ(stats.scan_passes, 1);
  EXPECT_EQ(stats.completed, 1);
  EXPECT_EQ(stats.cancelled, 1);
}

TEST(SvcTest, EmptyTableCompletesWithColdAndWarmPlanCache) {
  // The cost model needs an input size: an empty table plans as one
  // record, so the cold cache's optimizer run succeeds, and the plan it
  // caches serves the second query.
  ServiceFixture fx;
  Table empty = GenerateUniformTable(fx.schema, 0, /*seed=*/5);
  QueryService service(SmallService());
  QueryRequest request = fx.Request(0);
  request.table = &empty;
  for (const char* cache : {"cold", "warm"}) {
    SCOPED_TRACE(cache);
    Result<QueryOutcome> outcome =
        service.Wait(service.Submit(request).value());
    ASSERT_TRUE(outcome.ok());
    EXPECT_EQ(outcome->state, QueryState::kDone) << outcome->status;
    EXPECT_EQ(outcome->results.TotalResults(), 0);
  }
  const QueryServiceStats stats = service.stats();
  EXPECT_EQ(stats.plan_cache_misses, 1);
  EXPECT_EQ(stats.plan_cache_hits, 1);
  EXPECT_EQ(stats.completed, 2);
}

TEST(SvcTest, SharedBatchingOffEvaluatesSolo) {
  ServiceFixture fx;
  QueryServiceOptions options = SmallService();
  options.start_paused = true;
  options.shared_batching = false;
  QueryService service(options);
  std::vector<QueryService::QueryId> ids;
  for (int i = 0; i < 3; ++i) {
    ids.push_back(service.Submit(fx.Request(static_cast<size_t>(i))).value());
  }
  service.Start();
  for (QueryService::QueryId id : ids) {
    Result<QueryOutcome> outcome = service.Wait(id);
    ASSERT_TRUE(outcome.ok());
    EXPECT_EQ(outcome->state, QueryState::kDone);
    EXPECT_FALSE(outcome->shared);
    EXPECT_EQ(outcome->batch_queries, 1);
  }
  EXPECT_EQ(service.stats().scan_passes, 3);
  EXPECT_EQ(service.stats().solo_queries, 3);
}

TEST(SvcTest, AllowSharedFalseOptsOut) {
  ServiceFixture fx;
  QueryServiceOptions options = SmallService();
  options.num_workers = 1;
  options.start_paused = true;
  QueryService service(options);
  QueryRequest opted_out = fx.Request(0);
  opted_out.allow_shared = false;
  const QueryService::QueryId a = service.Submit(opted_out).value();
  const QueryService::QueryId b = service.Submit(fx.Request(1)).value();
  service.Start();
  EXPECT_EQ(service.Wait(a)->state, QueryState::kDone);
  EXPECT_EQ(service.Wait(b)->state, QueryState::kDone);
  EXPECT_FALSE(service.Wait(a)->shared);
  EXPECT_FALSE(service.Wait(b)->shared);
  EXPECT_EQ(service.stats().scan_passes, 2);
}

TEST(SvcTest, DifferentTablesDoNotBatch) {
  ServiceFixture fx;
  Table other = GenerateUniformTable(fx.schema, 1200, /*seed=*/29);
  QueryServiceOptions options = SmallService();
  options.num_workers = 1;
  options.start_paused = true;
  QueryService service(options);
  QueryRequest on_other = fx.Request(1);
  on_other.table = &other;
  const QueryService::QueryId a = service.Submit(fx.Request(0)).value();
  const QueryService::QueryId b = service.Submit(on_other).value();
  service.Start();
  EXPECT_EQ(service.Wait(a)->state, QueryState::kDone);
  EXPECT_EQ(service.Wait(b)->state, QueryState::kDone);
  EXPECT_EQ(service.stats().scan_passes, 2);
  EXPECT_EQ(service.stats().shared_batches, 0);
}

TEST(SvcTest, CancelQueuedQueryNeverRuns) {
  ServiceFixture fx;
  QueryServiceOptions options = SmallService();
  options.start_paused = true;
  QueryService service(options);
  const QueryService::QueryId keep = service.Submit(fx.Request(0)).value();
  const QueryService::QueryId drop = service.Submit(fx.Request(1)).value();
  EXPECT_TRUE(service.Cancel(drop));
  service.Start();

  Result<QueryOutcome> kept = service.Wait(keep);
  ASSERT_TRUE(kept.ok());
  EXPECT_EQ(kept->state, QueryState::kDone);
  Result<QueryOutcome> dropped = service.Wait(drop);
  ASSERT_TRUE(dropped.ok());
  EXPECT_EQ(dropped->state, QueryState::kCancelled);
  EXPECT_EQ(dropped->run_sequence, 0);  // never started
  EXPECT_FALSE(service.Cancel(drop));   // already terminal
  EXPECT_EQ(service.stats().cancelled, 1);
}

TEST(SvcTest, DeadlineExpiryWhileQueued) {
  ServiceFixture fx;
  QueryServiceOptions options = SmallService();
  options.start_paused = true;
  QueryService service(options);
  QueryRequest hurried = fx.Request(0);
  hurried.deadline_seconds = 0.01;
  const QueryService::QueryId id = service.Submit(hurried).value();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  service.Start();
  Result<QueryOutcome> outcome = service.Wait(id);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->state, QueryState::kExpired);
  EXPECT_EQ(outcome->run_sequence, 0);
  EXPECT_EQ(service.stats().expired, 1);
}

TEST(SvcTest, DeadlineExpiryWhileRunning) {
  // A deadline far below the evaluation time trips the engine's
  // cancellation token mid-run; the service surfaces kExpired.
  ServiceFixture fx(/*rows=*/30000, /*seed=*/13);
  QueryServiceOptions options = SmallService();
  QueryService service(options);
  QueryRequest hurried = fx.Request(2);  // Q3: five measures, slowest
  hurried.deadline_seconds = 0.001;
  const QueryService::QueryId id = service.Submit(hurried).value();
  Result<QueryOutcome> outcome = service.Wait(id);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->state == QueryState::kExpired ||
              outcome->state == QueryState::kDone)
      << QueryStateName(outcome->state);
  // On any machine slow enough to matter the deadline fires; accept kDone
  // only to keep the test honest on absurdly fast hardware.
}

TEST(SvcTest, PriorityOrdersExecution) {
  ServiceFixture fx;
  QueryServiceOptions options = SmallService();
  options.num_workers = 1;
  options.start_paused = true;
  options.shared_batching = false;  // one query per run -> observable order
  QueryService service(options);
  const QueryService::QueryId low_a = service.Submit(fx.Request(0)).value();
  const QueryService::QueryId low_b = service.Submit(fx.Request(1)).value();
  QueryRequest urgent = fx.Request(2);
  urgent.priority = 5;
  const QueryService::QueryId high = service.Submit(urgent).value();
  service.Start();

  const int64_t high_seq = service.Wait(high)->run_sequence;
  const int64_t low_a_seq = service.Wait(low_a)->run_sequence;
  const int64_t low_b_seq = service.Wait(low_b)->run_sequence;
  EXPECT_LT(high_seq, low_a_seq);
  EXPECT_LT(high_seq, low_b_seq);
  EXPECT_LT(low_a_seq, low_b_seq);  // FIFO within a priority
}

TEST(SvcTest, AdmissionFairnessUnderTightBudget) {
  // A budget that fits exactly one job at a time: jobs serialize on
  // Reserve(), nobody starves, every query completes, and the waits are
  // visible in the stats.
  ServiceFixture fx;
  QueryServiceOptions options = SmallService();
  options.shared_batching = false;
  options.memory_budget_bytes = 1 << 20;
  options.per_query_reserve_bytes = 1 << 20;
  options.start_paused = true;
  QueryService service(options);
  std::vector<QueryService::QueryId> ids;
  for (int i = 0; i < 6; ++i) {
    ids.push_back(service.Submit(fx.Request(static_cast<size_t>(i))).value());
  }
  service.Start();
  for (QueryService::QueryId id : ids) {
    Result<QueryOutcome> outcome = service.Wait(id);
    ASSERT_TRUE(outcome.ok());
    EXPECT_EQ(outcome->state, QueryState::kDone) << outcome->status;
  }
  const QueryServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, 6);
  // Two workers contended for a one-job budget: at least one Reserve had
  // to wait.
  EXPECT_GE(stats.admission_waits, 1);
}

TEST(SvcTest, OversizedReservationIsClampedNotRejected) {
  // A projected footprint above the whole budget must not fail the query
  // (MemoryBudget fails oversized reservations by design); the service
  // clamps to capacity and serializes instead.
  ServiceFixture fx;
  QueryServiceOptions options = SmallService();
  options.memory_budget_bytes = 4096;  // far below any real footprint
  QueryService service(options);
  Result<QueryOutcome> outcome =
      service.Wait(service.Submit(fx.Request(0)).value());
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->state, QueryState::kDone) << outcome->status;
}

TEST(SvcTest, QueueCapRejectsOverflow) {
  ServiceFixture fx;
  QueryServiceOptions options = SmallService();
  options.start_paused = true;
  options.max_queue = 2;
  QueryService service(options);
  ASSERT_TRUE(service.Submit(fx.Request(0)).ok());
  ASSERT_TRUE(service.Submit(fx.Request(1)).ok());
  Result<QueryService::QueryId> overflow = service.Submit(fx.Request(2));
  EXPECT_EQ(overflow.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(service.stats().rejected, 1);
  service.Shutdown();
}

TEST(SvcTest, ShutdownCancelsQueuedAndRefusesNewWork) {
  ServiceFixture fx;
  QueryServiceOptions options = SmallService();
  options.start_paused = true;
  QueryService service(options);
  const QueryService::QueryId id = service.Submit(fx.Request(0)).value();
  service.Shutdown();
  Result<QueryOutcome> outcome = service.Wait(id);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->state, QueryState::kCancelled);
  EXPECT_EQ(service.Submit(fx.Request(1)).status().code(),
            StatusCode::kFailedPrecondition);
  service.Shutdown();  // idempotent
}

TEST(SvcTest, MalformedRequestIsRejected) {
  QueryService service(SmallService());
  QueryRequest empty;
  EXPECT_EQ(service.Submit(empty).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SvcTest, SeededChaosWithConcurrentQueries) {
  // A deterministic fault plan (task crashes + slowdowns) under a
  // concurrent Zipf mix: the service must absorb the faults through the
  // engine's retry machinery — every query still completes, and shared
  // results stay bit-identical to a fault-free solo run of the same plan.
  ServiceFixture fx(/*rows=*/1200, /*seed=*/17);
  FaultPlan chaos(/*seed=*/23);
  FaultPlan::TaskCrash crash;
  crash.phase = "map";
  crash.probability = 0.05;
  chaos.Add(crash);
  FaultPlan::TaskSlowdown slow;
  slow.phase = "reduce";
  slow.task = 0;
  slow.seconds = 0.002;
  chaos.Add(slow);

  QueryServiceOptions options = SmallService();
  options.fault_plan = &chaos;
  options.start_paused = true;
  options.batch_window_seconds = 0.02;
  QueryService service(options);

  bench::WorkloadOptions wopt;
  wopt.seed = 0xC4405;
  wopt.num_queries = 10;
  const std::vector<bench::WorkloadItem> items = bench::MakeWorkload(wopt);
  std::vector<QueryService::QueryId> ids;
  for (const bench::WorkloadItem& item : items) {
    ids.push_back(
        service.Submit(fx.Request(static_cast<size_t>(item.template_index)))
            .value());
  }
  service.Start();
  for (size_t i = 0; i < ids.size(); ++i) {
    Result<QueryOutcome> outcome = service.Wait(ids[i]);
    ASSERT_TRUE(outcome.ok());
    ASSERT_EQ(outcome->state, QueryState::kDone) << outcome->status;
    const MeasureResultSet reference = SoloReference(
        fx.workflows[static_cast<size_t>(items[i].template_index)], fx.table,
        outcome->plan, options);
    const Status same =
        CompareResultSets(reference, outcome->results, /*tolerance=*/0.0);
    EXPECT_TRUE(same.ok()) << same.ToString();
  }
}

TEST(SvcTest, ConcurrentSubmitCancelStress) {
  // TSan canary: several submitter threads race Submit/Cancel/Poll/Wait
  // against the worker pool with shared batching on. Every query must
  // reach a coherent terminal state and done queries must carry results.
  ServiceFixture fx(/*rows=*/800, /*seed=*/31);
  QueryServiceOptions options = SmallService();
  options.batch_window_seconds = 0.005;
  QueryService service(options);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 8;
  std::vector<std::vector<QueryService::QueryId>> ids(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      bench::WorkloadOptions wopt;
      wopt.seed = 0x57E55 + static_cast<uint64_t>(t);
      wopt.num_queries = kPerThread;
      const std::vector<bench::WorkloadItem> items =
          bench::MakeWorkload(wopt);
      for (int i = 0; i < kPerThread; ++i) {
        Result<QueryService::QueryId> id = service.Submit(
            fx.Request(static_cast<size_t>(items[static_cast<size_t>(i)]
                                               .template_index)));
        if (!id.ok()) continue;
        ids[static_cast<size_t>(t)].push_back(id.value());
        if ((t + i) % 4 == 0) {
          service.Cancel(id.value());
        } else {
          (void)service.Poll(id.value());
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  int64_t done = 0, cancelled = 0;
  for (const std::vector<QueryService::QueryId>& batch : ids) {
    for (QueryService::QueryId id : batch) {
      Result<QueryOutcome> outcome = service.Wait(id);
      ASSERT_TRUE(outcome.ok());
      switch (outcome->state) {
        case QueryState::kDone:
          ++done;
          EXPECT_GT(outcome->results.TotalResults(), 0);
          break;
        case QueryState::kCancelled:
          ++cancelled;
          break;
        default:
          FAIL() << "unexpected terminal state "
                 << QueryStateName(outcome->state) << ": "
                 << outcome->status;
      }
    }
  }
  EXPECT_GT(done, 0);
  EXPECT_EQ(done + cancelled, kThreads * kPerThread);
  const QueryServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, done);
  EXPECT_EQ(stats.cancelled, cancelled);
  EXPECT_EQ(stats.queue_depth, 0);
  EXPECT_EQ(stats.in_flight, 0);
}

}  // namespace
}  // namespace casm

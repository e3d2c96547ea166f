// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.
//
// Tests for the parallel evaluator mechanics: exactness against the
// reference evaluator on focused workflows, replication accounting,
// ownership filtering, early aggregation, combined sort, phases, and
// error handling. (Whole-paper-query exactness lives in integration_test.)

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/cancellation.h"
#include "common/fault.h"
#include "core/eval_internal.h"
#include "core/key_derivation.h"
#include "core/keygen.h"
#include "core/optimizer.h"
#include "core/parallel_evaluator.h"
#include "data/generator.h"
#include "local/reference_evaluator.h"
#include "mr/engine.h"
#include "queries/paper_data.h"
#include "queries/paper_queries.h"

namespace casm {
namespace {

SchemaPtr TestSchema() {
  return MakeSchemaOrDie(
      {Hierarchy::Numeric("X", 16, {4}, {"value", "bucket"}).value(),
       Hierarchy::Numeric("T", 96, {4, 16}, {"tick", "quad", "span"})
           .value()});
}

Granularity Gran(const SchemaPtr& s, const std::string& xl,
                 const std::string& tl) {
  return Granularity::Of(*s, {{"X", xl}, {"T", tl}}).value();
}

Workflow WindowWorkflow(const SchemaPtr& schema) {
  WorkflowBuilder b(schema);
  int m1 = b.AddBasic("base", Gran(schema, "value", "tick"),
                      AggregateFn::kSum, "X");
  b.AddSourceAggregate("win", Gran(schema, "value", "tick"),
                       AggregateFn::kAvg, {b.Sibling(m1, "T", -3, 1)});
  return std::move(b).Build().value();
}

ExecutionPlan DerivedPlan(const Workflow& wf, int64_t cf) {
  ExecutionPlan plan;
  plan.key = DeriveDistributionKeys(wf).query_key;
  plan.clustering_factor = cf;
  return plan;
}

ParallelEvalOptions EvalOpts(int mappers, int reducers) {
  ParallelEvalOptions o;
  o.num_mappers = mappers;
  o.num_reducers = reducers;
  o.num_threads = 2;
  return o;
}

TEST(ParallelEvalTest, MatchesReferenceAcrossClusteringFactors) {
  SchemaPtr schema = TestSchema();
  Workflow wf = WindowWorkflow(schema);
  Table table = GenerateUniformTable(schema, 3000, 77);
  MeasureResultSet expected = EvaluateReference(wf, table);
  for (int64_t cf : {1, 2, 5, 13, 96}) {
    Result<ParallelEvalResult> result =
        EvaluateParallel(wf, table, DerivedPlan(wf, cf), EvalOpts(3, 4));
    ASSERT_TRUE(result.ok()) << "cf=" << cf << ": " << result.status();
    EXPECT_TRUE(CompareResultSets(expected, result->results, 1e-9).ok())
        << "cf=" << cf << ": "
        << CompareResultSets(expected, result->results, 1e-9).ToString();
  }
}

TEST(ParallelEvalTest, ReplicationMatchesAnnotationWidth) {
  SchemaPtr schema = TestSchema();
  Workflow wf = WindowWorkflow(schema);
  Table table = GenerateUniformTable(schema, 5000, 5);
  // Annotation (-4..+1 after derivation) has width d; replication should
  // be about (d + cf) / cf, slightly less due to domain-edge clipping.
  ExecutionPlan plan = DerivedPlan(wf, 1);
  const int64_t d = plan.AnnotationWidth();
  ASSERT_GT(d, 0);
  for (int64_t cf : {1, 2, 4}) {
    plan.clustering_factor = cf;
    Result<ParallelEvalResult> result =
        EvaluateParallel(wf, table, plan, EvalOpts(2, 3));
    ASSERT_TRUE(result.ok());
    const double expected_replication =
        static_cast<double>(d + cf) / static_cast<double>(cf);
    EXPECT_LE(result->metrics.ReplicationFactor(), expected_replication);
    EXPECT_GT(result->metrics.ReplicationFactor(),
              0.8 * expected_replication);
  }
}

TEST(ParallelEvalTest, NonOverlappingPlanHasNoReplication) {
  SchemaPtr schema = TestSchema();
  WorkflowBuilder b(schema);
  b.AddBasic("m", Gran(schema, "bucket", "quad"), AggregateFn::kSum, "X");
  Workflow wf = std::move(b).Build().value();
  Table table = GenerateUniformTable(schema, 2000, 3);
  Result<ParallelEvalResult> result =
      EvaluateParallel(wf, table, DerivedPlan(wf, 1), EvalOpts(2, 4));
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->metrics.ReplicationFactor(), 1.0);
  EXPECT_EQ(result->results_filtered, 0);
}

TEST(ParallelEvalTest, OverlappingPlanFiltersForeignResults) {
  SchemaPtr schema = TestSchema();
  Workflow wf = WindowWorkflow(schema);
  Table table = GenerateUniformTable(schema, 3000, 9);
  Result<ParallelEvalResult> result =
      EvaluateParallel(wf, table, DerivedPlan(wf, 2), EvalOpts(2, 4));
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->results_filtered, 0);
}

TEST(ParallelEvalTest, RejectsInfeasiblePlan) {
  SchemaPtr schema = TestSchema();
  Workflow wf = WindowWorkflow(schema);
  Table table = GenerateUniformTable(schema, 100, 1);
  ExecutionPlan plan;
  plan.key =
      DistributionKey::Of(*schema, {{"X", "value", 0, 0}, {"T", "tick", 0, 0}})
          .value();
  EXPECT_FALSE(EvaluateParallel(wf, table, plan, EvalOpts(1, 1)).ok());
}

TEST(ParallelEvalTest, EarlyAggregationMatchesReference) {
  SchemaPtr schema = TestSchema();
  WorkflowBuilder b(schema);
  int m1 = b.AddBasic("sum", Gran(schema, "value", "quad"),
                      AggregateFn::kSum, "T");
  int m2 = b.AddBasic("avg", Gran(schema, "value", "quad"),
                      AggregateFn::kAvg, "X");
  b.AddExpression(
      "ratio", Gran(schema, "value", "quad"),
      Expression::Source(0) / Expression::Source(1),
      {WorkflowBuilder::Self(m1), WorkflowBuilder::Self(m2)});
  b.AddSourceAggregate("up", Gran(schema, "bucket", "span"),
                       AggregateFn::kAvg, {WorkflowBuilder::ChildParent(m1)});
  Workflow wf = std::move(b).Build().value();
  Table table = GenerateUniformTable(schema, 4000, 31);

  MeasureResultSet expected = EvaluateReference(wf, table);
  ExecutionPlan plan = DerivedPlan(wf, 1);
  plan.early_aggregation = true;
  Result<ParallelEvalResult> result =
      EvaluateParallel(wf, table, plan, EvalOpts(3, 4));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(CompareResultSets(expected, result->results, 1e-9).ok())
      << CompareResultSets(expected, result->results, 1e-9).ToString();
  // Pre-aggregation must shrink the shuffle: fewer pairs than records.
  EXPECT_LT(result->metrics.emitted_pairs, table.num_rows());
}

TEST(ParallelEvalTest, EarlyAggregationWithOverlapMatchesReference) {
  SchemaPtr schema = TestSchema();
  WorkflowBuilder b(schema);
  int m1 = b.AddBasic("sum", Gran(schema, "value", "quad"),
                      AggregateFn::kSum, "X");
  b.AddSourceAggregate("win", Gran(schema, "value", "quad"),
                       AggregateFn::kAvg, {b.Sibling(m1, "T", -2, 0)});
  Workflow wf = std::move(b).Build().value();
  Table table = GenerateUniformTable(schema, 3000, 8);
  MeasureResultSet expected = EvaluateReference(wf, table);
  ExecutionPlan plan = DerivedPlan(wf, 2);
  plan.early_aggregation = true;
  Result<ParallelEvalResult> result =
      EvaluateParallel(wf, table, plan, EvalOpts(2, 3));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(CompareResultSets(expected, result->results, 1e-9).ok())
      << CompareResultSets(expected, result->results, 1e-9).ToString();
}

TEST(ParallelEvalTest, EarlyAggregationRejectsHolisticBasics) {
  SchemaPtr schema = TestSchema();
  WorkflowBuilder b(schema);
  b.AddBasic("med", Gran(schema, "value", "quad"), AggregateFn::kMedian,
             "X");
  Workflow wf = std::move(b).Build().value();
  Table table = GenerateUniformTable(schema, 100, 2);
  ExecutionPlan plan = DerivedPlan(wf, 1);
  plan.early_aggregation = true;
  Result<ParallelEvalResult> result =
      EvaluateParallel(wf, table, plan, EvalOpts(1, 1));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(ParallelEvalTest, CombinedSortMatchesReference) {
  SchemaPtr schema = TestSchema();
  Workflow wf = WindowWorkflow(schema);
  Table table = GenerateUniformTable(schema, 3000, 55);
  MeasureResultSet expected = EvaluateReference(wf, table);
  ExecutionPlan plan = DerivedPlan(wf, 3);
  plan.combined_sort = true;
  Result<ParallelEvalResult> result =
      EvaluateParallel(wf, table, plan, EvalOpts(2, 4));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(CompareResultSets(expected, result->results, 1e-9).ok())
      << CompareResultSets(expected, result->results, 1e-9).ToString();
  // The reducer-side sort is skipped entirely.
  EXPECT_DOUBLE_EQ(result->local_stats.sort_seconds, 0.0);
}

TEST(ParallelEvalTest, PhasesProduceNoResultsButCountWork) {
  SchemaPtr schema = TestSchema();
  Workflow wf = WindowWorkflow(schema);
  Table table = GenerateUniformTable(schema, 1000, 6);
  for (ParallelEvalPhase phase :
       {ParallelEvalPhase::kMapOnly, ParallelEvalPhase::kShuffleOnly,
        ParallelEvalPhase::kLocalSortOnly}) {
    ParallelEvalOptions opts = EvalOpts(2, 3);
    opts.phase = phase;
    Result<ParallelEvalResult> result =
        EvaluateParallel(wf, table, DerivedPlan(wf, 2), opts);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->results.TotalResults(), 0);
    EXPECT_GT(result->metrics.emitted_pairs, 0);
  }
}

TEST(ParallelEvalTest, ManyVirtualReducersStillExact) {
  SchemaPtr schema = TestSchema();
  Workflow wf = WindowWorkflow(schema);
  Table table = GenerateUniformTable(schema, 2000, 12);
  MeasureResultSet expected = EvaluateReference(wf, table);
  Result<ParallelEvalResult> result =
      EvaluateParallel(wf, table, DerivedPlan(wf, 2), EvalOpts(4, 64));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(CompareResultSets(expected, result->results, 1e-9).ok());
  EXPECT_EQ(static_cast<int>(result->metrics.reducer_pairs.size()), 64);
}

TEST(ParallelEvalTest, EmptyTableYieldsEmptyResults) {
  SchemaPtr schema = TestSchema();
  Workflow wf = WindowWorkflow(schema);
  Table table(schema);
  Result<ParallelEvalResult> result =
      EvaluateParallel(wf, table, DerivedPlan(wf, 2), EvalOpts(2, 2));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->results.TotalResults(), 0);
}

TEST(ParallelEvalTest, InjectedTaskFaultsRetryToByteIdenticalResults) {
  SchemaPtr schema = TestSchema();
  Workflow wf = WindowWorkflow(schema);
  Table table = GenerateUniformTable(schema, 3000, 21);
  ExecutionPlan plan = DerivedPlan(wf, 2);

  Result<ParallelEvalResult> clean =
      EvaluateParallel(wf, table, plan, EvalOpts(3, 4));
  ASSERT_TRUE(clean.ok()) << clean.status();
  EXPECT_EQ(clean->metrics.task_retries, 0);

  ParallelEvalOptions opts = EvalOpts(3, 4);
  FaultPlan faults =
      FaultPlan::Parse("task_crash=map:0:1; task_crash=reduce:2:1").value();
  faults.set_parent(FaultPlan::FromEnv());
  opts.fault_plan = &faults;
  Result<ParallelEvalResult> faulty = EvaluateParallel(wf, table, plan, opts);
  ASSERT_TRUE(faulty.ok()) << faulty.status();
  EXPECT_EQ(faulty->metrics.task_failures, 2);
  EXPECT_EQ(faulty->metrics.task_retries, 2);
  EXPECT_EQ(faulty->metrics.emitted_pairs, clean->metrics.emitted_pairs);
  EXPECT_TRUE(CompareResultSets(clean->results, faulty->results, 0.0).ok())
      << CompareResultSets(clean->results, faulty->results, 0.0).ToString();
}

// Each reduce task's results have one writer, the execution that owns
// the task's output, even when a backup beats a slowed primary and a
// crashed first attempt is retried before its first group. Alone and as
// both members of a batch, at every thread count, such a run must equal
// a clean run bit for bit, and the reference.
TEST(ParallelEvalTest, SpeculatedAndRetriedReducersKeepOneOwnerPerTask) {
  Workflow wf = MakePaperQuery(PaperQuery::kQ6);
  Table table = PaperUniformTable(2000, 31);
  MeasureResultSet expected = EvaluateReference(wf, table);
  OptimizerOptions optimizer;
  optimizer.num_reducers = 4;
  optimizer.num_records = table.num_rows();
  Result<ExecutionPlan> optimized = OptimizePlan(wf, optimizer);
  ASSERT_TRUE(optimized.ok()) << optimized.status();
  // A batch's regime, so one plan serves one member and two.
  ExecutionPlan plan = optimized.value();
  plan.early_aggregation = false;
  plan.combined_sort = false;

  for (int threads : {1, 2, 4}) {
    SCOPED_TRACE("num_threads=" + std::to_string(threads));
    ParallelEvalOptions clean_opts = EvalOpts(3, 4);
    clean_opts.num_threads = threads;
    Result<ParallelEvalResult> clean =
        EvaluateParallel(wf, table, plan, clean_opts);
    ASSERT_TRUE(clean.ok()) << clean.status();
    EXPECT_TRUE(CompareResultSets(expected, clean->results, 1e-7).ok());

    // Reduce task 1's first attempt crashes before its first group; task
    // 3's primary (attempt 1) sleeps until a backup (attempt 3) beats it.
    // On one thread the backup queues behind the sleeping primary, which
    // then wins.
    FaultPlan faults =
        FaultPlan::Parse("task_crash=reduce:1:1; slow_task=reduce:3:1:1.0")
            .value();
    faults.set_parent(FaultPlan::FromEnv());
    ParallelEvalOptions opts = clean_opts;
    opts.fault_plan = &faults;
    opts.speculative_execution = true;

    Result<ParallelEvalResult> solo = EvaluateParallel(wf, table, plan, opts);
    ASSERT_TRUE(solo.ok()) << solo.status();
    Result<std::vector<ParallelEvalResult>> batch = EvaluateParallelBatch(
        {BatchQuery{&wf, "a"}, BatchQuery{&wf, "b"}}, table, plan, opts);
    ASSERT_TRUE(batch.ok()) << batch.status();
    ASSERT_EQ(batch->size(), 2u);
    std::vector<const ParallelEvalResult*> runs = {&solo.value()};
    for (const ParallelEvalResult& member : batch.value()) {
      runs.push_back(&member);
    }
    for (const ParallelEvalResult* r : runs) {
      EXPECT_GT(r->metrics.speculative_attempts, 0);
      EXPECT_GE(r->metrics.task_retries, 1);
      Status identical = CompareResultSets(clean->results, r->results, 0.0);
      EXPECT_TRUE(identical.ok()) << identical.ToString();
      Status exact = CompareResultSets(expected, r->results, 1e-7);
      EXPECT_TRUE(exact.ok()) << exact.ToString();
      EXPECT_EQ(r->blocks_evaluated, clean->blocks_evaluated);
      EXPECT_EQ(r->results_filtered, clean->results_filtered);
    }
  }
}

// Several members share one shuffle and one framework sort, so a batch
// of two or more runs the full phase with raw-record redistribution, no
// combined sort and no checkpoint, over one schema instance; one member
// keeps every feature.
TEST(ParallelEvalTest, BatchOfSeveralKeepsTheSharedRegime) {
  SchemaPtr schema = TestSchema();
  Workflow wf = WindowWorkflow(schema);
  Table table = GenerateUniformTable(schema, 500, 3);
  const ExecutionPlan plan = DerivedPlan(wf, 1);
  ExecutionPlan early = plan;
  early.early_aggregation = true;
  ExecutionPlan sorted = plan;
  sorted.combined_sort = true;
  const ParallelEvalOptions opts = EvalOpts(2, 2);
  ParallelEvalOptions map_only = opts;
  map_only.phase = ParallelEvalPhase::kMapOnly;
  ParallelEvalOptions checkpointed = opts;
  checkpointed.checkpoint.dir = "unused-checkpoint-dir";

  const std::vector<BatchQuery> two = {{&wf, "a"}, {&wf, "b"}};
  EXPECT_TRUE(EvaluateParallelBatch(two, table, plan, opts).ok());
  using Case = std::pair<const ExecutionPlan*, const ParallelEvalOptions*>;
  for (const Case& c : {Case{&early, &opts}, Case{&sorted, &opts},
                        Case{&plan, &map_only}, Case{&plan, &checkpointed}}) {
    EXPECT_EQ(EvaluateParallelBatch(two, table, *c.first, *c.second)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
  }
  for (const ExecutionPlan* p : {&early, &sorted}) {
    EXPECT_TRUE(EvaluateParallelBatch({{&wf, ""}}, table, *p, opts).ok());
  }
  Workflow other = WindowWorkflow(TestSchema());  // another schema instance
  EXPECT_EQ(EvaluateParallelBatch({{&wf, ""}, {&other, ""}}, table, plan, opts)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(EvaluateParallelBatch({}, table, plan, opts).status().code(),
            StatusCode::kInvalidArgument);
}

// A block whose attempt was cancelled may hold partial results. Its task
// set drops them and fails the union: a cancel first seen in a task's
// last group lets the task, and so the engine run, succeed.
TEST(ParallelEvalTest, CancelledBlockFailsTheUnion) {
  SchemaPtr schema = TestSchema();
  Workflow wf = WindowWorkflow(schema);
  const std::vector<KeyGenAttr> keygen =
      BuildKeyGen(*schema, DerivedPlan(wf, 1));
  eval_internal::TaskSets sets(wf, keygen, /*num_reducers=*/2);
  const std::vector<int64_t> pair(4, 0);  // one (key, row) pair, width 2+2
  CancellationToken token;
  token.Cancel();
  const GroupView group(pair.data(), 1, 2, 2, &token);
  MeasureResultSet results(wf.num_measures());
  sets.AddBlock(1, group, &results, LocalEvalStats());
  Result<eval_internal::TaskSet> assembled = sets.Union();
  EXPECT_EQ(assembled.status().code(), StatusCode::kCancelled);
}

TEST(ParallelEvalTest, PersistentFaultWithoutRetriesFailsCleanly) {
  SchemaPtr schema = TestSchema();
  Workflow wf = WindowWorkflow(schema);
  Table table = GenerateUniformTable(schema, 1000, 4);
  ParallelEvalOptions opts = EvalOpts(2, 3);
  opts.max_task_attempts = 1;
  FaultPlan plan;
  plan.set_parent(FaultPlan::FromEnv());
  plan.Add(FaultPlan::TaskCrash{
      .phase = "reduce", .task = 1, .message = "persistent reducer fault"});
  opts.fault_plan = &plan;
  Result<ParallelEvalResult> result =
      EvaluateParallel(wf, table, DerivedPlan(wf, 1), opts);
  ASSERT_FALSE(result.ok());
  const std::string& msg = result.status().message();
  EXPECT_NE(msg.find("reduce task 1"), std::string::npos) << msg;
  EXPECT_NE(msg.find("persistent reducer fault"), std::string::npos) << msg;
}

TEST(ParallelEvalTest, EarlyAggregationCountsMergedPartialsNotRecords) {
  SchemaPtr schema = TestSchema();
  WorkflowBuilder b(schema);
  b.AddBasic("sum", Gran(schema, "value", "quad"), AggregateFn::kSum, "X");
  Workflow wf = std::move(b).Build().value();
  Table table = GenerateUniformTable(schema, 4000, 17);
  ExecutionPlan plan = DerivedPlan(wf, 1);

  Result<ParallelEvalResult> raw =
      EvaluateParallel(wf, table, plan, EvalOpts(3, 4));
  ASSERT_TRUE(raw.ok());
  // Raw redistribution scans every (replicated) record locally.
  EXPECT_EQ(raw->local_stats.records, raw->metrics.emitted_pairs);
  EXPECT_EQ(raw->local_stats.merged_partials, 0);

  plan.early_aggregation = true;
  Result<ParallelEvalResult> early =
      EvaluateParallel(wf, table, plan, EvalOpts(3, 4));
  ASSERT_TRUE(early.ok());
  // The early-agg path merges shuffled partial states; it must not claim
  // them as scanned records (the old bug inflated `records` here).
  EXPECT_EQ(early->local_stats.records, 0);
  EXPECT_EQ(early->local_stats.merged_partials,
            early->metrics.emitted_pairs);
}

TEST(ParallelEvalTest, NominalAttributesDistributeCorrectly) {
  SchemaPtr schema = MakeSchemaOrDie(
      {Hierarchy::Nominal("K", 12,
                          {{0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3},
                           {0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1}},
                          {"word", "group", "super"})
           .value(),
       Hierarchy::Numeric("T", 64, {8}, {"tick", "oct"}).value()});
  WorkflowBuilder b(schema);
  Granularity fine =
      Granularity::Of(*schema, {{"K", "word"}, {"T", "tick"}}).value();
  Granularity coarse =
      Granularity::Of(*schema, {{"K", "group"}, {"T", "oct"}}).value();
  int m1 = b.AddBasic("cnt", fine, AggregateFn::kCount, "T");
  b.AddSourceAggregate("up", coarse, AggregateFn::kSum,
                       {WorkflowBuilder::ChildParent(m1)});
  Workflow wf = std::move(b).Build().value();
  Table table = GenerateUniformTable(schema, 2000, 44);
  MeasureResultSet expected = EvaluateReference(wf, table);
  Result<ParallelEvalResult> result =
      EvaluateParallel(wf, table, DerivedPlan(wf, 1), EvalOpts(2, 4));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(CompareResultSets(expected, result->results, 1e-9).ok())
      << CompareResultSets(expected, result->results, 1e-9).ToString();
}

}  // namespace
}  // namespace casm

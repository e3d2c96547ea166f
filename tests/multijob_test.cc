// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.
//
// Tests for the per-component baseline evaluator (§I's naive strategy):
// it must agree with the reference evaluator on every paper query and on
// randomized workflows (an independent third implementation of the query
// semantics), while shuffling strictly more data than the single-
// redistribution strategy on multi-measure queries.

#include <gtest/gtest.h>

#include "common/cancellation.h"
#include "common/fault.h"
#include "common/rng.h"
#include "core/eval_internal.h"
#include "core/key_derivation.h"
#include "core/multijob_evaluator.h"
#include "core/optimizer.h"
#include "core/parallel_evaluator.h"
#include "data/generator.h"
#include "local/reference_evaluator.h"
#include "mr/engine.h"
#include "queries/paper_data.h"
#include "queries/paper_queries.h"

namespace casm {
namespace {

ParallelEvalOptions EvalOpts() {
  ParallelEvalOptions o;
  o.num_mappers = 3;
  o.num_reducers = 4;
  o.num_threads = 2;
  return o;
}

class MultiJobPaperQueries : public ::testing::TestWithParam<PaperQuery> {};

TEST_P(MultiJobPaperQueries, MatchesReference) {
  Workflow wf = MakePaperQuery(GetParam());
  Table table = PaperUniformTable(2000, 808);
  MeasureResultSet expected = EvaluateReference(wf, table);
  Result<MultiJobResult> result = EvaluateMultiJob(wf, table, EvalOpts());
  ASSERT_TRUE(result.ok()) << result.status();
  Status match = CompareResultSets(expected, result->results, 1e-9);
  EXPECT_TRUE(match.ok()) << match.ToString();
  EXPECT_EQ(result->jobs, wf.num_measures());
}

INSTANTIATE_TEST_SUITE_P(AllQueries, MultiJobPaperQueries,
                         ::testing::ValuesIn(AllPaperQueries()),
                         [](const ::testing::TestParamInfo<PaperQuery>& info) {
                           return PaperQueryName(info.param);
                         });

TEST(MultiJobTest, WeblogMatchesReference) {
  Workflow wf = MakeWeblogWorkflow();
  Table table = WeblogTable(2500, 11);
  MeasureResultSet expected = EvaluateReference(wf, table);
  Result<MultiJobResult> result = EvaluateMultiJob(wf, table, EvalOpts());
  ASSERT_TRUE(result.ok()) << result.status();
  Status match = CompareResultSets(expected, result->results, 1e-9);
  EXPECT_TRUE(match.ok()) << match.ToString();
}

TEST(MultiJobTest, ShufflesMoreThanSingleRedistribution) {
  // Q3 has two basic measures: the baseline repartitions the raw data
  // twice plus all intermediates; the composite strategy moves the raw
  // data once.
  Workflow wf = MakePaperQuery(PaperQuery::kQ3);
  Table table = PaperUniformTable(4000, 5);

  Result<MultiJobResult> baseline = EvaluateMultiJob(wf, table, EvalOpts());
  ASSERT_TRUE(baseline.ok());

  ExecutionPlan plan;
  plan.key = DeriveDistributionKeys(wf).query_key;
  Result<ParallelEvalResult> composite =
      EvaluateParallel(wf, table, plan, EvalOpts());
  ASSERT_TRUE(composite.ok());

  EXPECT_GT(baseline->total_metrics.emitted_pairs,
            composite->metrics.emitted_pairs);
  // Specifically: the baseline ships the raw table once per basic measure.
  EXPECT_GE(baseline->total_metrics.emitted_pairs, 2 * table.num_rows());
}

TEST(MultiJobTest, RandomWorkflowsAgreeWithReference) {
  SchemaPtr schema = MakeSchemaOrDie(
      {Hierarchy::Numeric("X", 32, {4}, {"x0", "x1"}).value(),
       Hierarchy::Numeric("T", 64, {4, 16}, {"t0", "t1", "t2"}).value()});
  for (uint64_t seed = 300; seed < 312; ++seed) {
    Rng rng(seed);
    Table table = GenerateUniformTable(schema, 600, seed);
    // Reuse the integration suite's style of random workflow via the
    // builder: a basic measure, a window, a rollup and a ratio.
    WorkflowBuilder b(schema);
    Granularity g0 =
        Granularity::Of(*schema, {{"X", "x0"}, {"T", "t0"}}).value();
    Granularity g1 =
        Granularity::Of(*schema, {{"X", "x1"}, {"T", "t1"}}).value();
    int m0 = b.AddBasic("m0", g0, AggregateFn::kSum, "X");
    int m1 = b.AddSourceAggregate(
        "m1", g0, AggregateFn::kAvg,
        {b.Sibling(m0, "T", rng.UniformRange(-4, -1), 0)});
    int m2 = b.AddSourceAggregate("m2", g1, AggregateFn::kSum,
                                  {WorkflowBuilder::ChildParent(m1)});
    b.AddExpression(
        "m3", g0, Expression::Source(0) / Expression::Source(1),
        {WorkflowBuilder::Self(m1), WorkflowBuilder::ParentChild(m2)});
    Workflow wf = std::move(b).Build().value();

    MeasureResultSet expected = EvaluateReference(wf, table);
    Result<MultiJobResult> result = EvaluateMultiJob(wf, table, EvalOpts());
    ASSERT_TRUE(result.ok()) << "seed " << seed;
    Status match = CompareResultSets(expected, result->results, 1e-9);
    EXPECT_TRUE(match.ok()) << "seed " << seed << ": " << match.ToString();
  }
}

TEST(MultiJobTest, TaskFaultsAreRetriedAcrossEveryJob) {
  Workflow wf = MakePaperQuery(PaperQuery::kQ2);
  Table table = PaperUniformTable(1500, 99);
  Result<MultiJobResult> clean = EvaluateMultiJob(wf, table, EvalOpts());
  ASSERT_TRUE(clean.ok()) << clean.status();

  // Fail the first attempt of map task 0 of every job; each job must
  // retry and the final results must be unchanged.
  ParallelEvalOptions opts = EvalOpts();
  FaultPlan plan = FaultPlan::Parse("task_crash=map:0:1").value();
  plan.set_parent(FaultPlan::FromEnv());
  opts.fault_plan = &plan;
  Result<MultiJobResult> faulty = EvaluateMultiJob(wf, table, opts);
  ASSERT_TRUE(faulty.ok()) << faulty.status();
  EXPECT_EQ(faulty->total_metrics.task_retries, faulty->jobs);
  Status match = CompareResultSets(clean->results, faulty->results, 0.0);
  EXPECT_TRUE(match.ok()) << match.ToString();
}

TEST(MultiJobTest, ExhaustedRetriesNameTheFailingJob) {
  Workflow wf = MakePaperQuery(PaperQuery::kQ2);
  Table table = PaperUniformTable(500, 7);
  ParallelEvalOptions opts = EvalOpts();
  opts.max_task_attempts = 1;
  FaultPlan plan = FaultPlan::Parse("task_crash=reduce:2:*").value();
  plan.set_parent(FaultPlan::FromEnv());
  opts.fault_plan = &plan;
  Result<MultiJobResult> result = EvaluateMultiJob(wf, table, opts);
  ASSERT_FALSE(result.ok());
  const std::string& msg = result.status().message();
  EXPECT_NE(msg.find("multi-job evaluation"), std::string::npos) << msg;
  EXPECT_NE(msg.find("reduce task 2"), std::string::npos) << msg;
}

// A group whose attempt was cancelled may hold a partial result. Its
// task table drops it and fails the job's merge: a cancel first seen in
// a task's last group lets the task, and so the engine run, succeed.
TEST(MultiJobTest, CancelledGroupFailsTheMerge) {
  eval_internal::TaskTables tables(/*num_reducers=*/2);
  const std::vector<int64_t> live_pair = {3, 7};  // (key, value), width 1+1
  const GroupView live(live_pair.data(), 1, 1, 1);
  EXPECT_FALSE(tables.Cancelled(0, live));
  tables[0].emplace(Coords{3}, 7.0);

  const std::vector<int64_t> pair = {4, 9};
  CancellationToken token;
  token.Cancel();
  const GroupView group(pair.data(), 1, 1, 1, &token);
  EXPECT_TRUE(tables.Cancelled(1, group));
  MeasureValueMap out;
  EXPECT_EQ(tables.MergeInto(&out).code(), StatusCode::kCancelled);
  EXPECT_TRUE(out.empty());
}

TEST(MultiJobTest, RejectsPartialPhases) {
  Workflow wf = MakePaperQuery(PaperQuery::kQ1);
  Table table = PaperUniformTable(100, 1);
  ParallelEvalOptions opts = EvalOpts();
  opts.phase = ParallelEvalPhase::kMapOnly;
  EXPECT_FALSE(EvaluateMultiJob(wf, table, opts).ok());
}

}  // namespace
}  // namespace casm

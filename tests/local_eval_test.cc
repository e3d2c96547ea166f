// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.
//
// Tests for src/local: hand-computed reference-evaluator cases covering
// every relationship type, coverage-set tracking, result-set plumbing, and
// agreement between the sort/scan evaluator and the reference evaluator.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>

#include <gtest/gtest.h>

#include "data/generator.h"
#include "local/measure_table.h"
#include "local/reference_evaluator.h"
#include "local/sortscan_evaluator.h"
#include "measure/workflow.h"
#include "queries/paper_data.h"
#include "queries/paper_queries.h"

namespace casm {
namespace {

SchemaPtr TestSchema() {
  // X: 0..15 with buckets of 4; T: 0..23 with "hours" of 6 ticks.
  return MakeSchemaOrDie(
      {Hierarchy::Numeric("X", 16, {4}, {"value", "bucket"}).value(),
       Hierarchy::Numeric("T", 24, {6}, {"tick", "hour"}).value()});
}

Granularity Gran(const SchemaPtr& s, const std::string& xl,
                 const std::string& tl) {
  return Granularity::Of(*s, {{"X", xl}, {"T", tl}}).value();
}

double ValueAt(const MeasureResultSet& results, int measure, Coords coords) {
  const MeasureValueMap& map = results.values(measure);
  auto it = map.find(coords);
  EXPECT_NE(it, map.end());
  return it == map.end() ? -1e18 : it->second;
}

TEST(ReferenceEvaluatorTest, BasicMeasureGroupsRecords) {
  SchemaPtr schema = TestSchema();
  Table table(schema);
  table.AppendRow({1, 0});   // bucket 0, hour 0
  table.AppendRow({2, 5});   // bucket 0, hour 0
  table.AppendRow({2, 6});   // bucket 0, hour 1
  table.AppendRow({9, 1});   // bucket 2, hour 0

  WorkflowBuilder b(schema);
  b.AddBasic("sum", Gran(schema, "bucket", "hour"), AggregateFn::kSum, "X");
  Workflow wf = std::move(b).Build().value();

  MeasureResultSet results = EvaluateReference(wf, table);
  EXPECT_EQ(results.values(0).size(), 3u);
  EXPECT_DOUBLE_EQ(ValueAt(results, 0, {0, 0}), 3);
  EXPECT_DOUBLE_EQ(ValueAt(results, 0, {0, 1}), 2);
  EXPECT_DOUBLE_EQ(ValueAt(results, 0, {2, 0}), 9);
}

TEST(ReferenceEvaluatorTest, ChildParentAggregation) {
  SchemaPtr schema = TestSchema();
  Table table(schema);
  table.AppendRow({0, 0});
  table.AppendRow({1, 1});
  table.AppendRow({5, 2});  // different X bucket

  WorkflowBuilder b(schema);
  int m1 = b.AddBasic("cnt", Gran(schema, "value", "tick"),
                      AggregateFn::kCount, "X");
  b.AddSourceAggregate("up", Gran(schema, "bucket", "hour"),
                       AggregateFn::kSum, {WorkflowBuilder::ChildParent(m1)});
  Workflow wf = std::move(b).Build().value();
  MeasureResultSet results = EvaluateReference(wf, table);
  // Bucket 0 hour 0 has two child regions with count 1 each.
  EXPECT_DOUBLE_EQ(ValueAt(results, 1, {0, 0}), 2);
  EXPECT_DOUBLE_EQ(ValueAt(results, 1, {1, 0}), 1);
}

TEST(ReferenceEvaluatorTest, ExpressionWithParentChild) {
  SchemaPtr schema = TestSchema();
  Table table(schema);
  table.AppendRow({0, 0});
  table.AppendRow({1, 3});
  table.AppendRow({2, 7});  // second hour

  WorkflowBuilder b(schema);
  int fine = b.AddBasic("fine", Gran(schema, "value", "tick"),
                        AggregateFn::kSum, "X");
  int coarse = b.AddBasic("coarse", Gran(schema, "bucket", "hour"),
                          AggregateFn::kSum, "X");
  b.AddExpression(
      "ratio", Gran(schema, "value", "tick"),
      Expression::Source(0) / Expression::Source(1),
      {WorkflowBuilder::Self(fine), WorkflowBuilder::ParentChild(coarse)});
  Workflow wf = std::move(b).Build().value();
  MeasureResultSet results = EvaluateReference(wf, table);
  // Region (X=1, T=3): fine sum = 1; parent (bucket 0, hour 0) sum = 1.
  EXPECT_DOUBLE_EQ(ValueAt(results, 2, {1, 3}), 1.0 / 1.0);
  // Region (X=2, T=7): fine = 2, parent (bucket 0, hour 1) = 2.
  EXPECT_DOUBLE_EQ(ValueAt(results, 2, {2, 7}), 1.0);
  // Expression results only where the self source exists.
  EXPECT_EQ(results.values(2).size(), 3u);
}

TEST(ReferenceEvaluatorTest, SiblingWindowAggregation) {
  SchemaPtr schema = TestSchema();
  Table table(schema);
  table.AppendRow({0, 0});
  table.AppendRow({0, 1});
  table.AppendRow({0, 3});

  WorkflowBuilder b(schema);
  int m1 = b.AddBasic("cnt", Gran(schema, "value", "tick"),
                      AggregateFn::kCount, "X");
  // Trailing window of the previous two ticks and the tick itself.
  b.AddSourceAggregate("win", Gran(schema, "value", "tick"),
                       AggregateFn::kSum, {b.Sibling(m1, "T", -2, 0)});
  Workflow wf = std::move(b).Build().value();
  MeasureResultSet results = EvaluateReference(wf, table);
  // Window target exists wherever some source falls in [t-0, t+2]... i.e.
  // targets t with a source in [t-2+... ] — sources at 0,1,3 feed targets:
  // 0 -> {0,1,2}, 1 -> {1,2,3}, 3 -> {3,4,5}.
  EXPECT_DOUBLE_EQ(ValueAt(results, 1, {0, 0}), 1);  // source 0
  EXPECT_DOUBLE_EQ(ValueAt(results, 1, {0, 1}), 2);  // sources 0,1
  EXPECT_DOUBLE_EQ(ValueAt(results, 1, {0, 2}), 2);  // sources 0,1
  EXPECT_DOUBLE_EQ(ValueAt(results, 1, {0, 3}), 2);  // sources 1,3
  EXPECT_DOUBLE_EQ(ValueAt(results, 1, {0, 4}), 1);  // source 3
  EXPECT_DOUBLE_EQ(ValueAt(results, 1, {0, 5}), 1);  // source 3
  EXPECT_EQ(results.values(1).size(), 6u);
}

TEST(ReferenceEvaluatorTest, SiblingWindowClipsAtDomainEdge) {
  SchemaPtr schema = TestSchema();
  Table table(schema);
  table.AppendRow({0, 23});  // last tick

  WorkflowBuilder b(schema);
  int m1 = b.AddBasic("cnt", Gran(schema, "value", "tick"),
                      AggregateFn::kCount, "X");
  b.AddSourceAggregate("win", Gran(schema, "value", "tick"),
                       AggregateFn::kSum, {b.Sibling(m1, "T", -2, 0)});
  Workflow wf = std::move(b).Build().value();
  MeasureResultSet results = EvaluateReference(wf, table);
  // Source at 23 would feed targets 23, 24, 25 but the domain ends at 23.
  EXPECT_EQ(results.values(1).size(), 1u);
  EXPECT_DOUBLE_EQ(ValueAt(results, 1, {0, 23}), 1);
}

TEST(ReferenceEvaluatorTest, MixedSelfAndChildEdges) {
  SchemaPtr schema = TestSchema();
  Table table(schema);
  table.AppendRow({0, 0});
  table.AppendRow({1, 2});

  WorkflowBuilder b(schema);
  int fine = b.AddBasic("fine", Gran(schema, "value", "tick"),
                        AggregateFn::kSum, "X");
  int coarse = b.AddBasic("coarse", Gran(schema, "bucket", "hour"),
                          AggregateFn::kCount, "X");
  b.AddSourceAggregate(
      "mix", Gran(schema, "bucket", "hour"), AggregateFn::kSum,
      {WorkflowBuilder::Self(coarse), WorkflowBuilder::ChildParent(fine)});
  Workflow wf = std::move(b).Build().value();
  MeasureResultSet results = EvaluateReference(wf, table);
  // Bucket 0 hour 0: self count = 2, children sums = 0 and 1 -> total 3.
  EXPECT_DOUBLE_EQ(ValueAt(results, 2, {0, 0}), 3);
}

TEST(ReferenceEvaluatorTest, CoverageSetsTrackContributingRecords) {
  SchemaPtr schema = TestSchema();
  Table table(schema);
  table.AppendRow({0, 0});   // record 0
  table.AppendRow({0, 7});   // record 1 (hour 1)
  table.AppendRow({9, 0});   // record 2 (bucket 2)

  WorkflowBuilder b(schema);
  int m1 = b.AddBasic("cnt", Gran(schema, "value", "tick"),
                      AggregateFn::kCount, "X");
  b.AddSourceAggregate("win", Gran(schema, "value", "tick"),
                       AggregateFn::kSum, {b.Sibling(m1, "T", -7, 0)});
  Workflow wf = std::move(b).Build().value();

  CoverageInfo coverage;
  EvaluateReferenceWithCoverage(wf, table, &coverage);
  // Basic coverage: each region covers exactly its record.
  EXPECT_EQ(coverage.per_measure[0].at(Coords{0, 0}),
            (std::vector<int64_t>{0}));
  EXPECT_EQ(coverage.per_measure[0].at(Coords{9, 0}),
            (std::vector<int64_t>{2}));
  // Window at (0, 7) sees sources at ticks 0 and 7: records 0 and 1.
  EXPECT_EQ(coverage.per_measure[1].at(Coords{0, 7}),
            (std::vector<int64_t>{0, 1}));
}

TEST(ReferenceEvaluatorTest, CancellableOverloadMatchesPlainEvaluation) {
  SchemaPtr schema = TestSchema();
  Table table(schema);
  table.AppendRow({1, 0});
  table.AppendRow({2, 5});
  table.AppendRow({9, 1});

  WorkflowBuilder b(schema);
  b.AddBasic("sum", Gran(schema, "bucket", "hour"), AggregateFn::kSum, "X");
  Workflow wf = std::move(b).Build().value();

  MeasureResultSet plain = EvaluateReference(wf, table);
  CancellationToken live;
  Result<MeasureResultSet> with_token =
      EvaluateReferenceCancellable(wf, table, &live);
  ASSERT_TRUE(with_token.ok()) << with_token.status();
  EXPECT_EQ(with_token->values(0).size(), plain.values(0).size());
  for (const auto& [coords, value] : plain.values(0)) {
    EXPECT_DOUBLE_EQ(with_token->values(0).at(coords), value);
  }
  // A null token is also accepted (never cancels).
  EXPECT_TRUE(EvaluateReferenceCancellable(wf, table, nullptr).ok());
}

TEST(ReferenceEvaluatorTest, TrippedTokenStopsEvaluation) {
  SchemaPtr schema = TestSchema();
  Table table(schema);
  table.AppendRow({1, 0});

  WorkflowBuilder b(schema);
  b.AddBasic("sum", Gran(schema, "bucket", "hour"), AggregateFn::kSum, "X");
  Workflow wf = std::move(b).Build().value();

  CancellationToken token;
  token.Cancel();
  Result<MeasureResultSet> result =
      EvaluateReferenceCancellable(wf, table, &token);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);

  CancellationToken expired;
  expired.set_deadline(std::chrono::steady_clock::now() -
                       std::chrono::milliseconds(1));
  result = EvaluateReferenceCancellable(wf, table, &expired);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(MeasureResultSetTest, MergeDisjointDetectsDuplicates) {
  MeasureResultSet a(1), b(1), c(1);
  a.mutable_values(0).emplace(Coords{1}, 2.0);
  b.mutable_values(0).emplace(Coords{2}, 3.0);
  c.mutable_values(0).emplace(Coords{1}, 9.0);
  ASSERT_TRUE(a.MergeDisjoint(std::move(b)).ok());
  EXPECT_EQ(a.TotalResults(), 2);
  EXPECT_FALSE(a.MergeDisjoint(std::move(c)).ok());
}

TEST(MeasureResultSetTest, MergeDisjointMovesEveryResult) {
  // Values that only a bit-exact move keeps: a signed zero, a NaN
  // payload, a subnormal.
  const double neg_zero = -0.0;
  const double nan = std::bit_cast<double>(uint64_t{0x7ff8000000000123});
  const double tiny = std::numeric_limits<double>::denorm_min();
  MeasureResultSet a(2), b(2);
  a.mutable_values(0).emplace(Coords{1, 1}, neg_zero);
  b.mutable_values(0).emplace(Coords{2, 1}, nan);
  b.mutable_values(1).emplace(Coords{1, 1}, tiny);
  ASSERT_TRUE(a.MergeDisjoint(std::move(b)).ok());
  EXPECT_EQ(b.TotalResults(), 0);
  EXPECT_EQ(a.TotalResults(), 3);
  auto bits = [&a](int m, const Coords& c) {
    return std::bit_cast<uint64_t>(a.values(m).at(c));
  };
  EXPECT_EQ(bits(0, Coords{1, 1}), std::bit_cast<uint64_t>(neg_zero));
  EXPECT_EQ(bits(0, Coords{2, 1}), std::bit_cast<uint64_t>(nan));
  EXPECT_EQ(bits(1, Coords{1, 1}), std::bit_cast<uint64_t>(tiny));
}

TEST(MeasureResultSetTest, MergeDisjointIntoEmptySet) {
  MeasureResultSet empty(2), b(2);
  b.mutable_values(0).emplace(Coords{3}, 1.5);
  b.mutable_values(1).emplace(Coords{4}, 2.5);
  ASSERT_TRUE(empty.MergeDisjoint(std::move(b)).ok());
  EXPECT_EQ(b.TotalResults(), 0);
  EXPECT_EQ(empty.values(0).at(Coords{3}), 1.5);
  EXPECT_EQ(empty.values(1).at(Coords{4}), 2.5);
}

TEST(MeasureResultSetTest, MergeDisjointNamesTheDuplicatedMeasure) {
  MeasureResultSet a(3), b(3);
  a.mutable_values(1).emplace(Coords{5}, 1.0);
  b.mutable_values(0).emplace(Coords{5}, 2.0);  // same region, other measure
  b.mutable_values(1).emplace(Coords{5}, 3.0);
  const Status s = a.MergeDisjoint(std::move(b));
  ASSERT_EQ(s.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(s.message().find("measure 1"), std::string::npos) << s.message();
  // The destination's value is the one it held; the duplicate stays
  // behind in the source.
  EXPECT_EQ(a.values(1).at(Coords{5}), 1.0);
  EXPECT_EQ(a.values(0).at(Coords{5}), 2.0);
  EXPECT_EQ(b.values(1).at(Coords{5}), 3.0);
}

TEST(MeasureResultSetTest, CompareDetectsMismatches) {
  MeasureResultSet a(1), b(1);
  a.mutable_values(0).emplace(Coords{1}, 2.0);
  b.mutable_values(0).emplace(Coords{1}, 2.0);
  EXPECT_TRUE(CompareResultSets(a, b, 1e-9).ok());
  b.mutable_values(0)[Coords{1}] = 2.5;
  EXPECT_FALSE(CompareResultSets(a, b, 1e-9).ok());
  b.mutable_values(0)[Coords{1}] = 2.0;
  b.mutable_values(0).emplace(Coords{2}, 1.0);
  EXPECT_FALSE(CompareResultSets(a, b, 1e-9).ok());
}

TEST(SortScanTest, MatchesReferenceOnRandomData) {
  SchemaPtr schema = TestSchema();
  Table table = GenerateUniformTable(schema, 2000, 99);

  WorkflowBuilder b(schema);
  int m1 = b.AddBasic("med", Gran(schema, "value", "hour"),
                      AggregateFn::kMedian, "T");
  int m2 = b.AddBasic("sum", Gran(schema, "bucket", "tick"),
                      AggregateFn::kSum, "X");
  int m3 = b.AddSourceAggregate("up", Gran(schema, "bucket", "hour"),
                                AggregateFn::kAvg,
                                {WorkflowBuilder::ChildParent(m2)});
  b.AddSourceAggregate("win", Gran(schema, "bucket", "hour"),
                       AggregateFn::kMax, {b.Sibling(m3, "T", -1, 1)});
  (void)m1;
  Workflow wf = std::move(b).Build().value();

  MeasureResultSet expected = EvaluateReference(wf, table);
  SortScanEvaluator eval(&wf);
  LocalEvalStats stats;
  MeasureResultSet actual =
      eval.Evaluate(table.data().data(), table.num_rows(),
                    /*assume_sorted=*/false, LocalEvalPhase::kFull, &stats);
  EXPECT_TRUE(CompareResultSets(expected, actual, 1e-9).ok())
      << CompareResultSets(expected, actual, 1e-9).ToString();
  EXPECT_EQ(stats.records, table.num_rows());
  EXPECT_GT(stats.streamed_measures + stats.hashed_measures, 0);
}

TEST(SortScanTest, StreamsPrefixCompatibleMeasures) {
  SchemaPtr schema = TestSchema();
  WorkflowBuilder b(schema);
  // Both basics share the sort prefix (X at value) and only coarsen T:
  // the plan should stream both.
  b.AddBasic("a", Gran(schema, "value", "tick"), AggregateFn::kSum, "X");
  b.AddBasic("b", Gran(schema, "value", "hour"), AggregateFn::kSum, "X");
  Workflow wf = std::move(b).Build().value();
  SortScanEvaluator eval(&wf);
  EXPECT_EQ(eval.num_streamed(), 2);
}

TEST(SortScanTest, AssumeSortedSkipsTheSort) {
  SchemaPtr schema = TestSchema();
  Table table = GenerateUniformTable(schema, 500, 4);
  WorkflowBuilder b(schema);
  b.AddBasic("a", Gran(schema, "value", "tick"), AggregateFn::kSum, "X");
  Workflow wf = std::move(b).Build().value();
  SortScanEvaluator eval(&wf);

  // Pre-sort rows with the evaluator's own comparator.
  std::vector<std::vector<int64_t>> rows;
  for (int64_t r = 0; r < table.num_rows(); ++r) {
    rows.emplace_back(table.row(r), table.row(r) + table.row_width());
  }
  std::sort(rows.begin(), rows.end(),
            [&](const std::vector<int64_t>& a, const std::vector<int64_t>& b) {
              return eval.RowLess(a.data(), b.data());
            });
  std::vector<int64_t> flat;
  for (const auto& row : rows) flat.insert(flat.end(), row.begin(), row.end());

  MeasureResultSet expected = EvaluateReference(wf, table);
  MeasureResultSet actual =
      eval.Evaluate(flat.data(), table.num_rows(), /*assume_sorted=*/true,
                    LocalEvalPhase::kFull, nullptr);
  EXPECT_TRUE(CompareResultSets(expected, actual, 1e-9).ok());
}

TEST(SortScanTest, SortOnlyPhaseProducesNoResults) {
  SchemaPtr schema = TestSchema();
  Table table = GenerateUniformTable(schema, 100, 5);
  WorkflowBuilder b(schema);
  b.AddBasic("a", Gran(schema, "value", "tick"), AggregateFn::kSum, "X");
  Workflow wf = std::move(b).Build().value();
  SortScanEvaluator eval(&wf);
  MeasureResultSet results =
      eval.Evaluate(table.data().data(), table.num_rows(), false,
                    LocalEvalPhase::kSortOnly, nullptr);
  EXPECT_EQ(results.TotalResults(), 0);
}

TEST(SortScanTest, MatchesReferenceOnPaperQueries) {
  Table table = PaperUniformTable(1500, 21);
  for (PaperQuery q : AllPaperQueries()) {
    Workflow wf = MakePaperQuery(q);
    MeasureResultSet expected = EvaluateReference(wf, table);
    SortScanEvaluator eval(&wf);
    MeasureResultSet actual =
        eval.Evaluate(table.data().data(), table.num_rows(), false,
                      LocalEvalPhase::kFull, nullptr);
    EXPECT_TRUE(CompareResultSets(expected, actual, 1e-9).ok())
        << PaperQueryName(q) << ": "
        << CompareResultSets(expected, actual, 1e-9).ToString();
  }
}

}  // namespace
}  // namespace casm

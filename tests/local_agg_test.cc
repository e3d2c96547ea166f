// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.
//
// Differential tests for local aggregation (src/agg): both evaluators —
// sort/scan, called directly, and the hash group-by ("morsel") that
// LocalAggregator routes unsorted blocks to — must agree with the
// reference evaluator on every workload, across cardinality and skew
// ladders. Floating-point tolerance covers fold-order rounding
// differences between the evaluators; group sets and counts must match
// exactly. Also pins LocalAggregator's routing rule and the map-side
// combiner.

#include <algorithm>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "agg/local_aggregator.h"
#include "core/key_derivation.h"
#include "core/parallel_evaluator.h"
#include "local/reference_evaluator.h"
#include "local/sortscan_evaluator.h"
#include "obs/event.h"
#include "obs/trace.h"
#include "queries/paper_data.h"
#include "queries/paper_queries.h"

namespace casm {
namespace {

constexpr double kTol = 1e-7;

std::vector<int64_t> FlatRows(const Table& table) {
  const int64_t* first = table.row(0);
  return std::vector<int64_t>(
      first, first + table.num_rows() * table.row_width());
}

/// The two local evaluators. kSortScan calls SortScanEvaluator directly
/// (on an unsorted block, so its sort runs); kMorsel goes through
/// LocalAggregator, whose rule sends an unsorted full-phase block to the
/// hash group-by.
enum class Evaluator { kSortScan, kMorsel };
const Evaluator kEvaluators[] = {Evaluator::kSortScan, Evaluator::kMorsel};

const char* EvaluatorName(Evaluator evaluator) {
  return evaluator == Evaluator::kSortScan ? "sortscan" : "morsel";
}

MeasureResultSet RunEvaluator(const Workflow& wf,
                              const std::vector<int64_t>& rows, int64_t n,
                              Evaluator evaluator,
                              const LocalAggOptions& options = {},
                              LocalEvalStats* stats = nullptr) {
  LocalEvalStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  if (evaluator == Evaluator::kSortScan) {
    const SortScanEvaluator sortscan(&wf);
    return sortscan.Evaluate(rows.data(), n, /*assume_sorted=*/false,
                             LocalEvalPhase::kFull, stats);
  }
  std::unique_ptr<LocalAggregator> agg =
      MakeLocalAggregator(&wf, nullptr, options);
  LocalAggContext ctx;
  ctx.rows = rows.data();
  ctx.n = n;
  return agg->Evaluate(ctx, stats);
}

/// `rows` (row-major, `width` wide) reordered by the workflow's shared
/// sort order, as the combined framework sort would deliver a block.
std::vector<int64_t> SortedRows(const Workflow& wf,
                                const std::vector<int64_t>& rows, int width) {
  const SortScanEvaluator sortscan(&wf);
  const int64_t n = static_cast<int64_t>(rows.size()) / width;
  std::vector<int64_t> order(static_cast<size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
    return sortscan.RowLess(rows.data() + a * width, rows.data() + b * width);
  });
  std::vector<int64_t> sorted;
  sorted.reserve(rows.size());
  for (int64_t i : order) {
    sorted.insert(sorted.end(), rows.begin() + i * width,
                  rows.begin() + (i + 1) * width);
  }
  return sorted;
}

TEST(LocalAggDifferentialTest, PaperQueriesAllEnginesMatchReference) {
  // Q1 (independent fine basics), Q5 (sibling windows) and Q6 (all four
  // relations including holistic medians) over uniform and temporally
  // skewed data.
  for (PaperQuery q : {PaperQuery::kQ1, PaperQuery::kQ5, PaperQuery::kQ6}) {
    Workflow wf = MakePaperQuery(q);
    for (bool skewed : {false, true}) {
      Table table = skewed ? PaperSkewedTable(3000, 91) :
                             PaperUniformTable(3000, 17);
      MeasureResultSet expected = EvaluateReference(wf, table);
      std::vector<int64_t> rows = FlatRows(table);
      for (Evaluator evaluator : kEvaluators) {
        MeasureResultSet got =
            RunEvaluator(wf, rows, table.num_rows(), evaluator);
        Status match = CompareResultSets(expected, got, kTol);
        EXPECT_TRUE(match.ok())
            << PaperQueryName(q) << " skewed=" << skewed
            << " evaluator=" << EvaluatorName(evaluator) << ": "
            << match.ToString();
      }
    }
  }
}

TEST(LocalAggDifferentialTest, WeblogWorkflowAllEnginesMatchReference) {
  Workflow wf = MakeWeblogWorkflow();
  Table table = WeblogTable(2500, 7);  // Zipf keywords: natural skew
  MeasureResultSet expected = EvaluateReference(wf, table);
  std::vector<int64_t> rows = FlatRows(table);
  for (Evaluator evaluator : kEvaluators) {
    MeasureResultSet got = RunEvaluator(wf, rows, table.num_rows(), evaluator);
    Status match = CompareResultSets(expected, got, kTol);
    EXPECT_TRUE(match.ok()) << "evaluator=" << EvaluatorName(evaluator)
                            << ": " << match.ToString();
  }
}

/// Basic-measure workflows at three grouping granularities: day/tier3
/// (few groups), hour/tier2 (middling), minute/value (nearly one group
/// per record at test sizes).
Workflow LadderWorkflow(const SchemaPtr& schema, int rung) {
  const char* d_level = rung == 0 ? "tier3" : rung == 1 ? "tier2" : "value";
  const char* t_level = rung == 0 ? "day" : rung == 1 ? "hour" : "minute";
  WorkflowBuilder b(schema);
  Granularity gran =
      Granularity::Of(*schema, {{"D1", d_level}, {"T1", t_level}}).value();
  b.AddBasic("sum", gran, AggregateFn::kSum, "D2");
  b.AddBasic("cnt", gran, AggregateFn::kCount, "D2");
  b.AddBasic("max", gran, AggregateFn::kMax, "D3");
  Result<Workflow> wf = std::move(b).Build();
  CASM_CHECK(wf.ok()) << wf.status().ToString();
  return std::move(wf).value();
}

TEST(LocalAggDifferentialTest, CardinalitySkewLadder) {
  SchemaPtr schema = PaperSchema();
  for (int rung = 0; rung < 3; ++rung) {
    Workflow wf = LadderWorkflow(schema, rung);
    for (bool skewed : {false, true}) {
      Table table = skewed ? PaperSkewedTable(6000, 23 + rung)
                           : PaperUniformTable(6000, 41 + rung);
      MeasureResultSet expected = EvaluateReference(wf, table);
      std::vector<int64_t> rows = FlatRows(table);
      for (Evaluator evaluator : kEvaluators) {
        MeasureResultSet got =
            RunEvaluator(wf, rows, table.num_rows(), evaluator);
        Status match = CompareResultSets(expected, got, kTol);
        EXPECT_TRUE(match.ok())
            << "rung=" << rung << " skewed=" << skewed
            << " evaluator=" << EvaluatorName(evaluator) << ": "
            << match.ToString();
      }
    }
  }
}

TEST(LocalAggDifferentialTest, StressedEngineKnobsStayCorrect) {
  // Three-row batches, with batching forced at any block size: each
  // group's rows span many batches, and the hash tables must still add
  // every row exactly once.
  Workflow wf = MakePaperQuery(PaperQuery::kQ3);
  Table table = PaperUniformTable(4000, 5);
  MeasureResultSet expected = EvaluateReference(wf, table);
  std::vector<int64_t> rows = FlatRows(table);

  LocalAggOptions stressed;
  stressed.batch_rows = 3;
  stressed.batch_min_block_rows = 0;
  MeasureResultSet got = RunEvaluator(wf, rows, table.num_rows(),
                                      Evaluator::kMorsel, stressed);
  Status match = CompareResultSets(expected, got, kTol);
  EXPECT_TRUE(match.ok()) << match.ToString();
}

TEST(LocalAggRuleTest, RoutesEachBlockByOrderAndPhase) {
  // The rule: sort/scan for pre-sorted blocks and the kSortOnly phase,
  // the hash group-by for everything else. Each block is counted and
  // traced under the evaluator that ran it; the radix counter stays 0.
  Workflow wf = MakePaperQuery(PaperQuery::kQ1);
  Table table = PaperUniformTable(5000, 29);
  MeasureResultSet expected = EvaluateReference(wf, table);
  const std::vector<int64_t> rows = FlatRows(table);
  const std::vector<int64_t> sorted =
      SortedRows(wf, rows, table.row_width());
  std::unique_ptr<LocalAggregator> agg = MakeLocalAggregator(&wf);

  struct Case {
    const char* name;
    const std::vector<int64_t>* rows;
    bool assume_sorted;
    LocalEvalPhase phase;
    Evaluator routed;
  };
  const Case cases[] = {
      {"unsorted/full", &rows, false, LocalEvalPhase::kFull,
       Evaluator::kMorsel},
      {"sorted/full", &sorted, true, LocalEvalPhase::kFull,
       Evaluator::kSortScan},
      {"unsorted/sort-only", &rows, false, LocalEvalPhase::kSortOnly,
       Evaluator::kSortScan},
  };
  for (const Case& c : cases) {
    TraceRecorder trace;
    trace.set_enabled(true);
    const obs::Context obs(&trace);
    LocalAggContext ctx;
    ctx.rows = c.rows->data();
    ctx.n = table.num_rows();
    ctx.assume_sorted = c.assume_sorted;
    ctx.phase = c.phase;
    ctx.obs = &obs;
    LocalEvalStats stats;
    MeasureResultSet got = agg->Evaluate(ctx, &stats);

    const bool sortscan = c.routed == Evaluator::kSortScan;
    EXPECT_EQ(stats.agg_blocks_sortscan, sortscan ? 1 : 0) << c.name;
    EXPECT_EQ(stats.agg_blocks_morsel, sortscan ? 0 : 1) << c.name;
    EXPECT_EQ(stats.agg_blocks_radix, 0) << c.name;
    std::vector<std::string> spans;
    for (const TraceEvent& ev : trace.Snapshot()) {
      if (std::string(ev.category) == "localagg") spans.push_back(ev.name);
    }
    EXPECT_EQ(spans, std::vector<std::string>{EvaluatorName(c.routed)})
        << c.name;
    if (c.phase == LocalEvalPhase::kFull) {
      Status match = CompareResultSets(expected, got, kTol);
      EXPECT_TRUE(match.ok()) << c.name << ": " << match.ToString();
    } else {
      EXPECT_EQ(got.TotalResults(), 0) << c.name;
    }
  }
}

TEST(LocalAggRuleTest, CombinedSortDecidesEveryBlock) {
  // End to end: without the combined sort every reducer block reaches
  // the hash group-by; with it, every block arrives sorted and takes
  // sort/scan. Both plans must equal the reference.
  Workflow wf = MakePaperQuery(PaperQuery::kQ5);
  Table table = PaperUniformTable(4000, 83);
  MeasureResultSet expected = EvaluateReference(wf, table);
  for (bool combined_sort : {false, true}) {
    ExecutionPlan plan;
    plan.key = DeriveDistributionKeys(wf).query_key;
    plan.combined_sort = combined_sort;
    ParallelEvalOptions opts;
    opts.num_mappers = 3;
    opts.num_reducers = 3;
    opts.num_threads = 2;
    Result<ParallelEvalResult> result =
        EvaluateParallel(wf, table, plan, opts);
    ASSERT_TRUE(result.ok()) << result.status();
    const LocalEvalStats& stats = result->local_stats;
    EXPECT_GT(combined_sort ? stats.agg_blocks_sortscan
                            : stats.agg_blocks_morsel,
              0)
        << "combined_sort=" << combined_sort;
    EXPECT_EQ(combined_sort ? stats.agg_blocks_morsel
                            : stats.agg_blocks_sortscan,
              0)
        << "combined_sort=" << combined_sort;
    EXPECT_EQ(stats.agg_blocks_radix, 0);
    Status match = CompareResultSets(expected, result->results, kTol);
    EXPECT_TRUE(match.ok()) << "combined_sort=" << combined_sort << ": "
                            << match.ToString();
  }
}

TEST(LocalAggDifferentialTest, EngineStatsCountBlocks) {
  // Block counters accumulate across calls into one stats object.
  Workflow wf = MakePaperQuery(PaperQuery::kQ1);
  Table table = PaperUniformTable(2000, 13);
  std::vector<int64_t> rows = FlatRows(table);
  std::unique_ptr<LocalAggregator> agg = MakeLocalAggregator(&wf);
  LocalAggContext ctx;
  ctx.rows = rows.data();
  ctx.n = table.num_rows();
  LocalEvalStats stats;
  agg->Evaluate(ctx, &stats);
  agg->Evaluate(ctx, &stats);
  ctx.phase = LocalEvalPhase::kSortOnly;
  agg->Evaluate(ctx, &stats);
  EXPECT_EQ(stats.agg_blocks_morsel, 2);
  EXPECT_EQ(stats.agg_blocks_sortscan, 1);
  EXPECT_EQ(stats.agg_blocks_radix, 0);
}

TEST(LocalAggDifferentialTest, SerialEvaluationIsDeterministic) {
  // Evaluation must be bit-deterministic: checkpoint verification (ckpt/)
  // compares recomputed results exactly.
  Workflow wf = MakePaperQuery(PaperQuery::kQ5);
  Table table = PaperUniformTable(3000, 47);
  std::vector<int64_t> rows = FlatRows(table);
  for (Evaluator evaluator : kEvaluators) {
    MeasureResultSet a = RunEvaluator(wf, rows, table.num_rows(), evaluator);
    MeasureResultSet b = RunEvaluator(wf, rows, table.num_rows(), evaluator);
    Status match = CompareResultSets(a, b, 0.0);
    EXPECT_TRUE(match.ok()) << "evaluator=" << EvaluatorName(evaluator)
                            << ": " << match.ToString();
  }
}

TEST(LocalAggDifferentialTest, CancelledBlockReturnsEarly) {
  Workflow wf = MakePaperQuery(PaperQuery::kQ1);
  Table table = PaperUniformTable(3000, 53);
  std::vector<int64_t> rows = FlatRows(table);
  const std::vector<int64_t> sorted =
      SortedRows(wf, rows, table.row_width());
  CancellationToken cancel;
  cancel.Cancel();
  // Both evaluators, and both hash paths (row and batch).
  for (bool assume_sorted : {false, true}) {
    for (int64_t min_block_rows :
         {std::numeric_limits<int64_t>::max(), int64_t{0}}) {
      LocalAggOptions options;
      options.batch_min_block_rows = min_block_rows;
      std::unique_ptr<LocalAggregator> agg =
          MakeLocalAggregator(&wf, nullptr, options);
      LocalAggContext ctx;
      ctx.rows = assume_sorted ? sorted.data() : rows.data();
      ctx.n = table.num_rows();
      ctx.assume_sorted = assume_sorted;
      ctx.cancel = &cancel;
      LocalEvalStats stats;
      // Incomplete results are fine (the caller discards them); the
      // evaluator just must not crash or hang.
      agg->Evaluate(ctx, &stats);
    }
  }
}

TEST(LocalAggCombinerTest, BoundedCombinerStaysExactUnderTinyTable) {
  // Early aggregation with a 16-entry combiner table: constant flushing,
  // reducers see many partials per group, results must stay exact.
  Workflow wf = MakePaperQuery(PaperQuery::kDS1);
  Table table = PaperUniformTable(4000, 61);
  MeasureResultSet expected = EvaluateReference(wf, table);

  ExecutionPlan plan;
  plan.key = DeriveDistributionKeys(wf).query_key;
  plan.early_aggregation = true;
  ParallelEvalOptions opts;
  opts.num_mappers = 3;
  opts.num_reducers = 3;
  opts.num_threads = 2;
  opts.local_agg.combiner_max_entries = 16;
  Result<ParallelEvalResult> result = EvaluateParallel(wf, table, plan, opts);
  ASSERT_TRUE(result.ok()) << result.status();
  Status match = CompareResultSets(expected, result->results, kTol);
  EXPECT_TRUE(match.ok()) << match.ToString();
}

TEST(LocalAggCombinerTest, CardinalityBypassStaysExact) {
  // Forcing the bypass (ratio 0: every split trips it at its one check,
  // after 4096 pairs per basic measure) turns the combiner into direct
  // emission mid-split; the reduce side must still merge per-group
  // partials exactly. Splits of 5000 records pass the check point.
  Workflow wf = MakePaperQuery(PaperQuery::kDS2);
  Table table = PaperUniformTable(10000, 67);
  MeasureResultSet expected = EvaluateReference(wf, table);

  ExecutionPlan plan;
  plan.key = DeriveDistributionKeys(wf).query_key;
  plan.early_aggregation = true;
  ParallelEvalOptions opts;
  opts.num_mappers = 2;
  opts.num_reducers = 2;
  opts.num_threads = 2;
  opts.local_agg.combiner_bypass_ratio = 0.0;
  TraceRecorder trace;
  trace.set_enabled(true);
  opts.trace = &trace;
  Result<ParallelEvalResult> result = EvaluateParallel(wf, table, plan, opts);
  ASSERT_TRUE(result.ok()) << result.status();
  Status match = CompareResultSets(expected, result->results, kTol);
  EXPECT_TRUE(match.ok()) << match.ToString();
  int bypasses = 0;
  for (const TraceEvent& ev : trace.Snapshot()) {
    if (std::string(ev.category) == "localagg" &&
        ev.name == "combiner-bypass") {
      ++bypasses;
    }
  }
  EXPECT_EQ(bypasses, 2);  // one per split
}

TEST(LocalAggTraceTest, EvaluationRecordsEngineSpans) {
  Workflow wf = MakePaperQuery(PaperQuery::kQ1);
  Table table = PaperUniformTable(2000, 71);
  std::vector<int64_t> rows = FlatRows(table);
  TraceRecorder trace;
  trace.set_enabled(true);
  const obs::Context obs(&trace);
  std::unique_ptr<LocalAggregator> agg = MakeLocalAggregator(&wf);
  LocalAggContext ctx;
  ctx.rows = rows.data();
  ctx.n = table.num_rows();
  ctx.obs = &obs;
  ctx.task = 7;
  LocalEvalStats stats;
  agg->Evaluate(ctx, &stats);
  bool saw_localagg = false;
  for (const TraceEvent& ev : trace.Snapshot()) {
    if (std::string(ev.category) == "localagg") {
      saw_localagg = true;
      EXPECT_EQ(ev.task, 7);
      EXPECT_EQ(ev.name, "morsel");
    }
  }
  EXPECT_TRUE(saw_localagg);
}

}  // namespace
}  // namespace casm

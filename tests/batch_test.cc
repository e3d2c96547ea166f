// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.
//
// Columnar batch tests: RecordBatch/TableScan mechanics, the vectorized
// kernels' bit-identity to their row-at-a-time counterparts
// (MapFromFinestColumn, PartitionHashColumns), the hash group-by's
// small-block cutoff, and differential runs of the hash group-by and the
// full MR pipeline across batch-size boundaries {1, 7, 4096, n+1} —
// including the map-side spill path — against a one-row-batch baseline
// whose blocks all take the group-by's row path, with tolerance 0.

#include <cstdio>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "agg/batch.h"
#include "agg/local_aggregator.h"
#include "core/key_derivation.h"
#include "core/parallel_evaluator.h"
#include "data/generator.h"
#include "data/record_batch.h"
#include "data/table.h"
#include "local/reference_evaluator.h"
#include "local/sortscan_evaluator.h"
#include "mr/engine.h"
#include "mr/external_sort.h"
#include "queries/paper_data.h"
#include "queries/paper_queries.h"

namespace casm {
namespace {

constexpr double kTol = 1e-7;

// ---------------------------------------------------------------- data/

TEST(RecordBatchTest, AppendRowsAndRowAtRoundTrip) {
  RecordBatch batch(3, 8);
  EXPECT_EQ(batch.num_columns(), 3);
  EXPECT_EQ(batch.capacity(), 8);
  EXPECT_TRUE(batch.empty());
  const int64_t rows[6] = {1, 2, 3, 4, 5, 6};
  batch.AppendRows(rows, 2);
  ASSERT_EQ(batch.num_rows(), 2);
  EXPECT_EQ(batch.column(0)[0], 1);
  EXPECT_EQ(batch.column(1)[0], 2);
  EXPECT_EQ(batch.column(2)[1], 6);
  int64_t out[3];
  batch.RowAt(1, out);
  EXPECT_EQ(out[0], 4);
  EXPECT_EQ(out[1], 5);
  EXPECT_EQ(out[2], 6);
  batch.Clear();
  EXPECT_TRUE(batch.empty());
}

TEST(TableScanTest, CoversEveryRowAtAnyBatchSize) {
  SchemaPtr schema = PaperSchema();
  Table table = PaperUniformTable(100, 11);
  for (int64_t batch_rows : {int64_t{1}, int64_t{7}, int64_t{100},
                             int64_t{101}, int64_t{4096}}) {
    RecordBatch batch(table.row_width(), batch_rows);
    TableScan scan = table.Scan(batch_rows);
    int64_t seen = 0;
    std::vector<int64_t> row(static_cast<size_t>(table.row_width()));
    while (scan.Next(&batch)) {
      for (int64_t i = 0; i < batch.num_rows(); ++i) {
        batch.RowAt(i, row.data());
        const int64_t* expected = table.row(seen + i);
        for (int c = 0; c < table.row_width(); ++c) {
          ASSERT_EQ(row[static_cast<size_t>(c)], expected[c])
              << "batch_rows=" << batch_rows << " row=" << seen + i;
        }
      }
      seen += batch.num_rows();
    }
    EXPECT_EQ(seen, table.num_rows()) << "batch_rows=" << batch_rows;
  }
}

TEST(TableScanTest, HonorsSubRanges) {
  Table table = PaperUniformTable(50, 3);
  RecordBatch batch(table.row_width(), 8);
  TableScan scan = table.Scan(8, 13, 29);
  int64_t seen = 13;
  std::vector<int64_t> row(static_cast<size_t>(table.row_width()));
  while (scan.Next(&batch)) {
    for (int64_t i = 0; i < batch.num_rows(); ++i) {
      batch.RowAt(i, row.data());
      EXPECT_EQ(row[0], table.row(seen + i)[0]);
    }
    seen += batch.num_rows();
  }
  EXPECT_EQ(seen, 29);
}

TEST(TableTest, AppendBatchMatchesAppendRow) {
  SchemaPtr schema = PaperSchema();
  Table expected = PaperUniformTable(300, 7);
  Table got(schema);
  RecordBatch batch(expected.row_width(), 64);
  for (int64_t r = 0; r < expected.num_rows(); ++r) {
    if (batch.num_rows() == batch.capacity()) {
      got.AppendBatch(batch);
      batch.Clear();
    }
    batch.AppendRows(expected.row(r), 1);
  }
  got.AppendBatch(batch);
  ASSERT_EQ(got.num_rows(), expected.num_rows());
  EXPECT_EQ(got.data(), expected.data());
}

// Regression: Reserve reserves capacity only; AppendUninitialized must
// size the storage itself, keep earlier rows intact at any interleaving,
// and CASM_CHECK its count instead of silently overflowing.
TEST(TableTest, ReserveAppendUninitializedInterleaving) {
  SchemaPtr schema = PaperSchema();
  Table table(schema);
  const int width = table.row_width();
  table.Reserve(4);
  int64_t* first = table.AppendUninitialized(2);
  for (int c = 0; c < 2 * width; ++c) first[c] = c;
  table.Reserve(1000);  // may reallocate; earlier rows must survive
  int64_t* second = table.AppendUninitialized(3);
  for (int c = 0; c < 3 * width; ++c) second[c] = 100 + c;
  table.Reserve(2);  // no-op shrink request below current size
  int64_t* third = table.AppendUninitialized(1);
  for (int c = 0; c < width; ++c) third[c] = 200 + c;
  ASSERT_EQ(table.num_rows(), 6);
  EXPECT_EQ(table.row(0)[0], 0);
  EXPECT_EQ(table.row(1)[0], width);
  EXPECT_EQ(table.row(2)[0], 100);
  EXPECT_EQ(table.row(5)[0], 200);
  EXPECT_EQ(table.AppendUninitialized(0), table.data().data() + 6 * width);
}

TEST(TableDeathTest, AppendUninitializedNegativeCountAborts) {
  SchemaPtr schema = PaperSchema();
  Table table(schema);
  EXPECT_DEATH(table.AppendUninitialized(-1), "CASM_CHECK");
}

// ------------------------------------------------------------- kernels/

TEST(BatchKernelTest, MapFromFinestColumnMatchesScalar) {
  SchemaPtr schema = PaperSchema();
  Table table = PaperUniformTable(1000, 23);
  const int64_t n = table.num_rows();
  for (int a = 0; a < schema->num_attributes(); ++a) {
    const Hierarchy& h = schema->attribute(a);
    std::vector<int64_t> values(static_cast<size_t>(n));
    for (int64_t r = 0; r < n; ++r) {
      values[static_cast<size_t>(r)] = table.row(r)[a];
    }
    for (LevelId level = 0; level < h.num_levels(); ++level) {
      std::vector<int64_t> out(static_cast<size_t>(n));
      h.MapFromFinestColumn(values.data(), n, level, out.data());
      for (int64_t r = 0; r < n; ++r) {
        ASSERT_EQ(out[static_cast<size_t>(r)],
                  h.MapFromFinest(values[static_cast<size_t>(r)], level))
            << h.name() << " level=" << level << " row=" << r;
      }
      // The contract allows out to alias the input.
      std::vector<int64_t> aliased = values;
      h.MapFromFinestColumn(aliased.data(), n, level, aliased.data());
      EXPECT_EQ(aliased, out) << h.name() << " level=" << level;
    }
  }
}

TEST(BatchKernelTest, MapFromFinestColumnMatchesScalarOnNominal) {
  SchemaPtr schema = WeblogSchema();
  const Hierarchy& kw = schema->attribute(0);
  ASSERT_EQ(kw.kind(), AttributeKind::kNominal);
  const int64_t n = kw.cardinality();
  std::vector<int64_t> values(static_cast<size_t>(n));
  for (int64_t v = 0; v < n; ++v) values[static_cast<size_t>(v)] = v;
  for (LevelId level = 0; level < kw.num_levels(); ++level) {
    std::vector<int64_t> out(static_cast<size_t>(n));
    kw.MapFromFinestColumn(values.data(), n, level, out.data());
    for (int64_t v = 0; v < n; ++v) {
      ASSERT_EQ(out[static_cast<size_t>(v)], kw.MapFromFinest(v, level))
          << "level=" << level << " value=" << v;
    }
  }
}

TEST(BatchKernelTest, PartitionHashColumnsMatchesScalar) {
  const int width = 4;
  const int64_t n = 257;
  std::vector<std::vector<int64_t>> cols(width);
  std::vector<const int64_t*> col_ptrs(width);
  for (int c = 0; c < width; ++c) {
    cols[static_cast<size_t>(c)].resize(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      cols[static_cast<size_t>(c)][static_cast<size_t>(i)] =
          (c + 1) * 7919 - i * 13 - 500;  // include negatives
    }
    col_ptrs[static_cast<size_t>(c)] = cols[static_cast<size_t>(c)].data();
  }
  std::vector<uint64_t> hashes(static_cast<size_t>(n));
  PartitionHashColumns(col_ptrs.data(), width, n, hashes.data());
  int64_t key[width];
  for (int64_t i = 0; i < n; ++i) {
    for (int c = 0; c < width; ++c) {
      key[c] = cols[static_cast<size_t>(c)][static_cast<size_t>(i)];
    }
    ASSERT_EQ(hashes[static_cast<size_t>(i)], PartitionHash(key, width))
        << "i=" << i;
  }
}

// --------------------------------------------- hash group-by (src/agg)

const int64_t kBatchSizes[] = {1, 7, 4096, /* num_rows + 1 */ 3001};

/// A batch_min_block_rows no block reaches: every block takes the hash
/// group-by's row path.
constexpr int64_t kNoBatching = std::numeric_limits<int64_t>::max();

/// Evaluates the whole table as one unsorted block, which LocalAggregator
/// routes to the hash group-by. The default cutoff of 0 batches it at any
/// size.
MeasureResultSet RunHashBatch(const Workflow& wf, const Table& table,
                              int64_t batch_rows,
                              int64_t min_block_rows = 0) {
  LocalAggOptions options;
  options.batch_rows = batch_rows;
  options.batch_min_block_rows = min_block_rows;
  std::unique_ptr<LocalAggregator> agg =
      MakeLocalAggregator(&wf, nullptr, options);
  LocalAggContext ctx;
  ctx.rows = table.row(0);
  ctx.n = table.num_rows();
  LocalEvalStats stats;
  return agg->Evaluate(ctx, &stats);
}

TEST(BatchDifferentialTest, EnginesBitIdenticalToRowPathAtEveryBatchSize) {
  Workflow wf = MakePaperQuery(PaperQuery::kQ5);
  Table table = PaperUniformTable(3000, 41);
  MeasureResultSet reference = EvaluateReference(wf, table);
  MeasureResultSet row_path = RunHashBatch(wf, table, 1, kNoBatching);
  Status vs_ref = CompareResultSets(reference, row_path, kTol);
  ASSERT_TRUE(vs_ref.ok()) << vs_ref.ToString();
  for (int64_t batch_rows : kBatchSizes) {
    MeasureResultSet batched = RunHashBatch(wf, table, batch_rows);
    // Same rows added in the same order: bit-identical, tolerance 0.
    Status match = CompareResultSets(row_path, batched, 0.0);
    EXPECT_TRUE(match.ok())
        << "batch_rows=" << batch_rows << ": " << match.ToString();
  }
}

TEST(BatchDifferentialTest, StatsCountBatches) {
  Workflow wf = MakePaperQuery(PaperQuery::kQ1);
  Table table = PaperUniformTable(1000, 13);
  LocalAggOptions options;
  options.batch_rows = 256;
  options.batch_min_block_rows = 0;
  std::unique_ptr<LocalAggregator> agg =
      MakeLocalAggregator(&wf, nullptr, options);
  LocalAggContext ctx;
  ctx.rows = table.row(0);
  ctx.n = table.num_rows();
  LocalEvalStats stats;
  (void)agg->Evaluate(ctx, &stats);
  EXPECT_EQ(stats.agg_batches, 4);  // ceil(1000 / 256)

  options.batch_min_block_rows = kNoBatching;  // the row path: no batches
  agg = MakeLocalAggregator(&wf, nullptr, options);
  LocalEvalStats row_stats;
  (void)agg->Evaluate(ctx, &row_stats);
  EXPECT_EQ(row_stats.agg_batches, 0);
}

// The default cutoff (batch_min_block_rows = 64) sends a 63-row block to
// the group-by's row path and a 64-row block to its batch path; both
// paths add the same rows in the same order.
TEST(BatchDifferentialTest, BlockCutoffRoutesSmallBlocksToRowPath) {
  Workflow wf = MakePaperQuery(PaperQuery::kQ1);
  Table table = PaperUniformTable(64, 19);
  const LocalAggOptions defaults;
  ASSERT_EQ(defaults.batch_min_block_rows, 64);
  std::unique_ptr<LocalAggregator> agg =
      MakeLocalAggregator(&wf, nullptr, defaults);
  LocalAggContext ctx;
  ctx.rows = table.row(0);

  ctx.n = 63;
  LocalEvalStats below;
  MeasureResultSet row_path = agg->Evaluate(ctx, &below);
  EXPECT_EQ(below.agg_batches, 0);

  ctx.n = 64;
  LocalEvalStats at;
  (void)agg->Evaluate(ctx, &at);
  EXPECT_GT(at.agg_batches, 0);

  LocalAggOptions batch_all;
  batch_all.batch_min_block_rows = 0;
  ctx.n = 63;
  LocalEvalStats forced;
  MeasureResultSet batched =
      MakeLocalAggregator(&wf, nullptr, batch_all)->Evaluate(ctx, &forced);
  EXPECT_GT(forced.agg_batches, 0);
  Status match = CompareResultSets(row_path, batched, 0.0);
  EXPECT_TRUE(match.ok()) << match.ToString();
}

// ------------------------------------------------- MR pipeline (kernel)

/// Map walk and group-by batched at `batch_rows` (the group-by at every
/// block size).
ParallelEvalOptions PipelineOpts(int64_t batch_rows,
                                 int64_t spill_threshold) {
  ParallelEvalOptions o;
  o.num_mappers = 3;
  o.num_reducers = 4;
  o.num_threads = 2;
  o.local_agg.batch_rows = batch_rows;
  o.local_agg.batch_min_block_rows = 0;
  o.emitter_spill_threshold_bytes = spill_threshold;
  return o;
}

/// The tolerance-0.0 baseline: one-row map batches, and every block on
/// the hash group-by's row path.
ParallelEvalOptions BaselineOpts() {
  ParallelEvalOptions o = PipelineOpts(1, 0);
  o.local_agg.batch_min_block_rows = kNoBatching;
  return o;
}

TEST(BatchDifferentialTest, PipelineBitIdenticalAcrossBatchSizes) {
  SchemaPtr schema = PaperSchema();
  Workflow wf = MakePaperQuery(PaperQuery::kQ5);
  Table table = PaperUniformTable(3000, 53);
  ExecutionPlan plan;
  plan.key = DeriveDistributionKeys(wf).query_key;
  MeasureResultSet expected = EvaluateReference(wf, table);

  Result<ParallelEvalResult> baseline =
      EvaluateParallel(wf, table, plan, BaselineOpts());
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  Status vs_ref = CompareResultSets(expected, baseline->results, kTol);
  ASSERT_TRUE(vs_ref.ok()) << vs_ref.ToString();

  for (int64_t batch_rows : kBatchSizes) {
    // The spill threshold ladder covers: no spill, and a threshold tight
    // enough that every mapper spills multiple column-block runs.
    for (int64_t spill : {int64_t{0}, int64_t{1} << 12}) {
      Result<ParallelEvalResult> batched = EvaluateParallel(
          wf, table, plan, PipelineOpts(batch_rows, spill));
      ASSERT_TRUE(batched.ok())
          << "batch_rows=" << batch_rows << " spill=" << spill << ": "
          << batched.status().ToString();
      if (spill > 0) {
        EXPECT_GT(batched->metrics.emitter_spilled_runs, 0)
            << "spill threshold did not trigger; tighten the test";
      }
      Status match =
          CompareResultSets(baseline->results, batched->results, 0.0);
      EXPECT_TRUE(match.ok())
          << "batch_rows=" << batch_rows << " spill=" << spill << ": "
          << match.ToString();
    }
  }
}

TEST(BatchDifferentialTest,
     EarlyAggregationPipelineBitIdenticalAcrossBatchSizes) {
  SchemaPtr schema = PaperSchema();
  Workflow wf = MakePaperQuery(PaperQuery::kQ1);
  Table table = PaperUniformTable(2000, 67);
  ExecutionPlan plan;
  plan.key = DeriveDistributionKeys(wf).query_key;
  plan.early_aggregation = true;
  Result<ParallelEvalResult> baseline =
      EvaluateParallel(wf, table, plan, BaselineOpts());
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  Status vs_ref =
      CompareResultSets(EvaluateReference(wf, table), baseline->results, kTol);
  ASSERT_TRUE(vs_ref.ok()) << vs_ref.ToString();
  for (int64_t batch_rows : kBatchSizes) {
    Result<ParallelEvalResult> batched =
        EvaluateParallel(wf, table, plan, PipelineOpts(batch_rows, 0));
    ASSERT_TRUE(batched.ok()) << batched.status().ToString();
    Status match = CompareResultSets(baseline->results, batched->results, 0.0);
    EXPECT_TRUE(match.ok())
        << "batch_rows=" << batch_rows << ": " << match.ToString();
  }
}

// Overlapping keys exercise the per-row ForEachBlock fallback inside the
// columnar map task (records replicate to several blocks).
TEST(BatchDifferentialTest, AnnotatedKeyPipelineBitIdenticalAcrossBatchSizes) {
  SchemaPtr schema = PaperSchema();
  Workflow wf = MakePaperQuery(PaperQuery::kQ5);  // sibling windows
  Table table = PaperUniformTable(2000, 71);
  ExecutionPlan plan;
  plan.key = DeriveDistributionKeys(wf).query_key;
  plan.clustering_factor = 4;
  Result<ParallelEvalResult> baseline =
      EvaluateParallel(wf, table, plan, BaselineOpts());
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  Status vs_ref =
      CompareResultSets(EvaluateReference(wf, table), baseline->results, kTol);
  ASSERT_TRUE(vs_ref.ok()) << vs_ref.ToString();
  for (int64_t batch_rows : kBatchSizes) {
    Result<ParallelEvalResult> batched =
        EvaluateParallel(wf, table, plan, PipelineOpts(batch_rows, 0));
    ASSERT_TRUE(batched.ok()) << batched.status().ToString();
    Status match = CompareResultSets(baseline->results, batched->results, 0.0);
    EXPECT_TRUE(match.ok())
        << "batch_rows=" << batch_rows << ": " << match.ToString();
  }
}

// ------------------------------------------------ column-run spill io/

TEST(ColumnRunTest, AppendReadRoundTrip) {
  const int width = 5;
  std::vector<int64_t> records;
  for (int64_t r = 0; r < 37; ++r) {
    for (int c = 0; c < width; ++c) records.push_back(r * 100 + c);
  }
  const std::string path =
      (std::string(::testing::TempDir()) + "/batch_test_column_run.spill");
  std::remove(path.c_str());
  Result<int64_t> first = AppendColumnRun(path, records, width);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  std::vector<int64_t> second_records(records.rbegin(), records.rend());
  Result<int64_t> second = AppendColumnRun(path, second_records, width);
  ASSERT_TRUE(second.ok()) << second.status().ToString();

  Result<std::vector<int64_t>> read_first = ReadColumnRun(
      path, first.value(), static_cast<int64_t>(records.size()), width);
  ASSERT_TRUE(read_first.ok()) << read_first.status().ToString();
  EXPECT_EQ(read_first.value(), records);
  Result<std::vector<int64_t>> read_second = ReadColumnRun(
      path, second.value(), static_cast<int64_t>(second_records.size()),
      width);
  ASSERT_TRUE(read_second.ok()) << read_second.status().ToString();
  EXPECT_EQ(read_second.value(), second_records);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace casm

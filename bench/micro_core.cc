// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.
//
// google-benchmark microbenchmarks for CASM's hot paths: hierarchy
// mapping, region extraction, key generation, partition hashing,
// accumulators, offset conversion, cost-model evaluation, the local
// sort/scan evaluator, the framework sort, the result union, and an
// observed local-aggregation block with no sink on.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "agg/local_aggregator.h"
#include "common/rng.h"
#include "core/cost_model.h"
#include "core/key_derivation.h"
#include "core/keygen.h"
#include "data/generator.h"
#include "data/record_batch.h"
#include "local/measure_table.h"
#include "local/sortscan_evaluator.h"
#include "mr/engine.h"
#include "mr/external_sort.h"
#include "mr/metrics.h"
#include "obs/event.h"
#include "obs/progress.h"
#include "queries/paper_data.h"
#include "measure/workflow_parser.h"
#include "queries/paper_queries.h"

namespace casm {
namespace {

void BM_MapFromFinest(benchmark::State& state) {
  SchemaPtr schema = PaperSchema();
  const Hierarchy& time = schema->attribute(4);
  int64_t v = 12345;
  for (auto _ : state) {
    benchmark::DoNotOptimize(time.MapFromFinest(v, 2));
    v = (v + 977) % time.cardinality();
  }
}
BENCHMARK(BM_MapFromFinest);

void BM_RegionOfRecord(benchmark::State& state) {
  SchemaPtr schema = PaperSchema();
  Table table = PaperUniformTable(1024, 5);
  Workflow wf = MakePaperQuery(PaperQuery::kQ6);
  const Granularity& gran = wf.measure(0).granularity;
  int64_t row = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        RegionOfRecord(*schema, gran, table.row(row)));
    row = (row + 1) % table.num_rows();
  }
}
BENCHMARK(BM_RegionOfRecord);

void BM_KeyGeneration(benchmark::State& state) {
  SchemaPtr schema = PaperSchema();
  Table table = PaperUniformTable(1024, 6);
  Workflow wf = MakePaperQuery(PaperQuery::kQ6);
  ExecutionPlan plan;
  plan.key = DeriveDistributionKeys(wf).query_key;
  plan.clustering_factor = static_cast<int64_t>(state.range(0));
  std::vector<KeyGenAttr> keygen = BuildKeyGen(*schema, plan);
  std::vector<int64_t> g(6), key(6);
  int64_t row = 0;
  int64_t emitted = 0;
  for (auto _ : state) {
    const int64_t* r = table.row(row);
    for (int a = 0; a < 6; ++a) {
      g[static_cast<size_t>(a)] =
          schema->attribute(a).MapFromFinest(r[a], keygen[static_cast<size_t>(a)].level);
    }
    ForEachBlock(keygen, g, &key, [&](const int64_t* k) {
      benchmark::DoNotOptimize(k[0]);
      ++emitted;
    });
    row = (row + 1) % table.num_rows();
  }
  state.counters["replicas_per_record"] =
      static_cast<double>(emitted) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_KeyGeneration)->Arg(1)->Arg(10)->Arg(100);

void BM_PartitionHash(benchmark::State& state) {
  int64_t key[6] = {1, 2, 3, 4, 5, 6};
  for (auto _ : state) {
    benchmark::DoNotOptimize(PartitionHash(key, 6));
    ++key[3];
  }
}
BENCHMARK(BM_PartitionHash);

void BM_AccumulatorAdd(benchmark::State& state) {
  AggregateFn fn = static_cast<AggregateFn>(state.range(0));
  Accumulator acc(fn);
  double v = 0.5;
  for (auto _ : state) {
    acc.Add(v);
    v += 0.25;
  }
  benchmark::DoNotOptimize(acc.count());
}
BENCHMARK(BM_AccumulatorAdd)
    ->Arg(static_cast<int>(AggregateFn::kSum))
    ->Arg(static_cast<int>(AggregateFn::kAvg))
    ->Arg(static_cast<int>(AggregateFn::kMedian));

void BM_ConvertOffsets(benchmark::State& state) {
  for (auto _ : state) {
    int64_t lo = -600, hi = 600;
    ConvertOffsets(60, 86400, &lo, &hi);
    benchmark::DoNotOptimize(lo);
    benchmark::DoNotOptimize(hi);
  }
}
BENCHMARK(BM_ConvertOffsets);

void BM_OptimalClusteringFactor(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        OptimalClusteringFactor(1000000, 30720, 24, 50, 0));
  }
}
BENCHMARK(BM_OptimalClusteringFactor);

void BM_KeyDerivation(benchmark::State& state) {
  Workflow wf = MakePaperQuery(PaperQuery::kQ6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(DeriveDistributionKeys(wf).query_key);
  }
}
BENCHMARK(BM_KeyDerivation);

void BM_SortScanEvaluate(benchmark::State& state) {
  Workflow wf = MakePaperQuery(PaperQuery::kQ5);
  Table table = PaperUniformTable(state.range(0), 3);
  SortScanEvaluator eval(&wf);
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval.Evaluate(table.data().data(),
                                           table.num_rows(), false,
                                           LocalEvalPhase::kFull, nullptr));
  }
  state.SetItemsProcessed(state.iterations() * table.num_rows());
}
BENCHMARK(BM_SortScanEvaluate)->Arg(1000)->Arg(10000);

// Local aggregation at a high-cardinality (tier2/hour, thousands of
// distinct groups) grouping — the regime where aggregation still
// collapses rows but one sort of the whole block costs more than hashing
// into group tables. The first argument picks the evaluator: 0 runs
// sort/scan directly on the unsorted block (its sort included), 1 runs
// LocalAggregator, which routes the unsorted block to the hash group-by
// ("morsel"). The third argument selects the group-by inner loop: -1
// forces the row-at-a-time path that blocks under batch_min_block_rows
// take (one RegionOfRecord heap allocation per row per measure), 0 the
// columnar batch path (one transpose + one mapping pass per (attribute,
// level) per batch). Same results either way — the pair measures what
// batching buys.
void BM_LocalAggEvaluate(benchmark::State& state) {
  SchemaPtr schema = PaperSchema();
  WorkflowBuilder b(schema);
  Granularity gran =
      Granularity::Of(*schema, {{"D1", "tier2"}, {"T1", "hour"}}).value();
  b.AddBasic("sum", gran, AggregateFn::kSum, "D2");
  b.AddBasic("cnt", gran, AggregateFn::kCount, "D2");
  b.AddBasic("max", gran, AggregateFn::kMax, "D3");
  Workflow wf = std::move(b).Build().value();
  Table table = PaperUniformTable(state.range(1), 3);
  const bool sortscan = state.range(0) == 0;
  const bool row_path = state.range(2) < 0;
  LocalAggOptions options;
  if (row_path) {
    options.batch_min_block_rows = std::numeric_limits<int64_t>::max();
  }
  const SortScanEvaluator eval(&wf);
  std::unique_ptr<LocalAggregator> agg =
      MakeLocalAggregator(&wf, &eval, options);
  LocalAggContext ctx;
  ctx.rows = table.data().data();
  ctx.n = table.num_rows();
  LocalEvalStats stats;
  for (auto _ : state) {
    if (sortscan) {
      benchmark::DoNotOptimize(eval.Evaluate(ctx.rows, ctx.n, false,
                                             LocalEvalPhase::kFull, &stats));
    } else {
      benchmark::DoNotOptimize(agg->Evaluate(ctx, &stats));
    }
  }
  state.SetItemsProcessed(state.iterations() * table.num_rows());
  state.SetLabel(sortscan ? std::string("sortscan")
                          : std::string("morsel") +
                                (row_path ? "/row" : "/columnar"));
}
BENCHMARK(BM_LocalAggEvaluate)
    ->Unit(benchmark::kMillisecond)
    ->Args({0, 20000, 0})
    ->Args({1, 20000, -1})
    ->Args({1, 20000, 0})
    ->Args({0, 120000, 0})
    ->Args({1, 120000, -1})
    ->Args({1, 120000, 0});

// The map task's scan kernel: scan the table as RecordBatches and map
// every attribute of each record to its key level with one
// MapFromFinestColumn pass per column (level checks hoisted out of the
// loop). Arg 1 is the row count; arg 0 is always 1 (the columnar scan),
// and stays in the name that bench/baselines/micro_core.json gates.
void BM_ScanKeyLevelMap(benchmark::State& state) {
  SchemaPtr schema = PaperSchema();
  Table table = PaperUniformTable(state.range(1), 6);
  Workflow wf = MakePaperQuery(PaperQuery::kQ6);
  ExecutionPlan plan;
  plan.key = DeriveDistributionKeys(wf).query_key;
  std::vector<KeyGenAttr> keygen = BuildKeyGen(*schema, plan);
  const int num_attrs = schema->num_attributes();
  const int64_t cap = kDefaultBatchRows;
  RecordBatch batch(table.row_width(), cap);
  std::vector<std::vector<int64_t>> g_cols(static_cast<size_t>(num_attrs));
  for (auto& col : g_cols) col.resize(static_cast<size_t>(cap));
  for (auto _ : state) {
    TableScan scan = table.Scan(cap);
    while (scan.Next(&batch)) {
      const int64_t bn = batch.num_rows();
      for (int a = 0; a < num_attrs; ++a) {
        schema->attribute(a).MapFromFinestColumn(
            batch.column(a), bn, keygen[static_cast<size_t>(a)].level,
            g_cols[static_cast<size_t>(a)].data());
      }
      benchmark::DoNotOptimize(g_cols.data());
    }
  }
  state.SetLabel("columnar");
  state.SetItemsProcessed(state.iterations() * table.num_rows());
}
BENCHMARK(BM_ScanKeyLevelMap)
    ->Unit(benchmark::kMillisecond)
    ->Args({1, 120000});

// Partition-hash kernel pair: per-key PartitionHash against the
// column-vectorized PartitionHashColumns over a whole batch of keys.
void BM_PartitionHashColumns(benchmark::State& state) {
  const int64_t n = 4096;
  const int width = 6;
  std::vector<std::vector<int64_t>> cols(width);
  std::vector<const int64_t*> col_ptrs(width);
  for (int c = 0; c < width; ++c) {
    cols[static_cast<size_t>(c)].resize(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      cols[static_cast<size_t>(c)][static_cast<size_t>(i)] = c * 977 + i;
    }
    col_ptrs[static_cast<size_t>(c)] = cols[static_cast<size_t>(c)].data();
  }
  std::vector<uint64_t> out(static_cast<size_t>(n));
  for (auto _ : state) {
    PartitionHashColumns(col_ptrs.data(), width, n, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_PartitionHashColumns);

// The framework sort over one solo_coarse reducer's input: 75k pairs of
// a 6-column block key and a 6-column row, keys drawn from the 1,920
// blocks of a 64 x 480 grid that PartitionHash sends to reducer 0 of 16
// (Q2's shape). Arg 0 times the radix kernel (SortPairs), arg 1 the
// comparator sort (SortRecords) to the same order. Items are pairs
// sorted; the input copy is made with the timer paused.
void BM_SortPairs(benchmark::State& state) {
  constexpr int kKeyWidth = 6;
  constexpr int kWidth = 12;
  constexpr int64_t kPairs = 75000;
  std::vector<int64_t> blocks;
  for (int64_t a = 0; a < 64; ++a) {
    for (int64_t b = 0; b < 480; ++b) {
      const int64_t key[kKeyWidth] = {a, b, 0, 0, 0, 0};
      if (PartitionHash(key, kKeyWidth) % 16 == 0) {
        blocks.insert(blocks.end(), key, key + kKeyWidth);
      }
    }
  }
  Rng rng(7);
  std::vector<int64_t> input;
  input.reserve(kPairs * kWidth);
  for (int64_t i = 0; i < kPairs; ++i) {
    const size_t block = rng.Uniform(blocks.size() / kKeyWidth) * kKeyWidth;
    input.insert(input.end(), blocks.begin() + block,
                 blocks.begin() + block + kKeyWidth);
    for (int c = kKeyWidth; c < kWidth; ++c) {
      input.push_back(static_cast<int64_t>(rng.Uniform(100000)));
    }
  }
  const PairOrder order{kWidth, kKeyWidth, {}};
  const RecordLess key_less = [](const int64_t* a, const int64_t* b) {
    return std::lexicographical_compare(a, a + kKeyWidth, b, b + kKeyWidth);
  };
  const bool kernel = state.range(0) == 0;
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<int64_t> pairs = input;
    state.ResumeTiming();
    pairs = kernel ? SortPairs(std::move(pairs), order)
                   : SortRecords(std::move(pairs), kWidth, key_less);
    benchmark::DoNotOptimize(pairs.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kPairs);
}
BENCHMARK(BM_SortPairs)->Unit(benchmark::kMillisecond)->Arg(0)->Arg(1);

// The result union as the evaluators run it (core/eval_internal.h): each
// block's owned results move into its reduce task's set, then the task
// sets move, in task order, into the query's set reserved to their
// summed size. Blocks hold 1 result of each of 3 measures, as on the
// near-unique blocks of solo_fine's Q1. Items are results merged; the
// block sets are built with the timer paused.
void BM_ResultUnion(benchmark::State& state) {
  constexpr int kMeasures = 3;
  constexpr int kTasks = 16;
  const int64_t blocks = state.range(0);
  std::vector<MeasureResultSet> block_sets;
  std::vector<MeasureResultSet> task_sets;
  MeasureResultSet query;
  for (auto _ : state) {
    state.PauseTiming();
    block_sets.clear();
    for (int64_t b = 0; b < blocks; ++b) {
      MeasureResultSet set(kMeasures);
      for (int m = 0; m < kMeasures; ++m) {
        set.mutable_values(m).emplace(Coords{b / 60, b % 60, m, 0, 0, 0},
                                      0.5 * static_cast<double>(b + m));
      }
      block_sets.push_back(std::move(set));
    }
    task_sets.assign(kTasks, MeasureResultSet(kMeasures));
    query = MeasureResultSet(kMeasures);
    state.ResumeTiming();
    for (int64_t b = 0; b < blocks; ++b) {
      benchmark::DoNotOptimize(
          task_sets[static_cast<size_t>(b % kTasks)]
              .MergeDisjoint(std::move(block_sets[static_cast<size_t>(b)]))
              .ok());
    }
    for (int m = 0; m < kMeasures; ++m) {
      size_t total = 0;
      for (const MeasureResultSet& t : task_sets) total += t.values(m).size();
      query.mutable_values(m).reserve(total);
    }
    for (MeasureResultSet& t : task_sets) {
      benchmark::DoNotOptimize(query.MergeDisjoint(std::move(t)).ok());
      t = MeasureResultSet();
    }
    benchmark::DoNotOptimize(query.TotalResults());
  }
  state.SetItemsProcessed(state.iterations() * blocks * kMeasures);
}
BENCHMARK(BM_ResultUnion)->Unit(benchmark::kMillisecond)->Arg(1 << 16);

// The no-sink overhead contract of obs/event.h: with no sink on, a
// block-rate event costs one branch, through an evaluator's context (arg
// 0) and through an engine run's context (arg 1), which folds the run's
// engine kinds into its metrics but not the blocks. A clock read, a lock
// or an atomic per block shows here as a multi-x drop.
void BM_Observe(benchmark::State& state) {
  std::unique_ptr<ProgressTracker> progress;
  MapReduceMetrics metrics;
  obs::Context evaluator;
  obs::Context run(nullptr, "", &progress, &metrics);
  obs::Context* context = state.range(0) == 0 ? &evaluator : &run;
  const obs::Event block{.kind = obs::Kind::kMorselBlock, .task = 3,
                         .n = {9}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(context);  // reload the context every event
    obs::Observe(context, block);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Observe)->Arg(0)->Arg(1);

void BM_ParseWorkflow(benchmark::State& state) {
  SchemaPtr schema = WeblogSchema();
  const char* text = R"(
    M1 := MEDIAN(PageCount)       AT Keyword:word, Time:minute;
    M2 := MEDIAN(AdCount)         AT Keyword:word, Time:hour;
    M3 := M1 / M2                 AT Keyword:word, Time:minute;
    M4 := AVG(M3 OVER Time[-9,0]) AT Keyword:word, Time:minute;
  )";
  for (auto _ : state) {
    benchmark::DoNotOptimize(ParseWorkflow(schema, text));
  }
}
BENCHMARK(BM_ParseWorkflow);

void BM_GenerateTable(benchmark::State& state) {
  SchemaPtr schema = PaperSchema();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        GenerateUniformTable(schema, state.range(0), 42));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GenerateTable)->Arg(100000);

}  // namespace
}  // namespace casm

BENCHMARK_MAIN();

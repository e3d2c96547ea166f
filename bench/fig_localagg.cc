// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.
//
// Local aggregation ladder: evaluates one reducer-sized, unsorted block
// with each local evaluator across a cardinality ladder (day/tier3 ->
// hour/tier2 -> minute/value grouping) crossed with uniform and
// temporally skewed data:
//
//  * sortscan — SortScanEvaluator called directly, its sort included
//    (the cost the block would pay without the combined sort);
//  * morsel — LocalAggregator, whose rule routes an unsorted full-phase
//    block to the hash group-by.
//
// Both must produce the reference evaluator's results on every point
// (checked in-process; a mismatch aborts), so the ladder only measures
// speed.
//
// JSON (CASM_BENCH_JSON): one row per (point, evaluator) with the block's
// row count and the best-of-reps wall seconds. The morsel rows also carry
// LocalAggregator's block counters (localagg_sortscan / localagg_morsel),
// which record where the rule routed the block.

#include <memory>
#include <vector>

#include "agg/local_aggregator.h"
#include "bench/bench_util.h"
#include "local/reference_evaluator.h"

int main() {
  using namespace casm;
  using namespace casm::bench;

  PrintHeader("local aggregation ladder",
              "sort/scan vs hash group-by, cardinality x skew");
  const int64_t rows = ScaledRows(120000);
  const int reps = 3;
  std::printf("# block=%lld rows, best of %d reps\n",
              static_cast<long long>(rows), reps);

  SchemaPtr schema = PaperSchema();
  struct Rung {
    const char* name;
    const char* d_level;
    const char* t_level;
  };
  const Rung rungs[] = {{"coarse", "tier3", "day"},
                        {"mid", "tier2", "hour"},
                        {"fine", "value", "minute"}};
  const char* const evaluators[] = {"sortscan", "morsel"};

  std::vector<JsonRow> json;
  std::printf("%-18s%12s%12s%12s\n", "point", "sortscan_s", "morsel_s",
              "routed");
  for (const Rung& rung : rungs) {
    WorkflowBuilder b(schema);
    Granularity gran =
        Granularity::Of(*schema, {{"D1", rung.d_level}, {"T1", rung.t_level}})
            .value();
    b.AddBasic("sum", gran, AggregateFn::kSum, "D2");
    b.AddBasic("cnt", gran, AggregateFn::kCount, "D2");
    b.AddBasic("max", gran, AggregateFn::kMax, "D3");
    Result<Workflow> built = std::move(b).Build();
    CASM_CHECK(built.ok()) << built.status().ToString();
    const Workflow wf = std::move(built).value();
    const SortScanEvaluator sortscan(&wf);
    const std::unique_ptr<LocalAggregator> agg =
        MakeLocalAggregator(&wf, &sortscan);

    for (bool skewed : {false, true}) {
      Table table = skewed ? PaperSkewedTable(rows, 4242)
                           : PaperUniformTable(rows, 1717);
      const MeasureResultSet expected = EvaluateReference(wf, table);
      const std::string point =
          std::string(rung.name) + (skewed ? "_skewed" : "_uniform");
      LocalAggContext ctx;
      ctx.rows = table.data().data();
      ctx.n = table.num_rows();

      double seconds[2] = {0, 0};
      LocalEvalStats routed;
      for (int e = 0; e < 2; ++e) {
        double best = 0;
        for (int rep = 0; rep < reps; ++rep) {
          LocalEvalStats rep_stats;
          const auto start = std::chrono::steady_clock::now();
          MeasureResultSet got =
              e == 0 ? sortscan.Evaluate(ctx.rows, ctx.n,
                                         /*assume_sorted=*/false,
                                         LocalEvalPhase::kFull, &rep_stats)
                     : agg->Evaluate(ctx, &rep_stats);
          const double elapsed =
              std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            start)
                  .count();
          if (rep == 0 || elapsed < best) best = elapsed;
          if (e == 1) routed = rep_stats;
          // Evaluator-identical results on every point: a silent
          // divergence would make the speed comparison meaningless.
          Status match = CompareResultSets(expected, got, 1e-7);
          CASM_CHECK(match.ok()) << point << " evaluator=" << evaluators[e]
                                 << ": " << match.ToString();
        }
        seconds[e] = best;
        JsonRow row;
        row.label = point + "/" + evaluators[e];
        row.fields.emplace_back("rows", static_cast<double>(rows));
        row.fields.emplace_back("seconds", best);
        if (e == 1) {
          row.fields.emplace_back(
              "localagg_sortscan",
              static_cast<double>(routed.agg_blocks_sortscan));
          row.fields.emplace_back(
              "localagg_morsel",
              static_cast<double>(routed.agg_blocks_morsel));
        }
        json.push_back(std::move(row));
      }
      std::printf("%-18s%12.4f%12.4f%12s\n", point.c_str(), seconds[0],
                  seconds[1],
                  routed.agg_blocks_sortscan > 0 ? "sortscan" : "morsel");
      std::fflush(stdout);
    }
  }
  MaybeWriteJson("fig_localagg", json);
  return 0;
}

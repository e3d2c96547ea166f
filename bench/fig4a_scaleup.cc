// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.
//
// Figure 4(a) — System scale-up: query response time vs data-set size for
// Q1-Q6, 50 mappers and 50 reducers. Paper shape: every query scales close
// to linearly in the input size; Q6 is consistently slowest because its
// sibling window forces an overlapping key (extra shuffled data, larger
// blocks to sort).
//
// The JSON output additionally carries a columnar ladder: one evaluation
// timed at two worker counts. CI's bench-smoke job asserts that every
// ladder point reports its throughput, and the bench-regression job gates
// it against the floors in bench/baselines/fig4a.json.

#include <chrono>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "measure/workflow_parser.h"

namespace {

double WallSeconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

int main() {
  using namespace casm;
  using namespace casm::bench;

  PrintHeader("Figure 4(a)", "response time vs data size, Q1-Q6, 50m/50r");
  ClusterConfig cluster;
  std::vector<JsonRow> json;

  std::vector<int64_t> sizes = {ScaledRows(50000), ScaledRows(100000),
                                ScaledRows(200000), ScaledRows(400000)};
  std::printf("%-8s", "rows");
  for (PaperQuery q : {PaperQuery::kQ1, PaperQuery::kQ2, PaperQuery::kQ3,
                       PaperQuery::kQ4, PaperQuery::kQ5, PaperQuery::kQ6}) {
    std::printf("%12s", PaperQueryName(q));
  }
  std::printf("   (modeled cluster seconds)\n");

  for (int64_t rows : sizes) {
    Table table = PaperUniformTable(rows, 4242);
    std::printf("%-8lld", static_cast<long long>(rows));
    for (PaperQuery q : {PaperQuery::kQ1, PaperQuery::kQ2, PaperQuery::kQ3,
                         PaperQuery::kQ4, PaperQuery::kQ5, PaperQuery::kQ6}) {
      Workflow wf = MakePaperQuery(q);
      RunOutcome outcome = RunQuery(wf, table, cluster);
      std::printf("%12.3f", outcome.modeled_seconds);
      std::fflush(stdout);
      JsonRow row{std::to_string(rows) + "/" + PaperQueryName(q), {}};
      row.fields.emplace_back("rows", static_cast<double>(rows));
      row.fields.emplace_back("modeled_seconds", outcome.modeled_seconds);
      AppendResourceMetrics(outcome.result.metrics, &row);
      json.push_back(std::move(row));
    }
    std::printf("\n");
  }

  // ---- Columnar ladder. A multi-basic grouping (per-row region
  // extraction dominates) over a fixed-size table. Each point runs three
  // times and keeps its best wall time, which suppresses one-off
  // scheduler noise on shared CI machines.
  const int64_t ladder_rows = std::max<int64_t>(ScaledRows(200000), 60000);
  Table ladder_table = PaperUniformTable(ladder_rows, 777);
  SchemaPtr schema = PaperSchema();
  Workflow ladder_wf =
      ParseWorkflow(schema,
                    "M1 := SUM(D2)   AT D1:tier3, T1:day;"
                    "M2 := COUNT(D2) AT D1:tier3, T1:day;"
                    "M3 := MAX(D3)   AT D1:tier3, T1:day;")
          .value();
  OptimizerOptions ladder_opts;
  ladder_opts.num_records = ladder_table.num_rows();
  std::printf("\n%-14s%16s   (columnar ladder, %lld rows)\n", "workers",
              "rows/s", static_cast<long long>(ladder_rows));
  for (int workers : {2, 8}) {
    OptimizerOptions opts = ladder_opts;
    opts.num_reducers = workers;
    ExecutionPlan plan = OptimizePlan(ladder_wf, opts).value();
    double best = 1e300;
    MapReduceMetrics metrics;
    for (int rep = 0; rep < 3; ++rep) {
      ParallelEvalOptions eval;
      eval.num_mappers = workers;
      eval.num_reducers = workers;
      const auto start = std::chrono::steady_clock::now();
      Result<ParallelEvalResult> result =
          EvaluateParallel(ladder_wf, ladder_table, plan, eval);
      const double seconds = WallSeconds(start);
      CASM_CHECK(result.ok()) << result.status().ToString();
      best = std::min(best, seconds);
      metrics = result->metrics;
    }
    const double tput = static_cast<double>(ladder_rows) / best;
    std::printf("%-14d%16.0f\n", workers, tput);
    JsonRow row{"ladder/w" + std::to_string(workers), {}};
    row.fields.emplace_back("workers", static_cast<double>(workers));
    row.fields.emplace_back("ladder_rows", static_cast<double>(ladder_rows));
    row.fields.emplace_back("columnar_seconds", best);
    row.fields.emplace_back("columnar_throughput_rows_per_sec", tput);
    AppendResourceMetrics(metrics, &row);
    json.push_back(std::move(row));
  }

  MaybeWriteJson("fig4a", json);
  return 0;
}

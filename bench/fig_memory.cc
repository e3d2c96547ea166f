// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.
//
// Memory-budget ladder experiment (beyond the paper's figures, probing
// the substrate discipline its evaluation relies on: the framework never
// runs a task whose working set it cannot hold, §III-A/§VI). The same
// query runs three times:
//
//   unbounded — no budget: the run's peak tracked bytes are measured
//               (emitter buffers plus reduce-task footprints);
//   1/2       — budget set to half the unbounded peak;
//   1/8       — budget set to an eighth of the unbounded peak: emitters
//               spill sorted runs to disk and task launches queue for
//               admission, yet the query result is unchanged.
//
// Self-checks (always on): every budgeted run's peak_tracked_bytes stays
// within its budget, its results are identical to the unbounded run's,
// and the tightest rung actually exercised the machinery
// (emitter_spilled_runs > 0, admission_waits > 0).

#include <cstdio>

#include "bench/bench_util.h"

int main() {
  using namespace casm;
  using namespace casm::bench;

  PrintHeader("Memory budget ladder",
              "bounded peak tracked bytes, identical results");
  ClusterConfig cluster;
  const int64_t rows = ScaledRows(300000);
  Workflow wf = MakePaperQuery(PaperQuery::kQ3);
  Table table = PaperUniformTable(rows, 707);

  OptimizerOptions opts;
  opts.num_reducers = cluster.num_reducers;
  opts.num_records = table.num_rows();
  ExecutionPlan plan = OptimizePlan(wf, opts).value();

  ParallelEvalOptions base;
  base.num_mappers = cluster.num_mappers;
  base.num_reducers = cluster.num_reducers;
  // A fixed worker count keeps the admission-contention pattern (and so
  // the spill/wait counters) comparable across machines.
  base.num_threads = 8;

  // ---- unbounded reference run: measure the peak.
  Result<ParallelEvalResult> unbounded =
      EvaluateParallel(wf, table, plan, base);
  CASM_CHECK(unbounded.ok()) << unbounded.status().ToString();
  const MapReduceMetrics& free_metrics = unbounded.value().metrics;
  const int64_t peak = free_metrics.peak_tracked_bytes;
  CASM_CHECK_GT(peak, 0);
  CASM_CHECK_EQ(free_metrics.emitter_spilled_runs, 0);
  CASM_CHECK_EQ(free_metrics.admission_waits, 0);

  struct Rung {
    const char* label;
    int64_t budget;
    bool tight;  // the rung that must show spills + admission waits
    MapReduceMetrics metrics = MapReduceMetrics();
  };
  Rung ladder[] = {{"budget = peak/2", peak / 2, false},
                   {"budget = peak/8", peak / 8, true}};

  for (Rung& rung : ladder) {
    ParallelEvalOptions budgeted = base;
    budgeted.memory_budget_bytes = rung.budget;
    Result<ParallelEvalResult> run =
        EvaluateParallel(wf, table, plan, budgeted);
    CASM_CHECK(run.ok()) << rung.label << ": " << run.status().ToString();
    rung.metrics = run.value().metrics;
    // The acceptance bar: the budget held, and neither spilling nor
    // admission queueing perturbed the query result.
    CASM_CHECK_LE(rung.metrics.peak_tracked_bytes, rung.budget)
        << rung.label;
    Status identical = CompareResultSets(unbounded.value().results,
                                         run.value().results, 0.0);
    CASM_CHECK(identical.ok()) << rung.label << ": " << identical.ToString();
    if (rung.tight) {
      CASM_CHECK_GT(rung.metrics.emitter_spilled_runs, 0);
      CASM_CHECK_GT(rung.metrics.admission_waits, 0);
    }
  }

  std::printf("%-18s%14s%14s%10s%12s%10s%10s\n", "run", "budget B",
              "peak B", "spills", "spilled rec", "adm waits", "wall s");
  auto print_row = [](const char* label, int64_t budget,
                      const MapReduceMetrics& m) {
    std::printf("%-18s%14lld%14lld%10lld%12lld%10lld%10.3f\n", label,
                static_cast<long long>(budget),
                static_cast<long long>(m.peak_tracked_bytes),
                static_cast<long long>(m.emitter_spilled_runs),
                static_cast<long long>(m.emitter_spilled_records),
                static_cast<long long>(m.admission_waits), m.total_seconds);
  };
  print_row("unbounded", 0, free_metrics);
  for (const Rung& rung : ladder) {
    print_row(rung.label, rung.budget, rung.metrics);
  }
  std::printf("# self-check ok: budgets held, results identical, tightest "
              "rung spilled and queued\n");

  std::vector<JsonRow> json;
  auto json_row = [](const char* label, int64_t budget,
                     const MapReduceMetrics& m) {
    JsonRow row{label,
                   {{"budget_bytes", static_cast<double>(budget)},
                    {"peak_tracked_bytes",
                     static_cast<double>(m.peak_tracked_bytes)},
                    {"emitter_spilled_runs",
                     static_cast<double>(m.emitter_spilled_runs)},
                    {"emitter_spilled_records",
                     static_cast<double>(m.emitter_spilled_records)},
                    {"admission_waits",
                     static_cast<double>(m.admission_waits)},
                    {"admission_wait_seconds", m.admission_wait_seconds},
                    {"total_seconds", m.total_seconds}}};
    AppendAttemptHistogram(m, &row);
    return row;
  };
  json.push_back(json_row("unbounded", 0, free_metrics));
  for (const Rung& rung : ladder) {
    json.push_back(json_row(rung.label, rung.budget, rung.metrics));
  }
  MaybeWriteJson("fig_memory", json);
  return 0;
}

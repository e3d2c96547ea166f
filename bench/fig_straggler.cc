// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.
//
// Straggler tail-latency experiment (beyond the paper's figures, in the
// spirit of its Hadoop testbed): the paper's response time is the map
// cost plus the heaviest reducer's cost, so one straggling node directly
// stretches the tail. This harness injects a deterministic ~20x slowdown
// into one map task's primary execution and shows the engine's recovery
// ladder:
//
//   clean          — no injection (the reference result and runtime);
//   straggler      — slowdown injected, no speculation: the job waits the
//                    full delay out;
//   speculation    — slowdown injected, speculation on: a backup execution
//                    wins and the measured total drops well below the
//                    no-speculation run, with results bit-identical to
//                    clean;
//   deadline       — slowdown injected, no speculation, a deadline shorter
//                    than the delay: the run fails fast with
//                    DeadlineExceeded instead of hanging.
//
// The modeled cluster response (mr/cluster_model.h) is printed
// alongside, showing the same recovery in the analytic model the figure
// harnesses use. Its straggler_slowdown parameter is not restated by
// hand: the no-speculation run records a trace (obs/trace.h) and
// FitStragglerSlowdown fits the slowdown from the measured attempt
// durations, so the modeled and measured columns share one source.

#include <cstdio>

#include "bench/bench_util.h"
#include "common/fault.h"
#include "obs/trace.h"

int main() {
  using namespace casm;
  using namespace casm::bench;

  PrintHeader("Straggler recovery",
              "injected 20x-slow map task: speculation + deadlines");
  ClusterConfig cluster;
  const int64_t rows = ScaledRows(200000);
  Workflow wf = MakePaperQuery(PaperQuery::kQ3);
  Table table = PaperUniformTable(rows, 707);

  OptimizerOptions opts;
  opts.num_reducers = cluster.num_reducers;
  opts.num_records = table.num_rows();
  ExecutionPlan plan = OptimizePlan(wf, opts).value();

  ParallelEvalOptions base;
  base.num_mappers = cluster.num_mappers;
  base.num_reducers = cluster.num_reducers;
  // Speculation needs spare workers to overlap the straggler: an injected
  // sleep holds a worker without burning CPU, so a fixed pool well above
  // the core count keeps the experiment meaningful on small machines.
  base.num_threads = 8;

  // ---- clean reference run.
  Result<ParallelEvalResult> clean = EvaluateParallel(wf, table, plan, base);
  CASM_CHECK(clean.ok()) << clean.status().ToString();
  const MapReduceMetrics& clean_metrics = clean.value().metrics;

  // The injected delay: ~20x a healthy map attempt, with a floor that
  // keeps the experiment meaningful at small CASM_BENCH_SCALE.
  const double delay =
      std::max(20.0 * clean_metrics.map_attempt_p50_seconds, 0.5);
  // Slow every attempt of task 0's primary execution, one spec per
  // primary attempt; the speculative backup (attempt > max_task_attempts)
  // runs at full speed.
  FaultPlan slow_primary_map;
  slow_primary_map.set_parent(FaultPlan::FromEnv());
  for (int attempt = 1; attempt <= base.max_task_attempts; ++attempt) {
    slow_primary_map.Add(FaultPlan::TaskSlowdown{
        .phase = "map", .task = 0, .attempt = attempt, .seconds = delay});
  }

  // ---- straggler, no speculation: the tail absorbs the full delay.
  // A locally-enabled recorder traces this run regardless of CASM_TRACE;
  // FitStragglerSlowdown reads the attempt durations off the trace below.
  TraceRecorder no_spec_trace;
  no_spec_trace.set_enabled(true);
  ParallelEvalOptions straggler = base;
  straggler.fault_plan = &slow_primary_map;
  straggler.trace = &no_spec_trace;
  Result<ParallelEvalResult> no_spec =
      EvaluateParallel(wf, table, plan, straggler);
  CASM_CHECK(no_spec.ok()) << no_spec.status().ToString();
  const double fitted_slowdown =
      FitStragglerSlowdown(no_spec_trace.Snapshot());

  // ---- straggler + speculation: a backup execution recovers the tail.
  ParallelEvalOptions speculative = straggler;
  speculative.trace = nullptr;  // back to the CASM_TRACE-global recorder
  speculative.speculative_execution = true;
  speculative.speculation_latency_multiple = 3.0;
  speculative.speculation_min_completed_fraction = 0.5;
  speculative.speculation_min_runtime_seconds = delay / 10;
  Result<ParallelEvalResult> spec =
      EvaluateParallel(wf, table, plan, speculative);
  CASM_CHECK(spec.ok()) << spec.status().ToString();

  // The acceptance bar: the backup won, the tail shrank, and neither the
  // straggler nor the speculative win perturbed the results.
  CASM_CHECK_GE(spec.value().metrics.speculative_wins, 1);
  CASM_CHECK_LT(spec.value().metrics.total_seconds,
                no_spec.value().metrics.total_seconds);
  Status identical =
      CompareResultSets(clean.value().results, no_spec.value().results, 1e-9);
  CASM_CHECK(identical.ok()) << identical.ToString();
  identical =
      CompareResultSets(clean.value().results, spec.value().results, 1e-9);
  CASM_CHECK(identical.ok()) << identical.ToString();

  // ---- deadline shorter than the injected delay: fail fast, not hang.
  ParallelEvalOptions deadlined = straggler;
  deadlined.trace = nullptr;
  deadlined.deadline_seconds = delay / 2;
  Result<ParallelEvalResult> dead =
      EvaluateParallel(wf, table, plan, deadlined);
  CASM_CHECK(!dead.ok());
  CASM_CHECK(dead.status().code() == StatusCode::kDeadlineExceeded)
      << dead.status().ToString();

  std::printf("# injected delay: %.3f s (20x healthy map p50, floor 0.5)\n",
              delay);
  std::printf("%-24s%16s%20s\n", "run", "measured wall s", "speculative wins");
  std::printf("%-24s%16.3f%20lld\n", "clean",
              clean_metrics.total_seconds,
              static_cast<long long>(clean_metrics.speculative_wins));
  std::printf("%-24s%16.3f%20lld\n", "straggler (no spec)",
              no_spec.value().metrics.total_seconds,
              static_cast<long long>(no_spec.value().metrics.speculative_wins));
  std::printf("%-24s%16.3f%20lld\n", "straggler + speculation",
              spec.value().metrics.total_seconds,
              static_cast<long long>(spec.value().metrics.speculative_wins));
  std::printf("%-24s%16s%20s   (%s)\n", "deadline < delay", "failed fast",
              "-", StatusCodeToString(dead.status().code()));

  // Modeled cluster view: one slow node, with and without the scheduler's
  // speculative re-execution. The slowdown is the one fitted from the
  // measured no-speculation trace, not the injected 20x restated by hand.
  std::printf("# fitted straggler_slowdown: %.1fx "
              "(FitStragglerSlowdown over the no-speculation run trace)\n",
              fitted_slowdown);
  ClusterCostParams params = ClusterCostParams::Default();
  params.straggler_slowdown = fitted_slowdown;
  params.speculation_detection_multiple = 3.0;
  const double healthy = ModeledResponseSeconds(
      clean_metrics, cluster.num_mappers, params);
  const double slowed = ModeledStragglerResponseSeconds(
      clean_metrics, cluster.num_mappers, params, /*with_speculation=*/false);
  const double recovered = ModeledStragglerResponseSeconds(
      clean_metrics, cluster.num_mappers, params, /*with_speculation=*/true);
  std::printf("# modeled cluster seconds: healthy=%.1f straggler=%.1f "
              "straggler+speculation=%.1f\n",
              healthy, slowed, recovered);

  JsonRow clean_row{"clean",
                    {{"measured_wall_seconds", clean_metrics.total_seconds},
                     {"speculative_wins",
                      static_cast<double>(clean_metrics.speculative_wins)},
                     {"modeled_seconds", healthy}}};
  AppendAttemptHistogram(clean_metrics, &clean_row);
  JsonRow no_spec_row{
      "straggler_no_speculation",
      {{"measured_wall_seconds", no_spec.value().metrics.total_seconds},
       {"speculative_wins",
        static_cast<double>(no_spec.value().metrics.speculative_wins)},
       {"modeled_seconds", slowed},
       {"fitted_straggler_slowdown", fitted_slowdown}}};
  AppendAttemptHistogram(no_spec.value().metrics, &no_spec_row);
  JsonRow spec_row{
      "straggler_speculation",
      {{"measured_wall_seconds", spec.value().metrics.total_seconds},
       {"speculative_wins",
        static_cast<double>(spec.value().metrics.speculative_wins)},
       {"modeled_seconds", recovered}}};
  AppendAttemptHistogram(spec.value().metrics, &spec_row);
  MaybeWriteJson(
      "fig_straggler",
      {clean_row, no_spec_row, spec_row,
       JsonRow{"deadline_below_delay",
               {{"injected_delay_seconds", delay},
                {"failed_fast", 1.0}}}});
  return 0;
}

// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.
//
// Recovery experiment for the checkpoint subsystem (src/ckpt): the
// multi-job baseline runs one MapReduce job per measure, so a failure in
// job k of a 6-job sequence classically loses the first k-1 completed
// jobs too. With durable per-job checkpoints in the DFS volume, only the
// in-flight job is lost.
//
// The harness builds a six-measure workflow (Q3's two child-aggregation
// chains plus a sliding-window measure on top), then for every job
// boundary k in 1..5:
//
//   kill     — run with checkpointing into a fresh volume and a fault
//              plan hook that fails every task once k jobs have committed;
//              the run dies mid-sequence, leaving k durable entries;
//   resume   — re-run against the same volume: the k committed jobs are
//              restored (fingerprint- and checksum-verified) and only the
//              remaining 6-k execute.
//
// Acceptance (CASM_CHECK, so the binary is self-checking in CI):
// every resumed run restores exactly k jobs, executes exactly 6-k, and
// its results are *bit-identical* (tolerance 0.0) to the clean
// no-checkpoint reference; a final warm run restores all six jobs and
// executes none. The table reports recompute-vs-resume wall time; the
// JSON rows add the checkpoint byte counters.
//
// The checkpoint volume lives under CASM_CHECKPOINT_DIR when set (CI
// uploads its manifests as artifacts), else under the system temp dir.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>

#include "bench/bench_util.h"
#include "ckpt/checkpoint.h"
#include "common/fault.h"
#include "core/multijob_evaluator.h"
#include "measure/workflow.h"

namespace {

using namespace casm;
using namespace casm::bench;

constexpr int kJobs = 6;

Granularity Gran(const SchemaPtr& schema,
                 std::vector<std::pair<std::string, std::string>> parts) {
  Result<Granularity> g = Granularity::Of(*schema, parts);
  CASM_CHECK(g.ok()) << g.status().ToString();
  return std::move(g).value();
}

/// Six measures: Q3's joined child-aggregation chains, topped by a
/// trailing window — one MapReduce job each under EvaluateMultiJob.
Workflow MakeSixJobWorkflow() {
  SchemaPtr schema = PaperSchema();
  WorkflowBuilder b(schema);
  Granularity fine = Gran(schema, {{"D1", "value"}, {"T1", "hour"}});
  Granularity mid = Gran(schema, {{"D1", "tier1"}, {"T1", "day"}});
  Granularity coarse = Gran(schema, {{"D1", "tier2"}, {"T1", "day"}});
  int m1 = b.AddBasic("R.sum", fine, AggregateFn::kSum, "D2");
  int m2 = b.AddBasic("R.count", fine, AggregateFn::kCount, "D2");
  int m3 = b.AddSourceAggregate("R.sum.up", mid, AggregateFn::kSum,
                                {WorkflowBuilder::ChildParent(m1)});
  int m4 = b.AddSourceAggregate("R.count.up", mid, AggregateFn::kSum,
                                {WorkflowBuilder::ChildParent(m2)});
  int m5 = b.AddSourceAggregate("R.avg", coarse, AggregateFn::kAvg,
                                {WorkflowBuilder::ChildParent(m3),
                                 WorkflowBuilder::ChildParent(m4)});
  b.AddSourceAggregate("R.trailing", coarse, AggregateFn::kAvg,
                       {b.Sibling(m5, "T1", -3, 0)});
  Result<Workflow> wf = std::move(b).Build();
  CASM_CHECK(wf.ok()) << wf.status().ToString();
  CASM_CHECK_EQ(wf.value().num_measures(), kJobs);
  return std::move(wf).value();
}

double Seconds(std::chrono::steady_clock::time_point begin) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       begin)
      .count();
}

}  // namespace

int main() {
  PrintHeader("Checkpoint recovery",
              "6-job sequence killed at each boundary: recompute vs resume");
  ClusterConfig cluster;
  const int64_t rows = ScaledRows(60000);
  Workflow wf = MakeSixJobWorkflow();
  Table table = PaperUniformTable(rows, 909);

  ParallelEvalOptions base;
  base.num_mappers = cluster.num_mappers;
  base.num_reducers = cluster.num_reducers;

  // Checkpoint volumes live under CASM_CHECKPOINT_DIR when set (one
  // subdirectory per kill boundary), else under the system temp dir.
  CheckpointOptions env = CheckpointOptionsFromEnv();
  const std::string ckpt_root =
      env.enabled()
          ? env.dir
          : (std::filesystem::temp_directory_path() / "casm_fig_recovery")
                .string();

  // ---- clean reference: no checkpointing; its wall time is the cost of
  // recomputing the whole sequence after a failure.
  auto t0 = std::chrono::steady_clock::now();
  Result<MultiJobResult> clean = EvaluateMultiJob(wf, table, base);
  CASM_CHECK(clean.ok()) << clean.status().ToString();
  const double recompute_seconds = Seconds(t0);
  CASM_CHECK_EQ(clean.value().jobs, kJobs);
  CASM_CHECK_EQ(clean.value().jobs_restored, 0);

  std::printf("%-12s%18s%15s%15s%18s%18s\n", "boundary", "recompute wall s",
              "kill wall s", "resume wall s", "jobs restored",
              "restored bytes");
  std::vector<JsonRow> json_rows;
  JsonRow clean_row{"recompute",
                    {{"wall_seconds", recompute_seconds},
                     {"jobs_executed", static_cast<double>(kJobs)},
                     {"jobs_restored", 0.0}}};
  AppendAttemptHistogram(clean.value().total_metrics, &clean_row);
  json_rows.push_back(clean_row);

  for (int k = 1; k < kJobs; ++k) {
    ParallelEvalOptions opts = base;
    opts.checkpoint.dir = ckpt_root + "/kill_after_" + std::to_string(k);
    std::error_code ec;
    std::filesystem::remove_all(opts.checkpoint.dir, ec);  // fresh volume

    // ---- kill: fail every task once k jobs have committed. The engine
    // runs map task 0's first attempt exactly once per job, so counting
    // those sightings counts completed engine runs.
    auto runs = std::make_shared<std::atomic<int>>(0);
    FaultPlan kill;
    kill.set_parent(FaultPlan::FromEnv());
    kill.AddCrashHook([k, runs](const char* phase, int task,
                                int attempt) -> Status {
      if (std::string_view(phase) == "map" && task == 0 && attempt == 1) {
        runs->fetch_add(1);
      }
      if (runs->load() > k) {
        return Status::Internal("injected kill after " + std::to_string(k) +
                                " jobs");
      }
      return Status::OK();
    });
    ParallelEvalOptions killed = opts;
    killed.fault_plan = &kill;
    t0 = std::chrono::steady_clock::now();
    Result<MultiJobResult> dead = EvaluateMultiJob(wf, table, killed);
    const double kill_seconds = Seconds(t0);
    CASM_CHECK(!dead.ok()) << "kill hook did not kill the sequence";

    // ---- resume: committed jobs restore, the rest recompute.
    t0 = std::chrono::steady_clock::now();
    Result<MultiJobResult> resumed = EvaluateMultiJob(wf, table, opts);
    const double resume_seconds = Seconds(t0);
    CASM_CHECK(resumed.ok()) << resumed.status().ToString();
    CASM_CHECK_EQ(resumed.value().jobs_restored, k);
    CASM_CHECK_EQ(resumed.value().jobs, kJobs - k);
    const MapReduceMetrics& m = resumed.value().total_metrics;
    CASM_CHECK_EQ(m.checkpoint_jobs_restored, k);
    CASM_CHECK_GT(m.checkpoint_bytes_restored, 0);
    Status identical = CompareResultSets(clean.value().results,
                                         resumed.value().results, 0.0);
    CASM_CHECK(identical.ok()) << "resume not bit-identical at boundary " << k
                               << ": " << identical.ToString();

    std::printf("%-12d%18.3f%15.3f%15.3f%18d%18lld\n", k, recompute_seconds,
                kill_seconds, resume_seconds, resumed.value().jobs_restored,
                static_cast<long long>(m.checkpoint_bytes_restored));
    JsonRow row{"kill_after_" + std::to_string(k),
                {{"recompute_wall_seconds", recompute_seconds},
                 {"kill_wall_seconds", kill_seconds},
                 {"resume_wall_seconds", resume_seconds},
                 {"jobs_restored", static_cast<double>(k)},
                 {"jobs_executed", static_cast<double>(kJobs - k)},
                 {"checkpoint_bytes_written",
                  static_cast<double>(m.checkpoint_bytes_written)},
                 {"checkpoint_bytes_restored",
                  static_cast<double>(m.checkpoint_bytes_restored)}}};
    AppendAttemptHistogram(m, &row);
    json_rows.push_back(row);
  }

  // ---- warm restart: the boundary-5 volume now holds all six entries,
  // so a rerun restores everything and executes nothing.
  ParallelEvalOptions warm = base;
  warm.checkpoint.dir = ckpt_root + "/kill_after_" + std::to_string(kJobs - 1);
  t0 = std::chrono::steady_clock::now();
  Result<MultiJobResult> warm_run = EvaluateMultiJob(wf, table, warm);
  const double warm_seconds = Seconds(t0);
  CASM_CHECK(warm_run.ok()) << warm_run.status().ToString();
  CASM_CHECK_EQ(warm_run.value().jobs_restored, kJobs);
  CASM_CHECK_EQ(warm_run.value().jobs, 0);
  CASM_CHECK_EQ(warm_run.value().total_metrics.emitted_pairs, 0);
  Status identical = CompareResultSets(clean.value().results,
                                       warm_run.value().results, 0.0);
  CASM_CHECK(identical.ok()) << identical.ToString();
  std::printf("%-12s%18.3f%15s%15.3f%18d%18lld\n", "warm", recompute_seconds,
              "-", warm_seconds, warm_run.value().jobs_restored,
              static_cast<long long>(
                  warm_run.value().total_metrics.checkpoint_bytes_restored));
  std::printf("# checkpoint volumes under %s\n", ckpt_root.c_str());
  json_rows.push_back(
      JsonRow{"warm_restart",
              {{"recompute_wall_seconds", recompute_seconds},
               {"resume_wall_seconds", warm_seconds},
               {"jobs_restored", static_cast<double>(kJobs)},
               {"jobs_executed", 0.0},
               {"checkpoint_bytes_restored",
                static_cast<double>(
                    warm_run.value().total_metrics.checkpoint_bytes_restored)}}});
  MaybeWriteJson("fig_recovery", json_rows);
  return 0;
}

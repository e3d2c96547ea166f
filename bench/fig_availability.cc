// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.
//
// Availability experiment for the storage fault domains (DESIGN.md §12):
// a checkpointed multi-job evaluation is run on an outage ladder —
// clean, each single node down for the whole run, flaky IO, a mid-run
// outage window, and a kill + resume with a node down — and the harness
// self-checks that every degraded run produces results *bit-identical*
// (tolerance 0.0) to the clean reference. Availability means the answer
// never changes; only the resilience counters (write failovers, IO
// retries, replica repairs) move. A final scenario damages the clean
// run's volume (one deleted replica, one corrupted replica) and measures
// Scrub(): the first pass restores full replication, the follow-up pass
// must report zero under-replicated blocks.
//
// Acceptance (CASM_CHECK, so the binary is self-checking in CI):
//   * clean run: zero failovers, zero IO retries;
//   * every outage scenario: OK status, bit-identical results, nonzero
//     failovers (writes landed off the down node), zero under-replicated
//     blocks (replication target met on the survivors);
//   * resume-under-outage: committed jobs restore from the surviving
//     replicas;
//   * scrub: first pass finds and repairs the planted damage, second
//     pass reports a fully replicated volume.
//
// Checkpoint volumes live under CASM_CHECKPOINT_DIR when set (CI uploads
// the manifests as artifacts), else under the system temp dir.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bench/bench_util.h"
#include "ckpt/checkpoint.h"
#include "common/fault.h"
#include "core/multijob_evaluator.h"
#include "dfs/volume.h"

namespace {

using namespace casm;
using namespace casm::bench;

double Seconds(std::chrono::steady_clock::time_point begin) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       begin)
      .count();
}

ParallelEvalOptions BaseOptions(const ClusterConfig& cluster,
                                const std::string& ckpt_dir) {
  ParallelEvalOptions o;
  o.num_mappers = cluster.num_mappers;
  o.num_reducers = cluster.num_reducers;
  o.checkpoint.dir = ckpt_dir;
  o.checkpoint.volume.block_size_bytes = 1024;  // multi-block entries
  o.checkpoint.volume.io_retry_backoff_initial_ms = 0;
  return o;
}

struct ScenarioOutcome {
  double wall_seconds = 0;
  MultiJobResult result;
};

/// Runs one checkpointed evaluation under `plan`, checks it succeeded
/// with bit-identical results, and returns its metrics.
ScenarioOutcome RunScenario(const char* label, const Workflow& wf,
                            const Table& table,
                            const MeasureResultSet& reference,
                            ParallelEvalOptions opts, const FaultPlan* plan) {
  std::error_code ec;
  std::filesystem::remove_all(opts.checkpoint.dir, ec);  // fresh volume
  opts.fault_plan = plan;
  const auto t0 = std::chrono::steady_clock::now();
  Result<MultiJobResult> run = EvaluateMultiJob(wf, table, opts);
  ScenarioOutcome outcome;
  outcome.wall_seconds = Seconds(t0);
  CASM_CHECK(run.ok()) << label << ": " << run.status().ToString();
  Status identical = CompareResultSets(reference, run.value().results, 0.0);
  CASM_CHECK(identical.ok()) << label << " results differ from clean run: "
                             << identical.ToString();
  outcome.result = std::move(run).value();
  return outcome;
}

void PrintRow(const char* scenario, const ScenarioOutcome& o) {
  const MapReduceMetrics& m = o.result.total_metrics;
  std::printf("%-18s%10.3f%12lld%12lld%10lld%10lld%12lld%10s\n", scenario,
              o.wall_seconds, static_cast<long long>(m.dfs_write_failovers),
              static_cast<long long>(m.dfs_io_retries),
              static_cast<long long>(m.dfs_corrupt_replicas),
              static_cast<long long>(m.dfs_repaired_replicas),
              static_cast<long long>(m.dfs_under_replicated_blocks),
              m.checkpoint_degraded ? "yes" : "no");
}

JsonRow MakeRow(const std::string& label, const ScenarioOutcome& o) {
  const MapReduceMetrics& m = o.result.total_metrics;
  return JsonRow{
      label,
      {{"wall_seconds", o.wall_seconds},
       {"dfs_write_failovers", static_cast<double>(m.dfs_write_failovers)},
       {"dfs_io_retries", static_cast<double>(m.dfs_io_retries)},
       {"dfs_corrupt_replicas", static_cast<double>(m.dfs_corrupt_replicas)},
       {"dfs_repaired_replicas",
        static_cast<double>(m.dfs_repaired_replicas)},
       {"dfs_under_replicated_blocks",
        static_cast<double>(m.dfs_under_replicated_blocks)},
       {"checkpoint_degraded", m.checkpoint_degraded ? 1.0 : 0.0},
       {"jobs_restored", static_cast<double>(o.result.jobs_restored)}}};
}

}  // namespace

int main() {
  PrintHeader("Storage availability",
              "outage ladder: results must stay bit-identical, only the "
              "resilience counters may move");
  ClusterConfig cluster;
  const int64_t rows = ScaledRows(40000);
  Workflow wf = MakePaperQuery(PaperQuery::kQ3);  // five measures, one job each
  Table table = PaperUniformTable(rows, 808);

  CheckpointOptions env = CheckpointOptionsFromEnv();
  const std::string ckpt_root =
      env.enabled()
          ? env.dir
          : (std::filesystem::temp_directory_path() / "casm_fig_availability")
                .string();
  const int num_nodes = DfsVolumeOptions{}.num_nodes;

  std::printf("%-18s%10s%12s%12s%10s%10s%12s%10s\n", "scenario", "wall s",
              "failovers", "io retries", "corrupt", "repaired", "under-repl",
              "degraded");
  std::vector<JsonRow> json_rows;

  // ---- clean reference: no faults; the resilience machinery must be
  // invisible when nothing fails.
  ParallelEvalOptions clean_opts = BaseOptions(cluster, ckpt_root + "/clean");
  std::error_code ec;
  std::filesystem::remove_all(clean_opts.checkpoint.dir, ec);
  const auto t0 = std::chrono::steady_clock::now();
  Result<MultiJobResult> clean = EvaluateMultiJob(wf, table, clean_opts);
  CASM_CHECK(clean.ok()) << clean.status().ToString();
  ScenarioOutcome clean_outcome{Seconds(t0), std::move(clean).value()};
  const MapReduceMetrics& cm = clean_outcome.result.total_metrics;
  CASM_CHECK_EQ(cm.dfs_write_failovers, 0);
  CASM_CHECK_EQ(cm.dfs_io_retries, 0);
  CASM_CHECK_EQ(cm.dfs_under_replicated_blocks, 0);
  CASM_CHECK(!cm.checkpoint_degraded);
  const MeasureResultSet& reference = clean_outcome.result.results;
  PrintRow("clean", clean_outcome);
  json_rows.push_back(MakeRow("clean", clean_outcome));

  // ---- any single node down for the whole run: write failover places
  // every replica on the survivors; the answer is bit-identical.
  for (int node = 0; node < num_nodes; ++node) {
    FaultPlan plan(100 + node);
    FaultPlan::NodeOutage outage;
    outage.node = node;
    plan.Add(outage);
    const std::string label = "node" + std::to_string(node) + "_down";
    ScenarioOutcome o = RunScenario(
        label.c_str(), wf, table, reference,
        BaseOptions(cluster, ckpt_root + "/" + label), &plan);
    const MapReduceMetrics& m = o.result.total_metrics;
    CASM_CHECK_GT(m.dfs_write_failovers, 0) << label;
    CASM_CHECK_EQ(m.dfs_under_replicated_blocks, 0) << label;
    PrintRow(label.c_str(), o);
    json_rows.push_back(MakeRow(label, o));
  }

  // ---- flaky IO: every 6th write and every 9th read fails transiently;
  // bounded retry with backoff absorbs all of it.
  {
    FaultPlan plan(7);
    FaultPlan::IoError write_err;
    write_err.op = "write";
    write_err.every_nth = 6;
    plan.Add(write_err);
    FaultPlan::IoError read_err;
    read_err.op = "read";
    read_err.every_nth = 9;
    plan.Add(read_err);
    ScenarioOutcome o =
        RunScenario("flaky_io", wf, table, reference,
                    BaseOptions(cluster, ckpt_root + "/flaky_io"), &plan);
    CASM_CHECK_GT(o.result.total_metrics.dfs_io_retries, 0);
    PrintRow("flaky_io", o);
    json_rows.push_back(MakeRow("flaky_io", o));
  }

  // ---- mid-run outage: a node drops out after the first few IO
  // operations and never comes back; later writes fail over.
  {
    FaultPlan plan(11);
    FaultPlan::NodeOutage outage;
    outage.node = 1;
    outage.from_io_op = 8;
    plan.Add(outage);
    ScenarioOutcome o = RunScenario(
        "mid_run_outage", wf, table, reference,
        BaseOptions(cluster, ckpt_root + "/mid_run_outage"), &plan);
    CASM_CHECK_GT(o.result.total_metrics.dfs_write_failovers, 0);
    PrintRow("mid_run_outage", o);
    json_rows.push_back(MakeRow("mid_run_outage", o));
  }

  // ---- kill + resume with a node down: commit two jobs, crash, then
  // resume while node 2 is unreachable — the committed jobs restore from
  // the surviving replicas instead of recomputing.
  {
    const std::string dir = ckpt_root + "/kill_resume";
    ParallelEvalOptions kill_opts = BaseOptions(cluster, dir);
    std::filesystem::remove_all(dir, ec);
    auto runs = std::make_shared<std::atomic<int>>(0);
    FaultPlan kill;
    kill.set_parent(FaultPlan::FromEnv());
    kill.AddCrashHook([runs](const char* phase, int task,
                             int attempt) -> Status {
      if (std::string_view(phase) == "map" && task == 0 && attempt == 1) {
        runs->fetch_add(1);
      }
      if (runs->load() > 2) {
        return Status::Internal("injected kill after 2 jobs");
      }
      return Status::OK();
    });
    kill_opts.fault_plan = &kill;
    Result<MultiJobResult> dead = EvaluateMultiJob(wf, table, kill_opts);
    CASM_CHECK(!dead.ok()) << "kill hook did not kill the sequence";

    FaultPlan plan(13);
    FaultPlan::NodeOutage outage;
    outage.node = 2;
    plan.Add(outage);
    ParallelEvalOptions resume_opts = BaseOptions(cluster, dir);
    resume_opts.fault_plan = &plan;
    const auto t1 = std::chrono::steady_clock::now();
    Result<MultiJobResult> resumed = EvaluateMultiJob(wf, table, resume_opts);
    ScenarioOutcome o;
    o.wall_seconds = Seconds(t1);
    CASM_CHECK(resumed.ok()) << resumed.status().ToString();
    CASM_CHECK_EQ(resumed.value().jobs_restored, 2);
    Status identical =
        CompareResultSets(reference, resumed.value().results, 0.0);
    CASM_CHECK(identical.ok()) << "resume under outage not bit-identical: "
                               << identical.ToString();
    o.result = std::move(resumed).value();
    PrintRow("kill_resume", o);
    json_rows.push_back(MakeRow("kill_resume", o));
  }

  // ---- scrub: plant damage in the clean volume (delete one replica of
  // one block, corrupt one replica of another file) and measure the
  // verify + re-replicate pass. The follow-up scrub must see a fully
  // replicated volume again.
  {
    Result<CheckpointLog> log = CheckpointLog::Open(
        clean_opts.checkpoint, FingerprintQuery(wf, table));
    CASM_CHECK(log.ok()) << log.status().ToString();
    const DfsVolume& volume = log.value().volume();
    const std::string root = volume.root();

    // Delete the first on-disk replica found of job 0's entry and flip a
    // byte in one replica of job 1's entry.
    auto damage = [&](const std::string& name, bool corrupt) {
      for (int node = 0; node < num_nodes; ++node) {
        const std::string path = root + "/node" + std::to_string(node) + "/" +
                                 name + ".blk0";
        if (!std::filesystem::exists(path)) continue;
        if (corrupt) {
          std::FILE* f = std::fopen(path.c_str(), "r+b");
          CASM_CHECK(f != nullptr) << path;
          char c = 0;
          CASM_CHECK_EQ(std::fread(&c, 1, 1, f), 1u);
          c = static_cast<char>(c ^ 0x5a);
          std::fseek(f, 0, SEEK_SET);
          CASM_CHECK_EQ(std::fwrite(&c, 1, 1, f), 1u);
          std::fclose(f);
        } else {
          std::filesystem::remove(path);
        }
        return;
      }
      CASM_CHECK(false) << "no replica found for " << name;
    };
    damage(log.value().JobEntryName(0), /*corrupt=*/false);
    damage(log.value().JobEntryName(1), /*corrupt=*/true);

    const auto t1 = std::chrono::steady_clock::now();
    Result<ScrubReport> first = volume.Scrub();
    const double scrub_seconds = Seconds(t1);
    CASM_CHECK(first.ok()) << first.status().ToString();
    CASM_CHECK_GE(first.value().replicas_missing, 1);
    CASM_CHECK_GE(first.value().replicas_corrupt, 1);
    CASM_CHECK_GE(first.value().replicas_rewritten, 2);
    CASM_CHECK_EQ(first.value().unrecoverable_blocks, 0);

    Result<ScrubReport> second = volume.Scrub();
    CASM_CHECK(second.ok()) << second.status().ToString();
    CASM_CHECK_EQ(second.value().under_replicated_blocks, 0);
    CASM_CHECK_EQ(second.value().replicas_missing, 0);
    CASM_CHECK_EQ(second.value().replicas_corrupt, 0);

    std::printf("%-18s%10.3f  %s\n", "scrub", scrub_seconds,
                first.value().ToString().c_str());
    json_rows.push_back(JsonRow{
        "scrub",
        {{"wall_seconds", scrub_seconds},
         {"files_scanned", static_cast<double>(first.value().files_scanned)},
         {"blocks_checked",
          static_cast<double>(first.value().blocks_checked)},
         {"replicas_missing",
          static_cast<double>(first.value().replicas_missing)},
         {"replicas_corrupt",
          static_cast<double>(first.value().replicas_corrupt)},
         {"replicas_rewritten",
          static_cast<double>(first.value().replicas_rewritten)},
         {"under_replicated_blocks",
          static_cast<double>(first.value().under_replicated_blocks)}}});
  }

  std::printf("# checkpoint volumes under %s\n", ckpt_root.c_str());
  MaybeWriteJson("fig_availability", json_rows);
  return 0;
}

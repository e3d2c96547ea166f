// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.
//
// Randomized (but seeded and reproducible) chaos: each iteration derives
// a multi-domain FaultPlan — task crashes, slowdowns, record throttles,
// IO errors, silent block corruption, a node outage window — from one
// seed and runs a checkpointed multi-job evaluation under a tight memory
// budget. The invariant is absolute: every run either fails cleanly with
// a Status or produces results bit-identical to the fault-free reference.
// Anything else (crash, hang, silently wrong numbers) is a bug. The seed
// is attached to every assertion so failures replay exactly.
//
// CASM_CHAOS_SEEDS=3,17,99 overrides the built-in seed ladder (the CI
// chaos-smoke job runs a fixed matrix through this hook).

#include <cstdint>
#include <cstdlib>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "core/multijob_evaluator.h"
#include "core/parallel_evaluator.h"
#include "queries/paper_data.h"
#include "queries/paper_queries.h"
#include "scoped_test_dir.h"

namespace casm {
namespace {

std::vector<uint64_t> ChaosSeeds() {
  const char* env = std::getenv("CASM_CHAOS_SEEDS");
  if (env == nullptr || *env == '\0') return {11, 23, 37, 41, 53, 67};
  std::vector<uint64_t> seeds;
  std::stringstream ss(env);
  std::string token;
  while (std::getline(ss, token, ',')) {
    if (!token.empty()) {
      seeds.push_back(std::strtoull(token.c_str(), nullptr, 10));
    }
  }
  return seeds;
}

/// Derives a multi-domain fault mix from `seed`. Probabilities are kept
/// in a band where both outcomes of the invariant actually occur across
/// the seed ladder: most runs limp through on retries, failover, and
/// repair; some exhaust a retry budget and fail with a Status.
FaultPlan MakeChaosPlan(uint64_t seed) {
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull + 0x5851f42d4c957f2dull);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  FaultPlan plan(seed);

  FaultPlan::TaskCrash crash;
  crash.phase = (rng() & 1) ? "map" : "reduce";
  crash.probability = 0.02 + 0.10 * unit(rng);
  plan.Add(crash);

  FaultPlan::TaskSlowdown slow;
  slow.phase = "map";
  slow.task = static_cast<int>(rng() % 3);
  slow.seconds = 0.005 + 0.02 * unit(rng);
  plan.Add(slow);

  FaultPlan::RecordThrottle throttle;
  throttle.phase = "reduce";
  throttle.task = static_cast<int>(rng() % 4);
  throttle.seconds_per_record = 1e-5 * unit(rng);
  plan.Add(throttle);

  FaultPlan::IoError flaky;
  flaky.probability = 0.01 + 0.07 * unit(rng);
  plan.Add(flaky);

  FaultPlan::IoError nth;
  nth.op = (rng() & 1) ? "read" : "write";
  nth.every_nth = static_cast<int64_t>(5 + rng() % 12);
  plan.Add(nth);

  FaultPlan::BlockCorruption rot;
  rot.probability = 0.03 + 0.10 * unit(rng);
  plan.Add(rot);

  FaultPlan::NodeOutage outage;
  outage.node = static_cast<int>(rng() % 3);
  outage.from_io_op = static_cast<int64_t>(rng() % 24);
  outage.to_io_op = outage.from_io_op + 8 + static_cast<int64_t>(rng() % 48);
  plan.Add(outage);

  return plan;
}

/// Chaos evaluation options: tight memory everywhere (external sort,
/// map-side spills, engine byte budget), a checkpoint volume so the DFS
/// fault domains are on the hot path, and a retry budget generous enough
/// that probabilistic crashes usually — not always — recover.
ParallelEvalOptions ChaosOpts(const std::string& ckpt_dir) {
  ParallelEvalOptions o;
  o.num_mappers = 3;
  o.num_reducers = 4;
  o.num_threads = 2;
  o.max_task_attempts = 4;
  o.reducer_memory_limit_pairs = 64;        // force external sorts
  o.emitter_spill_threshold_bytes = 1024;   // force map-side spills
  o.memory_budget_bytes = 8 << 20;
  o.retry_backoff_initial_ms = 1;
  o.retry_backoff_max_ms = 8;
  o.checkpoint.dir = ckpt_dir;
  o.checkpoint.volume.block_size_bytes = 256;  // multi-block entries
  o.checkpoint.volume.io_retry_backoff_initial_ms = 0;
  return o;
}

TEST(ChaosTest, MultiDomainChaosFailsCleanlyOrMatchesReferenceExactly) {
  Workflow wf = MakePaperQuery(PaperQuery::kQ3);  // five measures
  Table table = PaperUniformTable(800, 131);

  Result<MultiJobResult> reference =
      EvaluateMultiJob(wf, table, ChaosOpts(""));
  ASSERT_TRUE(reference.ok()) << reference.status();

  int clean_failures = 0;
  int exact_successes = 0;
  int64_t total_faults = 0;
  for (uint64_t seed : ChaosSeeds()) {
    SCOPED_TRACE("chaos seed=" + std::to_string(seed) +
                 " (replay: CASM_CHAOS_SEEDS=" + std::to_string(seed) + ")");
    FaultPlan plan = MakeChaosPlan(seed);
    const ScopedTestDir dir("seed" + std::to_string(seed));
    ParallelEvalOptions opts = ChaosOpts(dir.path());
    opts.fault_plan = &plan;

    Result<MultiJobResult> run = EvaluateMultiJob(wf, table, opts);
    if (!run.ok()) {
      // A clean, explanatory failure is an acceptable outcome.
      EXPECT_FALSE(run.status().ToString().empty());
      ++clean_failures;
    } else {
      Status match = CompareResultSets(reference->results, run->results, 0.0);
      EXPECT_TRUE(match.ok()) << "silent wrong answer: " << match.ToString();
      ++exact_successes;
    }
    total_faults += plan.faults_injected();
  }
  // The ladder must actually have injected chaos, or it proves nothing.
  EXPECT_GT(total_faults, 0);
  RecordProperty("chaos_clean_failures", clean_failures);
  RecordProperty("chaos_exact_successes", exact_successes);
}

TEST(ChaosTest, PermanentSingleNodeOutageNeverChangesResults) {
  Workflow wf = MakePaperQuery(PaperQuery::kQ2);
  Table table = PaperUniformTable(600, 151);

  Result<MultiJobResult> reference =
      EvaluateMultiJob(wf, table, ChaosOpts(""));
  ASSERT_TRUE(reference.ok()) << reference.status();

  // Any single node down for the whole run: write failover keeps every
  // block replicated on the surviving nodes and the query must succeed
  // with bit-identical results — degraded availability, never wrongness.
  for (int node = 0; node < 4; ++node) {
    SCOPED_TRACE("node " + std::to_string(node) + " down");
    FaultPlan plan(1000 + node);
    FaultPlan::NodeOutage outage;
    outage.node = node;
    plan.Add(outage);
    const ScopedTestDir dir("outage" + std::to_string(node));
    ParallelEvalOptions opts = ChaosOpts(dir.path());
    opts.fault_plan = &plan;

    Result<MultiJobResult> run = EvaluateMultiJob(wf, table, opts);
    ASSERT_TRUE(run.ok()) << run.status();
    EXPECT_TRUE(CompareResultSets(reference->results, run->results, 0.0).ok());
    EXPECT_GT(run->total_metrics.dfs_write_failovers, 0);
  }
}

}  // namespace
}  // namespace casm

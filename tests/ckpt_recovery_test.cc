// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.
//
// Tests for the checkpoint & recovery subsystem: the canonical record
// codec, the fingerprint-stamped checkpoint log, and end-to-end resume —
// a multi-job evaluation killed between jobs k and k+1 re-runs restoring
// jobs 1..k from the DFS volume with bit-identical results, while any
// corruption (torn manifest, bad block, stale fingerprint) degrades to
// recompute with a clean OK status. Also pins the metrics-honesty rule:
// restored jobs appear only in the checkpoint_* counters, never in the
// attempt histograms.

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/checkpoint.h"
#include "common/fault.h"
#include "core/key_derivation.h"
#include "core/multijob_evaluator.h"
#include "core/parallel_evaluator.h"
#include "io/record_codec.h"
#include "mr/engine.h"
#include "obs/trace.h"
#include "queries/paper_data.h"
#include "queries/paper_queries.h"
#include "scoped_test_dir.h"

namespace casm {
namespace {

namespace fs = std::filesystem;

ParallelEvalOptions EvalOpts(const std::string& ckpt_dir = "") {
  ParallelEvalOptions o;
  o.num_mappers = 3;
  o.num_reducers = 4;
  o.num_threads = 2;
  o.checkpoint.dir = ckpt_dir;
  o.checkpoint.volume.block_size_bytes = 256;  // multi-block entries
  return o;
}

/// Fails every task attempt once `completed_jobs` engine runs have gone
/// by — each job runs map task 0's first attempt exactly once, so this
/// kills the sequence at the job boundary after `completed_jobs` jobs.
FaultPlan::TaskStatusHook KillAfterJobs(
    int completed_jobs, std::shared_ptr<std::atomic<int>> runs) {
  return [completed_jobs, runs](const char* phase, int task,
                                int attempt) -> Status {
    if (std::string_view(phase) == "map" && task == 0 && attempt == 1) {
      runs->fetch_add(1);
    }
    if (runs->load() > completed_jobs) {
      return Status::Internal("injected mid-sequence fault");
    }
    return Status::OK();
  };
}

void FlipByte(const std::string& path, int64_t offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good()) << path;
  f.seekg(offset);
  char c = 0;
  f.read(&c, 1);
  c = static_cast<char>(c ^ 0x5a);
  f.seekp(offset);
  f.write(&c, 1);
}

/// Corrupts every on-disk replica of `name`'s blocks in the checkpoint
/// volume rooted at `dir` (so no replica fallback can save the read).
void CorruptAllReplicas(const std::string& dir, const std::string& name) {
  int corrupted = 0;
  std::error_code ec;
  for (const auto& node : fs::directory_iterator(dir, ec)) {
    if (!node.is_directory()) continue;
    for (const auto& entry : fs::directory_iterator(node.path(), ec)) {
      const std::string file = entry.path().filename().string();
      if (file.rfind(name + ".blk", 0) == 0) {
        FlipByte(entry.path().string(), 3);
        ++corrupted;
      }
    }
  }
  ASSERT_GT(corrupted, 0) << "no blocks found for " << name;
}

// ---------------------------------------------------------------- codec

TEST(RecordCodecTest, ValueMapRoundtripIsCanonical) {
  MeasureValueMap a;
  a[{1, 2, 3}] = 1.5;
  a[{0, 0, 0}] = -2.25;
  a[{7, 0, 4}] = 1e300;
  // Same content, different insertion order: identical bytes.
  MeasureValueMap b;
  b[{7, 0, 4}] = 1e300;
  b[{0, 0, 0}] = -2.25;
  b[{1, 2, 3}] = 1.5;
  const std::string bytes = EncodeMeasureValues(a);
  EXPECT_EQ(bytes, EncodeMeasureValues(b));

  Result<MeasureValueMap> decoded = DecodeMeasureValues(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded.value(), a);
}

TEST(RecordCodecTest, EmptyMapRoundtrip) {
  Result<MeasureValueMap> decoded =
      DecodeMeasureValues(EncodeMeasureValues(MeasureValueMap{}));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded.value().empty());
}

TEST(RecordCodecTest, DecodeRejectsDamage) {
  MeasureValueMap m;
  m[{4, 2}] = 3.5;
  m[{1, 9}] = -1.0;
  const std::string bytes = EncodeMeasureValues(m);
  // Truncations at every prefix length must fail, not crash.
  for (size_t n = 0; n < bytes.size(); ++n) {
    EXPECT_FALSE(DecodeMeasureValues(bytes.substr(0, n)).ok()) << n;
  }
  std::string bad_magic = bytes;
  bad_magic[0] = 'X';
  EXPECT_FALSE(DecodeMeasureValues(bad_magic).ok());
  EXPECT_FALSE(DecodeMeasureValues(bytes + "x").ok());
}

TEST(RecordCodecTest, ResultSetRoundtrip) {
  MeasureResultSet set(3);
  set.mutable_values(0)[{1}] = 2.0;
  set.mutable_values(0)[{2}] = 4.0;
  // Measure 1 left empty on purpose.
  set.mutable_values(2)[{5, 6}] = -8.5;
  Result<MeasureResultSet> decoded =
      DecodeMeasureResultSet(EncodeMeasureResultSet(set));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ASSERT_EQ(decoded->num_measures(), 3);
  EXPECT_TRUE(CompareResultSets(set, decoded.value(), 0.0).ok());
}

// ----------------------------------------------------------- fingerprints

TEST(FingerprintTest, StableAndDiscriminating) {
  Workflow q3a = MakePaperQuery(PaperQuery::kQ3);
  Workflow q3b = MakePaperQuery(PaperQuery::kQ3);
  Workflow q4 = MakePaperQuery(PaperQuery::kQ4);
  EXPECT_EQ(FingerprintWorkflow(q3a), FingerprintWorkflow(q3b));
  EXPECT_NE(FingerprintWorkflow(q3a), FingerprintWorkflow(q4));

  Table t1 = PaperUniformTable(500, 1);
  Table t1b = PaperUniformTable(500, 1);
  Table t2 = PaperUniformTable(500, 2);
  EXPECT_EQ(FingerprintTable(t1), FingerprintTable(t1b));
  EXPECT_NE(FingerprintTable(t1), FingerprintTable(t2));
  EXPECT_NE(FingerprintQuery(q3a, t1), FingerprintQuery(q4, t1));
  EXPECT_NE(FingerprintQuery(q3a, t1), FingerprintQuery(q3a, t2));
}

// --------------------------------------------------------- checkpoint log

TEST(CheckpointLogTest, CommitRestoreRoundtrip) {
  CheckpointOptions options;
  const ScopedTestDir dir("log");
  options.dir = dir.path();
  options.volume.block_size_bytes = 128;
  Result<CheckpointLog> log = CheckpointLog::Open(options, 0xfeed);
  ASSERT_TRUE(log.ok()) << log.status();

  EXPECT_EQ(log->TryRestoreJob(0, "m0").status().code(),
            StatusCode::kNotFound);

  MeasureValueMap values;
  for (int64_t i = 0; i < 100; ++i) values[{i, i * 3}] = 0.5 * i;
  Result<int64_t> bytes = log->CommitJob(0, "m0", values);
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  EXPECT_GT(bytes.value(), 0);

  int64_t restored_bytes = 0;
  Result<MeasureValueMap> restored = log->TryRestoreJob(0, "m0",
                                                        &restored_bytes);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored.value(), values);
  EXPECT_EQ(restored_bytes, bytes.value());

  // A label mismatch (the job order changed under the same fingerprint)
  // is a verification failure, not a missing entry.
  Status wrong_label = log->TryRestoreJob(0, "other").status();
  EXPECT_FALSE(wrong_label.ok());
  EXPECT_NE(wrong_label.code(), StatusCode::kNotFound);
}

TEST(CheckpointLogTest, EntriesAreScopedByFingerprint) {
  CheckpointOptions options;
  const ScopedTestDir dir("scoped");
  options.dir = dir.path();
  Result<CheckpointLog> log_a = CheckpointLog::Open(options, 0xa);
  Result<CheckpointLog> log_b = CheckpointLog::Open(options, 0xb);
  ASSERT_TRUE(log_a.ok() && log_b.ok());
  MeasureValueMap values{{{1}, 2.0}};
  ASSERT_TRUE(log_a->CommitJob(0, "m", values).ok());
  // A different query's log shares the volume but sees no entry.
  EXPECT_EQ(log_b->TryRestoreJob(0, "m").status().code(),
            StatusCode::kNotFound);
  EXPECT_TRUE(log_a->TryRestoreJob(0, "m").ok());
}

TEST(CheckpointLogTest, OverwriteModeDiscardsCommittedEntries) {
  CheckpointOptions options;
  const ScopedTestDir dir("overwrite");
  options.dir = dir.path();
  Result<CheckpointLog> log = CheckpointLog::Open(options, 0xc0de);
  ASSERT_TRUE(log.ok());
  MeasureValueMap values{{{9}, 9.0}};
  ASSERT_TRUE(log->CommitJob(0, "m", values).ok());

  options.mode = CheckpointMode::kOverwrite;
  Result<CheckpointLog> fresh = CheckpointLog::Open(options, 0xc0de);
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  EXPECT_EQ(fresh->TryRestoreJob(0, "m").status().code(),
            StatusCode::kNotFound);
}

// --------------------------------------------------- end-to-end recovery

TEST(CkptRecoveryTest, ResumesAfterMidSequenceFaultBitIdentical) {
  Workflow wf = MakePaperQuery(PaperQuery::kQ3);  // five measures
  Table table = PaperUniformTable(1500, 77);
  const ScopedTestDir test_dir("resume");
  const std::string& dir = test_dir.path();

  // Reference: one uninterrupted run without checkpointing.
  Result<MultiJobResult> clean = EvaluateMultiJob(wf, table, EvalOpts());
  ASSERT_TRUE(clean.ok()) << clean.status();

  // Run 1: killed at the boundary after two completed jobs.
  const int kCompleted = 2;
  ParallelEvalOptions crash_opts = EvalOpts(dir);
  FaultPlan kill;
  kill.set_parent(FaultPlan::FromEnv());
  kill.AddCrashHook(
      KillAfterJobs(kCompleted, std::make_shared<std::atomic<int>>(0)));
  crash_opts.fault_plan = &kill;
  Result<MultiJobResult> crashed = EvaluateMultiJob(wf, table, crash_opts);
  ASSERT_FALSE(crashed.ok());
  EXPECT_NE(crashed.status().message().find("injected"), std::string::npos)
      << crashed.status();

  // Run 2: same checkpoint directory, fault gone. The two committed jobs
  // are restored, the rest recomputed, and the answer is bit-identical
  // to the uninterrupted run.
  Result<MultiJobResult> resumed = EvaluateMultiJob(wf, table, EvalOpts(dir));
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ(resumed->jobs_restored, kCompleted);
  EXPECT_EQ(resumed->jobs, wf.num_measures() - kCompleted);
  EXPECT_EQ(resumed->total_metrics.checkpoint_jobs_restored, kCompleted);
  EXPECT_GT(resumed->total_metrics.checkpoint_bytes_restored, 0);
  Status match = CompareResultSets(clean->results, resumed->results, 0.0);
  EXPECT_TRUE(match.ok()) << match.ToString();
}

TEST(CkptRecoveryTest, FullyCheckpointedRunKeepsMetricsHonest) {
  Workflow wf = MakePaperQuery(PaperQuery::kQ3);
  Table table = PaperUniformTable(1200, 5);
  const ScopedTestDir test_dir("honest");
  const std::string& dir = test_dir.path();

  Result<MultiJobResult> first = EvaluateMultiJob(wf, table, EvalOpts(dir));
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(first->jobs, wf.num_measures());
  EXPECT_EQ(first->jobs_restored, 0);
  EXPECT_GT(first->total_metrics.checkpoint_bytes_written, 0);

  Result<MultiJobResult> second = EvaluateMultiJob(wf, table, EvalOpts(dir));
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second->jobs, 0);
  EXPECT_EQ(second->jobs_restored, wf.num_measures());
  // Metrics honesty (no zero-filled ghosts): a fully restored run ran no
  // tasks, so the attempt digests and shuffle counters stay empty — the
  // work is visible only through the checkpoint_* counters.
  EXPECT_EQ(second->total_metrics.emitted_pairs, 0);
  EXPECT_EQ(second->total_metrics.map_attempt_digest.count(), 0);
  EXPECT_EQ(second->total_metrics.reduce_attempt_digest.count(), 0);
  EXPECT_EQ(second->total_metrics.checkpoint_jobs_restored,
            wf.num_measures());
  Status match = CompareResultSets(first->results, second->results, 0.0);
  EXPECT_TRUE(match.ok()) << match.ToString();
}

TEST(CkptRecoveryTest, CorruptedEntryDegradesToRecompute) {
  Workflow wf = MakePaperQuery(PaperQuery::kQ3);
  Table table = PaperUniformTable(1200, 9);
  const ScopedTestDir test_dir("corrupt");
  const std::string& dir = test_dir.path();

  Result<MultiJobResult> first = EvaluateMultiJob(wf, table, EvalOpts(dir));
  ASSERT_TRUE(first.ok()) << first.status();

  // Corrupt every replica of the last job's entry: restore must fail
  // verification and fall back to recomputing that job — cleanly.
  Result<CheckpointLog> log = CheckpointLog::Open(
      EvalOpts(dir).checkpoint, FingerprintQuery(wf, table));
  ASSERT_TRUE(log.ok());
  const int last = wf.num_measures() - 1;
  CorruptAllReplicas(dir, log->JobEntryName(last));

  Result<MultiJobResult> resumed = EvaluateMultiJob(wf, table, EvalOpts(dir));
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ(resumed->jobs_restored, wf.num_measures() - 1);
  EXPECT_EQ(resumed->jobs, 1);
  Status match = CompareResultSets(first->results, resumed->results, 0.0);
  EXPECT_TRUE(match.ok()) << match.ToString();
}

TEST(CkptRecoveryTest, TornManifestDegradesToRecompute) {
  Workflow wf = MakePaperQuery(PaperQuery::kQ3);
  Table table = PaperUniformTable(1200, 13);
  const ScopedTestDir test_dir("torn");
  const std::string& dir = test_dir.path();

  ASSERT_TRUE(EvaluateMultiJob(wf, table, EvalOpts(dir)).ok());
  Result<CheckpointLog> log = CheckpointLog::Open(
      EvalOpts(dir).checkpoint, FingerprintQuery(wf, table));
  ASSERT_TRUE(log.ok());
  const std::string manifest = dir + "/" + log->JobEntryName(0) + ".manifest";
  ASSERT_TRUE(fs::exists(manifest));
  fs::resize_file(manifest, fs::file_size(manifest) / 2);

  Result<MultiJobResult> resumed = EvaluateMultiJob(wf, table, EvalOpts(dir));
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ(resumed->jobs_restored, wf.num_measures() - 1);
  EXPECT_EQ(resumed->jobs, 1);
}

TEST(CkptRecoveryTest, ChangedInputInvalidatesOldEntries) {
  Workflow wf = MakePaperQuery(PaperQuery::kQ3);
  const ScopedTestDir test_dir("stale");
  const std::string& dir = test_dir.path();
  Table table_a = PaperUniformTable(1000, 21);
  Table table_b = PaperUniformTable(1000, 22);

  ASSERT_TRUE(EvaluateMultiJob(wf, table_a, EvalOpts(dir)).ok());
  // Same directory, different data: nothing restored, fresh results.
  Result<MultiJobResult> b = EvaluateMultiJob(wf, table_b, EvalOpts(dir));
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_EQ(b->jobs_restored, 0);
  EXPECT_EQ(b->jobs, wf.num_measures());
  Result<MultiJobResult> b_clean = EvaluateMultiJob(wf, table_b, EvalOpts());
  ASSERT_TRUE(b_clean.ok());
  EXPECT_TRUE(CompareResultSets(b_clean->results, b->results, 0.0).ok());
}

TEST(CkptRecoveryTest, RestoredJobsFinishUnderExhaustedDeadline) {
  Workflow wf = MakePaperQuery(PaperQuery::kQ2);
  Table table = PaperUniformTable(800, 31);
  const ScopedTestDir test_dir("deadline");
  const std::string& dir = test_dir.path();
  ASSERT_TRUE(EvaluateMultiJob(wf, table, EvalOpts(dir)).ok());

  // With every job committed, a resumed run does no compute — it must
  // succeed even under a deadline that could never fit a single job.
  ParallelEvalOptions opts = EvalOpts(dir);
  opts.deadline_seconds = 1e-6;
  Result<MultiJobResult> resumed = EvaluateMultiJob(wf, table, opts);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ(resumed->jobs_restored, wf.num_measures());
}

TEST(CkptRecoveryTest, RestoreAndWriteEmitTraceSpans) {
  Workflow wf = MakePaperQuery(PaperQuery::kQ2);
  Table table = PaperUniformTable(800, 41);
  const ScopedTestDir test_dir("spans");
  const std::string& dir = test_dir.path();

  TraceRecorder recorder;
  recorder.set_enabled(true);
  ParallelEvalOptions opts = EvalOpts(dir);
  opts.trace = &recorder;
  ASSERT_TRUE(EvaluateMultiJob(wf, table, opts).ok());
  ASSERT_TRUE(EvaluateMultiJob(wf, table, opts).ok());

  int writes = 0, restores = 0;
  for (const TraceEvent& ev : recorder.Snapshot()) {
    if (std::string(ev.category) != "ckpt") continue;
    EXPECT_GE(ev.job, 0);
    if (ev.name.rfind("ckpt-write", 0) == 0) ++writes;
    if (ev.name.rfind("ckpt-restore", 0) == 0 &&
        ev.outcome == TraceOutcome::kOk) {
      ++restores;
    }
  }
  EXPECT_EQ(writes, wf.num_measures());
  EXPECT_EQ(restores, wf.num_measures());
}

TEST(CkptRecoveryTest, SinglePassEvaluatorCheckpointsWholeResult) {
  Workflow wf = MakePaperQuery(PaperQuery::kQ3);
  Table table = PaperUniformTable(1200, 55);
  const ScopedTestDir test_dir("singlepass");
  const std::string& dir = test_dir.path();
  ExecutionPlan plan;
  plan.key = DeriveDistributionKeys(wf).query_key;

  Result<ParallelEvalResult> first =
      EvaluateParallel(wf, table, plan, EvalOpts(dir));
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_GT(first->metrics.checkpoint_bytes_written, 0);
  EXPECT_EQ(first->metrics.checkpoint_jobs_restored, 0);

  Result<ParallelEvalResult> second =
      EvaluateParallel(wf, table, plan, EvalOpts(dir));
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second->metrics.checkpoint_jobs_restored, 1);
  EXPECT_GT(second->metrics.checkpoint_bytes_restored, 0);
  EXPECT_EQ(second->metrics.emitted_pairs, 0);
  Status match = CompareResultSets(first->results, second->results, 0.0);
  EXPECT_TRUE(match.ok()) << match.ToString();
}

TEST(CkptRecoveryTest, DisabledByDefaultLeavesNoTrace) {
  Workflow wf = MakePaperQuery(PaperQuery::kQ2);
  Table table = PaperUniformTable(500, 61);
  Result<MultiJobResult> result = EvaluateMultiJob(wf, table, EvalOpts());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->jobs_restored, 0);
  EXPECT_EQ(result->total_metrics.checkpoint_bytes_written, 0);
  EXPECT_EQ(result->total_metrics.checkpoint_bytes_restored, 0);
}

// -------------------------------------------------------------- breaker

TEST(CheckpointBreakerTest, OpensAfterThresholdAndProbesHalfOpen) {
  CheckpointBreaker breaker(/*failure_threshold=*/2, /*probe_seconds=*/0.05);
  EXPECT_TRUE(breaker.ShouldAttempt());
  breaker.RecordFailure();
  EXPECT_FALSE(breaker.open());
  EXPECT_TRUE(breaker.ShouldAttempt());
  breaker.RecordFailure();
  EXPECT_TRUE(breaker.open());  // threshold reached
  EXPECT_TRUE(breaker.degraded());

  // While open and before the probe interval: commits are skipped.
  EXPECT_FALSE(breaker.ShouldAttempt());
  EXPECT_EQ(breaker.commits_skipped(), 1);

  // After the interval, one half-open probe goes through; success closes.
  std::this_thread::sleep_for(std::chrono::milliseconds(70));
  EXPECT_TRUE(breaker.ShouldAttempt());
  breaker.RecordSuccess();
  EXPECT_FALSE(breaker.open());
  EXPECT_TRUE(breaker.ShouldAttempt());
  EXPECT_EQ(breaker.consecutive_failures(), 0);
  EXPECT_EQ(breaker.commits_failed(), 2);
}

TEST(CheckpointBreakerTest, SuccessBeforeThresholdResetsTheCount) {
  CheckpointBreaker breaker(/*failure_threshold=*/3, /*probe_seconds=*/60);
  breaker.RecordFailure();
  breaker.RecordFailure();
  breaker.RecordSuccess();
  breaker.RecordFailure();
  breaker.RecordFailure();
  EXPECT_FALSE(breaker.open());  // never 3 consecutive
  EXPECT_TRUE(breaker.degraded());
}

TEST(CkptRecoveryTest, FailingCheckpointStoreDegradesNeverFailsTheQuery) {
  Workflow wf = MakePaperQuery(PaperQuery::kQ3);  // five measures
  Table table = PaperUniformTable(1200, 71);
  const ScopedTestDir test_dir("breaker");
  const std::string& dir = test_dir.path();

  Result<MultiJobResult> clean = EvaluateMultiJob(wf, table, EvalOpts());
  ASSERT_TRUE(clean.ok()) << clean.status();

  // Every DFS replica write fails: all commits fail, the breaker opens
  // after two, and the rest are skipped — but the query completes with
  // bit-identical results.
  FaultPlan dead_store(3);
  FaultPlan::IoError spec;
  spec.op = "write";
  spec.probability = 1.0;
  dead_store.Add(spec);

  ParallelEvalOptions opts = EvalOpts(dir);
  opts.fault_plan = &dead_store;
  opts.checkpoint.breaker_failure_threshold = 2;
  opts.checkpoint.breaker_probe_seconds = 60;  // no probe within the test
  opts.checkpoint.volume.io_retry_backoff_initial_ms = 0;
  Result<MultiJobResult> degraded = EvaluateMultiJob(wf, table, opts);
  ASSERT_TRUE(degraded.ok()) << degraded.status();
  EXPECT_TRUE(degraded->total_metrics.checkpoint_degraded);
  EXPECT_EQ(degraded->total_metrics.checkpoint_commit_failures, 2);
  EXPECT_EQ(degraded->total_metrics.checkpoint_commits_skipped,
            wf.num_measures() - 2);
  EXPECT_EQ(degraded->total_metrics.checkpoint_bytes_written, 0);
  EXPECT_GT(degraded->total_metrics.dfs_io_retries, 0);
  Status match = CompareResultSets(clean->results, degraded->results, 0.0);
  EXPECT_TRUE(match.ok()) << match.ToString();

  // Nothing durable was promised: a re-run restores nothing.
  ParallelEvalOptions retry = EvalOpts(dir);
  Result<MultiJobResult> rerun = EvaluateMultiJob(wf, table, retry);
  ASSERT_TRUE(rerun.ok()) << rerun.status();
  EXPECT_EQ(rerun->jobs_restored, 0);
}

TEST(CkptRecoveryTest, RestoreFailuresAreCountedNotFatal) {
  Workflow wf = MakePaperQuery(PaperQuery::kQ3);
  Table table = PaperUniformTable(1200, 81);
  const ScopedTestDir test_dir("restorecount");
  const std::string& dir = test_dir.path();

  ASSERT_TRUE(EvaluateMultiJob(wf, table, EvalOpts(dir)).ok());
  Result<CheckpointLog> log = CheckpointLog::Open(
      EvalOpts(dir).checkpoint, FingerprintQuery(wf, table));
  ASSERT_TRUE(log.ok());
  CorruptAllReplicas(dir, log->JobEntryName(1));

  Result<MultiJobResult> resumed = EvaluateMultiJob(wf, table, EvalOpts(dir));
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ(resumed->total_metrics.checkpoint_restore_failures, 1);
  EXPECT_EQ(resumed->jobs, 1);                      // recomputed job 1
  EXPECT_GT(resumed->total_metrics.dfs_corrupt_replicas, 0);
  // The recomputed job was re-committed, so the run is not degraded.
  EXPECT_FALSE(resumed->total_metrics.checkpoint_degraded);
}

TEST(CkptRecoveryTest, SinglePassCommitFailureDegradesNotFails) {
  Workflow wf = MakePaperQuery(PaperQuery::kQ2);
  Table table = PaperUniformTable(800, 91);
  const ScopedTestDir test_dir("singlepassdegraded");
  const std::string& dir = test_dir.path();
  ExecutionPlan plan;
  plan.key = DeriveDistributionKeys(wf).query_key;

  Result<ParallelEvalResult> clean =
      EvaluateParallel(wf, table, plan, EvalOpts());
  ASSERT_TRUE(clean.ok()) << clean.status();

  FaultPlan dead_store(5);
  FaultPlan::IoError spec;
  spec.op = "write";
  spec.probability = 1.0;
  dead_store.Add(spec);
  ParallelEvalOptions opts = EvalOpts(dir);
  opts.fault_plan = &dead_store;
  opts.checkpoint.volume.io_retry_backoff_initial_ms = 0;
  Result<ParallelEvalResult> degraded =
      EvaluateParallel(wf, table, plan, opts);
  ASSERT_TRUE(degraded.ok()) << degraded.status();
  EXPECT_TRUE(degraded->metrics.checkpoint_degraded);
  EXPECT_EQ(degraded->metrics.checkpoint_commit_failures, 1);
  EXPECT_EQ(degraded->metrics.checkpoint_bytes_written, 0);
  Status match = CompareResultSets(clean->results, degraded->results, 0.0);
  EXPECT_TRUE(match.ok()) << match.ToString();
}

TEST(CkptRecoveryTest, StagingGcSkipsLiveWritersInSharedCheckpointDir) {
  // Regression: two in-flight queries sharing one CASM_CHECKPOINT_DIR.
  // Staging GC used to decide liveness by mtime alone, so query B's
  // volume Open()/Scrub() could delete query A's still-open staging file
  // (deterministically with staging_gc_age_seconds=0, and for any writer
  // stalled past the age in production); A's Commit() then failed
  // reopening it. Live writers now register their staging paths
  // process-wide and GC must skip them regardless of age.
  const ScopedTestDir test_dir("staginggc");
  const std::string& dir = test_dir.path();
  DfsVolumeOptions options;
  options.block_size_bytes = 256;
  options.staging_gc_age_seconds = 0;  // every staging file is "stale"

  Result<DfsVolume> query_a = DfsVolume::Open(dir, options);
  ASSERT_TRUE(query_a.ok()) << query_a.status();
  Result<DfsVolume::FileWriter> writer =
      query_a->CreateFile("query_a.results");
  ASSERT_TRUE(writer.ok()) << writer.status();
  const std::string payload(1024, 'a');  // > block size: staging on disk
  ASSERT_TRUE(writer->Append(payload).ok());

  // Query B opens and scrubs the same root while A is mid-write. Both
  // paths run staging GC; neither may touch A's live staging file.
  Result<DfsVolume> query_b = DfsVolume::Open(dir, options);
  ASSERT_TRUE(query_b.ok()) << query_b.status();
  Result<ScrubReport> scrub = query_b->Scrub();
  ASSERT_TRUE(scrub.ok()) << scrub.status();
  EXPECT_EQ(scrub->staging_files_removed, 0);

  Status committed = writer->Commit();
  ASSERT_TRUE(committed.ok()) << committed.ToString();
  Result<std::string> read_back = query_b->ReadFile("query_a.results");
  ASSERT_TRUE(read_back.ok()) << read_back.status();
  EXPECT_EQ(read_back.value(), payload);

  // True orphans (no live writer — e.g. a crashed process) are still
  // collected: discard a writer without committing, leaving its staging
  // file behind artificially, then scrub.
  {
    Result<DfsVolume::FileWriter> orphan =
        query_a->CreateFile("query_c.results");
    ASSERT_TRUE(orphan.ok());
    ASSERT_TRUE(orphan->Append(payload).ok());
    // Simulate a crash: copy the staging file aside, let the writer
    // discard, then restore the file so it exists with no live owner.
    const std::string staging = dir + "/.query_c.results.staging";
    ASSERT_TRUE(fs::exists(staging));
    fs::copy_file(staging, staging + ".crashcopy");
  }
  fs::rename(dir + "/.query_c.results.staging.crashcopy",
             dir + "/.query_c.results.staging");
  Result<ScrubReport> gc = query_b->Scrub();
  ASSERT_TRUE(gc.ok()) << gc.status();
  EXPECT_EQ(gc->staging_files_removed, 1);
  EXPECT_FALSE(fs::exists(dir + "/.query_c.results.staging"));
}

}  // namespace
}  // namespace casm

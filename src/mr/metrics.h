// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.
//
// Execution metrics for one MapReduce run. The paper's experiments reduce
// to per-phase work and the per-reducer workload distribution; every
// benchmark and the skew handler read these counters.
//
// One source per number. The run's observability context (obs/event.h)
// folds the run's own engine events into this struct as they happen,
// traced or not: attempts (outcome counts, task_failures, task_retries,
// speculative_wins, cancelled_attempts and the attempt digests), backup
// launches (speculative_attempts), emitter and sort spills, and
// admission waits. The same events are the trace's attempt spans and the
// casm_tasks_*_total / casm_emitter_* / casm_admission_* registry
// families, so the three cannot disagree. The engine sets the rest: the
// shuffle's shape (input_rows, emitted_pairs, reducer_pairs,
// reducer_groups), peak_tracked_bytes, deadline_exceeded and the timings
// below; the evaluators add the checkpoint and DFS counters.
//
// Timing semantics — the engine reports both wall-clock and cpu-sum
// variants because virtual tasks outnumber worker threads:
//
//   * wall-clock (`map_seconds`, `reduce_phase_wall_seconds`,
//     `total_seconds`): elapsed time of the phase in this process;
//   * cpu-sum (`map_cpu_seconds`, `shuffle_sort_seconds`,
//     `reduce_seconds`): summed across (virtual) tasks, i.e. the serial
//     work a cluster would distribute; can exceed wall time whenever
//     tasks run in parallel. `map_cpu_seconds` counts every execution
//     (retried attempts and speculative losers included — it measures
//     work done); the per-reducer sort/reduce cpu-sums count only each
//     task's winning execution (they calibrate the cluster model's
//     per-record constants, which want the useful work).
//
// The `bench/fig4*` harnesses print the wall-clock `total_seconds` for
// reference and compute modeled cluster response times from
// `reducer_pairs` (see mr/cluster_model.h); none of them consume the
// cpu-sum fields directly — those calibrate the cluster model's
// per-record constants and feed the Fig 4(d)-style phase breakdowns.

#ifndef CASM_MR_METRICS_H_
#define CASM_MR_METRICS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/math.h"

namespace casm {

/// How one phase's task attempts ended, one count per outcome.
struct AttemptOutcomes {
  int64_t ok = 0;
  int64_t retried = 0;
  int64_t failed = 0;
  int64_t speculative_wins = 0;
  int64_t cancelled = 0;
};

struct MapReduceMetrics {
  int64_t input_rows = 0;
  /// Key/value pairs emitted by mappers (>= input_rows under overlapping
  /// redistribution).
  int64_t emitted_pairs = 0;
  /// Pairs received per reducer (the workload distribution).
  std::vector<int64_t> reducer_pairs;
  /// Distinct key groups per reducer.
  std::vector<int64_t> reducer_groups;

  /// Reduce-side external-sort spill I/O: the runs and records every
  /// reduce execution wrote (retried and speculation-losing executions
  /// included; the I/O happened). 0 when the inputs fit the sort's limit.
  int64_t spilled_runs = 0;
  int64_t spilled_records = 0;

  // Memory accounting and admission control (common/memory_budget.h).
  /// High-water mark of bytes tracked against the run's memory budget
  /// (emitter buffers + task footprint reservations). With
  /// `memory_budget_bytes` set this never exceeds the budget; with no
  /// budget it measures the unbounded run's peak.
  int64_t peak_tracked_bytes = 0;
  /// Map-side spill I/O: sorted runs the emitters of every map execution
  /// wrote to disk past `emitter_spill_threshold_bytes` (retried and
  /// speculation-losing executions included, as above), the pairs they
  /// contained (0 when spilling is off), and the bytes those pairs
  /// occupied on disk (records x pair width x 8).
  int64_t emitter_spilled_runs = 0;
  int64_t emitter_spilled_records = 0;
  int64_t emitter_spilled_bytes = 0;
  /// Task launches that had to queue for budget admission, and the total
  /// time they spent waiting (one kAdmissionWait event each, sent by the
  /// budget). Speculation's doubled executions queue here instead of
  /// overcommitting memory.
  int64_t admission_waits = 0;
  double admission_wait_seconds = 0;

  // Checkpoint & recovery (src/ckpt). Restored jobs run no tasks, so
  // they contribute nothing to the attempt digests or phase timings —
  // these counters are the only trace they leave in the metrics.
  /// Jobs whose results were restored from the checkpoint log instead of
  /// recomputed.
  int64_t checkpoint_jobs_restored = 0;
  /// Serialized payload bytes committed to / restored from the log.
  int64_t checkpoint_bytes_written = 0;
  int64_t checkpoint_bytes_restored = 0;
  /// Commit attempts that failed (the run continued without durability
  /// for those jobs) and commits skipped because the checkpoint circuit
  /// breaker was open.
  int64_t checkpoint_commit_failures = 0;
  int64_t checkpoint_commits_skipped = 0;
  /// Restore attempts that failed verification (corrupt block, torn
  /// manifest, fingerprint mismatch) and degraded to recompute. NotFound
  /// (never committed) is not counted.
  int64_t checkpoint_restore_failures = 0;
  /// True when any checkpoint commit failed or was skipped: the query
  /// completed, but some results are not durable.
  bool checkpoint_degraded = false;

  // DFS storage health (dfs/volume.h stats deltas attributed to this
  // run by the evaluators).
  int64_t dfs_io_retries = 0;
  int64_t dfs_write_failovers = 0;
  int64_t dfs_corrupt_replicas = 0;
  int64_t dfs_repaired_replicas = 0;
  int64_t dfs_under_replicated_blocks = 0;

  /// Task attempts that failed (injected faults, non-OK statuses, or
  /// exceptions thrown by user map/reduce functions): the retried and the
  /// failed outcomes of both phases. Cancelled attempts (speculation
  /// losers, deadline aborts) are not failures and are counted separately
  /// below.
  int64_t task_failures = 0;
  /// Failed attempts that were re-run; a run that succeeds with retries
  /// produces results identical to a fault-free run.
  int64_t task_retries = 0;

  // Straggler resilience (speculative execution + deadlines).
  /// Backup attempts launched for straggling tasks.
  int64_t speculative_attempts = 0;
  /// Backup attempts that finished before (and so replaced) the primary.
  int64_t speculative_wins = 0;
  /// Attempts that were cancelled mid-flight, or finished after another
  /// attempt of the same task had already won the race. Their output is
  /// always discarded. An execution cancelled before its next attempt
  /// started (say, in a retry backoff) ran no further attempt.
  int64_t cancelled_attempts = 0;
  /// True when the job's wall-clock deadline tripped during the run.
  /// (A run that fails with DeadlineExceeded returns no metrics; this
  /// flag covers the rare race where every task finished anyway.)
  bool deadline_exceeded = false;
  /// How each phase's task attempts ended: one count per attempt span
  /// outcome (obs/trace.h). The totals above sum them over both phases
  /// (task_failures sums the failed and the retried).
  AttemptOutcomes map_attempts;
  AttemptOutcomes reduce_attempts;
  /// Duration digests of each phase's attempts: one sample per attempt of
  /// every outcome but cancelled (a retried execution gives one sample
  /// per attempt; a cancelled attempt's duration measures the
  /// cancellation latency, not the work). Merged under Accumulate();
  /// ToString() renders them next to each phase's outcome counts.
  QuantileSketch map_attempt_digest;
  QuantileSketch reduce_attempt_digest;
  /// The digests' median and max, recomputed from the digests when the
  /// run ends and under Accumulate(), so a multi-job sequence reports
  /// sequence-wide quantiles (not the max of per-job medians).
  double map_attempt_p50_seconds = 0;
  double map_attempt_max_seconds = 0;
  double reduce_attempt_p50_seconds = 0;
  double reduce_attempt_max_seconds = 0;

  // Phase timings (see the header comment for wall vs cpu-sum semantics).
  double map_seconds = 0;      // wall clock of the map phase
  double map_cpu_seconds = 0;  // summed across mapper task attempts
  double shuffle_sort_seconds = 0;  // cpu-sum: grouping pairs per reducer
  double reduce_seconds = 0;        // cpu-sum: user reduce fn per reducer
  double reduce_phase_wall_seconds = 0;  // wall clock of shuffle+sort+reduce
  double total_seconds = 0;              // wall clock of the whole run

  /// Sets the p50/max scalars from the attempt digests.
  void FinishAttemptQuantiles() {
    map_attempt_p50_seconds = map_attempt_digest.Quantile(0.5);
    map_attempt_max_seconds = map_attempt_digest.Max();
    reduce_attempt_p50_seconds = reduce_attempt_digest.Quantile(0.5);
    reduce_attempt_max_seconds = reduce_attempt_digest.Max();
  }

  int64_t MaxReducerPairs() const;
  int64_t TotalGroups() const;
  /// emitted / input: the data-duplication factor of the distribution.
  double ReplicationFactor() const;

  std::string ToString() const;

  /// Accumulates another run's metrics (used by multi-job evaluations).
  void Accumulate(const MapReduceMetrics& other);
};

/// Exact per-query attribution inside a shared multi-query job
/// (EvaluateParallelBatch, core/parallel_evaluator.h). The shared
/// scan/shuffle counters belong to the batch and are published once
/// under the batch's own label (`casm_query_*`, obs/event.h); each
/// member query publishes only work
/// that is genuinely its own — the records its local evaluation scanned,
/// the seconds it spent, the result values it produced, the records its
/// ownership filter dropped — so summing `casm_query_*` families across
/// concurrent queries never double-counts the shared pass.
struct SharedQueryAttribution {
  std::string query;           // casm_query_* label
  int64_t local_records = 0;   // rows this member's local evaluation scanned
  double local_eval_seconds = 0;  // sort + evaluate seconds, this member
  int64_t result_values = 0;   // measure values delivered to this member
  int64_t results_filtered = 0;  // values dropped by its ownership filter
};

}  // namespace casm

#endif  // CASM_MR_METRICS_H_

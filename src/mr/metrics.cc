// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.

#include "mr/metrics.h"

#include <algorithm>

namespace casm {

int64_t MapReduceMetrics::MaxReducerPairs() const {
  int64_t max_pairs = 0;
  for (int64_t p : reducer_pairs) max_pairs = std::max(max_pairs, p);
  return max_pairs;
}

int64_t MapReduceMetrics::TotalGroups() const {
  int64_t total = 0;
  for (int64_t g : reducer_groups) total += g;
  return total;
}

double MapReduceMetrics::ReplicationFactor() const {
  return input_rows == 0 ? 0
                         : static_cast<double>(emitted_pairs) /
                               static_cast<double>(input_rows);
}

std::string MapReduceMetrics::ToString() const {
  std::string out;
  out += "input_rows=" + std::to_string(input_rows);
  out += " emitted_pairs=" + std::to_string(emitted_pairs);
  out += " replication=" + std::to_string(ReplicationFactor());
  out += " reducers=" + std::to_string(reducer_pairs.size());
  out += " max_reducer_pairs=" + std::to_string(MaxReducerPairs());
  out += " groups=" + std::to_string(TotalGroups());
  if (task_failures > 0 || task_retries > 0) {
    out += " task_failures=" + std::to_string(task_failures);
    out += " task_retries=" + std::to_string(task_retries);
  }
  if (speculative_attempts > 0 || cancelled_attempts > 0) {
    out += " speculative_attempts=" + std::to_string(speculative_attempts);
    out += " speculative_wins=" + std::to_string(speculative_wins);
    out += " cancelled_attempts=" + std::to_string(cancelled_attempts);
  }
  if (deadline_exceeded) out += " deadline_exceeded=1";
  if (checkpoint_jobs_restored > 0 || checkpoint_bytes_written > 0 ||
      checkpoint_bytes_restored > 0) {
    out += " checkpoint_jobs_restored=" +
           std::to_string(checkpoint_jobs_restored);
    out +=
        " checkpoint_bytes_written=" + std::to_string(checkpoint_bytes_written);
    out += " checkpoint_bytes_restored=" +
           std::to_string(checkpoint_bytes_restored);
  }
  if (checkpoint_commit_failures > 0 || checkpoint_commits_skipped > 0 ||
      checkpoint_restore_failures > 0) {
    out += " checkpoint_commit_failures=" +
           std::to_string(checkpoint_commit_failures);
    out += " checkpoint_commits_skipped=" +
           std::to_string(checkpoint_commits_skipped);
    out += " checkpoint_restore_failures=" +
           std::to_string(checkpoint_restore_failures);
  }
  if (checkpoint_degraded) out += " checkpoint_degraded=1";
  if (dfs_io_retries > 0 || dfs_write_failovers > 0 ||
      dfs_corrupt_replicas > 0 || dfs_repaired_replicas > 0 ||
      dfs_under_replicated_blocks > 0) {
    out += " dfs_io_retries=" + std::to_string(dfs_io_retries);
    out += " dfs_failovers=" + std::to_string(dfs_write_failovers);
    out += " dfs_corrupt_replicas=" + std::to_string(dfs_corrupt_replicas);
    out += " dfs_repaired_replicas=" + std::to_string(dfs_repaired_replicas);
    out += " dfs_under_replicated_blocks=" +
           std::to_string(dfs_under_replicated_blocks);
  }
  out += " peak_tracked_bytes=" + std::to_string(peak_tracked_bytes);
  if (emitter_spilled_runs > 0) {
    out += " emitter_spilled_runs=" + std::to_string(emitter_spilled_runs);
    out +=
        " emitter_spilled_records=" + std::to_string(emitter_spilled_records);
    out += " emitter_spilled_bytes=" + std::to_string(emitter_spilled_bytes);
  }
  if (admission_waits > 0) {
    out += " admission_waits=" + std::to_string(admission_waits);
    out += " admission_wait_s=" + std::to_string(admission_wait_seconds);
  }
  out += " map_attempt_p50_s=" + std::to_string(map_attempt_p50_seconds);
  out += " map_attempt_max_s=" + std::to_string(map_attempt_max_seconds);
  out += " reduce_attempt_p50_s=" + std::to_string(reduce_attempt_p50_seconds);
  out += " reduce_attempt_max_s=" + std::to_string(reduce_attempt_max_seconds);
  out += " map_wall_s=" + std::to_string(map_seconds);
  out += " map_cpu_s=" + std::to_string(map_cpu_seconds);
  out += " shuffle_sort_cpu_s=" + std::to_string(shuffle_sort_seconds);
  out += " reduce_cpu_s=" + std::to_string(reduce_seconds);
  out += " reduce_phase_wall_s=" + std::to_string(reduce_phase_wall_seconds);
  out += " total_s=" + std::to_string(total_seconds);
  // Each phase's outcome counts next to its one duration line.
  auto attempts_line = [](const char* phase, const AttemptOutcomes& o,
                          const QuantileSketch& d) {
    if (d.count() == 0 && o.cancelled == 0) return std::string();
    std::string line = std::string("\n  ") + phase + " attempts: " +
                       std::to_string(o.ok) + " ok, " +
                       std::to_string(o.retried) + " retried, " +
                       std::to_string(o.failed) + " failed, " +
                       std::to_string(o.speculative_wins) +
                       " speculative-win, " + std::to_string(o.cancelled) +
                       " cancelled; duration n=" + std::to_string(d.count());
    line += " p50=" + std::to_string(d.Quantile(0.5));
    line += " p90=" + std::to_string(d.Quantile(0.9));
    line += " p99=" + std::to_string(d.Quantile(0.99));
    line += " max=" + std::to_string(d.Max());
    return line;
  };
  out += attempts_line("map", map_attempts, map_attempt_digest);
  out += attempts_line("reduce", reduce_attempts, reduce_attempt_digest);
  return out;
}

void MapReduceMetrics::Accumulate(const MapReduceMetrics& other) {
  input_rows += other.input_rows;
  emitted_pairs += other.emitted_pairs;
  if (reducer_pairs.size() < other.reducer_pairs.size()) {
    reducer_pairs.resize(other.reducer_pairs.size(), 0);
    reducer_groups.resize(other.reducer_groups.size(), 0);
  }
  for (size_t i = 0; i < other.reducer_pairs.size(); ++i) {
    reducer_pairs[i] += other.reducer_pairs[i];
  }
  for (size_t i = 0; i < other.reducer_groups.size(); ++i) {
    reducer_groups[i] += other.reducer_groups[i];
  }
  spilled_runs += other.spilled_runs;
  spilled_records += other.spilled_records;
  // Sequential jobs do not hold their budgets concurrently, so the
  // sequence's peak is the max over jobs, not a sum.
  peak_tracked_bytes = std::max(peak_tracked_bytes, other.peak_tracked_bytes);
  emitter_spilled_runs += other.emitter_spilled_runs;
  emitter_spilled_records += other.emitter_spilled_records;
  emitter_spilled_bytes += other.emitter_spilled_bytes;
  admission_waits += other.admission_waits;
  admission_wait_seconds += other.admission_wait_seconds;
  task_failures += other.task_failures;
  task_retries += other.task_retries;
  speculative_attempts += other.speculative_attempts;
  speculative_wins += other.speculative_wins;
  cancelled_attempts += other.cancelled_attempts;
  deadline_exceeded = deadline_exceeded || other.deadline_exceeded;
  checkpoint_jobs_restored += other.checkpoint_jobs_restored;
  checkpoint_bytes_written += other.checkpoint_bytes_written;
  checkpoint_bytes_restored += other.checkpoint_bytes_restored;
  checkpoint_commit_failures += other.checkpoint_commit_failures;
  checkpoint_commits_skipped += other.checkpoint_commits_skipped;
  checkpoint_restore_failures += other.checkpoint_restore_failures;
  checkpoint_degraded = checkpoint_degraded || other.checkpoint_degraded;
  dfs_io_retries += other.dfs_io_retries;
  dfs_write_failovers += other.dfs_write_failovers;
  dfs_corrupt_replicas += other.dfs_corrupt_replicas;
  dfs_repaired_replicas += other.dfs_repaired_replicas;
  dfs_under_replicated_blocks += other.dfs_under_replicated_blocks;
  auto add = [](const AttemptOutcomes& from, AttemptOutcomes* to) {
    to->ok += from.ok;
    to->retried += from.retried;
    to->failed += from.failed;
    to->speculative_wins += from.speculative_wins;
    to->cancelled += from.cancelled;
  };
  add(other.map_attempts, &map_attempts);
  add(other.reduce_attempts, &reduce_attempts);
  // Merge the attempt-duration digests and recompute the scalar
  // quantiles from the union, so a sequence's p50 is the median over
  // every attempt in the sequence — not the max of per-job medians.
  map_attempt_digest.Merge(other.map_attempt_digest);
  reduce_attempt_digest.Merge(other.reduce_attempt_digest);
  FinishAttemptQuantiles();
  map_seconds += other.map_seconds;
  map_cpu_seconds += other.map_cpu_seconds;
  shuffle_sort_seconds += other.shuffle_sort_seconds;
  reduce_seconds += other.reduce_seconds;
  reduce_phase_wall_seconds += other.reduce_phase_wall_seconds;
  total_seconds += other.total_seconds;
}

}  // namespace casm

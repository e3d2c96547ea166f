// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.
//
// Run reports: each traced engine run folds its own observed events
// (obs/event.h) as they arrive into per-phase attempt-duration
// histograms and a short human-readable timeline summary, carried in
// MapReduceMetrics::run_report_summary.

#ifndef CASM_OBS_RUN_REPORT_H_
#define CASM_OBS_RUN_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/math.h"
#include "obs/event.h"
#include "obs/trace.h"

namespace casm {

/// Attempt outcomes and durations of one task phase ("map" / "reduce").
struct PhaseAttemptHistogram {
  std::string phase;
  int64_t attempts = 0;  // every attempt span of this phase
  int64_t ok = 0;
  int64_t failed = 0;
  int64_t retried = 0;
  int64_t speculative_wins = 0;
  int64_t cancelled = 0;
  /// Durations of attempts that ran to natural completion (ok, failed,
  /// retried, speculative-win). Cancelled attempts are excluded: their
  /// durations measure cancellation latency, not work.
  QuantileSketch durations;
};

/// A folded run: per-phase histograms plus memory/pool activity.
struct RunReport {
  double trace_begin_seconds = 0;  // the run's "job"/"mr-run" span
  double trace_end_seconds = 0;
  std::vector<PhaseAttemptHistogram> phases;  // encounter order (map first)
  int64_t admission_reservations = 0;  // budget reservations (kAdmission)
  int64_t admission_waits = 0;         // reservations the budget queued
  double admission_wait_seconds = 0;
  int64_t spill_events = 0;          // emitter and sort spills
  int64_t pool_queue_spans = 0;      // tasks that queued in the pool
  double pool_queue_seconds = 0;

  /// Local aggregation activity: one block per evaluated reducer group,
  /// by the evaluator that ran it (src/agg).
  int64_t localagg_blocks_sortscan = 0;
  int64_t localagg_blocks_morsel = 0;

  /// Spans the recorder dropped during the run because a thread hit its
  /// per-thread event cap (obs/trace.h). Non-zero means every
  /// trace-derived number above — and downstream fits like
  /// FitStragglerSlowdown — saw truncated data.
  int64_t trace_dropped_events = 0;

  /// Folds one event. Not thread-safe (obs::Context serializes folds).
  void Add(const obs::Event& event);

  /// The histogram for `phase` ("map" / "reduce"), or null when the trace
  /// held no attempts of that phase.
  const PhaseAttemptHistogram* FindPhase(const std::string& phase) const;

  /// Multi-line human-readable rendering: one line per phase with
  /// p50/p90/p99/max attempt durations and outcome counts, plus memory
  /// and pool activity lines when present. Empty for an empty report.
  std::string Summary() const;
};

}  // namespace casm

#endif  // CASM_OBS_RUN_REPORT_H_

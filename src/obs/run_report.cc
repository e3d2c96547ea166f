// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.

#include "obs/run_report.h"

#include <cstdio>

namespace casm {
namespace {

std::string Secs(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4fs", v);
  return buf;
}

PhaseAttemptHistogram* PhaseFor(RunReport* report, const char* phase) {
  for (PhaseAttemptHistogram& h : report->phases) {
    if (h.phase == phase) return &h;
  }
  report->phases.emplace_back();
  report->phases.back().phase = phase;
  return &report->phases.back();
}

}  // namespace

const PhaseAttemptHistogram* RunReport::FindPhase(
    const std::string& phase) const {
  for (const PhaseAttemptHistogram& h : phases) {
    if (h.phase == phase) return &h;
  }
  return nullptr;
}

std::string RunReport::Summary() const {
  const bool memory =
      admission_reservations > 0 || admission_waits > 0 || spill_events > 0;
  const int64_t blocks = localagg_blocks_sortscan + localagg_blocks_morsel;
  if (phases.empty() && !memory && pool_queue_spans == 0 && blocks == 0 &&
      trace_dropped_events == 0) {
    return std::string();
  }
  std::string out = "run report: " +
                    Secs(trace_end_seconds - trace_begin_seconds) +
                    " traced";
  for (const PhaseAttemptHistogram& h : phases) {
    out += "\n  " + h.phase + ": " + std::to_string(h.attempts) +
           " attempt(s) [" + std::to_string(h.ok) + " ok, " +
           std::to_string(h.retried) + " retried, " +
           std::to_string(h.failed) + " failed, " +
           std::to_string(h.speculative_wins) + " speculative-win, " +
           std::to_string(h.cancelled) + " cancelled]";
    if (h.durations.count() > 0) {
      out += " duration p50=" + Secs(h.durations.Quantile(0.5)) +
             " p90=" + Secs(h.durations.Quantile(0.9)) +
             " p99=" + Secs(h.durations.Quantile(0.99)) +
             " max=" + Secs(h.durations.Max());
    }
  }
  if (memory) {
    out += "\n  memory: " + std::to_string(admission_waits) +
           " admission wait(s) (" + Secs(admission_wait_seconds) +
           " waiting), " + std::to_string(spill_events) + " spill event(s)";
  }
  if (pool_queue_spans > 0) {
    out += "\n  pool: " + std::to_string(pool_queue_spans) +
           " queue-wait(s) (" + Secs(pool_queue_seconds) + " total)";
  }
  if (blocks > 0) {
    // The dominant evaluator ran the most blocks; a tie reads sortscan.
    out += "\n  localagg: sortscan=" +
           std::to_string(localagg_blocks_sortscan) +
           " morsel=" + std::to_string(localagg_blocks_morsel) +
           " block(s) (dominant " +
           (localagg_blocks_morsel > localagg_blocks_sortscan ? "morsel"
                                                              : "sortscan") +
           ")";
  }
  if (trace_dropped_events > 0) {
    out += "\n  WARNING: trace truncated — " +
           std::to_string(trace_dropped_events) +
           " span(s) dropped at the per-thread cap; histograms and "
           "trace-derived fits are incomplete";
  }
  return out;
}

void RunReport::Add(const obs::Event& e) {
  using obs::Kind;
  switch (e.kind) {
    case Kind::kRun:
      trace_begin_seconds = e.start;
      trace_end_seconds = e.end;
      break;
    case Kind::kMapAttempt:
    case Kind::kReduceAttempt: {
      PhaseAttemptHistogram* h =
          PhaseFor(this, e.kind == Kind::kMapAttempt ? "map" : "reduce");
      ++h->attempts;
      switch (e.outcome) {
        case TraceOutcome::kOk: ++h->ok; break;
        case TraceOutcome::kFailed: ++h->failed; break;
        case TraceOutcome::kRetried: ++h->retried; break;
        case TraceOutcome::kSpeculativeWin: ++h->speculative_wins; break;
        case TraceOutcome::kCancelled: ++h->cancelled; break;
        case TraceOutcome::kNone: break;
      }
      // Cancelled durations measure cancellation latency, not work.
      if (e.outcome != TraceOutcome::kCancelled) h->durations.Add(e.seconds());
      break;
    }
    case Kind::kAdmission: ++admission_reservations; break;
    case Kind::kAdmissionWait:
      ++admission_waits;
      admission_wait_seconds += e.seconds();
      break;
    case Kind::kEmitterSpill:
    case Kind::kSortSpill: ++spill_events; break;
    case Kind::kQueueWait:
      ++pool_queue_spans;
      pool_queue_seconds += e.seconds();
      break;
    case Kind::kSortScanBlock: ++localagg_blocks_sortscan; break;
    case Kind::kMorselBlock: ++localagg_blocks_morsel; break;
    case Kind::kTraceDropped: trace_dropped_events += e.n[0]; break;
    default: break;
  }
}

}  // namespace casm

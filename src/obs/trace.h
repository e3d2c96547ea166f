// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.
//
// Run tracing: a low-overhead recorder for the execution substrate.
// Observed events (obs/event.h) that have a trace form land here as
// *spans* (named intervals with a task id, attempt number, and outcome)
// and *instant events* (spills, retries); consumers turn the recorded
// timeline into Chrome trace-event JSON (chrome://tracing / Perfetto),
// per-phase attempt-duration histograms (obs/run_report.h), and a fitted
// cluster-model straggler parameter (mr/cluster_model.h).
//
// Overhead contract:
//
//   * disabled (the default): every Record* call is one relaxed atomic
//     load and an immediate return — no allocation, no locking, no
//     clock read. Instrumented sites go through obs::Observe, whose
//     context froze `enabled()` once for the run.
//   * enabled: each event is one clock read plus an append to a
//     per-thread buffer; the buffer's mutex is only ever contended by a
//     drain (Snapshot/WriteJson), so recording threads never contend
//     with each other. Per-thread buffers are capped (dropped events are
//     counted, never silently lost) so a runaway loop cannot exhaust
//     memory.
//
// Thread-safety and lifetime: Record* may be called from any number of
// threads concurrently with each other and with Snapshot/WriteJson. A
// recorder must outlive every thread that may still record into it; the
// process-global recorder (TraceRecorder::Global(), never destroyed)
// satisfies this trivially, and the engine's workers only record while a
// Run() holding the recorder pointer is in flight.
//
// Activation: set the environment variable CASM_TRACE=<path> and the
// global recorder starts enabled; at process exit the collected trace is
// written to <path> as Chrome trace JSON. Any binary that touches the
// engine honors it: `CASM_TRACE=run.json ./bench/fig_straggler`, then
// open run.json in Perfetto (https://ui.perfetto.dev) or
// chrome://tracing. Tests and harnesses can instead construct their own
// recorder, call set_enabled(true), and pass it through
// MapReduceSpec::trace / ParallelEvalOptions::trace.

#ifndef CASM_OBS_TRACE_H_
#define CASM_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace casm {
namespace obs {
enum class Kind : uint8_t;  // obs/event.h
}  // namespace obs

/// How a recorded task attempt ended. kNone marks events that are not
/// attempts (phase/job spans, spills, queue waits).
enum class TraceOutcome {
  kNone,
  kOk,              // attempt succeeded and its results were installed
  kFailed,          // attempt failed terminally (retry budget exhausted,
                    // or reduce output already delivered)
  kRetried,         // attempt failed and a retry followed
  kSpeculativeWin,  // backup execution's attempt finished first and won
  kCancelled,       // cancelled mid-flight, or finished after the task
                    // was already won (output discarded)
};

/// Stable lowercase name ("ok", "failed", ...) used in JSON and reports.
const char* TraceOutcomeName(TraceOutcome outcome);

/// One recorded event. Spans have a duration; instants mark a point in
/// time. `category` must be a static-lifetime string (the span taxonomy
/// of DESIGN.md §9: "job", "phase", "map", "reduce", "memory", "pool",
/// "eval", "ckpt", "localagg").
struct TraceEvent {
  bool instant = false;
  const char* category = "";
  std::string name;
  double start_seconds = 0;     // since the recorder's epoch
  double duration_seconds = 0;  // 0 for instants
  uint64_t thread_id = 0;       // small per-process ordinal, filled on record
  int64_t task = -1;            // task id, -1 when not task-scoped
  int64_t attempt = 0;          // 1-based injector attempt number, 0 = n/a
  int64_t job = -1;             // multi-job sequence index, -1 = n/a
  TraceOutcome outcome = TraceOutcome::kNone;
  /// Free-form tag of a raw event; for an observed one (kind != kRaw),
  /// the event's text, which the exporter completes from the payload.
  std::string detail;
  obs::Kind kind{};  // obs::Kind::kRaw
  int64_t payload[3] = {0, 0, 0};
};

/// Thread-safe span/instant recorder. Share by pointer; not copyable.
class TraceRecorder {
 public:
  TraceRecorder();
  ~TraceRecorder();

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// The disabled fast path: one relaxed load.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Seconds since this recorder's construction (the time base of every
  /// recorded event). Monotonic.
  double NowSeconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch_)
        .count();
  }

  /// Records `event` (obs::Observe is the one caller in the library),
  /// filling `thread_id` with the calling thread's ordinal when 0. No-op
  /// when disabled.
  void Record(TraceEvent event);

  /// Copies out every recorded event, ordered by start time. Safe to call
  /// while other threads record (events recorded concurrently with the
  /// drain may or may not be included).
  std::vector<TraceEvent> Snapshot() const;

  /// Events dropped because a per-thread buffer hit its cap.
  int64_t dropped_events() const;

  /// Discards every recorded event (buffers stay registered).
  void Clear();

  /// The collected trace as a Chrome trace-event JSON document
  /// (chrome://tracing / Perfetto loadable).
  std::string ToChromeJson() const;

  /// Writes ToChromeJson() to `path`.
  Status WriteJson(const std::string& path) const;

  /// The process-global recorder (never destroyed). Starts enabled iff
  /// the environment variable CASM_TRACE names an output path, in which
  /// case the trace is also written there at process exit. The engine
  /// records into this instance unless a spec provides its own.
  static TraceRecorder* Global();

  /// Opaque per-thread event buffer (definition private to trace.cc).
  struct ThreadBuffer;

 private:
  /// This thread's buffer, registering one on first use (per recorder).
  ThreadBuffer* BufferForThisThread();

  const std::chrono::steady_clock::time_point epoch_;
  const uint64_t recorder_id_;  // process-unique, validates cached slots
  std::atomic<bool> enabled_{false};
  mutable std::mutex registry_mu_;  // guards buffers_ (the list itself)
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// Serializes `events` (as produced by TraceRecorder::Snapshot) into a
/// Chrome trace-event JSON document. Exposed for tests and for writing
/// filtered sub-traces.
std::string TraceEventsToChromeJson(const std::vector<TraceEvent>& events);

}  // namespace casm

#endif  // CASM_OBS_TRACE_H_

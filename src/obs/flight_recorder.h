// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.
//
// Failure flight recorder: a fixed-capacity ring of structured events —
// task failures/retries, emitter spills, DFS failovers and outages,
// checkpoint circuit-breaker trips — kept cheaply while a run executes.
// When an evaluation returns a non-OK Status, the ring (plus a metrics
// snapshot and the resolved options) is dumped as a JSON diagnostic
// bundle, so the postmortem context survives the process instead of
// living only in the operator's scrollback.
//
// Overhead contract: enabled() is one relaxed load; events are *rare*
// (failures, spills, failovers — never per-record), so the enabled path
// takes a mutex on a bounded ring. The process-global recorder is
// enabled iff CASM_DIAG_DIR is set; evaluators dump bundles into that
// directory on failure.

#ifndef CASM_OBS_FLIGHT_RECORDER_H_
#define CASM_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"

namespace casm {

class MetricsRegistry;

/// One recorded incident. `category` must be a string literal (static
/// storage), mirroring TraceEvent's convention.
struct FlightEvent {
  double seconds = 0;  // steady-clock timestamp, comparable within process
  const char* category = "";  // "task", "memory", "dfs", "ckpt"
  std::string name;           // "task-failed", "emitter-spill", ...
  std::string query;          // query label, may be empty
  int64_t task = -1;          // task/block index when applicable
  int64_t attempt = 0;
  std::string detail;         // human-readable specifics
};

class FlightRecorder {
 public:
  static constexpr size_t kDefaultCapacity = 1024;

  explicit FlightRecorder(size_t capacity = kDefaultCapacity);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// One relaxed load; Record() is inert while false.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  void Record(const char* category, std::string name, int64_t task = -1,
              int64_t attempt = 0, std::string detail = std::string(),
              std::string query = std::string());

  /// Ring contents, oldest first.
  std::vector<FlightEvent> Snapshot() const;
  /// Events ever recorded (>= Snapshot().size(); the excess was evicted).
  int64_t total_recorded() const;
  size_t capacity() const { return capacity_; }
  void Clear();

  /// Process-wide recorder; never destroyed. Enabled iff CASM_DIAG_DIR
  /// is set.
  static FlightRecorder* Global();
  /// The CASM_DIAG_DIR value, or "" when unset.
  static std::string GlobalDiagDir();

 private:
  const size_t capacity_;
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<FlightEvent> ring_;  // ring_[ (start_ + i) % capacity_ ]
  size_t start_ = 0;
  int64_t total_ = 0;
};

/// Writes a diagnostic bundle to `dir` (created if needed):
/// `casm_diag_<query>_<pid>_<n>.json` holding the failure status, the
/// resolved options (a caller-rendered JSON object, "{}" if empty), the
/// flight ring, and a snapshot of `registry` (null = the global one).
/// Returns the bundle path.
Result<std::string> WriteDiagnosticBundle(const std::string& dir,
                                          const std::string& query,
                                          const Status& failure,
                                          const std::string& options_json,
                                          const FlightRecorder& flight,
                                          const MetricsRegistry* registry =
                                              nullptr);

/// Best-effort wrapper used by the evaluators on non-OK returns: writes
/// the global flight ring into CASM_DIAG_DIR. No-op when CASM_DIAG_DIR is
/// unset; logs (never fails) when the write itself fails.
void MaybeWriteDiagnosticBundle(const std::string& query,
                                const Status& failure,
                                const std::string& options_json);

}  // namespace casm

#endif  // CASM_OBS_FLIGHT_RECORDER_H_

// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.
//
// Unified fault injection. A FaultPlan is a seeded, deterministic registry
// of fault specs spanning every fault domain the system exercises in tests
// and chaos harnesses:
//
//   * task crashes       — an attempt of a map/reduce task fails with a
//                          Status (matching phase/task/attempt, optionally
//                          probabilistic);
//   * task slowdowns     — an attempt sleeps before running (stragglers);
//   * record throttles   — per-record owed-time delays inside an attempt;
//   * IO errors          — a read/write against a storage node fails, by
//                          per-operation probability or on every Nth
//                          matching operation;
//   * block corruption   — a replica write silently stores flipped bits
//                          (detected later by CRC, never by the writer);
//   * node outages       — a storage node is down for a window of the
//                          plan's IO-operation clock (or forever).
//
// Call sites ask the plan at *fault points*: the MapReduce engine calls
// OnTaskAttempt / TaskSlowdownSeconds / RecordThrottleSeconds, the DFS
// volume calls OnIo / NodeDown / ShouldCorruptBlock. All decisions are
// pure functions of (seed, site coordinates, per-spec op counters), so a
// plan replayed over the same execution injects the same faults — chaos
// runs print their seed and are reproducible.
//
// Plans compose: set_parent() chains a local plan (e.g. a test's hook
// plan) in front of a shared one (e.g. the process-global plan parsed from
// CASM_FAULT_PLAN).
// Registration (Add*/set_*) is not thread-safe and must finish before the
// plan is shared; the query methods are thread-safe and lock-free.
//
// Environment activation: CASM_FAULT_PLAN holds a semicolon-separated spec
// string, e.g.
//
//   CASM_FAULT_PLAN='seed=7; node_down=2; io_error=0.01:read' ./bench/...
//
// See Parse() for the grammar. FromEnv() parses it once per process.

#ifndef CASM_COMMON_FAULT_H_
#define CASM_COMMON_FAULT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace casm {

/// A composable, seeded fault-injection plan. Movable but not copyable
/// (injection counters are shared state, not value state).
class FaultPlan {
 public:
  // ---- Fault specs ------------------------------------------------------
  // In every spec, `phase` is "map", "reduce", or "" (any); integer fields
  // use -1 for "any". Attempt numbers are the engine's 1-based attempt
  // numbers: a primary execution uses 1..max_task_attempts, a speculative
  // backup continues with max_task_attempts+1..2*max_task_attempts.

  /// A task attempt fails with an Internal Status.
  struct TaskCrash {
    std::string phase;
    int task = -1;
    int attempt = -1;
    double probability = 1.0;  // per matching attempt, seeded-deterministic
    std::string message = "injected task crash";
  };

  /// A task attempt sleeps `seconds` before doing any work.
  struct TaskSlowdown {
    std::string phase;
    int task = -1;
    int attempt = -1;
    double seconds = 0;
  };

  /// Every record processed by a matching attempt owes an extra delay.
  struct RecordThrottle {
    std::string phase;
    int task = -1;
    int attempt = -1;
    double seconds_per_record = 0;
  };

  /// A storage IO operation fails with an Internal Status. `op` is "read",
  /// "write", or "" (any). Fires on every Nth matching operation when
  /// `every_nth` > 0, and/or with per-operation `probability`.
  struct IoError {
    std::string op;
    int node = -1;
    double probability = 0;
    int64_t every_nth = 0;
    std::string message = "injected io error";
  };

  /// A replica write silently stores corrupted bytes. The writer reports
  /// success; only a CRC check on a later read/scrub sees the rot.
  struct BlockCorruption {
    double probability = 0;
    int64_t every_nth = 0;
  };

  /// A storage node is unreachable while the plan's IO-operation clock is
  /// in [from_io_op, to_io_op). Defaults describe a permanent outage.
  struct NodeOutage {
    int node = -1;  // -1 = every node
    int64_t from_io_op = 0;
    int64_t to_io_op = std::numeric_limits<int64_t>::max();
  };

  // ---- Task hooks -------------------------------------------------------
  // Callbacks for stateful injection that specs cannot express: attempt
  // counters, timestamps, "kill every task once k jobs have run". Hooks
  // run before the plan's own specs and before the parent, and — unlike
  // specs — *every* crash hook runs on every attempt even when an earlier
  // one already failed it, so a hook observes each attempt exactly once.

  /// Returns non-OK to fail the attempt.
  using TaskStatusHook =
      std::function<Status(const char* phase, int task, int attempt)>;
  /// Returns seconds of delay (0 = none).
  using TaskDelayHook =
      std::function<double(const char* phase, int task, int attempt)>;

  explicit FaultPlan(uint64_t seed = 0);

  FaultPlan(const FaultPlan&) = delete;
  FaultPlan& operator=(const FaultPlan&) = delete;
  FaultPlan(FaultPlan&&) = default;
  FaultPlan& operator=(FaultPlan&&) = default;

  // ---- Registration (single-threaded, before sharing) -------------------

  FaultPlan& Add(TaskCrash spec);
  FaultPlan& Add(TaskSlowdown spec);
  FaultPlan& Add(RecordThrottle spec);
  FaultPlan& Add(IoError spec);
  FaultPlan& Add(BlockCorruption spec);
  FaultPlan& Add(NodeOutage spec);

  FaultPlan& AddCrashHook(TaskStatusHook hook);
  FaultPlan& AddSlowdownHook(TaskDelayHook hook);

  /// Chains `parent` behind this plan: every query that this plan's own
  /// hooks and specs leave unanswered is forwarded to the parent. The
  /// parent must outlive this plan. nullptr detaches.
  void set_parent(const FaultPlan* parent) { parent_ = parent; }
  const FaultPlan* parent() const { return parent_; }

  uint64_t seed() const { return seed_; }

  // ---- Fault points (thread-safe queries) -------------------------------

  /// Engine fault point: consulted once per task attempt, before the
  /// attempt body runs. Non-OK fails the attempt (the engine's normal
  /// retry policy then applies). `phase` is "map" or "reduce".
  Status OnTaskAttempt(const char* phase, int task, int attempt) const;

  /// Total injected pre-attempt delay for this attempt (sum over matching
  /// hooks and specs, plus the parent's). 0 = run immediately.
  double TaskSlowdownSeconds(const char* phase, int task, int attempt) const;

  /// Injected per-record delay for this attempt. 0 = no throttle.
  double RecordThrottleSeconds(const char* phase, int task,
                               int attempt) const;

  /// Storage fault point: consulted once per replica IO operation. Each
  /// call advances the plan's IO-operation clock (which NodeOutage windows
  /// are defined over). `op` is "read" or "write"; `node` is the storage
  /// node ordinal. Non-OK fails the operation.
  Status OnIo(const char* op, int node) const;

  /// True when `node` is inside an outage window right now. Does not
  /// advance the IO-operation clock — placement/skip decisions peek, only
  /// actual operations tick.
  bool NodeDown(int node) const;

  /// True when the replica of `file`'s block `block` written to `node`
  /// should be silently corrupted.
  bool ShouldCorruptBlock(std::string_view file, int block, int node) const;

  /// True when the plan (or a parent) has any spec or hook registered —
  /// callers can skip fault-point calls entirely for unarmed plans.
  bool armed() const;

  /// Faults this plan has injected (crashes + IO errors + corrupted
  /// blocks; excludes the parent's own count).
  int64_t faults_injected() const;

  /// IO operations observed by this plan's clock.
  int64_t io_ops() const;

  // ---- Construction from text -------------------------------------------

  /// Parses a plan from a semicolon-separated spec string. Clauses
  /// (whitespace around tokens is ignored; `*` means "any"):
  ///
  ///   seed=N
  ///   node_down=NODE[:FROM:TO]        outage window on the IO-op clock
  ///   io_error=P[:OP[:NODE]]          per-op probability, OP=read|write|*
  ///   io_error_nth=N[:OP[:NODE]]      every Nth matching op fails
  ///   block_corrupt=P                 silent corruption probability
  ///   block_corrupt_nth=N             every Nth replica write corrupts
  ///   task_crash=PHASE:TASK:ATTEMPT[:P]
  ///   slow_task=PHASE:TASK:ATTEMPT:SECONDS
  ///   throttle=PHASE:TASK:ATTEMPT:SECONDS_PER_RECORD
  ///
  /// Out-of-range values are InvalidArgument: P outside [0,1], negative
  /// delays, TASK/ATTEMPT/NODE outside `int`, and FROM >= TO.
  ///
  /// Example: "seed=7; node_down=2; io_error=0.05:read; task_crash=map:0:1"
  static Result<FaultPlan> Parse(const std::string& text);

  /// The process-global plan parsed from CASM_FAULT_PLAN, or nullptr when
  /// the variable is unset/empty. Parsed once; a malformed value aborts
  /// with the parse error (fail fast, not silently fault-free).
  static const FaultPlan* FromEnv();

 private:
  // Mutable injection state, shared so the plan stays movable and queries
  // stay const. `nth` holds one counter per registered Nth-trigger spec.
  struct Counters {
    std::atomic<int64_t> io_ops{0};
    std::atomic<int64_t> faults_injected{0};
    std::vector<std::unique_ptr<std::atomic<int64_t>>> nth;
  };

  /// Registers a fresh Nth-op counter and returns its slot index.
  int NewNthSlot();

  /// Deterministic [0,1) decision value for a fault site.
  double UnitHash(uint64_t tag, std::string_view s, int64_t a, int64_t b,
                  int64_t c) const;

  bool NodeDownAt(int node, int64_t io_op) const;

  uint64_t seed_ = 0;
  const FaultPlan* parent_ = nullptr;

  std::vector<TaskCrash> crashes_;
  std::vector<TaskSlowdown> slowdowns_;
  std::vector<RecordThrottle> throttles_;
  std::vector<IoError> io_errors_;
  std::vector<int> io_error_nth_slots_;  // parallel to io_errors_
  std::vector<BlockCorruption> corruptions_;
  std::vector<int> corruption_nth_slots_;  // parallel to corruptions_
  std::vector<NodeOutage> outages_;

  std::vector<TaskStatusHook> crash_hooks_;
  std::vector<TaskDelayHook> slowdown_hooks_;

  std::shared_ptr<Counters> counters_;
};

}  // namespace casm

#endif  // CASM_COMMON_FAULT_H_

// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.
//
// The observed-event stream: every instrumented site in the engine, the
// evaluators, local aggregation, storage, the plan cache and the service
// makes ONE call, obs::Observe(context, event), and one table in event.cc
// routes the event's kind to the run trace, the failure flight ring, the
// metrics registry and live progress (DESIGN.md §9 lists it). No other
// code writes to those sinks. An engine run's context also folds the
// run's engine events (attempts, backup launches, spills, admission
// waits, the run span) into the run's MapReduceMetrics, so each of its
// counters has one source whether or not any sink is on.
//
// Overhead contract: a Context freezes which kinds it routes when it is
// built (the engine builds one per run). With no sink on, Observe of a
// kind nobody folds (the "localagg" blocks, the combiner instants) is
// one branch on a field of the context: no atomic load, no clock read,
// no lock, no allocation. The few engine kinds per run (tens to
// hundreds) fold under the run's lock. Trace details are rendered from
// the integer payload when the trace is exported.

#ifndef CASM_OBS_EVENT_H_
#define CASM_OBS_EVENT_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "obs/trace.h"

namespace casm {

class ProgressTracker;
struct MapReduceMetrics;
struct SharedQueryAttribution;

namespace obs {

/// What happened; the payload `n` each kind carries follows it. The
/// engine's per-phase kinds come in adjacent (map, reduce) pairs.
enum class Kind : uint8_t {
  kRaw,  // a TraceEvent recorded directly, not observed
  // MapReduce engine (mr/engine.cc, mr/external_sort.cc).
  kMapAttempt, kReduceAttempt,        // span; outcome, text = failure
  kMapPhaseBegin, kReducePhaseBegin,  // n0 = tasks
  kMapPhase, kReducePhase,            // span; n0 = tasks
  kReduceModeled,  // seconds() = modeled reduce time left
  kBackupLaunch,   // a speculative backup execution of `task` launched
  kRun,            // span; n0 = mappers, n1 = reducers
  kQueueWait,      // span: a pool task waited to start
  kAdmission,      // span: one budget reservation; n0 = bytes
  kAdmissionWait,  // a reservation the budget queued; seconds() = wait
  kEmitterSpill,   // n0 = runs, n1 = pairs, n2 = bytes
  kSortSpill,      // n0 = records
  kTraceDropped,   // n0 = spans the trace dropped during the run
  // Local aggregation (src/agg).
  kSortScanBlock, kMorselBlock,  // span; n0 = rows
  kCombinerFlush,                // n0 = pairs emitted so far
  kCombinerBypass,               // n0 = groups kept, n1 = pairs seen
  // Evaluators (src/core); name = measure or checkpoint entry.
  kEvaluate, kEvaluateShared,  // span; outcome, text = key, n0 = queries
  kResultUnion,  // span: the final union; n0 = results, n1 = task sets
  kBasicJob, kCompositeJob,    // span; outcome, job, name, text = key
  kCkptRestore, kCkptWrite,    // span; outcome, job, name, n0 = bytes,
                               // text = failure
  kCkptSkipped,                // job, name: the open breaker skipped it
  kCkptCommitFailed, kCkptBreakerOpen,  // job, text = failure
  kCkptDegraded,                        // text = failure
  kQueryDone,        // metrics = the query's MapReduceMetrics
  kSharedQueryDone,  // share = one member's attribution, n0 = batch size
  // DFS volume (dfs/volume.cc); text = file name unless noted.
  kDfsRead, kDfsWrite,  // span; a lost block reads failed, task = block
  kDfsScrub,            // span; text = the scrub report
  kDfsRetry,            // task = block, n0 = node, n1 = 1 for a write,
                        // text = failure
  kDfsFailover,         // task = block, n0 = preferred node passed over
  kDfsUnderReplicated,  // task = block
  kDfsCorrupt, kDfsRepair,  // task = block, n0 = node, n1 = source node
                            // of a repair, n2 = 1 in a scrub
  // Plan cache (core/plan_cache.cc) and service (svc/).
  kPlanCacheHit, kPlanCacheMiss, kPlanCacheEvict, kPlanCacheInsert,
  kSvcQueue,        // n0 = queued queries, n1 = queries in flight
  kSvcBatch,        // n0 = queries sharing one scan
  kCount
};

/// One observed event. Times are in the context's trace clock
/// (Context::Now()); instants, and spans whose `end` is left 0, are
/// stamped when observed.
struct Event {
  Kind kind = Kind::kRaw;
  int64_t task = -1;    // task / reducer / block index, -1 = n/a
  int64_t attempt = 0;  // 1-based fault-plan attempt number, 0 = n/a
  int64_t job = -1;     // multi-job sequence index, -1 = n/a
  TraceOutcome outcome = TraceOutcome::kNone;
  double start = 0;
  double end = 0;
  int64_t n[3] = {0, 0, 0};
  std::string_view name = {};
  std::string_view text = {};
  const MapReduceMetrics* metrics = nullptr;
  const SharedQueryAttribution* share = nullptr;

  double seconds() const { return end - start; }
};

/// The trace detail of an event, rendered from its payload, outcome and
/// text when the trace is exported.
std::string RenderDetail(Kind kind, const int64_t n[3], TraceOutcome outcome,
                         std::string_view text);

/// Where a site's events go: the resolved trace, the query label, the
/// sinks that were on when it was built and, for an engine run, the
/// run's metrics. Thread-safe; must outlive every Observe on it.
class Context {
 public:
  /// `trace` null = TraceRecorder::Global(). A non-null `run` makes this
  /// an engine run's context: it folds the run's engine events into
  /// `*run` (obs/event.cc lists them) whether or not any sink is on, and
  /// drives the live-progress tracker kept in `*progress`, created for a
  /// labeled run while a reader (the registry or CASM_PROGRESS) exists
  /// and kept across runs with the same label.
  explicit Context(TraceRecorder* trace = nullptr, std::string query = {},
                   std::unique_ptr<ProgressTracker>* progress = nullptr,
                   MapReduceMetrics* run = nullptr);

  bool tracing() const { return tracing_; }
  /// True when Observe routes `kind` anywhere (a sink or the run's fold).
  bool routes(Kind kind) const {
    return (routed_ >> static_cast<unsigned>(kind)) & 1u;
  }
  /// The trace clock while tracing, else 0: block-rate sites read it, so
  /// an untraced run pays no clock read for them.
  double Now() const { return tracing_ ? trace_->NowSeconds() : 0; }
  /// The trace clock on an engine run's context whether or not it
  /// traces (attempt durations fold into the run's metrics), else Now().
  double RunNow() const {
    return run_ != nullptr ? trace_->NowSeconds() : Now();
  }
  TraceRecorder* trace() const { return trace_; }
  const std::string& query() const { return query_; }

 private:
  /// Observe's slow path, once the kind is routed; call Observe instead.
  friend void ObserveActive(const Context& context, const Event& event);

  TraceRecorder* const trace_;
  const std::string query_;
  const bool tracing_;
  const bool metrics_;
  const bool flight_;
  ProgressTracker* progress_ = nullptr;
  uint64_t routed_ = 0;  // one bit per Kind
  MapReduceMetrics* const run_;
  mutable std::mutex run_mu_;  // guards the fold into *run_
  int64_t dropped_at_start_ = 0;  // the trace's drops when the run began
};

/// The one instrumentation call. `context` null = nobody observes.
inline void Observe(const Context* context, const Event& event) {
  if (context != nullptr && context->routes(event.kind)) {
    ObserveActive(*context, event);
  }
}

/// The outcome of a job, evaluation or checkpoint operation.
inline TraceOutcome Outcome(bool ok) {
  return ok ? TraceOutcome::kOk : TraceOutcome::kFailed;
}

/// True when something reads query labels process-wide (the registry,
/// the flight ring or its bundle directory, the progress ticker).
bool QueryLabelsObserved();

}  // namespace obs
}  // namespace casm

#endif  // CASM_OBS_EVENT_H_

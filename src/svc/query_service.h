// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.
//
// Multi-query service: a long-running front end that absorbs concurrent
// composite-aggregate workflows (ROADMAP "Multi-query service"). Clients
// Submit() queries with a priority and an optional deadline and get a
// QueryId back immediately; a bounded worker pool drains the admission
// queue in (priority, FIFO) order, gated by a service-wide MemoryBudget.
//
// The multi-query optimizer pass: when shared batching is on, the worker
// that dequeues a query holds it open for a short batching window and
// groups every queued query over the same table (same Table pointer,
// same SchemaPtr) into one batch. Every batch, of one query or several,
// runs one path: plan the member's own workflow, or the members'
// concatenation (measure/workflow.h ConcatWorkflows) — feasible for
// every member by construction — then evaluate once
// (EvaluateParallelBatch, core/parallel_evaluator.h: ONE scan and one
// shuffle) and fan the results out, bit-identical to solo evaluation
// under the same plan. Queries that cannot share (different table,
// allow_shared=false, checkpointing requested) form batches of one, so
// sharing is purely an optimization: it changes scan passes, never
// results.
//
// Plans — shared and solo — are remembered in a PlanCache shared across
// the worker pool, so a hot query mix stops paying the optimizer after
// its first few arrivals.
//
// Deadline semantics: a query's deadline covers queue time + its own
// evaluation. A query still queued past its deadline completes as
// kExpired without running. A running job runs under the LONGEST member
// deadline, which for a batch of one is the query's own: the engine
// cancels it with DeadlineExceeded. A member whose personal deadline
// elapses while a shared job is still finishing gets its results anyway
// (the scan was paid for by its peers) — sharing never makes a deadline
// stricter.
//
// Cancellation: cancelling a queued query removes it; cancelling a
// running query drops its results at completion and trips the job's
// engine token once every member of its batch is cancelled (at once for
// a batch of one).

#ifndef CASM_SVC_QUERY_SERVICE_H_
#define CASM_SVC_QUERY_SERVICE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/cancellation.h"
#include "common/math.h"
#include "common/memory_budget.h"
#include "common/result.h"
#include "core/parallel_evaluator.h"
#include "core/plan_cache.h"
#include "data/table.h"
#include "measure/workflow.h"
#include "obs/event.h"

namespace casm {

class FaultPlan;
class TraceRecorder;

/// One query as submitted. The workflow and table are not owned and must
/// outlive the query's completion (the service evaluates them in place).
struct QueryRequest {
  const Workflow* workflow = nullptr;
  const Table* table = nullptr;
  /// Higher runs first; ties break FIFO by submission order.
  int priority = 0;
  /// Wall-clock budget covering queue time + evaluation; <= 0 = none.
  double deadline_seconds = 0;
  /// Opt this query out of shared batching (it still shares the queue).
  bool allow_shared = true;
  /// Metrics/trace label; empty derives "svcq<id>".
  std::string label;
  /// Durable checkpointing for this query (forces solo evaluation).
  CheckpointOptions checkpoint;
};

enum class QueryState {
  kQueued,
  kRunning,
  kDone,       // results available
  kFailed,     // evaluation returned a non-OK, non-cancel status
  kCancelled,  // Cancel() or service shutdown
  kExpired,    // deadline elapsed before results were delivered
};

const char* QueryStateName(QueryState state);

/// Terminal outcome of one query.
struct QueryOutcome {
  QueryState state = QueryState::kQueued;
  Status status;               // OK iff state == kDone
  MeasureResultSet results;    // filled iff state == kDone
  MapReduceMetrics metrics;    // the job that computed it (shared: whole job)
  LocalEvalStats local_stats;  // this query's own local evaluation work
  /// The plan the query actually ran under — re-running
  /// EvaluateParallel(workflow, table, plan) solo reproduces `results`
  /// bit-identically (the fig_service self-check does exactly that).
  ExecutionPlan plan;
  bool shared = false;     // rode a shared batch of >= 2 queries
  int batch_queries = 1;   // members in its batch
  /// Order in which the service started evaluating it (1-based across
  /// the service lifetime; 0 if it never ran). Tests assert fairness on
  /// this.
  int64_t run_sequence = 0;
  double queue_seconds = 0;  // submit -> dequeue
  double run_seconds = 0;    // dequeue -> terminal
};

struct QueryServiceOptions {
  int num_workers = 2;
  /// Submit() fails with FailedPrecondition past this many queued queries.
  int max_queue = 1024;
  /// Construct paused: queries queue up but nothing runs until Start().
  /// Tests and benches use this to form deterministic batches.
  bool start_paused = false;

  // ---- Multi-query batching.
  bool shared_batching = true;
  int max_batch_queries = 8;
  /// How long the dequeuing worker holds a shareable query open for
  /// compatible peers to arrive. 0 batches only what is already queued.
  double batch_window_seconds = 0.002;

  // ---- Admission control.
  /// Service-wide budget; each job reserves its projected shuffle
  /// footprint before running (shared batches reserve ONCE — sharing
  /// saves memory as well as scans). 0 = no gating.
  int64_t memory_budget_bytes = 0;
  /// Per-job reservation override; 0 derives rows * (key+value width) *
  /// 8 from the job's table, clamped to the budget capacity.
  int64_t per_query_reserve_bytes = 0;

  // ---- Evaluation parameters applied to every job.
  int num_mappers = 4;
  int num_reducers = 4;
  /// Worker threads per evaluation; 0 = one per hardware thread divided
  /// by num_workers (so a loaded service does not oversubscribe).
  int num_threads = 0;

  /// Trace recorder for "svc" events, forwarded to every evaluation; null
  /// = the CASM_TRACE global. The service freezes which sinks are on when
  /// it is built. The casm_svc_* gauges and per-query counters go to
  /// MetricsRegistry::Global().
  TraceRecorder* trace = nullptr;
  /// Fault plan forwarded to every evaluation (chaos tests); null = the
  /// process-global CASM_FAULT_PLAN plan.
  const FaultPlan* fault_plan = nullptr;
};

/// Monotonic service counters (one consistent snapshot).
struct QueryServiceStats {
  int64_t submitted = 0;
  int64_t rejected = 0;   // Submit refused (queue full / shutdown)
  int64_t completed = 0;  // kDone
  int64_t failed = 0;
  int64_t cancelled = 0;
  int64_t expired = 0;
  /// MapReduce passes over input tables (the shared-batching win: k
  /// compatible queries cost 1 scan pass instead of k).
  int64_t scan_passes = 0;
  /// Batches that got a plan and ran (or failed), so solo_queries +
  /// shared_queries counts every query evaluated, failed ones included.
  int64_t shared_batches = 0;  // batches with >= 2 members
  int64_t shared_queries = 0;  // queries that rode those batches
  int64_t solo_queries = 0;    // queries evaluated alone
  int64_t plan_cache_hits = 0;
  int64_t plan_cache_misses = 0;
  /// Reserve() calls that blocked on the admission budget.
  int64_t admission_waits = 0;
  int64_t queue_depth = 0;  // current
  int64_t in_flight = 0;    // current
  /// Submit -> terminal latency distribution of completed queries.
  QuantileSketch latency_seconds;
};

class QueryService {
 public:
  using QueryId = int64_t;

  explicit QueryService(QueryServiceOptions options = {});
  ~QueryService();  // Shutdown()

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Enqueues a query; returns its id immediately. Fails with
  /// InvalidArgument on a malformed request, FailedPrecondition when the
  /// queue is full or after Shutdown().
  Result<QueryId> Submit(const QueryRequest& request);

  /// Current state, or NotFound for an unknown id. Never blocks.
  Result<QueryState> Poll(QueryId id) const;

  /// Blocks until the query is terminal and returns its outcome (the
  /// outcome carries the failure status — Wait itself fails only for an
  /// unknown id).
  Result<QueryOutcome> Wait(QueryId id);

  /// Cancels a queued or running query; false if unknown or already
  /// terminal. See the header comment for shared-batch semantics.
  bool Cancel(QueryId id);

  /// Begins draining (no-op unless constructed with start_paused).
  void Start();

  /// Stops accepting work, cancels queued and running queries, joins the
  /// workers. Idempotent. Outcomes of already-terminal queries stay
  /// available through Wait().
  void Shutdown();

  QueryServiceStats stats() const;
  const QueryServiceOptions& options() const { return options_; }

 private:
  struct Batch;
  struct Record {
    QueryId id = 0;
    QueryRequest request;
    std::string label;
    QueryState state = QueryState::kQueued;
    Status status;
    MeasureResultSet results;
    MapReduceMetrics metrics;
    LocalEvalStats local_stats;
    ExecutionPlan plan;
    bool shared = false;
    int batch_queries = 1;
    int64_t run_sequence = 0;
    std::chrono::steady_clock::time_point submit_time;
    std::chrono::steady_clock::time_point start_time;
    double queue_seconds = 0;
    double run_seconds = 0;
    /// Set by Cancel(); the batch drops the query's results.
    bool cancel_requested = false;
    bool has_deadline = false;
    std::chrono::steady_clock::time_point deadline;
    /// Set while the record's batch runs.
    std::shared_ptr<Batch> batch;
  };

  /// Control block of one running batch (of one query or several): the
  /// job's engine token, under the longest member deadline, tripped by
  /// Shutdown() or once every member is cancelled.
  struct Batch {
    explicit Batch(const CancellationToken* stop) : token(stop) {}
    CancellationToken token;
    int live_members = 0;  // uncancelled members; guarded by service mu_
  };

  void WorkerLoop();
  /// Completes queued records whose deadline already passed. Lock held.
  void ReapExpiredLocked();
  /// Removes and returns the best (priority, FIFO) pending record. Lock
  /// held; pending_ must not be empty.
  std::shared_ptr<Record> PopBestLocked();
  /// Queued records that can share `lead`'s scan. Lock held.
  int CountCompatibleLocked(const Record& lead) const;
  void CollectCompatibleLocked(const Record& lead, size_t max_members,
                               std::vector<std::shared_ptr<Record>>* batch);
  static bool Compatible(const Record& lead, const Record& other);

  /// Admits, plans and evaluates a batch of any size in one pass, then
  /// completes every member.
  void RunBatch(std::vector<std::shared_ptr<Record>> batch);
  /// The plan for the members' own workflow, or for their concatenation:
  /// from the plan cache, else the optimizer. `records` is the table size
  /// the cost model sees.
  Result<ExecutionPlan> PlanFor(
      const std::vector<std::shared_ptr<Record>>& members, int64_t records,
      const CancellationToken* cancel);
  /// Marks `record` terminal, stamps timings and wakes waiters. Lock
  /// held.
  void CompleteLocked(Record& record, QueryState state, Status status);
  ParallelEvalOptions BaseEvalOptions() const;
  int64_t ReserveBytesFor(const Table& table) const;
  void UpdateGaugesLocked();

  const QueryServiceOptions options_;
  std::unique_ptr<MemoryBudget> budget_;      // null without a capacity
  const obs::Context obs_;  // options_.trace resolved; the svc events
  /// Shared by the workers; observed through obs_.
  PlanCache cache_{/*max_entries=*/64};

  /// Parent of every job token: Shutdown() cancels the fleet.
  CancellationToken stop_token_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  // workers: pending / stop / unpause
  std::condition_variable done_cv_;  // Wait(): some query turned terminal
  bool paused_ = false;
  bool stopping_ = false;
  QueryId next_id_ = 1;
  int64_t next_run_sequence_ = 1;
  std::map<QueryId, std::shared_ptr<Record>> records_;
  std::vector<std::shared_ptr<Record>> pending_;  // queued; picked by policy
  int64_t in_flight_ = 0;
  QueryServiceStats stats_;
  std::vector<std::thread> workers_;
};

}  // namespace casm

#endif  // CASM_SVC_QUERY_SERVICE_H_

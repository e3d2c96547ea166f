// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.

#include "svc/query_service.h"

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <utility>

#include "common/logging.h"
#include "core/optimizer.h"
#include "obs/trace.h"

namespace casm {
namespace {

int64_t EnvInt64(const char* name, int64_t fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return fallback;
  return std::atoll(env);
}

double EnvDouble(const char* name, double fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return fallback;
  return std::atof(env);
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Terminal state for an evaluation status (cancel_requested overrides
/// to kCancelled at the call sites).
QueryState StateFor(const Status& status) {
  if (status.ok()) return QueryState::kDone;
  switch (status.code()) {
    case StatusCode::kCancelled: return QueryState::kCancelled;
    case StatusCode::kDeadlineExceeded: return QueryState::kExpired;
    default: return QueryState::kFailed;
  }
}

}  // namespace

const char* QueryStateName(QueryState state) {
  switch (state) {
    case QueryState::kQueued: return "queued";
    case QueryState::kRunning: return "running";
    case QueryState::kDone: return "done";
    case QueryState::kFailed: return "failed";
    case QueryState::kCancelled: return "cancelled";
    case QueryState::kExpired: return "expired";
  }
  return "unknown";
}

QueryServiceOptions QueryServiceOptionsFromEnv() {
  QueryServiceOptions options;
  options.num_workers =
      static_cast<int>(EnvInt64("CASM_SVC_WORKERS", options.num_workers));
  options.max_queue =
      static_cast<int>(EnvInt64("CASM_SVC_QUEUE_CAP", options.max_queue));
  options.shared_batching = EnvInt64("CASM_SVC_SHARED", 1) != 0;
  options.max_batch_queries = static_cast<int>(
      EnvInt64("CASM_SVC_MAX_BATCH", options.max_batch_queries));
  options.batch_window_seconds =
      EnvDouble("CASM_SVC_BATCH_WINDOW_MS",
                options.batch_window_seconds * 1000.0) /
      1000.0;
  options.memory_budget_bytes =
      EnvInt64("CASM_SVC_BUDGET_BYTES", options.memory_budget_bytes);
  options.per_query_reserve_bytes =
      EnvInt64("CASM_SVC_RESERVE_BYTES", options.per_query_reserve_bytes);
  options.num_mappers =
      static_cast<int>(EnvInt64("CASM_SVC_MAPPERS", options.num_mappers));
  options.num_reducers =
      static_cast<int>(EnvInt64("CASM_SVC_REDUCERS", options.num_reducers));
  options.num_threads =
      static_cast<int>(EnvInt64("CASM_SVC_THREADS", options.num_threads));
  return options;
}

QueryService::QueryService(QueryServiceOptions options)
    : options_(std::move(options)),
      trace_(options_.trace != nullptr ? options_.trace
                                       : TraceRecorder::Global()) {
  if (options_.memory_budget_bytes > 0) {
    budget_ = std::make_unique<MemoryBudget>(options_.memory_budget_bytes);
  }
  MetricsRegistry* const registry = MetricsRegistry::Global();
  if (options_.plan_cache != nullptr) {
    cache_ = options_.plan_cache;
  } else {
    owned_cache_ = std::make_unique<PlanCache>(/*max_entries=*/64);
    owned_cache_->set_registry(registry);
    owned_cache_->set_trace(trace_);
    cache_ = owned_cache_.get();
  }
  queue_depth_gauge_ = registry->GetGauge(
      "casm_svc_queue_depth", "Queries waiting in the admission queue");
  inflight_gauge_ = registry->GetGauge(
      "casm_svc_inflight", "Queries currently being evaluated");
  batch_size_gauge_ = registry->GetGauge(
      "casm_svc_batch_queries", "Members of the most recent shared batch");
  paused_ = options_.start_paused;
  const int workers = std::max(1, options_.num_workers);
  workers_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

QueryService::~QueryService() { Shutdown(); }

Result<QueryService::QueryId> QueryService::Submit(
    const QueryRequest& request) {
  if (request.workflow == nullptr || request.table == nullptr) {
    return Status::InvalidArgument("Submit needs a workflow and a table");
  }
  std::unique_lock<std::mutex> lock(mu_);
  if (stopping_) {
    ++stats_.rejected;
    return Status::FailedPrecondition("service is shut down");
  }
  if (static_cast<int>(pending_.size()) >= options_.max_queue) {
    ++stats_.rejected;
    return Status::FailedPrecondition(
        "admission queue full (" + std::to_string(pending_.size()) + ")");
  }
  auto record = std::make_shared<Record>(&stop_token_);
  record->id = next_id_++;
  record->request = request;
  record->label = request.label.empty()
                      ? "svcq" + std::to_string(record->id)
                      : request.label;
  record->submit_time = std::chrono::steady_clock::now();
  if (request.deadline_seconds > 0) {
    record->has_deadline = true;
    record->deadline =
        record->submit_time +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(request.deadline_seconds));
    // Before the token is shared with any other thread (contract of
    // set_deadline): the record is still local to this call.
    record->cancel.set_deadline(record->deadline);
  }
  records_.emplace(record->id, record);
  pending_.push_back(record);
  ++stats_.submitted;
  UpdateGaugesLocked();
  const QueryId id = record->id;
  lock.unlock();
  work_cv_.notify_all();
  return id;
}

Result<QueryState> QueryService::Poll(QueryId id) const {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = records_.find(id);
  if (it == records_.end()) {
    return Status::NotFound("unknown query id " + std::to_string(id));
  }
  return it->second->state;
}

Result<QueryOutcome> QueryService::Wait(QueryId id) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = records_.find(id);
  if (it == records_.end()) {
    return Status::NotFound("unknown query id " + std::to_string(id));
  }
  const std::shared_ptr<Record> record = it->second;
  done_cv_.wait(lock, [&] {
    return record->state != QueryState::kQueued &&
           record->state != QueryState::kRunning;
  });
  QueryOutcome out;
  out.state = record->state;
  out.status = record->status;
  out.results = record->results;
  out.metrics = record->metrics;
  out.local_stats = record->local_stats;
  out.plan = record->plan;
  out.shared = record->shared;
  out.batch_queries = record->batch_queries;
  out.run_sequence = record->run_sequence;
  out.queue_seconds = record->queue_seconds;
  out.run_seconds = record->run_seconds;
  return out;
}

bool QueryService::Cancel(QueryId id) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = records_.find(id);
  if (it == records_.end()) return false;
  const std::shared_ptr<Record>& record = it->second;
  switch (record->state) {
    case QueryState::kQueued: {
      record->cancel_requested = true;
      record->cancel.Cancel();
      auto pos = std::find(pending_.begin(), pending_.end(), record);
      if (pos != pending_.end()) {
        pending_.erase(pos);
        CompleteLocked(*record, QueryState::kCancelled,
                       Status::Cancelled("cancelled while queued"));
      }
      // Not in pending_: a worker holds it open in a batching window and
      // will observe cancel_requested before running it.
      return true;
    }
    case QueryState::kRunning: {
      if (record->cancel_requested) return true;
      record->cancel_requested = true;
      record->cancel.Cancel();
      if (record->batch != nullptr && --record->batch->live_members == 0) {
        // Last live member gone: nobody is waiting for the shared job.
        record->batch->token.Cancel();
      }
      return true;
    }
    default:
      return false;
  }
}

void QueryService::Start() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    paused_ = false;
  }
  work_cv_.notify_all();
}

void QueryService::Shutdown() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (!stopping_) {
      stopping_ = true;
      stop_token_.Cancel();
      for (const std::shared_ptr<Record>& record : pending_) {
        CompleteLocked(*record, QueryState::kCancelled,
                       Status::Cancelled("service shut down"));
      }
      pending_.clear();
      UpdateGaugesLocked();
    }
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

QueryServiceStats QueryService::stats() const {
  std::unique_lock<std::mutex> lock(mu_);
  QueryServiceStats out = stats_;
  out.queue_depth = static_cast<int64_t>(pending_.size());
  out.in_flight = in_flight_;
  if (budget_ != nullptr) out.admission_waits = budget_->admission_waits();
  return out;
}

// ---------------------------------------------------------------------------
// Worker pool

void QueryService::WorkerLoop() {
  for (;;) {
    std::vector<std::shared_ptr<Record>> batch;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] {
        return stopping_ || (!paused_ && !pending_.empty());
      });
      if (stopping_) return;
      ReapExpiredLocked();
      if (pending_.empty()) continue;
      std::shared_ptr<Record> lead = PopBestLocked();
      batch.push_back(lead);
      const bool shareable = options_.shared_batching &&
                             options_.max_batch_queries > 1 &&
                             lead->request.allow_shared &&
                             !lead->request.checkpoint.enabled();
      if (shareable) {
        // Batching window: hold the lead open briefly so compatible
        // queries arriving now can ride its scan. The lead is already
        // out of pending_, so no other worker can steal it; peers that
        // other workers dequeue meanwhile simply form their own batches.
        const auto window_deadline =
            std::chrono::steady_clock::now() +
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(
                    std::max(0.0, options_.batch_window_seconds)));
        while (!stopping_ && !lead->cancel_requested &&
               1 + CountCompatibleLocked(*lead) <
                   options_.max_batch_queries &&
               std::chrono::steady_clock::now() < window_deadline) {
          if (work_cv_.wait_until(lock, window_deadline) ==
              std::cv_status::timeout) {
            break;
          }
        }
        CollectCompatibleLocked(
            *lead, static_cast<size_t>(options_.max_batch_queries), &batch);
      }
      const auto now = std::chrono::steady_clock::now();
      for (const std::shared_ptr<Record>& record : batch) {
        if (record->cancel_requested) continue;  // handled in RunBatch
        record->state = QueryState::kRunning;
        record->start_time = now;
        record->queue_seconds =
            std::chrono::duration<double>(now - record->submit_time).count();
        record->run_sequence = next_run_sequence_++;
        ++in_flight_;
      }
      UpdateGaugesLocked();
    }
    RunBatch(std::move(batch));
  }
}

void QueryService::ReapExpiredLocked() {
  const auto now = std::chrono::steady_clock::now();
  auto it = pending_.begin();
  while (it != pending_.end()) {
    Record& record = **it;
    if (record.has_deadline && now >= record.deadline) {
      it = pending_.erase(it);
      CompleteLocked(record, QueryState::kExpired,
                     Status::DeadlineExceeded("expired while queued"));
    } else {
      ++it;
    }
  }
}

std::shared_ptr<QueryService::Record> QueryService::PopBestLocked() {
  auto best = pending_.begin();
  for (auto it = std::next(best); it != pending_.end(); ++it) {
    if ((*it)->request.priority > (*best)->request.priority ||
        ((*it)->request.priority == (*best)->request.priority &&
         (*it)->id < (*best)->id)) {
      best = it;
    }
  }
  std::shared_ptr<Record> out = *best;
  pending_.erase(best);
  return out;
}

bool QueryService::Compatible(const Record& lead, const Record& other) {
  return other.request.allow_shared && !other.request.checkpoint.enabled() &&
         other.request.table == lead.request.table &&
         other.request.workflow->schema() == lead.request.workflow->schema();
}

int QueryService::CountCompatibleLocked(const Record& lead) const {
  int count = 0;
  for (const std::shared_ptr<Record>& record : pending_) {
    if (Compatible(lead, *record)) ++count;
  }
  return count;
}

void QueryService::CollectCompatibleLocked(
    const Record& lead, size_t max_members,
    std::vector<std::shared_ptr<Record>>* batch) {
  auto it = pending_.begin();
  while (it != pending_.end() && batch->size() < max_members) {
    if (Compatible(lead, **it)) {
      batch->push_back(*it);
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
}

ParallelEvalOptions QueryService::BaseEvalOptions() const {
  ParallelEvalOptions eval;
  eval.num_mappers = options_.num_mappers;
  eval.num_reducers = options_.num_reducers;
  if (options_.num_threads > 0) {
    eval.num_threads = options_.num_threads;
  } else {
    const int hw =
        static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
    eval.num_threads = std::max(1, hw / std::max(1, options_.num_workers));
  }
  eval.local_agg = options_.local_agg;
  eval.columnar = options_.columnar;
  eval.fault_plan = options_.fault_plan;
  eval.trace = trace_;
  return eval;
}

int64_t QueryService::ReserveBytesFor(const Table& table) const {
  int64_t bytes = options_.per_query_reserve_bytes;
  if (bytes <= 0) {
    // Projected shuffle footprint of one pass: every row ships once as a
    // (key, row) pair of int64s.
    bytes = table.num_rows() * (table.row_width() * 2) *
            static_cast<int64_t>(sizeof(int64_t));
  }
  if (budget_ != nullptr) bytes = std::min(bytes, budget_->capacity());
  return std::max<int64_t>(1, bytes);
}

void QueryService::UpdateGaugesLocked() {
  queue_depth_gauge_->Set(static_cast<double>(pending_.size()));
  inflight_gauge_->Set(static_cast<double>(in_flight_));
}

void QueryService::CompleteLocked(Record& record, QueryState state,
                                  Status status) {
  if (record.state == QueryState::kRunning) {
    --in_flight_;
    record.run_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      record.start_time)
            .count();
  }
  record.state = state;
  record.status = std::move(status);
  switch (state) {
    case QueryState::kDone:
      ++stats_.completed;
      stats_.latency_seconds.Add(SecondsSince(record.submit_time));
      break;
    case QueryState::kFailed: ++stats_.failed; break;
    case QueryState::kCancelled: ++stats_.cancelled; break;
    case QueryState::kExpired: ++stats_.expired; break;
    default: break;
  }
  done_cv_.notify_all();
}

// ---------------------------------------------------------------------------
// Execution

void QueryService::RunBatch(std::vector<std::shared_ptr<Record>> batch) {
  // Members cancelled while held in the batching window never run.
  std::vector<std::shared_ptr<Record>> live;
  {
    std::unique_lock<std::mutex> lock(mu_);
    for (const std::shared_ptr<Record>& record : batch) {
      if (record->cancel_requested || stopping_) {
        CompleteLocked(*record, QueryState::kCancelled,
                       Status::Cancelled("cancelled before evaluation"));
      } else {
        live.push_back(record);
      }
    }
    if (!live.empty() && live.size() > 1) {
      batch_size_gauge_->Set(static_cast<double>(live.size()));
    }
  }
  if (live.empty()) return;

  // Admission: one reservation covers the whole batch — shared batches
  // make one pass over one table, and a fallback runs its members
  // sequentially, so the footprint is one job either way.
  const int64_t reserve_bytes = ReserveBytesFor(*live[0]->request.table);
  if (budget_ != nullptr) {
    const CancellationToken* gate = &live[0]->cancel;
    Status admitted = budget_->Reserve(reserve_bytes, gate);
    if (!admitted.ok()) {
      std::unique_lock<std::mutex> lock(mu_);
      for (const std::shared_ptr<Record>& record : live) {
        CompleteLocked(*record, StateFor(admitted), admitted);
      }
      return;
    }
  }

  if (live.size() > 1) {
    RunShared(live);
  } else {
    RunSolo(live[0]);
  }
  if (budget_ != nullptr) budget_->Release(reserve_bytes);
}

void QueryService::RunShared(
    const std::vector<std::shared_ptr<Record>>& members) {
  const Table& table = *members[0]->request.table;
  const int num_reducers = options_.num_reducers;

  // Batch control block: one engine token for the shared job, running
  // under the LONGEST member deadline (sharing never tightens one).
  auto control = std::make_shared<Batch>(&stop_token_);
  bool all_deadlined = true;
  std::chrono::steady_clock::time_point max_deadline{};
  {
    std::unique_lock<std::mutex> lock(mu_);
    control->live_members = static_cast<int>(members.size());
    for (const std::shared_ptr<Record>& record : members) {
      record->batch = control;
      if (record->has_deadline) {
        max_deadline = std::max(max_deadline, record->deadline);
      } else {
        all_deadlined = false;
      }
    }
  }
  if (all_deadlined) control->token.set_deadline(max_deadline);

  // One plan for the concatenated workflow — feasible for every member.
  std::vector<const Workflow*> workflows;
  std::vector<SharedQuery> queries;
  workflows.reserve(members.size());
  queries.reserve(members.size());
  for (const std::shared_ptr<Record>& record : members) {
    workflows.push_back(record->request.workflow);
    queries.push_back(SharedQuery{record->request.workflow, record->label});
  }
  Status plan_error;
  std::optional<ExecutionPlan> plan;
  Result<Workflow> merged = ConcatWorkflows(workflows);
  if (merged.ok()) {
    plan = cache_->FindFeasible(merged.value(), table.num_rows(),
                                num_reducers);
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (plan.has_value()) ++stats_.plan_cache_hits;
      else ++stats_.plan_cache_misses;
    }
    if (!plan.has_value()) {
      OptimizerOptions opt;
      opt.num_reducers = num_reducers;
      opt.num_records = table.num_rows();
      opt.cancel = &control->token;
      Result<ExecutionPlan> optimized = OptimizePlan(merged.value(), opt);
      if (optimized.ok()) plan = std::move(optimized).value();
      else plan_error = optimized.status();
    }
  } else {
    plan_error = merged.status();
  }

  if (!plan.has_value()) {
    // No feasible shared plan: fall back to per-query evaluation. This
    // is the correctness escape hatch — sharing is an optimization only.
    {
      std::unique_lock<std::mutex> lock(mu_);
      ++stats_.shared_fallbacks;
      for (const std::shared_ptr<Record>& record : members) {
        record->batch = nullptr;
      }
    }
    for (const std::shared_ptr<Record>& record : members) RunSolo(record);
    return;
  }
  // A cached plan may have been remembered by a solo run; shared
  // evaluation needs raw redistribution and member-neutral sort order.
  plan->early_aggregation = false;
  plan->combined_sort = false;

  ParallelEvalOptions eval = BaseEvalOptions();
  eval.cancel = &control->token;
  eval.query_label = "svcb" + std::to_string(members[0]->id);

  if (trace_->enabled()) {
    trace_->RecordInstant("svc", "svc-shared-batch", /*task=*/-1,
                          "queries=" + std::to_string(members.size()));
  }

  Result<SharedEvalResult> run =
      EvaluateParallelShared(queries, table, *plan, eval);

  std::unique_lock<std::mutex> lock(mu_);
  ++stats_.scan_passes;
  if (run.ok()) {
    ++stats_.shared_batches;
    stats_.shared_queries += static_cast<int64_t>(members.size());
    SharedEvalResult result = std::move(run).value();
    for (size_t i = 0; i < members.size(); ++i) {
      Record& record = *members[i];
      record.plan = *plan;
      record.shared = true;
      record.batch_queries = static_cast<int>(members.size());
      record.metrics = result.metrics;
      record.local_stats = result.queries[i].local_stats;
      record.batch = nullptr;
      if (record.cancel_requested) {
        CompleteLocked(record, QueryState::kCancelled,
                       Status::Cancelled("cancelled while running"));
      } else {
        record.results = std::move(result.queries[i].results);
        CompleteLocked(record, QueryState::kDone, Status::OK());
      }
    }
    cache_->Remember(*plan, static_cast<double>(result.metrics.MaxReducerPairs()),
                     table.num_rows(), num_reducers);
  } else {
    for (const std::shared_ptr<Record>& record : members) {
      record->plan = *plan;
      record->shared = true;
      record->batch_queries = static_cast<int>(members.size());
      record->batch = nullptr;
      if (record->cancel_requested) {
        CompleteLocked(*record, QueryState::kCancelled,
                       Status::Cancelled("cancelled while running"));
      } else {
        CompleteLocked(*record, StateFor(run.status()), run.status());
      }
    }
  }
}

void QueryService::RunSolo(const std::shared_ptr<Record>& record) {
  const Workflow& wf = *record->request.workflow;
  const Table& table = *record->request.table;
  const int num_reducers = options_.num_reducers;

  std::optional<ExecutionPlan> plan =
      cache_->FindFeasible(wf, table.num_rows(), num_reducers);
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (plan.has_value()) ++stats_.plan_cache_hits;
    else ++stats_.plan_cache_misses;
  }
  if (!plan.has_value()) {
    OptimizerOptions opt;
    opt.num_reducers = num_reducers;
    opt.num_records = table.num_rows();
    opt.cancel = &record->cancel;
    Result<ExecutionPlan> optimized = OptimizePlan(wf, opt);
    if (!optimized.ok()) {
      std::unique_lock<std::mutex> lock(mu_);
      CompleteLocked(*record, StateFor(optimized.status()),
                     optimized.status());
      return;
    }
    plan = std::move(optimized).value();
  }

  ParallelEvalOptions eval = BaseEvalOptions();
  eval.cancel = &record->cancel;
  eval.query_label = record->label;
  eval.checkpoint = record->request.checkpoint;

  Result<ParallelEvalResult> run = EvaluateParallel(wf, table, *plan, eval);

  std::unique_lock<std::mutex> lock(mu_);
  ++stats_.scan_passes;
  ++stats_.solo_queries;
  record->plan = *plan;
  if (run.ok()) {
    ParallelEvalResult result = std::move(run).value();
    record->metrics = std::move(result.metrics);
    record->local_stats = result.local_stats;
    if (record->cancel_requested) {
      CompleteLocked(*record, QueryState::kCancelled,
                     Status::Cancelled("cancelled while running"));
    } else {
      record->results = std::move(result.results);
      CompleteLocked(*record, QueryState::kDone, Status::OK());
      cache_->Remember(*plan,
                       static_cast<double>(record->metrics.MaxReducerPairs()),
                       table.num_rows(), num_reducers);
    }
  } else if (record->cancel_requested) {
    CompleteLocked(*record, QueryState::kCancelled,
                   Status::Cancelled("cancelled while running"));
  } else {
    CompleteLocked(*record, StateFor(run.status()), run.status());
  }
}

}  // namespace casm

// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.

#include "svc/query_service.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/logging.h"
#include "core/optimizer.h"

namespace casm {
namespace {

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

QueryService::QueryService(QueryServiceOptions options)
    : options_(std::move(options)), obs_(options_.trace) {
  if (options_.memory_budget_bytes > 0) {
    budget_ = std::make_unique<MemoryBudget>(options_.memory_budget_bytes);
  }
  cache_.set_observer(&obs_);
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
  auto record = std::make_shared<Record>();
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
  return it->second->outcome.state;
}

Result<QueryOutcome> QueryService::Wait(QueryId id) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = records_.find(id);
  if (it == records_.end()) {
    return Status::NotFound("unknown query id " + std::to_string(id));
  }
  const std::shared_ptr<Record> record = it->second;
  done_cv_.wait(lock, [&] {
    return record->outcome.state != QueryState::kQueued &&
           record->outcome.state != QueryState::kRunning;
  });
  return record->outcome;
}

bool QueryService::Cancel(QueryId id) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = records_.find(id);
  if (it == records_.end()) return false;
  const std::shared_ptr<Record>& record = it->second;
  switch (record->outcome.state) {
    case QueryState::kQueued: {
      record->cancel_requested = true;
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
      if (record->batch != nullptr && --record->batch->live_members == 0) {
        // Last live member gone: nobody is waiting for the job.
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
  const PlanCacheStats cache = cache_.stats();
  out.plan_cache_hits = cache.hits;
  out.plan_cache_misses = cache.misses;
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
        record->outcome.state = QueryState::kRunning;
        record->start_time = now;
        record->outcome.queue_seconds =
            std::chrono::duration<double>(now - record->submit_time).count();
        record->outcome.run_sequence = next_run_sequence_++;
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
  eval.fault_plan = options_.fault_plan;
  eval.trace = obs_.trace();
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
  obs::Observe(&obs_, {.kind = obs::Kind::kSvcQueue,
                       .n = {static_cast<int64_t>(pending_.size()),
                             in_flight_}});
}

void QueryService::CompleteLocked(Record& record, QueryState state,
                                  Status status) {
  if (record.outcome.state == QueryState::kRunning) {
    --in_flight_;
    record.outcome.run_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      record.start_time)
            .count();
  }
  record.outcome.state = state;
  record.outcome.status = std::move(status);
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
  // Members cancelled while held in the batching window never run. The
  // rest share one engine token for the job, running under the LONGEST
  // member deadline (sharing never tightens one), armed before the
  // token is shared.
  std::vector<std::shared_ptr<Record>> members;
  auto job = std::make_shared<Batch>(&stop_token_);
  {
    std::unique_lock<std::mutex> lock(mu_);
    bool all_deadlined = true;
    std::chrono::steady_clock::time_point max_deadline{};
    for (const std::shared_ptr<Record>& record : batch) {
      if (record->cancel_requested || stopping_) {
        CompleteLocked(*record, QueryState::kCancelled,
                       Status::Cancelled("cancelled before evaluation"));
        continue;
      }
      members.push_back(record);
      if (record->has_deadline) {
        max_deadline = std::max(max_deadline, record->deadline);
      } else {
        all_deadlined = false;
      }
    }
    if (members.empty()) return;
    if (all_deadlined) job->token.set_deadline(max_deadline);
    job->live_members = static_cast<int>(members.size());
    for (const std::shared_ptr<Record>& record : members) record->batch = job;
    if (members.size() > 1) {
      obs::Observe(&obs_, {.kind = obs::Kind::kSvcBatch,
                           .n = {static_cast<int64_t>(members.size())}});
    }
  }
  const size_t n = members.size();
  const Table& table = *members[0]->request.table;
  const int num_reducers = options_.num_reducers;
  // The cost model needs at least one record: an empty table plans as
  // one.
  const int64_t plan_records = std::max<int64_t>(1, table.num_rows());

  // Admission: one reservation covers the whole batch, which makes one
  // pass over one table.
  const int64_t reserve_bytes = ReserveBytesFor(table);
  Status status = budget_ != nullptr
                      ? budget_->Reserve(reserve_bytes, &job->token)
                      : Status::OK();
  std::optional<ExecutionPlan> plan;
  std::vector<ParallelEvalResult> results;
  if (status.ok()) {
    Result<ExecutionPlan> planned = PlanFor(members, plan_records, &job->token);
    if (planned.ok()) {
      plan = std::move(planned).value();
      if (n > 1) {
        // A cached plan may have been remembered by a solo run; several
        // members need raw redistribution and a member-neutral sort
        // order.
        plan->early_aggregation = false;
        plan->combined_sort = false;
      }
      std::vector<BatchQuery> queries;
      queries.reserve(n);
      for (const std::shared_ptr<Record>& record : members) {
        queries.push_back(BatchQuery{record->request.workflow, record->label});
      }
      ParallelEvalOptions eval = BaseEvalOptions();
      eval.cancel = &job->token;
      eval.query_label =
          n > 1 ? "svcb" + std::to_string(members[0]->id) : members[0]->label;
      // Only a batch of one can checkpoint (Compatible).
      eval.checkpoint = members[0]->request.checkpoint;
      Result<std::vector<ParallelEvalResult>> run =
          EvaluateParallelBatch(queries, table, *plan, eval);
      if (run.ok()) {
        results = std::move(run).value();
      } else {
        status = run.status();
      }
    } else {
      status = planned.status();
    }
    if (budget_ != nullptr) budget_->Release(reserve_bytes);
  }

  if (status.ok()) {
    cache_.Remember(*plan,
                    static_cast<double>(results[0].metrics.MaxReducerPairs()),
                    plan_records, num_reducers);
  }
  std::unique_lock<std::mutex> lock(mu_);
  // Every planned batch is counted, failed or not, so solo_queries +
  // shared_queries is the number of queries evaluated.
  if (plan.has_value()) {
    ++stats_.scan_passes;
    if (n == 1) {
      ++stats_.solo_queries;
    } else {
      ++stats_.shared_batches;
      stats_.shared_queries += static_cast<int64_t>(n);
    }
  }
  for (size_t i = 0; i < n; ++i) {
    Record& record = *members[i];
    record.batch = nullptr;
    if (plan.has_value()) {
      record.outcome.plan = *plan;
      record.outcome.shared = n > 1;
      record.outcome.batch_queries = static_cast<int>(n);
    }
    if (status.ok()) {
      record.outcome.metrics = std::move(results[i].metrics);
      record.outcome.local_stats = results[i].local_stats;
    }
    if (record.cancel_requested) {
      CompleteLocked(record, QueryState::kCancelled,
                     Status::Cancelled("cancelled while running"));
    } else if (!status.ok()) {
      CompleteLocked(record, StateFor(status), status);
    } else {
      record.outcome.results = std::move(results[i].results);
      CompleteLocked(record, QueryState::kDone, Status::OK());
    }
  }
}

Result<ExecutionPlan> QueryService::PlanFor(
    const std::vector<std::shared_ptr<Record>>& members, int64_t records,
    const CancellationToken* cancel) {
  // Feasibility holds per measure, so a plan for the concatenation is
  // feasible for every member.
  std::optional<Workflow> concat;
  if (members.size() > 1) {
    std::vector<const Workflow*> workflows;
    workflows.reserve(members.size());
    for (const std::shared_ptr<Record>& record : members) {
      workflows.push_back(record->request.workflow);
    }
    CASM_ASSIGN_OR_RETURN(concat, ConcatWorkflows(workflows));
  }
  const Workflow& wf =
      concat.has_value() ? *concat : *members[0]->request.workflow;
  std::optional<ExecutionPlan> cached =
      cache_.FindFeasible(wf, records, options_.num_reducers);
  if (cached.has_value()) return *std::move(cached);
  OptimizerOptions opt;
  opt.num_reducers = options_.num_reducers;
  opt.num_records = records;
  opt.cancel = cancel;
  return OptimizePlan(wf, opt);
}

}  // namespace casm

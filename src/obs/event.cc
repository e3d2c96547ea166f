// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.

#include "obs/event.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <mutex>

#include "mr/metrics.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/progress.h"

namespace casm {
namespace obs {
namespace {

/// A counter family a kind bumps, by one or (`by` >= 0) by payload n[by],
/// under at most one label.
struct Family {
  const char* name = nullptr;
  const char* help = nullptr;
  const char* label_key = nullptr;
  const char* label_value = nullptr;
  int by = -1;
};

/// What a kind means to each sink; null = the sink never sees it. A
/// trace name continues with the task ("map t3") or the event's name
/// ("basic m1") when `suffix` says so.
enum class Suffix { kNone, kTask, kName };
struct Spec {
  const char* category = nullptr;
  const char* name = nullptr;
  bool instant = false;
  Suffix suffix = Suffix::kNone;
  const char* flight_category = nullptr;
  const char* flight = nullptr;
  std::array<Family, 3> counters = {};
};

constexpr const char* kFailed = "casm_tasks_failed_total";
constexpr const char* kFailedHelp =
    "Task attempts that failed (both retried and terminal).";
constexpr const char* kRetried = "casm_tasks_retried_total";
constexpr const char* kRetriedHelp = "Failed task attempts that were replayed.";
constexpr const char* kBlocks = "casm_localagg_blocks_total";
constexpr const char* kBlocksHelp =
    "Reducer blocks evaluated, by local aggregation engine.";
constexpr bool kSpan = false;
constexpr bool kInstant = true;

// clang-format off
constexpr Spec kSpecs[] = {
  {},  // kRaw
  {"map", "map t", kSpan, Suffix::kTask, "task", nullptr,
   {{{kFailed, kFailedHelp, "phase", "map"},
     {kRetried, kRetriedHelp, "phase", "map"}}}},
  {"reduce", "reduce t", kSpan, Suffix::kTask, "task", nullptr,
   {{{kFailed, kFailedHelp, "phase", "reduce"},
     {kRetried, kRetriedHelp, "phase", "reduce"}}}},
  {}, {},  // kMapPhaseBegin, kReducePhaseBegin: progress only
  {"phase", "map"}, {"phase", "reduce"},
  {},  // kReduceModeled: progress only
  {},  // kBackupLaunch: the run's fold only
  {"job", "mr-run"},
  {"pool", "queue-wait"},
  {"memory", "admission"},
  {nullptr, nullptr, kSpan, Suffix::kNone, nullptr, nullptr,  // wait
   {{{"casm_admission_waits_total",
      "Memory reservations that had to queue for admission."}}}},
  {"memory", "emitter-spill", kInstant, Suffix::kNone, "memory",
   "emitter-spill",
   {{{"casm_emitter_spills_total",
      "Map-side spill events (each writes >= 1 sorted run to disk)."},
     {"casm_emitter_spilled_records_total",
      "Pairs written to disk by map-side emitter spills.", nullptr, nullptr, 1},
     {"casm_emitter_spilled_bytes_total",
      "Bytes written to disk by map-side emitter spills.", nullptr, nullptr,
      2}}}},
  {"memory", "sort-spill", kInstant},
  {nullptr, nullptr, kSpan, Suffix::kNone, nullptr, nullptr,  // kTraceDropped
   {{{"casm_trace_dropped_spans_total",
      "Trace spans dropped at the per-thread event cap.", nullptr, nullptr,
      0}}}},
  {"localagg", "sortscan", kSpan, Suffix::kNone, nullptr, nullptr,
   {{{kBlocks, kBlocksHelp, "engine", "sortscan"}}}},
  {"localagg", "morsel", kSpan, Suffix::kNone, nullptr, nullptr,
   {{{kBlocks, kBlocksHelp, "engine", "morsel"}}}},
  {"localagg", "combiner-flush", kInstant},
  {"localagg", "combiner-bypass", kInstant},
  {"eval", "evaluate-parallel"},
  {"eval", "evaluate-shared"},
  {"eval", "result-union"},
  {"job", "basic ", kSpan, Suffix::kName},
  {"job", "composite ", kSpan, Suffix::kName},
  {"ckpt", "ckpt-restore ", kSpan, Suffix::kName, nullptr, nullptr,
   {{{"casm_ckpt_bytes_restored_total",
      "Bytes restored from committed checkpoint entries instead of "
      "recomputed.", nullptr, nullptr, 0}}}},
  {"ckpt", "ckpt-write ", kSpan, Suffix::kName, nullptr, nullptr,
   {{{"casm_ckpt_bytes_written_total",
      "Bytes committed to the checkpoint volume (entry header + label "
      "+ payload).", nullptr, nullptr, 0}}}},
  {"ckpt", "ckpt-skipped ", kInstant, Suffix::kName, "ckpt", "ckpt-skipped",
   {{{"casm_ckpt_commits_skipped_total",
      "Checkpoint commits skipped while the breaker was open."}}}},
  {nullptr, nullptr, kSpan, Suffix::kNone, "ckpt", "ckpt-commit-failed"},
  {"ckpt", "ckpt-degraded", kInstant, Suffix::kNone, "ckpt", "breaker-open"},
  {"ckpt", "ckpt-degraded", kInstant},
  {}, {},  // kQueryDone, kSharedQueryDone: the casm_query_* families
  {"dfs", "dfs-read"},
  {"dfs", "dfs-write"},
  {"dfs", "dfs-scrub"},
  {"dfs", "dfs-retry", kInstant, Suffix::kNone, "dfs", "dfs-retry",
   {{{"casm_dfs_io_retries_total",
      "DFS replica I/O attempts that were retried."}}}},
  {"dfs", "dfs-failover", kInstant, Suffix::kNone, "dfs", "dfs-failover",
   {{{"casm_dfs_write_failovers_total",
      "Blocks whose preferred replica placement failed over to another "
      "node."}}}},
  {nullptr, nullptr, kSpan, Suffix::kNone, "dfs", "dfs-under-replicated",
   {{{"casm_dfs_under_replicated_blocks_total",
      "Blocks committed with fewer replicas than the target."}}}},
  {nullptr, nullptr, kSpan, Suffix::kNone, "dfs", "dfs-corrupt",
   {{{"casm_dfs_corrupt_replicas_total",
      "Replica reads that failed size/CRC verification."}}}},
  {"dfs", "dfs-repair", kInstant, Suffix::kNone, "dfs", "dfs-repair",
   {{{"casm_dfs_repaired_replicas_total",
      "Corrupt or missing replicas rewritten from a good copy."}}}},
  {"plancache", "hit", kInstant, Suffix::kNone, nullptr, nullptr,
   {{{"casm_plan_cache_hits_total",
      "Plan-cache lookups that returned a feasible plan"}}}},
  {"plancache", "miss", kInstant, Suffix::kNone, nullptr, nullptr,
   {{{"casm_plan_cache_misses_total",
      "Plan-cache lookups that found no feasible plan"}}}},
  {"plancache", "evict", kInstant, Suffix::kNone, nullptr, nullptr,
   {{{"casm_plan_cache_evictions_total",
      "Plans evicted from the plan cache at capacity"}}}},
  {nullptr, nullptr, kSpan, Suffix::kNone, nullptr, nullptr,  // insert
   {{{"casm_plan_cache_inserts_total",
      "Plans newly remembered by the plan cache"}}}},
  {},  // kSvcQueue: gauges
  {"svc", "svc-shared-batch", kInstant},  // kSvcBatch, and a gauge
};
// clang-format on
static_assert(std::size(kSpecs) == static_cast<size_t>(Kind::kCount),
              "one Spec per obs::Kind, in declaration order");

const Spec& SpecOf(Kind kind) { return kSpecs[static_cast<size_t>(kind)]; }

/// casm_query_<field>_total{query}: each counter equals its
/// MapReduceMetrics field, by construction of the name.
struct QueryCounter {
  const char* name;
  const char* help;
  int64_t MapReduceMetrics::*field;
};
#define QUERY_COUNTER(field, help) \
  { "casm_query_" #field "_total", help, &MapReduceMetrics::field }
constexpr QueryCounter kQueryCounters[] = {
    QUERY_COUNTER(input_rows, "Input rows consumed by the query"),
    QUERY_COUNTER(emitted_pairs,
                  "Key/value pairs emitted by the query's mappers"),
    QUERY_COUNTER(spilled_runs,
                  "Reduce-side external-sort runs spilled to disk"),
    QUERY_COUNTER(spilled_records, "Reduce-side records spilled to disk"),
    QUERY_COUNTER(emitter_spilled_runs,
                  "Map-side emitter runs spilled to disk"),
    QUERY_COUNTER(emitter_spilled_records, "Map-side pairs spilled to disk"),
    QUERY_COUNTER(emitter_spilled_bytes,
                  "Bytes of map-side pairs spilled to disk"),
    QUERY_COUNTER(admission_waits,
                  "Task launches that queued for memory-budget admission"),
    QUERY_COUNTER(task_failures, "Task attempts that failed (faults, non-OK "
                                 "statuses, exceptions)"),
    QUERY_COUNTER(task_retries, "Task attempts re-run after a failure"),
    QUERY_COUNTER(speculative_attempts, "Speculative backup attempts launched"),
    QUERY_COUNTER(speculative_wins,
                  "Speculative attempts that beat the primary"),
    QUERY_COUNTER(cancelled_attempts,
                  "Attempts cancelled mid-flight or after losing the race"),
    QUERY_COUNTER(checkpoint_jobs_restored, "Jobs restored from the checkpoint "
                                            "log instead of recomputed"),
    QUERY_COUNTER(checkpoint_bytes_written,
                  "Checkpoint payload bytes committed"),
    QUERY_COUNTER(checkpoint_bytes_restored,
                  "Checkpoint payload bytes restored"),
    QUERY_COUNTER(checkpoint_commit_failures, "Checkpoint commits that failed"),
    QUERY_COUNTER(checkpoint_commits_skipped,
                  "Checkpoint commits skipped by the open circuit breaker"),
    QUERY_COUNTER(checkpoint_restore_failures,
                  "Checkpoint restores that failed verification"),
    QUERY_COUNTER(dfs_io_retries,
                  "DFS replica operations replayed after backoff"),
    QUERY_COUNTER(dfs_write_failovers,
                  "DFS replicas placed off their preferred node"),
    QUERY_COUNTER(dfs_corrupt_replicas,
                  "DFS replica checksum mismatches observed"),
    QUERY_COUNTER(dfs_repaired_replicas,
                  "DFS replicas rewritten from a good copy"),
    QUERY_COUNTER(dfs_under_replicated_blocks,
                  "DFS blocks observed below their replication target"),
};
#undef QUERY_COUNTER

/// A kind's fixed-label counter, resolved once: GetCounter locks the
/// registry, and block-rate kinds must not. A racing first use resolves
/// the same instrument twice, harmlessly.
MetricsRegistry::Counter* CounterOf(Kind kind, int slot) {
  static std::array<std::atomic<MetricsRegistry::Counter*>,
                    static_cast<size_t>(Kind::kCount) * 3>
      cache{};
  auto& cell = cache[static_cast<size_t>(kind) * 3 + slot];
  MetricsRegistry::Counter* counter = cell.load(std::memory_order_acquire);
  if (counter == nullptr) {
    const Family& f = SpecOf(kind).counters[slot];
    MetricLabels labels;
    if (f.label_key != nullptr) labels.emplace_back(f.label_key, f.label_value);
    counter = MetricsRegistry::Global()->GetCounter(f.name, f.help, labels);
    cell.store(counter, std::memory_order_release);
  }
  return counter;
}

void Count(const Context& ctx, const Event& e) {
  MetricsRegistry* const registry = MetricsRegistry::Global();
  auto gauge = [&](const char* name, const char* help, double value,
                   const MetricLabels& labels = {}) {
    registry->GetGauge(name, help, labels)->Set(value);
  };
  switch (e.kind) {
    case Kind::kMapAttempt:
    case Kind::kReduceAttempt:
      // Retried and terminal failures both count as failed.
      if (e.outcome == TraceOutcome::kRetried) {
        CounterOf(e.kind, 1)->IncrementAlways(1);
      } else if (e.outcome != TraceOutcome::kFailed) {
        return;
      }
      CounterOf(e.kind, 0)->IncrementAlways(1);
      return;
    case Kind::kCkptRestore:
    case Kind::kCkptWrite:
      if (e.outcome != TraceOutcome::kOk) return;
      break;
    case Kind::kAdmissionWait: {
      static MetricsRegistry::Histogram* const wait_seconds =
          registry->GetHistogram(
              "casm_admission_wait_seconds",
              "Seconds individual reservations spent queued for admission.");
      wait_seconds->ObserveAlways(e.seconds());
      break;
    }
    case Kind::kQueryDone: {
      if (ctx.query().empty()) return;
      const MetricLabels labels = {{"query", ctx.query()}};
      for (const QueryCounter& c : kQueryCounters) {
        registry->GetCounter(c.name, c.help, labels)
            ->IncrementAlways(e.metrics->*c.field);
      }
      gauge("casm_query_peak_tracked_bytes",
            "High-water mark of bytes tracked against the query's budget",
            static_cast<double>(e.metrics->peak_tracked_bytes), labels);
      gauge("casm_query_admission_wait_seconds",
            "Total seconds the query's tasks waited for admission",
            e.metrics->admission_wait_seconds, labels);
      gauge("casm_query_total_seconds",
            "Wall-clock seconds of the query's last run",
            e.metrics->total_seconds, labels);
      return;
    }
    case Kind::kSharedQueryDone: {
      // Only the work that is genuinely this member's own (mr/metrics.h).
      const SharedQueryAttribution& q = *e.share;
      const MetricLabels labels = {{"query", q.query}};
      auto count = [&](const char* name, const char* help, int64_t value) {
        registry->GetCounter(name, help, labels)->IncrementAlways(value);
      };
      count("casm_query_shared_jobs_total",
            "Shared multi-query jobs this query rode in", 1);
      count("casm_query_shared_local_records_total",
            "Rows this query's local evaluation scanned inside shared jobs",
            q.local_records);
      count("casm_query_shared_result_values_total",
            "Measure values delivered to this query by shared jobs",
            q.result_values);
      count("casm_query_shared_results_filtered_total",
            "Values dropped by this query's ownership filter inside shared "
            "jobs",
            q.results_filtered);
      gauge("casm_query_shared_local_eval_seconds",
            "Local sort+evaluate seconds this query spent in its last "
            "shared job",
            q.local_eval_seconds, labels);
      gauge("casm_query_shared_batch_queries",
            "Queries in the last shared batch this query rode in",
            static_cast<double>(e.n[0]), labels);
      return;
    }
    case Kind::kSvcQueue:
      gauge("casm_svc_queue_depth", "Queries waiting in the admission queue",
            static_cast<double>(e.n[0]));
      gauge("casm_svc_inflight", "Queries currently being evaluated",
            static_cast<double>(e.n[1]));
      return;
    case Kind::kSvcBatch:
      gauge("casm_svc_batch_queries", "Members of the most recent shared batch",
            static_cast<double>(e.n[0]));
      return;
    default:
      break;
  }
  const Spec& spec = SpecOf(e.kind);
  for (int slot = 0; slot < 3 && spec.counters[slot].name != nullptr; ++slot) {
    const int by = spec.counters[slot].by;
    CounterOf(e.kind, slot)->IncrementAlways(by < 0 ? 1 : e.n[by]);
  }
}

/// The ring's detail: the trace detail, except where it says more.
std::string FlightDetail(const Event& e) {
  switch (e.kind) {
    case Kind::kMapAttempt:
    case Kind::kReduceAttempt:
      return SpecOf(e.kind).category + (": " + std::string(e.text));
    case Kind::kCkptSkipped:
      return "breaker open: commit of '" + std::string(e.name) + "' skipped";
    case Kind::kCkptBreakerOpen: return std::string(e.text);
    default: return RenderDetail(e.kind, e.n, e.outcome, e.text);
  }
}

void Record(TraceRecorder* trace, const Spec& spec, const Event& e) {
  TraceEvent ev;
  ev.instant = spec.instant;
  ev.category = spec.category;
  ev.name = spec.name;
  if (spec.suffix == Suffix::kTask) ev.name += std::to_string(e.task);
  if (spec.suffix == Suffix::kName) ev.name += e.name;
  ev.start_seconds = e.start;
  ev.duration_seconds = spec.instant ? 0 : std::max(0.0, e.seconds());
  ev.task = e.task;
  ev.attempt = e.attempt;
  ev.job = spec.instant ? -1 : e.job;  // instants carry no job arg
  ev.outcome = e.outcome;
  ev.detail = e.text;
  ev.kind = e.kind;
  std::copy(e.n, e.n + 3, ev.payload);
  trace->Record(std::move(ev));
}

void Progress(ProgressTracker* progress, const Event& e) {
  // A task resolves with the attempt that won it.
  const bool won = e.outcome == TraceOutcome::kOk ||
                   e.outcome == TraceOutcome::kSpeculativeWin;
  switch (e.kind) {
    case Kind::kMapPhaseBegin: progress->BeginPhase("map", e.n[0]); break;
    case Kind::kReducePhaseBegin: progress->BeginPhase("reduce", e.n[0]); break;
    case Kind::kMapAttempt: if (won) progress->TaskFinished("map"); break;
    case Kind::kReduceAttempt: if (won) progress->TaskFinished("reduce"); break;
    case Kind::kReduceModeled:
      progress->SetModeledRemainingSeconds("reduce", e.seconds());
      break;
    default: break;
  }
}

constexpr uint64_t Bit(Kind kind) {
  return uint64_t{1} << static_cast<unsigned>(kind);
}
static_assert(static_cast<size_t>(Kind::kCount) <= 64,
              "Context::routes keeps one bit per kind");

/// The engine kinds a run's context folds into its MapReduceMetrics.
constexpr uint64_t kFolded =
    Bit(Kind::kMapAttempt) | Bit(Kind::kReduceAttempt) |
    Bit(Kind::kBackupLaunch) | Bit(Kind::kEmitterSpill) |
    Bit(Kind::kSortSpill) | Bit(Kind::kAdmissionWait) | Bit(Kind::kRun);

/// Folds one engine event into its run's metrics (mr/metrics.h says what
/// each field counts). The caller holds the run's lock.
void Fold(const Event& e, MapReduceMetrics* m) {
  switch (e.kind) {
    case Kind::kMapAttempt:
    case Kind::kReduceAttempt: {
      const bool map = e.kind == Kind::kMapAttempt;
      AttemptOutcomes& o = map ? m->map_attempts : m->reduce_attempts;
      switch (e.outcome) {
        case TraceOutcome::kOk: ++o.ok; break;
        case TraceOutcome::kRetried:
          ++o.retried;
          ++m->task_retries;
          ++m->task_failures;
          break;
        case TraceOutcome::kFailed:
          ++o.failed;
          ++m->task_failures;
          break;
        case TraceOutcome::kSpeculativeWin:
          ++o.speculative_wins;
          ++m->speculative_wins;
          break;
        case TraceOutcome::kCancelled:
          // Its duration measures cancellation latency, not work.
          ++o.cancelled;
          ++m->cancelled_attempts;
          return;
        case TraceOutcome::kNone: return;
      }
      (map ? m->map_attempt_digest : m->reduce_attempt_digest)
          .Add(e.seconds());
      return;
    }
    case Kind::kBackupLaunch: ++m->speculative_attempts; return;
    case Kind::kEmitterSpill:
      m->emitter_spilled_runs += e.n[0];
      m->emitter_spilled_records += e.n[1];
      m->emitter_spilled_bytes += e.n[2];
      return;
    case Kind::kSortSpill:
      ++m->spilled_runs;
      m->spilled_records += e.n[0];
      return;
    case Kind::kAdmissionWait:
      ++m->admission_waits;
      m->admission_wait_seconds += e.seconds();
      return;
    case Kind::kRun: m->FinishAttemptQuantiles(); return;
    default: return;
  }
}

}  // namespace

std::string RenderDetail(Kind kind, const int64_t n[3], TraceOutcome outcome,
                         std::string_view text) {
  auto num = [](int64_t v) { return std::to_string(v); };
  const std::string t(text);
  switch (kind) {
    case Kind::kMapPhase:
    case Kind::kReducePhase: return "tasks=" + num(n[0]);
    case Kind::kRun: return "mappers=" + num(n[0]) + " reducers=" + num(n[1]);
    case Kind::kAdmission: return "bytes=" + num(n[0]);
    case Kind::kEmitterSpill:
      return "runs=" + num(n[0]) + " records=" + num(n[1]);
    case Kind::kSortSpill: return "records=" + num(n[0]);
    case Kind::kSortScanBlock:
    case Kind::kMorselBlock: return "rows=" + num(n[0]);
    case Kind::kCombinerFlush: return "pairs=" + num(n[0]);
    case Kind::kCombinerBypass:
      return "retained=" + std::to_string(static_cast<double>(n[0]) /
                                          static_cast<double>(n[1]));
    case Kind::kEvaluate:
    case Kind::kBasicJob:
    case Kind::kCompositeJob: return "key=" + t;
    case Kind::kEvaluateShared: return "queries=" + num(n[0]) + " key=" + t;
    case Kind::kResultUnion:
      return "results=" + num(n[0]) + " task_sets=" + num(n[1]);
    case Kind::kCkptRestore:
    case Kind::kCkptWrite:
      return outcome == TraceOutcome::kOk ? "bytes=" + num(n[0]) : t;
    case Kind::kCkptSkipped: return "breaker open";
    case Kind::kCkptBreakerOpen: return "breaker open: " + t;
    case Kind::kDfsRetry:
      return (n[1] != 0 ? "write node=" : "read node=") + num(n[0]) + " " + t;
    case Kind::kDfsFailover: return t + " off node " + num(n[0]);
    case Kind::kDfsCorrupt:
    case Kind::kDfsRepair:
      return t + " node " + num(n[0]) +
             (n[2] != 0                  ? " (scrub)"
              : kind == Kind::kDfsRepair ? " from node " + num(n[1])
                                         : "");
    case Kind::kSvcBatch: return "queries=" + num(n[0]);
    default: return t;
  }
}

Context::Context(TraceRecorder* trace, std::string query,
                 std::unique_ptr<ProgressTracker>* progress,
                 MapReduceMetrics* run)
    : trace_(trace != nullptr ? trace : TraceRecorder::Global()),
      query_(std::move(query)),
      tracing_(trace_->enabled()),
      metrics_(MetricsRegistry::Global()->enabled()),
      flight_(FlightRecorder::Global()->enabled()),
      run_(run) {
  if (progress != nullptr && !query_.empty()) {
    if (*progress == nullptr || (*progress)->query() != query_) {
      progress->reset();
      const double ticker_seconds = ProgressTracker::TickerSecondsFromEnv();
      if (metrics_ || ticker_seconds > 0) {
        *progress = std::make_unique<ProgressTracker>(query_);
        (*progress)->StartTicker(ticker_seconds);  // no-op at 0
      }
    }
    progress_ = progress->get();
  }
  if (run_ != nullptr && tracing_) {
    dropped_at_start_ = trace_->dropped_events();
  }
  // Some sink on: every kind; none: an engine run's folded kinds only.
  const bool sinks = tracing_ || metrics_ || flight_ || progress_ != nullptr;
  routed_ = sinks ? ~uint64_t{0} : run_ != nullptr ? kFolded : 0;
}

void ObserveActive(const Context& ctx, const Event& event) {
  const Spec& spec = SpecOf(event.kind);
  Event e = event;
  // Instants, and spans that end now, are stamped here.
  if (ctx.tracing_ && spec.category != nullptr && (spec.instant || !e.end)) {
    e.end = ctx.Now();
    if (spec.instant) e.start = e.end;
  }
  if (ctx.tracing_ && spec.category != nullptr) Record(ctx.trace_, spec, e);
  const char* flight = spec.flight;
  if (spec.suffix == Suffix::kTask) {  // an attempt: failures reach the ring
    flight = e.outcome == TraceOutcome::kFailed    ? "task-failed"
             : e.outcome == TraceOutcome::kRetried ? "task-retried"
                                                   : nullptr;
  }
  if (ctx.flight_ && flight != nullptr) {
    // The ring's task column holds the job of job-scoped events.
    FlightRecorder::Global()->Record(spec.flight_category, flight,
                                     e.job >= 0 ? e.job : e.task, e.attempt,
                                     FlightDetail(e), ctx.query_);
  }
  if (ctx.metrics_) Count(ctx, e);
  if (ctx.progress_ != nullptr) Progress(ctx.progress_, e);
  if (ctx.run_ == nullptr || (kFolded & Bit(e.kind)) == 0) return;
  {
    std::unique_lock<std::mutex> lock(ctx.run_mu_);
    Fold(e, ctx.run_);
  }
  if (e.kind == Kind::kRun && ctx.tracing_) {
    // Only spans dropped during this run: one process running many jobs
    // must not re-report old losses.
    const int64_t lost = ctx.trace_->dropped_events() - ctx.dropped_at_start_;
    if (lost > 0) {
      ObserveActive(ctx, {.kind = Kind::kTraceDropped, .n = {lost}});
    }
  }
}

bool QueryLabelsObserved() {
  const char* progress = std::getenv("CASM_PROGRESS");
  return MetricsRegistry::Global()->enabled() ||
         FlightRecorder::Global()->enabled() ||
         !FlightRecorder::GlobalDiagDir().empty() ||
         (progress != nullptr && progress[0] != '\0');
}

}  // namespace obs
}  // namespace casm

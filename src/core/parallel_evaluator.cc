// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.

#include "core/parallel_evaluator.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <deque>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "agg/batch.h"
#include "agg/combiner.h"
#include "agg/local_aggregator.h"
#include "common/logging.h"
#include "common/math.h"
#include "core/coverage.h"
#include "core/eval_internal.h"
#include "core/keygen.h"
#include "data/record_batch.h"
#include "local/derivation.h"
#include "mr/engine.h"
#include "obs/event.h"
#include "obs/flight_recorder.h"

namespace casm {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// The map task's record walk over the split [begin, end): scans it as
/// columnar RecordBatches of `batch_rows` rows, maps each key attribute
/// to its key level with one vectorized pass per column, and calls
/// `visit(block key, row)` once per block that must contain a record.
/// With `emit_batches` (no key attribute is region-annotated, so
/// ForEachBlock degenerates to first == last == g and every record
/// belongs to exactly one block) each whole batch ships through the
/// emitter's columnar path instead, values taken straight from the
/// contiguous row-major table slice. Every batch size emits bit-identical
/// shuffle output. Returns early once the attempt is cancelled (deadline,
/// lost speculation race): the engine discards a cancelled attempt's
/// output, so a partially-emitted split is safe.
template <typename Visit>
void WalkSplit(const Table& table, const Schema& schema,
               const std::vector<KeyGenAttr>& keygen, int64_t batch_rows,
               bool emit_batches, int64_t begin, int64_t end,
               Emitter* emitter, const Visit& visit) {
  const int num_attrs = schema.num_attributes();
  std::vector<int64_t> g(static_cast<size_t>(num_attrs));
  std::vector<int64_t> key(static_cast<size_t>(num_attrs));
  RecordBatch batch(table.row_width(), batch_rows);
  std::vector<std::vector<int64_t>> g_cols(static_cast<size_t>(num_attrs));
  std::vector<const int64_t*> g_ptrs(static_cast<size_t>(num_attrs));
  for (int a = 0; a < num_attrs; ++a) {
    g_cols[static_cast<size_t>(a)].resize(static_cast<size_t>(batch_rows));
    g_ptrs[static_cast<size_t>(a)] = g_cols[static_cast<size_t>(a)].data();
  }
  TableScan scan = table.Scan(batch_rows, begin, end);
  int64_t rb = begin;
  while (scan.Next(&batch)) {
    if (emitter->cancelled()) return;
    const int64_t bn = batch.num_rows();
    for (int a = 0; a < num_attrs; ++a) {
      schema.attribute(a).MapFromFinestColumn(
          batch.column(a), bn, keygen[static_cast<size_t>(a)].level,
          g_cols[static_cast<size_t>(a)].data());
    }
    if (emit_batches) {
      emitter->EmitBatch(g_ptrs.data(), table.row(rb), bn);
    } else {
      for (int64_t i = 0; i < bn; ++i) {
        for (int a = 0; a < num_attrs; ++a) {
          g[static_cast<size_t>(a)] =
              g_cols[static_cast<size_t>(a)][static_cast<size_t>(i)];
        }
        const int64_t* row = table.row(rb + i);
        ForEachBlock(keygen, g, &key,
                     [&](const int64_t* k) { visit(k, row); });
      }
    }
    rb += bn;
  }
}

/// The early-aggregation reduce (§III-D): merges the block's shipped
/// partial states per (measure, region), then derives the composite
/// measures. Returns early, with incomplete results, once the group's
/// attempt is cancelled.
MeasureResultSet MergePartialStates(const Workflow& wf,
                                    const GroupView& group) {
  const int num_attrs = wf.schema()->num_attributes();
  std::vector<std::unordered_map<Coords, Accumulator, CoordsHash>> acc(
      static_cast<size_t>(wf.num_measures()));
  MeasureResultSet block_results(wf.num_measures());
  double partial[Accumulator::kPartialSize];
  for (int64_t i = 0; i < group.size(); ++i) {
    if ((i & 4095) == 0 && group.cancelled()) return block_results;
    const int64_t* v = group.value(i);
    const int mi = static_cast<int>(v[0]);
    Coords coords(v + 1, v + 1 + num_attrs);
    for (int p = 0; p < Accumulator::kPartialSize; ++p) {
      partial[p] = std::bit_cast<double>(v[1 + num_attrs + p]);
    }
    Accumulator incoming = Accumulator::FromPartial(wf.measure(mi).fn, partial);
    auto& map = acc[static_cast<size_t>(mi)];
    auto it = map.find(coords);
    if (it == map.end()) {
      map.emplace(std::move(coords), std::move(incoming));
    } else {
      it->second.Merge(incoming);
    }
  }
  for (int mi : wf.BasicMeasures()) {
    MeasureValueMap& out_map = block_results.mutable_values(mi);
    for (auto& [coords, accumulator] : acc[static_cast<size_t>(mi)]) {
      out_map.emplace(coords, accumulator.Result());
    }
  }
  for (int i = 0; i < wf.num_measures(); ++i) {
    if (group.cancelled()) return block_results;
    if (wf.measure(i).op != MeasureOp::kAggregateRecords) {
      DeriveCompositeMeasure(wf, i, &block_results);
    }
  }
  return block_results;
}

/// One member's local machinery. The aggregator shares the sort/scan
/// plan with `local_eval`, so RowLess (combined sort) and the evaluator
/// can never disagree on order.
struct MemberEval {
  MemberEval(const Workflow& wf, const std::vector<KeyGenAttr>& keygen,
             const ParallelEvalOptions& options)
      : local_eval(&wf),
        agg(MakeLocalAggregator(&wf, &local_eval, options.local_agg)),
        sets(wf, keygen, options.num_reducers) {}
  SortScanEvaluator local_eval;
  std::unique_ptr<LocalAggregator> agg;
  eval_internal::TaskSets sets;
};

}  // namespace

std::string DescribeOptions(const ParallelEvalOptions& options) {
  auto num = [](int64_t v) { return std::to_string(v); };
  const char* phase = "full";
  switch (options.phase) {
    case ParallelEvalPhase::kMapOnly: phase = "map-only"; break;
    case ParallelEvalPhase::kShuffleOnly: phase = "shuffle-only"; break;
    case ParallelEvalPhase::kLocalSortOnly: phase = "local-sort-only"; break;
    case ParallelEvalPhase::kFull: break;
  }
  std::string out = "{";
  out += "\"num_mappers\":" + num(options.num_mappers);
  out += ",\"num_reducers\":" + num(options.num_reducers);
  out += ",\"num_threads\":" + num(options.num_threads);
  out += ",\"phase\":\"" + std::string(phase) + "\"";
  out += ",\"memory_budget_bytes\":" + num(options.memory_budget_bytes);
  out += ",\"emitter_spill_threshold_bytes\":" +
         num(options.emitter_spill_threshold_bytes);
  out += ",\"reducer_memory_limit_pairs\":" +
         num(options.reducer_memory_limit_pairs);
  out += ",\"max_task_attempts\":" + num(options.max_task_attempts);
  out += ",\"retry_backoff_initial_ms\":" +
         num(options.retry_backoff_initial_ms);
  char deadline[32];
  std::snprintf(deadline, sizeof(deadline), "%.6g", options.deadline_seconds);
  out += ",\"deadline_seconds\":" + std::string(deadline);
  out += ",\"speculative_execution\":";
  out += options.speculative_execution ? "true" : "false";
  out += ",\"checkpoint\":";
  out += options.checkpoint.enabled() ? "true" : "false";
  out += "}";
  return out;
}

Result<ParallelEvalResult> EvaluateParallel(
    const Workflow& wf, const Table& table, const ExecutionPlan& plan,
    const ParallelEvalOptions& options) {
  CASM_ASSIGN_OR_RETURN(std::vector<ParallelEvalResult> out,
                        EvaluateParallelBatch({BatchQuery{&wf, ""}}, table,
                                              plan, options));
  return std::move(out.front());
}

Result<std::vector<ParallelEvalResult>> EvaluateParallelBatch(
    const std::vector<BatchQuery>& members, const Table& table,
    const ExecutionPlan& plan, const ParallelEvalOptions& options) {
  if (members.empty()) {
    return Status::InvalidArgument("evaluation needs >= 1 workflow");
  }
  for (const BatchQuery& q : members) {
    if (q.workflow == nullptr) {
      return Status::InvalidArgument("evaluation: null workflow");
    }
    if (q.workflow->schema() != members[0].workflow->schema()) {
      return Status::InvalidArgument(
          "evaluation: batch members must share one schema instance");
    }
    CASM_RETURN_IF_ERROR(CheckFeasible(*q.workflow, plan.key));
  }
  if (plan.clustering_factor < 1) {
    return Status::InvalidArgument("clustering factor must be >= 1");
  }
  const size_t n_members = members.size();
  const bool batch = n_members > 1;
  if (batch && (plan.early_aggregation || plan.combined_sort ||
                options.phase != ParallelEvalPhase::kFull ||
                options.checkpoint.enabled())) {
    return Status::InvalidArgument(
        "a batch of several workflows runs the full phase with raw-record "
        "redistribution, no combined sort and no checkpoint");
  }
  // Early aggregation and checkpointing imply a single member.
  const Workflow& wf = *members[0].workflow;
  if (plan.early_aggregation) {
    for (int i : wf.BasicMeasures()) {
      if (ClassOf(wf.measure(i).fn) == AggregateClass::kHolistic) {
        return Status::InvalidArgument(
            "early aggregation requires distributive/algebraic basic "
            "measures; '" +
            wf.measure(i).name + "' is holistic");
      }
    }
  }
  const Schema& schema = *wf.schema();

  // ---- Observability resolution, once per evaluation: the trace, and
  // the query label stamped on everything the run reports (a batch's is
  // the caller's). On every non-OK exit below, a diagnostic bundle (the
  // flight ring, a metrics snapshot and the resolved options) goes to
  // CASM_DIAG_DIR, if set.
  const std::string query_label =
      batch ? options.query_label
            : eval_internal::QueryLabel(options, wf, table);
  const obs::Context obs(options.trace, query_label);
  const auto diagnose = [&](const Status& failure) {
    MaybeWriteDiagnosticBundle(query_label, failure, DescribeOptions(options));
  };

  // Checkpointed single-pass evaluation: the full result set is one log
  // entry keyed by the (workflow, table) fingerprint. The entry label is
  // plan-independent because every feasible plan computes identical
  // results, so a committed run short-circuits re-runs under any plan.
  std::optional<CheckpointLog> ckpt;
  DfsVolumeStats dfs_base;
  int64_t ckpt_restore_failures = 0;
  if (options.checkpoint.enabled() &&
      options.phase == ParallelEvalPhase::kFull) {
    CASM_RETURN_IF_ERROR(
        eval_internal::OpenCheckpoint(options, wf, table, &ckpt, &dfs_base));
    const double restore_start = obs.Now();
    int64_t bytes_restored = 0;
    Result<MeasureResultSet> restored =
        ckpt->TryRestoreResultSet("result", &bytes_restored);
    obs::Observe(&obs, {.kind = obs::Kind::kCkptRestore,
                        .outcome = obs::Outcome(restored.ok()),
                        .start = restore_start, .n = {bytes_restored},
                        .name = "result",
                        .text = restored.status().ToString()});
    if (restored.ok() &&
        restored.value().num_measures() == wf.num_measures()) {
      // A failed restore (never committed, torn, stale) falls through
      // to a normal evaluation — corruption degrades to recompute.
      std::vector<ParallelEvalResult> out(1);
      out[0].results = std::move(restored).value();
      out[0].metrics.checkpoint_jobs_restored = 1;
      out[0].metrics.checkpoint_bytes_restored = bytes_restored;
      eval_internal::ApplyDfsStats(ckpt, dfs_base, &out[0].metrics);
      obs::Observe(&obs, {.kind = obs::Kind::kQueryDone,
                          .metrics = &out[0].metrics});
      return out;
    }
    if (!restored.ok() &&
        restored.status().code() != StatusCode::kNotFound) {
      // Corrupt/torn/stale entry: recompute, but leave a trace of why.
      ckpt_restore_failures = 1;
    }
  }

  const int num_attrs = schema.num_attributes();
  const std::vector<KeyGenAttr> keygen = BuildKeyGen(schema, plan);
  // Per-member local machinery (src/agg): sort/scan for combined-sort
  // blocks, the hash group-by otherwise. A deque keeps each member's
  // address stable: its aggregator points at its sort/scan plan.
  std::deque<MemberEval> evals;
  for (const BatchQuery& q : members) {
    evals.emplace_back(*q.workflow, keygen, options);
  }

  std::vector<ParallelEvalResult> out(n_members);
  MapReduceEngine engine(options.num_threads);
  MapReduceSpec spec;
  spec.num_mappers = options.num_mappers;
  spec.num_reducers = options.num_reducers;
  spec.key_width = num_attrs;
  spec.map_only = options.phase == ParallelEvalPhase::kMapOnly;
  spec.skip_reduce = options.phase == ParallelEvalPhase::kShuffleOnly;
  static_cast<EngineOptions&>(spec) = options;
  spec.query_label = query_label;

  DistributedFile::Assignment dfs_assignment;
  double input_locality = 1.0;
  if (options.input_file != nullptr) {
    const DistributedFile& file = *options.input_file;
    dfs_assignment = file.AssignSplits(options.num_mappers);
    input_locality = dfs_assignment.LocalityFraction();
    spec.split_fn = [&file, &dfs_assignment](int mapper) {
      std::vector<std::pair<int64_t, int64_t>> ranges;
      for (int b : dfs_assignment.mapper_blocks[static_cast<size_t>(mapper)]) {
        ranges.emplace_back(file.block(b).begin_row, file.block(b).end_row);
      }
      return ranges;
    };
  }

  // Rows per RecordBatch of the map walk (WalkSplit).
  const int64_t map_batch_rows =
      agg_internal::ResolveBatchRows(options.local_agg.batch_rows);

  if (!plan.early_aggregation) {
    // ---- Raw-record redistribution: one shuffle serves every member.
    spec.value_width = table.row_width();
    bool any_annotated = false;
    for (const KeyGenAttr& kg : keygen) any_annotated |= kg.annotated;
    spec.map_fn = [&, any_annotated](int64_t begin, int64_t end,
                                     Emitter* emitter) {
      WalkSplit(table, schema, keygen, map_batch_rows, !any_annotated, begin,
                end, emitter, [emitter](const int64_t* k, const int64_t* row) {
                  emitter->Emit(k, row);
                });
    };
    if (plan.combined_sort) {
      spec.value_less = [&local_eval = evals.front().local_eval](
                            const int64_t* a, const int64_t* b) {
        return local_eval.RowLess(a, b);
      };
    }
    const LocalEvalPhase local_phase =
        options.phase == ParallelEvalPhase::kLocalSortOnly
            ? LocalEvalPhase::kSortOnly
            : LocalEvalPhase::kFull;
    // Every member reads the same copy of the block's rows in shuffle
    // order: local evaluation never writes to its input (sort/scan sorts
    // an index permutation). A cancelled block still goes to every
    // member, so each member's set records it.
    spec.reduce_fn = [&, local_phase](int reducer, const GroupView& group) {
      const std::vector<int64_t> rows = group.CopyValues();
      for (MemberEval& m : evals) {
        m.sets.EvaluateBlock(reducer, group, rows.data(), *m.agg,
                             plan.combined_sort, local_phase);
      }
    };
  } else {
    // ---- Early aggregation (§III-D): mappers pre-aggregate the basic
    // measures per (block, measure, region) and ship mergeable partial
    // states instead of raw records.
    spec.value_width = 1 + num_attrs + Accumulator::kPartialSize;
    spec.map_fn = [&](int64_t begin, int64_t end, Emitter* emitter) {
      // Per-split adaptive combiner (agg/combiner.h): a bounded table of
      // (block, measure, region) -> partial state, flushed to the shuffle
      // when full and bypassed outright when the split's groups turn out
      // near-unique. It takes one record at a time because its bounded
      // table, flush timing and bypass decision are order-sensitive, so
      // the batch size must not change what it ships.
      EarlyAggCombiner combiner(&wf, options.local_agg);
      WalkSplit(table, schema, keygen, map_batch_rows, /*emit_batches=*/false,
                begin, end, emitter,
                [&](const int64_t* k, const int64_t* row) {
                  combiner.AddRecord(k, row, emitter);
                });
      if (!emitter->cancelled()) combiner.Flush(emitter);
    };
    spec.reduce_fn = [&, &sets = evals.front().sets](int reducer,
                                                     const GroupView& group) {
      LocalEvalStats stats;
      if (options.phase != ParallelEvalPhase::kFull) {
        sets.AddBlock(reducer, group, nullptr, stats);
        return;
      }
      auto eval_start = std::chrono::steady_clock::now();
      MeasureResultSet block_results = MergePartialStates(wf, group);
      // These are shuffled partial-state pairs, not raw input records —
      // counting them as `records` would inflate the early-agg path's
      // stats relative to raw redistribution.
      stats.merged_partials += group.size();
      stats.eval_seconds += SecondsSince(eval_start);
      sets.AddBlock(reducer, group, &block_results, stats);
    };
  }

  const double eval_start = obs.Now();
  Result<MapReduceMetrics> run = engine.Run(spec, table.num_rows());
  obs::Observe(&obs, {.kind = batch ? obs::Kind::kEvaluateShared
                                    : obs::Kind::kEvaluate,
                      .outcome = obs::Outcome(run.ok()), .start = eval_start,
                      .n = {static_cast<int64_t>(n_members)},
                      .text = obs.tracing() ? plan.key.ToString(schema)
                                            : std::string()});
  if (!run.ok()) {
    // The engine message already names the failing phase and task id.
    Status failed(run.status().code(),
                  "parallel evaluation failed: " + run.status().message());
    diagnose(failed);
    return failed;
  }
  MapReduceMetrics metrics = std::move(run).value();
  const double union_start = obs.Now();
  int64_t union_results = 0;
  for (size_t i = 0; i < n_members; ++i) {
    Result<eval_internal::TaskSet> assembled = evals[i].sets.Union();
    if (!assembled.ok()) {
      diagnose(assembled.status());
      return assembled.status();
    }
    ParallelEvalResult& r = out[i];
    r.results = std::move(assembled->results);
    r.local_stats = assembled->local_stats;
    r.blocks_evaluated = assembled->blocks;
    r.results_filtered = assembled->filtered;
    r.input_locality = input_locality;
    union_results += r.results.TotalResults();
  }
  obs::Observe(&obs, {.kind = obs::Kind::kResultUnion, .start = union_start,
                      .n = {union_results, static_cast<int64_t>(n_members) *
                                               options.num_reducers}});
  if (ckpt.has_value()) {
    const double write_start = obs.Now();
    Result<int64_t> bytes = ckpt->CommitResultSet("result", out[0].results);
    obs::Observe(&obs, {.kind = obs::Kind::kCkptWrite,
                        .outcome = obs::Outcome(bytes.ok()),
                        .start = write_start,
                        .n = {bytes.ok() ? bytes.value() : 0}, .name = "result",
                        .text = bytes.status().ToString()});
    if (bytes.ok()) {
      metrics.checkpoint_bytes_written = bytes.value();
    } else {
      // Graceful degradation (DESIGN.md §12): a failing checkpoint store
      // loses durability, never the completed evaluation.
      metrics.checkpoint_commit_failures = 1;
      metrics.checkpoint_degraded = true;
      obs::Observe(&obs, {.kind = obs::Kind::kCkptDegraded,
                          .text = bytes.status().ToString()});
    }
  }
  metrics.checkpoint_restore_failures = ckpt_restore_failures;
  eval_internal::ApplyDfsStats(ckpt, dfs_base, &metrics);
  // The job's scan/shuffle counters publish once under the query label;
  // batch members get exactly their own reduce-side work.
  obs::Observe(&obs, {.kind = obs::Kind::kQueryDone, .metrics = &metrics});
  for (size_t i = 0; i < n_members; ++i) {
    if (!batch || members[i].label.empty()) continue;
    const ParallelEvalResult& r = out[i];
    SharedQueryAttribution attr;
    attr.query = members[i].label;
    attr.local_records = r.local_stats.records;
    attr.local_eval_seconds =
        r.local_stats.sort_seconds + r.local_stats.eval_seconds;
    attr.result_values = r.results.TotalResults();
    attr.results_filtered = r.results_filtered;
    obs::Observe(&obs, {.kind = obs::Kind::kSharedQueryDone,
                        .n = {static_cast<int64_t>(n_members)},
                        .share = &attr});
  }
  for (size_t i = 0; i + 1 < n_members; ++i) out[i].metrics = metrics;
  out.back().metrics = std::move(metrics);
  return out;
}

}  // namespace casm

// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.

#include "core/parallel_evaluator.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <optional>
#include <unordered_map>
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
  out += ",\"columnar\":";
  out += options.columnar ? "true" : "false";
  out += "}";
  return out;
}

Result<ParallelEvalResult> EvaluateParallel(
    const Workflow& wf, const Table& table, const ExecutionPlan& plan,
    const ParallelEvalOptions& options) {
  const Schema& schema = *wf.schema();
  CASM_RETURN_IF_ERROR(CheckFeasible(wf, plan.key));
  if (plan.clustering_factor < 1) {
    return Status::InvalidArgument("clustering factor must be >= 1");
  }
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

  // ---- Observability resolution, once per evaluation: the trace, and
  // the query label stamped on everything the run reports. On every
  // non-OK exit below, a diagnostic bundle (the flight ring, a metrics
  // snapshot and the resolved options) goes to CASM_DIAG_DIR, if set.
  const std::string query_label = eval_internal::QueryLabel(options, wf, table);
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
      ParallelEvalResult out;
      out.results = std::move(restored).value();
      out.metrics.checkpoint_jobs_restored = 1;
      out.metrics.checkpoint_bytes_restored = bytes_restored;
      eval_internal::ApplyDfsStats(ckpt, dfs_base, &out.metrics);
      obs::Observe(&obs, {.kind = obs::Kind::kQueryDone,
                          .metrics = &out.metrics});
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
  const SortScanEvaluator local_eval(&wf);
  // Per-block local evaluation (src/agg): sort/scan for combined-sort
  // blocks, the hash group-by otherwise. Shares the sort/scan plan with
  // `local_eval` so RowLess (combined sort) and the evaluator can never
  // disagree on order.
  const std::unique_ptr<LocalAggregator> local_agg =
      MakeLocalAggregator(&wf, &local_eval, options.local_agg);
  // Referenced by the map/reduce lambdas below: must outlive engine.Run().
  const int early_agg_value_width = 1 + num_attrs + Accumulator::kPartialSize;

  ParallelEvalResult out;
  eval_internal::ResultSink sink;
  sink.results = MeasureResultSet(wf.num_measures());

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
  if (options.input_file != nullptr) {
    const DistributedFile& file = *options.input_file;
    dfs_assignment = file.AssignSplits(options.num_mappers);
    out.input_locality = dfs_assignment.LocalityFraction();
    spec.split_fn = [&file, &dfs_assignment](int mapper) {
      std::vector<std::pair<int64_t, int64_t>> ranges;
      for (int b : dfs_assignment.mapper_blocks[static_cast<size_t>(mapper)]) {
        ranges.emplace_back(file.block(b).begin_row, file.block(b).end_row);
      }
      return ranges;
    };
  }

  // Map-side batch size: > 0 routes the map loops below through columnar
  // RecordBatch slices of the split with one vectorized key-level mapping
  // pass per attribute; 0 keeps the row-at-a-time loops. Both paths emit
  // bit-identical shuffle output (keygen.h / mr/engine.h contracts).
  const int64_t map_batch_rows =
      options.columnar
          ? agg_internal::ResolveBatchRows(options.local_agg.batch_rows)
          : 0;

  if (!plan.early_aggregation) {
    // ---- Raw-record redistribution.
    spec.value_width = table.row_width();
    spec.map_fn = eval_internal::RawRecordMapFn(table, schema, keygen,
                                                map_batch_rows);
    if (plan.combined_sort) {
      spec.value_less = [&local_eval](const int64_t* a, const int64_t* b) {
        return local_eval.RowLess(a, b);
      };
    }
    spec.reduce_fn = [&](int reducer, const GroupView& group) {
      std::vector<int64_t> rows = group.CopyValues();
      LocalEvalStats stats;
      LocalAggContext ctx;
      ctx.rows = rows.data();
      ctx.n = group.size();
      ctx.assume_sorted = plan.combined_sort;
      ctx.phase = options.phase == ParallelEvalPhase::kLocalSortOnly
                      ? LocalEvalPhase::kSortOnly
                      : LocalEvalPhase::kFull;
      ctx.cancel = group.cancellation_token();
      ctx.obs = group.obs();
      ctx.task = reducer;
      MeasureResultSet block_results = local_agg->Evaluate(ctx, &stats);
      // A cancelled attempt's partial results must never reach the sink;
      // the surrounding run is failing with Cancelled/DeadlineExceeded.
      if (group.cancelled()) return;
      if (options.phase != ParallelEvalPhase::kFull) {
        sink.Merge(MeasureResultSet(wf.num_measures()), stats, 0);
        return;
      }
      int64_t filtered = 0;
      MeasureResultSet kept = eval_internal::FilterOwned(
          wf, keygen, group.key(), std::move(block_results), &filtered);
      sink.Merge(std::move(kept), stats, filtered);
    };
  } else {
    // ---- Early aggregation (§III-D): mappers pre-aggregate the basic
    // measures per (block, measure, region) and ship mergeable partial
    // states instead of raw records.
    spec.value_width = early_agg_value_width;

    spec.map_fn = [&](int64_t begin, int64_t end, Emitter* emitter) {
      // Per-split adaptive combiner (agg/combiner.h): a bounded table of
      // (block, measure, region) -> partial state, flushed to the shuffle
      // when full and bypassed outright when the split's groups turn out
      // near-unique.
      EarlyAggCombiner combiner(&wf, options.local_agg);
      std::vector<int64_t> g(static_cast<size_t>(num_attrs));
      std::vector<int64_t> key(static_cast<size_t>(num_attrs));
      if (map_batch_rows > 0) {
        // Columnar key-level mapping; the combiner itself stays per
        // record because its bounded table, flush timing and bypass
        // decision are order-sensitive, and batching must not change
        // what the row path would ship.
        RecordBatch batch(table.row_width(), map_batch_rows);
        std::vector<std::vector<int64_t>> g_cols(
            static_cast<size_t>(num_attrs));
        for (int a = 0; a < num_attrs; ++a) {
          g_cols[static_cast<size_t>(a)].resize(
              static_cast<size_t>(map_batch_rows));
        }
        TableScan scan = table.Scan(map_batch_rows, begin, end);
        int64_t rb = begin;
        while (scan.Next(&batch)) {
          if (emitter->cancelled()) return;
          const int64_t bn = batch.num_rows();
          for (int a = 0; a < num_attrs; ++a) {
            schema.attribute(a).MapFromFinestColumn(
                batch.column(a), bn, keygen[static_cast<size_t>(a)].level,
                g_cols[static_cast<size_t>(a)].data());
          }
          for (int64_t i = 0; i < bn; ++i) {
            for (int a = 0; a < num_attrs; ++a) {
              g[static_cast<size_t>(a)] =
                  g_cols[static_cast<size_t>(a)][static_cast<size_t>(i)];
            }
            const int64_t* row = table.row(rb + i);
            ForEachBlock(keygen, g, &key, [&](const int64_t* k) {
              combiner.AddRecord(k, row, emitter);
            });
          }
          rb += bn;
        }
        combiner.Flush(emitter);
        return;
      }
      for (int64_t r = begin; r < end; ++r) {
        if (((r - begin) & 1023) == 0 && emitter->cancelled()) return;
        const int64_t* row = table.row(r);
        for (int a = 0; a < num_attrs; ++a) {
          g[static_cast<size_t>(a)] = schema.attribute(a).MapFromFinest(
              row[a], keygen[static_cast<size_t>(a)].level);
        }
        ForEachBlock(keygen, g, &key, [&](const int64_t* k) {
          combiner.AddRecord(k, row, emitter);
        });
      }
      combiner.Flush(emitter);
    };
    spec.reduce_fn = [&](int reducer, const GroupView& group) {
      LocalEvalStats stats;
      if (options.phase != ParallelEvalPhase::kFull) {
        sink.Merge(MeasureResultSet(wf.num_measures()), stats, 0);
        return;
      }
      auto eval_start = std::chrono::steady_clock::now();
      // Merge partial states per (measure, region).
      std::vector<std::unordered_map<Coords, Accumulator, CoordsHash>> acc(
          static_cast<size_t>(wf.num_measures()));
      double partial[Accumulator::kPartialSize];
      for (int64_t i = 0; i < group.size(); ++i) {
        if ((i & 4095) == 0 && group.cancelled()) return;
        const int64_t* v = group.value(i);
        const int mi = static_cast<int>(v[0]);
        Coords coords(v + 1, v + 1 + num_attrs);
        for (int p = 0; p < Accumulator::kPartialSize; ++p) {
          partial[p] = std::bit_cast<double>(v[1 + num_attrs + p]);
        }
        Accumulator incoming =
            Accumulator::FromPartial(wf.measure(mi).fn, partial);
        auto& map = acc[static_cast<size_t>(mi)];
        auto it = map.find(coords);
        if (it == map.end()) {
          map.emplace(std::move(coords), std::move(incoming));
        } else {
          it->second.Merge(incoming);
        }
      }
      MeasureResultSet block_results(wf.num_measures());
      for (int mi : wf.BasicMeasures()) {
        MeasureValueMap& out_map = block_results.mutable_values(mi);
        for (auto& [coords, accumulator] : acc[static_cast<size_t>(mi)]) {
          out_map.emplace(coords, accumulator.Result());
        }
      }
      for (int i = 0; i < wf.num_measures(); ++i) {
        if (group.cancelled()) return;
        if (wf.measure(i).op != MeasureOp::kAggregateRecords) {
          DeriveCompositeMeasure(wf, i, &block_results);
        }
      }
      // These are shuffled partial-state pairs, not raw input records —
      // counting them as `records` would inflate the early-agg path's
      // stats relative to raw redistribution.
      stats.merged_partials += group.size();
      stats.eval_seconds += SecondsSince(eval_start);
      int64_t filtered = 0;
      MeasureResultSet kept = eval_internal::FilterOwned(
          wf, keygen, group.key(), std::move(block_results), &filtered);
      sink.Merge(std::move(kept), stats, filtered);
    };
  }

  const double eval_start = obs.Now();
  Result<MapReduceMetrics> run = engine.Run(spec, table.num_rows());
  obs::Observe(&obs, {.kind = obs::Kind::kEvaluate,
                      .outcome = obs::Outcome(run.ok()), .start = eval_start,
                      .text = obs.tracing() ? plan.key.ToString(schema)
                                            : std::string()});
  if (!run.ok()) {
    // The engine message already names the failing phase and task id.
    Status failed(run.status().code(),
                  "parallel evaluation failed: " + run.status().message());
    diagnose(failed);
    return failed;
  }
  out.metrics = std::move(run).value();
  if (!sink.first_error.ok()) {
    diagnose(sink.first_error);
    return sink.first_error;
  }
  out.results = std::move(sink.results);
  out.local_stats = sink.local_stats;
  out.blocks_evaluated = sink.blocks;
  out.results_filtered = sink.filtered;
  if (ckpt.has_value()) {
    const double write_start = obs.Now();
    Result<int64_t> bytes = ckpt->CommitResultSet("result", out.results);
    obs::Observe(&obs, {.kind = obs::Kind::kCkptWrite,
                        .outcome = obs::Outcome(bytes.ok()),
                        .start = write_start,
                        .n = {bytes.ok() ? bytes.value() : 0}, .name = "result",
                        .text = bytes.status().ToString()});
    if (bytes.ok()) {
      out.metrics.checkpoint_bytes_written = bytes.value();
    } else {
      // Graceful degradation (DESIGN.md §12): a failing checkpoint store
      // loses durability, never the completed evaluation.
      out.metrics.checkpoint_commit_failures = 1;
      out.metrics.checkpoint_degraded = true;
      obs::Observe(&obs, {.kind = obs::Kind::kCkptDegraded,
                          .text = bytes.status().ToString()});
    }
  }
  out.metrics.checkpoint_restore_failures = ckpt_restore_failures;
  eval_internal::ApplyDfsStats(ckpt, dfs_base, &out.metrics);
  obs::Observe(&obs, {.kind = obs::Kind::kQueryDone, .metrics = &out.metrics});
  return out;
}

}  // namespace casm

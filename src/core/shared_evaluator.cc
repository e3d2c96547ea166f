// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.

#include "core/shared_evaluator.h"

#include <memory>
#include <utility>
#include <vector>

#include "agg/batch.h"
#include "agg/local_aggregator.h"
#include "common/logging.h"
#include "core/coverage.h"
#include "core/eval_internal.h"
#include "core/keygen.h"
#include "local/sortscan_evaluator.h"
#include "mr/engine.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace casm {

Result<SharedEvalResult> EvaluateParallelShared(
    const std::vector<SharedQuery>& queries, const Table& table,
    const ExecutionPlan& plan, const ParallelEvalOptions& options) {
  if (queries.empty()) {
    return Status::InvalidArgument("shared evaluation needs >= 1 query");
  }
  for (const SharedQuery& q : queries) {
    if (q.workflow == nullptr) {
      return Status::InvalidArgument("shared evaluation: null workflow");
    }
    if (q.workflow->schema() != queries[0].workflow->schema()) {
      return Status::InvalidArgument(
          "shared evaluation: members must share one schema instance");
    }
    CASM_RETURN_IF_ERROR(CheckFeasible(*q.workflow, plan.key));
  }
  if (plan.clustering_factor < 1) {
    return Status::InvalidArgument("clustering factor must be >= 1");
  }
  if (plan.early_aggregation) {
    return Status::InvalidArgument(
        "shared evaluation requires raw-record redistribution "
        "(plan.early_aggregation must be false)");
  }
  if (plan.combined_sort) {
    return Status::InvalidArgument(
        "shared evaluation cannot use a combined framework sort "
        "(the sort order is member-specific)");
  }
  if (options.phase != ParallelEvalPhase::kFull) {
    return Status::InvalidArgument("shared evaluation runs kFull only");
  }
  if (options.checkpoint.enabled()) {
    return Status::InvalidArgument(
        "shared evaluation does not checkpoint; evaluate solo instead");
  }

  const Schema& schema = *queries[0].workflow->schema();
  const int num_attrs = schema.num_attributes();
  const std::vector<KeyGenAttr> keygen = BuildKeyGen(schema, plan);
  TraceRecorder* const trace =
      options.trace != nullptr ? options.trace : TraceRecorder::Global();

  // Per-member local machinery: same construction as a solo run, so the
  // per-block evaluation (engine choice included) cannot diverge from
  // what EvaluateParallel would do under this plan.
  const size_t n_members = queries.size();
  std::vector<std::unique_ptr<SortScanEvaluator>> local_evals(n_members);
  std::vector<std::unique_ptr<LocalAggregator>> local_aggs(n_members);
  std::vector<eval_internal::ResultSink> sinks(n_members);
  for (size_t i = 0; i < n_members; ++i) {
    const Workflow* wf = queries[i].workflow;
    local_evals[i] = std::make_unique<SortScanEvaluator>(wf);
    local_aggs[i] =
        MakeLocalAggregator(wf, local_evals[i].get(), options.local_agg);
    sinks[i].results = MeasureResultSet(wf->num_measures());
  }

  MapReduceEngine engine(options.num_threads);
  MapReduceSpec spec;
  spec.num_mappers = options.num_mappers;
  spec.num_reducers = options.num_reducers;
  spec.key_width = num_attrs;
  spec.value_width = table.row_width();
  static_cast<EngineOptions&>(spec) = options;

  // ---- Shared map phase: the solo evaluator's raw-record map task, so a
  // shared run's shuffle is pair-for-pair identical to a solo run's under
  // the same plan — the foundation of the bit-identical fanout contract
  // in the header.
  const int64_t map_batch_rows =
      options.columnar
          ? agg_internal::ResolveBatchRows(options.local_agg.batch_rows)
          : 0;
  spec.map_fn =
      eval_internal::RawRecordMapFn(table, schema, keygen, map_batch_rows);

  // ---- Shared reduce phase: one block, every member. Each member
  // evaluates a FRESH copy of the block's rows in shuffle order — the
  // local engines permute their input in place, and handing member k the
  // buffer member k-1 just sorted would change equal-key orderings (and
  // therefore float fold order) relative to a solo run.
  spec.reduce_fn = [&](int reducer, const GroupView& group) {
    const std::vector<int64_t> rows = group.CopyValues();
    for (size_t i = 0; i < n_members; ++i) {
      const Workflow& wf = *queries[i].workflow;
      std::vector<int64_t> member_rows = rows;
      LocalEvalStats stats;
      LocalAggContext ctx;
      ctx.rows = member_rows.data();
      ctx.n = group.size();
      ctx.assume_sorted = false;
      ctx.phase = LocalEvalPhase::kFull;
      ctx.cancel = group.cancellation_token();
      ctx.trace = trace;
      ctx.task = reducer;
      ctx.expected_groups_hint = plan.predicted_block_groups;
      MeasureResultSet block_results = local_aggs[i]->Evaluate(ctx, &stats);
      if (group.cancelled()) return;
      int64_t filtered = 0;
      MeasureResultSet kept = eval_internal::FilterOwned(
          wf, keygen, group.key(), std::move(block_results), &filtered);
      sinks[i].Merge(std::move(kept), stats, filtered);
    }
  };

  const bool tracing = trace->enabled();
  const double eval_start = tracing ? trace->NowSeconds() : 0;
  Result<MapReduceMetrics> run = engine.Run(spec, table.num_rows());
  if (tracing) {
    trace->RecordSpan("eval", "evaluate-shared", eval_start,
                      trace->NowSeconds(), /*task=*/-1, /*attempt=*/0,
                      run.ok() ? TraceOutcome::kOk : TraceOutcome::kFailed,
                      "queries=" + std::to_string(n_members) +
                          " key=" + plan.key.ToString(schema));
  }
  if (!run.ok()) {
    return Status(run.status().code(),
                  "shared evaluation failed: " + run.status().message());
  }

  SharedEvalResult out;
  out.metrics = std::move(run).value();
  out.queries.resize(n_members);
  std::vector<SharedQueryAttribution> attributions;
  attributions.reserve(n_members);
  for (size_t i = 0; i < n_members; ++i) {
    eval_internal::ResultSink& sink = sinks[i];
    if (!sink.first_error.ok()) return sink.first_error;
    SharedQueryResult& q = out.queries[i];
    q.results = std::move(sink.results);
    q.local_stats = sink.local_stats;
    q.blocks_evaluated = sink.blocks;
    q.results_filtered = sink.filtered;
    if (!queries[i].label.empty()) {
      SharedQueryAttribution attr;
      attr.query = queries[i].label;
      attr.local_records = q.local_stats.records;
      attr.local_eval_seconds =
          q.local_stats.sort_seconds + q.local_stats.eval_seconds;
      int64_t values = 0;
      for (int m = 0; m < q.results.num_measures(); ++m) {
        values += static_cast<int64_t>(q.results.values(m).size());
      }
      attr.result_values = values;
      attr.results_filtered = q.results_filtered;
      attributions.push_back(std::move(attr));
    }
  }
  // The shared job's scan/shuffle counters publish once under the batch
  // label; members get exactly their own reduce-side work.
  if (!options.query_label.empty()) {
    PublishQueryMetrics(MetricsRegistry::Global(), options.query_label,
                        out.metrics);
  }
  PublishSharedQueryMetrics(MetricsRegistry::Global(), attributions,
                            static_cast<int>(n_members));
  return out;
}

}  // namespace casm

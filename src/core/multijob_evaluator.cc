// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.

#include "core/multijob_evaluator.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <optional>
#include <unordered_map>
#include <vector>

#include "ckpt/checkpoint.h"
#include "common/logging.h"
#include "core/eval_internal.h"
#include "mr/engine.h"
#include "mr/external_sort.h"
#include "obs/event.h"
#include "obs/flight_recorder.h"

namespace casm {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Prefixes a failed job's status with which measure/job it belonged to;
/// the engine message below it names the failing phase and task.
Status AnnotateJobError(const Status& s, const char* kind,
                        const std::string& measure_name, int job_index) {
  return Status(s.code(), std::string("multi-job evaluation: ") + kind +
                              " job for measure '" + measure_name + "' (job " +
                              std::to_string(job_index) +
                              ") failed: " + s.message());
}

/// Evaluates one basic measure with its own repartition-the-raw-data job.
/// `options.trace` is the sequence's resolved recorder (never null).
Status RunBasicJob(const Workflow& wf, int index, const Table& table,
                   const ParallelEvalOptions& options, MapReduceEngine* engine,
                   MeasureResultSet* results, MapReduceMetrics* total) {
  const Schema& schema = *wf.schema();
  const Measure& m = wf.measure(index);
  const int num_attrs = schema.num_attributes();

  // Each task writes only its own table: only the execution that owns a
  // task's output calls reduce_fn for it (mr/engine.h), so none locks.
  eval_internal::TaskTables tables(options.num_reducers);

  MapReduceSpec spec;
  spec.num_mappers = options.num_mappers;
  spec.num_reducers = options.num_reducers;
  spec.key_width = num_attrs;
  spec.value_width = 1;
  static_cast<EngineOptions&>(spec) = options;
  spec.map_fn = [&](int64_t begin, int64_t end, Emitter* emitter) {
    for (int64_t r = begin; r < end; ++r) {
      if (((r - begin) & 1023) == 0 && emitter->cancelled()) return;
      const int64_t* row = table.row(r);
      Coords coords = RegionOfRecord(schema, m.granularity, row);
      int64_t value = row[m.field];
      emitter->Emit(coords.data(), &value);
    }
  };
  spec.reduce_fn = [&](int reducer, const GroupView& group) {
    Accumulator acc(m.fn);
    for (int64_t i = 0; i < group.size(); ++i) {
      if ((i & 4095) == 0 && tables.Cancelled(reducer, group)) return;
      acc.Add(static_cast<double>(group.value(i)[0]));
    }
    tables[reducer].emplace(Coords(group.key(), group.key() + num_attrs),
                            acc.Result());
  };
  const obs::Context obs(options.trace);
  const double job_start = obs.Now();
  Result<MapReduceMetrics> run = engine->Run(spec, table.num_rows());
  obs::Observe(&obs, {.kind = obs::Kind::kBasicJob, .job = index,
                      .outcome = obs::Outcome(run.ok()), .start = job_start,
                      .name = m.name,
                      .text = obs.tracing() ? m.granularity.ToString(schema)
                                            : std::string()});
  Status merged = run.status();
  if (merged.ok()) merged = tables.MergeInto(&results->mutable_values(index));
  if (!merged.ok()) return AnnotateJobError(merged, "basic", m.name, index);
  total->Accumulate(run.value());
  return Status::OK();
}

/// Evaluates one composite measure by repartitioning its sources' results
/// (a parallel join). Input rows: [edge_id, source coords..., value-bits].
/// `options.trace` is the sequence's resolved recorder (never null).
Status RunCompositeJob(const Workflow& wf, int index,
                       const ParallelEvalOptions& options,
                       MapReduceEngine* engine, MeasureResultSet* results,
                       MapReduceMetrics* total) {
  const Schema& schema = *wf.schema();
  const Measure& m = wf.measure(index);
  const int num_attrs = schema.num_attributes();
  const int row_width = 1 + num_attrs + 1;

  // Join key granularity: the LCA of the target and every parent-edge
  // source (values joining "downwards" must share a group with their
  // children).
  Granularity join_gran = m.granularity;
  for (const MeasureEdge& e : m.edges) {
    if (e.rel == Relationship::kParentChild) {
      join_gran = Granularity::Lca(join_gran, wf.measure(e.source).granularity);
    }
  }

  // Materialize the job input: one row per (edge, source result). The
  // rows come out in the source maps' iteration order, which is not
  // reproducible across processes (and differs between a computed map
  // and one restored from a checkpoint); sort them into (edge, coords)
  // order so a resumed run feeds every downstream job bit-identical
  // float accumulation sequences.
  std::vector<int64_t> input;
  for (size_t ei = 0; ei < m.edges.size(); ++ei) {
    const MeasureEdge& e = m.edges[ei];
    for (const auto& [coords, value] : results->values(e.source)) {
      input.push_back(static_cast<int64_t>(ei));
      input.insert(input.end(), coords.begin(), coords.end());
      input.push_back(std::bit_cast<int64_t>(value));
    }
  }
  input = SortRecords(std::move(input), row_width,
                      [row_width](const int64_t* a, const int64_t* b) {
                        return std::lexicographical_compare(
                            a, a + row_width, b, b + row_width);
                      });
  const int64_t num_input = static_cast<int64_t>(input.size()) / row_width;

  eval_internal::TaskTables tables(options.num_reducers);

  MapReduceSpec spec;
  spec.num_mappers = options.num_mappers;
  spec.num_reducers = options.num_reducers;
  spec.key_width = num_attrs;
  spec.value_width = row_width;  // [edge, target-or-parent coords, bits]
  static_cast<EngineOptions&>(spec) = options;
  spec.map_fn = [&](int64_t begin, int64_t end, Emitter* emitter) {
    std::vector<int64_t> value(static_cast<size_t>(row_width));
    for (int64_t r = begin; r < end; ++r) {
      if (((r - begin) & 1023) == 0 && emitter->cancelled()) return;
      const int64_t* row = input.data() + r * row_width;
      const size_t ei = static_cast<size_t>(row[0]);
      const MeasureEdge& e = m.edges[ei];
      const Measure& src = wf.measure(e.source);
      Coords coords(row + 1, row + 1 + num_attrs);
      value[0] = row[0];
      value[static_cast<size_t>(row_width) - 1] = row[row_width - 1];
      auto emit_for = [&](const Coords& target_or_parent,
                          const Granularity& gran) {
        Coords key = MapRegionUp(schema, gran, target_or_parent, join_gran);
        std::copy(target_or_parent.begin(), target_or_parent.end(),
                  value.begin() + 1);
        emitter->Emit(key.data(), value.data());
      };
      switch (e.rel) {
        case Relationship::kSelf:
          emit_for(coords, m.granularity);
          break;
        case Relationship::kChildParent:
          emit_for(MapRegionUp(schema, src.granularity, coords, m.granularity),
                   m.granularity);
          break;
        case Relationship::kParentChild:
          emit_for(coords, src.granularity);
          break;
        case Relationship::kSibling: {
          // Map-side window expansion: a source at c feeds targets in
          // [c - hi, c - lo], clipped to the domain.
          const SiblingRange& range = e.sibling;
          const size_t attr = static_cast<size_t>(range.attr);
          const int64_t domain_max =
              schema.attribute(range.attr)
                  .LevelValueCount(m.granularity.level(range.attr)) -
              1;
          int64_t first = std::max<int64_t>(0, coords[attr] - range.hi);
          int64_t last = std::min(domain_max, coords[attr] - range.lo);
          Coords target = coords;
          for (int64_t t = first; t <= last; ++t) {
            target[attr] = t;
            emit_for(target, m.granularity);
          }
          break;
        }
      }
    }
  };
  spec.reduce_fn = [&](int reducer, const GroupView& group) {
    // Split the group's rows per edge.
    std::vector<std::unordered_map<Coords, double, CoordsHash>> by_edge(
        m.edges.size());
    std::vector<std::vector<std::pair<Coords, double>>> contributions(
        m.edges.size());
    for (int64_t i = 0; i < group.size(); ++i) {
      if ((i & 4095) == 0 && tables.Cancelled(reducer, group)) return;
      const int64_t* v = group.value(i);
      const size_t ei = static_cast<size_t>(v[0]);
      Coords coords(v + 1, v + 1 + num_attrs);
      double value = std::bit_cast<double>(v[row_width - 1]);
      if (m.edges[ei].rel == Relationship::kParentChild) {
        by_edge[ei].emplace(std::move(coords), value);
      } else {
        contributions[ei].emplace_back(std::move(coords), value);
      }
    }

    MeasureValueMap local;
    if (m.op == MeasureOp::kExpression) {
      // Seed with the first self edge; gather the other operands.
      size_t seed = 0;
      for (size_t ei = 0; ei < m.edges.size(); ++ei) {
        if (m.edges[ei].rel == Relationship::kSelf) {
          seed = ei;
          break;
        }
      }
      // Index non-seed self edges for lookup.
      std::vector<std::unordered_map<Coords, double, CoordsHash>> self_maps(
          m.edges.size());
      for (size_t ei = 0; ei < m.edges.size(); ++ei) {
        if (ei == seed || m.edges[ei].rel != Relationship::kSelf) continue;
        for (auto& [coords, value] : contributions[ei]) {
          self_maps[ei].emplace(coords, value);
        }
      }
      std::vector<double> operands(m.edges.size());
      for (const auto& [coords, seed_value] : contributions[seed]) {
        bool complete = true;
        for (size_t ei = 0; ei < m.edges.size() && complete; ++ei) {
          const MeasureEdge& e = m.edges[ei];
          if (ei == seed) {
            operands[ei] = seed_value;
          } else if (e.rel == Relationship::kSelf) {
            auto it = self_maps[ei].find(coords);
            if (it == self_maps[ei].end()) {
              complete = false;
            } else {
              operands[ei] = it->second;
            }
          } else {  // kParentChild
            Coords parent = MapRegionUp(schema, m.granularity, coords,
                                        wf.measure(e.source).granularity);
            auto it = by_edge[ei].find(parent);
            if (it == by_edge[ei].end()) {
              complete = false;
            } else {
              operands[ei] = it->second;
            }
          }
        }
        if (complete) local.emplace(coords, m.expr.Eval(operands.data()));
      }
    } else {  // kAggregateSources
      std::unordered_map<Coords, Accumulator, CoordsHash> acc;
      for (size_t ei = 0; ei < m.edges.size(); ++ei) {
        if (m.edges[ei].rel == Relationship::kParentChild) continue;
        for (const auto& [coords, value] : contributions[ei]) {
          auto it = acc.find(coords);
          if (it == acc.end()) it = acc.emplace(coords, Accumulator(m.fn)).first;
          it->second.Add(value);
        }
      }
      for (size_t ei = 0; ei < m.edges.size(); ++ei) {
        if (m.edges[ei].rel != Relationship::kParentChild) continue;
        const Measure& src = wf.measure(m.edges[ei].source);
        for (auto& [coords, accumulator] : acc) {
          Coords parent =
              MapRegionUp(schema, m.granularity, coords, src.granularity);
          auto it = by_edge[ei].find(parent);
          if (it != by_edge[ei].end()) accumulator.Add(it->second);
        }
      }
      for (auto& [coords, accumulator] : acc) {
        local.emplace(coords, accumulator.Result());
      }
    }

    if (tables.Cancelled(reducer, group)) return;
    tables[reducer].merge(local);
  };
  const obs::Context obs(options.trace);
  const double job_start = obs.Now();
  Result<MapReduceMetrics> run = engine->Run(spec, num_input);
  obs::Observe(&obs, {.kind = obs::Kind::kCompositeJob, .job = index,
                      .outcome = obs::Outcome(run.ok()), .start = job_start,
                      .name = m.name,
                      .text = obs.tracing() ? join_gran.ToString(schema)
                                            : std::string()});
  Status merged = run.status();
  if (merged.ok()) merged = tables.MergeInto(&results->mutable_values(index));
  if (!merged.ok()) {
    return AnnotateJobError(merged, "composite", m.name, index);
  }
  total->Accumulate(run.value());
  return Status::OK();
}

}  // namespace

Result<MultiJobResult> EvaluateMultiJob(const Workflow& wf,
                                        const Table& table,
                                        const ParallelEvalOptions& options) {
  if (options.phase != ParallelEvalPhase::kFull) {
    return Status::InvalidArgument(
        "the multi-job baseline only supports full evaluation");
  }
  MapReduceEngine engine(options.num_threads);
  MultiJobResult out;
  out.results = MeasureResultSet(wf.num_measures());

  // ---- Observability resolution, once per sequence — the same
  // discipline as EvaluateParallel. Every job runs on `engine`, so one
  // progress tracker spans the whole sequence; each job's phases re-begin
  // under it.
  const std::string query_label = eval_internal::QueryLabel(options, wf, table);
  const obs::Context obs(options.trace, query_label);
  const auto diagnose = [&](const Status& failure) {
    MaybeWriteDiagnosticBundle(query_label, failure, DescribeOptions(options));
  };

  // Open the checkpoint log up front so restore verification (entry
  // scan, fingerprint check, block checksums) happens before any work.
  std::optional<CheckpointLog> ckpt;
  DfsVolumeStats dfs_base;
  if (options.checkpoint.enabled()) {
    CASM_RETURN_IF_ERROR(
        eval_internal::OpenCheckpoint(options, wf, table, &ckpt, &dfs_base));
  }
  // Circuit breaker around per-job commits: a persistently failing
  // checkpoint store degrades the run to "completed without durability"
  // instead of failing the query (DESIGN.md §12).
  CheckpointBreaker breaker(options.checkpoint.breaker_failure_threshold,
                            options.checkpoint.breaker_probe_seconds);

  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < wf.num_measures(); ++i) {
    const std::string& name = wf.measure(i).name;
    if (ckpt.has_value()) {
      // Restore before spending any deadline budget: a resumed run
      // should finish even when the leftover budget could not re-run
      // the restored jobs. A failed restore (NotFound = never
      // committed; anything else = torn/corrupt/stale entry) simply
      // recomputes — corruption must never surface as wrong results.
      const double restore_start = obs.Now();
      int64_t bytes_restored = 0;
      Result<MeasureValueMap> restored =
          ckpt->TryRestoreJob(i, name, &bytes_restored);
      obs::Observe(&obs, {.kind = obs::Kind::kCkptRestore, .job = i,
                          .outcome = obs::Outcome(restored.ok()),
                          .start = restore_start, .n = {bytes_restored},
                          .name = name, .text = restored.status().ToString()});
      if (restored.ok()) {
        out.results.mutable_values(i) = std::move(restored).value();
        ++out.jobs_restored;
        ++out.total_metrics.checkpoint_jobs_restored;
        out.total_metrics.checkpoint_bytes_restored += bytes_restored;
        continue;
      }
      if (restored.status().code() != StatusCode::kNotFound) {
        // Torn/corrupt/stale entry: recompute, but count why.
        ++out.total_metrics.checkpoint_restore_failures;
      }
    }
    // The caller's deadline budgets the whole job sequence: each job gets
    // what the previous jobs left over, and a sequence that exhausts the
    // budget between jobs fails here rather than starting one that cannot
    // meaningfully finish.
    ParallelEvalOptions job_options = options;
    // Every job stamps the sequence's resolved trace and label (both are
    // EngineOptions, copied into each job's spec).
    job_options.trace = obs.trace();
    job_options.query_label = query_label;
    if (options.deadline_seconds > 0) {
      const double remaining = options.deadline_seconds - SecondsSince(start);
      if (remaining <= 0) {
        Status expired = Status::DeadlineExceeded(
            "multi-job evaluation: deadline exceeded after " +
            std::to_string(out.jobs) + " of " +
            std::to_string(wf.num_measures()) + " jobs");
        diagnose(expired);
        return expired;
      }
      job_options.deadline_seconds = remaining;
    }
    Status job_status =
        wf.measure(i).op == MeasureOp::kAggregateRecords
            ? RunBasicJob(wf, i, table, job_options, &engine, &out.results,
                          &out.total_metrics)
            : RunCompositeJob(wf, i, job_options, &engine, &out.results,
                              &out.total_metrics);
    if (!job_status.ok()) {
      diagnose(job_status);
      return job_status;
    }
    ++out.jobs;
    if (ckpt.has_value()) {
      // Commit the finished job before starting the next one; after an
      // OK commit a crash cannot lose it. A commit failure degrades the
      // run — this job's results stay in memory, un-checkpointed, and
      // the breaker stops hammering a store that keeps failing — but
      // never fails the query: the caller loses durability, not
      // results, and the metrics say so.
      if (!breaker.ShouldAttempt()) {
        obs::Observe(&obs, {.kind = obs::Kind::kCkptSkipped, .job = i,
                            .name = name});
      } else {
        const double write_start = obs.Now();
        Result<int64_t> bytes =
            ckpt->CommitJob(i, name, out.results.values(i));
        obs::Observe(&obs, {.kind = obs::Kind::kCkptWrite, .job = i,
                            .outcome = obs::Outcome(bytes.ok()),
                            .start = write_start,
                            .n = {bytes.ok() ? bytes.value() : 0}, .name = name,
                            .text = bytes.status().ToString()});
        if (bytes.ok()) {
          breaker.RecordSuccess();
          out.total_metrics.checkpoint_bytes_written += bytes.value();
        } else {
          breaker.RecordFailure();
          obs::Observe(&obs, {.kind = breaker.open()
                                          ? obs::Kind::kCkptBreakerOpen
                                          : obs::Kind::kCkptCommitFailed,
                              .job = i, .text = bytes.status().ToString()});
        }
      }
    }
  }
  out.total_metrics.checkpoint_commit_failures += breaker.commits_failed();
  out.total_metrics.checkpoint_commits_skipped += breaker.commits_skipped();
  out.total_metrics.checkpoint_degraded =
      out.total_metrics.checkpoint_degraded || breaker.degraded();
  eval_internal::ApplyDfsStats(ckpt, dfs_base, &out.total_metrics);
  obs::Observe(&obs, {.kind = obs::Kind::kQueryDone,
                      .metrics = &out.total_metrics});
  return out;
}

}  // namespace casm

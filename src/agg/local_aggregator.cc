// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.

#include "agg/local_aggregator.h"

#include <algorithm>
#include <chrono>
#include <unordered_map>

#include "agg/batch.h"
#include "common/logging.h"
#include "local/derivation.h"
#include "obs/event.h"

namespace casm {
namespace {

using AccMap = std::unordered_map<Coords, Accumulator, CoordsHash>;

/// Rows the row path adds between cancellation polls (the batch path
/// polls once per batch).
constexpr int64_t kRowPathPollRows = 4096;

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

LocalAggregator::LocalAggregator(const Workflow* wf,
                                 const SortScanEvaluator* sortscan,
                                 const LocalAggOptions& options)
    : wf_(wf), sortscan_(sortscan), options_(options) {
  CASM_CHECK(wf != nullptr);
  if (sortscan_ == nullptr) {
    owned_sortscan_ = std::make_unique<SortScanEvaluator>(wf);
    sortscan_ = owned_sortscan_.get();
  }
  for (int i : wf->BasicMeasures()) {
    const Measure& m = wf->measure(i);
    basics_.push_back(BasicMeasure{i, m.fn, m.field, &m.granularity});
  }
}

MeasureResultSet LocalAggregator::Evaluate(const LocalAggContext& ctx,
                                           LocalEvalStats* stats) const {
  const double start = ctx.obs != nullptr ? ctx.obs->Now() : 0;
  // The rule: sort/scan when its sort is free (combined sort) or is the
  // thing being timed (kSortOnly); the hash group-by otherwise.
  const bool sortscan =
      ctx.assume_sorted || ctx.phase == LocalEvalPhase::kSortOnly;
  MeasureResultSet results =
      sortscan ? sortscan_->Evaluate(ctx.rows, ctx.n, ctx.assume_sorted,
                                     ctx.phase, stats, ctx.cancel)
               : HashGroupBy(ctx, stats);
  if (stats != nullptr) {
    ++(sortscan ? stats->agg_blocks_sortscan : stats->agg_blocks_morsel);
  }
  obs::Observe(ctx.obs, {.kind = sortscan ? obs::Kind::kSortScanBlock
                                           : obs::Kind::kMorselBlock,
                         .task = ctx.task, .start = start, .n = {ctx.n}});
  return results;
}

MeasureResultSet LocalAggregator::HashGroupBy(const LocalAggContext& ctx,
                                              LocalEvalStats* stats) const {
  const auto start = std::chrono::steady_clock::now();
  MeasureResultSet results(wf_->num_measures());
  const Schema& schema = *wf_->schema();
  const int width = schema.num_attributes();
  const size_t num_basics = basics_.size();
  auto cancelled = [&] {
    return ctx.cancel != nullptr && ctx.cancel->cancelled();
  };

  // Batch path (batch_cap > 0): the block is processed as columnar
  // batches — one transpose plus one MapFromFinestColumn pass per
  // (attribute, level) replaces a heap-allocating RegionOfRecord per row
  // per measure; the per-row work shrinks to a scratch-Coords gather and
  // the hash probe. Capacity is clamped to the block size (reducer blocks
  // are often far smaller than the configured batch), and blocks under
  // the batch_min_block_rows cutoff skip batching entirely: the mapper's
  // fixed setup would cost more than the rows themselves.
  const int64_t batch_cap =
      ctx.n < options_.batch_min_block_rows
          ? 0
          : std::min(agg_internal::ResolveBatchRows(options_.batch_rows),
                     ctx.n);
  std::vector<AccMap> acc(num_basics);
  int64_t batches = 0;
  if (batch_cap > 0) {
    agg_internal::RegionBatchMapper mapper(&schema, batch_cap);
    std::vector<std::vector<const int64_t*>> gran_cols(num_basics);
    Coords scratch(static_cast<size_t>(width));
    for (int64_t begin = 0; begin < ctx.n; begin += batch_cap) {
      if (cancelled()) return results;
      const int64_t bn = std::min(batch_cap, ctx.n - begin);
      mapper.Load(ctx.rows + begin * width, bn);
      ++batches;
      for (size_t b = 0; b < num_basics; ++b) {
        mapper.GranularityColumns(*basics_[b].granularity, &gran_cols[b]);
      }
      for (int64_t i = 0; i < bn; ++i) {
        for (size_t b = 0; b < num_basics; ++b) {
          const BasicMeasure& info = basics_[b];
          agg_internal::RegionBatchMapper::FillCoords(gran_cols[b], i,
                                                      &scratch);
          auto it = acc[b].find(scratch);
          if (it == acc[b].end()) {
            it = acc[b].emplace(scratch, Accumulator(info.fn)).first;
          }
          it->second.Add(
              static_cast<double>(mapper.raw_column(info.field)[i]));
        }
      }
    }
  } else {
    for (int64_t r = 0; r < ctx.n; ++r) {
      if (r % kRowPathPollRows == 0 && cancelled()) return results;
      const int64_t* row = ctx.rows + r * width;
      for (size_t b = 0; b < num_basics; ++b) {
        const BasicMeasure& info = basics_[b];
        Coords coords = RegionOfRecord(schema, *info.granularity, row);
        auto it = acc[b].find(coords);
        if (it == acc[b].end()) {
          it = acc[b].emplace(std::move(coords), Accumulator(info.fn)).first;
        }
        it->second.Add(static_cast<double>(row[info.field]));
      }
    }
  }

  for (size_t b = 0; b < num_basics; ++b) {
    MeasureValueMap& out = results.mutable_values(basics_[b].index);
    out.reserve(acc[b].size());
    for (const auto& [coords, accumulator] : acc[b]) {
      out.emplace(coords, accumulator.Result());
    }
  }
  // Composite measures in dependency order, from the finished tables.
  for (int i = 0; i < wf_->num_measures(); ++i) {
    if (cancelled()) return results;
    if (wf_->measure(i).op != MeasureOp::kAggregateRecords) {
      DeriveCompositeMeasure(*wf_, i, &results);
    }
  }

  if (stats != nullptr) {
    stats->records += ctx.n;
    stats->hashed_measures += static_cast<int64_t>(num_basics);
    stats->agg_batches += batches;
    stats->eval_seconds += SecondsSince(start);
  }
  return results;
}

std::unique_ptr<LocalAggregator> MakeLocalAggregator(
    const Workflow* wf, const SortScanEvaluator* sortscan,
    const LocalAggOptions& options) {
  return std::make_unique<LocalAggregator>(wf, sortscan, options);
}

}  // namespace casm

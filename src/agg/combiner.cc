// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.

#include "agg/combiner.h"

#include <algorithm>
#include <bit>

#include "mr/engine.h"
#include "obs/event.h"

namespace casm {
namespace {

/// Pairs per basic measure after which the cardinality bypass check runs
/// (once per split).
constexpr int64_t kBypassWindowPairs = 4096;

}  // namespace

EarlyAggCombiner::EarlyAggCombiner(const Workflow* wf,
                                   const LocalAggOptions& options)
    : wf_(wf),
      schema_(wf->schema().get()),
      options_(options),
      basics_(wf->BasicMeasures()),
      num_attrs_(schema_->num_attributes()),
      value_width_(1 + num_attrs_ + Accumulator::kPartialSize) {
  value_.resize(static_cast<size_t>(value_width_));
}

void EarlyAggCombiner::EmitPartial(const std::vector<int64_t>& group_key,
                                   const Accumulator& acc, Emitter* emitter) {
  const int64_t* block = group_key.data();
  const int mi = static_cast<int>(group_key[static_cast<size_t>(num_attrs_)]);
  value_[0] = mi;
  for (int a = 0; a < num_attrs_; ++a) {
    value_[static_cast<size_t>(1 + a)] =
        group_key[static_cast<size_t>(num_attrs_ + 1 + a)];
  }
  double partial[Accumulator::kPartialSize];
  acc.ToPartial(partial);
  for (int i = 0; i < Accumulator::kPartialSize; ++i) {
    value_[static_cast<size_t>(1 + num_attrs_ + i)] =
        std::bit_cast<int64_t>(partial[i]);
  }
  emitter->Emit(block, value_.data());
  ++pairs_out_;
}

void EarlyAggCombiner::Flush(Emitter* emitter) {
  if (partials_.empty()) return;
  for (const auto& [gk, acc] : partials_) EmitPartial(gk, acc, emitter);
  partials_.clear();
  ++flushes_;
  obs::Observe(emitter->obs(), {.kind = obs::Kind::kCombinerFlush,
                                .n = {pairs_out_}});
}

void EarlyAggCombiner::AddRecord(const int64_t* block_key, const int64_t* row,
                                 Emitter* emitter) {
  for (int mi : basics_) {
    const Measure& m = wf_->measure(mi);
    group_key_.assign(block_key, block_key + num_attrs_);
    group_key_.push_back(mi);
    Coords coords = RegionOfRecord(*schema_, m.granularity, row);
    group_key_.insert(group_key_.end(), coords.begin(), coords.end());
    ++pairs_in_;
    if (bypassed_) {
      Accumulator acc(m.fn);
      acc.Add(static_cast<double>(row[m.field]));
      EmitPartial(group_key_, acc, emitter);
      continue;
    }
    auto it = partials_.find(group_key_);
    if (it == partials_.end()) {
      it = partials_.emplace(group_key_, Accumulator(m.fn)).first;
    }
    it->second.Add(static_cast<double>(row[m.field]));
  }
  if (bypassed_) return;

  // Cardinality bypass: one check, after the first window of pairs. The
  // retained fraction IS the achieved reduction — near 1.0 the table is
  // pure overhead (groups are ~unique within the split) and the rest of
  // the split emits directly.
  const int64_t check_after =
      kBypassWindowPairs *
      std::max<int64_t>(1, static_cast<int64_t>(basics_.size()));
  if (!bypass_checked_ && pairs_in_ >= check_after) {
    bypass_checked_ = true;
    const double retained = static_cast<double>(partials_.size()) /
                            static_cast<double>(pairs_in_);
    if (retained >= options_.combiner_bypass_ratio) {
      bypassed_ = true;
      obs::Observe(emitter->obs(),
                   {.kind = obs::Kind::kCombinerBypass,
                    .n = {static_cast<int64_t>(partials_.size()), pairs_in_}});
      Flush(emitter);
      return;
    }
  }
  // Bounded memory: a full table spills its partials to the shuffle's
  // global hash partitions; reducers merge per-group partials regardless.
  if (static_cast<int64_t>(partials_.size()) >= options_.combiner_max_entries) {
    Flush(emitter);
  }
}

}  // namespace casm

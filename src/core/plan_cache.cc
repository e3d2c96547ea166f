// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.

#include "core/plan_cache.h"

#include <algorithm>

#include "core/cost_model.h"
#include "core/coverage.h"
#include "obs/event.h"

namespace casm {

void PlanCache::Remember(const ExecutionPlan& plan, double observed_max_load,
                         int64_t num_records, int num_reducers) {
  std::unique_lock<std::mutex> lock(mu_);
  for (Entry& entry : entries_) {
    if (entry.plan.key == plan.key &&
        entry.plan.clustering_factor == plan.clustering_factor) {
      if (observed_max_load < entry.score) {
        entry.score = observed_max_load;
        entry.observed_records = num_records;
        entry.observed_reducers = num_reducers;
        ++stats_.updates;
      }
      return;
    }
  }
  entries_.push_back(Entry{plan, observed_max_load, num_records, num_reducers});
  ++stats_.inserts;
  obs::Observe(obs_, {.kind = obs::Kind::kPlanCacheInsert});
  if (max_entries_ > 0 && static_cast<int>(entries_.size()) > max_entries_) {
    auto worst = std::max_element(
        entries_.begin(), entries_.end(),
        [](const Entry& a, const Entry& b) { return a.score < b.score; });
    entries_.erase(worst);
    ++stats_.evictions;
    obs::Observe(obs_, {.kind = obs::Kind::kPlanCacheEvict});
  }
}

std::optional<ExecutionPlan> PlanCache::FindFeasible(const Workflow& wf,
                                                     int64_t num_records,
                                                     int num_reducers) const {
  std::unique_lock<std::mutex> lock(mu_);
  const Entry* best = nullptr;
  for (const Entry& entry : entries_) {
    if (best != nullptr && entry.score >= best->score) continue;
    if (IsFeasible(wf, entry.plan.key)) best = &entry;
  }
  if (best == nullptr) {
    ++stats_.misses;
    obs::Observe(obs_, {.kind = obs::Kind::kPlanCacheMiss});
    return std::nullopt;
  }
  ++stats_.hits;
  obs::Observe(obs_, {.kind = obs::Kind::kPlanCacheHit});
  ExecutionPlan plan = best->plan;
  // The cached clustering factor was observed on a specific table and
  // cluster; reusing it verbatim on a different one silently skews every
  // downstream cost estimate (a cf tuned for 10^4 records is far too
  // coarse for 10^7). Re-derive it whenever the caller's context is known
  // and differs from the observation context.
  const bool have_context = num_records > 0 && num_reducers > 0;
  const bool same_context = best->observed_records == num_records &&
                            best->observed_reducers == num_reducers;
  if (have_context && !same_context) {
    const Schema& schema = *wf.schema();
    const int64_t n_g = plan.key.NumBaseBlocks(schema);
    const int64_t d = plan.AnnotationWidth();
    if (d > 0) {
      plan.clustering_factor = std::clamp<int64_t>(
          OptimalClusteringFactor(num_records, n_g, d, num_reducers, 0),
          1, std::max<int64_t>(1, n_g));
    } else {
      plan.clustering_factor = 1;
    }
    plan.predicted_max_load =
        OverlappingMaxLoad(num_records, n_g, d, num_reducers,
                           plan.clustering_factor);
  }
  return plan;
}

int PlanCache::size() const {
  std::unique_lock<std::mutex> lock(mu_);
  return static_cast<int>(entries_.size());
}

PlanCacheStats PlanCache::stats() const {
  std::unique_lock<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace casm

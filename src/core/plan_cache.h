// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.
//
// Reuse of known-good distribution keys (paper §V, last paragraph): "the
// goodness of the distribution key is not bound with specific composite
// queries since it only affects how the raw data are distributed. As long
// as the value distribution of the original data set does not change, a
// distribution key which was previously identified as a good one will
// still be a good candidate, as long as it is feasible for the given
// query."
//
// A PlanCache remembers keys together with the workload they achieved
// (e.g., the max reducer load observed by a sampled dispatch or a real
// run) and answers "is any remembered key feasible for this query?".
//
// Concurrency: the cache is shared by every worker of the multi-query
// service (svc/query_service.h), so all operations are serialized on one
// internal mutex and FindFeasible returns a copy, never a reference into
// the store. Hit/miss/insert/eviction activity is counted internally
// (stats()) and, once a service hooks the cache up (set_observer),
// observed (obs/event.h): casm_plan_cache_* counters and "plancache"
// trace instants.

#ifndef CASM_CORE_PLAN_CACHE_H_
#define CASM_CORE_PLAN_CACHE_H_

#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

#include "core/plan.h"
#include "measure/workflow.h"

namespace casm {

namespace obs {
class Context;
}  // namespace obs

/// One consistent snapshot of cache activity since construction.
struct PlanCacheStats {
  int64_t hits = 0;       // FindFeasible returned a plan
  int64_t misses = 0;     // FindFeasible returned nullopt
  int64_t inserts = 0;    // Remember added a new entry
  int64_t updates = 0;    // Remember improved an existing entry's score
  int64_t evictions = 0;  // capacity pressure dropped the worst entry
};

/// Thread-safe store of previously successful plans for one dataset
/// (one schema + one value distribution).
class PlanCache {
 public:
  /// `max_entries` bounds the store; inserting past it evicts the
  /// worst-scoring entry. <= 0 = unbounded (the single-query default —
  /// plan diversity is tiny without a service in front).
  explicit PlanCache(int max_entries = 0) : max_entries_(max_entries) {}
  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Remembers `plan` with its observed heaviest reducer workload (lower
  /// is better). Remembering an equivalent plan again keeps the better
  /// score. `num_records`/`num_reducers` record the table and cluster
  /// the load was observed on (0 = unknown); FindFeasible uses them to
  /// decide whether the cached clustering factor still applies.
  void Remember(const ExecutionPlan& plan, double observed_max_load,
                int64_t num_records = 0, int num_reducers = 0);

  /// Returns the best-scored remembered plan whose key is feasible for
  /// `wf`, or nullopt. A cached key stays good across tables with the
  /// same value distribution (§V), but its clustering factor and load
  /// prediction do NOT — they were tuned to the table the plan was
  /// remembered on. When the caller supplies the current table's
  /// `num_records`/`num_reducers` and they differ from the entry's
  /// observation context, the returned plan's clustering factor is
  /// re-derived from the cost model and its predicted_max_load refreshed.
  std::optional<ExecutionPlan> FindFeasible(const Workflow& wf,
                                            int64_t num_records = 0,
                                            int num_reducers = 0) const;

  int size() const;
  PlanCacheStats stats() const;

  /// The one observability hook: cache activity is observed through
  /// `observer` ("plancache" instants, casm_plan_cache_* counters). Null
  /// (the default) detaches. Install before sharing; `observer` must
  /// outlive the cache.
  void set_observer(const obs::Context* observer) { obs_ = observer; }

 private:
  struct Entry {
    ExecutionPlan plan;
    double score;
    int64_t observed_records;
    int observed_reducers;
  };

  const int max_entries_;
  mutable std::mutex mu_;
  std::vector<Entry> entries_;
  mutable PlanCacheStats stats_;
  const obs::Context* obs_ = nullptr;  // not owned; null = unobserved
};

}  // namespace casm

#endif  // CASM_CORE_PLAN_CACHE_H_

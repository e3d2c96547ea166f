// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.
//
// Tests for the §V plan cache: feasibility-gated reuse of previously
// successful distribution keys across queries on the same dataset.

#include <algorithm>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/cost_model.h"
#include "core/key_derivation.h"
#include "core/plan_cache.h"
#include "obs/event.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "queries/paper_data.h"
#include "queries/paper_queries.h"

namespace casm {
namespace {

ExecutionPlan PlanWithKey(DistributionKey key, int64_t cf) {
  ExecutionPlan plan;
  plan.key = std::move(key);
  plan.clustering_factor = cf;
  return plan;
}

TEST(PlanCacheTest, EmptyCacheFindsNothing) {
  PlanCache cache;
  Workflow wf = MakePaperQuery(PaperQuery::kQ1);
  EXPECT_FALSE(cache.FindFeasible(wf).has_value());
  EXPECT_EQ(cache.size(), 0);
}

TEST(PlanCacheTest, ReusesKeyAcrossQueriesWhenFeasible) {
  // A key proven good for Q6 (<D1:tier1, T1:hour(-24,0)>) is feasible for
  // Q5 only if it covers Q5's window and granularity; Q5's key
  // (<D1:value, T1:hour(-10,0)>) is NOT feasible for Q6 (finer D1 but
  // smaller window... the window is what matters).
  Workflow q6 = MakePaperQuery(PaperQuery::kQ6);
  Workflow q5 = MakePaperQuery(PaperQuery::kQ5);
  DistributionKey q6_key = DeriveDistributionKeys(q6).query_key;
  DistributionKey q5_key = DeriveDistributionKeys(q5).query_key;

  PlanCache cache;
  cache.Remember(PlanWithKey(q6_key, 10), 50000);
  // Q6's key covers a 24-hour trailing window at a coarser D1 level, which
  // generalizes Q5's needs: feasible for Q5 (Theorem 1).
  std::optional<ExecutionPlan> for_q5 = cache.FindFeasible(q5);
  ASSERT_TRUE(for_q5.has_value());
  EXPECT_EQ(for_q5->key, q6_key);

  // The reverse does not hold: Q5's key is at D1:value and only carries a
  // 10-hour window, infeasible for Q6's 24-hour window and tier1 rollup.
  PlanCache reverse;
  reverse.Remember(PlanWithKey(q5_key, 10), 40000);
  EXPECT_FALSE(reverse.FindFeasible(q6).has_value());
}

TEST(PlanCacheTest, PrefersBetterObservedScore) {
  Workflow q5 = MakePaperQuery(PaperQuery::kQ5);
  const Schema& schema = *q5.schema();
  DistributionKey own = DeriveDistributionKeys(q5).query_key;
  DistributionKey coarse =
      DistributionKey::Of(schema, {{"D1", "tier2", 0, 0},
                                   {"T1", "hour", -10, 0}})
          .value();
  PlanCache cache;
  cache.Remember(PlanWithKey(own, 4), 90000);
  cache.Remember(PlanWithKey(coarse, 4), 30000);
  std::optional<ExecutionPlan> found = cache.FindFeasible(q5);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->key, coarse);
}

TEST(PlanCacheTest, RememberKeepsBestScorePerPlan) {
  Workflow q5 = MakePaperQuery(PaperQuery::kQ5);
  DistributionKey key = DeriveDistributionKeys(q5).query_key;
  PlanCache cache;
  cache.Remember(PlanWithKey(key, 4), 90000);
  cache.Remember(PlanWithKey(key, 4), 50000);  // same plan, better score
  EXPECT_EQ(cache.size(), 1);
  cache.Remember(PlanWithKey(key, 8), 70000);  // different cf: new entry
  EXPECT_EQ(cache.size(), 2);
}

TEST(PlanCacheTest, InfeasibleEntriesAreSkipped) {
  Workflow q6 = MakePaperQuery(PaperQuery::kQ6);
  const Schema& schema = *q6.schema();
  PlanCache cache;
  // A fine non-overlapping key: infeasible for Q6's window.
  cache.Remember(
      PlanWithKey(DistributionKey::Of(schema, {{"D1", "value", 0, 0},
                                               {"T1", "minute", 0, 0}})
                      .value(),
                  1),
      1000);
  EXPECT_FALSE(cache.FindFeasible(q6).has_value());
  // Adding a feasible one makes it discoverable despite the worse score.
  cache.Remember(PlanWithKey(DeriveDistributionKeys(q6).query_key, 10),
                 99000);
  ASSERT_TRUE(cache.FindFeasible(q6).has_value());
}

TEST(PlanCacheTest, RefreshesClusteringFactorOnNewTableContext) {
  // Regression: a cached key stays good across tables with the same value
  // distribution (§V), but its clustering factor was tuned to the table
  // it was observed on. A hit under a different table/cluster context
  // must re-derive cf from the cost model instead of reusing it verbatim.
  Workflow q5 = MakePaperQuery(PaperQuery::kQ5);
  const Schema& schema = *q5.schema();
  DistributionKey key = DeriveDistributionKeys(q5).query_key;
  PlanCache cache;
  cache.Remember(PlanWithKey(key, 1), 500.0, /*num_records=*/1000,
                 /*num_reducers=*/4);

  // Same observation context: the cached factor applies as-is.
  std::optional<ExecutionPlan> same = cache.FindFeasible(q5, 1000, 4);
  ASSERT_TRUE(same.has_value());
  EXPECT_EQ(same->clustering_factor, 1);

  // Context-free lookup (legacy callers): no refresh possible.
  std::optional<ExecutionPlan> legacy = cache.FindFeasible(q5);
  ASSERT_TRUE(legacy.has_value());
  EXPECT_EQ(legacy->clustering_factor, 1);

  // A 10000x larger table: cf=1 was tuned for 1000 records and would
  // shatter the big table into maximally many overlapping blocks. The
  // hit must carry the cost model's factor for the new context.
  const int64_t big_records = 10000000;
  std::optional<ExecutionPlan> big = cache.FindFeasible(q5, big_records, 4);
  ASSERT_TRUE(big.has_value());
  EXPECT_EQ(big->key, key);
  const int64_t n_g = big->key.NumBaseBlocks(schema);
  const int64_t d = big->AnnotationWidth();
  ASSERT_GT(d, 0);
  const int64_t expected_cf = std::clamp<int64_t>(
      OptimalClusteringFactor(big_records, n_g, d, 4, 0), 1,
      std::max<int64_t>(1, n_g));
  EXPECT_EQ(big->clustering_factor, expected_cf);
  EXPECT_GT(big->clustering_factor, 1);  // stale cf would have been 1
  EXPECT_GT(big->predicted_max_load, 0.0);
}

TEST(PlanCacheTest, StatsCountHitsMissesInsertsUpdates) {
  Workflow q5 = MakePaperQuery(PaperQuery::kQ5);
  DistributionKey key = DeriveDistributionKeys(q5).query_key;
  PlanCache cache;
  EXPECT_FALSE(cache.FindFeasible(q5).has_value());  // miss
  cache.Remember(PlanWithKey(key, 4), 90000);        // insert
  cache.Remember(PlanWithKey(key, 4), 50000);        // update (better score)
  cache.Remember(PlanWithKey(key, 4), 70000);        // neither (worse score)
  ASSERT_TRUE(cache.FindFeasible(q5).has_value());   // hit

  const PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.inserts, 1);
  EXPECT_EQ(stats.updates, 1);
  EXPECT_EQ(stats.evictions, 0);
}

TEST(PlanCacheTest, CapacityEvictsWorstScoredEntry) {
  Workflow q5 = MakePaperQuery(PaperQuery::kQ5);
  const Schema& schema = *q5.schema();
  DistributionKey own = DeriveDistributionKeys(q5).query_key;
  DistributionKey coarse =
      DistributionKey::Of(schema,
                          {{"D1", "tier2", 0, 0}, {"T1", "hour", -10, 0}})
          .value();

  PlanCache cache(/*max_entries=*/2);
  cache.Remember(PlanWithKey(own, 4), 90000);    // worst score
  cache.Remember(PlanWithKey(coarse, 4), 30000);
  cache.Remember(PlanWithKey(own, 8), 60000);    // third entry -> eviction
  EXPECT_EQ(cache.size(), 2);
  EXPECT_EQ(cache.stats().evictions, 1);

  // The best-scored survivor answers lookups; the evicted 90000-score
  // entry is gone (a hit would have preferred 30000 anyway, so check the
  // store's contents through size + the returned score proxy).
  std::optional<ExecutionPlan> found = cache.FindFeasible(q5);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->key, coarse);
}

TEST(PlanCacheTest, PublishesRegistryCountersAndTraceInstants) {
  Workflow q5 = MakePaperQuery(PaperQuery::kQ5);
  DistributionKey key = DeriveDistributionKeys(q5).query_key;

  // The counters go to the process-wide registry: enable it for the
  // test, count deltas, and restore it.
  MetricsRegistry& registry = *MetricsRegistry::Global();
  const bool registry_was_enabled = registry.enabled();
  registry.set_enabled(true);
  auto count = [&registry](const char* name) {
    return registry.CounterValue(name);
  };
  const int64_t misses = count("casm_plan_cache_misses_total");
  const int64_t hits = count("casm_plan_cache_hits_total");
  const int64_t inserts = count("casm_plan_cache_inserts_total");
  const int64_t evictions = count("casm_plan_cache_evictions_total");
  TraceRecorder trace;
  trace.set_enabled(true);
  const obs::Context observer(&trace);

  PlanCache cache(/*max_entries=*/1);
  cache.set_observer(&observer);
  EXPECT_FALSE(cache.FindFeasible(q5).has_value());
  cache.Remember(PlanWithKey(key, 4), 90000);
  cache.Remember(PlanWithKey(key, 8), 50000);  // second entry -> eviction
  ASSERT_TRUE(cache.FindFeasible(q5).has_value());

  EXPECT_EQ(count("casm_plan_cache_misses_total") - misses, 1);
  EXPECT_EQ(count("casm_plan_cache_hits_total") - hits, 1);
  EXPECT_EQ(count("casm_plan_cache_inserts_total") - inserts, 2);
  EXPECT_EQ(count("casm_plan_cache_evictions_total") - evictions, 1);
  registry.set_enabled(registry_was_enabled);

  // The same activity reaches the trace as "plancache" instants.
  std::map<std::string, int> instants;
  for (const TraceEvent& ev : trace.Snapshot()) {
    if (std::string(ev.category) == "plancache") ++instants[ev.name];
  }
  EXPECT_EQ(instants, (std::map<std::string, int>{
                          {"evict", 1}, {"hit", 1}, {"miss", 1}}));
}

TEST(PlanCacheTest, ConcurrentLookupsAndInsertsAreSerialized) {
  // Stress guard for the multi-query service, which shares one cache
  // across its whole worker pool: concurrent FindFeasible / Remember /
  // stats must be data-race-free (this test is the TSan canary — remove
  // the cache's internal mutex and TSan fails it) and no operation may
  // be lost.
  Workflow q5 = MakePaperQuery(PaperQuery::kQ5);
  Workflow q6 = MakePaperQuery(PaperQuery::kQ6);
  DistributionKey q5_key = DeriveDistributionKeys(q5).query_key;
  DistributionKey q6_key = DeriveDistributionKeys(q6).query_key;

  PlanCache cache(/*max_entries=*/4);
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        if ((t + i) % 3 == 0) {
          cache.Remember(PlanWithKey(t % 2 == 0 ? q5_key : q6_key,
                                     1 + (i % 8)),
                         1000.0 + i, /*num_records=*/1000 + i,
                         /*num_reducers=*/4);
        } else {
          (void)cache.FindFeasible((t + i) % 2 == 0 ? q5 : q6, 1000 + i, 4);
        }
        (void)cache.stats();
        (void)cache.size();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  const PlanCacheStats stats = cache.stats();
  // Every operation is accounted: each thread did kOpsPerThread ops split
  // between lookups (hit + miss) and Remember (insert/update or a no-op
  // worse-score call; inserts beyond capacity evicted).
  const int64_t lookups = stats.hits + stats.misses;
  int64_t expected_lookups = 0;
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kOpsPerThread; ++i) {
      if ((t + i) % 3 != 0) ++expected_lookups;
    }
  }
  EXPECT_EQ(lookups, expected_lookups);
  EXPECT_LE(cache.size(), 4);
  EXPECT_GE(stats.inserts, 1);
}

}  // namespace
}  // namespace casm
